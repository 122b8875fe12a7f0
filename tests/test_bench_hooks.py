"""The benchmark in ``perfbench/`` wraps program methods that it finds in
their own class bodies (``cls.__dict__[name]``).  This checks that every
hook it installs still finds its target and is removed again, so moving
such a method into a base class fails here rather than in the benchmark."""
from pathlib import Path

import pytest

from claimcheck import llm, pages, websearch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    return spans


def test_counters_and_tracer_install_and_restore(spans):
    originals = {
        (llm.LlmGateway, "complete"): llm.LlmGateway.__dict__["complete"],
        (websearch.SearchClient, "search"): websearch.SearchClient.__dict__["search"],
        (pages.PageReader, "fetch"): pages.PageReader.__dict__["fetch"],
        (llm, "replay_key"): llm.replay_key,
    }
    patches = spans.Patches()
    try:
        spans.install_counters(patches, spans.CallCounts())
        spans.install_tracer(patches, spans.Tracer())
        assert llm.LlmGateway.__dict__["complete"] is not originals[(llm.LlmGateway, "complete")]
    finally:
        patches.restore()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original
