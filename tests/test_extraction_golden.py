"""Golden extraction text: sha256 digests of the HTML pages of the benchmark
worlds in ``perfbench/world.py`` (both claim mixes, both page sizes, one
seed) and of ``extract_text`` on each of them, uncapped on the small pages
and at the reader's 12 000-character cap on all of them; and of documents
strung from ``test_pages.FRAGMENTS``, the tokenizer's corner cases, and of
``extract_text`` on each with no length floor, uncapped and at two caps.

The text depends on ``HTMLParser`` internals that ``pages._TextExtractor``
reads, so a Python release or an edit to the fast paths that changes any
page's text fails here.  A failure that says "world changed" or
"fragments changed" means the benchmark's pages or the fragments moved,
not the extraction; then regenerate the files:

    PYTHONPATH=src python tests/test_extraction_golden.py
"""
import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Optional

import pytest

from claimcheck.pages import MIN_CHARS, EmptyExtraction, extract_text

from test_pages import FRAGMENTS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "data" / "extraction_golden.json"
FRAGMENT_GOLDEN = GOLDEN.with_name("fragment_golden.json")
SEED = 7601
CAP = 12_000
N_DOCUMENTS = 400
FRAGMENT_CAPS = (None, 12, 200)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _text_digest(raw: str, max_chars: Optional[int], min_chars: int = MIN_CHARS) -> Optional[str]:
    try:
        return _sha(extract_text(raw, min_chars, max_chars=max_chars).encode("utf-8"))
    except EmptyExtraction:
        return None


def world_digests(world) -> dict:
    """{"<mix>/<sizes>/<page id>": {"page", "full" (small pages only),
    "capped"}} for every page served as 200 text/html; a text digest is
    None where extraction raises EmptyExtraction."""
    digests = {}
    pool = world.FragmentPool.build(SEED)
    for mix in sorted(world.WORLD_MIX):
        for sizes in sorted(world.PAGE_SIZES):
            for pid, spec in world.generate(mix, sizes, SEED)["pages"].items():
                status, content_type, body = world.render_page(spec, pool, SEED, pid)
                if status != 200 or not content_type.startswith("text/html"):
                    continue
                raw = body.decode("utf-8")
                entry = digests[f"{mix}/{sizes}/{pid}"] = {"page": _sha(body)}
                if sizes == "small":
                    entry["full"] = _text_digest(raw, None)
                entry["capped"] = _text_digest(raw, CAP)
    return digests


def fragment_digests() -> list:
    """[{"doc", "None", "12", "200"}] for N_DOCUMENTS documents of 1-40
    fragments each: the document's digest, then its text's at each cap."""
    rng = random.Random(SEED)
    digests = []
    for _ in range(N_DOCUMENTS):
        doc = "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(1, 40)))
        digests.append({"doc": _sha(doc.encode("utf-8")),
                        **{str(cap): _text_digest(doc, cap, min_chars=0)
                           for cap in FRAGMENT_CAPS}})
    return digests


@pytest.fixture
def world(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import world
    return world


def test_world_pages_extract_to_the_golden_text(world):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digests = world_digests(world)
    assert ({key: entry["page"] for key, entry in digests.items()}
            == {key: entry["page"] for key, entry in golden.items()}), (
        "world changed: the benchmark pages are not the ones the golden file "
        "was made from; regenerate it")
    changed = sorted(key for key, entry in digests.items() if entry != golden[key])
    assert not changed, f"extracted text changed on {len(changed)} pages: {changed[:5]}"


def test_fragment_documents_extract_to_the_golden_text():
    golden = json.loads(FRAGMENT_GOLDEN.read_text(encoding="utf-8"))
    digests = fragment_digests()
    assert [entry["doc"] for entry in digests] == [entry["doc"] for entry in golden], (
        "fragments changed: the documents are not the ones the golden file "
        "was made from; regenerate it")
    changed = [i for i, entry in enumerate(digests) if entry != golden[i]]
    assert not changed, f"extracted text changed on {len(changed)} documents: {changed[:5]}"


if __name__ == "__main__":
    sys.path.insert(0, str(PERFBENCH))
    import world as world_module
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = (f"{json.dumps(key)}: {json.dumps(entry)}"
             for key, entry in world_digests(world_module).items())
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    FRAGMENT_GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(entry) for entry in fragment_digests()) + "\n]\n",
        encoding="utf-8")
