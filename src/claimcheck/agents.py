"""The seven LLM agents: prompt rendering plus strict, fallback-equipped
output parsers.

Every parser is total: an arbitrary reply string always maps to a value of
the declared type, falling back on the conservative branch (keep searching,
defer, don't add evidence) rather than raising.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence, TypeVar

from .llm import ChatRequest, LlmGateway
from .model import (
    BudgetConfig,
    Claim,
    Document,
    EvidenceSet,
    SearchQuery,
    SearchResultMeta,
    Verdict,
)
from .trace import EventKind, RunTrace

AGENT_NAMES = (
    "initial_query_gen",
    "search_rank",
    "self_contained_check",
    "det_helpful",
    "sufficient_evidence",
    "classify",
    "additional_query_gen",
)

EVIDENCE_PROMPT_BUDGET = 6000
PARSE_TOKEN_WINDOW = 10

CLASSIFY_RETRY_INSTRUCTION = (
    "Your previous answer could not be parsed. "
    "Answer with exactly one word: True or False."
)


@dataclass(frozen=True)
class AgentPrompt:
    system_text: str
    user_template: str

    def render(self, **slots: str) -> tuple[tuple[str, str], ...]:
        """KeyError when a slot of the template is not given."""
        return (
            ("system", self.system_text),
            ("user", self.user_template.format(**slots)),
        )


@dataclass(frozen=True)
class HelpfulnessJudgment:
    helpful: bool
    note: str = ""

    def __post_init__(self) -> None:
        if self.helpful and not self.note.strip():
            raise ValueError("helpful judgment requires a non-empty note")


def load_prompts() -> dict[str, AgentPrompt]:
    """Load the shipped prompt assets."""
    base = resources.files("claimcheck") / "prompts"
    return {name: _parse_prompt_asset(name, (base / f"{name}.txt").read_text(encoding="utf-8"))
            for name in AGENT_NAMES}


def _parse_prompt_asset(name: str, text: str) -> AgentPrompt:
    if "\n===\n" not in text:
        raise ValueError(f"prompt asset {name} lacks the '===' system/user separator")
    system_text, user_template = text.split("\n===\n", 1)
    return AgentPrompt(system_text.strip(), user_template.strip())


# ---------------------------------------------------------------------------
# reply parsers

_BULLET_RE = re.compile(r"^\s*(?:\d+[\.\)]|[-*•])\s+(.*\S)\s*$")
_WORD_RE = re.compile(r"[a-z]+")
_HELPFUL_RE = re.compile(r"helpful\b(?!\?)", re.I)
T = TypeVar("T")


def parse_query_list(reply: str) -> list[str]:
    """The non-blank texts of the numbered/bulleted lines, in order."""
    queries: list[str] = []
    for line in reply.splitlines():
        m = _BULLET_RE.match(line)
        text = m.group(1).strip().strip('"').strip() if m else ""
        if text:
            queries.append(text)
    return queries


def parse_permutation(reply: str, n: int) -> Optional[list[int]]:
    """1-based index permutation like '[2, 1]'; None when invalid."""
    numbers = [int(t) for t in re.findall(r"\d+", reply)]
    if sorted(numbers) != list(range(1, n + 1)):
        return None
    return numbers


def _leading_words(reply: str) -> list[str]:
    tokens = reply.split()[:PARSE_TOKEN_WINDOW]
    words: list[str] = []
    for token in tokens:
        words.extend(_WORD_RE.findall(token.lower()))
    return words[:PARSE_TOKEN_WINDOW]


def _first_answer(reply: str, answers: dict[str, T]) -> Optional[T]:
    """Case-insensitive scan of the first tokens; the first answer word wins."""
    return next((answers[w] for w in _leading_words(reply) if w in answers), None)


def parse_yes_no(reply: str) -> Optional[bool]:
    return _first_answer(reply, {"yes": True, "no": False})


def parse_true_false(reply: str) -> Optional[Verdict]:
    return _first_answer(reply, {"true": Verdict.TRUE, "false": Verdict.FALSE})


def parse_helpfulness(reply: str) -> HelpfulnessJudgment:
    """'helpful' as the first whole word, not a question, then the note."""
    stripped = reply.strip()
    m = _HELPFUL_RE.match(stripped)
    if m:
        after = stripped[m.end():].lstrip(" :—-").strip()
        if after:
            return HelpfulnessJudgment(helpful=True, note=after)
    return HelpfulnessJudgment(helpful=False)


# ---------------------------------------------------------------------------
# the agent suite


class AgentSuite:
    """One method per agent; all LLM calls share the run's model,
    temperature, and trace.  A method only renders, asks, parses and logs;
    the Verifier's loop alone decides when an agent is asked, and which of
    the queries a query agent parses are searched."""

    def __init__(
        self,
        gateway: LlmGateway,
        config: BudgetConfig,
        prompts: dict[str, AgentPrompt],
        trace: RunTrace,
    ) -> None:
        self.gateway = gateway
        self.config = config
        self.prompts = prompts
        self.trace = trace

    # -- plumbing -----------------------------------------------------------

    def _log(self, agent: str, **payload) -> None:
        self.trace.log(EventKind.AGENT_CALL, agent=agent, **payload)

    def _prompt(self, agent: str, claim: Claim, evidence: Optional[EvidenceSet] = None,
                **slots: str) -> tuple[tuple[str, str], ...]:
        """The agent's messages: the claim slot holds claim.text, and the
        evidence slot the evidence rendered within EVIDENCE_PROMPT_BUDGET."""
        if evidence is not None:
            slots["evidence"] = evidence.render(EVIDENCE_PROMPT_BUDGET)
        return self.prompts[agent].render(claim=claim.text, **slots)

    def _complete(self, messages: tuple[tuple[str, str], ...]) -> str:
        req = ChatRequest(
            model_id=self.config.model_id,
            messages=messages,
            temperature=self.config.temperature,
        )
        return self.gateway.complete(req).text

    # -- agents -------------------------------------------------------------

    def initial_query_gen(self, claim: Claim) -> list[SearchQuery]:
        reply = self._complete(self._prompt("initial_query_gen", claim))
        texts = parse_query_list(reply)
        self._log("initial_query_gen", n_queries=len(texts), fallback=not texts)
        return [SearchQuery(t) for t in texts or [claim.text]]

    def search_rank(self, query: SearchQuery,
                    results: Sequence["SearchResultMeta"]) -> list["SearchResultMeta"]:
        block = "\n".join(
            f"{i}. {r.title} — {r.url} — {r.snippet}"
            for i, r in enumerate(results, start=1)
        )
        reply = self._complete(
            self.prompts["search_rank"].render(query=query.text, results=block))
        perm = parse_permutation(reply, len(results))
        fallback = perm is None
        self._log("search_rank", n_results=len(results), fallback=fallback)
        if perm is None:
            return list(results)
        return [results[i - 1] for i in perm]

    def self_contained_check(self, claim: Claim, evidence: EvidenceSet,
                             doc: Document) -> bool:
        reply = self._complete(self._prompt("self_contained_check", claim, evidence,
                                            document=doc.body))
        parsed = parse_yes_no(reply)
        self._log("self_contained_check", url=doc.meta.url,
                  result=bool(parsed), fallback=parsed is None)
        return bool(parsed)

    def det_helpful(self, claim: Claim, evidence: EvidenceSet,
                    doc: Document) -> HelpfulnessJudgment:
        reply = self._complete(self._prompt("det_helpful", claim, evidence, document=doc.body))
        judgment = parse_helpfulness(reply)
        self._log("det_helpful", url=doc.meta.url, helpful=judgment.helpful)
        return judgment

    def sufficient_evidence(self, claim: Claim, evidence: EvidenceSet) -> bool:
        reply = self._complete(self._prompt("sufficient_evidence", claim, evidence))
        parsed = parse_yes_no(reply)
        self._log("sufficient_evidence", result=bool(parsed), fallback=parsed is None)
        return bool(parsed)

    def classify(self, claim: Claim, evidence: EvidenceSet) -> Verdict:
        messages = self._prompt("classify", claim, evidence)
        verdict = parse_true_false(self._complete(messages))
        if verdict is None:
            verdict = parse_true_false(
                self._complete(messages + (("user", CLASSIFY_RETRY_INSTRUCTION),)))
        forced = verdict is None
        if forced:
            verdict = Verdict.FALSE
        self._log("classify", verdict=verdict.value, forced_default=forced)
        return verdict

    def additional_query_gen(self, claim: Claim, evidence: EvidenceSet) -> list[SearchQuery]:
        reply = self._complete(self._prompt("additional_query_gen", claim, evidence))
        texts = parse_query_list(reply)
        self._log("additional_query_gen", n_queries=len(texts), fallback=not texts)
        return [SearchQuery(t) for t in texts]
