"""Iterative web-evidence claim verification with cooperating LLM agents."""

from .agents import AgentSuite, HelpfulnessJudgment, load_prompts
from .llm import ChatRequest, ChatResponse, LlmGateway
from .model import (
    BudgetConfig,
    Claim,
    Document,
    EvidenceItem,
    EvidenceSet,
    SearchQuery,
    SearchResultMeta,
    Verdict,
)
from .pages import PageReader
from .pipeline import Ablation, GatewayFatal, TerminationReason, VerdictReport, Verifier
from .trace import EventKind, RunTrace
from .websearch import SearchClient

__version__ = "0.1.0"

__all__ = [
    "Ablation",
    "AgentSuite",
    "BudgetConfig",
    "ChatRequest",
    "ChatResponse",
    "Claim",
    "Document",
    "EvidenceItem",
    "EvidenceSet",
    "EventKind",
    "GatewayFatal",
    "HelpfulnessJudgment",
    "LlmGateway",
    "PageReader",
    "RunTrace",
    "SearchClient",
    "SearchQuery",
    "SearchResultMeta",
    "TerminationReason",
    "VerdictReport",
    "Verifier",
    "Verdict",
    "load_prompts",
]
