"""Seeded synthetic world for the benchmark: claims, search results, pages,
the oracle, and the marker language the stub LLM answers from.

A claim carries ``{{claim:<id> iq:<n> aq:<n> verdict:<v> topic:<slug>}}``.
A page's first article paragraph carries its role (helpful, irrelevant,
decisive), an optional ``needs`` key (comprehensible only once the evidence
holds that key), an optional ``gives`` key and a ``fact`` id.  Result
titles carry ``[r<n>]``, the position ``search_rank`` must restore.

Every claim follows one of the TEMPLATES below, whose outcome (verdict,
termination reason, search queries) is fixed by construction: the oracle.
Within a template group the page sizes, the failing results and the
verdicts follow a fixed pattern, and the seed only permutes claims and
changes texts, so different seeds give the same amount of work.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from typing import Optional

KB = 1024
MB = 1024 * 1024

# failure kinds a "noise" slot (irrelevant result) cycles through; html is
# the plain page, the next three fall back to the snippet, unusable has
# neither page nor snippet
NOISE_KINDS = ("html", "404", "html", "pdf", "html", "empty", "unusable", "html")
# a "fallback" slot (helpful result) may fail but always keeps its snippet
FALLBACK_KINDS = ("html", "404", "html", "pdf", "empty", "html")

# largest article text on a small page; stays under PageReader.body_char_cap
SMALL_PAGE_TEXT_CAP = 9000
TEXT_SHARE = 0.2  # visible text as a share of page bytes; the rest is boilerplate


@dataclass(frozen=True)
class Slot:
    role: str                      # helpful | irrelevant | decisive
    needs: Optional[str] = None    # key letter this page needs in the evidence
    gives: Optional[str] = None    # key letter this page's note provides
    var: str = ""                  # "" | "noise" | "fallback": may fail to fetch
    fetched: bool = True           # the oracle run fetches this result


@dataclass(frozen=True)
class Template:
    queries: tuple[tuple[Slot, ...], ...]   # per query, results in ranked order
    iq: int                                 # queries initial_query_gen proposes
    aq: int                                 # follow-ups additional_query_gen proposes
    terminated_by: str
    n_queries: int


_H = Slot("helpful")
_NOISE = Slot("irrelevant", var="noise")
_UNFETCHED = Slot("helpful", fetched=False)

TEMPLATES = {
    # all four queries, reaches additional_query_gen; the drain recovers the
    # page that needs key a and drops the page that needs the missing key z
    "hard": Template((
        (Slot("helpful", needs="a"), Slot("helpful", gives="a")),
        (_NOISE, _H),
        (Slot("helpful", needs="z"), _H),
        (_NOISE, Slot("helpful", var="fallback")),
    ), iq=2, aq=2, terminated_by="budget_exhausted", n_queries=4),
    # as hard, but the recovered page is decisive: stops in the drain
    "hard_late": Template((
        (Slot("decisive", needs="a"), Slot("helpful", gives="a")),
        (_NOISE, _H),
        (Slot("helpful", needs="z"), _H),
        (_NOISE, Slot("helpful", var="fallback")),
    ), iq=2, aq=2, terminated_by="sufficient_evidence", n_queries=4),
    # as hard, but the last page of the last query is decisive
    "hard_last": Template((
        (Slot("helpful", needs="a"), Slot("helpful", gives="a")),
        (_NOISE, _H),
        (Slot("helpful", needs="z"), _H),
        (_NOISE, Slot("decisive")),
    ), iq=2, aq=2, terminated_by="sufficient_evidence", n_queries=4),
    # every page helpful, never sufficient: 30 LLM calls, 4 searches, 8 fetches
    "worst": Template(((_H, _H),) * 4, iq=4, aq=0,
                      terminated_by="budget_exhausted", n_queries=4),
    "easy_first": Template((
        (Slot("decisive"), _UNFETCHED), (_UNFETCHED, _UNFETCHED),
    ), iq=2, aq=2, terminated_by="sufficient_evidence", n_queries=1),
    "easy_second": Template((
        (_H, Slot("decisive")), (_UNFETCHED, _UNFETCHED),
    ), iq=2, aq=2, terminated_by="sufficient_evidence", n_queries=1),
    "easy_noise": Template((
        (_NOISE, Slot("decisive")), (_UNFETCHED, _UNFETCHED),
    ), iq=2, aq=2, terminated_by="sufficient_evidence", n_queries=1),
    "easy_next": Template((
        (_NOISE, _H), (Slot("decisive"), _UNFETCHED),
    ), iq=2, aq=2, terminated_by="sufficient_evidence", n_queries=2),
}

# claims per template, and page sizes, for each world
WORLD_MIX = {
    "hard": {"hard": 12, "hard_late": 3, "hard_last": 2, "worst": 3},
    "easy": {"easy_first": 6, "easy_second": 4, "easy_noise": 3, "easy_next": 3},
}
PAGE_SIZES = {"small": (8 * KB, 48 * KB), "big": (512 * KB, 1900 * KB)}

_SYLLABLES = ("ka", "lo", "mer", "vin", "tor", "sal", "ben", "dri", "os", "ul",
              "fen", "ar", "quo", "pel", "rin", "tas", "gor", "mil", "ven", "ed")
_FILLER = ("the", "of", "and", "in", "to", "a", "was", "for", "on", "by",
           "with", "from", "at", "as", "its", "after", "during", "near")
_NOUNS = ("bridge", "river", "treaty", "festival", "railway", "museum", "harbour",
          "observatory", "library", "canal", "mine", "orchestra", "dam", "abbey")
_VERBS = ("opened", "was founded", "was rebuilt", "closed", "was expanded",
          "was renamed", "was surveyed", "was restored")
_SITES = ("Gazette", "Archive", "Encyclopedia", "Heritage Board", "Daily Ledger",
          "Records Office", "Atlas", "Almanac")


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))


def _name(rng: random.Random) -> str:
    return _word(rng).capitalize()


def _sentence(rng: random.Random, n_words: int) -> str:
    words = [_word(rng) if rng.random() < 0.6 else rng.choice(_FILLER)
             for _ in range(n_words)]
    return " ".join(words).capitalize() + "."


# ---------------------------------------------------------------------------
# world generation


def claim_marker(cid: str, iq: int, aq: int, verdict: str, topic: str) -> str:
    return f"{{{{claim:{cid} iq:{iq} aq:{aq} verdict:{verdict} topic:{topic}}}}}"


def query_text(topic: str, cid: str, n: int) -> str:
    return f"{topic.replace('-', ' ')} {cid}-q{n}"


def _spread(lo: int, hi: int, n: int) -> list[int]:
    """n sizes evenly spread over [lo, hi]."""
    return [int(lo + (hi - lo) * (i + 0.5) / n) for i in range(n)]


def generate(mix: str, page_sizes: str, seed: int) -> dict:
    """The world as plain JSON data: claims with their oracle, search
    results per query (provider order) and page specs."""
    rng = random.Random(f"world:{mix}:{seed}")
    lo, hi = PAGE_SIZES[page_sizes]
    claims, results, pages = [], {}, {}
    cid_numbers = rng.sample(range(1000, 10000), sum(WORLD_MIX[mix].values()))
    n_noise = n_fallback = 0  # failure kinds cycle over the whole world
    for template_name, count in WORLD_MIX[mix].items():
        template = TEMPLATES[template_name]
        slots = [s for q in template.queries for s in q]
        n_fetched = sum(1 for s in slots if s.fetched)
        sizes = {True: _spread(lo, hi, count * n_fetched),
                 False: _spread(lo, hi, count * (len(slots) - n_fetched))}
        # the f-th fetched (or unfetched) slot of claim j takes size
        # f*count + j, so each group gets the same sizes whatever the seed
        for j in range(count):
            cid = f"c{cid_numbers.pop()}"
            topic = f"{_name(rng).lower()}-{rng.choice(_NOUNS)}"
            verdict = "True" if j % 2 == 0 else "False"
            text = (f"The {topic.replace('-', ' ')} {rng.choice(_VERBS)} in "
                    f"{rng.randint(1820, 2015)} under {_name(rng)} {_name(rng)}. "
                    + claim_marker(cid, template.iq, template.aq, verdict, topic))
            claims.append({
                "id": cid, "text": text, "verdict": verdict, "profile": template_name,
                "terminated_by": template.terminated_by, "n_queries": template.n_queries,
            })
            n_seen = {True: 0, False: 0}
            for qi, q in enumerate(template.queries):
                ranked = []
                for ri, slot in enumerate(q):
                    pid = f"{cid}-q{qi + 1}-r{ri + 1}"
                    size = sizes[slot.fetched][n_seen[slot.fetched] * count + j]
                    n_seen[slot.fetched] += 1
                    kind = "html"
                    if slot.var == "noise":
                        kind = NOISE_KINDS[n_noise % len(NOISE_KINDS)]
                        n_noise += 1
                    elif slot.var == "fallback":
                        kind = FALLBACK_KINDS[n_fallback % len(FALLBACK_KINDS)]
                        n_fallback += 1
                    markers = [f"{{{{role:{slot.role}}}}}"]
                    if slot.needs:
                        markers.append(f"{{{{needs:k{cid}{slot.needs}}}}}")
                    if slot.gives:
                        markers.append(f"{{{{gives:k{cid}{slot.gives}}}}}")
                    markers.append(f"{{{{fact:{pid}}}}}")
                    fact = (f"{_name(rng)} {rng.choice(_VERBS)} the "
                            f"{topic.replace('-', ' ')} in {rng.randint(1820, 2015)} "
                            f"with {rng.randint(2, 900)} workers")
                    title = (f"[r{ri + 1}] {_name(rng)} {rng.choice(_NOUNS)} - "
                             f"{rng.choice(_SITES)}")
                    marker_line = " ".join(markers) + " " + fact + "."
                    pages[pid] = {"kind": kind, "size": size, "title": title,
                                  "marker_line": marker_line}
                    ranked.append({
                        "title": title, "path": f"/page/{pid}",
                        "snippet": "" if kind == "unusable" else marker_line,
                    })
                # provider order: a seeded half of the queries come back reversed
                if rng.random() < 0.5:
                    ranked.reverse()
                results[f"{cid}-q{qi + 1}"] = ranked
    rng.shuffle(claims)
    return {"seed": seed, "mix": mix, "page_sizes": page_sizes,
            "claims": claims, "results": results, "pages": pages}


def write_dataset(world: dict, path) -> None:
    """The claims as a ``factool_kbqa`` JSONL file."""
    with open(path, "w", encoding="utf-8") as fh:
        for c in world["claims"]:
            fh.write(json.dumps({"id": c["id"], "claim": c["text"],
                                 "label": c["verdict"]}) + "\n")


# ---------------------------------------------------------------------------
# page rendering


@dataclass
class FragmentPool:
    """Reusable HTML fragments; pages are assembled from them in turn, so
    every page of a size has the same mix of markup whatever the seed."""
    paragraphs: list[tuple[str, int]] = field(default_factory=list)  # (html, text chars)
    boilerplate: list[str] = field(default_factory=list)  # script, style, nav in turn

    @classmethod
    def build(cls, seed: int) -> "FragmentPool":
        rng = random.Random(f"fragments:{seed}")
        pool = cls()
        for i in range(64):
            sentences = [_sentence(rng, 8 + (i + k) % 11) for k in range(2 + i % 5)]
            text = " ".join(sentences)
            words = text.split(" ")
            for k in range(2, len(words) - 1, 9):
                tag = ("b", "em", "a")[k % 3]
                if tag == "a":
                    words[k] = f'<a href="/wiki/{_word(rng)}" class="ref">{words[k]}</a>'
                else:
                    words[k] = f"<{tag}>{words[k]}</{tag}>"
            pool.paragraphs.append((f"<p>{' '.join(words)}</p>\n", len(text) + 1))
        for i in range(8):
            lines = 8 + 3 * i
            pool.boilerplate.append("<script>" + "".join(
                f"var {_word(rng)}_{j}=function(e){{return e&&e.{_word(rng)}"
                f"({rng.randint(0, 9999)})||\"{_word(rng)}\";}};\n"
                for j in range(lines)) + "</script>\n")
            pool.boilerplate.append("<style>" + "".join(
                f".{_word(rng)}-{j}{{margin:{rng.randint(0, 40)}px;"
                f"color:#{rng.randrange(16 ** 6):06x};}}\n"
                for j in range(lines)) + "</style>\n")
            pool.boilerplate.append("<nav><ul>" + "".join(
                f'<li class="nav-item"><a href="/{_word(rng)}/{_word(rng)}">'
                f"{_word(rng)}</a></li>"
                for _ in range(lines)) + "</ul></nav>\n")
        return pool


def render_page(spec: dict, pool: FragmentPool, seed: int, pid: str) -> tuple[int, str, bytes]:
    """(status, content type, body) for one page spec."""
    kind = spec["kind"]
    if kind in ("404", "unusable"):
        return 404, "text/html", b"<html><body><h1>Not Found</h1></body></html>"
    if kind == "pdf":
        return 200, "application/pdf", b"%PDF-1.4\n" + bytes(range(256)) * 16
    if kind == "empty":
        return 200, "text/html; charset=utf-8", (
            "<html><head><script>var x=1;</script></head><body>"
            "<nav><a href='/'>home</a></nav></body></html>").encode()
    rng = random.Random(f"page:{seed}:{pid}")
    size = spec["size"]
    text_budget = int(size * TEXT_SHARE)
    if size < MB // 4:
        text_budget = min(text_budget, SMALL_PAGE_TEXT_CAP)
    parts = [f"<!DOCTYPE html>\n<html><head><title>{spec['title']}</title>\n"]
    total = len(parts[0])
    next_boiler = rng.randrange(len(pool.boilerplate))

    def boiler(limit: int) -> None:
        nonlocal total, next_boiler
        while total < limit:
            frag = pool.boilerplate[next_boiler % len(pool.boilerplate)]
            next_boiler += 1
            parts.append(frag)
            total += len(frag)

    boiler(int(size * 0.35))
    parts.append('</head>\n<body><header class="site">')
    boiler(int(size * 0.5))
    head = f"</header>\n<main><article><h1>{spec['title']}</h1>\n<p>{spec['marker_line']}</p>\n"
    parts.append(head)
    total += len(head)
    text = len(spec["marker_line"])
    next_para = rng.randrange(len(pool.paragraphs))
    while True:
        html, chars = pool.paragraphs[next_para % len(pool.paragraphs)]
        next_para += 1
        if text + chars > text_budget:
            break
        parts.append(html)
        total += len(html)
        text += chars
    parts.append("</article></main>\n<footer>")
    boiler(size - 40)
    parts.append("</footer></body></html>\n")
    return 200, "text/html; charset=utf-8", "".join(parts).encode("utf-8")


def calibration_page() -> bytes:
    """A fixed 24 KB page, the same for every world."""
    spec = {"kind": "html", "size": 24 * KB, "title": "calibration",
            "marker_line": "calibration page"}
    return render_page(spec, FragmentPool.build(0), 0, "calibration")[2]


# ---------------------------------------------------------------------------
# the stub LLM: answers from the markers in a chat request

_MARKER_RE = re.compile(r"\{\{(\w+):([\w-]+)\}\}")
_CLAIM_RE = re.compile(
    r"\{\{claim:(\w+) iq:(\d+) aq:(\d+) verdict:(True|False) topic:([\w-]+)\}\}")
_RANK_LINE_RE = re.compile(r"^(\d+)\. \[r(\d+)\]", re.MULTILINE)
_QUERY_ID_RE = re.compile(r"\b(c\d+)-q\d+")


def claim_id_in(text: str) -> Optional[str]:
    """The claim a request belongs to: the id in a prompt's claim marker,
    else the claim part of a ``c<id>-q<n>`` query id, which query texts,
    page paths and fact markers carry."""
    found = _CLAIM_RE.search(text) or _QUERY_ID_RE.search(text)
    return found.group(1) if found else None

# agent detection by a phrase of its prompt; order matters, and setup checks
# these rules against the shipped prompts before any run
AGENT_RULES = (
    ("sort the results", "search_rank"),
    ("comprehensible", "self_contained_check"),
    ("helpful new information", "det_helpful"),
    ("new web search queries", "additional_query_gen"),
    ("web search queries", "initial_query_gen"),
    ("evidence sufficient", "sufficient_evidence"),
    ("true or false", "classify"),
)


def detect_agent(text: str) -> Optional[str]:
    lowered = text.lower()
    for phrase, agent in AGENT_RULES:
        if phrase in lowered:
            return agent
    return None


def _document_section(text: str) -> str:
    return text.split("\nDocument:\n", 1)[1] if "\nDocument:\n" in text else ""


def _page_markers(document: str) -> tuple[dict, str]:
    for line in document.splitlines():
        if "{{role:" in line:
            markers = dict(_MARKER_RE.findall(line))
            return markers, _MARKER_RE.sub("", line).strip()
    return {}, ""


def llm_reply(messages: list[dict]) -> str:
    """The designed reply to one chat request."""
    text = "\n".join(m["content"] for m in messages)
    agent = detect_agent(text)
    claim = _CLAIM_RE.search(text)
    if agent == "search_rank":
        ranks = sorted((int(r), int(i)) for i, r in _RANK_LINE_RE.findall(text))
        return "[" + ", ".join(str(i) for _, i in ranks) + "]"
    if claim is None:
        return "I cannot tell."
    cid, iq, aq, verdict, topic = claim.groups()
    iq, aq = int(iq), int(aq)
    if agent == "initial_query_gen":
        return "\n".join(f"{n}. {query_text(topic, cid, n)}" for n in range(1, iq + 1))
    if agent == "additional_query_gen":
        # the first line repeats an issued query, which the agent must filter
        lines = [query_text(topic, cid, 1)]
        lines += [query_text(topic, cid, n) for n in range(iq + 1, iq + aq + 1)]
        return "\n".join(f"{i}. {q}" for i, q in enumerate(lines, start=1))
    if agent == "self_contained_check":
        markers, _ = _page_markers(_document_section(text))
        need = markers.get("needs")
        if need and f"{{{{gives:{need}}}}}" not in text:
            return "NO, the document refers to context that is not given here."
        return "YES, the document can be read on its own."
    if agent == "det_helpful":
        markers, fact = _page_markers(_document_section(text))
        role = markers.get("role", "irrelevant")
        if role == "irrelevant":
            return "NOT HELPFUL"
        note = f"HELPFUL: According to the source, {fact} {{{{fact:{markers['fact']}}}}}"
        if "gives" in markers:
            note += f" {{{{gives:{markers['gives']}}}}}"
        if role == "decisive":
            note += " {{decisive:yes}}"
        return note
    if agent == "sufficient_evidence":
        if "{{decisive:yes}}" in text:
            return "YES, the evidence settles the claim."
        return "NO, more evidence is needed."
    if agent == "classify":
        return f"{verdict}\nThe collected evidence points this way."
    return "I cannot tell."
