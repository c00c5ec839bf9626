"""``$text`` full-text search support.

MongoDB's ``$text`` operator matches documents whose indexed text
fields contain the searched terms.  Our engine indexes *all* string
fields of a document (recursively), which is the behaviour a text index
over every string attribute would give, and supports the core syntax:

* whitespace-separated terms are OR-combined;
* ``"quoted phrases"`` must appear verbatim (case-folded);
* ``-term`` negates a term;
* matching is case-insensitive and diacritics-insensitive-lite
  (ASCII case folding).

``$text`` is a *document-level* predicate in MongoDB (it cannot be
nested under a field), so it is represented as its own AST node,
:class:`TextSearch`, rather than as a field operator.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterator, List, Optional, Set, Tuple

from repro.errors import QueryParseError
from repro.query.ast import Node

_TOKEN_RE = re.compile(r"[\w']+", re.UNICODE)
_PHRASE_RE = re.compile(r'"([^"]*)"')


def fold(text: str) -> str:
    """Case-fold and strip combining marks from *text*."""
    decomposed = unicodedata.normalize("NFKD", text)
    stripped = "".join(ch for ch in decomposed if not unicodedata.combining(ch))
    return stripped.casefold()


@lru_cache(maxsize=4096)
def _cached_tokens(text: str) -> Tuple[str, ...]:
    """Folded word tokens of *text*, cached.

    Text probing runs per write against every string field, and real
    workloads repeat field values heavily (status strings, tags, the
    static parts of payloads) — the bounded cache turns those repeats
    into a dict hit instead of an NFKD pass + regex scan.
    """
    return tuple(_TOKEN_RE.findall(fold(text)))


def tokenize(text: str) -> List[str]:
    """Split *text* into folded word tokens."""
    return list(_cached_tokens(text))


def document_tokens(document: Any) -> Set[str]:
    """The folded token set over every string field of *document*.

    Shared by :meth:`TextSearch.matches_document` and the query index's
    inverted token probe, so both sides agree exactly on what counts as
    a token (a soundness requirement for candidate pruning).
    """
    tokens: Set[str] = set()
    for text in _iter_strings(document):
        tokens.update(_cached_tokens(text))
    return tokens


class LazyTokens:
    """``document_tokens(document)``, built on first call and only once.

    The filtering stage makes one per after-image and hands it to the
    index's text probe and to the DAG pass, so a write's token set is
    built once however many ``$text`` leaves read it — and not at all
    when nothing does.  There it lives for one pass in one cell.  The
    pull store keeps one per stored document across reads instead
    (``Collection._text_tokens``): a stored document is never mutated
    in place, and the write that replaces it drops the entry.
    """

    __slots__ = ("_document", "_tokens")

    def __init__(self, document: Any):
        self._document = document
        self._tokens: Optional[Set[str]] = None

    def __call__(self) -> Set[str]:
        tokens = self._tokens
        if tokens is None:
            tokens = self._tokens = document_tokens(self._document)
        return tokens


def _iter_strings(value: Any) -> Iterator[str]:
    """Yield every string reachable inside a JSON value."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for child in value.values():
            yield from _iter_strings(child)
    elif isinstance(value, (list, tuple)):
        for child in value:
            yield from _iter_strings(child)


@dataclass(frozen=True)
class ParsedSearch:
    """The decomposed form of a ``$search`` string."""

    terms: Tuple[str, ...]
    phrases: Tuple[str, ...]
    negated: Tuple[str, ...]


def parse_search(search: str) -> ParsedSearch:
    """Parse a ``$search`` string into terms, phrases and negations."""
    phrases: List[str] = []

    def grab_phrase(match: "re.Match[str]") -> str:
        phrases.append(fold(match.group(1)))
        return " "

    remainder = _PHRASE_RE.sub(grab_phrase, search)
    terms: List[str] = []
    negated: List[str] = []
    for raw in remainder.split():
        if raw.startswith("-") and len(raw) > 1:
            negated.extend(tokenize(raw[1:]))
        else:
            terms.extend(tokenize(raw))
    return ParsedSearch(tuple(terms), tuple(phrases), tuple(negated))


@dataclass(frozen=True)
class TextSearch(Node):
    """AST node for the document-level ``$text`` predicate."""

    search: str
    parsed: ParsedSearch

    @classmethod
    def from_spec(cls, spec: Any) -> "TextSearch":
        if not isinstance(spec, dict) or not isinstance(spec.get("$search"), str):
            raise QueryParseError('$text requires {"$search": "<terms>"}')
        unsupported = set(spec) - {"$search", "$caseSensitive", "$language"}
        if unsupported:
            raise QueryParseError(
                f"unsupported $text options: {sorted(unsupported)}"
            )
        if spec.get("$caseSensitive"):
            raise QueryParseError("case-sensitive $text search is not supported")
        return cls(spec["$search"], parse_search(spec["$search"]))

    def matches_document(
        self, document: Any, tokens: Optional[Set[str]] = None
    ) -> bool:
        """Evaluate the text predicate over all string fields.

        *tokens* is ``document_tokens(document)`` when the caller
        already holds it (one DAG pass serves every ``$text`` leaf).
        """
        token_set = document_tokens(document) if tokens is None else tokens
        if not token_set.isdisjoint(self.parsed.negated):
            return False
        folded_texts = None
        if self.parsed.phrases:
            folded_texts = [fold(text) for text in _iter_strings(document)]
            for phrase in self.parsed.phrases:
                if not any(phrase in text for text in folded_texts):
                    return False
        if not self.parsed.terms:
            # Phrase-only (or negation-only) search: phrases decided above.
            return bool(self.parsed.phrases) or bool(token_set)
        return not token_set.isdisjoint(self.parsed.terms)

    def __repr__(self) -> str:
        return f"TextSearch({self.search!r})"
