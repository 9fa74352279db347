"""Full-text article search (the paper's §1 literature lookup).

"Some of them may like to support their views with articles from
databases on the web, whether from known sources or from dynamically
searched sites." This module is the "known sources" half: an inverted
index with TF-IDF ranking over an article corpus stored in the embedded
database, supporting ranked free-text queries, required/excluded terms
and exact phrases.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.errors import DatabaseError
from repro.db.engine import Database
from repro.db.schema import Column, TableSchema
from repro.db.types import INTEGER, TEXT

ARTICLES_TABLE = "ARTICLES_TABLE"

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Words too common to carry signal.
STOPWORDS = frozenset(
    "a an and are as at be by for from has in is it of on or that the this to was with".split()
)


def articles_schema() -> TableSchema:
    return TableSchema(
        name=ARTICLES_TABLE,
        columns=(
            Column("ID", INTEGER, primary_key=True, autoincrement=True),
            Column("FLD_TITLE", TEXT, nullable=False),
            Column("FLD_SOURCE", TEXT),
            Column("FLD_BODY", TEXT, nullable=False),
        ),
    )


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens, stopwords removed."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in STOPWORDS]


@dataclass(frozen=True)
class ArticleHit:
    """One ranked search result."""

    article_id: int
    title: str
    source: str | None
    score: float
    snippet: str


@dataclass(frozen=True)
class ParsedQuery:
    """A parsed free-text query."""

    terms: tuple[str, ...]      # ranked (optional) terms
    required: tuple[str, ...]   # +term — must appear
    excluded: tuple[str, ...]   # -term — must not appear
    phrases: tuple[tuple[str, ...], ...]  # "exact phrase"


def parse_query(query: str) -> ParsedQuery:
    """Parse ``ct lesion +contrast -pediatric "follow up"`` style queries."""
    phrases = tuple(
        tuple(tokenize(match)) for match in re.findall(r'"([^"]+)"', query)
    )
    rest = re.sub(r'"[^"]*"', " ", query)
    terms: list[str] = []
    required: list[str] = []
    excluded: list[str] = []
    for raw in rest.split():
        if raw.startswith("+"):
            required.extend(tokenize(raw[1:]))
        elif raw.startswith("-"):
            excluded.extend(tokenize(raw[1:]))
        else:
            terms.extend(tokenize(raw))
    # Phrase words also rank.
    for phrase in phrases:
        terms.extend(phrase)
    if not (terms or required or phrases):
        raise DatabaseError(f"query {query!r} has no searchable terms")
    return ParsedQuery(
        terms=tuple(terms),
        required=tuple(required),
        excluded=tuple(excluded),
        phrases=tuple(p for p in phrases if p),
    )


class ArticleSearchEngine:
    """Inverted index + TF-IDF ranking over the article table."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.db.create_table(articles_schema(), if_not_exists=True)
        self._postings: dict[str, dict[int, int]] = defaultdict(dict)
        self._doc_tokens: dict[int, list[str]] = {}
        self._doc_lengths: dict[int, int] = {}
        for row in self.db.select(ARTICLES_TABLE):
            self._index_row(row)

    # ----- corpus management ---------------------------------------------------

    def add_article(self, title: str, body: str, source: str | None = None) -> int:
        """Store and index one article; returns its id."""
        row = self.db.insert(
            ARTICLES_TABLE,
            {"FLD_TITLE": title, "FLD_SOURCE": source, "FLD_BODY": body},
        )
        self._index_row(row)
        return row["ID"]

    def _index_row(self, row: dict) -> None:
        article_id = row["ID"]
        tokens = tokenize(f"{row['FLD_TITLE']} {row['FLD_BODY']}")
        self._doc_tokens[article_id] = tokens
        self._doc_lengths[article_id] = len(tokens)
        for token, count in Counter(tokens).items():
            self._postings[token][article_id] = count

    def __len__(self) -> int:
        return len(self._doc_tokens)

    @property
    def vocabulary_size(self) -> int:
        return len(self._postings)

    # ----- search ----------------------------------------------------------------

    def _idf(self, term: str) -> float:
        containing = len(self._postings.get(term, {}))
        if containing == 0:
            return 0.0
        return math.log(1.0 + len(self._doc_tokens) / containing)

    def _has_phrase(self, article_id: int, phrase: tuple[str, ...]) -> bool:
        tokens = self._doc_tokens.get(article_id, [])
        span = len(phrase)
        return any(
            tuple(tokens[i : i + span]) == phrase
            for i in range(len(tokens) - span + 1)
        )

    def search(self, query: str, k: int = 5) -> list[ArticleHit]:
        """Ranked results for a free-text query."""
        if k < 1:
            raise DatabaseError(f"k must be >= 1, got {k}")
        parsed = parse_query(query)
        # Candidates: any doc containing a ranked or required term.
        candidates: set[int] = set()
        for term in parsed.terms + parsed.required:
            candidates |= set(self._postings.get(term, {}))
        # Hard constraints.
        for term in parsed.required:
            candidates &= set(self._postings.get(term, {}))
        for term in parsed.excluded:
            candidates -= set(self._postings.get(term, {}))
        for phrase in parsed.phrases:
            candidates = {c for c in candidates if self._has_phrase(c, phrase)}
        # TF-IDF scoring with length normalization.
        scored: list[tuple[float, int]] = []
        for article_id in candidates:
            length = max(self._doc_lengths[article_id], 1)
            score = sum(
                (self._postings.get(term, {}).get(article_id, 0) / length)
                * self._idf(term)
                for term in parsed.terms
            )
            scored.append((score, article_id))
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        hits = []
        for score, article_id in scored[:k]:
            row = self.db.get(ARTICLES_TABLE, article_id)
            hits.append(
                ArticleHit(
                    article_id=article_id,
                    title=row["FLD_TITLE"],
                    source=row["FLD_SOURCE"],
                    score=score,
                    snippet=self._snippet(row["FLD_BODY"], parsed.terms),
                )
            )
        return hits

    @staticmethod
    def _snippet(body: str, terms: tuple[str, ...], width: int = 80) -> str:
        lowered = body.lower()
        position = min(
            (lowered.find(term) for term in terms if term in lowered),
            default=0,
        )
        start = max(position - width // 4, 0)
        clip = body[start : start + width].strip()
        prefix = "..." if start > 0 else ""
        suffix = "..." if start + width < len(body) else ""
        return f"{prefix}{clip}{suffix}"
