"""Unit tests for the article search engine."""

import pytest

from repro.db import Database
from repro.errors import DatabaseError
from repro.retrieval.text import ArticleSearchEngine, parse_query, tokenize

ARTICLES = [
    ("CT findings in small cerebral lesions",
     "Contrast enhanced CT imaging of small lesions shows ring enhancement. "
     "Follow up imaging at three months is recommended for cerebral lesions."),
    ("Pediatric chest X-ray interpretation",
     "Interpretation of pediatric chest radiographs requires attention to "
     "thymic shadow and rib anomalies."),
    ("Ultrasound guided biopsy protocols",
     "Ultrasound guidance improves biopsy yield for hepatic lesions. "
     "Contrast agents are rarely required."),
    ("Telemedicine in rural consultation",
     "Remote consultation reduces transfer rates. Bandwidth constraints "
     "limit image quality in rural telemedicine deployments."),
]


@pytest.fixture
def engine(tmp_path):
    db = Database(str(tmp_path / "db"))
    engine = ArticleSearchEngine(db)
    for title, body in ARTICLES:
        engine.add_article(title, body, source="journal")
    yield engine
    db.close()


class TestTokenizer:
    def test_lowercase_and_stopwords(self):
        assert tokenize("The CT scan IS ready") == ["ct", "scan", "ready"]

    def test_punctuation_split(self):
        assert tokenize("follow-up, imaging.") == ["follow", "up", "imaging"]


class TestParseQuery:
    def test_plain_terms(self):
        parsed = parse_query("ct lesion")
        assert parsed.terms == ("ct", "lesion")
        assert parsed.required == () and parsed.excluded == ()

    def test_required_excluded(self):
        parsed = parse_query("lesion +contrast -pediatric")
        assert parsed.required == ("contrast",)
        assert parsed.excluded == ("pediatric",)

    def test_phrases(self):
        parsed = parse_query('"follow up" imaging')
        assert parsed.phrases == (("follow", "up"),)
        assert "follow" in parsed.terms  # phrase words also rank

    def test_empty_rejected(self):
        with pytest.raises(DatabaseError):
            parse_query("the and of")


class TestSearch:
    def test_ranked_relevance(self, engine):
        hits = engine.search("cerebral lesion imaging", k=2)
        assert hits[0].title.startswith("CT findings")
        assert hits[0].score > 0

    def test_required_term_filters(self, engine):
        hits = engine.search("lesions +ultrasound")
        assert [h.title for h in hits] == ["Ultrasound guided biopsy protocols"]

    def test_excluded_term_filters(self, engine):
        titles = [h.title for h in engine.search("lesions -cerebral")]
        assert "CT findings in small cerebral lesions" not in titles
        assert titles  # others still match

    def test_phrase_match(self, engine):
        hits = engine.search('"follow up"')
        assert [h.title for h in hits] == ["CT findings in small cerebral lesions"]
        assert engine.search('"up follow" imaging', k=5) != hits  # order matters

    def test_snippet_centers_on_match(self, engine):
        hit = engine.search("bandwidth")[0]
        assert "bandwidth" in hit.snippet.lower()

    def test_no_match(self, engine):
        assert engine.search("zebra") == []

    def test_k_validated(self, engine):
        with pytest.raises(DatabaseError):
            engine.search("ct", k=0)

    def test_index_rebuilt_on_reopen(self, tmp_path):
        path = str(tmp_path / "db2")
        with Database(path) as db:
            ArticleSearchEngine(db).add_article("Title A", "unique zebra content")
        with Database(path) as db:
            engine = ArticleSearchEngine(db)
            assert engine.search("zebra")[0].title == "Title A"

    def test_idf_downweights_common_terms(self, engine):
        # 'lesions' appears in several docs, 'thymic' in exactly one: the
        # rare term carries more weight per occurrence.
        assert engine._idf("thymic") > engine._idf("lesions")
        assert engine._idf("nonexistent") == 0.0

    def test_rare_term_dominates_at_equal_tf(self, engine):
        # Querying only the rare term surfaces its document first and alone.
        hits = engine.search("thymic")
        assert [h.title for h in hits] == ["Pediatric chest X-ray interpretation"]
