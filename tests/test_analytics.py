"""Spread, active-entity counts, histograms."""

import random

import pytest

from conftest import per_token_max_active
from streamcoref import (
    Document,
    EmptyClusterError,
    GoldCluster,
    MentionSpan,
    active_entity_count,
    entity_spread,
    max_active_entities,
    spread_histogram,
    spread_records,
    synthesize_corpus,
)
from streamcoref.analytics import (
    CorpusStats,
    corpus_max_active,
    corpus_max_total,
    histogram_rows,
    per_document_stats,
)


def doc_with(clusters, n_tokens=20) -> Document:
    return Document(
        doc_id="d",
        tokens=tuple(f"w{i}" for i in range(n_tokens)),
        gold_clusters=tuple(
            GoldCluster(i, tuple(ms)) for i, ms in enumerate(clusters)
        ),
    )


def test_entity_spread_is_hull_of_mentions():
    cluster = GoldCluster(0, (MentionSpan(4, 5), MentionSpan(9, 12), MentionSpan(2, 2)))
    assert entity_spread(cluster) == MentionSpan(2, 12)
    assert entity_spread(GoldCluster(1, (MentionSpan(7, 7),))) == MentionSpan(7, 7)


def test_entity_spread_rejects_empty_cluster():
    with pytest.raises(EmptyClusterError):
        entity_spread(GoldCluster(0, ()))


def test_active_entity_count_at_positions():
    doc = doc_with(
        [
            [MentionSpan(0, 1), MentionSpan(6, 7)],  # spread 0..7
            [MentionSpan(3, 3)],  # spread 3..3
            [MentionSpan(5, 5), MentionSpan(15, 16)],  # spread 5..16
        ]
    )
    assert active_entity_count(doc, 0) == 1
    assert active_entity_count(doc, 3) == 2
    assert active_entity_count(doc, 5) == 2
    assert active_entity_count(doc, 10) == 1
    assert active_entity_count(doc, 19) == 0
    with pytest.raises(IndexError):
        active_entity_count(doc, 20)
    with pytest.raises(IndexError):
        active_entity_count(doc, -1)


def test_max_active_entities_examples():
    assert max_active_entities(doc_with([])) == 0
    # adjacent but non-overlapping spreads never stack
    doc = doc_with([[MentionSpan(0, 4)], [MentionSpan(5, 9)]])
    assert max_active_entities(doc) == 1
    # sharing a single token counts both
    doc = doc_with([[MentionSpan(0, 5)], [MentionSpan(5, 9)]])
    assert max_active_entities(doc) == 2


def test_max_active_entities_excluding_singletons():
    doc = doc_with(
        [
            [MentionSpan(0, 0), MentionSpan(9, 9)],
            [MentionSpan(4, 4)],
            [MentionSpan(5, 5)],
        ]
    )
    assert max_active_entities(doc) == 2
    assert max_active_entities(doc, exclude_singletons=True) == 1


def test_max_active_matches_per_token_scan():
    rng = random.Random(5)
    for doc in synthesize_corpus(5, 60, max_tokens=48, max_entities=10):
        assert max_active_entities(doc) == per_token_max_active(doc)
        assert max_active_entities(doc, exclude_singletons=True) == per_token_max_active(
            doc, exclude_singletons=True
        )
        assert max_active_entities(doc) <= len(doc.gold_clusters)
    del rng


def test_corpus_reductions():
    d1 = doc_with([[MentionSpan(0, 9)], [MentionSpan(2, 3)]])
    d2 = doc_with([[MentionSpan(1, 1)], [MentionSpan(5, 5)], [MentionSpan(8, 8)]])
    assert corpus_max_active([d1, d2]) == 2
    assert corpus_max_total([d1, d2]) == 3
    assert corpus_max_active([]) == 0
    assert corpus_max_total([]) == 0


def test_spread_records_fraction():
    doc = doc_with([[MentionSpan(0, 4)], [MentionSpan(10, 19)]], n_tokens=20)
    recs = spread_records(doc)
    assert [r.spread_fraction for r in recs] == [0.25, 0.5]
    assert recs[0].mention_count == 1
    assert recs[1].spread == MentionSpan(10, 19)


def test_spread_histogram_buckets_and_conservation():
    doc = doc_with(
        [
            [MentionSpan(0, 4)],  # fraction 0.25
            [MentionSpan(0, 9)],  # fraction 0.5
            [MentionSpan(0, 19)],  # fraction 1.0 -> last bucket
            [MentionSpan(3, 3), MentionSpan(4, 4)],  # fraction 0.1
        ],
        n_tokens=20,
    )
    counts = spread_histogram([doc], buckets=4)
    assert counts == [1, 1, 1, 1]
    assert sum(counts) == len(doc.gold_clusters)
    # only the two-mention cluster survives the singleton filter
    assert spread_histogram([doc], buckets=4, exclude_singletons=True) == [1, 0, 0, 0]
    with pytest.raises(ValueError):
        spread_histogram([doc], buckets=0)


def test_spread_histogram_edge_of_bucket():
    # fraction exactly 0.5 belongs to the upper bucket of a 2-bucket split
    doc = doc_with([[MentionSpan(0, 9)]], n_tokens=20)
    assert spread_histogram([doc], buckets=2) == [0, 1]


def test_histogram_rows_are_uniform():
    rows = histogram_rows([3, 0, 1, 7], buckets=4)
    assert rows == [(0.0, 0.25, 3), (0.25, 0.5, 0), (0.5, 0.75, 1), (0.75, 1.0, 7)]


def test_per_document_stats_shape():
    docs = synthesize_corpus(3, 4)
    rows = per_document_stats(docs)
    assert [r[0] for r in rows] == [d.doc_id for d in docs]
    for doc, (_, mae, total, length) in zip(docs, rows):
        assert mae == max_active_entities(doc)
        assert total == len(doc.gold_clusters)
        assert length == len(doc)


@pytest.mark.parametrize("exclude_singletons", [False, True])
def test_corpus_stats_fold_matches_the_list_functions(exclude_singletons):
    docs = synthesize_corpus(19, 40, max_entities=9) + [doc_with([])]
    stats = CorpusStats(7, exclude_singletons)
    rows = [stats.add(d) for d in docs]
    assert rows == per_document_stats(docs)
    assert stats.histogram == spread_histogram(docs, 7, exclude_singletons)
    assert stats.documents == len(docs)
    assert stats.max_total == corpus_max_total(docs)
    assert stats.max_active == corpus_max_active(docs)
    assert stats.max_active_no_singletons == corpus_max_active(docs, exclude_singletons=True)
    with pytest.raises(ValueError):
        CorpusStats(0)
