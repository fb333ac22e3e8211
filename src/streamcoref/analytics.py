"""Corpus statistics: entity spread and active-entity counts.

An entity is active at token t when t falls inside its spread, the closed
interval from its first mention's start to its last mention's end. The
peak number of simultaneously active entities (MAE) is an upper bound on
how many memory slots an incremental clusterer needs to lose nothing of
the document, which is why these statistics sit next to the engine. It can
exceed that capacity, never fall below it: activity is counted by tokens,
so an entity stays active across the tokens of its last mention, and the
mentions nested inside that mention count it although it needs no slot
any more.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .types import Document, GoldCluster, MentionSpan


class EmptyClusterError(ValueError):
    """Spread is undefined for a cluster with no mentions."""


class SpreadRecord(NamedTuple):
    """Spread of one entity inside one document."""

    entity_id: int
    spread: MentionSpan
    mention_count: int
    spread_fraction: float  # spread length / document length, in (0, 1]


def entity_spread(cluster: GoldCluster) -> MentionSpan:
    """Smallest closed interval containing every mention of the cluster."""
    if not cluster.mentions:
        raise EmptyClusterError(f"cluster {cluster.entity_id} has no mentions")
    return MentionSpan(
        min(m.start for m in cluster.mentions),
        max(m.end for m in cluster.mentions),
    )


def _spread_counts(doc: Document) -> list[tuple[MentionSpan, int]]:
    """(spread, mention count) of each entity, in cluster order."""
    return [(entity_spread(c), len(c.mentions)) for c in doc.gold_clusters]


def active_entity_count(doc: Document, t: int) -> int:
    """Number of entities whose spread covers token t."""
    if not 0 <= t < len(doc):
        raise IndexError(f"token index {t} outside document of length {len(doc)}")
    return sum(1 for c in doc.gold_clusters if entity_spread(c).covers(t))


def max_active_entities(doc: Document, exclude_singletons: bool = False) -> int:
    """Peak active-entity count over all tokens, 0 for an entityless document.

    Runs as an endpoint sweep in O(M log M) for M entities; the document
    length never enters, so very long documents cost the same as short ones.
    """
    spreads = _spread_counts(doc)
    return _peak_overlap(s for s, n in spreads if not (exclude_singletons and n == 1))


def _peak_overlap(spreads: Iterable[MentionSpan]) -> int:
    deltas: dict[int, int] = {}
    for s in spreads:
        deltas[s.start] = deltas.get(s.start, 0) + 1
        deltas[s.end + 1] = deltas.get(s.end + 1, 0) - 1
    best = 0
    active = 0
    # Net delta per position: an entity ending at t and another starting at
    # t+1 must never be counted as overlapping.
    for pos in sorted(deltas):
        active += deltas[pos]
        if active > best:
            best = active
    return best


def corpus_max_active(docs: Iterable[Document], exclude_singletons: bool = False) -> int:
    return max((max_active_entities(d, exclude_singletons) for d in docs), default=0)


def corpus_max_total(docs: Iterable[Document]) -> int:
    """Largest number of gold entities found in any single document."""
    return max((len(d.gold_clusters) for d in docs), default=0)


def spread_records(doc: Document) -> list[SpreadRecord]:
    out = []
    for c in doc.gold_clusters:
        s = entity_spread(c)
        out.append(
            SpreadRecord(
                entity_id=c.entity_id,
                spread=s,
                mention_count=len(c.mentions),
                spread_fraction=s.length / len(doc),
            )
        )
    return out


def _count_spreads(
    counts: list[int], spreads: list[tuple[MentionSpan, int]], tokens: int,
    exclude_singletons: bool,
) -> None:
    buckets = len(counts)
    for s, mentions in spreads:
        if exclude_singletons and mentions == 1:
            continue
        fraction = s.length / tokens  # SpreadRecord.spread_fraction
        counts[min(int(fraction * buckets), buckets - 1)] += 1


def spread_histogram(
    docs: Iterable[Document], buckets: int, exclude_singletons: bool = False
) -> list[int]:
    """Histogram of spread fractions over uniform buckets covering [0, 1].

    Bucket i covers [i/buckets, (i+1)/buckets); the last bucket also takes
    the value 1.0 exactly, so every entity lands somewhere.
    """
    if buckets < 1:
        raise ValueError("need at least one bucket")
    counts = [0] * buckets
    for doc in docs:
        _count_spreads(counts, _spread_counts(doc), len(doc), exclude_singletons)
    return counts


def histogram_rows(counts: Sequence[int], buckets: int) -> list[tuple[float, float, int]]:
    return [(i / buckets, (i + 1) / buckets, counts[i]) for i in range(buckets)]


def document_stats(doc: Document) -> tuple[str, int, int, int]:
    """(doc_id, max active entities, total entities, doc length)."""
    return (doc.doc_id, max_active_entities(doc), len(doc.gold_clusters), len(doc))


def per_document_stats(docs: Iterable[Document]) -> list[tuple[str, int, int, int]]:
    """document_stats of each document."""
    return [document_stats(d) for d in docs]


class CorpusStats:
    """The corpus statistics folded over documents one at a time.

    add(doc) returns the document's document_stats row and folds the
    document into the spread histogram (spread_histogram's buckets) and
    into the corpus maxima: total entities, active entities with and
    without singletons. Nothing of a document is kept once add returns.
    """

    def __init__(self, buckets: int, exclude_singletons: bool = False):
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.exclude_singletons = exclude_singletons
        self.histogram = [0] * buckets
        self.documents = 0
        self.max_total = 0
        self.max_active = 0
        self.max_active_no_singletons = 0

    def add(self, doc: Document) -> tuple[str, int, int, int]:
        # Each entity's spread is computed once and feeds all three figures.
        spreads = _spread_counts(doc)
        row = (doc.doc_id, _peak_overlap(s for s, _ in spreads), len(spreads), len(doc))
        self.documents += 1
        self.max_active = max(self.max_active, row[1])
        self.max_total = max(self.max_total, row[2])
        self.max_active_no_singletons = max(
            self.max_active_no_singletons, _peak_overlap(s for s, n in spreads if n != 1)
        )
        _count_spreads(self.histogram, spreads, len(doc), self.exclude_singletons)
        return row
