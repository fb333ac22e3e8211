"""Synthetic documents for tests and benchmarks.

Everything here is driven by a caller-supplied seed or Random instance, so
fixtures are reproducible. Generated documents always satisfy the type
invariants: spans are in range, distinct, and every cluster is non-empty.
"""

from __future__ import annotations

import random

from .types import Document, GoldCluster, MentionSpan


def synthesize_document(
    rng: random.Random,
    doc_id: str,
    *,
    max_tokens: int = 64,
    max_entities: int = 8,
    max_mentions: int = 20,
    min_entities: int = 1,
    extra_candidates: int = 0,
) -> Document:
    """Random document with clustered mention spans.

    Candidate mentions are the gold mentions (score 0) plus optionally some
    non-gold spans (score 0) to exercise invalid-mention handling.
    """
    n_tokens = rng.randint(max(8, min_entities * 2), max(max_tokens, 8))
    n_entities = rng.randint(min_entities, max(min_entities, max_entities))
    tokens = tuple(f"w{i}" for i in range(n_tokens))

    wanted = rng.randint(n_entities, max(max_mentions, n_entities))
    wanted += extra_candidates
    spans: set[MentionSpan] = set()
    attempts = 0
    while len(spans) < wanted and attempts < wanted * 20:
        attempts += 1
        start = rng.randrange(n_tokens)
        length = rng.randint(1, min(3, n_tokens - start))
        spans.add(MentionSpan(start, start + length - 1))

    pool = sorted(spans)
    rng.shuffle(pool)
    extras = tuple(pool[:extra_candidates]) if extra_candidates else ()
    gold_pool = pool[extra_candidates:]
    if len(gold_pool) < n_entities:
        n_entities = max(1, len(gold_pool))

    assignments: dict[int, list[MentionSpan]] = {e: [] for e in range(n_entities)}
    for i, span in enumerate(gold_pool):
        if i < n_entities:
            assignments[i].append(span)
        else:
            assignments[rng.randrange(n_entities)].append(span)

    # renumber so entity ids stay contiguous even if a slot ends up empty
    clusters = tuple(
        GoldCluster(idx, tuple(sorted(ms)))
        for idx, ms in enumerate(ms for ms in assignments.values() if ms)
    )
    candidates = tuple(
        (s, 0.0)
        for s in sorted({m for c in clusters for m in c.mentions} | set(extras))
    )

    boundaries = tuple(range(10, n_tokens, 10)) + (n_tokens,)
    return Document(
        doc_id=doc_id,
        tokens=tokens,
        sentence_boundaries=tuple(b for b in boundaries if b <= n_tokens),
        candidate_mentions=candidates,
        gold_clusters=clusters,
    )


def synthesize_corpus(
    seed: int,
    n_docs: int,
    *,
    max_tokens: int = 64,
    max_entities: int = 8,
    max_mentions: int = 20,
    min_entities: int = 1,
    extra_candidates: int = 0,
    prefix: str = "synth",
) -> list[Document]:
    rng = random.Random(seed)
    return [
        synthesize_document(
            rng,
            f"{prefix}-{i:04d}",
            max_tokens=max_tokens,
            max_entities=max_entities,
            max_mentions=max_mentions,
            min_entities=min_entities,
            extra_candidates=extra_candidates,
        )
        for i in range(n_docs)
    ]


def benchmark_document(
    seed: int,
    n_mentions: int,
    *,
    entity_pool: int = 50,
    filler_every: int = 4,
    doc_id: str | None = None,
) -> Document:
    """Long document of repeated entity names, for throughput measurements.

    Every mention is a single token drawn from a fixed pool of entity
    names, so a string-matching scorer keeps memory busy: far more
    distinct names than any realistic capacity, and steady coreference
    within each name.
    """
    rng = random.Random(seed)
    names = [f"ent{k}" for k in range(entity_pool)]
    tokens: list[str] = []
    occurrences: dict[str, list[MentionSpan]] = {n: [] for n in names}
    candidates: list[tuple[MentionSpan, float]] = []
    for i in range(n_mentions):
        if filler_every and i % filler_every == 0:
            tokens.append(f"f{i}")
        name = rng.choice(names)
        pos = len(tokens)
        tokens.append(name)
        span = MentionSpan(pos, pos)
        occurrences[name].append(span)
        candidates.append((span, 1.0))

    clusters = tuple(
        GoldCluster(idx, tuple(spans))
        for idx, (name, spans) in enumerate(sorted(occurrences.items()))
        if spans
    )
    n_tokens = len(tokens)
    return Document(
        doc_id=doc_id or f"bench-{n_mentions}",
        tokens=tuple(tokens),
        sentence_boundaries=(n_tokens,) if n_tokens else (),
        candidate_mentions=tuple(candidates),
        gold_clusters=clusters,
    )
