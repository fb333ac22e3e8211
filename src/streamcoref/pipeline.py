"""The run pipeline: corpus chunks in, one compact output per document out.

read_chunks (ingest) streams the corpus as ordered chunks of raw lines.
run_chunk parses and validates each document, proposes its mentions, runs
the engine and serializes everything the run writes for it: the
prediction line, the trace lines, the recorded score rows and the
clusters' digest for the manifest, plus the counters the summary needs. ordered_outputs
yields those outputs in input order, computed in this process or in a
pool of worker processes that holds a bounded window of chunks. The
calling process therefore holds O(window) documents whatever the corpus
size, and every worker count gives the same outputs. Workers are forked
where that is safe (see start_method) and spawned elsewhere.
"""

from __future__ import annotations

import json
import os
import sys
from collections import deque
from typing import Iterable, Iterator, NamedTuple, Sequence

from .engine import run_document
from . import ingest
from .ingest import ParseError, SourceLine, chunk_documents, order_mentions
from .scoring import (
    RecordingScoreProvider,
    ScoreProvider,
    StringMatchConfig,
    gold_scorer,
    propose_top_spans,
    string_match_scorer,
)
from .types import Action, Document, MentionSpan, PolicyConfig

# Chunks in flight per worker: one being computed, one queued behind it.
WINDOW_PER_WORKER = 2


class RunSpec(NamedTuple):
    """Everything a document's run needs besides the document.

    scorer is "gold", "string-match" or "replay"; replay runs take their
    provider from the caller. trace, record and manifest say which outputs
    to serialize.
    """

    policy: PolicyConfig
    scorer: str
    match: StringMatchConfig
    ratio: float | None
    trace: bool = False
    record: bool = False
    manifest: bool = False


class DocOutput(NamedTuple):
    """One document's run, serialized; text fields are "" when not asked for."""

    doc_id: str
    prediction: str  # predictions JSONL line
    trace: str  # header line plus one line per mention
    rows: str  # recorded score rows, one line per mention
    digest: str  # sha256 of the predicted clusters' JSON, for the manifest
    mentions: int
    entity_steps: float  # average entities in memory times mentions
    max_entities: int
    ignored_capacity: int
    ignored_invalid: int
    evictions: int


def document_mentions(doc: Document, ratio: float | None) -> list[MentionSpan]:
    """The document's mentions in processing order, cut to the ratio if given."""
    candidates = list(doc.candidate_mentions)
    if not candidates:
        candidates = [(s, 0.0) for s in doc.gold_mentions()]
    if ratio is not None and len(doc) >= 1:
        return propose_top_spans(candidates, ratio, len(doc))
    spans, _ = order_mentions(s for s, _ in candidates)
    return spans


def trace_lines(mentions: Sequence[MentionSpan], actions: Sequence[Action]) -> str:
    """The trace lines of a run, each json.dumps of its engine.trace_objs entry.

    A run hands out a few shared Action instances, so each one's part of
    the line is serialized once, keyed by identity for the length of the call.
    """
    suffixes: dict[int, str] = {}
    lines = []
    for (start, end), action in zip(mentions, actions):
        suffix = suffixes.get(id(action))
        if suffix is None:
            # '"action": "coref", "cell": 3}': the object's text after its "{".
            suffix = suffixes[id(action)] = json.dumps(action.to_obj())[1:]
        lines.append(f'{{"mention": [{start}, {end}], {suffix}\n')
    return "".join(lines)


def run_one(spec: RunSpec, doc: Document, provider: ScoreProvider | None = None) -> DocOutput:
    """Run one document and serialize its outputs.

    provider is the replay provider shared across documents, or None to
    build the gold or string-match provider that spec names.
    """
    mentions = document_mentions(doc, spec.ratio)
    if provider is None:
        if spec.scorer == "gold":
            provider = gold_scorer(doc)
        else:
            provider = string_match_scorer(spec.match)
    recorder = RecordingScoreProvider(provider) if spec.record else None
    result = run_document(doc, mentions, recorder or provider, spec.policy)
    stats = result.stats

    # Spans and tuples of them serialize as JSON arrays: [[s, e], ...].
    clusters = result.predicted_clusters
    prediction = json.dumps({"doc_id": doc.doc_id, "clusters": clusters}) + "\n"
    trace = ""
    if spec.trace:
        trace = json.dumps({"doc_id": doc.doc_id}) + "\n" + trace_lines(mentions, stats.actions)
    rows = ""
    if recorder is not None:
        from .rowcodec import encode_row  # loaded only by a run that records

        rows = "".join(map(encode_row, recorder.rows))
    digest = ingest.sha256(json.dumps(clusters).encode()).hexdigest() if spec.manifest else ""
    return DocOutput(
        doc_id=doc.doc_id,
        prediction=prediction,
        trace=trace,
        rows=rows,
        digest=digest,
        mentions=len(mentions),
        entity_steps=stats.avg_entities_in_memory * len(mentions),
        max_entities=stats.max_entities_in_memory,
        ignored_capacity=stats.ignored_capacity_count,
        ignored_invalid=stats.ignored_invalid_count,
        evictions=stats.eviction_count,
    )


def run_chunk(
    spec: RunSpec, chunk: Iterable[SourceLine | Document], provider: ScoreProvider | None = None
) -> list[DocOutput]:
    """run_one over a chunk's documents, parsed one at a time, in order."""
    return [run_one(spec, doc, provider) for doc in chunk_documents(chunk)]


def worker_count(jobs: int, corpus_bytes: int, cpus: int | None = None) -> int:
    """Worker processes for a run asked to use jobs of them.

    At least 1 and at most the CPUs this process may use (cpus, by
    default from the scheduler). A corpus that fits in one chunk gets 1:
    a pool cannot split it, and a worker costs a fork (a few ms) or,
    where workers are spawned, an interpreter start plus the package's
    import (~0.1-0.2 s).
    """
    if corpus_bytes <= ingest.CHUNK_BYTES:
        return 1
    if cpus is None:
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
    return max(1, min(jobs, cpus))


def start_method() -> str:
    """How pool workers start: "fork" where it is safe, else "spawn".

    A forked worker inherits the modules this process has loaded, so it
    starts in milliseconds; a spawned one starts an interpreter and imports
    the package again. fork needs Linux (Windows has none, and macOS system
    libraries are not fork-safe), Python 3.11+, whose ProcessPoolExecutor
    forks every worker before it starts its manager thread (CPython
    gh-90622), and a caller running no other thread, since a fork copies
    the locks other threads hold.
    """
    import multiprocessing
    import threading

    if (
        sys.platform.startswith("linux")
        and sys.version_info >= (3, 11)
        and "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
    ):
        return "fork"
    return "spawn"


def ordered_outputs(
    spec: RunSpec,
    chunks: Iterable[list[SourceLine | Document]],
    workers: int = 1,
    provider: ScoreProvider | None = None,
) -> Iterator[DocOutput]:
    """Every document's DocOutput, in input order.

    One worker runs the chunks in this process, as replay must (its
    provider's rows are positional across the corpus). More run them in a
    pool of processes started by start_method(), with at most
    WINDOW_PER_WORKER chunks per worker in flight. The first error in
    input order is raised, whichever process met it.
    """
    if workers <= 1:
        for chunk in chunks:
            yield from run_chunk(spec, chunk, provider)
        return
    if provider is not None:
        raise ValueError("a shared provider runs in this process only")

    # The pool's modules cost every CLI call ~15 ms to import, so only a
    # parallel run loads them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(start_method()))
    pending: deque = deque()
    chunks = iter(chunks)
    try:
        while True:
            try:
                chunk = next(chunks, None)
            except (OSError, ParseError):
                # The reader failed after the chunks in flight were read:
                # their errors and outputs come first.
                while pending:
                    yield from pending.popleft().result()
                raise
            if chunk is None:
                break
            pending.append(pool.submit(run_chunk, spec, chunk))
            if len(pending) >= WINDOW_PER_WORKER * workers:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
