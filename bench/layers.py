"""The traced pass: each streamcoref layer called in-process, under spans.

The pass calls the public functions of every module on the workload's own
inputs, one layer at a time, with a span around each call. Nothing inside
the package is instrumented. The same sequence runs with the tracer off to
measure what the spans cost.
"""

from __future__ import annotations

import time
from pathlib import Path

from streamcoref import (
    MentionSpan,
    RecordingScoreProvider,
    ReplayScoreProvider,
    ScoreProvider,
    b_cubed_counts,
    ceaf_phi4_counts,
    corpus_max_active,
    dump_score_rows,
    load_jsonl,
    load_score_rows,
    muc_counts,
    oracle_trackable_fraction,
    order_mentions,
    per_document_stats,
    run_document,
    spread_histogram,
    validate_document,
)
from spans import Tracer
from workloads import Prepared, make_documents, make_provider, processing_order


class MeteredProvider(ScoreProvider):
    """Delegates every call and counts score queries and time spent inside."""

    def __init__(self, inner: ScoreProvider):
        self.inner = inner
        self.queries = 0
        self.seconds = 0.0

    def _timed(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds += time.perf_counter() - start

    def _query(self, fn, *args):
        self.queries += 1
        return self._timed(fn, *args)

    def start_document(self, doc, mentions):
        self._timed(self.inner.start_document, doc, mentions)

    def mention_begin(self, index, mention):
        self._timed(self.inner.mention_begin, index, mention)

    def mention_score(self, doc, mention):
        return self._query(self.inner.mention_score, doc, mention)

    def coref_score(self, doc, mention, cell):
        return self._query(self.inner.coref_score, doc, mention, cell)

    def remaining_score(self, doc, item):
        return self._query(self.inner.remaining_score, doc, item)

    def gold_entity_id(self, doc, mention):
        return self._timed(self.inner.gold_entity_id, doc, mention)

    def observe_action(self, index, mention, action, cell):
        self._timed(self.inner.observe_action, index, mention, action, cell)

    def end_document(self):
        self._timed(self.inner.end_document)


def layer_pass(prep: Prepared, tracer: Tracer, workdir: Path) -> dict:
    """Run every layer once; returns the counts measured along the way.

    Timings are read from the tracer's spans afterwards (see layer_metrics).
    """
    w = prep.workload
    out: dict = {}
    with tracer.span("pass"):
        with tracer.span("synth.generate"):
            make_documents(w, prep.seed)

        with tracer.span("ingest.load_jsonl"):
            docs = load_jsonl(prep.corpus)
        with tracer.span("ingest.validate"):
            out["validate_problems"] = sum(len(validate_document(d)) for d in docs)
        out["duplicates_dropped"] = sum(
            order_mentions(s for s, _ in d.candidate_mentions)[1] for d in docs
        )

        with tracer.span("scoring.propose"):
            orders = [processing_order(d, w.proposal_ratio) for d in docs]
        gold = [set(d.gold_mentions()) for d in docs]
        out["gold_mentions"] = sum(len(g) for g in gold)
        out["gold_kept"] = sum(len(g.intersection(o)) for g, o in zip(gold, orders))
        out["mentions"] = sum(len(o) for o in orders)

        with tracer.span("engine.run_document"):
            results = [
                run_document(d, o, make_provider(w, d), w.policy) for d, o in zip(docs, orders)
            ]
        stats = [r.stats for r in results]
        out["evictions"] = sum(s.eviction_count for s in stats)
        out["ignored_cap"] = sum(s.ignored_capacity_count for s in stats)
        out["ignored_inv"] = sum(s.ignored_invalid_count for s in stats)
        out["cells"] = sum(s.avg_entities_in_memory * len(o) for s, o in zip(stats, orders))

        queries, provider_s = 0, 0.0
        with tracer.span("scoring.metered_run"):
            for d, o in zip(docs, orders):
                metered = MeteredProvider(make_provider(w, d))
                run_document(d, o, metered, w.policy)
                queries += metered.queries
                provider_s += metered.seconds
        out["queries"] = queries
        out["provider_s"] = provider_s

        rows = []
        with tracer.span("record.run_document"):
            for d, o in zip(docs, orders):
                recorder = RecordingScoreProvider(make_provider(w, d))
                run_document(d, o, recorder, w.policy)
                rows.extend(recorder.rows)
        rows_path = workdir / "layer_rows.jsonl"
        with tracer.span("record.dump"):
            dump_score_rows(rows, rows_path)
        out["record_bytes"] = rows_path.stat().st_size

        with tracer.span("replay.load"):
            loaded = load_score_rows(rows_path)
        out["replay_rows"] = len(loaded)
        with tracer.span("replay.run_document"):
            replayer = ReplayScoreProvider(loaded)
            replayed = [run_document(d, o, replayer, w.policy) for d, o in zip(docs, orders)]
        out["replay_identical"] = all(
            a.stats.actions == b.stats.actions for a, b in zip(results, replayed)
        )

        with tracer.span("oracle.trackable_fraction"):
            out["trackable_fraction"] = oracle_trackable_fraction(docs, w.oracle_policy)

        with tracer.span("analytics.per_document_stats"):
            per_document_stats(docs)
        with tracer.span("analytics.spread_histogram"):
            spread_histogram(docs, 10)
        with tracer.span("analytics.corpus_max_active"):
            out["corpus_mae"] = corpus_max_active(docs)

        pairs = [
            ([c.mentions for c in d.gold_clusters], [[MentionSpan(*p) for p in c] for c in pred])
            for d, pred in zip(docs, prep.scored_clusters)
        ]
        out["max_gold_x_pred"] = max(len(g) * len(p) for g, p in pairs)
        for name, fn in (("muc", muc_counts), ("b3", b_cubed_counts), ("ceaf", ceaf_phi4_counts)):
            with tracer.span(f"metrics.{name}"):
                for g, p in pairs:
                    fn(g, p)
    out["docs"] = len(docs)
    out["bytes_in"] = prep.corpus.stat().st_size
    return out


def layer_metrics(tracer: Tracer, c: dict) -> dict:
    """Per-layer values from one traced pass (times in s unless named)."""
    t = tracer.seconds
    engine_s = t("engine.run_document")
    parse_s = t("ingest.load_jsonl")
    return {
        "ingest.parse_s": parse_s,
        "ingest.us_per_mention": 1e6 * parse_s / c["mentions"],
        "ingest.validate_s": t("ingest.validate"),
        "ingest.bytes_in": c["bytes_in"],
        "ingest.duplicates_dropped": c["duplicates_dropped"],
        "scoring.queries_per_mention": c["queries"] / c["mentions"],
        "scoring.provider_s": c["provider_s"],
        "scoring.propose_s": t("scoring.propose"),
        "scoring.proposal_recall": c["gold_kept"] / c["gold_mentions"],
        "engine.us_per_mention": 1e6 * engine_s / c["mentions"],
        "engine.self_s": engine_s - c["provider_s"],
        "engine.avg_cells": c["cells"] / c["mentions"],
        "engine.evictions": c["evictions"],
        "engine.ignored_cap": c["ignored_cap"],
        "engine.ignored_inv": c["ignored_inv"],
        "record.overhead_ratio": t("record.run_document") / engine_s,
        "record.dump_s": t("record.dump"),
        "record.bytes": c["record_bytes"],
        "replay.load_s": t("replay.load"),
        "replay.us_per_mention": 1e6 * t("replay.run_document") / c["mentions"],
        "replay.rows": c["replay_rows"],
        "metrics.muc_s": t("metrics.muc"),
        "metrics.b3_s": t("metrics.b3"),
        "metrics.ceaf_s": t("metrics.ceaf"),
        "metrics.max_gold_x_pred": c["max_gold_x_pred"],
        "oracle.us_per_mention": 1e6 * t("oracle.trackable_fraction") / c["gold_mentions"],
        "oracle.trackable_fraction": c["trackable_fraction"],
        "analytics.per_doc_s": t("analytics.per_document_stats"),
        "analytics.histogram_s": t("analytics.spread_histogram"),
        "analytics.corpus_mae": c["corpus_mae"],
        "synth.docs_per_s": c["docs"] / t("synth.generate"),
    }
