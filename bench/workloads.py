"""Seeded workload generator for the streamcoref benchmark.

Each workload is a corpus made by the package's own generators from one
seed, plus the options of the CLI chain that runs on it. Everything the
chain's correctness checks compare against (in-process engine results,
replay rows, the expected score report, oracle and analytics figures) is
derived here from the same documents, without going through the CLI.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from streamcoref import (
    CountAccumulator,
    MemoryPolicy,
    MentionSpan,
    PolicyConfig,
    RecordingScoreProvider,
    corpus_max_active,
    dump_score_rows,
    gold_scorer,
    oracle_trackable_fraction,
    order_mentions,
    propose_top_spans,
    run_document,
    string_match_scorer,
    write_jsonl,
)
from streamcoref.engine import trace_objs
from streamcoref.synth import benchmark_document, synthesize_corpus


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scorer: str  # "gold" or "string-match"
    policy: PolicyConfig
    proposal_ratio: float | None
    jobs: int
    oracle_policy: PolicyConfig
    # What the score step evaluates and what it must report: "perfect" (the
    # run's predictions, which gold+unbounded makes exactly 1.0), "split" (a
    # seeded split of gold, scored in closed form, so score_s does not depend
    # on engine decisions) or "in-process" (the replay's predictions, scored
    # by the library without the CLI).
    score_expect: str


def _bounded(policy: str, capacity: int) -> PolicyConfig:
    return PolicyConfig(policy=MemoryPolicy(policy), capacity=capacity)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="many-short-docs",
            why="1,500 short synthetic docs with ~3.5 memory cells: per-document cost"
            " (ingest in every subcommand, --jobs 2 pickling, output writing) dominates",
            scorer="gold",
            policy=PolicyConfig(policy=MemoryPolicy.UNBOUNDED),
            proposal_ratio=None,
            jobs=2,
            oracle_policy=_bounded("lb", 5),
            score_expect="perfect",
        ),
        Workload(
            name="long-docs",
            why="two 10k-mention docs with memory full at every step: provider queries,"
            " the engine step and the dense CEAF matrix of a gold split dominate",
            scorer="string-match",
            policy=_bounded("lb", 20),
            proposal_ratio=None,
            jobs=1,
            oracle_policy=_bounded("lb", 20),
            score_expect="split",
        ),
        Workload(
            name="record-replay",
            why="mid-length docs run once recording score rows and once replaying"
            " them, separating provider cost from row I/O and proposal cost",
            scorer="string-match",
            policy=_bounded("rb", 10),
            proposal_ratio=0.6,
            jobs=1,
            oracle_policy=_bounded("rb", 10),
            score_expect="in-process",
        ),
    )
}

# Corpus shapes. One pass of the CLI chain takes 8-10 s on a 2-vCPU
# machine, so a 30-second run makes three or four passes.
SHORT_DOCS = 1500
LONG_DOCS = 2
LONG_MENTIONS = 10000
LONG_ENTITY_POOL = 200
MID_DOCS = 32
MID_MENTIONS = 1000
SPLIT_CHUNK = (2, 8)  # gold clusters of long-docs split into chunks this size


def make_documents(workload: Workload, seed: int) -> list:
    """The workload's corpus; the same seed gives the same documents."""
    if workload.name == "many-short-docs":
        return synthesize_corpus(
            seed,
            SHORT_DOCS,
            max_tokens=100,
            max_entities=8,
            max_mentions=25,
            extra_candidates=3,
        )
    rng = random.Random(seed)
    if workload.name == "long-docs":
        count, mentions, pool = LONG_DOCS, LONG_MENTIONS, LONG_ENTITY_POOL
    else:
        count, mentions, pool = MID_DOCS, MID_MENTIONS, 50
    return [
        benchmark_document(
            rng.randrange(2**31),
            mentions,
            entity_pool=pool,
            doc_id=f"{workload.name}-{i:04d}",
        )
        for i in range(count)
    ]


def processing_order(doc, ratio: float | None) -> list:
    """Mentions in the order the run subcommand feeds them to the engine."""
    candidates = list(doc.candidate_mentions) or [(s, 0.0) for s in doc.gold_mentions()]
    if ratio is not None and len(doc) >= 1:
        return propose_top_spans(candidates, ratio, len(doc))
    return order_mentions(s for s, _ in candidates)[0]


def make_provider(workload: Workload, doc):
    return gold_scorer(doc) if workload.scorer == "gold" else string_match_scorer()


def split_gold(docs, seed: int) -> list[list[list[list[int]]]]:
    """Each gold cluster cut into consecutive chunks of seeded sizes."""
    rng = random.Random(seed ^ 0x5EED)
    out = []
    for doc in docs:
        clusters = []
        for cluster in doc.gold_clusters:
            spans = [m.as_pair() for m in cluster.mentions]
            i = 0
            while i < len(spans):
                size = rng.randint(*SPLIT_CHUNK)
                clusters.append(spans[i : i + size])
                i += size
        out.append(clusters)
    return out


def split_report(docs, split) -> dict:
    """Closed-form MUC, B3 and CEAF-phi4 of a chunk split against its gold.

    Every chunk lies inside one gold cluster and every gold mention is in
    exactly one chunk, so precision is 1 for MUC and B3 (when any chunk has
    two mentions), and the optimal CEAF alignment takes the largest chunk of
    each gold cluster, phi4 = 2c / (n + c).
    """
    muc_r_num = muc_r_den = muc_p_num = 0
    b3_r_num = 0.0
    mentions = 0
    ceaf = 0.0
    gold_n = pred_n = 0
    for doc, chunks in zip(docs, split):
        sizes = {}
        for chunk in chunks:
            ent = doc.entity_by_span[MentionSpan(*chunk[0])]
            sizes.setdefault(ent, []).append(len(chunk))
            muc_p_num += len(chunk) - 1
        pred_n += len(chunks)
        for cluster in doc.gold_clusters:
            n = len(cluster.mentions)
            parts = sizes[cluster.entity_id]
            muc_r_num += n - len(parts)
            muc_r_den += n - 1
            b3_r_num += sum(c * c for c in parts) / n
            mentions += n
            big = max(parts)
            ceaf += 2 * big / (n + big)
            gold_n += 1

    def prf(p, r):
        return {"precision": p, "recall": r, "f1": 2 * p * r / (p + r) if p + r else 0.0}

    report = {
        "muc": prf(1.0 if muc_p_num else 0.0, muc_r_num / muc_r_den),
        "b_cubed": prf(1.0, b3_r_num / mentions),
        "ceaf_phi4": prf(ceaf / pred_n, ceaf / gold_n),
    }
    report["conll_f1"] = sum(report[k]["f1"] for k in ("muc", "b_cubed", "ceaf_phi4")) / 3
    return report


@dataclass
class Prepared:
    """A workload's files on disk plus every figure the checks expect."""

    workload: Workload
    seed: int
    corpus: Path
    rows: Path | None  # replay rows recorded in-process (None: the chain records)
    split: Path | None
    mentions: int
    expected_clusters: dict  # doc_id -> clusters as written to predictions
    expected_trace: list  # trace lines as JSON objects, headers included
    scored_clusters: list  # per document, the clusters the score step evaluates
    expected_report: dict
    expected_mae: int
    expected_trackable: float
    properties: dict


def _clusters_json(result) -> list:
    return [[m.as_pair() for m in cluster] for cluster in result.predicted_clusters]


def _report_dict(report) -> dict:
    """A ScoreReport in the layout `streamcoref score --json` writes."""
    return {
        "muc": vars(report.muc),
        "b_cubed": vars(report.b_cubed),
        "ceaf_phi4": vars(report.ceaf_phi4),
        "conll_f1": report.conll_f1,
    }


PERFECT = {
    **{k: {"precision": 1.0, "recall": 1.0, "f1": 1.0} for k in ("muc", "b_cubed", "ceaf_phi4")},
    "conll_f1": 1.0,
}


def prepare(workload: Workload, seed: int, workdir: Path) -> Prepared:
    """Write the corpus (and split predictions, replay rows) and the expectations."""
    docs = make_documents(workload, seed)
    corpus = workdir / "corpus.jsonl"
    write_jsonl(docs, corpus)

    clusters, trace, rows = {}, [], []
    mentions, cells = 0, 0.0
    for doc in docs:
        order = processing_order(doc, workload.proposal_ratio)
        provider = RecordingScoreProvider(make_provider(workload, doc))
        result = run_document(doc, order, provider, workload.policy)
        clusters[doc.doc_id] = _clusters_json(result)
        trace.append({"doc_id": doc.doc_id})
        trace.extend(trace_objs(order, result.stats.actions))
        rows.extend(provider.rows)
        mentions += len(order)
        cells += result.stats.avg_entities_in_memory * len(order)

    rows_path = None
    if workload.name != "record-replay":
        rows_path = workdir / "inproc_rows.jsonl"
        dump_score_rows(rows, rows_path)

    split_path = None
    if workload.score_expect == "split":
        split = split_gold(docs, seed)
        split_path = workdir / "split_pred.jsonl"
        with open(split_path, "w", encoding="utf-8") as fh:
            for doc, chunks in zip(docs, split):
                fh.write(json.dumps({"doc_id": doc.doc_id, "clusters": chunks}) + "\n")
        report = split_report(docs, split)
        scored = split
    else:
        scored = [clusters[d.doc_id] for d in docs]
        if workload.score_expect == "perfect":
            report = PERFECT
        else:
            acc = CountAccumulator()
            for doc, pred in zip(docs, scored):
                acc.add(
                    [c.mentions for c in doc.gold_clusters],
                    [[MentionSpan(*p) for p in c] for c in pred],
                )
            report = _report_dict(acc.report())

    mae = corpus_max_active(docs)
    properties = {
        "docs": len(docs),
        "mentions": mentions,
        "tokens": sum(len(d) for d in docs),
        "mean_cells": cells / mentions,
        "max_gold_x_pred": max(len(d.gold_clusters) * len(p) for d, p in zip(docs, scored)),
        "corpus_mae": mae,
    }
    return Prepared(
        workload=workload,
        seed=seed,
        corpus=corpus,
        rows=rows_path,
        split=split_path,
        mentions=mentions,
        expected_clusters=clusters,
        expected_trace=trace,
        scored_clusters=scored,
        expected_report=report,
        expected_mae=mae,
        expected_trackable=oracle_trackable_fraction(docs, workload.oracle_policy),
        properties=properties,
    )
