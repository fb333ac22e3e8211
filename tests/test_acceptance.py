"""Acceptance suite: one test per advertised guarantee.

Run with `pytest tests/test_acceptance.py -v -s` to see one
[ACCEPTANCE] pass/fail line per criterion.
"""

import functools
import glob
import json
import math
import os
import random
import time
from pathlib import Path

import pytest

from conftest import METRIC_CASES, factorial_ceaf_counts
from streamcoref import (
    ActionKind,
    CountAccumulator,
    GoldScoreProvider,
    MemoryPolicy,
    PolicyConfig,
    RecordingScoreProvider,
    ReplayScoreProvider,
    ScoreProvider,
    SingletonMode,
    StringMatchScoreProvider,
    b_cubed,
    benchmark_document,
    ceaf_phi4,
    ceaf_phi4_counts,
    clusters_from_actions,
    conll_f1,
    corpus_max_active,
    corpus_max_total,
    dump_score_rows,
    max_active_entities,
    muc,
    oracle_trace,
    order_mentions,
    read_corpus,
    run_document,
    synthesize_corpus,
)

UNBOUNDED = PolicyConfig(MemoryPolicy.UNBOUNDED)
LITBANK_ENV = "STREAMCOREF_LITBANK"
ONTONOTES_ENV = "STREAMCOREF_ONTONOTES"


def criterion(label):
    """Print a single verdict line for the wrapped test."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                print(f"\n[ACCEPTANCE] {label}: SKIP ({exc})")
                raise
            except BaseException:
                print(f"\n[ACCEPTANCE] {label}: FAIL")
                raise
            print(f"\n[ACCEPTANCE] {label}: PASS")
            return result

        return wrapper

    return deco


def cluster_pairs(clusters):
    return [[(m.start, m.end) for m in cluster] for cluster in clusters]


def gold_pairs(doc):
    return [[(m.start, m.end) for m in c.mentions] for c in doc.gold_clusters]


@pytest.fixture(scope="module")
def small_corpus():
    return synthesize_corpus(977, 500, max_tokens=64, max_entities=8, max_mentions=20)


@criterion("1. gold scorer + unbounded memory reproduces all 500 documents in <5s")
def test_gold_unbounded_perfection(small_corpus):
    start = time.perf_counter()
    acc = CountAccumulator()
    for doc in small_corpus:
        mentions, _ = order_mentions(doc.gold_mentions())
        result = run_document(doc, mentions, GoldScoreProvider(doc), UNBOUNDED)
        acc.add(gold_pairs(doc), cluster_pairs(result.predicted_clusters))
    elapsed = time.perf_counter() - start

    report = acc.report()
    for prf in (report.muc, report.b_cubed, report.ceaf_phi4):
        assert prf.precision == 1.0
        assert prf.recall == 1.0
        assert prf.f1 == 1.0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion("2. capacity = max active entities tracks every document perfectly")
def test_capacity_sufficiency(small_corpus):
    acc = CountAccumulator()
    for doc in small_corpus:
        mentions, _ = order_mentions(doc.gold_mentions())
        capacity = max(1, max_active_entities(doc))
        steps = oracle_trace(
            mentions,
            doc.gold_clusters,
            PolicyConfig(MemoryPolicy.LEARNED_BOUNDED, capacity),
        )
        dropped = [
            s for s in steps if s.action.kind is ActionKind.IGNORE_CAPACITY
        ]
        assert not dropped, f"{doc.doc_id}: capacity {capacity} dropped mentions"

        gold = gold_pairs(doc)
        pred = cluster_pairs(clusters_from_actions(mentions, [s.action for s in steps]))
        # exact partition recovery; implies F1 = 100.0 wherever MUC is defined
        assert {frozenset(c) for c in pred} == {
            frozenset(c) for c in gold
        }, doc.doc_id
        if any(len(c.mentions) > 1 for c in doc.gold_clusters):
            report = conll_f1(gold, pred)
            assert report.conll_f1 == 1.0, f"{doc.doc_id}: F1 {report.conll_f1}"
        acc.add(gold, pred)
    assert acc.report().conll_f1 == 1.0


def _ignored_count(doc, mentions, policy):
    steps = oracle_trace(mentions, doc.gold_clusters, policy)
    return sum(1 for s in steps if s.action.kind is ActionKind.IGNORE_CAPACITY)


@criterion("3. bounded oracle: free eviction ignores no more than LRU; "
           "ignores shrink as capacity grows")
def test_policy_dominance():
    docs = synthesize_corpus(
        40_413, 200,
        max_tokens=320, max_entities=30, max_mentions=60, min_entities=12,
    )
    lb5 = []
    rb = {5: [], 10: [], 20: []}
    for doc in docs:
        mentions, _ = order_mentions(doc.gold_mentions())
        lb5.append(_ignored_count(doc, mentions, PolicyConfig(MemoryPolicy.LEARNED_BOUNDED, 5)))
        for cap in rb:
            rb[cap].append(
                _ignored_count(doc, mentions, PolicyConfig(MemoryPolicy.RULE_BOUNDED, cap))
            )

    mean = lambda xs: sum(xs) / len(xs)
    assert mean(lb5) <= mean(rb[5])
    assert mean(rb[20]) <= mean(rb[10]) <= mean(rb[5])
    # the comparison should be about real pressure, not a wash of zeros
    assert mean(rb[5]) > 0


@criterion("4. metrics match hand-computed fixtures and exhaustive alignment")
def test_metric_oracles():
    for label, gold, pred, want_muc, want_b3, want_ceaf in METRIC_CASES:
        for fn, want in ((muc, want_muc), (b_cubed, want_b3), (ceaf_phi4, want_ceaf)):
            got = fn(gold, pred)
            for got_v, want_v in zip(
                (got.precision, got.recall, got.f1), want
            ):
                assert got_v == pytest.approx(want_v, abs=1e-9), label

    # optimal alignment vs. enumeration of every cluster matching, for all
    # gold/pred cluster counts up to 6
    rng = random.Random(1312)

    def partition(items, k):
        items = list(items)
        rng.shuffle(items)
        cells = [[] for _ in range(k)]
        for i, item in enumerate(items):
            cells[i % k].append(item)
        return [frozenset(c) for c in cells]

    for k_gold in range(1, 7):
        for k_pred in range(1, 7):
            for trial in range(3):
                n = max(k_gold, k_pred) + rng.randrange(6)
                items = range(n)
                gold = partition(items, k_gold)
                extra = range(n, n + rng.randrange(3))
                pred = partition(list(items) + list(extra), k_pred)
                got = ceaf_phi4_counts(gold, pred)
                want = factorial_ceaf_counts(gold, pred)
                for got_v, want_v in zip(got, want):
                    assert got_v == pytest.approx(float(want_v), abs=1e-9)


@criterion("5. corpus statistics match the published reference counts")
def test_reference_corpus_statistics():
    expectations = [(LITBANK_ENV, 18, 199), (ONTONOTES_ENV, 24, 94)]
    missing = [env for env, _, _ in expectations if not os.environ.get(env)]
    if missing:
        pytest.skip(
            "licensed corpora not available; set "
            + " and ".join(missing)
            + " to their CoNLL directories"
        )
    for env, want_mae, want_total in expectations:
        root = os.environ[env]
        paths = sorted(
            p for p in glob.glob(os.path.join(root, "**", "*"), recursive=True)
            if "conll" in os.path.basename(p) and os.path.isfile(p)
        )
        assert paths, f"{env}: no conll files under {root}"
        docs = read_corpus(paths, "conll")
        total = corpus_max_total(docs)
        maes = {
            corpus_max_active(docs, exclude_singletons=variant)
            for variant in (False, True)
        }
        assert total == want_total, f"{env}: max total {total} != {want_total}"
        assert want_mae in maes, f"{env}: max active {maes} != {want_mae}"


@criterion("6. per-mention cost stays flat from 1k to 100k mentions")
def test_linear_runtime():
    sizes = (1_000, 10_000, 100_000)
    policy = PolicyConfig(MemoryPolicy.LEARNED_BOUNDED, 20)
    inputs = []
    for n in sizes:
        doc = benchmark_document(7, n)
        mentions, _ = order_mentions(s for s, _ in doc.candidate_mentions)
        inputs.append((doc, mentions))
    # CPU time of this process, so that time slices other processes get do
    # not count; best of three at every size, in rounds over all sizes, so
    # that a slow spell of a shared machine cannot land on one size only.
    totals = [math.inf] * len(sizes)
    for _ in range(3):
        for i, (doc, mentions) in enumerate(inputs):
            scores = StringMatchScoreProvider()
            start = time.process_time()
            run_document(doc, mentions, scores, policy)
            totals[i] = min(totals[i], time.process_time() - start)

    per_mention = [t / n for t, n in zip(totals, sizes)]
    assert max(per_mention) / min(per_mention) < 2.0, per_mention

    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in totals]
    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)
    sxx = sum((x - x_mean) ** 2 for x in xs)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    syy = sum((y - y_mean) ** 2 for y in ys)
    slope = sxy / sxx
    r2 = sxy * sxy / (sxx * syy)
    assert 0.9 <= slope <= 1.1, f"slope {slope:.3f}"
    assert r2 >= 0.99, f"R^2 {r2:.4f}"


class CountingScores(ScoreProvider):
    """Wraps a provider and counts the score values each engine step asks for.

    A step is everything from one mention_begin to the next. step_scores
    counts the row's values; each scalar query counts one.
    """

    def __init__(self, inner: ScoreProvider):
        self.inner = inner
        self.steps = 0
        self.step_calls = 0
        self.values = 0  # in the current step
        self.most = 0  # in any step

    def _count(self, values: int) -> None:
        self.values += values
        self.most = max(self.most, self.values)

    def start_document(self, doc, mentions):
        self.inner.start_document(doc, mentions)

    def mention_begin(self, index, mention):
        self.steps += 1
        self.values = 0
        self.inner.mention_begin(index, mention)

    def step_scores(self, doc, mention, cells):
        row = self.inner.step_scores(doc, mention, cells)
        self.step_calls += 1
        self._count(2 + len(row.s_c) + len(row.f_r_cells))
        return row

    def mention_score(self, doc, mention):
        self._count(1)
        return self.inner.mention_score(doc, mention)

    def coref_score(self, doc, mention, slot):
        self._count(1)
        return self.inner.coref_score(doc, mention, slot)

    def remaining_score(self, doc, item):
        self._count(1)
        return self.inner.remaining_score(doc, item)

    def observe_action(self, index, mention, action, slot):
        self.inner.observe_action(index, mention, action, slot)


@criterion("6b. every step reads at most 2 * capacity + 2 score values, 1k to 100k mentions")
def test_score_values_per_step_are_bounded():
    # The clock-free half of criterion 6: per-step work the engine asks of
    # its provider does not grow with the document.
    for n in (1_000, 10_000, 100_000):
        doc = benchmark_document(7, n)
        mentions, _ = order_mentions(s for s, _ in doc.candidate_mentions)
        for policy in (MemoryPolicy.LEARNED_BOUNDED, MemoryPolicy.RULE_BOUNDED):
            capacity = 20
            scores = CountingScores(StringMatchScoreProvider())
            run_document(doc, mentions, scores, PolicyConfig(policy, capacity))
            assert scores.steps == scores.step_calls == len(mentions), (n, policy)
            # Memory fills in every run, so the bound is met, not just kept.
            assert scores.most == 2 * capacity + 2, (n, policy, scores.most)


@criterion("7. README states what needs trained scorers and documents the replay path")
def test_readme_documents_scope():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    assert "neural" in text
    assert "out of scope" in text or "not reproduc" in text
    assert "replay" in text


@criterion("8. recorded scores replay to byte-identical action traces")
def test_record_replay_fidelity(tmp_path):
    docs = synthesize_corpus(55, 25, extra_candidates=3)
    configs = (
        PolicyConfig(MemoryPolicy.UNBOUNDED),
        PolicyConfig(MemoryPolicy.UNBOUNDED_STAR, singleton_mode=SingletonMode.DROP),
        PolicyConfig(MemoryPolicy.LEARNED_BOUNDED, 4),
        PolicyConfig(MemoryPolicy.RULE_BOUNDED, 4),
    )

    def trace_bytes(docs, make_scores, config):
        out = []
        scores = make_scores()
        for doc in docs:
            mentions, _ = order_mentions(s for s, _ in doc.candidate_mentions)
            result = run_document(doc, mentions, scores, config)
            out.append(
                json.dumps(
                    {
                        "doc_id": doc.doc_id,
                        "actions": [a.to_obj() for a in result.stats.actions],
                    }
                )
            )
        return ("\n".join(out) + "\n").encode("utf-8"), scores

    for i, config in enumerate(configs):
        rows_path = tmp_path / f"rows-{i}.jsonl"
        live, recorder = trace_bytes(
            docs, lambda: RecordingScoreProvider(StringMatchScoreProvider()), config
        )
        dump_score_rows(recorder.rows, rows_path)
        replayed, _ = trace_bytes(
            docs, lambda: ReplayScoreProvider.from_file(rows_path), config
        )
        assert live == replayed, config.policy.value
