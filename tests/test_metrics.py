"""Clustering metrics: link-based, mention-based, alignment-based."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    METRIC_CASES,
    definition_b3_counts,
    definition_muc_counts,
    dense_ceaf_counts,
    factorial_ceaf_counts,
)
from streamcoref import (
    PRF,
    CountAccumulator,
    MentionSpan,
    b_cubed,
    ceaf_phi4,
    conll_f1,
    filter_singletons,
    muc,
)
from streamcoref.metrics import (
    b_cubed_counts,
    ceaf_phi4_counts,
    muc_counts,
    phi4,
)

CASE_IDS = [c[0] for c in METRIC_CASES]


def assert_prf(got: PRF, want: tuple[float, float, float], label: str):
    assert got.precision == pytest.approx(want[0], abs=1e-9), f"{label} precision"
    assert got.recall == pytest.approx(want[1], abs=1e-9), f"{label} recall"
    assert got.f1 == pytest.approx(want[2], abs=1e-9), f"{label} f1"


@pytest.mark.parametrize("case", METRIC_CASES, ids=CASE_IDS)
def test_fixture_values(case):
    label, gold, pred, want_muc, want_b3, want_ceaf = case
    assert_prf(muc(gold, pred), want_muc, f"{label} muc")
    assert_prf(b_cubed(gold, pred), want_b3, f"{label} b3")
    assert_prf(ceaf_phi4(gold, pred), want_ceaf, f"{label} ceaf")


@pytest.mark.parametrize("case", METRIC_CASES, ids=CASE_IDS)
def test_swapping_sides_swaps_precision_and_recall(case):
    _, gold, pred, *_ = case
    for metric in (muc, b_cubed, ceaf_phi4):
        ab = metric(gold, pred)
        ba = metric(pred, gold)
        assert ab.precision == pytest.approx(ba.recall, abs=1e-12)
        assert ab.recall == pytest.approx(ba.precision, abs=1e-12)
        assert ab.f1 == pytest.approx(ba.f1, abs=1e-12)


def test_phi4_similarity():
    assert phi4(frozenset("ab"), frozenset("ab")) == 1.0
    assert phi4(frozenset("abc"), frozenset("ab")) == pytest.approx(4 / 5)
    assert phi4(frozenset("ab"), frozenset("cd")) == 0.0


def test_zero_denominators_read_as_zero():
    prf = PRF.from_counts((0.0, 0.0, 0.0, 0.0))
    assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)
    # zero precision and recall must not blow up the harmonic mean
    prf = PRF.from_counts((0.0, 3.0, 0.0, 2.0))
    assert prf.f1 == 0.0


def test_filter_singletons():
    clusters = [["a"], ["b", "c"], ["d"], ["e", "f", "g"]]
    kept = filter_singletons(clusters)
    assert kept == [frozenset("bc"), frozenset("efg")]
    assert filter_singletons([]) == []


def test_identical_partitions_score_one():
    rng = random.Random(3)
    for _ in range(20):
        items = [f"m{i}" for i in range(rng.randint(1, 12))]
        rng.shuffle(items)
        clusters: list[list[str]] = []
        for item in items:
            if clusters and rng.random() < 0.6:
                rng.choice(clusters).append(item)
            else:
                clusters.append([item])
        multi = [c for c in clusters if len(c) > 1]
        if multi:
            assert muc(clusters, clusters).f1 == 1.0
        assert b_cubed(clusters, clusters).f1 == 1.0
        assert ceaf_phi4(clusters, clusters).f1 == 1.0


def test_ceaf_matches_factorial_enumeration():
    rng = random.Random(41)
    for _ in range(60):
        universe = [f"m{i}" for i in range(rng.randint(1, 14))]

        def partition(items):
            if not items:
                return []
            k = rng.randint(1, min(6, len(items)))
            cells = [[] for _ in range(k)]
            for it in items:
                cells[rng.randrange(k)].append(it)
            return [c for c in cells if c]

        gold = partition(universe)
        pred = partition([m for m in universe if rng.random() < 0.85])
        p_num, p_den, r_num, r_den = ceaf_phi4_counts(gold, pred)
        e_pnum, e_pden, e_rnum, e_rden = factorial_ceaf_counts(gold, pred)
        assert p_num == pytest.approx(float(e_pnum), abs=1e-9)
        assert r_num == pytest.approx(float(e_rnum), abs=1e-9)
        assert (p_den, r_den) == (e_pden, e_rden)


@st.composite
def component_blocks(draw):
    """Gold and predicted clusters drawn block by block.

    Each block owns its own mention range, so one example mixes
    components of every shape: one-sided, one cluster against several,
    and several against several, which only the assignment solver can
    align. Clusters on one side may share mentions too.
    """
    gold, pred = [], []
    for block in range(draw(st.integers(0, 4))):
        mentions = st.integers(10 * block, 10 * block + draw(st.integers(0, 9)))
        side = st.lists(
            st.lists(mentions, min_size=1, max_size=5, unique=True), max_size=4
        )
        gold += draw(side)
        pred += draw(side)
    return gold, pred


@settings(max_examples=200, deadline=None)
@given(component_blocks())
@example(([[0, 1], [2, 3], [7]], [[0, 2], [1, 3], [8]]))
def test_ceaf_matches_dense_assignment(clusters):
    gold, pred = clusters
    p_num, p_den, r_num, r_den = ceaf_phi4_counts(gold, pred)
    d_pnum, d_pden, d_rnum, d_rden = dense_ceaf_counts(gold, pred)
    assert p_num == pytest.approx(d_pnum, abs=1e-12)
    assert r_num == pytest.approx(d_rnum, abs=1e-12)
    assert (p_den, r_den) == (d_pden, d_rden)


def test_ceaf_counts_when_no_mention_is_shared():
    gold = [["a", "b"], ["c"], ["d", "e", "f"]]
    pred = [["x", "y"], ["z"]]
    assert ceaf_phi4_counts(gold, pred) == (0.0, 2.0, 0.0, 3.0)


def test_count_tuples_for_known_case():
    gold = [["a", "b", "c"]]
    pred = [["a", "b"], ["c"]]
    assert muc_counts(gold, pred) == (1.0, 1.0, 1.0, 2.0)
    p_num, p_den, r_num, r_den = b_cubed_counts(gold, pred)
    assert (p_num, p_den) == (pytest.approx(3.0), 3.0)
    assert (r_num, r_den) == (pytest.approx(5 / 3), 3.0)
    p_num, p_den, r_num, r_den = ceaf_phi4_counts(gold, pred)
    assert p_num == pytest.approx(4 / 5)
    assert (p_den, r_den) == (2.0, 1.0)


def test_report_averages_the_three_f1s():
    gold = [["a", "b", "c"]]
    pred = [["a", "b"], ["c"]]
    report = conll_f1(gold, pred)
    want = (2 / 3 + 5 / 7 + 8 / 15) / 3
    assert report.conll_f1 == pytest.approx(want, abs=1e-12)
    assert report.muc.f1 == pytest.approx(2 / 3, abs=1e-12)


def test_corpus_accumulation_pools_counts_not_scores():
    # doc A scores 1.0, doc B scores 0 on the link metric; pooling the
    # counts is not the same as averaging the two per-document F1s
    doc_a = ([["a", "b"]], [["a", "b"]])
    doc_b = ([["c", "d", "e"]], [["c", "d"], ["e"]])
    acc = CountAccumulator()
    for gold, pred in (doc_a, doc_b):
        acc.add(gold, pred)
    report = acc.report()
    # links: recall 2/3, precision 2/2
    assert report.muc.recall == pytest.approx(2 / 3, abs=1e-12)
    assert report.muc.precision == pytest.approx(1.0, abs=1e-12)
    per_doc_mean = (muc(*doc_a).f1 + muc(*doc_b).f1) / 2
    assert report.muc.f1 != pytest.approx(per_doc_mean, abs=1e-3)


def test_accumulator_matches_single_shot():
    acc = CountAccumulator()
    gold = [["a", "b"], ["c"]]
    pred = [["a", "b", "c"]]
    acc.add(gold, pred)
    report = acc.report()
    assert report.muc == conll_f1(gold, pred).muc
    assert report.ceaf_phi4 == conll_f1(gold, pred).ceaf_phi4


def test_singleton_dropping_changes_the_picture():
    # a missed singleton is a real miss with singletons kept and a
    # non-event once they are dropped
    gold = [["a", "b"], ["c"]]
    pred = [["a", "b"]]
    keep, drop = CountAccumulator(), CountAccumulator()
    keep.add(gold, pred)
    drop.add(gold, pred, drop_singletons=True)
    keep, drop = keep.report(), drop.report()
    assert keep.b_cubed.f1 == pytest.approx(4 / 5, abs=1e-12)
    assert keep.ceaf_phi4.f1 == pytest.approx(2 / 3, abs=1e-12)
    assert drop.b_cubed.f1 == 1.0
    assert drop.ceaf_phi4.f1 == 1.0
    assert keep.muc.f1 == drop.muc.f1 == 1.0


cluster_lists = st.lists(
    st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True),
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(cluster_lists)
def test_f1_bounds_and_self_score(clusters):
    seen: set[int] = set()
    disjoint = []
    for cluster in clusters:
        cell = [m for m in cluster if m not in seen]
        if cell:
            disjoint.append(cell)
            seen.update(cell)
    for metric in (muc, b_cubed, ceaf_phi4):
        prf = metric(disjoint, disjoint)
        assert 0.0 <= prf.f1 <= 1.0
        if disjoint and metric is not muc:
            assert prf.f1 == 1.0


pairs = st.tuples(st.integers(0, 9), st.integers(0, 3)).map(lambda t: (t[0], t[0] + t[1]))


@st.composite
def document_partitions(draw):
    """Gold and predicted partitions of two overlapping sets of (s, e) pairs."""
    pool = draw(st.lists(pairs, unique=True, max_size=14))

    def partition():
        mentions = [m for m in pool if draw(st.booleans())]
        labels = draw(st.lists(st.integers(0, 4), min_size=len(mentions), max_size=len(mentions)))
        groups: dict[int, list] = {}
        for m, label in zip(mentions, labels):
            groups.setdefault(label, []).append(m)
        return list(groups.values())

    return partition(), partition()


def _exact_prf(counts) -> tuple[float, float, float]:
    p_num, p_den, r_num, r_den = counts
    p = p_num / p_den if p_den else 0
    r = r_num / r_den if r_den else 0
    return float(p), float(r), float(2 * p * r / (p + r) if p + r else 0)


@pytest.mark.parametrize("case", METRIC_CASES, ids=CASE_IDS)
def test_definition_references_reproduce_fixtures(case):
    label, gold, pred, want_muc, want_b3, _ = case
    for got, want in (
        (_exact_prf(definition_muc_counts(gold, pred)), want_muc),
        (_exact_prf(definition_b3_counts(gold, pred)), want_b3),
    ):
        assert got == pytest.approx(want, abs=1e-9), label


@settings(max_examples=200, deadline=None)
@given(st.lists(document_partitions(), min_size=1, max_size=4), st.booleans(), st.booleans())
def test_pooled_muc_and_b3_match_definitions(docs, drop, spans_on_gold):
    # One side reaches the accumulator as MentionSpans and the other as
    # plain pairs: a span and its pair must be the same mention.
    acc = CountAccumulator()
    want_muc = [0] * 4
    want_b3 = [0] * 4
    for gold, pred in docs:
        as_spans = [[MentionSpan(*m) for m in c] for c in (gold if spans_on_gold else pred)]
        if spans_on_gold:
            acc.add(as_spans, pred, drop_singletons=drop)
        else:
            acc.add(gold, as_spans, drop_singletons=drop)
        if drop:
            gold = [c for c in gold if len(c) > 1]
            pred = [c for c in pred if len(c) > 1]
        for k, v in enumerate(definition_muc_counts(gold, pred)):
            want_muc[k] += v
        for k, v in enumerate(definition_b3_counts(gold, pred)):
            want_b3[k] += v
    report = acc.report()
    assert_prf(report.muc, _exact_prf(want_muc), "muc")
    assert_prf(report.b_cubed, _exact_prf(want_b3), "b3")
