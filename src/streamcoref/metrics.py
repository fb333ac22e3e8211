"""Coreference evaluation: link-based, mention-based, and entity-based scores.

Every metric reduces to precision/recall numerators and denominators so
corpus-level figures can sum the counts across documents before dividing;
averaging per-document F1 values is a different (wrong) statistic. The
0/0 case is 0 by convention throughout.

Clusters are collections of hashable mention keys; the engine hands over
MentionSpan values, which qualify. A MentionSpan is a (start, end) named
tuple, so it is the same key as its plain pair: clusters of spans and
clusters of pairs score alike.
"""

from __future__ import annotations

from typing import Hashable, Iterable, NamedTuple, Sequence

from .types import FrozenRecord

Cluster = frozenset
Counts = tuple[float, float, float, float]  # p_num, p_den, r_num, r_den


class PRF(FrozenRecord):
    """Precision, recall and F1; vars(prf) is the three of them."""

    _fields = ("precision", "recall", "f1")

    def __init__(self, precision: float, recall: float, f1: float):
        vars(self).update(precision=precision, recall=recall, f1=f1)

    @classmethod
    def from_counts(cls, counts: Counts) -> "PRF":
        p_num, p_den, r_num, r_den = counts
        p = p_num / p_den if p_den else 0.0
        r = r_num / r_den if r_den else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        return cls(p, r, f)


class ScoreReport(NamedTuple):
    muc: PRF
    b_cubed: PRF
    ceaf_phi4: PRF
    conll_f1: float


def _freeze(clusters: Iterable[Iterable[Hashable]]) -> list[frozenset]:
    return [frozenset(c) for c in clusters]


def filter_singletons(clusters: Iterable[Iterable[Hashable]]) -> list[frozenset]:
    """Drop size-one clusters; applied to both sides under drop mode."""
    return [c for c in _freeze(clusters) if len(c) > 1]


def _vilain_side(clusters: Sequence[frozenset], other: Sequence[frozenset]) -> tuple[float, float]:
    """Link counts for one direction of MUC.

    For each cluster: size minus the number of partitions the other side
    cuts it into, where every mention missing from the other side is its
    own partition. Denominator is size minus one.
    """
    cluster_of: dict[Hashable, int] = {}
    for idx, c in enumerate(other):
        for m in c:
            cluster_of[m] = idx
    num = 0.0
    den = 0.0
    for c in clusters:
        partitions = set()
        unaligned = 0
        for m in c:
            if m in cluster_of:
                partitions.add(cluster_of[m])
            else:
                unaligned += 1
        num += len(c) - unaligned - len(partitions)
        den += len(c) - 1
    return num, den


def muc_counts(gold: Iterable[Iterable[Hashable]], pred: Iterable[Iterable[Hashable]]) -> Counts:
    g = _freeze(gold)
    p = _freeze(pred)
    r_num, r_den = _vilain_side(g, p)
    p_num, p_den = _vilain_side(p, g)
    return (p_num, p_den, r_num, r_den)


def _b3_side(clusters: Sequence[frozenset], other: Sequence[frozenset]) -> tuple[float, float]:
    cluster_of: dict[Hashable, frozenset] = {}
    for c in other:
        for m in c:
            cluster_of[m] = c
    num = 0.0
    den = 0.0
    for c in clusters:
        for m in c:
            den += 1
            o = cluster_of.get(m)
            if o is not None:
                num += len(c & o) / len(c)
    return num, den


def b_cubed_counts(gold: Iterable[Iterable[Hashable]], pred: Iterable[Iterable[Hashable]]) -> Counts:
    g = _freeze(gold)
    p = _freeze(pred)
    r_num, r_den = _b3_side(g, p)
    p_num, p_den = _b3_side(p, g)
    return (p_num, p_den, r_num, r_den)


def phi4(a: frozenset, b: frozenset) -> float:
    return 2 * len(a & b) / (len(a) + len(b))


def _overlap_components(
    g: Sequence[frozenset], p: Sequence[frozenset]
) -> list[tuple[list[frozenset], list[frozenset]]]:
    """Group clusters into connected components of the mention-overlap graph.

    Two clusters are linked when they share a mention, on either side, so
    the grouping stays exact even when one side repeats a mention across
    its own clusters. Components come out in order of their first cluster.
    """
    clusters = [*g, *p]
    parent = list(range(len(clusters)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    owner: dict[Hashable, int] = {}
    for idx, c in enumerate(clusters):
        for m in c:
            first = owner.setdefault(m, idx)
            if first != idx:
                parent[find(idx)] = find(first)
    components: dict[int, tuple[list[frozenset], list[frozenset]]] = {}
    for idx, c in enumerate(clusters):
        side = 0 if idx < len(g) else 1
        components.setdefault(find(idx), ([], []))[side].append(c)
    return list(components.values())


def ceaf_phi4_counts(gold: Iterable[Iterable[Hashable]], pred: Iterable[Iterable[Hashable]]) -> Counts:
    """Entity-based counts under the optimal one-to-one cluster alignment.

    phi4 is zero between clusters that share no mention, so the optimum is
    the sum of the optima of the overlap graph's connected components
    (Luo 2005). A component with a single cluster on one side can align
    only one pair and takes its best phi4. The rest are solved exactly by
    Hungarian assignment; a greedy match can score differently and is not
    acceptable here. scipy is imported only when such a component exists.
    """
    g = _freeze(gold)
    p = _freeze(pred)
    total = 0.0
    for gs, ps in _overlap_components(g, p):
        if not gs or not ps:
            continue
        if len(gs) == 1 or len(ps) == 1:
            total += max(phi4(gc, pc) for gc in gs for pc in ps)
            continue
        from scipy.optimize import linear_sum_assignment

        sim = [[phi4(gc, pc) for pc in ps] for gc in gs]
        rows, cols = linear_sum_assignment(sim, maximize=True)
        total += sum(sim[r][c] for r, c in zip(rows, cols))
    return (total, float(len(p)), total, float(len(g)))


def muc(gold, pred) -> PRF:
    return PRF.from_counts(muc_counts(gold, pred))


def b_cubed(gold, pred) -> PRF:
    return PRF.from_counts(b_cubed_counts(gold, pred))


def ceaf_phi4(gold, pred) -> PRF:
    return PRF.from_counts(ceaf_phi4_counts(gold, pred))


def build_report(muc_prf: PRF, b3_prf: PRF, ceaf_prf: PRF) -> ScoreReport:
    return ScoreReport(
        muc=muc_prf,
        b_cubed=b3_prf,
        ceaf_phi4=ceaf_prf,
        conll_f1=(muc_prf.f1 + b3_prf.f1 + ceaf_prf.f1) / 3,
    )


def conll_f1(gold, pred) -> ScoreReport:
    """All three metrics plus their unweighted mean, for one cluster pair."""
    return build_report(muc(gold, pred), b_cubed(gold, pred), ceaf_phi4(gold, pred))


_METRICS = (muc_counts, b_cubed_counts, ceaf_phi4_counts)


class CountAccumulator:
    """Sums per-document counts; corpus scores divide at the end."""

    def __init__(self) -> None:
        self._sums = [[0.0] * 4 for _ in _METRICS]

    def add(self, gold, pred, drop_singletons: bool = False) -> None:
        g = filter_singletons(gold) if drop_singletons else _freeze(gold)
        p = filter_singletons(pred) if drop_singletons else _freeze(pred)
        for sums, fn in zip(self._sums, _METRICS):
            for k, count in enumerate(fn(g, p)):
                sums[k] += count

    def report(self) -> ScoreReport:
        prfs = [PRF.from_counts(tuple(sums)) for sums in self._sums]
        return build_report(*prfs)
