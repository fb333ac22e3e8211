"""Shared helpers: corpus writers and independent oracles for the tests.

Everything here is deliberately written against the file formats and the
math, not against the library internals, so a bug in the package cannot
hide inside its own test oracle.
"""

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import permutations

import numpy as np
from scipy.optimize import linear_sum_assignment

from streamcoref import Action, ActionKind, Document, ScoreRow


# ---------------------------------------------------------------------------
# column-format writer (tests only; the package itself never writes CoNLL)


def doc_to_conll(doc: Document, name: str | None = None, part: int = 0) -> str:
    """Serialize one document to bracket-annotated columns.

    Within a token's coref field: closes come first (inner before outer),
    then single-token mentions, then opens (outer before inner). That is
    the one ordering a stack-based reader re-pairs correctly.
    """
    doc_name = name or doc.doc_id
    opens: dict[int, list[tuple[int, int]]] = defaultdict(list)
    closes: dict[int, list[tuple[int, int]]] = defaultdict(list)
    singles: dict[int, list[int]] = defaultdict(list)
    for cluster in doc.gold_clusters:
        for m in cluster.mentions:
            if m.start == m.end:
                singles[m.start].append(cluster.entity_id)
            else:
                opens[m.start].append((m.end, cluster.entity_id))
                closes[m.end].append((m.start, cluster.entity_id))

    bounds = set(doc.sentence_boundaries)
    lines = [f"#begin document ({doc_name}); part {part:03d}"]
    word = 0
    for t, token in enumerate(doc.tokens):
        pieces = [f"{eid})" for _, eid in sorted(closes[t], key=lambda c: -c[0])]
        pieces += [f"({eid})" for eid in singles[t]]
        pieces += [f"({eid}" for end, eid in sorted(opens[t], key=lambda o: -o[0])]
        coref = "|".join(pieces) if pieces else "-"
        lines.append(f"{doc_name}\t{part}\t{word}\t{token}\tXX\t{coref}")
        word += 1
        if t + 1 in bounds and t + 1 < len(doc.tokens):
            lines.append("")
            word = 0
    lines.append("#end document")
    return "\n".join(lines) + "\n"


def has_crossing_spans(doc: Document) -> bool:
    """True when some cluster holds two spans that cross without nesting.

    Bracket notation cannot represent those faithfully: a stack reader
    re-pairs them, so round-trip tests skip such documents.
    """
    for cluster in doc.gold_clusters:
        ms = sorted(cluster.mentions)
        for i, a in enumerate(ms):
            for b in ms[i + 1 :]:
                if a.start < b.start <= a.end < b.end:
                    return True
    return False


def bracket_mention_multiset(text: str) -> Counter:
    """Recover (doc, entity, start, end) straight off raw column lines.

    Independent of the parser: plain string scanning over the last column,
    no regex, one stack per entity id.
    """
    found: Counter = Counter()
    doc_key = None
    t = -1
    stacks: dict[int, list[int]] = {}
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#begin document"):
            doc_key = stripped
            t = -1
            stacks = defaultdict(list)
        elif stripped.startswith("#end document"):
            assert all(not s for s in stacks.values()), "unclosed bracket"
            doc_key = None
        elif doc_key is not None and stripped and not stripped.startswith("#"):
            t += 1
            field = stripped.split()[-1]
            if field == "-":
                continue
            for piece in field.split("|"):
                if piece.startswith("(") and piece.endswith(")"):
                    found[(doc_key, int(piece[1:-1]), t, t)] += 1
                elif piece.startswith("("):
                    stacks[int(piece[1:])].append(t)
                elif piece.endswith(")"):
                    eid = int(piece[:-1])
                    found[(doc_key, eid, stacks[eid].pop(), t)] += 1
    return found


# ---------------------------------------------------------------------------
# forced score rows: make the engine walk a prescribed action sequence


def rows_from_actions(actions: list[Action]) -> list[ScoreRow]:
    """Score rows that force a chosen action at every step.

    Valid for any policy whose capacity admits the sequence: corefs win
    step one outright, evictions put the unique minimum on their target
    cell, and the ignore kinds pin the minimum on the matching position.
    """
    rows = []
    slots = 0
    for action in actions:
        s_c = [-1.0] * slots
        f_r = [2.0] * slots
        f_r_mention = 2.0
        s_m = 1.0
        if action.kind is ActionKind.COREF:
            s_c[action.cell] = 1.0
        elif action.kind is ActionKind.EVICT:
            f_r[action.cell] = -1.0
        elif action.kind is ActionKind.IGNORE_CAPACITY:
            f_r_mention = -1.0
        elif action.kind is ActionKind.IGNORE_INVALID:
            s_m = -2.0
        rows.append(ScoreRow(s_m, tuple(s_c), tuple(f_r), f_r_mention))
        if action.kind is ActionKind.NEW_ENTITY:
            slots += 1
    return rows


# ---------------------------------------------------------------------------
# brute-force analytics oracles


def per_token_max_active(doc: Document, exclude_singletons: bool = False) -> int:
    """Count live entities at every token position, then take the max."""
    best = 0
    for t in range(len(doc.tokens)):
        live = 0
        for cluster in doc.gold_clusters:
            if exclude_singletons and len(cluster.mentions) == 1:
                continue
            lo = min(m.start for m in cluster.mentions)
            hi = max(m.end for m in cluster.mentions)
            if lo <= t <= hi:
                live += 1
        best = max(best, live)
    return best


def rank_then_pearson(xs: list[float], ys: list[float]) -> float | None:
    """Independent rank correlation: explicit tie-averaged ranks + Pearson."""

    def ranks(vals: list[float]) -> list[float]:
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            mean_rank = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[order[k]] = mean_rank
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return None
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    return sxy / (sxx * syy) ** 0.5


# ---------------------------------------------------------------------------
# brute-force alignment oracle for the entity-matching metric


def factorial_ceaf_counts(gold, pred) -> tuple[Fraction, int, Fraction, int]:
    """Best one-to-one cluster alignment by exhaustive permutation.

    Exact rational arithmetic; feasible up to ~7 clusters per side.
    """
    g = [frozenset(c) for c in gold]
    p = [frozenset(c) for c in pred]

    def phi(a: frozenset, b: frozenset) -> Fraction:
        return Fraction(2 * len(a & b), len(a) + len(b))

    if not g or not p:
        return Fraction(0), len(p), Fraction(0), len(g)
    best = Fraction(0)
    small, large = (g, p) if len(g) <= len(p) else (p, g)
    for perm in permutations(range(len(large)), len(small)):
        total = sum(phi(small[i], large[j]) for i, j in enumerate(perm))
        best = max(best, total)
    return best, len(p), best, len(g)


def dense_ceaf_counts(gold, pred) -> tuple[float, float, float, float]:
    """One assignment over the full gold x pred phi4 matrix.

    The package solves each connected component of the overlap graph on
    its own; this is the whole-matrix formulation it must agree with.
    """
    g = [frozenset(c) for c in gold]
    p = [frozenset(c) for c in pred]
    if not g or not p:
        return (0.0, float(len(p)), 0.0, float(len(g)))
    sim = np.array([[2 * len(gc & pc) / (len(gc) + len(pc)) for pc in p] for gc in g])
    rows, cols = linear_sum_assignment(sim, maximize=True)
    total = float(sim[rows, cols].sum())
    return (total, float(len(p)), total, float(len(g)))


# ---------------------------------------------------------------------------
# frozen metric fixtures
#
# Each case: (label, gold, pred, muc, b3, ceaf) with exact expected
# (precision, recall, f1) triples. Worked out by hand from the counting
# definitions; kept as plain floats of exact binary values or short
# fractions so a 1e-9 tolerance is meaningful.

_AB = [["a", "b"]]
_ABC = [["a", "b", "c"]]
_ABCD = [["a", "b", "c", "d"]]

METRIC_CASES = [
    (
        "identical-two-clusters",
        [["a", "b"], ["c", "d"]],
        [["a", "b"], ["c", "d"]],
        (1.0, 1.0, 1.0),
        (1.0, 1.0, 1.0),
        (1.0, 1.0, 1.0),
    ),
    (
        "link-split",
        _ABC,
        [["a", "b"], ["c"]],
        (1.0, 1 / 2, 2 / 3),
        (1.0, 5 / 9, 5 / 7),
        (2 / 5, 4 / 5, 8 / 15),
    ),
    (
        "over-merge",
        [["a", "b"], ["c"]],
        _ABC,
        (1 / 2, 1.0, 2 / 3),
        (5 / 9, 1.0, 5 / 7),
        (4 / 5, 2 / 5, 8 / 15),
    ),
    (
        "crossing-pairs",
        [["a", "b"], ["c", "d"]],
        [["a", "c"], ["b", "d"]],
        (0.0, 0.0, 0.0),
        (1 / 2, 1 / 2, 1 / 2),
        (1 / 2, 1 / 2, 1 / 2),
    ),
    (
        "all-singletons-pred",
        _ABC,
        [["a"], ["b"], ["c"]],
        (0.0, 0.0, 0.0),
        (1.0, 1 / 3, 1 / 2),
        (1 / 6, 1 / 2, 1 / 4),
    ),
    (
        "empty-pred",
        _AB,
        [],
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0),
    ),
    (
        "empty-gold",
        [],
        _AB,
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0),
    ),
    (
        "both-empty",
        [],
        [],
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0),
    ),
    (
        "disjoint-mentions",
        _AB,
        [["x", "y"]],
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0),
    ),
    (
        "halved-chain",
        _ABCD,
        [["a", "b"], ["c", "d"]],
        (1.0, 2 / 3, 4 / 5),
        (1.0, 1 / 2, 2 / 3),
        (1 / 3, 2 / 3, 4 / 9),
    ),
    (
        "spurious-mention",
        _AB,
        [["a", "b", "x"]],
        (1 / 2, 1.0, 2 / 3),
        (4 / 9, 1.0, 8 / 13),
        (4 / 5, 4 / 5, 4 / 5),
    ),
    (
        "missed-singleton",
        [["a", "b"], ["c"]],
        _AB,
        (1.0, 1.0, 1.0),
        (1.0, 2 / 3, 4 / 5),
        (1.0, 1 / 2, 2 / 3),
    ),
]
