"""Shared helpers: corpus writers and independent oracles for the tests.

Everything here is deliberately written against the file formats and the
math, not against the library internals, so a bug in the package cannot
hide inside its own test oracle.
"""

import json
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import permutations

import numpy as np
from scipy.optimize import linear_sum_assignment

from streamcoref import (
    Action,
    ActionKind,
    Document,
    EntityCell,
    MemoryPolicy,
    ScoreProvider,
    ScoreRow,
)
from streamcoref.ingest import ParseError, json_line


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
# the per-cell engine loop: reference for batched scoring


def reference_run(doc, mentions, scores, policy):
    """Run one document the way the engine did before batched scoring.

    Each step makes 2M + 2 scalar provider queries over M cells, decides
    with its own copy of the policy rules, and rebuilds frozen tuples of
    cells. Returns the actions, the score rows the step consulted, and the
    number of cells in memory after each step.
    """
    cells: tuple = ()
    next_id = 0
    actions, rows, sizes = [], [], []
    scores.start_document(doc, mentions)
    for i, mention in enumerate(mentions):
        scores.mention_begin(i, mention)
        row = ScoreRow(
            float(scores.mention_score(doc, mention)),
            tuple(float(scores.coref_score(doc, mention, c)) for c in cells),
            tuple(float(scores.remaining_score(doc, c)) for c in cells),
            float(scores.remaining_score(doc, mention)),
        )
        rows.append(row)
        action = _reference_decide(cells, row, policy)
        touched = None
        if action.kind is ActionKind.COREF:
            old = cells[action.cell]
            touched = EntityCell(old.cell_id, old.slot, i, old.gold_entity_id)
            cells = cells[: action.cell] + (touched,) + cells[action.cell + 1 :]
        elif action.kind in (ActionKind.NEW_ENTITY, ActionKind.EVICT):
            slot = len(cells) if action.cell is None else action.cell
            touched = EntityCell(next_id, slot, i, scores.gold_entity_id(doc, mention))
            next_id += 1
            cells = cells[:slot] + (touched,) + cells[slot + 1 :]
        actions.append(action)
        sizes.append(len(cells))
        scores.observe_action(i, mention, action, touched)
    scores.end_document()
    return actions, rows, sizes


def _reference_decide(cells, row, policy) -> Action:
    if cells:
        top = max(range(len(cells)), key=lambda k: row.s_c[k])
        if row.s_c[top] > 0.0:
            return Action.coref(top)
    if policy.policy is MemoryPolicy.UNBOUNDED_STAR:
        return Action.new_entity()
    if policy.capacity is None or len(cells) < policy.capacity:
        return Action.new_entity() if row.s_m > 0.0 else Action.ignore_invalid()
    if policy.policy is MemoryPolicy.LEARNED_BOUNDED:
        candidates = list(range(len(cells)))
    else:
        candidates = [min(range(len(cells)), key=lambda k: cells[k].last_use_ordinal)]
    vector = [row.f_r_cells[k] for k in candidates] + [row.f_r_mention, row.s_m]
    d = min(range(len(vector)), key=vector.__getitem__)
    if d < len(candidates):
        return Action.evict(candidates[d])
    if d == len(candidates):
        return Action.ignore_capacity()
    return Action.ignore_invalid()


class ReferenceStringMatch(ScoreProvider):
    """String matching scored per query: a cell's remaining score sums the
    future counts of its strings every time it is asked."""

    def __init__(self, lowercase=True, strip_determiners=False):
        self.lowercase = lowercase
        self.strip_determiners = strip_determiners

    def _text(self, doc, span):
        words = list(doc.tokens[span.start : span.end + 1])
        if self.strip_determiners:
            while len(words) > 1 and words[0].lower() in ("the", "a", "an"):
                words.pop(0)
        text = " ".join(words)
        return text.lower() if self.lowercase else text

    def start_document(self, doc, mentions):
        self.doc = doc
        self.future = Counter(self._text(doc, m) for m in mentions)
        self.strings = {}

    def mention_begin(self, index, mention):
        self.future[self._text(self.doc, mention)] -= 1

    def mention_score(self, doc, mention):
        return 1.0

    def coref_score(self, doc, mention, cell):
        return 1.0 if self._text(doc, mention) in self.strings.get(cell.cell_id, ()) else -1.0

    def remaining_score(self, doc, item):
        if isinstance(item, EntityCell):
            return float(sum(self.future[s] for s in self.strings.get(item.cell_id, ())))
        return float(self.future[self._text(doc, item)])

    def observe_action(self, index, mention, action, cell):
        if cell is None:
            return
        text = self._text(self.doc, mention)
        if action.kind is ActionKind.COREF:
            self.strings[cell.cell_id].add(text)
        else:
            self.strings[cell.cell_id] = {text}


# ---------------------------------------------------------------------------
# replay rows the generic way: reference for the row codec


def reference_score_rows(path):
    """The rows of a replay file, each line through the generic JSON path.

    Text mode, json_line and ScoreRow.from_obj per non-blank line, raising
    ParseError with the file and line: the reader before the row codec. A
    line ends at "\n" alone, as in ingest.file_lines.
    """
    path = str(path)
    with open(path, encoding="utf-8", newline="\n") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                obj = json_line(line, path=path, line_no=line_no)
                try:
                    row = ScoreRow.from_obj(obj)
                except ValueError as e:
                    raise ParseError(str(e), path=path, line=line_no) from None
                yield row


def reference_row_line(row: ScoreRow) -> str:
    """A row's replay line as json.dumps writes it: the writer before the codec."""
    return json.dumps(row.to_obj()) + "\n"


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


# ---------------------------------------------------------------------------
# reference document validator: one message per violation, span by span


def reference_validate_document(doc: Document) -> list[str]:
    """Every span checked through the same three tests, in document order.

    The package skips the per-span tests for a span that passes one
    range comparison; its messages and their order must match these.
    """

    def span_issues(label, span, n):
        out = []
        if span.start > span.end:
            out.append(f"{label}: start > end")
        if span.start < 0:
            out.append(f"{label}: start < 0")
        elif span.start <= span.end and span.end >= n:
            out.append(f"{label}: end beyond document")
        return out

    issues = []
    n = len(doc.tokens)
    prev = 0
    for i, b in enumerate(doc.sentence_boundaries):
        if b <= prev:
            issues.append(f"sentence_boundaries[{i}]: not strictly increasing")
        if b < 1 or b > n:
            issues.append(f"sentence_boundaries[{i}]: out of range")
        prev = b
    seen = set()
    for i, (span, _score) in enumerate(doc.candidate_mentions):
        issues.extend(span_issues(f"mention {i}", span, n))
        if span in seen:
            issues.append(f"duplicate candidate mention ({span.start},{span.end})")
        seen.add(span)
    seen = set()
    for k, cluster in enumerate(doc.gold_clusters):
        if not cluster.mentions:
            issues.append(f"cluster {k}: empty")
        for j, span in enumerate(cluster.mentions):
            issues.extend(span_issues(f"cluster {k} mention {j}", span, n))
            if span in seen:
                issues.append(f"duplicate gold mention ({span.start},{span.end})")
            seen.add(span)
    return issues


# ---------------------------------------------------------------------------
# definition-level link and mention metrics (exact rational counts)


def definition_muc_counts(gold, pred) -> tuple[Fraction, int, Fraction, int]:
    """MUC from partitions (Vilain et al. 1995).

    Recall: each key cluster K is cut into p(K), the non-empty
    intersections with response clusters plus one singleton per mention
    of K that no response cluster holds; it scores |K| - |p(K)| links out
    of |K| - 1. Precision swaps the roles.
    """

    def side(key, response):
        num = den = 0
        covered = set().union(*response)
        for k in key:
            parts = {frozenset(k & r) for r in response if k & r}
            parts |= {frozenset([m]) for m in k - covered}
            num += len(k) - len(parts)
            den += len(k) - 1
        return num, den

    g = [frozenset(c) for c in gold]
    p = [frozenset(c) for c in pred]
    r_num, r_den = side(g, p)
    p_num, p_den = side(p, g)
    return (Fraction(p_num), p_den, Fraction(r_num), r_den)


def definition_b3_counts(gold, pred) -> tuple[Fraction, int, Fraction, int]:
    """B-cubed summed per mention (Bagga and Baldwin 1998).

    A key mention scores |K(m) & R(m)| / |K(m)| for recall, where R(m) is
    the response cluster holding it (empty when none does); precision
    scores each response mention the same way with the sides swapped.
    """

    def side(key, response):
        num = Fraction(0)
        den = 0
        for k in key:
            for m in k:
                r = next((r for r in response if m in r), frozenset())
                num += Fraction(len(k & r), len(k))
                den += 1
        return num, den

    g = [frozenset(c) for c in gold]
    p = [frozenset(c) for c in pred]
    r_num, r_den = side(g, p)
    p_num, p_den = side(p, g)
    return (p_num, p_den, r_num, r_den)


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
