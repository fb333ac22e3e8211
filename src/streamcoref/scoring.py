"""Score providers: deterministic sources of the scores the engine needs.

The engine asks a provider once per mention, passing the memory's cells in
slot order:

    step_scores(doc, mention, cells) -> ScoreRow

and the row holds everything the step can consult:

* s_m: is the mention a real mention at all,
* s_c: per cell, does the mention belong to the entity in that cell (this
  value already folds in the mention score term, so the engine compares it
  against zero directly),
* f_r_cells: per cell, how much future material the cell's entity still
  has in the document,
* f_r_mention: the same for the mention's own entity.

s_c and f_r_cells hold exactly one value per cell. The row is also the
replay-file record: recording appends the row, replay serves it back.

ScoreProvider.step_scores by default composes the row from three scalar
queries, mention_score, coref_score and remaining_score (2M + 2 calls over
M cells), so a provider may implement just those. The gold and
string-match providers override step_scores with one batched pass that
gives the same row.

Providers are pure within a run: the same query during the same step gives
the same value. They may keep per-run state (cursors, per-cell counts) fed
by the lifecycle hooks that the engine calls: start_document once,
mention_begin before each step, observe_action after each step (with the
cell the action created, joined or replaced), end_document once. One
provider serves one engine run at a time.

Replay files are outside input and are checked as they are read, one row
per mention. They are read by ingest.file_lines, the line reader of every
input file, so a line ends at "\n" alone and a lone "\r" stays inside its
line. A line that is not UTF-8 or not JSON, a row missing a key, and a
score that is not a JSON number or is NaN raise ParseError with the file
and line; a row whose per-cell lists do not have one value per cell in
memory, a run with more mentions than rows, and rows left over after the
run raise ScoreShapeMismatch. Errors therefore surface in row order, and
rows left over are parsed before they are counted.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .ingest import ParseError, file_lines, json_line
# ScoreShapeMismatch lives in types so that the CLI can catch it without
# importing this module.
from .types import Action, ActionKind, Document, MentionSpan, Record, ScoreShapeMismatch


class EntityCell(Record):
    """One memory slot tracking a single entity.

    slot is the cell's fixed position in memory: positions are assigned at
    creation and survive evict-and-replace, which puts a new cell in the
    slot. last_use_ordinal is the step that created the cell or last joined
    a mention to it; the engine updates it in place.
    gold_entity_id is populated only when the provider knows gold identities.
    """

    __slots__ = _fields = ("cell_id", "slot", "last_use_ordinal", "gold_entity_id")

    def __init__(
        self, cell_id: int, slot: int, last_use_ordinal: int, gold_entity_id: int | None = None
    ):
        self.cell_id = cell_id
        self.slot = slot
        self.last_use_ordinal = last_use_ordinal
        self.gold_entity_id = gold_entity_id


class ScoreRow(NamedTuple):
    """All scores for one mention step, with per-cell values in slot order.

    A named tuple: providers build one per engine step.
    """

    s_m: float
    s_c: tuple[float, ...]
    f_r_cells: tuple[float, ...]
    f_r_mention: float

    def to_obj(self) -> dict:
        return {
            "s_m": self.s_m,
            "s_c": list(self.s_c),
            "f_r_cells": list(self.f_r_cells),
            "f_r_mention": self.f_r_mention,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "ScoreRow":
        try:
            return cls(
                s_m=_score(obj["s_m"]),
                s_c=_scores(obj["s_c"]),
                f_r_cells=_scores(obj["f_r_cells"]),
                f_r_mention=_score(obj["f_r_mention"]),
            )
        except KeyError as e:
            raise ValueError(f"malformed score row: missing key {e}") from None
        except (TypeError, ValueError, OverflowError) as e:
            raise ValueError(f"malformed score row: {e}") from None


def _score(value) -> float:
    # A score is a JSON number: float() would also take "1.0" or true.
    if type(value) is not float:
        if type(value) is not int:  # type() is exact: a bool is neither
            raise TypeError(f"expected a number, got {type(value).__name__}")
        value = float(value)
    # NaN compares false against everything, so the engine's argmax and
    # argmin would pick by position instead of by value.
    if value != value:
        raise ValueError("NaN score")
    return value


def _scores(values) -> tuple[float, ...]:
    # A string would otherwise be read one character per cell.
    if not isinstance(values, list):
        raise TypeError(f"expected a list of scores, got {type(values).__name__}")
    # Built from a list, the tuple is allocated at its final size, from
    # CPython's per-size free list. tuple(map) allocates for a guessed size
    # and shrinks in place, so over a long replay the free lists would fill
    # with freed rows (up to 2000 tuples per size) that nothing reuses.
    return tuple([_score(v) for v in values])


class ScoreProvider:
    """Interface plus no-op lifecycle hooks; subclasses fill in the scores.

    Implement step_scores, or the three scalar queries that the default
    step_scores composes.
    """

    def start_document(self, doc: Document, mentions: Sequence[MentionSpan]) -> None:
        pass

    def mention_begin(self, index: int, mention: MentionSpan) -> None:
        pass

    def step_scores(
        self, doc: Document, mention: MentionSpan, cells: Sequence[EntityCell]
    ) -> ScoreRow:
        """The step's row, built from one scalar query per value."""
        return ScoreRow(
            s_m=float(self.mention_score(doc, mention)),
            s_c=tuple([float(self.coref_score(doc, mention, c)) for c in cells]),
            f_r_cells=tuple([float(self.remaining_score(doc, c)) for c in cells]),
            f_r_mention=float(self.remaining_score(doc, mention)),
        )

    def mention_score(self, doc: Document, mention: MentionSpan) -> float:
        raise NotImplementedError

    def coref_score(self, doc: Document, mention: MentionSpan, cell: EntityCell) -> float:
        raise NotImplementedError

    def remaining_score(self, doc: Document, item: MentionSpan | EntityCell) -> float:
        raise NotImplementedError

    def gold_entity_id(self, doc: Document, mention: MentionSpan) -> int | None:
        """Gold identity for seeding a cell, None when unknown."""
        return None

    def observe_action(
        self, index: int, mention: MentionSpan, action: Action, cell: EntityCell | None
    ) -> None:
        pass

    def end_document(self) -> None:
        pass


class GoldScoreProvider(ScoreProvider):
    """Scores read off the gold clustering.

    A gold span scores s_m = +inf, so that no remaining count can make a
    bounded policy ignore it as invalid; a span outside every gold cluster
    scores -1. coref_score is +1 for the cell of the span's gold entity
    and -1 otherwise. remaining_score counts gold mentions of an entity
    not yet processed; the mention currently being processed still counts
    for its own entity, while a tracked cell's count covers strictly
    future material. An invalid span has no entity and gets remaining 0.
    """

    def __init__(self, doc: Document | None = None):
        self._ent_of: dict[MentionSpan, int] = {}
        self._remaining: dict[int, float] = {}
        self._prev_entity: int | None = None
        if doc is not None:
            self.start_document(doc, [])

    def start_document(self, doc: Document, mentions: Sequence[MentionSpan]) -> None:
        self._ent_of = dict(doc.entity_by_span)
        self._remaining = {c.entity_id: float(len(c.mentions)) for c in doc.gold_clusters}
        self._prev_entity = None

    def mention_begin(self, index: int, mention: MentionSpan) -> None:
        # The previous mention is now fully in the past; its entity's
        # remaining count drops. The current mention still counts.
        if self._prev_entity is not None:
            self._remaining[self._prev_entity] -= 1.0
        self._prev_entity = self._ent_of.get(mention)

    def step_scores(
        self, doc: Document, mention: MentionSpan, cells: Sequence[EntityCell]
    ) -> ScoreRow:
        ent = self._ent_of.get(mention)
        remaining = self._remaining
        f_r_cells = tuple([remaining.get(c.gold_entity_id, 0.0) for c in cells])
        if ent is None:
            return ScoreRow(-1.0, (-1.0,) * len(cells), f_r_cells, 0.0)
        s_c = tuple([1.0 if c.gold_entity_id == ent else -1.0 for c in cells])
        return ScoreRow(math.inf, s_c, f_r_cells, remaining[ent])

    def mention_score(self, doc: Document, mention: MentionSpan) -> float:
        return math.inf if mention in self._ent_of else -1.0

    def coref_score(self, doc: Document, mention: MentionSpan, cell: EntityCell) -> float:
        ent = self._ent_of.get(mention)
        if ent is not None and cell.gold_entity_id is not None and ent == cell.gold_entity_id:
            return 1.0
        return -1.0

    def remaining_score(self, doc: Document, item: MentionSpan | EntityCell) -> float:
        if isinstance(item, EntityCell):
            ent = item.gold_entity_id
        else:
            ent = self._ent_of.get(item)
        return self._remaining.get(ent, 0.0)

    def gold_entity_id(self, doc: Document, mention: MentionSpan) -> int | None:
        return self._ent_of.get(mention)


def gold_scorer(doc: Document) -> GoldScoreProvider:
    """Provider that reproduces the gold clustering of the given document."""
    return GoldScoreProvider(doc)


_DETERMINERS = frozenset({"the", "a", "an"})


class StringMatchConfig(NamedTuple):
    lowercase: bool = True
    strip_determiners: bool = False


class StringMatchScoreProvider(ScoreProvider):
    """Coreference by exact match of normalized mention strings.

    A mention corefers with a cell when its normalized token string equals
    the string of any mention previously assigned to that cell. Every
    candidate span counts as a mention (mention_score +1); remaining_score
    counts identical normalized strings later in the candidate list, and a
    cell's remaining score is that count summed over the cell's strings.

    The per-slot counts are kept current by the hooks rather than summed
    per query: observe_action records the strings each slot's entity
    holds, and mention_begin takes the current mention off the count of
    every slot holding its string. step_scores and observe_action
    therefore rely on the engine's contract: mention_begin(index, mention)
    names the mention's position in the list given to start_document, and
    every cell queried is the one observe_action last reported for its
    slot.
    """

    def __init__(self, config: StringMatchConfig | None = None):
        self.config = config or StringMatchConfig()
        self._texts: list[str] = []  # normalized strings in processing order
        self._text = ""  # the current mention's
        self._future: Counter[str] = Counter()
        # Per slot: the occupying entity's strings and their summed future
        # count; plus, per string, the slots holding it.
        self._slot_strings: list[set[str]] = []
        self._slot_future: list[float] = []
        self._holders: dict[str, set[int]] = {}

    def _normalize(self, doc: Document, span: MentionSpan) -> str:
        words = list(doc.tokens[span.start : span.end + 1])
        if self.config.strip_determiners:
            while len(words) > 1 and words[0].lower() in _DETERMINERS:
                words.pop(0)
        text = " ".join(words)
        if self.config.lowercase:
            text = text.lower()
        # Equal strings share one object, so the per-step lookups touch as
        # many objects as there are distinct strings, not mentions.
        return sys.intern(text)

    def start_document(self, doc: Document, mentions: Sequence[MentionSpan]) -> None:
        self._texts = [self._normalize(doc, m) for m in mentions]
        self._future = Counter(self._texts)
        self._slot_strings = []
        self._slot_future = []
        self._holders = {}

    def mention_begin(self, index: int, mention: MentionSpan) -> None:
        text = self._text = self._texts[index]
        self._future[text] -= 1
        for slot in self._holders.get(text, ()):
            self._slot_future[slot] -= 1.0

    def step_scores(
        self, doc: Document, mention: MentionSpan, cells: Sequence[EntityCell]
    ) -> ScoreRow:
        text = self._text
        s_c = [-1.0] * len(cells)
        for slot in self._holders.get(text, ()):
            s_c[slot] = 1.0
        return ScoreRow(1.0, tuple(s_c), tuple(self._slot_future), float(self._future[text]))

    def mention_score(self, doc: Document, mention: MentionSpan) -> float:
        return 1.0

    def coref_score(self, doc: Document, mention: MentionSpan, cell: EntityCell) -> float:
        if self._normalize(doc, mention) in self._slot_strings[cell.slot]:
            return 1.0
        return -1.0

    def remaining_score(self, doc: Document, item: MentionSpan | EntityCell) -> float:
        if isinstance(item, EntityCell):
            return self._slot_future[item.slot]
        return float(self._future[self._normalize(doc, item)])

    def observe_action(
        self, index: int, mention: MentionSpan, action: Action, cell: EntityCell | None
    ) -> None:
        if cell is None:
            return
        text = self._text
        slot = cell.slot
        if action.kind is ActionKind.COREF:
            strings = self._slot_strings[slot]
            if text not in strings:
                strings.add(text)
                self._holders.setdefault(text, set()).add(slot)
                self._slot_future[slot] += self._future[text]
        elif action.kind in (ActionKind.NEW_ENTITY, ActionKind.EVICT):
            if slot == len(self._slot_strings):
                self._slot_strings.append({text})
                self._slot_future.append(float(self._future[text]))
            else:
                for old in self._slot_strings[slot]:
                    self._holders[old].discard(slot)
                self._slot_strings[slot] = {text}
                self._slot_future[slot] = float(self._future[text])
            self._holders.setdefault(text, set()).add(slot)


def string_match_scorer(config: StringMatchConfig | None = None) -> StringMatchScoreProvider:
    return StringMatchScoreProvider(config)


def iter_score_rows(path: str | Path, digests: list | None = None) -> Iterator[ScoreRow]:
    """The rows of a replay file, each read and parsed when asked for.

    A line that is not a well-formed row raises ParseError with the file
    and line once the reader reaches it. A line in the layout that
    dump_score_rows writes, with numbers the process has read before, is
    decoded directly (see rowcodec); any other goes through the JSON
    parser. With digests given, (path, sha256 hex) of the file is
    appended to it once the last row has been read.
    """
    from .rowcodec import decode_row, remember

    path = str(path)
    for line_no, _, line in file_lines(path, digests):
        row = decode_row(line)
        if row is None:
            if not line.strip():
                continue
            obj = json_line(line, path=path, line_no=line_no)
            try:
                row = ScoreRow.from_obj(obj)
            except ValueError as e:
                raise ParseError(str(e), path=path, line=line_no) from None
            remember(line, row)
        yield row


def load_score_rows(path: str | Path) -> list[ScoreRow]:
    """Every row of a replay file; see iter_score_rows."""
    return list(iter_score_rows(path))


def dump_score_rows(rows: Iterable[ScoreRow], path: str | Path) -> None:
    """Write rows as a replay file: json.dumps(row.to_obj()) per line."""
    from .rowcodec import encode_row

    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(encode_row, rows))


class ReplayScoreProvider(ScoreProvider):
    """Serves scores verbatim from pre-recorded rows, one row per mention.

    Rows run in processing order and continue across documents, so one
    provider replays a whole corpus run. It takes the next row from its
    iterable at each mention_begin and keeps only that row, so replaying
    from a file (from_file) holds one row whatever the file's length.
    step_scores returns the row itself once its per-cell lists match the
    cells in memory exactly; a row of another shape raises
    ScoreShapeMismatch with the offending mention's index, and
    check_exhausted does so for rows left over.
    """

    def __init__(self, rows: Iterable[ScoreRow]):
        self._rows = iter(rows)
        self._cursor = -1  # global mention counter, -1 before the first step
        self._current: ScoreRow | None = None

    @classmethod
    def from_file(cls, path: str | Path, digests: list | None = None) -> "ReplayScoreProvider":
        """Replay the rows of a file; digests as in iter_score_rows."""
        return cls(iter_score_rows(path, digests))

    def check_exhausted(self) -> None:
        """Raise ScoreShapeMismatch unless every row has been served.

        It reads and parses the rows left, so it ends the replay, and a
        malformed one raises ParseError before the leftovers are counted.
        """
        used = self._cursor + 1
        left = sum(1 for _ in self._rows)
        if left:
            raise ScoreShapeMismatch(
                used, f"file holds {used + left} rows but the run used {used}"
            )

    def mention_begin(self, index: int, mention: MentionSpan) -> None:
        self._cursor += 1
        self._current = next(self._rows, None)
        if self._current is None:
            raise ScoreShapeMismatch(self._cursor, f"file holds only {self._cursor} rows")

    def step_scores(
        self, doc: Document, mention: MentionSpan, cells: Sequence[EntityCell]
    ) -> ScoreRow:
        row = self._current
        if row is None:
            raise ScoreShapeMismatch(0, "score queried before any mention began")
        if len(row.s_c) != len(cells) or len(row.f_r_cells) != len(cells):
            raise ScoreShapeMismatch(
                self._cursor,
                f"row has {len(row.s_c)} coref and {len(row.f_r_cells)} remaining "
                f"scores for {len(cells)} cells in memory",
            )
        return row


class RecordingScoreProvider(ScoreProvider):
    """Wraps a provider and keeps every step's row as a replay row."""

    def __init__(self, inner: ScoreProvider):
        self.inner = inner
        self.rows: list[ScoreRow] = []

    def start_document(self, doc: Document, mentions: Sequence[MentionSpan]) -> None:
        self.inner.start_document(doc, mentions)

    def mention_begin(self, index: int, mention: MentionSpan) -> None:
        self.inner.mention_begin(index, mention)

    def step_scores(
        self, doc: Document, mention: MentionSpan, cells: Sequence[EntityCell]
    ) -> ScoreRow:
        row = self.inner.step_scores(doc, mention, cells)
        self.rows.append(row)
        return row

    def gold_entity_id(self, doc: Document, mention: MentionSpan) -> int | None:
        return self.inner.gold_entity_id(doc, mention)

    def observe_action(
        self, index: int, mention: MentionSpan, action: Action, cell: EntityCell | None
    ) -> None:
        self.inner.observe_action(index, mention, action, cell)

    def end_document(self) -> None:
        self.inner.end_document()


def propose_top_spans(
    candidates: Sequence[tuple[MentionSpan, float]], ratio: float, doc_len: int
) -> list[MentionSpan]:
    """Keep the floor(ratio * doc_len) highest-scoring candidate spans.

    Score ties at the cutoff keep the earlier span in mention order. The
    selection is returned re-sorted into processing order. The count is
    computed on the decimal value of the ratio, so 0.3 of a 10-token
    document is exactly 3 despite binary floating point.
    """
    from decimal import Decimal  # ~3 ms to import: only a run with a ratio pays it

    if ratio <= 0:
        raise ValueError("ratio must be positive")
    if doc_len < 1:
        raise ValueError("doc_len must be at least 1")
    k = int(Decimal(str(ratio)) * doc_len)
    order = sorted(range(len(candidates)), key=lambda i: candidates[i][0])
    rank = {i: r for r, i in enumerate(order)}
    by_score = sorted(range(len(candidates)), key=lambda i: (-candidates[i][1], rank[i]))
    chosen = by_score[: max(k, 0)]
    chosen.sort(key=lambda i: candidates[i][0])
    return [candidates[i][0] for i in chosen]
