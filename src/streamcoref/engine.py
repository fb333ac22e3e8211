"""Incremental clustering engine: one pass over mentions, bounded memory.

Each mention is resolved in two steps. Step one looks for the best cell to
corefer with: the mention joins the cell with the highest coref score when
that score is strictly positive (ties go to the lowest slot). Step two,
reached only when no cell attracts the mention, depends on the policy
(decide):

* unbounded: new entity when the mention score is positive, otherwise the
  span is treated as invalid and ignored;
* unbounded-star: always a new entity;
* learned-bounded: while memory has room, behaves like unbounded. At
  capacity, the argmin over [f_r(cell 1..M), f_r(mention), s_m(mention)]
  picks what to forget: a cell (evict and replace), the mention itself
  (ignored for capacity), or the span as invalid. Ties go to the lowest
  index;
* rule-bounded: same comparison, but the only evictable cell is the least
  recently used one, so the vector is [f_r(LRU cell), f_r(mention),
  s_m(mention)].

A zero top coref score does not trigger coreference; the inequality is
strict. Cells keep their slot forever: evict-and-replace swaps the
occupant but not the position. A cell's "use" is creation, coreference,
or replacement; reading its scores does not refresh recency.

The memory holds each slot's recency and nothing else; what a cell's
entity is belongs to the provider (see scoring). Every step asks the
provider once, for the step's whole ScoreRow given the number of cells,
whatever the policy ends up needing, so recorded runs always have the
full replay row shape.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .scoring import ScoreProvider, ScoreRow
from .types import (
    Action,
    ActionKind,
    Document,
    MemoryPolicy,
    MentionSpan,
    PolicyConfig,
    Record,
)


class MemoryState(Record):
    """Memory between steps: each cell's last-use ordinal, in slot order.

    last_use[slot] is the step that created, joined or replaced the slot's
    cell, so len(last_use) is the number of cells. run_document owns one
    state per document and advances it in place.
    """

    __slots__ = _fields = ("last_use", "capacity", "next_ordinal")

    def __init__(
        self,
        last_use: list[int] | None = None,
        capacity: int | None = None,
        next_ordinal: int = 0,
    ):
        self.last_use = [] if last_use is None else last_use
        self.capacity = capacity
        self.next_ordinal = next_ordinal

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self.last_use) >= self.capacity


def lru_slot(state: MemoryState) -> int:
    """Slot of the least recently used cell (ordinals are all distinct)."""
    last_use = state.last_use
    return last_use.index(min(last_use))


def decide(state: MemoryState, row: ScoreRow, policy: PolicyConfig) -> Action:
    """Step two: the policy's action for a mention that joined no cell.

    This is the one place that holds the memory policies' rules (see the
    module docstring); the engine step and the teacher-forcing oracle
    both decide through it.
    """
    kind = policy.policy
    if kind is MemoryPolicy.UNBOUNDED_STAR:
        return Action.new_entity()
    if kind is MemoryPolicy.UNBOUNDED or not state.full:
        return Action.new_entity() if row.s_m > 0.0 else Action.ignore_invalid()
    # At capacity, forget the candidate with the least remaining value: a
    # cell (evict), the mention (capacity ignore) or the span's validity
    # (invalid ignore). The vector ends with the mention's two entries.
    if kind is MemoryPolicy.LEARNED_BOUNDED:
        vector = [*row.f_r_cells, row.f_r_mention, row.s_m]
        d = vector.index(min(vector))
        if d < len(state.last_use):
            return Action.evict(d)
    else:  # rule-bounded: only the least recently used cell is at stake
        lru = lru_slot(state)
        vector = [row.f_r_cells[lru], row.f_r_mention, row.s_m]
        d = vector.index(min(vector))
        if d == 0:
            return Action.evict(lru)
    return Action.ignore_capacity() if d == len(vector) - 2 else Action.ignore_invalid()


def _advance(
    doc: Document,
    state: MemoryState,
    mention: MentionSpan,
    scores: ScoreProvider,
    policy: PolicyConfig,
) -> Action:
    """The step body: one provider query, the decision, memory updated in place."""
    last_use = state.last_use
    row = scores.step_scores(doc, mention, len(last_use))
    ordinal = state.next_ordinal
    state.next_ordinal = ordinal + 1

    s_c = row.s_c
    if s_c:
        best = max(s_c)
        if best > 0.0:
            top = s_c.index(best)  # the lowest slot among ties
            last_use[top] = ordinal
            return Action.coref(top)

    action = decide(state, row, policy)
    if action.kind is ActionKind.NEW_ENTITY:
        last_use.append(ordinal)
    elif action.kind is ActionKind.EVICT:
        last_use[action.cell] = ordinal
    # Ignores advance the step ordinal and leave memory untouched.
    return action


class RunStats(NamedTuple):
    """Bookkeeping for one document run."""

    avg_entities_in_memory: float
    max_entities_in_memory: int
    ignored_capacity_count: int
    ignored_invalid_count: int
    eviction_count: int
    actions: tuple[Action, ...]


class ClusteringResult(NamedTuple):
    predicted_clusters: tuple[tuple[MentionSpan, ...], ...]
    stats: RunStats


def clusters_from_actions(
    mentions: Sequence[MentionSpan], actions: Sequence[Action]
) -> list[list[MentionSpan]]:
    """Assemble clusters from an action trace.

    A cell's cluster is every mention assigned to it since its last
    (re)initialization; an evicted lineage still comes out as a completed
    cluster. Ignored mentions belong to no cluster.
    """
    lineages: list[list[MentionSpan]] = []
    open_by_slot: dict[int, int] = {}
    n_slots = 0
    for mention, action in zip(mentions, actions):
        if action.kind is ActionKind.COREF:
            lineages[open_by_slot[action.cell]].append(mention)
        elif action.kind is ActionKind.NEW_ENTITY:
            open_by_slot[n_slots] = len(lineages)
            lineages.append([mention])
            n_slots += 1
        elif action.kind is ActionKind.EVICT:
            open_by_slot[action.cell] = len(lineages)
            lineages.append([mention])
    return lineages


def run_document(
    doc: Document,
    mentions: Sequence[MentionSpan],
    scores: ScoreProvider,
    policy: PolicyConfig,
) -> ClusteringResult:
    """Run the step body over the mentions of one document, from empty memory.

    Mentions must already be in processing order. The memory is updated
    in place: a cell is created only by a new entity or an eviction, and
    a coreference refreshes the cell's recency. Per-mention work is one
    provider query plus O(capacity) for the bounded policies.
    """
    state = MemoryState(capacity=policy.capacity)
    last_use = state.last_use
    actions: list[Action] = []
    cell_steps = evictions = ignored_cap = ignored_inv = 0

    scores.start_document(doc, mentions)
    for i, mention in enumerate(mentions):
        scores.mention_begin(i, mention)
        action = _advance(doc, state, mention, scores, policy)
        actions.append(action)
        cell_steps += len(last_use)
        if action.kind is ActionKind.EVICT:
            evictions += 1
        elif action.kind is ActionKind.IGNORE_CAPACITY:
            ignored_cap += 1
        elif action.kind is ActionKind.IGNORE_INVALID:
            ignored_inv += 1
        # The slot created, joined or replaced; None for an ignore.
        slot = len(last_use) - 1 if action.kind is ActionKind.NEW_ENTITY else action.cell
        scores.observe_action(i, mention, action, slot)

    # Tuples built from lists, not generators: see scoring._scores.
    clusters = tuple([tuple(lineage) for lineage in clusters_from_actions(mentions, actions)])
    stats = RunStats(
        avg_entities_in_memory=cell_steps / len(mentions) if mentions else 0.0,
        # No step removes a cell, so the last step holds the most.
        max_entities_in_memory=len(last_use),
        ignored_capacity_count=ignored_cap,
        ignored_invalid_count=ignored_inv,
        eviction_count=evictions,
        actions=tuple(actions),
    )
    return ClusteringResult(predicted_clusters=clusters, stats=stats)


def trace_objs(
    mentions: Sequence[MentionSpan], actions: Sequence[Action]
) -> list[dict]:
    """Action trace in its serialized form, one object per mention."""
    out = []
    for mention, action in zip(mentions, actions):
        obj = {"mention": mention.as_pair()}
        obj.update(action.to_obj())
        out.append(obj)
    return out
