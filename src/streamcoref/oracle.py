"""Teacher-forcing oracle: the action sequence a clairvoyant policy takes.

The oracle knows the gold clustering and how many mentions of each entity
are still to come, and decides as the engine does with gold scores (see
scoring.GoldScoreProvider). Per mention, in processing order:

1. a span outside every gold cluster is ignored as invalid;
2. a mention of a tracked entity corefers with that entity's cell;
3. a mention of an untracked entity gets the gold provider's row, with
   every remaining count as it stands at that step, and takes the action
   of engine.decide: the memory policy's rule, defined there alone.

A remaining count drops by one for every processed mention of its entity,
whatever action the mention received.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .engine import MemoryState, decide
from .ingest import order_mentions
from .scoring import ScoreRow
from .types import (
    Action,
    ActionKind,
    Document,
    GoldCluster,
    MentionSpan,
    PolicyConfig,
)


class OracleStep(NamedTuple):
    """One oracle decision; remaining is the mention's entity count after
    the step (None for invalid spans). A named tuple, built in C: the
    oracle makes one per mention."""

    action: Action
    entity_id: int | None
    remaining: int | None


def oracle_trace(
    mentions: Sequence[MentionSpan],
    gold: Sequence[GoldCluster],
    policy: PolicyConfig,
) -> list[OracleStep]:
    """The oracle's step for each mention, in processing order."""
    ent_of = {span: c.entity_id for c in gold for span in c.mentions}
    # Remaining counts of untracked entities; a tracked entity's count is
    # its slot's entry in slot_remaining, so each number has one home.
    loose_remaining = {c.entity_id: len(c.mentions) for c in gold}
    slot_remaining: list[int] = []
    slot_entity: list[int] = []
    slot_of: dict[int, int] = {}
    state = MemoryState(capacity=policy.capacity)
    last_use = state.last_use
    steps: list[OracleStep] = []

    for i, mention in enumerate(mentions):
        ent = ent_of.get(mention)
        if ent is None:
            steps.append(OracleStep(Action.ignore_invalid(), None, None))
            continue

        slot = slot_of.get(ent)
        if slot is not None:
            slot_remaining[slot] -= 1
            last_use[slot] = i
            steps.append(OracleStep(Action.coref(slot), ent, slot_remaining[slot]))
            continue

        count = loose_remaining.pop(ent)  # includes the current mention
        row = ScoreRow(math.inf, (-1.0,) * len(last_use), tuple(slot_remaining), count)
        action = decide(state, row, policy)
        steps.append(OracleStep(action, ent, count - 1))
        # i is the cell's last-use ordinal: distinct, as the engine's are.
        if action.kind is ActionKind.NEW_ENTITY:
            slot = len(last_use)
            last_use.append(i)
            slot_entity.append(ent)
            slot_remaining.append(count - 1)
        elif action.kind is ActionKind.EVICT:
            slot = action.cell
            victim = slot_entity[slot]
            del slot_of[victim]
            loose_remaining[victim] = slot_remaining[slot]
            last_use[slot] = i
            slot_entity[slot] = ent
            slot_remaining[slot] = count - 1
        else:
            loose_remaining[ent] = count - 1
            continue
        slot_of[ent] = slot

    return steps


def capacity_ignores(steps: Iterable[OracleStep]) -> int:
    """How many of a trace's mentions the oracle ignored for capacity."""
    return sum(1 for s in steps if s.action.kind is ActionKind.IGNORE_CAPACITY)


def trackable_fraction(ignored: int, total: int) -> float:
    """Fraction of total gold mentions tracked when ignored were dropped.

    Tracked means coref, new entity, or evict-and-replace; only capacity
    ignores count against it. A corpus with no gold mentions is vacuously
    fully trackable.
    """
    if total == 0:
        return 1.0
    return (total - ignored) / total


def oracle_trackable_fraction(
    docs: Iterable[Document], policy: PolicyConfig
) -> float:
    """Fraction of gold mentions the oracle tracks rather than drops."""
    ignored = total = 0
    for doc in docs:
        mentions, _ = order_mentions(doc.gold_mentions())
        steps = oracle_trace(mentions, doc.gold_clusters, policy)
        ignored += capacity_ignores(steps)
        total += len(steps)
    return trackable_fraction(ignored, total)
