"""Teacher-forcing oracle: the action sequence a clairvoyant policy takes.

The oracle knows the gold clustering and how many mentions of each entity
are still to come. Per mention, in processing order:

1. a span outside every gold cluster is ignored as invalid;
2. a mention of a tracked entity corefers with its cell, decrementing the
   entity's remaining count and refreshing its recency;
3. a mention of an untracked entity enters memory as a new entity while
   there is room;
4. with memory full, the untracked entity's remaining count (including the
   current mention) is compared against tracked entities: under the
   learned-bounded policy against the tracked entity with the fewest
   remaining mentions (recency breaks ties toward the least recently
   seen), under the rule-bounded policy against the least recently seen
   entity only. If that entity's remaining count is less than or equal to
   the newcomer's, it is evicted and replaced; otherwise the mention is
   ignored for capacity.

An entity that was evicted, or whose earlier mentions were ignored,
re-enters through rule 4 (or 3) with its then-remaining count: remaining
counts drop by one for every processed mention of the entity, whatever
action it received. Unbounded policies never fill memory, so rules 1-3
cover them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .ingest import order_mentions
from .types import (
    Action,
    ActionKind,
    Document,
    GoldCluster,
    MentionSpan,
    PolicyConfig,
)


@dataclass
class TrackedEntity:
    """One slot of oracle memory."""

    entity_id: int
    remaining_mentions: int
    last_seen_ordinal: int


@dataclass
class OracleState:
    """Tracked entities in slot order plus the capacity bound."""

    tracked: list[TrackedEntity]
    capacity: int | None


@dataclass(frozen=True)
class OracleStep:
    """One oracle decision; remaining is the mention's entity count after
    the step (None for invalid spans)."""

    action: Action
    entity_id: int | None
    remaining: int | None


def oracle_trace(
    mentions: Sequence[MentionSpan],
    gold: Sequence[GoldCluster],
    policy: PolicyConfig,
) -> list[OracleStep]:
    ent_of = {span: c.entity_id for c in gold for span in c.mentions}
    # Counts for entities not currently tracked; tracked counts live on the
    # slot entries so each number has exactly one home.
    loose_remaining = {c.entity_id: len(c.mentions) for c in gold}
    state = OracleState(tracked=[], capacity=policy.capacity)
    slot_of: dict[int, int] = {}
    steps: list[OracleStep] = []

    for i, mention in enumerate(mentions):
        ent = ent_of.get(mention)
        if ent is None:
            steps.append(OracleStep(Action.ignore_invalid(), None, None))
            continue

        if ent in slot_of:
            slot = slot_of[ent]
            entry = state.tracked[slot]
            entry.remaining_mentions -= 1
            entry.last_seen_ordinal = i
            steps.append(OracleStep(Action.coref(slot), ent, entry.remaining_mentions))
            continue

        new_count = loose_remaining[ent]  # includes the current mention
        if state.capacity is None or len(state.tracked) < state.capacity:
            slot = len(state.tracked)
            state.tracked.append(TrackedEntity(ent, new_count - 1, i))
            slot_of[ent] = slot
            del loose_remaining[ent]
            steps.append(OracleStep(Action.new_entity(), ent, new_count - 1))
            continue

        if policy.policy.value == "rb":
            candidates = [
                min(
                    range(len(state.tracked)),
                    key=lambda s: state.tracked[s].last_seen_ordinal,
                )
            ]
        else:
            candidates = list(range(len(state.tracked)))
        victim_slot = min(
            candidates,
            key=lambda s: (
                state.tracked[s].remaining_mentions,
                state.tracked[s].last_seen_ordinal,
            ),
        )
        victim = state.tracked[victim_slot]
        if victim.remaining_mentions <= new_count:
            del slot_of[victim.entity_id]
            loose_remaining[victim.entity_id] = victim.remaining_mentions
            state.tracked[victim_slot] = TrackedEntity(ent, new_count - 1, i)
            slot_of[ent] = victim_slot
            del loose_remaining[ent]
            steps.append(OracleStep(Action.evict(victim_slot), ent, new_count - 1))
        else:
            loose_remaining[ent] = new_count - 1
            steps.append(OracleStep(Action.ignore_capacity(), ent, new_count - 1))

    return steps


def oracle_actions(
    mentions: Sequence[MentionSpan],
    gold: Sequence[GoldCluster],
    policy: PolicyConfig,
) -> list[Action]:
    """Just the action sequence; see oracle_trace for per-step detail."""
    return [s.action for s in oracle_trace(mentions, gold, policy)]


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
