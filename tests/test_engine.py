"""The clustering state machine: updates, decisions, full-document runs."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rows_from_actions
from streamcoref import (
    Action,
    ScoreRow,
    ActionKind,
    Document,
    GoldCluster,
    MemoryPolicy,
    MemoryState,
    MentionSpan,
    PolicyConfig,
    ReplayScoreProvider,
    SingletonMode,
    clusters_from_actions,
    decide,
    gold_scorer,
    run_document,
    string_match_scorer,
    synthesize_corpus,
)
from streamcoref.engine import lru_slot, trace_objs
from streamcoref.pipeline import trace_lines
from streamcoref.ingest import order_mentions

UNBOUNDED = PolicyConfig(MemoryPolicy.UNBOUNDED)
USTAR = PolicyConfig(MemoryPolicy.UNBOUNDED_STAR, singleton_mode=SingletonMode.DROP)


def lb(capacity):
    return PolicyConfig(MemoryPolicy.LEARNED_BOUNDED, capacity=capacity)


def rb(capacity):
    return PolicyConfig(MemoryPolicy.RULE_BOUNDED, capacity=capacity)


def make_state(ordinals, capacity) -> MemoryState:
    return MemoryState(
        last_use=list(ordinals),
        capacity=capacity,
        next_ordinal=max(ordinals, default=-1) + 1,
    )


def scores_for(s_m, s_c, f_r_cells, f_r_mention) -> ScoreRow:
    return ScoreRow(
        s_m=s_m, s_c=tuple(s_c), f_r_cells=tuple(f_r_cells), f_r_mention=f_r_mention
    )


# ---------------------------------------------------------------------------
# decision rules


def test_decide_unbounded_variants():
    state = make_state([0, 1], capacity=None)
    positive = scores_for(0.5, (), (), 0.0)
    negative = scores_for(-0.5, (), (), 0.0)
    assert decide(state, positive, UNBOUNDED) == Action.new_entity()
    assert decide(state, negative, UNBOUNDED) == Action.ignore_invalid()
    # the star variant appends regardless of the mention score
    assert decide(state, negative, USTAR) == Action.new_entity()


def test_decide_lb_prefers_weakest_position():
    state = make_state([0, 1], capacity=2)
    # least useful: the first tracked entity
    assert decide(state, scores_for(5.0, (), (0.1, 3.0), 2.0), lb(2)) == Action.evict(0)
    # least useful: the incoming mention
    assert decide(state, scores_for(5.0, (), (2.0, 3.0), 1.0), lb(2)) == Action.ignore_capacity()
    # least useful: the mention score itself
    assert decide(state, scores_for(0.5, (), (2.0, 3.0), 1.5), lb(2)) == Action.ignore_invalid()


def test_decide_lb_tie_goes_to_lowest_index():
    state = make_state([0, 1], capacity=2)
    assert decide(state, scores_for(1.0, (), (1.0, 1.0), 1.0), lb(2)) == Action.evict(0)


def test_decide_lb_below_capacity_acts_unbounded():
    state = make_state([0], capacity=2)
    assert decide(state, scores_for(0.9, (), (5.0,), 1.0), lb(2)) == Action.new_entity()
    assert decide(state, scores_for(-0.9, (), (5.0,), 1.0), lb(2)) == Action.ignore_invalid()


def test_decide_rb_considers_only_the_lru_cell():
    # slot 1 is the least recently used; slot 0 has the weak remaining score
    state = make_state([5, 2], capacity=2)
    assert lru_slot(state) == 1
    scores = scores_for(5.0, (), (0.1, 9.0), 2.0)
    # the learned rule would evict slot 0; the lru rule only offers slot 1
    assert decide(state, scores, lb(2)) == Action.evict(0)
    assert decide(state, scores, rb(2)) == Action.ignore_capacity()
    # when the lru cell is the weakest of the triple it does get evicted
    assert decide(state, scores_for(5.0, (), (0.1, 1.0), 2.0), rb(2)) == Action.evict(1)
    assert decide(state, scores_for(0.5, (), (9.0, 8.0), 7.0), rb(2)) == Action.ignore_invalid()
    # below capacity it acts unbounded, like the learned rule
    state = make_state([0], capacity=2)
    assert decide(state, scores_for(0.9, (), (5.0,), 1.0), rb(2)) == Action.new_entity()


# ---------------------------------------------------------------------------
# single steps


def run_steps(doc, mentions, rows, policy):
    provider = ReplayScoreProvider(rows)
    return run_document(doc, mentions, provider, policy)


TINY = Document(doc_id="t", tokens=tuple(f"w{i}" for i in range(8)))
SPANS = [MentionSpan(i, i) for i in range(6)]


def test_step_coref_requires_strictly_positive_top():
    rows = [
        rows_from_actions([Action.new_entity()])[0],
        # top coref score exactly zero: step two must run, s_m > 0 -> new
        ScoreRow(1.0, (0.0,), (2.0,), 2.0),
    ]
    result = run_steps(TINY, SPANS[:2], rows, UNBOUNDED)
    kinds = [a.kind for a in result.stats.actions]
    assert kinds == [ActionKind.NEW_ENTITY, ActionKind.NEW_ENTITY]


def test_step_coref_tie_picks_lowest_slot():
    rows = [
        ScoreRow(1.0, (), (), 2.0),
        ScoreRow(1.0, (-1.0,), (2.0,), 2.0),
        ScoreRow(1.0, (0.7, 0.7), (2.0, 2.0), 2.0),
    ]
    result = run_steps(TINY, SPANS[:3], rows, UNBOUNDED)
    assert result.stats.actions[2] == Action.coref(0)


def test_step_coref_wins_even_when_memory_is_full():
    rows = rows_from_actions([Action.new_entity(), Action.new_entity()])
    rows.append(ScoreRow(-5.0, (0.2, -1.0), (9.0, 9.0), 0.5))
    result = run_steps(TINY, SPANS[:3], rows, lb(2))
    assert result.stats.actions[2] == Action.coref(0)
    assert result.stats.eviction_count == 0


def test_step_ignores_advance_time_but_not_memory():
    touched = []

    class Observed(ReplayScoreProvider):
        def observe_action(self, index, mention, action, slot):
            touched.append(slot)

    rows = [ScoreRow(-1.0, (), (), 0.0), ScoreRow(1.0, (), (), 1.0)]
    result = run_document(TINY, SPANS[:2], Observed(rows), UNBOUNDED)
    assert result.stats.actions == (Action.ignore_invalid(), Action.new_entity())
    # memory stayed empty through the ignore, and the new entity took slot 0
    assert result.stats.avg_entities_in_memory == 0.5
    assert touched == [None, 0]


def test_eviction_reinitializes_the_slot():
    actions = [Action.new_entity(), Action.new_entity(), Action.evict(0)]
    rows = rows_from_actions(actions)
    rows.append(ScoreRow(1.0, (1.0, -1.0), (2.0, 2.0), 2.0))
    result = run_steps(TINY, SPANS[:4], rows, lb(2))
    assert [a.kind.value for a in result.stats.actions] == [
        "new",
        "new",
        "evict",
        "coref",
    ]
    # the evicted lineage survives as a finished cluster; the slot restarts
    assert result.predicted_clusters == (
        (SPANS[0],),
        (SPANS[1],),
        (SPANS[2], SPANS[3]),
    )


# ---------------------------------------------------------------------------
# whole-document properties


def test_gold_unbounded_reproduces_gold_clusters():
    for doc in synthesize_corpus(71, 30, max_entities=6, max_mentions=18):
        mentions, _ = order_mentions(doc.gold_mentions())
        result = run_document(doc, mentions, gold_scorer(doc), UNBOUNDED)
        got = {frozenset(c) for c in result.predicted_clusters}
        want = {frozenset(c.mentions) for c in doc.gold_clusters}
        assert got == want
        assert result.stats.ignored_invalid_count == 0


@pytest.mark.parametrize("policy", [lb(3), rb(3)], ids=["lb-3", "rb-3"])
def test_gold_bounded_never_ignores_gold_mentions_as_invalid(policy):
    # Remaining counts compete with s_m in the bounded argmin; a gold span
    # must lose to none of them.
    for doc in synthesize_corpus(40413, 200):
        mentions, _ = order_mentions(doc.gold_mentions())
        result = run_document(doc, mentions, gold_scorer(doc), policy)
        assert result.stats.ignored_invalid_count == 0


def test_gold_unbounded_ignores_non_gold_candidates():
    for doc in synthesize_corpus(73, 10, extra_candidates=3):
        mentions, _ = order_mentions([s for s, _ in doc.candidate_mentions])
        result = run_document(doc, mentions, gold_scorer(doc), UNBOUNDED)
        got = {frozenset(c) for c in result.predicted_clusters}
        want = {frozenset(c.mentions) for c in doc.gold_clusters}
        assert got == want
        n_extras = len(mentions) - len(doc.gold_mentions())
        assert result.stats.ignored_invalid_count == n_extras


def test_star_policy_never_ignores():
    for doc in synthesize_corpus(79, 10, extra_candidates=3):
        mentions, _ = order_mentions([s for s, _ in doc.candidate_mentions])
        result = run_document(doc, mentions, gold_scorer(doc), USTAR)
        kinds = {a.kind for a in result.stats.actions}
        assert kinds <= {ActionKind.COREF, ActionKind.NEW_ENTITY}
        covered = sum(len(c) for c in result.predicted_clusters)
        assert covered == len(mentions)


def test_bounded_policies_respect_capacity():
    for capacity in (1, 2, 4):
        for policy in (lb(capacity), rb(capacity)):
            for doc in synthesize_corpus(83, 8, max_entities=8):
                mentions, _ = order_mentions(doc.gold_mentions())
                result = run_document(doc, mentions, gold_scorer(doc), policy)
                assert result.stats.max_entities_in_memory <= capacity


def test_bounded_with_slack_capacity_acts_unbounded():
    for doc in synthesize_corpus(89, 12, max_mentions=14):
        mentions, _ = order_mentions(doc.gold_mentions())
        capacity = max(1, len(mentions))
        baseline = run_document(doc, mentions, gold_scorer(doc), UNBOUNDED)
        for policy in (lb(capacity), rb(capacity)):
            result = run_document(doc, mentions, gold_scorer(doc), policy)
            assert result.stats.actions == baseline.stats.actions


def test_every_mention_lands_somewhere_or_is_ignored():
    for policy in (UNBOUNDED, lb(3), rb(3)):
        for doc in synthesize_corpus(97, 10, extra_candidates=2):
            mentions, _ = order_mentions([s for s, _ in doc.candidate_mentions])
            result = run_document(doc, mentions, string_match_scorer(), policy)
            stats = result.stats
            covered = sum(len(c) for c in result.predicted_clusters)
            ignored = stats.ignored_capacity_count + stats.ignored_invalid_count
            assert covered + ignored == len(mentions)
            news = sum(1 for a in stats.actions if a.kind is ActionKind.NEW_ENTITY)
            assert len(result.predicted_clusters) == news + stats.eviction_count


def test_run_stats_memory_accounting():
    (doc,) = synthesize_corpus(101, 1, max_entities=3, max_mentions=9)
    mentions, _ = order_mentions(doc.gold_mentions())
    result = run_document(doc, mentions, gold_scorer(doc), UNBOUNDED)
    sizes = []
    n = 0
    for action in result.stats.actions:
        if action.kind is ActionKind.NEW_ENTITY:
            n += 1
        sizes.append(n)
    assert result.stats.max_entities_in_memory == max(sizes)
    assert result.stats.avg_entities_in_memory == pytest.approx(sum(sizes) / len(sizes))


def test_empty_document_run():
    doc = Document(doc_id="e", tokens=("x",))
    result = run_document(doc, [], gold_scorer(doc), UNBOUNDED)
    assert result.predicted_clusters == ()
    assert result.stats.avg_entities_in_memory == 0.0
    assert result.stats.max_entities_in_memory == 0


def test_lru_refresh_on_coref():
    # two entities; a coref to slot 0 must make slot 1 the eviction target
    actions = [Action.new_entity(), Action.new_entity()]
    rows = rows_from_actions(actions)
    rows.append(ScoreRow(1.0, (1.0, -1.0), (5.0, 5.0), 5.0))  # coref slot 0
    rows.append(ScoreRow(5.0, (-1.0, -1.0), (0.5, 0.5), 4.0))  # eviction step
    result = run_steps(TINY, SPANS[:4], rows, rb(2))
    assert result.stats.actions[2] == Action.coref(0)
    # both cells tie on remaining 0.5, but only the lru (slot 1) is offered
    assert result.stats.actions[3] == Action.evict(1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_forced_replay_reproduces_any_legal_action_sequence(seed):
    import random

    rng = random.Random(seed)
    capacity = rng.randint(1, 4)
    n = rng.randint(1, 12)
    slots: list[int] = []
    actions = []
    for _ in range(n):
        choices = ["new"] if len(slots) < capacity else []
        if slots:
            choices += ["coref", "ignore_inv"]
        if len(slots) >= capacity:
            choices += ["evict", "ignore_cap"]
        kind = rng.choice(choices)
        if kind == "new":
            slots.append(len(slots))
            actions.append(Action.new_entity())
        elif kind == "coref":
            actions.append(Action.coref(rng.choice(slots)))
        elif kind == "evict":
            actions.append(Action.evict(rng.choice(slots)))
        elif kind == "ignore_cap":
            actions.append(Action.ignore_capacity())
        else:
            actions.append(Action.ignore_invalid())

    doc = Document(doc_id="f", tokens=tuple(f"w{i}" for i in range(n)))
    mentions = [MentionSpan(i, i) for i in range(n)]
    rows = rows_from_actions(actions)
    policy = lb(capacity)
    result = run_document(doc, mentions, ReplayScoreProvider(rows), policy)
    assert list(result.stats.actions) == actions


def test_trace_lines_are_the_dumped_trace_objects():
    actions = [
        Action.new_entity(),
        Action.coref(0),
        Action.coref(12),
        Action.evict(10),
        Action.evict(3),
        Action.ignore_capacity(),
        Action.ignore_invalid(),
        # equal to a shared instance but a different object
        Action(ActionKind.COREF, 12),
        Action.coref(12),
    ]
    assert {a.kind for a in actions} == set(ActionKind)
    mentions = [MentionSpan(i, i + 3) for i in range(len(actions) - 2)]
    mentions += [MentionSpan(10**9, 10**9), MentionSpan(2**62, 2**63)]
    want = "".join(json.dumps(obj) + "\n" for obj in trace_objs(mentions, actions))
    assert trace_lines(mentions, actions) == want
    assert trace_lines([], []) == ""


def test_trace_lines_match_a_run():
    doc = synthesize_corpus(3, 1, max_entities=6, max_mentions=40, extra_candidates=4)[0]
    mentions, _ = order_mentions(s for s, _ in doc.candidate_mentions)
    result = run_document(doc, mentions, string_match_scorer(), lb(2))
    actions = result.stats.actions
    want = "".join(json.dumps(obj) + "\n" for obj in trace_objs(mentions, actions))
    assert trace_lines(mentions, actions) == want
