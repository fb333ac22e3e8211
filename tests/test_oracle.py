"""Teacher-forcing reference traces for the bounded policies."""

import pytest

from conftest import reference_run, rows_from_actions
from streamcoref import (
    Action,
    ActionKind,
    Document,
    GoldCluster,
    MemoryPolicy,
    MentionSpan,
    PolicyConfig,
    RecordingScoreProvider,
    ReplayScoreProvider,
    clusters_from_actions,
    gold_scorer,
    max_active_entities,
    oracle_trace,
    oracle_trackable_fraction,
    run_document,
    synthesize_corpus,
)
from streamcoref.ingest import order_mentions

UNBOUNDED = PolicyConfig(MemoryPolicy.UNBOUNDED)


def lb(capacity):
    return PolicyConfig(MemoryPolicy.LEARNED_BOUNDED, capacity=capacity)


def rb(capacity):
    return PolicyConfig(MemoryPolicy.RULE_BOUNDED, capacity=capacity)


def chain_doc(assignment: list[int], n_tokens: int | None = None) -> Document:
    """Document whose i-th single-token mention belongs to assignment[i].

    An entity id of -1 marks a span that is not a gold mention at all.
    """
    n = len(assignment)
    spans = [MentionSpan(i, i) for i in range(n)]
    clusters: dict[int, list[MentionSpan]] = {}
    for span, ent in zip(spans, assignment):
        if ent >= 0:
            clusters.setdefault(ent, []).append(span)
    return Document(
        doc_id="chain",
        tokens=tuple(f"w{i}" for i in range(n_tokens or n)),
        candidate_mentions=tuple((s, 0.0) for s in spans),
        gold_clusters=tuple(
            GoldCluster(e, tuple(ms)) for e, ms in sorted(clusters.items())
        ),
    )


def trace_for(assignment, policy):
    doc = chain_doc(assignment)
    mentions = [s for s, _ in doc.candidate_mentions]
    return oracle_trace(mentions, doc.gold_clusters, policy)


def actions_of(steps):
    return [s.action for s in steps]


def kinds_of(steps):
    return [s.action.kind.value for s in steps]


def test_single_slot_eviction_chain():
    # A at positions 0 and 2, B at position 1, one slot: the slot swaps
    # hands twice because each newcomer has at least as much future as
    # what it displaces
    steps = trace_for([0, 1, 0], lb(1))
    assert actions_of(steps) == [
        Action.new_entity(),
        Action.evict(0),
        Action.evict(0),
    ]
    assert [s.remaining for s in steps] == [1, 0, 0]


def test_single_slot_holds_against_richer_entity():
    # A owns three of four mentions; B's lone mention cannot displace it
    steps = trace_for([0, 1, 0, 0], lb(1))
    assert actions_of(steps) == [
        Action.new_entity(),
        Action.ignore_capacity(),
        Action.coref(0),
        Action.coref(0),
    ]


def test_remaining_counts_tick_even_while_ignored():
    # B is ignored at its first mention but its count still decrements,
    # which is visible when it finally gets the slot at the end
    steps = trace_for([0, 1, 0, 0, 0, 1], lb(1))
    assert kinds_of(steps) == ["new", "ignore_cap", "coref", "coref", "coref", "evict"]
    assert steps[1].remaining == 1
    assert steps[5].remaining == 0


def test_eviction_tie_breaks_toward_lowest_slot():
    # X and Y both have one future mention when Z arrives; X holds the
    # lower slot, so X goes
    steps = trace_for([0, 1, 2, 0, 1], lb(2))
    assert steps[2].action == Action.evict(0)
    # X re-enters by evicting the now-exhausted Z in the same slot
    assert steps[3].action == Action.evict(0)
    assert steps[4].action == Action.coref(1)
    # The same tie with Y least recently seen: the lowest slot still goes
    steps = trace_for([0, 1, 0, 2, 0, 1], lb(2))
    assert actions_of(steps) == [
        Action.new_entity(),
        Action.new_entity(),
        Action.coref(0),
        Action.evict(0),
        Action.evict(0),
        Action.coref(1),
    ]


def test_rule_bounded_considers_only_the_lru_slot():
    # X (slot 0, lru) still has two mentions to come; Y (slot 1) is
    # exhausted. The learned rule evicts Y; the lru rule must pass.
    assignment = [0, 1, 2, 0, 0]
    lb_steps = trace_for(assignment, lb(2))
    rb_steps = trace_for(assignment, rb(2))
    assert lb_steps[2].action == Action.evict(1)
    assert rb_steps[2].action == Action.ignore_capacity()


def test_unbounded_oracle_never_drops_gold():
    for doc in synthesize_corpus(111, 20):
        mentions, _ = order_mentions(doc.gold_mentions())
        actions = actions_of(oracle_trace(mentions, doc.gold_clusters, UNBOUNDED))
        assert {a.kind for a in actions} <= {ActionKind.COREF, ActionKind.NEW_ENTITY}
        got = {frozenset(c) for c in clusters_from_actions(mentions, actions)}
        assert got == {frozenset(c.mentions) for c in doc.gold_clusters}


def test_non_gold_spans_are_invalid():
    steps = trace_for([0, -1, 0], lb(1))
    assert kinds_of(steps) == ["new", "ignore_inv", "coref"]
    assert steps[1].remaining is None


def test_sufficient_capacity_tracks_everything():
    # Holds for the free-victim rule only: whenever memory is full at
    # this capacity some tracked entity is finished, and the oracle picks
    # it. The lru-restricted rule may only offer an unfinished slot, so
    # it enjoys no such guarantee.
    for doc in synthesize_corpus(113, 30, max_entities=8):
        mentions, _ = order_mentions(doc.gold_mentions())
        capacity = max(1, max_active_entities(doc))
        actions = actions_of(oracle_trace(mentions, doc.gold_clusters, lb(capacity)))
        assert not any(a.kind is ActionKind.IGNORE_CAPACITY for a in actions)
        got = {frozenset(c) for c in clusters_from_actions(mentions, actions)}
        assert got == {frozenset(c.mentions) for c in doc.gold_clusters}


def test_tight_capacity_reports_drops():
    docs = synthesize_corpus(127, 40, max_entities=10, max_mentions=25)
    pairs = []
    for doc in docs:
        mentions, _ = order_mentions(doc.gold_mentions())
        pairs.append((mentions, doc.gold_clusters))

    def mean_ignored(policy):
        total = 0
        for mentions, gold in pairs:
            total += sum(
                1
                for a in actions_of(oracle_trace(mentions, gold, policy))
                if a.kind is ActionKind.IGNORE_CAPACITY
            )
        return total / len(pairs)

    # larger memories never ignore more
    by_capacity = [mean_ignored(lb(c)) for c in (1, 2, 4, 8)]
    assert by_capacity == sorted(by_capacity, reverse=True)
    assert by_capacity[0] > 0
    # the free choice of victim is at least as good as lru-only
    assert mean_ignored(lb(3)) <= mean_ignored(rb(3))


def test_trackable_fraction():
    assert oracle_trackable_fraction([], UNBOUNDED) == 1.0
    docs = synthesize_corpus(131, 10)
    assert oracle_trackable_fraction(docs, UNBOUNDED) == 1.0
    doc = chain_doc([0, 1, 0, 0])
    assert oracle_trackable_fraction([doc], lb(1)) == 0.75


def test_engine_replays_oracle_actions_exactly():
    for doc in synthesize_corpus(137, 25, max_entities=8):
        mentions, _ = order_mentions(doc.gold_mentions())
        for policy in (lb(2), lb(4), rb(2), rb(4)):
            want = actions_of(oracle_trace(mentions, doc.gold_clusters, policy))
            rows = rows_from_actions(want)
            result = run_document(doc, mentions, ReplayScoreProvider(rows), policy)
            assert list(result.stats.actions) == want


DIFFERENTIAL_POLICIES = [UNBOUNDED] + [
    make(capacity) for make in (lb, rb) for capacity in (1, 2, 3, 5)
]


@pytest.mark.parametrize("seed", [7, 40413, 99])
def test_oracle_equals_engine_with_gold_scores(seed):
    # The engine and the per-cell reference loop, which keeps its own copy
    # of the policy rules, run over candidates that include non-gold spans.
    docs = synthesize_corpus(seed, 40, max_entities=12, max_mentions=40, extra_candidates=4)
    for doc in docs:
        mentions, _ = order_mentions(s for s, _ in doc.candidate_mentions)
        gold_spans = doc.entity_by_span
        for policy in DIFFERENTIAL_POLICIES:
            steps = oracle_trace(mentions, doc.gold_clusters, policy)
            want = actions_of(steps)
            recorder = RecordingScoreProvider(gold_scorer(doc))
            result = run_document(doc, mentions, recorder, policy)
            assert list(result.stats.actions) == want, (doc.doc_id, policy)
            reference, _, _ = reference_run(doc, mentions, gold_scorer(doc), policy)
            assert reference == want, (doc.doc_id, policy)
            for step, row, mention in zip(steps, recorder.rows, mentions):
                if mention in gold_spans:
                    assert step.remaining == row.f_r_mention - 1
                else:
                    assert step.remaining is None
