"""Spans, documents, actions, policy configuration, and the record types."""

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_validate_document
from streamcoref import (
    PRF,
    Action,
    ActionKind,
    ClusteringResult,
    ConfigError,
    Document,
    GoldCluster,
    MemoryPolicy,
    MentionSpan,
    PolicyConfig,
    RunStats,
    ScoreReport,
    ScoreRow,
    SingletonMode,
    SpreadRecord,
    StringMatchConfig,
    validate_document,
)
from streamcoref.pipeline import RunSpec


def make_doc(**overrides) -> Document:
    base = dict(
        doc_id="d",
        tokens=tuple("abcdefghij"),
        sentence_boundaries=(5, 10),
        candidate_mentions=((MentionSpan(0, 1), 0.0), (MentionSpan(3, 3), 0.0)),
        gold_clusters=(
            GoldCluster(0, (MentionSpan(0, 1), MentionSpan(3, 3))),
            GoldCluster(1, (MentionSpan(6, 8),)),
        ),
    )
    base.update(overrides)
    return Document(**base)


def test_span_length_and_covers():
    span = MentionSpan(2, 5)
    assert span.length == 4
    assert span.covers(2) and span.covers(5)
    assert not span.covers(1) and not span.covers(6)
    assert MentionSpan(3, 3).length == 1


def test_span_ordering_is_positional():
    spans = [MentionSpan(2, 3), MentionSpan(0, 9), MentionSpan(2, 2)]
    assert sorted(spans) == [MentionSpan(0, 9), MentionSpan(2, 2), MentionSpan(2, 3)]


def test_span_is_its_pair():
    span = MentionSpan(2, 5)
    assert span == (2, 5) and (2, 5) == span
    assert hash(span) == hash((2, 5))
    assert {(2, 5): "x"}[span] == "x" and {span: "x"}[(2, 5)] == "x"
    assert (2, 5) in {span} and span in {(2, 5)}
    start, end = span
    assert (start, end) == (span.start, span.end) == (2, 5)
    assert repr(span) == "MentionSpan(start=2, end=5)"
    assert span.as_pair() == [2, 5] and type(span.as_pair()) is list


def test_spans_sort_with_pairs():
    mixed = [MentionSpan(2, 3), (0, 9), MentionSpan(2, 2), (1, 1)]
    assert sorted(mixed) == [(0, 9), (1, 1), (2, 2), (2, 3)]
    assert MentionSpan(1, 9) < (2, 0) and MentionSpan(2, 0) > (1, 9)


def test_span_pickles():
    spans = [MentionSpan(0, 0), MentionSpan(7, 10**12)]
    back = pickle.loads(pickle.dumps(spans))
    assert back == spans
    assert all(type(s) is MentionSpan for s in back)


def test_document_helpers():
    doc = make_doc()
    assert len(doc) == 10
    assert doc.gold_mentions() == [MentionSpan(0, 1), MentionSpan(3, 3), MentionSpan(6, 8)]
    assert doc.entity_by_span[MentionSpan(3, 3)] == 0
    assert MentionSpan(4, 4) not in doc.entity_by_span


def test_validate_accepts_well_formed():
    assert validate_document(make_doc()) == []


def test_validate_reports_inverted_span():
    doc = make_doc(candidate_mentions=((MentionSpan(5, 3), 0.0),))
    assert validate_document(doc) == ["mention 0: start > end"]


def test_validate_reports_out_of_range_spans():
    doc = make_doc(
        candidate_mentions=((MentionSpan(-1, 2), 0.0), (MentionSpan(8, 12), 0.0))
    )
    issues = validate_document(doc)
    assert "mention 0: start < 0" in issues
    assert "mention 1: end beyond document" in issues


def test_validate_reports_duplicate_gold_mention():
    doc = make_doc(
        gold_clusters=(
            GoldCluster(0, (MentionSpan(2, 4),)),
            GoldCluster(1, (MentionSpan(2, 4),)),
        )
    )
    assert validate_document(doc) == ["duplicate gold mention (2,4)"]


def test_validate_reports_empty_cluster():
    doc = make_doc(gold_clusters=(GoldCluster(0, ()),))
    assert validate_document(doc) == ["cluster 0: empty"]


def test_validate_reports_bad_boundaries():
    doc = make_doc(sentence_boundaries=(5, 5, 11))
    issues = validate_document(doc)
    assert "sentence_boundaries[1]: not strictly increasing" in issues
    assert "sentence_boundaries[2]: out of range" in issues


def test_validate_never_raises_and_is_stable():
    doc = make_doc(
        sentence_boundaries=(0, 20),
        candidate_mentions=((MentionSpan(9, 2), 0.0),),
        gold_clusters=(GoldCluster(3, ()),),
    )
    first = validate_document(doc)
    assert first == validate_document(doc)
    assert len(first) >= 3


@st.composite
def faulty_documents(draw):
    """Documents with inverted, negative, out-of-range and repeated spans,
    empty clusters and bad sentence boundaries mixed among valid ones."""
    n = draw(st.integers(0, 8))
    index = st.integers(-3, n + 3)
    spans = st.builds(MentionSpan, index, index)
    if n:
        valid = st.integers(0, n - 1).flatmap(
            lambda s: st.builds(MentionSpan, st.just(s), st.integers(s, n - 1))
        )
        spans = valid | spans
    # Drawing from a small pool makes repeats common.
    pick = st.sampled_from(draw(st.lists(spans, min_size=1, max_size=6)))
    clusters = draw(st.lists(st.lists(pick, max_size=4), max_size=4))
    return Document(
        doc_id="d",
        tokens=("t",) * n,
        sentence_boundaries=tuple(draw(st.lists(st.integers(-1, n + 2), max_size=4))),
        candidate_mentions=tuple((s, 0.0) for s in draw(st.lists(pick, max_size=6))),
        gold_clusters=tuple(GoldCluster(k, tuple(ms)) for k, ms in enumerate(clusters)),
    )


@settings(max_examples=300, deadline=None)
@given(faulty_documents())
@example(
    make_doc(
        sentence_boundaries=(0, 4, 4, 12),
        candidate_mentions=(
            (MentionSpan(3, 1), 0.0),
            (MentionSpan(-2, -4), 0.0),
            (MentionSpan(-1, 2), 0.0),
            (MentionSpan(8, 10), 0.0),
            (MentionSpan(3, 1), 0.0),
        ),
        gold_clusters=(
            GoldCluster(0, ()),
            GoldCluster(1, (MentionSpan(2, 4), MentionSpan(11, 10))),
            GoldCluster(2, (MentionSpan(2, 4),)),
        ),
    )
)
def test_validate_matches_per_span_reference(doc):
    assert validate_document(doc) == reference_validate_document(doc)


def test_action_factories_and_round_trip():
    actions = [
        Action.coref(2),
        Action.new_entity(),
        Action.evict(0),
        Action.ignore_capacity(),
        Action.ignore_invalid(),
    ]
    for action in actions:
        assert Action.from_obj(action.to_obj()) == action


def test_action_cell_discipline():
    with pytest.raises(ValueError):
        Action(ActionKind.COREF)
    with pytest.raises(ValueError):
        Action(ActionKind.EVICT, cell=-1)
    with pytest.raises(ValueError):
        Action(ActionKind.NEW_ENTITY, cell=0)
    with pytest.raises(ValueError):
        Action(ActionKind.IGNORE_INVALID, cell=1)


def test_action_factories_share_instances():
    assert Action.coref(3) is Action.coref(3)
    assert Action.evict(3) is Action.evict(3)
    assert Action.coref(3) is not Action.evict(3)
    assert Action.new_entity() is Action.new_entity()
    assert Action.ignore_capacity() is Action.ignore_capacity()
    assert Action.ignore_invalid() is Action.ignore_invalid()
    # an invalid index still raises each time rather than being cached
    for _ in range(2):
        with pytest.raises(ValueError):
            Action.evict(-1)


@given(
    st.sampled_from([ActionKind.COREF, ActionKind.EVICT]),
    st.integers(min_value=0, max_value=500),
)
def test_cell_action_round_trip(kind, cell):
    action = Action(kind, cell)
    assert Action.from_obj(action.to_obj()) == action


def test_policy_bounded_requires_capacity():
    with pytest.raises(ConfigError):
        PolicyConfig(MemoryPolicy.LEARNED_BOUNDED)
    with pytest.raises(ConfigError):
        PolicyConfig(MemoryPolicy.RULE_BOUNDED, capacity=0)
    cfg = PolicyConfig(MemoryPolicy.LEARNED_BOUNDED, capacity=1)
    assert cfg.bounded


def test_policy_unbounded_rejects_capacity():
    with pytest.raises(ConfigError):
        PolicyConfig(MemoryPolicy.UNBOUNDED, capacity=8)
    cfg = PolicyConfig(MemoryPolicy.UNBOUNDED)
    assert not cfg.bounded and cfg.capacity is None


def test_policy_star_needs_dropped_singletons():
    with pytest.raises(ConfigError):
        PolicyConfig(MemoryPolicy.UNBOUNDED_STAR)
    cfg = PolicyConfig(MemoryPolicy.UNBOUNDED_STAR, singleton_mode=SingletonMode.DROP)
    assert not cfg.bounded


# The records are named tuples or FrozenRecord classes, not dataclasses: each
# keeps equality and hashing by value, pickles (the run pool sends RunSpec
# and PolicyConfig to its workers), and rejects assignment.


def _records() -> list:
    """One of each immutable record, built afresh on every call."""
    span = MentionSpan(0, 1)
    policy = PolicyConfig(MemoryPolicy.RULE_BOUNDED, capacity=3)
    stats = RunStats(1.5, 2, 0, 1, 0, (Action.new_entity(), Action.coref(0)))
    prf = PRF(0.5, 0.25, 1 / 3)
    return [
        GoldCluster(0, (span,)),
        make_doc(),
        Action(ActionKind.EVICT, 2),
        policy,
        ScoreRow(1.0, (0.5, -1.0), (2.0, 0.0), 3.0),
        StringMatchConfig(strip_determiners=True),
        stats,
        ClusteringResult(((span,),), stats),
        RunSpec(policy, "string-match", StringMatchConfig(), 0.5, trace=True),
        SpreadRecord(0, span, 1, 0.2),
        ScoreReport(prf, prf, prf, 1 / 3),
        prf,
    ]


@pytest.mark.parametrize(
    "index", range(len(_records())), ids=[type(r).__name__ for r in _records()]
)
def test_immutable_records(index):
    record, twin = _records()[index], _records()[index]
    assert record == twin and hash(record) == hash(twin)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record and hash(back) == hash(record)
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == twin


def test_document_equality_ignores_its_span_cache():
    doc, twin = make_doc(), make_doc()
    assert doc.entity_by_span  # cached on doc only
    assert doc == twin and hash(doc) == hash(twin)
    assert pickle.loads(pickle.dumps(doc)) == twin
    assert doc != make_doc(doc_id="other") and doc != make_doc(genre="nw")
    with pytest.raises(AttributeError):
        del doc.tokens


def test_replace_keeps_constructor_checks():
    with pytest.raises(ConfigError):
        PolicyConfig(MemoryPolicy.LEARNED_BOUNDED, capacity=2)._replace(capacity=0)
    with pytest.raises(ValueError):
        Action.coref(1)._replace(cell=None)
    assert Action.coref(1)._replace(cell=4) == Action.coref(4)


def test_frozen_records_print_their_fields():
    assert repr(PRF(0.5, 0.25, 0.125)) == "PRF(precision=0.5, recall=0.25, f1=0.125)"
    assert repr(make_doc()).startswith("Document(doc_id=")
