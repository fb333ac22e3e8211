"""Score providers: gold, string match, record/replay, span proposal."""

import json
import math
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamcoref import (
    Action,
    Document,
    GoldCluster,
    MemoryPolicy,
    MentionSpan,
    PolicyConfig,
    RecordingScoreProvider,
    ReplayScoreProvider,
    ScoreRow,
    ScoreShapeMismatch,
    StringMatchConfig,
    gold_scorer,
    propose_top_spans,
    run_document,
    string_match_scorer,
    synthesize_corpus,
)
from streamcoref.ingest import ParseError, order_mentions
from streamcoref.scoring import dump_score_rows, iter_score_rows, load_score_rows


# ---------------------------------------------------------------------------
# gold provider

CHAIN = [MentionSpan(i, i) for i in (0, 1, 2, 3, 4)]
GOLD_DOC = Document(
    doc_id="g",
    tokens=tuple(f"w{i}" for i in range(10)),
    candidate_mentions=tuple((m, 0.0) for m in CHAIN) + ((MentionSpan(7, 7), 0.0),),
    gold_clusters=(GoldCluster(0, tuple(CHAIN)), GoldCluster(1, (MentionSpan(5, 5),))),
)


def gold_with_slots():
    """A gold provider whose slots 0, 1 and 2 hold entity 0, entity 1 and
    a span outside every gold cluster (as ustar keeps them)."""
    provider = gold_scorer(GOLD_DOC)
    for slot, span in enumerate((CHAIN[0], MentionSpan(5, 5), MentionSpan(7, 7))):
        provider.observe_action(slot, span, Action.new_entity(), slot)
    return provider


def test_gold_membership_scores():
    provider = gold_with_slots()
    provider.mention_begin(0, CHAIN[0])
    assert provider.mention_score(GOLD_DOC, CHAIN[0]) == math.inf
    assert provider.mention_score(GOLD_DOC, MentionSpan(7, 7)) == -1.0
    assert provider.coref_score(GOLD_DOC, CHAIN[0], 0) == 1.0
    assert provider.coref_score(GOLD_DOC, CHAIN[0], 1) == -1.0
    assert provider.coref_score(GOLD_DOC, MentionSpan(7, 7), 0) == -1.0
    assert provider.coref_score(GOLD_DOC, CHAIN[0], 2) == -1.0
    assert provider.coref_score(GOLD_DOC, MentionSpan(7, 7), 2) == -1.0


def test_gold_remaining_counts_down_as_mentions_pass():
    provider = gold_scorer(GOLD_DOC)
    seen_remaining = []
    for i, m in enumerate(CHAIN):
        provider.mention_begin(i, m)
        seen_remaining.append(provider.remaining_score(GOLD_DOC, m))
    # the current mention still counts toward its own entity
    assert seen_remaining == [5.0, 4.0, 3.0, 2.0, 1.0]


def test_gold_remaining_for_cells_and_invalid_spans():
    provider = gold_with_slots()
    for i, m in enumerate(CHAIN[:4]):
        provider.mention_begin(i, m)
    # three mentions fully seen, the fourth is in flight
    assert provider.remaining_score(GOLD_DOC, 0) == 2.0
    assert provider.remaining_score(GOLD_DOC, 1) == 1.0
    assert provider.remaining_score(GOLD_DOC, MentionSpan(7, 7)) == 0.0
    assert provider.remaining_score(GOLD_DOC, 2) == 0.0


def test_gold_eviction_replaces_the_slot_entity():
    provider = gold_with_slots()
    provider.observe_action(3, MentionSpan(5, 5), Action.evict(0), 0)
    provider.mention_begin(0, CHAIN[0])
    assert provider.coref_score(GOLD_DOC, CHAIN[0], 0) == -1.0
    assert provider.coref_score(GOLD_DOC, MentionSpan(5, 5), 0) == 1.0
    assert provider.step_scores(GOLD_DOC, MentionSpan(5, 5), 3) == ScoreRow(
        math.inf, (1.0, 1.0, -1.0), (1.0, 1.0, 0.0), 1.0
    )


# ---------------------------------------------------------------------------
# string-match provider

WORDS = ("The", "president", "spoke", "president", "He", "and", "President")
SM_DOC = Document(doc_id="s", tokens=WORDS)
SM_MENTIONS = [MentionSpan(0, 1), MentionSpan(3, 3), MentionSpan(6, 6)]


def sm_provider(**cfg):
    provider = string_match_scorer(StringMatchConfig(**cfg))
    provider.start_document(SM_DOC, SM_MENTIONS)
    return provider


def test_string_match_normalization_links_variants():
    provider = sm_provider(lowercase=True, strip_determiners=True)
    provider.mention_begin(0, SM_MENTIONS[0])
    provider.observe_action(0, SM_MENTIONS[0], Action.new_entity(), 0)
    provider.mention_begin(1, SM_MENTIONS[1])
    assert provider.coref_score(SM_DOC, SM_MENTIONS[1], 0) == 1.0
    provider.mention_begin(2, SM_MENTIONS[2])
    assert provider.coref_score(SM_DOC, SM_MENTIONS[2], 0) == 1.0


def test_string_match_case_sensitivity_configurable():
    provider = sm_provider(lowercase=False, strip_determiners=True)
    provider.mention_begin(0, SM_MENTIONS[0])
    provider.observe_action(0, SM_MENTIONS[0], Action.new_entity(), 0)
    provider.mention_begin(1, SM_MENTIONS[1])
    assert provider.coref_score(SM_DOC, SM_MENTIONS[1], 0) == 1.0
    provider.mention_begin(2, SM_MENTIONS[2])
    # "President" != "president" without lowercasing
    assert provider.coref_score(SM_DOC, SM_MENTIONS[2], 0) == -1.0


def test_string_match_remaining_counts_future_copies():
    provider = sm_provider(strip_determiners=True)
    provider.mention_begin(0, SM_MENTIONS[0])
    # two more "president" mentions lie ahead
    assert provider.remaining_score(SM_DOC, SM_MENTIONS[0]) == 2.0
    provider.observe_action(0, SM_MENTIONS[0], Action.new_entity(), 0)
    provider.mention_begin(1, SM_MENTIONS[1])
    assert provider.remaining_score(SM_DOC, 0) == 1.0
    assert provider.remaining_score(SM_DOC, SM_MENTIONS[1]) == 1.0
    provider.mention_begin(2, SM_MENTIONS[2])
    assert provider.remaining_score(SM_DOC, 0) == 0.0


def test_string_match_mentions_always_valid():
    provider = sm_provider()
    provider.mention_begin(0, SM_MENTIONS[0])
    assert provider.mention_score(SM_DOC, SM_MENTIONS[0]) == 1.0


def test_determiner_stripping_keeps_lone_determiner():
    doc = Document(doc_id="d", tokens=("The", "the"))
    provider = string_match_scorer(StringMatchConfig(strip_determiners=True))
    spans = [MentionSpan(0, 0), MentionSpan(1, 1)]
    provider.start_document(doc, spans)
    provider.mention_begin(0, spans[0])
    # a single-word span survives stripping, so "The" ~ "the"
    assert provider.remaining_score(doc, spans[0]) == 1.0


# ---------------------------------------------------------------------------
# score rows, recording, replay


def test_score_row_round_trip():
    row = ScoreRow(0.5, (1.0, -1.0), (3.0, 2.0), 4.0)
    assert ScoreRow.from_obj(row.to_obj()) == row
    with pytest.raises(ValueError):
        ScoreRow.from_obj({"s_m": 1.0})


def test_score_row_file_round_trip(tmp_path):
    rows = [
        ScoreRow(1.0, (), (), 2.0),
        ScoreRow(-1.0, (0.25,), (1.5,), 0.0),
        ScoreRow(0.0, (1.0, -0.5), (2.0, 0.5), 3.0),
    ]
    path = tmp_path / "rows.jsonl"
    dump_score_rows(rows, path)
    assert load_score_rows(path) == rows
    assert len(path.read_text().splitlines()) == 3


def test_replay_serves_rows_in_order():
    rows = [
        ScoreRow(1.0, (), (), 5.0),
        ScoreRow(-0.5, (0.75,), (4.0,), 3.0),
    ]
    provider = ReplayScoreProvider(rows)
    provider.mention_begin(0, MentionSpan(0, 0))
    assert provider.step_scores(SM_DOC, MentionSpan(0, 0), 0) is rows[0]
    provider.mention_begin(1, MentionSpan(1, 1))
    assert provider.step_scores(SM_DOC, MentionSpan(1, 1), 1) is rows[1]


def test_replay_query_before_begin_fails():
    provider = ReplayScoreProvider([ScoreRow(1.0, (), (), 1.0)])
    with pytest.raises(ScoreShapeMismatch) as err:
        provider.step_scores(SM_DOC, MentionSpan(0, 0), 0)
    assert "before any mention began" in str(err.value)


def test_replay_row_exhaustion_names_the_mention():
    provider = ReplayScoreProvider([ScoreRow(1.0, (), (), 1.0)])
    provider.mention_begin(0, MentionSpan(0, 0))
    with pytest.raises(ScoreShapeMismatch) as err:
        provider.mention_begin(1, MentionSpan(1, 1))
    assert err.value.mention_index == 1
    assert "1 rows" in str(err.value)


@pytest.mark.parametrize(
    "line, reason",
    [
        ("not json", "Expecting value"),
        ('{"s_m": 1.0, "s_c": [], "f_r_cells": []}', "missing key 'f_r_mention'"),
        ('{"s_m": NaN, "s_c": [], "f_r_cells": [], "f_r_mention": 1.0}', "NaN"),
        ('{"s_m": 1.0, "s_c": [NaN], "f_r_cells": [1.0], "f_r_mention": 1.0}', "NaN"),
        ('{"s_m": 1.0, "s_c": [1.0], "f_r_cells": [NaN], "f_r_mention": 1.0}', "NaN"),
        ('{"s_m": 1.0, "s_c": [], "f_r_cells": [], "f_r_mention": "nan"}', "got str"),
        ('{"s_m": 1.0, "s_c": 3, "f_r_cells": [], "f_r_mention": 1.0}', "malformed"),
        ('{"s_m": 1.0, "s_c": "12", "f_r_cells": [], "f_r_mention": 1.0}', "list"),
    ],
)
def test_load_score_rows_names_the_bad_line(tmp_path, line, reason):
    path = tmp_path / "rows.jsonl"
    good = json.dumps(ScoreRow(1.0, (), (), 1.0).to_obj())
    path.write_text(f"{good}\n{line}\n{good}\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_score_rows(path)
    assert err.value.line == 2
    assert err.value.path == str(path)
    assert reason in str(err.value)


def test_replay_from_file_reads_rows_as_mentions_begin(tmp_path):
    path = tmp_path / "rows.jsonl"
    good = json.dumps(ScoreRow(1.0, (), (), 1.0).to_obj())
    path.write_text(f"{good}\n\n{good}\nnot json\n", encoding="utf-8")
    provider = ReplayScoreProvider.from_file(path)
    provider.mention_begin(0, MentionSpan(0, 0))
    row = provider.step_scores(SM_DOC, MentionSpan(0, 0), 0)
    assert row == ScoreRow(1.0, (), (), 1.0)
    provider.mention_begin(1, MentionSpan(1, 1))
    with pytest.raises(ParseError) as err:  # the bad line is only met here
        provider.check_exhausted()
    assert err.value.line == 4
    rows = iter_score_rows(path)
    assert next(rows) == next(rows) == ScoreRow(1.0, (), (), 1.0)
    with pytest.raises(ParseError):
        next(rows)


@pytest.mark.parametrize(
    "line",
    [
        "[" * 5000,  # RecursionError inside json.loads
        '{"s_m": 1' + "0" * 400 + ', "s_c": [], "f_r_cells": [], "f_r_mention": 0}',  # float overflow
    ],
)
def test_load_score_rows_rejects_what_json_cannot_hold(tmp_path, line):
    path = tmp_path / "rows.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_score_rows(path)
    assert err.value.line == 1


def test_load_score_rows_keeps_infinities(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text(
        '{"s_m": Infinity, "s_c": [-Infinity], "f_r_cells": [1e999], "f_r_mention": 0}\n',
        encoding="utf-8",
    )
    inf = float("inf")
    assert load_score_rows(path) == [ScoreRow(inf, (-inf,), (inf,), 0.0)]


@pytest.mark.parametrize(
    "bad, reason",
    [
        (b"\xff\xfe", "invalid start byte"),
        (
            b'{"s_m": 1.0\xe9, "s_c": [], "f_r_cells": [], "f_r_mention": 1.0}',
            "invalid continuation byte",
        ),
        (  # the byte is in a key that the row's keys hide
            b'{"s_m": 1.0, "s_c": [1.0], "\xff": [], "f_r_cells": [], "f_r_mention": 1.0}',
            "invalid start byte",
        ),
    ],
)
def test_replay_file_not_utf8_names_the_line(tmp_path, bad, reason):
    path = tmp_path / "rows.jsonl"
    good = json.dumps(ScoreRow(1.0, (), (), 1.0).to_obj()).encode()
    path.write_bytes(good + b"\n" + good + b"\n" + bad + b"\n" + good + b"\n")
    rows = iter_score_rows(path)
    assert next(rows) == next(rows) == ScoreRow(1.0, (), (), 1.0)  # served before the fault
    with pytest.raises(ParseError) as err:
        next(rows)
    assert err.value.line == 3
    assert str(err.value) == f"{path}:3: not UTF-8: {reason}"


def test_replay_file_non_ascii_utf8_is_parsed_as_json(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text(
        '{"s_m": 1.0, "s_c": [], "f_r_cells": [], "f_r_mention": "\u00e9"}\n', encoding="utf-8"
    )
    with pytest.raises(ParseError) as err:
        load_score_rows(path)
    assert "expected a number, got str" in str(err.value)


def test_replay_row_must_match_memory_exactly():
    rows = [ScoreRow(1.0, (0.5,), (2.0,), 1.0), ScoreRow(1.0, (0.5,), (), 1.0)]
    provider = ReplayScoreProvider(rows)
    provider.mention_begin(0, MentionSpan(0, 0))
    with pytest.raises(ScoreShapeMismatch) as err:
        provider.step_scores(SM_DOC, MentionSpan(0, 0), 0)  # one cell too many
    assert err.value.mention_index == 0
    provider.mention_begin(1, MentionSpan(1, 1))
    with pytest.raises(ScoreShapeMismatch):
        provider.step_scores(SM_DOC, MentionSpan(1, 1), 1)
    provider = ReplayScoreProvider(rows)
    provider.mention_begin(0, MentionSpan(0, 0))
    assert provider.step_scores(SM_DOC, MentionSpan(0, 0), 1) is rows[0]


def test_replay_rows_left_over_fail():
    provider = ReplayScoreProvider([ScoreRow(1.0, (), (), 1.0)] * 3)
    provider.mention_begin(0, MentionSpan(0, 0))
    with pytest.raises(ScoreShapeMismatch) as err:
        provider.check_exhausted()
    assert err.value.mention_index == 1
    assert "3 rows" in str(err.value)
    # check_exhausted reads the rows left, so it ends a replay.
    provider = ReplayScoreProvider([ScoreRow(1.0, (), (), 1.0)] * 3)
    for i in range(3):
        provider.mention_begin(i, MentionSpan(i, i))
    provider.check_exhausted()


def test_recording_rows_have_per_step_shapes(tmp_path):
    (doc,) = synthesize_corpus(31, 1, max_tokens=40, max_entities=4, max_mentions=12)
    mentions, _ = order_mentions(doc.gold_mentions())
    recorder = RecordingScoreProvider(gold_scorer(doc))
    result = run_document(doc, mentions, recorder, PolicyConfig(MemoryPolicy.UNBOUNDED))
    dump_score_rows(recorder.rows, tmp_path / "rows.jsonl")

    rows = load_score_rows(tmp_path / "rows.jsonl")
    assert len(rows) == len(mentions)
    cells = 0
    for row, action in zip(rows, result.stats.actions):
        assert len(row.s_c) == cells
        assert len(row.f_r_cells) == cells
        if action.kind.value == "new":
            cells += 1
    # file is plain JSON lines with the four keys
    first = json.loads((tmp_path / "rows.jsonl").read_text().splitlines()[0])
    assert set(first) == {"s_m", "s_c", "f_r_cells", "f_r_mention"}


# ---------------------------------------------------------------------------
# top-span proposal


def spans_with_scores(pairs):
    return [(MentionSpan(s, e), score) for (s, e), score in pairs]


def test_propose_top_spans_decimal_count():
    cands = spans_with_scores(
        [((0, 0), 0.9), ((1, 1), 0.1), ((2, 2), 0.5), ((3, 3), 0.8), ((4, 4), 0.3)]
    )
    # 0.3 of 10 tokens is exactly 3, not floor(2.9999...)
    chosen = propose_top_spans(cands, ratio=0.3, doc_len=10)
    assert chosen == [MentionSpan(0, 0), MentionSpan(2, 2), MentionSpan(3, 3)]


def test_propose_top_spans_breaks_ties_by_mention_order():
    cands = spans_with_scores([((5, 5), 1.0), ((1, 1), 0.5), ((3, 3), 0.5)])
    chosen = propose_top_spans(cands, ratio=0.2, doc_len=10)
    # the boundary tie between (1,1) and (3,3) goes to the earlier span
    assert chosen == [MentionSpan(1, 1), MentionSpan(5, 5)]


def test_propose_top_spans_output_in_processing_order():
    cands = spans_with_scores([((8, 8), 0.9), ((0, 2), 0.8), ((4, 4), 0.7)])
    chosen = propose_top_spans(cands, ratio=1.0, doc_len=3)
    assert chosen == [MentionSpan(0, 2), MentionSpan(4, 4), MentionSpan(8, 8)]


def test_propose_top_spans_validates_inputs():
    with pytest.raises(ValueError):
        propose_top_spans([], ratio=0.0, doc_len=5)
    with pytest.raises(ValueError):
        propose_top_spans([], ratio=0.4, doc_len=0)


@given(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 3), st.floats(-1, 1)),
        max_size=25,
    ),
    st.floats(0.05, 2.0),
    st.integers(1, 60),
)
def test_propose_top_spans_size_and_subset(raw, ratio, doc_len):
    seen = set()
    cands = []
    for start, width, score in raw:
        span = MentionSpan(start, start + width)
        if span not in seen:
            seen.add(span)
            cands.append((span, score))
    r = round(ratio, 3)
    chosen = propose_top_spans(cands, ratio=r, doc_len=doc_len)
    expected_k = int(Decimal(str(r)) * doc_len)
    assert len(chosen) == min(expected_k, len(cands))
    assert set(chosen) <= {s for s, _ in cands}
    assert chosen == sorted(chosen, key=lambda s: (s.start, s.end))
    assert propose_top_spans(cands, ratio=r, doc_len=doc_len) == chosen
