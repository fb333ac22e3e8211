"""Fuzzing the document (JSONL and CoNLL), replay-row and `score` line
readers through the CLI.

The property is the CLI's input contract: a malformed file ends in a named
error with its documented exit code (2 parse, 4 replay shape, 5 document
alignment) and leaves no output, or the call succeeds with valid output.
Any other exception escapes main() and fails the test.
"""

import csv
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import doc_to_conll
from streamcoref import synthesize_corpus, write_jsonl
from streamcoref.cli import main
from streamcoref.ingest import document_to_jsonl

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=5),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)

# Lines no JSON value encodes: broken syntax, deep nesting, a 5000-digit
# integer (which json.loads rejects with a plain ValueError), a lone "\r"
# (which ends no line, so the lines after it keep their numbers).
raw_lines = st.sampled_from(
    ["{not json", "", "   ", "[" * 5000, "1" * 5000, '{"s_m": 1.0', "﻿{}", "NaN", " \r "]
) | st.text(max_size=20).filter(lambda t: "\n" not in t)
# Lines that are not UTF-8 text at all (most byte strings are not).
raw_bytes = st.binary(max_size=12).filter(lambda b: b"\n" not in b)


def _json_line(value) -> str:
    return json.dumps(value, allow_nan=True)


@pytest.fixture(scope="module")
def replay_case(tmp_path_factory):
    root = tmp_path_factory.mktemp("replay")
    corpus = root / "corpus.jsonl"
    write_jsonl(synthesize_corpus(5, 3, max_entities=3, max_mentions=6), corpus)
    rows = root / "recorded.jsonl"
    assert main(["run", str(corpus), "--policy", "lb", "--capacity", "2",
                 "--record-scores", str(rows)]) == 0
    return root, corpus, rows.read_text().splitlines()


scores = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-3, 3)
row_objects = st.fixed_dictionaries(
    {},
    optional={
        "s_m": scores | json_values,
        "s_c": st.lists(scores, max_size=3) | json_values,
        "f_r_cells": st.lists(scores, max_size=3) | json_values,
        "f_r_mention": scores | json_values,
    },
)


@st.composite
def replay_files(draw, recorded):
    """A recorded replay file with some rows edited, dropped or added.

    Lines are str, or bytes written as they are.
    """
    lines = list(recorded)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["replace", "drop", "insert", "append"]))
        line = draw(
            st.builds(_json_line, row_objects)
            | st.builds(_json_line, json_values)
            | raw_lines
            | raw_bytes
        )
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if edit == "replace" and lines:
            lines[at] = line
        elif edit == "drop" and lines:
            del lines[at]
        elif edit == "insert":
            lines.insert(at, line)
        else:
            lines.append(line)
    return lines


@SETTINGS
@given(data=st.data())
def test_replay_reader_fuzz(replay_case, capsys, data):
    root, corpus, recorded = replay_case
    lines = data.draw(replay_files(recorded))
    rows = root / "rows.jsonl"
    rows.write_bytes(
        b"".join((line if isinstance(line, bytes) else line.encode()) + b"\n" for line in lines)
    )
    pred, trace = root / "pred.jsonl", root / "trace.jsonl"
    code = main(["run", str(corpus), "--policy", "lb", "--capacity", "2",
                 "--scorer", f"replay:{rows}", "--out", str(pred), "--trace", str(trace)])
    err = capsys.readouterr().err
    assert code in (0, 2, 4)
    inputs = {"corpus.jsonl", "recorded.jsonl", "rows.jsonl"}
    outputs = sorted(p.name for p in root.iterdir() if p.name not in inputs)
    if code == 0:
        assert outputs == ["pred.jsonl", "trace.jsonl"]
        pred.unlink()
        trace.unlink()
    else:
        assert err.startswith("error: ")
        assert outputs == []  # no output and no temporary file
    if code == 2:
        # Lines are counted at "\n" alone, as the corpus reader counts
        # them, so the line named is one of the edited ones: a recorded
        # row is well formed.
        m = re.match(rf"error: {re.escape(str(rows))}:(\d+): ", err)
        assert m is not None, err
        assert lines[int(m.group(1)) - 1] not in recorded


# JSON values that float() would take for a score, or that are no score.
not_numbers = st.booleans() | st.text(max_size=6) | st.sampled_from(["1.0", "nan", "-Infinity"])


@SETTINGS
@given(data=st.data(), key=st.sampled_from(["s_m", "s_c", "f_r_cells", "f_r_mention"]))
def test_replay_score_that_is_not_a_number_exit_2(replay_case, capsys, data, key):
    root, corpus, recorded = replay_case
    lines = list(recorded)
    at = data.draw(st.integers(0, len(lines) - 1))
    row = json.loads(lines[at])
    value = data.draw(not_numbers)
    if key in ("s_m", "f_r_mention"):
        row[key] = value
    else:
        row[key].insert(data.draw(st.integers(0, len(row[key]))), value)
    lines[at] = _json_line(row)
    rows = root / "rows.jsonl"
    rows.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    code = main(["run", str(corpus), "--policy", "lb", "--capacity", "2",
                 "--scorer", f"replay:{rows}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {rows}:{at + 1}: malformed score row: expected a number")


@pytest.fixture(scope="module")
def score_case(tmp_path_factory):
    root = tmp_path_factory.mktemp("score")
    gold = root / "gold.jsonl"
    write_jsonl(synthesize_corpus(6, 3, max_entities=3, max_mentions=6), gold)
    pred = root / "recorded.jsonl"
    assert main(["run", str(gold), "--policy", "lb", "--capacity", "1", "--out", str(pred)]) == 0
    return root, gold, pred.read_text().splitlines()


spans = st.lists(st.integers(-2, 12), min_size=2, max_size=2) | json_values
prediction_objects = st.fixed_dictionaries(
    {},
    optional={
        "doc_id": st.sampled_from(["synth-0000", "synth-0001", "synth-0002"]) | json_values,
        "clusters": st.lists(st.lists(spans, max_size=4), max_size=4) | json_values,
        "gold_clusters": st.lists(st.lists(spans, max_size=3), max_size=3),
    },
)


@st.composite
def prediction_files(draw, recorded):
    lines = list(recorded)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["replace", "drop", "insert", "swap"]))
        line = draw(
            st.builds(_json_line, prediction_objects)
            | st.builds(_json_line, json_values)
            | raw_lines
        )
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if edit == "replace" and lines:
            lines[at] = line
        elif edit == "drop" and lines:
            del lines[at]
        elif edit == "swap" and len(lines) > 1:
            lines[at], lines[-1] = lines[-1], lines[at]
        else:
            lines.insert(at, line)
    return lines


@SETTINGS
@given(data=st.data(), pred_first=st.booleans())
def test_score_reader_fuzz(score_case, capsys, data, pred_first):
    root, gold, recorded = score_case
    lines = data.draw(prediction_files(recorded))
    pred = root / "pred.jsonl"
    pred.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    report = root / "report.json"
    report.unlink(missing_ok=True)
    files = [str(pred), str(gold)] if pred_first else [str(gold), str(pred)]
    code = main(["score", *files, "--json", str(report)])
    err = capsys.readouterr().err
    assert code in (0, 2, 5)
    if code == 0:
        values = json.loads(report.read_text())
        metrics = ("muc", "b_cubed", "ceaf_phi4")
        assert all(0.0 <= v <= 1.0 for m in metrics for v in values[m].values())
    else:
        assert err.startswith("error: ")
        assert not report.exists()


@pytest.fixture(scope="module")
def analyze_case(tmp_path_factory):
    root = tmp_path_factory.mktemp("analyze")
    docs = synthesize_corpus(8, 4, max_entities=3, max_mentions=6, extra_candidates=2)
    return root, [document_to_jsonl(d) for d in docs]


# What may land where a token, an index, a span or a score belongs.
misplaced = st.sampled_from(
    [True, False, None, 1.5, -0.0, 2.0, "3", "", [0, 1, 2], [0], [], [True, 1],
     [1.0, 2.0], ["0", "1"], [[0, 1]], {"start": 0}, 10**30, -1]
) | json_values


def _list_slots(value, out):
    """Every (list, index) pair inside value, outermost first."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            out.append((value, i))
            _list_slots(item, out)
    return out


def _ints(value, n: int) -> bool:
    return type(value) is list and len(value) == n and all(type(v) is int for v in value)


def _score(value) -> bool:
    if type(value) is not int:
        return type(value) is float
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _well_typed(obj: dict) -> bool:
    """The schema of the four edited keys; bool is not an int here, and a
    score is a number a float can hold."""
    cands = obj["candidate_mentions"]
    return (
        type(obj["tokens"]) is list and all(type(t) is str for t in obj["tokens"])
        and type(obj["sentence_boundaries"]) is list
        and all(type(b) is int for b in obj["sentence_boundaries"])
        and type(obj["gold_clusters"]) is list
        and all(type(c) is list and all(_ints(p, 2) for p in c) for c in obj["gold_clusters"])
        and type(cands) is list
        and all(
            type(c) is list and len(c) == 3 and _ints(c[:2], 2) and _score(c[2])
            for c in cands
        )
    )


@st.composite
def document_files(draw, lines):
    """Corpus lines with elements of their lists replaced by other values."""
    out = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(out) - 1))
        obj = json.loads(out[at])
        key = draw(st.sampled_from(
            ["tokens", "sentence_boundaries", "gold_clusters", "candidate_mentions"]
        ))
        slots = _list_slots(obj[key], [(obj, key)])
        container, index = draw(st.sampled_from(slots))
        container[index] = draw(misplaced)
        out[at] = _json_line(obj)
    return out, [_well_typed(json.loads(line)) for line in out]


@SETTINGS
@given(data=st.data())
def test_document_reader_fuzz(analyze_case, capsys, data):
    root, lines = analyze_case
    corpus = root / "corpus.jsonl"
    edited, well_typed = data.draw(document_files(lines))
    corpus.write_text("".join(line + "\n" for line in edited))
    code = main(["analyze", str(corpus)])
    err = capsys.readouterr().err
    assert code in (0, 2)
    if code == 0:
        assert all(well_typed)
        return
    # The first faulty line names itself, and an ill-typed line is faulty.
    m = re.match(rf"error: {re.escape(str(corpus))}:(\d+): ", err)
    assert m is not None, err
    line = int(m.group(1))
    assert all(well_typed[: line - 1])
    if not well_typed[line - 1]:
        assert "ill-typed key" in err


@pytest.fixture(scope="module")
def conll_case(tmp_path_factory):
    root = tmp_path_factory.mktemp("conll")
    docs = synthesize_corpus(9, 3, max_entities=3, max_mentions=6)
    text = "".join(doc_to_conll(d, name=f"doc{i}") for i, d in enumerate(docs))
    return root, text.encode().splitlines()


# What may land where a coreference field belongs: bad brackets, stray
# bars, other scripts' digits, an id longer than int() converts.
coref_fields = st.sampled_from(
    ["(1", "1)", "((1)", "(1))", "(1)(", "()", "(-1)", "|", "||", "(1)|", "|(2)", "(1)||(2)",
     "(٣)", "(٣", "٣)", "(１)", "(" + "9" * 5000 + ")", "(" + "9" * 5000, "(01)", "-", "--"]
) | st.text(alphabet="()|-0123456789٣ ", min_size=1, max_size=8)

# Whole lines that break the block structure or the encoding.
bad_lines = st.sampled_from([
    b"#begin document (x); part 000",  # nested, or a second document
    b"#begin document (x); part \xd9\xa3",  # "part ٣"
    b"#begin document (x",
    b"#end document",
    b"stray\t0\t0\ta\tXX\t-",
    b"tok",  # too few columns
    b"\xff\xfe\t(1)",  # not UTF-8
    b"w\t\xc3(1)",
    b"",
    b"# a comment",
])


@st.composite
def conll_files(draw, lines):
    """CoNLL lines with coreference fields, columns and lines edited."""
    out = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(out) - 1))
        edit = draw(st.sampled_from(["field", "field", "columns", "insert", "drop", "replace"]))
        cols = out[at].split(b"\t")
        if edit == "field" and len(cols) > 1:
            cols[-1] = draw(coref_fields).encode()
            out[at] = b"\t".join(cols)
        elif edit == "columns" and len(cols) > 1:
            del cols[draw(st.integers(0, len(cols) - 1))]
            out[at] = b"\t".join(cols)
        elif edit == "drop":
            del out[at]
        elif edit == "replace":
            out[at] = draw(bad_lines)
        else:
            out.insert(at, draw(bad_lines))
        if not out:
            break
    return out


@SETTINGS
@given(data=st.data())
def test_conll_reader_fuzz(conll_case, capsys, data):
    root, lines = conll_case
    edited = data.draw(conll_files(lines))
    corpus = root / "corpus.conll"
    corpus.write_bytes(b"".join(line + b"\n" for line in edited))
    out = root / "out"
    code = main(["analyze", str(corpus), "--out", str(out)])
    captured = capsys.readouterr()
    assert code in (0, 2)
    if code == 0:
        docs = int(re.match(r"documents\s+(\d+)\n", captured.out).group(1))
        with open(out / "per_document.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == docs
        assert all(0 <= int(r["mae"]) <= int(r["total_entities"]) for r in rows)
        for name in ("per_document.csv", "spread_histogram.csv"):
            (out / name).unlink()
        return
    # A named error at a line of the file, and no output.
    m = re.match(rf"error: {re.escape(str(corpus))}:(\d+): \S", captured.err)
    assert m is not None, captured.err
    assert 1 <= int(m.group(1)) <= len(edited)
    assert not out.exists() or list(out.iterdir()) == []

