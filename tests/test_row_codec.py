"""The replay-row codec against the generic JSON reader and writer.

Lines in the layout that json.dumps(row.to_obj()) writes are decoded
without the JSON scanner, and rows are encoded without json.dumps. Every
other line and value goes the generic way. These tests pin both
directions to the references in conftest: the same rows, the same
ParseError text and line, the same bytes.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import reference_row_line, reference_score_rows
from streamcoref import ScoreRow, rowcodec
from streamcoref.ingest import ParseError
from streamcoref.rowcodec import decode_row, encode_row
from streamcoref.scoring import dump_score_rows, iter_score_rows, load_score_rows

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def outcome(rows):
    """The rows an iterator yields before it stops, and the ParseError it stops on."""
    got = []
    try:
        for row in rows:
            got.append(repr(row))  # repr tells -0.0 from 0.0 and 1 from 1.0
    except ParseError as e:
        return got, (str(e), e.path, e.line)
    return got, None


# ---------------------------------------------------------------------------
# reading

# Texts of a number json.dumps writes for a float, and texts next to them
# that JSON reads otherwise (or not at all).
canonical_numbers = st.floats(allow_nan=False).map(json.dumps)
NEAR_MISSES = [
    "-0", "0", "-0.0", "0.0", "1", "-1", "1E5", "1e5", "1e+16", "1e16", "1e400",
    "-1e400", "5e-324", "Infinity", "-Infinity", "NaN", "nan", "inf", "-inf",
    "01.0", "1.0 ", " 1.0", "1.00", "+1.0", ".5", "1.", "1_0.0", "١.0",
    "true", "false", "null", '"1.0"', "[]", "{}", "",
    "1" + "0" * 400,  # an int beyond the float range
]
numbers = canonical_numbers | st.sampled_from(NEAR_MISSES)


@st.composite
def row_lines(draw):
    """A row line in the canonical layout, with some edits to it."""
    pieces = [
        ["s_m", draw(numbers)],
        ["s_c", "[" + ", ".join(draw(st.lists(numbers, max_size=4))) + "]"],
        ["f_r_cells", "[" + ", ".join(draw(st.lists(numbers, max_size=4))) + "]"],
        ["f_r_mention", draw(numbers)],
    ]
    edit = draw(st.sampled_from(
        ["none"] * 6 + ["reorder", "duplicate", "drop", "extra", "tight", "spaced",
                        "lead", "trail", "truncate", "brace", "junk"]
    ))
    if edit == "reorder":
        pieces = draw(st.permutations(pieces))
    elif edit == "duplicate":
        pieces.insert(draw(st.integers(0, 4)), list(draw(st.sampled_from(pieces))))
    elif edit == "drop":
        del pieces[draw(st.integers(0, 3))]
    elif edit == "extra":
        pieces.insert(draw(st.integers(0, 4)), ["x", "1.0"])
    line = "{" + ", ".join(f'"{key}": {value}' for key, value in pieces) + "}"
    if edit == "tight":
        line = line.replace(", ", ",").replace(": ", ":")
    elif edit == "spaced":
        line = line.replace("[", "[ ").replace("]", " ]")
    elif edit == "lead":
        line = " " + line
    elif edit == "trail":
        line = line + " "
    elif edit == "truncate":
        line = line[: draw(st.integers(0, len(line) - 1))]
    elif edit == "brace":
        line = line + "}"
    elif edit == "junk":
        line = line + draw(st.sampled_from(["x", ",", "]", "\t", "\x0b"]))
    return line


@st.composite
def row_files(draw):
    """Row lines with blank lines between, any line ending, and maybe none at the end."""
    lines = draw(st.lists(row_lines() | st.sampled_from(["", "  "]), min_size=1, max_size=5))
    endings = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        endings[-1] = ""
    return "".join(line + end for line, end in zip(lines, endings))


@pytest.fixture(scope="module")
def rows_path(tmp_path_factory):
    return tmp_path_factory.mktemp("codec") / "rows.jsonl"


def forget():
    """Empty both caches but for the infinities, as a new process has them."""
    rowcodec._FLOATS.clear()
    rowcodec._FLOATS.update({"Infinity": math.inf, "-Infinity": -math.inf})
    rowcodec._TEXTS.clear()
    rowcodec._TEXTS.update({math.inf: "Infinity", -math.inf: "-Infinity"})


@pytest.fixture
def forget_numbers():
    forget()


# Examples start with the caches as the last one left them, or (so that
# full caches do not stop the learning for the rest of the run) empty.


@SETTINGS
@given(text=row_files(), fresh=st.booleans())
def test_reader_matches_the_generic_path(rows_path, text, fresh):
    if fresh:
        forget()
    rows_path.write_bytes(text.encode("utf-8"))
    expected = outcome(reference_score_rows(rows_path))
    # The second read meets the numbers that the first one cached.
    assert outcome(iter_score_rows(rows_path)) == expected
    assert outcome(iter_score_rows(rows_path)) == expected


@pytest.mark.parametrize("token", NEAR_MISSES)
def test_reader_matches_the_generic_path_at_each_near_miss(rows_path, token):
    for line in (
        f'{{"s_m": {token}, "s_c": [], "f_r_cells": [], "f_r_mention": 1.0}}',
        f'{{"s_m": 1.0, "s_c": [-1.0, {token}], "f_r_cells": [2.0, 3.0], "f_r_mention": 1.0}}',
        f'{{"s_m": 1.0, "s_c": [-1.0], "f_r_cells": [{token}], "f_r_mention": {token}}}',
    ):
        rows_path.write_text(line + "\n", encoding="utf-8")
        expected = outcome(reference_score_rows(rows_path))
        assert outcome(iter_score_rows(rows_path)) == expected
        assert outcome(iter_score_rows(rows_path)) == expected


def test_recorded_lines_take_the_direct_path(rows_path, forget_numbers):
    inf = math.inf
    rows = [
        ScoreRow(inf, (), (), 49.0),
        ScoreRow(1.0, (-1.0, 1.0), (48.0, 0.0), 0.0),
        ScoreRow(-0.0, (-inf, 5e-324), (1e16, 1.5e-07), -1e300),
    ]
    dump_score_rows(rows, rows_path)
    assert [repr(r) for r in load_score_rows(rows_path)] == [repr(r) for r in rows]
    # The read cached every number, so the same lines now decode from the
    # cache alone, with a "\r\n" ending or, as the last line of a file,
    # none.
    for row in rows:
        for value in (row.s_m, *row.s_c, *row.f_r_cells, row.f_r_mention):
            assert repr(rowcodec._FLOATS[json.dumps(value)]) == repr(value)
        line = encode_row(row)
        assert repr(decode_row(line)) == repr(row)
        assert repr(decode_row(line.rstrip("\n"))) == repr(row)
        assert repr(decode_row(line.replace("\n", "\r\n"))) == repr(row)


def test_codec_caches_what_the_generic_path_read(rows_path, forget_numbers):
    def read(line):
        rows_path.write_text(line, encoding="utf-8")
        return load_score_rows(rows_path)

    # Numbers spelled otherwise are cached as the generic path read them.
    line = '{"s_m": -0, "s_c": [1E5], "f_r_cells": [1], "f_r_mention": 1.0}\n'
    row = ScoreRow(0.0, (1e5,), (1.0,), 1.0)
    assert decode_row(line) is None
    assert read(line) == [row]
    assert repr(decode_row(line)) == repr(row)
    # A rejected line, or one outside the layout, teaches nothing.
    for line in (
        '{"s_m": NaN, "s_c": [], "f_r_cells": [], "f_r_mention": 2.5}\n',
        '{"s_m": 2.5, "s_c": [true], "f_r_cells": [2.5], "f_r_mention": 2.5}\n',
    ):
        with pytest.raises(ParseError):
            read(line)
    assert read('{"s_c": [], "s_m": 2.5, "f_r_cells": [], "f_r_mention": 2.5}\n')
    assert set(rowcodec._FLOATS) == {"Infinity", "-Infinity", "-0", "1E5", "1", "1.0"}
    # A key repeated between the pieces: JSON keeps its last value, and no
    # text of the line is cached against the wrong value.
    line = '{"s_m": 3.5, "s_c": [2.5], "f_r_cells": [], "s_c": [9.5], "f_r_mention": 3.5}\n'
    assert read(line) == [ScoreRow(3.5, (9.5,), (), 3.5)]
    line = '{"s_m": 3.5, "s_c": [2.5], "f_r_cells": [], "f_r_mention": 3.5}\n'
    assert decode_row(line) is None
    assert read(line) == [ScoreRow(3.5, (2.5,), (), 3.5)]
    assert decode_row(line) == ScoreRow(3.5, (2.5,), (), 3.5)


# ---------------------------------------------------------------------------
# writing


class ReprFloat(float):
    """A float whose repr is not the one json.dumps writes for it."""

    def __repr__(self):
        return f"ReprFloat({float(self)!r})"


values = (
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-07, math.inf, -math.inf, math.nan])
    | st.integers(-(10**20), 10**20)
    | st.booleans()
    | st.floats(allow_nan=False).map(ReprFloat)
)
cell_values = st.lists(values, max_size=5)
score_rows = st.builds(
    ScoreRow, values, cell_values.map(tuple) | cell_values, cell_values.map(tuple), values
)


@SETTINGS
@given(rows=st.lists(score_rows, max_size=6), fresh=st.booleans())
def test_writer_matches_json_dumps(rows_path, rows, fresh):
    if fresh:
        forget()
    expected = "".join(map(reference_row_line, rows))
    # The second pass meets the numbers that the first one cached.
    assert "".join(map(encode_row, rows)) == expected
    assert "".join(map(encode_row, rows)) == expected
    dump_score_rows(rows, rows_path)
    assert rows_path.read_bytes() == expected.encode("utf-8")


def test_writer_reads_cells_once(forget_numbers):
    # Cells that can be read only once, and a value the cache has not met.
    def row():
        return ScoreRow(2.0, iter([1.0, 123.456]), iter([1.0]), 3.0)

    assert encode_row(row()) == reference_row_line(row())


def test_writer_tells_the_zeros_apart():
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        for value in (first, second, first):
            row = ScoreRow(value, (value, -value), (value,), value)
            assert encode_row(row) == reference_row_line(row)


# ---------------------------------------------------------------------------
# bounded caches


def test_caches_stop_at_their_cap(tmp_path, forget_numbers):
    n = 50_000
    rows = [ScoreRow(i + 0.5, (-i - 0.25,), (i + 0.125,), -i - 0.5) for i in range(n)]
    path = tmp_path / "rows.jsonl"
    dump_score_rows(rows, path)
    assert path.read_text(encoding="utf-8") == "".join(map(reference_row_line, rows))
    assert [repr(r) for r in load_score_rows(path)] == [repr(r) for r in rows]
    # A cache learns a row's numbers only if all of them fit: it stops at
    # most one row (4 numbers here) short of its cap.
    for cache in (rowcodec._FLOATS, rowcodec._TEXTS):
        assert rowcodec.CACHE_CAP - 4 < len(cache) <= rowcodec.CACHE_CAP
