"""The replay-row codec: score rows to lines and back without the JSON scanner.

A replay line as dump_score_rows writes it is the text of
json.dumps(row.to_obj()):

    {"s_m": X, "s_c": [X, X], "f_r_cells": [X, X], "f_r_mention": X}

four fixed pieces with the numbers between them, each number written as
its float repr, or as Infinity or -Infinity. encode_row writes that text
and decode_row reads it back through two module-level caches, number text
to float and float to text, so that a row whose numbers are all cached
costs a few string splits and dict lookups instead of a walk of the
generic JSON encoder or scanner plus a Python call per value.

decode_row returns None for a line outside that layout or with a number
not cached; the caller then reads it the generic way, with its checks and
messages, and hands the row to remember, which caches the line's numbers.
encode_row leaves to json.dumps every row with a number not cached, and
learns the row's floats; a NaN, an int or a bool, which json.dumps writes
otherwise, is never cached. Each cache learns up to CACHE_CAP entries and
then stops learning. Rows and bytes are therefore the same as the generic
path gives, line for line.

Only replay runs and runs that record scores load this module.
"""

from __future__ import annotations

import json
import math
from itertools import islice

from .scoring import ScoreRow

_HEAD = '{"s_m": '
_S_C = ', "s_c": ['
_F_R_CELLS = '], "f_r_cells": ['
_F_R_MENTION = '], "f_r_mention": '
# Entries each cache learns at most.
CACHE_CAP = 2048
# The characters of a bare JSON number literal, Infinity included.
_NUMBER_CHARS = "0123456789.eE+-Infinity"


class _Texts(dict):
    """Float -> text, with the zeros answered apart: 0.0 and -0.0 are one
    key but two texts, so neither is kept."""

    def __missing__(self, value: float) -> str:
        if value == 0.0:
            return repr(value)
        raise KeyError(value)


# _FLOATS maps the text of one bare number literal to the float that
# json.loads and ScoreRow.from_obj make of it. _TEXTS maps a float to the
# text json.dumps writes for it.
_FLOATS = {"Infinity": math.inf, "-Infinity": -math.inf}
_TEXTS = _Texts({math.inf: "Infinity", -math.inf: "-Infinity"})
_float_of = _FLOATS.__getitem__
_text_of = _TEXTS.__getitem__
# The exact float of a float, or of a float subclass, which json.dumps
# writes by its value; TypeError for an int, a bool or anything else.
_exact = float.__float__


def encode_row(row: ScoreRow) -> str:
    """The row's replay line: json.dumps(row.to_obj()) + "\\n", byte for byte."""
    s_m, s_c, f_r_cells, f_r_mention = row
    # A row that misses the cache is read again, so its cells must be tuples.
    if type(s_c) is tuple and type(f_r_cells) is tuple:
        try:
            return (
                f"{_HEAD}{_text_of(_exact(s_m))}"
                f"{_S_C}{', '.join(map(_text_of, map(_exact, s_c)))}"
                f"{_F_R_CELLS}{', '.join(map(_text_of, map(_exact, f_r_cells)))}"
                f"{_F_R_MENTION}{_text_of(_exact(f_r_mention))}}}\n"
            )
        except KeyError:
            if len(_TEXTS) < CACHE_CAP:
                _learn_texts((s_m, *s_c, *f_r_cells, f_r_mention))
        except TypeError:
            pass
    return json.dumps(row.to_obj()) + "\n"


def _learn_texts(values: tuple) -> None:
    # Exact, finite, nonzero floats only: json.dumps writes ints, bools and
    # NaN otherwise, and the zeros and infinities are answered already.
    new = ((v, repr(v)) for v in values if type(v) is float and v and v - v == 0.0)
    _TEXTS.update(islice(new, CACHE_CAP - len(_TEXTS)))


def _pieces(line: str) -> tuple[str, str, str, str] | None:
    """The texts between the fixed pieces of the layout, or None."""
    if not line.startswith(_HEAD):
        return None
    s_m, _, rest = line[len(_HEAD) :].partition(_S_C)
    s_c, _, rest = rest.partition(_F_R_CELLS)
    f_r_cells, _, rest = rest.partition(_F_R_MENTION)
    # A piece missing empties everything after it, so the "}" is found
    # only when all four are. A "\r\n" ending is JSON whitespace, as "\n" is.
    f_r_mention, end, tail = rest.partition("}")
    if not end or tail not in ("", "\n", "\r\n"):
        return None
    return s_m, s_c, f_r_cells, f_r_mention


def _cell_scores(text: str) -> tuple[float, ...]:
    # Built from a list: see scoring._scores on tuple(map).
    return tuple(list(map(_float_of, text.split(", ")))) if text else ()


def decode_row(line: str) -> ScoreRow | None:
    """The row of a line whose every number is cached, else None.

    Each cached text is one bare number literal, so such a line holds the
    four keys alone, and its row is the one the generic path would give.
    """
    pieces = _pieces(line)
    if pieces is None:
        return None
    s_m, s_c, f_r_cells, f_r_mention = pieces
    try:
        return ScoreRow(
            _float_of(s_m), _cell_scores(s_c), _cell_scores(f_r_cells), _float_of(f_r_mention)
        )
    except KeyError:
        return None


def remember(line: str, row: ScoreRow) -> None:
    """Cache the numbers of a line in the layout that the generic path read as row."""
    if len(_FLOATS) >= CACHE_CAP:
        return
    pieces = _pieces(line)
    if pieces is None:
        return
    s_m, s_c, f_r_cells, f_r_mention = pieces
    texts = [s_m, *(s_c.split(", ") if s_c else ()), *(f_r_cells.split(", ") if f_r_cells else ())]
    texts.append(f_r_mention)
    # Only when every text is one bare number literal: then the line holds
    # no other key, and the texts and the row's values pair up in order.
    if not "".join(texts).strip(_NUMBER_CHARS):
        values = (row.s_m, *row.s_c, *row.f_r_cells, row.f_r_mention)
        _FLOATS.update(islice(zip(texts, values), CACHE_CAP - len(_FLOATS)))
