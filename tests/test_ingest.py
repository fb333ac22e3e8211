"""Corpus ingestion: column format, JSON lines, ordering, round trips."""

import builtins
import hashlib
import io
import json
import pickle
import random
import re
import tempfile
import textwrap
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bracket_mention_multiset, doc_to_conll, has_crossing_spans
from streamcoref import (
    ConfigError,
    Document,
    GoldCluster,
    MalformedColumnError,
    MentionSpan,
    ParseError,
    SchemaError,
    ScoreRow,
    ScoreShapeMismatch,
    UnbalancedBracketError,
    order_mentions,
    parse_conll,
    parse_jsonl,
    read_corpus,
    synthesize_corpus,
    write_jsonl,
)
from streamcoref import ingest
from streamcoref.ingest import (
    detect_format,
    document_to_jsonl,
    file_lines,
    iter_documents,
    load_conll,
    load_jsonl,
    read_chunks,
    sha256,
)

BASIC = textwrap.dedent(
    """\
    #begin document (bn/demo); part 000
    bn/demo\t0\t0\tThe\tDT\t(3
    bn/demo\t0\t1\tcouncil\tNN\t3)
    bn/demo\t0\t2\tmet\tVB\t-

    bn/demo\t0\t0\tIt\tPRP\t(3)|(7
    bn/demo\t0\t1\tadjourned\tVB\t7)
    #end document
    """
)


def test_parse_conll_spans_and_sentences():
    docs = parse_conll(BASIC, path="demo.conll")
    assert len(docs) == 1
    doc = docs[0]
    assert doc.doc_id == "bn/demo; part 000"
    assert doc.tokens == ("The", "council", "met", "It", "adjourned")
    assert doc.sentence_boundaries == (3, 5)
    by_id = {c.entity_id: c.mentions for c in doc.gold_clusters}
    assert by_id == {
        3: (MentionSpan(0, 1), MentionSpan(3, 3)),
        7: (MentionSpan(3, 4),),
    }
    # candidates default to the gold mentions, in span order, at score 0
    assert doc.candidate_mentions == (
        (MentionSpan(0, 1), 0.0),
        (MentionSpan(3, 3), 0.0),
        (MentionSpan(3, 4), 0.0),
    )


def test_parse_conll_nested_same_id():
    text = textwrap.dedent(
        """\
        #begin document (nest); part 000
        nest\t0\t0\ta\tXX\t(1
        nest\t0\t1\tb\tXX\t(1
        nest\t0\t2\tc\tXX\t1)
        nest\t0\t3\td\tXX\t1)
        #end document
        """
    )
    (doc,) = parse_conll(text)
    (cluster,) = doc.gold_clusters
    # LIFO pairing: the inner open takes the first close
    assert cluster.mentions == (MentionSpan(0, 3), MentionSpan(1, 2))


def test_parse_conll_parts_become_documents():
    text = (
        "#begin document (x); part 000\nx\t0\t0\ta\tXX\t(0)\n#end document\n"
        "#begin document (x); part 001\nx\t0\t0\tb\tXX\t(0)\n#end document\n"
    )
    docs = parse_conll(text)
    assert [d.doc_id for d in docs] == ["x; part 000", "x; part 001"]
    assert [d.tokens for d in docs] == [("a",), ("b",)]


def test_parse_conll_keeps_mentionless_documents():
    text = "#begin document (bare); part 000\nbare\t0\t0\thi\tXX\t-\n#end document\n"
    (doc,) = parse_conll(text)
    assert doc.gold_clusters == ()
    assert doc.candidate_mentions == ()
    assert doc.tokens == ("hi",)


def test_parse_conll_two_column_fallback():
    text = "#begin document (mini)\nword\t(5)\n#end document\n"
    (doc,) = parse_conll(text)
    assert doc.doc_id == "mini"
    assert doc.tokens == ("word",)
    assert doc.gold_clusters == (GoldCluster(5, (MentionSpan(0, 0),)),)


def test_parse_conll_close_without_open():
    text = "#begin document (bad); part 000\nbad\t0\t0\ta\tXX\t3)\n#end document\n"
    with pytest.raises(UnbalancedBracketError) as err:
        parse_conll(text, path="bad.conll")
    assert err.value.path == "bad.conll"
    assert err.value.line == 2


def test_parse_conll_unclosed_open_reports_open_line():
    text = (
        "#begin document (bad); part 000\n"
        "bad\t0\t0\ta\tXX\t(3\n"
        "bad\t0\t1\tb\tXX\t-\n"
        "#end document\n"
    )
    with pytest.raises(UnbalancedBracketError) as err:
        parse_conll(text)
    assert err.value.line == 2


def test_parse_conll_missing_end_document():
    text = "#begin document (bad); part 000\nbad\t0\t0\ta\tXX\t-\n"
    with pytest.raises(UnbalancedBracketError):
        parse_conll(text)


def test_parse_conll_malformed_coref_field():
    text = "#begin document (bad); part 000\nbad\t0\t0\ta\tXX\t(x\n#end document\n"
    with pytest.raises(MalformedColumnError) as err:
        parse_conll(text)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "field, message",
    [
        ("(\u0663)", "unrecognized"),  # an Arabic-Indic 3 is not entity 3
        ("(3)|\uff13)", "unrecognized"),  # nor is a fullwidth 3
        ("(" + "7" * 5000 + ")", "coreference id of 5000 digits"),
        ("(" + "7" * 5000, "coreference id of 5000 digits"),
    ],
    ids=["arabic-indic", "fullwidth", "huge-id", "huge-open"],
)
def test_parse_conll_coref_ids_are_ascii_and_bounded(field, message):
    text = f"#begin document (d); part 000\nw0\t(3)\nw1\t{field}\n#end document\n"
    with pytest.raises(MalformedColumnError) as err:
        parse_conll(text)
    assert err.value.line == 3
    assert message in str(err.value)


def test_parse_conll_content_outside_block():
    with pytest.raises(ParseError):
        parse_conll("stray\t0\t0\ta\tXX\t-\n")


def test_parse_conll_rejects_span_in_two_clusters():
    text = "#begin document (dup); part 000\nw0\t(1)|(2)\n#end document\n"
    with pytest.raises(ParseError) as err:
        parse_conll(text, path="dup.conll")
    assert (err.value.path, err.value.line) == ("dup.conll", 1)
    assert "duplicate gold mention (0,0)" in str(err.value)


@pytest.mark.parametrize(
    "error",
    [
        ParseError("bad thing", path="c.jsonl", line=5),
        ParseError("no line"),
        SchemaError("tokens", path="c.jsonl", line=3, detail="missing"),
        MalformedColumnError("bad field", path="c.conll", line=2),
        UnbalancedBracketError("never closed", path="c.conll", line=9),
        ScoreShapeMismatch(4, "row has 2 coref and 2 remaining scores for 3 cells"),
        ConfigError("bad option"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_errors_survive_pickle(error):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert back.args == error.args
    assert vars(back) == vars(error)


def test_read_chunks_keeps_order_and_budget(tmp_path, monkeypatch):
    docs = synthesize_corpus(3, 30)
    usable = [d for d in docs if not has_crossing_spans(d)]
    jsonl = tmp_path / "a.jsonl"
    conll = tmp_path / "b.conll"
    write_jsonl(docs, jsonl)
    conll.write_text("".join(doc_to_conll(d) for d in usable), encoding="utf-8")
    monkeypatch.setattr("streamcoref.ingest.CHUNK_BYTES", 2000)
    digests = []
    chunks = list(read_chunks([jsonl, conll], digests=digests))
    assert len(chunks) > 4
    assert sum(len(c) for c in chunks) == len(docs) + len(usable)
    assert read_corpus([jsonl, conll]) == docs + load_conll(conll)
    assert [p for p, _ in digests] == [str(jsonl), str(conll)]


def test_iter_documents_parses_as_it_goes(tmp_path, monkeypatch):
    docs = synthesize_corpus(3, 30)
    path = tmp_path / "a.jsonl"
    write_jsonl(docs, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    monkeypatch.setattr("streamcoref.ingest.CHUNK_BYTES", 2000)
    stream = iter_documents([path])
    assert [next(stream) for _ in docs] == docs  # read before the bad line
    with pytest.raises(ParseError) as err:
        next(stream)
    assert err.value.line == len(docs) + 1


@pytest.mark.parametrize(
    "line, reason",
    [
        ("[" * 5000, "nested too deeply"),  # RecursionError inside json.loads
        ('{"doc_id": ' + "1" * 5000 + "}", "Exceeds the limit"),  # a plain ValueError
    ],
)
def test_json_lines_beyond_the_decoder_limits_name_the_line(tmp_path, line, reason):
    path = tmp_path / "a.jsonl"
    write_jsonl(synthesize_corpus(3, 1), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    with pytest.raises(ParseError) as err:
        read_corpus([path])
    assert (err.value.path, err.value.line) == (str(path), 2)
    assert reason in str(err.value)


def test_not_utf8_names_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_jsonl(synthesize_corpus(3, 2), path)
    path.write_bytes(path.read_bytes() + b'{"doc_id": "\xff"}\n')
    with pytest.raises(ParseError) as err:
        load_jsonl(path)
    assert (err.value.path, err.value.line) == (str(path), 3)


_LINES = st.lists(st.binary(max_size=64), max_size=20).map(b"\n".join)


@given(_LINES)
def test_sha256_digests_equal_hashlib(data):
    expected = hashlib.sha256(data).hexdigest()
    assert sha256().hexdigest() == hashlib.sha256().hexdigest()
    assert sha256(data).hexdigest() == expected
    one = sha256()
    one.update(data)
    assert one.hexdigest() == expected
    by_line = sha256()
    for line in io.BytesIO(data):  # split after each b"\n", as a file is read
        by_line.update(line)
    assert by_line.hexdigest() == expected


@given(st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=20), max_size=10))
def test_file_lines_digest_equals_hashlib(lines):
    data = "\n".join(lines).encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "a.jsonl")
        Path(path).write_bytes(data)
        digests = []
        sizes = [size for _, size, _ in file_lines(path, digests)]
    assert sum(sizes) == len(data)
    assert digests == [(path, hashlib.sha256(data).hexdigest())]


def test_sha256_resolves_its_constructor_once(monkeypatch):
    imports = Counter()
    real_import = builtins.__import__

    def counting_import(name, *args, **kwargs):
        imports[name] += 1
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(ingest, "_sha256_new", None)
    monkeypatch.setattr(builtins, "__import__", counting_import)
    modules = ("_sha2", "_sha256", "hashlib")
    sha256(b"first")
    first = sum(imports[m] for m in modules)
    for i in range(99):
        sha256(bytes([i]))
    assert first >= 1
    assert sum(imports[m] for m in modules) == first
    assert imports["hashlib"] == 0  # the built-in module, not OpenSSL


def test_conll_round_trip_matches_bracket_oracle():
    docs = synthesize_corpus(11, 40, max_tokens=40, extra_candidates=0)
    usable = [d for d in docs if not has_crossing_spans(d)]
    assert len(usable) >= 20
    text = "".join(doc_to_conll(d) for d in usable)

    parsed = parse_conll(text)
    assert len(parsed) == len(usable)
    for original, back in zip(usable, parsed):
        assert back.doc_id == f"{original.doc_id}; part 000"
        assert back.tokens == original.tokens
        assert back.sentence_boundaries == original.sentence_boundaries
        assert back.gold_clusters == original.gold_clusters

    # independent recovery straight off the raw lines
    expected: Counter = Counter()
    blocks = text.split("#end document\n")[:-1]
    for doc, block in zip(usable, blocks):
        key = block.splitlines()[0].strip()
        for c in doc.gold_clusters:
            for m in c.mentions:
                expected[(key, c.entity_id, m.start, m.end)] += 1
    assert bracket_mention_multiset(text) == expected


JSON_DOC = {
    "doc_id": "j1",
    "tokens": ["a", "b", "c", "d"],
    "sentence_boundaries": [2, 4],
    "gold_clusters": [[[0, 1], [3, 3]]],
    "candidate_mentions": [[0, 1, 0.5], [2, 2, -1.25], [3, 3, 0.0]],
}


def test_parse_jsonl_minimal():
    doc = parse_jsonl(json.dumps(JSON_DOC))
    assert doc.doc_id == "j1"
    assert doc.tokens == ("a", "b", "c", "d")
    assert doc.sentence_boundaries == (2, 4)
    assert doc.gold_clusters == (
        GoldCluster(0, (MentionSpan(0, 1), MentionSpan(3, 3))),
    )
    assert doc.candidate_mentions[1] == (MentionSpan(2, 2), -1.25)
    assert doc.genre is None


def test_readme_json_examples_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    documents = [b for b in blocks if '"doc_id"' in b]
    assert documents
    for block in blocks:
        if block in documents:
            doc = parse_jsonl(block, path="README.md")
            assert doc.candidate_mentions and doc.gold_clusters
        else:
            ScoreRow.from_obj(json.loads(block))


def test_parse_jsonl_optional_fields_default():
    doc = parse_jsonl(
        json.dumps({"doc_id": "d", "tokens": ["x"], "gold_clusters": []})
    )
    assert doc.sentence_boundaries == ()
    assert doc.gold_clusters == ()
    assert doc.candidate_mentions == ()


def test_parse_jsonl_genre_passthrough():
    obj = {"doc_id": "d", "tokens": ["x"], "gold_clusters": [], "genre": "nw"}
    assert parse_jsonl(json.dumps(obj)).genre == "nw"


def test_parse_jsonl_missing_key_names_it():
    with pytest.raises(SchemaError) as err:
        parse_jsonl(json.dumps({"doc_id": "d"}))
    assert err.value.key == "tokens"


def test_parse_jsonl_ill_typed_span():
    obj = dict(JSON_DOC, gold_clusters=[[[0, "one"]]])
    with pytest.raises(SchemaError) as err:
        parse_jsonl(json.dumps(obj))
    assert err.value.key == "gold_clusters"


def test_parse_jsonl_rejects_a_score_beyond_float():
    line = json.dumps(dict(JSON_DOC, candidate_mentions=[[0, 0, 10**400]]))
    with pytest.raises(SchemaError) as err:
        parse_jsonl(line, line_no=3)
    assert err.value.key == "candidate_mentions" and err.value.line == 3


def test_parse_jsonl_rejects_invalid_document():
    obj = dict(JSON_DOC, gold_clusters=[[[0, 99]]])
    with pytest.raises(ParseError) as err:
        parse_jsonl(json.dumps(obj), path="x.jsonl", line_no=7)
    assert "invalid document" in str(err.value)
    assert err.value.line == 7


def test_parse_jsonl_rejects_non_object():
    with pytest.raises(ParseError):
        parse_jsonl("[1, 2]")
    with pytest.raises(ParseError):
        parse_jsonl("{not json")


def test_jsonl_round_trip_is_identity():
    docs = synthesize_corpus(23, 30, extra_candidates=2)
    for doc in docs:
        again = parse_jsonl(document_to_jsonl(doc))
        assert again == doc


def test_file_io_round_trip(tmp_path):
    docs = synthesize_corpus(5, 8)
    path = tmp_path / "corpus.jsonl"
    write_jsonl(docs, path)
    assert load_jsonl(path) == docs


def test_read_corpus_detects_format(tmp_path):
    docs = synthesize_corpus(7, 4)
    usable = [d for d in docs if not has_crossing_spans(d)]
    jsonl = tmp_path / "a.jsonl"
    conll = tmp_path / "b.v4_gold_conll"
    write_jsonl(usable, jsonl)
    conll.write_text("".join(doc_to_conll(d) for d in usable), encoding="utf-8")

    assert detect_format(jsonl) == "jsonl"
    assert detect_format(conll) == "conll"
    merged = read_corpus([jsonl, conll])
    assert len(merged) == 2 * len(usable)
    assert merged[: len(usable)] == usable
    assert [d.tokens for d in merged[len(usable) :]] == [d.tokens for d in usable]


def test_load_conll_from_disk(tmp_path):
    path = tmp_path / "demo.conll"
    path.write_text(BASIC, encoding="utf-8")
    docs = load_conll(path)
    assert len(docs) == 1 and docs[0].tokens[0] == "The"


@pytest.mark.parametrize(
    "space",
    ["\xa0", "\x85", "\u2028", "\x0c", "\x1c"],
    ids=["no-break-space", "next-line", "line-separator", "form-feed", "file-separator"],
)
def test_conll_columns_split_at_ascii_spaces_and_tabs_only(tmp_path, space):
    # Python's str.split and str.splitlines break at each of these; a token
    # holding one stays whole, and both readers agree.
    text = BASIC.replace("\tcouncil\t", f"\t1{space}000 \t")
    path = tmp_path / "demo.conll"
    path.write_text(text, encoding="utf-8", newline="")
    (doc,) = parse_conll(text)
    assert load_conll(path) == [doc]
    assert doc.tokens == ("The", f"1{space}000", "met", "It", "adjourned")
    (plain,) = parse_conll(BASIC)
    assert doc.gold_clusters == plain.gold_clusters
    assert doc.sentence_boundaries == plain.sentence_boundaries


def test_conll_crlf_lines_read_as_lf(tmp_path):
    path = tmp_path / "demo.conll"
    path.write_bytes(BASIC.replace("\n", "\r\n").encode("utf-8"))
    assert load_conll(path) == parse_conll(BASIC.replace("\n", "\r\n")) == parse_conll(BASIC)


def test_order_mentions_sorts_and_dedupes():
    spans = [
        MentionSpan(4, 6),
        MentionSpan(0, 2),
        MentionSpan(0, 1),
        MentionSpan(4, 6),
        MentionSpan(0, 2),
    ]
    ordered, dupes = order_mentions(spans)
    assert ordered == [MentionSpan(0, 1), MentionSpan(0, 2), MentionSpan(4, 6)]
    assert dupes == 2


@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 10)).map(
            lambda p: MentionSpan(p[0], p[0] + p[1])
        ),
        max_size=40,
    ),
    st.randoms(use_true_random=False),
)
def test_order_mentions_permutation_invariant(spans, rng):
    shuffled = list(spans)
    rng.shuffle(shuffled)
    assert order_mentions(shuffled) == order_mentions(spans)
    ordered, dupes = order_mentions(spans)
    assert len(ordered) + dupes == len(spans)
    assert ordered == sorted(set(spans), key=lambda s: (s.start, s.end))
