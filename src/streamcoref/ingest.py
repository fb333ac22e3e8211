"""Corpus ingestion: column-formatted coreference files and JSON-lines documents.

The column format follows the CoNLL-2012 conventions: documents are wrapped
in ``#begin document (name); part NNN`` / ``#end document`` sentinels, blank
lines separate sentences, the surface token sits in column 3 and the
coreference annotation in the last column. Columns are separated by runs
of ASCII spaces and tabs only, so a token may hold any other character (a
no-break space, a form feed). Coreference fields combine
``(id`` (mention opens here), ``id)`` (mention closes here) and ``(id)``
(single-token mention), with ``-`` meaning no annotation. A close binds to
the most recent unclosed open with the same id.

The JSON-lines format carries one document per line; see parse_jsonl for
the schema. parse -> serialize -> parse is the identity on documents that
came from JSON lines (gold entity ids are positional there).

Both parsers check every document invariant (validate_document) and raise
ParseError naming the file and line. file_lines is the one line reader of
every input file, corpus or replay: a line ends at "\n", a line that is
not UTF-8 raises ParseError, and it can hash the file's bytes as they
pass with sha256, CPython's built-in SHA-256 (never hashlib, which loads
OpenSSL). read_chunks streams corpus files through it in input order as
chunks of raw JSON lines (parsed later, possibly in a worker process, by
chunk_documents) or parsed column-format documents. iter_documents yields
the parsed documents of those chunks one at a time.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .types import Document, GoldCluster, MentionSpan, PicklableError, validate_document


class ParseError(PicklableError, ValueError):
    """Input could not be interpreted; carries file path and line number."""

    def __init__(self, message: str, *, path: str = "<input>", line: int | None = None):
        self.path = path
        self.line = line
        where = f"{path}:{line}" if line is not None else path
        super().__init__(f"{where}: {message}")


class UnbalancedBracketError(ParseError):
    """A mention close without an open, or an open left dangling."""


class MalformedColumnError(ParseError):
    """A line or coreference field that does not follow the column grammar."""


class SchemaError(ParseError):
    """A JSON document line with a missing or ill-typed key."""

    def __init__(self, key: str, *, path: str = "<input>", line: int | None = None,
                 detail: str = "missing or ill-typed"):
        self.key = key
        super().__init__(f"{detail} key {key!r}", path=path, line=line)


def _validated(doc: Document, path: str, line_no: int | None) -> Document:
    problems = validate_document(doc)
    if problems:
        raise ParseError(f"invalid document: {problems[0]}", path=path, line=line_no)
    return doc


# re.ASCII: \d would also match other scripts' digits, and int() reads
# "(٣)" as entity 3.
_BEGIN = re.compile(
    r"#begin document \((?P<name>[^)]*)\)(?:; part (?P<part>\d+))?\s*$", re.ASCII
)
_COREF_PIECE = re.compile(r"\((\d+)\)|\((\d+)|(\d+)\)", re.ASCII)
# One column: see the module docstring.
_COLUMN = re.compile(r"[^ \t]+")
_COREF_KINDS = (None, "both", "open", "close")  # by _COREF_PIECE group


def _coref_events(field: str, path: str, line_no: int) -> list[tuple[str, int]]:
    """Tokenize one coreference column into (kind, id) events, left to right."""
    if field == "-":
        return []
    events: list[tuple[str, int]] = []
    pos = 0
    while pos < len(field):
        if field[pos] == "|":
            pos += 1
            continue
        m = _COREF_PIECE.match(field, pos)
        if m is None:
            raise MalformedColumnError(
                f"unrecognized coreference annotation {field!r}", path=path, line=line_no
            )
        # One group of the three matched: "(7)", "(7" or "7)".
        digits = m.group(m.lastindex)
        try:
            events.append((_COREF_KINDS[m.lastindex], int(digits)))
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise MalformedColumnError(
                f"coreference id of {len(digits)} digits", path=path, line=line_no
            ) from None
        pos = m.end()
    return events


class _DocAccumulator:
    def __init__(self, name: str, part: str | None, begin_line: int):
        self.name = name
        self.part = part
        self.begin_line = begin_line
        self.tokens: list[str] = []
        self.boundaries: list[int] = []
        self.open_stacks: dict[int, list[tuple[int, int]]] = defaultdict(list)
        self.clusters: dict[int, list[MentionSpan]] = defaultdict(list)

    def add_token(self, cols: Sequence[str], path: str, line_no: int) -> None:
        if len(cols) < 2:
            raise MalformedColumnError("too few columns", path=path, line=line_no)
        # Canonical layout puts the token in column 3; minimal two-column
        # files put it first.
        token = cols[3] if len(cols) >= 5 else cols[0]
        t = len(self.tokens)
        self.tokens.append(token)
        for kind, cid in _coref_events(cols[-1], path, line_no):
            if kind == "open":
                self.open_stacks[cid].append((t, line_no))
            elif kind == "close":
                if not self.open_stacks[cid]:
                    raise UnbalancedBracketError(
                        f"close for id {cid} without a matching open", path=path, line=line_no
                    )
                start, _ = self.open_stacks[cid].pop()
                self.clusters[cid].append(MentionSpan(start, t))
            else:
                self.clusters[cid].append(MentionSpan(t, t))

    def end_sentence(self) -> None:
        n = len(self.tokens)
        if n and (not self.boundaries or self.boundaries[-1] != n):
            self.boundaries.append(n)

    def finish(self, path: str) -> Document:
        self.end_sentence()
        for cid, stack in self.open_stacks.items():
            if stack:
                _, line_no = stack[-1]
                raise UnbalancedBracketError(
                    f"open for id {cid} never closed", path=path, line=line_no
                )
        doc_id = self.name if self.part is None else f"{self.name}; part {self.part}"
        # Tuples built from lists, not generators: see scoring._scores.
        gold = tuple([
            GoldCluster(cid, tuple(sorted(spans)))
            for cid, spans in sorted(self.clusters.items())
        ])
        seen: set[MentionSpan] = set()
        candidates = []
        for cluster in gold:
            for span in cluster.mentions:
                if span not in seen:
                    seen.add(span)
                    candidates.append(span)
        doc = Document(
            doc_id=doc_id,
            tokens=tuple(self.tokens),
            sentence_boundaries=tuple(self.boundaries),
            candidate_mentions=tuple([(s, 0.0) for s in sorted(candidates)]),
            gold_clusters=gold,
        )
        return _validated(doc, path, self.begin_line)


def parse_conll(text: str, path: str = "<string>") -> list[Document]:
    """Parse a column-formatted file into documents.

    Each part of a multi-part source becomes its own Document; documents
    with no gold mentions are kept. Candidate mentions default to the set
    of gold mentions with score 0. A document that breaks an invariant
    (say, one span in two clusters) raises ParseError at its #begin line.
    """
    return list(_conll_documents(enumerate(text.split("\n"), start=1), path))


def _conll_documents(lines: Iterable[tuple[int, str]], path: str) -> Iterator[Document]:
    """Documents of a column-formatted file, each as soon as its #end line is read.

    A line ends at "\\n", as file_lines reads it; a "\\r" before that is
    dropped, so CRLF files read the same.
    """
    acc: _DocAccumulator | None = None
    for line_no, raw in lines:
        line = raw.rstrip("\n").removesuffix("\r").rstrip(" \t")
        if line.startswith("#begin document"):
            if acc is not None:
                raise ParseError("nested #begin document", path=path, line=line_no)
            m = _BEGIN.match(line)
            if m is None:
                raise MalformedColumnError("malformed #begin document line", path=path, line=line_no)
            acc = _DocAccumulator(m.group("name"), m.group("part"), line_no)
        elif line.startswith("#end document"):
            if acc is None:
                raise ParseError("#end document without #begin", path=path, line=line_no)
            yield acc.finish(path)
            acc = None
        elif acc is None:
            if not line or line.startswith("#"):
                continue
            raise ParseError("content outside a document block", path=path, line=line_no)
        elif not line:
            acc.end_sentence()
        elif line.startswith("#"):
            continue
        else:
            acc.add_token(_COLUMN.findall(line), path, line_no)
    if acc is not None:
        raise UnbalancedBracketError(
            "missing #end document", path=path, line=acc.begin_line
        )


def json_line(text: str, *, path: str, line_no: int | None):
    """The JSON value of one input line; ParseError when it is not JSON.

    json.loads also raises a plain ValueError (an integer of more than
    4300 digits) and RecursionError (deep nesting); both are input faults.
    """
    try:
        return json.loads(text)
    except ValueError as e:  # json.JSONDecodeError is a ValueError
        reason = e.msg if isinstance(e, json.JSONDecodeError) else str(e)
        raise ParseError(f"invalid JSON: {reason}", path=path, line=line_no) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", path=path, line=line_no) from None


# The one element type of a token list and of an index list, compared with
# type() so that a bool (an int subclass) is not taken for an index.
_STR = frozenset({str})
_INT = frozenset({int})


def _require(obj: dict, key: str, path: str, line_no: int | None):
    if key not in obj:
        raise SchemaError(key, path=path, line=line_no, detail="missing")
    return obj[key]


def parse_jsonl(line: str, *, path: str = "<string>", line_no: int | None = None) -> Document:
    """Parse one JSON document line.

    Schema: {"doc_id": str, "tokens": [str], "gold_clusters": [[[s, e], ...]],
    optional "candidate_mentions": [[s, e, score]], optional
    "sentence_boundaries": [int], optional "genre": str}. Gold entity ids
    are the positions in the gold_clusters list. The parsed document must
    satisfy every type invariant.
    """
    obj = json_line(line, path=path, line_no=line_no)
    if not isinstance(obj, dict):
        raise ParseError("document line must be a JSON object", path=path, line=line_no)

    doc_id = _require(obj, "doc_id", path, line_no)
    if not isinstance(doc_id, str):
        raise SchemaError("doc_id", path=path, line=line_no, detail="ill-typed")

    tokens = _require(obj, "tokens", path, line_no)
    if type(tokens) is not list or not _STR.issuperset(map(type, tokens)):
        raise SchemaError("tokens", path=path, line=line_no, detail="ill-typed")

    raw_clusters = _require(obj, "gold_clusters", path, line_no)
    if not isinstance(raw_clusters, list):
        raise SchemaError("gold_clusters", path=path, line=line_no, detail="ill-typed")
    # Spans are built with tuple.__new__, which MentionSpan(start, end)
    # calls, once their pair is checked. type() rather than isinstance: a
    # JSON bool is not a token index.
    new_tuple = tuple.__new__
    gold = []
    for idx, raw in enumerate(raw_clusters):
        if not isinstance(raw, list):
            raise SchemaError("gold_clusters", path=path, line=line_no, detail="ill-typed")
        mentions = []
        for pair in raw:
            if (
                type(pair) is not list
                or len(pair) != 2
                or type(pair[0]) is not int
                or type(pair[1]) is not int
            ):
                raise SchemaError("gold_clusters", path=path, line=line_no, detail="ill-typed")
            mentions.append(new_tuple(MentionSpan, pair))
        mentions.sort()
        gold.append(GoldCluster(idx, tuple(mentions)))

    candidates = []
    if "candidate_mentions" in obj:
        raw_cands = obj["candidate_mentions"]
        if not isinstance(raw_cands, list):
            raise SchemaError("candidate_mentions", path=path, line=line_no, detail="ill-typed")
        for triple in raw_cands:
            if type(triple) is not list or len(triple) != 3:
                raise SchemaError("candidate_mentions", path=path, line=line_no, detail="ill-typed")
            start, end, score = triple
            if (
                type(start) is not int
                or type(end) is not int
                or (type(score) is not float and type(score) is not int)
            ):
                raise SchemaError("candidate_mentions", path=path, line=line_no, detail="ill-typed")
            try:
                score = float(score)
            except OverflowError:  # an integer beyond the float range is no score
                raise SchemaError(
                    "candidate_mentions", path=path, line=line_no, detail="ill-typed"
                ) from None
            candidates.append((new_tuple(MentionSpan, (start, end)), score))

    boundaries: tuple[int, ...] = ()
    if "sentence_boundaries" in obj:
        raw_b = obj["sentence_boundaries"]
        if type(raw_b) is not list or not _INT.issuperset(map(type, raw_b)):
            raise SchemaError("sentence_boundaries", path=path, line=line_no, detail="ill-typed")
        boundaries = tuple(raw_b)

    genre = obj.get("genre")
    if genre is not None and not isinstance(genre, str):
        raise SchemaError("genre", path=path, line=line_no, detail="ill-typed")

    doc = Document(
        doc_id=doc_id,
        tokens=tuple(tokens),
        sentence_boundaries=boundaries,
        genre=genre,
        candidate_mentions=tuple(candidates),
        gold_clusters=tuple(gold),
    )
    return _validated(doc, path, line_no)


def document_to_jsonl(doc: Document) -> str:
    """Serialize a document to the JSON-lines schema (entity ids positional)."""
    obj: dict = {
        "doc_id": doc.doc_id,
        "tokens": list(doc.tokens),
        "sentence_boundaries": list(doc.sentence_boundaries),
        "gold_clusters": [
            [m.as_pair() for m in cluster.mentions] for cluster in doc.gold_clusters
        ],
        "candidate_mentions": [
            [span.start, span.end, score] for span, score in doc.candidate_mentions
        ],
    }
    if doc.genre is not None:
        obj["genre"] = doc.genre
    return json.dumps(obj, ensure_ascii=False)


def load_jsonl(path: str | Path) -> list[Document]:
    return read_corpus([path], "jsonl")


def load_conll(path: str | Path) -> list[Document]:
    return read_corpus([path], "conll")


def write_jsonl(docs: Iterable[Document], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(document_to_jsonl(doc) + "\n")


_CONLL_SUFFIXES = (".conll", ".v4_gold_conll", ".v9_gold_conll", ".gold_conll")


def detect_format(path: str | Path) -> str:
    name = str(path)
    if any(name.endswith(suf) for suf in _CONLL_SUFFIXES):
        return "conll"
    return "jsonl"


# A chunk closes once the source bytes it holds reach this budget (a chunk
# always holds at least one document). It is the unit of work a worker
# process gets, so it trades per-chunk overhead against load balance.
CHUNK_BYTES = 1 << 16


class SourceLine(NamedTuple):
    """One non-blank line of a JSON-lines file, not yet parsed."""

    path: str
    line_no: int
    text: str


# The SHA-256 constructor of this process, resolved by the first sha256 call.
_sha256_new = None


def sha256(data: bytes = b""):
    """A SHA-256 hash object (update, hexdigest) that has read data.

    It comes from CPython's built-in SHA-256 module (_sha2 from Python
    3.12, _sha256 before), whose import adds no measurable peak RSS, so
    that no call loads hashlib: hashlib loads and initialises OpenSSL,
    ~3.5 MB of peak RSS on Linux x86-64, Python 3.11. hashlib.sha256 is used only where neither module exists. The
    digests are the same whichever module makes them. The constructor is
    resolved once per process, since a failed import searches sys.path
    again on every attempt.
    """
    global _sha256_new
    if _sha256_new is None:
        try:
            from _sha2 import sha256 as new
        except ImportError:
            try:
                from _sha256 import sha256 as new
            except ImportError:
                from hashlib import sha256 as new
        _sha256_new = new
    return _sha256_new(data)


def file_lines(path: str, digests: list | None) -> Iterator[tuple[int, int, str]]:
    """(line number, byte count, text) per line; a line ends at "\\n".

    A line that is not UTF-8 raises ParseError with the file and line once
    the lines before it have been yielded. With digests given, appends
    (path, SHA-256 hex of the file's bytes, from sha256) once the whole
    file has been read.
    """
    hasher = sha256() if digests is not None else None
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if hasher is not None:
                hasher.update(raw)
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise ParseError(f"not UTF-8: {e.reason}", path=path, line=line_no) from None
            yield line_no, len(raw), text
    if hasher is not None:
        digests.append((path, hasher.hexdigest()))


def _jsonl_items(path: str, digests: list | None) -> Iterator[tuple[int, SourceLine]]:
    for line_no, size, text in file_lines(path, digests):
        if text.strip():
            yield size, SourceLine(path, line_no, text)


def _conll_items(path: str, digests: list | None) -> Iterator[tuple[int, Document]]:
    read = 0

    def lines():
        nonlocal read
        for line_no, size, text in file_lines(path, digests):
            read += size
            yield line_no, text

    done = 0
    for doc in _conll_documents(lines(), path):
        yield read - done, doc
        done = read


def read_chunks(
    paths: Sequence[str | Path], fmt: str = "auto", digests: list | None = None
) -> Iterator[list[SourceLine | Document]]:
    """The corpus in input order, as chunks of about CHUNK_BYTES of source.

    A chunk holds SourceLines of JSON-lines files and Documents of column
    files (which are parsed here); chunk_documents turns either into
    Documents. fmt is "auto" (by file extension), "conll" or "jsonl".
    With digests given, (path, sha256 hex) of each file is appended to it
    once the file has been read. A file that cannot be read or parsed
    raises only after the chunk of documents read before it, so its error
    surfaces in input order relative to errors in those documents.
    """
    chunk: list[SourceLine | Document] = []
    size = 0
    try:
        for p in paths:
            actual = detect_format(p) if fmt == "auto" else fmt
            if actual not in ("conll", "jsonl"):
                raise ValueError(f"unknown corpus format {actual!r}")
            items = _conll_items if actual == "conll" else _jsonl_items
            for cost, item in items(str(p), digests):
                chunk.append(item)
                size += cost
                if size >= CHUNK_BYTES:
                    yield chunk
                    chunk, size = [], 0
    except (OSError, ParseError):
        if chunk:
            yield chunk
        raise
    if chunk:
        yield chunk


def chunk_documents(chunk: Iterable[SourceLine | Document]) -> Iterator[Document]:
    """Parse (and validate) a chunk's documents one at a time, in order."""
    for item in chunk:
        if isinstance(item, SourceLine):
            yield parse_jsonl(item.text, path=item.path, line_no=item.line_no)
        else:
            yield item


def iter_documents(paths: Sequence[str | Path], fmt: str = "auto") -> Iterator[Document]:
    """The corpus's documents in input order, each parsed when asked for.

    A caller that drops each document before asking for the next holds
    one document and one chunk of source lines at a time.
    """
    for chunk in read_chunks(paths, fmt):
        yield from chunk_documents(chunk)


def read_corpus(paths: Sequence[str | Path], fmt: str = "auto") -> list[Document]:
    return list(iter_documents(paths, fmt))


def order_mentions(spans: Iterable[MentionSpan]) -> tuple[list[MentionSpan], int]:
    """Sort spans into processing order and drop exact duplicates.

    Processing order is by start, ties broken by end: the spans' tuple
    order. Of equal spans the first given is kept. Returns the ordered
    spans plus the number of duplicates removed so callers can warn.
    """
    spans = list(spans)
    ordered = sorted(set(spans))
    return ordered, len(spans) - len(ordered)
