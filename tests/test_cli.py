"""End-to-end command-line behavior, file outputs, and exit codes."""

import argparse
import ast
import csv
import hashlib
import json
import os
import pickle
import random
import re
import signal
import subprocess
import sys
import threading
from contextlib import contextmanager, nullcontext
from pathlib import Path

import pytest

import streamcoref
import streamcoref.ingest
from conftest import doc_to_conll, has_crossing_spans
from streamcoref import (
    Document,
    MemoryPolicy,
    PolicyConfig,
    load_jsonl,
    oracle_trackable_fraction,
    synthesize_corpus,
    synthesize_document,
    write_jsonl,
)
from streamcoref.cli import build_parser, main


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def corpus(tmp_path):
    docs = synthesize_corpus(171, 12, max_entities=5, max_mentions=15)
    path = tmp_path / "corpus.jsonl"
    write_jsonl(docs, path)
    return docs, path


def read_predictions(path):
    out = {}
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        out[obj["doc_id"]] = {
            frozenset(tuple(pair) for pair in cluster) for cluster in obj["clusters"]
        }
    return out


# ---------------------------------------------------------------------------
# synth


def test_synth_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run_cli("synth", "--seed", 9, "--docs", 6, "--out", a) == 0
    assert run_cli("synth", "--seed", 9, "--docs", 6, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(load_jsonl(a)) == 6
    assert "wrote 6 documents" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, named",
    [
        (("--docs", -1), "--docs must be at least 0, got -1"),
        (("--extra-candidates", -3), "--extra-candidates must be at least 0, got -3"),
        (("--min-entities", 0), "--min-entities must be at least 1, got 0"),
        (("--min-entities", 5, "--max-entities", 4),
         "--max-entities must be at least --min-entities (5), got 4"),
        (("--max-entities", 9, "--max-mentions", 8),
         "--max-mentions must be at least --max-entities (9), got 8"),
        (("--max-tokens", 0),
         "--max-tokens must be at least 8 (8, and 2 per --min-entities), got 0"),
        (("--min-entities", 6, "--max-tokens", 11), "--max-tokens must be at least 12"),
    ],
    ids=["docs", "extra-candidates", "min-entities", "max-entities", "max-mentions",
         "max-tokens", "max-tokens-for-entities"],
)
def test_synth_rejects_flags_it_would_clamp(tmp_path, capsys, flags, named):
    out = tmp_path / "synth.jsonl"
    assert run_cli("synth", "--seed", 1, *flags, "--out", out) == 3
    assert capsys.readouterr().err.startswith(f"error: {named}")
    assert not out.exists()


def test_synth_flags_at_their_floors(tmp_path, capsys):
    out = tmp_path / "synth.jsonl"
    argv = ("--docs", 0, "--extra-candidates", 0, "--min-entities", 4, "--max-entities", 4,
            "--max-mentions", 4, "--max-tokens", 8)
    assert run_cli("synth", "--seed", 1, *argv, "--out", out) == 0
    assert out.read_bytes() == b""
    assert run_cli("synth", "--seed", 1, *argv[2:], "--docs", 3, "--out", out) == 0
    docs = load_jsonl(out)
    assert [len(d.gold_clusters) for d in docs] == [4, 4, 4]
    assert all(len(d) == 8 and len(d.gold_mentions()) == 4 for d in docs)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_prints_stats_and_writes_csv(tmp_path, corpus, capsys):
    docs, path = corpus
    outdir = tmp_path / "stats"
    assert run_cli("analyze", path, "--buckets", 5, "--out", outdir) == 0
    out = capsys.readouterr().out
    assert "Max. Total Entity Count" in out
    assert "Max. Active Entity Count" in out
    assert "no singletons" in out

    with open(outdir / "per_document.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["doc_id", "mae", "total_entities", "doc_len"]
    assert len(rows) == len(docs) + 1

    with open(outdir / "spread_histogram.csv") as fh:
        hist = list(csv.reader(fh))
    assert hist[0] == ["bucket_lo", "bucket_hi", "count"]
    assert len(hist) == 6
    total = sum(int(r[2]) for r in hist[1:])
    assert total == sum(len(d.gold_clusters) for d in docs)


def test_analyze_reads_conll(tmp_path, capsys):
    docs = [d for d in synthesize_corpus(19, 6) if not has_crossing_spans(d)]
    path = tmp_path / "c.v4_gold_conll"
    path.write_text("".join(doc_to_conll(d) for d in docs), encoding="utf-8")
    assert run_cli("analyze", path) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("documents"))
    assert int(line.split()[-1]) == len(docs)


# ---------------------------------------------------------------------------
# run + score


@pytest.mark.parametrize("command", ["analyze", "oracle"])
def test_failed_analyze_or_oracle_leaves_no_output(tmp_path, corpus, monkeypatch, capsys, command):
    docs, path = corpus
    lines = path.read_text().splitlines(keepends=True)
    lines[-2] = "{not json\n"  # late: earlier chunks are already written out
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines))
    monkeypatch.setattr(streamcoref.ingest, "CHUNK_BYTES", 600)
    out = tmp_path / "out"
    out.mkdir()
    argv = [out] if command == "analyze" else [out / "oracle.jsonl", "--policy", "unbounded"]
    assert run_cli(command, bad, "--out", *argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}:{len(docs) - 1}: invalid JSON")
    assert list(out.iterdir()) == []  # no output and no temporary file


def test_run_gold_unbounded_reproduces_and_scores_100(tmp_path, corpus, capsys):
    docs, path = corpus
    pred = tmp_path / "pred.jsonl"
    assert run_cli("run", path, "--policy", "unbounded", "--out", pred) == 0
    out = capsys.readouterr().out
    assert "policy               unbounded" in out
    assert "ignored (invalid)    0" in out

    got = read_predictions(pred)
    for doc in docs:
        want = {
            frozenset((m.start, m.end) for m in c.mentions) for c in doc.gold_clusters
        }
        assert got[doc.doc_id] == want

    report_path = tmp_path / "report.json"
    assert run_cli("score", path, pred, "--json", report_path) == 0
    table = capsys.readouterr().out
    assert "MUC" in table and "CEAF-phi4" in table and "100.0" in table
    report = json.loads(report_path.read_text())
    assert report["conll_f1"] == pytest.approx(1.0)
    assert report["muc"]["f1"] == pytest.approx(1.0)


def test_run_is_deterministic_and_manifested(tmp_path, corpus):
    _, path = corpus
    outs = []
    for tag in ("one", "two"):
        pred = tmp_path / f"{tag}.jsonl"
        manifest = tmp_path / f"{tag}.manifest.json"
        trace = tmp_path / f"{tag}.trace.jsonl"
        code = run_cli(
            "run", path, "--policy", "lb", "--capacity", 3,
            "--out", pred, "--manifest", manifest, "--trace", trace,
        )
        assert code == 0
        outs.append((pred.read_bytes(), trace.read_bytes(), manifest.read_bytes()))
    assert outs[0] == outs[1]
    manifest = json.loads(outs[0][2])
    assert manifest["config"]["policy"] == "lb"
    assert manifest["config"]["capacity"] == 3
    assert "seed" not in manifest["config"]  # run takes no seed
    assert all(len(d["digest"]) == 64 for d in manifest["documents"])


def test_manifest_records_string_match_options(tmp_path, corpus):
    _, path = corpus
    configs = []
    for tag, extra in (("default", ()), ("strip", ("--strip-determiners",))):
        manifest = tmp_path / f"{tag}.manifest.json"
        code = run_cli(
            "run", path, "--scorer", "string-match", *extra, "--manifest", manifest
        )
        assert code == 0
        configs.append(json.loads(manifest.read_text())["config"])
    default, strip = configs
    assert default != strip
    assert (default["lowercase"], default["strip_determiners"]) == (True, False)
    assert (strip["lowercase"], strip["strip_determiners"]) == (True, True)


def test_run_parallel_matches_sequential(tmp_path, corpus, monkeypatch, capsys):
    _, path = corpus
    # Small chunks: the pool gets several, more than its window holds.
    monkeypatch.setattr(streamcoref.ingest, "CHUNK_BYTES", 600)
    outputs = ("pred.jsonl", "trace.jsonl", "manifest.json", "rows.jsonl")
    for scorer in ("gold", "string-match"):
        runs = []
        for jobs in (1, 2, 3):
            out = tmp_path / f"{scorer}-{jobs}"
            out.mkdir()
            code = run_cli(
                "run", path, "--scorer", scorer, "--policy", "rb", "--capacity", 2,
                "--jobs", jobs, "--out", out / outputs[0], "--trace", out / outputs[1],
                "--manifest", out / outputs[2], "--record-scores", out / outputs[3],
            )
            assert code == 0
            runs.append(
                [capsys.readouterr().out] + [(out / name).read_bytes() for name in outputs]
            )
        assert runs[0] == runs[1] == runs[2], scorer


def test_worker_count():
    from streamcoref.ingest import CHUNK_BYTES
    from streamcoref.pipeline import worker_count

    big = CHUNK_BYTES + 1
    assert worker_count(64, big, cpus=2) == 2
    assert worker_count(3, big, cpus=8) == 3
    assert worker_count(0, big, cpus=4) == 1
    assert worker_count(8, CHUNK_BYTES, cpus=8) == 1  # one chunk: no pool
    assert 1 <= worker_count(10**6, big) <= (os.cpu_count() or 1)


@pytest.mark.parametrize("scorer", ["gold", "string-match"])
def test_run_function_survives_pickle(tmp_path, corpus, monkeypatch, capsys, scorer):
    """The per-document function that run builds pickles, as the pool sends
    it, and the copy that comes back runs the same."""
    from streamcoref import pipeline

    real = pipeline.ordered_outputs

    def ordered_outputs(fn, chunks, workers=1):
        data = pickle.dumps(fn, pickle.HIGHEST_PROTOCOL)
        back = pickle.loads(data)
        assert pickle.dumps(back, pickle.HIGHEST_PROTOCOL) == data
        return real(back, chunks, workers)

    _, path = corpus
    runs = []
    for name in ("direct", "pickled"):
        if name == "pickled":
            monkeypatch.setattr(pipeline, "ordered_outputs", ordered_outputs)
        out = tmp_path / name
        out.mkdir()
        assert run_cli(
            "run", path, "--scorer", scorer, "--strip-determiners", "--policy", "lb",
            "--capacity", 2, "--proposal-ratio", 0.6, "--out", out / "pred.jsonl",
            "--trace", out / "trace.jsonl", "--record-scores", out / "rows.jsonl",
        ) == 0
        runs.append([capsys.readouterr().out] + [
            (out / f).read_bytes() for f in ("pred.jsonl", "trace.jsonl", "rows.jsonl")
        ])
    assert runs[0] == runs[1]


def test_run_one_serializes_only_the_outputs_asked_for():
    from streamcoref import run_document
    from streamcoref.pipeline import document_mentions, run_one
    from streamcoref.scoring import GoldScoreProvider

    doc = synthesize_document(random.Random(8), 'doc "8" \u00e9', max_mentions=30)
    policy = PolicyConfig(MemoryPolicy.LEARNED_BOUNDED, capacity=2)
    settings = dict(provider=GoldScoreProvider, policy=policy, ratio=None, trace=False, record=False)
    bare = run_one(doc, out=False, manifest=False, **settings)
    full = run_one(doc, out=True, manifest=True, **settings)
    assert bare.prediction == bare.digest == ""
    assert bare._replace(prediction=full.prediction, digest=full.digest) == full

    clusters = run_document(doc, document_mentions(doc, None), GoldScoreProvider(), policy)[0]
    assert len(clusters) > 1
    assert full.prediction == json.dumps({"doc_id": doc.doc_id, "clusters": clusters}) + "\n"
    assert full.digest == hashlib.sha256(json.dumps(clusters).encode()).hexdigest()


_LINUX = sys.platform.startswith("linux")


@pytest.mark.skipif(not _LINUX, reason="workers fork on Linux")
def test_pool_workers_fork_on_linux():
    from streamcoref.pipeline import start_method

    assert start_method() == "fork"


@pytest.mark.parametrize(
    "attr, value",
    [
        ("platform", "darwin"),
        ("platform", "win32"),
    ],
)
def test_pool_workers_spawn_where_fork_is_unsafe(monkeypatch, attr, value):
    from streamcoref.pipeline import start_method

    monkeypatch.setattr(sys, attr, value)
    assert start_method() == "spawn"


def test_pool_workers_spawn_beside_another_thread():
    import threading

    from streamcoref.pipeline import start_method

    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert start_method() == "spawn"
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()


def test_pool_workers_spawn_without_fork(monkeypatch):
    from streamcoref.pipeline import start_method

    monkeypatch.delattr(os, "fork")
    assert start_method() == "spawn"


@pytest.fixture(scope="module")
def three_chunk_corpus(tmp_path_factory):
    """A corpus of at least three default-size chunks, so --jobs 2 uses a pool."""
    path = tmp_path_factory.mktemp("pool") / "corpus.jsonl"
    write_jsonl(synthesize_corpus(23, 400, max_entities=5, max_mentions=15), path)
    assert path.stat().st_size > 2 * streamcoref.ingest.CHUNK_BYTES
    return path


def _cli_process(*argv) -> subprocess.CompletedProcess:
    """The CLI in a new interpreter, stdout piped and so block-buffered."""
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-m", "streamcoref.cli", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_pool_prints_once_and_matches_one_worker(tmp_path, three_chunk_corpus):
    outputs = ("pred.jsonl", "trace.jsonl", "rows.jsonl", "manifest.json")
    runs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        out.mkdir()
        proc = _cli_process(
            "run", three_chunk_corpus, "--policy", "rb", "--capacity", 3, "--jobs", jobs,
            "--out", out / outputs[0], "--trace", out / outputs[1],
            "--record-scores", out / outputs[2], "--manifest", out / outputs[3],
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("documents            400\n") == 1
        runs.append([proc.stdout] + [(out / name).read_bytes() for name in outputs])
    assert runs[0] == runs[1]


def test_failed_pool_run_leaves_no_file(tmp_path, three_chunk_corpus):
    lines = three_chunk_corpus.read_text().splitlines(keepends=True)
    lines[-3] = "{not json\n"  # in the last chunk, after the pool has started
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines))
    out = tmp_path / "out"
    out.mkdir()
    proc = _cli_process(
        "run", bad, "--jobs", 2, "--out", out / "pred.jsonl", "--trace", out / "trace.jsonl",
        "--record-scores", out / "rows.jsonl", "--manifest", out / "manifest.json",
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {bad}:{len(lines) - 2}: invalid JSON")
    assert list(out.iterdir()) == []  # no output and no temporary file


class _TwoArgError(Exception):
    """An error whose pickle cannot rebuild it: __init__ takes two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def _second_chunk_fails(how):
    """A chunk_documents that parses a worker's first chunk and fails on its next.

    Forked workers inherit it, and each counts its own calls. It never
    fails in the test's own process.
    """
    from streamcoref import pipeline

    real, calls, parent = pipeline.chunk_documents, [], os.getpid()

    def chunk_documents(chunk):
        calls.append(None)
        if len(calls) > 1 and os.getpid() != parent:
            how()
        return real(chunk)

    return chunk_documents


def _raise(error):
    def how():
        raise error

    return how


@pytest.fixture()
def pool_deadline():
    """Fail a pool run that has not ended in 120 s, instead of hanging."""
    if not hasattr(signal, "SIGALRM"):  # not on Windows
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("the run did not end in 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    if hasattr(os, "WNOHANG"):  # not on Windows
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(
    not _LINUX or len(os.sched_getaffinity(0)) < 2,
    reason="the failing chunk_documents reaches forked workers only, and --jobs 2 needs 2 CPUs",
)
@pytest.mark.parametrize(
    "how, error, message",
    [
        (lambda: os._exit(3), "WorkerError", r"worker process \d+ exited with code 3"),
        (_raise(KeyError("boom")), "KeyError", "boom"),
        (_raise(_TwoArgError("a", "b")), "WorkerError", "a worker raised _TwoArgError: a/b"),
    ],
    ids=["worker-exits", "worker-raises", "error-not-picklable"],
)
def test_failed_worker_ends_the_run(
    tmp_path, three_chunk_corpus, monkeypatch, capsys, pool_deadline, how, error, message
):
    from streamcoref import pipeline

    monkeypatch.setattr(pipeline, "chunk_documents", _second_chunk_fails(how))
    out = tmp_path / "out"
    out.mkdir()
    argv = ("run", three_chunk_corpus, "--jobs", 2, "--out", out / "pred.jsonl",
            "--trace", out / "trace.jsonl", "--manifest", out / "manifest.json")
    if error == "WorkerError":
        assert run_cli(*argv) == 6
        assert re.fullmatch(f"error: {message}.*\n", capsys.readouterr().err)
    else:
        with pytest.raises(KeyError, match=message):
            run_cli(*argv)
    assert list(out.iterdir()) == []  # no output and no temporary file
    _assert_no_child_left()


@pytest.mark.skipif(
    not _LINUX or len(os.sched_getaffinity(0)) < 2,
    reason="the recording chunk_documents reaches forked workers only, and --jobs 2 needs 2 CPUs",
)
def test_corpus_from_a_fifo_runs_on_workers(
    tmp_path, three_chunk_corpus, monkeypatch, capsys, pool_deadline
):
    """A FIFO's size reads 0, yet its corpus is split among the workers."""
    from streamcoref import pipeline

    pids = tmp_path / "pids"
    real = pipeline.chunk_documents

    def chunk_documents(chunk):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(chunk)

    monkeypatch.setattr(pipeline, "chunk_documents", chunk_documents)
    fifo = tmp_path / "corpus.fifo"
    os.mkfifo(fifo)
    # A writer process, not a thread: with a second thread running, the
    # pool spawns its workers, and the patch above reaches forked ones only.
    copy = "import shutil, sys; shutil.copyfileobj(open(sys.argv[1], 'rb'), open(sys.argv[2], 'wb'))"
    writer = subprocess.Popen([sys.executable, "-c", copy, three_chunk_corpus, fifo])
    try:
        assert run_cli("run", fifo, "--jobs", 2, "--out", tmp_path / "fifo.jsonl") == 0
    finally:
        writer.kill()  # it has exited unless the run failed before reading the FIFO
        writer.wait()
    summary = capsys.readouterr().out
    assert {int(pid) for pid in pids.read_text().split()} - {os.getpid()}
    assert run_cli("run", three_chunk_corpus, "--jobs", 1, "--out", tmp_path / "file.jsonl") == 0
    assert capsys.readouterr().out == summary
    assert (tmp_path / "fifo.jsonl").read_bytes() == (tmp_path / "file.jsonl").read_bytes()


@pytest.mark.parametrize("bad_line", [b"{not json\n", b"\xff\n"], ids=["worker", "reader"])
def test_parse_error_in_last_chunk_ends_the_pool(
    tmp_path, three_chunk_corpus, capsys, pool_deadline, bad_line
):
    lines = three_chunk_corpus.read_bytes().splitlines(keepends=True)
    lines[-3] = bad_line  # parsed by a worker, or failing in this process's reader
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"".join(lines))
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli("run", bad, "--jobs", 2, "--out", out / "pred.jsonl",
                   "--record-scores", out / "rows.jsonl") == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}:{len(lines) - 2}: ")
    assert list(out.iterdir()) == []
    _assert_no_child_left()


def test_spawned_workers_match_one_worker(tmp_path, corpus, monkeypatch, capsys, pool_deadline):
    from streamcoref import pipeline

    _, path = corpus
    monkeypatch.setattr(streamcoref.ingest, "CHUNK_BYTES", 600)
    outputs = ("pred.jsonl", "trace.jsonl", "manifest.json", "rows.jsonl")
    runs = []
    for jobs in (1, 2):
        if jobs == 2:
            monkeypatch.setattr(pipeline, "start_method", lambda: "spawn")
            if hasattr(os, "fork"):
                monkeypatch.delattr(os, "fork")  # proves no worker is forked
        out = tmp_path / f"jobs{jobs}"
        out.mkdir()
        code = run_cli(
            "run", path, "--scorer", "string-match", "--policy", "lb", "--capacity", 2,
            "--jobs", jobs, "--out", out / outputs[0], "--trace", out / outputs[1],
            "--manifest", out / outputs[2], "--record-scores", out / outputs[3],
        )
        assert code == 0
        runs.append([capsys.readouterr().out] + [(out / name).read_bytes() for name in outputs])
    assert runs[0] == runs[1]
    _assert_no_child_left()


def test_jobs_is_a_run_option_only(corpus):
    _, path = corpus
    for argv in (("analyze", path), ("oracle", path, "--policy", "unbounded"),
                 ("score", path, path)):
        with pytest.raises(SystemExit):
            run_cli(*argv, "--jobs", 2)


def test_bad_line_fails_alike_under_any_jobs(tmp_path, corpus, monkeypatch, capsys):
    docs, path = corpus
    lines = path.read_text().splitlines(keepends=True)
    lines[6] = '{"doc_id": "d7", "tokens": ["a"], "gold_clusters": [[[0, 0]], [[0, 0]]]}\n'
    lines[10] = "{not json\n"  # a later error, in a later chunk
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines))
    monkeypatch.setattr(streamcoref.ingest, "CHUNK_BYTES", 600)
    errors = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        out.mkdir()
        code = run_cli(
            "run", bad, "--jobs", jobs, "--out", out / "pred.jsonl",
            "--trace", out / "trace.jsonl", "--manifest", out / "manifest.json",
            "--record-scores", out / "rows.jsonl",
        )
        assert code == 2
        errors.append(capsys.readouterr().err)
        assert list(out.iterdir()) == []  # no output and no temporary file
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"error: {bad}:7: invalid document: duplicate gold mention")


def test_errors_are_reported_in_input_order(tmp_path, corpus, monkeypatch, capsys):
    _, path = corpus
    monkeypatch.setattr(streamcoref.ingest, "CHUNK_BYTES", 600)
    lines = path.read_text().splitlines(keepends=True)
    first = tmp_path / "first.jsonl"
    first.write_text("".join(lines[:5]) + '{"doc_id": "d"}\n')  # parsed with its chunk
    second = tmp_path / "second.jsonl"
    second.write_bytes(b"\xff\n")  # fails in the reader, which runs ahead
    errors = []
    for jobs in (1, 2):
        assert run_cli("run", first, second, "--jobs", jobs) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"error: {first}:6: missing key 'tokens'\n"


def test_manifest_records_input_digests(tmp_path, corpus):
    docs, path = corpus
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")

    def manifest_of(*inputs, options=()):
        manifest = tmp_path / "manifest.json"
        assert run_cli("run", *inputs, *options, "--manifest", manifest) == 0
        text = manifest.read_text()
        obj = json.loads(text)
        assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"
        return obj

    assert manifest_of(empty)["documents"] == []
    before = manifest_of(path, empty)["input_digests"]
    assert before == [
        {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()},
        {"path": str(empty), "sha256": hashlib.sha256(b"\n").hexdigest()},
    ]
    write_jsonl(docs[:-1], path)
    after = manifest_of(path, empty)["input_digests"]
    assert after[0]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert after[0] != before[0] and after[1] == before[1]
    # A replay file is an input too: its entry follows the corpus files'.
    rows = tmp_path / "rows.jsonl"
    assert run_cli("run", path, empty, "--record-scores", rows) == 0
    replayed = manifest_of(path, empty, options=("--scorer", f"replay:{rows}"))
    assert replayed["input_digests"] == after + [
        {"path": str(rows), "sha256": hashlib.sha256(rows.read_bytes()).hexdigest()}
    ]


def test_manifest_text_escapes_doc_ids(tmp_path, corpus):
    # Entries are written from a template: their text must still be exactly
    # what json.dumps of the whole manifest gives, escapes included.
    docs, _ = corpus
    ids = ['say "hi"', "back\\slash", "caf\u00e9 \u6587\u66f8", "tab\tbell\x07", "plain"]
    path = tmp_path / "odd_ids.jsonl"
    write_jsonl([Document(doc_id=i, tokens=d.tokens, gold_clusters=d.gold_clusters)
                 for i, d in zip(ids, docs)], path)
    manifest = tmp_path / "manifest.json"
    assert run_cli("run", path, "--manifest", manifest) == 0
    text = manifest.read_text(encoding="utf-8")
    obj = json.loads(text)
    assert [d["doc_id"] for d in obj["documents"]] == ids
    assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_run_jobs_env_fallback(tmp_path, corpus, monkeypatch):
    _, path = corpus
    monkeypatch.setenv("COREF_JOBS", "2")
    env_out = tmp_path / "env.jsonl"
    assert run_cli("run", path, "--out", env_out) == 0
    monkeypatch.delenv("COREF_JOBS")
    one_out = tmp_path / "one.jsonl"
    assert run_cli("run", path, "--out", one_out) == 0
    assert env_out.read_bytes() == one_out.read_bytes()


def test_record_then_replay_is_byte_identical(tmp_path, corpus):
    _, path = corpus
    for policy_args in (
        ("--policy", "unbounded"),
        ("--policy", "ustar", "--singletons", "drop"),
        ("--policy", "lb", "--capacity", 3),
        ("--policy", "rb", "--capacity", 3),
    ):
        tag = policy_args[1]
        rows = tmp_path / f"{tag}.scores.jsonl"
        live_trace = tmp_path / f"{tag}.live.jsonl"
        replay_trace = tmp_path / f"{tag}.replay.jsonl"
        assert (
            run_cli(
                "run", path, *policy_args,
                "--scorer", "string-match",
                "--record-scores", rows, "--trace", live_trace,
            )
            == 0
        )
        assert (
            run_cli(
                "run", path, *policy_args,
                "--scorer", f"replay:{rows}", "--trace", replay_trace,
            )
            == 0
        )
        assert live_trace.read_bytes() == replay_trace.read_bytes()


def test_replay_shape_error_exit_code(tmp_path, corpus):
    _, path = corpus
    rows = tmp_path / "rows.jsonl"
    assert run_cli("run", path, "--record-scores", rows) == 0
    lines = rows.read_text().splitlines()
    rows.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
    assert run_cli("run", path, "--scorer", f"replay:{rows}") == 4


def test_replay_row_with_extra_cells_exit_4(tmp_path, corpus, capsys):
    _, path = corpus
    rows = tmp_path / "rows.jsonl"
    assert run_cli("run", path, "--record-scores", rows) == 0
    lines = [json.loads(l) for l in rows.read_text().splitlines()]
    lines[0]["s_c"].append(-1.0)
    lines[0]["f_r_cells"].append(0.0)
    rows.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
    pred = tmp_path / "pred.jsonl"
    assert run_cli("run", path, "--scorer", f"replay:{rows}", "--out", pred) == 4
    assert "mention 0:" in capsys.readouterr().err
    assert not pred.exists()


def test_replay_rows_left_over_exit_4(tmp_path, corpus, capsys):
    docs, path = corpus
    rows = tmp_path / "rows.jsonl"
    assert run_cli("run", path, "--record-scores", rows) == 0
    one = tmp_path / "one.jsonl"
    write_jsonl(docs[:1], one)
    pred = tmp_path / "pred.jsonl"
    assert run_cli("run", one, "--scorer", f"replay:{rows}", "--out", pred) == 4
    assert "rows but the run used" in capsys.readouterr().err
    assert not pred.exists()


@pytest.mark.parametrize(
    "case, code, message",
    [
        ("bad-row-after-the-last-used-row", 2, ":{rows}: invalid JSON"),
        ("short-row-before-a-bad-row", 4, "mention 1: row has 0 coref"),
    ],
)
def test_replay_errors_come_in_row_order(tmp_path, corpus, capsys, case, code, message):
    docs, path = corpus
    rows = tmp_path / "rows.jsonl"
    assert run_cli("run", path, "--record-scores", rows) == 0
    lines = rows.read_text().splitlines()
    if case == "short-row-before-a-bad-row":
        row = json.loads(lines[1])
        row["s_c"], row["f_r_cells"] = [], []  # the second mention meets one cell
        lines[1] = json.dumps(row)
        lines[-1] = "{not json"
    else:
        lines.append("{not json")
    rows.write_text("\n".join(lines) + "\n", encoding="utf-8")
    pred, trace = tmp_path / "pred.jsonl", tmp_path / "trace.jsonl"
    argv = ("run", path, "--scorer", f"replay:{rows}", "--out", pred, "--trace", trace)
    assert run_cli(*argv) == code
    assert message.format(rows=len(lines)) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "rows.jsonl"]


@pytest.mark.parametrize("shape_error_first", [False, True])
def test_replay_file_not_utf8_exit_2(tmp_path, corpus, capsys, shape_error_first):
    _, path = corpus
    rows = tmp_path / "rows.jsonl"
    assert run_cli("run", path, "--record-scores", rows) == 0
    lines = rows.read_bytes().splitlines(keepends=True)
    if shape_error_first:
        row = json.loads(lines[1])
        row["s_c"], row["f_r_cells"] = [], []  # the second mention meets one cell
        lines[1] = (json.dumps(row) + "\n").encode()
        lines[-1] = b"\xff\xfe\n"
    else:
        lines.append(b"\xff\xfe\n")
    rows.write_bytes(b"".join(lines))
    pred = tmp_path / "pred.jsonl"
    code = run_cli("run", path, "--scorer", f"replay:{rows}", "--out", pred)
    err = capsys.readouterr().err
    if shape_error_first:
        assert code == 4
        assert "mention 1: row has 0 coref" in err
    else:
        assert code == 2
        assert err == f"error: {rows}:{len(lines)}: not UTF-8: invalid start byte\n"
    assert not pred.exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda line: "{not json",
        lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "s_c"}),
        lambda line: line.replace('"s_m": Infinity', '"s_m": NaN'),
        # A lone "\r" ends no line: the two rows it joins are one line of
        # invalid JSON, as in a corpus file.
        lambda line: line + "\r" + line,
    ],
    ids=["not-json", "missing-key", "nan-s_m", "lone-cr"],
)
def test_malformed_replay_file_exit_2(tmp_path, corpus, capsys, edit):
    _, path = corpus
    rows = tmp_path / "rows.jsonl"
    assert run_cli("run", path, "--record-scores", rows) == 0
    lines = rows.read_text().splitlines()
    edited = edit(lines[2])
    assert edited != lines[2]
    lines[2] = edited
    rows.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_cli("run", path, "--scorer", f"replay:{rows}") == 2
    assert f"{rows}:3:" in capsys.readouterr().err


def test_run_proposal_ratio(tmp_path, corpus, capsys):
    _, path = corpus
    pred = tmp_path / "pred.jsonl"
    assert run_cli("run", path, "--proposal-ratio", 0.2, "--out", pred) == 0
    # fewer candidates reach the engine, so some gold mentions are missing
    assert pred.exists()


def test_run_reads_conll_format(tmp_path):
    docs = [d for d in synthesize_corpus(29, 5) if not has_crossing_spans(d)]
    src = tmp_path / "c.gold_conll"
    src.write_text("".join(doc_to_conll(d) for d in docs), encoding="utf-8")
    pred = tmp_path / "pred.jsonl"
    assert run_cli("run", src, "--format", "conll", "--out", pred) == 0
    assert len(read_predictions(pred)) == len(docs)


def test_score_conll_gold_against_jsonl_predictions(tmp_path):
    docs = [d for d in synthesize_corpus(37, 5) if not has_crossing_spans(d)]
    gold_path = tmp_path / "gold.v4_gold_conll"
    gold_path.write_text("".join(doc_to_conll(d) for d in docs), encoding="utf-8")
    pred = tmp_path / "pred.jsonl"
    assert run_cli("run", gold_path, "--out", pred) == 0
    assert run_cli("score", gold_path, pred) == 0


def test_score_singleton_drop_flag(tmp_path, corpus, capsys):
    _, path = corpus
    pred = tmp_path / "pred.jsonl"
    assert run_cli("run", path, "--out", pred) == 0
    assert run_cli("score", path, pred, "--singletons", "drop") == 0
    assert "100.0" in capsys.readouterr().out


def test_score_doc_id_mismatch_exit_code(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    gold.write_text(
        json.dumps({"doc_id": "a", "clusters": [[[0, 0], [1, 1]]]}) + "\n"
    )
    pred.write_text(
        json.dumps({"doc_id": "b", "clusters": [[[0, 0], [1, 1]]]}) + "\n"
    )
    assert run_cli("score", gold, pred) == 5
    err = capsys.readouterr().err
    assert "not in predictions: a" in err
    assert "not in gold: b" in err


@pytest.mark.parametrize("side", ["pred", "gold"])
def test_score_rejects_a_mention_in_two_clusters(tmp_path, capsys, side):
    # Scored anyway, this pair printed MUC P 66.7, B3 P 73.3 and CEAF-phi4 90.0.
    files = {
        "gold": {
            "doc_id": "d",
            "tokens": list("abcd"),
            "gold_clusters": [[[0, 0], [1, 1]], [[2, 2], [3, 3]]],
        },
        "pred": {"doc_id": "d", "clusters": [[[0, 0], [1, 1]], [[1, 1], [2, 2], [3, 3]]]},
    }
    paths = {}
    for name, record in files.items():
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text("\n" + json.dumps(record) + "\n")
    order = ("gold", "pred") if side == "pred" else ("pred", "gold")
    assert run_cli("score", *(paths[name] for name in order)) == 2
    err = capsys.readouterr().err
    assert f"{paths['pred']}:2: mention [1, 1] appears twice in clusters" in err


def test_score_reads_predictions_in_any_order(tmp_path, corpus, capsys):
    _, path = corpus
    pred = tmp_path / "pred.jsonl"
    assert run_cli("run", path, "--policy", "lb", "--capacity", 2, "--out", pred) == 0
    capsys.readouterr()
    lines = pred.read_text().splitlines(keepends=True)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("".join(lines[:3] + lines[:2:-1]))  # in order, then reversed
    reports = []
    for p in (pred, shuffled):
        assert run_cli("score", path, p, "--json", tmp_path / "report.json") == 0
        reports.append((capsys.readouterr().out, (tmp_path / "report.json").read_bytes()))
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "gold_ids, pred_ids, message",
    [
        ("abc", "abcx", "not in gold: x"),  # after the last gold document
        ("abcx", "abc", "not in predictions: x"),
        ("abcx", "acx", "not in predictions: b"),  # out of step from b on
        ("abcx", "acbxa", "duplicate doc_id 'a' in {pred}"),
        ("abcx", "abbc", "duplicate doc_id 'b' in {pred}"),
        ("abbx", "abbx", "duplicate doc_id 'b' in {gold}"),  # in step
    ],
)
def test_score_doc_id_errors_in_or_out_of_step(tmp_path, capsys, gold_ids, pred_ids, message):
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    for path, ids in ((gold, gold_ids), (pred, pred_ids)):
        path.write_text(
            "".join(json.dumps({"doc_id": d, "clusters": [[[0, 0], [1, 1]]]}) + "\n" for d in ids)
        )
    assert run_cli("score", gold, pred) == 5
    assert message.format(gold=gold, pred=pred) in capsys.readouterr().err


@pytest.mark.parametrize(
    "record, message",
    [
        ({"doc_id": "a", "clusters": [[["x", 1]]]}, "ill-typed clusters"),
        ({"doc_id": "a", "clusters": [[[0, 1, 2]]]}, "ill-typed clusters"),
        ({"doc_id": "a", "clusters": [5]}, "ill-typed clusters"),
        ({"doc_id": "a", "gold_clusters": "ab"}, "ill-typed gold_clusters"),
        ({"doc_id": ["a"], "clusters": []}, "expected an object with a string doc_id"),
        ({"doc_id": "a", "clusters": [[[0, 1]], []]}, "empty cluster in clusters"),
        ({"doc_id": "a", "clusters": [[[0, float("inf")]]]}, "ill-typed clusters"),
        ({"doc_id": "a", "clusters": [[[0.0, 1]]]}, "ill-typed clusters"),
    ],
    ids=[
        "str-bound", "triple", "int-cluster", "string-clusters", "list-doc_id",
        "empty-cluster", "infinite-bound", "float-bound",
    ],
)
def test_score_ill_typed_prediction_exit_2(tmp_path, capsys, record, message):
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    gold.write_text(json.dumps({"doc_id": "a", "clusters": [[[0, 1]]]}) + "\n")
    pred.write_text("\n" + json.dumps(record) + "\n")
    assert run_cli("score", gold, pred) == 2
    assert f"{pred}:2: {message}" in capsys.readouterr().err


def test_score_duplicate_doc_id_exit_code(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    pred = tmp_path / "pred.jsonl"
    gold.write_text(
        json.dumps({"doc_id": "a", "clusters": [[[0, 0], [1, 1]]]}) + "\n"
        + json.dumps({"doc_id": "a", "clusters": [[[2, 2], [3, 3]]]}) + "\n"
    )
    pred.write_text(
        json.dumps({"doc_id": "a", "clusters": [[[2, 2], [3, 3]]]}) + "\n"
    )
    assert run_cli("score", gold, pred) == 5
    assert "duplicate doc_id 'a'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# oracle command


def test_oracle_unbounded_tracks_everything(corpus, capsys):
    _, path = corpus
    assert run_cli("oracle", path, "--policy", "unbounded") == 0
    out = capsys.readouterr().out
    assert "trackable_fraction   1.000000" in out
    assert "mean_ignored_per_doc 0.000" in out


def test_oracle_writes_trace_with_remaining(tmp_path, corpus, capsys):
    docs, path = corpus
    trace = tmp_path / "oracle.jsonl"
    assert run_cli("oracle", path, "--policy", "lb", "--capacity", 1, "--out", trace) == 0
    out = capsys.readouterr().out
    assert "policy               lb (capacity 1)" in out

    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    headers = [l for l in lines if set(l) == {"doc_id"}]
    steps = [l for l in lines if "action" in l]
    assert len(headers) == len(docs)
    assert len(steps) == sum(len(d.gold_mentions()) for d in docs)
    assert all("remaining" in s and "mention" in s for s in steps)


def test_oracle_traces_each_document_once(monkeypatch, corpus, capsys):
    import streamcoref.oracle

    docs, path = corpus
    calls = []
    real = streamcoref.oracle.oracle_trace

    def counted(*args):
        calls.append(1)
        return real(*args)

    # cli imports oracle_trace when it runs the subcommand.
    monkeypatch.setattr(streamcoref.oracle, "oracle_trace", counted)
    assert run_cli("oracle", path, "--policy", "lb", "--capacity", 1) == 0
    assert len(calls) == len(docs)
    want = oracle_trackable_fraction(docs, PolicyConfig(MemoryPolicy.LEARNED_BOUNDED, 1))
    assert want < 1.0
    assert f"trackable_fraction   {want:.6f}" in capsys.readouterr().out


def test_oracle_without_gold_mentions_is_fully_trackable(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    write_jsonl([Document(doc_id="e", tokens=("x", "y"))], path)
    assert run_cli("oracle", path, "--policy", "lb", "--capacity", 1) == 0
    assert "trackable_fraction   1.000000" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit codes for bad configurations and bad input


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "{corpus}", "--policy", "lb"),  # bounded without capacity
        ("run", "{corpus}", "--policy", "lb", "--capacity", "0"),
        ("run", "{corpus}", "--policy", "unbounded", "--capacity", "4"),
        ("run", "{corpus}", "--policy", "ustar"),  # keep-singletons default
        ("run", "{corpus}", "--scorer", "replay:"),
        ("oracle", "{corpus}", "--policy", "rb"),  # no capacity
        ("run", "{corpus}", "--proposal-ratio", "0"),
        ("run", "{corpus}", "--proposal-ratio", "-1"),
        ("run", "{corpus}", "--proposal-ratio", "nan"),
        ("analyze", "{corpus}", "--buckets", "0"),
        ("run", "{corpus}", "--jobs", "0"),
        ("run", "{corpus}", "--jobs", "-1"),
    ],
)
def test_config_errors_exit_3(corpus, argv):
    _, path = corpus
    argv = [a.replace("{corpus}", str(path)) if isinstance(a, str) else a for a in argv]
    assert run_cli(*argv) == 3


def test_bad_jobs_env_exit_3(corpus, monkeypatch, capsys):
    _, path = corpus
    monkeypatch.setenv("COREF_JOBS", "abc")
    assert run_cli("run", path) == 3
    assert "COREF_JOBS" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_jobs_env_below_one_exit_3(corpus, monkeypatch, capsys, value):
    _, path = corpus
    monkeypatch.setenv("COREF_JOBS", value)
    assert run_cli("run", path) == 3
    assert f"COREF_JOBS must be at least 1, got {value}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the fault matrix: output targets that are absent, regular files, symlinks,
# directories, in a missing directory, FIFOs, an input or another output,
# under runs that succeed or must fail before writing


def _tree(root):
    """Every path under root with its type and content (a link's target)."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_symlink():
            out[path] = ("link", os.readlink(path))
        elif path.is_dir():
            out[path] = ("dir", None)
        elif path.is_fifo():
            out[path] = ("fifo", None)  # reading it would wait for a writer
        else:
            out[path] = ("file", path.read_bytes())
    return out


def _target(tmp_path, kind):
    """An output path of the given kind (one of TARGET_KINDS)."""
    path = tmp_path / "pred.jsonl"
    if kind == "regular":
        path.write_text("old\n")
    elif kind == "symlink":
        (tmp_path / "real.jsonl").write_text("old\n")
        path.symlink_to("real.jsonl")
    elif kind == "directory":
        path.mkdir()
    elif kind == "missing-directory":
        path = tmp_path / "missing" / "pred.jsonl"
    elif kind == "fifo":
        os.mkfifo(path)
    return path


# The kinds a staged file replaces, then the others.
STAGED_KINDS = ["absent", "regular", "symlink"]
TARGET_KINDS = [*STAGED_KINDS, "directory", "missing-directory", "fifo"]


@contextmanager
def _fifo_reader(path):
    """Read the FIFO at path in a thread; yields a list that gets its bytes."""
    received = []
    reader = threading.Thread(target=lambda: received.append(path.read_bytes()), daemon=True)
    reader.start()
    try:
        yield received
    finally:
        # A call that never opened the FIFO leaves the reader waiting in
        # open(); a writer that opens and closes it lets the read end.
        for _ in range(600):
            reader.join(0.05)
            if not reader.is_alive():
                break
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # the reader has not opened it yet
                pass
        assert not reader.is_alive()


@pytest.mark.parametrize("kind", TARGET_KINDS)
@pytest.mark.parametrize(
    "flags, env, message",
    [
        (("--jobs", "0"), None, "--jobs must be at least 1, got 0"),
        (("--jobs", "-1"), None, "--jobs must be at least 1, got -1"),
        ((), "0", "COREF_JOBS must be at least 1, got 0"),
    ],
    ids=["jobs-0", "jobs-negative", "env-0"],
)
def test_jobs_below_one_writes_nothing(
    tmp_path, corpus, monkeypatch, capsys, kind, flags, env, message
):
    _, path = corpus
    out = _target(tmp_path, kind)
    if env is not None:
        monkeypatch.setenv("COREF_JOBS", env)
    before = _tree(tmp_path)
    assert run_cli("run", path, *flags, "--out", out, "--trace", tmp_path / "trace.jsonl") == 3
    assert _tree(tmp_path) == before
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.skipif(
    not _LINUX or len(os.sched_getaffinity(0)) < 2,
    reason="the failing chunk_documents reaches forked workers only, and --jobs 2 needs 2 CPUs",
)
@pytest.mark.parametrize("kind", STAGED_KINDS)
def test_dead_worker_writes_nothing(
    tmp_path, three_chunk_corpus, monkeypatch, capsys, pool_deadline, kind
):
    from streamcoref import pipeline

    monkeypatch.setattr(pipeline, "chunk_documents", _second_chunk_fails(lambda: os._exit(3)))
    out = _target(tmp_path, kind)
    before = _tree(tmp_path)
    assert run_cli("run", three_chunk_corpus, "--jobs", 2, "--out", out,
                   "--manifest", tmp_path / "manifest.json") == 6
    assert _tree(tmp_path) == before
    assert re.fullmatch(r"error: worker process \d+ exited with code 3 before the run ended\n",
                        capsys.readouterr().err)
    _assert_no_child_left()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("run", "{corpus}", "--out", "{corpus}"), "--out {corpus} and input {corpus}"),
        (("run", "{corpus}", "--trace", "{corpus_link}"),
         "--trace {corpus_link} and input {corpus}"),
        (("run", "{corpus}", "--manifest", "{corpus_hard}"),
         "--manifest {corpus_hard} and input {corpus}"),
        (("run", "{corpus}", "--scorer", "replay:{rows}", "--out", "{rows}"),
         "--out {rows} and --scorer replay:{rows}"),
        (("run", "{corpus}", "--scorer", "replay:{rows}", "--record-scores", "{rows_link}"),
         "--record-scores {rows_link} and --scorer replay:{rows}"),
        (("run", "{corpus}", "--out", "{pred}", "--trace", "{pred}"),
         "--trace {pred} and --out {pred}"),
        (("run", "{corpus}", "--out", "{pred_link}", "--manifest", "{pred}"),
         "--manifest {pred} and --out {pred_link}"),
        (("score", "{corpus}", "{pred}", "--json", "{pred}"), "--json {pred} and pred {pred}"),
        (("oracle", "{corpus}", "--policy", "lb", "--capacity", "2", "--out", "{corpus_link}"),
         "--out {corpus_link} and input {corpus}"),
    ],
    ids=["out-is-input", "trace-links-to-input", "manifest-hard-links-input",
         "out-is-replay", "rows-link-to-replay", "trace-is-out", "manifest-is-linked-out",
         "json-is-pred", "oracle-out-links-to-input"],
)
def test_output_that_is_an_input_or_output_exit_3(tmp_path, corpus, capsys, argv, message):
    _, path = corpus
    names = {
        "corpus": path,
        "rows": tmp_path / "rows.jsonl",
        "pred": tmp_path / "pred.jsonl",
        "corpus_link": tmp_path / "corpus-link.jsonl",
        "corpus_hard": tmp_path / "corpus-hard.jsonl",
        "rows_link": tmp_path / "rows-link.jsonl",
        "pred_link": tmp_path / "pred-link.jsonl",
    }
    assert run_cli("run", path, "--out", names["pred"], "--record-scores", names["rows"]) == 0
    names["corpus_link"].symlink_to(path)
    os.link(path, names["corpus_hard"])
    names["rows_link"].symlink_to(names["rows"])
    names["pred_link"].symlink_to(names["pred"])
    capsys.readouterr()
    before = _tree(tmp_path)
    assert run_cli(*[a.format(**names) for a in argv]) == 3
    assert _tree(tmp_path) == before
    err = capsys.readouterr().err
    assert err == f"error: {message.format(**names)} are the same file\n"


OUTPUT_FLAGS = [
    ("run", "--out"),
    ("run", "--trace"),
    ("run", "--record-scores"),
    ("run", "--manifest"),
    ("oracle", "--out"),
    ("score", "--json"),
    ("synth", "--out"),
]


def _write_one_output(command, corpus_path, flag, target):
    head = {
        "run": ("run", corpus_path, "--scorer", "string-match", "--policy", "lb", "--capacity", 2),
        "oracle": ("oracle", corpus_path, "--policy", "rb", "--capacity", 2),
        "score": ("score", corpus_path, corpus_path),
        "synth": ("synth", "--seed", 5, "--docs", 4),
    }[command]
    return run_cli(*head, flag, target)


@pytest.mark.parametrize("kind", TARGET_KINDS)
@pytest.mark.parametrize(
    "command, flag", OUTPUT_FLAGS, ids=[f"{c}{f}" for c, f in OUTPUT_FLAGS]
)
def test_every_output_flag_on_every_target_kind(tmp_path, corpus, capsys, command, flag, kind):
    _, path = corpus
    assert _write_one_output(command, path, flag, tmp_path / "reference") == 0
    expected = (tmp_path / "reference").read_bytes()
    work = tmp_path / "work"
    work.mkdir()
    target = _target(work, kind)
    before = _tree(work)
    capsys.readouterr()
    with _fifo_reader(target) if kind == "fifo" else nullcontext() as received:
        code = _write_one_output(command, path, flag, target)
    after = _tree(work)
    err = capsys.readouterr().err
    if kind == "directory":
        assert (code, err) == (3, f"error: {flag} {target} is a directory\n")
        assert after == before
    elif kind == "missing-directory":
        assert code == 2 and str(target.parent) in err
        assert err == f"error: {flag} {target}: directory {target.parent} does not exist\n"
        assert after == before
    elif kind == "fifo":  # written in place: it stays a FIFO
        assert (code, err) == (0, "")
        assert after == before and received == [expected]
    else:
        assert (code, err) == (0, "")
        written = work / "real.jsonl" if kind == "symlink" else target
        assert after == {**before, written: ("file", expected)}


def test_a_failing_chunk_writes_none_of_its_documents(tmp_path, corpus, capsys):
    """An output written in place gets a chunk's documents only once the
    whole chunk has run, with one worker as with a pool."""
    _, path = corpus
    lines = path.read_text().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines[:2]) + '{"doc_id": 1}\n' + "".join(lines[3:]))
    fifo = tmp_path / "pred.fifo"
    os.mkfifo(fifo)
    with _fifo_reader(fifo) as received:
        assert run_cli("run", bad, "--out", fifo) == 2
    assert received == [b""]
    assert capsys.readouterr().err == f"error: {bad}:3: ill-typed key 'doc_id'\n"


def _bad_corpus(tmp_path, corpus_path):
    """The corpus with a first line whose doc_id is not a string."""
    lines = corpus_path.read_text().splitlines(keepends=True)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"doc_id": 1, "tokens": ["a"]}\n' + "".join(lines[1:]))
    return bad


@pytest.mark.parametrize("existing", [False, True], ids=["nested-absent", "existing"])
def test_failed_analyze_removes_only_the_directories_it_made(tmp_path, corpus, capsys, existing):
    _, path = corpus
    bad = _bad_corpus(tmp_path, path)
    work = tmp_path / "work"
    work.mkdir()
    out = work / "stats" if existing else work / "new" / "sub" / "stats"
    if existing:
        out.mkdir()
    before = _tree(work)
    assert run_cli("analyze", bad, "--out", out) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}:1:")
    assert _tree(work) == before


def test_analyze_out_makes_nested_directories(tmp_path, corpus):
    _, path = corpus
    reference = tmp_path / "reference"
    assert run_cli("analyze", path, "--out", reference) == 0
    work = tmp_path / "work"
    work.mkdir()
    out = work / "new" / "sub"
    assert run_cli("analyze", path, "--out", out) == 0
    assert _tree(work) == {
        work / "new": ("dir", None),
        out: ("dir", None),
        **{out / name: ("file", (reference / name).read_bytes())
           for name in ("per_document.csv", "spread_histogram.csv")},
    }


def test_failed_replace_leaves_no_temporary_file(tmp_path, monkeypatch):
    from streamcoref import commands

    replace, replaced = os.replace, []

    def second_replace_fails(src, dst):
        if replaced:
            raise OSError("replace failed")
        replace(src, dst)
        replaced.append(dst)

    monkeypatch.setattr(os, "replace", second_replace_fails)
    targets = {name: str(tmp_path / name) for name in ("a", "b", "c")}
    with pytest.raises(OSError, match="replace failed"):
        with commands._staged(targets) as files:
            for fh in files.values():
                fh.write("new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["a"]


def test_symlinked_outputs_write_through_the_link(tmp_path, corpus):
    _, path = corpus
    plain = tmp_path / "plain"
    plain.mkdir()
    assert run_cli("run", path, "--out", plain / "pred.jsonl", "--trace", plain / "trace.jsonl") == 0
    real = tmp_path / "real"
    real.mkdir()
    (real / "pred.jsonl").write_text("old\n")
    (tmp_path / "pred.jsonl").symlink_to(real / "pred.jsonl")
    (tmp_path / "trace.jsonl").symlink_to(real / "trace.jsonl")  # dangling until the run
    before = _tree(tmp_path)
    assert run_cli("run", path, "--out", tmp_path / "pred.jsonl",
                   "--trace", tmp_path / "trace.jsonl") == 0
    after = _tree(tmp_path)
    changed = {p for p in before.keys() | after.keys() if before.get(p) != after.get(p)}
    assert changed == {real / "pred.jsonl", real / "trace.jsonl"}
    for name in ("pred.jsonl", "trace.jsonl"):
        assert (real / name).read_bytes() == (plain / name).read_bytes()


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.conll"
    bad.write_text("#begin document (x); part 000\nx\t0\t0\ta\tXX\t(1\n#end document\n")
    assert run_cli("analyze", bad) == 2
    # one span in two gold clusters is rejected from either format
    dup = tmp_path / "dup.conll"
    dup.write_text("#begin document (x); part 000\nw0\t(1)|(2)\n#end document\n")
    capsys.readouterr()
    assert run_cli("analyze", dup) == 2
    assert f"{dup}:1: invalid document: duplicate gold mention" in capsys.readouterr().err
    missing = tmp_path / "nope.jsonl"
    assert run_cli("analyze", missing) == 2
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text('{"doc_id": "d"}\n')
    assert run_cli("run", bad_json) == 2


# ---------------------------------------------------------------------------
# import budget: importing numpy and scipy dominates CLI start-up, so only a
# score whose CEAF alignment needs the assignment solver may load them; no
# call loads multiprocessing or concurrent.futures

_PROBE = """
import sys
from streamcoref.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
heavy = {"numpy", "scipy", "multiprocessing", "concurrent.futures.process"}
print(sorted(heavy & set(sys.modules)))
"""


def _src_env() -> dict[str, str]:
    """This environment with the package's source directory on PYTHONPATH."""
    src = str(Path(streamcoref.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def _heavy_modules_loaded(code: str, *argv) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=_src_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout.splitlines()[-1]


def test_package_import_loads_no_numpy_or_scipy():
    code = "import sys, streamcoref; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    assert _heavy_modules_loaded(code) == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ("--version",),
        ("run", "{corpus}", "--scorer", "string-match", "--policy", "lb",
         "--capacity", "3", "--jobs", "1", "--out", "{tmp}/pred.jsonl"),
        ("analyze", "{corpus}"),
        ("oracle", "{corpus}", "--policy", "lb", "--capacity", "3"),
        ("score", "{corpus}", "{corpus}"),  # one-to-one components only
    ],
    ids=["version", "run", "analyze", "oracle", "score-identical"],
)
def test_cli_loads_no_numpy_or_scipy(tmp_path, corpus, argv):
    _, path = corpus
    argv = [a.replace("{corpus}", str(path)).replace("{tmp}", str(tmp_path)) for a in argv]
    assert _heavy_modules_loaded(_PROBE, *argv) == "[]"


# Each subcommand imports only the modules it runs, and the package loads
# a submodule when one of its names is first used. No call defines a
# dataclass (which imports inspect), and decimal, which only the proposal
# cut-off uses, loads only for a run given --proposal-ratio. No call loads
# hashlib or OpenSSL (_hashlib): manifest digests use the built-in SHA-256.
# A run with workers loads neither multiprocessing nor concurrent.futures
# (nor the logging they import): on Linux its workers are forked, and
# elsewhere spawned with subprocess.

_STDLIB_WATCHED = {
    "hashlib", "_hashlib", "dataclasses", "inspect", "decimal",
    "multiprocessing", "concurrent", "logging", "subprocess",
}

_MODULES_PROBE = f"""
import sys
from streamcoref.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(sorted(m.split(".")[1] for m in sys.modules if m.startswith("streamcoref."))
      + sorted({_STDLIB_WATCHED!r} & set(sys.modules)))
"""

_ALL_SUBMODULES = (
    "commands types ingest engine scoring pipeline metrics analytics oracle synth rowcodec"
)
_OPENSSL = " hashlib _hashlib"
_POOL = " multiprocessing concurrent logging"


@pytest.mark.parametrize(
    "argv, loads, skips",
    [
        (("--version",), "cli", _ALL_SUBMODULES + _OPENSSL),
        (("--help",), "cli", _ALL_SUBMODULES + _OPENSSL),
        (("run", "--policy", "nope", "{corpus}"), "cli", _ALL_SUBMODULES + _OPENSSL),
        (("score", "{corpus}", "{corpus}"), "metrics",
         "engine scoring pipeline analytics oracle" + _OPENSSL),
        (("analyze", "{corpus}"), "analytics",
         "engine scoring pipeline metrics oracle" + _OPENSSL),
        (("run", "{corpus}", "--jobs", "1", "--out", "{tmp}/pred.jsonl"), "pipeline",
         "metrics analytics oracle synth rowcodec" + _OPENSSL),
        (("run", "{corpus}", "--jobs", "1", "--proposal-ratio", "0.3",
          "--out", "{tmp}/pred.jsonl"), "pipeline decimal",
         "metrics analytics oracle synth rowcodec" + _OPENSSL),
        (("run", "{corpus}", "--jobs", "1", "--manifest", "{tmp}/manifest.json"), "pipeline",
         "metrics analytics oracle synth rowcodec" + _OPENSSL),
        (("run", "{corpus}", "--jobs", "1", "--record-scores", "{tmp}/rows.jsonl"),
         "pipeline rowcodec", "metrics analytics oracle synth" + _OPENSSL),
        (("run", "{corpus}", "--scorer", "replay:{rows}"), "pipeline rowcodec",
         "metrics analytics oracle synth" + _OPENSSL),
        pytest.param(
            ("run", "{big}", "--jobs", "2", "--out", "{tmp}/pred.jsonl"), "pipeline",
            "metrics analytics oracle synth rowcodec subprocess" + _OPENSSL + _POOL,
            marks=pytest.mark.skipif(not _LINUX, reason="workers fork on Linux"),
        ),
        (("oracle", "{corpus}", "--policy", "lb", "--capacity", "3"), "oracle engine scoring",
         "pipeline metrics analytics synth rowcodec" + _OPENSSL),
        (("synth", "--seed", "1", "--docs", "2", "--out", "{tmp}/synth.jsonl"), "synth",
         "engine scoring pipeline metrics analytics oracle" + _OPENSSL),
    ],
    ids=["version", "help", "usage-error", "score", "analyze", "run", "run-ratio",
         "run-manifest", "run-record", "replay", "run-jobs2", "oracle", "synth"],
)
def test_subcommand_loads_only_its_modules(
    tmp_path, corpus, three_chunk_corpus, argv, loads, skips
):
    _, path = corpus
    rows = tmp_path / "recorded.jsonl"
    if any("{rows}" in a for a in argv):
        assert run_cli("run", path, "--record-scores", rows) == 0
    fill = {"{corpus}": str(path), "{tmp}": str(tmp_path), "{rows}": str(rows),
            "{big}": str(three_chunk_corpus)}
    for key, value in fill.items():
        argv = [a.replace(key, value) for a in argv]
    loaded = set(ast.literal_eval(_heavy_modules_loaded(_MODULES_PROBE, *argv)))
    assert set(loads.split()) <= loaded
    assert loaded.isdisjoint(skips.split())
    assert loaded.isdisjoint({"dataclasses", "inspect"})
    assert ("decimal" in loaded) == ("decimal" in loads.split())


def test_policy_choices_are_the_memory_policies():
    # The parser spells the choices out so that --help need not import types.
    subcommands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices

    def policy_choices(command):
        return next(a for a in subcommands[command]._actions if a.dest == "policy").choices

    assert list(policy_choices("run")) == [p.value for p in MemoryPolicy]
    assert set(policy_choices("oracle")) <= set(policy_choices("run"))


# The public names of the package: attribute access must answer for each
# of them, as it did when __init__ imported every submodule.
PUBLIC_NAMES = """
Action ActionKind ClusteringResult ConfigError CorpusStats CountAccumulator
Document EmptyClusterError GoldCluster GoldScoreProvider
MalformedColumnError MemoryPolicy MentionSpan
OracleStep PRF ParseError PolicyConfig RecordingScoreProvider
ReplayScoreProvider RunStats SchemaError ScoreProvider ScoreReport ScoreRow
ScoreShapeMismatch SingletonMode SpreadRecord StringMatchConfig
StringMatchScoreProvider UnbalancedBracketError active_entity_count analytics
b_cubed b_cubed_counts benchmark_document ceaf_phi4 ceaf_phi4_counts
clusters_from_actions conll_f1 corpus_max_active corpus_max_total decide
dump_score_rows engine entity_spread
filter_singletons gold_scorer histogram_rows ingest
iter_documents iter_score_rows load_conll load_jsonl load_score_rows
max_active_entities metrics muc muc_counts oracle oracle_trace
oracle_trackable_fraction order_mentions parse_conll parse_jsonl
per_document_stats propose_top_spans read_corpus run_document scoring
spread_histogram spread_records string_match_scorer synth synthesize_corpus
synthesize_document types validate_document write_jsonl
""".split()


def test_package_names_load_on_first_use():
    code = (
        "import sys, streamcoref\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('streamcoref.'))\n"
        "print(loaded())\n"
        "streamcoref.run_document\n"
        "print(loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_src_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    before, after = map(ast.literal_eval, proc.stdout.splitlines())
    assert before == []
    assert "streamcoref.engine" in after
    assert not {"streamcoref.metrics", "streamcoref.analytics", "streamcoref.oracle"} & set(after)


def test_package_public_names_are_unchanged():
    import streamcoref.scoring

    assert sorted(streamcoref.__all__) == sorted(PUBLIC_NAMES)
    assert [n for n in dir(streamcoref) if not n.startswith("_")] == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert getattr(streamcoref, name) is not None
    # Moved to types so that cli can catch it without loading scoring.
    assert streamcoref.scoring.ScoreShapeMismatch is streamcoref.ScoreShapeMismatch
    with pytest.raises(AttributeError):
        streamcoref.no_such_name


def test_no_module_imports_a_name_it_never_reads():
    """Each name a module of the package imports, at the top or inside a
    function, is read somewhere in that module (an ast scan of its source)."""
    unused = []
    for path in sorted(Path(streamcoref.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {n}" for n in names if n not in read]
    assert unused == []
