"""Replay, analyze, oracle and score hold O(1 document), not O(corpus).

Each command runs in-process under tracemalloc on N and 10*N synthetic
documents, with the chunk size cut so that both corpora span many chunks.
A command that holds the corpus (or its replay rows, or its clusters)
peaks about ten times higher on the larger one; a streaming command peaks
at about the same height, plus the doc_id set that score keeps.
"""

import gc
import tracemalloc

import pytest

import streamcoref.cli
import streamcoref.ingest
from streamcoref import synthesize_corpus, write_jsonl
from streamcoref.cli import build_parser, main

N = 60
MAX_RATIO = 2.0


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Per size: the corpus, its recorded replay rows and its predictions."""
    root = tmp_path_factory.mktemp("bounded")
    out = {}
    for n in (N, 10 * N):
        corpus, rows, pred = (root / f"{name}{n}.jsonl" for name in ("corpus", "rows", "pred"))
        write_jsonl(synthesize_corpus(11, n), corpus)
        assert main(["run", str(corpus), "--record-scores", str(rows), "--out", str(pred)]) == 0
        out[n] = (corpus, rows, pred, root / f"replayed{n}.jsonl")
    return out


def _argv(command, corpus, rows, pred, replayed):
    return {
        "replay": ["run", corpus, "--scorer", f"replay:{rows}", "--out", replayed],
        "analyze": ["analyze", corpus],
        "oracle": ["oracle", corpus, "--policy", "lb", "--capacity", "3"],
        "score": ["score", corpus, pred],
    }[command]


def _run(argv) -> None:
    assert main([str(a) for a in argv]) == 0


def _peak_bytes(argv) -> int:
    # Earlier calls' garbage is collected first: otherwise the peak depends
    # on whether the collector happens to run during the call.
    gc.collect()
    tracemalloc.start()
    try:
        _run(argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["replay", "analyze", "oracle", "score"])
def test_peak_memory_does_not_grow_with_the_corpus(corpora, monkeypatch, capsys, command):
    monkeypatch.setattr(streamcoref.ingest, "CHUNK_BYTES", 2048)
    # One parser serves every call, built before any peak is taken: each
    # build leaves ~46 KB of cyclic garbage (argparse's formatters).
    parser = build_parser()
    monkeypatch.setattr(streamcoref.cli, "build_parser", lambda: parser)
    _run(_argv(command, *corpora[N]))  # the command's imports land in neither peak
    small, large = (_peak_bytes(_argv(command, *corpora[n])) for n in (N, 10 * N))
    capsys.readouterr()
    assert large < MAX_RATIO * small, f"{command}: {small} -> {large} bytes"
