"""The run pipeline: corpus chunks in, one compact output per document out.

read_chunks (ingest) streams the corpus as ordered chunks of raw lines.
run_one takes one parsed document, proposes its mentions, runs the engine
and serializes everything the run writes for it: the prediction line, the
trace lines, the recorded score rows and the clusters' digest for the
manifest, plus the counters the summary needs. ordered_outputs parses the
chunks' documents one at a time and yields a per-document function's
result for each (for a run, run_one with its settings bound by
functools.partial) in input order, computed in this process or by worker
processes. The parent talks to each worker over two pipes, in
length-prefixed pickles: the function, then one chunk at a time, each
answered by the function's results for the chunk's documents or the error
raised. A worker gets its next chunk once its last reply is read, so the
calling process holds O(1) chunks whatever the corpus size, needs no
thread, and every worker count gives the same outputs. Workers are forked
where that is safe (see start_method) and spawned elsewhere.
"""

from __future__ import annotations

import json
import os
import sys
from collections import deque
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .engine import run_document
from . import ingest
from .ingest import ParseError, SourceLine, chunk_documents, order_mentions
from .scoring import RecordingScoreProvider, ScoreProvider, propose_top_spans
# WorkerError lives in types so that the CLI can catch it without
# importing this module.
from .types import Action, Document, MentionSpan, PolicyConfig, WorkerError

T = TypeVar("T")


class DocOutput(NamedTuple):
    """One document's run, serialized; text fields are "" when not asked for."""

    doc_id: str
    prediction: str  # predictions JSONL line
    trace: str  # header line plus one line per mention
    rows: str  # recorded score rows, one line per mention
    digest: str  # sha256 of the predicted clusters' JSON, for the manifest
    mentions: int
    entity_steps: float  # average entities in memory times mentions
    max_entities: int
    ignored_capacity: int
    ignored_invalid: int
    evictions: int


def document_mentions(doc: Document, ratio: float | None) -> list[MentionSpan]:
    """The document's mentions in processing order, cut to the ratio if given."""
    candidates = list(doc.candidate_mentions)
    if not candidates:
        candidates = [(s, 0.0) for s in doc.gold_mentions()]
    if ratio is not None and len(doc) >= 1:
        return propose_top_spans(candidates, ratio, len(doc))
    spans, _ = order_mentions(s for s, _ in candidates)
    return spans


def trace_lines(mentions: Sequence[MentionSpan], actions: Sequence[Action]) -> str:
    """The trace lines of a run, each json.dumps of its engine.trace_objs entry.

    A run hands out a few shared Action instances, so each one's part of
    the line is serialized once, keyed by identity for the length of the call.
    """
    suffixes: dict[int, str] = {}
    lines = []
    for (start, end), action in zip(mentions, actions):
        suffix = suffixes.get(id(action))
        if suffix is None:
            # '"action": "coref", "cell": 3}': the object's text after its "{".
            suffix = suffixes[id(action)] = json.dumps(action.to_obj())[1:]
        lines.append(f'{{"mention": [{start}, {end}], {suffix}\n')
    return "".join(lines)


def run_one(
    doc: Document,
    *,
    provider: Callable[[], ScoreProvider],
    policy: PolicyConfig,
    ratio: float | None,
    out: bool,
    trace: bool,
    record: bool,
    manifest: bool,
) -> DocOutput:
    """Run one document and serialize the outputs asked for.

    provider makes the document's score provider: a new one per document,
    or the one replay provider a whole corpus run shares. out, trace,
    record and manifest say which outputs to serialize.
    """
    mentions = document_mentions(doc, ratio)
    scores = provider()
    recorder = RecordingScoreProvider(scores) if record else None
    result = run_document(doc, mentions, recorder or scores, policy)
    stats = result.stats

    prediction = trace_text = rows = digest = ""
    if out or manifest:
        # Spans and tuples of them serialize as JSON arrays: [[s, e], ...].
        clusters = json.dumps(result.predicted_clusters)
        if out:
            # The text json.dumps({"doc_id": ..., "clusters": ...}) writes.
            prediction = f'{{"doc_id": {json.dumps(doc.doc_id)}, "clusters": {clusters}}}\n'
        if manifest:
            digest = ingest.sha256(clusters.encode()).hexdigest()
    if trace:
        header = json.dumps({"doc_id": doc.doc_id})
        trace_text = header + "\n" + trace_lines(mentions, stats.actions)
    if recorder is not None:
        from .rowcodec import encode_row  # loaded only by a run that records

        rows = "".join(map(encode_row, recorder.rows))
    return DocOutput(
        doc_id=doc.doc_id,
        prediction=prediction,
        trace=trace_text,
        rows=rows,
        digest=digest,
        mentions=len(mentions),
        entity_steps=stats.avg_entities_in_memory * len(mentions),
        max_entities=stats.max_entities_in_memory,
        ignored_capacity=stats.ignored_capacity_count,
        ignored_invalid=stats.ignored_invalid_count,
        evictions=stats.eviction_count,
    )


def worker_count(jobs: int, corpus_bytes: int, cpus: int | None = None) -> int:
    """Worker processes for a run asked to use jobs of them.

    At least 1 and at most the CPUs this process may use (cpus, by
    default from the scheduler). A corpus that fits in one chunk gets 1:
    a pool cannot split it, and a worker costs a fork (a few ms) or,
    where workers are spawned, an interpreter start plus the package's
    import (~0.1-0.2 s).
    """
    if corpus_bytes <= ingest.CHUNK_BYTES:
        return 1
    if cpus is None:
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
    return max(1, min(jobs, cpus))




def start_method() -> str:
    """How pool workers start: "fork" where it is safe, else "spawn".

    A forked worker inherits the modules this process has loaded, so it
    starts in milliseconds; a spawned one starts an interpreter and imports
    the package again. fork needs Linux (Windows has none, and macOS system
    libraries are not fork-safe) and a caller running no other thread,
    since a fork copies the locks other threads hold. The pool itself
    starts no thread.
    """
    import threading

    if sys.platform.startswith("linux") and hasattr(os, "fork") and threading.active_count() == 1:
        return "fork"
    return "spawn"


# The pool's messages: each is the length of a pickle in 8 bytes, then the
# pickle. pickle loads only in a run with more than one worker.


def _send(fh: BinaryIO, obj) -> None:
    import pickle

    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    fh.write(len(data).to_bytes(8, "little"))
    fh.write(data)
    fh.flush()


def _receive(fh: BinaryIO):
    """The next message's object; EOFError once the writer has closed the pipe."""
    import pickle

    head = fh.read(8)
    if len(head) == 8:
        size = int.from_bytes(head, "little")
        data = fh.read(size)
        if len(data) == size:
            return pickle.loads(data)
    raise EOFError("the pipe closed")


def _portable(error: Exception) -> Exception:
    """error if its pickle rebuilds it, else a WorkerError with its type and text."""
    import pickle

    try:
        pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))
    except Exception:
        return WorkerError(f"a worker raised {type(error).__name__}: {error}")
    return error


def _serve(tasks: BinaryIO, results: BinaryIO) -> None:
    """The worker loop: read the per-document function, then answer each chunk
    with its documents' results or the error raised, until the pipes close."""
    try:
        fn = _receive(tasks)
        while True:
            chunk = _receive(tasks)
            try:
                reply = [fn(doc) for doc in chunk_documents(chunk)]
            except Exception as e:
                reply = _portable(e)
            _send(results, reply)
    except (EOFError, BrokenPipeError):
        return


class _Worker:
    """A worker process and this process's ends of its two pipes."""

    def __init__(self, pid: int, tasks: BinaryIO, results: BinaryIO, proc=None):
        self.pid = pid
        self.tasks = tasks  # messages to the worker
        self.results = results  # its replies
        self.proc = proc  # the subprocess.Popen of a spawned worker
        self.exit_code: int | None = None

    def send(self, obj) -> None:
        try:
            _send(self.tasks, obj)
        except BrokenPipeError:
            raise self._died() from None

    def outputs(self) -> list:
        """The reply to the oldest chunk sent; raises the error it holds."""
        try:
            reply = _receive(self.results)
        except EOFError:
            raise self._died() from None
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def _died(self) -> WorkerError:
        code = self.wait()
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        return WorkerError(f"worker process {self.pid} {how} before the run ended")

    def wait(self) -> int:
        if self.exit_code is None:
            if self.proc is not None:
                self.exit_code = self.proc.wait()
            else:
                self.exit_code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.exit_code

    def close(self) -> None:
        """Close both pipes, which ends the worker, and reap it.

        A worker waiting for a chunk reads the end of the pipe; one still
        running a chunk fails to write its reply. Either way it exits.
        """
        for fh in (self.tasks, self.results):
            try:
                fh.close()
            except OSError:  # a message cut short by a dead worker
                pass
        self.wait()


def _fork_worker(pool: Sequence[_Worker]) -> _Worker:
    """A worker forked from this process; pool holds the workers before it."""
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The worker ends here and never returns into its caller's frames:
        # it shares the caller's staged output files and their unflushed
        # buffers, which must be written once, by the caller.
        code = 1
        try:
            os.close(task_w)
            os.close(result_r)
            # The parent's ends of the earlier workers' pipes: closing them
            # here leaves the parent the only one that can end those workers.
            for other in pool:
                os.close(other.tasks.fileno())
                os.close(other.results.fileno())
            _serve(open(task_r, "rb"), open(result_w, "wb"))
            code = 0
        finally:
            os._exit(code)
    os.close(task_r)
    os.close(result_w)
    return _Worker(pid, open(task_w, "wb"), open(result_r, "rb"))


def _spawn_worker() -> _Worker:
    """A worker in a new interpreter that imports the package from this
    process's sys.path and serves over its stdin and stdout."""
    import subprocess

    code = (
        f"import sys; sys.path[:] = {sys.path!r}; "
        f"from {__name__} import _serve_stdio; _serve_stdio()"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", code], stdin=subprocess.PIPE, stdout=subprocess.PIPE
    )
    return _Worker(proc.pid, proc.stdin, proc.stdout, proc)


def _serve_stdio() -> None:
    """A spawned worker's loop over stdin and stdout.

    Output printed by anything else goes to stderr, where it cannot break
    a reply. The worker ends with os._exit, so a reply cut short by the
    parent closing the pipe is not written again at exit.
    """
    results = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    _serve(sys.stdin.buffer, results)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


def ordered_outputs(
    fn: Callable[[Document], T],
    chunks: Iterable[list[SourceLine | Document]],
    workers: int = 1,
) -> Iterator[T]:
    """fn(doc) for every document of the chunks, in input order.

    One worker runs fn in this process, as a replay run must (its
    provider's rows are positional across the corpus). More run it in
    worker processes started by start_method(), each started when its
    first chunk is read and sent fn first, so fn must pickle. Chunks go to
    the workers in turn, one at a time: a worker gets its next chunk only
    once its last reply has been read, so replies come back in input
    order, no write blocks on a worker busy writing its own reply, and
    this process holds the chunk being read and the results of one. The
    first error in input order is raised, whichever process met it.
    """
    if workers <= 1:
        for chunk in chunks:
            yield from [fn(doc) for doc in chunk_documents(chunk)]  # all or none, as a reply
        return

    fork = start_method() == "fork"
    pool: list[_Worker] = []
    busy: deque[_Worker] = deque()  # one chunk in flight each, oldest first
    chunks = iter(chunks)
    try:
        while True:
            try:
                chunk = next(chunks, None)
            except (OSError, ParseError):
                # The reader failed after the chunks in flight were read:
                # their errors and outputs come first.
                while busy:
                    yield from busy.popleft().outputs()
                raise
            if chunk is None:
                break
            outputs: list[T] = []
            if len(pool) < workers:
                worker = _fork_worker(pool) if fork else _spawn_worker()
                pool.append(worker)
                worker.send(fn)
            else:
                worker = busy.popleft()
                outputs = worker.outputs()
            worker.send(chunk)
            busy.append(worker)
            del chunk  # the worker has it
            yield from outputs
        while busy:
            yield from busy.popleft().outputs()
    finally:
        for worker in pool:
            worker.close()
