"""The subcommands behind the command-line front end (cli).

cli parses the arguments, then imports this module and calls the
subcommand's function, which returns once the subcommand has succeeded
and raises the errors that cli maps to exit codes. Each function
imports the modules it runs when it runs, so a call pays for its own
imports only.
"""

from __future__ import annotations

import json
import math
import os
import stat
from contextlib import closing, contextmanager, suppress
from functools import partial
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, TextIO

from . import __version__
from .ingest import (
    CHUNK_BYTES,
    MentionSpan,
    ParseError,
    SourceLine,
    document_to_jsonl,
    iter_documents,
    json_line,
    read_chunks,
)
from .types import (
    ConfigError,
    MemoryPolicy,
    PolicyConfig,
    SingletonMode,
)

if TYPE_CHECKING:
    from .metrics import ScoreReport


class DocIdMismatch(ValueError):
    """Gold and prediction files disagree on which documents exist."""


def _resolve_jobs(args) -> int:
    if args.jobs is not None:
        name, jobs = "--jobs", args.jobs
    else:
        name, raw = "COREF_JOBS", os.environ.get("COREF_JOBS", "1")
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigError(f"COREF_JOBS must be an integer, got {raw!r}") from None
    if jobs < 1:
        raise ConfigError(f"{name} must be at least 1, got {jobs}")
    return jobs


def _policy_from_args(args) -> PolicyConfig:
    return PolicyConfig(
        policy=MemoryPolicy(args.policy),
        capacity=args.capacity,
        singleton_mode=SingletonMode(getattr(args, "singletons", "keep")),
    )


def _replay_path(scorer: str) -> str | None:
    """The file of --scorer replay:PATH; None for gold and string-match."""
    if scorer in ("gold", "string-match"):
        return None
    if scorer.startswith("replay:"):
        path = scorer.split(":", 1)[1]
        if not path:
            raise ConfigError("replay scorer needs a file: --scorer replay:PATH")
        return path
    raise ConfigError(f"unknown scorer {scorer!r} (use gold, string-match, or replay:PATH)")


def _check_outputs(
    outputs: Iterable[tuple[str, str | None]], inputs: Iterable[tuple[str, str]]
) -> None:
    """Raise ConfigError when an output is a directory, or names an input
    or another output.

    Both hold (what the user named it by, path) pairs: a flag, or "input
    PATH". An output whose path is None is not written. Paths match when
    they resolve to the same one (os.path.realpath, so through symlinks)
    or, where both exist, are the same file (os.path.samefile, so through
    hard links). Run it before any input is read: a run would otherwise
    replace an input with its output, or fail on two outputs staged at one
    path, or on a directory, once all its work is done.
    """
    seen = [(name, path, os.path.realpath(path)) for name, path in inputs]
    for flag, path in outputs:
        if not path:
            continue
        real = os.path.realpath(path)
        if os.path.isdir(real):
            raise ConfigError(f"{flag} {path} is a directory")
        for other, other_path, other_real in seen:
            if real == other_real or _same_file(path, other_path):
                raise ConfigError(f"{flag} {path} and {other} are the same file")
        seen.append((f"{flag} {path}", path, real))


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist (yet)
        return False


def _inputs(paths: list[str]) -> list[tuple[str, str]]:
    return [(f"input {p}", p) for p in paths]


@contextmanager
def _staged(paths: dict[str, str | None]) -> Iterator[dict[str, TextIO]]:
    """Open each given output path for writing; every output goes through here.

    A target that is a symlink is resolved first, so the file it points to
    is the one written and the link stays. A target that is absent or a
    regular file is staged: a temporary file beside it replaces it only
    when the block completes, and every temporary file not yet moved into
    place is deleted on any error, a failed replace included, so a failed
    run leaves no such output behind. A target whose directory does not
    exist raises FileNotFoundError naming the key, the path and that
    directory. Any other target (a FIFO, a character device) is opened in
    place and written as the run goes, so it is not atomic. The files are
    opened with newline="", so what is written is what lands on disk (the
    csv module's own line ends included).
    """
    files: dict[str, TextIO] = {}
    staged: dict[str, str] = {}  # temporary path -> its target, until replaced
    done = False
    try:
        for key, path in paths.items():
            if not path:
                continue
            target = os.path.realpath(path)
            if _replaceable(target):
                head, name = os.path.split(target)
                tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
                try:
                    files[key] = open(tmp, "x", encoding="utf-8", newline="")
                except (FileNotFoundError, NotADirectoryError):
                    # Name the directory as given; a symlink's is the target's.
                    given = os.path.dirname(path)
                    where = given if given and not os.path.isdir(given) else head
                    raise FileNotFoundError(
                        f"{key} {path}: directory {where} does not exist"
                    ) from None
                staged[tmp] = target
            else:
                files[key] = open(target, "w", encoding="utf-8", newline="")
        yield files
        done = True
    finally:
        try:
            for fh in files.values():
                fh.close()
            if done:
                for tmp, target in list(staged.items()):
                    os.replace(tmp, target)
                    del staged[tmp]
        finally:
            for tmp in staged:
                os.unlink(tmp)


@contextmanager
def _made_directory(path: str | None) -> Iterator[None]:
    """Create directory path, if given, with its missing parents. When the
    block fails, remove the directories created here, deepest first; one
    that existed before is never removed, nor one no longer empty."""
    created = []
    if path:
        head = os.path.abspath(path)
        while not os.path.exists(head):
            created.append(head)
            head = os.path.dirname(head)
        Path(path).mkdir(parents=True, exist_ok=True)
    try:
        yield
    except BaseException:
        with suppress(OSError):
            for made in created:
                os.rmdir(made)
        raise


def _replaceable(target: str) -> bool:
    """Whether target is absent or a regular file, so a staged file may
    take its place."""
    try:
        return stat.S_ISREG(os.stat(target).st_mode)
    except OSError:  # absent, or its directory is; opening the stage says which
        return True


class _ManifestWriter:
    """Streams the run manifest: everything needed to reproduce the run,
    a digest of each document's clusters and a sha256 of each input file.

    The text equals json.dumps(manifest, indent=2, sort_keys=True), whose
    key order (config, documents, input_digests, version) lets the
    document entries be written as they come.
    """

    # A document entry as that call lays it out. With indent set, json.dumps
    # runs its pure-Python encoder, ~8x slower per entry than filling this
    # in with the strings' JSON text.
    ENTRY = '\n    {\n      "digest": %s,\n      "doc_id": %s\n    }'

    def __init__(self, fh: TextIO, config: dict):
        self.fh = fh
        head = json.dumps({"config": config}, indent=2, sort_keys=True)
        fh.write(head[: -len("\n}")] + ',\n  "documents": [')
        self.entries = 0

    def add(self, doc_id: str, digest: str) -> None:
        sep = "," if self.entries else ""
        self.fh.write(sep + self.ENTRY % (json.dumps(digest), json.dumps(doc_id)))
        self.entries += 1

    def finish(self, input_digests: list[tuple[str, str]]) -> None:
        tail = json.dumps(
            {
                "input_digests": [{"path": p, "sha256": h} for p, h in input_digests],
                "version": __version__,
            },
            indent=2,
            sort_keys=True,
        )
        self.fh.write(("\n  ]" if self.entries else "]") + "," + tail[1:] + "\n")


def cmd_run(args) -> None:
    from .pipeline import ordered_outputs, run_one, worker_count
    from .scoring import GoldScoreProvider, ReplayScoreProvider
    from .scoring import StringMatchConfig, StringMatchScoreProvider

    policy = _policy_from_args(args)
    replay_path = _replay_path(args.scorer)
    ratio = args.proposal_ratio
    if ratio is not None and not 0 < ratio < math.inf:
        raise ConfigError(f"--proposal-ratio must be positive and finite, got {ratio}")
    jobs = _resolve_jobs(args)
    targets = {
        "--out": args.out,
        "--trace": args.trace,
        "--record-scores": args.record_scores,
        "--manifest": args.manifest,
    }
    inputs = _inputs(args.inputs)
    if replay_path:
        inputs.append((f"--scorer {args.scorer}", replay_path))
    _check_outputs(targets.items(), inputs)
    match_cfg = StringMatchConfig(
        lowercase=not args.no_lowercase,
        strip_determiners=args.strip_determiners,
    )
    # With --manifest, each input file's (path, sha256) once it is read:
    # the corpus files in order, then the replay file.
    digests: list[tuple[str, str]] | None = [] if args.manifest else None
    replay = ReplayScoreProvider.from_file(replay_path, digests) if replay_path else None
    if replay:
        provider = lambda: replay  # one provider for the whole corpus
    elif args.scorer == "gold":
        provider = GoldScoreProvider
    else:
        provider = partial(StringMatchScoreProvider, match_cfg)
    run = partial(
        run_one,
        provider=provider,
        policy=policy,
        ratio=ratio,
        out=bool(args.out),
        trace=bool(args.trace),
        record=args.record_scores is not None,
        manifest=bool(args.manifest),
    )
    # Replay rows are positional across the corpus, so replay runs in this
    # process whatever --jobs says. A pipe or FIFO has no size to read, so
    # it counts as more than one chunk.
    corpus_bytes = sum(
        st.st_size if stat.S_ISREG(st.st_mode) else CHUNK_BYTES + 1
        for st in map(os.stat, args.inputs)
    )
    workers = 1 if replay else worker_count(jobs, corpus_bytes)

    docs = steps = peak = ignored_cap = ignored_inv = evictions = 0
    entity_steps = 0.0
    with _staged(targets) as files:
        out, trace, rows = files.get("--out"), files.get("--trace"), files.get("--record-scores")
        manifest = None
        if args.manifest:
            manifest = _ManifestWriter(
                files["--manifest"],
                {
                    "command": "run",
                    "policy": policy.policy.value,
                    "capacity": policy.capacity,
                    "scorer": args.scorer,
                    "singletons": policy.singleton_mode.value,
                    "proposal_ratio": args.proposal_ratio,
                    "lowercase": match_cfg.lowercase,
                    "strip_determiners": match_cfg.strip_determiners,
                    "format": args.format,
                    "inputs": [str(p) for p in args.inputs],
                },
            )
        chunks = read_chunks(args.inputs, args.format, digests)
        with closing(ordered_outputs(run, chunks, workers)) as outputs:
            for o in outputs:
                docs += 1
                steps += o.mentions
                entity_steps += o.entity_steps
                peak = max(peak, o.max_entities)
                ignored_cap += o.ignored_capacity
                ignored_inv += o.ignored_invalid
                evictions += o.evictions
                if out:
                    out.write(o.prediction)
                if trace:
                    trace.write(o.trace)
                if rows:
                    rows.write(o.rows)
                if manifest:
                    manifest.add(o.doc_id, o.digest)
        if replay:
            replay.check_exhausted()
        if manifest:
            manifest.finish(digests)

    pooled_avg = entity_steps / steps if steps else 0.0
    capacity_txt = "none" if policy.capacity is None else str(policy.capacity)
    print(f"documents            {docs}")
    print(
        f"policy               {policy.policy.value} "
        f"(capacity {capacity_txt}, singletons {policy.singleton_mode.value})"
    )
    print(f"scorer               {args.scorer}")
    print(f"entities in memory   avg {pooled_avg:.2f}, max {peak}")
    print(f"ignored (capacity)   {ignored_cap}")
    print(f"ignored (invalid)    {ignored_inv}")
    print(f"evictions            {evictions}")


def cmd_analyze(args) -> None:
    import csv

    from .analytics import CorpusStats, histogram_rows

    if args.buckets < 1:
        raise ConfigError(f"--buckets must be at least 1, got {args.buckets}")
    targets = {}
    if args.out:
        outdir = Path(args.out)
        targets = {
            "per_document": str(outdir / "per_document.csv"),
            "histogram": str(outdir / "spread_histogram.csv"),
        }
        _check_outputs([("--out", p) for p in targets.values()], _inputs(args.inputs))
    stats = CorpusStats(args.buckets, args.exclude_singletons)
    with _made_directory(args.out), _staged(targets) as files:
        per_document = csv.writer(files["per_document"]) if files else None
        if per_document:
            per_document.writerow(["doc_id", "mae", "total_entities", "doc_len"])
        # map drops each document once stats.add returns, before the next
        # one is parsed.
        for row in map(stats.add, iter_documents(args.inputs, args.format)):
            if per_document:
                per_document.writerow(row)
        if files:
            histogram = csv.writer(files["histogram"])
            histogram.writerow(["bucket_lo", "bucket_hi", "count"])
            histogram.writerows(histogram_rows(stats.histogram, args.buckets))

    label_width = 44
    print(f"{'documents':<{label_width}}{stats.documents:>6}")
    print(f"{'Max. Total Entity Count':<{label_width}}{stats.max_total:>6}")
    print(f"{'Max. Active Entity Count':<{label_width}}{stats.max_active:>6}")
    print(
        f"{'Max. Active Entity Count (no singletons)':<{label_width}}"
        f"{stats.max_active_no_singletons:>6}"
    )


def cmd_oracle(args) -> None:
    from .oracle import trace_document, trackable_fraction

    policy = _policy_from_args(args)
    targets = {"--out": args.out}
    _check_outputs(targets.items(), _inputs(args.inputs))
    docs = ignored = total = 0
    with _staged(targets) as files:
        out = files.get("--out")
        traced = map(
            lambda doc: trace_document(doc, policy, out),
            iter_documents(args.inputs, args.format),
        )
        for doc_ignored, doc_total in traced:
            docs += 1
            ignored += doc_ignored
            total += doc_total

    fraction = trackable_fraction(ignored, total)
    mean_ignored = ignored / docs if docs else 0.0
    capacity_txt = "none" if policy.capacity is None else str(policy.capacity)
    print(f"documents            {docs}")
    print(f"policy               {policy.policy.value} (capacity {capacity_txt})")
    print(f"trackable_fraction   {fraction:.6f}")
    print(f"mean_ignored_per_doc {mean_ignored:.3f}")


Clusters = list[list[MentionSpan]]


def _aligned_clusters(
    gold_path: str, pred_path: str, fmt: str
) -> Iterator[tuple[Clusters, Clusters]]:
    """(gold clusters, predicted clusters) per doc_id, in gold file order.

    While both files list the same doc_ids in the same order (as run
    writes them) they are read in lockstep, holding one document of each
    and the doc_ids read. From the first doc_id that differs, the rest of
    the predictions is indexed by doc_id. Raises DocIdMismatch for a
    doc_id repeated in one file, and, once both files are read, for
    doc_ids in only one of them.
    """
    golds = _cluster_records(gold_path, fmt)
    preds = _cluster_records(pred_path, fmt)
    # The doc_ids read in lockstep, from both files. A dict, not a set:
    # CPython grows a set's table fourfold, so 600 doc_ids take 33 KB of
    # table as a set and 13 KB as a dict.
    ids: dict[str, None] = {}
    while True:
        gold_rec = next(golds, None)
        pred_rec = next(preds, None)
        if gold_rec is None or pred_rec is None or gold_rec[0] != pred_rec[0]:
            break
        _add_new(ids, gold_rec[0], gold_path)
        yield gold_rec[1], pred_rec[1]
        del gold_rec, pred_rec  # released before the next pair is read
    if gold_rec is None and pred_rec is None:
        return

    gold_ids, pred_ids = ids, dict(ids)
    rest: dict[str, Clusters] = {}
    for pred_id, pred in chain([pred_rec] if pred_rec else [], preds):
        _add_new(pred_ids, pred_id, pred_path)
        rest[pred_id] = pred
    for gold_id, gold in chain([gold_rec] if gold_rec else [], golds):
        _add_new(gold_ids, gold_id, gold_path)
        if gold_id in rest:
            yield gold, rest.pop(gold_id)

    missing_pred = gold_ids.keys() - pred_ids.keys()
    missing_gold = pred_ids.keys() - gold_ids.keys()
    parts = []
    if missing_pred:
        parts.append(f"not in predictions: {', '.join(sorted(missing_pred)[:5])}")
    if missing_gold:
        parts.append(f"not in gold: {', '.join(sorted(missing_gold)[:5])}")
    if parts:
        raise DocIdMismatch("; ".join(parts))


def _add_new(ids: dict[str, None], doc_id: str, path: str) -> None:
    """Add doc_id to ids; a repeat raises DocIdMismatch.

    A repeat would replace the earlier document and silently shrink the
    corpus being scored.
    """
    if doc_id in ids:
        raise DocIdMismatch(f"duplicate doc_id {doc_id!r} in {path}")
    ids[doc_id] = None


def _cluster_records(path: str, fmt: str) -> Iterator[tuple[str, Clusters]]:
    for chunk in read_chunks([path], fmt):
        for item in chunk:
            if isinstance(item, SourceLine):
                yield _cluster_record(item)
            else:
                yield item.doc_id, [list(c.mentions) for c in item.gold_clusters]


def _cluster_record(line: SourceLine) -> tuple[str, Clusters]:
    """doc_id and clusters of a predictions line or a corpus line.

    The clusters must partition the mentions, which is what the metrics
    are defined for: a span is a pair of integers and appears once, and a
    cluster is not empty (MUC would count it as -1 links).
    """
    where = {"path": line.path, "line": line.line_no}
    obj = json_line(line.text, path=line.path, line_no=line.line_no)
    if not isinstance(obj, dict) or not isinstance(obj.get("doc_id"), str):
        raise ParseError("expected an object with a string doc_id", **where)
    key = "clusters" if "clusters" in obj else "gold_clusters"
    if key not in obj:
        raise ParseError("expected clusters or gold_clusters", **where)
    clusters: Clusters = []
    try:
        for raw in obj[key]:
            cluster = []
            for start, end in raw:
                if type(start) is not int or type(end) is not int:  # bool is not a token index
                    raise TypeError
                cluster.append(MentionSpan(start, end))
            clusters.append(cluster)
    except (TypeError, ValueError):
        raise ParseError(f"ill-typed {key}", **where) from None
    if not all(clusters):
        raise ParseError(f"empty cluster in {key}", **where)
    if len(set(chain.from_iterable(clusters))) < sum(map(len, clusters)):
        repeat = _first_repeat(chain.from_iterable(clusters))
        raise ParseError(
            f"mention {repeat.as_pair()} appears twice in {key}; a mention belongs to one cluster",
            **where,
        )
    return obj["doc_id"], clusters


def _first_repeat(spans: Iterator[MentionSpan]) -> MentionSpan:
    """The first span equal to an earlier one; the caller knows there is one."""
    seen: set[MentionSpan] = set()
    for span in spans:
        if span in seen:
            return span
        seen.add(span)
    raise ValueError("no span repeats")


def _report_table(report: ScoreReport) -> str:
    groups = [("MUC", report.muc), ("B3", report.b_cubed), ("CEAF-phi4", report.ceaf_phi4)]
    head1 = " " * 8 + "".join(f"{name:^21}" for name, _ in groups)
    head2 = " " * 8 + "".join(
        f"{h:>7}" for _ in groups for h in ("P", "R", "F1")
    ) + f"{'Avg F1':>9}"
    row = f"{'corpus':<8}" + "".join(
        f"{100 * v:7.1f}"
        for _, prf in groups
        for v in (prf.precision, prf.recall, prf.f1)
    ) + f"{100 * report.conll_f1:9.1f}"
    return "\n".join([head1, head2, row])


def cmd_score(args) -> None:
    from .metrics import CountAccumulator

    _check_outputs(
        [("--json", args.json)], [(f"gold {args.gold}", args.gold), (f"pred {args.pred}", args.pred)]
    )
    drop = args.singletons == "drop"
    acc = CountAccumulator()
    with _staged({"--json": args.json}) as files:
        for gold, pred in _aligned_clusters(args.gold, args.pred, args.format):
            acc.add(gold, pred, drop_singletons=drop)
            del gold, pred  # released before the next pair is read
        report = acc.report()
        if files:
            payload = {
                "muc": vars(report.muc),
                "b_cubed": vars(report.b_cubed),
                "ceaf_phi4": vars(report.ceaf_phi4),
                "conll_f1": report.conll_f1,
            }
            files["--json"].write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(_report_table(report))


def _check_synth_args(args) -> None:
    """Reject the flag values that synthesize_document would clamp or fail on.

    It draws each document's entities from min..max entities, its gold
    mentions from the entity count up to max mentions, and its token count
    from max(8, 2 per minimum entity) up to max tokens.
    """
    tokens = max(8, 2 * args.min_entities)
    floors = [
        ("--docs", args.docs, 0, "0"),
        ("--extra-candidates", args.extra_candidates, 0, "0"),
        ("--min-entities", args.min_entities, 1, "1"),
        ("--max-entities", args.max_entities, args.min_entities,
         f"--min-entities ({args.min_entities})"),
        ("--max-mentions", args.max_mentions, args.max_entities,
         f"--max-entities ({args.max_entities})"),
        ("--max-tokens", args.max_tokens, tokens, f"{tokens} (8, and 2 per --min-entities)"),
    ]
    for flag, value, floor, least in floors:
        if value < floor:
            raise ConfigError(f"{flag} must be at least {least}, got {value}")


def cmd_synth(args) -> None:
    from .synth import synthesize_corpus

    _check_synth_args(args)
    _check_outputs([("--out", args.out)], [])
    with _staged({"--out": args.out}) as files:
        docs = synthesize_corpus(
            args.seed,
            args.docs,
            max_tokens=args.max_tokens,
            max_entities=args.max_entities,
            max_mentions=args.max_mentions,
            min_entities=args.min_entities,
            extra_candidates=args.extra_candidates,
        )
        files["--out"].writelines(document_to_jsonl(doc) + "\n" for doc in docs)
    print(f"wrote {len(docs)} documents to {args.out}")


