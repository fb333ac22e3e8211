"""The CLI command chain of each workload, and the checks on its outputs.

One pass runs five CLI calls in order: `run` with the workload's options,
`run --scorer replay:` (named "replay"), `score`, `analyze` and `oracle`.
Every call is one operation, which fails on a non-zero exit; every check
on a call's outputs is one more operation. No check compares against a
recorded digest: expectations come from the library in-process or from a
closed form, so a behaviour change the library agrees with is not a failure.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from procs import CallResult, Launcher
from workloads import Prepared

CHAIN = ("run", "replay", "score", "analyze", "oracle")


@dataclass
class Step:
    name: str
    args: list[str]
    outputs: list[Path]
    checks: list[tuple[str, Callable[[CallResult], bool]]] = field(default_factory=list)


@dataclass
class PassResult:
    calls: dict[str, CallResult]
    attempted: int
    failures: list[str]


def _policy_args(policy) -> list[str]:
    args = ["--policy", policy.policy.value]
    if policy.capacity is not None:
        args += ["--capacity", str(policy.capacity)]
    return args


def _read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _predictions_match(prep: Prepared, path: Path) -> Callable[[CallResult], bool]:
    def check(_: CallResult) -> bool:
        got = {o["doc_id"]: o["clusters"] for o in _read_jsonl(path)}
        return got == prep.expected_clusters

    return check


def _trace_match(prep: Prepared, path: Path) -> Callable[[CallResult], bool]:
    return lambda _: _read_jsonl(path) == prep.expected_trace


def _same_bytes(a: Path, b: Path) -> Callable[[CallResult], bool]:
    return lambda _: a.read_bytes() == b.read_bytes()


def _report_match(expected: dict, path: Path) -> Callable[[CallResult], bool]:
    def check(_: CallResult) -> bool:
        got = json.loads(path.read_text(encoding="utf-8"))
        if abs(got["conll_f1"] - expected["conll_f1"]) > 1e-9:
            return False
        return all(
            abs(got[m][k] - expected[m][k]) <= 1e-9
            for m in ("muc", "b_cubed", "ceaf_phi4")
            for k in ("precision", "recall", "f1")
        )

    return check


def _printed(label: str, expected: float) -> Callable[[CallResult], bool]:
    """The figure printed after `label` is `expected` rounded to its digits.

    The tolerance is half a unit in the last printed place, plus 1e-12 for
    float representation, so a value that lies exactly halfway (0.4019375,
    printed as 0.401938) still matches. An integer must be exact.
    """
    pattern = re.compile(rf"^{re.escape(label)}\s+(\S+)\s*$", re.MULTILINE)

    def check(res: CallResult) -> bool:
        m = pattern.search(res.stdout)
        if m is None:
            return False
        text = m.group(1)
        if "." not in text:
            return int(text) == expected
        half_unit = 0.5 * 10.0 ** -len(text.split(".", 1)[1])
        return abs(float(text) - expected) <= half_unit + 1e-12

    return check


def build_chain(prep: Prepared, workdir: Path, run_jobs: int | None = None) -> list[Step]:
    """The workload's five calls; run_jobs overrides the workload's --jobs."""
    w = prep.workload
    corpus = str(prep.corpus)
    policy = _policy_args(w.policy)
    ratio = [] if w.proposal_ratio is None else ["--proposal-ratio", str(w.proposal_ratio)]
    pred, trace = workdir / "pred.jsonl", workdir / "trace.jsonl"
    replay_pred, replay_trace = workdir / "replay_pred.jsonl", workdir / "replay_trace.jsonl"
    report = workdir / "report.json"
    jobs = str(run_jobs or w.jobs)

    if w.name == "record-replay":
        rows = workdir / "rows.jsonl"
        run = Step(
            "run",
            ["run", corpus, "--scorer", w.scorer, *policy, *ratio, "--jobs", jobs,
             "--record-scores", str(rows), "--trace", str(trace)],
            [rows, trace],
            [("run.trace", _trace_match(prep, trace))],
        )
        replay = Step(
            "replay",
            ["run", corpus, "--scorer", f"replay:{rows}", *policy, *ratio,
             "--trace", str(replay_trace), "--out", str(replay_pred)],
            [replay_trace, replay_pred],
            [
                ("replay.trace_identical", _same_bytes(trace, replay_trace)),
                ("replay.predictions", _predictions_match(prep, replay_pred)),
            ],
        )
        scored = replay_pred
    else:
        outputs = {"--out": pred}
        checks = [("run.predictions", _predictions_match(prep, pred))]
        if w.name == "many-short-docs":
            outputs.update({"--trace": trace, "--manifest": workdir / "manifest.json"})
            checks.append(("run.trace", _trace_match(prep, trace)))
        run = Step(
            "run",
            ["run", corpus, "--scorer", w.scorer, *policy, *ratio, "--jobs", jobs,
             *(a for flag, path in outputs.items() for a in (flag, str(path)))],
            list(outputs.values()),
            checks,
        )
        # Rows recorded in-process from the same decisions: replaying them
        # must give the run's predictions without calling any provider.
        replay = Step(
            "replay",
            ["run", corpus, "--scorer", f"replay:{prep.rows}", *policy, *ratio,
             "--out", str(replay_pred)],
            [replay_pred],
            [("replay.predictions", _predictions_match(prep, replay_pred))],
        )
        scored = prep.split or pred

    score = Step(
        "score",
        ["score", corpus, str(scored), "--json", str(report)],
        [report],
        [("score.report", _report_match(prep.expected_report, report))],
    )
    analyze = Step(
        "analyze",
        ["analyze", corpus],
        [],
        [("analyze.mae", _printed("Max. Active Entity Count", prep.expected_mae))],
    )
    oracle = Step(
        "oracle",
        ["oracle", corpus, *_policy_args(w.oracle_policy)],
        [],
        [("oracle.trackable", _printed("trackable_fraction", prep.expected_trackable))],
    )
    return [run, replay, score, analyze, oracle]


def run_pass(steps: list[Step], workdir: Path, launcher: Launcher) -> PassResult:
    """Run every step once, in order, and apply its checks."""
    for step in steps:
        for path in step.outputs:
            path.unlink(missing_ok=True)
    calls: dict[str, CallResult] = {}
    attempted = 0
    failures: list[str] = []
    for step in steps:
        res = launcher.call(step.args, workdir)
        calls[step.name] = res
        attempted += 1 + len(step.checks)
        if not res.ok:
            failures.append(f"{step.name}: exit {res.returncode}: {res.stderr.strip()[-300:]}")
            failures.extend(f"{name}: not checked" for name, _ in step.checks)
            continue
        for name, check in step.checks:
            try:
                passed = check(res)
            except Exception as e:  # a malformed output is a failed check
                passed = False
                name = f"{name} ({type(e).__name__}: {e})"
            if not passed:
                failures.append(name)
    return PassResult(calls=calls, attempted=attempted, failures=failures)
