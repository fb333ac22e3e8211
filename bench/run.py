"""Benchmark runner for streamcoref.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It generates the
workload's corpus from the seed, then:

* with --trace 0, runs the workload's CLI chain (run, replay, score,
  analyze, oracle; see chain.py) as child processes, one at a time, pass
  after pass until S seconds have passed, and reports the median of each
  end-to-end metric over the passes;
* with --trace 1, runs the chain once, runs `run` again with the other
  --jobs value, then calls every layer in-process under spans (see
  layers.py), alternating with an untraced copy of the same sequence
  until S seconds have passed since the first call, and reports the
  median of each per-layer metric.

Every CLI call and every output check is one attempted operation. The
metric names and units are read from BENCHMARK.json. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Scratch files live in .bench_work/ and are removed at the end; results
and spans are kept in .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5


def _args(argv):
    p = argparse.ArgumentParser(description="streamcoref benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _load_streamcoref():
    """Import the package from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import streamcoref

    if Path(streamcoref.__file__).resolve().parent != SRC / "streamcoref":
        raise SystemExit(f"error: imported streamcoref from {streamcoref.__file__}")


def _setup_sample(workdir, launcher, ops) -> float:
    """Wall time of one `streamcoref --version`: interpreter start and imports.

    This process has already imported the same sources, so bytecode and the
    page cache are warm, as they are for a user's second call.
    """
    res = launcher.call(["--version"], workdir)
    ops.record("setup", res.ok, res.stderr)
    return res.wall_s


class Ops:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail.strip()[-300:]}")

    def add_pass(self, result) -> None:
        self.attempted += result.attempted
        self.failures.extend(result.failures)


def _end_to_end(prep, workdir, launcher, seconds, ops):
    """Chain passes for `seconds`; returns median metrics and per-pass samples.

    A setup sample precedes each pass, so set-up time is sampled across the
    same stretch of time as the chain.
    """
    from chain import build_chain, run_pass

    steps = build_chain(prep, workdir)
    setup, samples = [], []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        setup.append(_setup_sample(workdir, launcher, ops))
        result = run_pass(steps, workdir, launcher)
        ops.add_pass(result)
        c = result.calls
        samples.append(
            {
                "pipeline_s": sum(r.wall_s for r in c.values()),
                "run_mentions_per_s": prep.mentions / c["run"].wall_s,
                "replay_mentions_per_s": prep.mentions / c["replay"].wall_s,
                "score_s": c["score"].wall_s,
                "analyze_s": c["analyze"].wall_s,
                "oracle_s": c["oracle"].wall_s,
                "peak_rss_mb": max(r.peak_rss_mb for r in c.values()),
            }
        )
    while len(setup) < SETUP_SAMPLES:
        setup.append(_setup_sample(workdir, launcher, ops))
    metrics = {"setup_s": statistics.median(setup)}
    for key in samples[0]:
        metrics[key] = statistics.median(v[key] for v in samples)
    return metrics, {"setup_s": setup, "passes": samples}


def _per_layer(prep, workdir, launcher, seconds, ops):
    from chain import CHAIN, build_chain, run_pass
    from layers import layer_metrics, layer_pass
    from spans import Tracer

    w = prep.workload
    # The chain calls count toward `seconds`, so a traced run is no longer
    # than an untraced one.
    start = time.perf_counter()
    setup = [_setup_sample(workdir, launcher, ops) for _ in range(SETUP_SAMPLES)]
    steps = build_chain(prep, workdir)
    chain = run_pass(steps, workdir, launcher)
    ops.add_pass(chain)
    output_bytes = sum(p.stat().st_size for s in steps for p in s.outputs if p.exists())
    other_jobs = 1 if w.jobs == 2 else 2
    other = run_pass(build_chain(prep, workdir, run_jobs=other_jobs)[:1], workdir, launcher)
    ops.add_pass(other)
    walls = {w.jobs: chain.calls["run"].wall_s, other_jobs: other.calls["run"].wall_s}

    tracers, traced, untraced = [], [], []
    while not traced or time.perf_counter() - start < seconds:
        # Alternate which copy goes first so drift does not favour one side.
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for enabled in order:
            tracer = Tracer(f"{w.name}-s{prep.seed}-p{len(traced)}", enabled)
            t0 = time.perf_counter()
            counts = layer_pass(prep, tracer, workdir)
            wall = time.perf_counter() - t0
            ops.record("layers.validate", counts["validate_problems"] == 0)
            ops.record("layers.replay_identical", counts["replay_identical"])
            if enabled:
                tracers.append(tracer)
                traced.append((wall, layer_metrics(tracer, counts)))
            else:
                untraced.append(wall)

    metrics = {
        key: statistics.median(m[key] for _, m in traced) for key in traced[0][1]
    }
    metrics["trace.overhead_ratio"] = statistics.median(t for t, _ in traced) / statistics.median(
        untraced
    )
    metrics["cli.jobs2_speedup"] = walls[1] / walls[2]
    metrics["cli.run_overhead_s"] = (
        chain.calls["run"].wall_s
        - statistics.median(setup)
        - metrics["ingest.parse_s"]
        - metrics["engine.us_per_mention"] * prep.mentions / 1e6
    )
    metrics["cli.output_bytes"] = output_bytes
    for name in CHAIN:
        metrics[f"cli.{name}.peak_rss_mb"] = chain.calls[name].peak_rss_mb
    samples = {
        "setup_s": setup,
        "traced_s": [t for t, _ in traced],
        "untraced_s": untraced,
        "passes": [m for _, m in traced],
    }
    return metrics, tracers, samples


def main(argv=None) -> int:
    args = _args(argv)
    if args.seconds < 1:
        raise SystemExit("error: --seconds must be at least 1")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"error: {spec_path} not found")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"error: unknown workload {args.workload!r}; have {names}")
    if not (SRC / "streamcoref" / "__init__.py").is_file():
        raise SystemExit(f"error: no streamcoref sources under {SRC}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    from procs import Launcher, cli_env

    base = ROOT / ".bench_work"
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = base / f"{tag}-{os.getpid()}"
    workdir.mkdir()
    ops = Ops()
    try:
        # Start the launcher while this process is still small (see procs.py).
        with Launcher(cli_env(SRC)) as launcher:
            _load_streamcoref()
            from spans import write_spans
            from workloads import WORKLOADS, prepare

            why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
            if why != WORKLOADS[args.workload].why:
                raise SystemExit("error: BENCHMARK.json and workloads.py disagree on why")
            prep = prepare(WORKLOADS[args.workload], args.seed, workdir)
            if args.trace:
                metrics, tracers, samples = _per_layer(
                    prep, workdir, launcher, args.seconds, ops
                )
                write_spans(tracers, results / f"{tag}.spans.jsonl")
            else:
                metrics, samples = _end_to_end(prep, workdir, launcher, args.seconds, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        raise SystemExit(
            f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json"
        )
    failed = len(ops.failures)
    for reason in ops.failures:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {json.dumps(prep.properties)}")
    for name, unit in units.items():
        print(f"{args.workload:<16} {name:<28} {metrics[name]:>16.6f} {unit}")
    print(f"{args.workload:<16} {'failed_ratio':<28} {failed / ops.attempted:>16.6f} ratio")
    record = {
        "correct": failed == 0,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    details = {"properties": prep.properties, "failures": ops.failures, "samples": samples}
    (results / f"{tag}.json").write_text(
        json.dumps({**record, **details}, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
