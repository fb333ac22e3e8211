"""Run the streamcoref CLI as child processes and measure each one.

Peak RSS comes from os.wait4 on the child: the kernel reports the largest
resident set of the child and of every descendant it reaped (the --jobs
worker pool), so one call measures one CLI process tree and nothing else
on the machine. That figure is never below the resident set the child's
parent had when it forked, so the children are not started by the benchmark
process, which holds whole corpora in memory: they are started by a small launcher
process (this file run as a script), itself started before the benchmark
process loads anything. Wall time is taken by the launcher around the child's
whole life.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

CALL_TIMEOUT_S = 60.0  # a normal call takes a few seconds


@dataclass(frozen=True)
class CallResult:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("COREF_JOBS", None)  # --jobs on the command line is the only source
    return env


class Launcher:
    """Owns the launcher process; call() runs one CLI command through it."""

    def __init__(self, env: dict):
        self._proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def call(self, args: list[str], cwd: Path) -> CallResult:
        """Run `python -m streamcoref.cli ARGS` to completion in cwd."""
        argv = (sys.executable, "-m", "streamcoref.cli", *args)
        out_path, err_path = cwd / ".stdout", cwd / ".stderr"
        request = {"argv": argv, "cwd": str(cwd), "stdout": str(out_path), "stderr": str(err_path)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher process ended unexpectedly")
        res = json.loads(reply)
        return CallResult(
            wall_s=res["wall_s"],
            peak_rss_mb=res["maxrss_kib"] / 1024.0,
            returncode=res["returncode"],
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CALL_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _spawn(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"],
            cwd=request["cwd"],
            stdin=subprocess.DEVNULL,  # the launcher's stdin carries requests
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(CALL_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB.
    return {"wall_s": wall, "maxrss_kib": usage.ru_maxrss, "returncode": proc.returncode}


def _serve() -> None:
    """Launcher loop: one JSON request per stdin line, one JSON reply each."""
    for line in sys.stdin:
        sys.stdout.write(json.dumps(_spawn(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
