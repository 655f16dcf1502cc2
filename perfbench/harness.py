"""Shared pieces of the benchmark: spans, operation gates, statistics,
fresh child processes and provenance.

Nothing here imports the package under test, so the fresh-process
workload keeps the benchmark process itself free of numpy.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS/OpenMP thread in the benchmark process and in every child, so a run on a
# shared 2-core box never has more runnable threads than cores.
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

CHILD_TIMEOUT_S = 60

class Tracer:
    """In-memory spans around calls into the package's public functions.

    Disabled, ``call`` is a plain call and ``span`` records nothing, so the
    untraced run pays only a branch per call.
    """

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start_ns": 0,
            "end_ns": 0,
        }
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def durations_s(self, name: str) -> list[float]:
        return [(s["end_ns"] - s["start_ns"]) * 1e-9 for s in self.spans if s["name"] == name]

    def with_attr(self, name: str, key: str) -> list[tuple[float, object]]:
        """(duration in s, attribute value) for every span of that name."""
        return [
            ((s["end_ns"] - s["start_ns"]) * 1e-9, s["attrs"][key])
            for s in self.spans
            if s["name"] == name and key in s.get("attrs", {})
        ]


class Ops:
    """Attempted and failed operations; a failed check never aborts a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @contextmanager
    def op(self, name: str):
        """One attempted operation; an exception inside it marks it failed."""
        state = _OpState(name)
        self.attempted += 1
        try:
            yield state
        except Exception:
            state.problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        if state.problems:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(f"{name}: {'; '.join(state.problems)}")


class _OpState:
    def __init__(self, name: str):
        self.name = name
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def close(value: float, expected: float, abs_tol: float = 0.0, rel_tol: float = 0.0) -> bool:
    return abs(value - expected) <= max(abs_tol, rel_tol * abs(expected))


def median(values: list[float]) -> float:
    return statistics.median(values)


def percentile(values: list[float], pct: int) -> float:
    """Inclusive-method percentile, pct in 1..99."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def stat(value: float, unit: str, samples: int, **extra) -> dict:
    out = {"value": value, "unit": unit, "samples": samples}
    out.update(extra)
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``python <args>`` from the checkout root; wall time covers start to exit.

    ``subprocess.run`` kills and reaps the child if it outlives the timeout.
    """
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    return time.perf_counter() - t0, proc


def fresh_import_s(ops: Ops, tracer: Tracer, repeats: int) -> list[float]:
    """Wall times of fresh processes that import ``wiregrid.cli`` and exit."""
    times = []
    for _ in range(repeats):
        with ops.op("setup.fresh_import") as op, tracer.span("cli.fresh.import_cli"):
            dt, proc = run_child(["-c", "import wiregrid.cli"])
            op.check(proc.returncode == 0, f"import exited {proc.returncode}: {proc.stderr[-300:]!r}")
            times.append(dt)
    return times


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has reaped."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def source_digest() -> str:
    """SHA-256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "wiregrid").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "source_sha256": source_digest(),
        "thread_caps": THREAD_CAPS,
    }


def write_json(name: str, payload: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(payload, indent=1, default=str) + "\n", encoding="utf-8")
    return path
