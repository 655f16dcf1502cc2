"""wiregrid benchmark: one command, three workloads, per-layer tracing.

    python3 perfbench/run.py --workload reference-cli --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it measures the package in ``src/``.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line before it
holds the full result: provenance, sample counts, the descriptive figures
and any failed checks.  Results and spans are also written to
``.bench_out/``.
"""

from __future__ import annotations

import os
import sys

from harness import THREAD_CAPS

# Before numpy is imported anywhere in this process.
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402

from harness import OUT, SRC, Ops, Tracer, peak_rss_mb, provenance, stat, write_json  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

END_TO_END = ("setup_s", "throughput_per_s", "light_op_ms", "mid_op_ms", "heavy_op_ms",
              "peak_rss_mb", "ok_ops_ratio")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in [1, 60]")
    return args


def _overhead(workload: str, seed: int, digest: str, traced: dict) -> dict | None:
    """Traced minus untraced end-to-end figures, as a share of the untraced,
    when an untraced run of the same source, workload and seed is on disk."""
    path = OUT / f"e2e-{workload}-seed{seed}-{digest[:16]}.json"
    if not path.exists():
        return None
    untraced = json.loads(path.read_text(encoding="utf-8"))
    return {k: traced[k] / untraced[k] - 1.0 for k in traced if untraced.get(k)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wiregrid" / "cli.py").is_file():
        print(f"error: no package to measure at {SRC / 'wiregrid'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    prov = provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    ctx = Context(args.workload, args.seed, args.seconds, Tracer(args.workload, bool(args.trace)), Ops())
    t0 = time.perf_counter()
    out = WORKLOADS[args.workload](ctx)
    workload_s = time.perf_counter() - t0

    ops = ctx.ops
    e2e = dict(out["generic"], setup_s=out["setup"])
    e2e["peak_rss_mb"] = stat(peak_rss_mb(), "MB", 1)
    e2e["ok_ops_ratio"] = stat(1.0 - ops.failed / ops.attempted, "ratio", ops.attempted)
    e2e_values = {k: e2e[k]["value"] for k in END_TO_END}

    result = {
        "provenance": prov,
        "workload_s": workload_s,
        "end_to_end": {k: e2e[k] for k in END_TO_END},
        "figures": dict(out["figures"],
                              failed_ops_ratio=stat(ops.failed / ops.attempted, "ratio", ops.attempted)),
    }
    if args.trace:
        from layers import per_layer

        result["probe_work"], layer = per_layer(ctx)
        result["per_layer"] = layer
        result["trace_overhead"] = _overhead(args.workload, args.seed, prov["source_sha256"], e2e_values)
        trace_path = write_json(f"trace-{args.workload}-seed{args.seed}.json",
                                {"provenance": prov, "spans": ctx.tracer.spans})
        result["trace_file"] = str(trace_path.relative_to(OUT.parent))
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in layer.items()}
    else:
        write_json(f"e2e-{args.workload}-seed{args.seed}-{prov['source_sha256'][:16]}.json", e2e_values)
        metrics = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]} for k in END_TO_END}

    result.update(attempted=ops.attempted, failed=ops.failed, failures=ops.failures)
    write_json(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", result)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for failure in ops.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result, default=str))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
