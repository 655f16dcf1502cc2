"""Per-layer metrics of the traced run.

A traced run records spans around the workload's own calls, then runs one
reference probe that calls every layer's public functions on the reference
geometry, so every per-layer metric exists on every workload.  Timings are
medians over all spans of a name (workload spans included); counts are
computed from the probe's reference-geometry objects, not measured, and must
repeat exactly from run to run.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stdout

from harness import OUT, Tracer, median, run_child, source_digest, write_json
from workloads import MC_SIZES, SUBCOMMANDS, Context

FLOOR_REPEATS = 5
IMPORTTIME_REPEATS = 3
MICRO_REPEATS = 25  # calls of microsecond-scale functions, one span each
SPAN_COST_REPEATS = 20_000


def _size_label(n: int) -> str:
    return f"{n:.0e}".replace("+0", "")


UNITS = {
    "cli.interpreter_floor_s": "s",
    "cli.numpy_import_s": "s",
    "cli.package_import_s": "s",
    **{f"cli.inproc.{sub}_s": "s" for sub in SUBCOMMANDS},
    "cli.emit_ms": "ms",
    "config.validate_config_us": "us",
    "config.derive_geometry_us": "us",
    "diffraction.strip_far_field_s": "s",
    "diffraction.strip_transform_terms": "count",
    "diffraction.strip_angles": "count",
    "diffraction.strip_aperture_nodes": "count",
    "diffraction.strip_useful_nodes": "count",
    "diffraction.strip_ns_per_term": "ns",
    "diffraction.strip_useful_node_ratio": "ratio",
    "diffraction.strip_kernel_bytes_computed": "B",
    "diffraction.window_sample_ratio.strip": "ratio",
    "diffraction.window_sample_ratio.two_beam": "ratio",
    "diffraction.two_beam_pattern_ms": "ms",
    "diffraction.two_beam_pattern_samples": "count",
    "diffraction.band_power_ms": "ms",
    "diffraction.oracle_amplitude_ms": "ms",
    "diffraction.oracle_transform_terms": "count",
    "budget.two_beam_budget_ms": "ms",
    "budget.single_beam_budget_s": "s",
    "budget.absorbed_fraction_quadrature_ms": "ms",
    "complementarity.sweep_rows_per_s": "1/s",
    "complementarity.grid_metrics_us": "us",
    "montecarlo.uniforms_ns_per_photon": "ns",
    **{f"montecarlo.sample_fates_ns_per_photon.{_size_label(n)}": "ns" for n in MC_SIZES},
    "montecarlo.estimate_metrics_us": "us",
    "scenarios.truth_table_us": "us",
    "trace.span_cost_us": "us",
}

COMPUTED = (
    "diffraction.strip_transform_terms",
    "diffraction.strip_angles",
    "diffraction.strip_aperture_nodes",
    "diffraction.strip_useful_nodes",
    "diffraction.strip_useful_node_ratio",
    "diffraction.strip_kernel_bytes_computed",
    "diffraction.window_sample_ratio.strip",
    "diffraction.window_sample_ratio.two_beam",
    "diffraction.two_beam_pattern_samples",
    "diffraction.oracle_transform_terms",
)

# Work sizes of the probe itself, reported with the result but not metrics:
# they are fixed by this file, not by the package.
PROBE_WORK = ("complementarity.sweep_rows", "montecarlo.probe_photons")


def _import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds of top-level imports in ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].startswith(" ") and not parts[2].startswith("  "):
            try:
                out[parts[2].strip()] = int(parts[1]) * 1e-6
            except ValueError:
                continue
    return out


def _fresh_floors(ctx: Context) -> dict[str, float]:
    tr, ops = ctx.tracer, ctx.ops
    floors, numpy_s, package_s = [], [], []
    for _ in range(FLOOR_REPEATS):
        with ops.op("probe.interpreter_floor") as op, tr.span("cli.fresh.interpreter_floor"):
            dt, proc = run_child(["-c", "pass"])
            op.check(proc.returncode == 0, "python -c pass failed")
            floors.append(dt)
    for _ in range(IMPORTTIME_REPEATS):
        with ops.op("probe.importtime") as op, tr.span("cli.fresh.importtime"):
            _, proc = run_child(["-X", "importtime", "-c", "import numpy, wiregrid.cli"])
            times = _import_times(proc.stderr.decode(errors="replace"))
            op.check(proc.returncode == 0 and "numpy" in times and "wiregrid.cli" in times,
                     "importtime output lacks numpy or wiregrid.cli")
            numpy_s.append(times["numpy"])
            package_s.append(times["wiregrid.cli"])
    return {
        "cli.interpreter_floor_s": median(floors),
        "cli.numpy_import_s": median(numpy_s),
        "cli.package_import_s": median(package_s),
    }


def _in_windows(theta, windows) -> int:
    import numpy as np

    return sum(int(np.count_nonzero((theta >= lo) & (theta <= hi))) for lo, hi in windows)


def reference_probe(ctx: Context) -> dict[str, float]:
    """Call every layer once (microsecond calls a few times) on the reference geometry.

    Returns the computed counts; the timings live in the tracer's spans.
    """
    import numpy as np
    from wiregrid import (
        ExperimentConfig,
        absorbed_fraction_quadrature,
        band_power,
        derive_geometry,
        detector_windows,
        estimate_metrics,
        far_field_amplitude,
        grid_metrics,
        photon_uniforms,
        sample_fates,
        single_beam_budget,
        single_beam_strip_far_field,
        sweep_thickness,
        symmetric_grid,
        truth_table,
        two_beam_budget,
        two_beam_grid_intensity,
        two_beam_pattern,
        validate_config,
        wire_strip_complement_profile,
    )
    from wiregrid import cli

    tr, ops = ctx.tracer, ctx.ops
    c = ExperimentConfig()
    windows = detector_windows(c)
    counts: dict[str, float] = {}

    with ops.op("probe.config"):
        for _ in range(MICRO_REPEATS):
            tr.call("config.validate_config", validate_config, c)
            tr.call("config.derive_geometry", derive_geometry, c)

    with ops.op("probe.diffraction") as op:
        for _ in range(3):
            pattern = tr.call("diffraction.two_beam_pattern", two_beam_pattern, c)
            for window in windows:
                tr.call("diffraction.band_power", band_power, pattern, *window)
        strip = tr.call("diffraction.single_beam_strip_far_field", single_beam_strip_far_field, c)
        # The strip profile's grid: single_beam_strip_far_field samples the
        # aperture for a +-5 lambda/b span (capped at 0.2), as does the public
        # complement profile at that span; its non-zero nodes are the strips.
        span = min(5.0 * c.wavelength / c.wire_thickness, 0.2)
        aperture = wire_strip_complement_profile(c, max_sin_theta=span)
        angles, nodes = strip.theta_samples.size, aperture.x_samples.size
        useful = int(np.count_nonzero(aperture.amplitude_samples))
        oracle_profile = wire_strip_complement_profile(c, max_sin_theta=0.0025)
        oracle_theta = np.linspace(-0.0025, 0.0025, 1501)
        for _ in range(3):
            tr.call("diffraction.far_field_amplitude", far_field_amplitude, oracle_profile, oracle_theta)
        counts.update({
            "diffraction.strip_angles": angles,
            "diffraction.strip_aperture_nodes": nodes,
            "diffraction.strip_useful_nodes": useful,
            "diffraction.strip_transform_terms": angles * nodes,
            "diffraction.strip_useful_node_ratio": useful / nodes,
            "diffraction.strip_kernel_bytes_computed": angles * nodes * 16,
            "diffraction.window_sample_ratio.strip": _in_windows(strip.theta_samples, windows) / angles,
            "diffraction.window_sample_ratio.two_beam":
                _in_windows(pattern.theta_samples, windows) / pattern.theta_samples.size,
            "diffraction.two_beam_pattern_samples": pattern.theta_samples.size,
            "diffraction.oracle_transform_terms": oracle_theta.size * oracle_profile.x_samples.size,
        })
        op.check(useful > 0 and angles > 0, "empty strip pattern or aperture")

    with ops.op("probe.budget") as op:
        for _ in range(3):
            budget = tr.call("budget.two_beam_budget", two_beam_budget, c)
        single = tr.call("budget.single_beam_budget", single_beam_budget, c)
        for _ in range(MICRO_REPEATS):
            tr.call("budget.absorbed_fraction_quadrature", absorbed_fraction_quadrature, c)
        op.check(0.0 < single.wrong_detector < single.own_detector_decrease, "single-beam budget")

    with ops.op("probe.complementarity") as op:
        for _ in range(MICRO_REPEATS):
            tr.call("complementarity.grid_metrics", grid_metrics, c)
        b_values = list(np.linspace(1e-6, 150e-6, 150))
        for _ in range(5):
            with tr.span("complementarity.sweep_thickness", rows=len(b_values)):
                rows = sweep_thickness(c, b_values)
        counts["complementarity.sweep_rows"] = len(rows)
        op.check(len(rows) == len(b_values), "sweep dropped rows")

    with ops.op("probe.montecarlo") as op:
        photons = 0
        for n in MC_SIZES:
            with tr.span("montecarlo.sample_fates", n=n):
                tallies = sample_fates(budget, n, 12345)
            photons += n
        for _ in range(2):
            with tr.span("montecarlo.photon_uniforms", photons=MC_SIZES[1]):
                photon_uniforms(12345, 0, MC_SIZES[1])
            photons += MC_SIZES[1]
        for _ in range(MICRO_REPEATS):
            tr.call("montecarlo.estimate_metrics", estimate_metrics, tallies, c)
        counts["montecarlo.probe_photons"] = photons
        op.check(tallies.total == MC_SIZES[-1], "tally total")

    with ops.op("probe.scenarios"):
        for _ in range(MICRO_REPEATS):
            tr.call("scenarios.truth_table", truth_table, c)

    for sub in SUBCOMMANDS:
        with ops.op(f"probe.cli.{sub}") as op:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = tr.call(f"cli.run.{sub}", cli.run, cli.RunRequest(subcommand=sub))
            op.check(code == 0, f"cli.run({sub}) returned {code}")
            json.loads(buf.getvalue())

    with ops.op("probe.cli.emit"):
        theta = symmetric_grid(0.01, 4001)
        sections = {
            "config": c.as_dict(),
            "pattern": {
                "theta_rad": [float(t) for t in theta],
                "intensity_rel": [float(v) for v in two_beam_grid_intensity(theta, c)],
            },
        }
        for _ in range(5):
            tr.call("cli.emit_report", cli.emit_report, sections, "json", io.StringIO())

    with ops.op("probe.computed_counts_repeat") as op:
        op.check(_counts_repeat(counts), "computed counts differ from an earlier run of this source")
    return counts


def _counts_repeat(counts: dict) -> bool:
    """True unless an earlier run of the same source recorded other counts."""
    name = f"counts-{source_digest()[:16]}.json"
    path = OUT / name
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8")) == counts
    write_json(name, counts)
    return True


def _span_cost_us(workload: str) -> float:
    """Cost of recording one empty span, measured on a scratch tracer."""
    scratch = Tracer(workload, True)
    t0 = time.perf_counter()
    for _ in range(SPAN_COST_REPEATS):
        with scratch.span("trace.empty"):
            pass
    return (time.perf_counter() - t0) / SPAN_COST_REPEATS * 1e6


def per_layer(ctx: Context) -> tuple[dict[str, int], dict[str, dict]]:
    """Run the probe and derive every per-layer metric from the spans.

    Returns the probe's own work sizes and the metrics.
    """
    tr = ctx.tracer
    values: dict[str, float] = {}
    samples: dict[str, int] = {}

    def med(metric: str, span: str, scale: float) -> None:
        d = tr.durations_s(span)
        values[metric] = median(d) * scale
        samples[metric] = len(d)

    values.update(_fresh_floors(ctx))
    samples.update({"cli.interpreter_floor_s": FLOOR_REPEATS,
                    "cli.numpy_import_s": IMPORTTIME_REPEATS,
                    "cli.package_import_s": IMPORTTIME_REPEATS})
    counts = reference_probe(ctx)
    values.update(counts)

    for sub in SUBCOMMANDS:
        med(f"cli.inproc.{sub}_s", f"cli.run.{sub}", 1.0)
    med("cli.emit_ms", "cli.emit_report", 1e3)
    med("config.validate_config_us", "config.validate_config", 1e6)
    med("config.derive_geometry_us", "config.derive_geometry", 1e6)
    med("diffraction.strip_far_field_s", "diffraction.single_beam_strip_far_field", 1.0)
    values["diffraction.strip_ns_per_term"] = (
        values["diffraction.strip_far_field_s"] / counts["diffraction.strip_transform_terms"] * 1e9
    )
    med("diffraction.two_beam_pattern_ms", "diffraction.two_beam_pattern", 1e3)
    med("diffraction.band_power_ms", "diffraction.band_power", 1e3)
    med("diffraction.oracle_amplitude_ms", "diffraction.far_field_amplitude", 1e3)
    med("budget.two_beam_budget_ms", "budget.two_beam_budget", 1e3)
    med("budget.single_beam_budget_s", "budget.single_beam_budget", 1.0)
    med("budget.absorbed_fraction_quadrature_ms", "budget.absorbed_fraction_quadrature", 1e3)
    med("complementarity.grid_metrics_us", "complementarity.grid_metrics", 1e6)
    sweeps = tr.with_attr("complementarity.sweep_thickness", "rows")
    values["complementarity.sweep_rows_per_s"] = sum(r for _, r in sweeps) / sum(d for d, _ in sweeps)
    samples["complementarity.sweep_rows_per_s"] = len(sweeps)
    uniforms = tr.with_attr("montecarlo.photon_uniforms", "photons")
    values["montecarlo.uniforms_ns_per_photon"] = sum(d for d, _ in uniforms) / sum(p for _, p in uniforms) * 1e9
    samples["montecarlo.uniforms_ns_per_photon"] = len(uniforms)
    fates = tr.with_attr("montecarlo.sample_fates", "n")
    for n in MC_SIZES:
        per = [d / n * 1e9 for d, size in fates if size == n]
        metric = f"montecarlo.sample_fates_ns_per_photon.{_size_label(n)}"
        values[metric] = median(per)
        samples[metric] = len(per)
    med("montecarlo.estimate_metrics_us", "montecarlo.estimate_metrics", 1e6)
    med("scenarios.truth_table_us", "scenarios.truth_table", 1e6)
    values["trace.span_cost_us"] = _span_cost_us(tr.workload)
    samples["trace.span_cost_us"] = SPAN_COST_REPEATS

    missing = set(UNITS) - set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics not derived: {sorted(missing)}")
    work = {name: values[name] for name in PROBE_WORK}
    return work, {
        name: {
            "value": values[name],
            "unit": UNITS[name],
            "samples": samples.get(name, 1),
            "kind": "computed" if name in COMPUTED else "measured",
        }
        for name in UNITS
    }
