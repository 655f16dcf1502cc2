"""The three workloads. Each is a closed loop with one client in one process.

Every workload returns its end-to-end figures under descriptive names
(``budget_s``, ``mc_photons_per_s``, ...) and fills the generic bounded
metrics of ``BENCHMARK.json`` from them:

==================  ====================  =====================  =====================
metric              reference-cli         mc-tally               geometry-scan
==================  ====================  =====================  =====================
throughput_per_s    7 / cli_total_s       mc_photons_per_s       scan_configs_per_s
light_op_ms         cli_light_s           mc_small_call_ms       scan_config_p50_ms
mid_op_ms           validate_s            median n=1e6 call      scan_config_p75_ms
heavy_op_ms         budget_s              median n=1e7 call      scan_config_p90_ms
==================  ====================  =====================  =====================
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass

from harness import Ops, Tracer, close, fresh_import_s, median, percentile, run_child, stat

SUBCOMMANDS = ("pattern", "budget", "metrics", "sweep", "simulate", "scenario", "validate")
LIGHT_SUBCOMMANDS = ("pattern", "metrics", "sweep", "scenario")
MC_SIZES = (100_000, 1_000_000, 10_000_000)
SETUP_REPEATS = 7
SCAN_MIN_CONFIGS = 100  # p90 needs at least ten configs beyond it
SCAN_POOL = 2048
SWEEP_ROWS = 150
SEED_SPACE = 2**32
# Loops stop here even when failures keep a minimum sample count from filling,
# so a run always ends within 180 s.
HARD_LIMIT_S = 140.0


@dataclass
class Context:
    workload: str
    seed: int
    seconds: int
    tracer: Tracer
    ops: Ops


def _before(start: float, seconds: float) -> bool:
    return time.perf_counter() - start < seconds


def _setup_s(ctx: Context, generate) -> tuple[dict, object]:
    """Median fresh ``import wiregrid.cli`` plus median in-process input generation.

    ``generate`` is called SETUP_REPEATS times with an equally seeded RNG; the
    inputs of the last call are used.
    """
    imports = fresh_import_s(ctx.ops, ctx.tracer, SETUP_REPEATS)
    gen_times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = generate(random.Random(ctx.seed))
        gen_times.append(time.perf_counter() - t0)
    value = median(imports) + median(gen_times)
    return stat(value, "s", len(imports), import_s=median(imports), generate_s=median(gen_times)), inputs


# ---------------------------------------------------------------------------
# reference-cli: the seven subcommands as fresh processes
# ---------------------------------------------------------------------------

def _check_pattern(doc, op) -> None:
    theta = doc["pattern"]["theta_rad"]
    inten = doc["pattern"]["intensity_rel"]
    op.check(len(theta) == len(inten) == 4001, "pattern does not hold 4001 samples")
    op.check(inten == inten[::-1], "pattern is not bit-even")
    op.check(inten[len(inten) // 2] == 0.0, "I(0) is not 0")
    op.check(min(inten) >= 0.0, "negative intensity")


def _check_budget(doc, op) -> None:
    f = doc["two_beam_fractions"]
    op.check(close(f["absorbed"] + f["diffracted_away"] + f["detected"], 1.0, abs_tol=1e-12),
             "two-beam fates do not sum to 1")
    c = doc["two_beam_counts"]
    op.check(close(c["detected"], 997_522, abs_tol=60), f"detected {c['detected']}")
    op.check(close(c["absorbed"], 1_240, abs_tol=30), f"absorbed {c['absorbed']}")
    op.check(close(c["diffracted_away"], 1_238, abs_tol=30), f"away {c['diffracted_away']}")
    op.check(close(c["diffracted_to_detectors"], 2, abs_tol=1), f"to-detectors {c['diffracted_to_detectors']}")
    decrease = 2 * f["absorbed"] - f["diffracted_to_detectors"]
    op.check(close(decrease, 0.002478, rel_tol=0.05), f"two-beam decrease {decrease}")
    op.check(close(f["covered"], 6 * 32 / 2550, rel_tol=1e-6), f"coverage {f['covered']}")
    s = doc["single_beam"]
    op.check(close(s["own_detector_decrease"], 0.1438, rel_tol=0.15), f"own decrease {s['own_detector_decrease']}")
    op.check(close(s["wrong_detector"], 0.0066, rel_tol=0.25), f"wrong detector {s['wrong_detector']}")


def _check_metrics(doc, op) -> None:
    r = doc["report"]
    op.check(r["quantum_whichway"] == 0.0, "K != 0")
    op.check(close(r["quantum_sum"], 0.941, abs_tol=5e-4) and r["quantum_sum"] <= 1.0,
             f"K^2+V^2 = {r['quantum_sum']}")
    op.check(close(r["classical_sum"], 1.936, abs_tol=1e-3) and r["classical_sum"] < 2.0,
             f"K'^2+V^2 = {r['classical_sum']}")
    op.check(close(r["visibility_lower"], 0.9699, abs_tol=1e-4), f"V = {r['visibility_lower']}")
    op.check(close(doc["fractions"]["absorbed"], 0.001240, rel_tol=0.02), "absorbed fraction")


def _check_sweep(doc, op) -> None:
    rows = doc["sweep"]
    op.check(len(rows) == 150, f"{len(rows)} sweep rows")
    vs = [r["visibility_lower"] for r in rows]
    ks = [r["classical_whichway_lower"] for r in rows]
    op.check(all(r["in_domain"] for r in rows), "out-of-domain row in the default sweep")
    op.check(all(b < a for a, b in zip(vs, vs[1:])), "V not strictly decreasing")
    op.check(all(b < a for a, b in zip(ks, ks[1:])), "K' not strictly decreasing")


def _check_simulate(doc, op, seed: int) -> None:
    c = doc["counts"]
    op.check(c["seed"] == seed, "seed not echoed")
    op.check(c["total"] == 1_000_000, "total is not photon_count")
    op.check(c["detected_own"] + c["absorbed"] + c["diffracted_away"] == c["total"],
             "tallies do not sum to the total")
    op.check(close(doc["estimates"]["absorbed_fraction"], 0.00124, rel_tol=0.15), "absorbed estimate")


def _check_scenario(doc, op) -> None:
    rows = doc["scenarios"]
    op.check(len(rows) == 3, "truth table does not hold 3 rows")
    bare, grid, split = rows
    op.check((bare["quantum_whichway"], bare["visibility"], bare["classical_whichway"]) == (0.0, 0.0, 1.0),
             "bare row")
    op.check(grid["quantum_whichway"] == 0.0 and close(grid["visibility"], 0.9699, abs_tol=1e-4)
             and close(grid["classical_whichway"], 0.99752, abs_tol=1e-5), "grid row")
    op.check((split["quantum_whichway"], split["visibility"], split["classical_whichway"]) == (0.0, 1.0, 0.0),
             "splitter row")


def _check_validate(doc, op) -> None:
    failed = [c["check"] for c in doc["checks"] if not c["passed"]]
    op.check(not failed, f"validate checks failed: {failed}")


def reference_cli(ctx: Context) -> dict:
    def generate(rng):
        sim_seed = rng.randrange(SEED_SPACE)
        return sim_seed, [rng.sample(SUBCOMMANDS, len(SUBCOMMANDS)) for _ in range(256)]

    setup, (sim_seed, orders) = _setup_s(ctx, generate)
    walls: dict[str, list[float]] = {sub: [] for sub in SUBCOMMANDS}
    totals: list[float] = []
    first_simulate = None
    start = time.perf_counter()
    passes = 0
    while (passes < 2 or _before(start, ctx.seconds)) and _before(start, HARD_LIMIT_S):
        total = 0.0
        for sub in orders[passes % len(orders)]:
            args = ["-m", "wiregrid.cli", sub]
            if sub == "simulate":
                args += ["--seed", str(sim_seed)]
            proc = None
            with ctx.ops.op(f"cli.{sub}") as op:
                with ctx.tracer.span(f"cli.fresh.{sub}"):
                    dt, proc = run_child(args)
                walls[sub].append(dt)
                total += dt
                op.check(proc.returncode == 0,
                         f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]!r}")
                if proc.returncode == 0:
                    doc = json.loads(proc.stdout)
                    if sub == "simulate":
                        _check_simulate(doc, op, sim_seed)
                    else:
                        _CHECKS[sub](doc, op)
            if sub == "simulate" and proc is not None and proc.returncode == 0:
                if first_simulate is None:
                    first_simulate = proc.stdout
                else:
                    with ctx.ops.op("cli.simulate_repeat") as op:
                        op.check(proc.stdout == first_simulate, "simulate stdout differs between runs")
        totals.append(total)
        passes += 1

    light = [t for sub in LIGHT_SUBCOMMANDS for t in walls[sub]]
    cli_total = median(totals)
    figures = {
        "setup_s": setup,
        "cli_total_s": stat(cli_total, "s", len(totals)),
        "budget_s": stat(median(walls["budget"]), "s", len(walls["budget"])),
        "validate_s": stat(median(walls["validate"]), "s", len(walls["validate"])),
        "simulate_s": stat(median(walls["simulate"]), "s", len(walls["simulate"])),
        "cli_light_s": stat(median(light), "s", len(light)),
    }
    generic = {
        "throughput_per_s": stat(len(SUBCOMMANDS) / cli_total, "1/s", len(totals)),
        "light_op_ms": stat(1e3 * figures["cli_light_s"]["value"], "ms", len(light)),
        "mid_op_ms": stat(1e3 * figures["validate_s"]["value"], "ms", len(walls["validate"])),
        "heavy_op_ms": stat(1e3 * figures["budget_s"]["value"], "ms", len(walls["budget"])),
    }
    return {"setup": setup, "figures": figures, "generic": generic}


_CHECKS = {
    "pattern": _check_pattern,
    "budget": _check_budget,
    "metrics": _check_metrics,
    "sweep": _check_sweep,
    "scenario": _check_scenario,
    "validate": _check_validate,
}


# ---------------------------------------------------------------------------
# mc-tally: seeded sample_fates calls on the reference two-beam budget
# ---------------------------------------------------------------------------

# One-sided tail of the normal distribution beyond 5 sigma.
FIVE_SIGMA_TAIL = 2.87e-7


def _poisson_tails(k: int, mu: float) -> tuple[float, float]:
    """P(X <= k) and P(X >= k) for X ~ Poisson(mu), mu > 0."""
    pmf = [math.exp(i * math.log(mu) - mu - math.lgamma(i + 1)) for i in range(k + 1)]
    below = sum(pmf)
    return below, 1.0 - below + pmf[-1]


def _check_tallies(counts, budget, n: int, op) -> None:
    """Tallies sum to n and each fate lies within 5 sigma of n*p.

    A fate expected fewer than 100 times is held to the 5-sigma tail
    probability of its Poisson count instead: the to-detector fate expects
    0.2 photons at n = 1e5 and 2 at n = 1e6, where a normal band is far
    narrower than the real spread of the count.
    """
    exclusive = counts.detected_own + counts.absorbed + counts.diffracted_away
    op.check(exclusive == n == counts.total, f"tallies sum to {exclusive}, not {n}")
    observed = (
        counts.detected_own - counts.diffracted_to_detectors,
        counts.absorbed,
        counts.diffracted_away,
        counts.diffracted_to_detectors,
    )
    for obs, p in zip(observed, budget.fate_probabilities()):
        mu = n * p
        if 0.0 < mu < 100.0:
            ok = min(_poisson_tails(obs, mu)) >= FIVE_SIGMA_TAIL
        else:
            ok = abs(obs - mu) <= 5.0 * math.sqrt(mu * (1.0 - p))
        op.check(ok, f"fate count {obs} vs n*p = {mu:.2f}")


def mc_tally(ctx: Context) -> dict:
    import numpy as np
    from wiregrid import ExperimentConfig, photon_uniforms, sample_fates, two_beam_budget

    tr = ctx.tracer
    config = ExperimentConfig()

    def generate(rng):
        calls = []
        for _ in range(512):  # every block of three holds each size once
            for n in rng.sample(MC_SIZES, len(MC_SIZES)):
                calls.append((rng.randrange(SEED_SPACE), n, rng.randrange(1, n)))
        return calls

    setup, calls = _setup_s(ctx, generate)
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        budget = tr.call("budget.two_beam_budget", two_beam_budget, config)
        builds.append(time.perf_counter() - t0)
    setup["value"] += median(builds)
    setup["budget_build_s"] = median(builds)

    lat: dict[int, list[float]] = {n: [] for n in MC_SIZES}
    start = time.perf_counter()
    i = 0
    while (
        _before(start, ctx.seconds) or min(len(v) for v in lat.values()) < 3
    ) and _before(start, HARD_LIMIT_S):
        seed, n, split = calls[i % len(calls)]
        i += 1
        with ctx.ops.op("montecarlo.sample_fates") as op:
            with tr.span("montecarlo.sample_fates", n=n):
                t0 = time.perf_counter()
                counts = sample_fates(budget, n, seed)
                dt = time.perf_counter() - t0
            lat[n].append(dt)
            _check_tallies(counts, budget, n, op)
        if n == MC_SIZES[0]:
            # chunk invariance through the public generator, independent of
            # sample_fates' chunk_size default
            with ctx.ops.op("montecarlo.split_invariance") as op:
                with tr.span("montecarlo.photon_uniforms", photons=n):
                    whole = photon_uniforms(seed, 0, n)
                with tr.span("montecarlo.photon_uniforms", photons=split):
                    head = photon_uniforms(seed, 0, split)
                with tr.span("montecarlo.photon_uniforms", photons=n - split):
                    tail = photon_uniforms(seed, split, n - split)
                op.check(np.array_equal(whole, np.concatenate([head, tail])),
                         f"uniforms differ when split at {split}")

    photons = sum(n * len(v) for n, v in lat.items())
    busy = sum(sum(v) for v in lat.values())
    calls_made = sum(len(v) for v in lat.values())
    small, mid, heavy = (1e3 * median(lat[n]) for n in MC_SIZES)
    figures = {
        "setup_s": setup,
        "mc_photons_per_s": stat(photons / busy, "1/s", calls_made, photons=photons),
        "mc_small_call_ms": stat(small, "ms", len(lat[MC_SIZES[0]])),
        "mc_1e6_call_ms": stat(mid, "ms", len(lat[MC_SIZES[1]])),
        "mc_1e7_call_ms": stat(heavy, "ms", len(lat[MC_SIZES[2]])),
    }
    generic = {
        "throughput_per_s": figures["mc_photons_per_s"],
        "light_op_ms": figures["mc_small_call_ms"],
        "mid_op_ms": figures["mc_1e6_call_ms"],
        "heavy_op_ms": figures["mc_1e7_call_ms"],
    }
    return {"setup": setup, "figures": figures, "generic": generic}


# ---------------------------------------------------------------------------
# geometry-scan: closed-form layers over seeded consistent geometries
# ---------------------------------------------------------------------------

WIRE_COUNTS = (2, 4, 6, 8, 10, 12)
PITCH_OVER_THICKNESS = (3.0, 32.0)


def _geometry(rng, index: int, ExperimentConfig):
    """The index-th of SCAN_POOL physically consistent geometries.

    The crossing angle puts the fringe spacing exactly on the pitch, the
    detector windows stay apart (half-width below half the crossing angle),
    b <= d/2, M is even and the grid fits inside the beam.  b >= 20 lambda
    keeps two_beam_pattern's +-20 lambda/b range below sin(theta) = 1.

    two_beam_pattern takes about 2560*M*d/b samples, so M and d/b set a
    config's cost.  Both are stratified over the pool (M cycles, log d/b is
    jittered within its 1/SCAN_POOL slice), so every seed draws the same cost
    distribution and only the geometries themselves differ.
    """
    lo, hi = (math.log(v) for v in PITCH_OVER_THICKNESS)
    ratio = math.exp(lo + (hi - lo) * (index + rng.random()) / SCAN_POOL)
    while True:
        wavelength = rng.uniform(400e-9, 800e-9)
        pitch = math.exp(rng.uniform(math.log(150e-6), math.log(800e-6)))
        if pitch / ratio >= 20.0 * wavelength:
            break
    count = WIRE_COUNTS[index % len(WIRE_COUNTS)]
    crossing = 2.0 * math.asin(wavelength / (2.0 * pitch))
    return ExperimentConfig(
        wavelength=wavelength,
        wire_thickness=pitch / ratio,
        wire_pitch=pitch,
        wire_count=count,
        beam_side=count * pitch * rng.uniform(1.05, 1.5),
        crossing_angle=crossing,
        detector_half_width=0.5 * crossing * rng.uniform(0.1, 0.5),
    )


def geometry_scan(ctx: Context) -> dict:
    import numpy as np
    from wiregrid import (
        ExperimentConfig,
        band_power,
        derive_geometry,
        detector_windows,
        grid_metrics,
        sweep_thickness,
        truth_table,
        two_beam_budget,
        two_beam_pattern,
        validate_config,
    )

    tr = ctx.tracer

    def generate(rng):
        pool = []
        for index in range(SCAN_POOL):
            cfg = _geometry(rng, index, ExperimentConfig)
            b_values = list(np.linspace(cfg.wire_pitch / 300.0, cfg.wire_pitch / 2.0, SWEEP_ROWS))
            pool.append((cfg, b_values))
        rng.shuffle(pool)
        return pool

    setup, pool = _setup_s(ctx, generate)
    lat: list[float] = []
    start = time.perf_counter()
    i = 0
    while (_before(start, ctx.seconds) or len(lat) < SCAN_MIN_CONFIGS) and _before(start, HARD_LIMIT_S):
        cfg, b_values = pool[i % len(pool)]
        i += 1
        with ctx.ops.op("scan.config") as op:
            with tr.span("scan.config"):
                t0 = time.perf_counter()
                tr.call("config.validate_config", validate_config, cfg)
                tr.call("config.derive_geometry", derive_geometry, cfg)
                budget = tr.call("budget.two_beam_budget", two_beam_budget, cfg)
                report = tr.call("complementarity.grid_metrics", grid_metrics, cfg)
                table = tr.call("scenarios.truth_table", truth_table, cfg)
                with tr.span("complementarity.sweep_thickness", rows=len(b_values)):
                    rows = sweep_thickness(cfg, b_values)
                lat.append(time.perf_counter() - t0)
            fates = budget.absorbed + budget.diffracted_away + budget.detected
            op.check(close(fates, 1.0, abs_tol=1e-12), f"fates sum to {fates}")
            for r in [report] + [s.report for s in table]:
                op.check(0.0 <= r.visibility_lower <= 1.0, f"V = {r.visibility_lower}")
                op.check(0.0 <= r.classical_whichway_lower <= 1.0, f"K' = {r.classical_whichway_lower}")
            op.check(len(rows) == len(b_values), "sweep dropped rows")
            vs = [r.visibility_lower for r in rows]
            op.check(all(b <= a for a, b in zip(vs, vs[1:])), "sweep V increases with b")
            op.check(all(0.0 <= v <= 1.0 for v in vs), "sweep V outside [0, 1]")
        if tr.enabled:
            # layer samples for the traced run only, outside the timed config
            with tr.span("scan.layer_sample"):
                pattern = tr.call("diffraction.two_beam_pattern", two_beam_pattern, cfg)
                for window in detector_windows(cfg):
                    tr.call("diffraction.band_power", band_power, pattern, *window)

    n = len(lat)
    ms = [1e3 * t for t in lat]
    p75, p90 = percentile(ms, 75), percentile(ms, 90)
    figures = {
        "setup_s": setup,
        "scan_configs_per_s": stat(n / sum(lat), "1/s", n),
        "scan_config_p50_ms": stat(median(ms), "ms", n),
        "scan_config_p75_ms": stat(p75, "ms", n, beyond=sum(v > p75 for v in ms)),
        "scan_config_p90_ms": stat(p90, "ms", n, beyond=sum(v > p90 for v in ms)),
    }
    generic = {
        "throughput_per_s": figures["scan_configs_per_s"],
        "light_op_ms": figures["scan_config_p50_ms"],
        "mid_op_ms": figures["scan_config_p75_ms"],
        "heavy_op_ms": figures["scan_config_p90_ms"],
    }
    return {"setup": setup, "figures": figures, "generic": generic}


WORKLOADS = {
    "reference-cli": reference_cli,
    "mc-tally": mc_tally,
    "geometry-scan": geometry_scan,
}
