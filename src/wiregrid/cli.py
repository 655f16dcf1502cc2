"""Command-line surface: config parsing, dispatch, CSV/JSON emission.

Each subcommand computes a ``Report`` from the config and its options;
``run`` alone picks the format, emits the report and writes it.  Each
``_cmd_*`` imports the modules it runs, so a process loads only its
subcommand's: parsing, ``--version``, config errors, ``pattern``,
``budget``, ``metrics``, ``sweep`` and ``scenario`` load no numpy.

Exit codes: 0 success, 1 configuration or parse error (a bad argv
included), 2 numeric/domain error (an overflow included), 3 I/O error.
Errors are written to stderr as a one-line JSON object so scripted callers
can branch on them; only ``--help`` and ``--version`` print argparse's text.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys

from . import __version__
from .config import (
    COUNT_FIELDS, DEFAULTS, LENGTH_FIELDS, ExperimentConfig, _record, derive_geometry,
    positive_finite_error,
)
from .errors import ConfigError, ConfigParseError, DomainError, WiregridError

LENGTH_UNITS = {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0}
ANGLE_UNITS = {"rad": 1.0, "mrad": 1e-3}

_VALUE_RE = re.compile(r"^([+-]?[0-9.]+(?:[eE][+-]?[0-9]+)?)\s*([A-Za-z]*)$")


class RunRequest(_record(
    "RunRequest", "subcommand config_path output_format output_path overrides options",
    (None, "json", "-", (), ()),
)):
    """One CLI invocation after argument parsing: the ``--override`` strings, and
    the subcommand's own keyword options as a mapping or (name, value) pairs."""

    __slots__ = ()


def _parse_value(key: str, raw: str, line: int | None = None) -> float | int:
    raw = raw.strip()
    m = _VALUE_RE.match(raw)
    if not m:
        raise ConfigParseError(f"cannot parse value {raw!r} for {key}", line)
    number, unit = m.group(1), m.group(2)
    if key in COUNT_FIELDS:
        if unit:
            raise ConfigParseError(f"{key} takes a bare integer, got unit {unit!r}", line)
        try:
            return int(number)
        except ValueError:
            raise ConfigParseError(f"{key} must be an integer, got {number!r}", line) from None
    kind, units = ("length", LENGTH_UNITS) if key in LENGTH_FIELDS else ("angle", ANGLE_UNITS)
    if unit not in units:
        problem = "missing" if not unit else f"unknown {kind}"
        raise ConfigParseError(
            f"{problem} unit {unit!r} for {key} "
            f"(expected one of {', '.join(sorted(units))})",
            line,
        )
    try:
        return float(number) * units[unit]
    except ValueError:
        raise ConfigParseError(f"bad number {number!r} for {key}", line) from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse line-oriented ``key = value`` text with unit suffixes.

    Comments start with '#'; missing keys fall back to the built-in
    defaults; unknown keys are errors carrying the line number.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigParseError(
                f"unknown key {key!r} (expected one of {', '.join(DEFAULTS)})", lineno
            )
        if key in values:
            raise ConfigParseError(f"duplicate key {key!r}", lineno)
        values[key] = _parse_value(key, value, lineno)
    return ExperimentConfig(**values)


def apply_overrides(config: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply ``key=value`` overrides after file parsing; ``replace`` checks the result."""
    changes: dict = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigParseError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigParseError(f"unknown override key {key!r}")
        changes[key] = _parse_value(key, value)
    return config.replace(**changes)


def load_config(request: RunRequest) -> ExperimentConfig:
    if request.config_path:
        try:
            with open(request.config_path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            where = f"{exc.reason} at offset {exc.start}"
            raise ConfigParseError(f"config file is not UTF-8 text ({where})") from None
        config = parse_config(text)
    else:
        config = ExperimentConfig()
    return apply_overrides(config, request.overrides)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

class Report(_record("Report", "sections table exit_code", (None, 0))):
    """A subcommand's result before a format is chosen: the JSON ``sections``
    (``run`` puts the config echo first), the CSV ``table`` as ``(header,
    rows)`` (None: CSV flattens the sections) and the exit code."""

    __slots__ = ()


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return ""
    return str(value)


def emit_rows(header: list[str], rows: list[list], out: io.TextIOBase) -> None:
    """CSV: the header, then one line per row."""
    import csv  # only CSV output pays for it

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)


def emit_report(sections: dict, fmt: str, out: io.TextIOBase) -> None:
    """JSON of the sections, or CSV with one ``section.key, value`` row per value."""
    if fmt == "csv":
        rows = []
        for section, payload in sections.items():
            if isinstance(payload, dict):
                rows.extend([f"{section}.{key}", value] for key, value in payload.items())
            else:
                rows.append([section, payload])
        emit_rows(["quantity", "value"], rows, out)
    else:
        out.write(json.dumps(sections, indent=2, default=float))
        out.write("\n")


def _table_report(key: str, header: list[str], table: list) -> Report:
    """JSON ``{<key>: [row objects]}``; CSV the table itself."""
    rows = [dict(zip(header, r)) for r in table]
    return Report({key: rows}, (header, table))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _check_count(flag: str, n: int, least: int) -> None:
    """A grid-size option's bounds, checked before any grid is built."""
    if n < least:
        raise DomainError(f"{flag} must be at least {least}, got {n}")
    if n > 10**6:
        raise DomainError(f"{flag} must be at most 1000000, got {n}")


def _cmd_pattern(config: ExperimentConfig, theta_range=10.0, samples=4001) -> Report:
    from .diffraction import symmetric_grid_list, two_beam_grid_intensity

    _check_count("--samples", samples, 3)
    if not (theta_range > 0 and math.isfinite(theta_range)):
        raise DomainError(f"--theta-range must be positive and finite (mrad), got {theta_range:g}")
    theta_rad = symmetric_grid_list(theta_range * 1e-3, samples)
    if not theta_rad[-1] < math.pi / 2:  # the edge as built, which rounding can push past the input
        raise DomainError(
            f"--theta-range must keep the grid inside |theta| < pi/2 = {500 * math.pi!r} mrad, "
            f"got {theta_range!r}"
        )
    intensity_rel = [two_beam_grid_intensity(theta, config) for theta in theta_rad]
    sections = {
        "scale_note": (
            "|F|^2 / (4 k^2), F the far field of the fringe field on the wire "
            "strips, k = pi / wire_pitch"
        ),
        "pattern": {"theta_rad": theta_rad, "intensity_rel": intensity_rel},
    }
    return Report(sections, (["theta_rad", "intensity_rel"], list(zip(theta_rad, intensity_rel))))


def _cmd_budget(config: ExperimentConfig) -> Report:
    from .budget import single_beam_budget, two_beam_budget
    from .diffraction import detector_windows

    two = two_beam_budget(config)
    single = single_beam_budget(config)._asdict()
    windows = detector_windows(config)
    n = config.photon_count
    single_counts = {name: fraction * n for name, fraction in single.items()}
    return Report({
        "detector_windows_rad": {
            "negative": list(windows[0]),
            "positive": list(windows[1]),
            "half_width": config.detector_half_width,
        },
        "two_beam_fractions": two._asdict(),
        "two_beam_counts": two.expected_counts(n),
        "single_beam": {**single, "detector_half_width_rad": config.detector_half_width},
        "single_beam_counts": single_counts,
    })


def _cmd_metrics(config: ExperimentConfig) -> Report:
    from .complementarity import (
        absorbed_fraction_two_beams, coverage_fraction, fraction_report, worst_case_intensity_pair,
    )

    x = absorbed_fraction_two_beams(config)
    y = coverage_fraction(config)
    report = fraction_report(x, y)
    try:
        area_mm2 = (config.beam_side * 1e3) ** 2  # inf, not an error, once the side is inf
    except OverflowError:
        area_mm2 = math.inf
    if area_mm2 == math.inf:
        raise DomainError(
            f"beam_side ({config.beam_side:g} m) is too large: its area in mm^2 overflows a float"
        )
    i_min, i_max = worst_case_intensity_pair(x, y, config.photon_count, area_mm2)
    return Report({
        "fractions": {"absorbed": x, "covered": y},
        "worst_case_intensities_per_mm2": {"i_min": i_min, "i_max": i_max},
        "report": report.as_dict(),
    })


def _linspace(a: float, b: float, n: int) -> list[float]:
    """``np.linspace(a, b, n).tolist()`` to the bit for n >= 1, unless the step underflows
    to 0: numpy takes another branch, but both grids repeat a value, which ``sweep`` rejects."""
    if n == 1:
        return [0.0 * (b - a) + a]  # numpy's arithmetic, which turns a = -0.0 into 0.0
    step = (b - a) / (n - 1)
    return [i * step + a for i in range(n - 1)] + [b]


def _cmd_sweep(config: ExperimentConfig, b_min=1.0, b_max=150.0, steps=150) -> Report:
    from .complementarity import SweepRow, sweep_thickness

    _check_count("--steps", steps, 1)
    for b in (b_min, b_max):  # before the grid spreads a nan or inf over every row
        if not math.isfinite(b):
            raise positive_finite_error("wire_thickness", b)
    if steps > 1 and not b_min < b_max:
        raise DomainError(
            f"--b-min must be below --b-max for more than one step, "
            f"got --b-min {b_min:g}, --b-max {b_max:g}"
        )
    b_m = _linspace(b_min / 1e6, b_max / 1e6, steps)
    if any(q <= p for p, q in zip(b_m, b_m[1:])):  # b_min < b_max, yet closer than the grid resolves
        raise DomainError(
            f"--b-min {b_min!r} and --b-max {b_max!r} are too close to split into "
            f"--steps {steps} distinct thicknesses"
        )
    rows = sweep_thickness(config, b_m)
    b_um = _linspace(b_min, b_max, steps)  # printed as typed, not as b * 1e6
    header = ["wire_thickness_um", *SweepRow._fields[1:]]
    return _table_report("sweep", header, [[b, *row[1:]] for b, row in zip(b_um, rows)])


def _cmd_simulate(config: ExperimentConfig, seed=0) -> Report:
    from .budget import two_beam_budget
    from .montecarlo import estimate_metrics, sample_fates

    counts = sample_fates(two_beam_budget(config), config.photon_count, seed)
    metrics = estimate_metrics(counts, config)
    return Report({
        "counts": counts.as_dict(),
        "estimates": metrics.as_dict(),
    })


def _cmd_scenario(config: ExperimentConfig) -> Report:
    from .complementarity import truth_table

    header = [
        "scenario", "grid", "output_beam_splitter", "visibility_measured", "quantum_whichway",
        "visibility", "classical_whichway", "quantum_sum", "classical_sum", "rationale",
    ]
    table = []
    for sr in truth_table(config):
        # the row's own fields, then its report's, whose bounds print without "_lower"
        values = {**sr._asdict(), "visibility_measured": sr.visibility_measured}
        values.update((name.removesuffix("_lower"), v) for name, v in sr.report.as_dict().items())
        table.append([values[c] for c in header])
    return _table_report("scenarios", header, table)


def _cmd_validate(config: ExperimentConfig) -> Report:
    from .oracle import crosscheck

    checks = crosscheck(config)
    rows = [{"check": c.name, "passed": c.passed, "detail": c.detail} for c in checks]
    table = [[c.name, "pass" if c.passed else "FAIL", c.detail] for c in checks]
    return Report(
        {"checks": rows},
        (["check", "status", "detail"], table),
        0 if all(c.passed for c in checks) else 2,
    )


# name: (function, help line, own options as (flag, type, metavar, help));
# each option's default is the function's keyword default
_COMMANDS = {
    "pattern": (_cmd_pattern, "two-beam diffraction pattern rows", [
        ("--theta-range", float, "MRAD", "half-range of the angular grid in mrad"),
        ("--samples", int, None, "number of angular samples"),
    ]),
    "budget": (_cmd_budget, "photon-fate budgets and counts", []),
    "metrics": (_cmd_metrics, "visibility and which-way report", []),
    "sweep": (_cmd_sweep, "wire-thickness sweep table", [
        ("--b-min", float, "UM", None), ("--b-max", float, "UM", None), ("--steps", int, None, None),
    ]),
    "simulate": (_cmd_simulate, "seeded Monte Carlo run", [("--seed", int, None, None)]),
    "scenario": (_cmd_scenario, "scenario truth table", []),
    "validate": (_cmd_validate, "config check and cross-validation suite", []),
}


def run(request: RunRequest) -> int:
    """Build the request's ``Report``, then emit and write it: the one writer.

    Nothing reaches stdout or the file until the command has returned, so a
    command that raises leaves an existing file as it was.
    """
    if request.subcommand not in _COMMANDS:
        raise ConfigParseError(f"unknown subcommand {request.subcommand!r}")
    if request.output_format not in ("csv", "json"):
        raise ConfigParseError(f"unknown output format {request.output_format!r}")
    config = load_config(request)
    report = _COMMANDS[request.subcommand][0](config, **dict(request.options))
    sections = {"config": {**config.as_dict(), **derive_geometry(config)._asdict()}, **report.sections}
    buffer = io.StringIO()
    if request.output_format == "csv" and report.table is not None:
        emit_rows(*report.table, buffer)
    else:
        emit_report(sections, request.output_format, buffer)
    if request.output_path == "-":
        sys.stdout.write(buffer.getvalue())
    else:
        with open(request.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(buffer.getvalue())
    return report.exit_code


class _Parser(argparse.ArgumentParser):
    """Raises a ``ConfigParseError`` for a bad argv, so ``main`` reports it as
    it reports every error; ``--help`` and ``--version`` still exit 0."""

    def error(self, message):
        raise ConfigParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wiregrid",
        description=(
            "Crossed-beam wire-grid interferometry: diffraction patterns, "
            "photon budgets, visibility and which-way reports"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # no defaults here: an option the user leaves out takes RunRequest's, or its function's
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", dest="config_path", metavar="PATH", help="experiment config file")
    common.add_argument("--format", dest="output_format", choices=("csv", "json"), help="output format")
    common.add_argument("--out", dest="output_path", metavar="PATH", help="output file, '-' for stdout")
    common.add_argument("--override", dest="overrides", metavar="KEY=VALUE", action="append",
                        help="parameter override applied after the config file (repeatable)")

    # subparsers are built by argparse as ``parser_class=type(parser)``: _Parser too
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_line)
        for flag, kind, metavar, help_text in options:
            p.add_argument(flag, type=kind, metavar=metavar, help=help_text, default=argparse.SUPPRESS)
    return parser


def _request_from_args(args: argparse.Namespace) -> RunRequest:
    """argparse writes RunRequest's fields by name; whatever else the user gave
    goes to the subcommand."""
    options = dict(vars(args))
    common = {name: options.pop(name) for name in RunRequest._fields if name in options}
    return RunRequest(**common, options=options)


def _emit_error(exc: Exception, code: int) -> int:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}
    print(json.dumps(payload), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        return run(_request_from_args(build_parser().parse_args(argv)))
    except ConfigError as exc:
        return _emit_error(exc, 1)
    except (WiregridError, ValueError, ArithmeticError) as exc:
        return _emit_error(exc, 2)
    except OSError as exc:
        return _emit_error(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
