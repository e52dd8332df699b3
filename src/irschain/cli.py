"""Command-line front end: point evaluations, sweeps, validation, figure data.

Scenario parameters come from a flat ``key = value`` config file (SI units,
or explicit dB/dBm suffixes) layered over the built-in defaults; every
numeric output is locale-independent and printed with 10 significant
digits so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import deployment, metrics
from .channel import full_power, full_snr, random_geometry
from .beamforming import optimal_configuration
from .params import (
    SystemParams,
    MAX_ELEMENTS,
    MAX_SURFACES,
    SPEED_OF_LIGHT,
    db_to_linear,
    dbm_to_watts,
    derive_link_budget,
    model_warnings,
    out_of_range_message,
)

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_CONFIG = 2
EXIT_IO = 3

MAX_SWEEP_POINTS = 10**5

CSV_COLUMNS = [
    "np", "mode", "l_star", "case", "objective_linear", "objective_db",
    "mid_objective_db", "all_pirs_objective_db", "brute_force_l", "agrees",
]


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(x, ".10g")


# One row per parameter: its short key; the one unit suffix it accepts (None: a bare
# number only); the cap checked at parse time, for the counts whose size sets the cost
# of building the scenario; whether it is a count.  "frequency" sets the wavelength.
_KEYS = {
    "num_irs":            ("j",       None,  MAX_SURFACES, True),
    "bs_antennas":        ("m",       None,  None,         True),
    "airs_elements":      ("na",      None,  MAX_ELEMENTS, True),
    "pirs_elements":      ("np",      None,  MAX_ELEMENTS, True),
    "bs_irs_distance":    ("d_b",     None,  None,         False),
    "irs_user_distance":  ("d_u",     None,  None,         False),
    "inter_irs_distance": ("d_i",     None,  None,         False),
    "tx_power":           ("pt",      "dBm", None,         False),
    "amp_power":          ("pa",      "dBm", None,         False),
    "noise_power":        ("sigma2",  "dBm", None,         False),
    "path_loss_exponent": ("alpha",   None,  None,         False),
    "ref_path_gain":      ("beta0",   "dB",  None,         False),
    "wavelength":         (None,      None,  None,         False),
    "frequency":          ("carrier", None,  None,         False),
    "element_spacing":    ("spacing", None,  None,         False),
}
# each key, in lower case with "_" for "-", to the parameter it sets
_KEY_ALIASES = {key: canon for canon, (short, *_) in _KEYS.items()
                for key in (canon, short) if key is not None}


def _parse_value(raw: str, key: str, canon: str) -> float:
    _, unit, cap, is_count = _KEYS[canon]
    tokens = raw.split()
    try:
        value = float(tokens[0])
    except (ValueError, IndexError):
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r}") from None
    if len(tokens) > 2:
        raise ConfigError(f"unexpected trailing tokens in {raw!r} for key {key!r}")
    if len(tokens) == 2:
        if unit is None or tokens[1].lower() != unit.lower():
            allowed = f"use {unit}" if unit else "give a bare number"
            raise ConfigError(f"unit {tokens[1]!r} is not valid for key {key!r} ({allowed})")
        try:
            value = dbm_to_watts(value) if unit == "dBm" else db_to_linear(value)
        except OverflowError:
            raise ConfigError(f"value {raw!r} for key {key!r} is out of range") from None
    # every scenario quantity is positive; also rejects nan, inf and dBm underflow
    if not 0.0 < value < math.inf:
        raise ConfigError(f"key {key!r} ({canon}) must be positive and finite, got {raw!r}")
    if cap is not None and value > cap:
        raise ConfigError(f"key {key!r} ({canon}) must be at most {cap}, got {raw!r}")
    if canon == "frequency" and SPEED_OF_LIGHT / value == math.inf:
        raise ConfigError(f"key {key!r} ({canon}) is too small for a finite wavelength, "
                          f"got {raw!r}")
    if not is_count:
        return value
    # a count comes back as an int; both checks would fail only later, under a field
    # name the file does not contain
    count = round(value)
    if count < 1:
        raise ConfigError(f"key {key!r} ({canon}) must be at least 1, got {raw!r}")
    if abs(value - count) > 1e-9:
        raise ConfigError(f"key {key!r} ({canon}) must be an integer, got {raw!r}")
    return count


def parse_config_text(text: str) -> dict[str, float]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    values: dict[str, float] = {}
    seen: dict[str, tuple[str, int]] = {}  # parameter -> (key as written, line)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        canon = _KEY_ALIASES.get(key.lower().replace("-", "_"))
        if canon is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if canon in seen:
            first_key, first_line = seen[canon]
            raise ConfigError(f"line {lineno}: key {key!r} sets {canon} again, "
                              f"already set by {first_key!r} on line {first_line}")
        seen[canon] = (key, lineno)
        values[canon] = _parse_value(raw, key, canon)
    return values


def params_from_config(values: dict[str, float]) -> SystemParams:
    fields = dict(values)
    frequency = fields.pop("frequency", None)
    if frequency is not None:
        if "wavelength" in fields:
            raise ConfigError("give either frequency or wavelength, not both")
        fields["wavelength"] = SPEED_OF_LIGHT / frequency
    try:
        return SystemParams(**fields)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def load_params(config_path: str | None) -> SystemParams:
    if config_path is None:
        return SystemParams()
    try:
        text = Path(config_path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from None
    return params_from_config(parse_config_text(text))


def _sweep_values(minimum: int, maximum: int, scale: str, count_or_step: int) -> list[int]:
    """Sorted unique panel sizes of a log or linear sweep.

    ``count_or_step`` is the point count (log) or the integer step (linear).
    """
    if scale == "log":
        points = [int(round(v)) for v in np.geomspace(minimum, maximum, count_or_step)]
    else:
        points = range(minimum, maximum + 1, count_or_step)
    return sorted(set(points))


def parse_sweep(text: str) -> list[int]:
    """Panel sizes of a ``min:max:scale:n`` spec or of a single integer."""
    parts = text.split(":")
    if len(parts) == 1:
        try:
            single = int(parts[0])
        except ValueError:
            raise ConfigError(f"cannot parse --np value {text!r}") from None
        return [single]  # _with_np bounds it, as it does every point
    if len(parts) != 4:
        raise ConfigError(f"--np spec must be min:max:scale:n, got {text!r}")
    try:
        minimum, maximum = int(parts[0]), int(parts[1])
        count_or_step = int(parts[3])
    except ValueError:
        raise ConfigError(f"--np spec must use integers, got {text!r}") from None
    scale = parts[2].lower()
    if scale not in ("linear", "log"):
        raise ConfigError(f"--np scale must be linear or log, got {parts[2]!r}")
    if minimum < 1 or maximum < minimum:
        raise ConfigError(f"--np spec needs 1 <= min <= max, got {text!r}")
    if scale == "log" and count_or_step < 2:
        raise ConfigError(f"--np log sweeps need a count >= 2, got {count_or_step}")
    if scale == "linear" and count_or_step < 1:
        raise ConfigError(f"--np linear sweeps need a step >= 1, got {count_or_step}")
    # checked before any point is built, which costs time and memory per point
    count = count_or_step if scale == "log" else (maximum - minimum) // count_or_step + 1
    if count > MAX_SWEEP_POINTS:
        raise ConfigError(f"--np spec {text!r} has {count} points, at most {MAX_SWEEP_POINTS}")
    return _sweep_values(minimum, maximum, scale, count_or_step)


# SNRs are reported in dB, received powers in dBm: (column suffix, dB offset)
_LOG_UNITS = {metrics.WIT: ("db", 0.0), metrics.WPT: ("dbm", 30.0)}
_LN10 = math.log(10.0)  # the baseline comes as a natural log


def _db(mode: str, log10_value: float) -> str:
    """A value given by its log10, in dB (wit) or dBm (wpt)."""
    return _fmt(10.0 * log10_value + _LOG_UNITS[mode][1])


def _in_db(mode: str, p: SystemParams, value: float) -> str:
    """An objective in dB (wit) or dBm (wpt); one that underflowed to 0.0 names its fields."""
    if value == 0.0:
        raise ValueError(out_of_range_message(p, "objective"))
    return _db(mode, math.log10(value))


def evaluate_point(mode: str, p: SystemParams) -> dict[str, object]:
    """All columns of one sweep row; eval prints the same mapping."""
    budget = derive_link_budget(p)
    return _row(mode, p, budget, deployment.optimal_index(mode, p, budget))


def _row(mode: str, p: SystemParams, budget, sol) -> dict[str, object]:
    return {
        "np": p.pirs_elements,
        "mode": mode,
        "l_star": sol.airs_index,
        "case": sol.case,
        "objective_linear": _fmt(sol.objective),
        "objective_db": _in_db(mode, p, sol.objective),
        "mid_objective_db": _in_db(mode, p, sol.middle_objective),
        "all_pirs_objective_db": _db(mode, deployment.scheme_all_pirs(mode, p, budget) / _LN10),
        "brute_force_l": sol.brute_force_index,
        "agrees": "true" if sol.brute_force_agrees else "false",
    }


def _with_np(p: SystemParams, n_p: int) -> SystemParams:
    if n_p < 1:
        raise ConfigError(f"--np must be at least 1, got {n_p}")
    if n_p > MAX_ELEMENTS:  # before the panel grid search, which is O(sqrt(n_p))
        raise ConfigError(f"--np must be at most {MAX_ELEMENTS}, got {n_p}")
    return replace(p, pirs_elements=n_p, pirs_grid=None)


@contextmanager
def _output(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as stream:
            yield stream


def _write_rows(rows: list[dict[str, object]], columns: list[str], path: str | None) -> None:
    with _output(path) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])


def cmd_eval(args) -> int:
    p = load_params(args.config)
    if args.np is not None:
        p = _with_np(p, args.np)
    budget = derive_link_budget(p)  # its error reads as in sweep and figures
    for diag in model_warnings(p, budget):  # before the solve, so a failed one is explained
        print(f"warning: {diag.message}", file=sys.stderr)
    sol = deployment.optimal_index(args.mode, p, budget)
    row = _row(args.mode, p, budget, sol)
    with _output(args.output) as stream:
        for key in CSV_COLUMNS:
            print(f"{key} = {row[key]}", file=stream)
        if sol.relaxed_index is not None:
            print(f"l_tilde = {_fmt(sol.relaxed_index)}", file=stream)
    return EXIT_OK


def cmd_sweep(args) -> int:
    base = load_params(args.config)
    rows = [evaluate_point(args.mode, _with_np(base, v)) for v in parse_sweep(args.np)]
    _write_rows(rows, CSV_COLUMNS, args.output)
    return EXIT_OK


FIGURE_NP_MIN = 10
FIGURE_NP_MAX = 1400
FIGURE_NP_POINTS = 50
FIGURE_FILES = ("fig2.csv", "fig3.csv", "fig4.csv")


def _oracle_error(p: SystemParams, airs_index: int, rng: np.random.Generator) -> float:
    geometry = random_geometry(p, rng)
    budget = derive_link_budget(p)
    phases, beam = optimal_configuration(airs_index, geometry, p, budget)
    snr_m = full_snr(airs_index, geometry, phases, beam, p)
    snr_c = metrics.snr_closed(p, airs_index, budget)
    pow_m = full_power(airs_index, geometry, phases, beam, p)
    pow_c = metrics.power_closed(p, airs_index, budget)
    return max(abs(snr_m / snr_c - 1.0), abs(pow_m / pow_c - 1.0))


def cmd_validate(args) -> int:
    for flag, value in (("--oracle-samples", args.oracle_samples), ("--seed", args.seed)):
        if value < 0:
            raise ConfigError(f"{flag} must be >= 0, got {value}")
    grid = deployment.agreement_grid()
    counts = dict.fromkeys(metrics.MODES, 0)
    for p in grid:
        budget = derive_link_budget(p)
        for mode in counts:
            counts[mode] += not deployment.optimal_index(mode, p, budget).brute_force_agrees
    for mode, count in counts.items():
        print(f"closed-form vs brute force ({mode}): {len(grid)} configs, "
              f"{count} mismatches")

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.oracle_samples):
        j = int(rng.integers(1, 8))
        n_p = int(rng.integers(4, FIGURE_NP_MAX + 1))
        p = SystemParams(num_irs=j, pirs_elements=n_p)
        worst = max(worst, _oracle_error(p, int(rng.integers(1, j + 1)), rng))
    print(f"matrix oracle vs closed form: {args.oracle_samples} configs, "
          f"max relative error {worst:.3e} (tolerance 1e-08)")

    ok = sum(counts.values()) == 0 and worst <= 1e-8
    print("result:", "OK" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_FAILED_CHECK


def figure_rows(base: SystemParams) -> tuple[list[dict], list[dict], list[dict]]:
    """Datasets behind the three standard comparison figures.

    fig2: optimal index per mode vs panel size.  fig3 (SNR, dB) and fig4
    (power, dBm): objective of the optimal, final-surface, middle-surface,
    and all-passive schemes.
    """
    index_rows = []
    objective_rows = {mode: [] for mode in metrics.MODES}
    for n_p in _sweep_values(FIGURE_NP_MIN, FIGURE_NP_MAX, "log", FIGURE_NP_POINTS):
        p = _with_np(base, n_p)
        budget = derive_link_budget(p)
        index_row = {"np": n_p}
        for mode in metrics.MODES:
            sol = deployment.optimal_index(mode, p, budget)
            index_row[f"{mode}_l_star"] = sol.airs_index
            unit = _LOG_UNITS[mode][0]
            schemes = {"optimal": sol.objective, "final": sol.final_objective,
                       "middle": sol.middle_objective}
            row = {"np": n_p, **{f"{name}_{unit}": _in_db(mode, p, value)
                                 for name, value in schemes.items()}}
            log10_passive = deployment.scheme_all_pirs(mode, p, budget) / _LN10
            row[f"all_pirs_{unit}"] = _db(mode, log10_passive)
            objective_rows[mode].append(row)
        index_rows.append(index_row)
    return index_rows, objective_rows[metrics.WIT], objective_rows[metrics.WPT]


def cmd_figures(args) -> int:
    base = load_params(args.config)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, rows in zip(FIGURE_FILES, figure_rows(base)):
        _write_rows(rows, list(rows[0]), str(outdir / name))
    print(f"wrote {', '.join(FIGURE_FILES)} to {outdir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irschain",
        description="Cascaded reflecting-surface link evaluation and "
                    "active-surface placement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_mode=True):
        sp.add_argument("--config", help="key = value scenario file")
        if with_mode:
            sp.add_argument("--mode", choices=list(metrics.MODES), required=True,
                            help="wit maximizes SNR, wpt maximizes received power")

    sp = sub.add_parser("eval", help="single-point evaluation")
    add_common(sp)
    sp.add_argument("--np", type=int,
                    help="elements per passive surface (default: scenario value)")
    sp.add_argument("--output", "-o", help="write report to file instead of stdout")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("sweep", help="CSV sweep over the passive panel size")
    add_common(sp)
    sp.add_argument("--np", required=True,
                    help="min:max:scale:n (log scale: n = point count; linear: n = step)")
    sp.add_argument("--output", "-o", help="CSV path, default stdout")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("validate", help="closed forms vs exhaustive search and matrix model")
    sp.add_argument("--oracle-samples", type=int, default=25)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("figures", help="write fig2/fig3/fig4 CSV datasets")
    add_common(sp, with_mode=False)
    sp.add_argument("--outdir", default=".")
    sp.set_defaults(func=cmd_figures)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # includes ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
