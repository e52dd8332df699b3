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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import deployment, metrics
from .channel import full_power, full_snr, random_geometry
from .beamforming import optimal_configuration
from .params import (
    SystemParams,
    SPEED_OF_LIGHT,
    db_to_linear,
    dbm_to_watts,
    derive_link_budget,
    linear_to_db,
    validate,
    watts_to_dbm,
)

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_CONFIG = 2
EXIT_IO = 3

CSV_COLUMNS = [
    "np", "mode", "l_star", "case", "objective_linear", "objective_db",
    "mid_objective_db", "all_pirs_objective_db", "brute_force_l", "agrees",
]


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(x, ".10g")


# the one suffix each key accepts; every key not listed takes a bare number
_KEY_UNITS = {
    "tx_power": "dBm", "amp_power": "dBm", "noise_power": "dBm",
    "ref_path_gain": "dB",
}


def _parse_value(raw: str, key: str, canon: str) -> float:
    tokens = raw.split()
    try:
        value = float(tokens[0])
    except (ValueError, IndexError):
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r}") from None
    if len(tokens) == 1:
        return value
    if len(tokens) > 2:
        raise ConfigError(f"unexpected trailing tokens in {raw!r} for key {key!r}")
    unit = _KEY_UNITS.get(canon)
    if unit is None or tokens[1].lower() != unit.lower():
        allowed = f"use {unit}" if unit else "give a bare number"
        raise ConfigError(f"unit {tokens[1]!r} is not valid for key {key!r} ({allowed})")
    try:
        return dbm_to_watts(value) if unit == "dBm" else db_to_linear(value)
    except OverflowError:
        raise ConfigError(f"value {raw!r} for key {key!r} is out of range") from None


_KEY_ALIASES = {
    "j": "num_irs", "num_irs": "num_irs",
    "m": "bs_antennas", "bs_antennas": "bs_antennas",
    "na": "airs_elements", "airs_elements": "airs_elements",
    "np": "pirs_elements", "pirs_elements": "pirs_elements",
    "d_b": "bs_irs_distance", "bs_irs_distance": "bs_irs_distance",
    "d_u": "irs_user_distance", "irs_user_distance": "irs_user_distance",
    "d_i": "inter_irs_distance", "inter_irs_distance": "inter_irs_distance",
    "pt": "tx_power", "tx_power": "tx_power",
    "pa": "amp_power", "amp_power": "amp_power",
    "sigma2": "noise_power", "noise_power": "noise_power",
    "alpha": "path_loss_exponent", "path_loss_exponent": "path_loss_exponent",
    "beta0": "ref_path_gain", "ref_path_gain": "ref_path_gain",
    "wavelength": "wavelength",
    "frequency": "frequency", "carrier": "frequency",
    "spacing": "element_spacing", "element_spacing": "element_spacing",
}

_INT_FIELDS = {"num_irs", "bs_antennas", "airs_elements", "pirs_elements"}


def parse_config_text(text: str) -> dict[str, float]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    values: dict[str, float] = {}
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
        values[canon] = _parse_value(raw, key, canon)
    return values


def params_from_config(values: dict[str, float]) -> SystemParams:
    fields = dict(values)
    frequency = fields.pop("frequency", None)
    if frequency is not None:
        if "wavelength" in fields:
            raise ConfigError("give either frequency or wavelength, not both")
        if frequency <= 0:
            raise ConfigError("frequency must be positive")
        fields["wavelength"] = SPEED_OF_LIGHT / frequency
    for name in _INT_FIELDS & fields.keys():
        if not math.isfinite(fields[name]):
            raise ConfigError(f"{name} must be a finite integer, got {fields[name]}")
        rounded = round(fields[name])
        if abs(fields[name] - rounded) > 1e-9:
            raise ConfigError(f"{name} must be an integer, got {fields[name]}")
        fields[name] = int(rounded)
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


@dataclass(frozen=True)
class SweepSpec:
    """Sweep of one scenario variable, parsed from min:max:scale:n.

    For a log scale ``n`` is the point count (>= 2); for a linear scale it
    is the integer step.
    """

    variable: str
    minimum: int
    maximum: int
    scale: str
    count_or_step: int

    def values(self) -> list[int]:
        if self.scale == "log":
            raw = np.geomspace(self.minimum, self.maximum, self.count_or_step)
            points = [int(round(v)) for v in raw]
        else:
            points = list(range(self.minimum, self.maximum + 1, self.count_or_step))
        unique = sorted(set(points))
        return unique


def parse_sweep(text: str, variable: str = "np") -> SweepSpec:
    parts = text.split(":")
    if len(parts) == 1:
        try:
            single = int(parts[0])
        except ValueError:
            raise ConfigError(f"cannot parse sweep value {text!r}") from None
        if single < 1:
            raise ConfigError("sweep values must be positive")
        return SweepSpec(variable, single, single, "linear", 1)
    if len(parts) != 4:
        raise ConfigError(f"sweep spec must be min:max:scale:n, got {text!r}")
    try:
        minimum, maximum = int(parts[0]), int(parts[1])
        count_or_step = int(parts[3])
    except ValueError:
        raise ConfigError(f"sweep spec must use integers, got {text!r}") from None
    scale = parts[2].lower()
    if scale not in ("linear", "log"):
        raise ConfigError(f"sweep scale must be linear or log, got {parts[2]!r}")
    if minimum < 1 or maximum < minimum:
        raise ConfigError("sweep needs 1 <= min <= max")
    if scale == "log" and count_or_step < 2:
        raise ConfigError("log sweeps need a count >= 2")
    if scale == "linear" and count_or_step < 1:
        raise ConfigError("linear sweeps need a step >= 1")
    return SweepSpec(variable, minimum, maximum, scale, count_or_step)


def _objective_db(mode: str, value: float) -> float:
    # SNRs are reported in dB, received powers in dBm
    return linear_to_db(value) if mode == metrics.WIT else watts_to_dbm(value)


def evaluate_point(mode: str, p: SystemParams) -> dict[str, object]:
    """All columns of one sweep row; eval prints the same mapping."""
    budget = derive_link_budget(p)
    sol = deployment.optimal_index(mode, p, budget)
    mid = deployment.scheme_middle(mode, p, budget)
    passive = deployment.scheme_all_pirs(mode, p, budget)
    return {
        "np": p.pirs_elements,
        "mode": mode,
        "l_star": sol.airs_index,
        "case": sol.case,
        "objective_linear": _fmt(sol.objective.value),
        "objective_db": _fmt(_objective_db(mode, sol.objective.value)),
        "mid_objective_db": _fmt(_objective_db(mode, mid.value)),
        "all_pirs_objective_db": _fmt(_objective_db(mode, passive)),
        "brute_force_l": sol.brute_force_index,
        "agrees": "true" if sol.brute_force_agrees else "false",
        "_relaxed_index": sol.relaxed_index,
    }


def _with_np(p: SystemParams, n_p: int) -> SystemParams:
    return replace(p, pirs_elements=n_p, pirs_grid=None)


def _open_output(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _write_rows(rows: list[dict[str, object]], columns: list[str], path: str | None) -> None:
    stream, owned = _open_output(path)
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])
    finally:
        if owned:
            stream.close()


def cmd_eval(args) -> int:
    p = load_params(args.config)
    if args.np is not None:
        p = _with_np(p, args.np)
    diagnostics = validate(p)
    for diag in diagnostics:
        if diag.severity == "error":
            raise ConfigError(diag.message)
    row = evaluate_point(args.mode, p)
    stream, owned = _open_output(args.output)
    try:
        for key in CSV_COLUMNS:
            print(f"{key} = {row[key]}", file=stream)
        if row["_relaxed_index"] is not None:
            print(f"l_tilde = {_fmt(row['_relaxed_index'])}", file=stream)
        for diag in diagnostics:
            print(f"warning: {diag.message}", file=stream)
    finally:
        if owned:
            stream.close()
    return EXIT_OK


def cmd_sweep(args) -> int:
    base = load_params(args.config)
    spec = parse_sweep(args.np)
    rows = [evaluate_point(args.mode, _with_np(base, v)) for v in spec.values()]
    _write_rows(rows, CSV_COLUMNS, args.output)
    return EXIT_OK


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
    grid = deployment.agreement_grid()
    mismatches = 0
    for mode in metrics.MODES:
        count = sum(not deployment.optimal_index(mode, p).brute_force_agrees for p in grid)
        print(f"closed-form vs brute force ({mode}): {len(grid)} configs, "
              f"{count} mismatches")
        mismatches += count

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.oracle_samples):
        j = int(rng.integers(1, 8))
        n_p = int(rng.integers(4, 257))
        p = replace(SystemParams(), num_irs=j, pirs_elements=n_p, pirs_grid=None)
        worst = max(worst, _oracle_error(p, int(rng.integers(1, j + 1)), rng))
    print(f"matrix oracle vs closed form: {args.oracle_samples} configs, "
          f"max relative error {worst:.3e} (tolerance 1e-08)")

    ok = mismatches == 0 and worst <= 1e-8
    print("result:", "OK" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_FAILED_CHECK


FIGURE_NP_MIN = 10
FIGURE_NP_MAX = 1400
FIGURE_NP_POINTS = 50


def figure_rows(base: SystemParams) -> tuple[list[dict], list[dict], list[dict]]:
    """Datasets behind the three standard comparison figures.

    fig2: optimal index per mode vs panel size.  fig3/fig4: objective of
    the optimal, final-surface, middle-surface, and all-passive schemes,
    in dB (SNR) and dBm (power).
    """
    spec = SweepSpec("np", FIGURE_NP_MIN, FIGURE_NP_MAX, "log", FIGURE_NP_POINTS)
    index_rows, snr_rows, power_rows = [], [], []
    for n_p in spec.values():
        p = _with_np(base, n_p)
        budget = derive_link_budget(p)
        wit = deployment.optimal_index(metrics.WIT, p, budget)
        wpt = deployment.optimal_index(metrics.WPT, p, budget)
        index_rows.append({
            "np": n_p,
            "wit_l_star": wit.airs_index,
            "wpt_l_star": wpt.airs_index,
        })
        mid = deployment.middle_index(p.num_irs)
        snr_rows.append({
            "np": n_p,
            "optimal_db": _fmt(linear_to_db(wit.objective.value)),
            "final_db": _fmt(linear_to_db(wit.objectives[-1])),
            "middle_db": _fmt(linear_to_db(wit.objectives[mid - 1])),
            "all_pirs_db": _fmt(linear_to_db(deployment.scheme_all_pirs(metrics.WIT, p, budget))),
        })
        power_rows.append({
            "np": n_p,
            "optimal_dbm": _fmt(watts_to_dbm(wpt.objective.value)),
            "final_dbm": _fmt(watts_to_dbm(wpt.objectives[-1])),
            "middle_dbm": _fmt(watts_to_dbm(wpt.objectives[mid - 1])),
            "all_pirs_dbm": _fmt(watts_to_dbm(deployment.scheme_all_pirs(metrics.WPT, p, budget))),
        })
    return index_rows, snr_rows, power_rows


def cmd_figures(args) -> int:
    base = load_params(args.config)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    index_rows, snr_rows, power_rows = figure_rows(base)
    _write_rows(index_rows, ["np", "wit_l_star", "wpt_l_star"], str(outdir / "fig2.csv"))
    _write_rows(snr_rows, ["np", "optimal_db", "final_db", "middle_db", "all_pirs_db"],
                str(outdir / "fig3.csv"))
    _write_rows(power_rows, ["np", "optimal_dbm", "final_dbm", "middle_dbm", "all_pirs_dbm"],
                str(outdir / "fig4.csv"))
    print(f"wrote fig2.csv, fig3.csv, fig4.csv to {outdir}")
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
