"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines;
each test also asserts, so a FAIL aborts the suite as usual.
"""

import math
import time
from dataclasses import replace

import numpy as np

from irschain.beamforming import optimal_configuration, optimal_transmit_beam
from irschain.channel import (
    full_power,
    full_snr,
    random_geometry,
)
from irschain.cli import run
from irschain.deployment import (
    agreement_grid,
    optimal_index,
    scheme_all_pirs,
    scheme_middle,
    wpt_crossover_np,
)
from irschain.metrics import WIT, WPT, power_closed, snr_closed
from irschain.params import SystemParams, derive_link_budget
from reference import (
    check_power_constraint,
    elements_at,
    hop_responses,
    incident_element_power,
    power_scaling_order,
    reflection_coefficient_sum,
    snr_scaling_order,
)

DEFAULTS = SystemParams()


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {number} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _with_np(p: SystemParams, n_p: int) -> SystemParams:
    return replace(p, pirs_elements=n_p, pirs_grid=None)


def _random_params(rng: np.random.Generator) -> SystemParams:
    # counts from their stated ranges, scalars within +-20 dB of the defaults
    return SystemParams(
        num_irs=int(rng.integers(1, 8)),
        bs_antennas=int(rng.integers(1, 17)),
        airs_elements=int(rng.integers(4, 257)),
        pirs_elements=int(rng.integers(4, 257)),
        bs_irs_distance=4.0 * 10.0 ** rng.uniform(-1, 1),
        irs_user_distance=4.0 * 10.0 ** rng.uniform(-1, 1),
        inter_irs_distance=10.0 * 10.0 ** rng.uniform(-1, 1),
        tx_power=10.0 ** rng.uniform(-2, 2),
        amp_power=1e-4 * 10.0 ** rng.uniform(-2, 2),
        noise_power=1e-9 * 10.0 ** rng.uniform(-2, 2),
        ref_path_gain=10.0 ** -4.3 * 10.0 ** rng.uniform(-2, 2),
    )


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        p = _random_params(rng)
        budget = derive_link_budget(p)
        airs_index = int(rng.integers(1, p.num_irs + 1))
        geometry = random_geometry(p, rng)
        phases, beam = optimal_configuration(airs_index, geometry, p, budget)
        snr_err = abs(full_snr(airs_index, geometry, phases, beam, p)
                      / snr_closed(p, airs_index, budget) - 1.0)
        pow_err = abs(full_power(airs_index, geometry, phases, beam, p)
                      / power_closed(p, airs_index, budget) - 1.0)
        worst = max(worst, snr_err, pow_err)
    elapsed = time.monotonic() - start
    _report(1, "matrix-oracle equivalence", worst <= 1e-8 and elapsed < 10.0,
            f"100 configs, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_information_placement_matches_brute_force():
    start = time.monotonic()
    grid = agreement_grid()
    mismatches = sum(not optimal_index(WIT, p, derive_link_budget(p)).brute_force_agrees
                     for p in grid)
    elapsed = time.monotonic() - start
    _report(2, "closed-form SNR placement", mismatches == 0 and elapsed < 5.0,
            f"{len(grid)} configs, {mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_3_power_placement_matches_brute_force():
    start = time.monotonic()
    grid = agreement_grid()
    bad = 0
    for p in grid:
        sol = optimal_index(WPT, p, derive_link_budget(p))
        if sol.airs_index != p.num_irs or not sol.brute_force_agrees:
            bad += 1
    elapsed = time.monotonic() - start
    _report(3, "closed-form power placement", bad == 0 and elapsed < 5.0,
            f"{len(grid)} configs, {bad} deviations from the final index, {elapsed:.2f}s")


def test_criterion_4_index_trajectory():
    indices = []
    wpt_ok = True
    for n_p in range(10, 1413):
        p = _with_np(DEFAULTS, n_p)
        budget = derive_link_budget(p)
        indices.append((n_p, optimal_index(WIT, p, budget).airs_index))
        if optimal_index(WPT, p, budget).airs_index != 7:
            wpt_ok = False
    non_decreasing = all(a[1] <= b[1] for a, b in zip(indices, indices[1:]))
    starts_low = indices[0][1] < 7
    saturated = all(l == 7 for n_p, l in indices if n_p >= 822)
    ok = non_decreasing and starts_low and saturated and wpt_ok
    _report(4, "placement-index trajectory", ok,
            f"start {indices[0][1]}, non-decreasing {non_decreasing}, "
            f"=7 from 822 {saturated}, power index pinned {wpt_ok}")


def test_criterion_5_scheme_comparisons():
    panel_sizes = sorted(set(int(round(v)) for v in np.geomspace(10, 1400, 50)))

    dominated = True
    active_vs_passive = {WIT: [], WPT: []}
    for n_p in panel_sizes:
        p = _with_np(DEFAULTS, n_p)
        budget = derive_link_budget(p)
        for mode in (WIT, WPT):
            best = optimal_index(mode, p, budget).objective
            if best < scheme_middle(mode, p, budget):
                dominated = False
            # the baseline is a log, so the active chain's objective is compared as one
            active_vs_passive[mode].append(math.log(best) > scheme_all_pirs(mode, p, budget))
    crossover_exists = all(
        flags[0] and not flags[-1] for flags in active_vs_passive.values())

    quiet = replace(DEFAULTS, noise_power=1e-15)  # -120 dBm
    threshold = wpt_crossover_np(quiet, derive_link_budget(quiet))
    crossing = None
    for n_p in range(int(threshold) - 50, int(threshold) + 50):
        q = _with_np(quiet, n_p)
        budget = derive_link_budget(q)
        if math.log(optimal_index(WPT, q, budget).objective) <= scheme_all_pirs(WPT, q, budget):
            crossing = n_p
            break
    threshold_ok = crossing is not None and abs(crossing - threshold) <= 1.0

    ok = dominated and crossover_exists and threshold_ok
    _report(5, "baseline-scheme comparisons", ok,
            f"middle dominated {dominated}, crossover exists {crossover_exists}, "
            f"low-noise crossing {crossing} vs formula {threshold:.1f}")


def _fitted_slope(mode: str, airs_index: int, ca_ct_log10: float) -> float:
    """Log-log slope of the objective over a panel-size decade.

    The piecewise orders describe whichever noise term dominates, so the
    drive powers are tilted until the matching term dominates across the
    whole fitted range (and the AWGN floor is pushed far down).
    """
    target_kappa_i = 0.6 / 2**14  # keeps np*kappa_i < 1 across the sweep
    d_i = math.sqrt(DEFAULTS.ref_path_gain) / target_kappa_i
    p0 = replace(DEFAULTS,
                 inter_irs_distance=d_i,
                 tx_power=10.0 ** (-ca_ct_log10 / 2),
                 amp_power=10.0 ** (ca_ct_log10 / 2),
                 noise_power=1e-40)
    sizes = [int(round(v)) for v in np.geomspace(2**10, 2**14, 9)]
    closed = snr_closed if mode == WIT else power_closed
    values = []
    for n in sizes:
        p = _with_np(p0, n)
        values.append(math.log(closed(p, airs_index, derive_link_budget(p))))
    return float(np.polyfit(np.log(sizes), values, 1)[0])


def test_criterion_6_scaling_orders():
    j = DEFAULTS.num_irs
    worst = 0.0
    for l in range(1, j + 1):
        snr_slope = _fitted_slope(WIT, l, 24.0 if l < (j + 1) / 2 else -24.0)
        pow_slope = _fitted_slope(WPT, l, -3.0)
        worst = max(worst,
                    abs(snr_slope - snr_scaling_order(l, j)),
                    abs(pow_slope - power_scaling_order(l, j)))
    _report(6, "panel-size scaling orders", worst <= 0.1,
            f"worst slope deviation {worst:.3f} (tolerance 0.1)")


def test_criterion_7_beamforming_identities():
    rng = np.random.default_rng(7)
    worst_sum = worst_beam = worst_slack = 0.0
    for _ in range(20):
        p = _random_params(rng)
        budget = derive_link_budget(p)
        airs_index = int(rng.integers(1, p.num_irs + 1))
        geometry = random_geometry(p, rng)
        phases, beam = optimal_configuration(airs_index, geometry, p, budget)

        hops = hop_responses(geometry, p, airs_index)
        for k in range(1, p.num_irs + 1):
            arrive, depart = hops[k - 1][0], hops[k][1]
            count = elements_at(p, k, airs_index)
            coeff = abs(reflection_coefficient_sum(arrive, depart, phases.reflection[k - 1]))
            worst_sum = max(worst_sum, abs(coeff / count - 1.0))

        response = hops[0][1]
        gain = abs(response.conj() @ optimal_transmit_beam(response, p.tx_power)) ** 2
        worst_beam = max(worst_beam, abs(gain / (p.tx_power * p.bs_antennas) - 1.0))

        incident = incident_element_power(airs_index, geometry, phases, beam, p)
        _, slack = check_power_constraint(phases.eta, incident, p.noise_power, p.amp_power)
        worst_slack = max(worst_slack, abs(slack) / p.amp_power)

    ok = worst_sum <= 1e-10 and worst_beam <= 1e-10 and worst_slack <= 1e-12
    _report(7, "beamforming identities", ok,
            f"co-phasing {worst_sum:.1e}, matched beam {worst_beam:.1e}, "
            f"budget slack {worst_slack:.1e}")


def test_criterion_8_figure_determinism(tmp_path):
    first, second = tmp_path / "run1", tmp_path / "run2"
    code1 = run(["figures", "--outdir", str(first)])
    code2 = run(["figures", "--outdir", str(second)])
    identical = all((first / name).read_bytes() == (second / name).read_bytes()
                    for name in ("fig2.csv", "fig3.csv", "fig4.csv"))
    _report(8, "figure determinism", code1 == 0 and code2 == 0 and identical,
            f"exit codes {code1}/{code2}, byte-identical {identical}")
