import math
from dataclasses import replace

import pytest

from irschain import deployment
from irschain.deployment import (
    agreement_grid,
    crossover_threshold,
    middle_index,
    optimal_index,
    ratio_diagnostics,
    scheme_all_pirs,
    scheme_middle,
    wpt_crossover_np,
)
from irschain.metrics import WIT, WPT, power_closed, snr_closed
from irschain.params import SystemParams, derive_link_budget

# Frozen from direct arithmetic at the default scenario (100-element panels):
# relaxed optimizer (J+1)/2 + log(c_a/c_t) / (4 log(np_kappa_i)) and the
# boundary panel size (c_a/c_t)**(1/(2(J-1))) / kappa_i.
RELAXED_AT_100 = 4.613893204553113
CASE_I_BOUNDARY = 821.6261848728446
CROSSOVER_AT_DEFAULTS = 1112.7994181240558


def with_np(p, n_p):
    return replace(p, pirs_elements=n_p, pirs_grid=None)


class TestBruteForce:
    def test_single_surface(self):
        sol = optimal_index(WIT, SystemParams(num_irs=1))
        assert sol.brute_force_index == 1
        assert sol.objectives == (sol.objective.value,)
        assert sol.brute_force_agrees

    def test_default_scenario_information(self):
        sol = optimal_index(WIT, SystemParams())
        assert sol.brute_force_index == 5

    @pytest.mark.parametrize("n_p", [10, 100, 800, 1400])
    def test_default_scenario_power_always_last(self, n_p):
        sol = optimal_index(WPT, with_np(SystemParams(), n_p))
        assert sol.brute_force_index == 7

    def test_objective_matches_metrics(self):
        p = SystemParams()
        sol = optimal_index(WIT, p)
        assert sol.objectives[sol.brute_force_index - 1] == snr_closed(p, sol.brute_force_index)


class TestObjectiveVector:
    @pytest.mark.parametrize("mode, closed", [(WIT, snr_closed), (WPT, power_closed)])
    def test_one_vector_serves_every_answer(self, mode, closed):
        for p in agreement_grid():
            budget = derive_link_budget(p)
            sol = optimal_index(mode, p, budget)
            assert sol.objectives == tuple(closed(p, l, budget)
                                           for l in range(1, p.num_irs + 1))
            best = max(sol.objectives)
            first_argmax = min(l for l in range(1, p.num_irs + 1)
                               if sol.objectives[l - 1] == best)
            assert sol.brute_force_index == first_argmax
            assert sol.objective.value == sol.objectives[sol.airs_index - 1]
            assert sol.objective.airs_index == sol.airs_index

    @pytest.mark.parametrize("mode", [WIT, WPT])
    @pytest.mark.parametrize("num_irs", [1, 2, 7, 40])
    def test_one_objective_call_per_position(self, monkeypatch, mode, num_irs):
        calls = []
        original = deployment.objective

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(deployment, "objective", counting)
        p = SystemParams(num_irs=num_irs)
        budget = derive_link_budget(p)
        optimal_index(mode, p, budget)
        assert [args[2] for args in calls] == list(range(1, num_irs + 1))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            optimal_index("both", SystemParams())


class TestInformationPlacement:
    def setup_method(self):
        self.p = SystemParams()

    def test_default_scenario(self):
        sol = optimal_index(WIT, self.p)
        assert sol.airs_index == 5
        assert sol.case == "I"
        assert sol.relaxed_index == pytest.approx(RELAXED_AT_100, rel=1e-9)
        assert sol.brute_force_agrees

    @pytest.mark.parametrize("n_p", [822, 1000, 1412])
    def test_large_panels_push_to_the_last_surface(self, n_p):
        sol = optimal_index(WIT, with_np(self.p, n_p))
        assert sol.airs_index == 7
        assert sol.case == "I"
        assert sol.brute_force_agrees

    def test_boundary_panel_size_frozen_value(self):
        budget = derive_link_budget(self.p)
        boundary = (budget.c_a / budget.c_t) ** (1 / 12) / budget.kappa_i
        assert boundary == pytest.approx(CASE_I_BOUNDARY, rel=1e-12)

    def test_balanced_drive_picks_the_midpoint(self):
        # c_a == c_t exactly: equal hop gains and 0.25 W * 40 == 1 W * 10
        p = replace(self.p, amp_power=0.25, airs_elements=40, airs_grid=None,
                    tx_power=1.0, bs_antennas=10, irs_user_distance=4.0)
        budget = derive_link_budget(p)
        assert budget.c_a == budget.c_t
        sol = optimal_index(WIT, p, budget)
        assert sol.case == "II"
        assert sol.airs_index == 4
        assert sol.relaxed_index == pytest.approx(4.0)
        assert sol.brute_force_agrees

    def test_amplifier_heavy_drive_mirrors_to_the_first_half(self):
        p = replace(self.p, amp_power=1.0, airs_elements=1000, airs_grid=None,
                    tx_power=1e-3, bs_antennas=2)
        sol = optimal_index(WIT, p)
        assert sol.case == "III"
        assert sol.airs_index <= middle_index(p.num_irs)
        assert sol.brute_force_agrees

    def test_amplifier_heavy_boundary_reaches_the_first_surface(self):
        p = replace(self.p, amp_power=1.0, airs_elements=1000, airs_grid=None,
                    tx_power=1e-3, bs_antennas=2)
        sol = optimal_index(WIT, with_np(p, 600))
        assert sol.case == "III"
        assert sol.airs_index == 1
        assert sol.brute_force_agrees

    def test_growing_regime_falls_back_to_brute_force(self):
        sol = optimal_index(WIT, with_np(self.p, 1500))
        assert sol.case == "brute-force-fallback"
        assert sol.brute_force_agrees

    def test_single_surface_has_no_relaxed_point(self):
        sol = optimal_index(WIT, SystemParams(num_irs=1))
        assert sol.airs_index == 1
        assert sol.relaxed_index is None

    def test_agreement_over_small_grid_sample(self):
        for p in agreement_grid()[::97]:
            assert optimal_index(WIT, p).brute_force_agrees

    def test_transmit_heavy_drive_stays_in_the_second_half(self):
        # c_a < c_t puts the relaxed optimizer at or beyond the midpoint
        for p in agreement_grid():
            budget = derive_link_budget(p)
            if budget.c_a < budget.c_t:
                sol = optimal_index(WIT, p, budget)
                assert sol.airs_index >= math.ceil((p.num_irs + 1) / 2)


class TestPowerPlacement:
    def test_always_the_final_surface(self):
        sol = optimal_index(WPT, SystemParams())
        assert sol.airs_index == 7
        assert sol.case == "final"
        assert sol.brute_force_agrees

    def test_single_surface(self):
        assert optimal_index(WPT, SystemParams(num_irs=1)).airs_index == 1

    @pytest.mark.parametrize("n_p", [4, 16, 64, 256])
    def test_brute_force_agreement_across_panel_sizes(self, n_p):
        sol = optimal_index(WPT, with_np(SystemParams(), n_p))
        assert sol.airs_index == 7
        assert sol.brute_force_agrees

    def test_growing_regime_falls_back(self):
        sol = optimal_index(WPT, with_np(SystemParams(), 1500))
        assert sol.case == "brute-force-fallback"


class TestBaselineSchemes:
    def setup_method(self):
        self.p = SystemParams()
        self.budget = derive_link_budget(self.p)

    def test_middle_index_rounds_half_down(self):
        assert middle_index(7) == 4
        assert middle_index(6) == 3
        assert middle_index(1) == 1

    def test_middle_scheme_evaluates_the_midpoint(self):
        mid = scheme_middle(WIT, self.p, self.budget)
        assert mid.airs_index == 4
        assert mid.value == snr_closed(self.p, 4, self.budget)

    def test_optimal_dominates_middle(self):
        assert (optimal_index(WIT, self.p).objective.value
                >= scheme_middle(WIT, self.p).value)
        assert (optimal_index(WPT, self.p).objective.value
                > scheme_middle(WPT, self.p).value)

    def test_all_passive_single_surface_formula(self):
        # kappa_i = 1/100 exactly; one surface, so no inter-surface hops at all
        p = SystemParams(num_irs=1, ref_path_gain=1.0, inter_irs_distance=100.0,
                         pirs_elements=100)
        b = derive_link_budget(p)
        boosted = p.tx_power + p.airs_elements * p.amp_power
        expected = (boosted * p.bs_antennas * b.kappa_b**2 * b.kappa_u**2
                    * p.pirs_elements**2 / p.noise_power)
        assert scheme_all_pirs(WIT, p, b) == pytest.approx(expected, rel=1e-12)

    def test_small_panels_favor_the_active_chain(self):
        p = with_np(self.p, 16)
        b = derive_link_budget(p)
        assert optimal_index(WIT, p, b).objective.value > scheme_all_pirs(WIT, p, b)
        assert optimal_index(WPT, p, b).objective.value > scheme_all_pirs(WPT, p, b)

    def test_large_panels_favor_the_passive_chain(self):
        p = with_np(self.p, 1400)
        b = derive_link_budget(p)
        assert optimal_index(WIT, p, b).objective.value < scheme_all_pirs(WIT, p, b)
        assert optimal_index(WPT, p, b).objective.value < scheme_all_pirs(WPT, p, b)


class TestCrossover:
    def test_frozen_default_threshold(self):
        assert wpt_crossover_np(SystemParams()) == pytest.approx(
            CROSSOVER_AT_DEFAULTS, rel=1e-12)

    def test_bracketed_by_the_actual_low_noise_crossover(self):
        # scan the exact power ratio at -120 dBm noise around the threshold
        p = replace(SystemParams(), noise_power=1e-15)
        threshold = wpt_crossover_np(p)
        crossing = None
        for n_p in range(1000, 1300):
            q = with_np(p, n_p)
            b = derive_link_budget(q)
            if optimal_index(WPT, q, b).objective.value <= scheme_all_pirs(WPT, q, b):
                crossing = n_p
                break
        assert crossing is not None
        assert abs(crossing - threshold) <= 1.0

    def test_vanishing_amplifier_kills_the_threshold(self):
        # threshold ~ na**(1/J) near zero, so the decay is slow but monotone
        p = SystemParams()
        b = derive_link_budget(p)
        values = [crossover_threshold(na, p.amp_power, p.tx_power, p.bs_antennas,
                                      b.kappa_b, b.kappa_i, p.num_irs)
                  for na in (1e-1, 1e-6, 1e-60)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1.0

    def test_scales_with_hop_gain(self):
        p = SystemParams()
        b = derive_link_budget(p)
        j = p.num_irs
        halved = crossover_threshold(p.airs_elements, p.amp_power, p.tx_power,
                                     p.bs_antennas, b.kappa_b, b.kappa_i / 2, j)
        full = crossover_threshold(p.airs_elements, p.amp_power, p.tx_power,
                                   p.bs_antennas, b.kappa_b, b.kappa_i, j)
        assert halved / full == pytest.approx(2 ** ((j - 1) / j), rel=1e-12)


class TestRatioDiagnostics:
    def setup_method(self):
        self.p = SystemParams()

    def test_power_ratios_are_algebraic_identities(self):
        rep = ratio_diagnostics(WPT, self.p)
        assert rep.vs_middle_exact == pytest.approx(rep.vs_middle_closed, rel=1e-10)
        assert rep.vs_all_pirs_exact == pytest.approx(rep.vs_all_pirs_closed, rel=1e-10)

    def test_power_middle_ratio_low_noise_limit(self):
        quiet = replace(self.p, noise_power=1e-30)
        b = derive_link_budget(quiet)
        rep = ratio_diagnostics(WPT, quiet, b)
        assert rep.vs_middle_exact == pytest.approx(
            b.np_kappa_i ** (1 - quiet.num_irs), rel=1e-9)
        assert rep.vs_middle_limit == pytest.approx(
            b.np_kappa_i ** (1 - quiet.num_irs), rel=1e-12)

    def test_single_surface_middle_ratio_is_one(self):
        rep = ratio_diagnostics(WPT, SystemParams(num_irs=1))
        assert rep.vs_middle_exact == pytest.approx(1.0, rel=1e-12)

    def test_information_closed_forms_are_lower_bounds(self):
        for n_p in (30, 100, 400):
            p = with_np(self.p, n_p)
            rep = ratio_diagnostics(WIT, p)
            assert rep.vs_middle_exact >= rep.vs_middle_closed * (1 - 1e-12)
            assert rep.vs_all_pirs_exact >= rep.vs_all_pirs_closed * (1 - 1e-12)

    def test_exact_ratios_divide_the_objectives(self):
        p = self.p
        b = derive_link_budget(p)
        rep = ratio_diagnostics(WIT, p, b)
        gamma_opt = optimal_index(WIT, p, b).objective.value
        assert rep.vs_middle_exact == pytest.approx(
            gamma_opt / snr_closed(p, 4, b), rel=1e-12)
        assert rep.vs_all_pirs_exact == pytest.approx(
            gamma_opt / scheme_all_pirs(WIT, p, b), rel=1e-12)


class TestAgreementGrid:
    def test_size_and_regime(self):
        grid = agreement_grid()
        assert len(grid) >= 500
        assert all(derive_link_budget(p).f_decreasing for p in grid)
