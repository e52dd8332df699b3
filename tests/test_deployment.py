import math
import random
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from irschain import deployment
from irschain.deployment import (
    DeploymentSolution,
    agreement_grid,
    middle_index,
    optimal_index,
    scheme_all_pirs,
    scheme_middle,
    wpt_crossover_np,
)
from irschain.metrics import WIT, WPT, objective, power_closed, snr_closed
from irschain.params import (
    MAX_ELEMENTS,
    MAX_SURFACES,
    SystemParams,
    derive_link_budget,
    model_warnings,
    validate,
)
from reference import exact_all_pirs_log, objective_vector, vanishing_noise_limits

# Frozen from direct arithmetic at the default scenario (100-element panels):
# relaxed optimizer (J+1)/2 + log(c_a/c_t) / (4 log(np_kappa_i)) and the
# boundary panel size (c_a/c_t)**(1/(2(J-1))) / kappa_i.
RELAXED_AT_100 = 4.613893204553113
CASE_I_BOUNDARY = 821.6261848728446
CROSSOVER_AT_DEFAULTS = 1112.7994181240558


def with_np(p, n_p):
    return replace(p, pirs_elements=n_p, pirs_grid=None)


def _boundary_branch_rule(budget, j, objectives):
    """The closed-form WIT rule with its former explicit boundary branches."""
    if budget.log_c_a < budget.log_c_t:
        case = "I"
    elif budget.log_c_a > budget.log_c_t:
        case = "III"
    else:
        case = "II"
    if j == 1:
        return 1, case, None
    log_ratio, log_npk = budget.log_c_a - budget.log_c_t, budget.log_np_kappa_i
    relaxed = (j + 1) / 2.0 + log_ratio / (4.0 * log_npk)
    if case == "I" and 2.0 * (j - 1) * log_npk >= log_ratio:
        return j, case, relaxed
    if case == "III" and 2.0 * (j - 1) * log_npk >= -log_ratio:
        return 1, case, relaxed
    lo = min(max(math.floor(relaxed), 1), j)
    hi = min(max(math.ceil(relaxed), 1), j)
    best = hi if objectives[hi - 1] > objectives[lo - 1] else lo
    return best, case, relaxed


class _LazyObjectives:
    """objectives[l - 1] evaluated on demand, so a J = 400 chain costs two calls."""

    def __init__(self, p, budget):
        self.p, self.budget = p, budget

    def __getitem__(self, i):
        return objective(WIT, self.p, i + 1, self.budget)


def _random_decreasing_params(rng, count):
    """Seeded chains with J <= 400, np <= 1412, N_a <= 2000 and +-30 dB powers,
    kept only in the np_kappa_i < 1 regime where the closed form applies."""
    base, params = SystemParams(), []
    while len(params) < count:
        p = replace(base,
                    num_irs=int(rng.integers(1, 401)),
                    pirs_elements=int(rng.integers(2, 1413)), pirs_grid=None,
                    airs_elements=int(rng.integers(1, 2001)), airs_grid=None,
                    tx_power=base.tx_power * 10.0 ** rng.uniform(-3.0, 3.0),
                    amp_power=base.amp_power * 10.0 ** rng.uniform(-3.0, 3.0))
        if derive_link_budget(p).f_decreasing:
            params.append(p)
    return params


class TestBruteForce:
    def test_single_surface(self):
        p = SystemParams(num_irs=1)
        budget = derive_link_budget(p)
        sol = optimal_index(WIT, p, budget)
        assert sol.brute_force_index == 1
        assert objective_vector(WIT, p, budget) == [sol.objective]
        assert sol.middle_objective == sol.final_objective == sol.objective
        assert sol.brute_force_agrees

    def test_default_scenario_information(self):
        p = SystemParams()
        sol = optimal_index(WIT, p, derive_link_budget(p))
        assert sol.brute_force_index == 5

    @pytest.mark.parametrize("n_p", [10, 100, 800, 1400])
    def test_default_scenario_power_always_last(self, n_p):
        p = with_np(SystemParams(), n_p)
        sol = optimal_index(WPT, p, derive_link_budget(p))
        assert sol.brute_force_index == 7

    def test_objective_matches_metrics(self):
        p = SystemParams()
        budget = derive_link_budget(p)
        sol = optimal_index(WIT, p, budget)
        l = sol.brute_force_index
        assert sol.airs_index == l and sol.objective == snr_closed(p, l, budget)


class TestObjectiveVector:
    @pytest.mark.parametrize("mode, closed", [(WIT, snr_closed), (WPT, power_closed)])
    def test_one_vector_serves_every_answer(self, mode, closed):
        for p in agreement_grid():
            budget = derive_link_budget(p)
            sol = optimal_index(mode, p, budget)
            values = [closed(p, l, budget) for l in range(1, p.num_irs + 1)]
            assert values == objective_vector(mode, p, budget)
            best = max(values)
            first_argmax = min(l for l in range(1, p.num_irs + 1) if values[l - 1] == best)
            assert sol.brute_force_index == first_argmax
            assert sol.objective == values[sol.airs_index - 1]
            assert sol.middle_objective == values[middle_index(p.num_irs) - 1]
            assert sol.final_objective == values[-1]

    # a power solve makes no objective call: TestNegligiblePartner in test_metrics
    # counts its exps instead
    @pytest.mark.parametrize("mode", [WIT])
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
            p = SystemParams()
            optimal_index("both", p, derive_link_budget(p))


class TestDeploymentSolutionRecord:
    """The written-out keyword-only constructor keeps the frozen dataclass behaviour."""

    FIELDS = ["airs_index", "objective", "case", "relaxed_index", "brute_force_index",
              "brute_force_agrees", "middle_objective", "final_objective"]

    @staticmethod
    def _solution():
        p = SystemParams()
        return optimal_index(WIT, p, derive_link_budget(p))

    def _kwargs(self, sol):
        return {name: getattr(sol, name) for name in self.FIELDS}

    def test_fields_in_order(self):
        assert [f.name for f in fields(DeploymentSolution)] == self.FIELDS

    @pytest.mark.parametrize("name", FIELDS)
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        sol = self._solution()
        with pytest.raises(FrozenInstanceError):
            setattr(sol, name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(sol, name)
        assert sol == self._solution()

    def test_equality_hash_and_repr_cover_every_field(self):
        sol = self._solution()
        again = DeploymentSolution(**self._kwargs(sol))
        assert again == sol and hash(again) == hash(sol) and repr(again) == repr(sol)
        assert repr(sol).startswith("DeploymentSolution(airs_index=5, objective=")
        assert replace(sol, middle_objective=0.0) != sol
        assert replace(sol, final_objective=0.0) != sol

    def test_replace_still_works(self):
        sol = self._solution()
        moved = replace(sol, airs_index=sol.airs_index - 1)
        assert moved.airs_index == sol.airs_index - 1
        assert self._kwargs(moved) == {**self._kwargs(sol), "airs_index": sol.airs_index - 1}

    def test_rejects_positional_missing_and_unknown_fields(self):
        kwargs = self._kwargs(self._solution())
        with pytest.raises(TypeError):
            DeploymentSolution(*kwargs.values())
        for name in self.FIELDS:
            with pytest.raises(TypeError, match=name):
                DeploymentSolution(**{k: v for k, v in kwargs.items() if k != name})
        with pytest.raises(TypeError, match="airs_indx"):
            DeploymentSolution(**kwargs, airs_indx=3)


class TestInformationPlacement:
    def setup_method(self):
        self.p = SystemParams()

    def test_default_scenario(self):
        sol = optimal_index(WIT, self.p, derive_link_budget(self.p))
        assert sol.airs_index == 5
        assert sol.case == "I"
        assert sol.relaxed_index == pytest.approx(RELAXED_AT_100, rel=1e-9)
        assert sol.brute_force_agrees

    @pytest.mark.parametrize("n_p", [822, 1000, 1412])
    def test_large_panels_push_to_the_last_surface(self, n_p):
        p = with_np(self.p, n_p)
        sol = optimal_index(WIT, p, derive_link_budget(p))
        assert sol.airs_index == 7
        assert sol.case == "I"
        assert sol.brute_force_agrees

    def test_boundary_panel_size_frozen_value(self):
        budget = derive_link_budget(self.p)
        boundary = math.exp((budget.log_c_a - budget.log_c_t) / 12) / budget.kappa_i
        assert boundary == pytest.approx(CASE_I_BOUNDARY, rel=1e-12)

    def test_balanced_drive_picks_the_midpoint(self):
        # log c_a == log c_t exactly: equal hop gains, and log 0.25 + log 40 rounds to
        # log 1 + log 10
        p = replace(self.p, amp_power=0.25, airs_elements=40, airs_grid=None,
                    tx_power=1.0, bs_antennas=10, irs_user_distance=4.0)
        budget = derive_link_budget(p)
        assert budget.log_c_a == budget.log_c_t
        sol = optimal_index(WIT, p, budget)
        assert sol.case == "II"
        assert sol.airs_index == 4
        assert sol.relaxed_index == pytest.approx(4.0)
        assert sol.brute_force_agrees

    def test_amplifier_heavy_drive_mirrors_to_the_first_half(self):
        p = replace(self.p, amp_power=1.0, airs_elements=1000, airs_grid=None,
                    tx_power=1e-3, bs_antennas=2)
        sol = optimal_index(WIT, p, derive_link_budget(p))
        assert sol.case == "III"
        assert sol.airs_index <= middle_index(p.num_irs)
        assert sol.brute_force_agrees

    def test_amplifier_heavy_boundary_reaches_the_first_surface(self):
        p = replace(self.p, amp_power=1.0, airs_elements=1000, airs_grid=None,
                    tx_power=1e-3, bs_antennas=2)
        p = with_np(p, 600)
        sol = optimal_index(WIT, p, derive_link_budget(p))
        assert sol.case == "III"
        assert sol.airs_index == 1
        assert sol.brute_force_agrees

    def test_growing_regime_falls_back_to_brute_force(self):
        p = with_np(self.p, 1500)
        sol = optimal_index(WIT, p, derive_link_budget(p))
        assert sol.case == "brute-force-fallback"
        assert sol.brute_force_agrees

    def test_single_surface_has_no_relaxed_point(self):
        p = SystemParams(num_irs=1)
        sol = optimal_index(WIT, p, derive_link_budget(p))
        assert sol.airs_index == 1
        assert sol.relaxed_index is None

    def test_agreement_over_small_grid_sample(self):
        for p in agreement_grid()[::97]:
            assert optimal_index(WIT, p, derive_link_budget(p)).brute_force_agrees

    @pytest.mark.parametrize("source", ["agreement_grid", "random"])
    def test_clamp_matches_the_boundary_branches(self, source):
        if source == "agreement_grid":
            params = agreement_grid()
        else:
            params = _random_decreasing_params(np.random.default_rng(71), 2000)
        for p in params:
            budget = derive_link_budget(p)
            assert budget.f_decreasing
            objectives = _LazyObjectives(p, budget)
            got = deployment._wit_closed_form(budget, p.num_irs, objectives)
            assert got == _boundary_branch_rule(budget, p.num_irs, objectives), p

    @pytest.mark.parametrize("fields, relaxed", [
        # log c_a ~ +9.2e307 and log c_t ~ -9.2e307 are finite; their difference is inf
        (dict(path_loss_exponent=4e307, irs_user_distance=0.1, bs_irs_distance=10.0,
              inter_irs_distance=1.0), -math.inf),
        # ... and 4 log(np_kappa_i) ~ -1.8e308 rounds to -inf as well: inf / -inf is nan
        (dict(num_irs=2, path_loss_exponent=9e307, inter_irs_distance=math.e,
              irs_user_distance=math.exp(-1.5), bs_irs_distance=math.exp(0.5)), math.nan),
    ])
    def test_relaxed_index_past_double_range_clamps_to_a_boundary(self, fields, relaxed):
        p = SystemParams(**fields)
        budget = derive_link_budget(p)
        assert budget.f_decreasing and math.isfinite(budget.log_signal)
        index, case, got = deployment._wit_closed_form(budget, p.num_irs, (0.0,) * p.num_irs)
        assert (index, case) == (1, "III")
        assert got == relaxed or math.isnan(got) and math.isnan(relaxed)

    def test_transmit_heavy_drive_stays_in_the_second_half(self):
        # c_a < c_t puts the relaxed optimizer at or beyond the midpoint
        for p in agreement_grid():
            budget = derive_link_budget(p)
            if budget.log_c_a < budget.log_c_t:
                sol = optimal_index(WIT, p, budget)
                assert sol.airs_index >= math.ceil((p.num_irs + 1) / 2)


class TestPowerPlacement:
    def test_always_the_final_surface(self):
        p = SystemParams()
        sol = optimal_index(WPT, p, derive_link_budget(p))
        assert sol.airs_index == 7
        assert sol.case == "final"
        assert sol.brute_force_agrees

    def test_single_surface(self):
        p = SystemParams(num_irs=1)
        assert optimal_index(WPT, p, derive_link_budget(p)).airs_index == 1

    @pytest.mark.parametrize("n_p", [4, 16, 64, 256])
    def test_brute_force_agreement_across_panel_sizes(self, n_p):
        p = with_np(SystemParams(), n_p)
        sol = optimal_index(WPT, p, derive_link_budget(p))
        assert sol.airs_index == 7
        assert sol.brute_force_agrees

    def test_growing_regime_falls_back(self):
        p = with_np(SystemParams(), 1500)
        sol = optimal_index(WPT, p, derive_link_budget(p))
        assert sol.case == "brute-force-fallback"


class TestRegimeEdge:
    """np_kappa_i == 1 exactly: beta_0 = 0.25 and d_i = 1 m give kappa_i = 0.5 at
    alpha = 2, and two elements double it.  Every position then sees the same
    chain gain, so the regime is not decreasing and the scan keeps the first."""

    P = SystemParams(ref_path_gain=0.25, inter_irs_distance=1.0, pirs_elements=2)

    def test_budget_is_not_decreasing(self):
        budget = derive_link_budget(self.P)
        assert budget.log_np_kappa_i == 0.0
        assert budget.f_decreasing is False
        assert validate(self.P) == []
        assert "f_non_decreasing" in [d.name for d in model_warnings(self.P, budget)]

    @pytest.mark.parametrize("mode", [WIT, WPT])
    def test_every_position_ties_and_brute_force_picks_the_first(self, mode):
        budget = derive_link_budget(self.P)
        sol = optimal_index(mode, self.P, budget)
        values = objective_vector(mode, self.P, budget)
        assert len(values) == 7 and len(set(values)) == 1
        assert sol.objective == sol.middle_objective == sol.final_objective == values[0]
        assert sol.brute_force_index == 1
        assert sol.airs_index == 1 and sol.case == "brute-force-fallback"


class TestRegimeHasOneOwner:
    """``LinkBudget.f_decreasing`` alone decides the regime: the warning
    ``model_warnings`` prints and the solves' brute-force fallback agree with it."""

    CONFIGS = agreement_grid() + [
        SystemParams(pirs_elements=n_p) for n_p in (1412, 1413, 2000)  # 1/kappa_i = 1412.5
    ] + [TestRegimeEdge.P]  # np_kappa_i == 1.0 exactly

    def test_warning_iff_not_decreasing_iff_both_solves_fall_back(self):
        regimes = set()
        for p in self.CONFIGS:
            budget = derive_link_budget(p)
            warned = "f_non_decreasing" in [d.name for d in model_warnings(p, budget)]
            fallback = [optimal_index(mode, p, budget).case == deployment.CASE_FALLBACK
                        for mode in (WIT, WPT)]
            assert warned == (not budget.f_decreasing) == all(fallback) == any(fallback), p
            regimes.add(budget.f_decreasing)
        assert regimes == {True, False}


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
        assert middle_index(self.p.num_irs) == 4
        assert mid == snr_closed(self.p, 4, self.budget)

    def test_optimal_dominates_middle(self):
        b = self.budget
        assert optimal_index(WIT, self.p, b).objective >= scheme_middle(WIT, self.p, b)
        assert optimal_index(WPT, self.p, b).objective > scheme_middle(WPT, self.p, b)

    def test_all_passive_single_surface_formula(self):
        # kappa_i = 1/100 exactly; one surface, so no inter-surface hops at all
        p = SystemParams(num_irs=1, ref_path_gain=1.0, inter_irs_distance=100.0,
                         pirs_elements=100)
        b = derive_link_budget(p)
        boosted = p.tx_power + p.airs_elements * p.amp_power
        expected = (boosted * p.bs_antennas * math.exp(2 * b.log_kappa_b + 2 * b.log_kappa_u)
                    * p.pirs_elements**2 / p.noise_power)
        # the baseline is a log: 1e-12 relative on the SNR is 1e-12 absolute on its log
        assert scheme_all_pirs(WIT, p, b) == pytest.approx(math.log(expected), abs=1e-12)

    def test_small_panels_favor_the_active_chain(self):
        p = with_np(self.p, 16)
        b = derive_link_budget(p)
        assert math.log(optimal_index(WIT, p, b).objective) > scheme_all_pirs(WIT, p, b)
        assert math.log(optimal_index(WPT, p, b).objective) > scheme_all_pirs(WPT, p, b)

    def test_large_panels_favor_the_passive_chain(self):
        p = with_np(self.p, 1400)
        b = derive_link_budget(p)
        assert math.log(optimal_index(WIT, p, b).objective) < scheme_all_pirs(WIT, p, b)
        assert math.log(optimal_index(WPT, p, b).objective) < scheme_all_pirs(WPT, p, b)

    @pytest.mark.parametrize("mode", [WIT, WPT])
    def test_every_solve_carries_the_middle_baseline(self, mode):
        for p in agreement_grid():
            budget = derive_link_budget(p)
            sol = optimal_index(mode, p, budget)
            assert (sol.middle_objective == scheme_middle(mode, p, budget)
                    == objective(mode, p, middle_index(p.num_irs), budget)), p

    @pytest.mark.parametrize("mode", [WIT, WPT])
    def test_every_solve_carries_the_final_position(self, mode):
        for p in agreement_grid():
            budget = derive_link_budget(p)
            sol = optimal_index(mode, p, budget)
            assert sol.final_objective == objective(mode, p, p.num_irs, budget), p
            if mode == WPT:  # the power solve places the surface there
                assert sol.final_objective == sol.objective, p


class TestOverflow:
    """np = 20000 gives np * kappa_i ~ 14 at the default geometry.

    Each surface then multiplies the all-passive baseline by (np * kappa_i)**2
    but the best SNR only by about np * kappa_i, so the baseline's linear value
    leaves double range at a shorter chain than the objectives do; its log does not.
    """

    @staticmethod
    def chain(j):
        return SystemParams(num_irs=j, pirs_elements=20000, pirs_grid=None)

    @staticmethod
    def message(j, quantity):
        # every field that feeds the objectives, at its value
        return (f"num_irs = {j}, pirs_elements = 20000, inter_irs_distance = 10, "
                "ref_path_gain = 5.01187e-05, path_loss_exponent = 2, amp_power = 0.0001, "
                "airs_elements = 150, irs_user_distance = 4, tx_power = 1, bs_antennas = 10, "
                f"bs_irs_distance = 4 and noise_power = 1e-09 put {quantity} out of double range")

    @pytest.mark.parametrize("mode", [WIT, WPT])
    def test_objective_overflow_names_both_keys(self, mode):
        p = self.chain(300)
        with pytest.raises(ValueError) as info:
            optimal_index(mode, p, derive_link_budget(p))
        assert str(info.value) == self.message(300, "the objective")

    # every entry to the objective raises the solve's error, not a bare OverflowError
    @pytest.mark.parametrize("call", [
        pytest.param(lambda mode, p, budget: (snr_closed if mode == WIT else power_closed)(
            p, middle_index(p.num_irs), budget), id="named-closed-form"),
        pytest.param(scheme_middle, id="scheme_middle"),
        pytest.param(lambda mode, p, budget: objective(mode, p, (p.num_irs + 1) / 2.0, budget),
                     id="real-middle-index"),
    ])
    @pytest.mark.parametrize("mode", [WIT, WPT])
    def test_every_objective_entry_names_the_fields(self, mode, call):
        p = self.chain(300)
        with pytest.raises(ValueError) as info:
            call(mode, p, derive_link_budget(p))
        assert str(info.value) == self.message(300, "the objective")

    def test_power_rounding_to_inf_names_the_fields(self):
        # At l = J the power's exp is c_a ~ 1.5e308, under DBL_MAX, and amplified
        # noise leads the signal by about 4/3, so num / den ~ 1.75 rounds the
        # product to inf without an OverflowError.
        p = SystemParams(irs_user_distance=1e-3, amp_power=2e304, noise_power=1e-16)
        budget = derive_link_budget(p)
        assert 1e308 < math.exp(budget.log_c_a) < 1.7976931348623157e308
        assert math.isfinite(objective(WPT, p, p.num_irs - 1, budget))
        assert math.isfinite(objective(WIT, p, p.num_irs, budget))
        text = ("num_irs = 7, pirs_elements = 100, inter_irs_distance = 10, "
                "ref_path_gain = 5.01187e-05, path_loss_exponent = 2, amp_power = 2e+304, "
                "airs_elements = 150, irs_user_distance = 0.001, tx_power = 1, "
                "bs_antennas = 10, bs_irs_distance = 4 and noise_power = 1e-16 "
                "put the objective out of double range")
        for call in (lambda: objective(WPT, p, p.num_irs, budget),
                     lambda: power_closed(p, p.num_irs, budget),
                     lambda: optimal_index(WPT, p, budget)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == text

    # first chain lengths whose linear baseline overflows: 132 (wit) and 136 (wpt);
    # the objectives stay finite up to 265 (wit) and 137 (wpt).  The baseline was
    # exponentiated and raised its own error there; as a log it stays finite
    @pytest.mark.parametrize("mode, j", [(WIT, 132), (WIT, 200), (WPT, 136), (WPT, 137)])
    def test_baseline_past_linear_range_is_a_finite_log(self, mode, j):
        p = self.chain(j)
        budget = derive_link_budget(p)
        sol = optimal_index(mode, p, budget)
        assert all(math.isfinite(v) for v in objective_vector(mode, p, budget))
        assert all(math.isfinite(v) for v in (sol.objective, sol.middle_objective,
                                              sol.final_objective))
        log_passive = scheme_all_pirs(mode, p, budget)
        with pytest.raises(OverflowError):
            math.exp(log_passive)
        assert abs(log_passive - float(exact_all_pirs_log(mode, p))) <= 1e-11


    @pytest.mark.parametrize("mode", [WIT, WPT])
    def test_boosted_power_past_double_range_leaves_the_baseline_finite(self, mode):
        # 1e308 + 150 * 1e306 is past the largest double, but its log is a logaddexp of
        # log tx_power and log(airs_elements * amp_power), which never forms the sum
        p = SystemParams(tx_power=1e308, amp_power=1e306, bs_antennas=1)
        budget = derive_link_budget(p)
        sol = optimal_index(mode, p, budget)
        assert all(math.isfinite(v) for v in objective_vector(mode, p, budget))
        assert all(math.isfinite(v) for v in (sol.objective, sol.middle_objective,
                                              sol.final_objective))
        log_boosted = math.log(1e308) + math.log1p(150 * 1e306 / 1e308)
        log_passive = (log_boosted + 2 * budget.log_kappa_b + 2 * budget.log_kappa_u
                       + 2 * math.log(100) + 12 * budget.log_np_kappa_i
                       - (budget.log_noise_power if mode == WIT else 0.0))
        # 1e-12 relative on the linear baseline is 1e-12 absolute on its log
        assert scheme_all_pirs(mode, p, budget) == pytest.approx(log_passive, abs=1e-12)

    def test_boosted_power_logaddexp_takes_the_larger_term_as_its_shift(self):
        # equal terms (150 * 0.01 W) and each side leading, against the linear sum
        for tx, amp in ((1.5, 0.01), (1e-9, 0.01), (1e3, 0.01)):
            p = SystemParams(tx_power=tx, amp_power=amp, num_irs=1)
            budget = derive_link_budget(p)
            boosted = tx + p.airs_elements * amp
            want = (boosted * p.bs_antennas * p.pirs_elements**2
                    * math.exp(2 * budget.log_kappa_b + 2 * budget.log_kappa_u))
            assert scheme_all_pirs(WPT, p, budget) == pytest.approx(math.log(want), abs=1e-13)


# a positive double drawn log-uniform over the whole range, subnormals included
_ANY_POSITIVE = st.floats(min_value=math.log(5e-324), max_value=math.log(1.7976931348623157e308)
                          ).map(math.exp).filter(lambda v: 0.0 < v < math.inf)


class TestAllPassiveLog:
    """``scheme_all_pirs`` is the natural log of the baseline, held to a 50-digit
    mpmath evaluation from the same float fields, and finite wherever the budget is."""

    @staticmethod
    def gap(mode, p):
        return abs(scheme_all_pirs(mode, p, derive_link_budget(p))
                   - float(exact_all_pirs_log(mode, p)))

    @pytest.mark.parametrize("mode", [WIT, WPT])
    def test_agreement_grid_within_1e_11_nats_of_exact(self, mode):
        assert max(self.gap(mode, p) for p in agreement_grid()) <= 1e-11

    def test_random_chains_within_1e_11_nats_of_exact(self):
        # J <= 400, np <= 20000 (np * kappa_i up to 14), each power within 40 dB of its
        # default; the baseline's linear value leaves double range on many of them
        rng = random.Random(3)
        base = SystemParams()
        gaps = []
        for _ in range(3000):
            p = replace(base, num_irs=rng.randint(1, 400),
                        pirs_elements=rng.randint(1, 20000), pirs_grid=None,
                        tx_power=base.tx_power * 10 ** rng.uniform(-4, 4),
                        amp_power=base.amp_power * 10 ** rng.uniform(-4, 4),
                        noise_power=base.noise_power * 10 ** rng.uniform(-4, 4))
            gaps += [self.gap(mode, p) for mode in (WIT, WPT)]
        assert len(gaps) == 6000 and max(gaps) <= 1e-11

    @given(st.fixed_dictionaries({
        "num_irs": st.integers(1, MAX_SURFACES),
        "bs_antennas": st.integers(1, 10**400),
        "airs_elements": st.integers(1, MAX_ELEMENTS),
        "pirs_elements": st.integers(1, MAX_ELEMENTS),
        **{name: _ANY_POSITIVE for name in (
            "bs_irs_distance", "irs_user_distance", "inter_irs_distance", "tx_power",
            "amp_power", "noise_power", "path_loss_exponent", "ref_path_gain")},
    }))
    def test_finite_wherever_the_budget_derives(self, fields):
        # why the report has no range error for the baseline
        p = SystemParams(**fields)
        try:
            budget = derive_link_budget(p)
        except ValueError:
            return
        assert all(math.isfinite(scheme_all_pirs(mode, p, budget)) for mode in (WIT, WPT))


class TestCrossover:
    def test_finite_when_c_a_times_airs_elements_overflows(self):
        # c_a ~ 2.0e304 is finite, but c_a * airs_elements is not
        p = replace(SystemParams(), amp_power=1e300, irs_user_distance=0.05,
                    airs_elements=10**6, airs_grid=None)
        budget = derive_link_budget(p)
        c_a = math.exp(budget.log_c_a)
        assert math.isfinite(c_a) and math.isinf(c_a * p.airs_elements)
        assert wpt_crossover_np(p, budget) == pytest.approx(2820.2933571382387, rel=1e-12)

    def test_boosted_power_past_double_range_gives_a_finite_crossover(self):
        # 1e308 + 150 * 1e306 is past the largest double; the crossover used to raise
        # here, and before that to return 0.0 from a -inf log gap
        p = SystemParams(tx_power=1e308, amp_power=1e306, bs_antennas=1)
        assert wpt_crossover_np(p, derive_link_budget(p)) == pytest.approx(1709.0, rel=1e-3)

    def test_past_double_range_is_inf(self):
        # a 1e300 m first hop at exponent 4 puts the all-passive log near -2777 nats;
        # at J = 1 the threshold is exp of half its log gap, about 1381, past double range
        p = SystemParams(num_irs=1, bs_irs_distance=1e300, path_loss_exponent=4.0)
        assert wpt_crossover_np(p, derive_link_budget(p)) == math.inf

    def test_frozen_default_threshold(self):
        p = SystemParams()
        assert wpt_crossover_np(p, derive_link_budget(p)) == pytest.approx(
            CROSSOVER_AT_DEFAULTS, rel=1e-12)

    def test_bracketed_by_the_actual_low_noise_crossover(self):
        # scan the exact power ratio at -120 dBm noise around the threshold
        p = replace(SystemParams(), noise_power=1e-15)
        threshold = wpt_crossover_np(p, derive_link_budget(p))
        crossing = None
        for n_p in range(1000, 1300):
            q = with_np(p, n_p)
            b = derive_link_budget(q)
            if math.log(optimal_index(WPT, q, b).objective) <= scheme_all_pirs(WPT, q, b):
                crossing = n_p
                break
        assert crossing is not None
        assert abs(crossing - threshold) <= 1.0

    def test_vanishing_amplifier_kills_the_threshold(self):
        # one active element: threshold ~ amp_power**(1/(2J)) near zero,
        # so the decay is slow but monotone
        p = replace(SystemParams(), airs_elements=1, airs_grid=None)
        drives = [replace(p, amp_power=pa) for pa in (1e-1, 1e-6, 1e-60)]
        values = [wpt_crossover_np(q, derive_link_budget(q)) for q in drives]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1.0

    def test_scales_with_hop_gain(self):
        # with path-loss exponent 2, doubling the hop distance halves kappa_i
        p = SystemParams()
        assert p.path_loss_exponent == 2.0
        j = p.num_irs
        far = replace(p, inter_irs_distance=2 * p.inter_irs_distance)
        halved = wpt_crossover_np(far, derive_link_budget(far))
        full = wpt_crossover_np(p, derive_link_budget(p))
        assert halved / full == pytest.approx(2 ** ((j - 1) / j), rel=1e-12)


class TestPlacementGains:
    """The optimal placement's gains over the middle one and over the all-passive
    chain, as log differences of what the solver returns.  "exact" divides the
    optimum by the baseline.  "closed" divides the final position's objective by
    the one at the real middle index (J+1)/2, or by the all-passive baseline: an
    identity for power transfer (for odd J, where (J+1)/2 is the middle index), a
    lower bound for information transfer."""

    @staticmethod
    def log_gains(mode, p):
        """(exact, closed) over the middle, then (exact, closed) over the all-passive."""
        b = derive_link_budget(p)
        sol = optimal_index(mode, p, b)
        log_optimum, log_final = math.log(sol.objective), math.log(sol.final_objective)
        log_passive = scheme_all_pirs(mode, p, b)
        return (log_optimum - math.log(sol.middle_objective),
                log_final - math.log(objective(mode, p, (p.num_irs + 1) / 2.0, b)),
                log_optimum - log_passive, log_final - log_passive)

    @staticmethod
    def limit_gains(mode, p):
        """Vanishing-noise gains of the final position: over the middle, over the all-passive."""
        b = derive_link_budget(p)
        log_middle_gain, log_final = vanishing_noise_limits(mode, p, b)
        return log_middle_gain, log_final - scheme_all_pirs(mode, p, b)

    def test_power_gains_are_algebraic_identities(self):
        mid_exact, mid_closed, all_exact, all_closed = self.log_gains(WPT, SystemParams())
        assert mid_exact == pytest.approx(mid_closed, abs=1e-10)
        assert all_exact == pytest.approx(all_closed, abs=1e-10)

    def test_power_middle_gain_low_noise_limit(self):
        # x**-(J-1) with x = np_kappa_i: the final position beats the middle one by
        # J - 1 passive hops
        quiet = replace(SystemParams(), noise_power=1e-30)
        log_gain = -(quiet.num_irs - 1) * derive_link_budget(quiet).log_np_kappa_i
        assert self.log_gains(WPT, quiet)[0] == pytest.approx(log_gain, abs=1e-9)
        assert self.limit_gains(WPT, quiet)[0] == pytest.approx(log_gain, abs=1e-12)

    @pytest.mark.parametrize("mode", [WIT, WPT])
    def test_single_surface_middle_gain_is_zero(self, mode):
        assert self.log_gains(mode, SystemParams(num_irs=1))[0] == 0.0

    def test_information_closed_forms_are_lower_bounds(self):
        for n_p in (30, 100, 400):
            mid_exact, mid_closed, all_exact, all_closed = self.log_gains(
                WIT, with_np(SystemParams(), n_p))
            assert mid_exact >= mid_closed - 1e-12
            assert all_exact >= all_closed - 1e-12

    @pytest.mark.parametrize("mode", [WIT, WPT])
    def test_limits_are_the_closed_forms_without_noise(self, mode):
        # noise far below the weakest signal term c_t * x**2 (~5e-19 W here)
        quiet = replace(SystemParams(), noise_power=1e-40)
        _, mid_closed, _, all_closed = self.log_gains(mode, quiet)
        mid_limit, all_limit = self.limit_gains(mode, quiet)
        assert mid_closed == pytest.approx(mid_limit, abs=1e-12)
        assert all_closed == pytest.approx(all_limit, abs=1e-12)

    @pytest.mark.parametrize("mode", [WIT, WPT])
    @pytest.mark.parametrize("j", [60, 100, 130])
    def test_long_chains_give_finite_log_gains(self, mode, j):
        # x**2 and pirs_elements**(2J) leave double range here; their logs do not
        p = replace(SystemParams(), num_irs=j)
        gains = (*self.log_gains(mode, p), *self.limit_gains(mode, p))
        assert all(math.isfinite(g) for g in gains)

    @pytest.mark.parametrize("j", [61, 101, 129])
    def test_long_odd_power_chains_closed_equals_exact(self, j):
        mid_exact, mid_closed, all_exact, all_closed = self.log_gains(
            WPT, replace(SystemParams(), num_irs=j))
        assert mid_closed == pytest.approx(mid_exact, abs=1e-10)
        assert all_closed == pytest.approx(all_exact, abs=1e-10)


class TestAgreementGrid:
    def test_equals_the_grid_built_by_replace(self):
        # the reference resets each grid of a changed count to None, so it is derived again
        base = SystemParams()
        reference = [replace(base, num_irs=j, pirs_elements=n_p, pirs_grid=None,
                             tx_power=base.tx_power * pt_scale,
                             amp_power=base.amp_power * pa_scale,
                             airs_elements=max(1, round(base.airs_elements * na_scale)),
                             airs_grid=None)
                     for j in range(1, 10)
                     for n_p in [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
                     for pt_scale in (0.01, 1.0, 100.0)
                     for pa_scale in (0.01, 1.0, 100.0)
                     for na_scale in (0.1, 1.0, 10.0)]
        assert agreement_grid() == reference
        assert len({(p.airs_elements, p.airs_grid) for p in reference}) == 3

    def test_size_and_regime(self):
        grid = agreement_grid()
        assert len(grid) >= 500
        assert all(derive_link_budget(p).f_decreasing for p in grid)
