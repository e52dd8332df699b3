import math
import sys
from collections import Counter
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from irschain import deployment as deployment_module
from irschain import metrics as metrics_module
from irschain.beamforming import optimal_configuration
from irschain.channel import (
    full_power,
    full_snr,
    random_geometry,
)
from irschain.deployment import agreement_grid, optimal_index
from irschain.metrics import WIT, objective, power_closed, snr_closed
from irschain.params import SystemParams, derive_link_budget, out_of_range_message
from reference import (
    chain_geometry,
    incident_element_power,
    power_scaling_order,
    snr_scaling_order,
)

# f(4) at the default scenario with 100-element passive panels,
# frozen from kappa_b**2 * (100 * kappa_i)**6 computed directly
F_AT_4 = 3.9434834030012126e-13


def effective_gain(airs_index, p, budget):
    """Transmitter-to-active-surface power gain f(l) from the matrix oracle.

    Under the optimal beam and co-phasing every active element sees
    tx_power * bs_antennas * f(l), so f(l) = ||h_in||^2 / (Na * Pt * M)
    with ||h_in||^2 = Na * incident_element_power.
    """
    geom = chain_geometry(p)
    phases, beam = optimal_configuration(airs_index, geom, p, budget)
    forward_norm = p.airs_elements * incident_element_power(airs_index, geom, phases, beam, p)
    return forward_norm / (p.airs_elements * p.tx_power * p.bs_antennas)


class TestEffectiveGain:
    def setup_method(self):
        self.p = SystemParams()
        self.budget = derive_link_budget(self.p)

    def test_first_index_is_first_hop_gain(self):
        assert effective_gain(1, self.p, self.budget) == pytest.approx(
            math.exp(2 * self.budget.log_kappa_b), rel=1e-12)

    def test_unit_relay_factor_makes_gain_flat(self):
        # kappa_i = 1/100 exactly, so 100-element panels sit on the boundary
        p = SystemParams(ref_path_gain=1.0, inter_irs_distance=100.0, pirs_elements=100)
        budget = derive_link_budget(p)
        assert budget.log_np_kappa_i == pytest.approx(0.0, abs=1e-15)
        gains = [effective_gain(l, p, budget) for l in range(1, 8)]
        np.testing.assert_allclose(gains, gains[0], rtol=1e-12)

    def test_frozen_mid_chain_value(self):
        assert effective_gain(4, self.p, self.budget) == pytest.approx(F_AT_4, rel=1e-12)

    def test_strictly_decreasing_in_the_decaying_regime(self):
        gains = [effective_gain(l, self.p, self.budget) for l in range(1, 8)]
        assert all(a > b for a, b in zip(gains, gains[1:]))


class TestSnrClosed:
    def setup_method(self):
        self.p = SystemParams()
        self.budget = derive_link_budget(self.p)

    def test_single_surface_reduction(self):
        p = replace(self.p, num_irs=1)
        b = derive_link_budget(p)
        c_a, c_t = math.exp(b.log_c_a), math.exp(b.log_c_t)
        expected = (c_a * c_t * p.airs_elements
                    / (p.noise_power * (c_a + c_t + p.noise_power)))
        assert snr_closed(p, 1, b) == pytest.approx(expected, rel=1e-12)

    def test_interior_maximum_at_default_scenario(self):
        gamma = {l: snr_closed(self.p, l, self.budget) for l in (4, 5, 6)}
        assert gamma[5] > gamma[4]
        assert gamma[5] > gamma[6]

    def test_monotone_in_panel_size(self):
        values = []
        for n_p in (25, 50, 100, 200, 400):
            p = replace(self.p, pirs_elements=n_p, pirs_grid=None)
            values.append(snr_closed(p, 4, derive_link_budget(p)))
        assert values == sorted(values)
        assert values[0] < values[-1]

    def test_matches_matrix_model(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            j = int(rng.integers(1, 8))
            p = replace(self.p, num_irs=j,
                        pirs_elements=int(rng.integers(4, 257)), pirs_grid=None)
            budget = derive_link_budget(p)
            l = int(rng.integers(1, j + 1))
            geom = random_geometry(p, rng)
            phases, beam = optimal_configuration(l, geom, p, budget)
            assert full_snr(l, geom, phases, beam, p) == pytest.approx(
                snr_closed(p, l, budget), rel=1e-8)


class TestPowerClosed:
    def setup_method(self):
        self.p = SystemParams()
        self.budget = derive_link_budget(self.p)

    def test_noise_free_limit(self):
        quiet = replace(self.p, noise_power=1e-30)
        b = derive_link_budget(quiet)
        for l in (1, 4, 7):
            limit = (math.exp(b.log_c_a) * quiet.airs_elements
                     * math.exp(b.log_np_kappa_i) ** (2 * (quiet.num_irs - l)))
            assert power_closed(quiet, l, b) == pytest.approx(limit, rel=1e-9)

    def test_final_position_dominates(self):
        values = [power_closed(self.p, l, self.budget) for l in range(1, 8)]
        assert max(values) == values[-1]
        assert all(values[-1] > v for v in values[:-1])

    def test_strictly_increasing_in_decaying_regime(self):
        values = [power_closed(self.p, l, self.budget) for l in range(1, 8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_matches_matrix_model(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            j = int(rng.integers(1, 8))
            p = replace(self.p, num_irs=j,
                        pirs_elements=int(rng.integers(4, 257)), pirs_grid=None)
            budget = derive_link_budget(p)
            l = int(rng.integers(1, j + 1))
            geom = random_geometry(p, rng)
            phases, beam = optimal_configuration(l, geom, p, budget)
            assert full_power(l, geom, phases, beam, p) == pytest.approx(
                power_closed(p, l, budget), rel=1e-8)


class TestScalingOrders:
    @pytest.mark.parametrize("l,expected", [
        (1, 0), (2, 2), (3, 4), (4, 6), (5, 4), (6, 2), (7, 0),
    ])
    def test_snr_orders_seven_surfaces(self, l, expected):
        assert snr_scaling_order(l, 7) == expected

    @pytest.mark.parametrize("l,expected", [
        (1, 12), (2, 10), (4, 6), (7, 0),
    ])
    def test_power_orders_seven_surfaces(self, l, expected):
        assert power_scaling_order(l, 7) == expected

    def test_midpoint_uses_second_branch(self):
        # l = (J+1)/2: both branches coincide at 2*(J-l)
        assert snr_scaling_order(4, 7) == 2 * (7 - 4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            snr_scaling_order(0, 7)


class TestObjective:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            p = SystemParams()
            objective("both", p, 1, derive_link_budget(p))

    @pytest.mark.parametrize("l", [0, 1, 8])
    def test_unknown_mode_is_reported_before_the_index(self, l):
        p = SystemParams()  # J = 7
        with pytest.raises(ValueError, match="^mode must be one of"):
            objective("both", p, l, derive_link_budget(p))


    @pytest.mark.parametrize("mode", ["wit", "wpt"])
    def test_a_log_term_past_double_range_names_the_fields(self, mode):
        # every budget log is finite at alpha = 1e306 (log c_a = 1e308, log c_t = -1.5e308,
        # log x = 5e307), but at l = 1 the amplified noise's log, log sigma^2 + log c_a
        # + 2 log x, rounds to inf: the SNR's shift is then inf and its sum inf - inf
        p = SystemParams(num_irs=2, path_loss_exponent=1e306, bs_irs_distance=math.exp(150),
                         inter_irs_distance=math.exp(-100), irs_user_distance=math.exp(-100))
        budget = derive_link_budget(p)
        assert budget.log_noise_c_a + 2.0 * budget.log_np_kappa_i == math.inf
        with pytest.raises(ValueError) as info:
            objective(mode, p, 1, budget)
        assert str(info.value) == out_of_range_message(p, "objective")
        assert objective(WIT, p, 2, budget) == 0.0  # an underflow, named at the dB boundary


_CLOSED_FORMS = {
    "snr_closed": snr_closed,
    "power_closed": power_closed,
    "objective-wit": partial(objective, "wit"),
    "objective-wpt": partial(objective, "wpt"),
}


class TestIndexCheck:
    @pytest.mark.parametrize("name", _CLOSED_FORMS)
    @pytest.mark.parametrize("l", [0, 8])
    def test_index_outside_the_chain_is_rejected(self, name, l):
        p = SystemParams()  # J = 7
        with pytest.raises(ValueError) as exc:
            _CLOSED_FORMS[name](p, l, derive_link_budget(p))
        assert str(exc.value) == f"active-surface index {l} outside 1..7"

    @pytest.mark.parametrize("name", _CLOSED_FORMS)
    def test_real_middle_index_of_an_even_chain_is_accepted(self, name):
        # the placement-gain tests evaluate the objectives at the real middle (J+1)/2
        p = SystemParams(num_irs=8)
        assert math.isfinite(_CLOSED_FORMS[name](p, 4.5, derive_link_budget(p)))

    @pytest.mark.parametrize("mode", ["wit", "wpt"])
    def test_real_middle_index_matches_the_reference_bit_for_bit(self, mode):
        for p in agreement_grid()[::7]:
            if p.num_irs % 2 == 0:
                budget = derive_link_budget(p)
                l = (p.num_irs + 1) / 2.0
                assert objective(mode, p, l, budget) == _reference_objective(mode, p, budget, l)


class TestIndexTestedInline:
    """``objective`` tests the index itself and calls ``check_airs_index`` only to
    raise, so a solve over positions 1..J makes no call for it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        check = metrics_module.check_airs_index

        def counting_check(airs_index, num_irs):
            seen.append(airs_index)
            check(airs_index, num_irs)

        monkeypatch.setattr(metrics_module, "check_airs_index", counting_check)
        return seen

    @pytest.mark.parametrize("name", _CLOSED_FORMS)
    def test_every_position_and_the_real_middle_make_no_call(self, calls, name):
        p = SystemParams(num_irs=8)
        budget = derive_link_budget(p)
        for l in [*range(1, 9), 4.5]:
            assert math.isfinite(_CLOSED_FORMS[name](p, l, budget))
        assert calls == []

    @pytest.mark.parametrize("name", _CLOSED_FORMS)
    @pytest.mark.parametrize("l", [0, 0.5, 8.5, 9])
    def test_an_index_outside_the_chain_is_checked_once(self, calls, name, l):
        p = SystemParams(num_irs=8)
        with pytest.raises(ValueError, match=f"^active-surface index {l} outside 1..8$"):
            _CLOSED_FORMS[name](p, l, derive_link_budget(p))
        assert calls == [l]


# Reference formulation of the closed forms: every log a sum of field logs, taken
# afresh per call, then each side's terms summed with fsum after factoring out the
# largest.  The library reads the logs from the budget and unrolls the sums; it must
# reproduce these values bit for bit, since sub-ulp differences decide argmax ties
# between adjacent positions.
def _reference_ratio_of_term_sums(log_num_terms, log_den_terms):
    m_num = max(log_num_terms)
    m_den = max(log_den_terms)
    s_num = math.fsum(math.exp(t - m_num) for t in log_num_terms)
    s_den = math.fsum(math.exp(t - m_den) for t in log_den_terms)
    return math.exp(m_num - m_den) * (s_num / s_den)


def _reference_field_logs(p):
    """log kappa_b, kappa_u, c_a, c_t and np_kappa_i, each a sum of field logs; the
    passive relay factor takes log(pirs_elements * sqrt(ref_path_gain)) as one log."""
    def log_kappa(distance):
        return 0.5 * math.log(p.ref_path_gain) - p.path_loss_exponent / 2.0 * math.log(distance)

    log_kappa_b = log_kappa(p.bs_irs_distance)
    log_kappa_u = log_kappa(p.irs_user_distance)
    return {
        "log_kappa_b": log_kappa_b, "log_kappa_u": log_kappa_u,
        "log_c_a": math.log(p.amp_power) + math.log(p.airs_elements) + 2.0 * log_kappa_u,
        "log_c_t": math.log(p.tx_power) + math.log(p.bs_antennas) + 2.0 * log_kappa_b,
        "log_np_kappa_i": (math.log(p.pirs_elements * math.sqrt(p.ref_path_gain))
                           - p.path_loss_exponent / 2.0 * math.log(p.inter_irs_distance)),
    }


def _reference_log_terms(p, budget, airs_index):
    logs = _reference_field_logs(p)  # the budget is not read: the reference derives its own
    return (logs["log_np_kappa_i"], logs["log_c_a"], logs["log_c_t"],
            math.log(p.noise_power), p.num_irs, airs_index)


def _reference_objective(mode, p, budget, l):
    log_npk, log_ca, log_ct, log_s2, j, l = _reference_log_terms(p, budget, l)
    log_signal = log_ca + log_ct + math.log(p.airs_elements) + 2.0 * (j - 1) * log_npk
    log_amp_noise = log_s2 + log_ca + 2.0 * (j - l) * log_npk
    if mode == "wit":
        den_terms = [log_amp_noise, log_s2 + log_ct + 2.0 * (l - 1) * log_npk, 2.0 * log_s2]
        return _reference_ratio_of_term_sums([log_signal], den_terms)
    return _reference_ratio_of_term_sums(
        [log_signal, log_amp_noise], [log_ct + 2.0 * (l - 1) * log_npk, log_s2])


def _seeded_draws(seed, count, max_j, min_np, max_np):
    """Log-uniform J and np, +-20 dB around the default powers."""
    rng = np.random.default_rng(seed)
    base = SystemParams()
    draws = []
    for _ in range(count):
        draws.append(replace(
            base,
            num_irs=int(round(math.exp(rng.uniform(0.0, math.log(max_j))))),
            pirs_elements=int(round(math.exp(rng.uniform(math.log(min_np), math.log(max_np))))),
            pirs_grid=None,
            airs_elements=int(rng.integers(1, 1401)),
            airs_grid=None,
            tx_power=base.tx_power * 10.0 ** rng.uniform(-2, 2),
            amp_power=base.amp_power * 10.0 ** rng.uniform(-2, 2),
            noise_power=base.noise_power * 10.0 ** rng.uniform(-2, 2),
        ))
    return draws


def _bit_identity_configs():
    """The agreement grid plus seeded draws on both sides of np * kappa_i = 1.

    500 draws have J <= 400 and np <= 1400 (np * kappa_i < 1).  300 have
    np from 1500 to 20000 (np * kappa_i from 1.06 to 14) and J <= 60, so
    every objective stays in double range; there the position-dependent
    terms outgrow the noise floor and the largest term of each sum moves
    from one to the other along the chain.
    """
    return (agreement_grid() + _seeded_draws(6, 500, 400, 1, 1400)
            + _seeded_draws(12, 300, 60, 1500, 20000))


class TestBitIdentity:
    def test_budget_logs_are_sums_of_field_logs(self):
        for p in _bit_identity_configs():
            b = derive_link_budget(p)
            want = _reference_field_logs(p)
            assert b.log_c_a.hex() == want["log_c_a"].hex(), p
            assert b.log_c_t.hex() == want["log_c_t"].hex(), p
            assert b.log_np_kappa_i.hex() == want["log_np_kappa_i"].hex(), p
            assert b.log_noise_power == math.log(p.noise_power)
            log_npk, log_ca, log_ct, _, j, _ = _reference_log_terms(p, b, 1)
            want = log_ca + log_ct + math.log(p.airs_elements) + 2.0 * (j - 1) * log_npk
            assert b.log_signal.hex() == want.hex(), p

    def test_draws_cover_both_regimes_and_stay_in_double_range(self):
        draws = _bit_identity_configs()
        assert sum(not derive_link_budget(p).f_decreasing for p in draws) == 300
        for p in draws[-300:]:
            b = derive_link_budget(p)
            for l in range(1, p.num_irs + 1):
                assert math.isfinite(snr_closed(p, l, b)) and math.isfinite(power_closed(p, l, b))

    def test_closed_forms_match_the_reference_bit_for_bit(self):
        for p in _bit_identity_configs():
            b = derive_link_budget(p)
            # every position, and the real middle index (J+1)/2 the gain tests use
            for l in [*range(1, p.num_irs + 1), (p.num_irs + 1) / 2.0]:
                for mode, closed_form in (("wit", snr_closed), ("wpt", power_closed)):
                    got = closed_form(p, l, b)
                    want = _reference_objective(mode, p, b, l)
                    assert got.hex() == want.hex(), (mode, p, l)


def _reference_budget(p):
    """Every LinkBudget field, each log a sum of field logs."""
    logs = _reference_field_logs(p)
    log_noise_power = math.log(p.noise_power)
    return {
        "kappa_i": math.exp(logs["log_np_kappa_i"] - math.log(p.pirs_elements)),
        **{name: logs[name] for name in ("log_kappa_b", "log_kappa_u", "log_c_a", "log_c_t",
                                         "log_np_kappa_i")},
        "log_noise_power": log_noise_power,
        "log_signal": (logs["log_c_a"] + logs["log_c_t"] + math.log(p.airs_elements)
                       + 2.0 * (p.num_irs - 1) * logs["log_np_kappa_i"]),
        "log_noise_c_a": log_noise_power + logs["log_c_a"],
        "log_noise_c_t": log_noise_power + logs["log_c_t"],
        "log_noise_floor": 2.0 * log_noise_power,
    }


class TestBudgetBitIdentity:
    def test_every_budget_field_matches_the_reference_formulas(self):
        for p in _bit_identity_configs():
            b = derive_link_budget(p)
            want = _reference_budget(p)
            assert [f.name for f in fields(b)] == ["kappa_i", "f_decreasing", *list(want)[1:]]
            for name, value in want.items():
                assert getattr(b, name).hex() == value.hex(), (name, p)
            assert b.f_decreasing is (want["log_np_kappa_i"] < 0.0), p


def _reference_partners(p, budget, index):
    """Each power sum's partner: its smaller term's log minus its larger's."""
    log_npk, log_ca, log_ct, log_s2, j, l = _reference_log_terms(p, budget, index)
    signal = log_ca + log_ct + math.log(p.airs_elements) + 2.0 * (j - 1) * log_npk
    amp = log_s2 + log_ca + 2.0 * (j - l) * log_npk
    incident = log_ct + 2.0 * (l - 1) * log_npk
    return min(signal, amp) - max(signal, amp), min(incident, log_s2) - max(incident, log_s2)


def _reference_branch_counts(configs):
    """How often each comparison of the closed forms goes each way.

    Taken from the reference logs at the positions the bit-identity test
    visits: every integer position and the real middle index.  A branch
    no config reaches is a branch the bit-for-bit comparison never checks.
    """
    counts = Counter()
    for p in configs:
        b = derive_link_budget(p)
        for index in [*range(1, p.num_irs + 1), (p.num_irs + 1) / 2.0]:
            log_npk, log_ca, log_ct, log_s2, j, l = _reference_log_terms(p, b, index)
            signal = log_ca + log_ct + math.log(p.airs_elements) + 2.0 * (j - 1) * log_npk
            amp = log_s2 + log_ca + 2.0 * (j - l) * log_npk
            incident = log_ct + 2.0 * (l - 1) * log_npk
            awgn = log_s2 + log_ct + 2.0 * (l - 1) * log_npk
            wit_terms = [amp, awgn, 2.0 * log_s2]
            counts["wpt signal >= amp" if signal >= amp else "wpt signal < amp"] += 1
            counts["wpt incident >= noise" if incident >= log_s2 else "wpt incident < noise"] += 1
            counts["wit max " + ("amp", "awgn", "floor")[wit_terms.index(max(wit_terms))]] += 1
            t, u = _reference_partners(p, b, index)
            cut = metrics_module.NEGLIGIBLE_LOG
            counts["wpt num partner " + ("live" if t > cut else "negligible")] += 1
            counts["wpt den partner " + ("live" if u > cut else "negligible")] += 1
            if t <= cut and u <= cut:
                counts["wpt both partners negligible"] += 1
            if abs(t - cut) <= 1.0 or abs(u - cut) <= 1.0:
                counts["wpt a partner within 1 nat of the cut"] += 1
    return counts


class TestBitIdentityCoverage:
    def test_configs_reach_every_branch_of_the_closed_forms(self):
        # pinned, not just nonzero: the default scenario alone reaches every
        # branch, so a change to the configs must re-derive these on purpose
        assert _reference_branch_counts(_bit_identity_configs()) == {
            "wpt signal >= amp": 15694, "wpt signal < amp": 35536,
            "wpt incident >= noise": 13628, "wpt incident < noise": 37602,
            "wit max amp": 5006, "wit max awgn": 10885, "wit max floor": 35339,
            "wpt num partner live": 21054, "wpt num partner negligible": 30176,
            "wpt den partner live": 20697, "wpt den partner negligible": 30533,
            "wpt both partners negligible": 29845, "wpt a partner within 1 nat of the cut": 672,
        }


# Two properties of the SNR closed form that need no oracle, drawn over J <= 60,
# np 2..1400 and +-20 dB around the default powers.
_DB = st.floats(min_value=-20.0, max_value=20.0)


def _drawn_params(j, n_p, pt_db, pa_db, s2_db, **changes):
    base = SystemParams()
    return replace(base, num_irs=j, pirs_elements=n_p, pirs_grid=None,
                   tx_power=base.tx_power * 10.0 ** (pt_db / 10.0),
                   amp_power=base.amp_power * 10.0 ** (pa_db / 10.0),
                   noise_power=base.noise_power * 10.0 ** (s2_db / 10.0), **changes)


class TestSnrProperties:
    @settings(deadline=None)
    @given(st.integers(1, 60), st.integers(2, 1400), _DB, _DB, _DB, _DB)
    def test_scaling_every_power_by_one_factor_leaves_the_snr(self, j, n_p, pt_db, pa_db,
                                                               s2_db, scale_db):
        p = _drawn_params(j, n_p, pt_db, pa_db, s2_db)
        scale = 10.0 ** (scale_db / 10.0)
        scaled = replace(p, tx_power=p.tx_power * scale, amp_power=p.amp_power * scale,
                         noise_power=p.noise_power * scale)
        for a, b in zip(optimal_index("wit", p, derive_link_budget(p)).objectives,
                        optimal_index("wit", scaled, derive_link_budget(scaled)).objectives,
                        strict=True):
            # below the smallest normal double an SNR keeps fewer than 53 bits, so the
            # 1e-12 relative bound is floored at that edge (seen at J = 57, np = 2)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12 * sys.float_info.min)

    @settings(deadline=None)
    @given(st.integers(1, 60), st.integers(2, 1400), _DB, _DB, _DB,
           st.integers(1, 400), st.floats(min_value=1.0, max_value=100.0))
    def test_swapping_the_two_powers_mirrors_the_snr(self, j, n_p, pt_db, pa_db, s2_db,
                                                      antennas, d_edge):
        # with M = N_a and d_b = d_u, c_t and c_a trade places exactly
        p = _drawn_params(j, n_p, pt_db, pa_db, s2_db, bs_antennas=antennas,
                          airs_elements=antennas, airs_grid=None,
                          bs_irs_distance=d_edge, irs_user_distance=d_edge)
        swapped = replace(p, tx_power=p.amp_power, amp_power=p.tx_power)
        mirrored = optimal_index("wit", swapped, derive_link_budget(swapped)).objectives[::-1]
        assert optimal_index("wit", p, derive_link_budget(p)).objectives == mirrored


# the power's property is drawn wider: J <= 400, np 2..20000 and +-40 dB
_DB40 = st.floats(min_value=-40.0, max_value=40.0)


class TestNegligiblePartner:
    """The power skips its two partner exps when both partners are at most
    ``NEGLIGIBLE_LOG``: there 1.0 + exp(partner) rounds to exactly 1.0."""

    def test_the_cut_is_negligible_beside_one_and_two_nats_above_it_is_not(self):
        cut = metrics_module.NEGLIGIBLE_LOG
        assert 1.0 + math.exp(cut) == 1.0
        assert 1.0 + math.exp(cut + 2.0) > 1.0

    class _CountingMath:
        """``math``, with its exp calls counted."""

        def __init__(self):
            self.exps = 0

        def __getattr__(self, name):
            return getattr(math, name)

        def exp(self, x):
            self.exps += 1
            return math.exp(x)

    # default scenario, J = 20: the partners fall by about 5.3 nats per position
    # from position 4, so position 11 keeps one live (t = -37.6) and 12 has none
    @pytest.mark.parametrize("l, exps", [(3, 3), (4, 3), (11, 3), (12, 1), (20, 1)])
    def test_one_exp_when_both_partners_are_negligible_else_three(self, monkeypatch, l, exps):
        p = SystemParams(num_irs=20)
        budget = derive_link_budget(p)
        want = _reference_objective("wpt", p, budget, l)
        counting = self._CountingMath()
        monkeypatch.setattr(metrics_module, "math", counting)
        assert power_closed(p, l, budget).hex() == want.hex()
        assert counting.exps == exps

    # default scenario: every position has a live partner up to J = 11; at J = 40
    # positions 1..11 make 3 exps and 12..40 make 1
    @pytest.mark.parametrize("num_irs, exps", [(1, 3), (2, 6), (7, 21), (40, 62)])
    def test_a_power_solve_pays_each_position_once(self, monkeypatch, num_irs, exps):
        p = SystemParams(num_irs=num_irs)
        budget = derive_link_budget(p)
        cut = metrics_module.NEGLIGIBLE_LOG
        assert exps == sum(1 if max(_reference_partners(p, budget, l)) <= cut else 3
                           for l in range(1, num_irs + 1))

        def no_call(*args):
            raise AssertionError("a power solve called objective")

        counting = self._CountingMath()
        monkeypatch.setattr(deployment_module, "objective", no_call)
        monkeypatch.setattr(metrics_module, "math", counting)
        optimal_index("wpt", p, budget)
        assert counting.exps == exps

    @settings(deadline=None)
    @given(st.integers(1, 400), st.integers(2, 20000), st.integers(1, 2000),
           _DB40, _DB40, _DB40)
    @example(300, 20000, 1, 0.0, 0.0, 0.0)  # positions 1..161 leave double range, the rest not
    def test_power_matches_the_reference_bit_for_bit(self, j, n_p, airs, pt_db, pa_db, s2_db):
        p = _drawn_params(j, n_p, pt_db, pa_db, s2_db, airs_elements=airs, airs_grid=None)
        budget = derive_link_budget(p)
        wants = []
        for l in [*range(1, j + 1), (j + 1) / 2.0]:
            try:
                want = _reference_objective("wpt", p, budget, l)
            except OverflowError:  # out of double range: the library must refuse it too
                want = math.inf
            if want == math.inf:
                with pytest.raises(ValueError, match="out of double range") as refused:
                    power_closed(p, l, budget)
                out_of_range = str(refused.value)
            else:
                assert power_closed(p, l, budget).hex() == want.hex(), l
            wants.append(want)
        # the solve: the same bits at every position, or, when any position leaves
        # double range, the same error
        if math.inf in wants[:j]:
            with pytest.raises(ValueError) as refused:
                optimal_index("wpt", p, budget)
            assert str(refused.value) == out_of_range
        else:
            got = optimal_index("wpt", p, budget).objectives
            assert [v.hex() for v in got] == [v.hex() for v in wants[:j]]
