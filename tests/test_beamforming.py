import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from irschain.beamforming import (
    amplification_factor,
    optimal_configuration,
    optimal_transmit_beam,
)
from irschain.channel import (
    PhaseConfig,
    full_snr,
    random_geometry,
    upa_response,
)
from irschain.metrics import power_closed, snr_closed
from irschain.params import SystemParams, derive_link_budget, out_of_range_message
from reference import (
    chain_geometry,
    check_power_constraint,
    cophasing_phases,
    hop_responses,
    incident_element_power,
    reflection_coefficient_sum,
)


def unit_vector(rng, n):
    return np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def panel_response_pairs(n, seed, count=10):
    """(arrive, depart) planar-array responses of an n-element panel at random angles."""
    p = SystemParams(pirs_elements=n)
    nx, nz = p.pirs_grid
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield tuple(upa_response(rng.uniform(0, 2 * np.pi), rng.uniform(0.1, 3.0),
                                 nx, nz, p.element_spacing, p.wavelength) for _ in range(2))


def chain_surfaces(n, seed):
    """(arrive, depart, phasors from ``optimal_configuration``) of every surface of a
    random three-surface chain of n-element panels, surface 2 active."""
    p = SystemParams(num_irs=3, pirs_elements=n, airs_elements=n)
    geom = random_geometry(p, np.random.default_rng(seed))
    hops = hop_responses(geom, p, 2)
    phases, _ = optimal_configuration(2, geom, p, derive_link_budget(p))
    for k, reflection in enumerate(phases.reflection, start=1):
        yield hops[k - 1][0], hops[k][1], reflection


def angle_round_trip(arrive, depart):
    """e^{j theta} with theta = mod(-arg(arrive * conj(depart)), 2 pi), via the angle."""
    return np.exp(1j * np.mod(-np.angle(arrive * depart.conj()), 2 * np.pi))


class TestTransmitBeam:
    def test_single_antenna(self):
        w = optimal_transmit_beam(np.array([1.0 + 0j]), tx_power=2.0)
        np.testing.assert_allclose(w, [math.sqrt(2.0)])

    def test_matched_gain_equals_antenna_count(self):
        rng = np.random.default_rng(0)
        h = unit_vector(rng, 10)
        w = optimal_transmit_beam(h, tx_power=1.0)
        assert abs(h.conj() @ w) ** 2 == pytest.approx(10.0, rel=1e-12)

    def test_power_normalization(self):
        rng = np.random.default_rng(1)
        w = optimal_transmit_beam(unit_vector(rng, 16), tx_power=0.37)
        assert float(np.linalg.norm(w) ** 2) == pytest.approx(0.37, rel=1e-12)

    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(2)
        h = unit_vector(rng, 8)
        rotated = h * np.exp(1j * 0.9)
        g1 = abs(h.conj() @ optimal_transmit_beam(h, 1.0)) ** 2
        g2 = abs(rotated.conj() @ optimal_transmit_beam(rotated, 1.0)) ** 2
        assert g1 == pytest.approx(g2, rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            optimal_transmit_beam(np.zeros(4, dtype=complex), 1.0)


class TestReflectionPhases:
    """The co-phasing rule depart * conj(arrive), through the reference one-liner and,
    where a chain is at hand, through the phasors ``optimal_configuration`` returns."""

    def test_aligned_responses_need_no_phase(self):
        ones = np.ones(5, dtype=complex)
        reflection = cophasing_phases(ones, ones)
        np.testing.assert_allclose(np.angle(reflection), 0.0)
        assert reflection_coefficient_sum(ones, ones, reflection) == pytest.approx(5.0)

    def test_random_responses_cophase_to_element_count(self):
        rng = np.random.default_rng(3)
        arrive, depart = unit_vector(rng, 64), unit_vector(rng, 64)
        reflection = cophasing_phases(arrive, depart)
        coeff = reflection_coefficient_sum(arrive, depart, reflection)
        assert abs(coeff) == pytest.approx(64.0, rel=1e-10)

    def test_single_element(self):
        rng = np.random.default_rng(4)
        arrive, depart = unit_vector(rng, 1), unit_vector(rng, 1)
        reflection = cophasing_phases(arrive, depart)
        coeff = reflection_coefficient_sum(arrive, depart, reflection)
        assert abs(coeff) == pytest.approx(1.0)
        for arrive, depart, reflection in chain_surfaces(1, seed=4):
            coeff = reflection_coefficient_sum(arrive, depart, reflection)
            assert reflection.shape == (1,) and abs(coeff) == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cophasing_phases(np.ones(3), np.ones(4))

    def test_unit_modulus(self):
        rng = np.random.default_rng(5)
        reflection = cophasing_phases(unit_vector(rng, 200), unit_vector(rng, 200))
        assert np.all(np.abs(np.abs(reflection) - 1.0) <= 4 * np.finfo(float).eps)
        for _, _, reflection in chain_surfaces(200, seed=5):
            assert np.all(np.abs(np.abs(reflection) - 1.0) <= 4 * np.finfo(float).eps)

    @given(st.lists(st.floats(min_value=0.0, max_value=math.tau), min_size=1, max_size=40),
           st.lists(st.floats(min_value=0.0, max_value=math.tau), min_size=1, max_size=40))
    def test_cophasing_for_arbitrary_unit_responses(self, in_phases, out_phases):
        n = min(len(in_phases), len(out_phases))
        arrive = np.exp(1j * np.array(in_phases[:n]))
        depart = np.exp(1j * np.array(out_phases[:n]))
        reflection = cophasing_phases(arrive, depart)
        coeff = reflection_coefficient_sum(arrive, depart, reflection)
        assert abs(coeff) == pytest.approx(float(n), rel=1e-10)

    def test_cophasing_for_panel_responses(self):
        # steering-vector pairs with arbitrary angles, like the cascade uses
        p = SystemParams()
        rng = np.random.default_rng(6)
        for _ in range(10):
            arrive = upa_response(rng.uniform(0, 2 * np.pi), rng.uniform(0.1, 3.0),
                                  10, 10, p.element_spacing, p.wavelength)
            depart = upa_response(rng.uniform(0, 2 * np.pi), rng.uniform(0.1, 3.0),
                                  10, 10, p.element_spacing, p.wavelength)
            reflection = cophasing_phases(arrive, depart)
            coeff = reflection_coefficient_sum(arrive, depart, reflection)
            assert abs(coeff) == pytest.approx(100.0, rel=1e-10)
        for arrive, depart, reflection in chain_surfaces(100, seed=6):
            coeff = reflection_coefficient_sum(arrive, depart, reflection)
            assert abs(coeff) == pytest.approx(100.0, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 100, 1024, 2048])
    def test_matches_the_angle_round_trip(self, n):
        for arrive, depart in panel_response_pairs(n, seed=n):
            np.testing.assert_allclose(cophasing_phases(arrive, depart),
                                       angle_round_trip(arrive, depart), rtol=0.0, atol=2e-15)
        # the beamformer's conj(w_k) is built from the arrival minus the departure
        # arguments, so it rounds apart from the product of the two responses
        for arrive, depart, reflection in chain_surfaces(n, seed=n):
            np.testing.assert_allclose(reflection, angle_round_trip(arrive, depart),
                                       rtol=0.0, atol=1e-12)

    def test_cophasing_at_full_panel_size(self):
        for arrive, depart in panel_response_pairs(2048, seed=8):
            coeff = reflection_coefficient_sum(arrive, depart,
                                               cophasing_phases(arrive, depart))
            assert abs(abs(coeff) / 2048 - 1.0) <= 1e-13
        for arrive, depart, reflection in chain_surfaces(2048, seed=8):
            coeff = reflection_coefficient_sum(arrive, depart, reflection)
            assert abs(abs(coeff) / 2048 - 1.0) <= 1e-13


class TestAmplificationFactor:
    def setup_method(self):
        self.p = SystemParams()
        self.budget = derive_link_budget(self.p)

    def test_first_position_formula(self):
        eta = amplification_factor(1, self.budget, self.p)
        expected = math.sqrt(self.p.amp_power
                             / (math.exp(self.budget.log_c_t) + self.p.noise_power))
        assert eta == pytest.approx(expected, rel=1e-12)

    def test_vanishing_incident_power_limit(self):
        # far position with tiny panels: incident signal far below the noise
        p = SystemParams(pirs_elements=2)
        budget = derive_link_budget(p)
        eta = amplification_factor(7, budget, p)
        assert eta == pytest.approx(math.sqrt(p.amp_power / p.noise_power), rel=1e-6)

    # J = 400, np = 20000: np * kappa_i ~ 14, so the incident power c_t * x**(2(l-1))
    # leaves double range from l = 199, where the linear gain raised OverflowError; from
    # l = 299 the gain itself underflows to 0.0
    @pytest.mark.parametrize("l", [1, 199, 200, 250, 400])
    def test_long_chain_gain_comes_from_logs(self, l):
        p = SystemParams(num_irs=400, pirs_elements=20000)
        budget = derive_link_budget(p)
        with mpmath.workdps(50):
            log_incident = (mpmath.mpf(budget.log_c_t)
                            + 2 * (l - 1) * mpmath.mpf(budget.log_np_kappa_i))
            want = float(mpmath.sqrt(p.amp_power / (mpmath.exp(log_incident) + p.noise_power)))
        assert amplification_factor(l, budget, p) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_gain_past_double_range_names_its_fields(self):
        # eta**2 = 1e308 W over a subnormal noise power, ~1e627, once the incident power
        # is below the noise: the gain itself leaves double range (it was inf), while
        # the closed-form objectives stay finite, so the error names the gain
        p = SystemParams(num_irs=2, pirs_elements=4, amp_power=1e308, noise_power=5e-320,
                         tx_power=1e-300)
        budget = derive_link_budget(p)
        assert 1e306 < amplification_factor(1, budget, p) < math.inf
        assert math.isfinite(power_closed(p, 2, budget))
        assert math.isfinite(snr_closed(p, 2, budget))
        with pytest.raises(ValueError) as info:
            amplification_factor(2, budget, p)
        assert str(info.value) == out_of_range_message(p, "eta")
        assert str(info.value).startswith("amp_power = 1e+308, noise_power = ")
        assert str(info.value).endswith(" put the amplifier gain eta out of double range")

    def test_closed_form_matches_matrix_incident_power(self):
        geom = chain_geometry(self.p)
        for l in (1, 4, 7):
            phases, beam = optimal_configuration(l, geom, self.p, self.budget)
            incident = incident_element_power(l, geom, phases, beam, self.p)
            direct = math.sqrt(self.p.amp_power / (incident + self.p.noise_power))
            assert amplification_factor(l, self.budget, self.p) == pytest.approx(
                direct, rel=1e-8)


class TestPowerConstraint:
    def setup_method(self):
        self.p = SystemParams()
        self.budget = derive_link_budget(self.p)
        self.geom = chain_geometry(self.p)

    def test_optimum_sits_on_the_boundary(self):
        phases, beam = optimal_configuration(4, self.geom, self.p, self.budget)
        incident = incident_element_power(4, self.geom, phases, beam, self.p)
        ok, slack = check_power_constraint(phases.eta, incident,
                                           self.p.noise_power, self.p.amp_power)
        assert ok
        assert abs(slack) <= 1e-12 * self.p.amp_power

    def test_zero_gain_is_feasible_with_full_slack(self):
        ok, slack = check_power_constraint(0.0, 0.123, self.p.noise_power, self.p.amp_power)
        assert ok
        assert slack == pytest.approx(self.p.amp_power)

    def test_doubled_gain_violates(self):
        phases, beam = optimal_configuration(4, self.geom, self.p, self.budget)
        incident = incident_element_power(4, self.geom, phases, beam, self.p)
        ok, slack = check_power_constraint(2 * phases.eta, incident,
                                           self.p.noise_power, self.p.amp_power)
        assert not ok
        assert slack < 0

    def test_snr_non_decreasing_up_to_boundary(self):
        phases, beam = optimal_configuration(4, self.geom, self.p, self.budget)
        values = [full_snr(4, self.geom,
                           PhaseConfig(reflection=phases.reflection, eta=phases.eta * frac),
                           beam, self.p)
                  for frac in (0.25, 0.5, 0.9, 1.0)]
        assert values == sorted(values)
