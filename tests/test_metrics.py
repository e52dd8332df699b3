from dataclasses import replace

import numpy as np
import pytest

from irschain.beamforming import optimal_configuration
from irschain.channel import (
    chain_geometry,
    effective_channels,
    full_power,
    full_snr,
    random_geometry,
)
from irschain.metrics import (
    objective,
    power_closed,
    power_scaling_order,
    snr_closed,
    snr_scaling_order,
)
from irschain.params import SystemParams, derive_link_budget

# f(4) at the default scenario with 100-element passive panels,
# frozen from kappa_b**2 * (100 * kappa_i)**6 computed directly
F_AT_4 = 3.9434834030012126e-13


def effective_gain(airs_index, p, budget):
    """Transmitter-to-active-surface power gain f(l) from the vector cascade.

    Under the optimal beam and co-phasing every active element sees
    tx_power * bs_antennas * f(l), so f(l) = ||h_in||^2 / (Na * Pt * M).
    """
    geom = chain_geometry(p)
    phases, beam = optimal_configuration(airs_index, geom, p, budget)
    h_in, _ = effective_channels(airs_index, geom, phases, beam, p)
    return float(np.sum(np.abs(h_in) ** 2)) / (
        p.airs_elements * p.tx_power * p.bs_antennas)


class TestEffectiveGain:
    def setup_method(self):
        self.p = SystemParams()
        self.budget = derive_link_budget(self.p)

    def test_first_index_is_first_hop_gain(self):
        assert effective_gain(1, self.p, self.budget) == pytest.approx(
            self.budget.kappa_b**2, rel=1e-12)

    def test_unit_relay_factor_makes_gain_flat(self):
        # kappa_i = 1/100 exactly, so 100-element panels sit on the boundary
        p = SystemParams(ref_path_gain=1.0, inter_irs_distance=100.0, pirs_elements=100)
        budget = derive_link_budget(p)
        assert budget.np_kappa_i == pytest.approx(1.0, rel=1e-15)
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
        expected = (b.c_a * b.c_t * p.airs_elements
                    / (p.noise_power * (b.c_a + b.c_t + p.noise_power)))
        assert snr_closed(p, 1, b) == pytest.approx(expected, rel=1e-12)

    def test_interior_maximum_at_default_scenario(self):
        gamma = {l: snr_closed(self.p, l, self.budget) for l in (4, 5, 6)}
        assert gamma[5] > gamma[4]
        assert gamma[5] > gamma[6]

    def test_monotone_in_panel_size(self):
        values = []
        for n_p in (25, 50, 100, 200, 400):
            p = replace(self.p, pirs_elements=n_p, pirs_grid=None)
            values.append(snr_closed(p, 4))
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
            limit = (b.c_a * quiet.airs_elements
                     * b.np_kappa_i ** (2 * (quiet.num_irs - l)))
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
            objective("both", SystemParams(), 1)
