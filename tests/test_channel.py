import math
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irschain import channel
from irschain.beamforming import optimal_configuration, optimal_transmit_beam
from irschain.channel import (
    TWO_PI,
    HopGeometry,
    PhaseConfig,
    full_power,
    full_snr,
    hop_matrices,
    random_geometry,
    surface_weights,
    upa_response,
)
from irschain.metrics import power_closed, snr_closed
from irschain.params import SystemParams, amplitude_gain, derive_link_budget
from reference import chain_geometry, cophasing_phases, hop_responses, incident_element_power


def _steering(varsigma, length):
    """One row [exp(-j*pi*m*varsigma)], m = 0..length-1, of the stacked exp pass."""
    return channel._steering_rows([varsigma], length)[0]


class TestSteeringRows:
    def test_zero_gradient_is_all_ones(self):
        np.testing.assert_allclose(_steering(0.0, 4), np.ones(4))

    def test_half_turn_alternates_sign(self):
        np.testing.assert_allclose(_steering(1.0, 2), [1.0, -1.0], atol=1e-15)

    def test_quarter_turn_by_hand(self):
        np.testing.assert_allclose(_steering(0.5, 3), [1.0, -1.0j, -1.0], atol=1e-15)

    def test_unit_modulus(self):
        vec = _steering(0.73, 33)
        np.testing.assert_allclose(np.abs(vec), 1.0, atol=1e-14)

    def test_empty_linear_array_rejected(self):
        with pytest.raises(ValueError):
            upa_response(0.3, math.pi / 2.0, 0, 1, 0.5, 1.0)


class TestUpaResponse:
    def test_broadside_is_all_ones(self):
        vec = upa_response(math.pi / 2, math.pi / 2, 3, 5, 0.5, 1.0)
        np.testing.assert_allclose(vec, np.ones(15), atol=1e-12)

    def test_row_reduces_to_linear_array(self):
        # x-argument cos(0)*sin(pi/2) = 1 with half-wavelength spacing
        vec = upa_response(0.0, math.pi / 2, 2, 1, 0.5, 1.0)
        np.testing.assert_allclose(vec, [1.0, -1.0], atol=1e-12)

    def test_kron_dimension(self):
        assert upa_response(0.3, 1.1, 3, 4, 0.5, 1.0).shape == (12,)

    def test_unit_modulus_everywhere(self):
        vec = upa_response(1.2, 0.4, 6, 7, 0.43, 0.9)
        np.testing.assert_allclose(np.abs(vec), 1.0, atol=1e-14)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            upa_response(0.1, 0.2, 0, 4, 0.5, 1.0)

    @pytest.mark.parametrize("nx, nz", [(1, 1), (1, 9), (9, 1), (3, 5), (16, 12)])
    def test_bit_identical_to_kron(self, nx, nz):
        rng = np.random.default_rng(nx * 100 + nz)
        for _ in range(5):
            azimuth, elevation = rng.uniform(0.0, 2 * math.pi), rng.uniform(0.1, 3.0)
            spacing, wavelength = rng.uniform(0.2, 0.6), rng.uniform(0.5, 1.5)
            two_d = 2.0 * spacing / wavelength
            expected = np.kron(
                _scalar_steering_vector(two_d * math.cos(azimuth) * math.sin(elevation), nx),
                _scalar_steering_vector(two_d * math.cos(elevation), nz),
            )
            vec = upa_response(azimuth, elevation, nx, nz, spacing, wavelength)
            assert np.array_equal(vec, expected)

    @pytest.mark.parametrize("length", [1, 2, 33, 64])
    def test_steering_rows_bit_identical_to_scalar_formula(self, length):
        rng = np.random.default_rng(length)
        varsigmas = rng.uniform(-2.0, 2.0, 20).tolist()
        rows = channel._steering_rows(varsigmas, length)
        for varsigma, row in zip(varsigmas, rows):
            want = _scalar_steering_vector(varsigma, length)
            np.testing.assert_array_equal(_steering(varsigma, length), want)
            np.testing.assert_array_equal(row, want)

    @pytest.mark.parametrize("length", [1, 2, 10, 33, 64])
    def test_linear_array_bit_identical_to_scalar_formula(self, length):
        # a panel one row high at elevation pi/2: sin(pi/2) == 1.0 and the z row is 1
        rng = np.random.default_rng(100 + length)
        for _ in range(20):
            azimuth = rng.uniform(0.0, 2 * math.pi)
            spacing, wavelength = rng.uniform(0.2, 0.6), rng.uniform(0.5, 1.5)
            want = _scalar_steering_vector(2.0 * spacing / wavelength * math.cos(azimuth),
                                           length)
            vec = upa_response(azimuth, math.pi / 2.0, length, 1, spacing, wavelength)
            assert np.array_equal(vec, want)


def _scalar_steering_vector(varsigma, length):
    """Reference: one steering vector from scalar arithmetic, no stacking."""
    return np.exp(-1j * math.pi * varsigma * np.arange(length))


class TestLosChannel:
    """The dense hop matrices of ``hop_matrices``; the first four checks read the
    inter-surface hop from a 10 x 15 active surface to a 10 x 10 passive one."""

    def setup_method(self):
        self.p = SystemParams(num_irs=2)
        self.hop = HopGeometry(distance=10.0, dep_azimuth=0.3, dep_elevation=1.2,
                               arr_azimuth=2.1, arr_elevation=1.7)
        self.geom = chain_geometry(self.p)
        self.geom[1] = self.hop

    def _inter_surface_hop(self, p):
        return hop_matrices(self.geom, p, airs_index=1)[1]

    def test_entry_modulus_is_hop_gain(self):
        mat = self._inter_surface_hop(self.p)
        gain = math.sqrt(self.p.ref_path_gain) / self.hop.distance
        np.testing.assert_allclose(np.abs(mat), gain, rtol=1e-12)

    def test_rank_one(self):
        mat = self._inter_surface_hop(self.p)
        singular = np.linalg.svd(mat, compute_uv=False)
        assert singular[1] < 1e-10 * singular[0]

    def test_largest_singular_value(self):
        mat = self._inter_surface_hop(self.p)
        assert mat.shape == (self.p.pirs_elements, self.p.airs_elements)
        gain = math.sqrt(self.p.ref_path_gain) / self.hop.distance
        top = np.linalg.svd(mat, compute_uv=False)[0]
        assert top == pytest.approx(gain * math.sqrt(mat.shape[0] * mat.shape[1]), rel=1e-12)

    def test_unit_reference(self):
        self.geom[1] = HopGeometry(distance=1.0, dep_azimuth=0.2)
        mat = self._inter_surface_hop(replace(self.p, ref_path_gain=1.0, path_loss_exponent=2.0))
        np.testing.assert_allclose(np.abs(mat), 1.0, rtol=1e-12)

    def test_single_antenna_transmitter(self):
        p = SystemParams(bs_antennas=1)
        geom = chain_geometry(p)
        mats = hop_matrices(geom, p, airs_index=3)
        assert mats[0].shape == (p.pirs_elements, 1)
        np.testing.assert_allclose(np.abs(mats[0]), math.exp(derive_link_budget(p).log_kappa_b),
                                   rtol=1e-12)

    def test_every_hop_matrix_is_rank_one(self):
        p = SystemParams(num_irs=4, pirs_elements=36, airs_elements=25)
        geom = random_geometry(p, np.random.default_rng(3))
        for mat in hop_matrices(geom, p, airs_index=2):
            singular = np.linalg.svd(mat, compute_uv=False)
            if singular.size > 1:
                assert singular[1] < 1e-10 * singular[0]


class TestEffectiveChannels:
    """The channels into and out of the active surface, seen through the oracle."""

    def setup_method(self):
        self.p = SystemParams()
        self.geom = chain_geometry(self.p)
        self.budget = derive_link_budget(self.p)

    def test_first_position_forward_is_single_hop(self):
        phases, beam = optimal_configuration(1, self.geom, self.p, self.budget)
        mats = hop_matrices(self.geom, self.p, 1)
        np.testing.assert_allclose(incident_element_power(1, self.geom, phases, beam, self.p),
                                   np.abs(mats[0] @ beam) ** 2, rtol=1e-12)

    def test_last_position_backward_is_user_hop(self):
        l = self.p.num_irs
        phases, beam = optimal_configuration(l, self.geom, self.p, self.budget)
        mats = hop_matrices(self.geom, self.p, l)
        # with no signal the received power is eta^2 * ||h_out||^2 * sigma^2
        expected = phases.eta**2 * float(np.sum(np.abs(mats[-1][0]) ** 2)) * self.p.noise_power
        zero = np.zeros_like(beam)
        assert full_power(l, self.geom, phases, zero, self.p) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("l", [1, 2, 4, 7])
    def test_forward_norm_closed_form(self, l):
        phases, beam = optimal_configuration(l, self.geom, self.p, self.budget)
        # the field on the active surface has N_a equal-power elements
        forward_norm = self.p.airs_elements * incident_element_power(
            l, self.geom, phases, beam, self.p)
        b = self.budget
        expected = (self.p.airs_elements * math.exp(2 * b.log_kappa_b) * b.kappa_i ** (2 * (l - 1))
                    * self.p.tx_power * self.p.bs_antennas
                    * self.p.pirs_elements ** (2 * (l - 1)))
        assert forward_norm == pytest.approx(expected, rel=1e-10)

    def test_index_out_of_range(self):
        phases, beam = optimal_configuration(2, self.geom, self.p, self.budget)
        for l in (0, self.p.num_irs + 1):
            for oracle in (full_snr, full_power, incident_element_power, _dense_cascade):
                with pytest.raises(ValueError):
                    oracle(l, self.geom, phases, beam, self.p)

    def test_zero_beam_gives_zero_signal(self):
        phases, beam = optimal_configuration(4, self.geom, self.p, self.budget)
        zero = np.zeros_like(beam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert full_snr(4, self.geom, phases, zero, self.p) == 0.0
            assert incident_element_power(4, self.geom, phases, zero, self.p) == 0.0
            power = full_power(4, self.geom, phases, zero, self.p)
        assert 0.0 < power < full_power(4, self.geom, phases, beam, self.p)
        assert math.isfinite(power)


class TestFullSnr:
    def setup_method(self):
        self.p = SystemParams()
        self.geom = chain_geometry(self.p)
        self.budget = derive_link_budget(self.p)

    def test_zero_amplification_gives_zero_snr(self):
        phases, beam = optimal_configuration(4, self.geom, self.p, self.budget)
        off = PhaseConfig(reflection=phases.reflection, eta=0.0)
        assert full_snr(4, self.geom, off, beam, self.p) == 0.0

    @pytest.mark.parametrize("l", [1, 2, 5, 7])
    def test_matches_closed_form(self, l):
        phases, beam = optimal_configuration(l, self.geom, self.p, self.budget)
        matrix_value = full_snr(l, self.geom, phases, beam, self.p)
        assert matrix_value == pytest.approx(snr_closed(self.p, l, self.budget), rel=1e-8)

    def test_more_transmit_power_helps(self):
        boosted = replace(self.p, tx_power=4.0)
        lo_phases, lo_beam = optimal_configuration(4, self.geom, self.p, self.budget)
        hi_phases, hi_beam = optimal_configuration(4, self.geom, boosted,
                                                   derive_link_budget(boosted))
        lo = full_snr(4, self.geom, lo_phases, lo_beam, self.p)
        hi = full_snr(4, self.geom, hi_phases, hi_beam, boosted)
        assert hi > lo

    def test_invariant_under_random_angles(self):
        rng = np.random.default_rng(11)
        values = []
        for _ in range(6):
            geom = random_geometry(self.p, rng)
            phases, beam = optimal_configuration(4, geom, self.p, self.budget)
            values.append(full_snr(4, geom, phases, beam, self.p))
        assert (max(values) - min(values)) <= 1e-8 * min(values)


class TestFullPower:
    def setup_method(self):
        self.p = SystemParams()
        self.geom = chain_geometry(self.p)
        self.budget = derive_link_budget(self.p)

    def test_noiseless_reduction(self):
        phases, beam = optimal_configuration(5, self.geom, self.p, self.budget)
        silent = replace(self.p, noise_power=0.0)
        # with no noise the received power is the dense cascade's signal alone
        expected = _dense_cascade(5, self.geom, phases, beam, self.p)["signal"]
        assert full_power(5, self.geom, phases, beam, silent) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("l", [1, 3, 6, 7])
    def test_matches_closed_form(self, l):
        phases, beam = optimal_configuration(l, self.geom, self.p, self.budget)
        matrix_value = full_power(l, self.geom, phases, beam, self.p)
        assert matrix_value == pytest.approx(power_closed(self.p, l, self.budget), rel=1e-8)

    def test_final_position_beats_first(self):
        first_ph, first_beam = optimal_configuration(1, self.geom, self.p, self.budget)
        last_ph, last_beam = optimal_configuration(7, self.geom, self.p, self.budget)
        assert (full_power(7, self.geom, last_ph, last_beam, self.p)
                > full_power(1, self.geom, first_ph, first_beam, self.p))

    def test_invariant_under_random_angles(self):
        rng = np.random.default_rng(12)
        values = []
        for _ in range(6):
            geom = random_geometry(self.p, rng)
            phases, beam = optimal_configuration(6, geom, self.p, self.budget)
            values.append(full_power(6, geom, phases, beam, self.p))
        assert (max(values) - min(values)) <= 1e-8 * min(values)


class TestGeometryHelpers:
    def test_chain_geometry_hop_count_and_distances(self):
        p = SystemParams(num_irs=5)
        geom = chain_geometry(p)
        assert len(geom) == 6
        assert [h.distance for h in geom] == p.hop_distances()

    def test_random_geometry_respects_distances(self):
        p = SystemParams(num_irs=3)
        geom = random_geometry(p, np.random.default_rng(0))
        assert [h.distance for h in geom] == p.hop_distances()

    def test_wrong_hop_count_rejected(self):
        p = SystemParams()
        geom = chain_geometry(p)[:-1]
        with pytest.raises(ValueError):
            hop_matrices(geom, p, 1)

    @pytest.mark.parametrize("num_irs", [1, 2, 7, 40])
    def test_random_geometry_consumes_the_stream_like_scalar_draws(self, num_irs):
        p = SystemParams(num_irs=num_irs)
        for seed in range(200):
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert random_geometry(p, rng) == _scalar_random_geometry(p, reference_rng)
            assert rng.random() == reference_rng.random()


# repr of HopGeometry(*HOP_FIELDS), frozen from the dataclass-generated constructor's record
HOP_REPR = ("HopGeometry(distance=4.0, dep_azimuth=0.175, dep_elevation=1.7207963267948965, "
            "arr_azimuth=2.9665926535897933, arr_elevation=1.4207963267948966)")
HOP_FIELDS = (4.0, 0.175, 1.7207963267948965, 2.9665926535897933, 1.4207963267948966)
HOP_NAMES = ("distance", "dep_azimuth", "dep_elevation", "arr_azimuth", "arr_elevation")


class TestHopGeometryRecord:
    """The written-out constructor keeps the frozen dataclass behaviour."""

    @pytest.mark.parametrize("name", HOP_NAMES)
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        hop = HopGeometry(*HOP_FIELDS)
        with pytest.raises(FrozenInstanceError):
            setattr(hop, name, 1.0)
        with pytest.raises(FrozenInstanceError):
            delattr(hop, name)
        assert repr(hop) == HOP_REPR

    def test_equal_fields_give_equal_records_and_the_tuple_hash(self):
        first, second = HopGeometry(*HOP_FIELDS), HopGeometry(*HOP_FIELDS)
        assert first is not second
        assert first == second and hash(first) == hash(second) == hash(HOP_FIELDS)
        assert first != HopGeometry(*HOP_FIELDS[:4], 1.5)
        assert first != HOP_FIELDS  # a record never equals a plain tuple

    def test_repr_is_unchanged(self):
        assert repr(HopGeometry(*HOP_FIELDS)) == HOP_REPR
        assert repr(chain_geometry(SystemParams(num_irs=1))[0]) == HOP_REPR

    def test_replace_and_defaults(self):
        hop = HopGeometry(10.0, 0.5)
        assert (hop.dep_elevation, hop.arr_azimuth, hop.arr_elevation) == (
            math.pi / 2.0, 0.0, math.pi / 2.0)
        moved = replace(HopGeometry(*HOP_FIELDS), distance=9.0, arr_azimuth=0.25)
        assert moved == HopGeometry(9.0, *HOP_FIELDS[1:3], 0.25, HOP_FIELDS[4])
        assert replace(hop) == hop and replace(hop) is not hop

    def test_positional_and_keyword_construction(self):
        hop = HopGeometry(*HOP_FIELDS)
        assert HopGeometry(**dict(zip(HOP_NAMES, HOP_FIELDS))) == hop
        assert HopGeometry(4.0, 0.175, arr_elevation=HOP_FIELDS[4],
                           dep_elevation=HOP_FIELDS[2], arr_azimuth=HOP_FIELDS[3]) == hop
        assert vars(hop) == dict(zip(HOP_NAMES, HOP_FIELDS))

    def test_missing_or_unknown_argument_raises_type_error(self):
        with pytest.raises(TypeError):
            HopGeometry(4.0)  # dep_azimuth is required
        with pytest.raises(TypeError):
            HopGeometry(dep_azimuth=0.1)  # so is distance
        with pytest.raises(TypeError):
            HopGeometry(4.0, 0.1, azimuth=0.2)
        with pytest.raises(TypeError):
            HopGeometry(*HOP_FIELDS, 0.0)  # one positional too many


def _scalar_random_geometry(p, rng):
    """Reference: one scalar draw per angle, in hop order."""
    return [HopGeometry(
        distance=dist,
        dep_azimuth=rng.uniform(0.0, TWO_PI),
        dep_elevation=rng.uniform(0.1, math.pi - 0.1),
        arr_azimuth=rng.uniform(0.0, TWO_PI),
        arr_elevation=rng.uniform(0.1, math.pi - 0.1),
    ) for dist in p.hop_distances()]


_PANEL_TABLE = [
    (1, 100, 150),     # one surface, active at the only index
    (7, 100, 150),
    (7, 1024, 150),
    (7, 2048, 150),
    (5, 97, 31),       # prime counts: 1 x N panels
    (3, 2, 1),         # a one-element active surface
    (7, 100, 100),     # the active grid equals the passive one: a single block
    (1, 1024, 2048),   # a full-size one-surface chain: no passive block
]


def _assert_matrices_from_responses(geom, p, l):
    """Every hop_matrices entry equals gain * phase * outer(rx, conj(tx)) of the
    reference responses, bit for bit; each matrix is dropped once compared."""
    mats = hop_matrices(geom, p, l)
    hops = hop_responses(geom, p, l)
    assert len(mats) == len(hops) == len(geom)
    for hop, (rx, tx) in zip(geom, hops):
        want = (amplitude_gain(hop.distance, p.ref_path_gain, p.path_loss_exponent)
                * np.exp(-1j * TWO_PI * hop.distance / p.wavelength) * np.outer(rx, tx.conj()))
        mat = mats.pop(0)
        assert mat.shape == want.shape and mat.dtype == want.dtype
        assert np.array_equal(mat, want)


def _direct_weights(geom, p, l):
    """Reference: each surface's w_k from its own pair of steering vectors, taken at
    the arrival minus the departure arguments, and the BS transmit response."""
    two_d = 2.0 * p.element_spacing / p.wavelength
    weights = []
    for k in range(1, p.num_irs + 1):
        arr, dep = geom[k - 1], geom[k]
        nx, nz = p.grid_at(k, l)
        dx = (two_d * math.cos(arr.arr_azimuth) * math.sin(arr.arr_elevation)
              - two_d * math.cos(dep.dep_azimuth) * math.sin(dep.dep_elevation))
        dz = two_d * math.cos(arr.arr_elevation) - two_d * math.cos(dep.dep_elevation)
        weights.append(np.outer(_steering(dx, nx), _steering(dz, nz)).ravel())
    bs_tx = upa_response(geom[0].dep_azimuth, math.pi / 2.0, p.bs_antennas, 1,
                         p.element_spacing, p.wavelength)
    return weights, bs_tx


def _assert_same_weights(got, want):
    (weights, bs_tx, _), (want_weights, want_bs_tx) = got, want
    assert len(weights) == len(want_weights)
    for w, want_w in zip(weights, want_weights):
        np.testing.assert_array_equal(w, want_w)
    np.testing.assert_array_equal(bs_tx, want_bs_tx)


class TestHopResponseMemo:
    """The per-chain memo behind every oracle check: the surface weights
    w_k = conj(depart_k) * arrive_k, the BS transmit response and the log hop gains."""

    def setup_method(self):
        self.p = SystemParams(num_irs=3, airs_elements=20, pirs_elements=12, pirs_grid=(3, 4))
        self.geom = random_geometry(self.p, np.random.default_rng(41))

    def test_returned_arrays_refuse_writes(self):
        weights, bs_tx, _ = surface_weights(self.geom, self.p, 2)
        for array in (*weights, bs_tx):
            with pytest.raises(ValueError):
                array[0] = 0.0
            # the arrays they view are read-only too, so the flag cannot be switched back
            with pytest.raises(ValueError):
                array.flags.writeable = True
        _assert_same_weights(surface_weights(self.geom, self.p, 2),
                             _direct_weights(self.geom, self.p, 2))

    def test_equal_valued_inputs_give_equal_responses(self):
        first = surface_weights(self.geom, self.p, 2)
        geom = [replace(hop) for hop in self.geom]
        p = replace(self.p)
        assert p is not self.p and geom[0] is not self.geom[0]
        second = surface_weights(geom, p, 2)
        _assert_same_weights(second, first[:2])
        assert second[2] == first[2]
        _assert_same_weights(first, _direct_weights(self.geom, self.p, 2))

    @pytest.mark.parametrize("change", ["wavelength", "element_spacing", "pirs_grid",
                                        "airs_index", "hop_angle"])
    def test_changed_input_builds_fresh_responses(self, change):
        p, geom, l = self.p, list(self.geom), 2
        before = surface_weights(geom, p, l)[0]
        if change == "wavelength":
            p = replace(p, wavelength=1.1 * p.wavelength)
        elif change == "element_spacing":
            p = replace(p, element_spacing=0.9 * p.element_spacing)
        elif change == "pirs_grid":
            p = replace(p, pirs_grid=(2, 6))
        elif change == "airs_index":
            l = 3
        else:
            geom[1] = replace(geom[1], dep_azimuth=geom[1].dep_azimuth + 0.2)
        after = surface_weights(geom, p, l)
        _assert_same_weights(after, _direct_weights(geom, p, l))
        assert any(not np.array_equal(a, b) for a, b in zip(after[0], before))

    @pytest.mark.parametrize("airs_elements, passes", [(150, 2), (64, 1), (1399, 2)])
    def test_one_check_builds_each_panel_size_once(self, monkeypatch, airs_elements, passes):
        # two exp passes per check whatever the panel sizes (every x row plus the BS
        # row, then every z row), one Kronecker product per panel size, one weights
        # row per surface and one cache miss; the active panel is 10 x 15, the
        # passive 8 x 8 at 64 elements, or the prime 1 x 1399
        p = replace(SystemParams(), pirs_elements=64, pirs_grid=None,
                    airs_elements=airs_elements, airs_grid=None)
        geom = random_geometry(p, np.random.default_rng(42))
        exp_passes, kron_rows = [], []

        def counting_steering_rows(varsigmas, length):
            exp_passes.append((len(varsigmas), length))
            return steering_rows(varsigmas, length)

        def counting_kron_rows(x, z):
            kron_rows.append(len(x))
            return kron(x, z)

        steering_rows, kron = channel._steering_rows, channel._kron_rows
        channel._build_weights.cache_clear()
        monkeypatch.setattr(channel, "_steering_rows", counting_steering_rows)
        monkeypatch.setattr(channel, "_kron_rows", counting_kron_rows)
        phases, beam = optimal_configuration(4, geom, p, derive_link_budget(p))
        full_snr(4, geom, phases, beam, p)
        full_power(4, geom, phases, beam, p)
        (nx_a, nz_a), (nx_p, nz_p) = p.airs_grid, p.pirs_grid
        assert exp_passes == [(p.num_irs + 1, max(nx_a, nx_p, p.bs_antennas)),
                              (p.num_irs, max(nz_a, nz_p))]
        assert len(kron_rows) == passes
        assert sum(kron_rows) == p.num_irs  # one weights row per surface
        assert channel._build_weights.cache_info().misses == 1

    @pytest.mark.parametrize("num_irs, n_p, n_a", _PANEL_TABLE)
    def test_stacked_rows_bit_identical_to_upa_response(self, num_irs, n_p, n_a):
        # the stacked weight rows equal a per-surface build bit for bit, and every
        # hop_matrices entry equals the product of the reference responses; the
        # dense check runs on the first draw only, as at 2048 elements one call
        # holds five 67 MB matrices
        p = SystemParams(num_irs=num_irs, pirs_elements=n_p, airs_elements=n_a)
        rng = np.random.default_rng(1000 * num_irs + n_p)
        for l in sorted({1, num_irs}):
            for draw in range(5):
                geom = random_geometry(p, rng)
                _assert_same_weights(surface_weights(geom, p, l), _direct_weights(geom, p, l))
                if draw == 0:
                    _assert_matrices_from_responses(geom, p, l)

    @pytest.mark.parametrize("num_irs, n_p, n_a", _PANEL_TABLE)
    def test_weights_and_phasors_match_the_responses(self, num_irs, n_p, n_a):
        p = SystemParams(num_irs=num_irs, pirs_elements=n_p, airs_elements=n_a)
        rng = np.random.default_rng(2000 * num_irs + n_p)
        for l in sorted({1, num_irs}):
            for _ in range(5):
                geom = random_geometry(p, rng)
                hops = hop_responses(geom, p, l)
                weights = surface_weights(geom, p, l)[0]
                phases, _ = optimal_configuration(l, geom, p, derive_link_budget(p))
                for k in range(1, num_irs + 1):
                    arrive, depart = hops[k - 1][0], hops[k][1]
                    np.testing.assert_allclose(weights[k - 1], depart.conj() * arrive,
                                               rtol=0.0, atol=1e-12)
                    np.testing.assert_allclose(phases.reflection[k - 1],
                                               cophasing_phases(arrive, depart),
                                               rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("num_irs, n_p, n_a, bs_antennas", [
        *((*shape, 10) for shape in _PANEL_TABLE),
        (7, 100, 100, 64),   # the BS row is the longest x row
        # a prime 1 x 1399 passive panel with the 10 x 15 active one; kept out of
        # _PANEL_TABLE, as conj(depart) * arrive rounds differently at phases of
        # thousands of radians and misses the 1e-12 match above by about 2e-13
        (7, 1399, 150, 10),
    ])
    def test_rows_and_phasors_bit_identical_at_every_active_position(
            self, num_irs, n_p, n_a, bs_antennas):
        # the active surface first, in the middle and last: its row is cut from the
        # front of the stacked passes, whatever its place in the chain
        p = SystemParams(num_irs=num_irs, pirs_elements=n_p, airs_elements=n_a,
                         bs_antennas=bs_antennas)
        rng = np.random.default_rng(3000 * num_irs + n_p + bs_antennas)
        for l in sorted({1, (num_irs + 1) // 2, num_irs}):
            geom = random_geometry(p, rng)
            want_weights, want_bs_tx = _direct_weights(geom, p, l)
            _assert_same_weights(surface_weights(geom, p, l), (want_weights, want_bs_tx))
            phases, beam = optimal_configuration(l, geom, p, derive_link_budget(p))
            for reflection, w in zip(phases.reflection, want_weights):
                np.testing.assert_array_equal(reflection, np.conj(w))
            np.testing.assert_array_equal(beam, optimal_transmit_beam(want_bs_tx, p.tx_power))


class TestLogPowersFollowInputs:
    """An evaluation must never answer for arguments it was not computed from."""

    def setup_method(self):
        self.p = SystemParams(num_irs=4, pirs_elements=36, airs_elements=20)
        self.geom = random_geometry(self.p, np.random.default_rng(44))
        self.phases, self.beam = optimal_configuration(2, self.geom, self.p,
                                                       derive_link_budget(self.p))

    def _evaluate(self, phases, beam, p):
        return tuple(oracle(2, self.geom, phases, beam, p)
                     for oracle in (full_snr, full_power, incident_element_power))

    def _evaluate_with_fresh_responses(self, phases, beam, p):
        channel._build_weights.cache_clear()
        return self._evaluate(phases, beam, p)

    @pytest.mark.parametrize("change", ["beam_in_place", "equal_phase_config", "eta",
                                        "ref_path_gain", "wavelength"])
    def test_changed_input_is_evaluated_afresh(self, change):
        phases, beam, p = self.phases, self.beam, self.p
        before = self._evaluate(phases, beam, p)
        if change == "beam_in_place":
            beam *= np.exp(1j * np.linspace(0.0, 1.0, beam.size)) * 0.5
        elif change == "equal_phase_config":
            phases = PhaseConfig(reflection=tuple(r.copy() for r in phases.reflection),
                                 eta=phases.eta)
        elif change == "eta":
            phases = PhaseConfig(reflection=phases.reflection, eta=0.5 * phases.eta)
        elif change == "ref_path_gain":
            p = replace(p, ref_path_gain=2.0 * p.ref_path_gain)
        else:
            p = replace(p, wavelength=1.1 * p.wavelength, element_spacing=p.element_spacing)
        after = self._evaluate(phases, beam, p)
        assert after == self._evaluate_with_fresh_responses(phases, beam, p)
        if change == "equal_phase_config":
            assert after == before
        else:
            assert after != before

    def test_phasors_edited_in_place_are_read_afresh(self):
        p = SystemParams(num_irs=3)
        geom = chain_geometry(p)
        phases, beam = optimal_configuration(2, geom, p, derive_link_budget(p))
        oracles = (full_snr, full_power, incident_element_power)
        before = [oracle(2, geom, phases, beam, p) for oracle in oracles]
        phases.reflection[0].flags.writeable = True
        phases.reflection[0][:] = 1.0
        fresh = PhaseConfig(reflection=phases.reflection, eta=phases.eta)
        after = [oracle(2, geom, phases, beam, p) for oracle in oracles]
        assert after == [oracle(2, geom, fresh, beam, p) for oracle in oracles]
        assert after[0] != before[0]


class TestShapeChecks:
    """Mis-shaped phasors or beams used to broadcast into a wrong answer."""

    def setup_method(self):
        self.p = SystemParams(num_irs=3, pirs_elements=16, airs_elements=16)
        self.geom = random_geometry(self.p, np.random.default_rng(45))
        self.phases, self.beam = optimal_configuration(2, self.geom, self.p,
                                                       derive_link_budget(self.p))

    def _assert_rejected(self, phases, beam, match):
        for oracle in (full_snr, full_power, incident_element_power):
            with pytest.raises(ValueError, match=match):
                oracle(2, self.geom, phases, beam, self.p)

    def test_one_phasor_per_surface_rejected(self):
        phases = PhaseConfig(reflection=(np.ones(1),) * 3, eta=self.phases.eta)
        self._assert_rejected(phases, self.beam, r"surface 1 has 16 elements.*\(1,\)")

    def test_phasors_for_an_extra_surface_rejected(self):
        phases = PhaseConfig(reflection=self.phases.reflection + (np.ones(16),),
                             eta=self.phases.eta)
        self._assert_rejected(phases, self.beam, "4 surfaces, but the chain has 3")

    def test_too_few_surfaces_rejected(self):
        phases = PhaseConfig(reflection=self.phases.reflection[:2], eta=self.phases.eta)
        self._assert_rejected(phases, self.beam, "2 surfaces, but the chain has 3")

    def test_short_beam_rejected(self):
        self._assert_rejected(self.phases, self.beam[:1],
                              r"beam has shape \(1,\).*bs_antennas = 10")

    def test_real_and_object_beams_read_as_complex(self):
        real = np.abs(self.beam)
        want = full_snr(2, self.geom, self.phases, real.astype(complex), self.p)
        assert full_snr(2, self.geom, self.phases, real, self.p) == want
        assert full_snr(2, self.geom, self.phases, real.astype(object), self.p) == want

    def test_single_element_surfaces_still_work(self):
        p = SystemParams(num_irs=3, pirs_elements=1, airs_elements=1)
        geom = random_geometry(p, np.random.default_rng(46))
        phases, beam = optimal_configuration(2, geom, p, derive_link_budget(p))
        assert all(r.shape == (1,) for r in phases.reflection)
        _assert_matches_dense(2, geom, phases, beam, p)


class TestPhaseConfig:
    def setup_method(self):
        rng = np.random.default_rng(43)
        self.theta = [rng.uniform(0.0, TWO_PI, n) for n in (5, 12, 1)]
        self.reflection = [np.exp(1j * t) for t in self.theta]

    def test_reflection_is_the_phasor_of_theta(self):
        phases = PhaseConfig(reflection=tuple(self.reflection), eta=1.0)
        for k, theta in enumerate(self.theta):
            np.testing.assert_allclose(phases.reflection[k], np.exp(1j * theta),
                                       rtol=0.0, atol=1e-15)

    def test_beamformer_phasors_share_no_memory_with_the_memoised_weights(self):
        # surfaces 1, 3 and 4 are passive 4 x 4 panels, surface 2 the active 4 x 5
        p = SystemParams(num_irs=4, pirs_elements=16, airs_elements=20)
        geom = random_geometry(p, np.random.default_rng(47))
        phases, _ = optimal_configuration(2, geom, p, derive_link_budget(p))
        weights = surface_weights(geom, p, 2)[0]
        assert not any(np.shares_memory(r, w) for r in phases.reflection for w in weights)
        for r in phases.reflection:
            r[:] = 0.5
        _assert_same_weights(surface_weights(geom, p, 2), _direct_weights(geom, p, 2))

    def test_equality_is_identity(self):
        a = PhaseConfig(reflection=tuple(self.reflection), eta=1.0)
        b = PhaseConfig(reflection=tuple(self.reflection), eta=1.0)
        assert a == a
        assert not a == b
        assert a != b


def _small_random_params(rng, num_irs):
    """Random scenario with every panel at most 256 elements."""
    return SystemParams(
        num_irs=num_irs,
        bs_antennas=int(rng.integers(1, 17)),
        airs_elements=int(rng.integers(4, 257)),
        pirs_elements=int(rng.integers(4, 257)),
        bs_irs_distance=4.0 * 10.0 ** rng.uniform(-0.5, 0.5),
        irs_user_distance=4.0 * 10.0 ** rng.uniform(-0.5, 0.5),
        inter_irs_distance=10.0 * 10.0 ** rng.uniform(-0.5, 0.5),
        tx_power=10.0 ** rng.uniform(-2, 2),
        amp_power=1e-4 * 10.0 ** rng.uniform(-1, 1),
        noise_power=1e-9 * 10.0 ** rng.uniform(-1, 1),
    )


def _dense_cascade(l, geom, phases, beam, p):
    """The matrix model from explicit dense hop-matrix products, in linear domain."""
    mats = hop_matrices(geom, p, l)
    h_in = mats[0] @ beam
    for k in range(1, l):
        h_in = mats[k] @ (phases.reflection[k - 1] * h_in)
    h_out = mats[p.num_irs][0]
    for k in range(p.num_irs - 1, l - 1, -1):
        h_out = (h_out * phases.reflection[k]) @ mats[k]
    signal = phases.eta**2 * abs(h_out @ (phases.reflection[l - 1] * h_in)) ** 2
    amp_noise = phases.eta**2 * float(np.sum(np.abs(h_out) ** 2)) * p.noise_power
    return {
        "signal": signal,
        "snr": signal / (amp_noise + p.noise_power),
        "power": signal + amp_noise,
        "incident": float(np.max(np.abs(h_in) ** 2)),
    }


def _assert_matches_dense(l, geom, phases, beam, p):
    dense = _dense_cascade(l, geom, phases, beam, p)
    assert full_snr(l, geom, phases, beam, p) == pytest.approx(dense["snr"], rel=1e-12)
    assert full_power(l, geom, phases, beam, p) == pytest.approx(dense["power"], rel=1e-12)
    assert incident_element_power(l, geom, phases, beam, p) == pytest.approx(
        dense["incident"], rel=1e-12)


class TestRankOneMatchesDense:
    """The per-surface-sum oracle against the dense hop-matrix reference at N <= 256."""

    @pytest.mark.parametrize("num_irs", [1, 2, 4, 9])
    def test_every_active_index(self, num_irs):
        rng = np.random.default_rng(500 + num_irs)
        for l in range(1, num_irs + 1):
            p = _small_random_params(rng, num_irs)
            geom = random_geometry(p, rng)
            phases, beam = optimal_configuration(l, geom, p, derive_link_budget(p))
            _assert_matches_dense(l, geom, phases, beam, p)

    @pytest.mark.parametrize("num_irs", [1, 2, 4, 9])
    def test_non_optimal_phases(self, num_irs):
        # random phases leave every A_k complex and far below its element count
        rng = np.random.default_rng(700 + num_irs)
        for l in range(1, num_irs + 1):
            p = _small_random_params(rng, num_irs)
            geom = random_geometry(p, rng)
            optimal, beam = optimal_configuration(l, geom, p, derive_link_budget(p))
            reflection = tuple(np.exp(1j * rng.uniform(0.0, 2 * math.pi, r.size))
                               for r in optimal.reflection)
            phases = PhaseConfig(reflection=reflection, eta=optimal.eta * rng.uniform(0.1, 3.0))
            _assert_matches_dense(l, geom, phases, beam, p)


def _log_uniform(lo, hi):
    """Floats 10**e with e uniform in [lo, hi]."""
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


class TestOracleAgreesOverWideFields:
    """The oracle takes its hop gains linearly, from ``amplitude_gain``, so it checks
    the budget's sums of field logs from outside: with every field drawn log-uniform
    over wide ranges, the closed forms read from the budget agree with it to 1e-8."""

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 8), st.integers(1, 400), st.integers(1, 400), st.integers(1, 64),
           st.tuples(*[_log_uniform(-1.0, 3.0)] * 3), _log_uniform(-6.0, 6.0),
           _log_uniform(-10.0, 2.0), _log_uniform(-18.0, -3.0), _log_uniform(-8.0, 0.0),
           st.floats(1.5, 4.0), st.data())
    def test_closed_forms_match_the_oracle(self, j, n_p, n_a, m, distances, tx, amp, noise,
                                           beta0, alpha, data):
        d_b, d_i, d_u = distances
        p = SystemParams(num_irs=j, pirs_elements=n_p, airs_elements=n_a, bs_antennas=m,
                         bs_irs_distance=d_b, inter_irs_distance=d_i, irs_user_distance=d_u,
                         tx_power=tx, amp_power=amp, noise_power=noise, ref_path_gain=beta0,
                         path_loss_exponent=alpha)
        budget = derive_link_budget(p)
        l = data.draw(st.integers(1, j), label="airs_index")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        geom = random_geometry(p, rng)
        phases, beam = optimal_configuration(l, geom, p, budget)
        assert full_snr(l, geom, phases, beam, p) == pytest.approx(
            snr_closed(p, l, budget), rel=1e-8)
        assert full_power(l, geom, phases, beam, p) == pytest.approx(
            power_closed(p, l, budget), rel=1e-8)


class TestOracleAtLargeSizes:
    """Sizes whose dense hop matrices would take hundreds of MB, and a long chain."""

    @pytest.mark.parametrize("num_irs, n_p", [(7, 1400), (7, 2048), (60, 100)])
    def test_matches_closed_forms(self, num_irs, n_p):
        p = replace(SystemParams(), num_irs=num_irs, pirs_elements=n_p, pirs_grid=None)
        budget = derive_link_budget(p)
        rng = np.random.default_rng(n_p + num_irs)
        for l in range(1, num_irs + 1):
            geom = random_geometry(p, rng)
            phases, beam = optimal_configuration(l, geom, p, budget)
            assert full_snr(l, geom, phases, beam, p) == pytest.approx(
                snr_closed(p, l, budget), rel=1e-8)
            assert full_power(l, geom, phases, beam, p) == pytest.approx(
                power_closed(p, l, budget), rel=1e-8)

    def test_long_chain_snr_is_tiny_but_positive(self):
        p = replace(SystemParams(), num_irs=60, pirs_elements=100, pirs_grid=None)
        geom = random_geometry(p, np.random.default_rng(60))
        phases, beam = optimal_configuration(60, geom, p, derive_link_budget(p))
        assert 0.0 < full_snr(60, geom, phases, beam, p) < 1e-120
