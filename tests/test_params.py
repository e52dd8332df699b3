import math
import random
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, strategies as st

from irschain import params as params_module
from irschain.cli import ConfigError, params_from_config, parse_config_text
from irschain.deployment import agreement_grid
from irschain.params import (
    MAX_ELEMENTS,
    MAX_SURFACES,
    Diagnostic,
    LinkBudget,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
    derive_link_budget,
    fraunhofer_distance,
    linear_to_db,
    validate,
    watts_to_dbm,
)
from reference import elements_at

# Default-scenario constants, frozen from direct arithmetic:
# kappa_x = sqrt(10**-4.3) / d_x, c_t = 1 W * 10 * kappa_b**2,
# c_a = 1e-4 W * 150 * kappa_u**2.
KAPPA_B = 1.769864460960345e-03
KAPPA_I = 7.07945784384138e-04
C_T = 3.1324202101704526e-05
C_A = 4.6986303152556797e-08


class TestUnitConversions:
    def test_dbm_to_watts_reference_points(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
        assert dbm_to_watts(-10.0) == pytest.approx(1e-4, rel=1e-12)
        assert dbm_to_watts(-60.0) == pytest.approx(1e-9, rel=1e-12)

    def test_db_identity(self):
        assert db_to_linear(0.0) == 1.0

    def test_db_reference_gain(self):
        # 10**(-43/10), computed independently
        assert db_to_linear(-43.0) == pytest.approx(5.011872336272725e-05, rel=1e-9)

    @given(st.floats(min_value=-120.0, max_value=80.0))
    def test_dbm_round_trip(self, level):
        assert watts_to_dbm(dbm_to_watts(level)) == pytest.approx(level, abs=1e-10)

    @given(st.floats(min_value=1e-20, max_value=1e6))
    def test_watts_round_trip(self, power):
        assert dbm_to_watts(watts_to_dbm(power)) == pytest.approx(power, rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)
        with pytest.raises(ValueError):
            linear_to_db(-1.0)


class TestLinkBudget:
    def test_default_scenario_constants(self):
        budget = derive_link_budget(SystemParams())
        assert budget.kappa_b == pytest.approx(KAPPA_B, rel=1e-12)
        assert budget.kappa_i == pytest.approx(KAPPA_I, rel=1e-12)
        assert budget.kappa_u == pytest.approx(KAPPA_B, rel=1e-12)
        assert budget.c_t == pytest.approx(C_T, rel=1e-12)
        assert budget.c_a == pytest.approx(C_A, rel=1e-12)

    def test_decreasing_regime_boundary(self):
        # 1/kappa_i = 1412.54, so 1412 passive elements per surface still decay
        assert derive_link_budget(SystemParams(pirs_elements=1412)).f_decreasing
        assert not derive_link_budget(SystemParams(pirs_elements=1413)).f_decreasing

    def test_unit_reference_distance(self):
        p = SystemParams(ref_path_gain=1.0, bs_irs_distance=1.0, path_loss_exponent=2.0)
        assert derive_link_budget(p).kappa_b == 1.0

    def test_scale_consistency_in_ref_gain(self):
        base = derive_link_budget(SystemParams())
        doubled = derive_link_budget(SystemParams(ref_path_gain=2 * 10.0**-4.3))
        assert doubled.kappa_b**2 == pytest.approx(2 * base.kappa_b**2, rel=1e-12)
        assert doubled.kappa_i**2 == pytest.approx(2 * base.kappa_i**2, rel=1e-12)
        assert doubled.c_a == pytest.approx(2 * base.c_a, rel=1e-12)
        assert doubled.c_t == pytest.approx(2 * base.c_t, rel=1e-12)

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError):
            derive_link_budget(SystemParams(inter_irs_distance=-1.0))
        with pytest.raises(ValueError):
            derive_link_budget(SystemParams(tx_power=0.0))


# repr(derive_link_budget(SystemParams())), frozen from the dataclass-generated
# constructor; the written-out one must print the same fields in the same order
DEFAULT_BUDGET_REPR = (
    "LinkBudget(kappa_b=0.001769864460960345, kappa_i=0.000707945784384138, "
    "kappa_u=0.001769864460960345, c_a=4.6986303152556797e-08, "
    "c_t=3.1324202101704526e-05, np_kappa_i=0.0707945784384138, f_decreasing=True, "
    "log_c_a=-16.873409699994106, log_c_t=-10.371119529120131, "
    "log_np_kappa_i=-2.647972856943152, log_noise_power=-20.72326583694641, "
    "log_signal=-54.00956821833581, log_noise_c_a=-37.596675536940516, "
    "log_noise_c_t=-31.09438536606654, log_noise_floor=-41.44653167389282)"
)


class TestLinkBudgetRecord:
    """The written-out constructor keeps the frozen dataclass behaviour."""

    @pytest.mark.parametrize("name", ["kappa_b", "np_kappa_i", "f_decreasing",
                                      "log_signal", "log_noise_floor"])
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        budget = derive_link_budget(SystemParams())
        with pytest.raises(FrozenInstanceError):
            setattr(budget, name, 1.0)
        with pytest.raises(FrozenInstanceError):
            delattr(budget, name)
        assert repr(budget) == DEFAULT_BUDGET_REPR

    def test_equal_params_give_equal_budgets_and_hashes(self):
        first = derive_link_budget(SystemParams(num_irs=9, pirs_elements=256))
        second = derive_link_budget(SystemParams(num_irs=9, pirs_elements=256))
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert first != derive_link_budget(SystemParams(num_irs=8, pirs_elements=256))

    def test_repr_is_unchanged(self):
        assert repr(derive_link_budget(SystemParams())) == DEFAULT_BUDGET_REPR

    def test_constructor_takes_the_linear_fields_and_params(self):
        p = SystemParams()
        budget = derive_link_budget(p)
        linear = {name: getattr(budget, name) for name in
                  ("kappa_b", "kappa_i", "kappa_u", "c_a", "c_t", "np_kappa_i")}
        assert LinkBudget(**linear, p=p) == budget
        assert LinkBudget(*linear.values(), p) == budget
        with pytest.raises(TypeError):
            LinkBudget(**linear)  # p is required
        with pytest.raises(TypeError):
            LinkBudget(**linear, p=p, log_c_a=0.0)  # derived fields are not arguments
        assert not hasattr(budget, "p")


class TestHopGainOutOfRange:
    """A hop gain sqrt(beta_0) / d**(alpha/2) outside double range is an input
    error naming the exponent and the hop's distance, never an ArithmeticError."""

    @pytest.mark.parametrize("changes, keys", [
        ({"path_loss_exponent": 1e300},                               # OverflowError, every hop
         ["bs_irs_distance", "inter_irs_distance", "irs_user_distance"]),
        ({"path_loss_exponent": 3.0, "inter_irs_distance": 1e-300},   # ZeroDivisionError
         ["inter_irs_distance"]),
    ])
    def test_validate_reports_nothing_and_never_raises(self, changes, keys):
        # derive_link_budget alone takes the hop gains; validate drops the regime warning
        p = SystemParams(**changes)
        assert validate(p, warnings=False) == []
        assert [(d.severity, d.name) for d in validate(p)] == [("warning", "far_field")]
        with pytest.raises(ValueError) as info:
            derive_link_budget(p)
        assert str(info.value) == "invalid system parameters: " + "; ".join(
            f"path_loss_exponent = {p.path_loss_exponent:g} and {key} = {getattr(p, key):g} "
            "put the hop gain out of double range" for key in keys)

    @pytest.mark.parametrize("changes, keys", [
        ({"path_loss_exponent": 3.0, "bs_irs_distance": 1e-300}, ["bs_irs_distance"]),
        ({"path_loss_exponent": 3.0, "irs_user_distance": 1e-300}, ["irs_user_distance"]),
        ({"path_loss_exponent": 1e300, "inter_irs_distance": 1.0},
         ["bs_irs_distance", "irs_user_distance"]),
    ])
    def test_derive_link_budget_names_kappa_b_and_kappa_u_keys(self, changes, keys):
        p = SystemParams(**changes)
        assert [d for d in validate(p) if d.severity == "error"] == []
        with pytest.raises(ValueError) as info:
            derive_link_budget(p)
        message = str(info.value)
        assert message.startswith("invalid system parameters: ")
        assert message.count("path_loss_exponent = ") == len(keys)
        for key in ("bs_irs_distance", "irs_user_distance"):
            assert (f"and {key} = " in message) == (key in keys)

    def test_valid_budget_takes_three_amplitude_gains(self, monkeypatch):
        # the guard costs nothing on valid input: no extra amplitude_gain call
        calls = []
        gain = params_module.amplitude_gain

        def counting_gain(*args):
            calls.append(args[0])
            return gain(*args)

        monkeypatch.setattr(params_module, "amplitude_gain", counting_gain)
        p = SystemParams()
        derive_link_budget(p)
        assert calls == [p.bs_irs_distance, p.inter_irs_distance, p.irs_user_distance]


class TestBudgetOutOfRange:
    """c_a, c_t, np_kappa_i and the far-field threshold out of double range are
    input errors naming the keys that feed them, never an ArithmeticError, a
    'math domain error' or an infinite constant."""

    @pytest.mark.parametrize("changes, quantity", [
        ({"amp_power": 1.7e308}, "c_a"),                   # the product rounds to inf
        ({"irs_user_distance": 1e-300}, "c_a"),            # kappa_u**2 raises
        ({"irs_user_distance": 1e300}, "c_a"),             # kappa_u**2 underflows to 0
        ({"tx_power": 1.7e308}, "c_t"),
        ({"bs_irs_distance": 1e-300}, "c_t"),
        ({"bs_irs_distance": 1e300}, "c_t"),
        ({"ref_path_gain": 1e-300, "inter_irs_distance": 1e300}, "np_kappa_i"),
    ])
    def test_derive_link_budget_names_the_constant_and_its_keys(self, changes, quantity):
        p = SystemParams(**changes)
        assert [d for d in validate(p) if d.severity == "error"] == []
        with pytest.raises(ValueError) as info:
            derive_link_budget(p)
        message = str(info.value)
        assert message.startswith("invalid system parameters: ")
        assert message.count(" put ") == 1 and f" put {quantity} = " in message
        for key, value in changes.items():
            assert f"{key} = {value:g}" in message

    def test_both_constants_out_of_range_are_both_named(self):
        p = SystemParams(tx_power=1.7e308, amp_power=1.7e308)
        with pytest.raises(ValueError, match="put c_a = .*; .*put c_t = "):
            derive_link_budget(p)

    @pytest.mark.parametrize("changes", [
        {"bs_antennas": 10**300},                         # d_max**2 raises
        {"element_spacing": 1e300},
        {"wavelength": 1.7e308},                          # d_max rounds to inf, no raise
    ])
    def test_far_field_threshold_out_of_range_is_an_error(self, changes):
        p = SystemParams(**changes)
        with pytest.raises(ValueError, match="put the far-field threshold"):
            fraunhofer_distance(p)
        errors = [d for d in validate(p) if d.severity == "error"]
        assert [d.name for d in errors] == ["far_field"]
        assert errors[0].message == (
            f"bs_antennas = {p.bs_antennas:g}, airs_elements = 150, pirs_elements = 100, "
            f"element_spacing = {p.element_spacing:g} and wavelength = {p.wavelength:g} "
            "put the far-field threshold 2 D**2 / wavelength out of double range")
        with pytest.raises(ValueError, match="^invalid system parameters: bs_antennas = "):
            derive_link_budget(p)

    @pytest.mark.parametrize("bs_antennas, text", [(10**400, "1e+400"),
                                                   (17 * 10**400, "1.7e+401")],
                             ids=["1e400", "1.7e401"])
    def test_antenna_count_beyond_double_range_is_named_not_raised(self, bs_antennas, text):
        # :g converts an int to float, which used to raise OverflowError here
        p = SystemParams(bs_antennas=bs_antennas)
        errors = validate(p)
        assert [d.name for d in errors] == ["far_field"]
        assert errors[0].message.startswith(f"bs_antennas = {text}, airs_elements = 150, ")
        with pytest.raises(ValueError) as info:
            derive_link_budget(p)
        assert str(info.value).startswith(f"invalid system parameters: bs_antennas = {text}, ")


def _edge_params():
    """Every input of the double-range edge tests.

    The one-key configs of tests/test_cli.py's TestInputsAtTheEdgeOfDoubleRange
    and TestHopGainOutOfRange (those a config file accepts), and the inputs of
    this module's TestHopGainOutOfRange and TestBudgetOutOfRange.
    """
    texts = [f"{key} = {value}\n"
             for key in ("j", "m", "na", "np", "d_b", "d_u", "d_i", "pt", "pa", "sigma2",
                         "alpha", "beta0", "wavelength", "spacing")
             for value in ("1e-300", "1e-30", "1e30", "1e300", "1.7e308")]
    texts += ["alpha = 1e300\n", "alpha = 3\nd_i = 1e-300\n", "alpha = 3\nd_b = 1e-300\n",
              "alpha = 3\nd_u = 1e-300\n", "alpha = 1e300\nd_i = 1\n"]
    out = []
    for text in texts:
        try:
            out.append(params_from_config(parse_config_text(text)))
        except ConfigError:
            pass  # rejected while parsing, so never validated
    changes = [
        {"path_loss_exponent": 1e300}, {"path_loss_exponent": 3.0, "inter_irs_distance": 1e-300},
        {"path_loss_exponent": 3.0, "bs_irs_distance": 1e-300},
        {"path_loss_exponent": 3.0, "irs_user_distance": 1e-300},
        {"path_loss_exponent": 1e300, "inter_irs_distance": 1.0},
        {"amp_power": 1.7e308}, {"irs_user_distance": 1e-300}, {"irs_user_distance": 1e300},
        {"tx_power": 1.7e308}, {"bs_irs_distance": 1e-300}, {"bs_irs_distance": 1e300},
        {"ref_path_gain": 1e-300, "inter_irs_distance": 1e300},
        {"tx_power": 1.7e308, "amp_power": 1.7e308}, {"bs_antennas": 10**300},
        {"element_spacing": 1e300}, {"wavelength": 1.7e308}, {"bs_antennas": 10**400},
    ]
    return out + [SystemParams(**c) for c in changes]


class TestValidateErrorsOnly:
    """``validate(p, warnings=False)`` is the error part of ``validate(p)``."""

    @staticmethod
    def _assert_errors_only(p):
        full = validate(p)
        assert validate(p, warnings=False) == [d for d in full if d.severity == "error"]
        return full

    def test_agreement_grid(self):
        for p in agreement_grid():
            self._assert_errors_only(p)

    @pytest.mark.parametrize("n_p", [1413, 2000])
    def test_non_decreasing_regime(self, n_p):
        full = self._assert_errors_only(SystemParams(pirs_elements=n_p))
        assert "f_non_decreasing" in [d.name for d in full]

    def test_far_field_geometry(self):
        p = SystemParams(bs_irs_distance=40.0, irs_user_distance=40.0, inter_irs_distance=40.0)
        assert self._assert_errors_only(p) == []

    def test_inputs_at_the_edge_of_double_range(self):
        edges = _edge_params()
        assert len(edges) > 60
        for p in edges:
            self._assert_errors_only(p)

    def test_budget_builds_no_diagnostic(self, monkeypatch):
        built = []
        diagnostic = params_module.Diagnostic

        def counting(*args):
            built.append(args[1])
            return diagnostic(*args)

        monkeypatch.setattr(params_module, "Diagnostic", counting)
        derive_link_budget(SystemParams())
        assert built == []
        validate(SystemParams())  # the default geometry is inside the far field
        assert built == ["far_field"]


class TestSystemParams:
    def test_default_grids_factor_exactly(self):
        p = SystemParams()
        assert p.airs_grid[0] * p.airs_grid[1] == p.airs_elements
        assert p.pirs_grid[0] * p.pirs_grid[1] == p.pirs_elements

    def test_near_square_factorization(self):
        assert SystemParams(pirs_elements=100).pirs_grid == (10, 10)
        assert SystemParams(pirs_elements=150).pirs_grid == (10, 15)
        assert SystemParams(pirs_elements=7).pirs_grid == (1, 7)  # prime panel

    @pytest.mark.parametrize("counts", [range(1, 5001), [10**9, 999_999_937, 735_134_400]],
                             ids=["n<=5000", "large"])
    def test_grid_is_the_largest_divisor_up_to_the_square_root(self, counts):
        # 999_999_937 is prime and 735_134_400 has 1344 divisors
        for n in counts:
            short = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
            assert SystemParams(pirs_elements=n).pirs_grid == (short, n // short)

    def test_no_grid_search_above_the_element_cap(self):
        # the divisor scan is O(sqrt(n)): at 10**20 elements it would run for minutes
        p = SystemParams(airs_elements=MAX_ELEMENTS + 1, pirs_elements=10**20)
        assert p.airs_grid is None and p.pirs_grid is None
        errors = [d.name for d in validate(p) if d.severity == "error"]
        assert errors == ["airs_elements", "pirs_elements"]
        with pytest.raises(ValueError, match="pirs_elements must be 1..1000000000"):
            derive_link_budget(p)
        assert SystemParams(pirs_elements=MAX_ELEMENTS).pirs_grid == (31250, 32000)

    def test_default_spacing_is_half_wavelength(self):
        p = SystemParams()
        assert p.element_spacing == pytest.approx(p.wavelength / 2)

    def test_elements_at_depends_on_active_index(self):
        p = SystemParams()
        assert elements_at(p, 3, airs_index=3) == p.airs_elements
        assert elements_at(p, 2, airs_index=3) == p.pirs_elements

    def test_hop_distances_layout(self):
        p = SystemParams(num_irs=3)
        assert p.hop_distances() == [4.0, 10.0, 10.0, 4.0]


class TestValidate:
    def test_defaults_have_no_errors(self):
        diags = validate(SystemParams())
        assert [d for d in diags if d.severity == "error"] == []

    def test_zero_surfaces_is_an_error(self):
        diags = validate(SystemParams(num_irs=0))
        errors = [d for d in diags if d.severity == "error"]
        assert len(errors) == 1
        assert errors[0].name == "num_irs"

    def test_chain_above_the_surface_cap_is_an_error(self):
        assert not [d for d in validate(SystemParams(num_irs=MAX_SURFACES))
                    if d.severity == "error"]
        errors = [d for d in validate(SystemParams(num_irs=MAX_SURFACES + 1))
                  if d.severity == "error"]
        assert [d.name for d in errors] == ["num_irs"]
        assert errors[0].message == "num_irs must be at most 1000000 surfaces, got 1000001"
        with pytest.raises(ValueError, match="num_irs must be at most 1000000"):
            derive_link_budget(SystemParams(num_irs=MAX_SURFACES + 1))

    def test_large_panel_flags_non_decreasing_regime(self):
        diags = validate(SystemParams(pirs_elements=2000))
        assert any(d.name == "f_non_decreasing" and d.severity == "warning" for d in diags)

    def test_grid_mismatch_is_an_error(self):
        diags = validate(SystemParams(airs_elements=150, airs_grid=(3, 5)))
        assert any(d.name == "airs_grid" and d.severity == "error" for d in diags)

    def test_far_field_warning_threshold(self):
        p = SystemParams()
        threshold = fraunhofer_distance(p)
        assert threshold == pytest.approx(2 * (math.hypot(9, 14) * p.element_spacing) ** 2
                                          / p.wavelength)
        # all three distances sit below the default threshold here: one warning names them
        warnings = [d for d in validate(p) if d.name == "far_field"]
        assert len(warnings) == 1
        for part in ("bs_irs_distance=4 m", "irs_user_distance=4 m",
                     "inter_irs_distance=10 m", f"{threshold:.3g} m"):
            assert part in warnings[0].message
        # distances at the threshold itself are far-field
        at = replace(p, bs_irs_distance=threshold, irs_user_distance=threshold,
                     inter_irs_distance=threshold)
        assert fraunhofer_distance(at) == threshold
        assert [d for d in validate(at) if d.name == "far_field"] == []

    def test_no_transmit_antenna_is_an_error(self):
        assert validate(SystemParams(bs_antennas=0)) == [
            Diagnostic("error", "bs_antennas", "need at least one transmit antenna, got 0")]
        assert [d for d in validate(SystemParams(bs_antennas=1)) if d.severity == "error"] \
            == []

    def test_negative_distance_is_an_error(self):
        diags = validate(SystemParams(bs_irs_distance=-2.0))
        assert any(d.name == "bs_irs_distance" and d.severity == "error" for d in diags)


class TestGuards:
    """Each range test at its own boundary, with inputs only the library takes: the
    config parser rejects an exact 0 or inf before ``validate`` ever sees it."""

    FLOAT_FIELDS = ("bs_irs_distance", "irs_user_distance", "inter_irs_distance",
                    "tx_power", "amp_power", "noise_power", "ref_path_gain",
                    "wavelength", "element_spacing", "path_loss_exponent")

    @pytest.mark.parametrize("value", [0.0, math.inf], ids=["zero", "inf"])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_float_field_at_zero_or_inf_is_an_error(self, name, value):
        p = SystemParams(**{name: value})
        errors = [d for d in validate(p) if d.severity == "error"]
        assert Diagnostic("error", name, f"{name} must be positive and finite, got {value}") \
            in errors
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            derive_link_budget(p)

    def test_panel_at_the_element_cap_is_accepted(self):
        assert [d for d in validate(SystemParams(pirs_elements=MAX_ELEMENTS))
                if d.severity == "error"] == []
        errors = [d for d in validate(SystemParams(pirs_elements=MAX_ELEMENTS + 1))
                  if d.severity == "error"]
        assert [d.name for d in errors] == ["pirs_elements"]

    def test_passive_panel_sets_the_far_field_threshold(self):
        # 25 x 40 passive panels outreach the 10 x 15 active one and the 10-antenna array
        p = SystemParams(pirs_elements=1000)
        assert p.pirs_grid == (25, 40)
        assert fraunhofer_distance(p) == (2.0 * math.hypot(24 * p.element_spacing,
                                                           39 * p.element_spacing) ** 2
                                          / p.wavelength)
        assert fraunhofer_distance(p) > fraunhofer_distance(SystemParams())

    def test_infinite_np_kappa_i_is_an_error(self):
        # kappa_i = 1e150 / 1e-150 = 1e300 is finite; 10**9 of it is not
        p = SystemParams(ref_path_gain=1e300, inter_irs_distance=1e-150,
                         pirs_elements=10**9)
        assert [d for d in validate(p) if d.severity == "error"] == []
        assert any(d.message.startswith("f(l) non-decreasing regime: pirs_elements * "
                                        "kappa_i = inf >= 1") for d in validate(p))
        with pytest.raises(ValueError) as info:
            derive_link_budget(p)
        assert str(info.value) == (
            "invalid system parameters: pirs_elements = 1e+09, inter_irs_distance = 1e-150, "
            "ref_path_gain = 1e+300 and path_loss_exponent = 2 put np_kappa_i = "
            "pirs_elements * kappa_i out of double range")

    def test_zero_hop_distance_is_rejected(self):
        with pytest.raises(ValueError, match="^hop distance must be positive$"):
            params_module.amplitude_gain(0.0, 1e-4, 2.0)


def _reference_fraunhofer_distance(p):
    """The far-field threshold as one aperture helper and two max() calls."""
    def aperture(nx, nz, spacing):
        return math.hypot((nx - 1) * spacing, (nz - 1) * spacing)

    d_max = (p.bs_antennas - 1) * p.element_spacing
    if p.airs_grid is not None:
        d_max = max(d_max, aperture(*p.airs_grid, p.element_spacing))
    if p.pirs_grid is not None:
        d_max = max(d_max, aperture(*p.pirs_grid, p.element_spacing))
    return 2.0 * d_max**2 / p.wavelength


class TestFarFieldBitIdentity:
    """``fraunhofer_distance`` takes both panel diagonals inline; it must give the
    helper-and-max() formulation's value to the last bit."""

    @staticmethod
    def panels(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            na, n_p, m = (round(10.0 ** rng.uniform(0, 3.7)) for _ in range(3))
            yield SystemParams(
                bs_antennas=m, airs_elements=na, pirs_elements=n_p,
                # a transposed grid too: hypot takes its legs in the order given
                airs_grid=rng.choice([None, (na, 1), (1, na)]),
                pirs_grid=rng.choice([None, (n_p, 1), (1, n_p)]),
                element_spacing=0.0428 * 10.0 ** rng.uniform(-3, 3),
                wavelength=0.0857 * 10.0 ** rng.uniform(-3, 3))

    def test_seeded_random_panels(self):
        winners = Counter()
        for p in self.panels(22, 2000):
            threshold = fraunhofer_distance(p)
            assert threshold == _reference_fraunhofer_distance(p), p
            spans = [(p.bs_antennas - 1) * p.element_spacing,
                     math.hypot(*((n - 1) * p.element_spacing for n in p.airs_grid)),
                     math.hypot(*((n - 1) * p.element_spacing for n in p.pirs_grid))]
            winners[spans.index(max(spans))] += 1
        # the array, the active panel and the passive panel each set the threshold
        assert min(winners[k] for k in range(3)) >= 100, winners

    @pytest.mark.parametrize("changes", [
        {"bs_antennas": 1, "airs_elements": 1, "pirs_elements": 1},   # all zero extent
        {"airs_elements": 1, "pirs_elements": 1},                     # the array alone
        {"bs_antennas": 1, "airs_elements": 1},                       # the passive panel
        {"pirs_elements": 1399},                                      # prime: a 1 x 1399 row
        {"bs_antennas": 64},                                          # array outreaches both
        {"airs_elements": 0},                                         # no active grid
        {"airs_elements": 1399, "pirs_elements": 1399},               # equal diagonals
    ])
    def test_edge_panels(self, changes):
        p = SystemParams(**changes)
        assert fraunhofer_distance(p) == _reference_fraunhofer_distance(p)

    def test_prime_passive_panel_and_long_array_set_the_threshold(self):
        prime = SystemParams(pirs_elements=1399)
        assert prime.pirs_grid == (1, 1399)
        assert fraunhofer_distance(prime) == 2.0 * (1398 * prime.element_spacing) ** 2 \
            / prime.wavelength
        array = SystemParams(bs_antennas=64)  # np = 100: 63 spacings beat both diagonals
        assert fraunhofer_distance(array) == 2.0 * (63 * array.element_spacing) ** 2 \
            / array.wavelength

    def test_out_of_range_text_is_unchanged(self):
        p = SystemParams(element_spacing=1e300)
        with pytest.raises(ValueError) as info:
            fraunhofer_distance(p)
        assert str(info.value) == (
            "bs_antennas = 10, airs_elements = 150, pirs_elements = 100, "
            "element_spacing = 1e+300 and wavelength = 0.085655 put the far-field "
            "threshold 2 D**2 / wavelength out of double range")
        with pytest.raises(OverflowError):
            _reference_fraunhofer_distance(p)  # the same square leaves double range
