import math
import random
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from unittest import mock

import mpmath
import pytest
from hypothesis import given, strategies as st

from irschain import cli, params as params_module
from irschain.cli import ConfigError, evaluate_point, params_from_config, parse_config_text
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
    model_warnings,
    out_of_range_message,
    validate,
)
from reference import elements_at, exact_all_pirs_log

# Default-scenario constants, frozen from direct linear arithmetic:
# kappa_x = sqrt(10**-4.3) / d_x, c_t = 1 W * 10 * kappa_b**2,
# c_a = 1e-4 W * 150 * kappa_u**2; the budget holds their logs.
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

    # the report's one formatter, cli._db, takes a log10 and adds the unit's offset; with
    # its 10-digit format taken out, it is the unrounded dB/dBm value
    @staticmethod
    def to_db(mode, value):
        with mock.patch.object(cli, "_fmt", lambda x: x):
            return cli._db(mode, math.log10(value))

    @given(st.floats(min_value=-120.0, max_value=80.0))
    def test_dbm_round_trip(self, level):
        assert self.to_db("wpt", dbm_to_watts(level)) == pytest.approx(level, abs=1e-10)

    @given(st.floats(min_value=1e-20, max_value=1e6))
    def test_watts_round_trip(self, power):
        assert dbm_to_watts(self.to_db("wpt", power)) == pytest.approx(power, rel=1e-12)

    @given(st.floats(min_value=1e-20, max_value=1e6))
    def test_db_round_trip(self, ratio):
        assert db_to_linear(self.to_db("wit", ratio)) == pytest.approx(ratio, rel=1e-12)

    @given(st.floats(min_value=1e-300, max_value=1e300))
    def test_formatter_prints_the_retired_converters_bytes(self, value):
        # linear_to_db was 10 log10(x), watts_to_dbm 10 log10(x) + 30
        assert cli._db("wit", math.log10(value)) == format(10.0 * math.log10(value), ".10g")
        assert cli._db("wpt", math.log10(value)) == format(10.0 * math.log10(value) + 30.0,
                                                           ".10g")

    @pytest.mark.parametrize("mode", ["wit", "wpt"])
    def test_zero_rejected(self, mode):
        # at 0.0 the named error, not log10's 'math domain error'; an objective is a
        # ratio of positive terms, so 0.0 from underflow is the one non-positive value
        p = SystemParams()
        with pytest.raises(ValueError) as info:
            cli._in_db(mode, p, 0.0)
        assert str(info.value) == out_of_range_message(p, "objective")


class TestLinkBudget:
    def test_default_scenario_constants(self):
        budget = derive_link_budget(SystemParams())
        assert math.exp(budget.log_kappa_b) == pytest.approx(KAPPA_B, rel=1e-12)
        assert budget.kappa_i == pytest.approx(KAPPA_I, rel=1e-12)
        assert math.exp(budget.log_kappa_u) == pytest.approx(KAPPA_B, rel=1e-12)
        assert math.exp(budget.log_c_t) == pytest.approx(C_T, rel=1e-12)
        assert math.exp(budget.log_c_a) == pytest.approx(C_A, rel=1e-12)
        assert math.exp(budget.log_np_kappa_i) == pytest.approx(100 * KAPPA_I, rel=1e-12)

    def test_decreasing_regime_boundary(self):
        # 1/kappa_i = 1412.54, so 1412 passive elements per surface still decay
        assert derive_link_budget(SystemParams(pirs_elements=1412)).f_decreasing
        assert not derive_link_budget(SystemParams(pirs_elements=1413)).f_decreasing

    def test_unit_reference_distance(self):
        p = SystemParams(ref_path_gain=1.0, bs_irs_distance=1.0, path_loss_exponent=2.0)
        assert derive_link_budget(p).log_kappa_b == 0.0

    def test_scale_consistency_in_ref_gain(self):
        base = derive_link_budget(SystemParams())
        doubled = derive_link_budget(SystemParams(ref_path_gain=2 * 10.0**-4.3))
        log_2 = math.log(2.0)
        assert 2 * doubled.log_kappa_b == pytest.approx(log_2 + 2 * base.log_kappa_b, rel=1e-12)
        assert doubled.kappa_i**2 == pytest.approx(2 * base.kappa_i**2, rel=1e-12)
        assert doubled.log_c_a == pytest.approx(log_2 + base.log_c_a, rel=1e-12)
        assert doubled.log_c_t == pytest.approx(log_2 + base.log_c_t, rel=1e-12)

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError):
            derive_link_budget(SystemParams(inter_irs_distance=-1.0))
        with pytest.raises(ValueError):
            derive_link_budget(SystemParams(tx_power=0.0))


# repr(derive_link_budget(SystemParams())): the written-out constructor prints every
# field in declaration order, as the dataclass-generated one would
DEFAULT_BUDGET_REPR = (
    "LinkBudget(kappa_i=0.0007079457843841378, f_decreasing=True, "
    "log_kappa_b=-6.336852311057089, log_kappa_u=-6.336852311057089, "
    "log_c_a=-16.873409699994106, log_c_t=-10.371119529120133, "
    "log_np_kappa_i=-2.6479728569431527, log_noise_power=-20.72326583694641, "
    "log_signal=-54.009568218335815, log_noise_c_a=-37.596675536940516, "
    "log_noise_c_t=-31.094385366066543, log_noise_floor=-41.44653167389282)"
)


def _hop_logs(p):
    """log kappa_b, log(np_kappa_i) and log kappa_u, each from the fields' logs."""
    half_log_gain, half_exponent = 0.5 * math.log(p.ref_path_gain), p.path_loss_exponent / 2.0
    return [half_log_gain - half_exponent * math.log(p.bs_irs_distance),
            (math.log(p.pirs_elements * math.sqrt(p.ref_path_gain))
             - half_exponent * math.log(p.inter_irs_distance)),
            half_log_gain - half_exponent * math.log(p.irs_user_distance)]


class TestLinkBudgetRecord:
    """The written-out constructor keeps the frozen dataclass behaviour."""

    @pytest.mark.parametrize("name", ["kappa_i", "log_kappa_b", "log_np_kappa_i",
                                      "f_decreasing", "log_signal", "log_noise_floor"])
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

    def test_constructor_takes_the_hop_gain_logs_and_params(self):
        p = SystemParams()
        budget = derive_link_budget(p)
        hops = dict(zip(("log_kappa_b", "log_np_kappa_i", "log_kappa_u"), _hop_logs(p)))
        assert LinkBudget(**hops, p=p) == budget
        assert LinkBudget(*hops.values(), p) == budget  # p is the fourth
        with pytest.raises(TypeError):
            LinkBudget(*hops.values(), fraunhofer_distance(p), p)  # no threshold argument
        with pytest.raises(TypeError):
            LinkBudget(**hops)  # p is required
        with pytest.raises(TypeError):
            LinkBudget(**hops, p=p, log_c_a=0.0)  # derived fields are not arguments
        assert not hasattr(budget, "p") and not hasattr(budget, "far_field")

    def test_fewer_fields_than_the_linear_record(self):
        # the linear record held fifteen: six linear quantities, the regime flag and
        # eight logs; the log record keeps kappa_i, the flag and ten logs
        assert [f.name for f in fields(LinkBudget)] == [
            "kappa_i", "f_decreasing", "log_kappa_b", "log_kappa_u", "log_c_a", "log_c_t",
            "log_np_kappa_i", "log_noise_power", "log_signal", "log_noise_c_a",
            "log_noise_c_t", "log_noise_floor"]

    def test_kappa_i_past_double_range_is_inf_not_an_error(self):
        # log kappa_i = 1031 at alpha = 3 and d_i = 1e-300: its exp overflows, its log does not
        p = SystemParams(path_loss_exponent=3.0, inter_irs_distance=1e-300)
        budget = derive_link_budget(p)
        assert budget.kappa_i == math.inf and math.isfinite(budget.log_np_kappa_i)


class TestHopGainOutOfRange:
    """A hop gain's log, log(beta_0) / 2 - (alpha/2) log d, outside double range is an
    input error naming the exponent and the hop's distance, never an ArithmeticError.
    Only the product (alpha/2) log d can leave it, so only an exponent near the largest
    double does: beta_0 and d alone keep every log finite."""

    @pytest.mark.parametrize("changes, keys", [
        ({"path_loss_exponent": 1.7e308}, ["inter_irs_distance"]),   # log 10 takes it to -inf
        ({"path_loss_exponent": 1.7e308, "bs_irs_distance": 10.0,    # log 1e-10 to +inf
          "irs_user_distance": 1e-10},
         ["bs_irs_distance", "inter_irs_distance", "irs_user_distance"]),
    ])
    def test_validate_reports_nothing_and_never_raises(self, changes, keys):
        # derive_link_budget alone takes the hop gains; with no budget there is no
        # model_warnings call, so eval prints the error alone (tests/test_cli.py)
        p = SystemParams(**changes)
        assert validate(p) == []
        with pytest.raises(ValueError) as info:
            derive_link_budget(p)
        assert str(info.value) == "invalid system parameters: " + "; ".join(
            f"path_loss_exponent = {p.path_loss_exponent:g} and {key} = {getattr(p, key):g} "
            "put the hop gain out of double range" for key in keys)

    @pytest.mark.parametrize("changes, keys", [
        ({"path_loss_exponent": 1.7e308, "inter_irs_distance": 1.0, "bs_irs_distance": 100.0},
         ["bs_irs_distance"]),
        ({"path_loss_exponent": 1.7e308, "inter_irs_distance": 1.0, "irs_user_distance": 0.01},
         ["irs_user_distance"]),
        ({"path_loss_exponent": 1.7e308, "inter_irs_distance": 1.0, "bs_irs_distance": 100.0,
          "irs_user_distance": 100.0}, ["bs_irs_distance", "irs_user_distance"]),
    ])
    def test_derive_link_budget_names_kappa_b_and_kappa_u_keys(self, changes, keys):
        p = SystemParams(**changes)
        assert validate(p) == []
        with pytest.raises(ValueError) as info:
            derive_link_budget(p)
        message = str(info.value)
        assert message.startswith("invalid system parameters: ")
        assert message.count("path_loss_exponent = ") == len(keys)
        for key in ("bs_irs_distance", "irs_user_distance"):
            assert (f"and {key} = " in message) == (key in keys)

    def test_infinite_far_field_threshold_adds_nothing_to_the_hop_gain_error(self):
        # the threshold only warns, so a spacing past double range is named nowhere
        p = SystemParams(path_loss_exponent=1.7e308, element_spacing=1e300)
        assert validate(p) == [] and fraunhofer_distance(p) == math.inf
        with pytest.raises(ValueError) as info:
            derive_link_budget(p)
        assert str(info.value) == (
            "invalid system parameters: path_loss_exponent = 1.7e+308 and inter_irs_distance "
            "= 10 put the hop gain out of double range")

    def test_other_errors_name_no_hop_gain(self):
        # with a count wrong, the budget stops before the gains, whatever their range
        p = SystemParams(num_irs=0, path_loss_exponent=1.7e308)
        with pytest.raises(ValueError) as info:
            derive_link_budget(p)
        assert str(info.value) == ("invalid system parameters: need at least one surface, "
                                   "got num_irs=0")

    def test_valid_budget_takes_no_linear_hop_gain(self, monkeypatch):
        # the hop gains' logs are sums of field logs: amplitude_gain, the linear gain the
        # matrix oracle takes, is never called
        calls = []
        gain = params_module.amplitude_gain

        def counting_gain(*args):
            calls.append(args[0])
            return gain(*args)

        monkeypatch.setattr(params_module, "amplitude_gain", counting_gain)
        assert derive_link_budget(SystemParams()).log_kappa_b == _hop_logs(SystemParams())[0]
        assert calls == []

    @pytest.mark.parametrize("changes", [
        {"path_loss_exponent": 1e300},                              # d**(alpha/2) overflowed
        {"path_loss_exponent": 3.0, "inter_irs_distance": 1e-300},  # ... or underflowed to 0
        {"path_loss_exponent": 3.0, "bs_irs_distance": 1e-300},
        {"path_loss_exponent": 3.0, "irs_user_distance": 1e-300},
        {"path_loss_exponent": 1e300, "inter_irs_distance": 1.0},
    ])
    def test_a_linear_gain_past_double_range_has_a_finite_log(self, changes):
        # these failed as hop gains while the budget was linear; their logs are finite
        p = SystemParams(**changes)
        budget = derive_link_budget(p)
        assert [budget.log_kappa_b, budget.log_kappa_u] == [_hop_logs(p)[0], _hop_logs(p)[2]]


class TestBudgetOutOfRange:
    """log c_a, log c_t or the log signal power out of double range are input errors
    naming the keys that feed them, never an ArithmeticError, a 'math domain error' or
    an infinite constant.  The far-field threshold feeds only a warning, so it is never
    one.  A constant's log leaves double range only through 2 log kappa, with the hop
    gain's log itself finite: an exponent of about 1e308."""

    @pytest.mark.parametrize("changes, quantity", [
        ({"path_loss_exponent": 1e308, "irs_user_distance": 10.0}, "c_a"),  # 2 log kappa_u: -inf
        ({"path_loss_exponent": 1e308, "irs_user_distance": 0.1}, "c_a"),   # ... or +inf
        ({"path_loss_exponent": 1e308, "bs_irs_distance": 10.0}, "c_t"),
        ({"path_loss_exponent": 1e308, "bs_irs_distance": 0.1}, "c_t"),
    ])
    def test_derive_link_budget_names_the_constant_and_its_keys(self, changes, quantity):
        p = SystemParams(**changes)
        assert validate(p) == []
        with pytest.raises(ValueError) as info:
            derive_link_budget(p)
        message = str(info.value)
        assert message.startswith("invalid system parameters: ")
        assert message.count(" put ") == 1 and f" put {quantity} = " in message
        for key, value in changes.items():
            assert f"{key} = {value:g}" in message

    def test_both_constants_out_of_range_are_both_named(self):
        p = SystemParams(path_loss_exponent=1e308, bs_irs_distance=10.0, irs_user_distance=10.0)
        with pytest.raises(ValueError, match="put c_a = .*; .*put c_t = "):
            derive_link_budget(p)

    def test_log_signal_out_of_range_names_the_objective(self):
        # every hop gain and constant has a finite log (log c_a = log c_t ~ -1.4e308), but
        # their sum, the log signal power, is -inf
        p = SystemParams(path_loss_exponent=1e308)
        budget = LinkBudget(*_hop_logs(p), p)
        assert math.isfinite(budget.log_c_a) and math.isfinite(budget.log_c_t)
        assert budget.log_signal == -math.inf
        with pytest.raises(ValueError) as info:
            derive_link_budget(p)
        assert str(info.value) == ("invalid system parameters: "
                                   + out_of_range_message(p, "objective"))

    @pytest.mark.parametrize("changes", [
        {"amp_power": 1.7e308}, {"tx_power": 1.7e308},           # the product rounded to inf
        {"irs_user_distance": 1e-300}, {"bs_irs_distance": 1e-300},  # kappa**2 raised
        {"irs_user_distance": 1e300}, {"bs_irs_distance": 1e300},    # kappa**2 underflowed
        {"ref_path_gain": 1e-300, "inter_irs_distance": 1e300},      # np_kappa_i was 0
        {"tx_power": 1.7e308, "amp_power": 1.7e308},
    ])
    def test_a_linear_constant_past_double_range_has_a_finite_log(self, changes):
        # these failed as c_a, c_t or np_kappa_i while the budget was linear
        p = SystemParams(**changes)
        assert validate(p) == []
        budget = derive_link_budget(p)
        assert all(math.isfinite(v) for v in (budget.log_c_a, budget.log_c_t,
                                              budget.log_np_kappa_i, budget.log_signal))

    @pytest.mark.parametrize("changes", [
        {"bs_antennas": 10**300},                         # d_max**2 raises
        {"element_spacing": 1e300},
        {"wavelength": 1.7e308},                          # d_max rounds to inf, no raise
    ])
    def test_far_field_threshold_out_of_range_only_warns(self, changes):
        p = SystemParams(**changes)
        assert fraunhofer_distance(p) == math.inf
        assert validate(p) == []  # each field is in range
        budget = derive_link_budget(p)
        assert model_warnings(p, budget) == [Diagnostic(
            "far_field", "below the far-field threshold inf m: bs_irs_distance=4 m, "
            "irs_user_distance=4 m, inter_irs_distance=10 m")]

    @pytest.mark.parametrize("bs_antennas, text, all_pirs_db", [
        (10**400, "1e+400", "3881.982261"), (17 * 10**400, "1.7e+401", "3894.28675")],
        ids=["1e400", "1.7e401"])
    def test_antenna_count_beyond_double_range_is_named_not_raised(self, bs_antennas, text,
                                                                   all_pirs_db):
        # :g converts an int to float, which used to raise OverflowError here.  log takes
        # the int as it is, so log c_t is finite; the all-passive baseline, which grows
        # with the array, is past double range as a linear SNR but not as a log, so the
        # row prints (it exited 2 naming the baseline while the baseline was linear)
        p = SystemParams(bs_antennas=bs_antennas)
        assert validate(p) == [] and fraunhofer_distance(p) == math.inf
        assert out_of_range_message(p, "c_t").startswith(f"tx_power = 1, bs_antennas = {text}, ")
        budget = derive_link_budget(p)
        assert budget.log_c_t == pytest.approx(math.log(bs_antennas) + 2 * budget.log_kappa_b)
        row = evaluate_point("wit", p)
        assert (row["l_star"], row["objective_db"], row["all_pirs_objective_db"]) == (
            7, "38.48062535", all_pirs_db)
        with mpmath.workdps(50):
            assert format(float(exact_all_pirs_log("wit", p) * 10 / mpmath.log(10)),
                          ".10g") == all_pirs_db


def _edge_params():
    """Every input of the double-range edge tests.

    The one-key configs of tests/test_cli.py's TestInputsAtTheEdgeOfDoubleRange
    and TestHopGainOutOfRange (those a config file accepts), and the inputs of
    this module's TestHopGainOutOfRange and TestBudgetOutOfRange, including those
    that failed as linear products and now derive a budget.
    """
    texts = [f"{key} = {value}\n"
             for key in ("j", "m", "na", "np", "d_b", "d_u", "d_i", "pt", "pa", "sigma2",
                         "alpha", "beta0", "wavelength", "spacing")
             for value in ("1e-300", "1e-30", "1e30", "1e300", "1.7e308")]
    texts += ["alpha = 1e300\n", "alpha = 3\nd_i = 1e-300\n", "alpha = 3\nd_b = 1e-300\n",
              "alpha = 3\nd_u = 1e-300\n", "alpha = 1e300\nd_i = 1\n",
              "alpha = 1.7e308\nd_i = 1\nd_b = 100\n", "alpha = 1.7e308\nd_i = 1\nd_u = 1e-10\n",
              "alpha = 1e308\nd_u = 10\n", "alpha = 1e308\nd_b = 10\n", "alpha = 1e308\n"]
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
        {"path_loss_exponent": 1.7e308, "bs_irs_distance": 10.0, "irs_user_distance": 1e-10},
        {"path_loss_exponent": 1.7e308, "inter_irs_distance": 1.0, "bs_irs_distance": 100.0,
         "irs_user_distance": 100.0},
        {"path_loss_exponent": 1e308, "irs_user_distance": 0.1},
        {"path_loss_exponent": 1e308, "bs_irs_distance": 0.1},
        {"path_loss_exponent": 1e308, "bs_irs_distance": 10.0, "irs_user_distance": 10.0},
    ]
    return out + [SystemParams(**c) for c in changes]


FAR_FIELD_EXTREMES = [{"element_spacing": 1e300}, {"wavelength": 1e-300},
                      {"bs_antennas": 10**300}]
# each takes one derived log out of double range: c_a, c_t, each hop gain, the objective
BUDGET_EXTREMES = [{"path_loss_exponent": 1e308, "irs_user_distance": 10.0},
                   {"path_loss_exponent": 1e308, "bs_irs_distance": 10.0},
                   {"path_loss_exponent": 1.7e308},
                   {"path_loss_exponent": 1.7e308, "inter_irs_distance": 1.0,
                    "bs_irs_distance": 100.0},
                   {"path_loss_exponent": 1.7e308, "inter_irs_distance": 1.0,
                    "irs_user_distance": 100.0},
                   {"path_loss_exponent": 1e308}]


def _far_field_crosses():
    """Inputs that take the far-field threshold to inf or underflow it to 0, each
    crossed with inputs that take a budget log out of double range."""
    return [SystemParams(**f, **r) for f in FAR_FIELD_EXTREMES for r in BUDGET_EXTREMES]


def _reference_out_of_range(p):
    """The derived quantities of ``p`` whose logs leave double range, each log a sum
    of field logs written out here, left to right: each hop gain's or, when all three
    are finite, those of c_a and c_t or, when those are too, the log signal power."""
    def outside(values):
        return [name for name, value in values.items() if not -math.inf < value < math.inf]

    # kappa_i's entry is log(np_kappa_i): log(pirs_elements * sqrt(beta_0)) is finite, so
    # it leaves double range exactly when log kappa_i does
    log_kappa = dict(zip(("kappa_b", "kappa_i", "kappa_u"), _hop_logs(p)))
    if gains := outside(log_kappa):
        return gains
    log_c = {
        "c_a": math.log(p.amp_power) + math.log(p.airs_elements) + 2.0 * log_kappa["kappa_u"],
        "c_t": math.log(p.tx_power) + math.log(p.bs_antennas) + 2.0 * log_kappa["kappa_b"],
    }
    if constants := outside(log_c):
        return constants
    log_signal = (log_c["c_a"] + log_c["c_t"] + math.log(p.airs_elements)
                  + 2.0 * (p.num_irs - 1) * log_kappa["kappa_i"])
    return outside({"objective": log_signal})


class TestValidateErrorsOnly:
    """``validate(p)`` checks the fields only, each error named by its field;
    ``derive_link_budget(p)`` never takes the far-field threshold, and
    ``model_warnings(p, budget)`` takes it once, for every ``p`` whose budget derives."""

    FIELDS = {f.name for f in fields(SystemParams)}

    @classmethod
    def _assert_apart(cls, p):
        errors = validate(p)
        assert {d.name for d in errors} <= cls.FIELDS
        calls = []
        threshold = params_module.fraunhofer_distance
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(params_module, "fraunhofer_distance",
                          lambda q: calls.append(q) or threshold(q))
            try:
                budget = derive_link_budget(p)
            except ValueError:
                assert calls == []
                return None  # no budget, so no warnings: eval prints the error alone
            assert errors == [] and calls == []
            warnings = model_warnings(p, budget)
        assert calls == [p]
        assert {d.name for d in warnings} <= {"far_field", "f_non_decreasing"}
        return warnings

    def test_agreement_grid(self):
        for p in agreement_grid():
            assert self._assert_apart(p) is not None

    @pytest.mark.parametrize("n_p", [1413, 2000])
    def test_non_decreasing_regime(self, n_p):
        warnings = self._assert_apart(SystemParams(pirs_elements=n_p))
        assert "f_non_decreasing" in [d.name for d in warnings]

    def test_far_field_geometry(self):
        p = SystemParams(bs_irs_distance=40.0, irs_user_distance=40.0, inter_irs_distance=40.0)
        assert self._assert_apart(p) == []

    def test_inputs_at_the_edge_of_double_range(self):
        edges = _edge_params()
        assert len(edges) == 85 and not any(validate(p) for p in edges)
        derived = [p for p in edges if self._assert_apart(p) is not None]
        # 11 take a log out of double range: alpha = 1.7e308, and the ten inputs added
        # for the log budget's own range test.  The 74 others derive, among them 29 of
        # the 30 inputs that failed while the budget multiplied out linear products
        assert len(derived) == 74

    def test_budget_builds_no_diagnostic(self, monkeypatch):
        built = []
        diagnostic = params_module.Diagnostic

        def counting(*args):
            built.append(args[0])
            return diagnostic(*args)

        monkeypatch.setattr(params_module, "Diagnostic", counting)
        p = SystemParams()
        budget = derive_link_budget(p)
        assert validate(p) == [] and built == []
        model_warnings(p, budget)  # the default geometry is inside the far field
        assert built == ["far_field"]


class TestOneErrorNamesEveryQuantity:
    """``derive_link_budget`` names, in one error, every derived quantity that an
    independent reference puts out of double range, or ``validate``'s errors."""

    def test_edge_and_crossed_inputs(self):
        named = Counter()
        inputs = _edge_params() + _far_field_crosses()
        assert len(inputs) == 103
        for p in inputs:
            errors = validate(p)
            expected = [] if errors else _reference_out_of_range(p)
            if errors or expected:
                with pytest.raises(ValueError) as info:
                    derive_link_budget(p)
                assert str(info.value) == "invalid system parameters: " + (
                    "; ".join(d.message for d in errors) if errors
                    else out_of_range_message(p, *expected)), p
            else:
                assert isinstance(derive_link_budget(p), LinkBudget)
            named.update(expected)
        assert set(named) == {"kappa_b", "kappa_i", "kappa_u", "c_a", "c_t", "objective"}
        # each cross names what its budget half names alone: a far-field extreme
        # adds no clause, though each takes the threshold to inf or underflows it to 0
        for far in FAR_FIELD_EXTREMES:
            for rest in BUDGET_EXTREMES:
                p = SystemParams(**far, **rest)
                assert fraunhofer_distance(p) in (0.0, math.inf), p
                names = _reference_out_of_range(p)
                assert names and names == _reference_out_of_range(SystemParams(**rest)), p


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
        errors = [d.name for d in validate(p)]
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
        assert validate(SystemParams()) == []

    def test_zero_surfaces_is_an_error(self):
        errors = validate(SystemParams(num_irs=0))
        assert len(errors) == 1
        assert errors[0].name == "num_irs"

    def test_chain_above_the_surface_cap_is_an_error(self):
        assert not validate(SystemParams(num_irs=MAX_SURFACES))
        errors = validate(SystemParams(num_irs=MAX_SURFACES + 1))
        assert [d.name for d in errors] == ["num_irs"]
        assert errors[0].message == "num_irs must be at most 1000000 surfaces, got 1000001"
        with pytest.raises(ValueError, match="num_irs must be at most 1000000"):
            derive_link_budget(SystemParams(num_irs=MAX_SURFACES + 1))

    def test_large_panel_flags_non_decreasing_regime(self):
        p = SystemParams(pirs_elements=2000)
        assert validate(p) == []
        diags = model_warnings(p, derive_link_budget(p))
        assert any(d.name == "f_non_decreasing" for d in diags)

    def test_grid_mismatch_is_an_error(self):
        diags = validate(SystemParams(airs_elements=150, airs_grid=(3, 5)))
        assert any(d.name == "airs_grid" for d in diags)

    def test_far_field_warning_threshold(self):
        p = SystemParams()
        threshold = fraunhofer_distance(p)
        assert threshold == pytest.approx(2 * (math.hypot(9, 14) * p.element_spacing) ** 2
                                          / p.wavelength)
        # all three distances sit below the default threshold here: one warning names them
        assert validate(p) == []
        warnings = [d for d in model_warnings(p, derive_link_budget(p)) if d.name == "far_field"]
        assert [d.message for d in warnings] == [
            "below the far-field threshold 11.9 m: bs_irs_distance=4 m, irs_user_distance=4 m, "
            "inter_irs_distance=10 m"]
        assert f"{threshold:.3g}" == "11.9"
        # distances at the threshold itself are far-field
        at = replace(p, bs_irs_distance=threshold, irs_user_distance=threshold,
                     inter_irs_distance=threshold)
        assert fraunhofer_distance(at) == threshold
        assert model_warnings(at, derive_link_budget(at)) == []

    def test_no_transmit_antenna_is_an_error(self):
        assert validate(SystemParams(bs_antennas=0)) == [
            Diagnostic("bs_antennas", "need at least one transmit antenna, got 0")]
        assert validate(SystemParams(bs_antennas=1)) == []

    def test_negative_distance_is_an_error(self):
        diags = validate(SystemParams(bs_irs_distance=-2.0))
        assert any(d.name == "bs_irs_distance" for d in diags)


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
        assert Diagnostic(name, f"{name} must be positive and finite, got {value}") \
            in validate(p)
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            derive_link_budget(p)

    def test_panel_at_the_element_cap_is_accepted(self):
        assert validate(SystemParams(pirs_elements=MAX_ELEMENTS)) == []
        errors = validate(SystemParams(pirs_elements=MAX_ELEMENTS + 1))
        assert [d.name for d in errors] == ["pirs_elements"]

    def test_passive_panel_sets_the_far_field_threshold(self):
        # 25 x 40 passive panels outreach the 10 x 15 active one and the 10-antenna array
        p = SystemParams(pirs_elements=1000)
        assert p.pirs_grid == (25, 40)
        assert fraunhofer_distance(p) == (2.0 * math.hypot(24 * p.element_spacing,
                                                           39 * p.element_spacing) ** 2
                                          / p.wavelength)
        assert fraunhofer_distance(p) > fraunhofer_distance(SystemParams())

    def test_np_kappa_i_past_double_range_derives_a_budget(self):
        # kappa_i = 1e150 / 1e-150 = 1e300 is finite; 10**9 of it is not, but its log,
        # 711.4, is.  The budget derives, the regime warning prints the product as inf,
        # and x**(2(J-1)) takes the objective out of double range
        p = SystemParams(ref_path_gain=1e300, inter_irs_distance=1e-150,
                         pirs_elements=10**9)
        assert validate(p) == []
        budget = derive_link_budget(p)
        assert budget.kappa_i == pytest.approx(1e300, rel=1e-12)
        assert budget.log_np_kappa_i == pytest.approx(309 * math.log(10.0), rel=1e-15)
        assert model_warnings(p, budget)[-1].message == (
            "f(l) non-decreasing regime: pirs_elements * kappa_i = inf >= 1; closed-form "
            "placement falls back to brute force")
        for mode in ("wit", "wpt"):
            with pytest.raises(ValueError) as info:
                evaluate_point(mode, p)
            assert str(info.value) == out_of_range_message(p, "objective")

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

    def test_out_of_range_threshold_warns_of_every_hop(self):
        p = SystemParams(element_spacing=1e300)
        assert fraunhofer_distance(p) == math.inf
        # the budget reads no spacing, so it is the defaults' own
        assert derive_link_budget(p) == derive_link_budget(SystemParams())
        assert [d.message for d in model_warnings(p, derive_link_budget(p))] == [
            "below the far-field threshold inf m: bs_irs_distance=4 m, irs_user_distance=4 m, "
            "inter_irs_distance=10 m"]
        with pytest.raises(OverflowError):
            _reference_fraunhofer_distance(p)  # the same square leaves double range


class TestFarFieldOnlyWarns:
    """The closed forms read neither the spacing nor the wavelength, so no value of
    either fails the budget or moves a row, however far it takes the far-field
    threshold, which feeds only ``model_warnings``."""

    LOG_UNIFORM = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)

    @given(spacing=LOG_UNIFORM, wavelength=LOG_UNIFORM)
    def test_budget_and_rows_ignore_spacing_and_wavelength(self, spacing, wavelength):
        p = SystemParams(element_spacing=spacing, wavelength=wavelength)
        assert derive_link_budget(p) == derive_link_budget(SystemParams())
        for mode in ("wit", "wpt"):
            assert evaluate_point(mode, p) == evaluate_point(mode, SystemParams())
