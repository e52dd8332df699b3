import csv
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from irschain import cli, deployment
from irschain.cli import (
    ConfigError,
    evaluate_point,
    params_from_config,
    parse_config_text,
    parse_sweep,
    run,
)
from irschain.params import MAX_ELEMENTS, MAX_SURFACES, SPEED_OF_LIGHT, SystemParams


class TestConfigParsing:
    def test_plain_and_suffixed_values(self):
        text = """
        # scenario
        pt = 30 dBm
        pa = -10 dBm
        sigma2 = -60 dBm
        beta0 = -43 dB
        d_i = 10
        np = 64
        j = 5
        """
        values = parse_config_text(text)
        assert values["tx_power"] == pytest.approx(1.0)
        assert values["amp_power"] == pytest.approx(1e-4)
        assert values["noise_power"] == pytest.approx(1e-9)
        assert values["ref_path_gain"] == pytest.approx(10 ** -4.3)
        assert values["inter_irs_distance"] == 10.0
        p = params_from_config(values)
        assert p.pirs_elements == 64
        assert p.num_irs == 5
        # every suffix is optional: a bare number is already SI
        bare = parse_config_text("pt = 2\nsigma2 = 1e-9\nbeta0 = 1e-4\npa = -10 DBM")
        assert bare["tx_power"] == 2.0
        assert bare["noise_power"] == 1e-9
        assert bare["ref_path_gain"] == 1e-4
        assert bare["amp_power"] == pytest.approx(1e-4)  # suffixes ignore case

    def test_frequency_sets_wavelength(self):
        p = params_from_config(parse_config_text("frequency = 3.5e9"))
        assert p.wavelength == pytest.approx(SPEED_OF_LIGHT / 3.5e9)

    def test_frequency_and_wavelength_conflict(self):
        with pytest.raises(ConfigError):
            params_from_config(parse_config_text("frequency = 3.5e9\nwavelength = 0.1"))

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("power = 3")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config_text("pt 30")

    def test_unknown_unit(self):
        # powers take only dBm, ref_path_gain only dB, every other key no suffix
        for text in ("pt = 30 dBW", "pt = 30dBm", "pt = 30 dB", "beta0 = -43 dBm",
                     "np = 20 dB", "d_i = 10 dBm", "j = 7 dB", "frequency = 95 dB",
                     "pt = 5000 dBm"):
            with pytest.raises(ConfigError, match="for key"):
                parse_config_text(text)

    def test_non_integer_count(self):
        with pytest.raises(ConfigError):
            params_from_config(parse_config_text("m = 10.5"))

    def test_counts_at_their_bounds_are_accepted(self):
        # the errors just outside, at 0.4 and one above each cap, are tested with eval
        assert parse_config_text("j = 1\nm = 1\nna = 1\nnp = 1") == {
            "num_irs": 1, "bs_antennas": 1, "airs_elements": 1, "pirs_elements": 1}
        at_cap = parse_config_text("j = 1e6\nna = 1000000000\nnp = 1e9")
        assert at_cap == {"num_irs": MAX_SURFACES, "airs_elements": MAX_ELEMENTS,
                          "pirs_elements": MAX_ELEMENTS}
        assert all(type(value) is int for value in at_cap.values())

    def test_unknown_field_names_it(self):
        with pytest.raises(ConfigError, match="'bogus'"):
            params_from_config({"bogus": 1.0})

    def test_parameter_given_twice(self):
        cases = [
            ("pt = 30 dBm\ntx_power = 0.001", "'pt'", "'tx_power'", 1, 2),
            ("np = 64\n# panels\npirs_elements = 81", "'np'", "'pirs_elements'", 1, 3),
            ("frequency = 3.5e9\ncarrier = 28e9", "'frequency'", "'carrier'", 1, 2),
            ("j = 5\nj = 5", "'j'", "'j'", 1, 2),
        ]
        for text, first, second, first_line, second_line in cases:
            with pytest.raises(ConfigError) as info:
                parse_config_text(text)
            message = str(info.value)
            assert first in message and second in message
            assert f"line {first_line}" in message and f"line {second_line}" in message


class TestSweepSpec:
    def test_log_sweep_values_sorted_unique(self):
        values = parse_sweep("10:1000:log:10")
        assert values == sorted(set(values))
        assert values[0] == 10 and values[-1] == 1000

    def test_linear_sweep_uses_step(self):
        assert parse_sweep("10:50:linear:10") == [10, 20, 30, 40, 50]

    def test_single_value(self):
        assert parse_sweep("128") == [128]

    @pytest.mark.parametrize("spec", ["7:7:linear:1", "7:7:log:2"])
    def test_equal_bounds_give_one_point(self, spec):
        assert parse_sweep(spec) == [7]

    @pytest.mark.parametrize("bad", ["10:5:log:10", "10:100:geo:5", "a:b:log:3",
                                     "10:100:log:1", "0:10:linear:1"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_sweep(bad)

    @pytest.mark.parametrize("spec, message", [
        ("abc", "cannot parse --np value 'abc'"),
        ("10:100:log", "--np spec must be min:max:scale:n, got '10:100:log'"),
        ("a:b:log:3", "--np spec must use integers, got 'a:b:log:3'"),
        ("10:100:geo:5", "--np scale must be linear or log, got 'geo'"),
        ("0:10:log:5", "--np spec needs 1 <= min <= max, got '0:10:log:5'"),
        ("10:5:log:5", "--np spec needs 1 <= min <= max, got '10:5:log:5'"),
        ("10:100:log:1", "--np log sweeps need a count >= 2, got 1"),
        ("10:100:linear:0", "--np linear sweeps need a step >= 1, got 0"),
    ])
    def test_every_spec_error_names_the_flag(self, spec, message):
        with pytest.raises(ConfigError) as excinfo:
            parse_sweep(spec)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("spec, points", [
        ("1:100000:linear:1", 100000), ("1:200000:linear:2", 100000),
        ("10:1000:log:100000", 991)])
    def test_point_count_at_the_bound_is_accepted(self, spec, points):
        assert len(parse_sweep(spec)) == points

    @pytest.mark.parametrize("spec", ["1:100001:linear:1", "1:200001:linear:2",
                                      "10:1000:log:100001"])
    def test_point_count_above_the_bound_is_rejected(self, spec):
        with pytest.raises(ConfigError, match="--np"):
            parse_sweep(spec)


class TestEvalCommand:
    def test_default_scenario_report(self, capsys):
        assert run(["eval", "--mode", "wit", "--np", "100"]) == 0
        out = capsys.readouterr().out
        assert "l_star = 5" in out
        assert "case = I" in out
        assert "objective_db = " in out
        assert "agrees = true" in out

    def test_power_mode_reports_final_surface(self, capsys):
        assert run(["eval", "--mode", "wpt", "--np", "100"]) == 0
        out = capsys.readouterr().out
        assert "l_star = 7" in out
        assert "case = final" in out

    def test_np_defaults_to_scenario_value(self, capsys):
        assert run(["eval", "--mode", "wit"]) == 0
        assert "np = 100" in capsys.readouterr().out

    def test_config_file_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("j = 7\npt = 30 dBm\npa = -10 dBm\nsigma2 = -60 dBm\n"
                       "d_b = 4\nd_u = 4\nd_i = 10\nalpha = 2\nm = 10\nna = 150\n"
                       "beta0 = -43 dB\nfrequency = 3.5e9\n")
        assert run(["eval", "--mode", "wit", "--np", "100", "--config", str(cfg)]) == 0
        assert "l_star = 5" in capsys.readouterr().out

    def test_missing_config_exits_2(self, capsys):
        assert run(["eval", "--mode", "wit", "--np", "100",
                    "--config", "/nonexistent/cfg"]) == 2

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("d_i = -5\n")
        assert run(["eval", "--mode", "wit", "--np", "100", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("line, name", [
        ("pt = nan", "tx_power"),
        ("sigma2 = inf", "noise_power"),
        ("d_i = inf", "inter_irs_distance"),
        ("np = inf", "pirs_elements"),
        ("j = 1e400", "num_irs"),
        ("frequency = 0", "frequency"),
        ("alpha = 0", "path_loss_exponent"),
        ("np = 0", "pirs_elements"),
        ("pt = -5000 dBm", "tx_power"),  # underflows to 0 W
        ("np = 1000000000039", "pirs_elements"),  # above the element cap
        ("na = 1e12", "airs_elements"),
        ("np = 1e-12", "pirs_elements"),  # positive, but rounds to no element
        ("na = 1e-12", "airs_elements"),
        ("m = 1e-12", "bs_antennas"),
        ("j = 1e-12", "num_irs"),
        ("num_irs = 0.4", "num_irs"),
        ("frequency = 1e-300", "frequency"),  # c / f overflows
        ("carrier = 1e-320", "frequency"),
        ("m = 10.5", "bs_antennas"),  # not a count
        ("np = 2.5", "pirs_elements"),
    ])
    def test_non_finite_value_exits_2_naming_the_key(self, tmp_path, capsys, line, name):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert run(["eval", "--mode", "wit", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        key = line.split("=")[0].strip()
        (error,) = [line for line in captured.err.splitlines() if line.startswith("error: ")]
        assert f"key {key!r} ({name})" in error
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["eval", "--mode", "wit", "--np", "1000000000039"],
        ["sweep", "--mode", "wpt", "--np", "1000000000039"],
        ["sweep", "--mode", "wit", "--np", "10:1000000000039:log:3"],
    ])
    def test_panel_above_the_element_cap_exits_2_naming_the_flag(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert "--np must be at most 1000000000, got 1000000000039" in captured.err
        assert captured.out == ""

    def test_panel_at_the_element_cap_is_accepted(self, capsys):
        assert run(["eval", "--mode", "wit", "--np", "1000000000"]) == 0
        assert "np = 1000000000" in capsys.readouterr().out

    def test_panel_one_above_the_element_cap_exits_2(self, capsys):
        assert run(["eval", "--mode", "wit", "--np", "1000000001"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: --np must be at most 1000000000, got 1000000001"]
        assert captured.out == ""

    @pytest.mark.parametrize("argv, value", [
        (["eval", "--mode", "wit", "--np", "0"], "0"),
        (["eval", "--mode", "wpt", "--np", "-3"], "-3"),
        (["sweep", "--mode", "wit", "--np", "0"], "0"),
        (["sweep", "--mode", "wpt", "--np", "-3"], "-3"),
    ])
    def test_panel_below_one_exits_2_naming_the_flag(self, capsys, argv, value):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: --np must be at least 1, got {value}"]
        assert captured.out == ""

    def test_chain_above_the_surface_cap_exits_2_before_building_it(
            self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the chain was built")
        monkeypatch.setattr(deployment, "optimal_index", fail)
        cfg = tmp_path / "long.cfg"
        cfg.write_text("j = 1000001\n")
        assert run(["eval", "--mode", "wpt", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: key 'j' (num_irs) must be at most 1000000, got '1000001'"]
        assert captured.out == ""

    def test_trailing_tokens_exit_2_naming_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "trailing.cfg"
        cfg.write_text("pt = 30 dBm 5\n")
        assert run(["eval", "--mode", "wit", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unexpected trailing tokens in '30 dBm 5' for key 'pt'\n"

    def test_warnings_go_to_stderr_not_the_report(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        assert run(["eval", "--mode", "wit", "-o", str(report)]) == 0
        assert "l_star = 5" in report.read_text()
        assert "warning:" not in report.read_text()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("warning: ") == 1  # the three far-field distances, merged


class TestHopGainOutOfRange:
    """d**(alpha/2) overflows for a huge exponent and underflows to 0 for a tiny
    distance; eval used to end in an OverflowError or ZeroDivisionError traceback."""

    @pytest.mark.parametrize("config, key", [
        ("alpha = 1e300\n", "inter_irs_distance"),
        ("alpha = 3\nd_i = 1e-300\n", "inter_irs_distance"),
        ("alpha = 3\nd_b = 1e-300\n", "bs_irs_distance"),
        ("alpha = 3\nd_u = 1e-300\n", "irs_user_distance"),
        ("alpha = 1e300\nd_i = 1\n", "bs_irs_distance"),  # 1**alpha stays in range
    ], ids=["overflow-d_i", "underflow-d_i", "underflow-d_b", "underflow-d_u", "overflow-d_b"])
    @pytest.mark.parametrize("mode", ["wit", "wpt"])
    def test_eval_exits_2_naming_the_exponent_and_the_distance(self, tmp_path, capsys,
                                                               config, key, mode):
        cfg = tmp_path / "hop.cfg"
        cfg.write_text(config)
        assert run(["eval", "--mode", mode, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and captured.err.splitlines()[-1] == errors[0]
        assert "path_loss_exponent = " in errors[0] and f"{key} = " in errors[0]
        assert "out of double range" in errors[0]
        assert captured.out == ""

    def test_sweep_exits_2_naming_the_exponent_and_the_distance(self, tmp_path, capsys):
        cfg = tmp_path / "hop.cfg"
        cfg.write_text("alpha = 3\nd_u = 1e-300\n")
        assert run(["sweep", "--mode", "wpt", "--np", "10:100:log:3", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: invalid system parameters: path_loss_exponent = 3 and irs_user_distance "
            "= 1e-300 put the hop gain out of double range"]
        assert captured.out == ""


class TestInputsAtTheEdgeOfDoubleRange:
    """One key at a time at 1e-300 ... 1.7e308.  eval used to end in a traceback
    (far-field threshold, kappa**2, floor of an infinite relaxed index), print
    objective_linear = nan, or exit with a bare 'math domain error'."""

    @pytest.mark.parametrize("mode", ["wit", "wpt"])
    @pytest.mark.parametrize("value", ["1e-300", "1e-30", "1e30", "1e300", "1.7e308"])
    @pytest.mark.parametrize("key", ["j", "m", "na", "np", "d_b", "d_u", "d_i", "pt", "pa",
                                     "sigma2", "alpha", "beta0", "wavelength", "frequency",
                                     "carrier", "spacing"])
    def test_eval_gives_a_finite_report_or_one_error(self, tmp_path, capsys, key, value, mode):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code = run(["eval", "--mode", mode, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code in (0, 2)
        assert "math domain error" not in captured.err
        if code == 0:
            values = [line.split(" = ", 1)[1] for line in captured.out.splitlines()]
            assert not {"nan", "inf", "-inf"} & set(values)
        else:
            assert captured.out == ""
            assert [line for line in captured.err.splitlines()
                    if line.startswith("error: ")] == [captured.err.splitlines()[-1]]

    @pytest.mark.parametrize("config, keys", [
        ("pa = 1.7e308\n", ["amp_power", "airs_elements", "irs_user_distance"]),
        ("pt = 1.7e308\n", ["tx_power", "bs_antennas", "bs_irs_distance"]),
        ("d_b = 1e300\n", ["tx_power", "bs_antennas", "bs_irs_distance"]),
        ("d_u = 1e-300\n", ["amp_power", "airs_elements", "irs_user_distance"]),
        ("m = 1e300\n", ["bs_antennas", "element_spacing", "wavelength"]),
        ("spacing = 1e300\n", ["bs_antennas", "element_spacing", "wavelength"]),
        # the objective overflows; the error names the field set, not only J and N_p
        ("beta0 = 9.25e213\n", ["ref_path_gain"]),
        ("d_i = 7.7235e-179\n", ["inter_irs_distance"]),
    ])
    @pytest.mark.parametrize("mode", ["wit", "wpt"])
    def test_error_names_the_keys_of_the_quantity(self, tmp_path, capsys, config, keys, mode):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(config)
        assert run(["eval", "--mode", mode, "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        (error,) = [line for line in lines if line.startswith("error: ")]
        assert error == lines[-1] and error.endswith("out of double range")
        for key in keys:
            assert f"{key} = " in error

    @pytest.mark.parametrize("mode", ["wit", "wpt"])
    @pytest.mark.parametrize("config", ["alpha = 1e300\n", "spacing = 1e300\n",
                                        "pa = 1.7e308\n", "d_i = 7.7235e-179\n"])
    def test_eval_and_sweep_print_the_same_error(self, tmp_path, capsys, config, mode):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(config)
        errors = []
        for command in (["eval"], ["sweep", "--np", "100"]):
            assert run([*command, "--mode", mode, "--config", str(cfg)]) == 2
            lines = capsys.readouterr().err.splitlines()
            assert [line for line in lines if line.startswith("error: ")] == lines[-1:]
            errors.append(lines[-1])
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("mode", ["wit", "wpt"])
    def test_objective_overflow_names_the_distance_that_caused_it(self, tmp_path, capsys,
                                                                  mode):
        # np * kappa_i ~ 9e177 here; the error used to name only num_irs and pirs_elements
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("d_i = 7.7235e-179\n")
        assert run(["eval", "--mode", mode, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: num_irs = 7, pirs_elements = 100, inter_irs_distance = 7.7235e-179, "
            "ref_path_gain = 5.01187e-05, path_loss_exponent = 2, amp_power = 0.0001, "
            "airs_elements = 150, irs_user_distance = 4, tx_power = 1, bs_antennas = 10, "
            "bs_irs_distance = 4 and noise_power = 1e-09 put the objective out of double range")

    def test_power_that_rounds_to_inf_exits_2(self, tmp_path, capsys):
        # c_a ~ 1.5e308 is finite; at l = J the power's last product rounds it to inf
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("pa = 2e304\nd_u = 1e-3\nsigma2 = 1e-16\n")
        assert run(["eval", "--mode", "wpt", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1] == (
            "error: num_irs = 7, pirs_elements = 100, inter_irs_distance = 10, "
            "ref_path_gain = 5.01187e-05, path_loss_exponent = 2, amp_power = 2e+304, "
            "airs_elements = 150, irs_user_distance = 0.001, tx_power = 1, bs_antennas = 10, "
            "bs_irs_distance = 4 and noise_power = 1e-16 put the objective out of double range")

    @pytest.mark.parametrize("mode", ["wit", "wpt"])
    def test_boosted_power_that_rounds_to_inf_exits_2(self, tmp_path, capsys, mode):
        # tx_power + airs_elements * amp_power rounds to inf, whose log and exp raise
        # nothing; the objectives stay finite (3.5e306 for wit)
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("pt = 1e308\npa = 1e306\nm = 1\n")
        assert run(["eval", "--mode", mode, "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        (error,) = [line for line in err.splitlines() if line.startswith("error: ")]
        assert out == "" and error == err.splitlines()[-1]
        assert "tx_power = 1e+308" in error
        assert error.endswith("put the all-passive baseline out of double range")


# every key and alias a config file accepts, and the field each one sets; a frequency
# sets the wavelength, which is what an error about it names
_CONFIG_KEYS = {
    "j": "num_irs", "num_irs": "num_irs", "m": "bs_antennas", "bs_antennas": "bs_antennas",
    "na": "airs_elements", "airs_elements": "airs_elements",
    "np": "pirs_elements", "pirs_elements": "pirs_elements",
    "d_b": "bs_irs_distance", "bs_irs_distance": "bs_irs_distance",
    "d_u": "irs_user_distance", "irs_user_distance": "irs_user_distance",
    "d_i": "inter_irs_distance", "inter_irs_distance": "inter_irs_distance",
    "pt": "tx_power", "tx_power": "tx_power", "pa": "amp_power", "amp_power": "amp_power",
    "sigma2": "noise_power", "noise_power": "noise_power",
    "alpha": "path_loss_exponent", "path_loss_exponent": "path_loss_exponent",
    "beta0": "ref_path_gain", "ref_path_gain": "ref_path_gain",
    "wavelength": "wavelength", "frequency": "wavelength", "carrier": "wavelength",
    "spacing": "element_spacing", "element_spacing": "element_spacing",
}


class TestKeySpellings:
    """Each key spelling with each value and suffix: the exact value parsed, or the exact
    error.  The expected outcome is written out here from the format's rules, in the
    order the parser applies them."""

    UNITS = {"tx_power": "dBm", "amp_power": "dBm", "noise_power": "dBm",
             "ref_path_gain": "dB"}  # every other key takes a bare number
    CAPS = {"num_irs": MAX_SURFACES, "airs_elements": MAX_ELEMENTS,
            "pirs_elements": MAX_ELEMENTS}
    COUNTS = {"num_irs", "bs_antennas", "airs_elements", "pirs_elements"}

    @classmethod
    def expected(cls, key, canon, number, suffix):
        """(parameter, parsed value) or the ConfigError text for ``key = number suffix``."""
        raw = number + suffix
        value = float(number)
        if suffix:
            unit = cls.UNITS.get(canon)
            if unit is None or suffix.strip().lower() != unit.lower():
                allowed = f"use {unit}" if unit else "give a bare number"
                return f"unit {suffix.strip()!r} is not valid for key {key!r} ({allowed})"
            try:
                value = 10.0 ** ((value - 30.0) / 10.0 if unit == "dBm" else value / 10.0)
            except OverflowError:
                return f"value {raw!r} for key {key!r} is out of range"
        if value <= 0.0:
            return f"key {key!r} ({canon}) must be positive and finite, got {raw!r}"
        if value > cls.CAPS.get(canon, math.inf):
            return f"key {key!r} ({canon}) must be at most {cls.CAPS[canon]}, got {raw!r}"
        if canon not in cls.COUNTS:
            return canon, value
        if value != round(value):
            return f"key {key!r} ({canon}) must be an integer, got {raw!r}"
        return canon, int(value)

    @pytest.mark.parametrize("name", sorted(_CONFIG_KEYS))
    def test_every_spelling_value_and_suffix(self, name):
        # frequency and carrier set the wavelength, but the parser names them frequency
        canon = "frequency" if name in ("frequency", "carrier") else _CONFIG_KEYS[name]
        for key in sorted({name, name.upper(), name.replace("_", "-")}):
            for suffix in ("", " dB", " dBm", " dBW"):
                for number in ("0", "10.5", "1e10", "3"):
                    want = self.expected(key, canon, number, suffix)
                    try:
                        got = parse_config_text(f"{key} = {number}{suffix}")
                    except ConfigError as exc:
                        assert str(exc) == want, (key, number, suffix)
                        continue
                    assert isinstance(want, tuple), (key, number, suffix, got)
                    assert got == dict([want]), (key, number, suffix)
                    assert type(got[canon]) is type(want[1]), (key, number, suffix)


_KEY_TEXT = st.sampled_from(sorted(_CONFIG_KEYS)).flatmap(
    lambda key: st.sampled_from([key, key.upper(), key.replace("_", "-")]))
_VALUE_TEXT = st.one_of(
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e400", "abc", "", "1 2 3", "10.5",
                     "0.4", "1e-12", "1e9", "1000000000039", "1.7e308", "1e-300",
                     "7.7235e-179", "9.25e213", "4.03e-211", "3.5e9", "100"]),
    st.builds(lambda mantissa, exponent: f"{mantissa:.5g}e{exponent}",
              st.floats(1.0, 9.99999), st.integers(-330, 330)),  # log-uniform magnitudes
    st.integers(-400, 400).map(str),
)
_UNIT_TEXT = st.sampled_from(["", "", " dB", " dBm", " DBM", " dBW", "dBm"])
_CONFIG_LINE = st.tuples(_KEY_TEXT, _VALUE_TEXT, _UNIT_TEXT)

# ROADMAP item 1: a long decaying chain underflows out of log domain and exits 2 with
# one of these, which name nothing; exempt until the log-domain placement removes them
_UNDERFLOW_ERRORS = {"error: linear_to_db requires a positive ratio",
                     "error: watts_to_dbm requires a positive power"}


class TestConfigFuzz:
    """Any config text gives a report or one error line that names what was set."""

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(_CONFIG_LINE, min_size=1, max_size=3), st.sampled_from(["wit", "wpt"]),
           st.none() | st.integers(-2, 2 * 10**9))
    def test_eval_reports_or_names_a_key_it_was_given(self, tmp_path_factory, lines, mode,
                                                      n_p):
        cfg = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        cfg.write_text("".join(f"{key} = {value}{unit}\n" for key, value, unit in lines))
        argv = ["eval", "--mode", mode, "--config", str(cfg)]
        names = set()
        if n_p is not None:
            argv += ["--np", str(n_p)]
            names.add("--np")
        for key, _, _ in lines:
            names |= {key, _CONFIG_KEYS[key.lower().replace("-", "_")]}
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
        assert code in (0, 2)
        if code == 0:
            return
        err_lines = err.getvalue().splitlines()
        assert [line for line in err_lines if line.startswith("error: ")] == err_lines[-1:]
        if err_lines[-1] in _UNDERFLOW_ERRORS:
            return
        assert any(re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", err_lines[-1])
                   for name in names), (err_lines[-1], names)


class TestSweepCommand:
    def test_power_sweep_pins_the_last_surface(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--mode", "wpt", "--np", "10:1000:log:50",
                    "--output", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) >= 45
        assert all(row["l_star"] == "7" for row in rows)
        assert all(row["agrees"] == "true" for row in rows)

    def test_schema_column_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run(["sweep", "--mode", "wit", "--np", "10:100:log:5", "--output", str(out)])
        header = out.read_text().splitlines()[0]
        assert header == ("np,mode,l_star,case,objective_linear,objective_db,"
                          "mid_objective_db,all_pirs_objective_db,brute_force_l,agrees")

    def test_rows_rederivable_by_eval(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        run(["sweep", "--mode", "wit", "--np", "50:400:log:4", "--output", str(out)])
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            run(["eval", "--mode", "wit", "--np", row["np"]])
            report = capsys.readouterr().out
            assert f"l_star = {row['l_star']}" in report
            assert f"objective_linear = {row['objective_linear']}" in report

    def test_unwritable_output_exits_3(self, tmp_path):
        assert run(["sweep", "--mode", "wit", "--np", "10:20:log:2",
                    "--output", str(tmp_path)]) == 3

    def test_huge_point_count_exits_2_before_building_points(self, capsys):
        start = time.perf_counter()
        assert run(["sweep", "--mode", "wit", "--np", "10:1000:log:100000000"]) == 2
        assert time.perf_counter() - start < 5.0
        assert "--np" in capsys.readouterr().err

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["sweep", "--mode", "wit", "--np", "10:500:log:20", "--output", str(a)])
        run(["sweep", "--mode", "wit", "--np", "10:500:log:20", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestValidateCommand:
    # the defaults, and 200 and 2000 oracle draws, whose draws include one-surface chains
    # and prime (1 x N) panels; the oracle's digits can differ by host (numpy's complex
    # exp), so its error is held to 1e-12, not pinned (2.087e-14 at 2000 when written)
    @pytest.mark.parametrize("argv, samples", [
        ([], 25),
        (["--oracle-samples", "200", "--seed", "1"], 200),
        (["--oracle-samples", "2000", "--seed", "2"], 2000),
    ], ids=["defaults", "200-seed-1", "2000-seed-2"])
    def test_reports_zero_mismatches(self, capsys, argv, samples):
        assert run(["validate", *argv]) == 0
        grid_wit, grid_wpt, oracle, result = capsys.readouterr().out.splitlines()
        assert grid_wit == "closed-form vs brute force (wit): 2430 configs, 0 mismatches"
        assert grid_wpt == "closed-form vs brute force (wpt): 2430 configs, 0 mismatches"
        match = re.fullmatch(r"matrix oracle vs closed form: (\d+) configs, max relative "
                             r"error (\S+) \(tolerance 1e-08\)", oracle)
        assert match and int(match[1]) == samples
        assert float(match[2]) <= 1e-12
        assert result == "result: OK"

    @pytest.mark.parametrize("error, result, status", [
        (1e-8, "OK", 0), (math.nextafter(1e-8, 1.0), "FAILED", 1)])
    def test_oracle_tolerance_is_inclusive(self, capsys, monkeypatch,
                                            error, result, status):
        monkeypatch.setattr(cli, "_oracle_error", lambda *args: error)
        assert run(["validate", "--oracle-samples", "1"]) == status
        assert capsys.readouterr().out.splitlines()[-1] == f"result: {result}"

    @pytest.mark.parametrize("flag", ["--oracle-samples", "--seed"])
    def test_negative_oracle_samples_exit_2(self, capsys, flag):
        # rejected before the grids run, so nothing reaches stdout
        assert run(["validate", flag, "-3"]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""


class TestFiguresCommand:
    # blake2b (16-byte) digests of the default-scenario figure files.  If a
    # change is meant to alter the figures, regenerate them with
    #   irschain figures --outdir out && b2sum -l 128 out/fig*.csv
    DIGESTS = {
        "fig2.csv": "43e4a9a35512ad9fcdc44788378c157a",
        "fig3.csv": "6950efef3f3bbbcdbad32f07af973eee",
        "fig4.csv": "fc4ee9054b69efa6705b52f74dcde825",
    }

    def test_outputs_match_pinned_digests(self, tmp_path):
        assert run(["figures", "--outdir", str(tmp_path)]) == 0
        for name, digest in self.DIGESTS.items():
            data = (tmp_path / name).read_bytes()
            assert hashlib.blake2b(data, digest_size=16).hexdigest() == digest, name

    def test_outputs_are_deterministic(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run(["figures", "--outdir", str(first)]) == 0
        assert run(["figures", "--outdir", str(second)]) == 0
        for name in ("fig2.csv", "fig3.csv", "fig4.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_index_dataset_shape(self, tmp_path):
        run(["figures", "--outdir", str(tmp_path)])
        with (tmp_path / "fig2.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["np"] == "10"
        assert int(rows[0]["wit_l_star"]) < 7
        assert all(row["wpt_l_star"] == "7" for row in rows)
        assert rows[-1]["wit_l_star"] == "7"


def _digest(text):
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


class TestPinnedOutputs:
    # blake2b (16-byte) digests of the default-scenario sweep CSVs and eval reports,
    # both sides of np * kappa_i = 1 (np = 1413).  If a change is meant to alter them,
    # regenerate each with, for example,
    #   irschain sweep --mode wit --np 2:2000:log:200 | b2sum -l 128
    SWEEPS = {
        ("wit", "2:2000:log:200"): "96985a9c1aad325bbdaef030bedbc528",
        ("wit", "1:3000:linear:7"): "81f160e8be1b0a4196eed73eb093baa8",
        ("wpt", "2:2000:log:200"): "1ae1e4dd7b025782b07bad619277e5a8",
        ("wpt", "1:3000:linear:7"): "ed3f681b4575f05f449e89296067a738",
    }
    # (stdout, stderr): the far-field warning, and at np = 2000 the regime one too
    EVALS = {
        ("wit", None): ("16d79932a8dbc5c4057a8d15fc2552f5", "68797b0cdadbd7712cd588c1e24b4c02"),
        ("wit", "2000"): ("354a76098399feae1a890c0cc3dcd012", "bc40b9e93bdc184edbb5dc39c28e0a14"),
        ("wpt", None): ("6ccfbadb2f36c5743cff54d9ed846f08", "68797b0cdadbd7712cd588c1e24b4c02"),
        ("wpt", "2000"): ("9b0f5a8034ca8ea98c16d38038f5f885", "bc40b9e93bdc184edbb5dc39c28e0a14"),
    }

    @pytest.mark.parametrize("mode, spec", list(SWEEPS))
    def test_sweep_matches_pinned_digest(self, capsys, mode, spec):
        assert run(["sweep", "--mode", mode, "--np", spec]) == 0
        captured = capsys.readouterr()
        assert _digest(captured.out) == self.SWEEPS[mode, spec]
        assert captured.err == ""

    @pytest.mark.parametrize("mode, n_p", list(EVALS))
    def test_eval_matches_pinned_digests(self, capsys, mode, n_p):
        assert run(["eval", "--mode", mode, *(["--np", n_p] if n_p else [])]) == 0
        captured = capsys.readouterr()
        assert (_digest(captured.out), _digest(captured.err)) == self.EVALS[mode, n_p]


class TestOverflow:
    """np * kappa_i > 1 multiplies the objective by (np * kappa_i)**2 per surface.

    At J = 300 and np = 20000 (np * kappa_i ~ 14) it leaves double range; the
    command must exit 2 with one error line, not a traceback and exit 1, and
    eval must still print the warnings that explain it.
    """

    SRC = Path(__file__).resolve().parents[1] / "src"

    @staticmethod
    def message(j, n_p, quantity, d_i=10):
        # every field that feeds the objectives and the baseline, at its value
        return (f"num_irs = {j}, pirs_elements = {n_p}, inter_irs_distance = {d_i}, "
                "ref_path_gain = 5.01187e-05, path_loss_exponent = 2, amp_power = 0.0001, "
                "airs_elements = 150, irs_user_distance = 4, tx_power = 1, bs_antennas = 10, "
                f"bs_irs_distance = 4 and noise_power = 1e-09 put {quantity} out of double range")

    @pytest.mark.parametrize("mode", ["wit", "wpt"])
    def test_eval_exits_2_naming_both_keys(self, tmp_path, mode):
        cfg = tmp_path / "long.cfg"
        cfg.write_text("j = 300\n")
        path = os.pathsep.join(filter(None, [str(self.SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "irschain.cli", "eval", "--mode", mode,
             "--np", "20000", "--config", str(cfg)],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        errors = [line for line in lines if line.startswith("error: ")]
        assert errors == lines[-1:]
        assert lines[-1] == "error: " + self.message(300, 20000, "the objective")
        # the warning that explains the failure is printed before it
        assert any(line.startswith("warning: f(l) non-decreasing regime")
                   for line in lines[:-1])
        assert proc.stdout == ""

    @pytest.mark.parametrize("command, d_i, panel, quantity", [
        (["sweep", "--mode", "wpt", "--np", "1000"], 2, 1000, "the objective"),
        # np = 10 fits
        (["figures", "--outdir", "{tmp}"], 0.05, 25, "the all-passive baseline"),
    ])
    def test_sweep_and_figures_exit_2_naming_the_point(self, tmp_path, capsys,
                                                       command, d_i, panel, quantity):
        cfg = tmp_path / "long.cfg"
        cfg.write_text(f"j = 300\nd_i = {d_i}\n")
        argv = [arg.format(tmp=tmp_path) for arg in command]
        assert run([*argv, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: " + self.message(300, panel, quantity, d_i)]
        assert captured.out == ""

    @pytest.mark.parametrize("mode, j, what", [
        ("wit", 300, "objective"),
        ("wpt", 300, "objective"),
        ("wit", 200, "all-passive baseline"),  # the SNRs are finite here
    ])
    def test_evaluate_point_raises_value_error_naming_both_keys(self, mode, j, what):
        p = SystemParams(num_irs=j, pirs_elements=20000, pirs_grid=None)
        with pytest.raises(ValueError) as info:
            evaluate_point(mode, p)
        assert str(info.value) == self.message(j, 20000, f"the {what}")
