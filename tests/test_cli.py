import csv

import pytest

from irschain.cli import (
    ConfigError,
    params_from_config,
    parse_config_text,
    parse_sweep,
    run,
)
from irschain.params import SPEED_OF_LIGHT


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


class TestSweepSpec:
    def test_log_sweep_values_sorted_unique(self):
        values = parse_sweep("10:1000:log:10").values()
        assert values == sorted(set(values))
        assert values[0] == 10 and values[-1] == 1000

    def test_linear_sweep_uses_step(self):
        assert parse_sweep("10:50:linear:10").values() == [10, 20, 30, 40, 50]

    def test_single_value(self):
        assert parse_sweep("128").values() == [128]

    @pytest.mark.parametrize("bad", ["10:5:log:10", "10:100:geo:5", "a:b:log:3",
                                     "10:100:log:1", "0:10:linear:1"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_sweep(bad)


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
    ])
    def test_non_finite_value_exits_2_naming_the_key(self, tmp_path, capsys, line, name):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert run(["eval", "--mode", "wit", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert name in captured.err
        assert captured.out == ""


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

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["sweep", "--mode", "wit", "--np", "10:500:log:20", "--output", str(a)])
        run(["sweep", "--mode", "wit", "--np", "10:500:log:20", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestValidateCommand:
    def test_reports_zero_mismatches(self, capsys):
        assert run(["validate", "--oracle-samples", "5"]) == 0
        out = capsys.readouterr().out
        assert "(wit): 2430 configs, 0 mismatches" in out
        assert "(wpt): 2430 configs, 0 mismatches" in out
        assert "result: OK" in out


class TestFiguresCommand:
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
