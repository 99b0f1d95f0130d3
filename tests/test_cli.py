"""Tests for the command-line harness (exit codes, outputs)."""

import pytest

from koopman_adapt.cli import cli_main

from conftest import no_runtime_warnings

TINY_TEXT = """\
[plant]
kind = pendulum
dt = 0.001
substeps = 1
noise_y = 0.0
noise_x = 0.0

[redmd]
m_op = 5

[mpc]
horizon = 5

[run]
t_sim = 0.05
train_duration = 1.0
seed = 3
speeds = 1.0, 2.0
"""


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_TEXT)
    return str(path)


class TestExitCodes:
    def test_missing_config_names_file(self, capsys):
        code = cli_main(["simulate", "missing.toml"])
        assert code == 1
        assert "missing.toml" in capsys.readouterr().err

    def test_unknown_oracle(self, capsys):
        code = cli_main(["oracle", "nonexistent"])
        assert code == 1
        assert "nonexistent" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nvariant = bogus\n")
        assert cli_main(["simulate", str(path)]) == 1

    def test_negative_noise_x_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_TEXT.replace("noise_x = 0.0",
                                          "noise_x = -0.0005, 0.005"))
        assert cli_main(["simulate", str(path)]) == 1
        assert "configuration error" in capsys.readouterr().err


    @pytest.mark.parametrize("setting", ["max_pg_iters = 2.5",
                                         "pg_tol = nan",
                                         "terminal_weight = nan"])
    def test_bad_solver_setting_is_a_config_error(self, tmp_path, capsys,
                                                  setting):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_TEXT.replace("horizon = 5",
                                          f"horizon = 5\n{setting}"))
        assert cli_main(["simulate", str(path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, old, new", [
        ("simulate", "m_op = 5", "m_op = 5\nstate_scales = nan, 5.0"),
        ("simulate", "m_op = 5", "m_op = 5\nstate_scales = -1.0, 5.0"),
        ("simulate", "m_op = 5", "m_op = 5\nstate_scales = 1.0"),
        ("compare", "speeds = 1.0, 2.0", "speeds = -1.0"),
        ("compare", "speeds = 1.0, 2.0", "speeds = 2.0, 2.0"),
    ])
    def test_bad_scale_or_speed_is_a_config_error(self, tmp_path, capsys,
                                                  command, old, new):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_TEXT.replace(old, new))
        out = str(tmp_path / "out.csv")
        assert cli_main([command, str(path), "--out", out]) == 1
        assert "configuration error:" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("horizon = 5", "horizon = 2.5"), ("substeps = 1", "substeps = 2.5"),
        ("m_op = 5", "m_op = 2.5"), ("seed = 3", "seed = 1.5"),
        ("dt = 0.001", "dt = nan"),
    ])
    def test_non_integer_or_non_finite_is_a_config_error(
            self, tmp_path, capsys, old, new):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_TEXT.replace(old, new))
        assert cli_main(["simulate", str(path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_overflowing_lift_is_a_numerical_abort(self, tmp_path, capsys):
        """Training states whose monomial lift overflows stop the offline
        fit with a numerical abort, not a traceback or overflow warnings."""
        path = tmp_path / "overflow.cfg"
        path.write_text("[dict]\nfamily = monomial\ndegree = 2\n\n"
                        "[run]\ntrain_amplitude = 1e200\nt_sim = 0.1\n")
        out = str(tmp_path / "trace.csv")
        with no_runtime_warnings():
            assert cli_main(["simulate", str(path), "--out", out]) == 2
        assert "numerical abort:" in capsys.readouterr().err


class TestSimulate:
    def test_writes_trace(self, tiny_config_path, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        code = cli_main(["simulate", tiny_config_path, "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 51
        assert lines[0].startswith("t,x1")

    def test_zero_reference_energy_normalizes_to_inf(self, tmp_path, capsys):
        """A zero hold reference has no energy: simulate reports the
        normalized error as inf, as compare does, instead of dividing by
        zero."""
        path = tmp_path / "zero.cfg"
        path.write_text(TINY_TEXT.replace(
            "seed = 3", "seed = 3\nref_kind = hold\nref_amplitude = 0.0"))
        out = tmp_path / "trace.csv"
        assert cli_main(["simulate", str(path), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 51
        assert "(normalized inf)" in capsys.readouterr().out


class TestCompare:
    def test_sixteen_data_rows(self, tmp_path, capsys):
        path = tmp_path / "scheduled.cfg"
        path.write_text(TINY_TEXT.replace(
            "noise_x = 0.0", "noise_x = 0.0\nschedule = (0.02, m, 0.8)"))
        out = str(tmp_path / "summary.csv")
        code = cli_main(["compare", str(path), "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 17  # header + 16 cells
        assert lines[0] == "variant,with_changes,speed,normalized_error,status"
        table = capsys.readouterr().out
        assert "static-static" in table and "adaptive-both" in table


class TestOracle:
    def test_recursive_batch_passes(self, capsys):
        code = cli_main(["oracle", "recursive-batch"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
