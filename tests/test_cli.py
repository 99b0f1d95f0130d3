"""Tests for the command-line harness (exit codes, outputs)."""

import tracemalloc

import pytest

from koopman_adapt.cli import cli_main
from koopman_adapt.config import load_config_file
from koopman_adapt.errors import ConfigError

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
                                         "terminal_weight = nan",
                                         "u_min = inf\nu_max = inf",
                                         "u_min = -inf\nu_max = -inf",
                                         "ru = 1e308",
                                         "terminal_weight = 1e308",
                                         "qy = 1e307, 1\n"
                                         "terminal_weight = 50"])
    def test_bad_solver_setting_is_a_config_error(self, tmp_path, capsys,
                                                  setting):
        """Weights whose stacked, doubled form overflows are refused as
        settings, not blamed on the model or warned of."""
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_TEXT.replace("horizon = 5",
                                          f"horizon = 5\n{setting}"))
        for command in ("simulate", "compare"):
            out = str(tmp_path / "out.csv")
            with no_runtime_warnings():
                assert cli_main([command, str(path), "--out", out]) == 1
            err = capsys.readouterr().err
            assert "configuration error" in err and "[mpc]" in err

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

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys,
                                             command):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_TEXT.replace("seed = 3", "seed = -1"))
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

    @pytest.mark.parametrize("edits", [
        [("dt = 0.001", "dt = 1e-300")],
        [("t_sim = 0.05", "t_sim = 1e300")],
        [("train_duration = 1.0", "train_duration = 1e300")],
        [("dt = 0.001", "dt = 1e-300"), ("t_sim = 0.05", "t_sim = 1e300")],
    ])
    def test_impossible_run_length_is_a_config_error(self, tmp_path, capsys,
                                                     edits):
        """A run or a training run of more samples than any machine holds
        (1e300 of them, or so many that their count overflows) is refused
        before anything of its length is built: exit 1 with an error naming
        [run], not a traceback."""
        text = TINY_TEXT
        for old, new in edits:
            text = text.replace(old, new)
        path = tmp_path / "long.cfg"
        path.write_text(text)
        out = tmp_path / "out.csv"
        assert cli_main(["simulate", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "[run]" in err
        assert not out.exists()

    @pytest.mark.parametrize("old, new, section", [
        ("m_op = 5", "m_op = 1000000000000", "[redmd]"),
        ("horizon = 5", "horizon = 1000000000000", "[mpc]"),
        ("m_op = 5", "m_op = 100000000", "[redmd]"),
        ("horizon = 5", "horizon = 20000", "[mpc]"),
        pytest.param("[redmd]", "[dict]\nfamily = monomial\ndegree = 400\n\n"
                     "[redmd]", "[dict]", id="degree-400"),
        pytest.param("[redmd]", "[dict]\nfamily = monomial\n"
                     "degree = 1000000\n\n[redmd]", "[dict]",
                     id="degree-1000000"),
    ])
    def test_impossible_window_or_horizon_is_a_config_error(
            self, tmp_path, capsys, old, new, section):
        """An estimator window, a horizon or a lifted size too large for
        its arrays (a (7, 1e8) gate window is 5.2 GiB, a 20000-step
        condensation's weights 12 GiB, a degree-400 monomial Gram 48 GiB)
        is refused by the config, naming its section, before anything of
        that size is allocated or a monomial is enumerated."""
        path = tmp_path / "long.cfg"
        path.write_text(TINY_TEXT.replace(old, new))
        with pytest.raises(ConfigError, match=rf"invalid \{section}"):
            load_config_file(path)
        out = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            assert cli_main(["simulate", str(path), "--out", str(out)]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**24  # bytes
        err = capsys.readouterr().err
        assert f"configuration error: invalid {section} section" in err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "[dict]\nfamily = monomial\ndegree = 2\n\n"
        "[run]\ntrain_amplitude = 1e200\nt_sim = 0.1\n",
        "[run]\ntrain_amplitude = 1e300\nt_sim = 0.1\n",
        "[plant]\ng = 1e300\n\n[run]\nt_sim = 0.1\n",
        "[plant]\nnoise_x = 1e300\n\n[run]\nt_sim = 0.1\n",
        "[plant]\nschedule = (0.5, m, 1e-60)\n\n[run]\nt_sim = 1.0\n",
    ], ids=["monomial-lift", "train-amplitude", "gravity", "noise-x",
            "diverging-plant"])
    def test_overflowing_lift_is_a_numerical_abort(self, tmp_path, capsys,
                                                   text):
        """Training states whose monomial lift or whose regressor Gram
        overflows stop the offline fit with a numerical abort; a plant
        that diverges in the closed loop aborts its runs, its huge states'
        error summed without overflow warnings. Both simulate and compare
        exit 2, not with a traceback or overflow warnings."""
        path = tmp_path / "overflow.cfg"
        path.write_text(text)
        out = str(tmp_path / "out.csv")
        for command in ("simulate", "compare"):
            with no_runtime_warnings():
                assert cli_main([command, str(path), "--out", out]) == 2
            assert "abort" in capsys.readouterr().err


class TestSimulate:
    def test_writes_trace(self, tiny_config_path, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        code = cli_main(["simulate", tiny_config_path, "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 51
        assert lines[0].startswith("t,x1")

    def test_zero_reference_energy_is_a_config_error(self, tmp_path, capsys):
        """A stroke so long that its samples within the run stay below
        1e-300 has no energy, as their squares underflow, and no error can
        be normalized by it: simulate and compare report a configuration
        error naming [run], exit 1, and write nothing."""
        path = tmp_path / "zero.cfg"
        path.write_text(TINY_TEXT.replace(
            "seed = 3", "seed = 3\nref_amplitude = 1e150"))
        out = tmp_path / "out.csv"
        for command in ("simulate", "compare"):
            assert cli_main([command, str(path), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert "configuration error" in err and "[run]" in err
            assert not out.exists()

    def test_unwritable_out_is_an_error(self, tiny_config_path, tmp_path,
                                        capsys):
        """An --out in a missing directory is reported as an error line
        with exit 1, not a traceback."""
        out = str(tmp_path / "missing" / "trace.csv")
        assert cli_main(["simulate", tiny_config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and out in err


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

    def test_unwritable_out_is_an_error(self, tiny_config_path, tmp_path,
                                        capsys):
        """An --out in a missing directory is reported as an error line
        with exit 1, not a traceback."""
        out = str(tmp_path / "missing" / "summary.csv")
        assert cli_main(["compare", tiny_config_path, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and out in err


class TestOracle:
    def test_recursive_batch_passes(self, capsys):
        code = cli_main(["oracle", "recursive-batch"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max relative error" in out
