"""Tests for the config grammar and experiment assembly."""

import numpy as np
import pytest

from koopman_adapt.config import _KEYS, assemble, loads
from koopman_adapt.errors import ConfigError
from koopman_adapt.harness import default_config

SAMPLE = """\
# comment line
[plant]
kind = pendulum
m = 0.4          # trailing comment
noise_x = 0.001, 0.002
schedule = (4.0, m, 0.8), (4.5, d, 0.12)

[observer]
joseph = true
relift_after_correct = false

[run]
seed = 7
variant = adaptive-obs
speeds = 1.5, 3.0
"""


class TestGrammar:
    def test_sections_and_scalars(self):
        cfg = loads(SAMPLE)
        assert cfg["plant"]["kind"] == "pendulum"
        assert cfg["plant"]["m"] == 0.4
        assert cfg["run"]["seed"] == 7
        assert cfg["observer"]["joseph"] is True
        assert cfg["observer"]["relift_after_correct"] is False

    def test_lists_and_tuples(self):
        cfg = loads(SAMPLE)
        assert cfg["plant"]["noise_x"] == [0.001, 0.002]
        assert cfg["plant"]["schedule"] == [(4.0, "m", 0.8), (4.5, "d", 0.12)]
        assert cfg["run"]["speeds"] == [1.5, 3.0]

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError):
            loads("m = 0.4\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            loads("[plant]\njust a line\n")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(ConfigError):
            loads("[plant]\nschedule = (4.0, m, 0.8\n")

    @pytest.mark.parametrize("text, line", [
        ("[mpc]\nhorizon = 5\nhorizon = 7\n", 3),
        ("[mpc]\nhorizon = 5\n[run]\nseed = 1\n[mpc]\nhorizon = 7\n", 6),
    ], ids=["same-block", "reopened-section"])
    def test_repeated_key_rejected(self, text, line):
        with pytest.raises(ConfigError, match=f"line {line}: .*horizon"):
            loads(text)

    def test_quoted_strings(self):
        cfg = loads('[dict]\nfamily = "trig"\n')
        assert cfg["dict"]["family"] == "trig"

    def test_values_parsed_by_their_key_kind(self):
        cfg = loads("[plant]\nm = 1\nnoise_x = 0.001\n"
                    "[redmd]\ngamma_init = 100\nstate_scales = 2.0\n"
                    "[observer]\njoseph = FALSE\n")
        assert cfg["plant"]["m"] == 1.0 and type(cfg["plant"]["m"]) is float
        assert cfg["plant"]["noise_x"] == 0.001
        assert cfg["redmd"] == {"gamma_init": 100.0, "state_scales": [2.0]}
        assert cfg["observer"]["joseph"] is False

    @pytest.mark.parametrize("text, where", [
        ("[rocket]\nthrust = 9\n", r"line 1: unknown section \[rocket\]"),
        ("[plant]\nm = 0.4\nmass = 0.4\n", r"line 3: \[plant\] mass"),
    ])
    def test_unknown_names_rejected_with_their_line(self, text, where):
        with pytest.raises(ConfigError, match=where):
            loads(text)

    @pytest.mark.parametrize("section, setting", [
        ("observer", "joseph = flase"),
        ("observer", "relift_after_correct = no"),
        ("redmd", "adaptive_lambda = 1"),
        ("redmd", "lambda0 = true"),
        ("plant", "m = true"),
        ("plant", "schedule = (4.0, m, heavy)"),
        ("plant", "schedule = (4.0, m, 0.8),"),
        ("run", "speeds = 2.0,"),
        ("redmd", "gamma_init = 'ones'"),
        ("dict", "family ="),
    ])
    def test_mistyped_value_rejected_with_its_line(self, section, setting):
        key = setting.split()[0]
        with pytest.raises(ConfigError, match=rf"line 2: \[{section}\] {key}"):
            loads(f"[{section}]\n{setting}\n")


# Tokens of every kind the grammar knows, fed to every key.
TOKENS = ("true", "2", "2.5", "nan", "abc", "1.0, 2.0", "(1.0, m, 2.0)")


@pytest.mark.parametrize("section, key", [
    (section, key) for section, keys in _KEYS.items() for key in keys])
def test_any_value_assembles_or_is_a_config_error(section, key):
    escaped = []
    for token in TOKENS:
        try:
            assemble(loads(f"[{section}]\n{key} = {token}\n"))
        except ConfigError:
            pass
        except Exception as exc:  # any other type escapes the config path
            escaped.append(f"{token!r}: {type(exc).__name__}: {exc}")
    assert not escaped


class TestAssemble:
    def test_default_config_assembles(self):
        cfg = default_config()
        assert cfg.plant.kind == "pendulum"
        assert cfg.dictionary.family == "trig"
        assert cfg.dictionary.size == 6
        assert cfg.run.variant == "adaptive-both"
        assert len(cfg.schedule.events) == 2

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            assemble(loads("[rocket]\nthrust = 9\n"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            assemble(loads("[plant]\nmass = 0.4\n"))

    def test_invalid_variant_rejected(self):
        with pytest.raises(ConfigError):
            assemble(loads("[run]\nvariant = adaptive-everything\n"))

    def test_non_pendulum_kind_rejected(self):
        with pytest.raises(ConfigError):
            assemble(loads("[plant]\nkind = linear2nd\n"))

    def test_output_index_must_be_state(self):
        with pytest.raises(ConfigError):
            assemble(loads("[dict]\noutput_index = 3\n"))

    def test_bad_schedule_event_rejected(self):
        with pytest.raises(ConfigError):
            assemble(loads("[plant]\nschedule = 4.0, m\n"))

    def test_mpc_weights_built_as_diagonals(self):
        cfg = assemble(loads("[mpc]\nqy = 10.0, 2.0\nru = 0.5\n"))
        np.testing.assert_array_equal(cfg.mpc.Qy, np.diag([10.0, 2.0]))
        np.testing.assert_array_equal(cfg.mpc.Ru, [[0.5]])

    @pytest.mark.parametrize("bounds", [
        "u_max = 10.0, 10.0",
        "u_min = -10.0, -10.0",
        "u_min = -1.0, -2.0\nu_max = 3.0",
    ])
    def test_mpc_bounds_need_one_entry_per_input(self, bounds):
        with pytest.raises(ConfigError, match="u_m"):
            assemble(loads(f"[mpc]\n{bounds}\n"))

    @pytest.mark.parametrize("setting", [
        "max_pg_iters = 2.5", "max_pg_iters = 0", "max_pg_iters = -3",
        "max_pg_iters = true", "pg_tol = -1", "pg_tol = 0", "pg_tol = nan",
        "pg_tol = inf",
    ])
    def test_bad_solver_settings_rejected(self, setting):
        with pytest.raises(ConfigError, match=setting.split()[0]):
            assemble(loads(f"[mpc]\n{setting}\n"))

    @pytest.mark.parametrize("section, setting", [
        ("mpc", "horizon = 2.5"), ("mpc", "horizon = true"),
        ("plant", "substeps = 2.5"), ("redmd", "m_op = 2.5"),
        ("run", "seed = 1.5"), ("dict", "degree = 2.5"),
        ("dict", "output_index = 0.5"),
    ])
    def test_non_integer_rejected(self, section, setting):
        with pytest.raises(ConfigError, match=setting.split()[0]):
            assemble(loads(f"[{section}]\n{setting}\n"))

    @pytest.mark.parametrize("section, setting", [
        ("mpc", "terminal_weight = nan"), ("mpc", "terminal_weight = inf"),
        ("mpc", "u_min = nan"), ("mpc", "u_max = nan"),
        ("observer", "q = nan"), ("observer", "r = nan"),
        ("observer", "r = inf"), ("observer", "p0 = nan"),
        ("plant", "m = nan"), ("plant", "l = nan"), ("plant", "g = nan"),
        ("plant", "d = nan"), ("plant", "c = nan"), ("plant", "dt = nan"),
        ("plant", "noise_y = nan"), ("plant", "noise_x = nan"),
        ("plant", "schedule = (4.0, m, nan)"),
        ("plant", "schedule = (4.0, m, -1.0)"),
        ("run", "train_duration = nan"), ("run", "ref_amplitude = nan"),
        ("run", "speeds = 1.0, nan"), ("redmd", "eps_low = nan"),
        ("redmd", "n0 = nan"), ("redmd", "trace_max_factor = nan"),
        ("redmd", "gamma_init = -1.0"), ("mpc", "qy = nan, 1.0"),
        ("mpc", "ru = nan"), ("plant", "schedule = (nan, m, 0.8)"),
    ])
    def test_non_finite_rejected(self, section, setting):
        with pytest.raises(ConfigError):
            assemble(loads(f"[{section}]\n{setting}\n"))

    def test_negative_tracking_weight_rejected(self):
        with pytest.raises(ConfigError, match="qy"):
            assemble(loads("[mpc]\nqy = -100.0, 1.0\n"))

    @pytest.mark.parametrize("noise_x", ["-0.0005, 0.005", "0.1, 0.2, 0.3"])
    def test_bad_noise_x_rejected(self, noise_x):
        with pytest.raises(ConfigError, match="noise_x"):
            assemble(loads(f"[plant]\nnoise_x = {noise_x}\n"))

    @pytest.mark.parametrize("scales", [
        "nan, 5.0", "-1.0, 5.0", "0.0, 5.0", "inf, 5.0", "1.0",
        "1.0, 2.0, 3.0"])
    def test_bad_state_scales_rejected(self, scales):
        with pytest.raises(ConfigError, match="state_scales"):
            assemble(loads(f"[redmd]\nstate_scales = {scales}\n"))

    @pytest.mark.parametrize("speeds", ["-1.0", "2.0, 0.0"])
    def test_bad_speed_rejected(self, speeds):
        with pytest.raises(ConfigError, match="speed"):
            assemble(loads(f"[run]\nspeeds = {speeds}\n"))

    @pytest.mark.parametrize("speeds", ["2.0, 2.0", "1.0, 3.0, 1.0"])
    def test_repeated_speed_rejected(self, speeds):
        """A repeated speed would run its cells twice and write duplicate
        summary rows under one table column."""
        with pytest.raises(ConfigError, match="speeds"):
            assemble(loads(f"[run]\nspeeds = {speeds}\n"))

    def test_unknown_schedule_parameter_rejected(self):
        with pytest.raises(ConfigError, match="zz"):
            assemble(loads("[plant]\nschedule = (4.0, zz, 1.0)\n"))

    def test_scalar_noise_x_broadcasts(self):
        cfg = assemble(loads("[plant]\nnoise_x = 0.001\n"))
        np.testing.assert_array_equal(cfg.plant.noise_x_vector, [0.001, 0.001])

    def test_gamma_init_float_passthrough(self):
        cfg = assemble(loads("[redmd]\ngamma_init = 100\n"))
        assert cfg.redmd.gamma_init == 100.0

    def test_empty_sections_give_defaults(self):
        cfg = assemble({})
        assert cfg.run.t_sim > 0
        assert cfg.plant.kind == "pendulum"
