"""Tests for the config grammar and experiment assembly."""

import numpy as np
import pytest

from koopman_adapt.config import assemble, dumps, loads
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

    def test_round_trip_bit_exact(self):
        parsed = loads(SAMPLE)
        assert loads(dumps(parsed)) == parsed

    def test_round_trip_float_precision(self):
        text = "[plant]\nm = 0.1234567890123456789\ndt = 1e-3\n"
        parsed = loads(text)
        assert loads(dumps(parsed)) == parsed

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError):
            loads("m = 0.4\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            loads("[plant]\njust a line\n")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(ConfigError):
            loads("[plant]\nschedule = (4.0, m, 0.8\n")

    def test_quoted_strings(self):
        cfg = loads('[dict]\nfamily = "trig"\n')
        assert cfg["dict"]["family"] == "trig"


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

    def test_negative_tracking_weight_rejected(self):
        with pytest.raises(ConfigError, match="qy"):
            assemble(loads("[mpc]\nqy = -100.0, 1.0\n"))

    @pytest.mark.parametrize("noise_x", ["-0.0005, 0.005", "0.1, 0.2, 0.3"])
    def test_bad_noise_x_rejected(self, noise_x):
        with pytest.raises(ConfigError, match="noise_x"):
            assemble(loads(f"[plant]\nnoise_x = {noise_x}\n"))

    def test_gamma_init_float_passthrough(self):
        cfg = assemble(loads("[redmd]\ngamma_init = 100\n"))
        assert cfg.redmd.gamma_init == 100.0

    def test_empty_sections_give_defaults(self):
        cfg = assemble({})
        assert cfg.run.t_sim > 0
        assert cfg.plant.kind == "pendulum"
