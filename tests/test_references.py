"""Tests for reference generation."""

import numpy as np
import pytest

from koopman_adapt.cli import cli_main
from koopman_adapt.config import assemble, loads
from koopman_adapt.errors import ConfigError
from koopman_adapt.references import ReferenceSpec, build_reference


class TestRestToRest:
    def test_samples_by_state_and_read_only(self):
        """One row per sample, position then velocity: the quintic's
        stroke samples in the columns, and no write reaches them."""
        spec = ReferenceSpec(amplitude=0.5, speed=1.0, hold=0.2)
        dt = 1e-3
        w = build_reference(spec, 50, dt)
        assert w.shape == (50, 2) and w.flags.c_contiguous
        D = spec.stroke_duration()
        tau = np.arange(50) * dt / D
        np.testing.assert_allclose(
            w[:, 0], 0.5 * (10 * tau ** 3 - 15 * tau ** 4 + 6 * tau ** 5),
            rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            w[:, 1], 0.5 * (30 * tau ** 2 - 60 * tau ** 3 + 30 * tau ** 4) / D,
            rtol=1e-12, atol=0)
        assert not w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w[3:8].ravel()[0] = 1.0

    def test_peak_velocity_matches_speed(self):
        spec = ReferenceSpec(amplitude=0.7, speed=2.0, hold=0.1)
        w = build_reference(spec, 4000, 1e-3)
        assert np.abs(w[:, 1]).max() == pytest.approx(2.0, rel=1e-3)

    def test_starts_and_dwells_at_rest(self):
        spec = ReferenceSpec(amplitude=0.5, speed=1.0, hold=0.2)
        w = build_reference(spec, 10, 1e-3)
        assert w[0, 0] == 0.0 and w[0, 1] == 0.0

    def test_reaches_amplitude_during_hold(self):
        spec = ReferenceSpec(amplitude=0.5, speed=1.0, hold=0.2)
        D = spec.stroke_duration()
        dt = 1e-3
        k_hold = int((D + 0.1) / dt)
        w = build_reference(spec, k_hold + 1, dt)
        assert w[k_hold, 0] == pytest.approx(0.5)
        assert w[k_hold, 1] == 0.0

    def test_velocity_consistent_with_position(self):
        spec = ReferenceSpec(amplitude=0.6, speed=1.5, hold=0.15)
        dt = 1e-4
        w = build_reference(spec, 20000, dt)
        fd = np.gradient(w[:, 0], dt)
        np.testing.assert_allclose(fd[1:-1], w[1:-1, 1], atol=2e-2)

    def test_cycles_repeat(self):
        spec = ReferenceSpec(amplitude=0.5, speed=1.0, hold=0.1)
        period = 2 * (spec.stroke_duration() + spec.hold)
        dt = period / 100
        w = build_reference(spec, 200, dt)
        np.testing.assert_allclose(w[:100], w[100:], atol=1e-12)


class TestOtherKinds:
    """Rest-to-rest is the only reference; a config asking for another
    kind, or for the sinusoid's frequency, is a configuration error."""

    def test_finite_over_horizon(self):
        w = build_reference(ReferenceSpec(amplitude=0.4), 5000, 1e-3)
        assert np.isfinite(w).all()

    def test_invalid_kinds_rejected(self, tmp_path, capsys):
        for setting in ("ref_kind = sinusoid", "ref_kind = hold",
                        "ref_freq = 0.5"):
            with pytest.raises(ConfigError, match=setting.split()[0]):
                assemble(loads(f"[run]\n{setting}\n"))
            path = tmp_path / "bad.cfg"
            path.write_text(f"[run]\n{setting}\n")
            assert cli_main(["simulate", str(path)]) == 1
            assert "configuration error" in capsys.readouterr().err
        with pytest.raises(ValueError):
            ReferenceSpec(speed=0.0)
