import dataclasses
import math

import numpy as np
import pytest

import chaosmask as cm
from chaosmask.errors import NotHurwitzError


class TestAttackSpecs:
    def test_fdi_direction_normalized_and_bounded(self):
        atk = cm.FdiAttack(M=0.5, t_start=30.0, direction=[3.0, 4.0])
        assert np.linalg.norm(atk.direction) == pytest.approx(1.0)
        for t in np.linspace(0.0, 10.0, 50):
            assert np.linalg.norm(atk.phi(t)) <= 0.5 + 1e-15

    def test_fdi_sin_shape(self):
        atk = cm.FdiAttack(M=1.0, t_start=0.0, direction=[1.0], shape="sin",
                           freq_hz=0.25)
        assert atk.phi(0.0)[0] == pytest.approx(0.0)
        assert atk.phi(1.0)[0] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            cm.FdiAttack(M=-1.0, t_start=0.0, direction=[1.0])
        with pytest.raises(ValueError):
            cm.FdiAttack(M=1.0, t_start=0.0, direction=[0.0, 0.0])
        with pytest.raises(ValueError):
            cm.FdiAttack(M=1.0, t_start=0.0, direction=[1.0], shape="square")
        with pytest.raises(ValueError):
            cm.ReplayAttack(tau=-1.0, t_start=5.0)
        # NaN fails every range check, as out-of-range values do.
        for M, t_start in ((np.nan, 0.0), (1.0, np.nan)):
            with pytest.raises(ValueError, match="M" if np.isnan(M) else "t_start"):
                cm.FdiAttack(M=M, t_start=t_start, direction=[1.0])
        for tau, t_start in ((np.nan, 5.0), (1.0, np.nan)):
            with pytest.raises(ValueError, match="tau" if np.isnan(tau) else "t_start"):
                cm.ReplayAttack(tau=tau, t_start=t_start)


class TestEavesdropper:
    def test_requires_stabilizing_gain(self, toy_scenario):
        # A - L_bar C = A + 5 I has eigenvalues 3 and 4.
        L_bar = np.array([[-5.0, 0.0, 0.0], [0.0, -5.0, 0.0]])
        s = dataclasses.replace(toy_scenario(False), attack=cm.EavesdropAttack(L_bar=L_bar))
        with pytest.raises(NotHurwitzError):
            cm.run_scenario(s)

    def test_observer_tracks_unmasked_channel(self, toy_scenario):
        tr = cm.run_scenario(toy_scenario(False, "eavesdrop"))
        x = tr.x[-1]
        assert np.linalg.norm(x - tr.eav_xhat[-1]) < 1e-4 * max(1.0, np.linalg.norm(x))

    def test_error_bound_positive_and_linear_in_eps(self, plant, cfg):
        L = np.asarray(cfg["unmasked_gain"], float)
        b1 = cm.eavesdrop_error_bound(plant, L, 1.0)
        b2 = cm.eavesdrop_error_bound(plant, L, 2.0)
        assert b1 > 0
        assert b2 == pytest.approx(2.0 * b1)
        assert cm.eavesdrop_error_bound(plant, L, 0.0) == 0.0

    @pytest.mark.parametrize("eps", [math.nan, -1.0])
    def test_error_bound_rejects_nan_and_negative_eps(self, plant, cfg, eps):
        # A NaN eps once passed the eps < 0 test and came back as a NaN
        # "guaranteed" bound.
        with pytest.raises(ValueError, match="eps must be >= 0"):
            cm.eavesdrop_error_bound(plant, np.asarray(cfg["unmasked_gain"], float), eps)


class TestReplayChannel:
    @pytest.fixture(scope="class")
    def replayed(self, toy_scenario):
        return cm.run_scenario(toy_scenario(True, "replay"))

    def test_replays_recorded_window(self, replayed):
        atk = replayed.attack
        win = np.flatnonzero(atk.in_window(replayed.times))
        lag = int(round(atk.tau / replayed.dt))
        assert win.size and np.allclose(replayed.chan[win], replayed.ybold[win - lag])

    def test_passthrough_outside_window(self, replayed):
        live = ~replayed.attack.in_window(replayed.times)
        assert np.array_equal(replayed.chan[live], replayed.ybold[live])

    def test_coverage_enforced(self, toy_scenario):
        with pytest.raises(ValueError, match="cover"):
            dataclasses.replace(toy_scenario(False, "replay"),
                                attack=cm.ReplayAttack(tau=5.0, t_start=2.0))


class TestFdiStealthIdentity:
    def test_delta_z_equals_phi_in_discrete_loop(self, toy_scenario):
        # The attacker's model integrates the victim's estimation difference
        # exactly, so from onset on the innovation shift of the unmasked
        # estimator is the free signal phi itself.
        s = toy_scenario(False, "fdi")
        attacked = cm.run_scenario(s)
        clean = cm.run_scenario(cm.clean_twin(s))
        on = attacked.times >= s.attack.t_start
        dz = attacked.z[on] - clean.z[on]
        assert np.max(np.linalg.norm(dz - attacked.fdi_phi[on], axis=1)) < 1e-10


class TestStealthinessMetric:
    def test_grid_mismatch_rejected(self, fdi_runs):
        attacked, clean, _ = fdi_runs["unmasked"]

        class Fake:
            times = attacked.times[:-1]
            z = attacked.z[:-1]
            attack = attacked.attack

        with pytest.raises(ValueError, match="grid"):
            cm.stealthiness_metric(Fake(), clean)

    def test_window_selection(self, fdi_runs):
        attacked, clean, _ = fdi_runs["unmasked"]
        sup, dz = cm.stealthiness_metric(attacked, clean)
        assert dz.shape == attacked.times.shape
        t0 = attacked.attack.t_start
        assert sup == pytest.approx(np.max(dz[attacked.times >= t0]))
