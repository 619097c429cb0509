import copy
import math

import numpy as np
import pytest

import chaosmask as cm
from chaosmask.errors import GainNotCertifiedError, InfeasibleSynthesisError
from chaosmask.models import ChaoticMask, PolynomialMap
from chaosmask.synthesis import ObserverGain, _error_weight, default_w_max


class TestDistance:
    def test_scalar_known_value(self):
        # sigma_min([jw; 1]) = sqrt(w^2 + 1), minimized at w = 0: delta = 1.
        rep = cm.distance_to_unobservability(np.array([[0.0]]), np.array([[1.0]]),
                                             w_max=5.0, n_grid=200)
        assert rep.delta == pytest.approx(1.0, abs=1e-8)
        assert rep.w_star == pytest.approx(0.0, abs=1e-6)

    def test_unobservable_pair_near_zero(self):
        A = np.diag([2.0, -1.0])
        C = np.array([[0.0, 1.0]])
        rep = cm.distance_to_unobservability(A, C, w_max=10.0, n_grid=500)
        # Rank drops at w = 0 along the unobserved mode only for s = 2 (real);
        # the frequency sweep cannot reach real s, but the distance is still
        # bounded by the smallest perturbation on the sweep.
        assert rep.delta <= np.sqrt(5.0)

    def test_refinement_never_worse_than_grid(self, rng):
        for _ in range(5):
            A = rng.standard_normal((4, 4))
            C = rng.standard_normal((2, 4))
            rep = cm.distance_to_unobservability(A, C, n_grid=300)
            assert rep.delta <= np.min(rep.profile[:, 1]) + 1e-15

    def test_profile_shape_and_range(self):
        A = np.array([[0.0, 1.0], [-1.0, -1.0]])
        C = np.array([[1.0, 0.0]])
        rep = cm.distance_to_unobservability(A, C, n_grid=150)
        assert rep.profile.shape == (150, 2)
        assert rep.profile[0, 0] == 0.0
        assert rep.profile[-1, 0] == pytest.approx(default_w_max(A))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            cm.distance_to_unobservability(np.eye(2), np.eye(2), w_max=-1.0)
        with pytest.raises(ValueError):
            cm.distance_to_unobservability(np.eye(2), np.eye(2), n_grid=10)

    @pytest.mark.parametrize("apply_beta, delta", [(False, 0.3924623663175885),
                                                   (True, 0.2914032678279444)],
                             ids=["unscaled", "scaled"])
    def test_bundled_delta_pinned(self, plant, cfg, apply_beta, delta):
        A, C = cm.extended_pair(plant, cm.build_mask(cfg, apply_beta=apply_beta))
        assert cm.distance_to_unobservability(A, C).delta == pytest.approx(delta, rel=1e-13)

    @pytest.mark.parametrize("apply_beta", [False, True], ids=["unscaled", "scaled"])
    def test_bundled_pairs_match_pointwise_sweep(self, plant, cfg, apply_beta):
        A, C = cm.extended_pair(plant, cm.build_mask(cfg, apply_beta=apply_beta))
        rep = cm.distance_to_unobservability(A, C)
        delta, w_star, profile = reference_distance(A, C)
        assert np.array_equal(rep.profile, profile)
        assert rep.delta == delta
        assert rep.w_star == w_star


def reference_distance(A, C, n_grid=2000):
    """The sweep one frequency at a time, with the same golden-section refinement."""
    ws = np.linspace(0.0, default_w_max(A), n_grid)
    vals = np.array([cm.min_singular_value_freq(A, C, w) for w in ws])
    i = int(np.argmin(vals))
    a, b = float(ws[max(i - 1, 0)]), float(ws[min(i + 1, n_grid - 1)])
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - golden * (b - a), a + golden * (b - a)
    fc, fd = cm.min_singular_value_freq(A, C, c), cm.min_singular_value_freq(A, C, d)
    while b - a > 1e-8 * max(1.0, abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = cm.min_singular_value_freq(A, C, c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = cm.min_singular_value_freq(A, C, d)
    w_ref, f_ref = (c, fc) if fc < fd else (d, fd)
    if f_ref <= vals[i]:
        return f_ref, w_ref, np.column_stack([ws, vals])
    return float(vals[i]), float(ws[i]), np.column_stack([ws, vals])


class TestSufficiency:
    def test_verdict(self):
        rep = cm.distance_to_unobservability(np.array([[0.0]]), np.array([[1.0]]),
                                             w_max=5.0, n_grid=200)
        assert cm.check_sufficiency(rep, 0.5)
        assert not cm.check_sufficiency(rep, 1.5)
        with pytest.raises(ValueError):
            cm.check_sufficiency(rep, -0.1)


def tiny_extended():
    """A small calibrated stacked system for synthesis unit tests."""
    plant = cm.LtiPlant(A=np.array([[0.0, 1.0], [-2.0, -3.0]]),
                        B=np.array([[0.0], [1.0]]),
                        C=np.array([[1.0, 0.0], [0.0, 1.0]]))
    mask = ChaoticMask(Phi=np.array([[0.0, -1.0], [1.0, -0.5]]),
                       phi=PolynomialMap(2, 2, ((), ((-0.05, (0, 2)),))),
                       Lambda=np.array([[1.0, 0.0], [0.0, 1.0]]),
                       sigma=np.array([2.0, 2.0]))
    cm.estimate_lipschitz(mask, grid_per_axis=5)
    mask.d_bound = 2.0
    return cm.build_extended(plant, mask)


class TestVerifyLmi:
    def test_margin_matches_direct_eigenvalue(self, ext_scaled, gain):
        m = cm.verify_lmi(ext_scaled, gain.P, gain.N)
        A, C, P, N = ext_scaled.Abold, ext_scaled.Cbold, gain.P, gain.N
        upper = P @ A + A.T @ P - N @ C - C.T @ N.T + _error_weight(ext_scaled)
        upper = 0.5 * (upper + upper.T)
        block = np.block([[upper, P], [P, -(ext_scaled.ell ** -2) * np.eye(ext_scaled.n)]])
        assert m == pytest.approx(np.max(np.linalg.eigvalsh(block)))

    def test_non_pd_p_rejected(self, ext_scaled, gain):
        with pytest.raises(ValueError):
            cm.verify_lmi(ext_scaled, -np.eye(ext_scaled.n), gain.N)

    def test_roundoff_level_certificate_rejected(self):
        # With ell = 0 the block is diag(1 - a, -2) for Phi = -a, P = diag(0.5, 1)
        # and N = 0, exactly.  One ulp above a = 1 its worst eigenvalue -2^-52 lies
        # inside the eigensolver's round-off band 2 eps ||block||_2, and must not
        # certify; 2^-40 lies outside it.
        def ext_for(a):
            mask = ChaoticMask(Phi=[[-a]], phi=PolynomialMap.zero(1, 1), Lambda=[[1.0]],
                               sigma=[1.0], ell=0.0, d_bound=1.0)
            plant = cm.LtiPlant(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
            return cm.build_extended(plant, mask)

        P, N = np.diag([0.5, 1.0]), np.zeros((2, 1))
        ok, worst = cm.is_negative_definite(np.diag([-2.0 ** -52, -2.0]))
        assert not ok and worst == -2.0 ** -52
        assert cm.verify_lmi(ext_for(1.0 + 2.0 ** -52), P, N) == 0.0
        assert cm.verify_lmi(ext_for(1.0 + 2.0 ** -40), P, N) == -2.0 ** -40


class TestSynthesizeGain:
    def test_tiny_system_certifies(self):
        ext = tiny_extended()
        gain = cm.synthesize_gain(ext)
        assert gain.margin < 0
        assert cm.is_hurwitz(ext.Abold - gain.L @ ext.Cbold)

    def test_case_study_certifies(self, gain, ext_scaled):
        assert gain.margin < 0
        assert gain.ell_used == pytest.approx(ext_scaled.ell)
        assert cm.verify_lmi(ext_scaled, gain.P, gain.N) == pytest.approx(gain.margin)

    def test_infeasible_reports_best_margin(self):
        # An absurdly large Lipschitz constant defeats every grid point.
        ext = tiny_extended()
        ext.mask.ell = 1e6
        with pytest.raises(InfeasibleSynthesisError):
            cm.synthesize_gain(ext)


    def test_returned_gain_recertifies(self, cfg, plant):
        # The design-scan design whose best grid margin, -5.79e-9, sits at the
        # round-off floor: verify_gain refuses that gain, so it must not be
        # returned.
        design = copy.deepcopy(cfg)
        design["mask"].update(
            beta=17.166592460963233,
            Lambda=[[-0.4471646427699527, 0.0009319057710719392, 1.0122173625769482],
                    [-0.6022553793906749, 0.5516623639783935, -1.421057331591932]],
            sigma=[2.104250914714517, 2.8677987194843224, 0.13962238387475592],
            d_bound=6.499657563492848, ell=0.17540980612815094)
        mask = cm.calibrate_mask(cm.build_mask(design), design)
        ext = cm.build_extended(plant, mask)
        assert ext.ell == 0.17540980612815094
        try:
            gain = cm.synthesize_gain(ext)
        except InfeasibleSynthesisError as exc:
            assert exc.best_margin is not None
        else:
            assert cm.verify_gain(ext, gain.L).margin < 0


class TestVerifyGain:
    def test_roundtrip_on_synthesized_gain(self, ext_scaled, gain):
        again = cm.verify_gain(ext_scaled, gain.L)
        assert again.margin < 0
        assert np.allclose(again.L, gain.L)

    def test_published_case_study_gain_certifies(self, ext_scaled):
        # The case study's reported extended gain also certifies against our
        # independently estimated box and Lipschitz constant.
        L = np.array([[-147.5759, 192.5241], [-83.7116, 107.5186],
                      [-31.3697, 4.5360], [-10.1254, 6.4027],
                      [-25.5599, 17.7149], [-8.3158, 2.4874],
                      [175.7012, -197.6720]])
        g = cm.verify_gain(ext_scaled, L)
        assert g.margin < 0
        assert cm.is_hurwitz(ext_scaled.Abold - L @ ext_scaled.Cbold)

    def test_destabilizing_gain_rejected(self, ext_scaled):
        bad = -10.0 * np.ones((ext_scaled.n, ext_scaled.Cbold.shape[0]))
        with pytest.raises(GainNotCertifiedError):
            cm.verify_gain(ext_scaled, bad)


class TestObserverGain:
    def test_validation(self, gain):
        with pytest.raises(ValueError, match="negative"):
            ObserverGain(L=gain.L, P=gain.P, N=gain.N, margin=0.1,
                         ell_used=gain.ell_used)
        with pytest.raises(ValueError, match="N must equal"):
            ObserverGain(L=gain.L, P=gain.P, N=gain.N + 1.0, margin=-1.0,
                         ell_used=gain.ell_used)
