import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import linalg
from scipy.linalg import lapack

import chaosmask as cm
from chaosmask import numerics, synthesis
from chaosmask.errors import GainNotCertifiedError, InfeasibleSynthesisError, \
    NoStabilizingSolutionError, RiccatiFailureError
from chaosmask.models import ChaoticMask, PolynomialMap
from chaosmask.synthesis import DELTA_RTOL, EPS_GRID, ETA_GRID, ObserverGain, \
    UnobservabilityReport, _error_weight, default_w_max
from strategies import custom_masks, riccati_lapack_counts, stabilized_plants


def byers_hamiltonian_off_axis(A, C, gamma):
    """Whether every eigenvalue of ``[[A, gamma I], [C'C/gamma - gamma I, -A']]``
    lies more than 1e-8 ||H||_1 from the imaginary axis: no singular value of
    ``[j w I - A; C]`` equals gamma at any real w."""
    n = A.shape[0]
    H = np.block([[A, gamma * np.eye(n)], [C.T @ C / gamma - gamma * np.eye(n), -A.T]])
    return np.min(np.abs(np.linalg.eigvals(H).real)) > 1e-8 * np.linalg.norm(H, 1)


def assert_bracket(A, C, rng, n_random=200):
    """The oracles every report must meet: delta_hi is attained at w_star and
    is the minimum of the evaluated samples; delta is nonnegative, certified
    by Byers' Hamiltonian, and at most sigma_min on the full 2000-point grid,
    at random frequencies and next to w_star."""
    rep = cm.distance_to_unobservability(A, C)
    if rep.delta > 0.0:
        assert byers_hamiltonian_off_axis(A, C, rep.delta)
    assert rep.delta_hi == cm.min_singular_value_freq(A, C, rep.w_star)
    assert rep.delta_hi == np.min(rep.profile[:, 1])
    assert np.all(np.diff(rep.profile[:, 0]) >= 0.0)
    assert 0.0 <= rep.delta <= rep.delta_hi
    w_max = default_w_max(A)
    ws = np.concatenate([rng.uniform(0.0, w_max, n_random),
                         rep.w_star + np.linspace(-1e-3, 1e-3, 21)])
    assert rep.delta <= np.min(cm.frequency_profile(A, C)[:, 1])
    assert rep.delta <= np.min(cm.min_singular_values_freq(A, C, ws))
    return rep


class TestDistance:
    def test_scalar_known_value(self):
        # sigma_min([jw; 1]) = sqrt(w^2 + 1), minimized at w = 0: delta = 1.
        rep = cm.distance_to_unobservability(np.array([[0.0]]), np.array([[1.0]]))
        assert rep.delta_hi == pytest.approx(1.0, abs=1e-15)
        assert rep.delta == pytest.approx(1.0, abs=1e-8)
        assert rep.w_star == 0.0

    def test_unobservable_pair_near_zero(self):
        A = np.diag([2.0, -1.0])
        C = np.array([[0.0, 1.0]])
        rep = cm.distance_to_unobservability(A, C)
        # The unobserved mode s = 2 lies off the imaginary axis, so the pencil
        # keeps full rank at every real w: sigma_min(w) = sqrt(w^2 + 2), the
        # smaller of the observed mode's sqrt(w^2 + 1 + 1) and the unobserved
        # one's sqrt(w^2 + 4).  The distance is sqrt(2), at w = 0.
        assert rep.delta_hi == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert rep.delta <= np.sqrt(2.0)
        assert rep.delta == pytest.approx(np.sqrt(2.0), rel=1e-9)
        assert rep.w_star == 0.0

    def test_refinement_never_worse_than_grid(self, rng):
        # The upper end is at most the 2000-point grid's minimum, up to the
        # bracket's relative tolerance.
        for _ in range(5):
            A = rng.standard_normal((4, 4))
            C = rng.standard_normal((2, 4))
            rep = assert_bracket(A, C, rng)
            grid = cm.frequency_profile(A, C)[:, 1]
            assert rep.delta_hi <= np.min(grid) * (1.0 + DELTA_RTOL)

    def test_profile_shape_and_range(self):
        A = np.array([[0.0, 1.0], [-1.0, -1.0]])
        C = np.array([[1.0, 0.0]])
        profile = cm.frequency_profile(A, C, n_grid=150)
        assert profile.shape == (150, 2)
        assert profile[0, 0] == 0.0
        assert profile[-1, 0] == pytest.approx(default_w_max(A))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            cm.frequency_profile(np.eye(2), np.eye(2), w_max=-1.0)
        with pytest.raises(ValueError):
            cm.frequency_profile(np.eye(2), np.eye(2), n_grid=10)

    @pytest.mark.parametrize("apply_beta, delta", [(False, 0.3924623663175885),
                                                   (True, 0.2914032678279444)],
                             ids=["unscaled", "scaled"])
    def test_bundled_delta_pinned(self, plant, cfg, apply_beta, delta):
        A, C = cm.extended_pair(plant, cm.build_mask(cfg, apply_beta=apply_beta))
        assert cm.distance_to_unobservability(A, C).delta_hi == pytest.approx(delta, rel=1e-13)

    # The grid-and-golden-section values that the level-set bracket replaced.
    @pytest.mark.parametrize("apply_beta, swept", [(False, 0.39246236631758863),
                                                   (True, 0.2914032678279435)],
                             ids=["unscaled", "scaled"])
    def test_bundled_bracket_holds_sweep_value(self, plant, cfg, rng, apply_beta, swept):
        A, C = cm.extended_pair(plant, cm.build_mask(cfg, apply_beta=apply_beta))
        rep = assert_bracket(A, C, rng)
        assert rep.delta_hi == pytest.approx(swept, rel=1e-12)
        assert rep.delta <= swept
        # Measured widths: 5.0e-13 (unscaled) and 3.6e-12 (scaled).
        assert rep.delta_hi - rep.delta <= 1e-10 * rep.delta_hi

    def test_lightly_damped_minimum_off_zero(self, rng):
        # Modes -0.01 +- 3j, seen weakly through C: sigma_min dips near w = 3.
        A = np.array([[-0.01, 3.0], [-3.0, -0.01]])
        C = np.array([[0.05, 0.0]])
        rep = assert_bracket(A, C, rng)
        assert rep.w_star == pytest.approx(3.0, rel=1e-3)
        fine = cm.min_singular_values_freq(A, C, np.linspace(2.99, 3.01, 20001))
        assert rep.delta <= np.min(fine)
        assert rep.delta_hi <= np.min(fine) * (1.0 + DELTA_RTOL)
        assert rep.delta_hi < cm.min_singular_value_freq(A, C, 0.0) / 10.0
        assert rep.delta_hi - rep.delta <= 1e-10 * rep.delta_hi

    def test_descent_from_w0_when_its_crossing_is_missed(self, rng):
        # sigma_min falls from w = 0 to a minimum near w = 0.6.  At the start
        # level sigma_min(0), the crossing at w = 0 is a double eigenvalue of
        # the Hamiltonian, which the eigensolver puts off the axis here; the
        # first interval still starts at w = 0, so the descent is not lost.
        A = np.array([[-0.04008983133342694, -0.8707809099931325],
                      [0.8707809099931325, -0.04008983133342694]])
        C = np.array([[0.8604205795433121, 0.1758956355213621],
                      [-1.014418995184174, -0.7781427006222048]])
        rep = assert_bracket(A, C, rng)
        assert rep.w_star == pytest.approx(0.6, abs=0.01)
        assert rep.delta_hi <= np.min(cm.frequency_profile(A, C)[:, 1]) * (1.0 + DELTA_RTOL)
        assert rep.delta_hi < cm.min_singular_value_freq(A, C, 0.0) - 0.03

    def test_zero_at_w0_gives_zero_bracket(self):
        # An unobservable mode at s = 0: sigma_min(0) is exactly 0.
        rep = cm.distance_to_unobservability(np.diag([0.0, -1.0]), np.array([[0.0, 1.0]]))
        assert rep.delta == rep.delta_hi == rep.w_star == 0.0
        assert rep.profile.tolist() == [[0.0, 0.0]]

    def test_level_too_small_for_hamiltonian(self):
        # sigma_min(0) = 1e-310, so C'C / gamma overflows: the upper end stays
        # at the attained value and the lower end is 0, without a warning.
        A = np.diag([1e-310, -1.0])
        C = np.array([[0.0, 1.0]])
        rep = cm.distance_to_unobservability(A, C)
        assert rep.delta_hi == cm.min_singular_value_freq(A, C, 0.0) == 1e-310
        assert rep.delta == 0.0

    def test_gram_overflow(self):
        # C'C overflows: no level can be tested, so only 0 is certified.
        A, C = np.array([[-1.0]]), np.array([[1e200]])
        rep = cm.distance_to_unobservability(A, C)
        assert rep.delta_hi == pytest.approx(1e200, rel=1e-15)
        assert rep.delta == 0.0

    @pytest.mark.parametrize("fields", [
        dict(delta=0.2, delta_hi=0.1, w_star=0.0),
        dict(delta=-0.1, delta_hi=0.1, w_star=0.0),
        dict(delta=0.0, delta_hi=np.inf, w_star=0.0),
        dict(delta=np.nan, delta_hi=0.1, w_star=0.0),
        dict(delta=0.0, delta_hi=0.1, w_star=np.nan),
    ], ids=["lo-above-hi", "negative", "inf", "nan-delta", "nan-w"])
    def test_report_rejects_bad_bracket(self, fields):
        with pytest.raises(ValueError):
            UnobservabilityReport(profile=np.zeros((1, 2)), **fields)

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(plant_k=stabilized_plants(), mask=custom_masks())
    def test_random_stacked_pairs(self, plant_k, mask):
        A, C = cm.extended_pair(plant_k[0], mask)
        assert_bracket(A, C, np.random.default_rng(0), n_random=50)


class TestSufficiency:
    def test_verdict(self):
        rep = cm.distance_to_unobservability(np.array([[0.0]]), np.array([[1.0]]))
        assert cm.check_sufficiency(rep, 0.5)
        assert not cm.check_sufficiency(rep, 1.5)
        with pytest.raises(ValueError):
            cm.check_sufficiency(rep, -0.1)

    def test_verdict_rests_on_lower_end(self):
        # An ell inside the bracket is screened out: delta* may lie below it.
        rep = UnobservabilityReport(delta=0.4, delta_hi=0.5, w_star=0.0,
                                    profile=np.array([[0.0, 0.5]]))
        assert cm.check_sufficiency(rep, 0.39)
        assert not cm.check_sufficiency(rep, 0.45)


def tiny_extended():
    """A small calibrated stacked system for synthesis unit tests."""
    plant = cm.LtiPlant(A=np.array([[0.0, 1.0], [-2.0, -3.0]]),
                        B=np.array([[0.0], [1.0]]),
                        C=np.array([[1.0, 0.0], [0.0, 1.0]]))
    mask = ChaoticMask(Phi=np.array([[0.0, -1.0], [1.0, -0.5]]),
                       phi=PolynomialMap(2, 2, ((), ((-0.05, (0, 2)),))),
                       Lambda=np.array([[1.0, 0.0], [0.0, 1.0]]),
                       sigma=np.array([2.0, 2.0]))
    cm.estimate_lipschitz(mask)
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
        with pytest.raises(InfeasibleSynthesisError) as info:
            cm.synthesize_gain(ext)
        exc = info.value
        assert [(eta, eps) for eta, eps, _ in exc.grid] == [
            (eta, eps) for eta in ETA_GRID for eps in EPS_GRID]
        outcomes = [out for _, _, out in exc.grid]
        margins = [out for out in outcomes if not isinstance(out, str)]
        assert all(out in ("axis", "no PD") for out in outcomes if isinstance(out, str))
        assert all(isinstance(m, float) and m >= 0 for m in margins)
        assert exc.best_margin == min(margins, default=None)
        assert (f"75 grid points: {outcomes.count('axis')} axis, "
                f"{outcomes.count('no PD')} no PD, {len(margins)} with a margin") in str(exc)

    def test_returned_gain_recertifies(self, cfg, plant):
        # The design-scan design whose best grid margin, -5.79e-9, sits at the
        # round-off floor: verify_gain refuses that gain, so it must not be
        # returned.
        ext = design_84(cfg, plant)
        assert ext.ell == 0.17540980612815094
        try:
            gain = cm.synthesize_gain(ext)
        except InfeasibleSynthesisError as exc:
            assert exc.best_margin is not None
        else:
            assert cm.verify_gain(ext, gain.L).margin < 0


def design_84(cfg, plant):
    """The design-scan design (seed 201, ``design-84``) whose best grid margin
    sits at the round-off floor."""
    design = copy.deepcopy(cfg)
    design["mask"].update(
        beta=17.166592460963233,
        Lambda=[[-0.4471646427699527, 0.0009319057710719392, 1.0122173625769482],
                [-0.6022553793906749, 0.5516623639783935, -1.421057331591932]],
        sigma=[2.104250914714517, 2.8677987194843224, 0.13962238387475592],
        d_bound=6.499657563492848, ell=0.17540980612815094)
    return cm.build_extended(plant, cm.calibrate_mask(cm.build_mask(design), design))


def per_point_riccati(A, R, Q, kinds=None):
    """The Riccati solver one point at a time, as before the grid was batched:
    an ``np.block`` Hamiltonian, one unsorted ``dgees``, both branches built
    before either is tested, then the R = 0 Sylvester candidate.  ``kinds``
    collects the candidate each solution came from."""
    n = A.shape[0]
    H = np.block([[A, R], [-Q, -A.T]])
    T, _, wr, _, Z, _, info = lapack.dgees(lambda re, im: None, H)
    if info != 0:
        raise RiccatiFailureError("no Schur form")
    if np.min(np.abs(wr)) <= 1e-8:
        raise NoStabilizingSolutionError("axis")
    candidates = []
    lhp = wr < 0.0
    for kind, select in (("stable", lhp), ("anti-stable", ~lhp)):
        _, Zs, _, _, m, _, _, info = lapack.dtrsen(select, T, Z, job="N")
        if info == 0 and m == n and not np.linalg.cond(Zs[:n, :n]) > 1e12:
            P = Zs[n:, :n] @ np.linalg.inv(Zs[:n, :n])
            candidates.append((kind, 0.5 * (P + P.T)))
    if np.linalg.norm(R, "fro") == 0.0:
        P = linalg.solve_continuous_lyapunov(A.T, -Q)
        candidates.append(("sylvester", 0.5 * (P + P.T)))
    for kind, P in candidates:
        res = np.linalg.norm(A.T @ P + P @ A + P @ R @ P + Q, "fro")
        if res < 1e-6 * max(1.0, np.linalg.norm(P, "fro") ** 2) \
                and np.min(np.linalg.eigvalsh(P)) > 0.0:
            if kinds is not None:
                kinds.append(kind)
            return P
    raise RiccatiFailureError("no PD branch")


def per_point_verify_lmi(ext, P, N):
    """The block margin of one certificate through ``np.block`` and a direct
    eigenvalue test with the round-off band."""
    A, C, ell = ext.Abold, ext.Cbold, ext.ell
    upper = P @ A + A.T @ P - N @ C - C.T @ N.T + _error_weight(ext)
    upper = 0.5 * (upper + upper.T)
    block = upper if ell == 0.0 else np.block([[upper, P], [P, -(ell ** -2) * np.eye(ext.n)]])
    eig = np.linalg.eigvalsh(0.5 * (block + block.T))
    worst = float(eig[-1])
    roundoff = block.shape[0] * np.finfo(float).eps * float(np.max(np.abs(eig)))
    return worst if worst < -roundoff else max(worst, 0.0)


def per_point_verify_gain(ext, L):
    A_cl = ext.Abold - L @ ext.Cbold
    R = (ext.ell ** 2) * np.eye(ext.n)
    for eps in EPS_GRID:
        try:
            P = per_point_riccati(A_cl, R, _error_weight(ext) + eps * np.eye(ext.n))
        except (RiccatiFailureError, NoStabilizingSolutionError):
            continue
        if per_point_verify_lmi(ext, P, P @ L) < 0:
            return
    raise GainNotCertifiedError("no slack")


def per_point_synthesize_gain(ext, kinds=None):
    """The (eta, eps) search one grid point at a time: the reference that the
    batched :func:`synthesize_gain` must match bit for bit.  Like it, it skips
    a candidate whose ``L = P^-1 N`` solve warns that P is ill-conditioned, or
    whose ``N = P L`` fails :class:`ObserverGain`'s check."""
    A, C, n, ell = ext.Abold, ext.Cbold, ext.n, ext.ell
    R = (ell ** 2) * np.eye(n)
    CtC = C.T @ C
    certified, best, grid = [], None, []
    for eta in ETA_GRID:
        N = eta * C.T
        for eps in EPS_GRID:
            Q = _error_weight(ext) - 2.0 * eta * CtC + eps * np.eye(n)
            try:
                P = per_point_riccati(A, R, Q, kinds)
            except NoStabilizingSolutionError:
                grid.append((float(eta), float(eps), "axis"))
                continue
            except RiccatiFailureError:
                grid.append((float(eta), float(eps), "no PD"))
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error", linalg.LinAlgWarning)
                try:
                    L = linalg.solve(P, N)
                except linalg.LinAlgWarning:
                    L = None
            margin = per_point_verify_lmi(ext, P, N)
            grid.append((float(eta), float(eps), margin))
            if best is None or margin < best:
                best = margin
            if margin < 0:
                certified.append((margin, L, P, N))
    for margin, L, P, N in sorted(certified, key=lambda c: c[0]):
        try:
            if L is None:
                continue
            gain = ObserverGain(L=L, P=P, N=N, margin=margin, ell_used=ell)
            per_point_verify_gain(ext, L)
        except (ValueError, GainNotCertifiedError):
            continue
        return gain
    raise InfeasibleSynthesisError(best, grid)


def synthesis_outcome(synthesize, ext):
    try:
        return synthesize(ext)
    except InfeasibleSynthesisError as exc:
        return exc


def assert_same_synthesis(ext):
    """The batched search returns the per-point search's gain bit for bit, or
    fails with the same best margin and the same outcome at every grid point;
    returns the batched outcome.

    The reference solves ``L = P^-1 N`` at every solved point, and the R = 0
    Sylvester candidate at every point; its warnings about ill-conditioned
    instances that the batched search never builds are ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", linalg.LinAlgWarning)
        warnings.filterwarnings("ignore", "Input \"a\" has an eigenvalue pair", RuntimeWarning)
        want = synthesis_outcome(per_point_synthesize_gain, ext)
    got = synthesis_outcome(cm.synthesize_gain, ext)
    if isinstance(want, InfeasibleSynthesisError):
        assert isinstance(got, InfeasibleSynthesisError)
        assert got.best_margin == want.best_margin
        assert got.grid == want.grid
    else:
        assert isinstance(got, ObserverGain)
        for name in ("L", "P", "N"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.margin == want.margin
        assert got.ell_used == want.ell_used
    return got


#: sigma of the unscaled Rossler masker box that design-scan designs scale by beta.
DESIGN_SIGMA = np.array([2.104250914714517, 2.8677987194843224, 2.3968])


def design_scan_style(cfg, plant, rng):
    """A design-scan-style design: log beta uniform over [0, log 300], Lambda
    uniform in [-2, 2], the box (sigma_1, sigma_2, sigma_3 / beta)."""
    beta = float(np.exp(rng.uniform(0.0, np.log(300.0))))
    Lam = rng.uniform(-2.0, 2.0, (2, 3))
    sigma = DESIGN_SIGMA * np.array([1.0, 1.0, 1.0 / beta])
    design = copy.deepcopy(cfg)
    design["mask"].update(beta=beta, Lambda=Lam.tolist(), sigma=sigma.tolist(),
                          d_bound=float(np.linalg.norm(Lam, 2) * np.linalg.norm(sigma)))
    return cm.build_extended(plant, cm.calibrate_mask(cm.build_mask(design), design))


def unstable_plant_linear_mask():
    """An unstable plant observed through C, with a stable linear masker and
    ell = 0: both Hamiltonian branches fail on most grid points, and the
    R = 0 Sylvester candidate solves them."""
    plant = cm.LtiPlant(A=[[0.5, 1.0], [0.0, 0.3]], B=[[0.0], [1.0]], C=[[1.0, 0.0]])
    mask = ChaoticMask(Phi=[[-1.0, 0.5], [-0.5, -1.0]], phi=PolynomialMap.zero(2, 2),
                       Lambda=[[0.01, 0.02]], sigma=[1.0, 1.0], ell=0.0, d_bound=1.0)
    return cm.build_extended(plant, mask)


class TestBatchedSynthesisMatchesPerPoint:
    def test_bundled_masks(self, plant, mask_unscaled, ext_scaled, gain):
        assert isinstance(assert_same_synthesis(
            cm.build_extended(plant, mask_unscaled)), InfeasibleSynthesisError)
        got = assert_same_synthesis(ext_scaled)
        assert np.array_equal(got.L, gain.L)

    def test_round_off_floor_design(self, cfg, plant):
        assert_same_synthesis(design_84(cfg, plant))

    def test_design_scan_style_designs(self, cfg, plant):
        rng = np.random.default_rng(20261018)
        outcomes = [assert_same_synthesis(design_scan_style(cfg, plant, rng))
                    for _ in range(20)]
        feasible = sum(isinstance(out, ObserverGain) for out in outcomes)
        assert 0 < feasible < 20

    def test_zero_lipschitz_mask(self):
        # ell = 0 gives R = 0 and the n x n certificate block.
        ext = unstable_plant_linear_mask()
        kinds = []
        per_point_synthesize_gain(ext, kinds)
        assert "sylvester" in kinds
        assert assert_same_synthesis(ext).margin < 0


def grid_work(ext, monkeypatch):
    """Run :func:`synthesize_gain`; return the Schur forms and stable-branch
    reorderings of its one grid call (see :func:`riccati_lapack_counts`), and
    the grid's outcomes."""
    grids = []

    def counted_grid(A, R, Qs):
        with riccati_lapack_counts(monkeypatch) as counts:
            grids.append((counts, numerics.solve_riccati_grid(A, R, Qs)))
        return grids[-1][1]

    monkeypatch.setattr(synthesis, "solve_riccati_grid", counted_grid)
    synthesis_outcome(cm.synthesize_gain, ext)
    (work,) = grids
    return work


class TestGridWork:
    def test_unscaled_mask_all_axis(self, plant, mask_unscaled, monkeypatch):
        # All 75 points are axis: one Schur form per eps column finds it.
        counts, outcomes = grid_work(cm.build_extended(plant, mask_unscaled), monkeypatch)
        assert len(outcomes) == len(ETA_GRID) * len(EPS_GRID)
        assert all(isinstance(out, NoStabilizingSolutionError) for out in outcomes)
        assert counts["dgees"] <= len(EPS_GRID)
        assert counts["stable"] == 0

    def test_scaled_mask(self, ext_scaled, monkeypatch):
        counts, outcomes = grid_work(ext_scaled, monkeypatch)
        off_axis = sum(not isinstance(out, NoStabilizingSolutionError) for out in outcomes)
        assert 0 < off_axis < len(outcomes)
        assert counts["dgees"] <= off_axis + len(EPS_GRID)
        assert counts["stable"] <= len(EPS_GRID)


def ell_inverse_square_overflows(ell):
    try:
        ell ** -2
    except OverflowError:
        return True
    return False


class TestRandomSystems:
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(plant_k=stabilized_plants(), mask=custom_masks())
    def test_batched_equals_per_point_and_recertifies(self, plant_k, mask):
        plant, K = plant_k
        assert cm.is_hurwitz(plant.A - plant.B @ K)
        ext = cm.build_extended(plant, mask)
        if ext.ell > 0.0 and ell_inverse_square_overflows(ext.ell):
            with pytest.raises(ValueError, match="too small"):
                cm.synthesize_gain(ext)
            return
        got = assert_same_synthesis(ext)
        if isinstance(got, ObserverGain):
            assert cm.verify_gain(ext, got.L).margin < 0

    def test_unrepresentable_ell_rejected(self):
        # A tiny monomial coefficient gives ell = 1e-200, whose ell^-2 in the
        # certificate block overflowed a Python float (OverflowError).
        ext = unstable_plant_linear_mask()
        ext.mask.ell = 1e-200
        assert ell_inverse_square_overflows(ext.ell)
        with pytest.raises(ValueError, match="too small for the certificate block"):
            cm.synthesize_gain(ext)
        with pytest.raises(ValueError, match="too small for the certificate block"):
            cm.verify_lmi(ext, np.eye(ext.n), np.zeros((ext.n, 1)))

    def test_degenerate_system_warns_nothing(self):
        # Found by the random systems: tiny entries of A, C and Lambda, and
        # ell = 0.  The R = 0 Sylvester candidate warned of an eigenvalue pair
        # summing to zero on 37 grid points, and solving L = P^-1 N warned of
        # an ill-conditioned P on the 2 certified candidates tried.
        plant = cm.LtiPlant(A=[[-2.0, 7.317987414818249e-140],
                               [0.8355440382990467, 7.317987414818249e-140]],
                            B=[[0.21544858592401486], [0.18907113932192]],
                            C=[[2.973639903090757e-208, -0.8033760640852721]])
        mask = ChaoticMask(Phi=[[-0.21331402193091886, 0.99999],
                                [0.38689733467219356, -1.719049629400279]],
                           phi=PolynomialMap.zero(2, 2),
                           Lambda=[[0.6128705102683667, 2.2250738585072014e-308]],
                           sigma=[0.1, 0.1], d_bound=1.0)
        cm.estimate_lipschitz(mask)
        ext = cm.build_extended(plant, mask)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleSynthesisError) as info:
                cm.synthesize_gain(ext)
        assert info.value.best_margin < 0
        assert_same_synthesis(ext)

    def test_weakly_coupled_grid_solved_point_by_point(self):
        # Found by the random systems: a plant pole at -1.9e-25 and ell =
        # 3.2e-10, so R = ell^2 I is below round-off next to A.  The
        # Hamiltonian's eigenvalues near the axis are the pole's, moved by
        # rounding alone, and one-point solves label points along an eps
        # column axis or not at random; the chain rules must stand aside.
        plant = cm.LtiPlant(A=[[-1.9245952097877696e-25]], B=[[0.6256735131301476]],
                            C=[[0.5]])
        mask = ChaoticMask(Phi=[[-1.5031147182395577, 0.12011290985717449],
                                [-0.2841363281029178, -1.0]],
                           phi=PolynomialMap(2, 2, (((-1e-09, (1, 1)),), ())),
                           Lambda=[[-0.2542858426697857, 1.0]],
                           sigma=[0.25289778549157227, 0.18961930121353754], d_bound=1.0)
        cm.estimate_lipschitz(mask)
        ext = cm.build_extended(plant, mask)
        assert 0.0 < ext.ell < 1e-9
        assert_same_synthesis(ext)

    def test_ill_conditioned_certificate_skipped(self):
        # C = [1e-8, -1.66] observes the first plant state 1e-8 times as
        # strongly: every certified P is too ill-conditioned for L = P^-1 N to
        # pass ObserverGain's N = P L check, which escaped as a ValueError.
        plant = cm.LtiPlant(A=[[-1.5452804919760563, -1.1410561093730667],
                               [1.0867868344163112, 0.8084622703433149]],
                            B=[[0.5292705860490527], [-1.3634133688945562]],
                            C=[[1e-08, -1.6623008038692744]])
        mask = ChaoticMask(Phi=[[-1.0]], phi=PolynomialMap(1, 1, (((1e-06, (2,)),),)),
                           Lambda=[[-0.15346296518112434]], sigma=[1.0], d_bound=1.0)
        cm.estimate_lipschitz(mask)
        ext = cm.build_extended(plant, mask)
        with pytest.raises(InfeasibleSynthesisError) as info:
            cm.synthesize_gain(ext)
        assert info.value.best_margin < 0
        assert_same_synthesis(ext)


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
