import numpy as np
import pytest
from scipy import linalg

import chaosmask as cm
from chaosmask import numerics
from chaosmask.errors import DivergedRunError, NoStabilizingSolutionError, NotHurwitzError, \
    RiccatiFailureError
from chaosmask.models import PolynomialMap
from chaosmask.numerics import is_negative_definite
from chaosmask.sim import masker_loop
from chaosmask.synthesis import EPS_GRID, ETA_GRID, _error_weight, default_w_max
from strategies import riccati_lapack_counts, rk4, stepper


def random_hurwitz(rng, n):
    A = rng.standard_normal((n, n))
    shift = np.max(linalg.eigvals(A).real)
    return A - (shift + 0.5 + rng.uniform(0.0, 1.0)) * np.eye(n)


class TestHurwitz:
    def test_stable(self):
        assert cm.is_hurwitz(np.array([[-1.0, 0.0], [0.0, -2.0]]))

    def test_marginal_rejected(self):
        assert not cm.is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))


class TestRk4:
    def test_exponential_accuracy(self):
        # xdot = -x from 1 through the simulator's step: the dt = 1e-2
        # solution over 1 s is ~1e-10 accurate.
        mask = cm.ChaoticMask(Phi=[[-1.0]], phi=PolynomialMap.zero(1, 1), Lambda=[[1.0]])
        traj = masker_loop(mask, 1e-2).integrate(np.array([1.0]), 100)
        assert abs(traj[-1, 0] - np.exp(-1.0)) < 1e-9

    def test_fourth_order_convergence(self):
        # The reference integrator on a nonlinear scalar field with known
        # solution x(t) = 1 / (1 - t).
        exact = 1.0 / (1.0 - 0.5)

        def err(dt):
            return abs(rk4(lambda t, x: x ** 2, [1.0], dt, round(0.5 / dt))[-1, 0] - exact)

        ratio = err(2e-3) / err(1e-3)
        assert 12.0 < ratio < 20.0

    def test_divergence_raises_with_time(self):
        # xi' = xi^2 from 10 blows up at t = 0.1.
        mask = cm.ChaoticMask(Phi=[[0.0]], phi=PolynomialMap(1, 1, (((1.0, (2,)),),)),
                              Lambda=[[1.0]])
        with pytest.raises(DivergedRunError) as exc:
            masker_loop(mask, 1e-2).integrate(np.array([10.0]), 500)
        assert 0.09 <= exc.value.t <= 0.2
        assert exc.value.block == "masker xi"

    def test_step_matches_integrate(self):
        mask = cm.ChaoticMask(Phi=[[0.0, 1.0], [-1.0, 0.0]], phi=PolynomialMap.zero(2, 2),
                              Lambda=[[1.0, 0.0]])
        loop, x = masker_loop(mask, 1e-2), np.array([1.0, 0.0])
        traj = np.full((2, 2), np.nan)
        traj[0] = x
        stepped = stepper(loop)(0, traj)
        assert np.array_equal(stepped, loop.integrate(x, 1)[-1])


class TestLyapunov:
    def test_residual_on_random_instances(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            A = random_hurwitz(rng, n)
            S = cm.solve_lyapunov(A)
            resid = np.linalg.norm(S @ A + A.T @ S + np.eye(n), "fro")
            assert resid < 1e-8 * max(1.0, np.linalg.norm(S, "fro"))
            assert np.min(np.linalg.eigvalsh(S)) > 0

    def test_not_hurwitz_rejected(self):
        with pytest.raises(NotHurwitzError):
            cm.solve_lyapunov(np.array([[0.1]]))

    def test_scalar_known_value(self):
        # s(-2) + (-2)s = -1  =>  s = 0.25
        S = cm.solve_lyapunov(np.array([[-2.0]]))
        assert S[0, 0] == pytest.approx(0.25)


def sorted_schur_riccati(A, R, Q):
    """The Riccati solver as ``eigvals(H)`` for the axis check and one sorted
    ``schur(H)`` per branch: the reference for the one-Schur solver."""
    n = A.shape[0]
    H = np.block([[A, R], [-Q, -A.T]])
    if np.min(np.abs(linalg.eigvals(H).real)) <= 1e-8:
        raise NoStabilizingSolutionError("axis")
    candidates = []
    for side in ("lhp", "rhp"):
        _, Z, sdim = linalg.schur(H, sort=side)
        if sdim == n and np.linalg.cond(Z[:n, :n]) <= 1e12:
            P = Z[n:, :n] @ np.linalg.inv(Z[:n, :n])
            candidates.append(0.5 * (P + P.T))
    for P in candidates:
        res = np.linalg.norm(A.T @ P + P @ A + P @ R @ P + Q, "fro")
        if res < 1e-6 * max(1.0, np.linalg.norm(P, "fro") ** 2) and np.min(np.linalg.eigvalsh(P)) > 0:
            return P
    raise RiccatiFailureError("no PD branch")


def riccati_outcome(solve, A, R, Q):
    try:
        return solve(A, R, Q)
    except (NoStabilizingSolutionError, RiccatiFailureError) as exc:
        return type(exc)


def observer_instances():
    """(A, R, Q) of the synthesis grid on a tiny extended system: a 2-state
    plant with a scaled Rossler masker, so Q = diag(I, 0) - 2 eta C'C + eps I
    is indefinite."""
    plant = cm.LtiPlant(A=np.array([[0.0, 1.0], [-2.0, -0.5]]), B=np.array([[0.0], [1.0]]),
                        C=np.array([[1.0, 0.0]]))
    mask = cm.scale_mask(cm.rossler_p4(0.5, 0.5, Lambda=np.array([[1.0, 0.5, 0.2]])), 10.0)
    mask.sigma = np.array([2.1, 2.9, 0.24])
    mask.d_bound = 5.0
    cm.estimate_lipschitz(mask)
    ext = cm.build_extended(plant, mask)
    R = ext.ell ** 2 * np.eye(ext.n)
    C = ext.Cbold
    return [(ext.Abold, R, _error_weight(ext) - 2.0 * eta * C.T @ C + eps * np.eye(ext.n))
            for eta in ETA_GRID for eps in EPS_GRID]


def decreasing_chains(rng, n, chains=3, points=10):
    """Chains of symmetric Q that fall from a positive definite start through
    indefinite to negative definite matrices: each step subtracts a random
    positive semidefinite matrix."""
    out = np.empty((chains, points, n, n))
    for chain in out:
        S = rng.standard_normal((n, n))
        Q = S @ S.T + rng.uniform(1.0, 20.0) * np.eye(n)
        for j in range(points):
            chain[j] = Q
            G = rng.standard_normal((n, int(rng.integers(1, n + 1))))
            Q = Q - rng.uniform(0.5, 4.0) * (G @ G.T)
    return 0.5 * (out + out.swapaxes(2, 3))


class TestRiccati:
    def test_scalar_known_value(self):
        # 0 + 0 + p^2 - 1 = 0 with p > 0  =>  p = 1.
        P = cm.solve_riccati_stabilizing(np.array([[0.0]]), np.array([[1.0]]),
                                         np.array([[-1.0]]))
        assert P[0, 0] == pytest.approx(1.0)

    def test_sylvester_fallback_keeps_scipy_warning_in(self):
        # R = 0 and eigenvalues 1 and -1 of A: neither branch solves, and
        # scipy's Sylvester solver warns that the pair sums to zero before
        # perturbing the equation.  The checks refuse its candidate; the
        # warning used to escape (an error under this suite's filters).
        out = numerics.solve_riccati_grid(np.diag([1.0, -1.0]), np.zeros((2, 2)), [np.eye(2)])
        assert isinstance(out[0], RiccatiFailureError)

    def test_residual_on_random_instances(self, rng):
        # Construct solvable instances by reverse-engineering Q from a planted
        # PD matrix, then check the returned solution's residual and sign.
        count = 0
        for _ in range(60):
            n = int(rng.integers(2, 6))
            A = random_hurwitz(rng, n)
            ell = rng.uniform(0.01, 0.5)
            R = ell ** 2 * np.eye(n)
            W = rng.standard_normal((n, n))
            P0 = W @ W.T + 0.1 * np.eye(n)
            Q = -(A.T @ P0 + P0 @ A + P0 @ R @ P0)
            try:
                P = cm.solve_riccati_stabilizing(A, R, Q)
            except (RiccatiFailureError, NoStabilizingSolutionError):
                continue
            resid = np.linalg.norm(A.T @ P + P @ A + P @ R @ P + Q, "fro")
            assert resid < 1e-6 * max(1.0, np.linalg.norm(P, "fro") ** 2)
            assert np.min(np.linalg.eigvalsh(P)) > 0
            count += 1
        assert count >= 30

    def test_imaginary_axis_hamiltonian_rejected(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NoStabilizingSolutionError):
            cm.solve_riccati_stabilizing(A, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_degenerate_r_reduces_to_lyapunov(self):
        A = np.array([[-1.0, 0.3], [0.0, -2.0]])
        Q = np.eye(2)
        P = cm.solve_riccati_stabilizing(A, np.zeros((2, 2)), Q)
        S = cm.solve_lyapunov(A)
        assert np.allclose(P, S, atol=1e-10)

    def test_zero_r_rejects_huge_candidates(self):
        # With R = 0 and A Hurwitz, the only solution for Q = -I is the
        # Lyapunov one, negative definite.  A nearly singular U1 of the
        # anti-stable branch gave a PD candidate with ||P||_F near 1e16 and a
        # residual near 1e16, which a test scaled by ||P||_F^2 accepted; in
        # the first 200 draws of seed 0 that happened five times.
        rng = np.random.default_rng(0)
        R, Q = np.zeros((3, 3)), -np.eye(3)
        hurwitz = 0
        for _ in range(200):
            A = rng.standard_normal((3, 3))
            if not cm.is_hurwitz(A):
                continue
            hurwitz += 1
            assert np.max(np.linalg.eigvalsh(linalg.solve_continuous_lyapunov(A.T, -Q))) < 0.0
            with pytest.raises(RiccatiFailureError):
                cm.solve_riccati_stabilizing(A, R, Q)
        assert hurwitz >= 20

    def test_asymmetric_r_rejected(self):
        with pytest.raises(ValueError):
            cm.solve_riccati_stabilizing(np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]),
                                         np.eye(2))

    def test_one_schur_equals_sorted_schur_branches(self, rng):
        # Reordering one unsorted Schur form is what a sorted dgees does after
        # the same factorization, so every outcome matches and P is bitwise equal.
        instances = observer_instances()
        for _ in range(60):
            n = int(rng.integers(1, 6))
            A = rng.standard_normal((n, n))
            W = rng.standard_normal((n, n))
            R = rng.uniform(0.01, 0.5) ** 2 * (W @ W.T)
            if rng.uniform() < 0.5:
                P0 = W @ W.T + 0.1 * np.eye(n)
                Q = -(A.T @ P0 + P0 @ A + P0 @ R @ P0)
            else:
                S = rng.standard_normal((n, n))
                Q = S + S.T
            instances.append((A, R, 0.5 * (Q + Q.T)))
        solved = 0
        failures = set()
        for A, R, Q in instances:
            want = riccati_outcome(sorted_schur_riccati, A, R, Q)
            got = riccati_outcome(cm.solve_riccati_stabilizing, A, R, Q)
            if isinstance(want, np.ndarray):
                assert isinstance(got, np.ndarray) and np.array_equal(got, want)
                solved += 1
            else:
                assert got is want
                failures.add(want)
        assert solved >= 40
        assert failures == {NoStabilizingSolutionError, RiccatiFailureError}

    @pytest.mark.parametrize("A, R, Q, error", [
        ([[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 2)), np.zeros((2, 2)), NoStabilizingSolutionError),
        # p^2 + 2p + 0.5 = 0 has two negative roots: no PD solution.
        ([[1.0]], [[1.0]], [[0.5]], RiccatiFailureError),
    ], ids=["axis", "no-pd"])
    def test_exception_type_matches_sorted_schur(self, A, R, Q, error):
        A, R, Q = (np.asarray(M, float) for M in (A, R, Q))
        assert riccati_outcome(sorted_schur_riccati, A, R, Q) is error
        with pytest.raises(error):
            cm.solve_riccati_stabilizing(A, R, Q)

    def test_grid_entries_equal_one_point_solves(self, rng):
        # The 75 observer instances share A and R; so do the random groups.
        groups = [observer_instances()]
        for _ in range(10):
            n = int(rng.integers(1, 6))
            A = rng.standard_normal((n, n))
            W = rng.standard_normal((n, n))
            R = rng.uniform(0.0, 0.5) ** 2 * (W @ W.T) * (rng.uniform() < 0.8)
            Qs = []
            for _ in range(8):
                S = rng.standard_normal((n, n))
                P0 = S @ S.T + 0.1 * np.eye(n)
                Qs.append(-(A.T @ P0 + P0 @ A + P0 @ R @ P0) if rng.uniform() < 0.5 else S + S.T)
            groups.append([(A, R, 0.5 * (Q + Q.T)) for Q in Qs])
        kinds = set()
        for group in groups:
            A, R, _ = group[0]
            grid = cm.solve_riccati_grid(A, R, [Q for _, _, Q in group])
            assert len(grid) == len(group)
            for (_, _, Q), got in zip(group, grid):
                want = riccati_outcome(cm.solve_riccati_stabilizing, A, R, Q)
                if isinstance(want, np.ndarray):
                    assert isinstance(got, np.ndarray) and np.array_equal(got, want)
                else:
                    assert type(got) is want
                kinds.add(type(got))
        assert kinds == {np.ndarray, NoStabilizingSolutionError, RiccatiFailureError}

    def test_chains_equal_one_point_solves(self, rng, monkeypatch):
        # Along a chain Q decreases, so the grid skips the Schur forms of the
        # axis prefix and the stable branch after its first clear non-PD
        # candidate; every outcome still equals the one-point solve's, bit for bit.
        instances = observer_instances()
        A, R, _ = instances[0]
        groups = [(A, R, np.array([Q for _, _, Q in instances]).reshape(
            len(ETA_GRID), len(EPS_GRID), *A.shape).swapaxes(0, 1))]
        for g in range(16):
            n = int(rng.integers(1, 6))
            A = random_hurwitz(rng, n) if g % 2 else rng.standard_normal((n, n))
            W = rng.standard_normal((n, n))
            R = rng.uniform(0.1, 0.5) ** 2 * (W @ W.T) if g % 4 < 2 else np.zeros((n, n))
            groups.append((A, R, decreasing_chains(rng, n)))
        kinds, points, off_axis, schur, stable = set(), 0, 0, 0, 0
        for A, R, chains in groups:
            with riccati_lapack_counts(monkeypatch) as counts:
                grid = cm.solve_riccati_grid(A, R, chains)
            schur += counts["dgees"]
            stable += counts["stable"]
            assert len(grid) == chains.shape[0] * chains.shape[1]
            for Q, got in zip(chains.reshape(-1, *A.shape), grid):
                want = riccati_outcome(cm.solve_riccati_stabilizing, A, R, Q)
                if isinstance(want, np.ndarray):
                    assert isinstance(got, np.ndarray) and np.array_equal(got, want)
                else:
                    assert type(got) is want
                kinds.add(type(got))
            points += len(grid)
            off_axis += sum(not isinstance(out, NoStabilizingSolutionError) for out in grid)
        assert kinds == {np.ndarray, NoStabilizingSolutionError, RiccatiFailureError}
        # Both rules skipped work.
        assert schur < points
        assert stable < off_axis

    def test_increasing_chain_rejected(self):
        A, R = -np.eye(2), np.eye(2)
        Q = np.array([[np.eye(2), 2.0 * np.eye(2)]])
        with pytest.raises(ValueError, match="must not increase along a chain"):
            cm.solve_riccati_grid(A, R, Q)
        # A rise at the rounding level of Q's entries is within the tolerance.
        Q[0, 1] = np.eye(2) * (1.0 + 1e-15)
        assert len(cm.solve_riccati_grid(A, R, Q)) == 2

    def test_grid_validates_inputs(self):
        A, R = np.eye(2), np.eye(2)
        assert cm.solve_riccati_grid(A, R, np.empty((0, 2, 2))) == []
        with pytest.raises(ValueError, match="stack of 2 x 2"):
            cm.solve_riccati_grid(A, R, [np.eye(3)])
        with pytest.raises(ValueError, match="non-finite"):
            cm.solve_riccati_grid(A, R, [np.eye(2), np.full((2, 2), np.nan)])
        with pytest.raises(ValueError, match="Q must be symmetric"):
            cm.solve_riccati_grid(A, R, [np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(ValueError, match="R must be positive semidefinite"):
            cm.solve_riccati_grid(A, -R, [np.eye(2)])

    def test_failed_reorder_fails_the_branch(self, monkeypatch):
        # A reordering that LAPACK reports as failed (info = 1: eigenvalues too
        # close to swap) must not yield P, nor escape as a LinAlgError.
        dtrsen = numerics.lapack.dtrsen

        def failing(*args, **kwargs):
            return (*dtrsen(*args, **kwargs)[:-1], 1)

        A, R, Q = np.array([[0.0]]), np.array([[1.0]]), np.array([[-1.0]])
        assert cm.solve_riccati_stabilizing(A, R, Q)[0, 0] == pytest.approx(1.0)
        monkeypatch.setattr(numerics.lapack, "dtrsen", failing)
        with pytest.raises(RiccatiFailureError):
            cm.solve_riccati_stabilizing(A, R, Q)


def real_embedding_sigma_min(A, C, ws):
    """sigma_min of [j w I - A; C] through the real embedding [[X, -Y], [Y, X]]
    of M = X + jY, whose singular values are those of M, each twice."""
    n = A.shape[0]
    X = np.vstack([-A, C])
    Y = np.zeros_like(X)
    out = []
    for w in ws:
        Y[:n] = w * np.eye(n)
        out.append(np.linalg.svd(np.block([[X, -Y], [Y, X]]), compute_uv=False)[-1])
    return np.array(out)


class TestMinSingularValue:
    def test_matches_complex_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 4))
            A = rng.standard_normal((n, n))
            C = rng.standard_normal((m, n))
            w = rng.uniform(-5.0, 5.0)
            got = cm.min_singular_value_freq(A, C, w)
            M = np.vstack([1j * w * np.eye(n) - A, C])
            want = linalg.svdvals(M)[-1]
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n_grid", [100, 150, 2000])
    def test_batched_equals_scalar_and_oracle(self, rng, n_grid):
        # Grid sizes that are not multiples of the block exercise a short last block.
        pairs = [(np.array([[-0.7]]), np.array([[1.3]]))]
        for _ in range(4):
            n = int(rng.integers(1, 8))
            p = int(rng.integers(1, 4))
            pairs.append((rng.standard_normal((n, n)), rng.standard_normal((p, n))))
        for A, C in pairs:
            n = A.shape[0]
            ws = np.linspace(0.0, 20.0, n_grid)
            got = cm.min_singular_values_freq(A, C, ws)
            assert got.shape == (n_grid,)
            for w, value in zip(ws, got):
                assert value == cm.min_singular_value_freq(A, C, w)
                want = linalg.svdvals(np.vstack([1j * w * np.eye(n) - A, C]))[-1]
                assert value == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_matches_real_embedding_on_random_pairs(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            A = rng.standard_normal((n, n))
            C = rng.standard_normal((int(rng.integers(1, 4)), n))
            ws = np.linspace(0.0, default_w_max(A), 150)
            want = real_embedding_sigma_min(A, C, ws)
            got = cm.min_singular_values_freq(A, C, ws)
            assert np.all(np.abs(got - want) <= 1e-13 * want)

    @pytest.mark.parametrize("apply_beta", [False, True], ids=["unscaled", "scaled"])
    def test_matches_real_embedding_on_bundled_pairs(self, plant, cfg, apply_beta):
        A, C = cm.extended_pair(plant, cm.build_mask(cfg, apply_beta=apply_beta))
        ws = np.linspace(0.0, default_w_max(A), 2000)
        want = real_embedding_sigma_min(A, C, ws)
        got = cm.min_singular_values_freq(A, C, ws)
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    def test_batched_validates_inputs(self):
        with pytest.raises(ValueError, match="square"):
            cm.min_singular_values_freq(np.ones((2, 3)), np.ones((1, 3)), [0.0])
        with pytest.raises(ValueError, match="columns"):
            cm.min_singular_values_freq(np.eye(2), np.ones((1, 3)), [0.0])
        with pytest.raises(ValueError, match="non-finite"):
            cm.min_singular_values_freq(np.eye(2), np.ones((1, 2)), [0.0, np.nan])

    def test_unobservable_pair_is_zero_at_eigenfrequency(self):
        # (A, C) loses rank at w = 0 when C kills the kernel direction of A.
        A = np.diag([0.0, -1.0])
        C = np.array([[0.0, 1.0]])
        assert cm.min_singular_value_freq(A, C, 0.0) < 1e-12


class TestNegativeDefinite:
    def test_detects_sign(self):
        ok, worst = is_negative_definite(-np.eye(3))
        assert ok and worst == pytest.approx(-1.0)
        ok, worst = is_negative_definite(np.diag([-1.0, 0.5]))
        assert not ok and worst == pytest.approx(0.5)

    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError):
            is_negative_definite(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_equals_one_matrix_calls(self, rng):
        # The round-off band is per matrix: diag(-2^-52, -2) sits inside its
        # band, and next to it a matrix a million times larger does not widen it.
        stack = [np.diag([-2.0 ** -52, -2.0]), np.diag([-2.0 ** -40, -2.0]),
                 -1e6 * np.eye(2), np.diag([-1.0, 0.5])]
        for _ in range(20):
            S = rng.standard_normal((2, 2))
            stack.append(S + S.T - rng.uniform(0.0, 4.0) * np.eye(2))
        ok, worst = is_negative_definite(np.array(stack))
        assert ok.shape == worst.shape == (len(stack),)
        for M, ok_i, worst_i in zip(stack, ok, worst):
            assert (bool(ok_i), float(worst_i)) == is_negative_definite(M)
        assert ok[:4].tolist() == [False, True, True, False]
        assert worst[0] == -2.0 ** -52

    def test_stack_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            is_negative_definite(np.array([-np.eye(2), [[-1.0, 1.0], [0.0, -1.0]]]))
