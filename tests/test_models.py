import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chaosmask as cm
from chaosmask.cli import build_scenario
from chaosmask.errors import NotBoundedError
from chaosmask.models import PolynomialMap
from chaosmask.sim import compile_scenario, masker_loop
from strategies import monomial_term, phi_value, rk4


def jacobian(phi, v) -> np.ndarray:
    """Exact derivative of every monomial of the polynomial map ``phi`` at ``v``."""
    x = np.asarray(v, dtype=float)
    J = np.zeros((phi.n_out, phi.n_in))
    for i, comp in enumerate(phi.terms):
        for coef, exps in comp:
            for j, e in enumerate(exps):
                if not e:
                    continue
                term = coef * e * x[j] ** (e - 1)
                for k, ek in enumerate(exps):
                    if k != j and ek:
                        term *= x[k] ** ek
                J[i, j] += term
    return J


def finite_diff_jacobian(f, x, h=1e-6):
    x = np.asarray(x, float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((f(x + e) - f(x - e)) / (2 * h))
    return np.column_stack(cols)


class TestPolynomialMap:
    def test_factors_hand_value(self):
        # A constant, zero exponents among nonzero ones, and terms of one,
        # two and three factors, over two outputs in term order.
        m = PolynomialMap(3, 2, (
            ((4.0, (0, 0, 0)), (2.0, (1, 0, 3))),
            ((-1.0, (0, 2, 0)), (0.5, (1, 1, 1))),
        ))
        assert m.factors == ((), ((0, 1), (2, 3)), ((1, 2),), ((0, 1), (1, 1), (2, 1)))
        assert np.array_equal(m.coef_matrix, [[4.0, 2.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.5]])
        assert np.allclose(phi_value(m, [2.0, -1.0, 0.5]), [4.0 + 2.0 * 2.0 * 0.125,
                                                           -1.0 + 0.5 * 2.0 * -1.0 * 0.5])

    def test_eval_hand_value(self):
        # f(x, y) = (3 x^2 y, -y + 1... no constants; use -y).
        m = PolynomialMap(2, 2, (((3.0, (2, 1)),), ((-1.0, (0, 1)),)))
        assert np.allclose(phi_value(m, [2.0, 5.0]), [60.0, -5.0])

    def test_constant_term(self):
        m = PolynomialMap(1, 1, (((4.0, (0,)),),))
        assert m.factors == ((),)
        assert phi_value(m, [123.0])[0] == pytest.approx(4.0)
        assert jacobian(m, [123.0])[0, 0] == 0.0

    def test_jacobian_matches_finite_differences(self, rng):
        m = PolynomialMap(3, 2, (
            ((2.0, (1, 1, 0)), (-0.5, (0, 0, 3))),
            ((1.0, (2, 0, 1)),),
        ))
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, size=3)
            assert np.allclose(jacobian(m, x), finite_diff_jacobian(lambda v: phi_value(m, v), x),
                               atol=1e-6)

    def test_compiled_form_matches_term_loop(self, rng):
        # The scalar loop over the terms against the compiled factors and
        # coefficients.  With one factor per monomial (Rossler) the
        # arithmetic is the same; with several factors only the association
        # of the product changes.
        def term_loop(m, x):
            out = np.zeros(m.n_out)
            for i, comp in enumerate(m.terms):
                acc = 0.0
                for coef, exps in comp:
                    term = coef
                    for j, e in enumerate(exps):
                        if e:
                            term *= x[j] ** e
                    acc += term
                out[i] = acc
            return out

        rossler = cm.scale_mask(cm.rossler_p4(0.5, 0.5), 100.0).phi
        multi = PolynomialMap(3, 2, (
            ((2.0, (1, 1, 0)), (-0.5, (0, 0, 3))),
            ((1.0, (2, 0, 1)),),
        ))
        for _ in range(1000):
            x = rng.uniform(-3.0, 3.0, size=3)
            assert np.array_equal(phi_value(rossler, x), term_loop(rossler, x))
            assert np.allclose(phi_value(multi, x), term_loop(multi, x), rtol=1e-14, atol=1e-13)

    def test_zero_map(self):
        z = PolynomialMap.zero(3, 2)
        assert z.factors == ()
        assert np.array_equal(phi_value(z, [1.0, 2.0, 3.0]), np.zeros(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            PolynomialMap(2, 1, (((1.0, (1,)),),))  # exponent length mismatch
        with pytest.raises(ValueError):
            PolynomialMap(1, 1, (((1.0, (-1,)),),))  # negative exponent


@pytest.fixture(scope="module")
def masked_loop(cfg, mask_scaled, gain):
    """The bundled masked scenario's closed loop."""
    return compile_scenario(build_scenario(cfg, True, "none", mask=mask_scaled, observer=gain))


def masker_terms(loop, s):
    """The rows of the loop's monomial term at ``s``: those of ``xi``, of
    ``xihat`` and all the others."""
    term = monomial_term(loop, s)
    xi, est = loop.blocks["masker xi"], loop.blocks["estimator"]
    xihat = slice(est.start, est.start + xi.stop - xi.start)
    rest = np.ones(loop.n, dtype=bool)
    rest[xi] = rest[xihat] = False
    return term[xi], term[xihat], term[rest]


def with_xihat(loop, xihat, xi=None):
    """A closed-loop state holding ``xihat`` (and ``xi``), zero elsewhere."""
    s = np.zeros(loop.n)
    est = loop.blocks["estimator"]
    s[est.start:est.start + len(xihat)] = xihat
    if xi is not None:
        s[loop.blocks["masker xi"]] = xi
    return s


class TestSaturate:
    """The estimator's ``phi(sat_sigma(xihat))`` as the simulator applies it."""

    def test_clamps_componentwise(self, masked_loop, mask_scaled):
        sigma = mask_scaled.sigma
        s = with_xihat(masked_loop, np.array([3.0, -0.2, -9.0]) * sigma)
        _, xihat_rows, _ = masker_terms(masked_loop, s)
        want = phi_value(mask_scaled.phi, np.array([1.0, -0.2, -1.0]) * sigma)
        assert np.allclose(xihat_rows, want, rtol=1e-15, atol=0.0)

    def test_identity_inside_box(self, masked_loop, mask_scaled, rng):
        # Inside the box the estimator's term is the masker's, bit for bit.
        v = rng.uniform(-mask_scaled.sigma, mask_scaled.sigma)
        xi_rows, xihat_rows, _ = masker_terms(masked_loop, with_xihat(masked_loop, v, xi=v))
        assert np.array_equal(xihat_rows, xi_rows)


class TestLtiPlant:
    def test_unobservable_rejected(self):
        with pytest.raises(ValueError, match="observable"):
            cm.LtiPlant(A=np.eye(2), B=np.zeros((2, 1)), C=np.array([[1.0, 0.0]]))

    def test_dimensions(self, plant):
        assert (plant.n_x, plant.n_u, plant.n_y) == (4, 3, 2)

    def test_nonsquare_a_rejected(self):
        with pytest.raises(ValueError):
            cm.LtiPlant(A=np.zeros((2, 3)), B=np.zeros((2, 1)), C=np.eye(2))


class TestRosslerP4:
    def test_vector_field_hand_value(self):
        mask = cm.rossler_p4(0.5, 0.5)
        xi = np.array([1.0, 2.0, 3.0])
        # (-xi2 - xi3, xi1, a xi2 - b xi3 - a xi2^2)
        assert np.allclose(mask.Phi @ xi + phi_value(mask.phi, xi), [-5.0, 1.0, 1.0 - 1.5 - 2.0])

    def test_chaotic_run_is_bounded(self, mask_unscaled):
        assert mask_unscaled.is_calibrated
        assert np.all(mask_unscaled.sigma > 0)
        assert mask_unscaled.sigma[2] < 10.0


class TestScaleMask:
    def test_trajectories_map_through_t(self):
        beta = 100.0
        raw = cm.rossler_p4(0.5, 0.5)
        scaled = cm.scale_mask(raw, beta)
        xi0 = np.array([0.1, 0.3, 0.0])
        T = np.diag([1.0, 1.0, 1.0 / beta])
        tr_raw = masker_loop(raw, 1e-3).integrate(xi0, 20000)
        tr_scaled = masker_loop(scaled, 1e-3).integrate(T @ xi0, 20000)
        assert np.allclose(tr_scaled, tr_raw @ T, atol=1e-9)

    def test_lambda_untouched(self):
        raw = cm.rossler_p4(0.5, 0.5, Lambda=np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0]]))
        scaled = cm.scale_mask(raw, 50.0)
        assert np.array_equal(scaled.Lambda, raw.Lambda)

    def test_invalidates_calibration(self, mask_unscaled):
        scaled = cm.scale_mask(mask_unscaled, 10.0)
        assert not scaled.is_calibrated

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            cm.scale_mask(cm.rossler_p4(0.5, 0.5), 0.0)


class TestInvariantBox:
    def test_linear_decay_box(self):
        # Stable linear "mask": after the settle window the state is tiny, so
        # sigma reflects only the post-transient amplitude.
        mask = cm.ChaoticMask(Phi=-np.eye(2), phi=PolynomialMap.zero(2, 2),
                              Lambda=np.eye(2))
        sigma = cm.estimate_invariant_box(mask, [1.0, 1.0], t_settle=5.0, t_obs=5.0)
        assert np.all(sigma < 1.2 * np.exp(-5.0) + 1e-6)
        assert mask.d_bound is not None

    def test_unbounded_raises(self):
        mask = cm.ChaoticMask(Phi=np.array([[1.0]]),
                              phi=PolynomialMap(1, 1, (((1.0, (3,)),),)),
                              Lambda=np.array([[1.0]]))
        with pytest.raises(NotBoundedError):
            cm.estimate_invariant_box(mask, [1.0], t_settle=1.0, t_obs=1.0)

    @pytest.mark.parametrize("case", ["rossler-scaled", "custom-multi-factor"])
    def test_box_matches_reference_rk4(self, cfg, case):
        # The box runs through the collapsed RK4 step, which reassociates the
        # stage arithmetic; over a few seconds, shorter than the chaotic
        # divergence of round-off, it agrees with the reference integrator to
        # 1e-12 relative.  The custom mask (Lorenz, plus a second monomial in
        # its last row) exercises multi-factor monomials and the couplings
        # between RK4 stages that they bring.
        if case == "rossler-scaled":
            mask, xi0 = cm.build_mask(cfg, True), cm.mask_xi0(cfg)
        else:
            phi = PolynomialMap(3, 3, ((), ((-1.0, (1, 0, 1)),),
                                       ((1.0, (1, 1, 0)), (-0.01, (0, 0, 2)))))
            mask = cm.ChaoticMask(Phi=np.array([[-10.0, 10.0, 0.0], [28.0, -1.0, 0.0],
                                                [0.0, 0.0, -8.0 / 3.0]]),
                                  phi=phi, Lambda=np.array([[1.0, 0.0, 0.5]]))
            xi0 = np.array([1.0, 1.0, 20.0])
        sigma = cm.estimate_invariant_box(mask, xi0, t_settle=1.0, t_obs=4.0, margin=0.2)
        ref = rk4(lambda t, x: mask.Phi @ x + phi_value(mask.phi, x), xi0, 1e-3, 5000)
        traj = masker_loop(mask, 1e-3).integrate(xi0, 5000)
        scale = np.max(np.abs(ref), axis=0)
        assert np.all(np.abs(traj - ref) <= 1e-12 * scale)
        window = ref[1000:]
        np.testing.assert_allclose(sigma, 1.2 * np.max(np.abs(window), axis=0), rtol=1e-12)
        assert mask.d_bound == pytest.approx(
            1.2 * np.max(np.linalg.norm(window @ mask.Lambda.T, axis=1)), rel=1e-12)

    def test_constant_monomial_alone_integrated(self):
        # xi' = -xi + 1/2: a masker whose only monomial has no factors.  The
        # collapsed step dropped its contribution and left xi at 0.
        mask = cm.ChaoticMask(Phi=[[-1.0]], phi=PolynomialMap(1, 1, (((0.5, (0,)),),)),
                              Lambda=[[1.0]])
        ref = rk4(lambda t, x: mask.Phi @ x + phi_value(mask.phi, x), [0.0], 1e-3, 1000)
        traj = masker_loop(mask, 1e-3).integrate(np.zeros(1), 1000)
        assert np.all(np.abs(traj - ref) <= 1e-12 * np.max(np.abs(ref)))
        assert traj[-1, 0] == pytest.approx(0.5 * (1.0 - np.exp(-1.0)), rel=1e-12)

    def test_bad_arguments_are_not_unboundedness(self):
        mask = cm.rossler_p4(0.5, 0.5)
        for kwargs in ({"dt": 0.0}, {"t_obs": -1.0}, {"t_settle": -1.0}, {"margin": -0.1}):
            with pytest.raises(ValueError, match=next(iter(kwargs))) as exc:
                cm.estimate_invariant_box(mask, [0.1, 0.3, 0.0], **kwargs)
            assert not isinstance(exc.value, NotBoundedError)

    def test_d_bound_is_tight_not_product(self, mask_scaled):
        # The recorded bound comes from max ||Lambda xi(t)||, which is smaller
        # than the box-corner product bound.
        corner = np.linalg.norm(mask_scaled.Lambda, 2) * np.linalg.norm(mask_scaled.sigma)
        assert mask_scaled.d_bound < corner


class TestLipschitz:
    def test_scalar_quadratic_exact(self):
        # phi(x) = x^2 on [-2, 2]: sup |phi'| = 4, which the bound attains.
        mask = cm.ChaoticMask(Phi=np.zeros((1, 1)),
                              phi=PolynomialMap(1, 1, (((1.0, (2,)),),)),
                              Lambda=np.eye(1), sigma=np.array([2.0]))
        ell = cm.estimate_lipschitz(mask)
        assert ell == 4.0

    def test_requires_box(self):
        mask = cm.rossler_p4(0.5, 0.5)
        with pytest.raises(ValueError):
            cm.estimate_lipschitz(mask)

    def test_increment_bound_on_random_pairs(self, mask_scaled, rng):
        ell = mask_scaled.ell
        s = mask_scaled.sigma
        for _ in range(200):
            a = rng.uniform(-s, s)
            b = rng.uniform(-s, s)
            lhs = np.linalg.norm(phi_value(mask_scaled.phi, a) - phi_value(mask_scaled.phi, b))
            assert lhs <= ell * np.linalg.norm(a - b) + 1e-12


@st.composite
def polynomial_masks(draw):
    """A small custom polynomial mask with its box: up to three monomials per
    row, each in up to three variables of degree at most three."""
    n = draw(st.integers(1, 3))
    monomial = st.tuples(st.floats(-2.0, 2.0, allow_subnormal=False),
                         st.tuples(*[st.integers(0, 3)] * n))
    terms = tuple(tuple(draw(st.lists(monomial, max_size=3))) for _ in range(n))
    sigma = np.array(draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n)))
    return cm.ChaoticMask(Phi=np.zeros((n, n)), phi=PolynomialMap(n, n, terms),
                          Lambda=np.eye(n), sigma=sigma)


PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


def assert_grid_witness(mask, per_axis: int) -> None:
    """The sampled ``||J||_2`` stays within the bound (1e-12 relative) on a
    uniform grid of ``per_axis`` points per axis that some monomial reads;
    the other axes do not change the Jacobian and hold one point."""
    active = [any(exps[j] for comp in mask.phi.terms for _, exps in comp)
              for j in range(mask.n_xi)]
    axes = [np.linspace(-s, s, per_axis) if act else np.array([0.0])
            for s, act in zip(mask.sigma, active)]
    for point in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, mask.n_xi):
        sampled = np.linalg.norm(jacobian(mask.phi, point), 2)
        assert sampled <= mask.ell * (1.0 + 1e-12), (point, sampled, mask.ell)


class TestLipschitzBound:
    @PROPERTY
    @given(mask=polynomial_masks(), seed=st.integers(0, 2 ** 32 - 1))
    def test_bounds_sampled_jacobian_and_increments(self, mask, seed):
        ell = cm.estimate_lipschitz(mask)
        assert_grid_witness(mask, 3)
        rng = np.random.default_rng(seed)
        s = mask.sigma
        corners = s * rng.choice([-1.0, 1.0], size=(20, s.size))
        for xi in np.vstack([rng.uniform(-s, s, size=(20, s.size)), corners]):
            assert np.linalg.norm(jacobian(mask.phi, xi), 2) <= ell * (1.0 + 1e-12)
        for _ in range(20):
            a, b = rng.uniform(-s, s), rng.uniform(-s, s)
            lhs = np.linalg.norm(phi_value(mask.phi, a) - phi_value(mask.phi, b))
            assert lhs <= ell * np.linalg.norm(a - b) * (1.0 + 1e-12) + 1e-12

    def test_bundled_rossler_bound_on_grid(self, mask_scaled, mask_unscaled):
        # The bundled b747 masker, both scalings, as the loader calibrates it.
        for mask in (mask_scaled, mask_unscaled):
            assert_grid_witness(mask, 21)

    def test_tiny_coefficient_does_not_underflow(self):
        # A sum of squares underflows to 0 here, below the sampled |phi'|.
        mask = cm.ChaoticMask(Phi=np.zeros((1, 1)),
                              phi=PolynomialMap(1, 1, (((2.7e-214, (1,)),),)),
                              Lambda=np.eye(1), sigma=np.array([1.0]))
        assert cm.estimate_lipschitz(mask) == 2.7e-214

    @PROPERTY
    @given(beta=st.floats(1.0, 1e3), sigma=st.tuples(*[st.floats(0.1, 10.0)] * 3))
    def test_rossler_bound_is_exact(self, beta, sigma):
        # ||J||_2 is the single entry 2 (a / beta) |xi_2|: the bound is its sup.
        a = 0.5
        mask = cm.scale_mask(cm.rossler_p4(a, 0.5), beta)
        mask.sigma = np.array(sigma)
        assert cm.estimate_lipschitz(mask) == 2 * (a / beta) * sigma[1]


class TestExtendedSystem:
    def test_block_structure(self, ext_scaled, plant, mask_scaled):
        n_xi, n_x = mask_scaled.n_xi, plant.n_x
        assert ext_scaled.n == n_xi + n_x
        assert np.array_equal(ext_scaled.Abold[:n_xi, :n_xi], mask_scaled.Phi)
        assert np.array_equal(ext_scaled.Abold[n_xi:, n_xi:], plant.A)
        assert not ext_scaled.Abold[:n_xi, n_xi:].any()
        assert np.array_equal(ext_scaled.Cbold,
                              np.hstack([mask_scaled.Lambda, plant.C]))
        assert not ext_scaled.Bbold[:n_xi].any()

    def test_nonlinearity_acts_on_xi_only(self, masked_loop, mask_scaled, rng):
        # Only the xi and xihat rows carry monomials; xi is not clamped.
        s = 10.0 * rng.standard_normal(masked_loop.n)
        xi_rows, _, rest = masker_terms(masked_loop, s)
        assert not rest.any()
        assert np.allclose(xi_rows, phi_value(mask_scaled.phi, s[masked_loop.blocks["masker xi"]]),
                           rtol=1e-15, atol=0.0)

    def test_saturated_nonlinearity_clamps(self, masked_loop, mask_scaled):
        _, xihat_rows, _ = masker_terms(masked_loop, 1e3 * np.ones(masked_loop.n))
        assert np.allclose(xihat_rows, phi_value(mask_scaled.phi, mask_scaled.sigma),
                           rtol=1e-15, atol=0.0)

    def test_uncalibrated_mask_rejected(self, plant):
        with pytest.raises(ValueError, match="sigma, ell"):
            cm.build_extended(plant, cm.rossler_p4(
                0.5, 0.5, Lambda=np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0]])))

    def test_extended_pair_rejects_lambda_row_mismatch(self, plant):
        # An uncalibrated mask (as the distance command uses) gets the same
        # clear error as build_extended.
        mask = cm.rossler_p4(0.5, 0.5, Lambda=np.eye(3))
        assert not mask.is_calibrated
        with pytest.raises(ValueError, match="Lambda has 3 rows but the plant has 2 outputs"):
            cm.extended_pair(plant, mask)
        with pytest.raises(ValueError, match="Lambda has 3 rows"):
            cm.build_extended(plant, mask)
