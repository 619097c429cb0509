import numpy as np
import pytest

import chaosmask as cm
from chaosmask.errors import NotBoundedError
from chaosmask.models import PolynomialMap, saturate


def finite_diff_jacobian(f, x, h=1e-6):
    x = np.asarray(x, float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((f(x + e) - f(x - e)) / (2 * h))
    return np.column_stack(cols)


class TestPolynomialMap:
    def test_eval_hand_value(self):
        # f(x, y) = (3 x^2 y, -y + 1... no constants; use -y).
        m = PolynomialMap(2, 2, (((3.0, (2, 1)),), ((-1.0, (0, 1)),)))
        assert np.allclose(m([2.0, 5.0]), [60.0, -5.0])

    def test_constant_term(self):
        m = PolynomialMap(1, 1, (((4.0, (0,)),),))
        assert m([123.0])[0] == pytest.approx(4.0)
        assert m.jacobian([123.0])[0, 0] == 0.0

    def test_jacobian_matches_finite_differences(self, rng):
        m = PolynomialMap(3, 2, (
            ((2.0, (1, 1, 0)), (-0.5, (0, 0, 3))),
            ((1.0, (2, 0, 1)),),
        ))
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, size=3)
            assert np.allclose(m.jacobian(x), finite_diff_jacobian(m, x), atol=1e-6)

    def test_compiled_form_matches_term_loop(self, rng):
        # The scalar loop the compiled form replaced.  With one factor per
        # monomial (Rossler) the arithmetic is the same, so the masker box
        # integration stays bit-identical; with several factors only the
        # association of the product changes.
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
            assert np.array_equal(rossler(x), term_loop(rossler, x))
            assert np.allclose(multi(x), term_loop(multi, x), rtol=1e-14, atol=1e-13)

    def test_zero_map(self):
        z = PolynomialMap.zero(3, 2)
        assert z.is_zero
        assert np.array_equal(z([1.0, 2.0, 3.0]), np.zeros(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            PolynomialMap(2, 1, (((1.0, (1,)),),))  # exponent length mismatch
        with pytest.raises(ValueError):
            PolynomialMap(1, 1, (((1.0, (-1,)),),))  # negative exponent


class TestSaturate:
    def test_clamps_componentwise(self):
        out = saturate([3.0, -0.2, -9.0], [1.0, 1.0, 2.0])
        assert np.allclose(out, [1.0, -0.2, -2.0])

    def test_identity_inside_box(self):
        v = np.array([0.1, -0.5])
        assert np.array_equal(saturate(v, [1.0, 1.0]), v)


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
        assert np.allclose(mask.vector_field(xi), [-5.0, 1.0, 1.0 - 1.5 - 2.0])

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
        tr_raw = cm.integrate_rk4(lambda t, x: raw.vector_field(x), xi0, 1e-3, 20.0)
        tr_scaled = cm.integrate_rk4(lambda t, x: scaled.vector_field(x), T @ xi0,
                                     1e-3, 20.0)
        assert np.allclose(tr_scaled.states, tr_raw.states @ T, atol=1e-9)

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

    def test_d_bound_is_tight_not_product(self, mask_scaled):
        # The recorded bound comes from max ||Lambda xi(t)||, which is smaller
        # than the box-corner product bound.
        corner = np.linalg.norm(mask_scaled.Lambda, 2) * np.linalg.norm(mask_scaled.sigma)
        assert mask_scaled.d_bound < corner


class TestLipschitz:
    def test_scalar_quadratic_exact(self):
        # phi(x) = x^2 on [-2, 2]: sup |phi'| = 4, inflated by 5%.
        mask = cm.ChaoticMask(Phi=np.zeros((1, 1)),
                              phi=PolynomialMap(1, 1, (((1.0, (2,)),),)),
                              Lambda=np.eye(1), sigma=np.array([2.0]))
        ell = cm.estimate_lipschitz(mask, grid_per_axis=5)
        assert ell == pytest.approx(1.05 * 4.0)

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
            lhs = np.linalg.norm(mask_scaled.phi(a) - mask_scaled.phi(b))
            assert lhs <= ell * np.linalg.norm(a - b) + 1e-12


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

    def test_nonlinearity_acts_on_xi_only(self, ext_scaled, rng):
        v = rng.standard_normal(ext_scaled.n)
        out = ext_scaled.nonlinearity(v)
        assert not out[ext_scaled.n_xi:].any()
        assert np.allclose(out[:ext_scaled.n_xi],
                           ext_scaled.mask.phi(v[:ext_scaled.n_xi]))

    def test_saturated_nonlinearity_clamps(self, ext_scaled):
        big = 1e3 * np.ones(ext_scaled.n)
        sat_val = ext_scaled.nonlinearity_sat(big)
        box_val = ext_scaled.mask.phi(ext_scaled.mask.sigma)
        assert np.allclose(sat_val[:ext_scaled.n_xi], box_val)

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
