import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import chaosmask as cm
from chaosmask.cli import build_scenario, run_with_detection
from chaosmask.errors import NotHurwitzError
from chaosmask.models import ChaoticMask, PolynomialMap
from chaosmask import sim
from chaosmask.sim import (CSV_BLOCK, STRETCH, ClosedLoop, SimTrace, compile_scenario,
                           masker_loop, write_csvs)
from chaosmask.synthesis import ObserverGain
from strategies import affine_term, custom_masks, derivative, power, rk4, stepper


@pytest.fixture(scope="module")
def short_unmasked(cfg):
    return dataclasses.replace(build_scenario(cfg, False, "none"), t_end=8.0, t_settle=5.0)


class TestScenarioValidation:
    def test_masked_needs_observer(self, cfg, mask_scaled):
        with pytest.raises(ValueError, match="observer"):
            build_scenario(cfg, True, "none", mask=mask_scaled, observer=None)

    def test_unmasked_needs_plain_gain(self, plant, cfg):
        K = np.asarray(cfg["controller"]["K"], float)
        with pytest.raises(ValueError, match="L_plain"):
            cm.Scenario(plant=plant, controller_K=K, x0=np.zeros(4),
                        xhat0=np.zeros(4))

    def test_unstable_loop_rejected(self, plant, cfg):
        with pytest.raises(NotHurwitzError):
            cm.Scenario(plant=plant, controller_K=np.zeros((3, 4)),
                        x0=np.zeros(4), xhat0=np.zeros(4),
                        L_plain=np.asarray(cfg["unmasked_gain"], float))

    def test_bad_settle_window(self, cfg):
        s = build_scenario(cfg, False, "none")
        with pytest.raises(ValueError, match="t_settle"):
            dataclasses.replace(s, t_settle=s.t_end + 1.0)

    def test_empty_post_settle_window_rejected(self, cfg):
        # The last grid point (1.0 s) lies before t_settle: calibrating the
        # detector on the post-settle window would have nothing to read.
        s = build_scenario(cfg, False, "none")
        with pytest.raises(ValueError, match="t_settle"):
            dataclasses.replace(s, t_end=1.0004, t_settle=1.0002)
        dataclasses.replace(s, t_end=1.0004, t_settle=1.0)  # the last point itself is kept

    def test_nan_dt_rejected(self, cfg):
        s = build_scenario(cfg, False, "none")
        with pytest.raises(ValueError, match="dt"):
            dataclasses.replace(s, dt=np.nan)

    def test_replay_before_recording_rejected(self, cfg):
        s = build_scenario(cfg, False, "none")
        with pytest.raises(ValueError, match="recording"):
            dataclasses.replace(s, attack=cm.ReplayAttack(tau=10.0, t_start=5.0))

    def test_replay_shorter_than_a_step_rejected(self, toy_scenario):
        s = toy_scenario(False)
        with pytest.raises(ValueError, match="at least one step"):
            dataclasses.replace(s, attack=cm.ReplayAttack(tau=0.4 * s.dt, t_start=3.0))

    def test_replay_off_grid_rejected(self, toy_scenario):
        s = toy_scenario(False)
        for tau, t_start in ((1.0, 3.0 + 0.3 * s.dt), (1.0 + 0.5 * s.dt, 3.0)):
            with pytest.raises(ValueError, match="dt grid"):
                dataclasses.replace(s, attack=cm.ReplayAttack(tau=tau, t_start=t_start))


class TestRunScenario:
    def test_unmasked_clean_converges(self, short_unmasked):
        tr = cm.run_scenario(short_unmasked)
        assert tr.err_norm[-1] < 1e-6
        assert np.linalg.norm(tr.z[-1]) < 1e-6
        assert not tr.masked

    def test_masked_clean_converges(self, trace_clean_masked):
        tr = trace_clean_masked
        assert tr.masked
        assert tr.err_norm[-1] < 1e-9
        # The transmitted signal actually differs from the plant output.
        assert np.max(np.linalg.norm(tr.ybold - tr.y, axis=1)) > 1.0
        # And the channel carries the transmitted signal untouched.
        assert np.array_equal(tr.chan, tr.ybold)

    def test_grid_and_shapes(self, short_unmasked):
        tr = cm.run_scenario(short_unmasked)
        n = int(round(short_unmasked.t_end / short_unmasked.dt)) + 1
        assert tr.times.shape == (n,)
        assert tr.x.shape == (n, 4)
        assert tr.z.shape == (n, 2)
        assert tr.g.shape == (n,)
        assert np.allclose(np.diff(tr.times), short_unmasked.dt)

    def test_determinism_bit_identical(self, short_unmasked):
        a = cm.run_scenario(short_unmasked)
        b = cm.run_scenario(short_unmasked)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.g, b.g)

    def test_divergence_raises(self, cfg):
        # A destabilizing plain gain makes the estimator blow past the
        # divergence guard within a fraction of a second.
        s = build_scenario(cfg, False, "none")
        s = dataclasses.replace(s, L_plain=-50.0 * np.ones((4, 2)),
                                t_end=2.0, t_settle=1.0)
        with pytest.raises(cm.DivergedRunError) as exc:
            cm.run_scenario(s)
        assert exc.value.block == "estimator"
        assert "estimator" in str(exc.value)
        # The end of step 115: the first row whose norm passes 1e9, as a
        # test after every step finds it.
        assert exc.value.t == 0.116

    @pytest.mark.parametrize("coef, xi0, t, block", [
        # A subnormal coefficient keeps xi_2^200 out of the dynamics until the
        # power overflows, 2263 steps into the run's one steady stretch.
        (-5e-324, (1.0, 34.7, 0.0), 2.264, "masker xi"),
        # The estimator's norm passes 1e9 at the end of step 10; the masker
        # power overflows later in the same stretch, at step 13.
        (-0.5, (0.1, 1.05, 0.0), 0.011, "estimator"),
    ])
    def test_masker_overflow_in_a_run(self, toy_scenario, coef, xi0, t, block):
        s = toy_scenario(True)
        m = s.mask
        steep = ChaoticMask(Phi=m.Phi, phi=PolynomialMap(3, 3, ((), (), ((coef, (0, 200, 0)),))),
                            Lambda=m.Lambda, sigma=m.sigma, ell=m.ell, d_bound=m.d_bound)
        with pytest.raises(cm.DivergedRunError) as exc:
            cm.run_scenario(dataclasses.replace(s, mask=steep, xi0=np.array(xi0)))
        assert (exc.value.t, exc.value.block) == (t, block)


MODES = [(masked, attack) for masked in (True, False)
         for attack in ("none", "eavesdrop", "replay", "fdi")]


#: A custom masker with a constant monomial, a multi-factor one and cubes.
CUSTOM_MASK = ChaoticMask(
    Phi=[[-1.0, 0.5], [-0.5, -1.0]],
    phi=PolynomialMap(2, 2, (((0.2, (1, 3)), (0.05, (0, 0))), ((-0.1, (2, 1)), (0.3, (0, 3))))),
    Lambda=[[1.0, 1.0]], sigma=[0.8, 0.6], d_bound=1.0)
cm.estimate_lipschitz(CUSTOM_MASK)

#: A masker whose only monomials are constants: no gathered factor at all.
CONSTANT_MASK = ChaoticMask(Phi=[[-1.0]], phi=PolynomialMap(1, 1, (((0.5, (0,)),),)),
                            Lambda=[[1.0]], sigma=[1.0], d_bound=1.0)
cm.estimate_lipschitz(CONSTANT_MASK)


def assert_steps_match_rk4(sc, rng, clamp):
    """One step of :func:`stepper` equals classical RK4 of the closed loop's
    ``derivative`` within 1e-12 relative, on random rows with the
    ``xihat`` entries drawn within ``clamp`` times sigma."""
    dt = sc.dt
    loop = compile_scenario(sc)
    scale = np.ones(loop.n - 1)
    if sc.masked:
        est = loop.blocks["estimator"]
        scale[est.start:est.start + sc.mask.n_xi] = clamp * sc.mask.sigma
    # Steps whose stage times straddle the FDI onset (2 s) and the replay
    # window edges (3 s, 4 s and, for tau = dt, 3 s + dt), and one far from them.
    edges = [round(e / dt) for e in (2.0, 3.0, 4.0, 3.0 + dt)]
    for k in [500] + [e + off for e in edges for off in (-1, 0)]:
        traj = np.full((k + 2, loop.n), np.nan)
        traj[:k + 1] = np.hstack([rng.uniform(-1.0, 1.0, (k + 1, loop.n - 1)) * scale,
                                  np.ones((k + 1, 1))])
        x = traj[k]
        want = rk4(lambda t, v: derivative(loop, k * dt + t, v, k, traj), x, dt, 1)[-1]
        got = stepper(loop)(k, x, traj)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (k, got - want)
        assert np.array_equal(traj[k + 1], got)


def attack_variants(s):
    """The scenario, and for replay and FDI some variants of its timing: a
    one-step replay, windows at odd points of the grid, a sine injection
    with an onset between two stage times."""
    atk, dt = s.attack, s.dt
    if isinstance(atk, cm.ReplayAttack):
        return [s] + [dataclasses.replace(s, attack=cm.ReplayAttack(tau=tau, t_start=t0))
                      for tau, t0 in ((dt, 3.0), (0.25, 0.5), (1.0, 4.5))]
    if isinstance(atk, cm.FdiAttack):
        return [s] + [dataclasses.replace(s, attack=dataclasses.replace(
            atk, shape="sin", freq_hz=3.3, t_start=t0)) for t0 in (2.00025, 0.0)]
    return [s]


def term_by_term(phi, x):
    """A polynomial map evaluated monomial by monomial from its terms."""
    return np.array([sum(c * np.prod(x ** np.array(e)) for c, e in comp) for comp in phi.terms])


def model_derivative(s, blocks, t, state, k, traj):
    """The closed-loop equations written out block by block."""
    p, atk = s.plant, s.attack
    n_xi = s.mask.n_xi if s.masked else 0
    x = state[blocks["plant x"]]
    est = state[blocks["estimator"]]
    xihat, xhat = est[:n_xi], est[n_xi:]
    u = np.zeros(p.n_u)
    if s.control_enabled:
        x_ref = s.x_ref if s.x_ref is not None else np.zeros(p.n_x)
        u_eq = s.u_eq if s.u_eq is not None else np.zeros(p.n_u)
        u = u_eq - s.controller_K @ (xhat - x_ref)

    def transmitted(row):
        y = p.C @ row[blocks["plant x"]]
        return y + s.mask.Lambda @ row[blocks["masker xi"]] if s.masked else y

    chan = transmitted(state)
    if isinstance(atk, cm.ReplayAttack) and atk.t_start <= t <= atk.t_start + atk.tau:
        chan = transmitted(traj[min(int(round((t - atk.tau) / s.dt)), k)])
    fdi_on = isinstance(atk, cm.FdiAttack) and t >= atk.t_start
    if fdi_on:
        a = p.C @ state[blocks["FDI model"]] + atk.phi(t - atk.t_start)
        chan = chan + a

    want = np.zeros_like(state)
    want[blocks["plant x"]] = p.A @ x + p.B @ u
    if s.masked:
        m, L = s.mask, s.observer.L
        xi = state[blocks["masker xi"]]
        want[blocks["masker xi"]] = m.Phi @ xi + term_by_term(m.phi, xi)
        innov = chan - (m.Lambda @ xihat + p.C @ xhat)
        want[blocks["estimator"]] = np.concatenate([
            m.Phi @ xihat + term_by_term(m.phi, np.clip(xihat, -m.sigma, m.sigma))
            + L[:n_xi] @ innov,
            p.A @ xhat + p.B @ u + L[n_xi:] @ innov])
    else:
        want[blocks["estimator"]] = p.A @ xhat + p.B @ u + s.L_plain @ (chan - p.C @ xhat)
    if isinstance(atk, cm.EavesdropAttack):
        xe = state[blocks["eavesdropper"]]
        want[blocks["eavesdropper"]] = p.A @ xe + p.B @ u + atk.L_bar @ (chan - p.C @ xe)
    if fdi_on:
        d = state[blocks["FDI model"]]
        want[blocks["FDI model"]] = (p.A - s.L_plain @ p.C) @ d + s.L_plain @ a
    return want


def initial_state(sc, loop):
    """The stacked state a run of ``sc`` starts from."""
    s = np.zeros(loop.n)
    s[-1] = 1.0
    s[loop.blocks["plant x"]] = sc.x0
    est = loop.blocks["estimator"]
    if sc.masked:
        s[loop.blocks["masker xi"]] = sc.xi0
        s[est] = np.concatenate([sc.xihat0, sc.xhat0])
    else:
        s[est] = sc.xhat0
    return s


class TestCompiledOperator:
    @pytest.mark.parametrize("masked,attack", MODES)
    def test_derivative_matches_model_equations(self, toy_scenario, masked, attack, rng):
        s = toy_scenario(masked, attack)
        loop = compile_scenario(s)
        dt, half = s.dt, 0.5 * s.dt
        # Stage times around the toy's FDI onset (2 s) and replay window [3 s, 4 s].
        times = [0.5] + [edge + off for edge in (2.0, 3.0, 4.0) for off in (-half, 0.0, half)]
        scale = np.ones(loop.n - 1)
        if masked:
            est = loop.blocks["estimator"]
            scale[est.start:est.start + s.mask.n_xi] = 2.0 * s.mask.sigma
        for t in times:
            k = int(np.floor(t / dt + 1e-6))
            traj = np.full((k + 2, loop.n), np.nan)
            traj[:k + 1] = np.hstack([rng.uniform(-1.0, 1.0, (k + 1, loop.n - 1)) * scale,
                                      np.ones((k + 1, 1))])
            state = traj[k]
            got = derivative(loop, t, state, k, traj)
            want = model_derivative(s, loop.blocks, t, state, k, traj)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (t, got - want)

    @pytest.mark.parametrize("masked", [True, False])
    def test_observer_blocks(self, toy_scenario, masked):
        # The estimator, extended or plain, and the eavesdropper are one
        # observer form: A - L C on their own block plus B U in M_open, and
        # L as their channel gain.
        s = toy_scenario(masked, "eavesdrop")
        loop = compile_scenario(s)
        p = s.plant
        if masked:
            ext = cm.build_extended(p, s.mask)
            estimator = (ext.Abold, ext.Bbold, ext.Cbold, s.observer.L)
        else:
            estimator = (p.A, p.B, p.C, s.L_plain)
        for name, (A, B, C, L) in (("estimator", estimator),
                                   ("eavesdropper", (p.A, p.B, p.C, s.attack.L_bar))):
            rows = loop.blocks[name]
            want = B @ loop.U
            want[:, rows] += A - L @ C
            assert np.array_equal(loop.M_open[rows], want), name
            assert np.array_equal(loop.Lc[rows], L), name
        consumers = np.r_[loop.blocks["estimator"], loop.blocks["eavesdropper"]]
        assert not np.delete(loop.Lc, consumers, axis=0).any()

    @pytest.mark.parametrize("masked,attack", MODES)
    def test_collapsed_step_matches_rk4(self, toy_scenario, masked, attack, rng):
        s = toy_scenario(masked, attack)
        variants = [s]
        if attack == "replay":
            variants.append(dataclasses.replace(s, attack=cm.ReplayAttack(tau=s.dt, t_start=3.0)))
        for sc in variants:
            assert_steps_match_rk4(sc, rng, 2.0)

    @pytest.mark.parametrize("attack", ["none", "eavesdrop", "replay", "fdi"])
    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(mask=custom_masks(max_exponent=3), seed=st.integers(0, 2 ** 32 - 1))
    @example(mask=CUSTOM_MASK, seed=0)
    @example(mask=CONSTANT_MASK, seed=1)
    def test_collapsed_step_matches_rk4_on_custom_masks(self, toy_scenario, attack, mask, seed):
        # The toy plant carries a custom masker, observed through a fixed
        # Lambda, with an estimator gain that is only the right shape: the
        # check is about the step, not the certificate.  The random rows
        # come from a seed that hypothesis draws with the masker.
        rng = np.random.default_rng(seed)
        s = toy_scenario(True, attack)
        n_xi = mask.n_xi
        mask = ChaoticMask(Phi=mask.Phi, phi=mask.phi, Lambda=np.ones((3, n_xi)),
                           sigma=mask.sigma, ell=mask.ell, d_bound=mask.d_bound)
        L = np.linspace(-1.0, 1.0, 3 * (n_xi + 2)).reshape(n_xi + 2, 3)
        gain = ObserverGain(L=L, P=np.eye(n_xi + 2), N=L, margin=-1.0, ell_used=mask.ell)
        sc = dataclasses.replace(s, mask=mask, observer=gain, xi0=np.full(n_xi, 0.5),
                                 xihat0=np.zeros(n_xi))
        for clamp in (0.5, 3.0):  # every xihat factor inside its box, most outside
            assert_steps_match_rk4(sc, rng, clamp)

    @pytest.mark.parametrize("masked,attack", MODES)
    def test_phases_fixed_between_edges(self, toy_scenario, masked, attack, rng):
        # Away from its edges the operator is one object and the affine term
        # is absent throughout or present throughout; drive over an array of
        # times gives each time's term as drive for that time alone does.
        for sc in attack_variants(toy_scenario(masked, attack)):
            loop = compile_scenario(sc)
            phases, dt = loop.phase, loop.dt
            cuts = sorted({0.0, 5.0, *(min(e, 5.0) for e in phases.edges)})
            traj = rng.uniform(-1.0, 1.0, (5001, loop.n))
            for a, b in zip(cuts, cuts[1:]):
                if b - a < 5 * dt:
                    continue
                times = np.sort(rng.uniform(a + 2 * dt, b - 2 * dt, 50))
                steps = (times / dt).astype(int)
                seen = [phases.at(t) for t in times]
                assert len({id(M) for M, _ in seen}) == 1
                assert len({present for _, present in seen}) == 1
                if seen[0][1]:
                    rows = phases.drive(times, steps, traj)
                    for t, k, row in zip(times, steps.tolist(), rows):
                        assert np.array_equal(row, affine_term(loop, t, k, traj)[1])

    @pytest.mark.parametrize("masked,attack", MODES)
    def test_phases_asked_per_stretch_not_per_step(self, toy_scenario, masked, attack,
                                                   monkeypatch):
        # Three calls of at per stretch: STRETCH and the edges bound the
        # count, not the number of steps.
        calls = []

        def counting(sc):
            loop = compile_scenario(sc)
            at = loop.phase.at

            def counted(*args):
                calls.append(args[0])
                return at(*args)
            loop.phase = dataclasses.replace(loop.phase, at=counted)
            return loop
        monkeypatch.setattr("chaosmask.sim.compile_scenario", counting)
        for sc in attack_variants(toy_scenario(masked, attack)):
            calls.clear()
            cm.run_scenario(sc)
            n_steps, n_edges = round(sc.t_end / sc.dt), len(compile_scenario(sc).phase.edges)
            # Each edge makes at most four one-step stretches and splits one.
            stretches = n_steps // STRETCH + 5 * n_edges + 2
            assert 0 < len(calls) <= 3 * stretches, (len(calls), stretches)

    @pytest.mark.parametrize("masked", [True, False])
    def test_replay_drive_reads_recorded_rows(self, toy_scenario, masked, monkeypatch):
        # Every stretch that replays is driven while the rows after its first
        # step are still NaN; finite terms show that it reads none of them.
        stretch = ClosedLoop._stretch
        lengths = []

        def checked(loop, k0, k1, traj):
            assert np.isnan(traj[k0 + 1:]).all()
            run, B = stretch(loop, k0, k1, traj)
            if B is not None:
                lengths.append(k1 - k0)
                assert np.isfinite(B).all(), (k0, k1)
            return run, B
        monkeypatch.setattr(ClosedLoop, "_stretch", checked)
        for sc in attack_variants(toy_scenario(masked, "replay")):
            lengths.clear()
            cm.run_scenario(sc)
            atk, h = sc.attack, sc.dt
            replaying = sum(any(atk.t_start <= t <= atk.t_start + atk.tau
                                for t in (k * h, k * h + 0.5 * h, k * h + h))
                            for k in range(round(sc.t_end / h)))
            assert sum(lengths) == replaying
            # The near-edge steps keep stretches shorter than the window.
            assert max(lengths) < max(2, round(atk.tau / h))
            assert max(lengths) > 1 or atk.tau == h

    @pytest.mark.parametrize("masked,attack", MODES)
    def test_stretches_equal_step_by_step(self, toy_scenario, masked, attack):
        # integrate asks the phases once per stretch; the reference asks
        # them at every stage time.
        for sc in attack_variants(toy_scenario(masked, attack)):
            loop = compile_scenario(sc)
            n_steps = int(round(sc.t_end / sc.dt))
            s = np.zeros(loop.n)
            s[-1] = 1.0
            s[loop.blocks["plant x"]] = sc.x0
            if masked:
                s[loop.blocks["masker xi"]] = sc.xi0
            want = loop.integrate(s, n_steps)
            step = stepper(loop)
            got = np.full_like(want, np.nan)
            got[0] = s
            for k in range(n_steps):
                s = step(k, s, got)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("masked,attack", MODES)
    def test_stage_maps_built_once_per_operator_triple(self, toy_scenario, masked, attack,
                                                      monkeypatch):
        # A run has a handful of distinct stage-operator triples (steady, FDI
        # onset, replay window edges); a rebuild per step would count thousands.
        builds = []
        build = ClosedLoop.stage_maps

        def counting(loop, *args):
            builds.append(args[3])
            return build(loop, *args)
        monkeypatch.setattr(ClosedLoop, "stage_maps", counting)
        cm.run_scenario(toy_scenario(masked, attack))
        assert 1 <= len(builds) <= 4, builds

    @pytest.mark.parametrize("masked", [True, False])
    def test_affine_stretch_equals_stepper(self, toy_scenario, masked):
        # After the toy's FDI onset (2 s) a stretch carries the injection as
        # affine terms that drive gives in advance, one buffer row per step.
        sc = toy_scenario(masked, "fdi")
        loop = compile_scenario(sc)
        full = loop.integrate(initial_state(sc, loop), round(sc.t_end / sc.dt))
        k0 = round(2.5 / sc.dt)
        k1 = k0 + STRETCH
        got = np.where(np.arange(len(full))[:, None] <= k0, full, np.nan)
        want = got.copy()
        run, B = loop._stretch(k0, k1, got)
        assert B is not None and B.shape[0] == k1 - k0
        run(got, k0, k1, got[k0], B, None)
        step, s = stepper(loop), want[k0]
        for k in range(k0, k1):
            s = step(k, s, want)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(got[:k1 + 1].view(np.uint64), full[:k1 + 1].view(np.uint64))
        assert np.isnan(got[k1 + 1:]).all()

    def test_divergence_mid_stretch_copies_earlier_rows(self, toy_scenario):
        # A subnormal coefficient keeps xi_2^200 out of the dynamics until
        # the power overflows, 2263 steps into one generated stretch.
        s = toy_scenario(True)
        m = s.mask
        steep = PolynomialMap(3, 3, ((), (), ((-5e-324, (0, 200, 0)),)))
        mask = ChaoticMask(Phi=m.Phi, phi=steep, Lambda=m.Lambda, sigma=m.sigma, ell=m.ell,
                           d_bound=m.d_bound)
        sc = dataclasses.replace(s, mask=mask, xi0=np.array((1.0, 34.7, 0.0)))
        loop = compile_scenario(sc)
        n = 2400
        got = np.full((n + 1, loop.n), np.nan)
        got[0] = initial_state(sc, loop)
        want = got.copy()
        run, B = loop._stretch(0, n, got)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(cm.DivergedRunError) as exc:
                run(got, 0, n, got[0], B, None)
            failed = round(exc.value.t / sc.dt) - 1
            assert (failed, exc.value.block) == (2263, "masker xi")
            step, x = stepper(loop), want[0]
            for k in range(failed):
                x = step(k, x, want)
            with pytest.raises(cm.DivergedRunError) as by_step:
                step(failed, x, want)
        assert by_step.value.t == exc.value.t
        assert np.isfinite(got[:failed + 1]).all()
        assert np.isnan(got[failed + 1:]).all()
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_monomial_overflow_names_the_masker(self, toy_scenario):
        # A high-degree masker monomial can overflow a Python float inside a
        # step; the run then diverges in the masker block.
        loop = compile_scenario(toy_scenario(True))
        steep = tuple(tuple((row, 200.0, lo, hi) for row, _, lo, hi in monomial)
                      for monomial in loop.monomials)
        step = stepper(dataclasses.replace(loop, monomials=steep))
        traj = np.zeros((2, loop.n))
        traj[0, loop.blocks["masker xi"]] = 100.0
        traj[0, -1] = 1.0
        with pytest.raises(cm.DivergedRunError) as exc:
            step(0, traj[0], traj)
        assert exc.value.block == "masker xi"

    @pytest.mark.parametrize("masked,attack", MODES)
    def test_rerun_bit_identical(self, toy_scenario, masked, attack):
        s = toy_scenario(masked, attack)
        a, b = cm.run_scenario(s), cm.run_scenario(s)
        for f in dataclasses.fields(SimTrace):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb), f.name
            else:
                assert va == vb, f.name

    def test_replay_reads_only_recorded_samples(self, toy_scenario):
        # Rows after the current step hold NaN; any read of them would make
        # the derivative non-finite and the run diverge.
        s = toy_scenario(True, "replay")
        for tau in (s.dt, 2.0 * s.dt, 1.0):
            sc = dataclasses.replace(s, attack=cm.ReplayAttack(tau=tau, t_start=3.0))
            loop = compile_scenario(sc)
            k0 = int(round(3.0 / s.dt))
            for k in (k0 - 1, k0, k0 + 1, k0 + int(round(tau / s.dt)) - 1):
                traj = np.full((k + 5, loop.n), np.nan)
                traj[:k + 1] = 1.0
                for t in (k * s.dt, k * s.dt + 0.5 * s.dt, k * s.dt + s.dt):
                    assert np.all(np.isfinite(derivative(loop, t, traj[k], k, traj)))
            assert np.all(np.isfinite(cm.run_scenario(sc).chan))


def collapsed_step(loop, s):
    """The first step of a loop with one constant phase and no affine term,
    as its generated step takes it, written out: ``W`` gives the stages'
    gathered factors, each one linked to the earlier stages' monomials,
    clamped and raised by :func:`power` in Python floats, and the product of
    ``D`` with ``[s | n]``, which also gives the next step's factors, the
    increment in its first rows."""
    M = loop.phase.at(0.0)[0]
    W, couple, D = loop.stage_maps(M, M, M, (False, False, False))
    terms = loop.factors()[2]
    f, n = W.dot(s).tolist(), []
    for stage in couple:
        values = []
        for row, links, e, lo, hi in stage:
            x = f[row]
            for j, c in links:
                x = x + c * n[j]
            values.append(power(lo if x < lo else hi if x > hi else x, e))
        n += [math.prod(values[r] for r in term) for term in terms]
    return s + D.dot(np.concatenate([s, n]))[:len(s)]


#: Rossler's nonlinearity alone, ``xi_3' = -a xi_2^2``: ``xi_2`` stays put,
#: so every stage squares it as given.
FLAT_MASK = ChaoticMask(Phi=np.zeros((3, 3)), phi=cm.rossler_p4(0.5, 0.5).phi,
                        Lambda=np.eye(3))


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


class TestGeneratedLoop:
    @pytest.mark.parametrize("xi2", [0.4493042412683712, -2.3571693004833167])
    def test_square_is_the_product(self, toy_scenario, xi2):
        # glibc's pow(xi2, 2.0) is an ulp off the correctly rounded xi2 * xi2
        # for both values, and a step of 1e-3 from (0, xi2, 0) keeps it.
        xi = np.array([0.0, xi2, 0.0])
        box = masker_loop(FLAT_MASK, 1e-3)
        assert np.array_equal(bits(box.integrate(xi, 1)[1]), bits(collapsed_step(box, xi)))
        # The scenario's squares, the xihat ones clamped where they leave the
        # box (the first and the last).
        sc = toy_scenario(True)
        loop = compile_scenario(sc)
        s = initial_state(sc, loop)
        s[loop.blocks["masker xi"]] = xi
        est = loop.blocks["estimator"]
        s[est.start:est.start + 3] = np.array([1.7, -0.4, -2.5]) * sc.mask.sigma
        assert np.array_equal(bits(loop.integrate(s, 1)[1]), bits(collapsed_step(loop, s)))

    @pytest.mark.parametrize("box", [True, False])
    @pytest.mark.parametrize("xi2", [1e200, -1e200, math.inf, math.nan])
    def test_unclamped_square_overflow(self, toy_scenario, box, xi2):
        # A finite square that overflows raises, as xi2 ** 2.0 does; an
        # infinite or NaN factor passes through into the state, for the
        # divergence check after the stretch to find.
        if box:
            loop, s = masker_loop(cm.rossler_p4(0.5, 0.5), 1e-3), np.zeros(3)
        else:
            sc = toy_scenario(True)
            loop = compile_scenario(sc)
            s = initial_state(sc, loop)
        s[loop.blocks["masker xi"].start + 1] = xi2
        traj = np.full((2, loop.n), np.nan)
        traj[0] = s
        run, B = loop._stretch(0, 1, traj)
        with np.errstate(over="ignore", invalid="ignore"):
            if math.isfinite(xi2):
                with pytest.raises(cm.DivergedRunError) as exc:
                    run(traj, 0, 1, s, B, None)
                assert (exc.value.t, exc.value.block) == (1e-3, "masker xi")
                assert np.isnan(traj[1]).all()
            else:
                run(traj, 0, 1, s, B, None)
                assert not np.isfinite(traj[1, loop.blocks["masker xi"]]).all()

    @pytest.mark.parametrize("masked,attack", MODES)
    def test_integrate_twice_equals_a_fresh_loop(self, toy_scenario, masked, attack):
        # The second pass runs in the buffers the first one left.
        sc = toy_scenario(masked, attack)
        n_steps = round(sc.t_end / sc.dt)
        loop = compile_scenario(sc)
        s0 = initial_state(sc, loop)
        want = bits(compile_scenario(sc).integrate(s0, n_steps))
        for _ in range(2):
            assert np.array_equal(bits(loop.integrate(s0, n_steps)), want)

    @pytest.mark.parametrize("stretch", [7, 1000])
    @pytest.mark.parametrize("masked,attack", MODES + [(True, "box")])
    def test_bits_do_not_depend_on_stretch(self, toy_scenario, masked, attack, stretch,
                                           monkeypatch):
        # A stretch hands its last product's factors to the next stretch of
        # the same loop, so where the stretches end changes no bit; factors
        # gathered afresh at each stretch would.
        sc = toy_scenario(masked, "none" if attack == "box" else attack)
        n_steps = round(sc.t_end / sc.dt)

        def rows():
            if attack == "box":
                return masker_loop(sc.mask, sc.dt).integrate(sc.xi0, n_steps)
            loop = compile_scenario(sc)
            return loop.integrate(initial_state(sc, loop), n_steps)
        want = bits(rows())
        monkeypatch.setattr(sim, "STRETCH", stretch)
        assert np.array_equal(bits(rows()), want)

    @pytest.mark.parametrize("masked", [True, False])
    def test_buffer_grows_for_a_longer_stretch(self, toy_scenario, masked):
        # After the toy's FDI onset (2 s) one operator triple holds, with
        # affine terms.  Its loop runs stretches of 1 step, STRETCH steps,
        # more than its buffer holds, and a few steps again; a fresh loop
        # runs each stretch as its first.
        sc = toy_scenario(masked, "fdi")
        fresh = compile_scenario(sc)
        full = fresh.integrate(initial_state(sc, fresh), round(sc.t_end / sc.dt))
        k = round(2.5 / sc.dt)
        got = np.where(np.arange(len(full))[:, None] <= k, full, np.nan)
        want = got.copy()
        loop = compile_scenario(sc)
        for steps in (1, STRETCH, STRETCH + 188, 3):
            run, B = loop._stretch(k, k + steps, got)
            run(got, k, k + steps, got[k], B, None)
            run, B = compile_scenario(sc)._stretch(k, k + steps, want)
            run(want, k, k + steps, want[k], B, None)
            k += steps
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(got[:k + 1]), bits(full[:k + 1]))
        assert np.isnan(got[k + 1:]).all()

    @pytest.mark.parametrize("masked,attack", MODES)
    def test_run_frees_its_loop_without_gc(self, toy_scenario, masked, attack, monkeypatch):
        # A reference cycle through the loop would keep it, its generated
        # loops and their buffers alive after the run, until a collection.
        loops = []

        def compile_and_watch(s):
            loop = compile_scenario(s)
            loops.append(weakref.ref(loop))
            return loop
        monkeypatch.setattr(sim, "compile_scenario", compile_and_watch)
        sc = toy_scenario(masked, attack)
        gc.disable()
        try:
            cm.run_scenario(sc)
            assert [ref() is None for ref in loops] == [True]
        finally:
            gc.enable()


class TestCsv:
    def test_roundtrip_exact(self, short_unmasked, tmp_path):
        tr = cm.run_scenario(short_unmasked)
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:5] == ["t", "x_1", "x_2", "x_3", "x_4"]
        assert header[-3:] == ["g", "alarm", "err_norm"]
        data = np.genfromtxt(path, delimiter=",", names=True)
        # 17 significant digits reproduce float64 exactly.
        assert np.array_equal(data["t"], tr.times)
        assert np.array_equal(data["x_1"], tr.x[:, 0])
        assert np.array_equal(data["g"], tr.g)

    def test_masked_columns_present(self, trace_clean_masked, tmp_path):
        path = tmp_path / "masked.csv"
        trace_clean_masked.to_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        for col in ("xi_1", "xi_3", "xihat_1", "ybold_1", "chan_2", "z_1"):
            assert col in header

    @pytest.mark.parametrize("masked, attack, present, absent", [
        (True, "eavesdrop", ("u", "eav_xhat"), "fdi_phi"),
        (False, "fdi", ("u", "fdi_phi"), "eav_xhat"),
    ])
    def test_input_and_attacker_columns_roundtrip(self, toy_scenario, tmp_path,
                                                  masked, attack, present, absent):
        # The eavesdropping and FDI contrasts can be rebuilt from the CSV alone.
        tr = cm.run_scenario(toy_scenario(masked, attack))
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert header[-3:] == ["g", "alarm", "err_norm"]
        assert not any(col.startswith(absent + "_") for col in header)
        for prefix in present:
            field = getattr(tr, prefix)
            cols = [f"{prefix}_{j + 1}" for j in range(field.shape[1])]
            assert [c for c in header if c.startswith(prefix + "_")] == cols
            for j, col in enumerate(cols):
                assert np.array_equal(data[col], field[:, j])


class TestWriteCsvs:
    def test_signed_zeros_stay_apart(self, tmp_path, savetxt_csv):
        # -0.0 == 0.0, but %.17g prints "-0" and "0": grouping must be by bits.
        zero, neg = np.zeros(5), -np.zeros(5)
        tables = {tmp_path / "a.csv": [("p", zero), ("n", neg)],
                  tmp_path / "b.csv": [("n", neg.copy()), ("p", zero.copy())]}
        write_csvs(tables)
        for path, cols in tables.items():
            assert path.read_bytes() == savetxt_csv(cols)
        assert (tmp_path / "a.csv").read_text().splitlines()[1] == "0,-0"

    def test_special_values(self, tmp_path, savetxt_csv):
        vals = np.array([np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.7e308, -1.7e308,
                         0.1, 1.0 / 3.0, 1e-300, 123456789012345678.0, 1.0, 0.0])
        cols = [("v", vals), ("r", vals[::-1].copy()), ("n", -vals)]
        write_csvs({tmp_path / "s.csv": cols})
        assert (tmp_path / "s.csv").read_bytes() == savetxt_csv(cols)

    @pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK // 2, CSV_BLOCK - 1, CSV_BLOCK,
                                      CSV_BLOCK + 1, 2 * CSV_BLOCK - 1, 2 * CSV_BLOCK,
                                      2 * CSV_BLOCK + 1])
    def test_block_edges(self, tmp_path, savetxt_csv, rng, rows):
        cols = [(f"c{j}", rng.standard_normal(rows)) for j in range(3)]
        write_csvs({tmp_path / "e.csv": cols})
        assert (tmp_path / "e.csv").read_bytes() == savetxt_csv(cols)

    def test_files_of_different_lengths(self, tmp_path, savetxt_csv, rng):
        # Every column of the short files is a prefix of a column of the long one.
        long = rng.standard_normal((2 * CSV_BLOCK + 7, 2))
        tables = {tmp_path / f"{n}.csv": [("t", np.arange(n) * 1e-3), ("a", long[:n, 0]),
                                          ("b", long[:n, 1])]
                  for n in (3, CSV_BLOCK, CSV_BLOCK + 1, long.shape[0])}
        write_csvs(tables)
        for path, cols in tables.items():
            assert path.read_bytes() == savetxt_csv(cols)

    def test_repeats_within_and_across_files(self, tmp_path, savetxt_csv, rng):
        traj = rng.standard_normal((CSV_BLOCK + 9, 4))
        x = traj[:, 1]  # a strided view, repeated as a contiguous copy
        tables = {tmp_path / "a.csv": [("x", x), ("x_again", x), ("y", traj[:, 2]),
                                       ("x_copy", x.copy())],
                  tmp_path / "b.csv": [("y", traj[:, 2].copy()), ("x", x), ("z", traj[:, 3])],
                  tmp_path / "c.csv": [("z", traj[:, 3])]}
        write_csvs(tables)
        for path, cols in tables.items():
            assert path.read_bytes() == savetxt_csv(cols)

    def test_unequal_columns_in_one_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            write_csvs({tmp_path / "bad.csv": [("a", np.zeros(3)), ("b", np.zeros(4))]})

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(data=st.data(), rows=st.integers(0, 2 * CSV_BLOCK + 2))
    def test_matches_savetxt_on_random_tables(self, tmp_path_factory, savetxt_csv, data, rows):
        floats = st.floats(allow_nan=True, allow_infinity=True, width=64)
        pool = [np.array(data.draw(st.lists(floats, min_size=rows, max_size=rows)))
                for _ in range(3)]
        picks = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5)
        out = tmp_path_factory.mktemp("csv")
        tables = {out / f"f{i}.csv": [(f"c{j}", pool[k]) for j, k in enumerate(data.draw(picks))]
                  for i in range(data.draw(st.integers(1, 3)))}
        write_csvs(tables)
        for path, cols in tables.items():
            assert path.read_bytes() == savetxt_csv(cols)


class TestSharedChunks:
    """Column slices of one block with the same bytes are formatted once,
    and a file whose lines select the same rows as another's reuses its
    joined bytes."""

    @staticmethod
    def _check(tables, savetxt_csv):
        write_csvs(tables)
        for path, cols in tables.items():
            assert path.read_bytes() == savetxt_csv(cols), path.name

    @pytest.mark.parametrize("onset", [CSV_BLOCK // 2, CSV_BLOCK, 2 * CSV_BLOCK,
                                       2 * CSV_BLOCK + 5])
    def test_shared_prefix(self, tmp_path, savetxt_csv, rng, onset):
        # An attacked trace and its clean twin: equal rows up to the onset,
        # which falls inside the first block, on a block edge, or on the edge
        # of or inside a later block.
        n = max(3 * CSV_BLOCK, onset + CSV_BLOCK) + 3
        clean = rng.standard_normal((n, 3))
        attacked = clean.copy()
        attacked[onset:] += rng.standard_normal((n - onset, 3))
        t = np.arange(n) * 1e-3
        tables = {tmp_path / f"{name}.csv": [("t", t)] + [(f"c{j}", arr[:, j]) for j in range(3)]
                  for name, arr in (("attacked", attacked), ("clean", clean))}
        self._check(tables, savetxt_csv)

    def test_different_lengths_share_chunks(self, tmp_path, savetxt_csv, rng):
        # The short file's full blocks equal the long file's; its last, partial
        # block equals the head of a full block of the same rows, and stays
        # apart from it.
        long = rng.standard_normal((3 * CSV_BLOCK, 2))
        short = long[:2 * CSV_BLOCK + 9].copy()
        tables = {tmp_path / "long.csv": [("a", long[:, 0]), ("b", long[:, 1])],
                  tmp_path / "short.csv": [("b", short[:, 1]), ("a", short[:, 0])],
                  tmp_path / "swapped.csv": [("a", long[:, 1]), ("b", long[:, 0])]}
        self._check(tables, savetxt_csv)

    @pytest.mark.parametrize("a, b", [(0.0, -0.0),
                                      (np.nan, np.uint64(0x7FF8000000000001).view(float))])
    def test_bit_difference_in_one_chunk(self, tmp_path, savetxt_csv, rng, a, b):
        # Equal as values, or both NaN, but apart in bits: only the block that
        # carries the difference is formatted twice.
        x = rng.standard_normal(3 * CSV_BLOCK)
        x[CSV_BLOCK + 7] = a
        y = x.copy()
        y[CSV_BLOCK + 7] = b
        tables = {tmp_path / "x.csv": [("v", x), ("w", x[::-1].copy())],
                  tmp_path / "y.csv": [("v", y), ("w", x[::-1].copy())]}
        self._check(tables, savetxt_csv)

    def test_identical_files_join_once(self, tmp_path, savetxt_csv, rng, monkeypatch):
        cols = [(f"c{j}", rng.standard_normal(2 * CSV_BLOCK + 1)) for j in range(3)]
        tables = {tmp_path / f"{i}.csv": [(name, col.copy()) for name, col in cols]
                  for i in range(3)}
        joins = []
        join_rows = sim.join_rows
        monkeypatch.setattr(sim, "join_rows", lambda *args: joins.append(1) or join_rows(*args))
        self._check(tables, savetxt_csv)
        assert len(joins) == 3  # one per block, not one per file and block

    def test_each_distinct_block_is_formatted_once(self, tmp_path, savetxt_csv, rng,
                                                   monkeypatch):
        # Repeated columns and an attacked/clean twin pair: the values that
        # reach the kernel are exactly one copy of each distinct (block,
        # bytes) column slice.
        n, onset = 3 * CSV_BLOCK + 9, CSV_BLOCK + 40
        clean = rng.standard_normal((n, 3))
        attacked = clean.copy()
        attacked[onset:, 1:] += 1.0
        t = np.arange(n) * 1e-3
        tables = {tmp_path / "attacked.csv": [("t", t), ("t_again", t)]
                  + [(f"c{j}", attacked[:, j]) for j in range(3)],
                  tmp_path / "clean.csv": [("t", t.copy())]
                  + [(f"c{j}", clean[:, j]) for j in range(3)],
                  tmp_path / "mixed.csv": [("c0", -clean[:, 0]), ("c1", clean[:, 1].copy())]}
        formatted = []
        g17_rows = sim.g17_rows
        monkeypatch.setattr(sim, "g17_rows",
                            lambda values: formatted.append(values.size) or g17_rows(values))
        self._check(tables, savetxt_csv)
        distinct = {(a, np.asarray(col[a:a + CSV_BLOCK]).tobytes())
                    for named in tables.values() for _, col in named
                    for a in range(0, len(col), CSV_BLOCK)}
        assert sum(formatted) == sum(len(part) // 8 for _, part in distinct)
        assert sum(formatted) < sum(len(col) for named in tables.values() for _, col in named)

    def test_profiles_beside_traces(self, tmp_path, savetxt_csv, rng):
        # reproduce-paper's call at the benchmark's scale: two 2 000-row
        # profiles sharing their frequency column, beside 3 001-row traces
        # sharing their times and, up to an onset, their values.
        w = np.logspace(-2, 2, 2000)
        clean = rng.standard_normal((3001, 4))
        attacked = clean.copy()
        attacked[1500:, 1:] += rng.standard_normal((1501, 3))
        t = np.arange(3001) * 1e-3
        tables = {tmp_path / "profile_a.csv": [("w", w), ("s", np.abs(np.sin(w)))],
                  tmp_path / "profile_b.csv": [("w", w.copy()), ("s", np.abs(np.cos(w)))]}
        tables.update((tmp_path / f"{name}.csv", [("t", t.copy())]
                       + [(f"x_{j}", arr[:, j]) for j in range(4)])
                      for name, arr in (("attacked", attacked), ("clean", clean)))
        self._check(tables, savetxt_csv)

    def test_short_table_and_one_column(self, tmp_path, savetxt_csv, rng):
        # A table shorter than one block, whose columns equal the heads of
        # full blocks of the others, and a file of one column.
        x = rng.standard_normal((CSV_BLOCK + 9, 2))
        tables = {tmp_path / "short.csv": [("a", x[:CSV_BLOCK - 7, 0]), ("b", x[:CSV_BLOCK - 7, 1])],
                  tmp_path / "one.csv": [("a", x[:, 0])],
                  tmp_path / "both.csv": [("b", x[:, 1]), ("a", x[:, 0])]}
        self._check(tables, savetxt_csv)

    def test_memory_does_not_grow_with_the_column_length(self, tmp_path, rng):
        # The writer holds one block's keys and text and one kernel piece at
        # a time, so its peak on a wide table is the same at 10 000 and
        # at 20 000 rows.
        x = rng.standard_normal((20_000, 24))
        y = x.copy()
        y[7_000:, 12:] += 1.0
        peaks = []
        for n in (10_000, 20_000):
            tables = {tmp_path / "x.csv": [(f"c{j}", x[:n, j]) for j in range(24)],
                      tmp_path / "y.csv": [(f"c{j}", y[:n, j]) for j in range(24)]}
            tracemalloc.start()
            try:
                write_csvs(tables)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.02 * peaks[0], peaks


class TestStepCodeCache:
    @pytest.mark.parametrize("masked", [False, True])
    def test_shared_source_keeps_each_loops_operators(self, toy_scenario, monkeypatch, masked):
        base = dataclasses.replace(toy_scenario(masked), t_end=2.0, t_settle=1.0)
        other = dataclasses.replace(base, controller_K=base.controller_K * 1.01)
        sim._step_code.cache_clear()
        cached = [cm.run_scenario(base).err_norm]
        compiles = sim._step_code.cache_info().misses
        cached.append(cm.run_scenario(other).err_norm)
        assert sim._step_code.cache_info().misses == compiles  # same sources, no new compile
        assert not np.array_equal(cached[0], cached[1])
        monkeypatch.setattr(sim, "_step_code", sim._step_code.__wrapped__)
        for s, err in zip((base, other), cached):
            assert cm.run_scenario(s).err_norm.tobytes() == err.tobytes()

    def test_bounded(self):
        size = sim._step_code.cache_info().maxsize
        assert size is not None
        for i in range(size + 3):
            sim._step_code(f"x = {i}\n")
        assert sim._step_code.cache_info().currsize == size
        sim._step_code.cache_clear()


def test_write_csvs_mixes_fallback_and_fast_values(tmp_path, savetxt_csv, rng):
    # Values that go through '%.17g' one by one share blocks with fast-path
    # values, across a block edge and in every column position.
    n = 2 * CSV_BLOCK + 5
    fast = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
    mixed = fast.copy()
    mixed[CSV_BLOCK - 3:CSV_BLOCK + 4] = [np.nan, 1e300, -5e-324, 2.0 ** 50, -np.inf, 1e-80,
                                          -0.0]
    mixed[::9] = 0.0
    slow = np.where(np.arange(n) % 2, 1e200, -2.0 ** 60)
    cols = [("slow", slow), ("fast", fast), ("mixed", mixed), ("slow_end", slow[::-1].copy())]
    write_csvs({tmp_path / "m.csv": cols})
    assert (tmp_path / "m.csv").read_bytes() == savetxt_csv(cols)


class TestDetector:
    def test_strict_inequality(self, short_unmasked):
        tr = cm.run_scenario(short_unmasked)
        alarm, first = cm.detect(tr, np.max(tr.g))
        assert not alarm.any()
        assert first is None
        alarm2, first2 = cm.detect(tr, 0.0)
        assert alarm2.any()
        assert first2 is not None

    def test_calibrate_threshold(self, short_unmasked):
        tr = cm.run_scenario(short_unmasked)
        nu = cm.calibrate_threshold(tr, 4.0)
        assert nu >= 4.0 * np.max(tr.post_settle(tr.g)) - 1e-30
        with pytest.raises(ValueError, match="safety"):
            cm.calibrate_threshold(tr, 1.0)

    def test_calibration_rejects_attacked_trace(self, replay_runs):
        attacked, _, _ = replay_runs["unmasked"]
        with pytest.raises(ValueError, match="attack-free"):
            cm.calibrate_threshold(attacked, 4.0)

    def test_floor_on_degenerate_trace(self, short_unmasked):
        s = dataclasses.replace(short_unmasked, x0=np.zeros(4), xhat0=np.zeros(4))
        tr = cm.run_scenario(s)
        assert cm.calibrate_threshold(tr, 4.0) >= 1e-12


@pytest.mark.parametrize("attack", ["none", "eavesdrop", "replay", "fdi"])
def test_detection_after_the_run(toy_cfg, attack):
    attacked, clean, nu = run_with_detection(toy_cfg, False, attack)
    assert nu == cm.calibrate_threshold(clean, 4.0)
    assert np.array_equal(attacked.alarm, attacked.g > nu)
    assert attacked.nu == nu
    assert not clean.alarm.any() and clean.nu is None
    if attack == "none":
        for field in ("x", "xhat", "z", "g", "err_norm"):
            assert getattr(attacked, field) is getattr(clean, field)
    else:
        assert attacked.x is not clean.x


class TestEquilibrium:
    def test_exact_fixed_point(self, plant, cfg):
        K = np.asarray(cfg["controller"]["K"], float)
        x_ref = np.asarray(cfg["reference"]["x_ref"], float)
        x_star, u_eq = cm.equilibrium_for(plant, K, x_ref)
        u = u_eq - K @ (x_star - x_ref)
        assert np.linalg.norm(plant.A @ x_star + plant.B @ u) < 1e-9

    def test_replay_premise_holds(self, replay_runs):
        attacked, _, _ = replay_runs["unmasked"]
        assert attacked.steady_premise_ok is True


class TestMetrics:
    def test_clean_twin_strips_attack(self, cfg):
        s = build_scenario(cfg, False, "replay")
        twin = cm.clean_twin(s)
        assert isinstance(twin.attack, cm.NoAttack)
        assert np.array_equal(twin.x0, s.x0)
