import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chaosmask as cm
from chaosmask.cli import build_scenario, run_with_detection
from chaosmask.errors import NotHurwitzError
from chaosmask.models import PolynomialMap
from chaosmask.sim import CSV_BLOCK, ClosedLoop, SimTrace, compile_scenario, write_csvs


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


MODES = [(masked, attack) for masked in (True, False)
         for attack in ("none", "eavesdrop", "replay", "fdi")]


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
            got = loop.derivative(t, state, k, traj)
            want = model_derivative(s, loop.blocks, t, state, k, traj)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (t, got - want)

    @pytest.mark.parametrize("masked,attack", MODES)
    def test_collapsed_step_matches_rk4(self, toy_scenario, masked, attack, rng):
        s = toy_scenario(masked, attack)
        dt = s.dt
        variants = [s]
        if attack == "replay":
            variants.append(dataclasses.replace(s, attack=cm.ReplayAttack(tau=dt, t_start=3.0)))
        for sc in variants:
            loop = compile_scenario(sc)
            step = loop.stepper()
            scale = np.ones(loop.n - 1)
            if masked:
                est = loop.blocks["estimator"]
                scale[est.start:est.start + sc.mask.n_xi] = 2.0 * sc.mask.sigma
            # Steps whose stage times straddle the FDI onset (2 s) and the
            # replay window edges (3 s and 3 s + tau), and one far from them.
            edges = [round(e / dt) for e in (2.0, 3.0, 4.0, 3.0 + dt)]
            for k in [500] + [e + off for e in edges for off in (-1, 0)]:
                traj = np.full((k + 2, loop.n), np.nan)
                traj[:k + 1] = np.hstack([rng.uniform(-1.0, 1.0, (k + 1, loop.n - 1)) * scale,
                                          np.ones((k + 1, 1))])
                f, t, x = loop.derivative, k * dt, traj[k]
                k1 = f(t, x, k, traj)
                k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1, k, traj)
                k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2, k, traj)
                k4 = f(t + dt, x + dt * k3, k, traj)
                want = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                got = step(k, x, traj)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (k, got - want)

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

    def test_monomial_overflow_names_the_masker(self, toy_scenario):
        # A high-degree masker monomial can overflow a Python float inside a
        # step; the run then diverges in the masker block.
        loop = compile_scenario(toy_scenario(True))
        phi = loop.phi
        steep = PolynomialMap(phi.n_in, phi.n_out, ((), (), ((-0.5, (0, 200, 0)),)))
        assert np.array_equal(steep.var, phi.var)
        step = dataclasses.replace(loop, phi=steep).stepper()
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
                    assert np.all(np.isfinite(loop.derivative(t, traj[k], k, traj)))
            assert np.all(np.isfinite(cm.run_scenario(sc).chan))


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

    @pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1,
                                      3 * CSV_BLOCK])
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
    def test_exponential_fit(self, trace_clean_masked):
        m = cm.estimation_metrics(trace_clean_masked)
        assert m.terminal_error < 1e-9
        assert m.rate is not None and m.rate > 0
        assert m.r_squared is not None and m.r_squared > 0.9

    def test_clean_twin_strips_attack(self, cfg):
        s = build_scenario(cfg, False, "replay")
        twin = cm.clean_twin(s)
        assert isinstance(twin.attack, cm.NoAttack)
        assert np.array_equal(twin.x0, s.x0)
