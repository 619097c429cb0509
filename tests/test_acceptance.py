"""Acceptance suite: one test per criterion, one pass/fail line each.

Criteria 1-2 check the case study's two reproducible numbers at stated
tolerances; 3-6 are contrast-based protocol properties; 7-8 validate the
numerical kernels and determinism guarantees.
"""

import dataclasses
import time

import conftest
import numpy as np
import pytest
from scipy import linalg

import chaosmask as cm
from chaosmask.cli import build_scenario
from chaosmask.errors import NoStabilizingSolutionError, RiccatiFailureError
from chaosmask.models import PolynomialMap
from chaosmask.sim import compile_scenario, masker_loop
from chaosmask.synthesis import _error_weight


def report(num: int, ok: bool, detail: str):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print("\n" + line)
    assert ok, line


def test_criterion_1_distance_reproduction(plant, cfg):
    mask_raw = cm.build_mask(cfg, apply_beta=False)
    mask_scl = cm.build_mask(cfg, apply_beta=True)

    t0 = time.perf_counter()
    rep_u = cm.distance_to_unobservability(*cm.extended_pair(plant, mask_raw))
    t_u = time.perf_counter() - t0
    t0 = time.perf_counter()
    rep_s = cm.distance_to_unobservability(*cm.extended_pair(plant, mask_scl))
    t_s = time.perf_counter() - t0

    # Both ends of each bracket lie in the criterion's interval.
    ok = (0.3 <= rep_u.delta <= rep_u.delta_hi <= 0.5) \
        and (0.2 <= rep_s.delta <= rep_s.delta_hi <= 0.4) and t_u < 10.0 and t_s < 10.0
    report(1, ok, f"delta unscaled [{rep_u.delta:.4f}, {rep_u.delta_hi:.4f}] in [0.3, 0.5], "
                  f"scaled [{rep_s.delta:.4f}, {rep_s.delta_hi:.4f}] in [0.2, 0.4], "
                  f"runtimes {t_u:.1f}s / {t_s:.1f}s < 10s")


def test_criterion_2_lipschitz_reproduction(mask_unscaled, mask_scaled,
                                            report_unscaled, report_scaled):
    ell = mask_scaled.ell
    in_tolerance = ell <= 0.03 and 0.025 / 2 <= ell <= 0.025 * 2
    flips = (not cm.check_sufficiency(report_unscaled, mask_unscaled.ell)) \
        and cm.check_sufficiency(report_scaled, ell)
    ok = in_tolerance and flips
    report(2, ok, f"scaled ell {ell:.4f} <= 0.03 and within 2x of 0.025; "
                  f"sufficiency flips false (ell {mask_unscaled.ell:.2f} > "
                  f"delta {report_unscaled.delta:.2f}) -> true "
                  f"(ell {ell:.4f} < delta {report_scaled.delta:.2f})")


def test_criterion_3_synthesis_feasibility(cfg, mask_scaled, gain, rng):
    certified = gain.margin < 0
    s = build_scenario(cfg, True, "none", mask=mask_scaled, observer=gain)
    e = rng.uniform(-1.0, 1.0, size=mask_scaled.n_xi + 4)
    s = dataclasses.replace(s, t_end=40.0, t_settle=20.0,
                            xihat0=s.xi0 + e[:mask_scaled.n_xi],
                            xhat0=s.x0 + e[mask_scaled.n_xi:])
    tr = cm.run_scenario(s)
    converged = tr.err_norm[-1] < 1e-6
    ok = certified and converged
    report(3, ok, f"certified margin {gain.margin:.2e} < 0; error from random "
                  f"initial offset reaches {tr.err_norm[-1]:.2e} < 1e-6 in 40s")


def test_criterion_4_eavesdropping_contrast(plant, mask_scaled, eavesdrop_runs):
    um = eavesdrop_runs["unmasked"]
    m = eavesdrop_runs["masked"]
    unmasked_terminal = float(um.eav_err[-1])
    tail = m.times >= m.times[-1] - 10.0
    masked_avg = float(np.mean(m.eav_err[tail]))
    bound = cm.eavesdrop_error_bound(plant, m.attack.L_bar, mask_scaled.d_bound)
    ok = unmasked_terminal < 1e-4 and masked_avg > 10.0 * unmasked_terminal \
        and masked_avg < bound
    report(4, ok, f"unmasked eavesdropper terminal {unmasked_terminal:.2e} < 1e-4; "
                  f"masked last-10s mean {masked_avg:.3f} exceeds 10x that and "
                  f"stays below the bound {bound:.3g}")


def test_criterion_5_replay_contrast(replay_runs):
    um, _, nu_u = replay_runs["unmasked"]
    m, _, nu_m = replay_runs["masked"]
    atk = um.attack
    window = (um.times >= atk.t_start) & (um.times <= atk.t_start + atk.tau)
    sup_g_u = float(np.max(um.g[window]))
    no_alarm = sup_g_u <= nu_u and um.first_alarm_time is None
    first = m.first_alarm_time
    prompt = first is not None and atk.t_start <= first <= atk.t_start + 1.0
    ok = no_alarm and prompt and um.steady_premise_ok and m.steady_premise_ok
    report(5, ok, f"unmasked replay undetected (sup g {sup_g_u:.2e} <= nu "
                  f"{nu_u:.2e}); masked replay alarms at t = {first} "
                  f"(onset {atk.t_start}s, within 1s)")


def test_criterion_6_fdi_contrast(fdi_runs):
    um, um_clean, _ = fdi_runs["unmasked"]
    m, m_clean, _ = fdi_runs["masked"]
    M = um.attack.M
    sup_u, _ = cm.stealthiness_metric(um, um_clean)
    sup_m, _ = cm.stealthiness_metric(m, m_clean)
    ok = M == 0.5 and sup_u <= M + 1e-6 and sup_m > M
    report(6, ok, f"M = {M}: unmasked sup ||delta z|| {sup_u:.8f} <= M + 1e-6 "
                  f"(stealthy); masked sup {sup_m:.3f} > M (exposed)")


def test_criterion_7_numerics_suite(rng, gain, ext_scaled):
    # RK4 order of the simulator's step on a nonlinear scalar ODE with known
    # solution: xi' = xi^2 as a one-dimensional masker (Phi = 0).
    mask = cm.ChaoticMask(Phi=[[0.0]], phi=PolynomialMap(1, 1, (((1.0, (2,)),),)),
                          Lambda=[[1.0]])
    exact = 1.0 / (1.0 - 0.5)
    err = lambda dt: abs(masker_loop(mask, dt).integrate(np.array([1.0]), round(0.5 / dt))[-1, 0]
                         - exact)
    factor = err(2e-3) / err(1e-3)
    rk4_ok = 12.0 <= factor <= 20.0

    # 100 random Lyapunov instances.
    lyap_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 9))
        A = rng.standard_normal((n, n))
        A -= (np.max(linalg.eigvals(A).real) + rng.uniform(0.5, 1.5)) * np.eye(n)
        S = cm.solve_lyapunov(A)
        resid = np.linalg.norm(S @ A + A.T @ S + np.eye(n), "fro")
        lyap_ok &= resid < 1e-8 * max(1.0, np.linalg.norm(S, "fro"))

    # 100 random solvable Riccati instances (planted PD solution).
    ricc_count = 0
    attempts = 0
    ricc_ok = True
    while ricc_count < 100 and attempts < 400:
        attempts += 1
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n))
        A -= (np.max(linalg.eigvals(A).real) + rng.uniform(0.5, 1.5)) * np.eye(n)
        R = rng.uniform(0.01, 0.5) ** 2 * np.eye(n)
        W = rng.standard_normal((n, n))
        P0 = W @ W.T + 0.1 * np.eye(n)
        Q = -(A.T @ P0 + P0 @ A + P0 @ R @ P0)
        try:
            P = cm.solve_riccati_stabilizing(A, R, Q)
        except (RiccatiFailureError, NoStabilizingSolutionError):
            continue
        resid = np.linalg.norm(A.T @ P + P @ A + P @ R @ P + Q, "fro")
        ricc_ok &= resid < 1e-6 * max(1.0, np.linalg.norm(P, "fro") ** 2)
        ricc_count += 1
    ricc_ok &= ricc_count == 100

    # Complex-SVD sigma_min against the Hermitian-eigenvalue oracle of M^H M.
    sv_ok = True
    for _ in range(50):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 4))
        A = rng.standard_normal((n, n))
        C = rng.standard_normal((m, n))
        w = rng.uniform(-10.0, 10.0)
        got = cm.min_singular_value_freq(A, C, w)
        M = np.vstack([1j * w * np.eye(n) - A, C])
        want = np.sqrt(max(np.min(np.linalg.eigvalsh(M.conj().T @ M)).real, 0.0))
        sv_ok &= abs(got - want) <= 1e-9 * max(1.0, want)

    # Schur equivalence: the block margin and the Schur-complement margin agree
    # in sign on the certified gain.
    P, N = gain.P, gain.N
    A, C = ext_scaled.Abold, ext_scaled.Cbold
    block_margin = cm.verify_lmi(ext_scaled, P, N)
    upper = P @ A + A.T @ P - N @ C - C.T @ N.T + _error_weight(ext_scaled)
    upper = 0.5 * (upper + upper.T)
    schur = upper + ext_scaled.ell ** 2 * (P @ P)
    schur_margin = float(np.max(np.linalg.eigvalsh(0.5 * (schur + schur.T))))
    schur_ok = np.sign(block_margin) == np.sign(schur_margin)

    ok = rk4_ok and lyap_ok and ricc_ok and sv_ok and schur_ok
    report(7, ok, f"RK4 factor {factor:.1f} in [12, 20]; Lyapunov residuals < 1e-8 "
                  f"(100/100); Riccati residuals < 1e-6 ({ricc_count}/100); "
                  f"sigma_min matches Hermitian oracle to 1e-9; block and "
                  f"Schur-complement margins agree in sign "
                  f"({block_margin:.2e} / {schur_margin:.2e})")


def test_criterion_8_protocol_invariants(gain, trace_clean_masked, cfg, mask_scaled, rng):
    # Lipschitz increment inequality for the estimator's saturated
    # nonlinearity, as the simulator applies it, on 1000 random pairs of
    # estimator states (xihat drawn beyond the box so the clamp is exercised).
    s = build_scenario(cfg, True, "none", mask=mask_scaled, observer=gain)
    loop = compile_scenario(s)
    est = loop.blocks["estimator"]
    ell = mask_scaled.ell
    hi = np.concatenate([2.0 * mask_scaled.sigma, np.ones(4)])
    state_a, state_b = np.zeros(loop.n), np.zeros(loop.n)
    lip_ok = True
    for _ in range(1000):
        a = rng.uniform(-hi, hi)
        b = rng.uniform(-hi, hi)
        state_a[est], state_b[est] = a, b
        lhs = np.linalg.norm(loop.monomial_term(state_a)[est]
                             - loop.monomial_term(state_b)[est])
        lip_ok &= lhs <= ell * np.linalg.norm(a - b) + 1e-12

    # V = err' P err nonincreasing along the certified no-attack run.
    tr = trace_clean_masked
    err = np.hstack([tr.xi - tr.xihat, tr.x - tr.xhat])
    V = np.einsum("ij,jk,ik->i", err, gain.P, err)
    v_ok = bool(np.all(V[1:] <= V[:-1] * (1.0 + 1e-9) + 1e-20))

    # Bit-identical rerun of the same scenario.
    tr2 = cm.run_scenario(s)
    rerun_ok = np.array_equal(tr.x, tr2.x) and np.array_equal(tr.z, tr2.z) \
        and np.array_equal(tr.g, tr2.g) and np.array_equal(tr.err_norm, tr2.err_norm)

    ok = lip_ok and v_ok and rerun_ok
    report(8, ok, f"Lipschitz inequality holds on 1000 box pairs; V nonincreasing "
                  f"over {V.size} samples; rerun trace bit-identical")
