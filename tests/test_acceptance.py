"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured quantity so a full run
reads as a report.  The heavyweight 50-seed sweep over the shipped fixture is
computed once and shared by the convergence, ordering, scaling, and spectral
checks.
"""
from __future__ import annotations

import dataclasses
import math
import sys
import time

import numpy as np
import pytest

from swingid.analysis import (relative_error, spectral_distance, spectrum,
                              theorem1_bound, to_continuous)
from swingid.estimators import (covariances, estimate_b, estimate_cml,
                                estimate_lasso, estimate_sparse_low_rank,
                                estimate_tikhonov, estimate_uml,
                                lasso_kill_threshold, ls_objective,
                                threshold_structure)
from swingid.io_config import (ExperimentConfig, load_config, load_matrix,
                               load_model, load_records, load_trajectory,
                               save_config, save_matrix, save_model,
                               save_records, save_trajectory)
from swingid.model import DiscreteSystem
from swingid.sim import (DT_BASE, Trajectory, default_burn_in, simulate,
                         spawn_seeds, steady_start, subsample)

import conftest
from conftest import path3_model, single_gen_model, systems_for, two_gen_model

STRIDE = 3
T_GRID = (60.0, 150.0, 300.0, 600.0, 1200.0)
N_SEEDS = 50


def _report(num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {num:2d}] {status}  {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert passed, f"criterion {num}: {detail}"


def _steady_traj(disc: DiscreteSystem, n_samples: int, seed: int,
                 burn_in: int) -> Trajectory:
    burn_seed, run_seed = spawn_seeds(seed, 2)
    x0 = steady_start(disc, burn_in, burn_seed)
    return simulate(disc, n_samples - 1, x0, run_seed)


# ------------------------------------------------------------------ shared sweep

@pytest.fixture(scope="module")
def sweep(fixture_grid):
    """50-seed fixture sweep: eps per estimator per t_obs, spectra at 600 s."""
    cont, disc = systems_for(fixture_grid, DT_BASE)
    burn_in = default_burn_in(cont)
    n_base = round(T_GRID[-1] / DT_BASE)
    dt_eff = STRIDE * DT_BASE
    true_spec = spectrum(cont.a_d)
    eps_uml = {t: [] for t in T_GRID}
    eps_cml = {t: [] for t in T_GRID}
    spec_dist = []
    for seed in range(1, N_SEEDS + 1):
        traj = _steady_traj(disc, n_base, seed, burn_in)
        for t_obs in T_GRID:
            prefix = Trajectory(dt=DT_BASE,
                                states=traj.states[:round(t_obs / DT_BASE)],
                                n_gen=disc.n_gen)
            sub = subsample(prefix, STRIDE)
            uml = threshold_structure(estimate_uml(covariances(sub)).a_hat,
                                      disc.n_gen)
            cml = estimate_cml(covariances(sub)).a_hat
            eps_uml[t_obs].append(
                relative_error(to_continuous(uml, dt_eff), cont.a_d))
            eps_cml[t_obs].append(
                relative_error(to_continuous(cml, dt_eff), cont.a_d))
            if t_obs == 600.0:
                eigs_hat = spectrum(to_continuous(cml, dt_eff)).eigenvalues
                spec_dist.append(
                    spectral_distance(eigs_hat, true_spec.eigenvalues))
    radius = max(abs(z) for z in true_spec.eigenvalues)
    return {
        "mean_uml": {t: float(np.mean(eps_uml[t])) for t in T_GRID},
        "mean_cml": {t: float(np.mean(eps_cml[t])) for t in T_GRID},
        "spec_dist_mean": float(np.mean(spec_dist)),
        "radius": radius,
    }


# ------------------------------------------------------------------- criterion 1

def test_criterion_01_structural_exactness(fixture_grid):
    cases = [(fixture_grid, 12000), (two_gen_model(), 12), (path3_model(), 40)]
    worst = 0.0
    start = time.perf_counter()
    for model, n_samples in cases:
        cont, disc = systems_for(model, DT_BASE)
        traj = _steady_traj(disc, n_samples, seed=3,
                            burn_in=default_burn_in(cont))
        a_hat = estimate_uml(covariances(traj)).a_hat
        n = disc.n_gen
        pattern = np.hstack([np.eye(n), DT_BASE * np.eye(n)])
        worst = max(worst, float(np.max(np.abs(a_hat[:n] - pattern))))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-10 and elapsed < 1.0,
            f"angle-row deviation {worst:.2e} (limit 1e-10), "
            f"elapsed {elapsed:.2f} s (limit 1 s)")


# ------------------------------------------------------------------- criterion 2

def _gradient_descent_ls(states: np.ndarray) -> np.ndarray:
    """Plain gradient descent on the one-step squared loss, from zero."""
    x0, x1 = states[:-1], states[1:]
    g0 = x0.T @ x0
    g1 = x1.T @ x0
    step = 1.0 / (2.0 * float(np.linalg.eigvalsh(g0)[-1]))
    scale = max(1.0, float(np.max(np.abs(g1))))
    a = np.zeros_like(g0)
    for _ in range(200_000):
        grad = 2.0 * (a @ g0 - g1)
        if np.max(np.abs(grad)) < 1e-10 * scale:
            break
        a -= step * grad
    return a


def test_criterion_02_closed_form_matches_gradient_descent():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(25):
        n_gen = int(rng.integers(1, 5))
        dim = 2 * n_gen
        n_samples = 10 * dim + 20
        traj = Trajectory(dt=1.0,
                          states=rng.standard_normal((n_samples, dim)),
                          n_gen=n_gen)
        closed = estimate_uml(covariances(traj)).a_hat
        oracle = _gradient_descent_ls(traj.states)
        worst = max(worst, float(np.linalg.norm(closed - oracle)))
    _report(2, worst <= 1e-6,
            f"25 instances, worst Frobenius gap closed-form vs GD "
            f"{worst:.2e} (limit 1e-6)")


# ---------------------------------------------------------------- criteria 3/4/5

def test_criterion_03_convergence_magnitude(sweep):
    e10 = sweep["mean_cml"][600.0]
    e20 = sweep["mean_cml"][1200.0]
    _report(3, e10 <= 0.05 and e20 <= 0.035,
            f"CML mean eps {e10:.4f} at 10 min (limit 0.05), "
            f"{e20:.4f} at 20 min (limit 0.035), {N_SEEDS} seeds")


def test_criterion_04_cml_beats_uml_everywhere(sweep):
    diffs = [sweep["mean_uml"][t] - sweep["mean_cml"][t] for t in T_GRID]
    n_strict = sum(d > 0.0 for d in diffs)
    ok = all(d >= 0.0 for d in diffs) and n_strict >= 0.8 * len(T_GRID)
    gaps = " ".join(f"{d * 100:+.2f}" for d in diffs)
    _report(4, ok,
            f"UML-CML mean eps gaps in pp at t_obs {T_GRID}: {gaps}; "
            f"strict at {n_strict}/{len(T_GRID)} points (need 4)")


def test_criterion_05_inverse_sqrt_scaling(sweep):
    ratio = sweep["mean_cml"][300.0] / sweep["mean_cml"][1200.0]
    _report(5, 1.6 <= ratio <= 2.6,
            f"mean eps ratio 5 min / 20 min = {ratio:.2f} "
            f"(window [1.6, 2.6], ideal 2.0)")


# ------------------------------------------------------------------- criterion 6

def test_criterion_06_error_bound_holds():
    n_samples, epsilon, n_trials = 1000, 0.1, 500
    start = time.perf_counter()
    results = []
    # each bound's Monte Carlo burn-in is fixed, so rhs keeps its value
    for model, bound_burn_in in ((single_gen_model(m=2.0, d=1.0), 241),
                                 (path3_model(), 746)):
        cont, disc = systems_for(model, DT_BASE)
        burn_in = default_burn_in(cont)
        rhs = theorem1_bound(disc, n_samples, epsilon, n_trials=200,
                             seed=777, burn_in=bound_burn_in).rhs
        violations = 0
        for trial_seed in spawn_seeds(1234, n_trials):
            traj = _steady_traj(disc, n_samples, trial_seed, burn_in)
            a_hat = estimate_uml(covariances(traj)).a_hat
            if float(np.linalg.norm(a_hat - disc.a)) > rhs:
                violations += 1
        results.append((model.n_gen, rhs, violations / n_trials))
    elapsed = time.perf_counter() - start
    ok = all(frac <= epsilon for _, _, frac in results) and elapsed < 60.0
    detail = ", ".join(f"N={n}: rhs {rhs:.3e}, violation rate {frac:.3f}"
                       for n, rhs, frac in results)
    _report(6, ok, f"{detail} (limit {epsilon}), {n_trials} trials each, "
                   f"elapsed {elapsed:.1f} s")


# ------------------------------------------------------------------- criterion 7

def test_criterion_07_noise_scale_recovery(fixture_grid):
    cont, disc = systems_for(fixture_grid, DT_BASE)
    burn_in = default_burn_in(cont)
    n = disc.n_gen
    worst_rel, worst_zero = 0.0, 0.0
    for seed in range(1, 11):
        traj = _steady_traj(disc, 36000, seed, burn_in)
        b_hat = estimate_b(traj, disc.a)
        rel = np.abs(b_hat[n:] / disc.b_diag[n:] - 1.0)
        worst_rel = max(worst_rel, float(np.max(rel)))
        worst_zero = max(worst_zero, float(np.max(b_hat[:n])))
    _report(7, worst_rel <= 0.05 and worst_zero <= 1e-12,
            f"10 seeds, T=36000: worst speed-row error {worst_rel:.4f} "
            f"(limit 0.05), worst angle-row b_hat {worst_zero:.1e}")


# ------------------------------------------------------------------- criterion 8

def _mixing_traj(seed: int = 0, n_steps: int = 300, dim: int = 6) -> Trajectory:
    # fast-mixing rotation dynamics keep sigma0 well conditioned
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    sys = DiscreteSystem(n_gen=dim // 2, a=0.5 * q, b_diag=np.ones(dim),
                         dt=1.0)
    return simulate(sys, n_steps, np.zeros(dim), seed=seed)


def test_criterion_08_regularizer_limits():
    traj = _mixing_traj()
    cov = covariances(traj)
    uml = estimate_uml(cov).a_hat
    checks = []

    near_zero = estimate_tikhonov(cov, np.zeros_like(uml), nu=1e-10).a_hat
    gap_small = float(np.max(np.abs(near_zero - uml)))
    checks.append(("nu->0 equals UML", gap_small <= 1e-8,
                   f"{gap_small:.1e}<=1e-8"))

    rng = np.random.default_rng(8)
    a_prev = rng.standard_normal(uml.shape)
    huge = 1e12 * float(np.trace(cov.sigma0))
    pinned = estimate_tikhonov(cov, a_prev, nu=huge).a_hat
    rel_prev = float(np.linalg.norm(pinned - a_prev) / np.linalg.norm(a_prev))
    checks.append(("huge nu returns a_prev", rel_prev <= 1e-6,
                   f"{rel_prev:.1e}<=1e-6"))

    lasso_free = estimate_lasso(covariances(traj), lam=0.0).a_hat
    rel_free = float(np.linalg.norm(lasso_free - uml) / np.linalg.norm(uml))
    checks.append(("lambda=0 equals UML", rel_free <= 1e-3,
                   f"{rel_free:.1e}<=1e-3"))

    kill = lasso_kill_threshold(cov)
    dead = estimate_lasso(covariances(traj), lam=1.001 * kill).a_hat
    checks.append(("kill threshold zeroes A", bool(np.all(dead == 0.0)),
                   f"max|A|={float(np.max(np.abs(dead))):.1e}"))

    lam = 0.05 * kill
    lasso_ref = estimate_lasso(covariances(traj), lam=lam)
    slr = estimate_sparse_low_rank(covariances(traj), lam=lam, eta=1e12 * kill)
    obj_l = ls_objective(cov, lasso_ref.a_hat) + lam * float(
        np.sum(np.abs(lasso_ref.a_hat)))
    obj_s = ls_objective(cov, slr.a_hat) + lam * float(
        np.sum(np.abs(slr.a_hat)))
    gap_obj = abs(obj_s - obj_l) / max(1.0, abs(obj_l))
    checks.append(("huge eta reduces to LASSO", gap_obj <= 1e-6,
                   f"obj gap {gap_obj:.1e}<=1e-6"))

    ok = all(passed for _, passed, _ in checks)
    detail = "; ".join(f"{name} {msg}" for name, _, msg in checks)
    _report(8, ok, detail)


# ------------------------------------------------------------------- criterion 9

def test_criterion_09_spectral_prediction(sweep):
    dist = sweep["spec_dist_mean"]
    limit = 0.05 * sweep["radius"]
    _report(9, dist <= limit,
            f"mean matched eigenvalue distance {dist:.4f} over {N_SEEDS} "
            f"seeds, limit {limit:.4f} (5% of radius {sweep['radius']:.3f})")


# ------------------------------------------------------------------ criterion 10

def test_criterion_10_determinism_and_round_trips(fixture_grid, tmp_path):
    cont, disc = systems_for(path3_model(), DT_BASE)
    traj_a = _steady_traj(disc, 400, seed=11, burn_in=200)
    traj_b = _steady_traj(disc, 400, seed=11, burn_in=200)
    same_states = bool(np.array_equal(traj_a.states, traj_b.states))
    est_a = estimate_cml(covariances(traj_a)).a_hat
    est_b = estimate_cml(covariances(traj_b)).a_hat
    same_est = bool(np.array_equal(est_a, est_b))

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_trajectory(p1, traj_a)
    save_trajectory(p2, traj_b)
    same_bytes = p1.read_bytes() == p2.read_bytes()
    loaded = load_trajectory(p1)
    traj_exact = bool(np.array_equal(loaded.states, traj_a.states)) \
        and loaded.dt == traj_a.dt

    mp1, mp2 = tmp_path / "m1.grid", tmp_path / "m2.grid"
    save_model(mp1, fixture_grid)
    reloaded = load_model(mp1)
    save_model(mp2, reloaded)
    model_exact = reloaded == fixture_grid \
        and mp1.read_bytes() == mp2.read_bytes()

    xp = tmp_path / "x.csv"
    save_matrix(xp, est_a)
    matrix_exact = bool(np.array_equal(load_matrix(xp), est_a))

    rp = tmp_path / "r.csv"
    records = {"eps": repr(0.1234), "seed": "7"}
    save_records(rp, records)
    records_exact = load_records(rp) == records

    cfg = ExperimentConfig(model_path=str(mp1), t_obs=37.5, seeds=(4, 2),
                           stride=5, estimators=("CML", "LASSO"), lam=0.25,
                           sweep_variable="t_obs", sweep_values=(30.0, 60.0))
    cp = tmp_path / "c.ini"
    save_config(cp, cfg)
    config_exact = load_config(cp) == cfg

    flags = {"identical states": same_states, "identical estimates": same_est,
             "identical bytes": same_bytes, "trajectory": traj_exact,
             "model": model_exact, "matrix": matrix_exact,
             "records": records_exact, "config": config_exact}
    failed = [name for name, ok in flags.items() if not ok]
    _report(10, not failed,
            "all round trips lossless, reruns bit-identical" if not failed
            else f"failed: {', '.join(failed)}")
