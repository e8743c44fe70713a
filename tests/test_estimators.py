from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swingid import estimators
from swingid.estimators import (CML, LASSO, SOLVER_TOL, UML,
                                ConvergenceError, CovariancePair,
                                SingularCovarianceError, covariances,
                                estimate_b, estimate_cml, estimate_lasso,
                                estimate_sparse_low_rank, estimate_tikhonov,
                                estimate_uml, fold_covariances,
                                l1_optimality_gap,
                                lasso_kill_threshold, ls_objective,
                                singular_value_threshold, slr_optimality_gap,
                                soft_threshold, threshold_structure)
from swingid.sim import (DT_BASE, Trajectory, default_burn_in, simulate,
                         spawn_seeds, steady_start, steady_trajectory,
                         subsample)

from conftest import single_gen_model, systems_for, two_gen_model


def make_traj(states: np.ndarray, dt: float = 1.0) -> Trajectory:
    return Trajectory(dt=dt, states=states, n_gen=states.shape[1] // 2)


def noiseless_traj(a: np.ndarray, x0: np.ndarray, n_steps: int) -> Trajectory:
    states = [x0]
    for _ in range(n_steps):
        states.append(a @ states[-1])
    return make_traj(np.array(states))


def noisy_traj(seed: int = 0, n_steps: int = 400, sigma=(0.05, 0.05)) -> Trajectory:
    _, disc = systems_for(two_gen_model(sigma=sigma), DT_BASE)
    return simulate(disc, n_steps, np.zeros(4), seed=seed)


def mixing_traj(seed: int = 0, n_steps: int = 200, dim: int = 4) -> Trajectory:
    # fast-mixing rotation dynamics give a well-conditioned sigma0, so the
    # certificate stopping rule pins the solution tightly
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    from swingid.model import DiscreteSystem
    sys = DiscreteSystem(n_gen=dim // 2, a=0.5 * q, b_diag=np.ones(dim), dt=1.0)
    return simulate(sys, n_steps, np.zeros(dim), seed=seed)


# ------------------------------------------------------------------ covariances

def test_covariances_constant_trajectory():
    x = np.array([1.0, 2.0, -1.0, 0.5])
    cov = covariances(make_traj(np.tile(x, (6, 1))))
    assert np.allclose(cov.sigma0, np.outer(x, x))
    assert np.allclose(cov.sigma1, np.outer(x, x))
    assert cov.n_samples == 6


def test_covariances_two_samples():
    states = np.array([[1.0, 0.0], [2.0, 3.0]])
    cov = covariances(make_traj(states))
    assert np.allclose(cov.sigma1, np.outer(states[1], states[0]))
    assert np.allclose(cov.sigma0, np.outer(states[0], states[0]))
    assert cov.next_sq_sum == pytest.approx(13.0)


def test_covariances_full_rank_at_minimal_length():
    rng = np.random.default_rng(0)
    n = 2
    states = rng.standard_normal((2 * 2 * n + 2, 2 * n))
    cov = covariances(make_traj(states))
    assert np.linalg.matrix_rank(cov.sigma0) == 2 * n


def test_covariances_rejects_short_trajectory():
    with pytest.raises(ValueError, match="at least 2"):
        covariances(make_traj(np.zeros((1, 2))))


@given(st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_covariance_rank_bound(seed):
    rng = np.random.default_rng(seed)
    n_samples = rng.integers(2, 8)
    states = rng.standard_normal((n_samples, 6))
    cov = covariances(make_traj(states))
    assert np.linalg.matrix_rank(cov.sigma0) <= min(6, n_samples - 1)
    evals = np.linalg.eigvalsh(cov.sigma0)
    assert np.min(evals) > -1e-10



def test_covariances_match_reference_formula_bitwise():
    # the one-chunk fold must keep the bits of the direct products
    rng = np.random.default_rng(3)
    for n_samples, dim in [(2, 2), (23, 4), (1000, 20), (4097, 6)]:
        states = rng.standard_normal((n_samples, dim))
        x0, x1 = states[:-1], states[1:]
        sigma0 = x0.T @ x0 / (n_samples - 1)
        cov = covariances(make_traj(states))
        assert np.array_equal(cov.sigma0, (sigma0 + sigma0.T) / 2.0)
        assert np.array_equal(cov.sigma1, x1.T @ x0 / (n_samples - 1))
        assert cov.next_sq_sum == float(np.sum(x1 * x1))
        assert cov.n_samples == n_samples


def _chunked(states: np.ndarray, sizes) -> list[np.ndarray]:
    """Split (..., T, 2N) states along T into consecutive chunk copies."""
    bounds = np.cumsum([0, *sizes])
    assert bounds[-1] == states.shape[-2]
    return [states[..., a:b, :].copy() for a, b in zip(bounds[:-1], bounds[1:])]


def _assert_fold_matches_strided_prefixes(states, chunks, windows):
    folded = fold_covariances(iter(chunks), windows)
    seqs = states.reshape(-1, *states.shape[-2:])
    assert len(folded) == len(windows)
    for (n_keep, stride), pairs in zip(windows, folded):
        assert len(pairs) == len(seqs)
        for seq, got in zip(seqs, pairs):
            ref = covariances(subsample(make_traj(seq[:n_keep]), stride))
            assert got.n_samples == ref.n_samples
            for name in ("sigma0", "sigma1"):
                a, b = getattr(got, name), getattr(ref, name)
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
            assert got.next_sq_sum == pytest.approx(ref.next_sq_sum, rel=1e-12)
            assert np.array_equal(got.sigma0, got.sigma0.T)


def test_fold_matches_covariances_of_strided_prefixes():
    rng = np.random.default_rng(11)
    n2, n_samples = 4, 1000
    states = rng.standard_normal((3, n_samples, n2))
    # X_0 alone, then 128-state chunks and a short tail, as the sweep feeds it
    sizes = [1] + [128] * 7 + [n_samples - 1 - 7 * 128]
    windows = [
        (n_samples, 1), (n_samples, 3),   # stride 3 does not divide T
        (n_samples, 200),                 # stride above the chunk length
        (777, 2),                         # window not a chunk multiple
        (129, 1),                         # window ends on a chunk boundary
        ((2 * n2 + 3 - 1) * 7 + 1, 7),    # exactly 2N+3 states
        (120, 3), (300, 3), (600, 3),     # t_obs-axis prefixes of one stride
    ]
    _assert_fold_matches_strided_prefixes(states, _chunked(states, sizes),
                                          windows)
    assert fold_covariances(_chunked(states, sizes), windows[5:6])[0][0] \
        .n_samples == 2 * n2 + 3


def test_fold_accepts_states_without_a_leading_axis():
    rng = np.random.default_rng(12)
    states = rng.standard_normal((300, 6))
    _assert_fold_matches_strided_prefixes(
        states, _chunked(states, [100, 1, 150, 49]), [(300, 4), (251, 1)])


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_fold_is_independent_of_chunk_boundaries(seed):
    rng = np.random.default_rng(seed)
    n_samples = int(rng.integers(10, 200))
    states = rng.standard_normal((2, n_samples, 2))
    cuts = np.sort(rng.choice(np.arange(1, n_samples), size=int(
        rng.integers(0, min(12, n_samples - 1))), replace=False))
    sizes = np.diff([0, *cuts, n_samples])
    stride = int(rng.integers(1, n_samples // 2 + 1))
    n_keep = int(rng.integers(stride + 1, n_samples + 1))
    _assert_fold_matches_strided_prefixes(
        states, _chunked(states, sizes), [(n_keep, stride), (n_samples, 1)])


def test_fold_shares_each_stride_with_the_bits_of_separate_folds():
    # windows of one stride ending inside a chunk, on its last state, one
    # state past it, twice over, and among the longest window's last states
    rng = np.random.default_rng(13)
    states = rng.standard_normal((2, 1000, 4))
    chunks = _chunked(states, [1] + [128] * 7 + [1000 - 1 - 7 * 128])
    windows = [(1000, 3), (130, 3), (129, 3), (128, 3), (600, 3), (600, 3),
               (998, 3), (777, 2), (300, 2), (1000, 2), (257, 1)]
    together = fold_covariances(iter(chunks), windows)
    for window, pairs in zip(windows, together):
        alone = fold_covariances(iter(chunks), [window])[0]
        for got, ref in zip(pairs, alone, strict=True):
            assert np.array_equal(got.sigma0, ref.sigma0)
            assert np.array_equal(got.sigma1, ref.sigma1)
            assert got.next_sq_sum == ref.next_sq_sum
            assert got.n_samples == ref.n_samples


def test_fold_of_strided_views_keeps_the_bits_of_contiguous_chunks():
    # steady_blocks hands its folds seed-major views of a time-major chunk
    # (STEP_CHUNK steps, max(k, 2) rows); the layout must move no bit
    rng = np.random.default_rng(16)
    n2, sizes = 20, [128] * 7 + [103]
    windows = [(1000, 1), (1000, 2), (1000, 3), (1000, 5), (1000, 10),
               (300, 3), (600, 3)]
    for k in (1, 5, 50):
        x0 = rng.standard_normal((k, 1, n2))
        views = [x0] + [rng.standard_normal((m, max(k, 2), n2))[:, :k]
                        .transpose(1, 0, 2) for m in sizes]
        got = fold_covariances(iter(views), windows)
        ref = fold_covariances(map(np.ascontiguousarray, views), windows)
        for pairs, ref_pairs in zip(got, ref, strict=True):
            for pair, ref_pair in zip(pairs, ref_pairs, strict=True):
                assert np.array_equal(pair.sigma0, ref_pair.sigma0)
                assert np.array_equal(pair.sigma1, ref_pair.sigma1)
                assert pair.next_sq_sum == ref_pair.next_sq_sum


def _count_fold_calls(monkeypatch, chunks, windows) -> int:
    calls = [0]
    real = estimators._fold

    def counting(*args):
        calls[0] += 1
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(estimators, "_fold", counting)
        fold_covariances(iter(chunks), windows)
    return calls[0]


@pytest.mark.parametrize("sizes,windows", [
    # the t_obs windows of configs/fixture10.ini (60 to 1,200 s at stride 3),
    # fed X_0 alone and then 128 states at a time, as the sweep does
    ([1] + [128] * 562 + [63],
     [(3600, 3), (9000, 3), (18000, 3), (36000, 3), (72000, 3)]),
    # repeats, a window ending on a chunk boundary (64 + 128 states) and
    # one ending in the first chunk
    ([64] + [128] * 7 + [40],
     [(1000, 3), (1000, 3), (600, 3), (600, 3), (192, 3), (40, 3)]),
], ids=["fixture-t-obs", "repeats-and-boundaries"])
def test_fold_of_one_stride_costs_its_longest_window_plus_one_call_each(
        monkeypatch, sizes, windows):
    states = np.random.default_rng(14).standard_normal((sum(sizes), 2))
    chunks = _chunked(states, sizes)
    longest = _count_fold_calls(monkeypatch, chunks, [max(windows)])
    assert (_count_fold_calls(monkeypatch, chunks, windows)
            <= longest + len(windows) - 1)


def test_fold_of_a_stride_set_makes_one_call_per_stride_per_chunk(
        monkeypatch):
    # X_0 alone is the one row every stride keeps, so that chunk takes one
    # call; every later chunk takes one per stride
    sizes = [1] + [128] * 20 + [31]
    states = np.random.default_rng(15).standard_normal((sum(sizes), 4))
    strides = (1, 2, 3, 5, 10)
    calls = _count_fold_calls(monkeypatch, _chunked(states, sizes),
                              [(sum(sizes), s) for s in strides])
    assert calls == 1 + len(strides) * (len(sizes) - 1)


def test_fold_rejects_window_with_fewer_than_two_states():
    states = np.random.default_rng(0).standard_normal((10, 2))
    with pytest.raises(ValueError, match="keeps 1 states"):
        fold_covariances([states], [(10, 1), (5, 10)])
    with pytest.raises(ValueError, match="keeps 0 states"):
        fold_covariances([states], [(0, 1)])

# -------------------------------------------------------------------------- UML

def test_uml_recovers_exact_linear_dynamics():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4)) * 0.4 + np.eye(4) * 0.3
    traj = noiseless_traj(a, rng.standard_normal(4), 40)
    result = estimate_uml(covariances(traj))
    assert np.allclose(result.a_hat, a, atol=1e-8)


def test_uml_identity_when_sigmas_equal():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    cov = CovariancePair(sigma0=sigma, sigma1=sigma.copy(), n_samples=10,
                         next_sq_sum=1.0)
    result = estimate_uml(cov)
    assert np.allclose(result.a_hat, np.eye(2), atol=1e-12)


def test_uml_singular_covariance_error_mentions_sample_rule():
    # T = 4 = 2N+2 samples, at or below the sample rule, so the hint names it
    states = np.tile(np.array([1.0, 2.0]), (4, 1))
    with pytest.raises(SingularCovarianceError,
                       match=r"need T > 2N\+2 = 4 samples \(have T=4\)$"):
        estimate_uml(covariances(make_traj(states)))


def test_uml_defining_relation_and_gradient():
    traj = noisy_traj(seed=5)
    cov = covariances(traj)
    result = estimate_uml(cov)
    scale = max(1.0, np.max(np.abs(cov.sigma1)))
    assert np.max(np.abs(result.a_hat @ cov.sigma0 - cov.sigma1)) < 1e-12 * scale
    grad = 2.0 * (cov.n_samples - 1) * (result.a_hat @ cov.sigma0 - cov.sigma1)
    assert np.max(np.abs(grad)) < 1e-8 * max(1.0, cov.n_samples * scale)


def test_uml_structural_rows_exact():
    traj = noisy_traj(seed=6, n_steps=300)
    result = estimate_uml(covariances(traj))
    expected = np.hstack([np.eye(2), DT_BASE * np.eye(2)])
    assert np.max(np.abs(result.a_hat[:2] - expected)) < 1e-10


def test_uml_objective_matches_direct_sum():
    traj = noisy_traj(seed=7, n_steps=50)
    cov = covariances(traj)
    result = estimate_uml(cov)
    direct = np.sum((traj.states[1:] - traj.states[:-1] @ result.a_hat.T) ** 2)
    assert result.objective == pytest.approx(direct, rel=1e-9, abs=1e-12)


# -------------------------------------------------------------------------- CML

def test_cml_vacuous_for_single_generator():
    _, disc = systems_for(single_gen_model(sigma=0.05), DT_BASE)
    traj = simulate(disc, 200, np.zeros(2), seed=11)
    uml_hat = estimate_uml(covariances(traj)).a_hat
    cml_hat = estimate_cml(covariances(traj)).a_hat
    assert np.allclose(cml_hat, uml_hat, atol=1e-12)


def test_cml_exact_recovery_on_constrained_truth():
    rng = np.random.default_rng(2)
    a = np.zeros((4, 4))
    a[:2] = rng.standard_normal((2, 4)) * 0.3
    a[2:, :2] = rng.standard_normal((2, 2)) * 0.3
    a[2, 2] = 0.6
    a[3, 3] = 0.7
    traj = noiseless_traj(a, rng.standard_normal(4), 60)
    result = estimate_cml(covariances(traj))
    assert np.allclose(result.a_hat, a, atol=1e-8)


def test_cml_zero_pattern_is_exact():
    result = estimate_cml(covariances(noisy_traj(seed=8)))
    assert result.a_hat[2, 3] == 0.0
    assert result.a_hat[3, 2] == 0.0


def test_cml_objective_no_better_than_uml():
    traj = noisy_traj(seed=9)
    cov = covariances(traj)
    uml_obj = estimate_uml(cov).objective
    cml_obj = estimate_cml(covariances(traj)).objective
    assert cml_obj >= uml_obj - 1e-10 * max(1.0, abs(uml_obj))


def test_cml_equals_uml_when_constraint_already_satisfied():
    rng = np.random.default_rng(3)
    a = np.zeros((4, 4))
    a[:2] = rng.standard_normal((2, 4)) * 0.3
    a[2:, :2] = rng.standard_normal((2, 2)) * 0.3
    a[2, 2], a[3, 3] = 0.5, 0.6
    traj = noiseless_traj(a, rng.standard_normal(4), 60)
    cov = covariances(traj)
    assert estimate_cml(covariances(traj)).objective == pytest.approx(
        estimate_uml(cov).objective, abs=1e-10)


def test_cml_rank_deficient_restricted_regressor():
    # 12 samples are enough for 2N = 4, so the hint names collinearity
    states = np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (12, 1))
    with pytest.raises(SingularCovarianceError,
                       match=r"rank-deficient; the regressors are collinear "
                             r"over T=12 samples$"):
        estimate_cml(covariances(make_traj(states)))


def test_cml_rejects_odd_state_dimension():
    cov = CovariancePair(sigma0=np.eye(3), sigma1=np.eye(3), n_samples=10,
                         next_sq_sum=1.0)
    with pytest.raises(ValueError, match="even state dimension"):
        estimate_cml(cov)


# --------------------------------------------------------------------- Tikhonov

def gradient_descent_tikhonov(cov, a_prev, nu, iters=200_000):
    """Independent oracle: plain gradient descent on the penalized objective."""
    tm1 = cov.n_samples - 1
    lip = 2.0 * tm1 * np.linalg.eigvalsh(cov.sigma0)[-1] + 2.0 * nu
    step = 1.0 / lip
    a = np.zeros_like(cov.sigma0)
    for _ in range(iters):
        grad = 2.0 * tm1 * (a @ cov.sigma0 - cov.sigma1) + 2.0 * nu * (a - a_prev)
        new = a - step * grad
        if np.max(np.abs(new - a)) < 1e-14:
            return new
        a = new
    return a


def test_tikhonov_nu_zero_equals_uml():
    cov = covariances(noisy_traj(seed=12))
    uml_hat = estimate_uml(cov).a_hat
    tik_hat = estimate_tikhonov(cov, np.zeros((4, 4)), 0.0).a_hat
    assert np.allclose(tik_hat, uml_hat, atol=1e-12)


def test_tikhonov_huge_nu_returns_prior():
    cov = covariances(noisy_traj(seed=13))
    a_prev = np.arange(16.0).reshape(4, 4) / 10.0
    nu = 1e12 * np.trace(cov.sigma0)
    tik_hat = estimate_tikhonov(cov, a_prev, nu).a_hat
    assert np.linalg.norm(tik_hat - a_prev) < 1e-6 * np.linalg.norm(a_prev)


def test_tikhonov_matches_gradient_descent_oracle():
    sigma0 = np.array([[2.0, 0.3], [0.3, 1.0]])
    sigma1 = np.array([[0.5, -0.2], [0.8, 0.1]])
    a_prev = np.array([[0.1, 0.0], [0.0, 0.2]])
    cov = CovariancePair(sigma0=sigma0, sigma1=sigma1, n_samples=10,
                         next_sq_sum=5.0)
    closed = estimate_tikhonov(cov, a_prev, 1.0).a_hat
    oracle = gradient_descent_tikhonov(cov, a_prev, 1.0)
    assert np.max(np.abs(closed - oracle)) < 1e-8


def test_tikhonov_rejects_negative_nu():
    cov = covariances(noisy_traj(seed=14))
    with pytest.raises(ValueError, match="nonnegative"):
        estimate_tikhonov(cov, np.zeros((4, 4)), -0.5)


def test_tikhonov_shrinks_toward_prior_monotonically():
    cov = covariances(noisy_traj(seed=15))
    a_prev = np.eye(4) * 0.5
    dists = [np.linalg.norm(estimate_tikhonov(cov, a_prev, nu).a_hat - a_prev)
             for nu in (0.1, 1.0, 10.0, 100.0)]
    assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(dists, dists[1:]))


# ---------------------------------------------------- one restricted closed form

@pytest.fixture(scope="module")
def fixture_pairs(fixture_systems):
    # 10-minute fixture windows of seeds 1 and 2 at strides 1, 3 and 10
    cont, disc = fixture_systems
    burn_in = default_burn_in(cont)
    trajs = [steady_trajectory(disc, round(600 / DT_BASE), burn_in, seed)
             for seed in (1, 2)]
    return [covariances(subsample(t, s)) for t in trajs for s in (1, 3, 10)]


def ridge_reference(cov, a_prev, nu):
    """(Sigma_1 + nu' A_prev)(Sigma_0 + nu' I)^-1, nu' = nu/(T-1), one solve."""
    ridge = nu / (cov.n_samples - 1)
    lhs = cov.sigma0 + ridge * np.eye(cov.sigma0.shape[0])
    rhs = cov.sigma1 + ridge * a_prev
    return np.linalg.solve(lhs.T, rhs.T).T


def test_uml_and_tikhonov_equal_one_plain_solve_bitwise(fixture_pairs):
    rng = np.random.default_rng(40)
    for cov in fixture_pairs:
        ref = np.linalg.solve(cov.sigma0.T, cov.sigma1.T).T
        assert np.array_equal(estimate_uml(cov).a_hat, ref)
        a_prev = 0.1 * rng.standard_normal(cov.sigma0.shape)
        for nu in (0.0, 10.0):
            assert np.array_equal(estimate_tikhonov(cov, a_prev, nu).a_hat,
                                  ridge_reference(cov, a_prev, nu))


def test_cml_matches_a_per_row_restricted_solve(fixture_pairs):
    n = 10
    support = np.ones((2 * n, 2 * n), dtype=bool)
    support[n:, n:] = np.eye(n, dtype=bool)
    for cov in fixture_pairs:
        # reference: each row solves its own restricted normal equations
        ref = np.zeros((2 * n, 2 * n))
        for i, cols in enumerate(support):
            ref[i, cols] = np.linalg.solve(cov.sigma0[np.ix_(cols, cols)],
                                           cov.sigma1[i, cols])
        a_hat = estimate_cml(cov).a_hat
        assert np.linalg.norm(a_hat - ref) <= 1e-13 * np.linalg.norm(ref)
        off = a_hat[~support]
        assert np.all(off == 0.0) and not np.any(np.signbit(off))


def test_tikhonov_ridge_solves_a_window_too_short_for_uml():
    # T = 4 <= 2N+2 = 6: Sigma_0 is singular, the regularised block is not,
    # and the condition check applies to the regularised block
    cov = covariances(noisy_traj(seed=16, n_steps=3))
    with pytest.raises(SingularCovarianceError, match="2N\\+2"):
        estimate_uml(cov)
    with pytest.raises(SingularCovarianceError, match="2N\\+2"):
        estimate_tikhonov(cov, np.eye(4), 0.0)
    a_prev = 0.5 * np.eye(4)
    assert np.array_equal(estimate_tikhonov(cov, a_prev, 1.0).a_hat,
                          ridge_reference(cov, a_prev, 1.0))


def test_every_closed_form_runs_the_gradient_certificate():
    # cond(Sigma_0) ~ 1e11 passes COND_THRESHOLD, but against an
    # unrelated Sigma_1 the solve leaves normal-equation residuals far above
    # 1e-8 of the scale
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    sigma0 = q @ np.diag([1.0, 1.0, 1.0, 1e-11]) @ q.T
    cov = CovariancePair(sigma0=(sigma0 + sigma0.T) / 2,
                         sigma1=rng.standard_normal((4, 4)), n_samples=100,
                         next_sq_sum=10.0)
    assert np.linalg.cond(cov.sigma0) < 1e12
    for fit in (estimate_uml, estimate_cml,
                lambda c: estimate_tikhonov(c, np.zeros((4, 4)), 0.0)):
        with pytest.raises(SingularCovarianceError, match="residual gradient"):
            fit(cov)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_tikhonov_rejects_non_finite_prior(bad):
    cov = covariances(noisy_traj(seed=17))
    a_prev = np.zeros((4, 4))
    a_prev[1, 2] = bad
    for nu in (0.0, 1.0):
        with pytest.raises(ValueError, match="a_prev"):
            estimate_tikhonov(cov, a_prev, nu)


# ------------------------------------------------------------------------ LASSO

def coordinate_descent_lasso(traj, lam, sweeps=20_000):
    """Independent oracle: cyclic coordinate descent on the l1 objective."""
    x0, x1 = traj.states[:-1], traj.states[1:]
    g0 = x0.T @ x0  # raw Gram matrices, no 1/(T-1) normalization
    g1 = x1.T @ x0
    n2 = x0.shape[1]
    a = np.zeros((n2, n2))
    prev_obj = np.inf
    for _ in range(sweeps):
        for i in range(n2):
            for j in range(n2):
                if g0[j, j] == 0.0:
                    continue
                rho = g1[i, j] - a[i] @ g0[:, j] + a[i, j] * g0[j, j]
                a[i, j] = np.sign(rho) * max(abs(rho) - lam / 2.0, 0.0) / g0[j, j]
        obj = np.sum((x1 - x0 @ a.T) ** 2) + lam * np.sum(np.abs(a))
        if prev_obj - obj < 1e-14 * max(1.0, abs(obj)):
            break
        prev_obj = obj
    return a, obj


def test_lasso_zero_penalty_equals_uml():
    traj = mixing_traj(seed=16)
    uml_hat = estimate_uml(covariances(traj)).a_hat
    lasso_hat = estimate_lasso(covariances(traj), 0.0).a_hat
    assert np.linalg.norm(lasso_hat - uml_hat) < 1e-3 * np.linalg.norm(uml_hat)


def test_lasso_kill_threshold_returns_exact_zero():
    traj = noisy_traj(seed=17, n_steps=100)
    lam = lasso_kill_threshold(covariances(traj))
    result = estimate_lasso(covariances(traj), lam)
    assert np.all(result.a_hat == 0.0)
    assert result.hyperparams["iterations"] <= 2


def test_lasso_matches_coordinate_descent_oracle():
    traj = noisy_traj(seed=18, n_steps=60)
    lam = 0.3 * lasso_kill_threshold(covariances(traj))
    result = estimate_lasso(covariances(traj), lam)
    _, oracle_obj = coordinate_descent_lasso(traj, lam)
    assert result.objective == pytest.approx(oracle_obj, abs=1e-8)


def test_lasso_rejects_negative_penalty():
    with pytest.raises(ValueError, match="nonnegative"):
        estimate_lasso(covariances(noisy_traj(seed=19, n_steps=30)), -1.0)


def test_lasso_support_shrinks_with_penalty():
    traj = noisy_traj(seed=20, n_steps=150)
    kill = lasso_kill_threshold(covariances(traj))
    counts = [np.count_nonzero(estimate_lasso(covariances(traj), f * kill).a_hat)
              for f in (0.0, 0.01, 0.05, 0.2, 0.5, 1.0)]
    assert all(c2 <= c1 for c1, c2 in zip(counts, counts[1:]))
    assert counts[-1] == 0


def test_lasso_subgradient_certificate():
    traj = mixing_traj(seed=21, n_steps=120)
    cov = covariances(traj)
    lam = 0.1 * lasso_kill_threshold(cov)
    result = estimate_lasso(covariances(traj), lam)
    # the solver certifies optimality to 1e-4 of the gradient scale
    scale = max(lam, 2.0 * (cov.n_samples - 1) * np.max(np.abs(cov.sigma1)))
    assert l1_optimality_gap(cov, result.a_hat, lam) < 1e-4 * scale


def test_lasso_nonconvergence_carries_diagnostics(monkeypatch):
    traj = noisy_traj(seed=22, n_steps=200)
    monkeypatch.setattr(estimators, "SOLVER_MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as excinfo:
        estimate_lasso(covariances(traj), 1e-6)
    assert excinfo.value.iterations == 3
    assert np.isfinite(excinfo.value.objective)
    assert excinfo.value.gap > 0.0


def test_lasso_objective_history_monotone():
    traj = noisy_traj(seed=23, n_steps=80)
    result = estimate_lasso(covariances(traj),
                            0.05 * lasso_kill_threshold(covariances(traj)))
    history = np.array(result.objective_history)
    assert np.all(np.diff(history) <= 1e-9 * np.maximum(1.0, np.abs(history[:-1])))


# ------------------------------------------------------------ sparse + low rank

def test_slr_huge_eta_reduces_to_lasso():
    traj = noisy_traj(seed=24, n_steps=100)
    lam = 0.2 * lasso_kill_threshold(covariances(traj))
    slr = estimate_sparse_low_rank(covariances(traj), lam, 1e9)
    lasso = estimate_lasso(covariances(traj), lam)
    assert np.all(slr.l_hat == 0.0)
    assert slr.objective == pytest.approx(lasso.objective, abs=1e-6)


def test_slr_both_penalties_huge_gives_zero():
    traj = noisy_traj(seed=25, n_steps=80)
    lam = 2.0 * lasso_kill_threshold(covariances(traj))
    result = estimate_sparse_low_rank(covariances(traj), lam, 1e9)
    assert np.all(result.a_hat == 0.0)
    assert np.all(result.l_hat == 0.0)


def test_slr_beats_ground_truth_objective_on_low_rank_mix():
    rng = np.random.default_rng(4)
    a_true = np.diag([0.5, 0.4, 0.6, 0.3])
    l_true = 0.2 * np.outer(rng.standard_normal(4), rng.standard_normal(4))
    traj = noiseless_traj(a_true + l_true, rng.standard_normal(4), 50)
    lam, eta = 0.1, 0.1
    result = estimate_sparse_low_rank(covariances(traj), lam, eta)
    cov = covariances(traj)
    truth_obj = (ls_objective(cov, a_true + l_true)
                 + lam * np.sum(np.abs(a_true))
                 + eta * np.sum(np.linalg.svd(l_true, compute_uv=False)))
    assert result.objective <= truth_obj + 1e-9
    history = np.array(result.objective_history)
    assert np.all(np.diff(history) <= 1e-9 * np.maximum(1.0, np.abs(history[:-1])))


def test_slr_rejects_negative_penalties():
    traj = noisy_traj(seed=26, n_steps=30)
    with pytest.raises(ValueError, match="nonnegative"):
        estimate_sparse_low_rank(covariances(traj), -1.0, 1.0)


@pytest.mark.parametrize("lam,eta", [(float("nan"), 1.0), (float("inf"), 1.0),
                                     (1.0, float("nan")), (1.0, float("inf"))])
def test_sparse_solvers_reject_nonfinite_penalties(lam, eta):
    traj = noisy_traj(seed=26, n_steps=30)
    with pytest.raises(ValueError, match="finite"):
        estimate_sparse_low_rank(covariances(traj), lam, eta)
    if not np.isfinite(lam):
        with pytest.raises(ValueError, match="finite"):
            estimate_lasso(covariances(traj), lam)


def _low_rank_mix():
    rng = np.random.default_rng(4)
    a_true = np.diag([0.5, 0.4, 0.6, 0.3])
    l_true = 0.2 * np.outer(rng.standard_normal(4), rng.standard_normal(4))
    return noiseless_traj(a_true + l_true, rng.standard_normal(4), 50)


def test_slr_optimality_gap_vanishes_at_solver_output():
    traj = _low_rank_mix()
    cov = covariances(traj)
    lam = eta = 0.1
    result = estimate_sparse_low_rank(covariances(traj), lam, eta)
    assert np.linalg.matrix_rank(result.l_hat) >= 1
    scale = max(lam, lasso_kill_threshold(cov), 1.0)
    gap = slr_optimality_gap(cov, result.a_hat, result.l_hat, lam, eta)
    assert gap == pytest.approx(result.hyperparams["optimality_gap"],
                                rel=1e-6, abs=1e-12 * scale)
    assert gap <= SOLVER_TOL * scale * (1.0 + 1e-6)
    # every step counts, rejected ones too, and only accepted points are kept
    assert result.hyperparams["iterations"] >= len(result.objective_history) - 1


def test_slr_optimality_gap_positive_off_optimum():
    traj = _low_rank_mix()
    cov = covariances(traj)
    lam = eta = 0.1
    result = estimate_sparse_low_rank(covariances(traj), lam, eta)
    scale = max(lam, lasso_kill_threshold(cov), 1.0)
    bumped_low = result.l_hat + 1e-2 * np.outer([1.0, 0, 0, 0], [0, 1.0, 0, 0])
    assert slr_optimality_gap(cov, result.a_hat, bumped_low, lam, eta) > 1e-3 * scale
    bumped_a = result.a_hat.copy()
    bumped_a[0, 0] += 1e-2
    assert slr_optimality_gap(cov, bumped_a, result.l_hat, lam, eta) > 1e-3 * scale


def test_slr_optimality_gap_sees_gradient_off_the_row_space():
    # sigma0 = I and T = 2 make G = 2(A + L - sigma1), so sigma1 sets G
    eta, leak = 1.0, 0.3
    low = np.diag([2.0, 0.0, 0.0])
    # optimal: -G = eta (e1 e1^T + W) with W off e1 and ||W||_2 <= 1
    optimal = eta * np.diag([1.0, 0.5, 0.0])
    for neg_grad, expected in [(optimal, 0.0),
                               (eta * np.diag([0.7, 0.5, 0.0]), 0.3 * eta),
                               (optimal + leak * np.outer([1, 0, 0], [0, 1, 0]), leak),
                               (optimal + leak * np.outer([0, 0, 1], [1, 0, 0]), leak),
                               (eta * np.diag([1.0, 1.5, 0.0]), 0.5 * eta)]:
        cov = CovariancePair(sigma0=np.eye(3), sigma1=low + neg_grad / 2.0,
                             n_samples=2, next_sq_sum=0.0)
        # lambda large enough that A = 0 is l1-optimal: only L can fail
        gap = slr_optimality_gap(cov, np.zeros((3, 3)), low, 10.0, eta)
        assert gap == pytest.approx(expected, abs=1e-12)


def test_slr_optimality_gap_reduces_to_l1_gap_at_zero_low_rank():
    traj = noisy_traj(seed=30, n_steps=120)
    cov = covariances(traj)
    lam = 0.2 * lasso_kill_threshold(cov)
    for a in (estimate_lasso(covariances(traj), lam).a_hat, np.zeros((4, 4)),
              np.diag([0.9, 0.0, 0.5, 0.0])):
        grad = 2.0 * (cov.n_samples - 1) * (a @ cov.sigma0 - cov.sigma1)
        eta = np.linalg.norm(grad, 2)
        assert slr_optimality_gap(cov, a, np.zeros((4, 4)), lam, eta) \
            == l1_optimality_gap(cov, a, lam)


def fixture_window(fixture_systems, seed):
    # the 10-minute fixture window at stride 3, simulated as
    # `swingid simulate --seed SEED` does
    cont, disc = fixture_systems
    burn_seed, run_seed = spawn_seeds(seed, 2)
    x0 = steady_start(disc, default_burn_in(cont), burn_seed)
    return subsample(simulate(disc, round(600 / DT_BASE) - 1, x0, run_seed), 3)


@pytest.fixture(scope="module")
def fixture_seed1_window(fixture_systems):
    # the README quick-start window
    return fixture_window(fixture_systems, 1)


@pytest.fixture(scope="module")
def fixture_seed3_window(fixture_systems):
    # cond sigma0 ~ 3.5e4
    return fixture_window(fixture_systems, 3)


def test_fixture_seed3_ill_conditioned_window_is_certified(fixture_seed3_window):
    # this window once ran LASSO into its iteration budget
    traj = fixture_seed3_window
    cov = covariances(traj)
    assert np.linalg.cond(cov.sigma0) > 1e4
    lam = 0.01 * lasso_kill_threshold(cov)
    scale = max(lam, lasso_kill_threshold(cov), 1.0)
    lasso = estimate_lasso(covariances(traj), lam)
    assert l1_optimality_gap(cov, lasso.a_hat, lam) <= SOLVER_TOL * scale
    slr = estimate_sparse_low_rank(covariances(traj), lam, 5.0 * lam)
    assert slr_optimality_gap(cov, slr.a_hat, slr.l_hat, lam, 5.0 * lam) \
        <= SOLVER_TOL * scale * (1.0 + 1e-6)


# ------------------------------------------------------------------- estimate_b

def test_b_hat_zero_on_noiseless_data():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4)) * 0.3
    traj = noiseless_traj(a, rng.standard_normal(4), 40)
    assert np.max(estimate_b(traj, a)) < 1e-12


def test_b_hat_recovers_noise_scale():
    _, disc = systems_for(two_gen_model(sigma=(0.02, 0.03)), DT_BASE)
    traj = simulate(disc, 30_000, np.zeros(4), seed=27)
    b_hat = estimate_b(traj, disc.a)
    assert np.allclose(b_hat[2:], disc.b_diag[2:], rtol=0.05)


@pytest.mark.parametrize("n_steps", [1023, 1024, 2048, 2500])
def test_b_hat_blocks_keep_the_bits_of_one_pass(n_steps):
    # T - 1 below, equal to, a multiple of and not a multiple of the
    # 1,024-row block: each block's squares continue the column sums in
    # row order, as one sum along axis 0 adds them
    rng = np.random.default_rng(n_steps)
    states = rng.standard_normal((n_steps + 1, 20))
    a_hat = rng.standard_normal((20, 20))
    resid = states[1:] - states[:-1] @ a_hat.T
    one_pass = np.sqrt(np.mean(resid * resid, axis=0))
    got = estimate_b(Trajectory(dt=DT_BASE, states=states, n_gen=10), a_hat)
    assert np.array_equal(got.view(np.uint64), one_pass.view(np.uint64))


def test_b_hat_structural_rows_near_zero_with_uml():
    traj = noisy_traj(seed=28, n_steps=500)
    a_hat = estimate_uml(covariances(traj)).a_hat
    b_hat = estimate_b(traj, a_hat)
    assert np.max(b_hat[:2]) <= 1e-10


# ----------------------------------------------------------- threshold + helpers

def test_threshold_structure_counts_and_idempotence():
    rng = np.random.default_rng(6)
    dense = rng.standard_normal((8, 8))
    once = threshold_structure(dense, 4)
    zeroed = (dense != 0) & (once == 0)
    assert np.count_nonzero(zeroed) == 4 * 3
    assert np.array_equal(threshold_structure(once, 4), once)
    # everything outside the lower-right off-diagonal block is untouched
    mask = np.ones((8, 8), dtype=bool)
    mask[4:, 4:] = np.eye(4, dtype=bool)
    assert np.array_equal(once[mask], dense[mask])


def test_threshold_structure_writes_positive_zeros():
    # negative entries cleared by a mask product would come back as -0.0
    dense = -1.0 - np.abs(np.random.default_rng(7).standard_normal((6, 6)))
    out = threshold_structure(dense, 3)
    zeroed = out == 0.0
    assert np.count_nonzero(zeroed) == 3 * 2
    assert not np.any(np.signbit(out[zeroed]))


def test_soft_threshold():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.allclose(soft_threshold(x, 1.0), [-1.0, 0.0, 0.0, 0.0, 1.0])


def test_singular_value_threshold_shrinks_rank():
    m = np.diag([3.0, 1.0, 0.2])
    out = singular_value_threshold(m, 0.5)
    assert np.allclose(out, np.diag([2.5, 0.5, 0.0]), atol=1e-12)


def test_estimators_are_deterministic():
    traj = noisy_traj(seed=29, n_steps=120)
    cov = covariances(traj)
    assert np.array_equal(estimate_uml(cov).a_hat, estimate_uml(cov).a_hat)
    assert np.array_equal(estimate_cml(covariances(traj)).a_hat,
                          estimate_cml(covariances(traj)).a_hat)
    lam = 0.1 * lasso_kill_threshold(cov)
    assert np.array_equal(estimate_lasso(covariances(traj), lam).a_hat,
                          estimate_lasso(covariances(traj), lam).a_hat)


def test_sparse_low_rank_reaches_tight_certificate(fixture_seed3_window,
                                                   monkeypatch):
    # accepting steps on the objective difference, not on J evaluated
    # through sum ||X_{t+1}||^2, keeps 1e-8 reachable
    traj = fixture_seed3_window
    cov = covariances(traj)
    lam = 0.01 * lasso_kill_threshold(cov)
    monkeypatch.setattr(estimators, "SOLVER_TOL", 1e-8)
    monkeypatch.setattr(estimators, "SOLVER_MAX_ITER", 20_000)
    result = estimate_sparse_low_rank(covariances(traj), lam, 5.0 * lam)
    assert result.hyperparams["optimality_gap"] <= 1e-8 * max(
        lam, lasso_kill_threshold(cov), 1.0)
    history = np.array(result.objective_history)
    assert np.all(np.diff(history) <= 0.0)


# ------------------------------------------------------- solver work per step

def reference_prox_grad(cov, blocks, scale, name):
    """The solver loop before its certificate was ordered, kept as it was.

    Only the module's names are qualified and the comments dropped.  It
    evaluates every block certificate at every accepted point and
    recomputes the accepted point's sum and penalty at every step.
    """
    n2 = cov.sigma0.shape[0]
    lip = 2.0 * (cov.n_samples - 1) * float(np.linalg.eigvalsh(cov.sigma0)[-1])
    step = 1.0 / (len(blocks) * lip) if lip > 0.0 else 0.0

    def certificate(aux, grad):
        return max(b.gap(aux_k, grad, b.weight) for b, aux_k in zip(blocks, aux))

    def penalty(aux):
        return sum(b.weight * b.norm(aux_k) for b, aux_k in zip(blocks, aux))

    x = np.zeros((len(blocks), n2, n2))
    aux = [b.prox(x_k, 0.0)[1] for b, x_k in zip(blocks, x)]
    gap = certificate(aux, estimators._ls_gradient(cov, x.sum(axis=0)))
    obj = ls_objective(cov, x.sum(axis=0))
    history = [obj]
    x_prev, theta, it = x, 1.0, 0
    while not gap <= estimators.SOLVER_TOL * scale:
        if it == estimators.SOLVER_MAX_ITER:
            raise ConvergenceError(f"{name} did not reach its certificate",
                                   iterations=it, objective=obj, gap=gap)
        it += 1
        theta_next = (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        y = x + ((theta - 1.0) / theta_next) * (x - x_prev)
        v = y - step * estimators._ls_gradient(cov, y.sum(axis=0))
        steps = [b.prox(v_k, step * b.weight) for b, v_k in zip(blocks, v)]
        z = np.stack([z_k for z_k, _ in steps])
        new_aux = [aux_k for _, aux_k in steps]
        z_sum, x_sum = z.sum(axis=0), x.sum(axis=0)
        change = (cov.n_samples - 1) * float(np.sum(
            (z_sum - x_sum) * ((z_sum + x_sum) @ cov.sigma0 - 2.0 * cov.sigma1)))
        change += penalty(new_aux) - penalty(aux)
        if not change <= 0.0:
            x_prev, theta = x, 1.0
            continue
        x_prev, x, theta, aux = x, z, theta_next, new_aux
        obj += change
        history.append(obj)
        gap = certificate(aux, estimators._ls_gradient(cov, x.sum(axis=0)))
    return x, it, gap, obj, tuple(history)


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def solve_both_ways(cov, lam, eta):
    """LASSO (eta None) or sparse + low rank, and the reference loop's solve."""
    scale = max(lam, lasso_kill_threshold(cov), 1.0)
    if eta is None:
        blocks = (estimators._l1_block(lam),)
        solve = partial(estimate_lasso, cov, lam)
    else:
        blocks = (estimators._l1_block(lam), estimators._nuclear_block(eta))
        solve = partial(estimate_sparse_low_rank, cov, lam, eta)
    return solve, partial(reference_prox_grad, cov, blocks, scale, "reference")


def assert_matches_reference(cov, lam, eta):
    solve, reference = solve_both_ways(cov, lam, eta)
    result = solve()
    x, it, gap, obj, history = reference()
    assert bits(result.a_hat) == bits(x[0])
    if eta is not None:
        assert bits(result.l_hat) == bits(x[1])
    assert bits(result.objective) == bits(obj)
    assert bits(result.objective_history) == bits(history)
    assert result.hyperparams["iterations"] == it
    assert bits(result.hyperparams["optimality_gap"]) == bits(gap)


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("sparse_low_rank", [False, True], ids=["LASSO", "SLR"])
def test_solvers_match_the_reference_loop_on_fixture_windows(
        fixture_systems, seed, sparse_low_rank):
    cov = covariances(fixture_window(fixture_systems, seed))
    lam = 0.01 * lasso_kill_threshold(cov)
    assert_matches_reference(cov, lam, 5.0 * lam if sparse_low_rank else None)


@pytest.mark.parametrize("seed,lam_frac,eta_ratio", [
    (30, 0.01, 5.0), (31, 0.1, 0.5), (32, 0.3, 2.0), (33, 0.0, 1.0)])
def test_solvers_match_the_reference_loop_on_small_problems(seed, lam_frac,
                                                            eta_ratio):
    for traj in (noisy_traj(seed=seed, n_steps=150),
                 mixing_traj(seed=seed, n_steps=100, dim=6)):
        cov = covariances(traj)
        lam = lam_frac * lasso_kill_threshold(cov)
        assert_matches_reference(cov, lam, None)
        assert_matches_reference(cov, lam, eta_ratio * max(lam, 1.0))


@pytest.mark.parametrize("sparse_low_rank", [False, True], ids=["LASSO", "SLR"])
def test_nonconvergence_matches_the_reference_loop(fixture_seed1_window,
                                                   monkeypatch, sparse_low_rank):
    # after 3 steps the l1 certificate still fails, so the solver's last
    # check stopped early; the raised gap is the full certificate
    monkeypatch.setattr(estimators, "SOLVER_MAX_ITER", 3)
    cov = covariances(fixture_seed1_window)
    lam = 0.01 * lasso_kill_threshold(cov)
    solve, reference = solve_both_ways(cov, lam,
                                       5.0 * lam if sparse_low_rank else None)
    with pytest.raises(ConvergenceError) as got:
        solve()
    with pytest.raises(ConvergenceError) as want:
        reference()
    assert got.value.iterations == want.value.iterations == 3
    assert bits(got.value.objective) == bits(want.value.objective)
    assert bits(got.value.gap) == bits(want.value.gap)
    assert got.value.gap > 0.0


def test_nan_nuclear_certificate_is_never_certified(monkeypatch):
    # max() over the blocks once kept the l1 gap 0.0 ahead of a NaN nuclear
    # gap and certified the zero start after 0 steps
    cov = covariances(noisy_traj(seed=34, n_steps=100))
    lam = 2.0 * lasso_kill_threshold(cov)
    monkeypatch.setattr(estimators, "_nuclear_gap", lambda *args: float("nan"))
    monkeypatch.setattr(estimators, "SOLVER_MAX_ITER", 5)
    with pytest.raises(ConvergenceError) as excinfo:
        estimate_sparse_low_rank(cov, lam, 1e6)
    assert excinfo.value.iterations == 5
    assert np.isnan(excinfo.value.gap)
    zero = np.zeros((4, 4))
    assert np.isnan(slr_optimality_gap(cov, zero, zero, lam, 1e6))


def test_nuclear_certificate_runs_only_where_the_l1_one_passes(
        fixture_seed1_window, monkeypatch):
    cov = covariances(fixture_seed1_window)
    lam = 0.01 * lasso_kill_threshold(cov)
    tol = SOLVER_TOL * max(lam, lasso_kill_threshold(cov), 1.0)
    l1_gap, nuclear_gap = estimators._l1_gap, estimators._nuclear_gap
    svd = np.linalg.svd
    l1_gaps, nuclear_after, svd_calls = [], [], []

    def counted_l1_gap(*args):
        l1_gaps.append(l1_gap(*args))
        return l1_gaps[-1]

    def counted_nuclear_gap(*args):
        nuclear_after.append(len(l1_gaps) - 1)
        return nuclear_gap(*args)

    def counted_svd(*args, **kwargs):
        svd_calls.append(None)
        return svd(*args, **kwargs)

    monkeypatch.setattr(estimators, "_l1_gap", counted_l1_gap)
    monkeypatch.setattr(estimators, "_nuclear_gap", counted_nuclear_gap)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    result = estimate_sparse_low_rank(cov, lam, 5.0 * lam)
    steps = result.hyperparams["iterations"]
    # one certificate per accepted point, the zero start included
    assert len(l1_gaps) == len(result.objective_history)
    # the nuclear block runs exactly where the l1 block passes: a handful
    # of points against hundreds of steps
    assert nuclear_after == [k for k, g in enumerate(l1_gaps) if g <= tol]
    assert 1 <= len(nuclear_after) <= 10 and steps > 500
    # one SVD per proximal step, plus the prox of the zero start
    assert len(svd_calls) == steps + 1
