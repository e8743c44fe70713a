from __future__ import annotations

import math
import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swingid import estimators
from swingid.analysis import (BoundReport, relative_error, spectral_distance,
                              spectrum, theorem1_bound, to_continuous)
from swingid.estimators import covariances
from swingid.model import build_continuous, build_discrete
from swingid.sim import DT_BASE, STEP_GROUP, spawn_seeds, steady_trajectory

from conftest import (grid_models, path3_model, single_gen_model,
                      systems_for, two_gen_model)


# ---------------------------------------------------------------- to_continuous

def test_identity_maps_to_null_dynamics():
    assert np.array_equal(to_continuous(np.eye(4), 0.3), np.zeros((4, 4)))


def test_inverts_forward_euler():
    rng = np.random.default_rng(0)
    a_d = rng.standard_normal((4, 4))
    dt = 1.0 / 60.0
    assert np.allclose(to_continuous(np.eye(4) + dt * a_d, dt), a_d, atol=1e-12)


def test_roundtrip_on_two_generator_model():
    cont, disc = systems_for(two_gen_model(), DT_BASE)
    assert np.allclose(to_continuous(disc.a, disc.dt), cont.a_d, atol=1e-12)


def test_to_continuous_rejects_bad_dt():
    with pytest.raises(ValueError, match="dt"):
        to_continuous(np.eye(2), 0.0)


@given(grid_models(), st.floats(min_value=1e-4, max_value=1.0, allow_nan=False))
@settings(max_examples=40)
def test_roundtrip_property(model, dt):
    cont, disc = systems_for(model, dt)
    assert np.allclose(to_continuous(disc.a, dt), cont.a_d, atol=1e-9)


# --------------------------------------------------------------- relative_error

def test_relative_error_trivial_values():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert relative_error(a, a) == 0.0
    assert relative_error(np.zeros((2, 2)), a) == 1.0
    assert relative_error(2.0 * a, a) == pytest.approx(1.0)


def test_relative_error_rejects_zero_reference():
    with pytest.raises(ValueError, match="zero norm"):
        relative_error(np.eye(2), np.zeros((2, 2)))


# ------------------------------------------------------------------ bounds

def test_bound_collapses_without_noise():
    _, disc = systems_for(single_gen_model(sigma=0.0), DT_BASE)
    report = theorem1_bound(disc, 100, 0.1, 5, seed=0, burn_in=120)
    assert report.rhs == report.rhs_continuous == 0.0


def test_bound_reports_the_burn_in_it_used():
    _, disc = systems_for(path3_model(), 3 * DT_BASE)
    assert theorem1_bound(disc, 200, 0.1, 3, seed=1, burn_in=7).burn_in == 7
    _, quiet = systems_for(single_gen_model(sigma=0.0), DT_BASE)
    assert theorem1_bound(quiet, 100, 0.1, 5, seed=0, burn_in=4).burn_in == 4


def test_bound_scales_inversely_with_epsilon():
    _, disc = systems_for(single_gen_model(sigma=0.01), DT_BASE)
    a = theorem1_bound(disc, 200, 0.1, 10, seed=1, burn_in=120)
    b = theorem1_bound(disc, 200, 0.05, 10, seed=1, burn_in=120)
    # identical seed means identical Monte Carlo expectations
    assert b.trace_sigma0_mean == a.trace_sigma0_mean
    assert b.rhs == pytest.approx(2.0 * a.rhs)


def test_bound_rhs_assembled_from_reported_expectations():
    _, disc = systems_for(single_gen_model(sigma=0.01), DT_BASE)
    T, eps = 200, 0.1
    report = theorem1_bound(disc, T, eps, 10, seed=2, burn_in=120)
    b_norm = np.max(disc.b_diag)
    expected = b_norm / (eps * math.sqrt(T - 1)) * math.sqrt(
        report.trace_sigma0_mean * report.inv_norm_mean)
    assert report.rhs == pytest.approx(expected, rel=1e-12)


def test_bound_validates_arguments():
    _, disc = systems_for(single_gen_model(), DT_BASE)
    with pytest.raises(ValueError, match="2N\\+2"):
        theorem1_bound(disc, 4, 0.1, 5, seed=0, burn_in=120)
    with pytest.raises(ValueError, match="epsilon"):
        theorem1_bound(disc, 100, 1.5, 5, seed=0, burn_in=120)
    with pytest.raises(ValueError, match="n_trials"):
        theorem1_bound(disc, 100, 0.1, 0, seed=0, burn_in=120)


def test_bound_discards_match_a_serial_recount(monkeypatch):
    # just above T = 2N+2 Sigma_0 is badly conditioned; a limit between two
    # trials' condition numbers discards exactly the worse half
    _, disc = systems_for(path3_model(), DT_BASE)
    n_samples, n_trials, seed, burn_in = 15, 40, 31, 100
    sigma0s = [covariances(steady_trajectory(disc, n_samples, burn_in, s)).sigma0
               for s in spawn_seeds(seed, n_trials)]
    conds = sorted(np.linalg.cond(s) for s in sigma0s)
    limit = math.sqrt(conds[n_trials // 2 - 1] * conds[n_trials // 2])
    kept = [s for s in sigma0s if np.linalg.cond(s) <= limit]
    monkeypatch.setattr(estimators, "COND_THRESHOLD", limit)
    report = theorem1_bound(disc, n_samples, 0.1, n_trials, seed,
                            burn_in=burn_in)
    assert report.n_discarded == n_trials - len(kept) == n_trials // 2
    trace_mean = math.fsum(float(np.trace(s)) for s in kept) / len(kept)
    inv_mean = math.fsum(float(np.sum(np.linalg.inv(s) ** 2))
                         for s in kept) / len(kept)
    assert report.trace_sigma0_mean == pytest.approx(trace_mean, rel=1e-12)
    # ||Sigma_0^{-1}||_F^2 amplifies rounding by about cond(Sigma_0) ~ 1e6
    assert report.inv_norm_mean == pytest.approx(inv_mean, rel=1e-8)
    monkeypatch.setattr(estimators, "COND_THRESHOLD", 1.0)
    with pytest.raises(ValueError, match="all Monte Carlo trials"):
        theorem1_bound(disc, n_samples, 0.1, n_trials, seed, burn_in=burn_in)


def test_bound_bit_identical_on_rerun():
    _, disc = systems_for(path3_model(), 3 * DT_BASE)
    n_trials = STEP_GROUP + 5
    first = theorem1_bound(disc, 400, 0.1, n_trials, seed=9, burn_in=249)
    assert theorem1_bound(disc, 400, 0.1, n_trials, seed=9,
                          burn_in=249) == first


def test_corollary_collapses_without_noise():
    _, disc = systems_for(two_gen_model(sigma=(0.0, 0.0)), DT_BASE)
    report = theorem1_bound(disc, 100, 0.1, 5, seed=0, burn_in=240)
    assert report.rhs_continuous == 0.0
    assert report.trace_sigma0_mean == report.inv_norm_mean == 0.0


def test_corollary_depends_only_on_observation_window():
    # the sampling enters the continuous envelope's factor on the Monte Carlo
    # means only through t_obs = (T-1) dt
    model = single_gen_model(m=2.0, sigma=0.01)
    factors = []
    for dt, n_samples, burn_in in ((0.05, 101, 80), (0.025, 201, 161)):
        report = theorem1_bound(systems_for(model, dt)[1], n_samples, 0.1, 7,
                                seed=3, burn_in=burn_in)
        factors.append(report.rhs_continuous / math.sqrt(
            report.trace_sigma0_mean * report.inv_norm_mean))
    assert factors[0] == pytest.approx(factors[1], rel=1e-14)


def test_corollary_consistent_with_theorem_for_single_generator():
    # at N=1 ||B||_F = ||B||_2, so the two bounds differ exactly by dt
    dt = 0.05
    _, disc = systems_for(single_gen_model(m=2.0, sigma=0.01), dt)
    report = theorem1_bound(disc, 500, 0.1, 7, seed=4, burn_in=80)
    assert report.rhs_continuous == pytest.approx(report.rhs / dt, rel=1e-15)


@pytest.mark.parametrize("stride", [1, 3])
def test_rhs_continuous_is_corollary2_formula(fixture_grid, stride):
    # Corollary 2 written with the grid's sigma_P and M, on the report's means
    dt, n_samples, eps = stride * DT_BASE, 200, 0.1
    disc = systems_for(fixture_grid, dt)[1]
    report = theorem1_bound(disc, n_samples, eps, 3, seed=1,
                            burn_in=-(-2151 // stride))
    power = sum((fixture_grid.noise_sigma[g] / fixture_grid.inertia[g]) ** 2
                for g in fixture_grid.generator_ids)
    expected = (1.0 / eps) * math.sqrt(
        power / (dt * (n_samples - 1))
        * report.trace_sigma0_mean * report.inv_norm_mean)
    assert report.rhs_continuous == pytest.approx(expected, rel=1e-14)


def test_bound_names_diverged_trials(fixture_grid):
    # forward Euler at 1/6 s has spectral radius 1.0228 on the fixture
    disc = systems_for(fixture_grid, 10 * DT_BASE)[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a 600 s window grows Sigma_0 to about 1e67: finite but singular
        with pytest.raises(ValueError, match=r"^all Monte Carlo trials "
                           r"discarded \(0 of 3 with non-finite sigma0, the "
                           r"rest singular\): the forward-Euler step at "
                           r"dt=0\.16666666666666666 s has spectral radius "
                           r"1\.0228161, so a trial can grow 2\.39e\+37-fold "
                           r"over its 3815 steps$"):
            theorem1_bound(disc, 3600, 0.1, 3, seed=1, burn_in=216)
        # a 6,000 s window overflows
        with pytest.raises(ValueError, match=r"\(3 of 3 with non-finite "
                           r"sigma0, the rest singular\)"):
            theorem1_bound(disc, 36000, 0.1, 3, seed=1, burn_in=216)


def test_bound_report_validation():
    with pytest.raises(ValueError, match="epsilon"):
        BoundReport(epsilon=0.0, rhs=1.0, rhs_continuous=1.0,
                    trace_sigma0_mean=1.0, inv_norm_mean=1.0, n_trials=1)
    for rhs, rhs_continuous in ((-1.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="rhs"):
            BoundReport(epsilon=0.1, rhs=rhs, rhs_continuous=rhs_continuous,
                        trace_sigma0_mean=1.0, inv_norm_mean=1.0, n_trials=1)
    with pytest.raises(ValueError, match="n_trials"):
        BoundReport(epsilon=0.1, rhs=1.0, rhs_continuous=1.0,
                    trace_sigma0_mean=1.0, inv_norm_mean=1.0, n_trials=0)


# --------------------------------------------------------------------- spectrum

def test_spectrum_single_generator():
    report = spectrum(np.array([[0.0, 1.0], [0.0, -1.0]]))
    assert sorted(ev.real for ev in report.eigenvalues) == [-1.0, 0.0]
    assert report.critical == (-1.0 + 0.0j,)


def test_spectrum_two_generator_difference_mode():
    # the antisymmetric mode solves z^2 + z + 2 = 0
    cont, _ = systems_for(two_gen_model(), DT_BASE)
    report = spectrum(cont.a_d)
    expected_pair = (-1.0 + 1j * math.sqrt(7.0)) / 2.0
    assert len(report.critical) == 2
    crit = sorted(report.critical, key=lambda z: z.imag)
    assert crit[1] == pytest.approx(expected_pair, abs=1e-9)
    assert crit[0] == pytest.approx(expected_pair.conjugate(), abs=1e-9)
    all_evs = sorted(report.eigenvalues, key=lambda z: (z.real, z.imag))
    assert all_evs[0] == pytest.approx(-1.0 + 0.0j, abs=1e-9)
    assert all_evs[-1] == pytest.approx(0.0 + 0.0j, abs=1e-9)


def test_spectrum_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -0.01])
def test_spectrum_rejects_bad_zero_mode_tol(tol):
    with pytest.raises(ValueError, match="zero_mode_tol"):
        spectrum(np.diag([-1.0, 0.0]), tol)
    # the cutoff perfbench and the spectral-check script pass stays valid
    assert spectrum(np.diag([-1.0, 0.0]), 0.01).critical == (-1.0,)


@given(grid_models())
@settings(max_examples=40)
def test_spectrum_contains_zero_mode_and_conjugate_pairs(model):
    cont, _ = systems_for(model, DT_BASE)
    report = spectrum(cont.a_d)
    assert len(report.eigenvalues) == 2 * model.n_gen
    assert min(abs(ev) for ev in report.eigenvalues) < 1e-9
    evs = np.array(report.eigenvalues)
    complex_evs = evs[np.abs(evs.imag) > 1e-12]
    for ev in complex_evs:
        assert np.min(np.abs(complex_evs - ev.conjugate())) < 1e-9


def test_spectrum_zero_mode_tol_excludes_slow_modes():
    a_d = np.diag([0.0, -1e-8, -1.0])
    report = spectrum(a_d, zero_mode_tol=1e-9)
    assert report.critical == (-1e-8 + 0.0j,)
    # a coarser tolerance reclassifies the slow mode as the zero mode
    report = spectrum(a_d, zero_mode_tol=1e-6)
    assert report.critical == (-1.0 + 0.0j,)


# -------------------------------------------------------------- spectral_distance

def test_spectral_distance_identical_and_permuted():
    eigs = [0.0 + 0.0j, -1.0 + 2.0j, -1.0 - 2.0j]
    assert spectral_distance(eigs, eigs) == 0.0
    assert spectral_distance(eigs, eigs[::-1]) == 0.0


def test_spectral_distance_simple_pair():
    assert spectral_distance([0.0, -1.0], [0.0, -1.1]) == pytest.approx(0.05)


def test_spectral_distance_rejects_length_mismatch():
    with pytest.raises(ValueError, match="equal length"):
        spectral_distance([0.0], [0.0, 1.0])


@given(st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=6),
       st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_spectral_distance_permutation_invariant(eigs, rnd):
    shuffled = eigs.copy()
    rnd.shuffle(shuffled)
    assert spectral_distance(eigs, shuffled) == pytest.approx(0.0, abs=1e-12)


_eigenvalues = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                  allow_infinity=False)


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.lists(_eigenvalues, min_size=n, max_size=n),
    st.lists(_eigenvalues, min_size=n, max_size=n))))
@settings(max_examples=60, deadline=None)
def test_spectral_distance_is_the_best_matching(pair):
    a, b = np.array(pair[0]), np.array(pair[1])
    cost = np.abs(a[:, None] - b[None, :])
    orders = np.array(list(permutations(range(a.size))))
    best = cost[np.arange(a.size), orders].sum(axis=1).min() / a.size
    assert spectral_distance(a, b) == pytest.approx(best, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf),
                                 complex(math.nan, 1.0)])
def test_spectral_distance_rejects_non_finite(bad):
    # NaN compares false against every slack, so the matching would be
    # arbitrary and its mean NaN or inf with no error
    with pytest.raises(ValueError, match="finite"):
        spectral_distance([0.0, bad], [0.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        spectral_distance([0.0, 1.0], [bad, 0.0])


@pytest.mark.parametrize("n", [20, 40])
def test_spectral_distance_matches_scipy_assignment(n):
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(n)
    for _ in range(5):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cost = np.abs(a[:, None] - b[None, :])
        rows, cols = optimize.linear_sum_assignment(cost)
        assert spectral_distance(a, b) == pytest.approx(
            cost[rows, cols].mean(), rel=1e-12)
