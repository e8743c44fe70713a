from __future__ import annotations

import dataclasses
import functools
import math
import os
import pickle
import signal
import time
import tracemalloc
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swingid import analysis, sim
from swingid.estimators import covariances
from swingid.model import DiscreteSystem, build_continuous
from swingid.sim import (DT_BASE, STEP_CHUNK, STEP_GROUP, Trajectory,
                         default_burn_in, simulate, spawn_seeds, steady_blocks,
                         steady_run, steady_start,
                         steady_trajectory, subsample)

from conftest import (assert_reaped, path3_model, serially, single_gen_model,
                      systems_for, two_gen_model)


def noiseless_system(a: np.ndarray, dt: float = DT_BASE) -> DiscreteSystem:
    n2 = a.shape[0]
    return DiscreteSystem(n_gen=n2 // 2, a=a, b_diag=np.zeros(n2), dt=dt)


# --------------------------------------------------------------------- simulate

def test_fixed_point_of_identity():
    sys = noiseless_system(np.eye(4))
    x0 = np.array([1.0, -2.0, 3.0, 0.5])
    traj = simulate(sys, 10, x0, seed=0)
    assert traj.n_samples == 11
    assert np.all(traj.states == x0)


def test_single_noiseless_step():
    _, disc = systems_for(single_gen_model(m=1.0, d=1.0, sigma=0.0), DT_BASE)
    traj = simulate(disc, 1, np.array([0.0, 1.0]), seed=0)
    assert np.allclose(traj.states[1], [1.0 / 60.0, 59.0 / 60.0])


def test_same_seed_bit_identical():
    _, disc = systems_for(two_gen_model(), DT_BASE)
    x0 = np.zeros(4)
    a = simulate(disc, 200, x0, seed=42)
    b = simulate(disc, 200, x0, seed=42)
    assert np.array_equal(a.states, b.states)


def test_distinct_seeds_differ():
    _, disc = systems_for(two_gen_model(), DT_BASE)
    a = simulate(disc, 50, np.zeros(4), seed=1)
    b = simulate(disc, 50, np.zeros(4), seed=2)
    assert not np.array_equal(a.states, b.states)


def test_simulate_rejects_bad_input():
    _, disc = systems_for(two_gen_model(), DT_BASE)
    with pytest.raises(ValueError, match="n_steps"):
        simulate(disc, 0, np.zeros(4), seed=0)
    with pytest.raises(ValueError, match="x0"):
        simulate(disc, 5, np.zeros(3), seed=0)


@pytest.mark.parametrize("n_steps", [10**18, 10**307])
def test_simulate_past_numpy_sizes_raises_memory_error(n_steps):
    # numpy refuses these shapes with a ValueError ("array is too big",
    # "Maximum allowed dimension exceeded") before it allocates anything
    _, disc = systems_for(two_gen_model(), DT_BASE)
    with pytest.raises(MemoryError, match=f"^{n_steps + 1} states of 4 "):
        simulate(disc, n_steps, np.zeros(4), seed=0)


def reference_simulate(sys: DiscreteSystem, n_steps: int, x0: np.ndarray,
                       seed: int, every_row: bool = False) -> np.ndarray:
    """The recursion with a separate noise block, one step per statement:
    one draw per noisy row (b_diag != 0) per step, in row order, and 0 in
    the other rows; with every_row, 2N draws per step scaled by b_diag,
    zero or not, as swingid 0.1.0 drew them."""
    n2 = 2 * sys.n_gen
    rows = np.arange(n2) if every_row else np.flatnonzero(sys.b_diag)
    xi = np.random.default_rng(seed).standard_normal((n_steps, rows.size))
    noise = np.zeros((n_steps, n2))
    noise[:, rows] = xi * sys.b_diag[rows]
    states = np.empty((n_steps + 1, n2))
    states[0] = x0
    for t in range(n_steps):
        states[t + 1] = sys.a @ states[t] + noise[t]
    return states


def quiet_interior_system(grid) -> DiscreteSystem:
    """grid's base-step system with no noise on an interior generator, so
    that its noisy rows are not consecutive and _noisy_rows gives an index
    array, not a slice."""
    g = grid.generator_ids[len(grid.generator_ids) // 2]
    quiet = dataclasses.replace(grid, noise_sigma={**grid.noise_sigma, g: 0.0})
    disc = systems_for(quiet, DT_BASE)[1]
    assert isinstance(sim._noisy_rows(disc.b_diag), np.ndarray)
    return disc


@pytest.mark.parametrize("model", ["fixture", "path3", "quiet"])
@pytest.mark.parametrize("n_steps", [1, 2, 37, STEP_CHUNK - 1, STEP_CHUNK,
                                     STEP_CHUNK + 1, 2000])
def test_simulate_matches_reference_recursion_bitwise(fixture_systems,
                                                      fixture_grid, model,
                                                      n_steps):
    disc = {"fixture": fixture_systems[1],
            "path3": systems_for(path3_model(), 3 * DT_BASE)[1],
            "quiet": quiet_interior_system(fixture_grid)}[model]
    x0 = np.random.default_rng(n_steps).standard_normal(2 * disc.n_gen)
    got = simulate(disc, n_steps, x0, seed=7).states
    expected = reference_simulate(disc, n_steps, x0, 7)
    # integer views also tell -0.0 from 0.0
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("n_steps", [1, 37, 2000])
def test_system_with_noise_in_every_row_keeps_the_all_rows_stream(
        fixture_systems, n_steps):
    # no zero in b_diag: every row is noisy, so the stream is consumed as
    # before the noise rule and the states keep their bits
    _, disc = fixture_systems
    rng = np.random.default_rng(n_steps)
    b_diag = disc.b_diag + rng.uniform(1e-4, 1e-3, 2 * disc.n_gen)
    noisy = DiscreteSystem(n_gen=disc.n_gen, a=disc.a, b_diag=b_diag,
                           dt=disc.dt)
    x0 = rng.standard_normal(2 * disc.n_gen)
    got = simulate(noisy, n_steps, x0, seed=7).states
    expected = reference_simulate(noisy, n_steps, x0, 7, every_row=True)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_fixture_angle_rows_take_no_noise(fixture_systems):
    # the angle rows of X_{t+1} are exactly those of A X_t
    _, disc = fixture_systems
    n = disc.n_gen
    assert np.all(disc.b_diag[:n] == 0.0) and np.all(disc.b_diag[n:] != 0.0)
    states = steady_trajectory(disc, 3 * STEP_CHUNK + 7, 50, 11).states
    step = np.empty(2 * n)
    for x, nxt in zip(states[:-1], states[1:]):
        np.dot(disc.a, x, out=step)
        assert np.array_equal(nxt[:n].view(np.uint64),
                              step[:n].view(np.uint64))
        assert not np.array_equal(nxt[n:], step[n:])


@pytest.mark.parametrize("n_samples,rows", [
    (600, 600), (600, 1000), (600, 128), (601, 100), (600, 1)])
def test_steady_run_blocks_are_steady_trajectory_bitwise(fixture_systems,
                                                        n_samples, rows):
    # segments of rows steps continue one Generator, whatever their length
    # against STEP_CHUNK, and a last block may hold one state
    _, disc = fixture_systems
    run = steady_run(disc, n_samples, 300, 4)
    expected = steady_trajectory(disc, n_samples, 300, 4).states
    for _ in range(2):  # each call of blocks() steps the window anew
        blocks = list(run.blocks(rows))
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        got = np.concatenate(blocks)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert (run.dt, run.n_gen) == (disc.dt, disc.n_gen)


def test_steady_run_raises_at_the_first_block_that_overflows(fixture_systems):
    # twice A doubles the states each step from the origin, so they leave
    # float64's range after about a thousand steps
    _, disc = fixture_systems
    grows = dataclasses.replace(disc, a=disc.a * 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        states = steady_trajectory(grows, 1200, 0, 4).states
        first = np.flatnonzero(~np.all(np.isfinite(states), axis=1))[0]
        assert 100 < first < 1100
        bad = first // 100 * 100
        blocks = steady_run(grows, 1200, 0, 4).blocks(100)
        for start in range(0, bad, 100):
            assert np.array_equal(next(blocks), states[start:start + 100])
        with pytest.raises(FloatingPointError,
                           match=f"^non-finite states from sample {bad} on$"):
            next(blocks)


def test_steady_trajectory_matches_reference_recursion_bitwise(fixture_systems):
    _, disc = fixture_systems
    burn_seed, run_seed = spawn_seeds(4, 2)
    x0 = reference_simulate(disc, 300, np.zeros(20), burn_seed)[-1]
    expected = reference_simulate(disc, 599, x0, run_seed)
    got = steady_trajectory(disc, 600, 300, 4).states
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@given(st.integers(min_value=0, max_value=2**31), st.integers(1, 8))
@settings(max_examples=20, deadline=None)
def test_noiseless_states_are_matrix_powers(seed, n_steps):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4)) * 0.4
    sys = noiseless_system(a)
    x0 = rng.standard_normal(4)
    traj = simulate(sys, n_steps, x0, seed=0)
    x = x0.copy()
    for t in range(n_steps):
        x = a @ x
        assert np.array_equal(traj.states[t + 1], x)


def test_residuals_structurally_zero_in_angle_rows():
    # noise enters only the speed rows, so one-step residuals vanish above
    _, disc = systems_for(two_gen_model(sigma=(0.1, 0.1)), DT_BASE)
    traj = simulate(disc, 100, np.zeros(4), seed=3)
    for t in range(traj.n_samples - 1):
        resid = traj.states[t + 1] - disc.a @ traj.states[t]
        assert resid[0] == 0.0 and resid[1] == 0.0


def test_one_step_residual_mean_vanishes():
    _, disc = systems_for(single_gen_model(sigma=0.1), DT_BASE)
    resids = []
    for seed in spawn_seeds(99, 300):
        traj = simulate(disc, 20, np.zeros(2), seed=seed)
        resid = traj.states[1:] - traj.states[:-1] @ disc.a.T
        resids.extend(resid[:, 1])
    resids = np.array(resids)
    se = resids.std() / math.sqrt(len(resids))
    assert abs(resids.mean()) < 5.0 * se


# -------------------------------------------------------------------- subsample

def test_subsample_stride_one_identity():
    _, disc = systems_for(two_gen_model(), DT_BASE)
    traj = simulate(disc, 9, np.zeros(4), seed=0)
    out = subsample(traj, 1)
    assert out.dt == traj.dt
    assert np.array_equal(out.states, traj.states)


def test_subsample_indices_and_length():
    states = np.arange(14, dtype=float).reshape(7, 2)
    traj = Trajectory(dt=1.0, states=states, n_gen=1)
    out = subsample(traj, 3)
    assert out.n_samples == 3
    assert np.array_equal(out.states, states[[0, 3, 6]])


def test_subsample_three_cycles():
    traj = Trajectory(dt=DT_BASE, states=np.zeros((10, 2)), n_gen=1)
    assert subsample(traj, 3).dt == pytest.approx(3.0 / 60.0)


def test_subsample_rejects_bad_stride():
    traj = Trajectory(dt=1.0, states=np.zeros((4, 2)), n_gen=1)
    with pytest.raises(ValueError, match="stride"):
        subsample(traj, 0)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=7))
@settings(max_examples=40)
def test_subsample_length_formula(n_samples, stride):
    traj = Trajectory(dt=1.0, states=np.zeros((n_samples, 2)), n_gen=1)
    assert subsample(traj, stride).n_samples == math.ceil(n_samples / stride)


# ----------------------------------------------------------------- steady_start

def test_steady_start_noiseless_returns_origin():
    _, disc = systems_for(two_gen_model(sigma=(0.0, 0.0)), DT_BASE)
    assert np.array_equal(steady_start(disc, 500, seed=0), np.zeros(4))


def test_steady_start_zero_burn_in_returns_origin():
    _, disc = systems_for(two_gen_model(sigma=(0.1, 0.1)), DT_BASE)
    assert np.array_equal(steady_start(disc, 0, seed=0), np.zeros(4))


@pytest.mark.parametrize("burn_in", [0, 1, STEP_CHUNK - 1, STEP_CHUNK,
                                     STEP_CHUNK + 1, 3 * STEP_CHUNK])
def test_steady_start_gives_the_end_state_of_one_simulate_run(burn_in):
    # segments of STEP_CHUNK steps on one Generator, whole and partial
    _, disc = systems_for(path3_model(), DT_BASE)
    origin = np.zeros(6)
    held = simulate(disc, burn_in, origin, 5).states[-1] if burn_in else origin
    assert np.array_equal(steady_start(disc, burn_in, 5), held)


def test_steady_start_holds_one_segment_of_a_long_burn_in():
    # the whole burn-in, 200,001 states of 4, would take 6.4 MB
    _, disc = systems_for(two_gen_model(d=(10.0, 10.0), beta=0.001), DT_BASE)
    tracemalloc.start()
    try:
        x0 = steady_start(disc, 200_000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x0.shape == (4,) and np.all(np.isfinite(x0))
    assert peak < 2**20


def test_steady_start_matches_ar1_stationary_variance():
    # with no network the speed decouples into a scalar AR(1) recursion
    _, disc = systems_for(single_gen_model(m=1.0, d=1.0, sigma=0.5), DT_BASE)
    a11 = disc.a[1, 1]
    target = disc.b_diag[1] ** 2 / (1.0 - a11 ** 2)
    omegas = [steady_start(disc, 600, seed=s)[1] for s in spawn_seeds(7, 400)]
    var = np.var(omegas)
    # sample variance of n draws concentrates at relative width sqrt(2/n)
    assert var == pytest.approx(target, rel=0.25)


# -------------------------------------------------------- seeds and burn-in

def test_spawn_seeds_deterministic_and_distinct():
    a = spawn_seeds(5, 10)
    b = spawn_seeds(5, 10)
    assert a == b
    assert len(set(a)) == 10
    assert spawn_seeds(6, 10) != a


@pytest.mark.parametrize("n", [0, 1, sim.SEED_BATCH - 1, sim.SEED_BATCH,
                               sim.SEED_BATCH + 1, 3000])
def test_spawn_seeds_in_batches_give_the_one_shot_seeds(n):
    one_shot = [int(c.generate_state(1)[0])
                for c in np.random.SeedSequence(11).spawn(n)]
    assert spawn_seeds(11, n) == one_shot


def test_spawn_seeds_holds_one_batch_of_sequences():
    # 20,000 child SeedSequences held at once peaked at about 8.5 MiB
    tracemalloc.start()
    try:
        seeds = spawn_seeds(3, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seeds) == 20_000
    assert peak < 3 * 2**20


def test_default_burn_in_two_time_constants():
    cont, _ = systems_for(single_gen_model(m=1.0, d=1.0), DT_BASE)
    # slowest decaying mode is -D/M = -1, so 2 time constants = 2 s
    assert default_burn_in(cont) == 120


def test_trajectory_validation():
    with pytest.raises(ValueError, match="dt"):
        Trajectory(dt=0.0, states=np.zeros((3, 2)), n_gen=1)
    with pytest.raises(ValueError, match="dimension"):
        Trajectory(dt=1.0, states=np.zeros((3, 3)), n_gen=1)


# ------------------------------------------------- steady windows: one stream policy

def test_steady_trajectory_splits_seed_into_burn_in_and_run_streams():
    _, disc = systems_for(two_gen_model(sigma=(0.1, 0.1)), DT_BASE)
    burn_seed, run_seed = spawn_seeds(21, 2)
    x0 = steady_start(disc, 40, burn_seed)
    expected = simulate(disc, 29, x0, run_seed)
    traj = steady_trajectory(disc, 30, 40, 21)
    assert traj.n_samples == 30
    assert np.array_equal(traj.states, expected.states)


def _steady_sigma0(disc, n_samples, seeds, burn_in) -> np.ndarray:
    """Every trial's Sigma_0 from the fold `bound` gives steady_blocks,
    shape (len(seeds), 2N, 2N)."""
    fold = functools.partial(analysis._steady_sigma0, n_samples)
    # X_{T-1} enters only Sigma_1, so the bound's runs stop one step short
    with closing(steady_blocks(disc, seeds, burn_in, n_samples - 2,
                               fold)) as groups:
        return np.concatenate(list(groups))


def _assert_sigma0_matches_serial(disc, n_samples, burn_in, seeds):
    got = _steady_sigma0(disc, n_samples, seeds, burn_in)
    assert got.shape == (len(seeds), 2 * disc.n_gen, 2 * disc.n_gen)
    for sigma0, seed in zip(got, seeds):
        ref = covariances(steady_trajectory(disc, n_samples, burn_in, seed)).sigma0
        # the batched product rounds differently from the serial one
        assert np.linalg.norm(sigma0 - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(sigma0, sigma0.T)


@pytest.mark.parametrize("n_samples,burn_in,n_trials", [
    (300, 300, 3),                        # n_samples - 1 not a chunk multiple
    (2 * STEP_CHUNK + 2, 0, 2),         # run steps exactly two chunks
    (2 * STEP_CHUNK + 1, 5, 1),         # burn-in shorter than one chunk
    (40, STEP_CHUNK, 1),                # burn-in exactly one chunk
    (2, 7, 2),                            # one state, no run steps
])
def test_steady_sigma0_matches_serial_windows_on_fixture(
        fixture_systems, n_samples, burn_in, n_trials):
    _, disc = fixture_systems
    _assert_sigma0_matches_serial(disc, n_samples, burn_in,
                                  spawn_seeds(n_samples, n_trials))


def test_steady_sigma0_matches_serial_across_several_groups():
    _, disc = systems_for(path3_model(), 3 * DT_BASE)
    seeds = spawn_seeds(8, 2 * STEP_GROUP + 3)
    _assert_sigma0_matches_serial(disc, 150, 200, seeds)


def test_steady_sigma0_rejects_bad_input():
    # the bound refuses a window too short for Sigma_0, and steady_blocks a
    # negative burn-in
    _, disc = systems_for(two_gen_model(), DT_BASE)
    with pytest.raises(ValueError, match="samples, got 1"):
        analysis.theorem1_bound(disc, 1, 0.5, 1, 0, burn_in=0)
    with pytest.raises(ValueError, match="burn_in"):
        analysis.theorem1_bound(disc, 10, 0.5, 1, 0, burn_in=-1)


def _stepped_states(disc, seeds, burn_in, n_steps) -> np.ndarray:
    """Every seed's X_0..X_{n_steps} from steady_blocks, shape (K, T, 2N)."""
    def states(x0, blocks):
        return np.concatenate([x0[:, None]] + [b.copy() for b in blocks],
                              axis=1)

    return np.concatenate(list(steady_blocks(disc, seeds, burn_in, n_steps,
                                             states)))


@pytest.mark.parametrize("n_steps,burn_in,n_seeds", [
    (2 * STEP_CHUNK + 5, 40, 3),          # run not a chunk multiple
    (STEP_CHUNK, 0, 1),                   # lone seed, one whole chunk
    (1, 10, 2),                           # one step after X_0
])
def test_steady_blocks_match_steady_trajectory(fixture_systems, n_steps,
                                               burn_in, n_seeds):
    _, disc = fixture_systems
    seeds = spawn_seeds(n_steps + 1, n_seeds)
    got = _stepped_states(disc, seeds, burn_in, n_steps)
    assert got.shape == (n_seeds, n_steps + 1, 2 * disc.n_gen)
    for states, seed in zip(got, seeds):
        ref = steady_trajectory(disc, n_steps + 1, burn_in, seed).states
        # the batched product rounds differently from the serial one
        assert np.linalg.norm(states - ref) <= 1e-12 * np.linalg.norm(ref)


def test_steady_blocks_rows_do_not_depend_on_their_group(fixture_systems):
    _, disc = fixture_systems
    seeds = spawn_seeds(4, 5)
    together = _stepped_states(disc, seeds, 30, 300)
    for k in (0, 2, 4):
        alone = _stepped_states(disc, seeds[k:k + 1], 30, 300)[0]
        assert np.array_equal(alone, together[k])
    assert np.array_equal(_stepped_states(disc, seeds[3:], 30, 300),
                          together[3:])


def test_steady_blocks_results_come_in_seed_order(fixture_systems,
                                                  monkeypatch, forks):
    # 129 seeds make four groups with the helper and three without; each
    # result's rows are X_0 of its own seeds, and the groups come in order
    _, disc = fixture_systems
    seeds = spawn_seeds(5, 2 * STEP_GROUP + 1)

    def first_states():
        groups = list(steady_blocks(disc, seeds, 30, 1,
                                    lambda x0, blocks: x0.copy()))
        assert len(groups) > 2
        return np.concatenate(groups)

    for got in (first_states(), serially(monkeypatch, first_states)):
        for x0, seed in zip(got, seeds, strict=True):
            ref = steady_start(disc, 30, sim._split_streams(seed)[0])
            assert np.linalg.norm(x0 - ref) <= 1e-12 * np.linalg.norm(ref)
    assert len(forks) == 1
    assert_reaped(forks)


def test_steady_sigma0_lone_last_trial_is_batch_invariant(fixture_systems):
    # 65 trials leave trial 64 alone in the second group; it must get the
    # same bits as beside trial 65
    _, disc = fixture_systems
    seeds = spawn_seeds(65, STEP_GROUP + 2)
    lone = _steady_sigma0(disc, 200, seeds[:STEP_GROUP + 1], 50)[STEP_GROUP]
    paired = _steady_sigma0(disc, 200, seeds, 50)[STEP_GROUP]
    assert np.array_equal(lone, paired)


def test_steady_blocks_hold_only_the_stepper_buffers(fixture_systems,
                                                    monkeypatch):
    # the folds read seed-major views of the stepper's time-major chunk; a
    # seed-major copy of each chunk, 1.25 MiB here, peaked at 3.95 MiB
    _, disc = fixture_systems

    def run():
        list(steady_blocks(disc, range(STEP_GROUP), 40, 4 * STEP_CHUNK,
                           lambda x0, blocks: sum(1 for _ in blocks)))

    serially(monkeypatch, run)  # a process's first normal draw allocates once
    tracemalloc.start()
    try:
        serially(monkeypatch, run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.3 * 2**20


def test_steady_blocks_rejects_negative_burn_in(fixture_systems):
    _, disc = fixture_systems
    with pytest.raises(ValueError, match="burn_in"):
        next(steady_blocks(disc, [1], -1, 10, lambda x0, blocks: None))


# --------------------------------------------- seed groups on the helper

def _seed_major_steps(disc, x, rngs, n_steps) -> np.ndarray:
    """The n_steps states after x, stepped in a seed-major buffer: each step
    adds to a strided view of its rows' noise, as steady_blocks did before
    it stepped time-major; its folds now read seed-major views of the
    time-major chunks, with no seed-major copy.  Each seed draws one normal
    per noisy state (b_diag != 0) per step."""
    noisy = np.flatnonzero(disc.b_diag)
    buf = np.zeros((len(x), STEP_CHUNK, x.shape[1]))
    draws = np.zeros((len(x), STEP_CHUNK, noisy.size))
    a_t, step, done = disc.a.T, np.empty_like(x), []
    for start in range(0, n_steps, STEP_CHUNK):
        m = min(STEP_CHUNK, n_steps - start)
        block = buf[:, :m]
        for rng, rows in zip(rngs, draws[:, :m]):
            rng.standard_normal(out=rows)
        block[...] = 0.0
        block[:, :, noisy] = draws[:, :m] * disc.b_diag[noisy]
        for t in range(block.shape[1]):
            np.matmul(x, a_t, out=step)
            x = block[:, t]
            x += step
        done.append(block.copy())
        x = block[:, -1].copy()
    return np.concatenate(done, axis=1) if done else buf[:, :0].copy()


def _seed_major_states(disc, seeds, burn_in, n_steps) -> np.ndarray:
    """_stepped_states as the seed-major stepper gave them, in groups of
    STEP_GROUP."""
    groups = []
    for first in range(0, len(seeds), STEP_GROUP):
        streams = [sim._split_streams(s) for s in seeds[first:first + STEP_GROUP]]
        x = np.zeros((max(len(streams), 2), 2 * disc.n_gen))
        burn = _seed_major_steps(
            disc, x, [np.random.default_rng(b) for b, _ in streams], burn_in)
        if burn_in:
            x = burn[:, -1].copy()
        run = _seed_major_steps(
            disc, x, [np.random.default_rng(r) for _, r in streams], n_steps)
        groups.append(np.concatenate([x[:, None], run], axis=1)[:len(streams)])
    return np.concatenate(groups)


def _seed_major_sigma0(disc, n_samples, seeds, burn_in) -> np.ndarray:
    """_steady_sigma0 as the seed-major stepper gave it, folded one chunk
    of STEP_CHUNK states at a time."""
    states = _seed_major_states(disc, seeds, burn_in, n_samples - 2)
    gram = states[:, 0, :, None] * states[:, 0, None, :]
    for start in range(1, n_samples - 1, STEP_CHUNK):
        block = states[:, start:start + STEP_CHUNK].copy()
        gram += np.matmul(block.transpose(0, 2, 1), block)
    gram /= n_samples - 1
    return (gram + gram.transpose(0, 2, 1)) / 2.0


@pytest.mark.parametrize("n_seeds,helped,serial", [
    (1, [1], [1]),
    (2, [1, 1], [2]),
    (3, [2, 1], [3]),
    (10, [5, 5], [10]),
    (64, [32, 32], [64]),
    (65, [33, 32], [64, 1]),
    (100, [50, 50], [64, 36]),
    (129, [33, 32, 32, 32], [64, 64, 1]),
])
def test_seed_groups_are_balanced_where_a_helper_runs(monkeypatch, forks,
                                                      n_seeds, helped, serial):
    _, disc = systems_for(two_gen_model(), DT_BASE)

    def sizes():
        return list(steady_blocks(disc, range(n_seeds), 0, 1,
                                  lambda x0, blocks: len(x0)))

    assert sizes() == helped
    assert len(forks) == (n_seeds > 1)
    assert serially(monkeypatch, sizes) == serial
    assert len(forks) == (n_seeds > 1)
    assert_reaped(forks)


@pytest.mark.parametrize("n_trials", [1, 2, 3, 64, 65, 100, 129])
def test_steady_sigma0_helper_gives_the_serial_and_seed_major_bits(
        fixture_systems, monkeypatch, forks, n_trials):
    _, disc = fixture_systems
    seeds = spawn_seeds(n_trials, n_trials)
    helped = _steady_sigma0(disc, 2 * STEP_CHUNK + 9, seeds, 40)
    assert len(forks) == (n_trials > 1)
    serial = serially(monkeypatch, _steady_sigma0, disc, 2 * STEP_CHUNK + 9,
                      seeds, 40)
    assert np.array_equal(helped, serial)
    assert np.array_equal(
        helped, _seed_major_sigma0(disc, 2 * STEP_CHUNK + 9, seeds, 40))
    assert_reaped(forks)


@pytest.mark.parametrize("n_steps,burn_in", [(2 * STEP_CHUNK + 5, 40),
                                             (STEP_CHUNK, 0), (1, 10)])
def test_time_major_steps_give_the_seed_major_bits(fixture_systems,
                                                   fixture_grid, monkeypatch,
                                                   forks, n_steps, burn_in):
    seeds = spawn_seeds(n_steps, 5)
    for disc in (fixture_systems[1], quiet_interior_system(fixture_grid)):
        ref = _seed_major_states(disc, seeds, burn_in, n_steps)
        assert np.array_equal(_stepped_states(disc, seeds, burn_in, n_steps),
                              ref)
        assert np.array_equal(serially(monkeypatch, _stepped_states, disc,
                                       seeds, burn_in, n_steps), ref)
        assert np.array_equal(
            _stepped_states(disc, seeds[:1], burn_in, n_steps), ref[:1])
    assert_reaped(forks)


def test_caller_finishes_the_groups_of_a_killed_helper(fixture_systems,
                                                      monkeypatch, forks):
    # 129 seeds make four groups: the helper folds group 1, then kills
    # itself on group 3, which the caller then folds too
    _, disc = fixture_systems
    seeds = spawn_seeds(3, 129)
    caller, helper_groups, own = os.getpid(), [], []

    def dying(x0, blocks):
        if os.getpid() == caller:
            own.append(len(x0))
        else:
            helper_groups.append(len(x0))
            if len(helper_groups) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
        return np.concatenate([x0[:, None]] + [b.copy() for b in blocks],
                              axis=1)

    groups = list(steady_blocks(disc, seeds, 20, 150, dying))
    assert [len(g) for g in groups] == [33, 32, 32, 32]
    assert own == [33, 32, 32]
    assert np.array_equal(np.concatenate(groups),
                          serially(monkeypatch, _stepped_states, disc, seeds,
                                   20, 150))
    assert len(forks) == 1
    assert_reaped(forks)


def test_fold_error_in_the_helper_is_raised_by_the_caller(fixture_systems,
                                                         forks):
    # the helper dies on its group's error; the caller folds that group
    # itself and raises the same error
    _, disc = fixture_systems
    caller, own = os.getpid(), []

    def failing(x0, blocks):
        if os.getpid() == caller:
            own.append(len(x0))
        if len(x0) == 1:
            raise ValueError("the second group fails")
        return len(x0)

    with pytest.raises(ValueError, match="the second group fails"):
        list(steady_blocks(disc, spawn_seeds(1, 3), 0, 10, failing))
    assert own == [2, 1]
    assert len(forks) == 1
    assert_reaped(forks)


def test_in_order_draws_each_job_once_in_the_caller(tmp_path, monkeypatch,
                                                   forks):
    caller, draws, runs = os.getpid(), tmp_path / "draws", tmp_path / "runs"

    def logged(path, line):
        with open(path, "a") as fh:
            fh.write(f"{line}\n")

    def jobs():
        for job in range(7):
            logged(draws, f"{os.getpid()} {job}")
            yield job

    def work(job):
        logged(runs, f"{os.getpid()} {job}")
        return job * job

    assert list(sim.in_order(jobs(), work)) == [job * job for job in range(7)]
    assert len(forks) == 1
    assert_reaped(forks)
    assert draws.read_text().splitlines() == [f"{caller} {job}"
                                              for job in range(7)]
    # the helper ran the odd jobs, and the caller the even ones
    ran = sorted((int(job), int(pid)) for pid, job in
                 map(str.split, runs.read_text().splitlines()))
    assert [job for job, _ in ran] == list(range(7))
    assert [pid == caller for _, pid in ran] == [True, False] * 3 + [True]
    runs.unlink()
    assert serially(monkeypatch, list, sim.in_order(jobs(), work)) == [
        job * job for job in range(7)]
    assert len(forks) == 1


def test_helper_leaves_once_its_jobs_pipe_ends(forks):
    # as when the caller dies without stopping it: no copy of the jobs
    # pipe's write end may stay open in the helper
    pid, jobs, results = sim._start_helper(abs)
    pickle.dump(-3, jobs)
    jobs.flush()
    assert pickle.load(results) == 3
    jobs.close()
    deadline, reaped = time.monotonic() + 10.0, False
    try:
        while not reaped:
            reaped = os.waitpid(pid, os.WNOHANG) != (0, 0)
            assert reaped or time.monotonic() < deadline, (
                "the helper outlived its jobs pipe")
            time.sleep(0.01)
    finally:
        results.close()
        if not reaped:  # a failing run leaves no helper behind
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    assert forks == [pid]
    assert_reaped(forks)


def test_closing_the_groups_early_reaps_the_helper(fixture_systems, forks):
    _, disc = fixture_systems
    groups = steady_blocks(disc, spawn_seeds(2, 10), 0, 10,
                           lambda x0, blocks: len(x0))
    assert next(groups) == 5
    groups.close()
    assert len(forks) == 1
    assert_reaped(forks)
