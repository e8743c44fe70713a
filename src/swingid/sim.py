"""Trajectory generation for the discrete swing model.

The recursion X_{t+1} = A X_t + B xi_t is driven by independent standard
normal vectors xi_t.  Data is always generated at the base step (1/60 s,
one AC cycle) and coarser sampling rates are produced by `subsample`,
so estimators never see the generation step directly.

Noise rule: each step draws one standard normal per noisy row (b_diag[i]
!= 0), in row order, and scales it into that row; other rows get exactly
0.  A swing model's noise enters only its N speed rows, so a step draws N
normals where swingid 0.1.0 drew 2N and zeroed half of them: every swing
trajectory is a new realization since 0.2.0, while a system with noise
on every row keeps 0.1.0's stream and bits.

Randomness: numpy's default_rng (PCG64 bit generator, ziggurat normal
transform).  Given the same integer seed the sampled noise is
bit-identical across platforms and runs.  Draws come STEP_CHUNK steps at
a time from Generator.standard_normal(out=...), which fills its values in
order, so the chunking moves no draw.  Independent streams are derived
through numpy.random.SeedSequence spawning rather than seed arithmetic:
every seed, whether a CLI seed or a Monte Carlo trial, splits into a
burn-in stream and a run stream in one place, `_split_streams`.

Determinism contract:
  * `_advance` runs every Euler step: one np.dot of a group of rows'
    states with A^T per step.  BLAS takes its matrix-vector path (gemv) on
    one row and its matrix-matrix path (gemm) on two or more, and the two
    round differently.
  * `simulate`, `steady_start`, `steady_trajectory` and `steady_run`
    step one seed as one row, so each step is one gemv and a seed's
    trajectory (and every file written from it) is bit-identical on rerun.
  * `steady_blocks` steps a group of seeds as a group of rows, one gemm per
    step, and folds each group for the `bound` and `sweep` commands, which
    keep only per-seed moments and fits.  A fold reads seed-major views of the
    stepper's time-major chunks, each valid until the next is drawn (a fold
    that keeps a block must copy it).  It draws the same noise as
    `steady_trajectory`, but gemm rounds differently from gemv, so a seed's
    covariances agree with those of `steady_trajectory` to about 1e-14
    relative (about 1e-10 in a sweep's `eps`), not bitwise.  A lone seed is
    stepped beside an idle zero row, so every product is a gemm and a seed's
    bits do not depend on which seeds share its group.  The groups do depend
    on the machine: where a forked helper can run (os.fork and two usable
    CPUs), the seeds split into an even number of near-equal groups and the
    helper steps and folds every other one; elsewhere they go in groups of
    STEP_GROUP.  None of this moves a bit: results are bit-identical on rerun,
    on one CPU or two, with the helper or without.
  * Across versions: the noise rule decides which draw lands in which
    row, so a trajectory, sweep cell or bound report of a swing model
    made by swingid 0.1.0 is another realization than 0.2.0's from the
    same seed.  The `swingid_version` of every manifest, `.meta` and
    bound report tells them apart.

The forked helper (`in_order`) also runs trajectory text I/O in io_config and
the fits of the `estimate` command.  The caller draws every job (it steps each
`steady_run` block and reads each line once), pickles jobs 1, 3, 5, ... to the
helper and runs jobs 0, 2, 4, ...; the helper only formats, parses, fits or
steps what it is sent and pickles each result back, in order.  If the helper
dies, the caller runs the rest of the jobs, and it reaps the helper on every exit.
"""

from __future__ import annotations

import math
import os
import pickle
import sys as _sys  # `sys` names the stepped system below
from contextlib import suppress
from dataclasses import dataclass
from itertools import islice
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .model import ContinuousSystem, DiscreteSystem

# one AC cycle at 60 Hz; generation always runs at this step
DT_BASE = 1.0 / 60.0

# steady_blocks steps at most this many seeds together and draws their
# noise this many steps at a time, which bounds its working memory
STEP_GROUP = 64
STEP_CHUNK = 128
SEED_BATCH = 1024  # spawn_seeds holds at most this many SeedSequences


@dataclass(frozen=True)
class Trajectory:
    """Sampled states X_t = [delta_1..delta_N, omega_1..omega_N], row per sample."""

    dt: float
    states: np.ndarray
    n_gen: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.states.ndim != 2 or self.states.shape[0] < 1:
            raise ValueError("states must be a nonempty 2-d array")
        if self.states.shape[1] != 2 * self.n_gen:
            raise ValueError(
                f"state dimension {self.states.shape[1]} != 2*n_gen = {2 * self.n_gen}")

    @property
    def n_samples(self) -> int:
        return self.states.shape[0]

    def blocks(self, rows: int) -> Iterator[np.ndarray]:
        """The states, rows samples at a time, as views."""
        return (self.states[i:i + rows] for i in range(0, self.n_samples, rows))


class SteadyRun(NamedTuple):
    """A window that each call of blocks(rows) steps anew, rows at a time."""

    dt: float
    n_gen: int
    blocks: Callable[[int], Iterator[np.ndarray]]


def spawn_seeds(seed: int, n: int) -> list[int]:
    """n reproducible, statistically independent child seeds of `seed`,
    spawned SEED_BATCH at a time: spawn continues its child counter, so
    they are the seeds of one spawn(n) without holding its n children."""
    root = np.random.SeedSequence(seed)
    return [int(child.generate_state(1)[0]) for start in range(0, n, SEED_BATCH)
            for child in root.spawn(min(SEED_BATCH, n - start))]


def _noisy_rows(b_diag: np.ndarray) -> slice | np.ndarray:
    """The rows that take noise (b_diag != 0), in row order: a slice where
    they are consecutive, as a swing model's speed rows are, so that numpy
    can write them as a strided view."""
    rows = np.flatnonzero(b_diag)
    if rows.size and rows[-1] - rows[0] == rows.size - 1:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


def simulate(sys: DiscreteSystem, n_steps: int, x0: np.ndarray,
             seed: int | np.random.Generator) -> Trajectory:
    """Run the recursion for n_steps transitions; returns n_steps+1 samples.

    states[0] = x0 and states[t+1] = a states[t] + b_diag * xi_t, where
    xi_t holds one draw from default_rng(seed) per noisy row (b_diag != 0),
    in row order, and 0 in every other row; a Generator seed continues its
    stream.  The steps are `_advance`'s on the single row x0, so each is one
    matrix-vector product.  The result is a deterministic function of (sys,
    n_steps, x0, seed).  States too many to allocate raise MemoryError.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    n2 = 2 * sys.n_gen
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n2,):
        raise ValueError(f"x0 must have shape ({n2},), got {x0.shape}")
    try:
        states = np.empty((n_steps + 1, n2))
    except ValueError:  # numpy's refusal of a size past its address space
        raise MemoryError(f"{n_steps + 1} states of {n2} do not fit in "
                          "memory") from None
    states[0] = x0
    blocks = _advance(sys, x0[None, :], [np.random.default_rng(seed)], n_steps)
    for start, block in zip(range(1, n_steps + 1, STEP_CHUNK), blocks):
        states[start:start + len(block)] = block[:, 0]
    return Trajectory(dt=sys.dt, states=states, n_gen=sys.n_gen)


def subsample(traj: Trajectory, stride: int) -> Trajectory:
    """Keep samples 0, k, 2k, ...; dt scales by k, length becomes ceil(T/k)."""
    if stride < 1:
        raise ValueError("stride must be at least 1")
    if stride == 1:
        return traj
    return Trajectory(dt=traj.dt * stride, states=traj.states[::stride].copy(),
                      n_gen=traj.n_gen)


def steady_start(sys: DiscreteSystem, burn_in: int, seed: int) -> np.ndarray:
    """Initial condition in the stationary regime: simulate(sys, burn_in, origin,
    seed).states[-1] bit for bit, stepped in `simulate` segments of STEP_CHUNK
    steps on one Generator so that one segment at a time is held (the origin
    for burn_in = 0).  The caller should pass a seed distinct from the main
    run's (see spawn_seeds) so the burn-in noise is not reused."""
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    rng, x = np.random.default_rng(seed), np.zeros(2 * sys.n_gen)
    for start in range(0, burn_in, STEP_CHUNK):
        x = simulate(sys, min(STEP_CHUNK, burn_in - start), x, rng).states[-1]
    return x


def _split_streams(seed: int) -> tuple[int, int]:
    """The burn-in and run seeds of one trajectory seed: distinct child
    streams keep the burn-in noise out of the run's data."""
    burn_seed, run_seed = spawn_seeds(seed, 2)
    return burn_seed, run_seed


def steady_run(sys: DiscreteSystem, n_samples: int, burn_in: int,
               seed: int) -> SteadyRun:
    """steady_trajectory's window, never held whole: blocks() steps it anew in
    `simulate` segments on one Generator, raising FloatingPointError if non-finite."""
    burn_seed, run_seed = _split_streams(seed)
    x0 = steady_start(sys, burn_in, burn_seed)

    def blocks(rows: int) -> Iterator[np.ndarray]:
        rng, x = np.random.default_rng(run_seed), x0
        for start in range(0, n_samples, rows):
            n_steps = min(rows, n_samples - 1 - start)
            states = simulate(sys, n_steps, x, rng).states if n_steps else x[None]
            block, x = states[:rows], states[-1]
            if not np.all(np.isfinite(block)):
                raise FloatingPointError(f"non-finite states from sample {start} on")
            yield block

    return SteadyRun(sys.dt, sys.n_gen, blocks)


def steady_trajectory(sys: DiscreteSystem, n_samples: int, burn_in: int,
                      seed: int) -> Trajectory:
    """n_samples states from the stationary regime: burn-in, then the run.

    The burn-in and the run draw from the two streams of `seed`.
    """
    burn_seed, run_seed = _split_streams(seed)
    x0 = steady_start(sys, burn_in, burn_seed)
    return simulate(sys, n_samples - 1, x0, run_seed)


# ------------------------------------------------------- the forked helper

# POSIX's number for SIGKILL; importing the signal module for it would
# build its enums, about 0.4 MB of resident memory, in every process
_SIGKILL = 9


def _helper_allowed() -> bool:
    """Whether a forked helper may take every other job: os.fork exists
    and at least two CPUs are usable."""
    if not hasattr(os, "fork"):
        return False
    try:
        return len(os.sched_getaffinity(0)) >= 2
    except AttributeError:  # no affinity call on this platform
        return (os.cpu_count() or 1) >= 2


def _start_helper(work: Callable) -> tuple[int, BinaryIO, BinaryIO] | None:
    """Fork a helper that runs work on each job it is sent.

    Returns its pid, the write end of a pipe that takes the jobs and the
    read end of one that brings back the results, each pickled one after
    another in order; None if the fork fails.  The helper leaves only by a
    kill or, once its jobs pipe ends, through os._exit, so it runs no exit
    handler and flushes no buffer it inherited.  It inherits numpy's error
    state, so an np.errstate around the call holds in the helper too.

    A stepping or fitting helper calls BLAS (small matmuls) after the
    fork.  That is safe with numpy's OpenBLAS: its pthread_atfork handler
    stops its thread pool before the fork, so the helper starts with no
    pool and no held lock, and a threaded call in either process starts a
    new pool.  The helpers' matmuls are below OpenBLAS's threading
    threshold anyway.  Stopping the pool also ends its spin: after a
    threaded product the worker busy-waits for about 0.13 s of CPU, so on
    two CPUs a helper forked during that spin would share its core.
    Python 3.12 and later may still issue a DeprecationWarning for a fork
    while other threads are alive.
    """
    for stream in (_sys.stdout, _sys.stderr):
        if stream is not None:  # None where the process has no such fd
            stream.flush()
    job_read, job_write = os.pipe()
    result_read, result_write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (job_read, job_write, result_read, result_write):
            os.close(fd)
        return None
    if pid == 0:
        try:
            os.close(job_write)  # so that the jobs pipe ends if the caller dies
            os.close(result_read)
            jobs, results = open(job_read, "rb"), open(result_write, "wb")
            while True:
                pickle.dump(work(pickle.load(jobs)), results, pickle.HIGHEST_PROTOCOL)
                results.flush()
        finally:
            os._exit(1)
    os.close(job_read)
    os.close(result_write)
    return pid, open(job_write, "wb"), open(result_read, "rb")


def _stop_helper(pid: int, jobs: BinaryIO, results: BinaryIO) -> None:
    """Close both pipes, dropping any part of a job that a dead helper's
    pipe refuses, then end the helper if it still runs and reap it."""
    with suppress(BrokenPipeError):
        jobs.close()
    results.close()
    os.kill(pid, _SIGKILL)  # still this process's child until reaped
    os.waitpid(pid, 0)


def in_order(jobs: Iterable, work: Callable) -> Iterator:
    """Yield work(job) for each job, in order, drawing each job once.

    Where a helper is allowed and there is more than one job, the caller
    draws them two at a time and sends the second to a forked helper
    before it runs the first: the helper runs jobs 1, 3, 5, ... and the
    caller jobs 0, 2, 4, ..., and the rest of them if the helper stops
    early.  Closing the generator closes the pipes and reaps the helper.
    """
    jobs = iter(jobs)
    pair = list(islice(jobs, 2))
    helper = _start_helper(work) if len(pair) == 2 and _helper_allowed() else None
    try:
        while pair:
            if helper is not None and len(pair) == 2:
                # a dead helper refuses it, and its result reads as ended
                with suppress(BrokenPipeError):
                    pickle.dump(pair[1], helper[1], pickle.HIGHEST_PROTOCOL)
                    helper[1].flush()
            yield work(pair.pop(0))
            if helper is not None and pair:
                try:
                    yield pickle.load(helper[2])
                    pair.clear()  # so that no job is held after its turn
                except (EOFError, pickle.UnpicklingError):  # no whole result came
                    _stop_helper(*helper)
                    helper = None
            if pair:
                yield work(pair.pop())
            pair = list(islice(jobs, 2))
    finally:
        if helper is not None:
            _stop_helper(*helper)


def _advance(sys: DiscreteSystem, x: np.ndarray, rngs, n_steps: int):
    """Step every row of x n_steps times, STEP_CHUNK steps at a time.

    x holds one current state per row and rngs one generator per row; rows
    past len(rngs) get no noise.  Each chunk zeroes the time-major block,
    (m, rows, 2N), scales each row's draws (one per noisy state per step,
    drawn into its row of the contiguous seed-major buffer `draws`) into
    the noisy columns, and adds A X_t to each step's states, one np.dot per
    step.  Yields each block; the next chunk overwrites it.
    """
    a_t, noisy = sys.a.T, _noisy_rows(sys.b_diag)
    scale = sys.b_diag[noisy]
    draws = np.empty((len(rngs), min(STEP_CHUNK, n_steps), scale.size))
    states = np.empty((min(STEP_CHUNK, n_steps), *x.shape))
    step = np.empty(x.shape)
    for start in range(0, n_steps, STEP_CHUNK):
        m = min(STEP_CHUNK, n_steps - start)
        block = states[:m]
        block[...] = 0.0
        for rng, rows in zip(rngs, draws[:, :m]):
            rng.standard_normal(out=rows)
        block[:, :len(rngs), noisy] = draws[:, :m].transpose(1, 0, 2) * scale
        for nxt in block:
            # X_{t+1} = A X_t + B xi_t
            np.dot(x, a_t, out=step)
            nxt += step
            x = nxt
        yield block
        x = block[-1].copy()


def _group_bounds(n_seeds: int) -> list[int]:
    """Where each group of steady_blocks starts, then n_seeds.

    Where a helper may run, an even number of near-equal groups of at most
    STEP_GROUP seeds, so that the caller and the helper step as many seeds
    each (10 seeds: 5 + 5; 129: 33 + 32 + 32 + 32); elsewhere groups of
    STEP_GROUP and the rest.
    """
    if n_seeds >= 2 and _helper_allowed():
        count = 2 * -(-n_seeds // (2 * STEP_GROUP))
        return [-(-n_seeds * i // count) for i in range(count + 1)]
    return [*range(0, n_seeds, STEP_GROUP), n_seeds]


def steady_blocks(sys: DiscreteSystem, seeds, burn_in: int, n_steps: int,
                  fold: Callable) -> Iterator:
    """Steady-state runs of many seeds, stepped together a group at a time.

    Seed k covers the same states as `steady_trajectory(sys, n_steps + 1,
    burn_in, seeds[k])`, from the same noise streams.  The seeds go in
    consecutive groups of at most STEP_GROUP, and for each group of k seeds
    this runs fold(x0, blocks): x0 is the (k, 2N) array of their states X_0,
    and blocks yields (k, m, 2N) seed-major views of the stepper's time-major
    chunks, X_1..X_{n_steps} in order, STEP_CHUNK states at a time; each is
    valid until the next is drawn, so a fold that keeps a block must copy it.
    Returns an iterator of fold's results, one per group, in seed order.  It
    comes from `in_order`: a forked helper may fold every other group, so a
    result must pickle, and closing the iterator reaps the helper.
    """
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    seeds = list(seeds)
    bounds = _group_bounds(len(seeds))

    def run(group: tuple[int, int]):
        streams = [_split_streams(s) for s in seeds[slice(*group)]]
        k = len(streams)
        # a one-row product takes the matrix-vector path, which rounds
        # differently: a lone seed is stepped beside a zero row without noise
        x = np.zeros((max(k, 2), 2 * sys.n_gen))
        burn = [np.random.default_rng(b) for b, _ in streams]
        for x in _advance(sys, x, burn, burn_in):  # no burn-in block outlives it
            x = x[-1].copy()
        run_rngs = [np.random.default_rng(r) for _, r in streams]
        return fold(x[:k], (block[:, :k].transpose(1, 0, 2)
                            for block in _advance(sys, x, run_rngs, n_steps)))

    return in_order(zip(bounds, bounds[1:]), run)


def default_burn_in(sys: ContinuousSystem) -> int:
    """Base steps covering twice the slowest mode's time constant, rounded up.

    The slowest mode is the eigenvalue of a_d with the largest nonzero real
    part; the structural zero mode (uniform angle shift) never decays and is
    excluded.  A run strided by k covers that time in
    ceil(default_burn_in(sys) / k) of its steps.
    """
    eigs = np.linalg.eigvals(sys.a_d)
    radius = max(np.max(np.abs(eigs)), 1.0)
    decaying = [ev for ev in eigs if abs(ev) > 1e-9 * radius and ev.real < 0]
    if not decaying:
        return 0
    slowest = max(ev.real for ev in decaying)
    return math.ceil(2.0 / abs(slowest) / DT_BASE)
