"""Trajectory generation for the discrete swing model.

The recursion X_{t+1} = A X_t + B xi_t is driven by independent standard
normal vectors xi_t.  Data is always generated at the base step (1/60 s,
one AC cycle) and coarser sampling rates are produced by `subsample`,
so estimators never see the generation step directly.

Randomness: numpy's default_rng (PCG64 bit generator, ziggurat normal
transform).  Given the same integer seed the sampled noise is
bit-identical across platforms and runs.  Independent streams are derived
through numpy.random.SeedSequence spawning rather than seed arithmetic:
every seed, whether a CLI seed or a Monte Carlo trial, splits into a
burn-in stream and a run stream in one place, `_split_streams`.

Determinism contract:
  * `simulate`, `steady_start` and `steady_trajectory` advance one
    trajectory with one matrix-vector product per step, so a seed's
    trajectory (and every file written from it) is bit-identical on rerun.
  * `steady_blocks` advances a group of seeds together, one matrix product
    per step, and feeds `steady_sigma0` and the `sweep` command, which keep
    only per-seed covariances.  It draws the same noise as the serial path,
    but the batched product rounds differently from the matrix-vector one,
    so a seed's covariances agree with those of `steady_trajectory` to about
    1e-14 relative (about 1e-10 in a sweep's `eps`), not bitwise.  A lone
    seed is stepped beside an idle zero row, so every product has at least
    two rows and a seed's bits do not depend on which seeds share its
    group.  Results are bit-identical on rerun.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ContinuousSystem, DiscreteSystem

# one AC cycle at 60 Hz; generation always runs at this step
DT_BASE = 1.0 / 60.0

# steady_blocks steps at most this many seeds together and draws their
# noise this many steps at a time, which bounds its working memory
STEP_GROUP = 64
STEP_CHUNK = 128


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


def spawn_seeds(seed: int, n: int) -> list[int]:
    """n reproducible, statistically independent child seeds of `seed`."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(c.generate_state(1)[0]) for c in children]


def simulate(sys: DiscreteSystem, n_steps: int, x0: np.ndarray,
             seed: int) -> Trajectory:
    """Run the recursion for n_steps transitions; returns n_steps+1 samples.

    states[0] = x0 and states[t+1] = a states[t] + b_diag * xi_t with the
    xi_t drawn from default_rng(seed) in a single block, so the result is
    a deterministic function of (sys, n_steps, x0, seed).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    n2 = 2 * sys.n_gen
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n2,):
        raise ValueError(f"x0 must have shape ({n2},), got {x0.shape}")
    states = np.empty((n_steps + 1, n2))
    states[0] = x0
    # draw the noise in place, then add A X_t to each noise row
    np.random.default_rng(seed).standard_normal(out=states[1:])
    states[1:] *= sys.b_diag
    a, step = sys.a, np.empty(n2)
    for x, nxt in zip(states[:-1], states[1:]):
        np.dot(a, x, out=step)
        np.add(nxt, step, out=nxt)
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
    """Initial condition in the stationary regime: end state of a burn-in run.

    burn_in = 0 returns the origin.  The caller should pass a seed distinct
    from the main run's (see spawn_seeds) so the burn-in noise is not reused.
    """
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    origin = np.zeros(2 * sys.n_gen)
    if burn_in == 0:
        return origin
    return simulate(sys, burn_in, origin, seed).states[-1]


def _split_streams(seed: int) -> tuple[int, int]:
    """The burn-in and run seeds of one trajectory seed.

    Distinct child streams keep the burn-in noise out of the run's data.
    """
    burn_seed, run_seed = spawn_seeds(seed, 2)
    return burn_seed, run_seed


def steady_trajectory(sys: DiscreteSystem, n_samples: int, burn_in: int,
                      seed: int) -> Trajectory:
    """n_samples states from the stationary regime: burn-in, then the run.

    The burn-in and the run draw from the two streams of `seed`.
    """
    burn_seed, run_seed = _split_streams(seed)
    x0 = steady_start(sys, burn_in, burn_seed)
    return simulate(sys, n_samples - 1, x0, run_seed)


def _advance(sys: DiscreteSystem, x: np.ndarray, rngs, n_steps: int,
             buf: np.ndarray):
    """Step every row of the group n_steps times, STEP_CHUNK steps at a time.

    x holds one current state per row and rngs one generator per row; rows
    past len(rngs) get no noise.  Yields the (k, m, 2N) block of the next m
    states of every row; the block is a view of `buf`, overwritten by the
    next chunk.
    """
    a_t = sys.a.T
    step = np.empty_like(x)
    for start in range(0, n_steps, buf.shape[1]):
        m = min(buf.shape[1], n_steps - start)
        block = buf[:, :m]
        for rng, rows in zip(rngs, block):
            rng.standard_normal(out=rows)
        block *= sys.b_diag
        for t in range(m):
            # X_{t+1} = A X_t + B xi_t, written over the noise row it uses
            np.matmul(x, a_t, out=step)
            x = block[:, t]
            x += step
        yield block
        x = block[:, -1].copy()


def steady_blocks(sys: DiscreteSystem, seeds, burn_in: int, n_steps: int):
    """Steady-state runs of many seeds, stepped together a group at a time.

    Seed k covers the same states as `steady_trajectory(sys, n_steps + 1,
    burn_in, seeds[k])`, from the same noise streams.  Yields one
    (first, x0, blocks) triple per group seeds[first:first + k] of at most
    STEP_GROUP seeds: x0 is the (k, 2N) array of their states X_0, and
    blocks yields (k, m, 2N) arrays holding X_1..X_{n_steps} in order,
    STEP_CHUNK states at a time.  Each block is overwritten by the next, and
    a group's blocks must be used up before the next group is asked for.
    """
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    n2 = 2 * sys.n_gen
    seeds = list(seeds)
    for first in range(0, len(seeds), STEP_GROUP):
        streams = [_split_streams(s) for s in seeds[first:first + STEP_GROUP]]
        k = len(streams)
        # a one-row product takes the matrix-vector path, which rounds
        # differently: a lone seed is stepped beside a zero row without noise
        rows = max(k, 2)
        buf = np.zeros((rows, STEP_CHUNK, n2))
        x = np.zeros((rows, n2))
        burn = [np.random.default_rng(b) for b, _ in streams]
        for block in _advance(sys, x, burn, burn_in, buf):
            x = block[:, -1].copy()
        run = _advance(sys, x, [np.random.default_rng(r) for _, r in streams],
                       n_steps, buf)
        yield first, x[:k], (block[:k] for block in run)


def steady_sigma0(sys: DiscreteSystem, n_samples: int, trial_seeds,
                  burn_in: int) -> np.ndarray:
    """Per-trial Sigma_0 of steady-state windows, without any trajectory.

    Trial k covers the same window as `steady_trajectory(sys, n_samples,
    burn_in, trial_seeds[k])` from the same noise streams, and returns the
    symmetrised Gram matrix of its states X_0..X_{T-2} over T-1, shape
    (len(trial_seeds), 2N, 2N).  Trials advance together through
    `steady_blocks`; each chunk of states is folded into the Gram matrices
    and dropped, so memory does not grow with n_samples.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    n2 = 2 * sys.n_gen
    seeds = list(trial_seeds)
    out = np.empty((len(seeds), n2, n2))
    # X_{T-1} enters only Sigma_1, so the run stops one step short
    for first, x, blocks in steady_blocks(sys, seeds, burn_in, n_samples - 2):
        gram = x[:, :, None] * x[:, None, :]
        for block in blocks:
            gram += np.matmul(block.transpose(0, 2, 1), block)
        gram /= n_samples - 1
        out[first:first + len(x)] = (gram + gram.transpose(0, 2, 1)) / 2.0
    return out


def default_burn_in(sys: ContinuousSystem, dt: float = DT_BASE) -> int:
    """Steps covering twice the slowest mode's time constant, rounded up.

    The slowest mode is the eigenvalue of a_d with the largest nonzero real
    part; the structural zero mode (uniform angle shift) never decays and is
    excluded.
    """
    eigs = np.linalg.eigvals(sys.a_d)
    radius = max(np.max(np.abs(eigs)), 1.0)
    decaying = [ev for ev in eigs if abs(ev) > 1e-9 * radius and ev.real < 0]
    if not decaying:
        return 0
    slowest = max(ev.real for ev in decaying)
    return math.ceil(2.0 / abs(slowest) / dt)
