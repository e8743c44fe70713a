"""Error quantification and spectral diagnostics for reconstructed dynamics.

Discrete estimates map back to continuous time through A_d = (A - I)/dt.
Reconstruction quality is the relative Frobenius error against the ground
truth.  The probabilistic error envelopes (one for the discrete matrix,
one for the continuous matrix) involve expectations of Tr Sigma_0 and
||Sigma_0^{-1}||_F^2 that have no closed form; they are estimated here by
seeded Monte Carlo so that bound checks are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import estimators
from .estimators import covariances
from .model import DiscreteSystem
from .sim import simulate, spawn_seeds, steady_sigma0, steady_start

# simulate, steady_start and covariances are no longer called here but stay
# bound: perfbench/smoke.py checks that the tracer patches these sites


@dataclass(frozen=True)
class BoundReport:
    """Monte Carlo evaluation of both error envelopes from one set of trials.

    `rhs` bounds the discrete matrix (Theorem 1) and `rhs_continuous` the
    continuous one (Corollary 2).  n_discarded counts trials dropped because
    Sigma_0 came out singular or non-finite.  burn_in counts the steps of
    the system's dt run before each trial's window.
    """

    epsilon: float
    rhs: float
    rhs_continuous: float
    trace_sigma0_mean: float
    inv_norm_mean: float
    n_trials: int
    n_discarded: int = 0
    burn_in: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.rhs < 0.0 or self.rhs_continuous < 0.0:
            raise ValueError("rhs must be nonnegative")
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues of a continuous-time matrix with the critical ones singled out.

    `critical` holds the eigenvalue(s) of largest real part among those
    outside the zero-mode tolerance; a complex critical mode appears with
    its conjugate.
    """

    eigenvalues: tuple[complex, ...]
    critical: tuple[complex, ...]
    zero_mode_tol: float


def to_continuous(a_hat: np.ndarray, dt: float) -> np.ndarray:
    """Invert the forward-Euler map: (a_hat - I)/dt."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if a_hat.ndim != 2 or a_hat.shape[0] != a_hat.shape[1]:
        raise ValueError("a_hat must be square")
    return (a_hat - np.eye(a_hat.shape[0])) / dt


def relative_error(a_hat_d: np.ndarray, a_d: np.ndarray) -> float:
    """||a_hat_d - a_d||_F / ||a_d||_F."""
    if a_hat_d.shape != a_d.shape:
        raise ValueError(f"shape mismatch {a_hat_d.shape} vs {a_d.shape}")
    ref = np.linalg.norm(a_d)
    if ref == 0.0:
        raise ValueError("reference matrix has zero norm")
    return float(np.linalg.norm(a_hat_d - a_d) / ref)


def euler_step(sys: DiscreteSystem, steps: int) -> tuple[float, bool, str]:
    """sys.a's spectral radius, whether it exceeds 1 + 1e-12 (eigvals finds
    the zero mode's 1 to about 1e-15), and words for both: for an unstable
    step, its growth radius ** steps over `steps` steps, from its power of
    ten past a float's range, with counts past 15 digits as .15g floats."""
    radius = float(np.max(np.abs(np.linalg.eigvals(sys.a))))
    words = (f"the forward-Euler step at dt={sys.dt!r} s has spectral "
             f"radius {radius:.8g}")
    if radius <= 1.0 + 1e-12:
        return radius, False, words
    exponent = steps * math.log10(radius)
    growth = (f"{radius ** steps:.3g}" if exponent < 308 else
              f"{10 ** (exponent % 1):.3g}e+{math.floor(exponent):.15g}")
    return radius, True, (f"{words}, so a trial can grow {growth}-fold over "
                          f"its {steps:.15g} steps")


def _sigma0_moments(sys: DiscreteSystem, n_samples: int, n_trials: int,
                    seed: int, burn_in: int) -> tuple[float, float, int]:
    """Monte Carlo means of Tr Sigma_0 and ||Sigma_0^{-1}||_F^2.

    Each trial is a fresh steady-state window; the trials are stepped
    together by `steady_sigma0`.  Diverged (non-finite) trials and those
    above estimators.COND_THRESHOLD are discarded and counted.  Means use
    exact (fsum) aggregation so the result does not depend on accumulation
    order; where none is kept, the message judges sys.a with euler_step."""
    traces: list[float] = []
    inv_norms: list[float] = []
    diverged = 0
    # an overflowing trial is counted below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        sigma0s = steady_sigma0(sys, n_samples, spawn_seeds(seed, n_trials),
                                burn_in)
    for sigma0 in sigma0s:
        if not np.all(np.isfinite(sigma0)):
            diverged += 1
            continue
        cond = np.linalg.cond(sigma0)
        if not np.isfinite(cond) or cond > estimators.COND_THRESHOLD:
            continue
        traces.append(float(np.trace(sigma0)))
        inv_norms.append(float(np.sum(np.linalg.inv(sigma0) ** 2)))
    if not traces:
        raise ValueError(
            f"all Monte Carlo trials discarded ({diverged} of {n_trials} with "
            f"non-finite sigma0, the rest singular): "
            f"{euler_step(sys, burn_in + n_samples - 1)[2]}")
    kept = len(traces)
    return math.fsum(traces) / kept, math.fsum(inv_norms) / kept, n_trials - kept


def theorem1_bound(sys: DiscreteSystem, n_samples: int, epsilon: float,
                   n_trials: int, seed: int, *, burn_in: int) -> BoundReport:
    """Envelopes on ||A_hat - A||_F (rhs, Theorem 1) and ||A_hat_d - A_d||_F
    (rhs_continuous, Corollary 2), each holding with probability >= 1 - epsilon.

    With S = sqrt(E[Tr Sigma_0] E[||Sigma_0^{-1}||_F^2]) / (epsilon sqrt(T-1)),
    rhs = ||B||_2 S and rhs_continuous = ||B||_F / dt S, as sum_i sigma_P_i^2 /
    M_i^2 = ||B||_F^2 / dt.  The expectations are seeded Monte Carlo means over
    `n_trials` steady-state windows of T = n_samples states after burn_in
    steps of sys.dt, a count the caller takes from the model, not from sys.a
    (`swingid bound` runs ceil(sim.default_burn_in / stride)); only where
    sys.a is stable (`euler_step`) are those windows stationary.
    """
    n2 = 2 * sys.n_gen
    if n_samples <= n2 + 2:
        raise ValueError(f"need T > 2N+2 = {n2 + 2} samples, got {n_samples}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    b_norm = float(np.max(np.abs(sys.b_diag)))
    if b_norm == 0.0:
        # noiseless system: both bounds collapse to zero with no data needed
        return BoundReport(epsilon=epsilon, rhs=0.0, rhs_continuous=0.0,
                           trace_sigma0_mean=0.0, inv_norm_mean=0.0,
                           n_trials=n_trials, burn_in=burn_in)
    trace_mean, inv_mean, discarded = _sigma0_moments(
        sys, n_samples, n_trials, seed, burn_in)
    rhs = b_norm / (epsilon * math.sqrt(n_samples - 1)) * math.sqrt(
        trace_mean * inv_mean)
    rhs_continuous = float(np.linalg.norm(sys.b_diag)) / sys.dt / (
        epsilon * math.sqrt(n_samples - 1)) * math.sqrt(trace_mean * inv_mean)
    return BoundReport(epsilon=epsilon, rhs=rhs, rhs_continuous=rhs_continuous,
                       trace_sigma0_mean=trace_mean, inv_norm_mean=inv_mean,
                       n_trials=n_trials, n_discarded=discarded,
                       burn_in=burn_in)


def spectrum(a_d: np.ndarray, zero_mode_tol: float | None = None) -> SpectralReport:
    """Full eigendecomposition with the critical eigenvalue(s) identified.

    Criticality means largest real part among eigenvalues with modulus
    above zero_mode_tol, which excludes the structural Laplacian zero mode;
    the default tolerance is 1e-6 times the spectral radius.
    """
    if not np.all(np.isfinite(a_d)):
        raise ValueError("matrix has non-finite entries")
    if zero_mode_tol is not None and not (math.isfinite(zero_mode_tol)
                                          and zero_mode_tol >= 0.0):
        raise ValueError("zero_mode_tol must be finite and nonnegative, "
                         f"got {zero_mode_tol!r}")
    try:
        eigs = np.linalg.eigvals(a_d)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigensolver failed: {exc}") from exc
    radius = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if zero_mode_tol is None:
        zero_mode_tol = 1e-6 * radius
    order = np.lexsort((eigs.imag, -eigs.real))
    eigs = eigs[order]
    eligible = eigs[np.abs(eigs) > zero_mode_tol]
    if eligible.size:
        max_re = float(np.max(eligible.real))
        re_tol = 1e-9 * max(radius, 1.0)
        critical = tuple(complex(ev) for ev in eligible
                         if ev.real >= max_re - re_tol)
    else:
        critical = ()
    return SpectralReport(eigenvalues=tuple(complex(ev) for ev in eigs),
                          critical=critical, zero_mode_tol=zero_mode_tol)


def spectral_distance(eigs_a, eigs_b) -> float:
    """Mean matched distance between two eigenvalue sets.

    Minimum-cost perfect matching under |lambda - mu| cost: permuted equal
    spectra are at distance zero.  Non-finite eigenvalues raise ValueError.
    """
    a = np.asarray(eigs_a, dtype=complex)
    b = np.asarray(eigs_b, dtype=complex)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("eigenvalue lists must be 1-d and of equal length")
    cost = np.abs(a[:, None] - b[None, :])
    if not np.all(np.isfinite(cost)):
        raise ValueError("eigenvalues and their distances must be finite")
    return float(cost[np.arange(a.size), _min_cost_matching(cost)].mean())


def _min_cost_matching(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost perfect matching of a finite square
    cost: Hungarian shortest augmenting paths with dual potentials u, v, O(n^3)
    (Kuhn 1955; Jonker & Volgenant 1987).  owner[j] - 1 is column j's row."""
    n = cost.shape[0]
    cost = np.hstack([np.full((n, 1), np.inf), cost])  # column 0: path start
    (u, v), (owner, way) = np.zeros((2, n + 1)), np.zeros((2, n + 1), int)
    for i in range(1, n + 1):
        owner[0], j0 = i, 0
        slack, used = np.full(n + 1, np.inf), np.zeros(n + 1, dtype=bool)
        while owner[j0]:
            used[j0] = True
            reduced = cost[owner[j0] - 1] - u[owner[j0]] - v
            closer = ~used & (reduced < slack)
            slack[closer], way[closer] = reduced[closer], j0
            j0 = int(np.argmin(np.where(used, np.inf, slack)))
            delta = slack[j0]
            u[owner[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
        while j0:
            owner[j0], j0 = owner[way[j0]], way[j0]
    return np.argsort(owner[1:])
