"""Grid models and the linearized swing dynamics they induce.

A grid is a connected graph of buses joined by lines with effective
susceptances beta_ij (p.u.).  Generator buses carry inertia M_i (s^2),
damping D_i and a power-noise level sigma_P_i; the remaining buses are
passive loads and are eliminated by Kron reduction before any dynamics
are built.  The linearized state is x = [delta_1..delta_N, omega_1..omega_N]
(angle and speed deviations of the N generators) and evolves as

    d/dt [delta; omega] = [[0, I], [-M^-1 L, -M^-1 D]] [delta; omega] + noise,

with L the susceptance-weighted Laplacian of the reduced network.  The
forward-Euler one-step map of that system at time step dt is
A = I + dt*A_d with per-row noise scale M_i^-1 sigma_P_i sqrt(dt) on the
speed rows and zero on the angle rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ValidationError(ValueError):
    """Invalid model data; `field` names the offending quantity."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class KronReductionError(ValueError):
    """Load sub-block is singular (a load component is disconnected)."""


@dataclass(frozen=True)
class Line:
    """Transmission line between buses i and j.

    gamma (effective conductance) is carried as metadata only; it never
    enters the dynamics.
    """

    i: int
    j: int
    beta: float
    gamma: float = 0.0


@dataclass(frozen=True)
class GridModel:
    """Validated grid description; node indices run 0..n_nodes-1."""

    n_nodes: int
    generator_ids: tuple[int, ...]
    inertia: dict[int, float]
    damping: dict[int, float]
    noise_sigma: dict[int, float]
    lines: tuple[Line, ...]

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValidationError("n_nodes must be positive", field="n_nodes")
        if not self.generator_ids:
            raise ValidationError("at least one generator required",
                                  field="generator_ids")
        gens = set(self.generator_ids)
        if len(gens) != len(self.generator_ids):
            raise ValidationError("duplicate generator ids",
                                  field="generator_ids")
        for g in self.generator_ids:
            if not 0 <= g < self.n_nodes:
                raise ValidationError(f"generator id {g} out of range",
                                      field="generator_ids")
            if not 0.0 < self.inertia.get(g, 0.0) < np.inf:
                raise ValidationError(
                    f"M must be positive and finite on generator {g}",
                    field="inertia")
            if not 0.0 < self.damping.get(g, 0.0) < np.inf:
                raise ValidationError(
                    f"D must be positive and finite on generator {g}",
                    field="damping")
            if not 0.0 <= self.noise_sigma.get(g, -1.0) < np.inf:
                raise ValidationError(
                    f"sigma_P must be nonnegative and finite on generator {g}",
                    field="noise_sigma")
        seen = set()
        for ln in self.lines:
            if not (0 <= ln.i < self.n_nodes and 0 <= ln.j < self.n_nodes):
                raise ValidationError(f"line ({ln.i},{ln.j}) endpoint out of range",
                                      field="lines")
            if ln.i == ln.j:
                raise ValidationError(f"self-loop at node {ln.i}", field="lines")
            key = (min(ln.i, ln.j), max(ln.i, ln.j))
            if key in seen:
                raise ValidationError(f"duplicate line {key}", field="lines")
            seen.add(key)
            if not 0.0 < ln.beta < np.inf:
                raise ValidationError(
                    f"beta must be positive and finite on line {key}",
                    field="lines")
            if not 0.0 <= ln.gamma < np.inf:
                raise ValidationError(
                    f"gamma must be nonnegative and finite on line {key}",
                    field="lines")
        if not self._connected():
            raise ValidationError("line graph is not connected", field="lines")

    def _connected(self) -> bool:
        if self.n_nodes == 1:
            return True
        adj: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for ln in self.lines:
            adj[ln.i].append(ln.j)
            adj[ln.j].append(ln.i)
        seen = {0}
        stack = [0]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n_nodes

    @property
    def n_gen(self) -> int:
        return len(self.generator_ids)


@dataclass(frozen=True)
class ContinuousSystem:
    """Continuous-time dynamics d/dt x = a_d x + diag(noise_scale) * white noise."""

    n_gen: int
    a_d: np.ndarray
    noise_scale: np.ndarray

    def __post_init__(self):
        n2 = 2 * self.n_gen
        if self.a_d.shape != (n2, n2):
            raise ValidationError(f"a_d must be {n2}x{n2}", field="a_d")
        if self.noise_scale.shape != (n2,):
            raise ValidationError(f"noise_scale must have length {n2}",
                                  field="noise_scale")


@dataclass(frozen=True)
class DiscreteSystem:
    """One-step map x' = a x + b_diag * xi, xi standard normal.

    Only the noisy rows (b_diag != 0) take a draw: `sim` draws one normal
    per noisy row per step, in row order, and leaves the other rows of xi
    at 0, so a swing model's angle rows are exactly those of a x.
    """

    n_gen: int
    a: np.ndarray
    b_diag: np.ndarray
    dt: float

    def __post_init__(self):
        n2 = 2 * self.n_gen
        if self.a.shape != (n2, n2):
            raise ValidationError(f"a must be {n2}x{n2}", field="a")
        if self.b_diag.shape != (n2,):
            raise ValidationError(f"b_diag must have length {n2}", field="b_diag")
        if self.dt <= 0.0:
            raise ValidationError("dt must be positive", field="dt")


def build_laplacian(model: GridModel) -> np.ndarray:
    """Susceptance-weighted Laplacian over all buses of the model.

    L_ij = -beta_ij on lines, L_ii = sum of incident betas, zero elsewhere.
    Symmetric, positive semidefinite, zero row sums.
    """
    n = model.n_nodes
    lap = np.zeros((n, n))
    for ln in model.lines:
        lap[ln.i, ln.j] -= ln.beta
        lap[ln.j, ln.i] -= ln.beta
        lap[ln.i, ln.i] += ln.beta
        lap[ln.j, ln.j] += ln.beta
    return lap


def kron_reduce(laplacian: np.ndarray, generator_ids) -> np.ndarray:
    """Eliminate passive buses: Schur complement of the load-load block.

    Returns L_gg - L_gl L_ll^-1 L_lg, ordered by `generator_ids`.  The
    result is again a Laplacian (symmetric PSD, zero row sums) of the
    equivalent generator-only network.
    """
    n = laplacian.shape[0]
    gens = list(generator_ids)
    loads = sorted(set(range(n)) - set(gens))
    if not loads:
        return laplacian[np.ix_(gens, gens)].copy()
    lgg = laplacian[np.ix_(gens, gens)]
    lgl = laplacian[np.ix_(gens, loads)]
    lll = laplacian[np.ix_(loads, loads)]
    # L_ll is positive definite iff every load component touches a generator.
    try:
        sol = np.linalg.solve(lll, lgl.T)
    except np.linalg.LinAlgError as exc:
        raise KronReductionError(
            "load-load block is singular; a load component is disconnected "
            "from all generators") from exc
    if not np.all(np.isfinite(sol)) or np.linalg.cond(lll) > 1e12:
        raise KronReductionError(
            "load-load block is numerically singular; a load component is "
            "disconnected from all generators")
    reduced = lgg - lgl @ sol
    # enforce exact symmetry lost to roundoff
    return (reduced + reduced.T) / 2.0


def build_continuous(model: GridModel,
                     reduced_laplacian: np.ndarray) -> ContinuousSystem:
    """Assemble [[0, I], [-M^-1 L, -M^-1 D]] and the noise-scale vector."""
    n = model.n_gen
    if reduced_laplacian.shape != (n, n):
        raise ValidationError(
            f"reduced Laplacian must be {n}x{n}, got {reduced_laplacian.shape}",
            field="reduced_laplacian")
    m, d, sigma = (np.array([per_node[g] for g in model.generator_ids]) for
                   per_node in (model.inertia, model.damping, model.noise_sigma))
    a_d = np.zeros((2 * n, 2 * n))
    a_d[:n, n:] = np.eye(n)
    a_d[n:, :n] = -reduced_laplacian / m[:, None]
    a_d[n:, n:] = -np.diag(d / m)
    noise = np.zeros(2 * n)
    noise[n:] = sigma / m
    return ContinuousSystem(n_gen=n, a_d=a_d, noise_scale=noise)


def build_discrete(sys: ContinuousSystem, dt: float) -> DiscreteSystem:
    """Forward-Euler one-step map: a = I + dt*a_d, b_diag = noise_scale*sqrt(dt)."""
    if dt <= 0.0:
        raise ValidationError("dt must be positive", field="dt")
    n2 = 2 * sys.n_gen
    a = np.eye(n2) + dt * sys.a_d
    b_diag = sys.noise_scale * np.sqrt(dt)
    return DiscreteSystem(n_gen=sys.n_gen, a=a, b_diag=b_diag, dt=dt)
