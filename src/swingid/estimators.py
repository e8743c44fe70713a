"""Reconstruction of the one-step matrix A and noise scale B from data.

All estimators minimize (variants of) the least-squares objective

    J(A) = sum_t ||X_{t+1} - A X_t||^2,

which depends on the data only through the empirical covariances
Sigma_1 = (1/(T-1)) sum_t X_{t+1} X_t^T, Sigma_0 = (1/(T-1)) sum_t X_t X_t^T
and the constant sum_t ||X_{t+1}||^2.  The unrestricted minimizer is the
maximum-likelihood estimate A_hat = Sigma_1 Sigma_0^{-1}; the variants add
a support constraint (CML), a quadratic prior (Tikhonov), an entrywise l1
penalty (LASSO) or an l1 + nuclear-norm split (sparse plus low rank).

Every estimator except estimate_b therefore takes a CovariancePair, which
a caller builds once per data window and shares across estimators:
`covariances(traj)` for a trajectory in memory, or `fold_covariances` for
states that arrive in chunks, several strided windows at once.  estimate_b
needs the per-row residuals and takes the trajectory.

Penalties multiply the raw sum-over-t objective, so hyperparameters must
be re-tuned when T changes.

Everything here is a deterministic, thread-safe function of its inputs.
The row-separable solvers are written as whole-matrix operations: the
closed forms take one solve per distinct row support and LASSO steps all
rows at once, so the result is independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .sim import STEP_CHUNK, Trajectory

UML = "UML"
CML = "CML"
TIKHONOV = "TIKHONOV"
LASSO = "LASSO"
SPARSE_LOW_RANK = "SPARSE_LOW_RANK"
ESTIMATORS = (UML, CML, TIKHONOV, LASSO, SPARSE_LOW_RANK)

# fixed limits, read at call time: Sigma_0 condition numbers above
# COND_THRESHOLD raise instead of silently pseudo-inverting; the iterative
# solvers stop at an optimality certificate of SOLVER_TOL relative to the
# gradient scale, and fail after SOLVER_MAX_ITER proximal steps (rejected
# steps included)
COND_THRESHOLD = 1e12
SOLVER_TOL = 1e-6
SOLVER_MAX_ITER = 100_000


class SingularCovarianceError(ValueError):
    """Sigma_0 (or a restricted block of it) is singular or near-singular."""


class ConvergenceError(RuntimeError):
    """Iterative solver failed; carries iteration diagnostics."""

    def __init__(self, message: str, iterations: int, objective: float,
                 gap: float):
        super().__init__(
            f"{message} (iterations={iterations}, objective={objective:.6e}, "
            f"gap={gap:.3e})")
        self.iterations = iterations
        self.objective = objective
        self.gap = gap


@dataclass(frozen=True)
class CovariancePair:
    """Empirical covariances with and without one-step displacement.

    next_sq_sum carries sum_t ||X_{t+1}||^2 so the exact least-squares
    objective can be evaluated from the pair alone.
    """

    sigma0: np.ndarray
    sigma1: np.ndarray
    n_samples: int
    next_sq_sum: float

    def __post_init__(self):
        if self.sigma0.shape != self.sigma1.shape or self.sigma0.ndim != 2:
            raise ValueError("sigma0 and sigma1 must be square matrices of equal shape")
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples")


@dataclass(frozen=True)
class EstimationResult:
    a_hat: np.ndarray
    estimator: str
    hyperparams: dict[str, float] = field(default_factory=dict)
    objective: float = 0.0
    l_hat: np.ndarray | None = None
    objective_history: tuple[float, ...] | None = None


def covariances(traj: Trajectory) -> CovariancePair:
    """Sigma_1, Sigma_0 and the residual-objective constant, divisor T-1,
    folded STEP_CHUNK rows at a time as sweep folds its runs."""
    if traj.n_samples < 2:
        raise ValueError("trajectory must have at least 2 samples")
    return fold_covariances(traj.blocks(STEP_CHUNK), [(traj.n_samples, 1)])[0][0]


def fold_covariances(chunks, windows) -> list[list[CovariancePair]]:
    """Covariance pairs of strided windows, folded one chunk at a time.

    chunks yields (..., m, 2N) arrays, contiguous or any strided views (the
    layout moves no bit), that continue one another along the m axis: together
    they hold the states X_0, X_1, ... of every sequence on the leading axes.
    Window (n_keep, stride) keeps X_0, X_stride, X_2stride, ... below
    X_{n_keep}, as `subsample` of the first n_keep states does.  Returns
    result[w][k], the pair of window w for the k-th sequence in C order of the
    leading axes; every window must keep at least 2 states.  Each chunk is
    folded and dropped, a window's last kept state carrying into the next, so
    memory does not grow with the windows.  Windows that hold one fold and keep
    the same rows of a chunk share one product of those rows: windows of one
    stride share until the shorter one ends, so a set of t_obs windows costs
    about as much as its longest, each keeping the bits of a fold of it alone.
    The bits depend on where chunks split: at N = 10 the products of
    STEP_CHUNK-row chunks stay under OpenBLAS's threading threshold, and
    at 2N = 20 to 240 their bits were measured the same on 1 and 2 threads.
    """
    windows = list(windows)
    # per window: the running sums of X_t X_t^T, X_{t+1} X_t^T and
    # ||X_{t+1}||^2, the last state kept so far and the number kept
    folds = [(None, None, 0)] * len(windows)
    offset = 0
    for chunk in chunks:
        # `held` keeps this chunk's starting folds alive, so that their ids
        # name one fold each; equal ranges keep the same rows
        held, shared = list(folds), {}
        for w, ((n_keep, stride), fold) in enumerate(zip(windows, held)):
            rows = range(-offset % stride,
                         min(max(n_keep - offset, 0), chunk.shape[-2]), stride)
            if not rows:
                continue
            key = id(fold), rows
            if key not in shared:
                sums, last, count = fold
                kept = chunk[..., rows.start:rows.stop:rows.step, :]
                shared[key] = (_fold(sums, last, kept),
                               kept[..., -1, :].copy(), count + len(rows))
            folds[w] = shared[key]
        offset += chunk.shape[-2]
    pairs = []
    for window, (sums, _, count) in zip(windows, folds):
        if count < 2:
            raise ValueError(f"window {window} keeps {count} states, "
                             "need at least 2")
        gram0, gram1, sq = sums
        tm1 = count - 1
        sigma0 = gram0 / tm1
        sigma0 = (sigma0 + sigma0.swapaxes(-1, -2)) / 2.0
        sigma1 = gram1 / tm1
        pairs.append([CovariancePair(sigma0=sigma0[k], sigma1=sigma1[k],
                                     n_samples=count, next_sq_sum=float(sq[k]))
                      for k in np.ndindex(sq.shape)])
    return pairs


def _fold(sums: list | None, last: np.ndarray | None, kept: np.ndarray) -> list:
    """sums plus the products of consecutive kept states, `last` before them.
    np.sum adds in memory order, so the squares are formed in C order."""
    if last is not None:
        kept = np.concatenate([last[..., None, :], kept], axis=-2)
    x0, x1 = kept[..., :-1, :], kept[..., 1:, :]
    part = [np.matmul(x0.swapaxes(-1, -2), x0),
            np.matmul(x1.swapaxes(-1, -2), x0),
            np.sum(np.multiply(x1, x1, order="C"), axis=(-2, -1))]
    return part if sums is None else [a + b for a, b in zip(sums, part)]


def ls_objective(cov: CovariancePair, a: np.ndarray) -> float:
    """sum_t ||X_{t+1} - A X_t||^2 evaluated through the covariances."""
    tm1 = cov.n_samples - 1
    return float(cov.next_sq_sum
                 - 2.0 * tm1 * np.sum(a * cov.sigma1)
                 + tm1 * np.sum((a @ cov.sigma0) * a))


def _check_penalty(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def _support(n2: int) -> np.ndarray:
    """Free entries of A in the swing model, as a boolean mask.

    The state is (angles, speeds) with n2 = 2N; an odd n2 raises ValueError.
    The lower-right N x N block of the true one-step matrix is the diagonal
    I - dt M^-1 D, so its off-diagonal entries are known zeros.
    """
    if n2 % 2:
        raise ValueError(f"the swing model needs an even state dimension 2N, got {n2}")
    mask = np.ones((n2, n2), dtype=bool)
    mask[n2 // 2:, n2 // 2:] = np.eye(n2 // 2, dtype=bool)
    return mask


def _closed_form(cov: CovariancePair, support: np.ndarray, nu: float = 0.0,
                 a_prev: np.ndarray | None = None) -> np.ndarray:
    """Exact minimizer of J(A) + nu ||A - A_prev||_F^2 with A zero off `support`.

    Rows with equal support S share one solve of A[rows, S] lhs[S, S] =
    rhs[rows, S], lhs = Sigma_0 + (nu/(T-1)) I, rhs = Sigma_1 + (nu/(T-1)) A_prev.
    A block with condition number above COND_THRESHOLD, or a restricted
    gradient above 1e-8 max(1, max|rhs|), raises SingularCovarianceError.
    """
    n2 = cov.sigma0.shape[0]
    tm1 = cov.n_samples - 1
    lhs = cov.sigma0 + (nu / tm1) * np.eye(n2)
    rhs = cov.sigma1 if a_prev is None else cov.sigma1 + (nu / tm1) * a_prev
    a_hat = np.zeros((n2, n2))
    # one solve per distinct row support (np.unique(axis=0) is slower than UML)
    for cols in {row.tobytes(): row for row in support}.values():
        block = lhs[np.ix_(cols, cols)]
        cond = np.linalg.cond(block)
        if not np.isfinite(cond) or cond > COND_THRESHOLD:
            why = (f"need T > 2N+2 = {n2 + 2} samples (have T={cov.n_samples})"
                   if cov.n_samples <= n2 + 2 else
                   f"the regressors are collinear over T={cov.n_samples} samples")
            raise SingularCovarianceError(
                f"sigma0 is singular or ill-conditioned (cond={cond:.3e}), "
                f"restricted regressor rank-deficient; {why}")
        # A lhs = rhs transposed into a standard left-hand solve
        cells = np.ix_(np.all(support == cols, axis=1), cols)
        a_hat[cells] = np.linalg.solve(block.T, rhs[cells].T).T
    gap = float(np.max(np.abs(a_hat @ lhs - rhs), where=support, initial=0.0))
    if not gap <= 1e-8 * max(1.0, float(np.max(np.abs(rhs)))):
        raise SingularCovarianceError(
            f"normal equations left a residual gradient {gap:.3e}; "
            "restricted regressor is numerically rank-deficient")
    return a_hat


def estimate_uml(cov: CovariancePair) -> EstimationResult:
    """Unrestricted maximum likelihood: A_hat = Sigma_1 Sigma_0^{-1}."""
    a_hat = _closed_form(cov, np.ones(cov.sigma0.shape, dtype=bool))
    return EstimationResult(a_hat=a_hat, estimator=UML,
                            objective=ls_objective(cov, a_hat))


def estimate_cml(cov: CovariancePair) -> EstimationResult:
    """Least squares restricted to a diagonal lower-right N x N block.

    N is half the dimension of Sigma_0; an odd dimension raises ValueError.
    """
    a_hat = _closed_form(cov, _support(cov.sigma0.shape[0]))
    return EstimationResult(a_hat=a_hat, estimator=CML,
                            objective=ls_objective(cov, a_hat))


def estimate_tikhonov(cov: CovariancePair, a_prev: np.ndarray,
                      nu: float) -> EstimationResult:
    """Exact minimizer of J(A) + nu ||A - A_prev||_F^2.

    Closed form (Sigma_1 + (nu/(T-1)) A_prev)(Sigma_0 + (nu/(T-1)) I)^{-1}.
    At nu = 0 this is UML.  COND_THRESHOLD applies to the regularised
    matrix Sigma_0 + (nu/(T-1)) I, so a ridge rescues a short window.
    """
    _check_penalty("nu", nu)
    n2 = cov.sigma0.shape[0]
    if a_prev.shape != (n2, n2):
        raise ValueError(f"a_prev must be {n2}x{n2}, got {a_prev.shape}")
    if not np.all(np.isfinite(a_prev)):
        raise ValueError("a_prev has non-finite entries")
    a_hat = _closed_form(cov, np.ones((n2, n2), dtype=bool), nu, a_prev)
    obj = ls_objective(cov, a_hat) + nu * float(np.sum((a_hat - a_prev) ** 2))
    return EstimationResult(a_hat=a_hat, estimator=TIKHONOV,
                            hyperparams={"nu": nu}, objective=obj)


def soft_threshold(x: np.ndarray, threshold: float,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Entrywise shrink toward zero: sign(x) * max(|x| - threshold, 0)."""
    return np.multiply(np.sign(x), np.maximum(np.abs(x) - threshold, 0.0),
                       out=out)


def singular_value_threshold(x: np.ndarray, threshold: float) -> np.ndarray:
    """Soft-threshold the singular values; prox of the nuclear norm."""
    return _svt_factors(x, threshold)[0]


def _svt_factors(x: np.ndarray, threshold: float,
                 out: np.ndarray | None = None):
    """Singular-value soft-threshold, also returning the factors (U, s, V^T)."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    s = np.maximum(s - threshold, 0.0)
    return np.matmul(u * s, vt, out=out), (u, s, vt)


def lasso_kill_threshold(cov: CovariancePair) -> float:
    """Smallest lambda at which the zero matrix is l1-optimal."""
    return 2.0 * (cov.n_samples - 1) * float(np.max(np.abs(cov.sigma1)))


def _ls_gradient(cov: CovariancePair, a: np.ndarray) -> np.ndarray:
    return 2.0 * (cov.n_samples - 1) * (a @ cov.sigma0 - cov.sigma1)


def _l1_gap(a: np.ndarray, grad: np.ndarray, lam: float) -> float:
    at_zero = np.maximum(np.abs(grad) - lam, 0.0)
    at_nonzero = np.abs(grad + lam * np.sign(a))
    return float(np.where(a == 0.0, at_zero, at_nonzero).max())


def _nuclear_gap(factors, grad: np.ndarray, eta: float) -> float:
    """Nuclear-norm certificate at the square matrix L = U diag(s) V^T.

    Optimality needs -G = eta (U_r V_r^T + W), with r the number of
    nonzero s, W orthogonal to the row and column spaces of L and
    ||W||_2 <= 1.
    """
    u, s, vt = factors
    rank = int(np.count_nonzero(s))
    u_r, v_r = u[:, :rank], vt[:rank].T
    resid = -grad - eta * (u_r @ v_r.T)
    on_space = max(float(np.max(np.abs(u_r.T @ resid), initial=0.0)),
                   float(np.max(np.abs(resid @ v_r), initial=0.0)))
    off_block = u[:, rank:].T @ grad @ vt[rank:].T
    off_space = 0.0
    if off_block.size:
        # spectral norm from the top eigenvalue of B^T B: one small eigvalsh
        # instead of a second SVD per iteration
        top = float(np.linalg.eigvalsh(off_block.T @ off_block)[-1])
        off_space = math.sqrt(max(top, 0.0)) - eta
    return max(on_space, off_space, 0.0)


def l1_optimality_gap(cov: CovariancePair, a: np.ndarray, lam: float) -> float:
    """Worst violation of the l1 subgradient conditions at A.

    Zero entries need |grad J| <= lambda, nonzero entries need
    grad J = -lambda sign(A); returns the largest excess over either.
    """
    return _l1_gap(a, _ls_gradient(cov, a), lam)


def slr_optimality_gap(cov: CovariancePair, a: np.ndarray, low: np.ndarray,
                       lam: float, eta: float) -> float:
    """Worst violation of the optimality conditions of the sparse + low-rank fit.

    Both blocks see the same gradient G = grad J(A+L).  A must meet the l1
    conditions of l1_optimality_gap with G.  With L = U_r S V_r^T, -G must
    be eta (U_r V_r^T + W) with W orthogonal to the row and column spaces
    of L and ||W||_2 <= 1: the residual R = -G - eta U_r V_r^T must vanish
    on those spaces (largest entry of U_r^T R and R V_r), and off them the
    spectral norm of G may not exceed eta.  Singular values of L below
    n * eps * sigma_max(L) count as zero.  Returns the worst violation.
    """
    grad = _ls_gradient(cov, a + low)
    u, s, vt = np.linalg.svd(low)
    s = np.where(s > s[0] * max(low.shape) * np.finfo(float).eps, s, 0.0)
    return float(np.max([_l1_gap(a, grad, lam), _nuclear_gap((u, s, vt), grad, eta)]))


class _Block(NamedTuple):
    """One additive block X_k of the variable and its penalty w_k R_k(X_k).

    prox(V, t, out=None) returns (X_k, aux), X_k written into out if
    given; norm(aux) is R_k(X_k) and
    gap(aux, G, w_k) the block's optimality certificate at gradient G.
    aux is X_k itself for the l1 block and the SVD factors of X_k for the
    nuclear block, so each step takes one SVD.
    """

    weight: float
    prox: Callable[[np.ndarray, float], tuple[np.ndarray, object]]
    norm: Callable[[object], float]
    gap: Callable[[object, np.ndarray, float], float]


def _l1_block(lam: float) -> _Block:
    return _Block(lam, lambda v, t, out=None: (soft_threshold(v, t, out),) * 2,
                  lambda a: float(np.abs(a).sum()), _l1_gap)


def _nuclear_block(eta: float) -> _Block:
    return _Block(eta, _svt_factors, lambda f: float(f[1].sum()), _nuclear_gap)


def _accelerated_prox_grad(cov: CovariancePair, blocks: tuple[_Block, ...],
                           scale: float, name: str):
    """Minimize J(X_1 + ... + X_k) + sum_k w_k R_k(X_k) from all X_k = 0.

    Monotone FISTA (Beck & Teboulle 2009) with function-value restart
    (O'Donoghue & Candes 2015): a step that would raise the objective is
    rejected and the momentum restarts from the last accepted point, so
    the objective history is monotone.  Acceptance compares the exact
    objective difference between the two points; the objective, sum and
    penalty of the accepted point are carried forward.  The gradient of the
    smooth part in (X_1..X_k) is k 2(T-1) lambda_max(Sigma_0)-Lipschitz,
    which fixes the step.  Stops once every block certificate at an accepted
    point is at most SOLVER_TOL * scale, checked in order up to the first
    that fails (a NaN fails), so the nuclear-norm one runs only where the l1
    one passes.  Raises ConvergenceError after SOLVER_MAX_ITER proximal steps.

    Returns (blocks stacked on axis 0, iterations, gap, objective, history);
    iterations counts every proximal step, rejected ones included.  The gap,
    returned or raised, is the full certificate: the worst block's value.
    """
    n2, tm1 = cov.sigma0.shape[0], cov.n_samples - 1
    two_tm1 = 2.0 * tm1
    lip = two_tm1 * float(np.linalg.eigvalsh(cov.sigma0)[-1])
    # lip = 0 only when every regressor X_t is zero; then G(0) = 0 and X = 0
    # is certified before any step
    step = 1.0 / (len(blocks) * lip) if lip > 0.0 else 0.0
    # what every step would otherwise recompute: the same bits, once
    sigma0, sigma1, two_sigma1 = cov.sigma0, cov.sigma1, 2.0 * cov.sigma1
    tol = SOLVER_TOL * scale
    thresholds = [step * b.weight for b in blocks]

    def gradient(a):
        # _ls_gradient, bit for bit
        return two_tm1 * (a @ sigma0 - sigma1)

    def certificate(aux, grad, full=False):
        # gaps in block order up to the first that fails, or all; np.max keeps NaN
        gaps = []
        for b, aux_k in zip(blocks, aux):
            gaps.append(b.gap(aux_k, grad, b.weight))
            if not (full or gaps[-1] <= tol):
                break
        return float(np.max(gaps))

    def penalty(aux):
        return sum(b.weight * b.norm(aux_k) for b, aux_k in zip(blocks, aux))

    x = np.zeros((len(blocks), n2, n2))
    # a zero-threshold prox of the zero start yields its aux
    aux = [b.prox(x_k, 0.0)[1] for b, x_k in zip(blocks, x)]
    x_sum, pen = x.sum(axis=0), penalty(aux)
    gap = certificate(aux, gradient(x_sum))
    obj = ls_objective(cov, x_sum)
    history = [obj]
    x_prev, theta, it = x, 1.0, 0
    # negated comparisons so that a NaN gap or objective never passes
    while not gap <= tol:
        if it == SOLVER_MAX_ITER:
            gap = certificate(aux, gradient(x_sum), full=True)
            raise ConvergenceError(f"{name} did not reach its certificate",
                                   iterations=it, objective=obj, gap=gap)
        it += 1
        theta_next = (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        y = x + ((theta - 1.0) / theta_next) * (x - x_prev)
        v = y - step * gradient(y.sum(axis=0))
        z = np.empty_like(x)
        new_aux = [b.prox(v_k, t, z_k)[1]
                   for b, v_k, t, z_k in zip(blocks, v, thresholds, z)]
        # J(Z) - J(X) = (T-1) <Z - X, (Z + X) Sigma_0 - 2 Sigma_1> leaves
        # out sum ||X_{t+1}||^2, whose rounding in J itself hides the last
        # decreases and would reject every step near the minimizer
        z_sum, z_pen = z.sum(axis=0), penalty(new_aux)
        change = tm1 * float(
            ((z_sum - x_sum) * ((z_sum + x_sum) @ sigma0 - two_sigma1)).sum())
        change += z_pen - pen
        if not change <= 0.0:
            x_prev, theta = x, 1.0
            continue
        x_prev, x, x_sum, pen, theta, aux = x, z, z_sum, z_pen, theta_next, new_aux
        obj += change
        history.append(obj)
        gap = certificate(aux, gradient(x_sum))
    return x, it, gap, obj, tuple(history)


def _certificate_scale(cov: CovariancePair, lam: float) -> float:
    return max(lam, lasso_kill_threshold(cov), 1.0)


def estimate_lasso(cov: CovariancePair, lam: float) -> EstimationResult:
    """Minimize J(A) + lambda ||A||_1 by accelerated proximal gradient from A = 0.

    FISTA with function-value restart and step 1/(2(T-1) lambda_max(Sigma_0));
    the prox is the entrywise soft-threshold.  Stops when the l1
    subgradient certificate (l1_optimality_gap) falls to SOLVER_TOL times the
    gradient scale max(lambda, 2(T-1) max|Sigma_1|, 1), and raises
    ConvergenceError if that takes more than SOLVER_MAX_ITER proximal steps.
    """
    _check_penalty("lambda", lam)
    x, it, gap, obj, history = _accelerated_prox_grad(
        cov, (_l1_block(lam),), _certificate_scale(cov, lam), "LASSO")
    return EstimationResult(a_hat=x[0], estimator=LASSO,
                            hyperparams={"lambda": lam, "iterations": it,
                                         "optimality_gap": gap},
                            objective=obj, objective_history=history)


def estimate_sparse_low_rank(cov: CovariancePair, lam: float,
                             eta: float) -> EstimationResult:
    """Minimize J(A+L) + lambda ||A||_1 + eta ||L||_* by accelerated proximal gradient.

    Joint FISTA steps in (A, L) from zero with function-value restart: the
    prox soft-thresholds A entrywise and L's singular values, and the step
    is 1/(4(T-1) lambda_max(Sigma_0)) because the gradient of J(A+L) in
    (A, L) is twice as Lipschitz as in A+L.  Stops when the joint l1 and
    nuclear-norm certificate (slr_optimality_gap) falls to SOLVER_TOL times the
    gradient scale max(lambda, 2(T-1) max|Sigma_1|, 1), and raises
    ConvergenceError if that takes more than SOLVER_MAX_ITER proximal steps.
    """
    _check_penalty("lambda", lam)
    _check_penalty("eta", eta)
    x, it, gap, obj, history = _accelerated_prox_grad(
        cov, (_l1_block(lam), _nuclear_block(eta)),
        _certificate_scale(cov, lam), "sparse-plus-low-rank")
    return EstimationResult(a_hat=x[0], estimator=SPARSE_LOW_RANK,
                            hyperparams={"lambda": lam, "eta": eta,
                                         "iterations": it,
                                         "optimality_gap": gap},
                            objective=obj, l_hat=x[1],
                            objective_history=history)


def estimate_b(traj: Trajectory, a_hat: np.ndarray) -> np.ndarray:
    """Per-row residual scale sqrt((1/(T-1)) sum_t (X_{t+1} - A_hat X_t)_i^2).

    Maximizes the per-row Gaussian likelihood in the noise scale with
    A_hat fixed.  Rows 0..N-1 carry no process noise, so on simulated
    data fitted by least squares they come back at roundoff level.
    """
    n2 = 2 * traj.n_gen
    if a_hat.shape != (n2, n2):
        raise ValueError(f"a_hat must be {n2}x{n2}, got {a_hat.shape}")
    if traj.n_samples < 2:
        raise ValueError("trajectory must have at least 2 samples")
    # covariances' STEP_CHUNK-row chunks, summed in row order as one pass; the last
    # reaches back to a full chunk, as OpenBLAS rounds a few rows differently
    total, tm1 = np.zeros(n2), traj.n_samples - 1
    for i in range(0, tm1, STEP_CHUNK):
        x = traj.states[max(min(i, tm1 - STEP_CHUNK), 0):i + STEP_CHUNK + 1]
        sq = np.square(x[1:] - x[:-1] @ a_hat.T)[-min(STEP_CHUNK, tm1 - i):]
        sq[0] += total
        total = sq.sum(axis=0)
    return np.sqrt(total / tm1)


def threshold_structure(a_hat: np.ndarray, n_gen: int) -> np.ndarray:
    """Zero the swing model's known zeros, the lower-right off-diagonal entries."""
    n2 = 2 * n_gen
    if a_hat.shape != (n2, n2):
        raise ValueError(f"a_hat must be {n2}x{n2}, got {a_hat.shape}")
    # np.where writes +0.0; multiplying by the mask would leave -0.0
    return np.where(_support(n2), a_hat, 0.0)
