"""Command-line driver for the simulate / estimate / analyze pipeline.

Subcommands:
  simulate   generate ambient trajectories of a grid model, one file per seed
  estimate   reconstruct the dynamic state matrix from a trajectory file
  sweep      error tables over an observation-time or sampling-step axis
  eigen      eigenvalue tables and matched spectral distance
  bound      Monte Carlo evaluation of the reconstruction error envelopes
  kron       standalone network reduction to the generator buses

Values come from an INI experiment config (--config) with command-line
flags taking precedence.  Every command is deterministic given its seeds;
manifests record the model hash and parameters for byte-identical reruns.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import os
import shutil
import sys
from contextlib import closing, suppress
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, analysis, io_config, sim
from .estimators import (CML, LASSO, SPARSE_LOW_RANK, TIKHONOV, UML,
                         ConvergenceError, CovariancePair,
                         SingularCovarianceError, covariances, estimate_b,
                         estimate_cml, estimate_lasso, estimate_sparse_low_rank,
                         estimate_tikhonov, estimate_uml, fold_covariances,
                         lasso_kill_threshold, threshold_structure)
from .model import (KronReductionError, ValidationError, build_continuous,
                    build_discrete, build_laplacian, kron_reduce)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


# the ExperimentConfig fields each command takes as flags; its other
# settings come from --config or the defaults
_ESTIMATION_FLAGS = {"model_path", "outputs", "stride", "estimators", "nu",
                     "lam", "eta"}
CONFIG_FLAGS = {
    "simulate": {"model_path", "outputs", "seeds", "t_obs"},
    "estimate": _ESTIMATION_FLAGS,
    "sweep": _ESTIMATION_FLAGS | {"seeds", "t_obs", "sweep_variable",
                                  "sweep_values"},
    "bound": {"model_path", "seeds", "stride", "t_obs"},
}


def _config_from_args(args) -> io_config.ExperimentConfig:
    """The --config file, or the defaults, with every given flag on top.

    Each config flag's argparse dest is its field name, and its text (a
    list flag's words joined) parses like the INI value.
    """
    cfg = (io_config.load_config(args.config) if args.config
           else io_config.ExperimentConfig(model_path=""))
    overrides = {}
    for setting in io_config.SETTINGS:
        value = getattr(args, setting.field, None)
        if value is None:
            continue
        if isinstance(value, list):
            value = " ".join(value)
        overrides[setting.field] = setting.read(value, setting.field)
    return replace(cfg, **overrides)


def _build_systems(model_path: str, dt: float | None = None, *,
                   n_gen: int | None = None):
    """Model file -> (grid, continuous system, forward-Euler system at step dt).

    The discrete system is None without dt.  An empty path, or with n_gen
    given a model with another generator count, is a validation error.
    """
    if not model_path:
        raise ValidationError("a model is required (--config or --model)",
                              field="model_path")
    grid = io_config.load_model(model_path)
    if n_gen is not None and grid.n_gen != n_gen:
        raise ValidationError(
            f"truth model has {grid.n_gen} generators, the data has {n_gen}",
            field="model_path")
    reduced = kron_reduce(build_laplacian(grid), grid.generator_ids)
    cont = build_continuous(grid, reduced)
    return grid, cont, None if dt is None else build_discrete(cont, dt)


def _model_sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _window_samples(t_obs: float, stride: int, field: str = "t_obs") -> int:
    """The states a window of t_obs seconds keeps at every stride-th base
    step: ceil(round(t_obs / DT_BASE) / stride), the rows sim.subsample and
    io_config.load_trajectory keep of a simulate run of t_obs.  A t_obs too
    long to count in base steps is a validation error naming field."""
    try:
        n_base = round(t_obs / sim.DT_BASE)
    except OverflowError:
        raise ValidationError(
            f"{field}: {t_obs!r} s is too long to count in base steps of "
            f"dt_base={sim.DT_BASE!r} s", field=field) from None
    return -(-n_base // stride)


# simulate, sweep and bound refuse runs of more Euler steps than this in all,
# burn-ins counted: a step takes about 0.3-0.5 us in a group of rows and
# 1.4-3 us alone, so the cap is one to eight hours of stepping
MAX_STEP_ROWS = 10**10


def _check_steps(runs: int, steps: int, burn_in: int, field: str) -> None:
    """Refuse runs of `steps` Euler steps each, the first burn_in of them the
    model's burn-in, past MAX_STEP_ROWS in all, naming the model where the
    burn-ins alone pass it and otherwise the field that set the window."""
    words = "Euler steps"
    if runs * burn_in > MAX_STEP_ROWS:
        field, steps, words = "model_path", burn_in, "burn-in steps of the model"
    if runs * steps > MAX_STEP_ROWS:
        raise ValidationError(f"{field}: {runs} run(s) of {steps:.15g} {words}, more "
                              f"than the {MAX_STEP_ROWS} steps in all one command may "
                              "take", field=field)


def _base_run(cont, n_base: int):
    """(system at DT_BASE, burn-in, radius, words) for a run of the model's
    burn-in and n_base states; an unstable step is the model's error."""
    disc, burn_in = build_discrete(cont, sim.DT_BASE), sim.default_burn_in(cont)
    radius, unstable, words = analysis.euler_step(disc, burn_in + n_base - 1)
    if unstable:
        raise ValidationError(f"unstable base step: {words}", field="model_path")
    return disc, burn_in, radius, words


def _non_finite(seed: int, step: str) -> ValidationError:
    return ValidationError(f"seed {seed} gave non-finite states, though {step}: "
                           "the noise is too large for float64", field="model_path")


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported, not warned of
def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    _, cont, _ = _build_systems(cfg.model_path)
    n_samples = _window_samples(cfg.t_obs, 1)
    if n_samples < 2:
        raise ValidationError(
            f"t_obs={cfg.t_obs} s yields {n_samples} samples at "
            f"dt_base={sim.DT_BASE}; need at least 2", field="t_obs")
    disc, burn_in, radius, step = _base_run(cont, n_samples)
    outdir = Path(cfg.outputs)
    new_dirs = [d for d in (outdir, *outdir.parents) if not d.exists()]
    # a window is streamed, not allocated, so one too long for the disk is refused
    # here: a row is 2N + 1 values of 3 or more characters, 2N commas and "\n"
    free = shutil.disk_usage(new_dirs[-1].parent if new_dirs else outdir).free
    if len(cfg.seeds) * n_samples * (8 * disc.n_gen + 4) > free:
        raise ValidationError(f"t_obs={cfg.t_obs!r} s gives {len(cfg.seeds)} file(s) "
                              f"of {n_samples:.15g} rows, more than {free} bytes free "
                              "can hold", field="t_obs")
    _check_steps(len(cfg.seeds), burn_in + n_samples - 1, burn_in, "t_obs")
    # file name -> the temporary file beside it that holds its trajectory
    parts: dict[str, Path] = {}
    try:
        for seed in cfg.seeds:
            try:
                run = sim.steady_run(disc, n_samples, burn_in, seed)
                outdir.mkdir(parents=True, exist_ok=True)
                name = f"traj_seed{seed}.csv"
                part = outdir / f"{name}.{os.getpid()}.tmp"
                # exclusive, so a file already there is never overwritten or deleted
                part.touch(exist_ok=False)
                parts[name] = part
                io_config.save_trajectory(part, run)
            except FloatingPointError:
                raise _non_finite(seed, step) from None
    except BaseException:
        for part in parts.values():
            part.unlink(missing_ok=True)
        for d in new_dirs:  # deepest first; rmdir leaves a nonempty one
            with suppress(OSError):
                d.rmdir()
        raise
    # every seed is finite and written: only now do the files take their names
    for name, part in parts.items():
        part.replace(outdir / name)
    io_config.save_records(outdir / "manifest.csv", {
        "command": "simulate",
        "model": cfg.model_path,
        "model_sha256": _model_sha256(cfg.model_path),
        "dt_base": sim.DT_BASE,
        "step_spectral_radius": radius,
        "t_obs": cfg.t_obs,
        "burn_in": burn_in,
        "n_samples": n_samples,
        "seeds": " ".join(str(s) for s in cfg.seeds),
        "files": " ".join(parts),
        "numpy_version": np.__version__,
        "swingid_version": __version__,
    })
    print(f"wrote {len(parts)} trajectories ({n_samples} samples each) to {outdir}")
    return EXIT_OK


# tag -> fit(cov, cfg, a_prev), one entry per estimators.ESTIMATORS tag
_ESTIMATORS = {
    UML: lambda cov, cfg, a_prev: estimate_uml(cov),
    CML: lambda cov, cfg, a_prev: estimate_cml(cov),
    TIKHONOV: lambda cov, cfg, a_prev: estimate_tikhonov(cov, a_prev, cfg.nu),
    LASSO: lambda cov, cfg, a_prev: estimate_lasso(cov, cfg.lam),
    SPARSE_LOW_RANK: lambda cov, cfg, a_prev: estimate_sparse_low_rank(
        cov, cfg.lam, cfg.eta),
}


def _fit(tag: str, cov: CovariancePair, dt: float,
         cfg: io_config.ExperimentConfig, a_prev: np.ndarray):
    """Run one estimator on data sampled every dt seconds.

    Returns (result, A_hat, continuous A_hat_d, why A_hat is all zero or
    None); A_hat is result.a_hat with its known-zero damping entries
    cleared.
    """
    result = _ESTIMATORS[tag](cov, cfg, a_prev)
    a_hat = threshold_structure(result.a_hat, cov.sigma0.shape[0] // 2)
    zero = None if np.any(a_hat) else (
        f"{tag} fit is all zero: lambda={cfg.lam!r}, this window's "
        f"lasso_kill_threshold={lasso_kill_threshold(cov)!r}")
    return result, a_hat, analysis.to_continuous(a_hat, dt), zero


def _sample_deficit(n_samples: int, n_gen: int) -> str | None:
    """Why n_samples states are too few for an invertible covariance, which
    needs T > 2N+2; None where there are enough."""
    if n_samples > 2 * n_gen + 2:
        return None
    return (f"sample deficit: {n_samples} samples after striding, but the "
            f"covariance is only invertible for T > 2N+2 = {2 * n_gen + 2}")


def cmd_estimate(args) -> int:
    cfg = _config_from_args(args)
    strided = io_config.load_trajectory(args.trajectory, cfg.stride)
    deficit = _sample_deficit(strided.n_samples, strided.n_gen)
    if deficit:
        raise ValidationError(deficit, field="stride")
    a_d_true = (_build_systems(cfg.model_path, n_gen=strided.n_gen)[1].a_d
                if cfg.model_path else None)
    a_prev = (io_config.load_matrix(args.a_prev) if getattr(args, "a_prev", None)
              else np.zeros((2 * strided.n_gen,) * 2))
    cov = covariances(strided)
    cond_sigma0 = float(np.linalg.cond(cov.sigma0))
    # A forked helper may fit every other estimator; the fork stops OpenBLAS's
    # thread pool, which covariances() woke at N = 30 (not on the fixture).
    # Nothing is written before every fit has succeeded.
    with closing(sim.in_order(
            cfg.estimators,
            lambda tag: _fit(tag, cov, strided.dt, cfg, a_prev))) as fitted:
        fits = list(fitted)
    outdir = Path(cfg.outputs)
    outdir.mkdir(parents=True, exist_ok=True)
    for tag, (result, a_hat, a_hat_d, zero) in zip(cfg.estimators, fits):
        if zero:
            print(f"warning: {zero}", file=sys.stderr)
        b_hat = estimate_b(strided, a_hat)
        stem = f"ahat_d_{tag.lower()}"
        io_config.save_matrix(outdir / f"{stem}.csv", a_hat_d,
                              comment=f"continuous dynamic matrix, {tag}")
        io_config.save_matrix(outdir / f"bhat_{tag.lower()}.csv", b_hat,
                              comment=f"noise scale estimate, {tag}")
        meta: dict[str, object] = {
            "estimator": tag,
            "stride": cfg.stride,
            "dt": strided.dt,
            "n_samples": strided.n_samples,
            "objective": result.objective,
            "trajectory": str(args.trajectory),
        }
        for key, value in result.hyperparams.items():
            meta[f"hp_{key}"] = value
        line = f"{tag}: objective={result.objective:.6e}"
        if a_d_true is not None:
            eps = analysis.relative_error(a_hat_d, a_d_true)
            meta["eps"] = eps
            line += f" eps={eps:.6f}"
        meta["cond_sigma0"] = cond_sigma0
        if tag in (LASSO, SPARSE_LOW_RANK):
            meta["kill_threshold"] = lasso_kill_threshold(cov)
        meta["numpy_version"] = np.__version__
        meta["swingid_version"] = __version__
        io_config.save_records(outdir / f"{stem}.meta", meta)
        print(line)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    if cfg.sweep_variable is None:
        raise ValidationError("sweep axis not defined (--axis or [sweep] section)",
                              field="sweep_variable")
    _, cont, _ = _build_systems(cfg.model_path)
    a_d_true = cont.a_d
    values = sorted(cfg.sweep_values)
    # one (t_obs, stride) span per axis value: n samples at stride k, window (k n, k)
    if cfg.sweep_variable == "t_obs":
        spans, field = [(v, cfg.stride) for v in values], "sweep_values"
    else:
        # int(2.5) would run stride 2 under the label 2.5
        if not all(v >= 1 and float(v).is_integer() for v in values):
            raise ValidationError("stride values must be integers >= 1",
                                  field="sweep_values")
        spans, field = [(cfg.t_obs, int(v)) for v in values], "t_obs"
    counts = [(_window_samples(t, k, field), k) for t, k in spans]
    # two values that keep the same samples would run the same cells twice
    for (v0, c0), (v1, c1) in itertools.combinations(zip(values, counts), 2):
        if c0 == c1:
            raise ValidationError(
                f"sweep_values {v0!r} and {v1!r} give the same window of "
                f"{c0[0]} samples at stride {c0[1]}", field="sweep_values")
    deficits = [_sample_deficit(n, cont.n_gen) for n, _ in counts]
    # deficit windows fail without covariances, so only the others are run
    folded = [w for w, deficit in enumerate(deficits) if deficit is None]
    windows = [(k * n, k) for n, k in counts]
    base_samples = max((windows[w][0] for w in folded), default=1)
    disc, burn_in, _, step = _base_run(cont, base_samples)
    _check_steps(len(cfg.seeds), burn_in + base_samples - 1, burn_in, field)
    zeros = np.zeros_like(a_d_true)

    def fit_group(x0, blocks) -> list[list[tuple] | None]:
        """Each seed's cells, (value, tag, eps, why it failed or None), in
        the order they are printed; None for a seed whose states overflow."""
        # every state passes once, folded into the pairs of every window
        pairs = dict(zip(folded, fold_covariances(
            itertools.chain([x0[:, None]], blocks),
            [windows[w] for w in folded])))

        def cell(k: int, w: int, tag: str) -> tuple:
            failed = deficits[w]
            if failed is None:
                try:
                    _, _, a_hat_d, failed = _fit(
                        tag, pairs[w][k], disc.dt * windows[w][1], cfg, zeros)
                except (ValidationError, SingularCovarianceError,
                        ConvergenceError) as exc:
                    failed = str(exc)
            eps = (float("nan") if failed
                   else analysis.relative_error(a_hat_d, a_d_true))
            return values[w], tag, eps, failed

        # a non-finite state makes all later ones, so next_sq_sum, non-finite
        return [[cell(k, w, tag) for w in range(len(windows)) for tag in cfg.estimators]
                if all(math.isfinite(pairs[w][k].next_sq_sum) for w in folded) else None
                for k in range(len(x0))]

    rows: list[tuple[float, str, int, float]] = []
    failures = 0
    # a forked helper, which inherits the error state, may fit every other group
    with np.errstate(over="ignore", invalid="ignore"), closing(sim.steady_blocks(
            disc, cfg.seeds, burn_in, base_samples - 1, fit_group)) as groups:
        for seed, cells in zip(cfg.seeds, itertools.chain.from_iterable(groups),
                               strict=True):
            if cells is None:
                raise _non_finite(seed, step)
            for value, tag, eps, failed in cells:
                if failed is not None:
                    print(f"cell failed (value={value}, {tag}, "
                          f"seed={seed}): {failed}", file=sys.stderr)
                    failures += 1
                rows.append((float(value), tag, seed, eps))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    outdir = Path(cfg.outputs)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "sweep.csv").write_text(io_config.csv_text(
        [("axis_value", "estimator", "seed", "eps"), *rows]))
    mean_table = [("axis_value", "estimator", "mean_eps", "n_seeds")]
    for value in map(float, values):
        for tag in sorted(cfg.estimators):
            cell = [eps for v, t, _, eps in rows
                    if v == value and t == tag and not math.isnan(eps)]
            if cell:
                mean_table.append(
                    (value, tag, math.fsum(cell) / len(cell), len(cell)))
    (outdir / "sweep_mean.csv").write_text(io_config.csv_text(mean_table))
    # every setting but the output directory, so reruns elsewhere match,
    # and the base step after the model path
    settings = cfg.records()
    del settings["outputs"]
    io_config.save_records(outdir / "manifest.csv", {
        "command": "sweep",
        "model": cfg.model_path,
        "model_sha256": _model_sha256(cfg.model_path),
        "axis": cfg.sweep_variable,
        "values": io_config.ini_text(tuple(map(float, values))),
        "model_path": settings.pop("model_path"),
        "dt_base": sim.DT_BASE,
        **settings,
        "burn_in": burn_in,
        "failed_cells": failures,
        "numpy_version": np.__version__,
        "swingid_version": __version__,
    })
    print(f"sweep over {cfg.sweep_variable}: {len(rows)} cells "
          f"({failures} failed) -> {outdir / 'sweep.csv'}")
    return EXIT_OK


def cmd_eigen(args) -> int:
    a_hat_d = io_config.load_matrix(args.matrix)
    if a_hat_d.ndim != 2 or a_hat_d.shape[0] != a_hat_d.shape[1] \
            or a_hat_d.shape[0] % 2 != 0:
        raise ValidationError("matrix must be square with even dimension",
                              field="matrix")
    report = analysis.spectrum(a_hat_d, args.zero_mode_tol)
    rows = [("re", "im", "source")]
    rows += [(ev.real, ev.imag, "estimate") for ev in report.eigenvalues]
    distance = None
    if args.model:
        cont = _build_systems(args.model, n_gen=a_hat_d.shape[0] // 2)[1]
        truth = analysis.spectrum(cont.a_d, args.zero_mode_tol)
    elif args.against:
        other = io_config.load_matrix(args.against)
        if other.shape != a_hat_d.shape:
            raise ValidationError("matrices must have equal shape",
                                  field="against")
        truth = analysis.spectrum(other, args.zero_mode_tol)
    else:
        truth = None
    if truth is not None:
        rows += [(ev.real, ev.imag, "truth") for ev in truth.eigenvalues]
        distance = analysis.spectral_distance(report.eigenvalues,
                                              truth.eigenvalues)
    text = io_config.csv_text(rows)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    crit = " ".join(f"{ev.real:+.6f}{ev.imag:+.6f}j" for ev in report.critical)
    print(f"critical: {crit}")
    if distance is not None:
        print(io_config.csv_text([("spectral_distance", distance)]), end="")
    return EXIT_OK


def cmd_bound(args) -> int:
    cfg = _config_from_args(args)
    if len(cfg.seeds) != 1:
        raise ValidationError(f"seeds must be one seed for bound, got {cfg.seeds}",
                              field="seeds")
    _, cont, disc = _build_systems(cfg.model_path, sim.DT_BASE * cfg.stride)
    n_samples = _window_samples(cfg.t_obs, cfg.stride)
    deficit = _sample_deficit(n_samples, disc.n_gen)
    if deficit:
        raise ValidationError(deficit, field="t_obs")
    seed = cfg.seeds[0]
    # the model's burn-in counts base steps; the bound steps stride of them
    _, base_burn_in, _, _ = _base_run(cont, cfg.stride * n_samples)
    burn_in = -(-base_burn_in // cfg.stride)
    _check_steps(args.trials, burn_in + n_samples - 1, burn_in, "t_obs")
    report = analysis.theorem1_bound(disc, n_samples, args.epsilon,
                                     args.trials, seed, burn_in=burn_in)
    radius, unstable, step = analysis.euler_step(disc, burn_in + n_samples - 1)
    if unstable:
        # stride-k data follow A^k, whose radius is 1, not the Euler step
        # at k * DT_BASE that the trials take
        print(f"warning: {step}", file=sys.stderr)
    records = {
        "model": cfg.model_path,
        "model_sha256": _model_sha256(cfg.model_path),
        "dt": disc.dt,
        "step_spectral_radius": radius,
        "n_samples": n_samples,
        "burn_in": report.burn_in,
        "epsilon": args.epsilon,
        "n_trials": args.trials,
        "n_discarded": report.n_discarded,
        "seed": seed,
        "trace_sigma0_mean": report.trace_sigma0_mean,
        "inv_norm_mean": report.inv_norm_mean,
        "rhs_discrete": report.rhs,
        "rhs_continuous": report.rhs_continuous,
        "numpy_version": np.__version__,
        "swingid_version": __version__,
    }
    if args.out:
        io_config.save_records(args.out, records)
    print(io_config.csv_text((key, records[key])
                             for key in ("rhs_discrete", "rhs_continuous")),
          end="")
    return EXIT_OK


def cmd_kron(args) -> int:
    grid = io_config.load_model(args.model)
    reduced = kron_reduce(build_laplacian(grid), grid.generator_ids)
    comment = ("reduced susceptance Laplacian over generators "
               + " ".join(str(g) for g in grid.generator_ids))
    if args.out:
        io_config.save_matrix(args.out, reduced, comment=comment)
        print(f"wrote {reduced.shape[0]}x{reduced.shape[1]} reduced Laplacian "
              f"to {args.out}")
    else:
        # the rows of --out's file, without its comment line
        print(io_config.csv_text(reduced.tolist()), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swingid",
        description="Simulate ambient swing dynamics and reconstruct the "
                    "dynamic state matrix from sampled trajectories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate trajectories per seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="reconstruct dynamics from a file")
    p_est.add_argument("trajectory", help="trajectory file")
    p_est.add_argument("--a-prev", dest="a_prev",
                       help="matrix file with the quadratic-prior center")
    p_est.set_defaults(func=cmd_estimate)

    p_sweep = sub.add_parser("sweep", help="error tables over an axis")
    p_sweep.set_defaults(func=cmd_sweep)

    p_eig = sub.add_parser("eigen", help="eigenvalue table and spectral distance")
    p_eig.add_argument("matrix", help="continuous dynamic matrix file")
    truth = p_eig.add_mutually_exclusive_group()
    truth.add_argument("--model", help="truth model for paired comparison")
    truth.add_argument("--against", help="second matrix file for comparison")
    p_eig.add_argument("--zero-mode-tol", dest="zero_mode_tol", type=float,
                       help="modulus below which eigenvalues count as the "
                            "structural zero mode")
    p_eig.add_argument("--out", help="output table file (default: stdout)")
    p_eig.set_defaults(func=cmd_eigen)

    p_bound = sub.add_parser("bound", help="error envelopes by Monte Carlo")
    p_bound.add_argument("--epsilon", type=float, default=0.1,
                         help="confidence parameter in (0,1)")
    p_bound.add_argument("--trials", type=int, default=100,
                         help="Monte Carlo replications")
    p_bound.add_argument("--out", help="report file (default: none)")
    p_bound.set_defaults(func=cmd_bound)

    p_kron = sub.add_parser("kron", help="reduce a model to its generator buses")
    p_kron.add_argument("model", help="grid model file")
    p_kron.add_argument("--out", help="output matrix file (default: stdout)")
    p_kron.set_defaults(func=cmd_kron)

    # one flag per SETTINGS row a command takes, read as its INI key is
    for command, names in CONFIG_FLAGS.items():
        sp = sub.choices[command]
        sp.add_argument("--config", help="experiment config (INI)")
        for s in [s for s in io_config.SETTINGS if s.field in names]:
            sp.add_argument(s.flag, dest=s.field, help=f"[{s.section}] {s.key}",
                            **({"nargs": "+"} if s.is_list else {}))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SingularCovarianceError, ConvergenceError, KronReductionError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
