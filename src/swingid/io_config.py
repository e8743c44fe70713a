"""File formats and experiment configuration.

Everything persisted is delimited text: human-inspectable, diff-able and
language-neutral.  Floating point values are serialized with repr(), the
shortest decimal form that parses back to the identical double, so every
write/read round trip is lossless.

Formats:
  model file      sections [nodes] and [lines]; node rows `id,0` (load) or
                  `id,1,M,D,sigma_P` (generator); line rows `i,j,beta[,gamma]`;
                  `#` starts a comment.
  trajectory      header `t,delta_1..delta_N,omega_1..omega_N`, one row per
                  sample, `t` in seconds; dt is inferred from the t column,
                  which must be uniformly spaced.  Rows are formatted and
                  written a block at a time, never the whole file at once.
                  Numbers are read by numpy's text parser, which rounds
                  correctly like float(): decimal or exponent notation with
                  optional sign and surrounding blanks, and nan/inf (both
                  then rejected).  There are no comments, so `#` is an error,
                  as are `_` digit separators and non-ASCII digits.  Blank
                  lines are skipped.  This is also the ingestion path for
                  externally produced PMU-derived state extracts.
  matrix          comma-separated rows, `#` comments allowed.
  key-value       `key,value` lines for metadata sidecars and bound reports.
  experiment      INI file with sections [model], [generation], [estimation],
                  [outputs] and optional [sweep].
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .estimators import (CERTIFICATE_BOUND, CML, COND_THRESHOLD, ESTIMATORS,
                         SOLVER_MAX_ITER, SOLVER_TOL, SOLVER_TOL_MIN, UML)
from .model import GridModel, Line, ValidationError
from .sim import DT_BASE, Trajectory


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------- model files

def save_model(path, model: GridModel) -> None:
    lines = ["# swing grid model", "[nodes]",
             "# id,is_generator,M,D,sigma_P  (loads leave the last three empty)"]
    gens = set(model.generator_ids)
    for node in range(model.n_nodes):
        if node in gens:
            lines.append(f"{node},1,{_fmt(model.inertia[node])},"
                         f"{_fmt(model.damping[node])},"
                         f"{_fmt(model.noise_sigma[node])}")
        else:
            lines.append(f"{node},0,,,")
    lines.append("[lines]")
    lines.append("# i,j,beta[,gamma]")
    for ln in model.lines:
        row = f"{ln.i},{ln.j},{_fmt(ln.beta)}"
        if ln.gamma != 0.0:
            row += f",{_fmt(ln.gamma)}"
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_float(token: str, where: str, fieldname: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValidationError(f"{where}: {fieldname} is not a number: {token!r}",
                              field=fieldname) from None


def _parse_int(token: str, where: str, fieldname: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValidationError(f"{where}: {fieldname} is not an integer: {token!r}",
                              field=fieldname) from None


def load_model(path) -> GridModel:
    """Parse and validate a model file; errors name the line and field."""
    path = Path(path)
    section = None
    node_ids: list[int] = []
    generator_ids: list[int] = []
    inertia: dict[int, float] = {}
    damping: dict[int, float] = {}
    noise_sigma: dict[int, float] = {}
    lines: list[Line] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        where = f"{path}:{lineno}"
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("["):
            if text not in ("[nodes]", "[lines]"):
                raise ValidationError(f"{where}: unknown section {text}",
                                      field="section")
            section = text
            continue
        parts = [p.strip() for p in text.split(",")]
        if section == "[nodes]":
            if len(parts) not in (2, 5):
                raise ValidationError(
                    f"{where}: node row must be id,is_generator,M,D,sigma_P "
                    "(loads may leave the last three empty)", field="nodes")
            node = _parse_int(parts[0], where, "id")
            is_gen = _parse_int(parts[1], where, "is_generator")
            if node in node_ids:
                raise ValidationError(f"{where}: duplicate node id {node}",
                                      field="id")
            node_ids.append(node)
            if is_gen not in (0, 1):
                raise ValidationError(f"{where}: is_generator must be 0 or 1",
                                      field="is_generator")
            if is_gen:
                if len(parts) != 5 or "" in parts[2:]:
                    raise ValidationError(
                        f"{where}: generator row needs M, D and sigma_P",
                        field="nodes")
                generator_ids.append(node)
                inertia[node] = _parse_float(parts[2], where, "M")
                damping[node] = _parse_float(parts[3], where, "D")
                noise_sigma[node] = _parse_float(parts[4], where, "sigma_P")
            elif any(p != "" for p in parts[2:]):
                raise ValidationError(
                    f"{where}: load row must leave M, D, sigma_P empty",
                    field="nodes")
        elif section == "[lines]":
            if len(parts) not in (3, 4):
                raise ValidationError(f"{where}: line row needs `i,j,beta[,gamma]`",
                                      field="lines")
            i = _parse_int(parts[0], where, "i")
            j = _parse_int(parts[1], where, "j")
            beta = _parse_float(parts[2], where, "beta")
            gamma = _parse_float(parts[3], where, "gamma") if len(parts) == 4 else 0.0
            lines.append(Line(i=i, j=j, beta=beta, gamma=gamma))
        else:
            raise ValidationError(f"{where}: data before any section header",
                                  field="section")
    if not node_ids:
        raise ValidationError(f"{path}: no [nodes] section", field="nodes")
    if sorted(node_ids) != list(range(len(node_ids))):
        raise ValidationError(
            f"{path}: node ids must cover 0..{len(node_ids) - 1} exactly",
            field="id")
    return GridModel(n_nodes=len(node_ids), generator_ids=tuple(generator_ids),
                     inertia=inertia, damping=damping, noise_sigma=noise_sigma,
                     lines=tuple(lines))


# ----------------------------------------------------------- trajectory files

# save_trajectory formats and writes this many rows at a time, which bounds
# the text it holds in memory
_ROWS_PER_WRITE = 1024


def _bad_row(path: Path, width: int) -> ValidationError:
    """The error naming the first data line that is ragged or does not parse."""
    lines = path.read_text().splitlines()
    data_lines = [(no, ln) for no, ln in enumerate(lines, start=1) if ln.strip()]
    for lineno, raw in data_lines[1:]:
        n_cols = raw.count(",") + 1
        if n_cols != width:
            return ValidationError(
                f"{path}:{lineno}: expected {width} columns, got {n_cols}",
                field="row")
        try:
            np.loadtxt([raw], delimiter=",", comments=None)
        except ValueError:
            return ValidationError(f"{path}:{lineno}: non-numeric value",
                                   field="row")
    return ValidationError(f"{path}: unreadable data rows", field="row")


def save_trajectory(path, traj: Trajectory) -> None:
    n = traj.n_gen
    header = ["t"] + [f"delta_{i}" for i in range(1, n + 1)] \
        + [f"omega_{i}" for i in range(1, n + 1)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, traj.n_samples, _ROWS_PER_WRITE):
            block = traj.states[start:start + _ROWS_PER_WRITE]
            t = np.arange(start, start + len(block)) * traj.dt
            rows = np.column_stack([t, block]).tolist()
            fh.write("\n".join([",".join(map(repr, row)) for row in rows]) + "\n")


def load_trajectory(path) -> Trajectory:
    """Read a trajectory file; dt comes from the uniformly spaced t column."""
    path = Path(path)
    raw_lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not raw_lines:
        raise ValidationError(f"{path}: empty file", field="trajectory")
    header = [h.strip() for h in raw_lines[0].split(",")]
    if len(header) < 3 or header[0] != "t" or (len(header) - 1) % 2 != 0:
        raise ValidationError(
            f"{path}:1: header must be t,delta_1..delta_N,omega_1..omega_N",
            field="header")
    n = (len(header) - 1) // 2
    expected = ["t"] + [f"delta_{i}" for i in range(1, n + 1)] \
        + [f"omega_{i}" for i in range(1, n + 1)]
    if header != expected:
        raise ValidationError(
            f"{path}:1: header must be t,delta_1..delta_N,omega_1..omega_N, "
            f"got {','.join(header)}", field="header")
    if len(raw_lines) < 3:
        raise ValidationError(
            f"{path}: need at least 2 samples to infer dt", field="t")
    try:
        data = np.loadtxt(raw_lines[1:], delimiter=",", comments=None, ndmin=2)
        if data.shape[1] != len(header):
            raise ValueError("wrong column count")
    except ValueError:
        raise _bad_row(path, len(header)) from None
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{path}: NaN or infinite values", field="row")
    t = data[:, 0]
    dt = t[1] - t[0]
    if dt <= 0.0:
        raise ValidationError(f"{path}: t column must be increasing", field="t")
    gaps = np.diff(t)
    if np.max(np.abs(gaps - dt)) > 1e-9 * max(dt, np.max(np.abs(t))):
        raise ValidationError(f"{path}: t column is not uniformly spaced",
                              field="t")
    return Trajectory(dt=float(dt), states=data[:, 1:].copy(), n_gen=n)


# --------------------------------------------------------- matrices / records

def save_matrix(path, matrix: np.ndarray, comment: str | None = None) -> None:
    rows = []
    if comment:
        rows.extend(f"# {line}" for line in comment.splitlines())
    for row in np.atleast_2d(matrix):
        rows.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(rows) + "\n")


def load_matrix(path) -> np.ndarray:
    path = Path(path)
    rows = []
    width = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise ValidationError(f"{path}:{lineno}: ragged row", field="row")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: non-numeric value",
                                  field="row") from None
    if not rows:
        raise ValidationError(f"{path}: no data rows", field="matrix")
    return np.array(rows)


def save_records(path, records: dict[str, object]) -> None:
    """key,value lines; values stringified, floats via repr for round trips."""
    rows = []
    for key, value in records.items():
        if isinstance(value, float):
            rows.append(f"{key},{_fmt(value)}")
        else:
            rows.append(f"{key},{value}")
    Path(path).write_text("\n".join(rows) + "\n")


def load_records(path) -> dict[str, str]:
    path = Path(path)
    out: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "," not in text:
            raise ValidationError(f"{path}:{lineno}: expected key,value",
                                  field="row")
        key, value = text.split(",", 1)
        out[key.strip()] = value.strip()
    return out


# ----------------------------------------------------------- experiment config

VALID_ESTIMATORS = ESTIMATORS
VALID_SWEEP_VARIABLES = ("stride", "t_obs")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a simulate/estimate/sweep run."""

    model_path: str
    dt_base: float = DT_BASE
    t_obs: float = 600.0
    burn_in: int | None = None  # None selects the stationarity default
    seeds: tuple[int, ...] = (1,)
    stride: int = 3
    estimators: tuple[str, ...] = (UML, CML)
    threshold: bool = True
    nu: float = 0.0
    lam: float = 0.0
    eta: float = 0.0
    cond_threshold: float = COND_THRESHOLD
    # stopping tolerance on the solvers' optimality certificate, relative to
    # the gradient scale max(lambda, 2(T-1) max|Sigma_1|, 1)
    solver_tol: float = SOLVER_TOL
    solver_max_iter: int = SOLVER_MAX_ITER
    outputs: str = "out"
    sweep_variable: str | None = None
    sweep_values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.dt_base <= 0.0:
            raise ValidationError("dt_base must be positive", field="dt_base")
        if self.t_obs <= 0.0:
            raise ValidationError("t_obs must be positive", field="t_obs")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValidationError("burn_in must be nonnegative", field="burn_in")
        if not self.seeds:
            raise ValidationError("seeds must be non-empty", field="seeds")
        if self.stride < 1:
            raise ValidationError("stride must be at least 1", field="stride")
        for est in self.estimators:
            if est not in VALID_ESTIMATORS:
                raise ValidationError(f"unknown estimator {est!r}",
                                      field="estimators")
        if not self.estimators:
            raise ValidationError("estimators must be non-empty",
                                  field="estimators")
        for name, key, value in (("nu", "nu", self.nu),
                                 ("lambda", "lam", self.lam),
                                 ("eta", "eta", self.eta)):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValidationError(
                    f"{name} must be finite and nonnegative, got {value!r}",
                    field=key)
        # cond(Sigma_0) >= 1 always; a NaN limit would pass every matrix
        if not (math.isfinite(self.cond_threshold) and self.cond_threshold >= 1.0):
            raise ValidationError(
                f"cond_threshold must be finite and at least 1, "
                f"got {self.cond_threshold!r}", field="cond_threshold")
        if not SOLVER_TOL_MIN <= self.solver_tol <= CERTIFICATE_BOUND:
            raise ValidationError(
                f"solver_tol must be in [{SOLVER_TOL_MIN!r}, "
                f"{CERTIFICATE_BOUND!r}], got {self.solver_tol!r}",
                field="solver_tol")
        if self.solver_max_iter < 1:
            raise ValidationError(
                f"solver_max_iter must be at least 1, got {self.solver_max_iter}",
                field="solver_max_iter")
        if self.sweep_variable is not None:
            if self.sweep_variable not in VALID_SWEEP_VARIABLES:
                raise ValidationError(
                    f"sweep variable must be one of {VALID_SWEEP_VARIABLES}",
                    field="sweep_variable")
            if not self.sweep_values:
                raise ValidationError("sweep values must be non-empty",
                                      field="sweep_values")


def _setting(path: Path, section: str, key: str, raw: str, parse,
             fieldname: str | None = None):
    """parse(raw) for one config value; a bad value names file, key and field."""
    try:
        return parse(raw.strip())
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise ValidationError(f"{path}: [{section}] {key} is not {kind}: {raw!r}",
                              field=fieldname or key) from None


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        # duplicate keys or sections, lines outside any section
        raise ValidationError(f"{path}: {exc}", field="config") from None
    if not read:
        raise ValidationError(f"{path}: cannot read config file", field="config")
    try:
        model_path = parser.get("model", "path")
    except (configparser.NoSectionError, configparser.NoOptionError):
        raise ValidationError(f"{path}: missing [model] path",
                              field="model_path") from None
    kwargs: dict[str, object] = {"model_path": model_path}
    gen = parser["generation"] if parser.has_section("generation") else {}
    if "dt_base" in gen:
        kwargs["dt_base"] = _setting(path, "generation", "dt_base",
                                     gen["dt_base"], float)
    if "t_obs" in gen:
        kwargs["t_obs"] = _setting(path, "generation", "t_obs", gen["t_obs"],
                                   float)
    if "burn_in" in gen:
        raw = gen["burn_in"]
        kwargs["burn_in"] = (None if raw.strip() == "auto" else
                             _setting(path, "generation", "burn_in", raw, int))
    if "seeds" in gen:
        kwargs["seeds"] = tuple(_setting(path, "generation", "seeds", s, int)
                                for s in gen["seeds"].replace(",", " ").split())
    est = parser["estimation"] if parser.has_section("estimation") else {}
    if "stride" in est:
        kwargs["stride"] = _setting(path, "estimation", "stride", est["stride"],
                                    int)
    if "estimators" in est:
        kwargs["estimators"] = tuple(est["estimators"].replace(",", " ").split())
    if "threshold" in est:
        kwargs["threshold"] = est["threshold"].strip().lower() in ("1", "true", "yes")
    if "nu" in est:
        kwargs["nu"] = _setting(path, "estimation", "nu", est["nu"], float)
    if "lambda" in est:
        kwargs["lam"] = _setting(path, "estimation", "lambda", est["lambda"],
                                 float, "lam")
    if "eta" in est:
        kwargs["eta"] = _setting(path, "estimation", "eta", est["eta"], float)
    if "cond_threshold" in est:
        kwargs["cond_threshold"] = _setting(path, "estimation", "cond_threshold",
                                            est["cond_threshold"], float)
    if "solver_tol" in est:
        kwargs["solver_tol"] = _setting(path, "estimation", "solver_tol",
                                        est["solver_tol"], float)
    if "solver_max_iter" in est:
        kwargs["solver_max_iter"] = _setting(path, "estimation", "solver_max_iter",
                                             est["solver_max_iter"], int)
    if parser.has_section("outputs") and "dir" in parser["outputs"]:
        kwargs["outputs"] = parser["outputs"]["dir"]
    if parser.has_section("sweep"):
        sweep = parser["sweep"]
        if "variable" in sweep:
            kwargs["sweep_variable"] = sweep["variable"].strip()
        if "values" in sweep:
            kwargs["sweep_values"] = tuple(
                _setting(path, "sweep", "values", v, float, "sweep_values")
                for v in sweep["values"].replace(",", " ").split())
    try:
        return ExperimentConfig(**kwargs)  # type: ignore[arg-type]
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}", field=exc.field) from None


def save_config(path, config: ExperimentConfig) -> None:
    parser = configparser.ConfigParser()
    parser["model"] = {"path": config.model_path}
    parser["generation"] = {
        "dt_base": _fmt(config.dt_base),
        "t_obs": _fmt(config.t_obs),
        "burn_in": "auto" if config.burn_in is None else str(config.burn_in),
        "seeds": " ".join(str(s) for s in config.seeds),
    }
    parser["estimation"] = {
        "stride": str(config.stride),
        "estimators": " ".join(config.estimators),
        "threshold": "true" if config.threshold else "false",
        "nu": _fmt(config.nu),
        "lambda": _fmt(config.lam),
        "eta": _fmt(config.eta),
        "cond_threshold": _fmt(config.cond_threshold),
        "solver_tol": _fmt(config.solver_tol),
        "solver_max_iter": str(config.solver_max_iter),
    }
    parser["outputs"] = {"dir": config.outputs}
    if config.sweep_variable is not None:
        parser["sweep"] = {
            "variable": config.sweep_variable,
            "values": " ".join(_fmt(v) for v in config.sweep_values),
        }
    with open(path, "w") as fh:
        parser.write(fh)
