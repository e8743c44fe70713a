"""File formats and experiment configuration.

Everything persisted is delimited text: human-inspectable, diff-able and
language-neutral.  csv_text writes it all but trajectory rows, every float,
numpy's included, as repr() of the double: the shortest decimal form that
parses back to the identical double, so every round trip is lossless.

Formats:
  model file      sections [nodes] and [lines]; node rows `id,0` (load) or
                  `id,1,M,D,sigma_P` (generator); line rows `i,j,beta[,gamma]`;
                  `#` starts a comment.
  trajectory      header `t,delta_1..delta_N,omega_1..omega_N`, one row per
                  sample, `t` in seconds; dt is inferred from the t column,
                  which must be uniformly spaced.  Rows are formatted and
                  written, and read back, a block of _ROWS_PER_BLOCK rows at a
                  time, never the whole file at once, and a sim.steady_run is
                  stepped as it is written (`simulate` never holds a
                  window).  The caller steps or reads every block and alone
                  writes the file.  Where os.fork exists, two CPUs are
                  usable and the data span more than one block, it sends
                  blocks 1, 3, 5, ... to the forked helper of sim.in_order,
                  which only formats, or parses, them and streams each
                  result back, in order.  Bytes, bits and error messages
                  are those of the serial path, which runs the same
                  per-block routine: csv_text's format, minus its per-cell
                  type test (+30% on 36,001 x 21 values).
                  A read with stride k keeps rows 0, k, 2k, ... and the t
                  column.  The caller holds the kept states, 8 bytes a row
                  for t, two blocks, one of the helper's results and, at
                  the end, one copy of the kept states; the helper one
                  block and its result.
                  Numbers are read by numpy's text parser, which rounds
                  correctly like float(): decimal or exponent notation with
                  optional sign and surrounding blanks, and nan/inf (both
                  then rejected).  There are no comments, so `#` is an error,
                  as are `_` digit separators, non-ASCII digits and bytes
                  that are not UTF-8.  Blank lines are skipped.  This is also
                  the ingestion path for PMU-derived state extracts.
  matrix          comma-separated rows, `#` comments allowed.
  key-value       `key,value` lines for metadata sidecars and bound reports.
  table           a header row, then comma-separated rows (sweep.csv,
                  sweep_mean.csv, eigen); also eigen, bound and kron stdout.
  experiment      INI file with sections [model], [generation], [estimation],
                  [outputs] and optional [sweep]; SETTINGS lists every key
                  and its command-line flag, and any other section or key
                  is an error.
"""

from __future__ import annotations

import configparser
import math
from contextlib import closing
from dataclasses import MISSING, dataclass, fields
from functools import partial
from itertools import chain, count, islice
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .estimators import CML, ESTIMATORS, UML
from .model import GridModel, Line, ValidationError
from .sim import SteadyRun, Trajectory, in_order


def _cell(x) -> str:
    """A float, numpy's included, as repr of the double; anything else, str."""
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def csv_text(rows, comment: str | None = None) -> str:
    """`# ` comment lines, then one comma-joined line per row of cells."""
    lines = [f"# {line}" for line in comment.splitlines()] if comment else []
    lines += [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- model files

def save_model(path, model: GridModel) -> None:
    rows = [["[nodes]"],
            ["# id,is_generator,M,D,sigma_P  (loads leave the last three empty)"]]
    gens = set(model.generator_ids)
    for node in range(model.n_nodes):
        rows.append([node, 1, float(model.inertia[node]),
                     float(model.damping[node]), float(model.noise_sigma[node])]
                    if node in gens else [node, 0, "", "", ""])
    rows += [["[lines]"], ["# i,j,beta[,gamma]"]]
    for ln in model.lines:
        rows.append([ln.i, ln.j, float(ln.beta)]
                    + ([float(ln.gamma)] if ln.gamma != 0.0 else []))
    Path(path).write_text(csv_text(rows, comment="swing grid model"))


def _data_lines(path: Path):
    """(`path:lineno`, text) for each line of a `#`-commented text file, the
    comment stripped; lines left blank are skipped."""
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield f"{path}:{lineno}", text


def _read(parse, text: str, where: str, fieldname: str):
    """parse(text); a failure names `where` and says what the text is not."""
    try:
        return parse(text)
    except ValueError:
        raise ValidationError(f"{where} is not {_KINDS[parse]}: {text!r}",
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
    for where, text in _data_lines(path):
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
            node = _read(int, parts[0], f"{where}: id", "id")
            is_gen = _read(int, parts[1], f"{where}: is_generator", "is_generator")
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
                inertia[node] = _read(float, parts[2], f"{where}: M", "M")
                damping[node] = _read(float, parts[3], f"{where}: D", "D")
                noise_sigma[node] = _read(float, parts[4], f"{where}: sigma_P",
                                          "sigma_P")
            elif any(p != "" for p in parts[2:]):
                raise ValidationError(
                    f"{where}: load row must leave M, D, sigma_P empty",
                    field="nodes")
        elif section == "[lines]":
            if len(parts) not in (3, 4):
                raise ValidationError(f"{where}: line row needs `i,j,beta[,gamma]`",
                                      field="lines")
            i = _read(int, parts[0], f"{where}: i", "i")
            j = _read(int, parts[1], f"{where}: j", "j")
            beta = _read(float, parts[2], f"{where}: beta", "beta")
            gamma = (_read(float, parts[3], f"{where}: gamma", "gamma")
                     if len(parts) == 4 else 0.0)
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

# save_trajectory formats and writes, and load_trajectory parses, this many
# rows at a time, which bounds the text either holds in memory
_ROWS_PER_BLOCK = 1024


def _bad_row(path: Path, width: int, start: int) -> ValidationError:
    """The error naming the first data line, from data row `start` on, that
    is ragged or does not parse."""
    with open(path, errors="surrogateescape") as fh:
        data_lines = ((no, ln) for no, ln in enumerate(fh, start=1)
                      if ln.strip())
        for lineno, raw in islice(data_lines, 1 + start, None):
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


def _trajectory_header(n: int) -> list[str]:
    return ["t"] + [f"delta_{i}" for i in range(1, n + 1)] \
        + [f"omega_{i}" for i in range(1, n + 1)]


def _format_rows(dt: float, block: np.ndarray, start: int) -> str:
    """Data rows start, start + 1, ... holding block's states, as file text."""
    t = np.arange(start, start + len(block)) * dt
    rows = np.column_stack([t, block]).tolist()
    # csv_text's cells for tolist()'s floats, without its 30% slower type test
    return "\n".join([",".join(map(repr, row)) for row in rows]) + "\n"


def save_trajectory(path, traj: Trajectory | SteadyRun) -> None:
    """traj's header, then its states block by block (a steady_run's as stepped)."""
    with open(path, "w") as fh:
        fh.write(",".join(_trajectory_header(traj.n_gen)) + "\n")
        with closing(in_order(
                zip(traj.blocks(_ROWS_PER_BLOCK), count(0, _ROWS_PER_BLOCK)),
                lambda job: _format_rows(traj.dt, *job))) as texts:
            fh.writelines(texts)


def _parse_rows(width: int, stride: int, job: tuple[int, list[str]]):
    """Block i's t column, its states at rows 0, stride, 2*stride, ... of
    the file, and whether all its values are finite; None if a row is
    ragged or does not parse."""
    i, lines = job
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if data.shape[1] != width:
        return None
    # copies, so that no view keeps the block alive
    first_kept = -i * _ROWS_PER_BLOCK % stride
    return (data[:, 0].copy(), data[first_kept::stride, 1:].copy(),
            bool(np.all(np.isfinite(data))))


def load_trajectory(path, stride: int = 1) -> Trajectory:
    """Read a trajectory file, keeping samples 0, stride, 2*stride, ...

    dt comes from the uniformly spaced t column.  The result equals
    `subsample(load_trajectory(path), stride)` bit for bit, but only the kept
    states, the t column and one block of rows are ever held.
    """
    if stride < 1:
        raise ValueError("stride must be at least 1")
    path = Path(path)
    times: list[np.ndarray] = []
    kept: list[np.ndarray] = []
    finite = True
    with open(path, errors="surrogateescape") as fh:
        lines = filter(str.strip, fh)  # blank lines are skipped
        header = [h.strip() for h in next(lines, "").split(",")]
        if header == [""]:
            raise ValidationError(f"{path}: empty file", field="trajectory")
        n = (len(header) - 1) // 2
        if n < 1 or header != _trajectory_header(n):
            raise ValidationError(
                f"{path}:1: header must be t,delta_1..delta_N,omega_1..omega_N, "
                f"got {','.join(header)}", field="header")
        ahead = list(islice(lines, 2))
        if len(ahead) < 2:
            raise ValidationError(
                f"{path}: need at least 2 samples to infer dt", field="t")
        lines = chain(ahead, lines)
        blocks = iter(lambda: list(islice(lines, _ROWS_PER_BLOCK)), [])
        parse = partial(_parse_rows, len(header), stride)
        with closing(in_order(enumerate(blocks), parse)) as parsed:
            for i, block in enumerate(parsed):
                if block is None:
                    raise _bad_row(path, len(header), i * _ROWS_PER_BLOCK)
                block_t, block_kept, block_finite = block
                # reported once every row has parsed, as a bad row comes first
                finite = finite and block_finite
                times.append(block_t)
                kept.append(block_kept)
    if not finite:
        raise ValidationError(f"{path}: NaN or infinite values", field="row")
    t = np.concatenate(times)
    dt = t[1] - t[0]
    if dt <= 0.0:
        raise ValidationError(f"{path}: t column must be increasing", field="t")
    # a t read back from repr lies within half a unit in the last place of
    # max|t| of its grid point, so a gap misses dt by at most two units; the
    # dt term admits t rounded to a millionth of dt
    tol = 4.0 * np.spacing(np.max(np.abs(t))) + 1e-6 * dt
    if np.max(np.abs(np.diff(t) - dt)) > tol:
        raise ValidationError(f"{path}: t column is not uniformly spaced",
                              field="t")
    # dt scales with the stride as in subsample
    return Trajectory(dt=float(dt) * stride, states=np.concatenate(kept),
                      n_gen=n)


# --------------------------------------------------------- matrices / records

def save_matrix(path, matrix: np.ndarray, comment: str | None = None) -> None:
    rows = np.atleast_2d(np.asarray(matrix, dtype=float)).tolist()
    Path(path).write_text(csv_text(rows, comment))


def load_matrix(path) -> np.ndarray:
    path = Path(path)
    rows = []
    width = None
    for where, text in _data_lines(path):
        parts = text.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise ValidationError(f"{where}: ragged row", field="row")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ValidationError(f"{where}: non-numeric value",
                                  field="row") from None
    if not rows:
        raise ValidationError(f"{path}: no data rows", field="matrix")
    return np.array(rows)


def save_records(path, records: dict[str, object]) -> None:
    """key,value lines, written by csv_text."""
    Path(path).write_text(csv_text(records.items()))


def load_records(path) -> dict[str, str]:
    path = Path(path)
    out: dict[str, str] = {}
    for where, text in _data_lines(path):
        if "," not in text:
            raise ValidationError(f"{where}: expected key,value", field="row")
        key, value = text.split(",", 1)
        out[key.strip()] = value.strip()
    return out


# ----------------------------------------------------------- experiment config

VALID_SWEEP_VARIABLES = ("stride", "t_obs")


def _words(text: str) -> tuple[str, ...]:
    return tuple(text.replace(",", " ").split())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(w) for w in _words(text))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(w) for w in _words(text))


# what each parser reads, for the message when it fails
_KINDS = {float: "a number", int: "an integer", _ints: "a list of integers",
          _floats: "a list of numbers"}


def _positive(value) -> bool:
    return math.isfinite(value) and value > 0.0


def _nonnegative(value) -> bool:
    return math.isfinite(value) and value >= 0.0


def _distinct(values: tuple) -> bool:
    return len(set(values)) == len(values)


class Setting(NamedTuple):
    """One ExperimentConfig field: where it sits in the INI file, its
    command-line flag, how its text parses, and the rule its value must
    meet (None: any value)."""

    section: str
    key: str
    flag: str
    field: str
    parse: Callable[[str], object]
    rule: Callable[[object], bool] | None
    message: str | None  # the rule in words, raised when it fails

    @property
    def is_list(self) -> bool:
        """Whether the text is a list, its entries split by spaces or commas."""
        return self.parse in (_ints, _floats, _words)

    def read(self, text: str, where: str):
        """parse(text); a failure names `where` and the field."""
        return _read(self.parse, text, where, self.field)


# one row per ExperimentConfig field, in field order
SETTINGS = (
    Setting("model", "path", "--model", "model_path", str, None, None),
    Setting("generation", "t_obs", "--t-obs", "t_obs", float, _positive,
            "t_obs must be finite and positive"),
    Setting("generation", "seeds", "--seed", "seeds", _ints,
            lambda v: bool(v) and min(v) >= 0 and _distinct(v),
            "seeds must be a non-empty list of nonnegative integers, "
            "without repeats"),
    Setting("estimation", "stride", "--stride", "stride", int,
            lambda v: v >= 1, "stride must be at least 1"),
    Setting("estimation", "estimators", "--estimator", "estimators", _words,
            lambda v: bool(v) and set(v) <= set(ESTIMATORS) and _distinct(v),
            f"estimators must be a non-empty list from {' '.join(ESTIMATORS)}, "
            "without repeats"),
    Setting("estimation", "nu", "--nu", "nu", float, _nonnegative,
            "nu must be finite and nonnegative"),
    Setting("estimation", "lambda", "--lambda", "lam", float, _nonnegative,
            "lambda must be finite and nonnegative"),
    Setting("estimation", "eta", "--eta", "eta", float, _nonnegative,
            "eta must be finite and nonnegative"),
    Setting("outputs", "dir", "--out", "outputs", str, None, None),
    Setting("sweep", "variable", "--axis", "sweep_variable", str,
            lambda v: v is None or v in VALID_SWEEP_VARIABLES,
            f"sweep_variable must be one of {' '.join(VALID_SWEEP_VARIABLES)}"),
    Setting("sweep", "values", "--values", "sweep_values", _floats,
            lambda v: all(map(_positive, v)) and _distinct(v),
            "sweep_values must be finite and positive, without repeats"),
)


def ini_text(value) -> str:
    """A setting as INI text: csv_text's cells, a tuple's space-separated."""
    if isinstance(value, tuple):
        return " ".join(map(ini_text, value))
    return _cell(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a simulate/estimate/sweep run."""

    model_path: str
    t_obs: float = 600.0
    seeds: tuple[int, ...] = (1,)
    stride: int = 3
    estimators: tuple[str, ...] = (UML, CML)
    nu: float = 0.0
    lam: float = 0.0
    eta: float = 0.0
    outputs: str = "out"
    sweep_variable: str | None = None
    sweep_values: tuple[float, ...] = ()

    def __post_init__(self):
        for setting in SETTINGS:
            value = getattr(self, setting.field)
            if setting.rule is not None and not setting.rule(value):
                raise ValidationError(f"{setting.message}, got {value!r}",
                                      field=setting.field)
        if self.sweep_variable is not None and not self.sweep_values:
            raise ValidationError("sweep values must be non-empty",
                                  field="sweep_values")

    def records(self) -> dict[str, str]:
        """Every setting by field name, written as in the INI file."""
        return {s.field: ini_text(getattr(self, s.field)) for s in SETTINGS}


# fields without a default, which every config file must set
_REQUIRED = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}


def load_config(path) -> ExperimentConfig:
    """Parse an INI experiment config; every section and key must be known."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        # duplicate keys or sections, lines outside any section
        raise ValidationError(f"{path}: {exc}", field="config") from None
    if not read:
        raise ValidationError(f"{path}: cannot read config file", field="config")
    settings = {(s.section, s.key): s for s in SETTINGS}
    kwargs: dict[str, object] = {}
    # DEFAULT comes first, so a key there fails before a section inherits it
    for section in parser:
        for key, text in parser[section].items():
            where = f"{path}: [{section}] {key}"
            if (section, key) not in settings:
                raise ValidationError(f"{where} is not a known setting",
                                      field="config")
            setting = settings[section, key]
            kwargs[setting.field] = setting.read(text, where)
    for s in SETTINGS:
        if s.field in _REQUIRED and s.field not in kwargs:
            raise ValidationError(f"{path}: missing [{s.section}] {s.key}",
                                  field=s.field)
    try:
        return ExperimentConfig(**kwargs)  # type: ignore[arg-type]
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}", field=exc.field) from None


def save_config(path, config: ExperimentConfig) -> None:
    """Write every set value; None and () are left out and load as defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    for s in SETTINGS:
        value = getattr(config, s.field)
        if value is not None and value != ():
            parser.read_dict({s.section: {s.key: ini_text(value)}})
    with open(path, "w") as fh:
        parser.write(fh)
