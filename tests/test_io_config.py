from __future__ import annotations

import configparser
import os
import pickle
import re
import signal
import sys
import threading
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swingid import io_config, sim
from swingid.io_config import (_ROWS_PER_BLOCK, SETTINGS, ExperimentConfig,
                               csv_text, load_config, load_matrix, load_model,
                               load_records, load_trajectory, save_config,
                               save_matrix, save_model, save_records,
                               save_trajectory)
from swingid.model import ValidationError
from swingid.sim import (DT_BASE, Trajectory, simulate, steady_trajectory,
                         subsample)

from conftest import (REPO_ROOT, assert_reaped, path3_model, serially,
                      systems_for, two_gen_model)


# ------------------------------------------------------------------ model files

MINIMAL_MODEL = """\
# two generators joined by one line
[nodes]
0,1,1.0,1.0,0.01
1,1,2.0,0.5,0.02
[lines]
0,1,3.5
"""


def test_load_minimal_model(tmp_path):
    path = tmp_path / "m.grid"
    path.write_text(MINIMAL_MODEL)
    model = load_model(path)
    assert model.n_nodes == 2
    assert model.generator_ids == (0, 1)
    assert len(model.lines) == 1
    assert model.lines[0].beta == 3.5
    assert model.inertia == {0: 1.0, 1: 2.0}


def test_model_roundtrip(tmp_path, fixture_model_path):
    model = load_model(fixture_model_path)
    out = tmp_path / "copy.grid"
    save_model(out, model)
    assert load_model(out) == model


def test_load_model_negative_beta(tmp_path):
    path = tmp_path / "m.grid"
    path.write_text(MINIMAL_MODEL.replace("0,1,3.5", "0,1,-1.0"))
    with pytest.raises(ValidationError, match="beta must be positive"):
        load_model(path)


def test_load_model_duplicate_line(tmp_path):
    path = tmp_path / "m.grid"
    path.write_text(MINIMAL_MODEL + "1,0,2.0\n")
    with pytest.raises(ValidationError, match="duplicate line"):
        load_model(path)


def test_load_model_parse_error_names_location(tmp_path):
    path = tmp_path / "m.grid"
    path.write_text("[nodes]\n0,1,abc,1.0,0.0\n")
    with pytest.raises(ValidationError, match=r"m\.grid:2.*M") as excinfo:
        load_model(path)
    assert excinfo.value.field == "M"


def test_load_model_rejects_load_with_parameters(tmp_path):
    path = tmp_path / "m.grid"
    path.write_text("[nodes]\n0,1,1.0,1.0,0.0\n1,0,2.0,,\n[lines]\n0,1,1.0\n")
    with pytest.raises(ValidationError, match="leave M, D, sigma_P empty"):
        load_model(path)


def test_load_model_rejects_gapped_node_ids(tmp_path):
    path = tmp_path / "m.grid"
    path.write_text("[nodes]\n0,1,1.0,1.0,0.0\n5,1,1.0,1.0,0.0\n[lines]\n0,5,1.0\n")
    with pytest.raises(ValidationError, match="node ids must cover"):
        load_model(path)


@pytest.mark.parametrize("text,lineno,message,field", [
    ("[nodes]\n0,1,1.0,1.0,0.01\n[buses]\n", 3, "unknown section [buses]",
     "section"),
    ("[nodes]\n0,1,1.0,1.0\n", 2, "node row must be id,is_generator,M,D,"
     "sigma_P (loads may leave the last three empty)", "nodes"),
    ("[nodes]\n0,1,1.0,1.0,0.01\n0,0\n", 3, "duplicate node id 0", "id"),
    ("[nodes]\n0,2,1.0,1.0,0.01\n", 2, "is_generator must be 0 or 1",
     "is_generator"),
    ("[nodes]\n0,1\n", 2, "generator row needs M, D and sigma_P", "nodes"),
    ("[nodes]\n0,1,1.0,,0.01\n", 2, "generator row needs M, D and sigma_P",
     "nodes"),
    ("[nodes]\n0,1,1.0,1.0,0.01\n[lines]\n0,1\n", 4,
     "line row needs `i,j,beta[,gamma]`", "lines"),
    ("[nodes]\n0,1,1.0,1.0,0.01\n[lines]\n0,x,1.0\n", 4,
     "j is not an integer: 'x'", "j"),
    ("[nodes]\n0,1,1.0,1.0,0.01\n[lines]\n0,1,1.0,y\n", 4,
     "gamma is not a number: 'y'", "gamma"),
    ("# a model\n0,1,1.0,1.0,0.01\n", 2, "data before any section header",
     "section"),
])
def test_load_model_error_names_its_line_and_field(tmp_path, text, lineno,
                                                   message, field):
    path = tmp_path / "m.grid"
    path.write_text(text)
    with pytest.raises(ValidationError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}:{lineno}: {message}"
    assert exc.value.field == field


@pytest.mark.parametrize("text", ["", "# only a comment\n\n", "[lines]\n"])
def test_load_model_without_nodes_is_an_error(tmp_path, text):
    path = tmp_path / "m.grid"
    path.write_text(text)
    with pytest.raises(ValidationError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: no [nodes] section"
    assert exc.value.field == "nodes"


def test_load_model_accepts_short_load_rows_and_comments(tmp_path):
    path = tmp_path / "m.grid"
    path.write_text("# comment\n[nodes]\n0,1,1.0,1.0,0.0  # gen\n1,0\n"
                    "[lines]\n0,1,2.0,0.5\n")
    model = load_model(path)
    assert model.generator_ids == (0,)
    assert model.lines[0].gamma == 0.5


# ------------------------------------------------------------- trajectory files

def test_trajectory_roundtrip_bit_exact(tmp_path):
    _, disc = systems_for(two_gen_model(sigma=(0.02, 0.05)), DT_BASE)
    traj = simulate(disc, 100, np.zeros(4), seed=3)
    path = tmp_path / "traj.csv"
    save_trajectory(path, traj)
    back = load_trajectory(path)
    assert back.dt == traj.dt
    assert back.n_gen == traj.n_gen
    assert np.array_equal(back.states, traj.states)


def reference_trajectory_text(traj: Trajectory) -> str:
    """The trajectory file as the row-at-a-time writer produced it."""
    n = traj.n_gen
    rows = [",".join(["t"] + [f"delta_{i}" for i in range(1, n + 1)]
                     + [f"omega_{i}" for i in range(1, n + 1)])]
    for t in range(traj.n_samples):
        rows.append(",".join([repr(float(t * traj.dt))]
                             + [repr(float(v)) for v in traj.states[t]]))
    return "\n".join(rows) + "\n"


def reference_trajectory_rows(text: str) -> np.ndarray:
    """Parse data rows one float() at a time, as the row-at-a-time reader did."""
    return np.array([[float(p) for p in line.split(",")]
                     for line in text.splitlines()[1:]])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@pytest.mark.parametrize("model", ["fixture", "path3"])
@pytest.mark.parametrize("n_samples", [
    2, _ROWS_PER_BLOCK - 1, _ROWS_PER_BLOCK, _ROWS_PER_BLOCK + 1,
    2 * _ROWS_PER_BLOCK + 1])
def test_trajectory_bytes_match_row_at_a_time_writer(tmp_path, fixture_systems,
                                                     model, n_samples):
    disc = (fixture_systems[1] if model == "fixture"
            else systems_for(path3_model(), 3 * DT_BASE)[1])
    traj = steady_trajectory(disc, n_samples, 50, seed=n_samples)
    path = tmp_path / "traj.csv"
    save_trajectory(path, traj)
    text = reference_trajectory_text(traj)
    assert path.read_bytes() == text.encode()
    back = load_trajectory(path)
    expected = reference_trajectory_rows(text)
    assert same_bits(back.states, expected[:, 1:])
    assert same_bits(back.dt, expected[1, 0] - expected[0, 0])


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            2.225073858507201e-308, 1.7e308, -1.7e308,
            1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0,
            2.0 ** 53, 1e16, 0.1, 1 / 3]
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_SPECIAL),
                    st.integers(-2 ** 53, 2 ** 53).map(float))


@st.composite
def trajectories(draw):
    n_gen = draw(st.integers(1, 3))
    n_samples = draw(st.integers(2, 6))
    values = draw(st.lists(_FINITE, min_size=2 * n_gen * n_samples,
                           max_size=2 * n_gen * n_samples))
    dt = draw(st.one_of(st.sampled_from([DT_BASE, 3 * DT_BASE, 0.05, 1.0]),
                        st.floats(min_value=1e-6, max_value=1e3)))
    states = np.array(values).reshape(n_samples, 2 * n_gen)
    return Trajectory(dt=dt, states=states, n_gen=n_gen)


@given(trajectories())
@settings(max_examples=200, deadline=None)
def test_trajectory_roundtrip_keeps_every_bit(tmp_path_factory, traj):
    # compared as integers, since array_equal treats -0.0 and 0.0 as equal
    path = tmp_path_factory.mktemp("traj") / "traj.csv"
    save_trajectory(path, traj)
    back = load_trajectory(path)
    assert same_bits(back.states, traj.states)
    assert back.dt == traj.dt
    assert back.n_gen == traj.n_gen


def write_lines(tmp_path, *lines):
    path = tmp_path / "traj.csv"
    # a lone surrogate such as "\udcff" writes the byte 0xff, not UTF-8
    path.write_text("\n".join(("t,delta_1,omega_1",) + lines) + "\n",
                    encoding="utf-8", errors="surrogateescape")
    return path


def test_trajectory_whitespace_only_line_skipped(tmp_path):
    path = write_lines(tmp_path, "0.0,0.1,0.2", " \t ", "0.05,0.3,0.4",
                       "0.1,0.5,0.6")
    traj = load_trajectory(path)
    assert same_bits(traj.states, [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])


@pytest.mark.parametrize("lines,lineno,message", [
    (["0.0,0.1,0.2", "0.05,0.3,0.4", "0.1,0.5,0.6", "0.15,0.7"], 5,
     "expected 3 columns, got 2"),
    (["0.0,0.1,0.2", "", "0.05,0.3,0.4", "0.1,0.5,0.6", "0.15,0.7,0.8,0.9"], 6,
     "expected 3 columns, got 4"),
    (["0.0,0.1,0.2", "0.05,abc,0.4", "0.1,0.5,0.6"], 3, "non-numeric value"),
    (["0.0,0.1,0.2", "0.05,0.3,0.4 # note", "0.1,0.5,0.6"], 3,
     "non-numeric value"),
    (["0.0,0.1,0.2", "# a comment line", "0.1,0.5,0.6"], 3,
     "expected 3 columns, got 1"),
    (["0.0,0.1,0.2", "0.05,0.3,0.4", "0.1,1_0,0.6"], 4, "non-numeric value"),
    (["0.0,0.1,0.2", "0.05,0.3,", "0.1,0.5,0.6"], 3, "non-numeric value"),
    (["0.0,0.1,0.2", "0.05,0.\udcff3,0.4", "0.1,0.5,0.6"], 3,
     "non-numeric value"),
])
def test_trajectory_bad_row_names_its_line(tmp_path, lines, lineno, message):
    path = write_lines(tmp_path, *lines)
    with pytest.raises(ValidationError) as exc:
        load_trajectory(path)
    assert exc.value.field == "row"
    assert f"{path}:{lineno}: {message}" in str(exc.value)


def test_trajectory_missing_columns(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,delta_1,omega_1\n0.0,1.0,2.0\n0.5,1.0,2.0\n0.75,1.0\n")
    with pytest.raises(ValidationError, match="columns"):
        load_trajectory(path)


def test_trajectory_bad_header(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,delta_1,delta_2\n0.0,1.0,2.0\n0.5,1.0,2.0\n")
    with pytest.raises(ValidationError, match="header"):
        load_trajectory(path)


@pytest.mark.parametrize("text", ["", "\n \t\n\n"])
def test_trajectory_empty_file_rejected(tmp_path, text):
    path = tmp_path / "traj.csv"
    path.write_text(text)
    with pytest.raises(ValidationError) as exc:
        load_trajectory(path)
    assert str(exc.value) == f"{path}: empty file"
    assert exc.value.field == "trajectory"


@pytest.mark.parametrize("times", [(0.0, 0.0, 0.0), (0.5, 0.25, 0.0)])
def test_trajectory_t_that_does_not_increase_rejected(tmp_path, times):
    path = tmp_path / "traj.csv"
    path.write_text("t,delta_1,omega_1\n"
                    + "".join(f"{t!r},0.1,0.2\n" for t in times))
    with pytest.raises(ValidationError) as exc:
        load_trajectory(path)
    assert str(exc.value) == f"{path}: t column must be increasing"
    assert exc.value.field == "t"


@pytest.mark.parametrize("n_samples", [3, _ROWS_PER_BLOCK + 5])
def test_trajectory_whose_rows_all_have_another_width_names_the_first(
        tmp_path, n_samples):
    # every row of the first block parses, but to 5 columns, not 3
    path = tmp_path / "traj.csv"
    path.write_text("t,delta_1,omega_1\n\n"
                    + "".join(f"{k / 4!r},0.1,0.2,0.3,0.4\n"
                              for k in range(n_samples)))
    with pytest.raises(ValidationError) as exc:
        load_trajectory(path)
    assert str(exc.value) == f"{path}:3: expected 3 columns, got 5"
    assert exc.value.field == "row"


def test_trajectory_external_two_sample_file(tmp_path):
    path = tmp_path / "pmu.csv"
    path.write_text("t,delta_1,omega_1\n0.0,0.1,0.2\n0.05,0.3,0.4\n")
    traj = load_trajectory(path)
    assert traj.n_samples == 2
    assert traj.dt == pytest.approx(0.05)
    assert np.array_equal(traj.states, [[0.1, 0.2], [0.3, 0.4]])


def test_trajectory_single_sample_rejected(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,delta_1,omega_1\n0.0,0.1,0.2\n")
    with pytest.raises(ValidationError, match="at least 2 samples"):
        load_trajectory(path)


def test_trajectory_nan_rejected(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,delta_1,omega_1\n0.0,0.1,nan\n0.05,0.3,0.4\n")
    with pytest.raises(ValidationError, match="NaN"):
        load_trajectory(path)


def test_trajectory_nonuniform_spacing_rejected(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,delta_1,omega_1\n0.0,0.1,0.2\n0.05,0.3,0.4\n0.2,0.5,0.6\n")
    with pytest.raises(ValidationError, match="uniformly spaced"):
        load_trajectory(path)



@pytest.mark.parametrize("t0", [0.0, 1e4, 1e6, 1.7e9])
def test_trajectory_spacing_check_sees_a_dropped_sample(tmp_path, t0):
    # at epoch times a tolerance relative to max|t| (1.7 s) exceeded dt
    times = [t0 + k / 30 for k in range(201)]

    def load(rows):
        path = tmp_path / "pmu.csv"
        path.write_text("t,delta_1,omega_1\n"
                        + "".join(f"{t!r},0.1,0.2\n" for t in rows))
        return load_trajectory(path)

    assert load(times[:200]).dt == times[1] - times[0]
    with pytest.raises(ValidationError, match="uniformly spaced"):
        load(times[:100] + times[101:])


def states_file(path, n_samples, n_gen=3, blank_around=()):
    """A trajectory file of random states; blank and whitespace-only lines
    go before and after each data row index in `blank_around`."""
    rng = np.random.default_rng(n_samples)
    save_trajectory(path, Trajectory(dt=DT_BASE, n_gen=n_gen, states=rng.
                                     standard_normal((n_samples, 2 * n_gen))))
    lines = path.read_text().splitlines(keepends=True)
    for row in sorted(blank_around, reverse=True):
        lines[row + 2:row + 2] = [" \t \n"]
        lines[row + 1:row + 1] = ["\n", "  \n"]
    path.write_text("".join(lines))
    return path


_B = _ROWS_PER_BLOCK


@pytest.mark.parametrize("n_samples", [2, _B - 1, _B, _B + 1, 2 * _B,
                                       2 * _B + 1, 3 * _B + 2])
def test_strided_read_equals_subsample_of_full_read(tmp_path, n_samples):
    path = states_file(tmp_path / "traj.csv", n_samples)
    full = load_trajectory(path)
    for stride in (1, 2, 3, 7, _B - 1, _B + 1):
        ref = subsample(full, stride)
        got = load_trajectory(path, stride)
        assert same_bits(got.states, ref.states)
        assert same_bits(got.dt, ref.dt)
        assert got.n_gen == ref.n_gen
        assert got.states.flags.c_contiguous


def test_strided_read_skips_blank_lines_across_block_boundaries(tmp_path):
    n_samples = 3 * _B + 2
    clean = states_file(tmp_path / "clean.csv", n_samples)
    blanks = states_file(tmp_path / "blanks.csv", n_samples, blank_around=(
        0, _B - 2, _B - 1, _B, 2 * _B - 1, 2 * _B, n_samples - 1))
    for stride in (1, 3, _B + 1):
        ref = load_trajectory(clean, stride)
        got = load_trajectory(blanks, stride)
        assert same_bits(got.states, ref.states)
        assert same_bits(got.dt, ref.dt)


@pytest.mark.parametrize("row,bad,message", [
    (_B + 3, "0.1,0,abc,0,0,0,0", "non-numeric value"),
    (2 * _B, "0.1,0", "expected 7 columns, got 2"),
    (3 * _B + 1, "0.1,0,0,0,0,0,", "non-numeric value"),
])
def test_bad_row_after_the_first_block_names_its_line(tmp_path, row, bad,
                                                      message):
    # three blank lines go in around data row 10, and a NaN in the first
    # block waits until every row has parsed, as it did for a whole-file read
    path = states_file(tmp_path / "traj.csv", 3 * _B + 2, blank_around=(10,))
    lines = path.read_text().splitlines(keepends=True)
    lineno = row + 2 + 3
    lines[lineno - 1] = bad + "\n"
    lines[20] = "nan," + lines[20].split(",", 1)[1]
    path.write_text("".join(lines))
    for stride in (1, 3):
        with pytest.raises(ValidationError) as exc:
            load_trajectory(path, stride)
        assert exc.value.field == "row"
        assert str(exc.value) == f"{path}:{lineno}: {message}"


def test_strided_read_rejects_bad_stride(tmp_path):
    path = states_file(tmp_path / "traj.csv", 10)
    with pytest.raises(ValueError, match="stride must be at least 1"):
        load_trajectory(path, 0)


@pytest.fixture(scope="module")
def long_fixture_file(tmp_path_factory, fixture_systems):
    """A 10-minute fixture trajectory: a header and 36,000 rows."""
    path = tmp_path_factory.mktemp("long") / "traj.csv"
    save_trajectory(path, steady_trajectory(fixture_systems[1], 36_000, 50,
                                            seed=1))
    return path


@pytest.mark.parametrize("stride", [1, 3])
def test_trajectory_read_memory_is_bounded_by_the_kept_states(
        long_fixture_file, stride):
    # a whole-file read peaked at 32 MiB: the text, its lines and the table
    tracemalloc.start()
    try:
        traj = load_trajectory(long_fixture_file, stride)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.n_samples == -(-36_000 // stride)
    # one allocation of the kept states, sized from the file, and an eighth
    # more; two copies of them, blocks and all, peaked at 2.11x at stride 1
    factor = 1.5 if stride == 1 else 2
    assert peak <= factor * traj.states.nbytes + 2 * 2 ** 20


def sized_text(n_samples: int, long_rows, newline: str = "\n",
               blank_every: int = 0) -> str:
    """A 3-generator trajectory whose data rows in `long_rows` hold 17-digit
    values and whose other rows hold one decimal; a blank line follows
    every blank_every-th row."""
    rng = np.random.default_rng(n_samples)
    lines = [",".join(["t"] + [f"delta_{i}" for i in (1, 2, 3)]
                      + [f"omega_{i}" for i in (1, 2, 3)])]
    for k in range(n_samples):
        values = rng.standard_normal(6)
        if k not in long_rows:
            values = np.round(values, 1)
        lines.append(",".join(map(repr, [k * 0.25, *values.tolist()])))
        if blank_every and k % blank_every == 0:
            lines.append("")
    return newline.join(lines) + newline


_N_SIZED = 5 * _B + 3


@pytest.mark.parametrize("long_rows,newline,blank_every", [
    # later rows a quarter of the first two's length: the array grows
    (range(2), "\n", 0),
    (range(2), "\r\n", 3),
    # later rows four times as long: the array is trimmed
    (range(2, _N_SIZED), "\n", 0),
    # blank lines and CRLF add bytes that hold no row
    (range(_N_SIZED), "\r\n", 1),
], ids=["shorter", "shorter-crlf-blanks", "longer", "crlf-blanks"])
def test_read_sized_from_its_first_rows_keeps_every_bit(
        tmp_path, monkeypatch, forks, long_rows, newline, blank_every):
    path = tmp_path / "traj.csv"
    path.write_bytes(sized_text(_N_SIZED, long_rows, newline,
                                blank_every).encode())
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert table.shape == (_N_SIZED, 7)
    for stride in (1, 3, _B + 1, 2 * _B + 3):
        helped = load_trajectory(path, stride)
        serial = serially(monkeypatch, load_trajectory, path, stride)
        for got in (helped, serial):
            assert same_bits(got.states, table[::stride, 1:])
            assert same_bits(got.dt, 0.25 * stride)
            assert got.states.flags.c_contiguous and got.states.flags.owndata
    assert len(forks) == 4
    assert_reaped(forks)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_from_a_pipe_of_unknown_size_keeps_every_bit(tmp_path,
                                                          monkeypatch):
    # a pipe's size reads 0, so the arrays start empty and grow block by block
    text = sized_text(3 * _B + 1, range(3 * _B + 1))
    path, pipe = tmp_path / "traj.csv", tmp_path / "traj.pipe"
    path.write_text(text)
    os.mkfifo(pipe)
    # the writer ends when the text is read, or at a broken pipe
    writer = threading.Thread(target=pipe.write_text, args=(text,))
    writer.start()
    try:
        got = serially(monkeypatch, load_trajectory, pipe, 3)
    finally:
        writer.join()
    assert same_bits(got.states,
                     np.loadtxt(path, delimiter=",", skiprows=1)[::3, 1:])
    assert got.states.flags.owndata


# ------------------------------------------------- the forked block helper

def same_trajectory(a: Trajectory, b: Trajectory) -> bool:
    return (same_bits(a.states, b.states) and same_bits(a.dt, b.dt)
            and a.n_gen == b.n_gen)


def random_trajectory(n_samples: int) -> Trajectory:
    rng = np.random.default_rng(n_samples)
    return Trajectory(dt=DT_BASE, n_gen=3,
                      states=rng.standard_normal((n_samples, 6)))


@pytest.mark.parametrize("n_samples", [2 * _B - 1, 2 * _B, 2 * _B + 1,
                                       3 * _B + 2])
def test_helper_writes_and_reads_the_serial_bytes_and_bits(
        tmp_path, monkeypatch, forks, n_samples):
    traj = random_trajectory(n_samples)
    text = reference_trajectory_text(traj)
    rows = reference_trajectory_rows(text)
    helped, serial = tmp_path / "helped.csv", tmp_path / "serial.csv"
    save_trajectory(helped, traj)
    assert len(forks) == 1
    serially(monkeypatch, save_trajectory, serial, traj)
    assert len(forks) == 1
    assert helped.read_bytes() == serial.read_bytes() == text.encode()
    for stride in (1, 3, 7, _B + 1):
        got = load_trajectory(helped, stride)
        ref = serially(monkeypatch, load_trajectory, helped, stride)
        assert same_trajectory(got, ref)
        assert same_bits(got.states, rows[::stride, 1:])
        assert got.states.flags.c_contiguous
    # one helper per save and per read, and every one reaped
    assert len(forks) == 5
    assert_reaped(forks)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_helper_skips_blank_lines_across_block_boundaries(
        tmp_path, monkeypatch, forks, newline):
    n_samples = 3 * _B + 2
    clean = states_file(tmp_path / "clean.csv", n_samples)
    blanks = states_file(tmp_path / "blanks.csv", n_samples, blank_around=(
        0, _B - 2, _B - 1, _B, 2 * _B - 1, 2 * _B, n_samples - 1))
    blanks.write_bytes(blanks.read_bytes().replace(b"\n", newline.encode()))
    made = len(forks)
    for stride in (1, 3, _B + 1):
        ref = serially(monkeypatch, load_trajectory, clean, stride)
        assert same_trajectory(load_trajectory(blanks, stride), ref)
        assert same_trajectory(
            serially(monkeypatch, load_trajectory, blanks, stride), ref)
    assert len(forks) == made + 3
    assert_reaped(forks)


# data rows 0..B-1 are the caller's block 0, B..2B-1 the helper's block 1,
# 2B..3B-1 the caller's block 2 and 3B.. the helper's block 3
@pytest.mark.parametrize("bad_rows,first_bad", [
    ({_B + 5: "0.1,0,abc,0,0,0,0"}, _B + 5),
    ({3 * _B + 1: "0.1,0"}, 3 * _B + 1),
    ({2 * _B + 7: "0.1,0,0,0,0,0,"}, 2 * _B + 7),
    ({_B + 5: "0.1,0,abc,0,0,0,0", 2 * _B + 7: "0.1,0"}, _B + 5),
    ({2 * _B + 7: "0.1,0,abc,0,0,0,0", 3 * _B + 1: "0.1,0"}, 2 * _B + 7),
])
@pytest.mark.parametrize("nan_row", [20, _B + 2])
def test_helper_reports_the_serial_first_bad_row(tmp_path, monkeypatch, forks,
                                                 bad_rows, first_bad, nan_row):
    # a NaN in an earlier block waits until every row has parsed, so the
    # bad row is reported, whichever process parsed either of them
    path = states_file(tmp_path / "traj.csv", 3 * _B + 2)
    lines = path.read_text().splitlines(keepends=True)
    for row, text in bad_rows.items():
        lines[row + 1] = text + "\n"
    lines[nan_row + 1] = "nan," + lines[nan_row + 1].split(",", 1)[1]
    path.write_text("".join(lines))
    made = len(forks)
    for stride in (1, 3):
        with pytest.raises(ValidationError) as helped:
            load_trajectory(path, stride)
        with pytest.raises(ValidationError) as serial:
            serially(monkeypatch, load_trajectory, path, stride)
        assert str(helped.value) == str(serial.value)
        assert str(helped.value).startswith(f"{path}:{first_bad + 2}: ")
        assert helped.value.field == serial.value.field == "row"
    assert len(forks) == made + 2
    assert_reaped(forks)


def test_helper_nan_is_reported_after_every_row_parses(tmp_path, monkeypatch,
                                                       forks):
    path = states_file(tmp_path / "traj.csv", 3 * _B + 2)
    lines = path.read_text().splitlines(keepends=True)
    lines[_B + 3] = "0.1,0,0,inf,0,0,0\n"
    path.write_text("".join(lines))
    made = len(forks)
    with pytest.raises(ValidationError, match="NaN or infinite values"):
        load_trajectory(path)
    with pytest.raises(ValidationError, match="NaN or infinite values"):
        serially(monkeypatch, load_trajectory, path)
    assert len(forks) == made + 1
    assert_reaped(forks)


def helper_dies_at(monkeypatch, name: str, job) -> list:
    """Make the helper kill itself when module function `name` is called
    on `job`; returns the list of jobs the caller runs itself."""
    caller = os.getpid()
    real = getattr(io_config, name)
    own = []

    def dying(*args):
        if os.getpid() != caller and args[-1] == job:
            os.kill(os.getpid(), signal.SIGKILL)
        if os.getpid() == caller:
            own.append(args[-1])
        return real(*args)

    monkeypatch.setattr(io_config, name, dying)
    return own


def test_caller_finishes_the_blocks_of_a_killed_helper(tmp_path, monkeypatch,
                                                       forks):
    traj = random_trajectory(5 * _B + 3)
    serial = tmp_path / "serial.csv"
    serially(monkeypatch, save_trajectory, serial, traj)
    # the helper sends block 1 and dies before block 3
    own = helper_dies_at(monkeypatch, "_format_rows", 3 * _B)
    helped = tmp_path / "helped.csv"
    save_trajectory(helped, traj)
    assert helped.read_bytes() == serial.read_bytes()
    assert own == [0, 2 * _B, 3 * _B, 4 * _B, 5 * _B]
    assert len(forks) == 1
    assert_reaped(forks)

    def block_lines(i):
        lines = serial.read_text().splitlines(keepends=True)[1:]
        return (i, lines[i * _B:(i + 1) * _B])

    own = helper_dies_at(monkeypatch, "_parse_rows", block_lines(3))
    for stride in (1, 3):
        assert same_trajectory(
            load_trajectory(serial, stride),
            serially(monkeypatch, load_trajectory, serial, stride))
        assert [i for i, _ in own] == [0, 2, 3, 4, 5] + [0, 1, 2, 3, 4, 5]
        own.clear()
    assert len(forks) == 3
    assert_reaped(forks)


def test_caller_error_ends_a_busy_helper_without_waiting(tmp_path, monkeypatch,
                                                        forks):
    path = states_file(tmp_path / "traj.csv", 3 * _B + 2)
    lines = path.read_text().splitlines(keepends=True)
    lines[5] = "0.1,0,abc,0,0,0,0\n"
    path.write_text("".join(lines))
    caller = os.getpid()
    real = io_config._parse_rows

    def slow_in_helper(*args):
        if os.getpid() != caller:
            time.sleep(30)
        return real(*args)

    monkeypatch.setattr(io_config, "_parse_rows", slow_in_helper)
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=f"{path}:6: non-numeric"):
        load_trajectory(path)
    assert time.perf_counter() - start < 10
    assert len(forks) == 2
    assert_reaped(forks)


class HalfPickle:
    """pickle, except that a helper (any process but the test's) writes
    half of its first result and then kills itself; the caller's jobs go
    out whole."""

    UnpicklingError = pickle.UnpicklingError
    HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL
    load = staticmethod(pickle.load)
    caller = os.getpid()

    @classmethod
    def dump(cls, obj, file, protocol):
        if os.getpid() == cls.caller:
            return pickle.dump(obj, file, protocol)
        data = pickle.dumps(obj, protocol)
        file.write(data[:len(data) // 2])
        file.flush()
        os.kill(os.getpid(), signal.SIGKILL)


def test_result_cut_short_by_the_helper_is_redone_by_the_caller(
        tmp_path, monkeypatch, forks):
    traj = random_trajectory(3 * _B + 2)
    path = tmp_path / "traj.csv"
    serial = serially(monkeypatch, load_trajectory,
                      states_file(tmp_path / "states.csv", 3 * _B + 2), 3)
    made = len(forks)
    monkeypatch.setattr(sim, "pickle", HalfPickle)
    save_trajectory(path, traj)
    assert path.read_bytes() == reference_trajectory_text(traj).encode()
    assert same_trajectory(load_trajectory(tmp_path / "states.csv", 3), serial)
    assert len(forks) == made + 2
    assert_reaped(forks)


def test_caller_finishes_the_blocks_after_a_send_to_a_dead_helper(
        tmp_path, monkeypatch, forks):
    # a block of 1,024 x 40 states pickles to 328 KB, more than a pipe holds,
    # so the send of block 3 cannot finish into the pipe of a helper that
    # killed itself after sending block 1's text
    rng = np.random.default_rng(11)
    traj = Trajectory(dt=DT_BASE, n_gen=20,
                      states=rng.standard_normal((5 * _B + 3, 40)))
    serial = tmp_path / "serial.csv"
    serially(monkeypatch, save_trajectory, serial, traj)
    caller, refused = os.getpid(), []

    class DiesAfterItsFirstResult:
        UnpicklingError = pickle.UnpicklingError
        HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL
        load = staticmethod(pickle.load)

        @staticmethod
        def dump(obj, file, protocol):
            if os.getpid() != caller:
                pickle.dump(obj, file, protocol)
                file.flush()
                os.kill(os.getpid(), signal.SIGKILL)
            try:
                pickle.dump(obj, file, protocol)
            except BrokenPipeError:
                refused.append(obj[1])  # the first row of the refused block
                raise

    own = helper_dies_at(monkeypatch, "_format_rows", None)  # never dies
    monkeypatch.setattr(sim, "pickle", DiesAfterItsFirstResult)
    helped = tmp_path / "helped.csv"
    save_trajectory(helped, traj)
    assert refused == [3 * _B]
    assert own == [0, 2 * _B, 3 * _B, 4 * _B, 5 * _B]
    assert helped.read_bytes() == serial.read_bytes()
    assert len(forks) == 1
    assert_reaped(forks)


def test_streamed_save_steps_the_window_once_in_the_caller(tmp_path,
                                                          monkeypatch, forks):
    # 3,074 rows make four blocks, each stepped by one call of the stepper;
    # a helper that stepped the window too would log its own pid
    _, disc = systems_for(path3_model(), DT_BASE)
    run = sim.steady_run(disc, 3 * _B + 2, 50, 7)
    log, real = tmp_path / "steps.txt", sim._advance

    def logged(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(sim, "_advance", logged)
    helped, serial = tmp_path / "helped.csv", tmp_path / "serial.csv"
    save_trajectory(helped, run)
    assert len(forks) == 1
    assert_reaped(forks)
    assert log.read_text().split() == [str(os.getpid())] * 4
    serially(monkeypatch, save_trajectory, serial, run)
    assert helped.read_bytes() == serial.read_bytes()
    assert helped.read_bytes().count(b"\n") == 3 * _B + 3


@pytest.mark.parametrize("n_samples", [2, _B - 1, _B])
def test_one_block_file_never_forks(tmp_path, forks, n_samples):
    traj = random_trajectory(n_samples)
    path = tmp_path / "traj.csv"
    save_trajectory(path, traj)
    assert same_bits(load_trajectory(path).states, traj.states)
    assert forks == []


def test_helper_needs_fork_and_two_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert sim._helper_allowed()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert not sim._helper_allowed()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.delattr(os, "fork", raising=False)
    assert not sim._helper_allowed()


def test_helper_starts_in_a_process_without_stdout(tmp_path, monkeypatch,
                                                  forks):
    # Python sets sys.stdout to None when it starts with file descriptor 1
    # closed
    monkeypatch.setattr(sys, "stdout", None)
    traj = random_trajectory(2 * _B)
    path = tmp_path / "traj.csv"
    save_trajectory(path, traj)
    assert path.read_bytes() == reference_trajectory_text(traj).encode()
    assert len(forks) == 1
    assert_reaped(forks)


def test_failed_fork_falls_back_to_the_serial_path(tmp_path, monkeypatch):
    def no_fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(sim, "_helper_allowed", lambda: True)
    traj = random_trajectory(3 * _B + 2)
    path = tmp_path / "traj.csv"
    save_trajectory(path, traj)
    assert path.read_bytes() == reference_trajectory_text(traj).encode()
    assert same_bits(load_trajectory(path, 3).states, traj.states[::3])


# ---------------------------------------------------------- matrices and records

def test_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 4)) / 3.0
    path = tmp_path / "m.csv"
    save_matrix(path, m, comment="test matrix")
    assert np.array_equal(load_matrix(path), m)


@pytest.mark.parametrize("cell, text", [
    (0.1, "0.1"),
    (np.float64(4.064629951719237), "4.064629951719237"),
    (np.float32(0.1), "0.10000000149011612"),  # repr of the widened double
    (3, "3"),
    (np.int64(-7), "-7"),
    (True, "True"),
    ("UML", "UML"),
    ("", ""),
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    (-0.0, "-0.0"),
])
def test_csv_text_cells(cell, text):
    assert csv_text([[cell]]) == f"{text}\n"
    assert csv_text([("key", cell, 1.0)]) == f"key,{text},1.0\n"


def test_csv_text_comment_lines_come_first():
    rows = [("re", "im"), (np.float64(-0.5), 1.0)]
    assert csv_text(rows, comment="two\nlines") == \
        "# two\n# lines\nre,im\n-0.5,1.0\n"
    assert csv_text(rows, comment="") == csv_text(rows) == "re,im\n-0.5,1.0\n"


def test_int_matrix_writes_floats(tmp_path):
    path = tmp_path / "m.csv"
    save_matrix(path, np.eye(2, dtype=int))
    assert path.read_text() == "1.0,0.0\n0.0,1.0\n"


def test_matrix_ragged_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValidationError, match="ragged"):
        load_matrix(path)


def test_records_roundtrip(tmp_path):
    path = tmp_path / "r.csv"
    save_records(path, {"estimator": "UML", "eps": 0.123456789012345,
                        "n_samples": 42})
    back = load_records(path)
    assert back["estimator"] == "UML"
    assert float(back["eps"]) == 0.123456789012345
    assert int(back["n_samples"]) == 42


# ------------------------------------------------------------ experiment config

CONFIG_TEXT = """\
[model]
path = models/fixture10.grid

[generation]
t_obs = 600
seeds = 1 2 3

[estimation]
stride = 3
estimators = UML CML
lambda = 0.5

[outputs]
dir = out

[sweep]
variable = t_obs
values = 60 300 600
"""


def test_load_config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT)
    cfg = load_config(path)
    assert cfg.model_path == "models/fixture10.grid"
    assert cfg.seeds == (1, 2, 3)
    assert cfg.stride == 3
    assert cfg.estimators == ("UML", "CML")
    assert cfg.lam == 0.5
    assert cfg.sweep_variable == "t_obs"
    assert cfg.sweep_values == (60.0, 300.0, 600.0)


def test_config_roundtrip(tmp_path):
    cfg = ExperimentConfig(model_path="m.grid", t_obs=120.0,
                           seeds=(4, 5), stride=6,
                           estimators=("CML",), nu=2.5,
                           lam=0.1, eta=0.7, outputs="results",
                           sweep_variable="stride", sweep_values=(1.0, 3.0))
    default = ExperimentConfig(model_path="")
    assert all(getattr(cfg, f.name) != getattr(default, f.name)
               for f in fields(ExperimentConfig))
    path = tmp_path / "exp.ini"
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_settings_table_names_every_field_once():
    assert [s.field for s in SETTINGS] == \
        [f.name for f in fields(ExperimentConfig)]
    assert len({(s.section, s.key) for s in SETTINGS}) == len(SETTINGS)


def test_shipped_config_sets_every_setting():
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(REPO_ROOT / "configs" / "fixture10.ini")
    assert {(section, key) for section in parser.sections()
            for key in parser[section]} == \
        {(s.section, s.key) for s in SETTINGS}


def test_readme_configuration_table_lists_every_setting():
    rows = re.findall(r"^\| `\[(\w+)\] (\w+)` \| (.*?) \|",
                      (REPO_ROOT / "README.md").read_text(), flags=re.M)
    assert rows[0] == ("section", "key", "flag")  # the header
    rows = rows[1:]
    assert len(rows) == len(set(rows))
    assert set(rows) == {(s.section, s.key, f"`{s.flag}`") for s in SETTINGS}


@pytest.mark.parametrize("text,named", [
    ("[estimation]\nlamda = 5\n", "[estimation] lamda"),
    ("[outptus]\ndir = out\n", "[outptus] dir"),
    ("[DEFAULT]\nstride = 3\n", "[DEFAULT] stride"),
])
def test_config_unknown_section_or_key_is_validation_error(tmp_path, text,
                                                           named):
    path = tmp_path / "exp.ini"
    path.write_text(f"[model]\npath = m.grid\n\n{text}")
    with pytest.raises(ValidationError) as excinfo:
        load_config(path)
    assert excinfo.value.field == "config"
    assert str(excinfo.value) == f"{path}: {named} is not a known setting"


def test_config_missing_model(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[generation]\nt_obs = 10\n")
    with pytest.raises(ValidationError, match="model"):
        load_config(path)


@pytest.mark.parametrize("text", [
    "[model]\npath = m.grid\n[estimation]\nstride = 3\nstride = 4\n",
    "path = m.grid\n",
])
def test_config_malformed_ini_is_validation_error(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    with pytest.raises(ValidationError) as excinfo:
        load_config(path)
    assert excinfo.value.field == "config"
    assert str(excinfo.value).startswith(f"{path}: ")


def test_config_validation():
    with pytest.raises(ValidationError, match="t_obs"):
        ExperimentConfig(model_path="m", t_obs=0.0)
    with pytest.raises(ValidationError, match="seeds"):
        ExperimentConfig(model_path="m", seeds=())
    with pytest.raises(ValidationError, match="estimator"):
        ExperimentConfig(model_path="m", estimators=("BOGUS",))
    with pytest.raises(ValidationError, match="stride"):
        ExperimentConfig(model_path="m", stride=0)
    with pytest.raises(ValidationError, match="sweep"):
        ExperimentConfig(model_path="m", sweep_variable="frequency",
                         sweep_values=(1.0,))
    with pytest.raises(ValidationError, match="sweep values"):
        ExperimentConfig(model_path="m", sweep_variable="t_obs")


@pytest.mark.parametrize("kwargs,field", [
    ({"lam": float("nan")}, "lam"), ({"lam": -1.0}, "lam"),
    ({"eta": float("inf")}, "eta"), ({"nu": float("nan")}, "nu"),
    ({"eta": -1.0}, "eta"), ({"nu": -0.5}, "nu"),
    ({"t_obs": 0.0}, "t_obs"), ({"stride": 0}, "stride"),
    ({"t_obs": -600.0}, "t_obs"),
    ({"sweep_variable": "frequency", "sweep_values": (1.0,)}, "sweep_variable"),
    ({"sweep_values": (60.0, 0.0)}, "sweep_values"),
    ({"sweep_values": (-60.0,)}, "sweep_values"),
    ({"estimators": ("CML", "BOGUS")}, "estimators"),
    ({"seeds": ()}, "seeds"), ({"estimators": ()}, "estimators"),
    ({"t_obs": float("inf")}, "t_obs"), ({"t_obs": float("nan")}, "t_obs"),
    ({"sweep_values": (60.0, float("inf"))}, "sweep_values"),
    ({"sweep_values": (float("nan"),)}, "sweep_values"),
    ({"seeds": (-1,)}, "seeds"), ({"seeds": (1, -2)}, "seeds"),
    ({"seeds": (1, 2, 1)}, "seeds"), ({"estimators": ("CML", "CML")}, "estimators"),
    ({"sweep_values": (3.0, 3.0)}, "sweep_values")])
def test_config_rejects_bad_solver_settings(kwargs, field):
    with pytest.raises(ValidationError) as excinfo:
        ExperimentConfig(model_path="m", **kwargs)
    assert excinfo.value.field == field


@pytest.mark.parametrize("section,line,key,field", [
    ("generation", "t_obs = 10min", "t_obs", "t_obs"),
    ("generation", "seeds = 1 two 3", "seeds", "seeds"),
    ("estimation", "stride = 2.5", "stride", "stride"),
    ("estimation", "nu = none", "nu", "nu"),
    ("estimation", "lambda = 1e-3x", "lambda", "lam"),
    ("estimation", "eta = ?", "eta", "eta"),
    ("sweep", "values = 60 x 600", "values", "sweep_values"),
])
def test_config_unparsable_value_names_file_key_and_field(tmp_path, section, line,
                                                          key, field):
    path = tmp_path / "exp.ini"
    path.write_text(f"[model]\npath = m.grid\n\n[{section}]\n{line}\n")
    with pytest.raises(ValidationError) as excinfo:
        load_config(path)
    assert excinfo.value.field == field
    assert str(excinfo.value).startswith(f"{path}: [{section}] {key} is not")
