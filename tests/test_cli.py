from __future__ import annotations

import errno
import hashlib
import itertools
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import swingid
from swingid import analysis, cli, estimators, sim
from swingid.cli import main
from swingid.estimators import covariances, lasso_kill_threshold
from swingid.io_config import (SETTINGS, load_config, load_matrix, load_records,
                               load_trajectory, save_matrix, save_model,
                               save_trajectory)
from swingid.model import ValidationError
from swingid.sim import DT_BASE, default_burn_in, simulate, subsample

from conftest import (assert_reaped, path3_model, serially, systems_for,
                      two_gen_model)


@pytest.fixture()
def small_model_path(tmp_path):
    path = tmp_path / "small.grid"
    save_model(path, path3_model())
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


# --------------------------------------------------------------------- simulate

def test_simulate_writes_expected_samples(tmp_path, small_model_path):
    out = tmp_path / "out"
    assert run("simulate", "--model", small_model_path, "--t-obs", "10",
               "--seed", "1", "2", "3", "--out", out) == 0
    for seed in (1, 2, 3):
        traj = load_trajectory(out / f"traj_seed{seed}.csv")
        assert traj.n_samples == 600
        assert traj.dt == pytest.approx(DT_BASE)
    manifest = load_records(out / "manifest.csv")
    assert manifest["n_samples"] == "600"
    assert manifest["seeds"] == "1 2 3"
    assert len(manifest["model_sha256"]) == 64
    # the trajectory bits depend on numpy's generator and products
    assert manifest["numpy_version"] == np.__version__
    assert manifest["swingid_version"] == swingid.__version__


def test_simulate_records_the_step_spectral_radius(tmp_path, small_model_path):
    out = tmp_path / "out"
    assert run("simulate", "--model", small_model_path, "--t-obs", "1",
               "--out", out) == 0
    manifest = load_records(out / "manifest.csv")
    keys = list(manifest)
    assert keys[keys.index("dt_base") + 1] == "step_spectral_radius"
    disc = systems_for(path3_model(), DT_BASE)[1]
    assert manifest["step_spectral_radius"] == repr(
        analysis.euler_step(disc, 1)[0])


def test_simulate_unstable_step_exits_2_writing_nothing(tmp_path, capsys):
    # at D/M = 200 the speed rows' Euler factor is 1 - 200/60, about -2.3,
    # so the 1/60 s step would overflow within 60 s: it is refused first
    stiff = tmp_path / "stiff.grid"
    save_model(stiff, two_gen_model(d=(200.0, 200.0)))
    out = tmp_path / "new" / "out"
    argv = ["simulate", "--model", str(stiff), "--t-obs", "60",
            "--out", str(out)]
    assert run(*argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "validation error: unstable base step: the forward-Euler step at "
        "dt=0.016666666666666666 s has spectral radius 2.3333333, so a trial "
        "can grow 1.17e+5740-fold over its 15599 steps"]
    assert not (out / "traj_seed1.csv").exists()
    assert not (out / "manifest.csv").exists()
    # neither the directory nor the parent this run would have made
    assert not out.exists()
    assert not out.parent.exists()
    # the step is fixed, so the error names the model
    with pytest.raises(ValidationError) as info:
        cli.cmd_simulate(cli.build_parser().parse_args(argv))
    assert info.value.field == "model_path"


# two-generator models whose forward-Euler base step is unstable, with the
# radius, growth and steps of a 60 s window after the model's burn-in: at
# D/M = 200 each speed row's Euler factor is 1 - 200/60; at D/M = 0.05 and
# beta = 2 the swing mode -0.025 +- 2i leaves the unit circle by 1.4e-4 a
# step, which grows a 10-minute run's speeds about 150-fold unrefused
_UNSTABLE_BASE_STEP = {
    "stiff": (two_gen_model(d=(200.0, 200.0)),
              "2.3333333, so a trial can grow 1.17e+5740-fold over its 15599"),
    "mild": (two_gen_model(d=(0.05, 0.05), beta=2.0),
             "1.0001389, so a trial can grow 3.21-fold over its 8399"),
}
_WINDOW_60S = {
    "simulate": ["--t-obs", "60"],
    "sweep": ["--axis", "t_obs", "--values", "60", "--estimator", "CML"],
    "bound": ["--t-obs", "60", "--trials", "2"],
}


@pytest.mark.parametrize("model", _UNSTABLE_BASE_STEP)
@pytest.mark.parametrize("command", _WINDOW_60S)
def test_unstable_base_step_is_refused_before_stepping(
        tmp_path, monkeypatch, capsys, command, model):
    grid, words = _UNSTABLE_BASE_STEP[model]
    path = tmp_path / f"{model}.grid"
    save_model(path, grid)
    out = tmp_path / "new" / ("b.csv" if command == "bound" else "out")
    argv = [command, "--model", str(path), *_WINDOW_60S[command],
            "--out", str(out)]

    def never(*args):
        raise AssertionError("stepped or forked before the stability rule")

    monkeypatch.setattr(sim, "_advance", never)
    monkeypatch.setattr(sim, "_start_helper", never)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "validation error: unstable base step: the forward-Euler step "
            f"at dt=0.016666666666666666 s has spectral radius {words} "
            "steps\n")
        assert not out.parent.exists()
        with pytest.raises(ValidationError) as info:
            getattr(cli, f"cmd_{command}")(cli.build_parser().parse_args(argv))
    assert info.value.field == "model_path"


def test_simulate_overflowing_noise_names_the_stable_step(tmp_path, capsys):
    # the step passes the stability rule, so only the noise can overflow
    loud = tmp_path / "loud.grid"
    grid = path3_model()
    save_model(loud, replace(grid, noise_sigma=dict.fromkeys(
        grid.noise_sigma, 1e308)))
    out = tmp_path / "new" / "out"
    argv = ["simulate", "--model", str(loud), "--t-obs", "1", "--out", str(out)]
    assert run(*argv) == 2
    assert capsys.readouterr().err == (
        "validation error: seed 1 gave non-finite states, though the "
        "forward-Euler step at dt=0.016666666666666666 s has spectral radius "
        "1: the noise is too large for float64\n")
    assert not out.parent.exists()
    with pytest.raises(ValidationError) as info:
        cli.cmd_simulate(cli.build_parser().parse_args(argv))
    assert info.value.field == "model_path"


@pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "old-dir"])
def test_simulate_with_a_later_seed_non_finite_leaves_nothing_behind(
        tmp_path, small_model_path, monkeypatch, capsys, existing):
    out = tmp_path / "out"
    old = b"t,delta_1\nnot a trajectory of this run\n"
    if existing:
        out.mkdir()
        (out / "traj_seed1.csv").write_bytes(old)
    real = sim.steady_run

    def second_seed_overflows(disc, n_samples, burn_in, seed):
        if seed == 2:
            # grows 1.38-fold a step from the origin: its first non-finite
            # state is X_2230, in the last of the window's three blocks
            disc, burn_in = replace(disc, a=disc.a * 1.38), 0
            states = sim.steady_trajectory(disc, n_samples, burn_in, seed).states
            assert np.all(np.isfinite(states[:2230]))
            assert not np.all(np.isfinite(states[2230]))
        return real(disc, n_samples, burn_in, seed)

    monkeypatch.setattr(sim, "steady_run", second_seed_overflows)
    # 2,400 rows span three blocks, so a helper may format part of each file
    code = run("simulate", "--model", small_model_path, "--t-obs", "40",
               "--seed", "1", "2", "--out", out)
    assert code == 2
    step = ("the forward-Euler step at dt=0.016666666666666666 s has "
            "spectral radius 1")
    assert capsys.readouterr().err == (
        f"validation error: seed 2 gave non-finite states, though {step}: "
        "the noise is too large for float64\n")
    if existing:
        assert [p.name for p in out.iterdir()] == ["traj_seed1.csv"]
        assert (out / "traj_seed1.csv").read_bytes() == old
    else:
        assert not out.exists()
    # the same run without the fault writes both seeds under their names
    monkeypatch.setattr(sim, "steady_run", real)
    assert run("simulate", "--model", small_model_path, "--t-obs", "40",
               "--seed", "1", "2", "--out", out) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.csv", "traj_seed1.csv", "traj_seed2.csv"]
    assert load_trajectory(out / "traj_seed1.csv").n_samples == 2400


@pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "old-dir"])
def test_simulate_too_large_to_allocate_exits_2_leaving_nothing_behind(
        tmp_path, small_model_path, monkeypatch, capsys, existing):
    # a burn-in is stepped a segment at a time, never allocated whole: what
    # refuses one too long is the step cap, before any step, fork or file
    out = tmp_path / "out"
    old = b"t,delta_1\nnot a trajectory of this run\n"
    if existing:
        out.mkdir()
        (out / "traj_seed1.csv").write_bytes(old)

    def never(*args):
        raise AssertionError("forked or stepped past the step cap")

    monkeypatch.setattr(os, "fork", never)
    monkeypatch.setattr(sim, "_advance", never)
    assert default_burn_in(systems_for(path3_model(), DT_BASE)[0]) == 746
    # two seeds' burn-ins alone pass the cap, whether the window is the
    # longer run or the shorter
    monkeypatch.setattr(cli, "MAX_STEP_ROWS", 2 * 746 - 1)

    def argv(t_obs):
        return ["simulate", "--model", str(small_model_path), "--t-obs", t_obs,
                "--seed", "1", "2", "--out", str(out)]

    for t_obs in ("20", "5"):
        assert run(*argv(t_obs)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "validation error: model_path: 2 run(s) of 746 burn-in steps of the "
            "model, more than the 1491 steps in all one command may take\n")
        if existing:
            assert [p.name for p in out.iterdir()] == ["traj_seed1.csv"]
            assert (out / "traj_seed1.csv").read_bytes() == old
        else:
            assert not out.exists()
        with pytest.raises(ValidationError) as info:
            cli.cmd_simulate(cli.build_parser().parse_args(argv(t_obs)))
        assert info.value.field == "model_path"


@pytest.mark.parametrize("t_obs,count", [
    pytest.param("1e15", "6e+16", id="1e15"),
    pytest.param("1e306", "6e+307", id="1e306")])
def test_simulate_past_numpy_sizes_exits_2_naming_t_obs(
        tmp_path, small_model_path, capsys, monkeypatch, t_obs, count):
    # the window would be streamed, not allocated: what refuses it is the
    # room its file needs, before any file, directory or helper exists; a
    # count past 15 digits is written as a float
    monkeypatch.setattr(os, "fork", None)
    out = tmp_path / "new" / "out"
    argv = ["simulate", "--model", str(small_model_path), "--t-obs", t_obs,
            "--out", str(out)]
    started = time.perf_counter()
    assert run(*argv) == 2
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert re.fullmatch(
        rf"validation error: t_obs={re.escape(repr(float(t_obs)))} s gives 1 "
        rf"file\(s\) of {re.escape(count)} rows, more than \d+ bytes free can "
        r"hold\n", captured.err)
    assert len(captured.err) < 200
    assert captured.out == ""
    assert not out.parent.exists()
    with pytest.raises(ValidationError) as info:
        cli.cmd_simulate(cli.build_parser().parse_args(argv))
    assert info.value.field == "t_obs"


def test_simulate_streams_the_bytes_of_a_held_trajectory(
        tmp_path, small_model_path, monkeypatch, forks):
    # 2,403 rows: two whole blocks and a partial third, for each of two seeds
    argv = ["simulate", "--model", small_model_path, "--t-obs", "40.05",
            "--seed", "3", "4"]
    assert run(*argv, "--out", tmp_path / "helped") == 0
    assert len(forks) == 2  # a helper per seed, which only formats
    assert serially(monkeypatch, run, *argv, "--out", tmp_path / "serial") == 0
    assert len(forks) == 2
    assert_reaped(forks)
    cont, disc = systems_for(path3_model(), DT_BASE)
    for seed in (3, 4):
        held = tmp_path / f"held{seed}.csv"
        serially(monkeypatch, save_trajectory, held, sim.steady_trajectory(
            disc, 2403, default_burn_in(cont), seed))
        for side in ("helped", "serial"):
            assert (tmp_path / side / f"traj_seed{seed}.csv").read_bytes() \
                == held.read_bytes()


def test_simulate_memory_does_not_grow_with_the_window(tmp_path, monkeypatch,
                                                       fixture_model_path):
    # the caller's Python allocations; a helper would be a process of its own
    monkeypatch.setattr(sim, "_helper_allowed", lambda: False)
    peaks = {}
    for t_obs in ("1", "30", "300"):
        tracemalloc.start()
        try:
            assert run("simulate", "--model", fixture_model_path, "--t-obs",
                       t_obs, "--out", tmp_path / t_obs) == 0
            peaks[t_obs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["300"] <= 1.1 * peaks["30"]


def test_simulate_without_room_for_its_files_exits_2_naming_t_obs(
        tmp_path, small_model_path, monkeypatch, capsys):
    # 3 seeds of 600 rows of at least 28 bytes: 50,400 bytes
    asked = []

    def little_free(path):
        asked.append(Path(path))
        return SimpleNamespace(free=50_399)

    monkeypatch.setattr(shutil, "disk_usage", little_free)
    out = tmp_path / "new" / "out"
    argv = ["simulate", "--model", str(small_model_path), "--t-obs", "10",
            "--seed", "1", "2", "3", "--out", str(out)]
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "validation error: t_obs=10.0 s gives 3 file(s) of 600 rows, more than "
        "50399 bytes free can hold\n")
    assert captured.out == ""
    assert asked == [tmp_path]  # the nearest directory that exists
    assert not out.parent.exists()
    with pytest.raises(ValidationError) as info:
        cli.cmd_simulate(cli.build_parser().parse_args(argv))
    assert info.value.field == "t_obs"
    # a byte more is room enough
    monkeypatch.setattr(shutil, "disk_usage",
                        lambda path: SimpleNamespace(free=50_400))
    assert run(*argv) == 0


@pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "old-dir"])
def test_simulate_on_a_full_disk_leaves_nothing_behind(
        tmp_path, small_model_path, monkeypatch, capsys, existing):
    out = tmp_path / "out"
    old = b"t,delta_1\nnot a trajectory of this run\n"
    if existing:
        out.mkdir()
        (out / "traj_seed1.csv").write_bytes(old)
    real = cli.io_config._format_rows

    def full_at_the_third_block(dt, block, start):
        if start == 2048:  # a block the caller formats, helper or not
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(dt, block, start)

    monkeypatch.setattr(cli.io_config, "_format_rows", full_at_the_third_block)
    assert run("simulate", "--model", small_model_path, "--t-obs", "40",
               "--seed", "1", "2", "--out", out) == 2
    assert capsys.readouterr().err == (
        "validation error: [Errno 28] No space left on device\n")
    if existing:
        assert [p.name for p in out.iterdir()] == ["traj_seed1.csv"]
        assert (out / "traj_seed1.csv").read_bytes() == old
    else:
        assert not out.exists()


def test_simulate_deterministic_and_seed_dependent(tmp_path, small_model_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run("simulate", "--model", small_model_path, "--t-obs", "5",
        "--seed", "1", "2", "--out", out1)
    run("simulate", "--model", small_model_path, "--t-obs", "5",
        "--seed", "1", "2", "--out", out2)
    first = (out1 / "traj_seed1.csv").read_bytes()
    assert first == (out2 / "traj_seed1.csv").read_bytes()
    assert first != (out1 / "traj_seed2.csv").read_bytes()


def test_simulate_rejects_zero_window(tmp_path, small_model_path, capsys):
    code = run("simulate", "--model", small_model_path, "--t-obs", "0",
               "--out", tmp_path / "o")
    assert code == 2
    assert "t_obs" in capsys.readouterr().err


def test_simulate_missing_model_file(tmp_path):
    assert run("simulate", "--model", tmp_path / "nope.grid",
               "--t-obs", "5", "--out", tmp_path / "o") == 2


# --------------------------------------------------------------------- estimate

@pytest.fixture()
def traj_path(tmp_path, small_model_path):
    out = tmp_path / "sim"
    run("simulate", "--model", small_model_path, "--t-obs", "60",
        "--seed", "7", "--out", out)
    return out / "traj_seed7.csv"


def test_estimate_outputs_and_determinism(tmp_path, small_model_path, traj_path):
    out = tmp_path / "est"
    assert run("estimate", traj_path, "--model", small_model_path,
               "--stride", "3", "--estimator", "UML", "CML", "--out", out) == 0
    uml_meta = load_records(out / "ahat_d_uml.meta")
    cml_meta = load_records(out / "ahat_d_cml.meta")
    assert float(uml_meta["eps"]) > 0.0
    assert float(cml_meta["eps"]) > 0.0
    a_hat_d = load_matrix(out / "ahat_d_cml.csv")
    assert a_hat_d.shape == (6, 6)
    # rerun reproduces files byte for byte
    first = (out / "ahat_d_uml.csv").read_bytes()
    run("estimate", traj_path, "--model", small_model_path,
        "--stride", "3", "--estimator", "UML", "CML", "--out", out)
    assert (out / "ahat_d_uml.csv").read_bytes() == first


def test_estimate_thresholded_pattern(tmp_path, small_model_path, traj_path):
    # every fit has its known zeros cleared, UML's too
    out = tmp_path / "est"
    assert run("estimate", traj_path, "--model", small_model_path, "--stride",
               "3", "--estimator", "UML", "--out", out) == 0
    a_hat_d = load_matrix(out / "ahat_d_uml.csv")
    lower_right = a_hat_d[3:, 3:]
    off = lower_right - np.diag(np.diag(lower_right))
    assert np.all(off == 0.0)


@pytest.mark.parametrize("command", ["estimate", "sweep"])
@pytest.mark.parametrize("flag", ["--threshold", "--no-threshold"])
def test_threshold_flags_exit_2(tmp_path, small_model_path, traj_path, capsys,
                                command, flag):
    # the known zeros are always cleared, so no flag turns that off
    out = tmp_path / "o"
    argv = [command, "--model", small_model_path, "--out", out, flag]
    if command == "estimate":
        argv.append(traj_path)
    with pytest.raises(SystemExit) as info:
        run(*argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_sample_deficit(tmp_path, small_model_path, traj_path, capsys):
    # stride 500 leaves 8 samples for a 6-dimensional state
    code = run("estimate", traj_path, "--model", small_model_path,
               "--stride", "500", "--out", tmp_path / "e")
    assert code == 2
    assert "sample deficit" in capsys.readouterr().err


def test_estimate_singular_data_is_numerical_failure(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    rows = ["t,delta_1,omega_1"]
    rows += [f"{repr(k * 0.1)},1.0,2.0" for k in range(50)]
    path.write_text("\n".join(rows) + "\n")
    assert run("estimate", path, "--out", tmp_path / "e") == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    # the CLI has already checked T > 2N+2, so the hint is not the sample
    # rule; stride 3 keeps 17 of the 50 rows
    assert "need T" not in err
    assert "the regressors are collinear over T=17 samples" in err


def test_estimate_without_truth_skips_eps(tmp_path, traj_path):
    out = tmp_path / "est"
    assert run("estimate", traj_path, "--stride", "3",
               "--estimator", "UML", "--out", out) == 0
    assert "eps" not in load_records(out / "ahat_d_uml.meta")


def test_estimate_tikhonov_and_lasso_paths(tmp_path, small_model_path, traj_path):
    out = tmp_path / "est"
    assert run("estimate", traj_path, "--model", small_model_path,
               "--stride", "3", "--estimator", "TIKHONOV", "--nu", "10",
               "--out", out) == 0
    meta = load_records(out / "ahat_d_tikhonov.meta")
    assert float(meta["hp_nu"]) == 10.0
    assert run("estimate", traj_path, "--model", small_model_path,
               "--stride", "3", "--estimator", "LASSO", "--lambda", "1e9",
               "--out", out) == 0
    # a huge penalty kills every coordinate, so the continuous matrix is
    # the pure -I/dt of the inverse Euler map
    a_hat_d = load_matrix(out / "ahat_d_lasso.csv")
    assert np.allclose(a_hat_d, -np.eye(6) / (3 * DT_BASE))


def test_estimate_rejects_non_finite_prior(tmp_path, traj_path, capsys):
    prior = np.zeros((6, 6))
    prior[2, 4] = np.nan
    save_matrix(tmp_path / "prior.csv", prior)
    out = tmp_path / "est"
    assert run("estimate", traj_path, "--stride", "3", "--estimator",
               "TIKHONOV", "--nu", "10", "--a-prev", tmp_path / "prior.csv",
               "--out", out) == 2
    assert "a_prev" in capsys.readouterr().err
    assert not (out / "ahat_d_tikhonov.csv").exists()


def test_estimate_sparse_low_rank_records_certificate(tmp_path, small_model_path,
                                                      traj_path):
    out = tmp_path / "est"
    kill = lasso_kill_threshold(covariances(subsample(load_trajectory(traj_path), 3)))
    lam = 0.05 * kill
    assert run("estimate", traj_path, "--model", small_model_path,
               "--stride", "3", "--estimator", "SPARSE_LOW_RANK",
               "--lambda", repr(lam), "--eta", repr(5 * lam), "--out", out) == 0
    meta = load_records(out / "ahat_d_sparse_low_rank.meta")
    gap = float(meta["hp_optimality_gap"])
    assert 0.0 <= gap <= 1e-6 * max(lam, kill, 1.0)
    assert int(meta["hp_iterations"]) >= 1


def test_estimate_meta_records_conditioning_versions_and_kill_threshold(
        tmp_path, small_model_path, traj_path):
    out = tmp_path / "est"
    tags = ["UML", "CML", "TIKHONOV", "LASSO", "SPARSE_LOW_RANK"]
    assert run("estimate", traj_path, "--model", small_model_path,
               "--stride", "3", "--estimator", *tags, "--lambda", "0.01",
               "--eta", "0.05", "--nu", "1", "--out", out) == 0
    cov = covariances(load_trajectory(traj_path, 3))
    for tag in tags:
        meta = load_records(out / f"ahat_d_{tag.lower()}.meta")
        assert float(meta["cond_sigma0"]) == float(np.linalg.cond(cov.sigma0))
        assert "threshold" not in meta
        assert meta["numpy_version"] == np.__version__
        assert meta["swingid_version"] == swingid.__version__
        sparse = tag in ("LASSO", "SPARSE_LOW_RANK")
        if sparse:
            assert float(meta["kill_threshold"]) == lasso_kill_threshold(cov)
        else:
            assert "kill_threshold" not in meta
        # the new keys follow every key the sidecar had before
        new = ["cond_sigma0", *["kill_threshold"] * sparse, "numpy_version",
               "swingid_version"]
        assert list(meta)[-len(new):] == new


def test_estimate_warns_on_an_all_zero_fit(tmp_path, small_model_path,
                                           traj_path, capsys):
    out = tmp_path / "est"
    assert run("estimate", traj_path, "--model", small_model_path,
               "--stride", "3", "--estimator", "CML", "LASSO",
               "--lambda", "1e9", "--out", out) == 0
    kill = lasso_kill_threshold(covariances(load_trajectory(traj_path, 3)))
    err = capsys.readouterr().err
    assert err == (f"warning: LASSO fit is all zero: lambda=1000000000.0, "
                   f"this window's lasso_kill_threshold={kill!r}\n")
    assert (out / "ahat_d_lasso.csv").exists()


@pytest.mark.parametrize("flags,name", [
    (("--lambda", "nan"), "lambda"), (("--lambda", "inf"), "lambda"),
    (("--lambda", "-1"), "lambda"), (("--eta", "nan"), "eta"),
    (("--eta", "-2"), "eta")])
def test_estimate_rejects_bad_penalty(tmp_path, small_model_path, traj_path,
                                      capsys, flags, name):
    code = run("estimate", traj_path, "--model", small_model_path,
               "--estimator", "SPARSE_LOW_RANK", *flags, "--out", tmp_path / "e")
    assert code == 2
    assert f"validation error: {name} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("line,name", [("lambda = nan", "lambda")])
def test_estimate_rejects_bad_solver_config(tmp_path, small_model_path, traj_path,
                                            capsys, line, name):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[model]\npath = {small_model_path}\n\n"
                   f"[estimation]\nestimators = LASSO\n{line}\n")
    code = run("estimate", traj_path, "--config", cfg, "--out", tmp_path / "e")
    assert code == 2
    assert f"validation error: {cfg}: {name} must be" in capsys.readouterr().err


def test_config_value_that_does_not_parse_exits_2(tmp_path, small_model_path,
                                                   traj_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[model]\npath = {small_model_path}\n\n"
                   "[estimation]\nstride = abc\n")
    code = run("estimate", traj_path, "--config", cfg, "--out", tmp_path / "e")
    assert code == 2
    assert (f"validation error: {cfg}: [estimation] stride is not an "
            "integer: 'abc'") in capsys.readouterr().err


def count_covariance_calls(monkeypatch) -> list[int]:
    """Count covariances() calls made through cli and through estimators."""
    calls = [0]

    def counting(fn):
        def wrapper(traj):
            calls[0] += 1
            return fn(traj)
        return wrapper

    for module in (cli, estimators):
        monkeypatch.setattr(module, "covariances", counting(module.covariances))
    return calls


def test_estimate_computes_covariances_once(tmp_path, small_model_path,
                                            traj_path, monkeypatch):
    calls = count_covariance_calls(monkeypatch)
    assert run("estimate", traj_path, "--model", small_model_path,
               "--estimator", "UML", "CML", "TIKHONOV", "LASSO",
               "SPARSE_LOW_RANK", "--lambda", "1e9", "--eta", "1e9",
               "--out", tmp_path / "e") == 0
    assert calls[0] == 1


def test_estimate_whose_second_estimator_fails_writes_nothing(
        tmp_path, small_model_path, traj_path, monkeypatch, capsys):
    def failing(cov, lam, eta):
        raise estimators.ConvergenceError("no certificate", 7, 1.0, 0.5)

    monkeypatch.setattr(cli, "estimate_sparse_low_rank", failing)
    out = tmp_path / "est"
    code = run("estimate", traj_path, "--model", small_model_path,
               "--estimator", "CML", "SPARSE_LOW_RANK", "--out", out)
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical failure: no certificate (iterations=7, "
                            "objective=1.000000e+00, gap=5.000e-01)\n")
    assert not out.exists()


# ---------------------------------------------- fits on the forked helper

@pytest.fixture()
def short_traj_path(tmp_path, small_model_path):
    # 900 rows, one block: the read forks no helper, so every fork is a fit's
    out = tmp_path / "short"
    assert run("simulate", "--model", small_model_path, "--t-obs", "15",
               "--seed", "7", "--out", out) == 0
    return out / "traj_seed7.csv"


_HELPED_ESTIMATES = {
    "benchmark-three": ["--estimator", "LASSO", "SPARSE_LOW_RANK", "CML",
                        "--lambda", "0.05", "--eta", "0.25"],
    "uml-cml": ["--estimator", "UML", "CML"],
    # lambda kills the LASSO fit, which warns
    "all-five": ["--estimator", "UML", "CML", "TIKHONOV", "LASSO",
                 "SPARSE_LOW_RANK", "--nu", "2", "--lambda", "1e9",
                 "--eta", "0.25"],
    "one": ["--estimator", "SPARSE_LOW_RANK", "--lambda", "0.05",
            "--eta", "0.25"],
}


def _estimate_outputs(out, capsys, argv, code=0) -> tuple:
    """estimate's exit code, output files, stdout and stderr."""
    assert run("estimate", *argv, "--out", out) == code
    files = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
             if out.exists() else None)
    return files, *capsys.readouterr()


@pytest.mark.parametrize("name", list(_HELPED_ESTIMATES))
def test_estimate_on_the_helper_writes_the_serial_bytes_and_messages(
        tmp_path, small_model_path, short_traj_path, monkeypatch, capsys,
        forks, name):
    argv = [short_traj_path, "--model", small_model_path,
            "--stride", "3", *_HELPED_ESTIMATES[name]]
    helped = _estimate_outputs(tmp_path / "helped", capsys, argv)
    assert len(forks) == (name != "one")
    assert serially(monkeypatch, _estimate_outputs, tmp_path / "serial",
                    capsys, argv) == helped
    assert len(forks) == (name != "one")
    assert_reaped(forks)
    files, stdout, stderr = helped
    tags = list(itertools.takewhile(lambda a: not a.startswith("--"),
                                    _HELPED_ESTIMATES[name][1:]))
    assert sorted(files) == sorted(
        pattern.format(tag.lower()) for tag in tags
        for pattern in ("ahat_d_{}.csv", "ahat_d_{}.meta", "bhat_{}.csv"))
    assert [line.split(":")[0] for line in stdout.splitlines()] == tags
    # one warning per all-zero fit, in estimator order
    assert [line.split()[:2] for line in stderr.splitlines()] == (
        [["warning:", "LASSO"], ["warning:", "SPARSE_LOW_RANK"]]
        if name == "all-five" else [])


def test_estimate_helper_whose_fit_raises_gives_the_serial_failure(
        tmp_path, small_model_path, short_traj_path, monkeypatch, capsys,
        forks):
    calls = []

    def failing(cov, lam, eta):
        calls.append(os.getpid())
        raise estimators.ConvergenceError("no certificate", 7, 1.0, 0.5)

    monkeypatch.setattr(cli, "estimate_sparse_low_rank", failing)
    argv = [short_traj_path, "--model", small_model_path, "--stride", "3",
            *_HELPED_ESTIMATES["benchmark-three"]]
    helped = _estimate_outputs(tmp_path / "helped", capsys, argv, code=3)
    assert len(forks) == 1
    assert_reaped(forks)
    # the helper's failure reached the caller only as its end; the caller
    # fitted the same estimator and raised the error itself
    assert calls == [os.getpid()]
    assert helped == (None, "", "numerical failure: no certificate "
                      "(iterations=7, objective=1.000000e+00, gap=5.000e-01)\n")
    assert serially(monkeypatch, _estimate_outputs, tmp_path / "serial",
                    capsys, argv, 3) == helped


def test_estimate_finishes_the_fit_of_a_helper_killed_mid_run(
        tmp_path, small_model_path, short_traj_path, monkeypatch, capsys,
        forks):
    argv = [short_traj_path, "--model", small_model_path, "--stride", "3",
            *_HELPED_ESTIMATES["benchmark-three"]]
    serial = serially(monkeypatch, _estimate_outputs, tmp_path / "serial",
                      capsys, argv)
    caller, real = os.getpid(), cli.estimate_sparse_low_rank

    def dying(cov, lam, eta):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(cov, lam, eta)

    monkeypatch.setattr(cli, "estimate_sparse_low_rank", dying)
    assert _estimate_outputs(tmp_path / "helped", capsys, argv) == serial
    assert len(forks) == 1
    assert_reaped(forks)


def test_estimate_fits_every_estimator_before_the_first_b_hat(
        tmp_path, small_model_path, short_traj_path, monkeypatch):
    # estimate_b's large product wakes OpenBLAS's threads, which would spin
    # beside the helper's fits
    events = []
    real_fit, real_b = cli._fit, cli.estimate_b

    def fit(tag, *args):
        result = real_fit(tag, *args)
        events.append(("fit", tag))
        return result

    def b_hat(traj, a_hat):
        events.append(("b_hat",))
        return real_b(traj, a_hat)

    monkeypatch.setattr(cli, "_fit", fit)
    monkeypatch.setattr(cli, "estimate_b", b_hat)
    argv = _HELPED_ESTIMATES["benchmark-three"]
    assert serially(monkeypatch, run, "estimate", short_traj_path, "--model",
                    small_model_path, *argv, "--out", tmp_path / "e") == 0
    tags = argv[1:4]
    assert events == [("fit", tag) for tag in tags] + [("b_hat",)] * len(tags)


# ------------------------------------------------------------------------ sweep

def test_sweep_single_cell(tmp_path, small_model_path):
    out = tmp_path / "sw"
    assert run("sweep", "--model", small_model_path, "--axis", "t_obs",
               "--values", "20", "--stride", "3", "--seed", "1",
               "--estimator", "CML", "--out", out) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "axis_value,estimator,seed,eps"
    assert len(lines) == 2
    value, est, seed, eps = lines[1].split(",")
    assert (float(value), est, int(seed)) == (20.0, "CML", 1)
    assert float(eps) > 0.0
    mean_lines = (out / "sweep_mean.csv").read_text().splitlines()
    assert len(mean_lines) == 2


def test_sweep_stride_axis_rows_sorted(tmp_path, small_model_path):
    out = tmp_path / "sw"
    assert run("sweep", "--model", small_model_path, "--axis", "stride",
               "--values", "6", "1", "3", "--t-obs", "30", "--seed", "2", "1",
               "--estimator", "UML", "CML", "--out", out) == 0
    rows = [ln.split(",") for ln in
            (out / "sweep.csv").read_text().splitlines()[1:]]
    keys = [(float(r[0]), r[1], int(r[2])) for r in rows]
    assert keys == sorted(keys)
    assert len(rows) == 3 * 2 * 2


def test_sweep_overflowing_noise_names_the_stable_step(tmp_path, capsys):
    # the step passes the stability rule, so only the noise can overflow;
    # it is reported as simulate reports it, with no numpy warning
    loud = tmp_path / "loud.grid"
    grid = path3_model()
    save_model(loud, replace(grid, noise_sigma=dict.fromkeys(
        grid.noise_sigma, 1e308)))
    out = tmp_path / "new" / "out"
    argv = ["sweep", "--model", str(loud), "--axis", "t_obs", "--values", "60",
            "--seed", "1", "2", "3", "--estimator", "CML", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "validation error: seed 1 gave non-finite states, though the "
        "forward-Euler step at dt=0.016666666666666666 s has spectral radius "
        "1: the noise is too large for float64\n")
    assert captured.out == ""
    assert not out.parent.exists()
    with pytest.raises(ValidationError) as info:
        cli.cmd_sweep(cli.build_parser().parse_args(argv))
    assert info.value.field == "model_path"


def test_sweep_requires_axis(tmp_path, small_model_path, capsys):
    assert run("sweep", "--model", small_model_path,
               "--out", tmp_path / "sw") == 2
    assert "sweep axis" in capsys.readouterr().err


def test_sweep_failed_cell_marked_not_fatal(tmp_path, small_model_path):
    # 5 s at stride 100 leaves 3 samples: that cell fails, the other succeeds
    out = tmp_path / "sw"
    assert run("sweep", "--model", small_model_path, "--axis", "stride",
               "--values", "1", "100", "--t-obs", "5", "--seed", "1",
               "--estimator", "UML", "--out", out) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    cells = {float(r.split(",")[0]): r.split(",")[3] for r in rows}
    assert float(cells[1.0]) > 0.0
    assert cells[100.0] == "nan"
    manifest = load_records(out / "manifest.csv")
    assert manifest["failed_cells"] == "1"


def test_sweep_computes_covariances_once_per_window(tmp_path, small_model_path,
                                                    monkeypatch):
    # stride 100 leaves 6 samples: a deficit window, failed once per tag
    # without computing its covariances.  The sweep never builds a
    # trajectory: one fold per group of seeds yields every other window's pair
    calls = count_covariance_calls(monkeypatch)
    folds = []

    def counting_fold(chunks, windows):
        folds.append(list(windows))
        return estimators.fold_covariances(chunks, windows)

    monkeypatch.setattr(cli, "fold_covariances", counting_fold)
    out = tmp_path / "sw"
    assert run("sweep", "--model", small_model_path, "--axis", "stride",
               "--values", "1", "3", "100", "--t-obs", "10", "--seed", "1",
               "--estimator", "UML", "CML", "--out", out) == 0
    assert calls[0] == 0
    assert folds == [[(600, 1), (600, 3)]]
    rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [r[1] for r in rows if r[3] == "nan"] == ["CML", "UML"]
    assert load_records(out / "manifest.csv")["failed_cells"] == "2"


def _sweep_files(out) -> dict[str, bytes]:
    return {name: (out / name).read_bytes()
            for name in ("sweep.csv", "sweep_mean.csv", "manifest.csv")}


def _sweep_kill_threshold(model_path, seed: int, t_obs: float,
                          stride: int) -> float:
    """The LASSO kill threshold of one seed's stride window in `sweep`,
    from the same steady run and fold as the command's."""
    _, cont, disc = cli._build_systems(str(model_path), DT_BASE)
    window = (round(t_obs / DT_BASE), stride)

    def pair(x0, blocks):
        chunks = itertools.chain([x0[:, None]], blocks)
        return estimators.fold_covariances(chunks, [window])[0][0]

    (cov,) = sim.steady_blocks(disc, [seed], default_burn_in(cont),
                               window[0] - 1, pair)
    return lasso_kill_threshold(cov)


def test_sweep_cell_with_an_all_zero_fit_fails(tmp_path, fixture_model_path,
                                               capsys):
    # lambda is twice the window's kill threshold, so every fit is zero
    kill = _sweep_kill_threshold(fixture_model_path, 1, 60.0, 3)
    lam = 2.0 * kill
    out = tmp_path / "sw"
    assert run("sweep", "--model", fixture_model_path, "--axis", "stride",
               "--values", "3", "--t-obs", "60", "--estimator", "LASSO",
               "SPARSE_LOW_RANK", "--lambda", repr(lam), "--eta",
               repr(5.0 * lam), "--seed", "1", "--out", out) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines == ["axis_value,estimator,seed,eps", "3.0,LASSO,1,nan",
                     "3.0,SPARSE_LOW_RANK,1,nan"]
    assert load_records(out / "manifest.csv")["failed_cells"] == "2"
    err = capsys.readouterr().err.splitlines()
    assert err == [f"cell failed (value=3.0, {tag}, seed=1): {tag} fit is all "
                   f"zero: lambda={lam!r}, this window's "
                   f"lasso_kill_threshold={kill!r}"
                   for tag in ("LASSO", "SPARSE_LOW_RANK")]


def test_all_zero_check_leaves_a_uml_cml_sweep_byte_identical(
        tmp_path, fixture_model_path, monkeypatch, capsys):
    def sweep(out):
        assert run("sweep", "--model", fixture_model_path, "--axis", "stride",
                   "--values", "1", "3", "--t-obs", "40", "--seed", "1", "2",
                   "--estimator", "UML", "CML", "--out", out) == 0
        return _sweep_files(out)

    checked = sweep(tmp_path / "checked")
    fit = cli._fit
    monkeypatch.setattr(cli, "_fit", lambda *args: (*fit(*args)[:3], None))
    assert sweep(tmp_path / "unchecked") == checked
    assert "failed" not in capsys.readouterr().err


@pytest.mark.parametrize("axis,values,fixed", [
    ("stride", ["1", "3", "7"], ["--t-obs", "40"]),
    ("t_obs", ["10", "25", "40"], ["--stride", "2"]),
])
def test_sweep_rerun_is_byte_identical(tmp_path, fixture_model_path, axis,
                                       values, fixed):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert run("sweep", "--model", fixture_model_path, "--axis", axis,
                   "--values", *values, *fixed, "--seed", "3", "1", "2",
                   "--estimator", "UML", "CML", "--out", out) == 0
    assert _sweep_files(outs[0]) == _sweep_files(outs[1])


def test_sweep_t_obs_cells_match_one_window_sweeps(tmp_path,
                                                   fixture_model_path):
    # the windows of one stride share one fold, with the bits of a fold of
    # each window alone
    def sweep(out, *values):
        assert run("sweep", "--model", fixture_model_path, "--axis", "t_obs",
                   "--values", *values, "--stride", "2", "--seed", "1", "2",
                   "--estimator", "UML", "CML", "--out", out) == 0
        return (out / "sweep.csv").read_text().splitlines()[1:]

    rows = sweep(tmp_path / "all", "10", "25", "40")
    for value in ("10", "25", "40"):
        alone = sweep(tmp_path / value, value)
        assert alone == [r for r in rows if r.startswith(f"{float(value)!r},")]

def test_sweep_seed_rows_do_not_depend_on_other_seeds(tmp_path,
                                                      fixture_model_path):
    # alone, a seed is stepped beside an idle row; together, beside the other
    def seed_rows(seeds):
        out = tmp_path / "-".join(seeds)
        assert run("sweep", "--model", fixture_model_path, "--axis", "stride",
                   "--values", "1", "3", "--t-obs", "40", "--seed", *seeds,
                   "--estimator", "UML", "CML", "--out", out) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        return {seed: [r for r in rows if r.split(",")[2] == seed]
                for seed in seeds}

    together = seed_rows(["1", "2"])
    for seed in ("1", "2"):
        assert len(together[seed]) == 4
        assert seed_rows([seed])[seed] == together[seed]


def test_sweep_cells_match_simulate_then_estimate(tmp_path, fixture_model_path):
    # the streamed fold agrees with the file pipeline up to the rounding of
    # the batched Euler step
    model = ["--model", fixture_model_path]
    assert run("simulate", *model, "--t-obs", "40", "--seed", "4",
               "--out", tmp_path / "sim") == 0
    assert run("sweep", *model, "--axis", "stride", "--values", "2",
               "--t-obs", "40", "--seed", "4", "--estimator", "UML", "CML",
               "--out", tmp_path / "sw") == 0
    assert run("estimate", tmp_path / "sim" / "traj_seed4.csv", *model,
               "--stride", "2", "--estimator", "UML", "CML",
               "--out", tmp_path / "est") == 0
    for row in (tmp_path / "sw" / "sweep.csv").read_text().splitlines()[1:]:
        tag, eps = row.split(",")[1], float(row.split(",")[3])
        ref = float(load_records(tmp_path / "est" / f"ahat_d_{tag.lower()}.meta")
                    ["eps"])
        assert eps == pytest.approx(ref, rel=1e-9)


def test_sweep_rejects_nonpositive_t_obs_value(tmp_path, small_model_path,
                                               capsys):
    assert run("sweep", "--model", small_model_path, "--axis", "t_obs",
               "--values", "0", "10", "--out", tmp_path / "sw") == 2
    assert ("sweep_values must be finite and positive"
            in capsys.readouterr().err)


def test_sweep_rejects_t_obs_values_that_share_a_window(tmp_path,
                                                       small_model_path, capsys):
    # both round to 1800 steps of 1/60 s, which would run the same cells twice
    assert run("sweep", "--model", small_model_path, "--axis", "t_obs",
               "--values", "30", "30.001", "--seed", "1",
               "--out", tmp_path / "sw") == 2
    assert ("validation error: sweep_values 30.0 and 30.001 give the same "
            "window of 1800 samples at stride 3") in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_sweep_rejects_non_integer_stride_value(tmp_path, small_model_path,
                                                capsys):
    argv = ["sweep", "--model", str(small_model_path), "--axis", "stride",
            "--values", "2.5", "3", "--t-obs", "20", "--seed", "1",
            "--out", str(tmp_path / "sw")]
    assert main(argv) == 2
    assert "stride values must be integers" in capsys.readouterr().err
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(ValidationError) as info:
        args.func(args)
    assert info.value.field == "sweep_values"
    # 3 parses as 3.0 and stays a valid stride
    assert run("sweep", "--model", small_model_path, "--axis", "stride",
               "--values", "3", "--t-obs", "20", "--seed", "1",
               "--out", tmp_path / "ok") == 0


# the penalties sit below both windows' LASSO kill thresholds (0.45 at
# stride 1, 0.15 at stride 3), so every cell is a fit, not A = 0
@pytest.mark.parametrize("tag,flags,recorded", [
    ("LASSO", ["--lambda", "0.05"], {"lam": "0.05"}),
    ("SPARSE_LOW_RANK", ["--lambda", "0.05", "--eta", "0.25"],
     {"lam": "0.05", "eta": "0.25"}),
    ("TIKHONOV", ["--nu", "100"], {"nu": "100.0"}),
])
def test_sweep_applies_and_records_penalties(tmp_path, small_model_path, tag,
                                             flags, recorded):
    def sweep(out, *extra):
        assert run("sweep", "--model", small_model_path, "--axis", "stride",
                   "--values", "1", "3", "--t-obs", "20", "--seed", "1",
                   "--estimator", tag, "--out", out, *extra) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        return [float(r.split(",")[3]) for r in rows], load_records(
            out / "manifest.csv")

    base, base_manifest = sweep(tmp_path / "zero")
    cells, manifest = sweep(tmp_path / "pen", *flags)
    assert all(np.isfinite(base)) and all(np.isfinite(cells))
    assert all(c != b for c, b in zip(cells, base))
    assert {k: base_manifest[k] for k in ("nu", "lam", "eta")} == \
        {"nu": "0.0", "lam": "0.0", "eta": "0.0"}
    assert {k: manifest[k] for k in recorded} == recorded


def test_sweep_rejects_negative_penalty(tmp_path, small_model_path, capsys):
    assert run("sweep", "--model", small_model_path, "--axis", "stride",
               "--values", "3", "--t-obs", "20", "--estimator", "LASSO",
               "--lambda", "-1", "--out", tmp_path / "sw") == 2
    assert "lambda must be finite and nonnegative" in capsys.readouterr().err


def test_sweep_manifest_records_every_setting_it_reads(tmp_path,
                                                       small_model_path):
    out = tmp_path / "sw"
    assert run("sweep", "--model", small_model_path, "--axis", "stride",
               "--values", "1", "3", "--t-obs", "20", "--seed", "1",
               "--estimator", "CML", "--out", out) == 0
    manifest = load_records(out / "manifest.csv")
    assert manifest["t_obs"] == "20.0"
    assert manifest["estimators"] == "CML"
    assert "threshold" not in manifest
    assert (manifest["model"], manifest["axis"], manifest["values"]) == \
        (str(small_model_path), "stride", "1.0 3.0")
    # the base step is a constant, recorded after the model path
    keys = list(manifest)
    assert keys[keys.index("model_path") + 1] == "dt_base"
    assert manifest["dt_base"] == repr(DT_BASE)
    # where the tables went does not change them, so reruns elsewhere match
    assert "outputs" not in manifest


def test_sweep_manifest_records_versions(tmp_path, small_model_path):
    out = tmp_path / "sw"
    assert run("sweep", "--model", small_model_path, "--axis", "stride",
               "--values", "1", "--t-obs", "20", "--seed", "1",
               "--out", out) == 0
    manifest = load_records(out / "manifest.csv")
    assert manifest["numpy_version"] == np.__version__
    assert manifest["swingid_version"] == swingid.__version__
    assert list(manifest)[-3:] == ["failed_cells", "numpy_version",
                                   "swingid_version"]


# ------------------------------------------- seed groups on the forked helper

_STRIDES = ["--axis", "stride", "--values", "1", "3", "--t-obs", "40",
            "--estimator", "UML", "CML"]
_HELPED_SWEEPS = {
    "one-seed": _STRIDES + ["--seed", "1"],
    "two-seeds": _STRIDES + ["--seed", "2", "1"],
    "three-seeds": _STRIDES + ["--seed", "3", "1", "2"],
    "ten-seeds": _STRIDES + ["--seed", *map(str, range(1, 11))],
    "t_obs": ["--axis", "t_obs", "--values", "10", "25", "40", "--stride", "2",
              "--estimator", "UML", "CML", "--seed", "3", "1", "2"],
    # stride 200 leaves 18 samples; lambda, set in the test above seed 1's
    # kill threshold, kills that seed's stride-3 LASSO fit
    "failing-cells": ["--axis", "stride", "--values", "3", "200", "--t-obs",
                      "60", "--estimator", "CML", "LASSO", "--seed", "1", "2",
                      "3"],
}


def _sweep_outputs(out, capsys, argv) -> tuple[dict[str, bytes], str]:
    assert run("sweep", *argv, "--out", out) == 0
    return _sweep_files(out), capsys.readouterr().err


@pytest.mark.parametrize("name", list(_HELPED_SWEEPS))
def test_sweep_on_the_helper_writes_the_serial_bytes_and_messages(
        tmp_path, fixture_model_path, monkeypatch, capsys, forks, name):
    argv = ["--model", fixture_model_path, *_HELPED_SWEEPS[name]]
    if name == "failing-cells":
        kill = _sweep_kill_threshold(fixture_model_path, 1, 60.0, 3)
        argv += ["--lambda", repr(2.0 * kill)]
    helped = _sweep_outputs(tmp_path / "helped", capsys, argv)
    assert len(forks) == (name != "one-seed")
    assert serially(monkeypatch, _sweep_outputs, tmp_path / "serial", capsys,
                    argv) == helped
    assert len(forks) == (name != "one-seed")
    assert_reaped(forks)
    failed = [re.match(r"cell failed \(value=(.*), (.*), seed=(\d)\): ", line)
              for line in helped[1].splitlines()]
    if name == "failing-cells":
        # seed by seed, then by value, then by estimator, as the cells run
        cells = [(int(m[3]), float(m[1]), m[2]) for m in failed]
        assert cells == sorted(cells, key=lambda c: (c[0], c[1], c[2] != "CML"))
        assert [c for c in cells if c[1] == 200.0] == [
            (seed, 200.0, tag) for seed in (1, 2, 3) for tag in ("CML", "LASSO")]
        assert (1, 3.0, "LASSO") in cells
    else:
        assert failed == []


def test_sweep_finishes_the_group_of_a_helper_killed_mid_run(
        tmp_path, fixture_model_path, monkeypatch, capsys, forks):
    argv = ["--model", fixture_model_path, *_HELPED_SWEEPS["ten-seeds"]]
    serial = serially(monkeypatch, _sweep_outputs, tmp_path / "serial", capsys,
                      argv)
    caller, real = os.getpid(), cli.fold_covariances

    def dying(chunks, windows):
        def cut():
            for i, chunk in enumerate(chunks):
                if i == 5 and os.getpid() != caller:
                    os.kill(os.getpid(), signal.SIGKILL)
                yield chunk
        return real(cut(), windows)

    monkeypatch.setattr(cli, "fold_covariances", dying)
    assert _sweep_outputs(tmp_path / "helped", capsys, argv) == serial
    assert len(forks) == 1
    assert_reaped(forks)


def _run_forcing_the_helper(argv, before="") -> subprocess.CompletedProcess:
    """`swingid argv` in a fresh interpreter with the helper forced on,
    after the code `before`; stdout ends with the exit code, the number of
    helpers forked and whether each was reaped."""
    src = Path(swingid.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    script = f"""
import os
import numpy as np
from swingid import cli, sim
{before}
pids, real_fork = [], os.fork
def fork():
    pid = real_fork()
    if pid:
        pids.append(pid)
    return pid
os.fork = fork
sim._helper_allowed = lambda: True
code = cli.main({[str(a) for a in argv]!r})
def reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
print("exit", code, "helpers", len(pids), "reaped", all(map(reaped, pids)))
"""
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


def test_diverging_bound_warns_in_neither_process(tmp_path, fixture_model_path):
    # at stride 10 the Euler step grows 1.0228-fold; 18,000 samples after
    # the burn-in overflow Sigma_0 in all three trials, two of them in the
    # helper, whose np.errstate is inherited from the caller
    done = _run_forcing_the_helper(
        ["bound", "--model", fixture_model_path, "--stride", "10", "--t-obs",
         "3000", "--trials", "3", "--out", tmp_path / "b.csv"])
    assert done.stdout.splitlines()[-1] == "exit 2 helpers 1 reaped True"
    assert done.stderr.splitlines() == [
        "validation error: all Monte Carlo trials discarded (3 of 3 with "
        "non-finite sigma0, the rest singular): the forward-Euler step at "
        "dt=0.16666666666666666 s has spectral radius 1.0228161, so a trial "
        "can grow 2.9e+178-fold over its 18215 steps"]


def test_bound_on_the_helper_after_a_threaded_matmul_finishes(
        tmp_path, fixture_model_path, monkeypatch, capsys):
    # a large product wakes OpenBLAS's thread pool before the helper forks
    argv = ["bound", "--model", fixture_model_path, "--t-obs", "60",
            "--trials", "10", "--seed", "4"]
    done = _run_forcing_the_helper(
        argv + ["--out", tmp_path / "helped.csv"],
        before="big = np.ones((1000, 1000)); big @ big")
    lines = done.stdout.splitlines()
    assert lines[-1] == "exit 0 helpers 1 reaped True"
    # nothing but the warning on stride 3's unstable Euler step
    assert done.stderr.splitlines() == [_UNSTABLE_STEP_60S[3]]
    assert serially(monkeypatch, run, *argv,
                    "--out", tmp_path / "serial.csv") == 0
    assert lines[:-1] == capsys.readouterr().out.splitlines()
    assert ((tmp_path / "helped.csv").read_bytes()
            == (tmp_path / "serial.csv").read_bytes())


@pytest.mark.parametrize("argv,field", [
    (["simulate", "--t-obs", "inf"], "t_obs"),
    (["simulate", "--t-obs", "nan"], "t_obs"),
    (["bound", "--t-obs", "inf", "--trials", "2"], "t_obs"),
    (["sweep", "--axis", "t_obs", "--values", "inf"], "sweep_values"),
    (["sweep", "--axis", "t_obs", "--values", "10", "nan"], "sweep_values"),
])
def test_non_finite_times_exit_2_naming_the_field(tmp_path, small_model_path,
                                                  capsys, argv, field):
    code = run(*argv, "--model", small_model_path, "--out", tmp_path / "o")
    assert code == 2
    assert (f"validation error: {field} must be finite and positive"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv,field", [
    (["simulate", "--t-obs", "1e308"], "t_obs"),
    (["bound", "--t-obs", "1e308", "--trials", "2"], "t_obs"),
    (["sweep", "--axis", "stride", "--values", "1", "2", "--t-obs", "1e308"],
     "t_obs"),
    (["sweep", "--axis", "t_obs", "--values", "10", "1e308"], "sweep_values"),
], ids=["simulate", "bound", "sweep-stride", "sweep-t_obs"])
def test_times_too_long_to_count_exit_2_naming_the_field(
        tmp_path, small_model_path, capsys, argv, field):
    # 1e308 s is finite, but not in base steps of 1/60 s
    out = tmp_path / "o"
    assert run(*argv, "--model", small_model_path, "--out", out) == 2
    assert capsys.readouterr() == ("", (
        f"validation error: {field}: 1e+308 s is too long to count in base "
        f"steps of dt_base={DT_BASE!r} s\n"))
    assert not out.exists()


@pytest.mark.parametrize("old,new,message", [
    ("0,1,2.0,1.0,0.01", "0,1,nan,1.0,0.01",
     "M must be positive and finite on generator 0"),
    ("0,1,2.0,1.0,0.01", "0,1,2.0,inf,0.01",
     "D must be positive and finite on generator 0"),
    ("1,1,3.0,0.8,0.01", "1,1,3.0,0.8,inf",
     "sigma_P must be nonnegative and finite on generator 1"),
    ("0,1,3.0", "0,1,nan", "beta must be positive and finite on line (0, 1)"),
    ("1,2,4.0", "1,2,4.0,inf",
     "gamma must be nonnegative and finite on line (1, 2)"),
], ids=["M", "D", "sigma_P", "beta", "gamma"])
def test_non_finite_model_parameter_exits_2_naming_it(tmp_path,
                                                      small_model_path, capsys,
                                                      old, new, message):
    # NaN fails every comparison and inf passes `> 0`: kron printed NaN
    # rows and simulate failed inside numpy before the check named them
    text = small_model_path.read_text()
    assert f"\n{old}\n" in text
    small_model_path.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
    assert run("kron", small_model_path) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"validation error: {message}\n")
    assert run("simulate", "--model", small_model_path,
               "--out", tmp_path / "o") == 2
    assert f"validation error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section,line,message", [
    # the base step is the constant sim.DT_BASE, not a setting
    ("generation", "dt_base = 0.016666666666666666",
     "[generation] dt_base is not a known setting"),
    ("estimation", "lamda = 5", "[estimation] lamda is not a known setting"),
    # the conditioning and solver limits are constants, not settings
    ("estimation", "cond_threshold = 1e12",
     "[estimation] cond_threshold is not a known setting"),
    ("estimation", "solver_tol = 1e-6",
     "[estimation] solver_tol is not a known setting"),
    ("estimation", "solver_max_iter = 100000",
     "[estimation] solver_max_iter is not a known setting"),
    # the known zeros are always cleared
    ("estimation", "threshold = true",
     "[estimation] threshold is not a known setting"),
    ("generation", "seeds = 3 -1",
     "seeds must be a non-empty list of nonnegative integers"),
    ("generation", "seeds = 1, 2, 1",
     "seeds must be a non-empty list of nonnegative integers, without repeats"),
    ("estimation", "estimators = CML UML CML",
     "estimators must be a non-empty list from UML CML TIKHONOV LASSO "
     "SPARSE_LOW_RANK, without repeats"),
    ("sweep", "values = 3 3.0",
     "sweep_values must be finite and positive, without repeats"),
])
def test_bad_config_setting_exits_2(tmp_path, small_model_path, capsys,
                                    section, line, message):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[model]\npath = {small_model_path}\n\n[{section}]\n{line}\n")
    assert run("simulate", "--config", cfg, "--out", tmp_path / "o") == 2
    assert f"validation error: {cfg}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["simulate"], ["bound", "--trials", "2"],
    ["sweep", "--axis", "stride", "--values", "3"]])
def test_negative_seed_exits_2_naming_seeds(tmp_path, small_model_path, capsys,
                                            command):
    # numpy's own message names no setting
    code = run(*command, "--model", small_model_path, "--seed", "1", "-1",
               "--out", tmp_path / "o")
    assert code == 2
    assert ("validation error: seeds must be a non-empty list of nonnegative "
            "integers, without repeats, got (1, -1)") in capsys.readouterr().err


@pytest.mark.parametrize("argv,field", [
    (["simulate", "--seed", "1", "1"], "seeds"),
    (["bound", "--trials", "2", "--seed", "2", "2"], "seeds"),
    (["sweep", "--axis", "stride", "--values", "3", "3", "--seed", "1", "2"],
     "sweep_values"),
    (["sweep", "--axis", "t_obs", "--values", "30", "30.0"], "sweep_values"),
    (["sweep", "--axis", "stride", "--values", "3", "--estimator", "CML",
      "CML"], "estimators"),
])
def test_repeated_list_entries_exit_2_naming_the_setting(
        tmp_path, small_model_path, capsys, argv, field):
    # a repeat would run, write and average the same cell twice
    code = run(*argv, "--model", small_model_path, "--out", tmp_path / "o")
    assert code == 2
    err = capsys.readouterr().err
    assert f"validation error: {field} must be" in err
    assert "without repeats" in err
    assert not (tmp_path / "o").exists()


# ------------------------------------------------------------------------ eigen

def test_eigen_against_itself(tmp_path, small_model_path, traj_path, capsys):
    est = tmp_path / "est"
    run("estimate", traj_path, "--model", small_model_path, "--stride", "3",
        "--estimator", "CML", "--out", est)
    matrix = est / "ahat_d_cml.csv"
    assert run("eigen", matrix, "--against", matrix,
               "--out", tmp_path / "eig.csv") == 0
    out = capsys.readouterr().out
    assert "spectral_distance,0.0" in out
    table = (tmp_path / "eig.csv").read_text().splitlines()
    assert table[0] == "re,im,source"
    assert len(table) == 1 + 6 + 6


def test_eigen_truth_model_comparison(tmp_path, small_model_path, traj_path, capsys):
    est = tmp_path / "est"
    run("estimate", traj_path, "--model", small_model_path, "--stride", "3",
        "--estimator", "CML", "--out", est)
    assert run("eigen", est / "ahat_d_cml.csv", "--model", small_model_path,
               "--out", tmp_path / "eig.csv") == 0
    out = capsys.readouterr().out
    distance = float(out.split("spectral_distance,")[1].split()[0])
    assert 0.0 < distance < 1.0


@pytest.mark.parametrize("tol", ["nan", "-0.01"])
def test_eigen_rejects_bad_zero_mode_tol(tmp_path, tol, capsys):
    matrix = tmp_path / "a.csv"
    save_matrix(matrix, np.diag([-1.0, 0.0]))
    assert run("eigen", matrix, "--zero-mode-tol", tol) == 2
    assert "zero_mode_tol" in capsys.readouterr().err


def test_eigen_takes_model_or_against_not_both(tmp_path, small_model_path,
                                               capsys):
    matrix = tmp_path / "a.csv"
    save_matrix(matrix, np.diag([-1.0, 0.0]))
    with pytest.raises(SystemExit) as info:
        run("eigen", matrix, "--model", small_model_path, "--against", matrix)
    assert info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_eigen_dimension_mismatch(tmp_path, small_model_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,0.0\n0.0,1.0\n")
    assert run("eigen", bad, "--model", small_model_path) == 2
    assert "generators" in capsys.readouterr().err


# ------------------------------------------------------------------ bound / kron

def test_bound_reports_both_envelopes(tmp_path, small_model_path, capsys):
    out = tmp_path / "bound.csv"
    assert run("bound", "--model", small_model_path, "--stride", "3",
               "--t-obs", "15", "--epsilon", "0.1", "--trials", "10",
               "--seed", "5", "--out", out) == 0
    records = load_records(out)
    assert float(records["rhs_discrete"]) > 0.0
    assert float(records["rhs_continuous"]) > 0.0
    printed = capsys.readouterr().out
    assert "rhs_discrete" in printed and "rhs_continuous" in printed


@pytest.mark.parametrize("t_obs,n_samples", [("0.01", 1), ("0.4", 8)],
                         ids=["1", "8"])
def test_bound_rejects_a_window_of_2n_plus_2_samples_or_fewer(
        tmp_path, small_model_path, t_obs, n_samples, capsys):
    # three generators at stride 3: 2N+2 = 8 samples is too few, and 0.01 s
    # rounds to one base step, which keeps one sample
    argv = ["bound", "--model", str(small_model_path), "--t-obs", t_obs,
            "--trials", "3", "--out", str(tmp_path / "b.csv")]
    assert run(*argv) == 2
    assert capsys.readouterr().err == (
        f"validation error: sample deficit: {n_samples} samples after "
        "striding, but the covariance is only invertible for T > 2N+2 = 8\n")
    assert not (tmp_path / "b.csv").exists()
    # the message estimate and sweep give, naming the window's length
    with pytest.raises(ValidationError) as info:
        cli.cmd_bound(cli.build_parser().parse_args(argv))
    assert info.value.field == "t_obs"


@pytest.mark.parametrize("t_obs,stride,n_samples", [
    ("100", 7, 858), ("10.01", 4, 151), ("15", 3, 300), ("2.5", 1, 150)])
def test_bound_counts_the_samples_estimate_keeps(tmp_path, small_model_path,
                                                 t_obs, stride, n_samples):
    # T is ceil(round(t_obs / dt_base) / stride), the rows a stride keeps of
    # a simulate run of t_obs; rounding t_obs / (stride * dt_base) gave 857
    # and 150 for the first two
    assert run("simulate", "--model", small_model_path, "--t-obs", t_obs,
               "--out", tmp_path / "sim") == 0
    kept = load_trajectory(tmp_path / "sim" / "traj_seed1.csv", stride)
    assert kept.n_samples == n_samples
    assert run("bound", "--model", small_model_path, "--t-obs", t_obs,
               "--stride", stride, "--trials", "2",
               "--out", tmp_path / "b.csv") == 0
    assert load_records(tmp_path / "b.csv")["n_samples"] == str(n_samples)


# "auto" in each id is the burn-in the model sets
@pytest.mark.parametrize("stride,steps", [
    pytest.param(1, 2151, id="auto-1-2151"),
    pytest.param(3, 717, id="auto-3-717"),
    pytest.param(4, 538, id="auto-4-538"),
    pytest.param(10, 216, id="auto-10-216")])
def test_bound_runs_the_base_step_burn_in_over_the_stride(
        tmp_path, fixture_model_path, fixture_systems, stride, steps):
    # the model's burn-in counts base steps; the bound steps at
    # stride * DT_BASE, so it runs ceil(burn-in / stride) steps
    assert steps == -(-default_burn_in(fixture_systems[0]) // stride)
    out = tmp_path / "b.csv"
    assert run("bound", "--model", fixture_model_path, "--stride", stride,
               "--t-obs", "10", "--trials", "2", "--out", out) == 0
    assert load_records(out)["burn_in"] == str(steps)


def test_bound_noiseless_unstable_step_warns_without_overflow(
        tmp_path, fixture_grid, capsys):
    # radius ** steps passes the largest float here; no trial runs without
    # noise, so a 1e6 s window finishes at once
    quiet = tmp_path / "quiet.grid"
    save_model(quiet, replace(fixture_grid, noise_sigma=dict.fromkeys(
        fixture_grid.noise_sigma, 0.0)))
    out = tmp_path / "b.csv"
    assert run("bound", "--model", quiet, "--stride", "10", "--t-obs", "1e6",
               "--trials", "2", "--out", out) == 0
    captured = capsys.readouterr()
    assert captured.out == "rhs_discrete,0.0\nrhs_continuous,0.0\n"
    records = load_records(out)
    assert records["rhs_discrete"] == records["rhs_continuous"] == "0.0"
    steps = int(records["burn_in"]) + int(records["n_samples"]) - 1
    assert steps == 216 + 6_000_000 - 1
    radius = float(records["step_spectral_radius"])
    (line,) = captured.err.splitlines()
    match = re.fullmatch(
        r"warning: the forward-Euler step at dt=0\.16666666666666666 s has "
        r"spectral radius 1\.0228161, so a trial can grow "
        r"(\d\.\d\d)e\+(\d+)-fold over its 6000215 steps", line)
    assert match
    exponent = steps * np.log10(radius)
    assert int(match[2]) == int(exponent)
    assert float(match[1]) == pytest.approx(10 ** (exponent % 1), rel=5e-3)


def test_bound_names_diverged_trials(tmp_path, fixture_model_path, capsys):
    # the forward-Euler step at stride 10 (1/6 s) is unstable on the fixture
    code = run("bound", "--model", fixture_model_path, "--stride", "10",
               "--t-obs", "600", "--trials", "3", "--out", tmp_path / "b.csv")
    assert code == 2
    err = capsys.readouterr().err
    # a 600 s window stays finite, so every trial is singular
    assert err.splitlines() == [
        "validation error: all Monte Carlo trials discarded (0 of 3 with "
        "non-finite sigma0, the rest singular): the forward-Euler step at "
        "dt=0.16666666666666666 s has spectral radius 1.0228161, so a trial "
        "can grow 2.39e+37-fold over its 3815 steps"]
    assert "Warning" not in err
    assert not (tmp_path / "b.csv").exists()


def test_bound_records_burn_in_model_hash_and_versions(tmp_path,
                                                      small_model_path):
    out = tmp_path / "b.csv"
    assert run("bound", "--model", small_model_path, "--trials", "1",
               "--t-obs", "60", "--out", out) == 0
    records = load_records(out)
    new = {"model_sha256", "burn_in", "numpy_version", "swingid_version"}
    assert [k for k in records if k not in new] == [
        "model", "dt", "step_spectral_radius", "n_samples", "epsilon", "n_trials", "n_discarded",
        "seed", "trace_sigma0_mean", "inv_norm_mean", "rhs_discrete",
        "rhs_continuous"]
    assert records["model_sha256"] == hashlib.sha256(
        small_model_path.read_bytes()).hexdigest()
    assert records["numpy_version"] == np.__version__
    assert records["swingid_version"] == swingid.__version__
    # the default burn-in, in steps of the bound's dt (stride 3)
    disc = systems_for(path3_model(), 3 * DT_BASE)[1]
    report = analysis.theorem1_bound(disc, 1200, 0.1, 1, int(records["seed"]),
                                     burn_in=249)
    assert records["burn_in"] == "249"
    assert records["rhs_discrete"] == repr(report.rhs)


def test_bound_records_the_step_spectral_radius(tmp_path, fixture_model_path,
                                                capsys):
    # forward Euler on the fixture is marginal at stride 1 and unstable at
    # stride 4, where every trial still stays finite
    def radius(stride, t_obs):
        out = tmp_path / f"b{stride}.csv"
        assert run("bound", "--model", fixture_model_path, "--stride", stride,
                   "--t-obs", t_obs, "--trials", "2", "--out", out) == 0
        return float(load_records(out)["step_spectral_radius"])

    assert abs(radius(1, 10) - 1.0) <= 1e-12
    assert radius(4, 60) > 1.001
    # where every trial is discarded, the message names the same radius
    unstable = radius(10, 10)
    capsys.readouterr()
    assert run("bound", "--model", fixture_model_path, "--stride", "10",
               "--t-obs", "600", "--trials", "2") == 2
    assert capsys.readouterr().err == (
        f"validation error: all Monte Carlo trials discarded (0 of 2 with "
        f"non-finite sigma0, the rest singular): the forward-Euler step at "
        f"dt=0.16666666666666666 s has spectral radius {unstable:.8g}, so a "
        f"trial can grow 2.39e+37-fold over its 3815 steps\n")


# bound's warnings for the fixture's Euler step over a 60 s window: its
# radius is 1 to rounding at strides 1 and 2, and above 1 at strides 3
# and 4, where the run steps ceil(2151 / stride) + 60 / dt - 1 times
_UNSTABLE_STEP_60S = {
    3: "warning: the forward-Euler step at dt=0.05 s has spectral radius "
       "1.0000384, so a trial can grow 1.08-fold over its 1916 steps",
    4: "warning: the forward-Euler step at dt=0.06666666666666667 s has "
       "spectral radius 1.0013616, so a trial can grow 7.07-fold over its "
       "1437 steps",
}


@pytest.mark.parametrize("stride", [1, 2, 3, 4])
def test_bound_warns_of_an_unstable_euler_step(tmp_path, fixture_model_path,
                                               capsys, stride):
    # the run still exits 0 and writes its report
    out = tmp_path / "b.csv"
    assert run("bound", "--model", fixture_model_path, "--stride", stride,
               "--t-obs", "60", "--trials", "2", "--out", out) == 0
    assert capsys.readouterr().err.splitlines() == (
        [_UNSTABLE_STEP_60S[stride]] if stride in _UNSTABLE_STEP_60S else [])
    assert int(load_records(out)["n_trials"]) == 2


@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
def test_bound_with_more_than_one_seed_exits_2(tmp_path, small_model_path,
                                               capsys, by_config):
    # the trials come from one seed; a second one was once dropped silently
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[model]\npath = {small_model_path}\n\n"
                   "[generation]\nseeds = 1 2\n")
    argv = (("--config", cfg) if by_config
            else ("--model", small_model_path, "--seed", "1", "2"))
    assert run("bound", *argv, "--trials", "2", "--out", tmp_path / "b.csv") == 2
    assert ("validation error: seeds must be one seed for bound, got (1, 2)"
            in capsys.readouterr().err)
    assert not (tmp_path / "b.csv").exists()


def test_kron_on_fixture(tmp_path, fixture_model_path):
    out = tmp_path / "red.csv"
    assert run("kron", fixture_model_path, "--out", out) == 0
    reduced = load_matrix(out)
    assert reduced.shape == (10, 10)
    assert np.allclose(reduced @ np.ones(10), 0.0, atol=1e-9)


def test_kron_prints_what_it_writes(tmp_path, capsys, fixture_model_path):
    assert run("kron", fixture_model_path, "--out", tmp_path / "red.csv") == 0
    capsys.readouterr()
    assert run("kron", fixture_model_path) == 0
    printed = tmp_path / "printed.csv"
    printed.write_text(capsys.readouterr().out)
    assert np.array_equal(load_matrix(printed), load_matrix(tmp_path / "red.csv"))


def test_kron_no_loads_returns_input_laplacian(tmp_path, small_model_path):
    out = tmp_path / "red.csv"
    assert run("kron", small_model_path, "--out", out) == 0
    reduced = load_matrix(out)
    expected = np.array([[3.0, -3.0, 0.0], [-3.0, 7.0, -4.0], [0.0, -4.0, 4.0]])
    assert np.allclose(reduced, expected)


# -------------------------------- the step cap of simulate, sweep and bound

_STEP_CAP_WORDS = "more than the 10000000000 steps in all one command may take"


@pytest.mark.parametrize("argv,field,runs", [
    pytest.param(["bound", "--t-obs", "1e9", "--trials", "2"], "t_obs",
                 "2 run(s) of 20000000716 Euler steps", id="bound"),
    pytest.param(["sweep", "--axis", "stride", "--values", "3",
                  "--t-obs", "1e306"], "t_obs", "1 run(s) of 6e+307 Euler steps",
                 id="sweep-stride"),
    pytest.param(["sweep", "--axis", "t_obs", "--values", "60", "1e12",
                  "--seed", "1", "2", "3"], "sweep_values",
                 "3 run(s) of 60000000002150 Euler steps", id="sweep-t_obs"),
    pytest.param(["simulate", "--t-obs", "60"], "model_path",
                 "1 run(s) of 59999999854 burn-in steps of the model",
                 id="simulate-burn-in"),
    pytest.param(["sweep", "--axis", "t_obs", "--values", "60"], "model_path",
                 "1 run(s) of 59999999854 burn-in steps of the model",
                 id="sweep-burn-in"),
    pytest.param(["bound", "--t-obs", "60", "--trials", "2"], "model_path",
                 "2 run(s) of 19999999952 burn-in steps of the model",
                 id="bound-burn-in"),
])
def test_a_run_past_the_step_cap_exits_2_before_stepping(
        tmp_path, fixture_model_path, monkeypatch, capsys, argv, field, runs):
    # seeds or trials x (burn-in + window steps); bound's trials step
    # ceil(2151 / 3) burn-in steps and 2e10 - 1 more at stride 3.  Where the
    # burn-ins alone pass the cap the model is named: two weakly tied
    # generators' slowest mode is about -2 beta / D = -2e-9 per second, so a
    # 3,600-sample window follows 6e10 burn-in steps (a third at stride 3)
    model = fixture_model_path
    if field == "model_path":
        model = tmp_path / "slow.grid"
        save_model(model, two_gen_model(d=(0.5, 0.5), beta=5e-10))

    def never(*args):
        raise AssertionError("forked or stepped past the step cap")

    monkeypatch.setattr(os, "fork", never)
    monkeypatch.setattr(sim, "_advance", never)
    out = tmp_path / "new" / "out"
    started = time.perf_counter()
    assert run(*argv, "--model", model, "--out", out) == 2
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"validation error: {field}: {runs}, {_STEP_CAP_WORDS}\n")
    assert not out.parent.exists()
    parsed = cli.build_parser().parse_args(
        [str(a) for a in (*argv, "--model", model, "--out", out)])
    with pytest.raises(ValidationError) as info:
        parsed.func(parsed)
    assert info.value.field == field


def test_the_step_cap_admits_a_run_of_exactly_its_steps(
        tmp_path, small_model_path, monkeypatch, capsys):
    # 2 trials of ceil(746 / 3) burn-in steps and 199 window steps at stride 3
    argv = ["bound", "--model", small_model_path, "--t-obs", "10",
            "--trials", "2"]
    monkeypatch.setattr(cli, "MAX_STEP_ROWS", 2 * (249 + 199))
    assert run(*argv) == 0
    monkeypatch.setattr(cli, "MAX_STEP_ROWS", 2 * (249 + 199) - 1)
    capsys.readouterr()
    assert run(*argv) == 2
    assert capsys.readouterr().err == (
        "validation error: t_obs: 2 run(s) of 448 Euler steps, more than the "
        "895 steps in all one command may take\n")


class _Counted(Exception):
    pass


def test_benchmark_runs_and_studies_stay_far_under_the_step_cap(
        tmp_path, fixture_model_path, fixture_systems, monkeypatch):
    # the benchmark's 10-minute simulate, stride sweep over 10 seeds and
    # 100-trial bound, each counted and stopped before it steps
    counted = []

    def count(runs, steps, burn_in, field):
        counted.append(runs * steps)
        raise _Counted

    monkeypatch.setattr(cli, "_check_steps", count)
    seeds = [str(s) for s in range(1, 12)]
    for argv in (["simulate", "--t-obs", "600", "--out", tmp_path / "sim"],
                 ["sweep", "--axis", "stride", "--values", "1", "2", "3", "5",
                  "10", "--t-obs", "600", "--estimator", "UML", "CML",
                  "--seed", *seeds[:10], "--out", tmp_path / "sweep"],
                 ["bound", "--stride", "3", "--t-obs", "600", "--trials",
                  "100", "--seed", seeds[10]]):
        with pytest.raises(_Counted):
            run(*argv, "--model", fixture_model_path)
    burn_in = default_burn_in(fixture_systems[0])
    assert counted == [burn_in + 35999, 10 * (burn_in + 35999),
                       100 * (-(-burn_in // 3) + 11999)]
    # acceptance criteria 3-5 (50 seeds of 20 minutes) and 6 (500 trials of
    # 1,000 samples) through the library, were they run as one command
    counted += [50 * (burn_in + 72000 - 1), 500 * (746 + 1000 - 1)]
    assert max(counted) * 1000 < cli.MAX_STEP_ROWS


# ------------------------------------------------------- config + flag override

def test_config_with_flag_override(tmp_path, small_model_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"""\
[model]
path = {small_model_path}

[generation]
t_obs = 5
seeds = 9

[outputs]
dir = {tmp_path / 'cfg_out'}
""")
    assert run("simulate", "--config", cfg) == 0
    assert (tmp_path / "cfg_out" / "traj_seed9.csv").exists()
    # the flag wins over the config value
    assert run("simulate", "--config", cfg, "--t-obs", "2",
               "--out", tmp_path / "ovr") == 0
    traj = load_trajectory(tmp_path / "ovr" / "traj_seed9.csv")
    assert traj.n_samples == 120


def test_removed_base_step_flag_exits_2(capsys):
    # the base step is the constant sim.DT_BASE, not a setting
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--model", "m.grid", "--dt-base", "0.02"])
    assert info.value.code == 2
    assert "unrecognized arguments: --dt-base 0.02" in capsys.readouterr().err


def test_removed_burn_in_flag_exits_2(capsys):
    # the burn-in is the model's, sim.default_burn_in, not a setting
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--model", "m.grid", "--burn-in", "7"])
    assert info.value.code == 2
    assert "unrecognized arguments: --burn-in 7" in capsys.readouterr().err


def test_removed_burn_in_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[model]\npath = m.grid\n[generation]\nburn_in = auto\n")
    out = tmp_path / "out"
    assert run("simulate", "--config", cfg, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"validation error: {cfg}: [generation] burn_in is not a known "
        "setting\n")
    assert not out.exists()


# each command's config flags, written out so that a flag added to or taken
# from a command shows up here
CONFIG_FLAGS = {
    "simulate": {"--model", "--out", "--seed", "--t-obs"},
    "estimate": {"--model", "--out", "--stride", "--estimator", "--nu",
                 "--lambda", "--eta"},
    "bound": {"--model", "--seed", "--stride", "--t-obs"},
}
CONFIG_FLAGS["sweep"] = CONFIG_FLAGS["estimate"] | {"--seed", "--t-obs",
                                                    "--axis", "--values"}
# every other option of each subcommand, -h and --help aside
OWN_FLAGS = {
    "simulate": {"--config"},
    "estimate": {"--config", "--a-prev"},
    "sweep": {"--config"},
    "bound": {"--config", "--epsilon", "--trials", "--out"},
    "eigen": {"--model", "--against", "--zero-mode-tol", "--out"},
    "kron": {"--out"},
}
# one text per flag, which must read as the same text under its INI key does;
# lists are written with commas
FLAG_TEXTS = {"--model": "m.grid", "--t-obs": "30.5",
              "--seed": "1,2", "--stride": "4",
              "--estimator": "CML,LASSO", "--nu": "0.5",
              "--lambda": "1e-3", "--eta": "2", "--out": "res",
              "--axis": "t_obs", "--values": "3,5"}


def _write_ini(path, entries: dict[tuple[str, str], str]):
    sections: dict[str, list[str]] = {}
    for (section, key), text in entries.items():
        sections.setdefault(section, []).append(f"{key} = {text}\n")
    path.write_text("".join(f"[{section}]\n" + "".join(lines)
                            for section, lines in sections.items()))
    return path


@pytest.mark.parametrize("command,flag", sorted(
    (command, flag) for command, flags in CONFIG_FLAGS.items()
    for flag in flags))
def test_flag_reads_as_its_ini_key(tmp_path, command, flag):
    setting = next(s for s in SETTINGS if s.flag == flag)
    text = FLAG_TEXTS[flag]
    base = {("model", "path"): "base.grid", ("sweep", "values"): "7"}
    base_ini = _write_ini(tmp_path / "base.ini", base)
    from_ini = load_config(_write_ini(
        tmp_path / "key.ini", {**base, (setting.section, setting.key): text}))
    argv = [command, "--config", str(base_ini)]
    if command == "estimate":
        argv.append("traj.csv")
    argv += [flag, text]
    from_flag = cli._config_from_args(cli.build_parser().parse_args(argv))
    assert from_flag == from_ini
    # the text sets a value other than the base one
    assert (getattr(from_flag, setting.field)
            != getattr(load_config(base_ini), setting.field))


@pytest.mark.parametrize("command", sorted(OWN_FLAGS))
def test_help_lists_each_flag_and_names_each_setting(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    config = CONFIG_FLAGS.get(command, set())
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text)) == \
        {"--help"} | config | OWN_FLAGS[command]
    for setting in SETTINGS:
        if setting.flag in config:
            assert f"[{setting.section}] {setting.key}" in text


@pytest.mark.parametrize("argv,message", [
    (["estimate", "t.csv", "--stride", "2.5"],
     "stride is not an integer: '2.5'"),
    (["simulate", "--seed", "1,x"], "seeds is not a list of integers: '1,x'"),
    (["estimate", "t.csv", "--estimator", "FOO"],
     "estimators must be a non-empty list from UML CML TIKHONOV LASSO "
     "SPARSE_LOW_RANK, without repeats, got ('FOO',)"),
    (["sweep", "--axis", "foo", "--values", "3"],
     "sweep_variable must be one of stride t_obs, got 'foo'"),
], ids=["stride", "seeds", "estimators", "sweep_variable"])
def test_bad_flag_text_exits_2_naming_the_setting(tmp_path, capsys, argv,
                                                  message):
    assert run(*argv, "--out", tmp_path / "o") == 2
    assert f"validation error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,bad", [
    (["estimate", "{dir}"], "dir"),
    (["simulate", "--model", "{dir}"], "dir"),
    (["simulate", "--model", "{model}", "--out", "{file}"], "file"),
    (["eigen", "{dir}"], "dir"),
    (["kron", "{dir}"], "dir"),
    (["bound", "--model", "{model}", "--trials", "2", "--out", "{dir}"], "dir"),
], ids=["estimate", "simulate-model", "simulate-out", "eigen", "kron", "bound"])
def test_directory_or_file_in_place_of_the_other_exits_2(
        tmp_path, small_model_path, capsys, argv, bad):
    paths = {"dir": tmp_path / "a_dir", "file": tmp_path / "a_file",
             "model": small_model_path}
    paths["dir"].mkdir()
    paths["file"].write_text("x\n")
    assert run(*[a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ")
    assert str(paths[bad]) in err
