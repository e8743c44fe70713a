"""The reproduction scripts run end to end through the command-line interface."""

from __future__ import annotations

import importlib.util
import math

from swingid.io_config import save_model

from conftest import FIXTURE_MODEL, REPO_ROOT


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mean_table(path) -> dict[tuple[float, str], tuple[float, int]]:
    lines = path.read_text().splitlines()
    assert lines[0] == "axis_value,estimator,mean_eps,n_seeds"
    table = {}
    for line in lines[1:]:
        value, tag, eps, n = line.split(",")
        table[float(value), tag] = float(eps), int(n)
    return table


def test_run_error_sweeps_writes_both_mean_tables(tmp_path, capsys):
    script = _load_script("run_error_sweeps")
    assert script.main(["--seeds", "2", "--out", str(tmp_path)]) == 0
    for subdir, grid in (("t_obs_sweep", script.T_OBS_GRID),
                         ("stride_sweep", script.STRIDE_GRID)):
        table = _mean_table(tmp_path / subdir / "sweep_mean.csv")
        assert sorted(table) == sorted((float(v), tag) for v in grid
                                       for tag in ("CML", "UML"))
        for eps, n_seeds in table.values():
            assert n_seeds == 2 and math.isfinite(eps) and eps > 0.0
    # more data helps, and the physical support helps most on short windows
    t_obs = _mean_table(tmp_path / "t_obs_sweep" / "sweep_mean.csv")
    assert t_obs[1200.0, "CML"][0] < t_obs[60.0, "CML"][0]
    assert t_obs[60.0, "CML"][0] < t_obs[60.0, "UML"][0]
    printed = capsys.readouterr().out
    assert "t_obs [s]" in printed and "stride" in printed


def test_run_spectral_check_writes_both_spectra(tmp_path, capsys):
    script = _load_script("run_spectral_check")
    assert script.main(["--t-obs", "60", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectra.csv").read_text().splitlines()
    assert lines[0] == "re,im,source"
    sources = [line.split(",")[2] for line in lines[1:]]
    assert sources == ["estimate"] * 20 + ["truth"] * 20
    printed = capsys.readouterr().out
    critical = printed.split("critical:")[1].splitlines()[0].split()
    assert len(critical) == 2
    distance = float(printed.split("spectral_distance,")[1].split()[0])
    assert 0.0 < distance < 1.0


def test_make_fixture_writes_the_shipped_model(tmp_path):
    script = _load_script("make_fixture")
    path = tmp_path / "fixture10.grid"
    save_model(path, script.make_fixture(12))
    assert path.read_bytes() == FIXTURE_MODEL.read_bytes()
