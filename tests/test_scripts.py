"""The reproduction scripts run end to end through the command-line interface."""

from __future__ import annotations

import importlib.util
import math

import pytest

from swingid.cli import main as swingid
from swingid.io_config import load_records, save_model

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


@pytest.mark.parametrize("n_gen,loads,radius", [
    (10, 29, 0.20), (30, 87, 0.13), (60, 174, 0.10), (100, 290, 0.08)])
def test_make_fixture_scales_loads_and_radius_with_the_generators(
        n_gen, loads, radius):
    script = _load_script("make_fixture")
    assert script.n_loads(n_gen) == loads
    assert script.radius_for(n_gen) == radius


def test_make_fixture_n_gen_flag_writes_the_grid_of_its_rule(tmp_path, capsys):
    script = _load_script("make_fixture")
    path = tmp_path / "fixture30.grid"
    assert script.main(["--n-gen", "30", "--out", str(path)]) == 0
    assert "nodes=117 generators=30" in capsys.readouterr().out
    save_model(tmp_path / "ref.grid", script.make_fixture(12, 30))
    assert path.read_bytes() == (tmp_path / "ref.grid").read_bytes()


def test_thirty_generator_grid_end_to_end(tmp_path, capsys):
    # CML at 600 s and stride 3 over seeds 1-5 of the N = 30 grid read
    # 0.0524, 0.0468, 0.0497, 0.0502 and 0.0495; the bound is the worst
    # of them plus 15%
    bound = 0.06
    script = _load_script("make_fixture")
    model = tmp_path / "fixture30.grid"
    save_model(model, script.make_fixture(12, 30))
    out = tmp_path / "run"
    assert swingid(["simulate", "--model", str(model), "--t-obs", "600",
                    "--seed", "1", "--out", str(out)]) == 0
    assert swingid(["estimate", str(out / "traj_seed1.csv"), "--model",
                    str(model), "--stride", "3", "--estimator", "CML",
                    "--out", str(out)]) == 0
    eps = float(load_records(out / "ahat_d_cml.meta")["eps"])
    assert eps < bound
    assert swingid(["eigen", str(out / "ahat_d_cml.csv"), "--model",
                    str(model)]) == 0
    printed = capsys.readouterr().out
    assert len(printed.split("critical:")[1].split()) >= 1
    distance = float(printed.split("spectral_distance,")[1].split()[0])
    assert 0.0 < distance < 0.1
    # the other four seeds through sweep, whose fold agrees with the file
    # pipeline up to the rounding of the batched Euler step
    sweep = tmp_path / "sweep"
    assert swingid(["sweep", "--model", str(model), "--axis", "stride",
                    "--values", "3", "--t-obs", "600", "--seed", "1", "2", "3",
                    "4", "5", "--estimator", "CML", "--out", str(sweep)]) == 0
    cells = [float(row.split(",")[3]) for row in
             (sweep / "sweep.csv").read_text().splitlines()[1:]]
    assert len(cells) == 5 and cells[0] == pytest.approx(eps, rel=1e-9)
    assert max(cells) < bound
