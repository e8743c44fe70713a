"""The benchmark tracer must still cover the package.

perfbench/tracer.py refuses a package whose traced functions it cannot
patch, and perfbench/smoke.py checks a fixed set of binding sites.  Both
run only at benchmark time; these tests catch a change that breaks either.
"""

from __future__ import annotations

import importlib.util

import swingid
from swingid import analysis, cli, estimators, model, sim

from conftest import FIXTURE_MODEL, REPO_ROOT


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_covers_the_package():
    tracer = load_tracer().Tracer(swingid)
    assert tracer.binding_sites > 0
    assert "estimators.covariances" in tracer.wrapped


def test_smoke_binding_sites_exist():
    assert cli.estimate_cml is estimators.estimate_cml
    assert cli.covariances is estimators.covariances
    assert cli.kron_reduce is model.kron_reduce
    assert analysis.simulate is sim.simulate
    assert analysis.steady_start is sim.steady_start
    assert analysis.covariances is estimators.covariances
    systems = cli._build_systems(str(FIXTURE_MODEL), sim.DT_BASE)
    assert isinstance(systems[2], model.DiscreteSystem)


# the layers the text I/O and Euler-step timings are read from
HOT_LAYERS = {
    "sim.simulate": lambda: cli.sim.simulate,
    "io_config.save_trajectory": lambda: cli.io_config.save_trajectory,
    "io_config.load_trajectory": lambda: cli.io_config.load_trajectory,
}


def test_tracer_wraps_cli_bindings_of_the_hot_layers(tmp_path):
    tracer = load_tracer().Tracer(swingid)
    originals = {name: binding() for name, binding in HOT_LAYERS.items()}
    for name, fn in originals.items():
        assert tracer.wrapped[name] is fn
    tracer.install()
    try:
        for name, binding in HOT_LAYERS.items():
            assert binding().__wrapped__ is originals[name], name
        tracer.op = 0
        out = tmp_path / "out"
        assert cli.main(["simulate", "--model", str(FIXTURE_MODEL), "--t-obs",
                         "2", "--out", str(out)]) == 0
        assert cli.main(["estimate", str(out / "traj_seed1.csv"), "--stride",
                         "1", "--estimator", "UML", "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    assert all(binding() is originals[name]
               for name, binding in HOT_LAYERS.items())
    calls = {name: count for name, (_, count) in tracer.self_times([0]).items()}
    # the fixture's 2,151-step burn-in in 17 segments of STEP_CHUNK steps,
    # then the 120-sample window in one block
    assert {name: calls[name] for name in HOT_LAYERS} == {
        "sim.simulate": 18, "io_config.save_trajectory": 1,
        "io_config.load_trajectory": 1}
