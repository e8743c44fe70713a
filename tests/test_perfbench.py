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
