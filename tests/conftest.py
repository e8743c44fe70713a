from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from swingid import sim
from swingid.model import (GridModel, Line, build_continuous, build_discrete,
                           build_laplacian, kron_reduce)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_MODEL = REPO_ROOT / "models" / "fixture10.grid"

# one line per acceptance criterion, flushed after the run so the report
# survives output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def single_gen_model(m=1.0, d=1.0, sigma=0.01) -> GridModel:
    return GridModel(n_nodes=1, generator_ids=(0,), inertia={0: m},
                     damping={0: d}, noise_sigma={0: sigma}, lines=())


def two_gen_model(m=(1.0, 1.0), d=(1.0, 1.0), beta=1.0,
                  sigma=(0.01, 0.01)) -> GridModel:
    return GridModel(n_nodes=2, generator_ids=(0, 1),
                     inertia={0: m[0], 1: m[1]}, damping={0: d[0], 1: d[1]},
                     noise_sigma={0: sigma[0], 1: sigma[1]},
                     lines=(Line(0, 1, beta),))


def path3_model() -> GridModel:
    # three generators on a path, mixed parameters
    return GridModel(n_nodes=3, generator_ids=(0, 1, 2),
                     inertia={0: 2.0, 1: 3.0, 2: 4.0},
                     damping={0: 1.0, 1: 0.8, 2: 1.2},
                     noise_sigma={0: 0.01, 1: 0.01, 2: 0.01},
                     lines=(Line(0, 1, 3.0), Line(1, 2, 4.0)))


def systems_for(model: GridModel, dt: float):
    reduced = kron_reduce(build_laplacian(model), model.generator_ids)
    cont = build_continuous(model, reduced)
    return cont, build_discrete(cont, dt)


@pytest.fixture(scope="session")
def fixture_model_path() -> Path:
    assert FIXTURE_MODEL.exists(), "run scripts/make_fixture.py first"
    return FIXTURE_MODEL


@pytest.fixture(scope="session")
def fixture_grid(fixture_model_path):
    from swingid.io_config import load_model
    return load_model(fixture_model_path)


@pytest.fixture(scope="session")
def fixture_systems(fixture_grid):
    return systems_for(fixture_grid, 1.0 / 60.0)


_pos = st.floats(min_value=0.5, max_value=5.0, allow_nan=False)
_damp = st.floats(min_value=0.5, max_value=2.0, allow_nan=False)
_beta = st.floats(min_value=0.5, max_value=10.0, allow_nan=False)
_sig = st.floats(min_value=0.0, max_value=0.05, allow_nan=False)


@st.composite
def grid_models(draw, max_nodes: int = 6) -> GridModel:
    """Random connected grids: a spanning tree plus optional chords."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = set()
    for node in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        edges.add((parent, node))
    n_extra = draw(st.integers(min_value=0, max_value=3))
    for _ in range(n_extra):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        if i != j:
            edges.add((min(i, j), max(i, j)))
    gens = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                               min_size=1, max_size=n)))
    return GridModel(
        n_nodes=n,
        generator_ids=tuple(gens),
        inertia={g: draw(_pos) for g in gens},
        damping={g: draw(_damp) for g in gens},
        noise_sigma={g: draw(_sig) for g in gens},
        lines=tuple(Line(i, j, draw(_beta)) for i, j in sorted(edges)),
    )


def random_trajectory_states(rng: np.random.Generator, n_samples: int,
                             n_gen: int) -> np.ndarray:
    return rng.standard_normal((n_samples, 2 * n_gen))


# ------------------------------------------------- the forked helper

@pytest.fixture()
def forks(monkeypatch):
    """Force the helper on, whatever the CPU count, and list the pid of
    every process forked while the test runs."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(sim, "_helper_allowed", lambda: True)
    return pids


def serially(monkeypatch, call, *args):
    """call(*args) on the forced-serial path."""
    with monkeypatch.context() as m:
        m.setattr(sim, "_helper_allowed", lambda: False)
        return call(*args)


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
