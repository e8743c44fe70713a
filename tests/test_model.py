from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swingid.model import (ContinuousSystem, DiscreteSystem, GridModel,
                           KronReductionError, Line, ValidationError,
                           build_continuous, build_discrete, build_laplacian,
                           kron_reduce)

from conftest import grid_models, single_gen_model, systems_for, two_gen_model


# ------------------------------------------------------------ model validation

def test_rejects_self_loop():
    with pytest.raises(ValidationError, match="self-loop"):
        GridModel(n_nodes=2, generator_ids=(0,), inertia={0: 1}, damping={0: 1},
                  noise_sigma={0: 0.0}, lines=(Line(0, 0, 1.0),))


def test_rejects_duplicate_line():
    with pytest.raises(ValidationError, match="duplicate line"):
        GridModel(n_nodes=2, generator_ids=(0,), inertia={0: 1}, damping={0: 1},
                  noise_sigma={0: 0.0}, lines=(Line(0, 1, 1.0), Line(1, 0, 2.0)))


def test_rejects_nonpositive_beta():
    # NaN fails every comparison and inf passes `> 0`, so both are named
    for beta in (-1.0, np.nan, np.inf):
        with pytest.raises(ValidationError,
                           match="beta must be positive") as err:
            GridModel(n_nodes=2, generator_ids=(0,), inertia={0: 1},
                      damping={0: 1}, noise_sigma={0: 0.0},
                      lines=(Line(0, 1, beta),))
        assert err.value.field == "lines"
    for gamma in (-1.0, np.nan, np.inf):
        with pytest.raises(ValidationError,
                           match="gamma must be nonnegative") as err:
            GridModel(n_nodes=2, generator_ids=(0,), inertia={0: 1},
                      damping={0: 1}, noise_sigma={0: 0.0},
                      lines=(Line(0, 1, 1.0, gamma),))
        assert err.value.field == "lines"


def test_rejects_nonpositive_inertia_and_damping():
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="M must be positive") as err:
            GridModel(n_nodes=1, generator_ids=(0,), inertia={0: bad},
                      damping={0: 1}, noise_sigma={0: 0.0}, lines=())
        assert err.value.field == "inertia"
        with pytest.raises(ValidationError, match="D must be positive") as err:
            GridModel(n_nodes=1, generator_ids=(0,), inertia={0: 1.0},
                      damping={0: bad}, noise_sigma={0: 0.0}, lines=())
        assert err.value.field == "damping"


def test_rejects_negative_noise():
    for sigma in (-0.1, np.nan, np.inf):
        with pytest.raises(ValidationError, match="sigma_P") as err:
            GridModel(n_nodes=1, generator_ids=(0,), inertia={0: 1},
                      damping={0: 1}, noise_sigma={0: sigma}, lines=())
        assert err.value.field == "noise_sigma"


def test_rejects_disconnected_graph():
    with pytest.raises(ValidationError, match="not connected"):
        GridModel(n_nodes=3, generator_ids=(0, 1, 2),
                  inertia={k: 1 for k in range(3)},
                  damping={k: 1 for k in range(3)},
                  noise_sigma={k: 0.0 for k in range(3)},
                  lines=(Line(0, 1, 1.0),))


def test_rejects_bad_generator_ids():
    with pytest.raises(ValidationError, match="out of range"):
        GridModel(n_nodes=2, generator_ids=(0, 5), inertia={0: 1, 5: 1},
                  damping={0: 1, 5: 1}, noise_sigma={0: 0.0, 5: 0.0},
                  lines=(Line(0, 1, 1.0),))
    with pytest.raises(ValidationError, match="duplicate generator"):
        GridModel(n_nodes=2, generator_ids=(0, 0), inertia={0: 1},
                  damping={0: 1}, noise_sigma={0: 0.0}, lines=(Line(0, 1, 1.0),))


@given(grid_models())
@settings(max_examples=50)
def test_random_models_validate(model):
    assert model.n_gen >= 1
    assert model._connected()


# -------------------------------------------------------------- build_laplacian

def test_laplacian_single_line():
    model = two_gen_model(beta=1.0)
    assert np.array_equal(build_laplacian(model), [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_path():
    model = GridModel(n_nodes=3, generator_ids=(0,), inertia={0: 1},
                      damping={0: 1}, noise_sigma={0: 0.0},
                      lines=(Line(0, 1, 2.0), Line(1, 2, 3.0)))
    expected = [[2.0, -2.0, 0.0], [-2.0, 5.0, -3.0], [0.0, -3.0, 3.0]]
    assert np.array_equal(build_laplacian(model), expected)


@given(grid_models())
@settings(max_examples=50)
def test_laplacian_zero_row_sums_and_psd(model):
    lap = build_laplacian(model)
    assert np.allclose(lap @ np.ones(model.n_nodes), 0.0, atol=1e-12)
    assert np.array_equal(lap, lap.T)
    assert np.min(np.linalg.eigvalsh(lap)) > -1e-9


# ------------------------------------------------------------------ kron_reduce

def test_kron_all_generators_is_identity_op():
    model = two_gen_model(beta=2.0)
    lap = build_laplacian(model)
    assert np.array_equal(kron_reduce(lap, model.generator_ids), lap)


def test_kron_series_line():
    # g - l - g with unit lines reduces to an effective half susceptance
    lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    reduced = kron_reduce(lap, (0, 2))
    assert np.allclose(reduced, [[0.5, -0.5], [-0.5, 0.5]])


def test_kron_star_of_three():
    # three generators around one central load, all unit lines
    lap = np.zeros((4, 4))
    for g in (0, 1, 2):
        lap[g, g] += 1.0
        lap[3, 3] += 1.0
        lap[g, 3] = lap[3, g] = -1.0
    reduced = kron_reduce(lap, (0, 1, 2))
    expected = np.full((3, 3), -1.0 / 3.0) + np.eye(3)
    assert np.allclose(reduced, expected)


def test_kron_disconnected_load_errors():
    # load pair (1,2) with no path to the generator: singular load block
    lap = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
    with pytest.raises(KronReductionError, match="disconnected"):
        kron_reduce(lap, (0,))


@given(grid_models())
@settings(max_examples=50)
def test_kron_result_is_reduced_laplacian(model):
    reduced = kron_reduce(build_laplacian(model), model.generator_ids)
    n = model.n_gen
    assert reduced.shape == (n, n)
    assert np.allclose(reduced, reduced.T, atol=1e-10)
    assert np.allclose(reduced @ np.ones(n), 0.0, atol=1e-9)
    off = reduced - np.diag(np.diag(reduced))
    assert np.all(off <= 1e-10)
    assert np.min(np.linalg.eigvalsh(reduced)) > -1e-9


@given(grid_models(), st.randoms(use_true_random=False))
@settings(max_examples=30)
def test_kron_commutes_with_generator_relabeling(model, rnd):
    lap = build_laplacian(model)
    gens = list(model.generator_ids)
    shuffled = gens.copy()
    rnd.shuffle(shuffled)
    base = kron_reduce(lap, gens)
    permuted = kron_reduce(lap, shuffled)
    pos = {g: k for k, g in enumerate(gens)}
    for a, ga in enumerate(shuffled):
        for b, gb in enumerate(shuffled):
            assert permuted[a, b] == pytest.approx(base[pos[ga], pos[gb]],
                                                   abs=1e-12)


# ------------------------------------------------- build_continuous / discrete

def test_continuous_single_generator():
    model = single_gen_model(m=1.0, d=1.0)
    cont = build_continuous(model, np.zeros((1, 1)))
    assert np.array_equal(cont.a_d, [[0.0, 1.0], [0.0, -1.0]])


def test_continuous_two_generator_blocks():
    model = two_gen_model(beta=1.0)
    cont = build_continuous(model, build_laplacian(model))
    assert np.array_equal(cont.a_d[2:, :2], [[-1.0, 1.0], [1.0, -1.0]])
    assert np.array_equal(cont.a_d[2:, 2:], np.diag([-1.0, -1.0]))


def test_continuous_dimension_mismatch():
    with pytest.raises(ValidationError, match="reduced Laplacian"):
        build_continuous(two_gen_model(), np.zeros((3, 3)))


@given(grid_models())
@settings(max_examples=50)
def test_continuous_invariants(model):
    cont, _ = systems_for(model, 1.0 / 60.0)
    n = model.n_gen
    assert np.array_equal(cont.a_d[:n, :n], np.zeros((n, n)))
    assert np.array_equal(cont.a_d[:n, n:], np.eye(n))
    assert np.allclose(cont.a_d[n:, :n] @ np.ones(n), 0.0, atol=1e-9)
    lower_right = cont.a_d[n:, n:]
    assert np.array_equal(lower_right, np.diag(np.diag(lower_right)))
    assert np.all(np.diag(lower_right) < 0.0)
    assert np.array_equal(cont.noise_scale[:n], np.zeros(n))
    assert np.all(cont.noise_scale[n:] >= 0.0)


def test_discrete_degenerate_zero_dynamics():
    cont = ContinuousSystem(n_gen=1, a_d=np.zeros((2, 2)),
                            noise_scale=np.zeros(2))
    disc = build_discrete(cont, 0.5)
    assert np.array_equal(disc.a, np.eye(2))


def test_discrete_single_generator_step():
    model = single_gen_model(m=1.0, d=1.0)
    cont = build_continuous(model, np.zeros((1, 1)))
    disc = build_discrete(cont, 1.0 / 60.0)
    assert np.allclose(disc.a, [[1.0, 1.0 / 60.0], [0.0, 59.0 / 60.0]])


def test_discrete_noise_scale_formula():
    model = single_gen_model(m=2.0, sigma=0.01)
    cont = build_continuous(model, np.zeros((1, 1)))
    disc = build_discrete(cont, 1.0 / 60.0)
    assert disc.b_diag[0] == 0.0
    assert disc.b_diag[1] == pytest.approx(0.01 / (2.0 * np.sqrt(60.0)))


def test_discrete_rejects_nonpositive_dt():
    cont = build_continuous(single_gen_model(), np.zeros((1, 1)))
    with pytest.raises(ValidationError, match="dt must be positive"):
        build_discrete(cont, 0.0)


@given(grid_models(), st.floats(min_value=1e-4, max_value=1.0, allow_nan=False))
@settings(max_examples=50)
def test_discrete_continuous_roundtrip(model, dt):
    cont, disc = systems_for(model, dt)
    recovered = (disc.a - np.eye(2 * model.n_gen)) / dt
    assert np.allclose(recovered, cont.a_d, atol=1e-10)


@given(grid_models())
@settings(max_examples=50)
def test_exactly_one_zero_mode_rest_stable(model):
    cont, _ = systems_for(model, 1.0 / 60.0)
    eigs = np.linalg.eigvals(cont.a_d)
    near_zero = np.abs(eigs) < 1e-9 * max(1.0, np.max(np.abs(eigs)))
    assert np.count_nonzero(near_zero) == 1
    assert np.all(eigs[~near_zero].real < 0.0)


def test_type_shape_validation():
    with pytest.raises(ValidationError):
        ContinuousSystem(n_gen=1, a_d=np.zeros((3, 3)), noise_scale=np.zeros(2))
    with pytest.raises(ValidationError):
        DiscreteSystem(n_gen=1, a=np.eye(2), b_diag=np.zeros(3), dt=0.1)
    with pytest.raises(ValidationError):
        DiscreteSystem(n_gen=1, a=np.eye(2), b_diag=np.zeros(2), dt=-1.0)
