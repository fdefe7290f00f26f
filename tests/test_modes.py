"""Mode-set construction, parity closure, and presets."""

import json

import numpy as np
import pytest

from polaronlab import grid as grid_module
from polaronlab import modes as modes_module
from polaronlab import pekar, resolvent
from polaronlab.grid import Grid3
from polaronlab.modes import ModeSet, axis_pair, mode_preset


def test_axis_pair_and_parity():
    ks, ws = axis_pair(0.5, 0, 2.0)
    ms = ModeSet(ks, ws)
    assert ms.M == 2
    assert list(ms.parity) == [1, 0]
    assert np.allclose(ms.coupling_constants, 1.0 / np.pi)


def test_rejects_zero_mode():
    with pytest.raises(ValueError):
        ModeSet(np.array([[0.0, 0, 0], [0.5, 0, 0]]), np.array([1.0, 1.0]))


def test_rejects_unpaired_mode():
    with pytest.raises(ValueError, match="parity"):
        ModeSet(np.array([[0.5, 0, 0], [1.0, 0, 0]]), np.array([1.0, 1.0]))


def test_positive_weights_required():
    ks, _ = axis_pair(0.5, 0, 1.0)
    with pytest.raises(ValueError):
        ModeSet(ks, np.array([1.0, -1.0]))


def test_coupling_fields_reject_incommensurate_grid():
    ms = mode_preset("pair-x", 4 * np.pi)
    assert ms.coupling_fields(Grid3(8, 4 * np.pi)).shape == (2, 8, 8, 8)
    with pytest.raises(ValueError):
        ms.coupling_fields(Grid3(8, 10.0))


def test_axis_groups_split_presets_and_merge_off_axis_modes():
    for name, axes in [("pair-x", (0,)), ("quad-xy", (0, 1)), ("hex-xyz", (0, 1, 2))]:
        ms = mode_preset(name, 4.0 * np.pi)
        assert ms.axis_groups == ((0,), (1,), (2,))
        assert ms.coupled_axes == axes
        want = [[0, 1], [2, 3], [4, 5]][: len(axes)] + [[]] * (3 - len(axes))
        assert [idx.tolist() for idx in ms.group_modes] == want
    # pair-x plus the diagonal pair +-(0.5, 0.5, 0): x and y form one group
    px = mode_preset("pair-x", 4.0 * np.pi)
    diag = np.array([[0.5, 0.5, 0.0], [-0.5, -0.5, 0.0]])
    ms = ModeSet(np.vstack([px.k_vectors, diag]), np.concatenate([px.weights, [16.0, 16.0]]))
    assert ms.axis_groups == ((0, 1), (2,))
    assert ms.coupled_axes == (0, 1)
    assert [idx.tolist() for idx in ms.group_modes] == [[0, 1, 2, 3], []]
    diag_only = ModeSet(diag, np.array([16.0, 16.0]))
    assert diag_only.axis_groups == ((0, 1), (2,))
    assert diag_only.coupled_axes == (0, 1)


def test_span_basis_takes_the_first_independent_vectors():
    # a parity partner adds no direction; the diagonal pair spans fewer axes
    # (one) than its group holds (two)
    assert mode_preset("hex-xyz", 4.0 * np.pi).span_basis.tolist() == [0, 2, 4]
    px = mode_preset("pair-x", 4.0 * np.pi)
    diag = np.array([[0.5, 0.5, 0.0], [-0.5, -0.5, 0.0]])
    ms = ModeSet(np.vstack([px.k_vectors, diag]), np.concatenate([px.weights, [16.0, 16.0]]))
    assert ms.span_basis.tolist() == [0, 2]
    assert ModeSet(diag, np.array([16.0, 16.0])).span_basis.tolist() == [0]


def test_presets_shapes():
    for name, M in [("pair-x", 2), ("quad-xy", 4), ("hex-xyz", 6)]:
        ms = mode_preset(name, 4 * np.pi)
        assert ms.M == M
        assert np.allclose(np.linalg.norm(ms.k_vectors, axis=1), 0.5)


def test_preset_requires_commensurate_box():
    with pytest.raises(ValueError):
        mode_preset("pair-x", 10.0)
    with pytest.raises(ValueError):
        mode_preset("no-such-preset", 4 * np.pi)


def test_coupling_fields_amplitude():
    grid = Grid3(8, 4 * np.pi)
    ms = mode_preset("pair-x", grid.box_length)
    g = ms.coupling_fields(grid)
    assert np.allclose(np.abs(g), 1.0 / np.pi)
    assert np.max(np.abs(g[1] - np.conj(g[0]))) <= 1e-15


def test_discrete_solve_builds_each_plane_wave_once(monkeypatch):
    # the coupling-field table is built once per solve, not once per sweep
    calls = []
    original = grid_module.plane_wave

    def counting(grid, k):
        calls.append(tuple(k))
        return original(grid, k)

    for module in (grid_module, modes_module, pekar, resolvent):
        if hasattr(module, "plane_wave"):
            monkeypatch.setattr(module, "plane_wave", counting)
    grid = Grid3(8, 4 * np.pi)
    ms = mode_preset("quad-xy", grid.box_length)
    dsol = pekar.solve_discrete_pekar(grid, ms, tol=1e-7)
    assert dsol.iterations > 1
    assert len(calls) <= ms.M


def test_mode_presets_as_written():
    # one +-0.5 pair of weight 16 per coupled axis, in axis order; the JSON
    # pins the bytes kernels.json and scalars.json carry, signed zeros included
    x, mx = [0.5, 0.0, 0.0], [-0.5, -0.0, -0.0]
    y, my = [0.0, 0.5, 0.0], [-0.0, -0.5, -0.0]
    z, mz = [0.0, 0.0, 0.5], [-0.0, -0.0, -0.5]
    want = {"pair-x": [x, mx], "quad-xy": [x, mx, y, my], "hex-xyz": [x, mx, y, my, z, mz]}
    for name, ks in want.items():
        for box in (4 * np.pi, 8 * np.pi):
            got = mode_preset(name, box).as_dict()
            assert json.dumps(got) == json.dumps({"k_vectors": ks, "weights": [16.0] * len(ks)})


def test_mode_sets_compare_and_hash_by_identity():
    # array fields: a generated == would raise on the ambiguous truth value
    a, b = mode_preset("quad-xy", 4 * np.pi), mode_preset("quad-xy", 4 * np.pi)
    assert a == a and a != b
    assert {a: "a", b: "b"}[a] == "a"
