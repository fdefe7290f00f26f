"""Finite phonon mode sets: momentum quadrature points with parity closure,
their coupled axes and axis groups, and the table of coupling fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .grid import Grid3, plane_wave


@dataclass(frozen=True, eq=False)  # array fields: compare and hash by identity
class ModeSet:
    """Quadrature {k_i, w_i} over nonzero reciprocal vectors, closed under k -> -k.
    ``coupled_axes``: the axes some k_i has a component along; ``axis_groups``:
    the finest partition of the axes 0, 1, 2 with every k_i inside one group,
    over which a sum of plane waves e^{i k_i.x} separates; ``group_modes``: per
    axis group, the indices of the k_i inside it; ``span_basis``: the
    indices of the k_i, taken greedily in order, that form a basis of their span;
    ``span_pinv``: the pseudo-inverse of those k_i as rows, which takes their
    phases k_j.d to the least-squares (minimum-norm) displacement d."""

    k_vectors: np.ndarray  # (M, 3)
    weights: np.ndarray  # (M,)

    def __post_init__(self):
        k = np.ascontiguousarray(np.asarray(self.k_vectors, dtype=float))
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "k_vectors", k)
        object.__setattr__(self, "weights", w)
        if k.ndim != 2 or k.shape[1] != 3:
            raise ValueError("k_vectors must have shape (M, 3)")
        if w.shape != (k.shape[0],):
            raise ValueError("weights must have shape (M,)")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        norms = np.linalg.norm(k, axis=1)
        if np.any(norms < 1e-12):
            raise ValueError("k = 0 is not allowed in a ModeSet")
        object.__setattr__(self, "parity", self._build_parity())
        touched = [{a for a in range(3) if abs(ki[a]) > 1e-12} for ki in k]
        groups = [{a} for a in range(3)]
        for t in touched:
            merged = set().union(*(g for g in groups if g & t))
            groups = [g for g in groups if not g & t] + [merged]
        groups = tuple(sorted(tuple(sorted(g)) for g in groups))
        object.__setattr__(self, "coupled_axes", tuple(sorted(set().union(*touched))))
        object.__setattr__(self, "axis_groups", groups)
        object.__setattr__(self, "group_modes", tuple(
            np.flatnonzero([bool(t & set(g)) for t in touched]) for g in groups))
        ranks = [np.linalg.matrix_rank(k[: i + 1]) for i in range(k.shape[0])]
        basis = np.flatnonzero(np.diff(ranks, prepend=0))
        object.__setattr__(self, "span_basis", basis)
        object.__setattr__(self, "span_pinv", np.linalg.pinv(k[basis]))

    def _build_parity(self) -> np.ndarray:
        k = self.k_vectors
        par = np.full(k.shape[0], -1, dtype=int)
        for i in range(k.shape[0]):
            hits = np.where(np.all(np.abs(k + k[i]) < 1e-10, axis=1))[0]
            if hits.size != 1:
                raise ValueError(f"mode set is not parity-closed at k = {k[i]}")
            par[i] = hits[0]
        if not np.array_equal(par[par], np.arange(k.shape[0])):
            raise ValueError("parity map is not an involution")
        return par

    @property
    def M(self) -> int:
        return self.k_vectors.shape[0]

    @property
    def coupling_constants(self) -> np.ndarray:
        """c_i = 1 / (2 pi |k_i|), the amplitude of G_x(k_i)."""
        return 1.0 / (2.0 * np.pi * np.linalg.norm(self.k_vectors, axis=1))

    def coupling_fields(self, grid: Grid3) -> np.ndarray:
        """Every G_x(k_i) = exp(-i k_i . x) / (2 pi |k_i|) as one (M, n, n, n)
        array; ValueError if a k_i is not commensurate with the grid."""
        return np.stack([
            np.conj(plane_wave(grid, k).values) / (2.0 * np.pi * np.linalg.norm(k))
            for k in self.k_vectors
        ])

    def group_fields(self, G: np.ndarray) -> list:
        """Per axis group that modes act on, in ``axis_groups`` order: the
        group, the indices of its modes and their rows of the table G of
        ``coupling_fields`` on the group's n^|g| points, in C order over its
        axes.  Each G_x(k_i) is constant along the other axes, so it is read
        off G at their index 0."""
        out = []
        for g, idx in zip(self.axis_groups, self.group_modes):
            if idx.size:
                cut = tuple(slice(None) if a in g else 0 for a in range(3))
                out.append((g, idx, G[(slice(None), *cut)][idx].reshape(idx.size, -1)))
        return out

    def as_dict(self) -> dict:
        return {
            "k_vectors": self.k_vectors.tolist(),
            "weights": self.weights.tolist(),
        }


def axis_pair(k: float, axis: int, weight: float):
    """A +-k pair along one coordinate axis."""
    v = np.zeros(3)
    v[axis] = k
    return np.stack([v, -v]), np.array([weight, weight])


# preset -> number of coupled axes, each carrying one +-0.5 pair of weight 16
_PRESET_AXES = {"pair-x": 1, "quad-xy": 2, "hex-xyz": 3}


def mode_preset(name: str, box_length: float) -> ModeSet:
    """Named binding presets; |k| in {0.5, 1.0} requires box_length = 4 pi n.
    Both arguments come from the run configuration, so a bad one is a ConfigError."""
    base = 2.0 * np.pi / box_length
    if abs(base * round(0.5 / base) - 0.5) > 1e-9:
        raise ConfigError(
            f"box_length {box_length} is not commensurate with |k| = 0.5 modes"
        )
    if name not in _PRESET_AXES:
        raise ConfigError(f"unknown mode preset {name!r}")
    parts = [axis_pair(0.5, a, 16.0) for a in range(_PRESET_AXES[name])]
    return ModeSet(np.vstack([p[0] for p in parts]), np.concatenate([p[1] for p in parts]))
