"""Electron-sector operator algebra: h^phi0, its exact eigendecomposition,
the spectral gap, the restricted resolvent, and the quadratic-kernel
matrices K, G with the constant eps.

Every potential the discrete model builds is a sum of plane waves
e^{i k_i.x}, so h = sum_g (p_g^2 + V_g) separates over the finest groups of
axes that each contain whole mode vectors k_i.  Its eigenbasis is the tensor
product of small dense group eigenbases (fast diagonalisation: Lynch, Rice &
Thomas, Numer. Math. 6, 185 (1964)), which makes the gap, the resolvent and
the ground state of each discrete Pekar sweep exact rather than iterative.
The kernel table is read off the coupled groups' eigenbases; the full-grid
resolvent, checked by its FFT residual, is its independent route.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .config import InvariantError, NonConvergenceError, write_json
from .grid import Field, Grid3, apply_laplacian, save_array
from .modes import ModeSet


def cg(*args, **kwargs):
    """scipy's conjugate gradient, imported on the first call.  Nothing here
    calls it: bench/tracing.py counts CG iterations by patching
    ``resolvent.cg``, and this forwarder goes together with that patch
    (ROADMAP item 1)."""
    from scipy.sparse.linalg import cg

    return cg(*args, **kwargs)


class ResolventError(NonConvergenceError):
    pass


class GapError(InvariantError):
    pass


class KernelError(InvariantError, ValueError):
    """K is not symmetric, G not Hermitian, or an operator built from them not Hermitian."""


def apply_h(sol, f: Field) -> Field:
    """h^{phi0} f = p^2 f + V_eff f."""
    if f.grid != sol.grid:
        raise ValueError("field grid does not match the solution grid")
    return Field(apply_laplacian(f).values + sol.V_eff.values * f.values, f.grid)


@dataclass
class SeparableSpectrum:
    """h = p^2 + V for V = sum_g V_g(x_g), diagonalised group by group.

    ``bases[g]`` holds the l2-unit eigenvectors of p_g^2 + V_g on the n^|g|
    points of group g as columns, ``levels[g]`` their ascending eigenvalues.
    An uncoupled axis carries plane waves ordered by k^2, so its ground
    vector is exactly constant.  Eigenbasis coefficients are arrays of grid
    shape, a group's eigen index spread over its axes; index 0 is the ground.
    """

    grid: Grid3
    groups: tuple
    coupled: tuple  # per group: whether a mode couples to it
    bases: list
    levels: list

    def eigenvalues(self) -> np.ndarray:
        return sum(self._spread(self.levels))

    def ground(self):
        """(phi, lambda) of eigen index 0: the grid array of the product of
        the group ground vectors, and the sum of their levels."""
        phi = reduce(np.multiply, self._spread([u[:, 0] for u in self.bases]))
        return phi, float(sum(e[0] for e in self.levels))

    def _spread(self, arrays) -> list:
        """Per group, an array over its n^|g| points shaped to broadcast on the grid."""
        shapes = ([self.grid.n if a in g else 1 for a in range(3)] for g in self.groups)
        return [x.reshape(s) for x, s in zip(arrays, shapes)]

    def transform(self, values: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Eigenbasis coefficients of a grid array; with ``inverse``, the grid
        array of given coefficients.  The array is transposed into the
        concatenated group order; each group then contracts the leading axes
        in one matmul and appends its transformed axes (the idiom of
        ``pekar._cos3``), which restores that order after the last group."""
        n, order = self.grid.n, sum(self.groups, ())
        values = values.transpose(order)
        for g, u in zip(self.groups, self.bases):
            values = values.reshape(n ** len(g), -1).T @ (u.T if inverse else u.conj())
        return values.reshape(self.grid.shape).transpose(np.argsort(order))


def separable_spectrum(grid: Grid3, modes: ModeSet, potentials) -> SeparableSpectrum:
    """Eigendecomposition of p^2 + sum_g V_g over the axis groups of
    ``modes``: ``potentials`` holds V_g on the n^|g| points of each group that
    modes act on, in the order of ``ModeSet.group_fields``; an uncoupled axis
    has V_g = 0 and carries plane waves."""
    groups = modes.axis_groups
    coupled = tuple(idx.size > 0 for idx in modes.group_modes)
    k, waves = grid.plane_waves
    terms = iter(potentials)
    bases, levels = [], []
    for g, c in zip(groups, coupled):
        e, u = group_eigensystem(grid, len(g), next(terms)) if c else (k**2, waves)
        bases.append(u)
        levels.append(e)
    return SeparableSpectrum(grid, groups, coupled, bases, levels)


def group_eigensystem(grid: Grid3, d: int, v: np.ndarray):
    """(levels, basis) of p^2 + v on the n^d points of a d-axis group: p^2 the
    Kronecker sum of the one-axis Laplacian, v the group's potential in C
    order over its axes; ``eigh``, so the levels ascend and the basis holds
    l2-unit columns."""
    lap1, eye = grid.laplacian_matrix, np.eye(grid.n)
    lap = sum(reduce(np.kron, [lap1 if b == a else eye for b in range(d)]) for a in range(d))
    return np.linalg.eigh(lap + np.diag(np.ravel(v)))


class ResolventHandle:
    """The spectrum of h^{phi0} (the discrete solve's final sweep's),
    its gap and in-sector gap (the smallest step within a coupled group,
    leaving out free motion along uncoupled axes), and R = Q (h - lambda)^{-1} Q
    applied exactly in that eigenbasis, with the residual of every solve
    checked.  GapError if the lowest eigenvalue misses the stored lambda by
    more than 1e-6 or the gap is not positive."""

    def __init__(self, sol):
        self.sol = sol
        self.spectrum = spec = sol.spectrum
        shift = spec.eigenvalues() - sol.lam
        if abs(shift.flat[0]) > 1e-6:
            raise GapError(f"lowest eigenvalue disagrees with stored lambda {sol.lam} "
                           f"by {shift.flat[0]:.3e}")
        steps = [float(e[1] - e[0]) for e in spec.levels]
        self.gap = min(steps)
        if not self.gap > 0:
            raise GapError(f"spectral gap is not positive: {self.gap}")
        self.sector_gap = min(s for s, c in zip(steps, spec.coupled) if c)
        shift.flat[0] = np.inf  # the ground mode, which Q projects out
        self._inv = 1.0 / shift

    def apply(self, v: Field) -> Field:
        """u = R v: u is orthogonal to phi0 and (h - lambda) u = Q v."""
        grid, spec = self.sol.grid, self.spectrum
        if v.grid != grid:
            raise ValueError("field grid mismatch in resolvent apply")
        u = self._q(spec.transform(self._inv * spec.transform(v.values), inverse=True))
        qv = self._q(v.values)
        # the residual takes h from the FFT Laplacian, not from the eigenbasis
        r = self._q(apply_h(self.sol, Field(u, grid)).values - self.sol.lam * u) - qv
        norm = lambda a: float(np.sqrt(np.vdot(a, a).real * grid.cell_volume))
        resid = norm(r)
        if resid > 1e-9 * max(1.0, norm(qv)):
            raise ResolventError(f"resolvent residual {resid:.3e} exceeds 1e-9 |Qv|")
        return Field(u, grid)

    def project_out_ground(self, v: Field) -> Field:
        """Q v = v - <phi0, v> phi0."""
        return Field(self._q(v.values), v.grid)

    def _q(self, a: np.ndarray) -> np.ndarray:
        """Q on a grid array."""
        phi = self.sol.phi0.values
        return a - (np.vdot(phi, a) * self.sol.grid.cell_volume) * phi


@dataclass
class KernelPair:
    """Quadrature-embedded kernel matrices and the normal-ordering constant.

    K[i, j] = sqrt(w_i w_j) * K(k_i, k_j), likewise for G;
    eps = Tr(G) / 2.  diag_rayleigh stores an independently computed
    route to the diagonal resolvent matrix elements for cross-checks.
    KernelError unless K is symmetric, G Hermitian and eps = Tr(G) / 2 to 1e-8.
    """

    K: np.ndarray
    G: np.ndarray
    epsilon: float
    modes: ModeSet
    t_table: np.ndarray  # t[a, b] = <phi0, e^{-i k_a x} R e^{-i k_b x} phi0>
    diag_rayleigh: np.ndarray  # <s_i, R s_i> on the grid, s_i = e^{-i k_i x} phi0

    def __post_init__(self):
        if np.max(np.abs(self.K - self.K.T)) > 1e-8:
            raise KernelError("K is not symmetric")
        if np.max(np.abs(self.G - self.G.conj().T)) > 1e-8:
            raise KernelError("G is not Hermitian")
        if abs(self.epsilon - 0.5 * np.trace(self.G).real) > 1e-8:
            raise KernelError("epsilon is not Tr(G)/2")

    def save(self, outdir: str):
        os.makedirs(outdir, exist_ok=True)
        save_array(self.K, os.path.join(outdir, "K.pfld"), tag="kernel-K")
        save_array(self.G, os.path.join(outdir, "G.pfld"), tag="kernel-G")
        save_array(self.t_table, os.path.join(outdir, "t_table.pfld"), tag="t-table")
        save_array(
            self.diag_rayleigh,
            os.path.join(outdir, "diag_rayleigh.pfld"),
            tag="diag-rayleigh",
        )
        write_json(
            os.path.join(outdir, "kernels.json"),
            {"epsilon": self.epsilon, "modes": self.modes.as_dict()},
        )


def build_kernels(rh: ResolventHandle) -> KernelPair:
    """K, G and eps from the table t(a, b) = <phi0, e^{-i k_a x} R e^{-i k_b x} phi0>,
    read off the eigenbasis U_g of each axis group g that modes act on.  With
    C_i = U_g^dag diag(e^{-i k_i x}) U_g for a mode i in g and
    conj e^{-i k_a x} = e^{-i k_par(a) x},
    t(a, b) = sum_{k>=1} conj(C_par(a)[k, 0]) C_b[k, 0] / (e_k - e_0) for a, b
    in one group, and exactly 0 between groups: no eigenvector of h other than
    phi0 is reached from phi0 by a mode of each.  Then
    K(k_i,k_j) = c_i c_j (t(i,j) + t(j,i)),
    G(k_i,k_j) = c_i c_j (t(par(i),j) + t(i,par(j))).

    diag_rayleigh[j] = <s_j, u_j> on the n^3 grid, the independent route to
    t(par(j), j): u_j = R s_j is ResolventHandle.apply's solve for
    s_j = e^{-i k_j x} phi0 = G_j phi0 / c_j off the coupling-field table,
    whose FFT-Laplacian residual (h - lambda) u_j - Q s_j is checked, so it
    equals the Rayleigh form <u_j, (h - lambda) u_j> within that residual.
    """
    sol, spec = rh.sol, rh.spectrum
    grid, modes, phi = sol.grid, sol.modes, sol.phi0.values
    M = modes.M
    c = modes.coupling_constants
    w = modes.weights
    par = modes.parity
    G = modes.coupling_fields(grid)

    t = np.zeros((M, M), dtype=np.complex128)
    for g, idx, Gg in modes.group_fields(G):
        u, e = spec.bases[spec.groups.index(g)], spec.levels[spec.groups.index(g)]
        col = (u.conj().T @ (Gg.T / c[idx] * u[:, :1]))[1:]  # C_i[k, 0] for k >= 1
        bra = col[:, np.searchsorted(idx, par[idx])].conj().T  # C_par(a)[k, 0]
        t[np.ix_(idx, idx)] = (bra / (e[1:] - e[0])) @ col

    diag_rayleigh = np.zeros(M)
    for j in range(M):
        # one solution at a time: stacking all M overruns _bundle_bytes
        s = G[j] * phi / c[j]
        diag_rayleigh[j] = np.vdot(s, rh.apply(Field(s, grid)).values).real * grid.cell_volume

    cc = np.outer(c, c)
    sw = np.sqrt(np.outer(w, w))
    Kmat = sw * cc * (t + t.T)
    Gmat = sw * cc * (t[par, :] + t[:, par])
    eps = 0.5 * float(np.trace(Gmat).real)
    return KernelPair(K=Kmat, G=Gmat, epsilon=eps, modes=modes, t_table=t,
                      diag_rayleigh=diag_rayleigh)
