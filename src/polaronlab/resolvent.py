"""Electron-sector operator algebra: h^phi0, its exact eigendecomposition,
the spectral gap, the restricted resolvent, and the quadratic-kernel
matrices K, G with the constant eps.

Every potential the discrete model builds is a sum of plane waves
e^{i k_i.x}, so h = sum_g (p_g^2 + V_g) separates over the finest groups of
axes that each contain whole mode vectors k_i.  Its eigenbasis is the tensor
product of small dense group eigenbases (fast diagonalisation: Lynch, Rice &
Thomas, Numer. Math. 6, 185 (1964)), which makes the gap, the resolvent and
the ground state of each discrete Pekar sweep exact rather than iterative.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import reduce

import numpy as np

# Not called here: bench/tracing.py counts CG iterations by patching
# ``resolvent.cg``, so the name stays bound until the benchmark drops it.
from scipy.sparse.linalg import cg  # noqa: F401

from .grid import Field, Grid3, inner, load_array, plane_wave, save_array
from .modes import ModeSet


class ResolventError(RuntimeError):
    pass


class GapError(RuntimeError):
    pass


def apply_h(sol, f: Field) -> Field:
    """h^{phi0} f = p^2 f + V_eff f."""
    if f.grid != sol.grid:
        raise ValueError("field grid does not match the solution grid")
    fhat = np.fft.fftn(f.values)
    lap = np.fft.ifftn(sol.grid.ksq * fhat)
    return Field(lap + sol.V_eff.values * f.values, f.grid)


def axis_groups(modes: ModeSet) -> tuple:
    """Finest partition of the axes 0, 1, 2 in which every mode k lies inside
    one group; an axis no mode touches is a group of its own."""
    groups = [{a} for a in range(3)]
    for k in modes.k_vectors:
        touched = {a for a in range(3) if abs(k[a]) > 1e-12}
        merged = set().union(*(g for g in groups if g & touched))
        groups = [g for g in groups if not g & touched] + [merged]
    return tuple(sorted(tuple(sorted(g)) for g in groups))


@dataclass
class SeparableSpectrum:
    """h = p^2 + V for V = offset + sum_g V_g(x_g), diagonalised group by group.

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
    offset: float

    def eigenvalues(self) -> np.ndarray:
        n = self.grid.n
        return self.offset + sum(
            e.reshape([n if a in g else 1 for a in range(3)])
            for g, e in zip(self.groups, self.levels)
        )

    def transform(self, values: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Eigenbasis coefficients of a grid array; with ``inverse``, the grid
        array of given coefficients."""
        n = self.grid.n
        for g, u in zip(self.groups, self.bases):
            d = len(g)
            m = (u if inverse else u.conj().T).reshape((n,) * 2 * d)
            values = np.tensordot(m, values, axes=(range(d, 2 * d), g))
            values = np.moveaxis(values, range(d), g)
        return values


def separable_spectrum(V: Field, modes: ModeSet) -> SeparableSpectrum:
    """Eigendecomposition of p^2 + V over the axis groups of ``modes``.

    V splits into its mean plus, per coupled group, its mean over the other
    axes less that; ValueError if the split misses V by more than 1e-10
    relative, i.e. if V does not separate over the groups.
    """
    grid, groups = V.grid, axis_groups(modes)
    coupled = tuple(bool(np.any(np.abs(modes.k_vectors[:, g]) > 1e-12)) for g in groups)
    vals = V.values.real
    offset = float(vals.mean())
    terms = [
        vals.mean(axis=tuple(a for a in range(3) if a not in g), keepdims=True) - offset
        if c else 0.0
        for g, c in zip(groups, coupled)
    ]
    defect = float(np.max(np.abs(offset + sum(terms) - vals)))
    if defect > 1e-10 * max(1.0, float(np.max(np.abs(vals)))):
        raise ValueError(f"V_eff misses its split over the axis groups {groups} by "
                         f"{defect:.3e}; it does not separate")
    k = grid.k_axis[np.argsort(grid.k_axis**2, kind="stable")]
    waves = np.exp(1j * np.outer(grid.axis, k)) / np.sqrt(grid.n)
    lap1, eye = ((waves * k**2) @ waves.conj().T).real, np.eye(grid.n)
    bases, levels = [], []
    for g, c, vg in zip(groups, coupled, terms):
        if not c:
            bases.append(waves)
            levels.append(k**2)
            continue
        lap = sum(reduce(np.kron, [lap1 if b == a else eye for b in range(len(g))])
                  for a in range(len(g)))
        e, u = np.linalg.eigh(lap + np.diag(np.ravel(vg)))
        bases.append(u)
        levels.append(e)
    return SeparableSpectrum(grid, groups, coupled, bases, levels, offset)


def spectral_gap(sol):
    """Lowest eigenvalue of h^{phi0}, the gap above it and the in-sector gap
    (the smallest step within a coupled group, leaving out free motion along
    uncoupled axes); asserts lambda0 matches the stored multiplier and that
    the gap is strictly positive."""
    spec = separable_spectrum(sol.V_eff, sol.modes)
    lam0 = float(spec.eigenvalues().flat[0])
    if abs(lam0 - sol.lam) > 1e-6:
        raise GapError(f"lowest eigenvalue {lam0} disagrees with stored lambda {sol.lam}")
    steps = [float(e[1] - e[0]) for e in spec.levels]
    gap = min(steps)
    if gap <= 0:
        raise GapError(f"spectral gap is not positive: {gap}")
    sector_gap = min(s for s, c in zip(steps, spec.coupled) if c)
    return {"lambda0": lam0, "lambda1": lam0 + gap, "gap": gap, "sector_gap": sector_gap}


@dataclass
class ResolventHandle:
    """Applies R = Q (h - lambda)^{-1} Q exactly in the separable eigenbasis
    of h, and checks the residual of every solve."""

    sol: "object"
    gap: float

    def __post_init__(self):
        if not self.gap > 0:
            raise GapError("resolvent requires a positive spectral gap")
        self._spec = separable_spectrum(self.sol.V_eff, self.sol.modes)
        shift = self._spec.eigenvalues() - self.sol.lam
        shift.flat[0] = np.inf  # the ground mode, which Q projects out
        self._inv = 1.0 / shift

    def apply(self, v: Field) -> Field:
        """u = R v: u is orthogonal to phi0 and (h - lambda) u = Q v."""
        grid, spec = self.sol.grid, self._spec
        if v.grid != grid:
            raise ValueError("field grid mismatch in resolvent apply")
        u = spec.transform(self._inv * spec.transform(v.values), inverse=True)
        u = self.project_out_ground(Field(u, grid))
        qv = self.project_out_ground(v)
        resid = (self.project_out_ground(apply_h(self.sol, u) - self.sol.lam * u) - qv).norm()
        if resid > 1e-9 * max(1.0, qv.norm()):
            raise ResolventError(f"resolvent residual {resid:.3e} exceeds 1e-9 |Qv|")
        return u

    def project_out_ground(self, v: Field) -> Field:
        """Q v = v - <phi0, v> phi0."""
        c = inner(self.sol.phi0, v)
        return Field(v.values - c * self.sol.phi0.values, v.grid)


@dataclass
class KernelPair:
    """Quadrature-embedded kernel matrices and the normal-ordering constant.

    K[i, j] = sqrt(w_i w_j) * K(k_i, k_j), likewise for G;
    eps = Tr(G) / 2.  diag_rayleigh stores an independently computed
    route to the diagonal resolvent matrix elements for cross-checks.
    """

    K: np.ndarray
    G: np.ndarray
    epsilon: float
    modes: ModeSet
    t_table: np.ndarray  # t[a, b] = <phi0, e^{-i k_a x} R e^{-i k_b x} phi0>
    diag_rayleigh: np.ndarray  # <u_i, (h - lambda) u_i> with u_i = R e^{-ik_i x}phi0

    def check(self, tol: float = 1e-10):
        if np.max(np.abs(self.K - self.K.T)) > tol:
            raise ValueError("K is not symmetric")
        if np.max(np.abs(self.G - self.G.conj().T)) > tol:
            raise ValueError("G is not Hermitian")
        if abs(self.epsilon - 0.5 * np.trace(self.G).real) > tol:
            raise ValueError("epsilon is not Tr(G)/2")

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
        meta = {"epsilon": self.epsilon, "modes": self.modes.as_dict()}
        tmp = os.path.join(outdir, "kernels.json.tmp")
        with open(tmp, "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
        os.replace(tmp, os.path.join(outdir, "kernels.json"))

    @classmethod
    def load(cls, outdir: str) -> "KernelPair":
        with open(os.path.join(outdir, "kernels.json")) as fh:
            meta = json.load(fh)
        K, _ = load_array(os.path.join(outdir, "K.pfld"))
        G, _ = load_array(os.path.join(outdir, "G.pfld"))
        t, _ = load_array(os.path.join(outdir, "t_table.pfld"))
        d, _ = load_array(os.path.join(outdir, "diag_rayleigh.pfld"))
        return cls(
            K=K,
            G=G,
            epsilon=meta["epsilon"],
            modes=ModeSet.from_dict(meta["modes"]),
            t_table=t,
            diag_rayleigh=d,
        )


def build_kernels(sol, modes: ModeSet, rh: ResolventHandle) -> KernelPair:
    """One resolvent solve per mode, then assemble K, G and eps.

    t(a, b) = <phi0, e^{-i k_a x} R e^{-i k_b x} phi0>;
    K(k_i,k_j) = c_i c_j (t(i,j) + t(j,i)),
    G(k_i,k_j) = c_i c_j (t(par(i),j) + t(i,par(j))).
    """
    modes.check_commensurate(sol.grid)
    grid = sol.grid
    M = modes.M
    c = modes.coupling_constants
    w = modes.weights
    par = modes.parity
    phi = sol.phi0

    u = []
    diag_rayleigh = np.zeros(M)
    for j in range(M):
        pw = plane_wave(grid, modes.k_vectors[j])
        src = Field(np.conj(pw.values) * phi.values, grid)  # e^{-i k_j x} phi0
        uj = rh.apply(src)
        u.append(uj)
        # independent Rayleigh route: ||R^{1/2} src||^2 = <u_j, (h-lambda) u_j>
        hu = apply_h(sol, uj)
        diag_rayleigh[j] = inner(uj, Field(hu.values - sol.lam * uj.values, grid)).real

    t = np.zeros((M, M), dtype=np.complex128)
    for a in range(M):
        pw = plane_wave(grid, modes.k_vectors[a])
        bra = Field(pw.values * phi.values, grid)  # conj gives e^{-i k_a x} phi0
        for b in range(M):
            t[a, b] = inner(bra, u[b])

    cc = np.outer(c, c)
    sw = np.sqrt(np.outer(w, w))
    Kmat = sw * cc * (t + t.T)
    Gmat = sw * cc * (t[par, :] + t[:, par])
    eps = 0.5 * float(np.trace(Gmat).real)
    kp = KernelPair(
        K=Kmat,
        G=Gmat,
        epsilon=eps,
        modes=modes,
        t_table=t,
        diag_rayleigh=diag_rayleigh,
    )
    kp.check(tol=1e-8)
    return kp
