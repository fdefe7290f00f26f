"""Brute-force ground truth on a truncated Fock space.

Occupation-basis enumeration over M modes with per-mode cutoff n_max, whose
strides, ladder table and cutoff mask ``FockSpace`` alone computes, sparse
ladder operators (the table's oracle), the quadratic effective Hamiltonian in
two independent assemblies (index arithmetic on the occupation table, and
ladder products), the displaced-frame coupled Hamiltonian, and the Chebyshev
propagator, with unitarity/energy monitoring, that evolves both: one
expansion of exp(-iHt) gives the state at every sample time, its terms added
to the samples a block at a time.

Only the sparse assemblies (``ladder``, ``number_operator``,
``build_quadratic_hamiltonian``, ``build_effective_operator_direct``) use
scipy, and each imports ``scipy.sparse`` when it runs: importing this module,
the coupled Hamiltonian and the propagator need numpy alone.

The coupled Hamiltonian acts on its invariant sector, the grid of the
axes the mode k-vectors span.  Its Laplacian is the real one-axis matrix
of ``grid.laplacian_matrix`` applied along each sector axis, and its
coupling moves the flat Fock index of every sector site along each mode's
ladder, times a coefficient plane built once per Hamiltonian.  The upper end
of its spectral interval comes from Weyl's inequality on the exact spectrum
of h and on per-site phonon tridiagonals.

The creation operator annihilates top-occupation states (hard
truncation); runs are expected to monitor the top-level population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import InvariantError, NonConvergenceError
from .grid import laplacian_matrix
from .pekar import DiscretePekarSolution, delta_g_fields
from .resolvent import KernelError, KernelPair

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_DIM_CAP = 200_000


class FockDimensionError(InvariantError, ValueError):
    pass


class EvolutionError(NonConvergenceError):
    pass


class SectorError(InvariantError, ValueError):
    """The ground state varies along an uncoupled axis, so the coupled sector
    of CoupledHamiltonian is not invariant."""


@dataclass(frozen=True)
class FockSpace:
    """Truncated bosonic Fock space: occupations (n_1..n_M), n_i <= n_max, in
    the C order of the M-axis box ``shape``; ``numbers`` holds the total
    occupation of each basis state.  Every operator reads the layout here:
    mode i's mixed-radix stride ``strides[i]`` = (n_max + 1)^(M-1-i); its
    ladder ``ladders[i]`` = (stride, w), a_i^dag moving flat index f to
    f + stride with weight w[f], the destination's sqrt(n_i), exactly 0 where
    the shift would wrap (a_i moves back with the same weights); and
    ``at_cutoff``, the states with an occupation at n_max."""

    M: int
    n_max: int

    def __post_init__(self):
        if self.M < 1 or self.n_max < 0:
            raise ValueError("need M >= 1 and n_max >= 0")
        if self.dim > DEFAULT_DIM_CAP:
            raise FockDimensionError(
                f"dim {(self.n_max + 1)}^{self.M} exceeds cap {DEFAULT_DIM_CAP}"
            )
        occs = np.indices(self.shape, dtype=np.int64).reshape(self.M, -1).T
        strides = tuple((self.n_max + 1) ** (self.M - 1 - i) for i in range(self.M))
        object.__setattr__(self, "occupations", occs)
        object.__setattr__(self, "numbers", occs.sum(axis=1).astype(np.float64))
        object.__setattr__(self, "strides", strides)
        object.__setattr__(self, "ladders", tuple(
            (s, np.sqrt(occs[s:, i])) for i, s in enumerate(strides)))
        object.__setattr__(self, "at_cutoff", np.any(occs == self.n_max, axis=1))

    @property
    def shape(self) -> tuple:
        return (self.n_max + 1,) * self.M

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** self.M

    def vacuum(self) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=np.complex128)
        psi[0] = 1.0
        return psi


def ladder(i: int, fs: FockSpace) -> sp.csr_matrix:
    """Annihilation operator a_i as a sparse matrix (a^dag = transpose), the
    oracle of ``FockSpace.ladders``: each occupation n goes to raveled n - e_i."""
    import scipy.sparse as sp

    if not 0 <= i < fs.M:
        raise IndexError(f"mode index {i} out of range for M = {fs.M}")
    occ = fs.occupations
    src = np.flatnonzero(occ[:, i] > 0)
    low = occ[src] - np.eye(fs.M, dtype=np.int64)[i]
    dst = np.ravel_multi_index(low.T, fs.shape)
    data = np.sqrt(occ[src, i].astype(np.float64))
    return sp.csr_matrix((data, (dst, src)), shape=(fs.dim, fs.dim))


def apply_ladder(psi: np.ndarray, i: int, fs: FockSpace, dagger: bool = False) -> np.ndarray:
    """a_i psi (a_i^dag psi if dagger) along the last, Fock, axis of psi: the
    shift of mode i's ladder in ``fs.ladders``, times its weights."""
    stride, w = fs.ladders[i]
    out = np.zeros_like(psi)
    if dagger:
        out[..., stride:] = w * psi[..., :-stride]
    else:
        out[..., :-stride] = w * psi[..., stride:]
    return out


def number_operator(fs: FockSpace) -> sp.csr_matrix:
    import scipy.sparse as sp

    return sp.diags(fs.numbers).tocsr()


def _moves(weights, shift, coeff):
    """(rows, cols, values) of the moves col -> col + shift[p] with value
    coeff[p] weights[col, p], for every nonzero weight (one column p per move)."""
    c, p = np.nonzero(weights)
    c = c.astype(np.int32)
    return c + shift[p], c, coeff[p] * weights[c, p]


def build_quadratic_hamiltonian(kp: KernelPair, fs: FockSpace) -> sp.csr_matrix:
    """H = dGamma(1 - G) - (1/2) sum_ij (K_ij a_i^dag a_j^dag + conj(K_ij) a_i a_j),
    assembled in one COO pass from the occupation table and the mixed-radix
    strides.  dGamma(1 - G) is n.(1 - diag G) on the diagonal, and its a_i^dag a_j
    (i != j) takes n to n - e_j + e_i with weight sqrt(n_j (n_i + 1));
    a_i^dag a_j^dag takes n to n + e_i + e_j with weight
    sqrt((n_i + 1 + delta_ij)(n_j + 1)), and a_i a_j is its adjoint.  Moves
    that leave the box get weight zero (hard truncation), and zero entries
    are dropped."""
    import scipy.sparse as sp

    M, top = fs.M, fs.n_max
    if kp.K.shape != (M, M):
        raise ValueError("kernel size does not match the Fock space mode count")
    occ = fs.occupations.astype(np.int32)  # dim <= DEFAULT_DIM_CAP: int32 indices
    stride = np.array(fs.strides, dtype=np.int32)
    i, j = np.nonzero(~np.eye(M, dtype=bool))
    hr, hc, hv = _moves(np.sqrt(occ[:, j] * (occ[:, i] + 1.0)) * (occ[:, i] < top),
                        stride[i] - stride[j], -kp.G[i, j])
    # a_i^dag a_j^dag and a_j^dag a_i^dag are one move: i <= j with K_ij + K_ji
    i, j = np.triu_indices(M)
    d = (i == j).astype(np.int32)
    inside = (occ[:, i] + 1 + d <= top) & (occ[:, j] < top)
    pr, pc, pv = _moves(np.sqrt((occ[:, i] + 1.0 + d) * (occ[:, j] + 1)) * inside,
                        stride[i] + stride[j], -0.5 * (kp.K + np.triu(kp.K.T, 1))[i, j])
    diag = np.arange(fs.dim, dtype=np.int32)
    H = sp.csr_matrix(
        (np.concatenate([occ @ (1.0 - kp.G.diagonal()), hv, pv, pv.conj()]),
         (np.concatenate([diag, hr, pr, pc]), np.concatenate([diag, hc, pc, pr]))),
        shape=(fs.dim, fs.dim),
    )
    H.eliminate_zeros()
    defect = abs(H - H.conj().T).max()
    if defect > 1e-10:
        raise KernelError(f"quadratic Hamiltonian Hermiticity defect {defect:.3e}")
    return H


def gershgorin_bounds(H: sp.csr_matrix) -> tuple[float, float]:
    """Gershgorin interval of the Hermitian H: d_i -/+ r_i (diagonal, off-diagonal |row| sum)."""
    d = H.diagonal().real
    r = np.asarray(abs(H).sum(axis=1)).ravel() - np.abs(d)
    return float(np.min(d - r)), float(np.max(d + r))


def build_effective_operator_direct(kp: KernelPair, fs: FockSpace) -> sp.csr_matrix:
    """Independent route to N - A + eps from the raw resolvent table.

    Assembles A directly from the four ladder products (including the
    un-normal-ordered a a^dag term) in an enlarged space with cutoff
    n_max + 1, then restricts to the requested cutoff so the truncation
    does not bite the reordering.  Equality with
    build_quadratic_hamiltonian is the discrete normal-ordering identity.
    """
    import scipy.sparse as sp

    modes = kp.modes
    M = fs.M
    par = modes.parity
    c = modes.coupling_constants
    w = modes.weights
    t = kp.t_table
    big = FockSpace(M, fs.n_max + 1)
    a = [ladder(i, big) for i in range(M)]
    ad = [op.conj().T.tocsr() for op in a]
    A = sp.csr_matrix((big.dim, big.dim), dtype=np.complex128)
    for i in range(M):
        for j in range(M):
            pref = np.sqrt(w[i] * w[j]) * c[i] * c[j]
            A = A + pref * (
                t[par[i], par[j]] * (a[i] @ a[j])
                + t[i, j] * (ad[i] @ ad[j])
                + t[par[i], j] * (a[i] @ ad[j])
                + t[i, par[j]] * (ad[i] @ a[j])
            )
    H_big = number_operator(big).astype(np.complex128) - A + kp.epsilon * sp.identity(
        big.dim, format="csr"
    )
    # embed indices of the small space inside the enlarged one
    keep = np.ravel_multi_index(fs.occupations.T, big.shape)
    return H_big.tocsr()[np.ix_(keep, keep)].tocsr()


# ---------------------------------------------------------------------------
# displaced-frame coupled Hamiltonian
# ---------------------------------------------------------------------------


@dataclass
class CoupledHamiltonian:
    """Matrix-free  (h - lambda) + alpha^-2 N + alpha^-1 phi(delta G)  on the
    invariant sector x Fock space, states stored as (n^d, fock_dim).

    The sector is the grid of the d axes the mode k-vectors span (all three
    give the full grid); phi0, V_eff and every delta G_i are constant along
    the others.  A sector vector v stands for v (x) c with c the unit-norm
    constant over the uncoupled axes, so norms, phonon numbers and trace
    distances are the full-grid ones.  ``electron`` is phi0 so embedded.
    """

    dsol: DiscretePekarSolution
    fs: FockSpace
    alpha: float

    def __post_init__(self):
        dsol, grid, w = self.dsol, self.dsol.grid, self.dsol.modes.weights
        axes = dsol.modes.coupled_axes
        # restrict to the sector: average over the uncoupled axes, which
        # must leave every field unchanged up to roundoff; the real electron
        # fields and the complex delta G fields stay apart, so each keeps its dtype
        other = tuple(1 + a for a in range(3) if a not in axes)
        stacks = (np.stack([dsol.phi0.values, dsol.V_eff.values - dsol.lam]),
                  np.sqrt(w)[:, None, None, None] * delta_g_fields(dsol))
        means = [s.mean(axis=other, keepdims=True) for s in stacks]
        spread = max(np.max(np.abs(s - m)) for s, m in zip(stacks, means))
        if spread > 1e-10 * max(1.0, *(np.max(np.abs(s)) for s in stacks)):
            raise SectorError(
                f"phi0, V_eff or a delta G field varies by {spread:.3e} along an "
                "uncoupled axis; the coupled sector is not invariant"
            )
        (phi, vshift), dg = (m.reshape(len(m), -1) for m in means)
        self.electron = np.sqrt(grid.n ** (3 - len(axes)) * grid.cell_volume) * phi
        self._lap, self._d = laplacian_matrix(grid), len(axes)
        self._diag = vshift[:, None] + self.fs.numbers / self.alpha**2
        # g_i = alpha^-1 sqrt(w_i) delta G_i is the coefficient of a_i^dag; its
        # plane g_i(s) w scales mode i's ladder (stride, w) in fs.ladders, 0
        # where the shift would wrap; a_i shifts back with the conjugate plane
        self._dg = [g / self.alpha for g in dg]
        ups = [(stride, g[:, None] * w) for g, (stride, w) in zip(self._dg, self.fs.ladders)]
        self._shifts = [(stride, up, np.conj(up)) for stride, up in ups]

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi for psi of shape (sector_size, fock_dim), in any memory layout."""
        psi = np.ascontiguousarray(psi, dtype=np.complex128)
        n = len(self._lap)
        # Laplacian: a real matmul per sector axis on the float view, so the
        # real and imaginary parts share each dgemm
        re = psi.view(np.float64)
        out = np.matmul(self._lap, re.reshape(n, -1)).reshape(re.shape)
        for a in range(1, self._d):
            out += np.matmul(self._lap, re.reshape(n**a, n, -1)).reshape(re.shape)
        out = out.view(np.complex128)
        out += self._diag * psi
        # coupling: sum_i (g_i a_i^dag + conj(g_i) a_i), Fock index shifts
        for stride, up, down in self._shifts:
            out[:, stride:] += up * psi[:, :-stride]
            out[:, :-stride] += down * psi[:, stride:]
        return out

    def spectral_bounds(self) -> tuple[float, float]:
        """(lo, hi) containing the spectrum.  hi is Weyl's inequality on two
        pieces known exactly: the top of h - lambda on the sector, offset plus
        the coupled groups' top levels of dsol.spectrum less lambda; and the
        top of N/alpha^2 + coupling, which at each sector site s is a sum over
        modes of r x r tridiagonals n/alpha^2 + |g_i(s)| (a + a^dag) (a phase
        on the occupations takes g_i(s) to |g_i(s)|), so max_s of the sum of
        their top eigenvalues.  lo is the larger of the coupling-norm bound
        min(diagonal) - 2 sum_i max|g_i| sqrt(n_max) and the completed square:
        with b_i = a_i + alpha g_i, N/alpha^2 + coupling = sum_i b_i^dag b_i /
        alpha^2 - sum_i |alpha g_i|^2 exactly (a_i^dag a_i = diag(n) on the
        truncated space), so H >= min_x(V_eff - lambda - sum_i |alpha g_i|^2)
        at every alpha."""
        spec, r = self.dsol.spectrum, self.fs.n_max + 1
        top_h = spec.offset + sum(e[-1] for e, c in zip(spec.levels, spec.coupled) if c)
        n, k = np.arange(r), np.arange(1, r)
        ladder = np.zeros((len(self._dg), len(self._diag), r, r))
        ladder[..., n, n] = n / self.alpha**2
        ladder[..., k, k - 1] = np.abs(np.array(self._dg))[..., None] * np.sqrt(k)
        top_n = np.linalg.eigvalsh(ladder, UPLO="L")[..., -1].sum(axis=0).max()
        c = sum(2.0 * np.max(np.abs(dg)) for dg in self._dg) * np.sqrt(self.fs.n_max)
        # the vacuum column of the diagonal is V_eff - lambda
        square = self._diag[:, 0] - sum(np.abs(self.alpha * dg) ** 2 for dg in self._dg)
        lo = max(self._diag.min() - c, square.min())
        return float(lo), float(top_h - self.dsol.lam + top_n)


# ---------------------------------------------------------------------------
# Chebyshev propagator
# ---------------------------------------------------------------------------


def _chebyshev_coefficients(x: float) -> np.ndarray:
    """c_k = (2 - delta_k0) (-i)^k J_k(x) of exp(-i x y) = sum_k c_k T_k(y),
    from an FFT of exp(-i x cos theta) at 2n angles, cut at the first k > |x|
    with |c_k| < 1e-13, where J_k(x) falls monotonically (the FFT's roundoff in
    the tail reaches 1e-13 past |x| ~ 1e4).  Orders above n alias onto the kept
    ones; n = 2|x| + 64 puts them below roundoff (a margin of 64 leaves 2e-11 at 500)."""
    n, edge = 2 * int(abs(x)) + 64, int(abs(x)) + 1
    theta = np.pi * np.arange(2 * n) / n
    c = np.fft.fft(np.exp(-1j * x * np.cos(theta)))[: n + 1] / (2 * n)
    c[1:] *= 2
    return c[: edge + np.flatnonzero(np.abs(c[edge:]) < 1e-13)[0]]


def propagate(apply_h, psi0: np.ndarray, times, bounds) -> list:
    """[exp(-i t H) psi0 for t in times] from one Chebyshev recurrence
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)): the vectors
    T_k(X) psi0 do not depend on t.  The recurrence writes them into a block
    of the last max(len(times), 2) of them, and a full block is added to
    every sample whose series runs past it with one matrix product; a sample
    whose series ends inside the block takes only its own terms, since an
    exact zero times an overflowed T_k is NaN.  bounds = (lo, hi) must
    contain the spectrum of the Hermitian H; an interval that misses part
    of it shows at some sample as a norm drift above 1e-9 or a relative
    energy drift above 1e-8, which raise EvolutionError.
    """
    nrm0 = np.linalg.norm(psi0)
    if abs(nrm0 - 1.0) > 1e-9:
        raise ValueError(f"initial state norm {nrm0}, expected 1")
    lo, hi = bounds
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    series = [_chebyshev_coefficients(half * t) for t in times]
    # samples by falling series length: those still running are leading rows
    order = sorted(range(len(times)), key=lambda j: -len(series[j]))
    coeffs = [series[j] for j in order]
    ends = [len(c) for c in coeffs]
    out = np.stack([c[0] * psi0.ravel() for c in coeffs])
    prod = np.empty_like(out)  # a block's share of each sample
    block = np.empty((max(len(times), 2), *psi0.shape), dtype=np.complex128)
    rows = block.reshape(len(block), -1)
    # cur = T_k(X) psi0 with X = (H - mid) / half, whose spectrum is in [-1, 1]
    prev, cur = 0.0, psi0
    for first in range(1, ends[0], len(block)):
        last = min(first + len(block), ends[0])  # the block holds T_first .. T_last-1
        for k in range(first, last):
            nxt = apply_h(cur)
            nxt -= mid * cur
            nxt *= (2.0 if k > 1 else 1.0) / half
            prev, cur = cur, np.subtract(nxt, prev, out=block[k - first])
        full = sum(e >= last for e in ends)
        if full:
            cblock = np.array([c[first:last] for c in coeffs[:full]])
            out[:full] += np.matmul(cblock, rows[: last - first], out=prod[:full])
        for j in range(full, sum(e > first for e in ends)):
            out[j] += np.matmul(coeffs[j][first:], rows[: ends[j] - first], out=prod[j])
    e0 = np.vdot(psi0, apply_h(psi0)).real
    states = [out[order.index(j)].reshape(psi0.shape) for j in range(len(times))]
    for t, psi in zip(times, states):
        psi *= np.exp(-1j * mid * t)
        drift = abs(np.linalg.norm(psi) - 1.0)
        edrift = abs(np.vdot(psi, apply_h(psi)).real - e0) / max(1.0, abs(e0))
        if not (drift <= 1e-9 and edrift <= 1e-8):
            raise EvolutionError(
                f"norm drift {drift:.3e}, energy drift {edrift:.3e} at t = {t:.6g}: "
                f"[{lo:.6g}, {hi:.6g}] misses part of the spectrum"
            )
    return states


# ---------------------------------------------------------------------------
# reduced objects
# ---------------------------------------------------------------------------


def reduced_densities(psi: np.ndarray, fs: FockSpace):
    """(gamma, pairing) with gamma_ij = <a_j psi, a_i psi> and pairing_ij =
    <psi, a_j a_i psi> = <a_j^dag psi, a_i psi>, summed over any leading axes
    of psi: two stacked ladder passes and two contractions."""
    low = np.stack([apply_ladder(psi, i, fs) for i in range(fs.M)]).reshape(fs.M, -1)
    up = np.stack([apply_ladder(psi, j, fs, dagger=True) for j in range(fs.M)])
    return low @ low.conj().T, low @ up.reshape(fs.M, -1).conj().T


def top_level_population(psi: np.ndarray, fs: FockSpace) -> float:
    """Total weight on basis states with any occupation at the cutoff."""
    return float(np.sum(np.abs(psi[..., fs.at_cutoff]) ** 2))


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    diff = rho1 - rho2
    ev = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return float(np.sum(np.abs(ev)))


def trace_distance_to_ground(psi: np.ndarray, v0: np.ndarray) -> float:
    """Trace distance between Tr_F |psi><psi| and |v0><v0| for a unit
    electron vector v0 (``CoupledHamiltonian.electron``), on the S x S
    electron sector."""
    return trace_distance(psi @ psi.conj().T, np.outer(v0, v0.conj()))
