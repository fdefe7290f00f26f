"""Brute-force ground truth on a truncated Fock space.

Occupation-basis enumeration over M modes with per-mode cutoff n_max, whose
strides, ladder table and cutoff mask ``FockSpace`` alone computes, sparse
ladder operators (the table's oracle), the quadratic effective Hamiltonian in
two independent assemblies (index arithmetic on the occupation table, and
ladder products), the displaced-frame coupled Hamiltonian, and the Chebyshev
propagator, with unitarity/energy monitoring, that evolves both: one
expansion of exp(-iHt) gives the state at every sample time, its terms added
to the samples a block at a time.  Each operator finds its Chebyshev
interval once, as ``bounds``, and ``propagate(op, psi0, times)`` reads it.

Only the sparse assemblies (``ladder``, ``number_operator``,
``build_quadratic_hamiltonian``, ``build_effective_operator_direct``) use
scipy, and each imports ``scipy.sparse`` when it runs: importing this module,
the coupled Hamiltonian and the propagator need numpy alone.

The coupled Hamiltonian acts on its invariant sector, the grid of the
axes the mode k-vectors span.  Its Laplacian is the real one-axis matrix
of ``Grid3.laplacian_matrix`` applied along each sector axis, and its
coupling shifts the flat (sector, Fock) index of the whole state along each
mode's ladder, times one coefficient plane per mode built once per
Hamiltonian; sqrt(n_i) = 0 wherever a shift would cross from one site into
the next.  The upper end of its spectral interval comes from Weyl's
inequality on the exact spectrum of h and on per-site phonon tridiagonals,
and its pieces are stored already mapped to the Chebyshev variable of that
interval, so a term of the recurrence is one pass over the state with no
temporaries.

The creation operator annihilates top-occupation states (hard
truncation); runs are expected to monitor the top-level population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import InvariantError, NonConvergenceError
from .pekar import DiscretePekarSolution
from .resolvent import KernelError, KernelPair

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_DIM_CAP = 200_000


class FockDimensionError(InvariantError, ValueError):
    pass


class EvolutionError(NonConvergenceError):
    pass


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
    sqrt((n_i + 1 + delta_ij)(n_j + 1)), and a_i a_j is its adjoint.  Only
    pairs i, j within one axis group (``ModeSet.group_modes``) move, since K
    and G vanish between groups.  Moves that leave the box get weight zero
    (hard truncation), and zero entries are dropped."""
    import scipy.sparse as sp

    M, top = fs.M, fs.n_max
    if kp.K.shape != (M, M):
        raise ValueError("kernel size does not match the Fock space mode count")
    occ = fs.occupations.astype(np.int32)  # dim <= DEFAULT_DIM_CAP: int32 indices
    stride = np.array(fs.strides, dtype=np.int32)
    i, j = np.concatenate([np.stack(np.meshgrid(g, g, indexing="ij")).reshape(2, -1)
                           for g in kp.modes.group_modes], axis=1)
    a, b = i[i != j], j[i != j]
    hr, hc, hv = _moves(np.sqrt(occ[:, b] * (occ[:, a] + 1.0)) * (occ[:, a] < top),
                        stride[a] - stride[b], -kp.G[a, b])
    # a_i^dag a_j^dag and a_j^dag a_i^dag are one move: i <= j with K_ij + K_ji
    i, j = i[i <= j], j[i <= j]
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
    the others by construction, so the sector reads them at index 0 there.
    A sector vector v stands for v (x) c with c the unit-norm
    constant over the uncoupled axes, so norms, phonon numbers and trace
    distances are the full-grid ones.  ``electron`` is phi0 so embedded.

    The pieces of H are stored once, already mapped to the Chebyshev
    variable X = (H - mid) / half of ``bounds``, found once by
    ``spectral_bounds``: the one-axis Laplacian, the diagonal, and per mode
    i the plane of a_i^dag on the flat (sector, Fock) index.  ValueError
    unless fs has one mode per mode of dsol and alpha > 0.
    """

    dsol: DiscretePekarSolution
    fs: FockSpace
    alpha: float

    def __post_init__(self):
        dsol, grid, modes = self.dsol, self.dsol.grid, self.dsol.modes
        if self.fs.M != modes.M:
            raise ValueError(f"Fock space of {self.fs.M} modes for a model of {modes.M}")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        axes = modes.coupled_axes
        cut = tuple(slice(None) if a in axes else 0 for a in range(3))
        phi = dsol.phi0.values[cut].ravel()
        G = modes.coupling_fields(grid)[(slice(None), *cut)].reshape(modes.M, -1)
        dg = np.sqrt(modes.weights)[:, None] * (G - dsol.f0[:, None])
        self.electron = np.sqrt(grid.n ** (3 - len(axes)) * grid.cell_volume) * phi
        self._d = len(axes)
        self._vshift = dsol.V_eff.values[cut].ravel() - dsol.lam
        # g_i = alpha^-1 sqrt(w_i) delta G_i is the coefficient of a_i^dag
        self._g = dg / self.alpha
        self.bounds = lo, hi = self.spectral_bounds()
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        self._mid, self._half = mid, half
        self._lap = grid.laplacian_matrix / half
        diag = self._vshift[:, None] + self.fs.numbers / self.alpha**2
        self._diag = ((diag - mid) / half).ravel()
        # a_i^dag moves flat index f to f + stride with weight g_i(site) w, the
        # destination's sqrt(n_i); n_i = 0 at every Fock index below the
        # stride, so a shift across a site boundary has weight exactly 0.
        # a_i moves back with the conjugate plane
        self._planes = []
        for g, (stride, w) in zip(self._g, self.fs.ladders):
            up = np.zeros((len(g), self.fs.dim), dtype=np.complex128)
            up[:, stride:] = g[:, None] * w / half
            up = up.ravel()[stride:]
            self._planes.append((stride, up, np.conj(up)))
        self._scratch = np.empty(len(self._vshift) * self.fs.dim, dtype=np.complex128)

    def apply(self, psi: np.ndarray, out: np.ndarray | None = None, scale: float = 1.0,
              shift: float = 0.0) -> np.ndarray:
        """Write scale (H - shift) psi into out (a new array if None) and return
        it, for psi of shape (sector_size, fock_dim) in any memory layout; out
        is C-contiguous and does not overlap psi.  That is scale half X psi +
        scale (mid - shift) psi, built in place on out."""
        psi = np.ascontiguousarray(psi, dtype=np.complex128)
        if out is None:
            out = np.empty_like(psi)
        v, w, tmp = psi.reshape(-1), out.reshape(-1), self._scratch
        n = len(self._lap)
        # Laplacian: a real matmul per sector axis on the float view, so the
        # real and imaginary parts share each dgemm
        re, tre = v.view(np.float64), tmp.view(np.float64)
        np.matmul(self._lap, re.reshape(n, -1), out=w.view(np.float64).reshape(n, -1))
        for a in range(1, self._d):
            np.matmul(self._lap, re.reshape(n**a, n, -1), out=tre.reshape(n**a, n, -1))
            w += tmp
        w += np.multiply(self._diag, v, out=tmp)
        # coupling: sum_i (g_i a_i^dag + conj(g_i) a_i), flat index shifts
        for stride, up, down in self._planes:
            top, bottom = w[stride:], w[:-stride]
            top += np.multiply(up, v[:-stride], out=tmp[:-stride])
            bottom += np.multiply(down, v[stride:], out=tmp[:-stride])
        w *= scale * self._half
        if shift != self._mid:
            w += np.multiply(v, scale * (self._mid - shift), out=tmp)
        return out

    def spectral_bounds(self) -> tuple[float, float]:
        """(lo, hi) containing the spectrum.  hi is Weyl's inequality on two
        pieces known exactly: the top of h - lambda on the sector, the sum of
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
        top_h = sum(e[-1] for e, c in zip(spec.levels, spec.coupled) if c)
        n, k = np.arange(r), np.arange(1, r)
        ladder = np.zeros((*self._g.shape, r, r))
        ladder[..., n, n] = n / self.alpha**2
        ladder[..., k, k - 1] = np.abs(self._g)[..., None] * np.sqrt(k)
        top_n = np.linalg.eigvalsh(ladder, UPLO="L")[..., -1].sum(axis=0).max()
        c = 2.0 * np.abs(self._g).max(axis=1).sum() * np.sqrt(self.fs.n_max)
        # the diagonal is V_eff - lambda at the vacuum, its least column
        square = self._vshift - np.sum(np.abs(self.alpha * self._g) ** 2, axis=0)
        lo = max(self._vshift.min() - c, square.min())
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
    # the angles die before the FFT, which keeps only its input and output
    c = np.fft.fft(np.exp(-1j * x * np.cos(np.pi * np.arange(2 * n) / n)))[: n + 1] / (2 * n)
    c[1:] *= 2
    return c[: edge + np.flatnonzero(np.abs(c[edge:]) < 1e-13)[0]]


class MatrixOperator:
    """A Hermitian matrix, numpy or scipy.sparse, under ``propagate``'s operator
    contract; ``bounds`` is its Gershgorin interval, diagonal -/+ |row| sum."""

    def __init__(self, matrix):
        self.matrix = matrix
        d = matrix.diagonal().real
        r = np.asarray(abs(matrix).sum(axis=1)).ravel() - np.abs(d)
        self.bounds = float(np.min(d - r)), float(np.max(d + r))

    def apply(self, v: np.ndarray, out: np.ndarray | None = None, scale: float = 1.0,
              shift: float = 0.0) -> np.ndarray:
        """scale (A - shift) v, written into out if given."""
        return np.multiply(self.matrix @ v - shift * v, scale, out=out)


def propagate(op, psi0: np.ndarray, times) -> list:
    """[exp(-i t H) psi0 for t in times] from one Chebyshev recurrence
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)): the vectors
    T_k(X) psi0 do not depend on t.  op, a ``CoupledHamiltonian`` or
    ``MatrixOperator(A)``, carries the Hermitian H: op.bounds = (lo, hi)
    contains its spectrum, and op.apply(v, out=None, scale=1.0, shift=0.0)
    writes scale (H - shift) v into out (a new array if None), which never
    overlaps v, and returns it.  Term k writes 2 X T_k-1 straight into its
    row of a block of the last max(len(times), 3) terms and subtracts T_k-2
    in place; with three rows, neither T_k-1 nor T_k-2 sits in the row
    being written.  One matrix product adds a full block to every sample
    whose series has not ended, with zeros past a sample's last term.  A
    padded zero meets only the block where that sample's series ends; an
    overflowed term there (zero times inf is NaN) would break the drift
    limits through the sample's own last terms anyway.  An interval that
    misses part of the spectrum shows at some sample as a norm drift above
    1e-9 or a relative energy drift above 1e-8, which raise EvolutionError.
    """
    nrm0 = np.linalg.norm(psi0)
    if abs(nrm0 - 1.0) > 1e-9:
        raise ValueError(f"initial state norm {nrm0}, expected 1")
    lo, hi = op.bounds
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    series = [_chebyshev_coefficients(half * t) for t in times]
    # samples by falling series length: those still running are leading rows
    order = sorted(range(len(times)), key=lambda j: -len(series[j]))
    coeffs = [series[j] for j in order]
    out = np.stack([c[0] * psi0.ravel() for c in coeffs])
    prod = np.empty_like(out)  # a block's share of each sample
    block = np.empty((max(len(times), 3), *psi0.shape), dtype=np.complex128)
    rows = block.reshape(len(block), -1)
    # cur = T_k(X) psi0 with X = (H - mid) / half, whose spectrum is in [-1, 1]
    prev, cur = None, psi0
    for first in range(1, len(coeffs[0]), len(block)):
        last = min(first + len(block), len(coeffs[0]))  # the block holds T_first .. T_last-1
        for k in range(first, last):
            nxt = op.apply(cur, out=block[k - first], scale=(2.0 if k > 1 else 1.0) / half,
                           shift=mid)
            if k > 1:
                nxt -= prev
            prev, cur = cur, nxt
        running = sum(len(c) > first for c in coeffs)
        cblock = np.zeros((running, last - first), dtype=np.complex128)
        for row, c in zip(cblock, coeffs):
            row[: len(c) - first] = c[first:last]
        out[:running] += np.matmul(cblock, rows[: last - first], out=prod[:running])
    e0 = np.vdot(psi0, op.apply(psi0)).real
    states = [out[order.index(j)].reshape(psi0.shape) for j in range(len(times))]
    for t, psi in zip(times, states):
        psi *= np.exp(-1j * mid * t)
        drift = abs(np.linalg.norm(psi) - 1.0)
        edrift = abs(np.vdot(psi, op.apply(psi)).real - e0) / max(1.0, abs(e0))
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
