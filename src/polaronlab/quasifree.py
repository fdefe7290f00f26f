"""Effective quadratic phonon dynamics: generator, time-dependent
Bogoliubov map, and evolution of reduced one-body densities.

Conventions.  Modes are indexed 0..M-1; complex conjugation of a mode
function combines entrywise conjugation with the parity reindexing
k -> -k, but all matrices here are already expressed in the discrete
mode basis, where the generator takes the block form

    A = [[1 - G,        K      ],
         [-conj(K), -1 + conj(G)]]

with K symmetric and G Hermitian, so that S A is Hermitian for
S = diag(1, -1).  The map V(t) = exp(-i (t/alpha^2) A) is then exactly
symplectic, V^* S V = S.  ``_expm`` computes it on numpy alone, by one
scaling and squaring route that needs no eigenbasis of a nearly defective A.

The Heisenberg transport of the ladder operators uses the conjugated
generator S A S; its blocks (U, W) = (V11, -V12) transform the one-body
density gamma and the pairing matrix.

The independent RK4 route on the real-affine (gamma, pairing) ODEs tabulates
one step from one batched step of the stacked unit states, and raises it to
the step count by repeated squaring (Moler & Van Loan, SIAM Rev. 45 (2003)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import InvariantError
from .resolvent import KernelError, KernelPair


class SymplecticError(InvariantError):
    pass


SYMPLECTIC_WARN = 1e-8
SYMPLECTIC_FAIL = 1e-6


@dataclass
class Generator:
    """2M x 2M one-body generator of the effective phonon dynamics."""

    A: np.ndarray
    kernels: KernelPair

    @property
    def M(self) -> int:
        return self.A.shape[0] // 2

    @property
    def S(self) -> np.ndarray:
        M = self.M
        return np.diag(np.concatenate([np.ones(M), -np.ones(M)]))

    def s_hermiticity_defect(self) -> float:
        SA = self.S @ self.A
        return float(np.max(np.abs(SA - SA.conj().T)))

    def zero_mode_diagnostics(self, f0: np.ndarray) -> dict:
        """The lowest symplectic frequency min |eig A| and, per coupled axis a,
        the zero-mode defect |A v_a| / |v_a|.  Moving the ground state by d
        turns each amplitude f0_i into f0_i e^{-i k_i.d}, so on a
        translation-invariant model v_a = (u, -conj u), u_i = i k_{i,a}
        sqrt(w_i) f0_i, is a zero mode of A and the lowest frequency is 0.
        The grid pins the polaron and lifts both: pair-x reads 0.647 and 0.419
        on 8^3, and a defect of 1.0e-11 on 24^3 (discrete Pekar tolerance
        1e-10)."""
        modes = self.kernels.modes
        out = {"lowest_symplectic_frequency": float(np.min(np.abs(np.linalg.eigvals(self.A))))}
        for a in modes.coupled_axes:
            u = 1j * modes.k_vectors[:, a] * np.sqrt(modes.weights) * f0
            v = np.concatenate([u, -u.conj()])
            out[f"zero_mode_defect_axis{a}"] = float(np.linalg.norm(self.A @ v) / np.linalg.norm(v))
        return out


def build_generator(kp: KernelPair) -> Generator:
    """Assemble the block generator from a validated kernel pair."""
    kp.check(tol=1e-8)
    K, G = kp.K, kp.G
    M = K.shape[0]
    eye = np.eye(M)
    A = np.block([[eye - G, K], [-K.conj(), -eye + G.conj()]])
    gen = Generator(A=A, kernels=kp)
    if gen.s_hermiticity_defect() > 1e-10:
        raise KernelError("S.A is not Hermitian; refusing to build generator")
    return gen


@dataclass
class BogoliubovMap:
    """Symplectic map V(t) = exp(-i (t/alpha^2) A)."""

    V: np.ndarray

    @property
    def M(self) -> int:
        return self.V.shape[0] // 2

    def symplectic_defect(self) -> float:
        M = self.M
        S = np.diag(np.concatenate([np.ones(M), -np.ones(M)]))
        return float(np.max(np.abs(self.V.conj().T @ S @ self.V - S)))

    def heisenberg_blocks(self):
        """(U, W) such that a_i(t) = sum_j U_ij a_j + W_ij a_j^dagger."""
        M = self.M
        return self.V[:M, :M], -self.V[:M, M:]


def _expm(X: np.ndarray) -> np.ndarray:
    """exp(X) by scaling and squaring (Moler & Van Loan, SIAM Rev. 45 (2003);
    Higham, SIAM J. Matrix Anal. Appl. 26 (2005)), one route for every X.
    With 2 ||X||_1 = m 2^e, 1/2 <= m < 1, and s = max(e, 0), Y = X / 2^s has
    ||Y||_1 <= 1/2, so its degree-16 Taylor sum T, by Horner's rule, leaves
    ||exp(Y) - T||_1 <= sum_{k > 16} 2^-k / k! < 2.3e-20, below roundoff; T
    squared s times is exp(X), and a nilpotent X (X^2 = 0) gives 1 + X."""
    s = max(int(np.frexp(2.0 * np.linalg.norm(X, 1))[1]), 0)
    Y = X / 2.0**s
    T = eye = np.eye(len(X), dtype=Y.dtype)
    for k in range(16, 0, -1):
        T = eye + (Y @ T) / k
    for _ in range(s):
        T = T @ T
    return T


def propagate_map(gen: Generator, t: float, alpha: float) -> BogoliubovMap:
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    bmap = BogoliubovMap(_expm(-1j * (t / alpha**2) * gen.A))
    defect = bmap.symplectic_defect()
    if defect > SYMPLECTIC_FAIL:
        raise SymplecticError(f"symplectic defect {defect:.3e} exceeds hard limit")
    if defect > SYMPLECTIC_WARN:
        warnings.warn(f"symplectic defect {defect:.3e} above warn threshold")
    return bmap


@dataclass
class QuasiFreeState:
    """Reduced one-body data of a quasi-free state: <a^dag a> and <a a>."""

    gamma: np.ndarray
    pairing: np.ndarray

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=np.complex128)
        self.pairing = np.asarray(self.pairing, dtype=np.complex128)
        if self.gamma.shape != self.pairing.shape or self.gamma.ndim != 2:
            raise ValueError("gamma and pairing must be square matrices of equal size")

    @property
    def M(self) -> int:
        return self.gamma.shape[0]

    def purity_defect(self) -> float:
        """||gamma(gamma + 1) - pairing pairing^dagger||_max; zero for pure states."""
        g, p = self.gamma, self.pairing
        return float(np.max(np.abs(g @ g + g - p @ p.conj().T)))


def vacuum_state(M: int) -> QuasiFreeState:
    z = np.zeros((M, M), dtype=np.complex128)
    return QuasiFreeState(gamma=z.copy(), pairing=z.copy())


def expected_number(state: QuasiFreeState) -> float:
    return float(np.trace(state.gamma).real)


def evolve_quasifree(state: QuasiFreeState, bmap: BogoliubovMap) -> QuasiFreeState:
    """Transform (gamma, pairing) through the Bogoliubov map as one congruence
    Gamma -> T Gamma T^+ of the generalized one-body density (Bach, Lieb &
    Solovej, J. Stat. Phys. 76, 3 (1994)).

    With a_i(t) = sum_j U_ij a_j + W_ij a_j^dag the vector (a, a^dag) moves
    by T = [[U, W], [W^-, U^-]], and Gamma_IJ = <(a, a^dag)_J^dag (a, a^dag)_I>
    is [[gamma, pairing], [pairing^-, 1 + gamma^T]], where ^- conjugates
    entrywise; the new gamma and pairing are the upper blocks of T Gamma T^+.
    """
    U, W = bmap.heisenberg_blocks()
    g, p, M = state.gamma, state.pairing, state.M
    T = np.block([[U, W], [W.conj(), U.conj()]])
    Gamma = np.block([[g, p], [p.conj(), np.eye(M) + g.T]])
    upper = T[:M] @ Gamma @ T.conj().T
    return QuasiFreeState(gamma=upper[:, :M], pairing=upper[:, M:])


def density_rhs(gen: Generator, g: np.ndarray, p: np.ndarray, alpha: float):
    """Right-hand side of the closed ODE system for (gamma, pairing) = (g, p);
    leading axes of g and p stack independent states."""
    kp = gen.kernels
    M = gen.M
    h = np.eye(M) - kp.G
    K = kp.K
    dg = 1j * (g @ h - h @ g) + 1j * (K @ p.conj() - p @ K.conj().T)
    dp = 1j * (-p @ h.conj() - h @ p + g @ K + K + K @ g.swapaxes(-1, -2))
    return dg / alpha**2, dp / alpha**2


def _rk4_step(gen: Generator, g, p, h: float, alpha: float):
    """One classical RK4 step of length h of the density_rhs ODE from (g, p)."""
    k1g, k1p = density_rhs(gen, g, p, alpha)
    k2g, k2p = density_rhs(gen, g + 0.5 * h * k1g, p + 0.5 * h * k1p, alpha)
    k3g, k3p = density_rhs(gen, g + 0.5 * h * k2g, p + 0.5 * h * k2p, alpha)
    k4g, k4p = density_rhs(gen, g + h * k3g, p + h * k3p, alpha)
    g = g + (h / 6.0) * (k1g + 2 * k2g + 2 * k3g + k4g)
    p = p + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
    return g, p


def _pack(g, p) -> np.ndarray:
    """(gamma, pairing) as one real vector of length 4 M^2 (re/im interleaved) per leading index."""
    return np.stack([g, p], axis=-3).reshape(*g.shape[:-2], -1).view(np.float64)


def _unpack(y: np.ndarray, M: int):
    z = y.view(np.complex128).reshape(*y.shape[:-1], 2, M, M)
    return z[..., 0, :, :], z[..., 1, :, :]


def _rk4_affine(gen: Generator, h: float, alpha: float):
    """(P, q) with _rk4_step(y) = P y + q on packed real vectors.

    density_rhs is real-affine in (gamma, pairing) with constant coefficients,
    so one RK4 step is an affine map: q is the step from zero and column j of
    P the step from the unit vector e_j, less q.  The states 0, e_1 ... e_n
    are the rows of one array and take one batched step (four density_rhs calls).
    """
    n = 4 * gen.M**2
    steps = _pack(*_rk4_step(gen, *_unpack(np.eye(n + 1, n, -1), gen.M), h, alpha))
    return (steps[1:] - steps[0]).T, steps[0]


def evolve_odes(
    state0: QuasiFreeState,
    gen: Generator,
    t: float,
    alpha: float,
    dt: float = 0.01,
) -> QuasiFreeState:
    """Classical RK4 integration of the (gamma, pairing) ODE system.

    dt is measured in units of t (not tau); it must resolve ||A|| / alpha^2.
    The step is tabulated once as the affine map y -> P y + q of
    ``_rk4_affine``, and round(t / dt) steps are the power of the augmented
    matrix [[P, q], [0, 1]], taken by repeated squaring.  So the cost in
    density_rhs calls does not depend on dt, and the ODE is still defined
    by density_rhs alone, independently of the exponential map.
    """
    anorm = np.linalg.norm(gen.A, 2) / alpha**2
    if dt * anorm > 0.5:
        raise ValueError(
            f"dt = {dt} too large for ||A||/alpha^2 = {anorm:.3g}; "
            f"use dt <= {0.5 / anorm:.3g}"
        )
    nsteps = max(1, int(round(abs(t) / dt)))
    P, q = _rk4_affine(gen, t / nsteps, alpha)
    step = np.vstack([np.column_stack([P, q]), np.eye(1, len(q) + 1, len(q))])  # [[P, q], [0, 1]]
    y = np.append(_pack(state0.gamma, state0.pairing), 1.0)
    y = np.linalg.matrix_power(step, nsteps) @ y
    return QuasiFreeState(*_unpack(y[:-1], gen.M))
