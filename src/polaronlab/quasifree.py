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
symplectic, V^* S V = S.

The Heisenberg transport of the ladder operators uses the conjugated
generator S A S; its blocks (U, W) = (V11, -V12) transform the one-body
density gamma and the pairing matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .resolvent import KernelPair


class SymplecticError(RuntimeError):
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


def build_generator(kp: KernelPair) -> Generator:
    """Assemble the block generator from a validated kernel pair."""
    kp.check(tol=1e-8)
    K, G = kp.K, kp.G
    M = K.shape[0]
    eye = np.eye(M)
    A = np.block([[eye - G, K], [-K.conj(), -eye + G.conj()]])
    gen = Generator(A=A, kernels=kp)
    if gen.s_hermiticity_defect() > 1e-10:
        raise ValueError("S.A is not Hermitian; refusing to build generator")
    return gen


@dataclass
class BogoliubovMap:
    """Symplectic map V(t) = exp(-i (t/alpha^2) A) with timestamp metadata."""

    V: np.ndarray
    t: float
    alpha: float

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


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) by eigendecomposition when well conditioned, else Pade."""
    try:
        mu, P = np.linalg.eig(A)
        cond = np.linalg.cond(P)
        if np.isfinite(cond) and cond < 1e8:
            return (P * np.exp(mu)) @ np.linalg.inv(P)
    except np.linalg.LinAlgError:
        pass
    return scipy.linalg.expm(A)


def propagate_map(gen: Generator, t: float, alpha: float) -> BogoliubovMap:
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    V = _expm(-1j * (t / alpha**2) * gen.A)
    bmap = BogoliubovMap(V=V, t=t, alpha=alpha)
    defect = bmap.symplectic_defect()
    if defect > SYMPLECTIC_FAIL:
        raise SymplecticError(f"symplectic defect {defect:.3e} exceeds hard limit")
    if defect > SYMPLECTIC_WARN:
        import warnings

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

    def check(self, tol: float = 1e-8):
        if np.max(np.abs(self.gamma - self.gamma.conj().T)) > tol:
            raise ValueError("gamma is not Hermitian")
        if np.max(np.abs(self.pairing - self.pairing.T)) > tol:
            raise ValueError("pairing is not symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * (self.gamma + self.gamma.conj().T))) < -tol:
            raise ValueError("gamma has a negative eigenvalue")

    def purity_defect(self) -> float:
        """||gamma(gamma + 1) - pairing pairing^dagger||_max; zero for pure states."""
        g, p = self.gamma, self.pairing
        return float(np.max(np.abs(g @ g + g - p @ p.conj().T)))


def vacuum_state(M: int) -> QuasiFreeState:
    z = np.zeros((M, M), dtype=np.complex128)
    return QuasiFreeState(gamma=z.copy(), pairing=z.copy())


def squeezed_vacuum(M: int, r: float, theta: float = 0.0) -> QuasiFreeState:
    """Mode-diagonal squeezed vacuum preset with uniform squeezing r."""
    sh, ch = np.sinh(r), np.cosh(r)
    gamma = np.eye(M) * sh**2
    pairing = np.eye(M) * (-np.exp(1j * theta) * sh * ch)
    return QuasiFreeState(gamma=gamma.astype(np.complex128), pairing=pairing)


def expected_number(state: QuasiFreeState) -> float:
    return float(np.trace(state.gamma).real)


def evolve_quasifree(state: QuasiFreeState, bmap: BogoliubovMap) -> QuasiFreeState:
    """Transform (gamma, pairing) through the Bogoliubov map.

    With a_i(t) = sum_j U_ij a_j + W_ij a_j^dag the transformed densities are

      gamma' = U gamma U^+ + W (1 + gamma^T) W^+ + U pairing W^+ + W pairing^- U^+
      pair'  = U pairing U^T + W pairing^- W^T + U gamma W^T + W (1 + gamma^T) U^T

    where pairing^- = conj(pairing).
    """
    U, W = bmap.heisenberg_blocks()
    g0, p0 = state.gamma, state.pairing
    eye = np.eye(state.M)
    gamma = (
        U @ g0 @ U.conj().T
        + W @ (eye + g0.T) @ W.conj().T
        + U @ p0 @ W.conj().T
        + W @ p0.conj() @ U.conj().T
    )
    pairing = (
        U @ p0 @ U.T
        + W @ p0.conj() @ W.T
        + U @ g0 @ W.T
        + W @ (eye + g0.T) @ U.T
    )
    out = QuasiFreeState(gamma=gamma, pairing=pairing)
    return out


def density_rhs(gen: Generator, state: QuasiFreeState, alpha: float):
    """Right-hand side of the closed ODE system for (gamma, pairing)."""
    kp = gen.kernels
    M = gen.M
    h = np.eye(M) - kp.G
    K = kp.K
    g, p = state.gamma, state.pairing
    dg = 1j * (g @ h - h @ g) + 1j * (K @ p.conj() - p @ K.conj().T)
    dp = 1j * (-p @ h.conj() - h @ p + g @ K + K + K @ g.T)
    return dg / alpha**2, dp / alpha**2


def evolve_odes(
    state0: QuasiFreeState,
    gen: Generator,
    t: float,
    alpha: float,
    dt: float = 0.01,
) -> QuasiFreeState:
    """Classical RK4 integration of the (gamma, pairing) ODE system.

    dt is measured in units of t (not tau); it must resolve ||A|| / alpha^2.
    """
    anorm = np.linalg.norm(gen.A, 2) / alpha**2
    if dt * anorm > 0.5:
        raise ValueError(
            f"dt = {dt} too large for ||A||/alpha^2 = {anorm:.3g}; "
            f"use dt <= {0.5 / anorm:.3g}"
        )
    nsteps = max(1, int(round(abs(t) / dt)))
    hstep = t / nsteps
    g = state0.gamma.copy()
    p = state0.pairing.copy()
    for _ in range(nsteps):
        s1 = QuasiFreeState(g, p)
        k1g, k1p = density_rhs(gen, s1, alpha)
        s2 = QuasiFreeState(g + 0.5 * hstep * k1g, p + 0.5 * hstep * k1p)
        k2g, k2p = density_rhs(gen, s2, alpha)
        s3 = QuasiFreeState(g + 0.5 * hstep * k2g, p + 0.5 * hstep * k2p)
        k3g, k3p = density_rhs(gen, s3, alpha)
        s4 = QuasiFreeState(g + hstep * k3g, p + hstep * k3p)
        k4g, k4p = density_rhs(gen, s4, alpha)
        g = g + (hstep / 6.0) * (k1g + 2 * k2g + 2 * k3g + k4g)
        p = p + (hstep / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
    return QuasiFreeState(gamma=g, pairing=p)
