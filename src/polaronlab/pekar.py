"""Pekar ground-state solvers.

Two variants: the continuum-style minimizer of the self-interaction
functional  E(phi) = T - D/2  on the full grid, and the self-consistent
finite-mode variant in which the attractive potential is built from a
fixed quadrature of phonon modes.  The finite-mode solution makes the
displaced-frame operator identities of the toy model hold exactly, which
is what the brute-force experiments rely on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import resolvent
from .config import InvariantError, NonConvergenceError, write_json
from .grid import (
    Field,
    Grid3,
    apply_laplacian,
    coulomb_convolve,
    gaussian,
    inner,
    save_field,
)
from .modes import ModeSet

# Analytic Gaussian upper bound: the width-sigma Gaussian gives
# E = 3/(4 sigma^2) - 1/(2 sigma sqrt(pi)), minimized at sigma = 3 sqrt(pi)
# with value -1/(12 pi).
GAUSSIAN_BOUND = -1.0 / (12.0 * np.pi)
GAUSSIAN_OPT_SIGMA = 3.0 * np.sqrt(np.pi)

DESCENT_STEP = 0.8
DESCENT_MAX_ITER = 4000
DISCRETE_DAMPING = 0.5
DISCRETE_MAX_ITER = 400
DISCRETE_SIGMA_INIT = 1.5


class DelocalizedError(InvariantError):
    """The solver reached a spread-out state instead of a bound one: an
    invariant failure of the set-up (box too small, coupling too weak)."""


class NotNormalizedError(ValueError):
    pass


class ConvergenceError(NonConvergenceError):
    pass


def _require_normalized(phi: Field) -> Field:
    if not abs(phi.norm() - 1.0) <= 1e-8:
        raise NotNormalizedError(f"|phi| = {phi.norm()}, expected 1")
    return phi


def pekar_energy(phi: Field):
    """Return (T, D, E) for a normalized phi; refuses unnormalized input."""
    T = inner(_require_normalized(phi), apply_laplacian(phi)).real
    rho = np.abs(phi.values) ** 2
    D = float(np.vdot(rho, coulomb_convolve(rho, phi.grid))) * phi.grid.cell_volume
    return T, D, T - 0.5 * D


def _fix_phase_positive(phi: Field) -> Field:
    s = np.sum(phi.values.real) * phi.grid.cell_volume
    vals = phi.values if s >= 0 else -phi.values
    # real: only the plane-wave bases of uncoupled axes make the product
    # complex, and their constant ground vector has no imaginary part
    return Field(vals.real, phi.grid)


@dataclass(kw_only=True)
class PekarSolution:
    """Converged continuum-style Pekar minimizer and its derived scalars."""

    phi0: Field
    T: float
    D: float
    energy: float
    lam: float
    V_eff: Field
    residual: float
    iterations: int

    @property
    def grid(self) -> Grid3:
        return self.phi0.grid

    def scalars(self) -> dict:
        return {
            "T": self.T,
            "D": self.D,
            "E": self.energy,
            "lambda": self.lam,
            "residual": self.residual,
            "iterations": self.iterations,
            "grid_n": self.grid.n,
            "box_length": self.grid.box_length,
        }

    def save(self, outdir: str):
        os.makedirs(outdir, exist_ok=True)
        save_field(self.phi0, os.path.join(outdir, "phi0.pfld"), tag="phi0")
        save_field(self.V_eff, os.path.join(outdir, "veff.pfld"), tag="veff")
        write_json(os.path.join(outdir, "scalars.json"), self.scalars())


def _euler_lagrange(phi: np.ndarray, grid: Grid3):
    """V_eff of a real phi, lambda = <phi, h phi> with h = p^2 + V_eff, D and
    the residual ||(h - lambda) phi||, by real FFTs and sums on the full grid."""
    axes, dv, rho = (0, 1, 2), grid.cell_volume, phi * phi
    V = -coulomb_convolve(rho, grid)  # V(x) = -(|phi|^2 * 1/|x|)(x)
    grad = np.fft.irfftn(grid.half_ksq * np.fft.rfftn(phi, axes=axes), s=grid.shape, axes=axes)
    grad += V * phi
    lam = float(np.vdot(phi, grad)) * dv
    grad -= lam * phi
    return V, lam, -float(np.vdot(rho, V)) * dv, float(np.sqrt(np.vdot(grad, grad) * dv))


def _cosine_matrix(n: int):
    """(C, w): on indices 0..n/2, the DFT of a field even about index 0 is
    C[m, j] = c_j cos(2 pi j m / n), with c_j = 1 at j = 0, n/2 and 2
    elsewhere, the full-axis points index j stands for.  C C = n I, and a
    full-grid sum is the octant sum weighted by w = c_a c_b c_c, in x and k."""
    j = np.arange(n // 2 + 1)
    c = np.where((j == 0) | (j == n // 2), 1.0, 2.0)
    return np.cos(2.0 * np.pi * (np.outer(j, j) % n) / n) * c, c[:, None, None] * c[:, None] * c


def _cos3(a: np.ndarray, C: np.ndarray) -> np.ndarray:
    """C along each axis of an octant array: three real matmuls."""
    h = len(C)
    for _ in range(3):  # contract the leading axis, append the transformed one
        a = a.reshape(h, -1).T @ C.T
    return a.reshape(h, h, h)


def _real_descent(grid: Grid3, tol: float):
    """minimize_pekar's loop: the first iterate with residual <= tol, and the
    iteration count.  The minimizer is unique only up to translations, yet
    the iterate needs no recentring: it starts from the centred Gaussian, and
    p^2, the |k|-only kernel and preconditioner and the pointwise products
    all commute with the reflection of each axis on its own.  So it stays even
    along every axis, and the loop holds its (n/2+1)^3 octant in x and in k:
    four cosine transforms a step (_cosine_matrix), lambda, the residual, the
    step and the norm read off the spectrum, and unfolding j -> min(j, n - j)."""
    n, h = grid.n, grid.n // 2 + 1
    C, w = _cosine_matrix(n)
    dot = lambda a, b: float(np.vdot(w * a, b))  # a sum over the full grid
    dv_hat = grid.cell_volume / grid.size  # Parseval: sum_x f g = dot(F, G) / n^3
    ksq, kern = grid.half_ksq[:h, :h, :h], grid.coulomb_kernel[:h, :h, :h] / grid.size

    g = np.exp(-grid.axis[:h] ** 2 / (4.0 * min(GAUSSIAN_OPT_SIGMA, grid.box_length / 8.0) ** 2))
    phi = g[:, None, None] * g[:, None] * g
    phi /= np.sqrt(dot(phi, phi) * grid.cell_volume)
    phi_hat = _cos3(phi, C)  # inverse: C / n, its 1/n^3 folded into kern and below
    tau, phi_prev, z_prev, residual = DESCENT_STEP, None, None, np.inf

    for it in range(1, DESCENT_MAX_ITER + 1):
        # h phi with h = p^2 + V_eff, V_eff = -(phi^2 * 1/|x|), then (h - lambda) phi in place
        grad = ksq * phi_hat
        grad -= _cos3(_cos3(_cos3(phi * phi, C) * kern, C) * phi, C)
        lam = dot(phi_hat, grad) * dv_hat
        grad -= lam * phi_hat
        residual = float(np.sqrt(dot(grad, grad) * dv_hat))
        if not np.isfinite(residual) or not np.isfinite(lam):
            raise ConvergenceError("energy collapsed to NaN during descent")
        if residual <= tol:
            break

        z = np.divide(grad, ksq + max(0.5, abs(lam)), out=grad)
        if phi_prev is not None:  # -dphi and -dz, in place of the arrays they replace
            phi_prev -= phi_hat
            z_prev -= z
            den = dot(phi_prev, z_prev)
            if den > 0:
                tau = float(np.clip(dot(phi_prev, phi_prev) / den, 0.05, 20.0))
        phi_prev, z_prev = phi_hat, z

        # phi - tau z, then fix the sign and the norm
        phi_hat = phi_hat - tau * z
        sign = 1.0 if phi_hat[0, 0, 0] >= 0 else -1.0
        phi_hat *= sign / np.sqrt(dot(phi_hat, phi_hat) * dv_hat)
        phi = _cos3(phi_hat, C) / grid.size
    else:
        raise ConvergenceError(
            f"no convergence after {DESCENT_MAX_ITER} iterations (residual {residual:.3e})"
        )

    fold = np.minimum(np.arange(n), n - np.arange(n))
    return phi[np.ix_(fold, fold, fold)], it


def minimize_pekar(grid: Grid3, tol: float = 1e-7) -> PekarSolution:
    """Normalized preconditioned gradient descent on the Pekar functional,
    stopped on the Euler-Lagrange residual ||(h^phi - lambda) phi||, with
    Barzilai-Borwein steps on the preconditioned gradient.  The iterate is
    sign-fixed every step and even along each axis, which fixes the
    translation gauge and lets the descent hold only its octant (see
    _real_descent).  The unfolded state is checked on the full grid by real
    FFTs: one Euler-Lagrange pass gives V, lambda = T - D, D = -<rho, V>.
    """
    phi, it = _real_descent(grid, tol)
    V, lam, D, residual = _euler_lagrange(phi, grid)
    T, E = lam + D, lam + 0.5 * D  # E = T - D/2
    # the spread-out near-uniform state is a stationary point on small boxes;
    # a bound minimizer always has T comparable to |E| (virial: T = -E)
    if T < 0.01 * abs(E):
        raise DelocalizedError("descent collapsed to a delocalized state "
                               f"(T = {T:.3e}, E = {E:.3e}); enlarge the box")
    phi0 = _require_normalized(Field(phi, grid))  # normalised in k by the descent, checked in x
    return PekarSolution(phi0=phi0, T=T, D=D, energy=E, lam=lam, V_eff=Field(V, grid),
                         residual=residual, iterations=it)


# ---------------------------------------------------------------------------
# finite-mode self-consistent variant
# ---------------------------------------------------------------------------


@dataclass(kw_only=True)
class DiscretePekarSolution(PekarSolution):
    """Self-consistent ground state of p^2 + V with V built from a ModeSet;
    D = 2 sum_i w_i |f0_i|^2 is the finite-mode analogue of D."""

    modes: ModeSet
    f0: np.ndarray  # coupling amplitudes <phi0, G_x(k_i) phi0>, length M
    energy_trace: list = field(default_factory=list)
    spectrum: resolvent.SeparableSpectrum = field(repr=False, compare=False)  # the final sweep's

    def scalars(self) -> dict:
        return {
            **super().scalars(),
            "energy_trace": list(self.energy_trace),
            "f0_re": np.real(self.f0).tolist(),
            "f0_im": np.imag(self.f0).tolist(),
            "modes": self.modes.as_dict(),
        }


def _mode_amplitudes(G: np.ndarray, phi: Field) -> np.ndarray:
    """<phi, G_x(k_i) phi> = int G_x(k_i) |phi(x)|^2 dx for every mode."""
    rho = np.abs(phi.values.ravel()) ** 2
    return (G.reshape(len(G), -1) @ rho) * phi.grid.cell_volume


def _pin_translation(modes: ModeSet, f: np.ndarray) -> np.ndarray:
    """Fix the translation gauge on the amplitudes: moving the density by d
    turns f_i into f_i e^{-i k_i.d}.  d solves k_j.d = arg f_j over the span
    basis of the k_i (the least-squares solution by ``ModeSet.span_pinv``: the
    basis may span fewer axes than it touches), so those amplitudes come out
    real and nonnegative."""
    d = modes.span_pinv @ np.angle(f[modes.span_basis])
    return f * np.exp(-1j * (modes.k_vectors @ d))


def _group_potentials(modes: ModeSet, groups: list, f: np.ndarray) -> list:
    """V_g = -2 Re sum_{i in g} w_i conj(f_i) G_x(k_i) on the points of each
    group of ``ModeSet.group_fields``: the terms of V built from the amplitudes f."""
    return [-2.0 * ((modes.weights[idx] * np.conj(f[idx])) @ Gg).real for _, idx, Gg in groups]


def _group_sweep(modes: ModeSet, groups: list, f: np.ndarray, grid: Grid3):
    """lambda, T and the amplitudes <phi, G_x(k_i) phi> of the ground state phi
    of h = p^2 + V with V built from the amplitudes f, group by group and
    never on the grid.  V is the sum of the group terms V_g, each a sum of
    plane waves of mean 0, so lambda is the sum of the groups' lowest levels;
    the density |phi|^2 is the product of the group densities
    p_g = u_g[:, 0]^2 (and a constant along uncoupled axes), so
    T = sum_g (e_g[0] - <p_g, V_g>) and <phi, G_x(k_i) phi> = <p_g, G_x(k_i)>
    over the points of k_i's group."""
    lam = T = 0.0
    f_new = np.empty_like(f)
    for (g, idx, Gg), v in zip(groups, _group_potentials(modes, groups, f)):
        e, u = resolvent.group_eigensystem(grid, len(g), v)
        p = u[:, 0] ** 2
        p /= p.sum()
        lam += e[0]
        T += e[0] - p @ v
        f_new[idx] = Gg @ p
    return lam, T, f_new


def _sweep_ground_state(modes: ModeSet, groups: list, f: np.ndarray, grid: Grid3):
    """The final sweep: the spectrum of h = p^2 + V with V built from the
    amplitudes f, from the group terms V_g by the sweeps' group eigensystem
    helper; its sign-fixed, normalised ground state phi, the outer product
    of the group ground vectors, and its eigenvalue lambda
    (``SeparableSpectrum.ground``); V on the grid, the broadcast sum of the
    V_g, so exactly constant along uncoupled axes; and the kinetic energy
    T = lambda - <phi, V phi>."""
    potentials = _group_potentials(modes, groups, f)
    spec = resolvent.separable_spectrum(grid, modes, potentials)
    V = np.zeros(grid.shape)
    for (g, _, _), v in zip(groups, potentials):
        V += v.reshape([grid.n if a in g else 1 for a in range(3)])
    phi, lam = spec.ground()
    phi = _fix_phase_positive(Field(phi, grid))
    phi = phi * (1.0 / phi.norm())
    T = lam - float(np.vdot(phi.values**2, V)) * grid.cell_volume
    return phi, lam, Field(V, grid), T, spec


def solve_discrete_pekar(grid: Grid3, modes: ModeSet, tol: float = 1e-9) -> DiscretePekarSolution:
    """Damped fixed-point iteration for the finite-mode Pekar problem.

    Each sweep builds V from the current amplitudes f, takes the exact
    ground state of p^2 + V (a product over the axis groups of the modes),
    pins the translation gauge of its amplitudes and mixes them in with
    damping.  The sweeps work on the M amplitudes and one small operator
    per coupled axis group (``_group_sweep``); the final sweep builds the
    spectrum from the same group operators and only phi and V on the n^3
    grid (``_sweep_ground_state``), and the residual is read there.  Binding
    is enforced: the converged state must be localized along every coupled
    axis.
    """
    G = modes.coupling_fields(grid)
    groups = modes.group_fields(G)
    f = _mode_amplitudes(G, gaussian(grid, DISCRETE_SIGMA_INIT))
    trace = []
    resid = np.inf

    for it in range(1, DISCRETE_MAX_ITER + 1):
        _, T, f_new = _group_sweep(modes, groups, f, grid)
        f_new = _pin_translation(modes, f_new)
        resid = float(np.max(np.abs(f_new - f)))
        trace.append(T - float(np.sum(modes.weights * np.abs(f_new) ** 2)))
        if resid <= tol:
            f = f_new
            break
        f = (1.0 - DISCRETE_DAMPING) * f + DISCRETE_DAMPING * f_new
    else:
        raise ConvergenceError(
            f"discrete Pekar fixed point not converged (residual {resid:.3e})"
        )

    phi, lam, V, T, spec = _sweep_ground_state(modes, groups, f, grid)
    resid = float(np.max(np.abs(_mode_amplitudes(G, phi) - f)))

    # binding check: second moment along each coupled axis (minimum image),
    # from the 1-D marginal of the density along that axis
    rho = phi.values**2
    for a in modes.coupled_axes:
        marginal = rho.sum(axis=tuple(b for b in range(3) if b != a))
        x2 = float(np.sum(marginal * grid.axis**2) * grid.cell_volume)
        if x2 > (grid.box_length / 4.0) ** 2:
            raise DelocalizedError(
                "ground state delocalized along axis "
                f"{a} (<x^2> = {x2:.3g}); increase coupling weights or modes"
            )

    coupling = float(np.sum(modes.weights * np.abs(f) ** 2))
    return DiscretePekarSolution(
        phi0=phi,
        modes=modes,
        f0=f,
        T=T,
        D=2.0 * coupling,
        energy=T - coupling,
        lam=lam,
        V_eff=V,
        residual=resid,
        iterations=it,
        energy_trace=trace,
        spectrum=spec,
    )
