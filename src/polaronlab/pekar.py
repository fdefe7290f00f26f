"""Pekar ground-state solvers.

Two variants: the continuum-style minimizer of the self-interaction
functional  E(phi) = T - D/2  on the full grid, and the self-consistent
finite-mode variant in which the attractive potential is built from a
fixed quadrature of phonon modes.  The finite-mode solution makes the
displaced-frame operator identities of the toy model hold exactly, which
is what the brute-force experiments rely on.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    Field,
    Grid3,
    apply_laplacian,
    coulomb_convolve,
    gaussian,
    inner,
    load_field,
    save_field,
    shift_field,
)

# Analytic Gaussian upper bound: the width-sigma Gaussian gives
# E = 3/(4 sigma^2) - 1/(2 sigma sqrt(pi)), minimized at sigma = 3 sqrt(pi)
# with value -1/(12 pi).
GAUSSIAN_BOUND = -1.0 / (12.0 * np.pi)
GAUSSIAN_OPT_SIGMA = 3.0 * np.sqrt(np.pi)


class PekarError(RuntimeError):
    pass


class DelocalizedError(PekarError):
    """The solver reached a spread-out state instead of a bound one: an
    invariant failure of the set-up (box too small, coupling too weak)."""


class NotNormalizedError(ValueError):
    pass


class ConvergenceError(PekarError):
    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


def density(phi: Field) -> Field:
    return Field(np.abs(phi.values) ** 2, phi.grid)


def effective_potential(phi: Field) -> Field:
    """Self-induced attractive potential  V(x) = -(|phi|^2 * 1/|x|)(x)."""
    return -1.0 * coulomb_convolve(density(phi))


def pekar_energy(phi: Field):
    """Return (T, D, E) for a normalized phi; refuses unnormalized input."""
    nrm = phi.norm()
    if abs(nrm - 1.0) > 1e-8:
        raise NotNormalizedError(f"|phi| = {nrm}, expected 1")
    T = inner(phi, apply_laplacian(phi)).real
    rho = density(phi)
    D = inner(rho, coulomb_convolve(rho)).real
    return T, D, T - 0.5 * D


def center_of_mass(rho_vals: np.ndarray, grid: Grid3) -> np.ndarray:
    """Periodic (circular-mean) center of mass of a density."""
    w = rho_vals.real
    total = w.sum()
    com = np.zeros(3)
    theta = 2.0 * np.pi * grid.axis / grid.box_length
    for a in range(3):
        shape = [1, 1, 1]
        shape[a] = grid.n
        ph = np.exp(1j * theta).reshape(shape)
        z = np.sum(w * ph) / total
        com[a] = grid.box_length * np.angle(z) / (2.0 * np.pi)
    return com


def recenter(phi: Field, axes=(0, 1, 2)) -> Field:
    """Shift phi so the (circular) center of mass of |phi|^2 sits at the origin."""
    com = center_of_mass(np.abs(phi.values) ** 2, phi.grid)
    d = np.zeros(3)
    for a in axes:
        d[a] = com[a]
    if np.all(d == 0.0):
        return phi
    return shift_field(phi, -d)


def _fix_phase_positive(phi: Field) -> Field:
    s = np.sum(phi.values.real) * phi.grid.cell_volume
    vals = phi.values if s >= 0 else -phi.values
    # solver iterates stay real up to FFT noise
    return Field(vals.real.astype(np.complex128), phi.grid)


@dataclass
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
    gap: float | None = None

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
            "gap": self.gap,
            "grid_n": self.grid.n,
            "box_length": self.grid.box_length,
        }

    def save(self, outdir: str):
        os.makedirs(outdir, exist_ok=True)
        save_field(self.phi0, os.path.join(outdir, "phi0.pfld"), tag="phi0")
        save_field(self.V_eff, os.path.join(outdir, "veff.pfld"), tag="veff")
        tmp = os.path.join(outdir, "scalars.json.tmp")
        with open(tmp, "w") as fh:
            json.dump(self.scalars(), fh, indent=2, sort_keys=True)
        os.replace(tmp, os.path.join(outdir, "scalars.json"))

    @classmethod
    def load(cls, outdir: str) -> "PekarSolution":
        with open(os.path.join(outdir, "scalars.json")) as fh:
            s = json.load(fh)
        phi0 = load_field(os.path.join(outdir, "phi0.pfld"))
        veff = load_field(os.path.join(outdir, "veff.pfld"))
        return cls(
            phi0=phi0,
            T=s["T"],
            D=s["D"],
            energy=s["E"],
            lam=s["lambda"],
            V_eff=veff,
            residual=s["residual"],
            iterations=s["iterations"],
            gap=s.get("gap"),
        )


def minimize_pekar(
    grid: Grid3,
    init: Field | str = "gaussian",
    step: float = 0.8,
    tol: float = 1e-7,
    max_iter: int = 4000,
) -> PekarSolution:
    """Normalized preconditioned gradient descent on the Pekar functional.

    Uses the Euler-Lagrange residual ||(h^phi - lambda) phi|| as the stopping
    criterion, with Barzilai-Borwein step adaptation on the preconditioned
    gradient.  The iterate is re-centered and phase-fixed every step to break
    the translation degeneracy.
    """
    if isinstance(init, str):
        if init != "gaussian":
            raise ValueError(f"unknown init preset {init!r}")
        sigma = min(GAUSSIAN_OPT_SIGMA, grid.box_length / 8.0)
        phi = gaussian(grid, sigma)
    else:
        phi = init.copy()
        if abs(phi.norm() - 1.0) > 1e-8:
            raise NotNormalizedError("init field must be normalized")

    ksq = grid.ksq
    tau = step
    prev_dphi = None
    prev_dz = None
    z_prev = None
    phi_prev = None
    residual = np.inf

    for it in range(1, max_iter + 1):
        V = effective_potential(phi)
        hphi = apply_laplacian(phi) + Field(V.values * phi.values, grid)
        lam = inner(phi, hphi).real
        grad = Field(hphi.values - lam * phi.values, grid)
        residual = grad.norm()
        if not np.isfinite(residual) or not np.isfinite(lam):
            raise PekarError("energy collapsed to NaN during descent")
        if residual <= tol:
            break

        shift = max(0.5, abs(lam))
        z_vals = np.fft.ifftn(np.fft.fftn(grad.values) / (ksq + shift))
        z = Field(z_vals, grid)

        if phi_prev is not None:
            dphi = phi.values - phi_prev
            dz = z.values - z_prev
            num = np.vdot(dphi, dphi).real
            den = np.vdot(dphi, dz).real
            if den > 0:
                tau = float(np.clip(num / den, 0.05, 20.0))
        phi_prev = phi.values.copy()
        z_prev = z.values.copy()

        new = Field(phi.values - tau * z.values, grid)
        new = _fix_phase_positive(recenter(new))
        new = new * (1.0 / new.norm())
        phi = new
    else:
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations (residual {residual:.3e})",
            residual=residual,
        )

    phi = _fix_phase_positive(recenter(phi))
    phi = phi * (1.0 / phi.norm())
    T, D, E = pekar_energy(phi)
    # the spread-out near-uniform state is a stationary point on small boxes;
    # a bound minimizer always has T comparable to |E| (virial: T = -E)
    if T < 0.01 * abs(E):
        raise DelocalizedError(
            f"descent collapsed to a delocalized state (T = {T:.3e}, E = {E:.3e}); "
            "enlarge the box"
        )
    V = effective_potential(phi)
    hphi = apply_laplacian(phi) + Field(V.values * phi.values, grid)
    lam = inner(phi, hphi).real
    residual = Field(hphi.values - lam * phi.values, grid).norm()
    return PekarSolution(
        phi0=phi,
        T=T,
        D=D,
        energy=E,
        lam=lam,
        V_eff=V,
        residual=residual,
        iterations=it,
    )


# ---------------------------------------------------------------------------
# finite-mode self-consistent variant
# ---------------------------------------------------------------------------


@dataclass
class DiscretePekarSolution:
    """Self-consistent ground state of p^2 + V with V built from a ModeSet."""

    phi0: Field
    modes: "object"  # ModeSet; kept duck-typed to avoid an import cycle
    f0: np.ndarray  # coupling amplitudes <phi0, G_x(k_i) phi0>, length M
    T: float
    D: float  # 2 * sum_i w_i |f0_i|^2, the finite-mode analogue of D
    energy: float
    lam: float
    V_eff: Field
    residual: float
    iterations: int
    energy_trace: list = field(default_factory=list)
    gap: float | None = None

    @property
    def grid(self) -> Grid3:
        return self.phi0.grid

    def save(self, outdir: str):
        os.makedirs(outdir, exist_ok=True)
        save_field(self.phi0, os.path.join(outdir, "phi0.pfld"), tag="phi0")
        save_field(self.V_eff, os.path.join(outdir, "veff.pfld"), tag="veff")
        payload = {
            "T": self.T,
            "D": self.D,
            "E": self.energy,
            "lambda": self.lam,
            "residual": self.residual,
            "iterations": self.iterations,
            "gap": self.gap,
            "energy_trace": list(self.energy_trace),
            "f0_re": np.real(self.f0).tolist(),
            "f0_im": np.imag(self.f0).tolist(),
            "modes": self.modes.as_dict(),
        }
        tmp = os.path.join(outdir, "scalars.json.tmp")
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        os.replace(tmp, os.path.join(outdir, "scalars.json"))

    @classmethod
    def load(cls, outdir: str) -> "DiscretePekarSolution":
        from .modes import ModeSet

        with open(os.path.join(outdir, "scalars.json")) as fh:
            s = json.load(fh)
        phi0 = load_field(os.path.join(outdir, "phi0.pfld"))
        veff = load_field(os.path.join(outdir, "veff.pfld"))
        f0 = np.asarray(s["f0_re"]) + 1j * np.asarray(s["f0_im"])
        return cls(
            phi0=phi0,
            modes=ModeSet.from_dict(s["modes"]),
            f0=f0,
            T=s["T"],
            D=s["D"],
            energy=s["E"],
            lam=s["lambda"],
            V_eff=veff,
            residual=s["residual"],
            iterations=s["iterations"],
            energy_trace=s["energy_trace"],
            gap=s.get("gap"),
        )


def _discrete_potential(modes, grid: Grid3, f: np.ndarray) -> Field:
    """V(x) = -2 Re sum_i w_i conj(G_x(k_i)) f_i."""
    acc = np.zeros(grid.shape, dtype=np.complex128)
    for i in range(modes.M):
        g = modes.coupling_field(grid, i)
        acc += modes.weights[i] * np.conj(g.values) * f[i]
    return Field((-2.0 * acc.real).astype(np.complex128), grid)


def _mode_amplitudes(modes, phi: Field) -> np.ndarray:
    rho = Field(np.abs(phi.values) ** 2, phi.grid)
    out = np.zeros(modes.M, dtype=np.complex128)
    for i in range(modes.M):
        g = modes.coupling_field(phi.grid, i)
        # <phi, G phi> = int G(x) rho(x) dx
        out[i] = np.sum(g.values * rho.values) * phi.grid.cell_volume
    return out


def _coupled_axes(modes):
    k = np.asarray(modes.k_vectors)
    return tuple(a for a in range(3) if np.any(np.abs(k[:, a]) > 1e-12))


def _sweep_ground_state(modes, grid: Grid3, f: np.ndarray, axes):
    """V built from the amplitudes f, its ground-state energy, and the
    centred, phase-fixed, normalised ground state of p^2 + V."""
    from .resolvent import separable_spectrum  # deferred, no cycle at import time

    V = _discrete_potential(modes, grid, f)
    spec = separable_spectrum(V, modes)
    ground = np.zeros(grid.shape)
    ground.flat[0] = 1.0  # the product of the group ground vectors
    phi = Field(spec.transform(ground, inverse=True), grid)
    phi = _fix_phase_positive(recenter(phi, axes=axes))
    return V, float(spec.eigenvalues().flat[0]), phi * (1.0 / phi.norm())


def solve_discrete_pekar(
    grid: Grid3,
    modes,
    damping: float = 0.5,
    tol: float = 1e-9,
    max_iter: int = 400,
    sigma_init: float = 1.5,
) -> DiscretePekarSolution:
    """Damped fixed-point iteration for the finite-mode Pekar problem.

    Each sweep builds V from the current amplitudes f, takes the exact
    ground state of p^2 + V (a product over the axis groups of the modes),
    and mixes the new amplitudes with damping.  Binding is enforced: the
    converged state must be localized along every coupled axis.
    """
    modes.check_commensurate(grid)
    axes = _coupled_axes(modes)
    phi = gaussian(grid, sigma_init)
    f = _mode_amplitudes(modes, phi)
    trace = []
    resid = np.inf

    for it in range(1, max_iter + 1):
        _, _, phi = _sweep_ground_state(modes, grid, f, axes)
        f_new = _mode_amplitudes(modes, phi)
        resid = float(np.max(np.abs(f_new - f)))
        T = inner(phi, apply_laplacian(phi)).real
        energy = T - float(np.sum(modes.weights * np.abs(f_new) ** 2))
        trace.append(energy)
        if resid <= tol:
            f = f_new
            break
        f = (1.0 - damping) * f + damping * f_new
    else:
        raise ConvergenceError(
            f"discrete Pekar fixed point not converged (residual {resid:.3e})",
            residual=resid,
        )

    V, lam, phi = _sweep_ground_state(modes, grid, f, axes)
    f_final = _mode_amplitudes(modes, phi)
    resid = float(np.max(np.abs(f_final - f)))

    # binding check: second moment along each coupled axis (minimum image)
    rho = np.abs(phi.values) ** 2
    coords = grid.coords
    for a in axes:
        x2 = float(np.sum(rho * coords[a] ** 2) * grid.cell_volume)
        if x2 > (grid.box_length / 4.0) ** 2:
            raise DelocalizedError(
                "ground state delocalized along axis "
                f"{a} (<x^2> = {x2:.3g}); increase coupling weights or modes"
            )

    T = inner(phi, apply_laplacian(phi)).real
    coupling = float(np.sum(modes.weights * np.abs(f) ** 2))
    energy = T - coupling
    return DiscretePekarSolution(
        phi0=phi,
        modes=modes,
        f0=f,
        T=T,
        D=2.0 * coupling,
        energy=energy,
        lam=lam,
        V_eff=V,
        residual=resid,
        iterations=it,
        energy_trace=trace,
    )


def delta_g_field(dsol: DiscretePekarSolution, i: int) -> Field:
    """delta G_x(k_i) = G_x(k_i) - f0(k_i) as a field over x."""
    g = dsol.modes.coupling_field(dsol.grid, i)
    return Field(g.values - dsol.f0[i], dsol.grid)
