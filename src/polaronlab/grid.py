"""Periodic 3D grid, spectral operators, and the .pfld writer.

All fields live on a cubic box of side ``box_length`` centered at the
origin, sampled on a regular ``n**3`` lattice.  Differential and
convolution operators act in Fourier space, so they are exact on
band-limited data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import atomic_write


class GridMismatchError(ValueError):
    """Two fields (or a field and an operator) live on different grids."""


@dataclass(frozen=True)
class Grid3:
    """Cubic periodic grid: ``n`` points per axis on a box of side ``box_length``."""

    n: int
    box_length: float

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 4, got {self.n}")
        if not self.box_length > 0:
            raise ValueError(f"box_length must be positive, got {self.box_length}")

    @property
    def dx(self) -> float:
        return self.box_length / self.n

    @property
    def cell_volume(self) -> float:
        return self.dx**3

    @property
    def shape(self):
        return (self.n, self.n, self.n)

    @property
    def size(self) -> int:
        return self.n**3

    @cached_property
    def axis(self) -> np.ndarray:
        """Sample positions along one axis, box centered at the origin."""
        return -0.5 * self.box_length + self.dx * np.arange(self.n)

    @cached_property
    def k_axis(self) -> np.ndarray:
        """Reciprocal lattice values 2*pi*m/L along one axis (FFT order)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def ksq(self) -> np.ndarray:
        k2 = self.k_axis**2
        return k2[:, None, None] + k2[:, None] + k2

    @cached_property
    def plane_waves(self):
        """(k, W): the axis wave numbers sorted stably by k^2, and the unit plane
        waves exp(i k_j x) / sqrt(n) along one axis as the columns of W."""
        k = self.k_axis[np.argsort(self.k_axis**2, kind="stable")]
        return k, np.exp(1j * np.outer(self.axis, k)) / np.sqrt(self.n)

    @cached_property
    def laplacian_matrix(self) -> np.ndarray:
        """p^2 along one axis, W diag(k^2) W^*, as a real symmetric n x n matrix."""
        k, waves = self.plane_waves
        return ((waves * k**2) @ waves.conj().T).real

    @cached_property
    def half_ksq(self) -> np.ndarray:
        """|k|^2 on the ``rfftn`` half spectrum, shape (n, n, n/2+1)."""
        k2 = self.k_axis**2
        return k2[:, None, None] + k2[:, None] + k2[: self.n // 2 + 1]

    @cached_property
    def coulomb_kernel(self) -> np.ndarray:
        """Fourier multiplier of 1/|x| truncated at radius L/2, on the half spectrum.

        The spherical truncation makes the periodic convolution agree with the
        free-space Coulomb integral for densities localized well inside the
        box, instead of picking up the O(1/L) uniform-background offset of the
        bare zero-mode-subtracted kernel.
        """
        rc = 0.5 * self.box_length
        ksq = self.half_ksq
        k = np.sqrt(ksq)
        with np.errstate(divide="ignore", invalid="ignore"):
            kern = 4.0 * np.pi * (1.0 - np.cos(k * rc)) / ksq
        kern[0, 0, 0] = 2.0 * np.pi * rc**2
        return kern

    def is_commensurate(self, k: np.ndarray) -> bool:
        """True when exp(i k.x) is periodic on this box, to 1e-9 in k L / 2 pi."""
        m = np.asarray(k, dtype=float) * self.box_length / (2.0 * np.pi)
        return bool(np.all(np.abs(m - np.round(m)) < 1e-9))


@dataclass
class Field:
    """Scalar field sampled on a :class:`Grid3`.  It keeps the dtype of its
    data, upcast to float64 or complex128: electron-side data (the ground
    state, the potential) stays real, phonon-side sources stay complex."""

    values: np.ndarray
    grid: Grid3

    def __post_init__(self):
        values = np.asarray(self.values)
        self.values = np.ascontiguousarray(values, dtype=np.result_type(values, np.float64))
        if self.values.shape != self.grid.shape:
            raise GridMismatchError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume))

    def __add__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.values + other.values, self.grid)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.values - other.values, self.grid)

    def __mul__(self, scalar) -> "Field":
        return Field(self.values * scalar, self.grid)

    __rmul__ = __mul__


def _check_same_grid(f: Field, g: Field):
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")


def inner(f: Field, g: Field) -> complex:
    """L2 inner product, conjugate-linear in the first argument."""
    _check_same_grid(f, g)
    return complex(np.vdot(f.values, g.values) * f.grid.cell_volume)


def apply_laplacian(f: Field) -> Field:
    """Apply p^2 = -Laplacian spectrally (multiply by |k|^2 in Fourier space)."""
    fhat = np.fft.fftn(f.values)
    return Field(np.fft.ifftn(f.grid.ksq * fhat), f.grid)


def coulomb_convolve(rho: np.ndarray, grid: Grid3) -> np.ndarray:
    """Convolve a real density with 1/|x| (truncated at L/2), real to real."""
    axes = (0, 1, 2)
    half = np.fft.rfftn(rho, axes=axes) * grid.coulomb_kernel
    return np.fft.irfftn(half, s=grid.shape, axes=axes)


def plane_wave(grid: Grid3, k) -> Field:
    """The field exp(i k.x) for a commensurate reciprocal vector k, broadcast
    from three 1-D phases exp(i k_a x_a): n complex exponentials per axis
    instead of n^3, and bit-identical to the 3-D exponential for an
    axis-aligned k, whose other two phases are exactly 1."""
    k = np.asarray(k, dtype=float)
    if not grid.is_commensurate(k):
        raise ValueError(f"wave vector {k} is not commensurate with the grid")
    e0, e1, e2 = (np.exp(1j * ka * grid.axis) for ka in k)
    return Field(e0[:, None, None] * e1[:, None] * e2, grid)


def gaussian(grid: Grid3, sigma: float) -> Field:
    """Centered, normalized isotropic Gaussian; |phi|^2 has per-axis variance
    sigma^2.  A product of three 1-D factors exp(-x_a^2 / 4 sigma^2)."""
    g = np.exp(-grid.axis**2 / (4.0 * sigma**2))
    f = Field(g[:, None, None] * g[:, None] * g, grid)
    return f * (1.0 / f.norm())


# ---------------------------------------------------------------------------
# .pfld container: one JSON header line + raw little-endian payload; the
# package writes it and reads nothing back
# ---------------------------------------------------------------------------


def save_array(arr: np.ndarray, path: str, tag: str, grid: Grid3 | None = None):
    """Write an array as a .pfld file (JSON header line + raw payload).  The
    payload is written from the array's own buffer where it already is
    contiguous little-endian f8 or c16, so no copy of it is made."""
    complex_ = np.iscomplexobj(arr)
    payload = np.ascontiguousarray(arr, dtype="<c16" if complex_ else "<f8")
    header = {
        "version": 1,
        "grid_n": grid.n if grid is not None else None,
        "box_length": grid.box_length if grid is not None else None,
        "dtype": "c128" if complex_ else "f64",
        "shape": list(payload.shape),
        "tag": tag,
    }
    atomic_write(path, json.dumps(header).encode("utf-8") + b"\n", payload)


def save_field(f: Field, path: str, tag: str = "field"):
    save_array(f.values, path, tag=tag, grid=f.grid)
