"""Periodic 3D grid, spectral operators, and the .pfld on-disk container.

All fields live on a cubic box of side ``box_length`` centered at the
origin, sampled on a regular ``n**3`` lattice.  Differential and
convolution operators act in Fourier space, so they are exact on
band-limited data.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GridMismatchError(ValueError):
    """Two fields (or a field and an operator) live on different grids."""


class FieldIOError(IOError):
    """A .pfld file is missing, truncated, or inconsistent with its header."""


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
    def coords(self):
        x = self.axis
        return np.meshgrid(x, x, x, indexing="ij")

    @cached_property
    def ksq(self) -> np.ndarray:
        kx, ky, kz = np.meshgrid(self.k_axis, self.k_axis, self.k_axis, indexing="ij")
        return kx**2 + ky**2 + kz**2

    @cached_property
    def coulomb_kernel(self) -> np.ndarray:
        """Fourier multiplier of the 1/|x| kernel truncated at radius L/2.

        The spherical truncation makes the periodic convolution agree with the
        free-space Coulomb integral for densities localized well inside the
        box, instead of picking up the O(1/L) uniform-background offset of the
        bare zero-mode-subtracted kernel.
        """
        rc = 0.5 * self.box_length
        ksq = self.ksq
        k = np.sqrt(ksq)
        with np.errstate(divide="ignore", invalid="ignore"):
            kern = 4.0 * np.pi * (1.0 - np.cos(k * rc)) / ksq
        kern[0, 0, 0] = 2.0 * np.pi * rc**2
        return kern

    def is_commensurate(self, k: np.ndarray, tol: float = 1e-9) -> bool:
        """True when exp(i k.x) is exactly periodic on this box."""
        m = np.asarray(k, dtype=float) * self.box_length / (2.0 * np.pi)
        return bool(np.all(np.abs(m - np.round(m)) < tol))


@dataclass
class Field:
    """Complex scalar field sampled on a :class:`Grid3`."""

    values: np.ndarray
    grid: Grid3

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape:
            raise GridMismatchError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def copy(self) -> "Field":
        return Field(self.values.copy(), self.grid)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume))

    def is_real(self, tol: float = 1e-12) -> bool:
        return float(np.max(np.abs(self.values.imag))) <= tol

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


def coulomb_convolve(rho: Field) -> Field:
    """Convolve a real density with 1/|x| (truncated at L/2) in Fourier space."""
    vals = rho.values
    if not rho.is_real(1e-10):
        import warnings

        warnings.warn("coulomb_convolve: non-real density, using real part")
    r = vals.real
    out = np.fft.ifftn(np.fft.fftn(r) * rho.grid.coulomb_kernel).real
    return Field(out.astype(np.complex128), rho.grid)


def plane_wave(grid: Grid3, k) -> Field:
    """The field exp(i k.x) for a commensurate reciprocal vector k."""
    k = np.asarray(k, dtype=float)
    if not grid.is_commensurate(k):
        raise ValueError(f"wave vector {k} is not commensurate with the grid")
    x, y, z = grid.coords
    return Field(np.exp(1j * (k[0] * x + k[1] * y + k[2] * z)), grid)


def gaussian(grid: Grid3, sigma: float, normalized: bool = True) -> Field:
    """Centered isotropic Gaussian; |phi|^2 has per-axis variance sigma^2."""
    x, y, z = grid.coords
    r2 = x**2 + y**2 + z**2
    vals = np.exp(-r2 / (4.0 * sigma**2)).astype(np.complex128)
    f = Field(vals, grid)
    if normalized:
        f = f * (1.0 / f.norm())
    return f


def fourier_coefficient(f: Field, k) -> complex:
    """Continuum-convention Fourier coefficient  int exp(-i k.x) f(x) dx."""
    pw = plane_wave(f.grid, k)
    return inner(pw, f)


def shift_field(f: Field, displacement) -> Field:
    """Translate a field by a (not necessarily lattice) displacement, spectrally."""
    d = np.asarray(displacement, dtype=float)
    g = f.grid
    kx, ky, kz = np.meshgrid(g.k_axis, g.k_axis, g.k_axis, indexing="ij")
    phase = np.exp(-1j * (kx * d[0] + ky * d[1] + kz * d[2]))
    return Field(np.fft.ifftn(np.fft.fftn(f.values) * phase), g)


# ---------------------------------------------------------------------------
# .pfld container: one JSON header line + raw little-endian payload
# ---------------------------------------------------------------------------

_DTYPES = {"c128": np.dtype("<c16"), "f64": np.dtype("<f8")}


def save_array(arr: np.ndarray, path: str, tag: str, grid: Grid3 | None = None):
    """Write an array as a .pfld file (JSON header line + raw payload)."""
    arr = np.ascontiguousarray(arr)
    if np.iscomplexobj(arr):
        dtype = "c128"
        payload = arr.astype("<c16")
    else:
        dtype = "f64"
        payload = arr.astype("<f8")
    header = {
        "version": 1,
        "grid_n": grid.n if grid is not None else None,
        "box_length": grid.box_length if grid is not None else None,
        "dtype": dtype,
        "shape": list(arr.shape),
        "tag": tag,
    }
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(payload.tobytes())
    os.replace(tmp, path)


def load_array(path: str):
    """Read a .pfld file; returns (array, header dict)."""
    try:
        with open(path, "rb") as fh:
            line = fh.readline()
            blob = fh.read()
    except OSError as exc:
        raise FieldIOError(f"cannot read {path}: {exc}") from exc
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FieldIOError(f"{path}: malformed header") from exc
    if header.get("version") != 1:
        raise FieldIOError(f"{path}: unsupported version {header.get('version')}")
    dtype = _DTYPES.get(header.get("dtype"))
    if dtype is None:
        raise FieldIOError(f"{path}: unknown dtype {header.get('dtype')}")
    shape = tuple(header.get("shape", ()))
    expected = int(np.prod(shape)) * dtype.itemsize
    if len(blob) != expected:
        raise FieldIOError(
            f"{path}: payload has {len(blob)} bytes, header promises {expected}"
        )
    arr = np.frombuffer(blob, dtype=dtype).reshape(shape).copy()
    return arr, header


def save_field(f: Field, path: str, tag: str = "field"):
    arr = f.values.real if f.is_real(0.0) else f.values
    save_array(arr, path, tag=tag, grid=f.grid)


def load_field(path: str, grid: Grid3 | None = None) -> Field:
    arr, header = load_array(path)
    if header["grid_n"] is None:
        raise FieldIOError(f"{path}: not a grid field (no grid metadata)")
    file_grid = Grid3(header["grid_n"], header["box_length"])
    if grid is not None and grid != file_grid:
        raise FieldIOError(
            f"{path}: grid mismatch, file has n={file_grid.n} L={file_grid.box_length}"
        )
    return Field(arr.astype(np.complex128), file_grid)
