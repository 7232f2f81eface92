"""FFT machinery on the periodic box: kinetic term and free-space Coulomb.

Kinetic energies are evaluated spectrally, Σ |k|² |ψ̂(k)|², which keeps
them exactly consistent with the Coulomb pipeline (one transform
library, one discrete gradient).  Only this module knows the rfft
half-spectrum layout: one rule makes the inner product of half-spectra and
both energies, Σ w |ŝ(k)|² with w = |k|² on the box grid, ŵ on the padded one.
Only ``fft`` and ``fft_padded`` take a field; the energies and Φ_ρ take the
spectrum they reduce.

The Coulomb convolution ρ ↦ ∫ ρ(y)/|x-y| dy is computed on a zero-padded
grid of twice the box side with the spherically truncated kernel

    ŵ(k) = 4π (1 - cos(|k| R_c)) / |k|²,      ŵ(0) = 2π R_c²,

with cutoff R_c = L (half the padded period).  For densities supported in
the inscribed ball |x| ≤ L/2 every pair distance is below the cutoff and
every periodic image lies beyond it, so the result is the free-space
convolution up to the (spectral) accuracy of the density itself.  An
unpadded single-grid truncation at L/2 was tried first and rejected: its
support requirement (|x| < L/4) is badly violated by the wide minimizers
of this problem, with O(1e-2) relative energy errors at working box sizes.

The padded transforms never build the (2n)³ array.  The forward writes
into one npad×npad×(n+1) half-spectrum, new or the caller's scratch, and
skips the lines known to be zero; it is bit-identical to rfftn of the
padded array.  The inverse multiplies ŵ into that spectrum and crops after
each axis pass.  The solver's functional (``pekar.energy``) turns each one
into Φ_ρ at once and holds its iterate as the n³ half-spectrum ψ̂.  Grids
with n < 48 transform on one thread, which is faster there; larger ones on all cores.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
from scipy import fft as sfft

from .fields import BoundarySupportWarning, Field3D, Grid3D

_BLOCK = 1 << 15  # spectrum entries per block of a reduction, cache-sized


def _workers(n: int) -> int:
    """scipy.fft workers for the transforms of an n³ box: one below n = 48, else all cores."""
    return 1 if n < 48 else -1


def _half_grid(n: int, dx: float) -> np.ndarray:
    """|k|² on an n³ rfft half-grid."""
    k1 = 2 * np.pi * sfft.fftfreq(n, d=dx)
    kz = 2 * np.pi * sfft.rfftfreq(n, d=dx)
    KX, KY, KZ = np.meshgrid(k1, k1, kz, indexing="ij", sparse=True)
    return KX**2 + KY**2 + KZ**2


def _full_vdot(a: np.ndarray, b: np.ndarray):
    """Σ a*·b over the full spectrum of a real grid, from its rfft halves a and b."""
    e = np.s_[..., :: a.shape[-1] - 1]  # kz = 0 and Nyquist, their own mirrors, count once
    return 2 * np.vdot(a, b) - np.vdot(a[e], b[e])


def memory_estimate(n: int) -> int:
    """Bytes of an n³ box's k2 and wk (float64) and one padded half-spectrum (complex)."""
    return 8 * n * n * (n // 2 + 1) + (8 + 16) * (2 * n) ** 2 * (n + 1)


class SpectralOps:
    """Per-grid FFT arrays, read-only, and the operations built on them."""

    def __init__(self, grid: Grid3D):
        self.grid = grid
        n, dx, L = grid.n, grid.dx, grid.L
        self.k2 = _half_grid(n, dx)
        self.npad = npad = 2 * n
        pk2 = _half_grid(npad, dx)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.wk = wk = 4 * np.pi * (1 - np.cos(np.sqrt(pk2) * L)) / pk2
        wk[0, 0, 0] = 2 * np.pi * L**2
        self.k2.flags.writeable = wk.flags.writeable = False

    # -- transforms ---------------------------------------------------------

    def fft(self, values: np.ndarray) -> np.ndarray:
        return sfft.rfftn(values, workers=_workers(self.grid.n))

    def ifft(self, spec: np.ndarray) -> np.ndarray:
        return sfft.irfftn(spec, s=self.grid.shape, workers=_workers(self.grid.n))

    def fft_padded(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """rfftn of ``values`` zero-padded to npad³, written into ``out`` (an
        npad×npad×(n+1) complex array, new when None) and returned.

        The real padded array is never built, and each pass skips the lines
        still known to be zero: the last axis runs on the n² nonzero lines,
        axis 0 on the n nonzero columns out[:, :n], and axis 1 on the whole
        array.  The two complex passes run in place, and in this order the
        result equals rfftn of the padded array bit for bit; axis 1 on the
        first n planes before axis 0 does not.  The first pass writes
        straight into out[:n, :n], with no padded real copy.
        """
        n, npad = self.grid.n, self.npad
        if out is None:
            out = np.empty((npad, npad, n + 1), dtype=np.complex128)
        np.fft.rfft(values, n=npad, axis=2, out=out[:n, :n])
        out[n:, :n] = 0
        out[:, n:] = 0
        for a, axis in ((out[:, :n], 0), (out, 1)):
            # scipy's c2c pass writes into a complex input under overwrite_x,
            # but documents only that the input may be destroyed
            r = sfft.fft(a, axis=axis, overwrite_x=True, workers=_workers(n))
            if not np.shares_memory(r, a):
                a[...] = r
        return out

    # -- energies and operators ---------------------------------------------

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """Σ u·v·dv of the real fields u, v whose rfft half-spectra are a, b (Parseval)."""
        return float(_full_vdot(a, b).real * self.grid.cell_volume / self.grid.n**3)

    def _reduce(self, w: np.ndarray, spec: np.ndarray) -> float:
        """Σ w·|ŝ|² · dx³/m³ over the full spectrum of an m³ grid, from its rfft
        half a block of leading-axis planes at a time, so no temporary is full-size."""
        step = max(1, _BLOCK // (spec.shape[1] * spec.shape[2]))
        s = 0.0
        for i in range(0, len(spec), step):
            blk = spec[i:i + step]
            p = blk.real**2
            p += blk.imag**2
            s += _full_vdot(w[i:i + step], p)
        return float(self.grid.cell_volume / len(spec) ** 3 * s)

    def kinetic(self, spec: np.ndarray) -> float:
        """∫ |∇ψ|² dx = Σ |k|² |ψ̂|², from the half-spectrum ψ̂ = ``fft(ψ)``."""
        return self._reduce(self.k2, spec)

    def coulomb_energy(self, spec_pad: np.ndarray) -> float:
        """D(ρ,ρ) = ∬ ρ(x) ρ(y)/|x-y| dx dy by the padded kernel, from ``fft_padded(ρ)``."""
        return self._reduce(self.wk, spec_pad)

    def coulomb_potential(self, spec_pad: np.ndarray) -> np.ndarray:
        """Φ_ρ(x) = ∫ ρ(y)/|x-y| dy on the original box, from ``fft_padded(ρ)``.

        ``spec_pad`` is overwritten: ŵ·ŝ and the first inverse pass are
        computed in it, so no padded-size array is allocated.
        """
        # pruned inverse: crop after each axis pass, so the later passes
        # transform only the lines that reach the original box; the passes
        # run unscaled and the 1/npad³ factor is applied once at the end,
        # as irfftn does, which keeps the result bit-identical to it
        n, npad = self.grid.n, self.npad
        t = np.multiply(self.wk, spec_pad, out=spec_pad)
        t = sfft.ifft(t, axis=0, norm="forward", overwrite_x=True, workers=_workers(n))
        t = sfft.ifft(t[:n], axis=1, norm="forward", overwrite_x=True, workers=_workers(n))
        phi = sfft.irfft(t[:, :n], n=npad, axis=2, norm="forward", workers=_workers(n))
        return phi[:, :, :n] * (1.0 / npad**3)

    def neg_laplacian(self, values: np.ndarray) -> np.ndarray:
        """-Δ by a round trip; a test reference, which the benchmark's tracer patches."""
        return self.ifft(self.k2 * self.fft(values))

    def precondition(self, values: np.ndarray, shift: float) -> np.ndarray:
        """(shift - 2Δ)⁻¹ of a real field; the descent loop divides half-spectra instead."""
        return self.ifft(self.fft(values) / (shift + 2 * self.k2))

    def boundary_mass(self, rho: np.ndarray) -> float:
        """Σ ρ·dv over the cells within 2dx of the faces: all but the core."""
        return float((np.sum(rho) - np.sum(rho[2:-2, 2:-2, 2:-2])) * self.grid.cell_volume)


@functools.cache
def ops_for(grid: Grid3D) -> SpectralOps:
    """The one SpectralOps of ``grid``; every caller on that grid shares it."""
    return SpectralOps(grid)


# --------------------------------------------------------------------------
# public operations on Field3D
# --------------------------------------------------------------------------


def kinetic_energy(psi: Field3D) -> float:
    """Σ |k|² |ψ̂(k)|² with the proper quadrature normalization; >= 0."""
    ops = ops_for(psi.grid)
    return ops.kinetic(ops.fft(psi.values))


def coulomb_self_energy(rho: Field3D) -> float:
    """D(ρ,ρ) for a nonnegative density; free-space kernel, nonnegative result.

    Emits BoundarySupportWarning when the density carries mass within two
    cells of the box faces (the free-space guarantee needs support inside
    the inscribed ball).
    """
    vals = rho.values
    if vals.min() < -1e-12:
        raise ValueError(f"density has negative entries (min {vals.min():.3e})")
    ops = ops_for(rho.grid)
    edge = ops.boundary_mass(np.abs(vals))
    total = float(np.sum(np.abs(vals)) * rho.grid.cell_volume)
    if total > 0 and edge > 1e-9 * total:
        warnings.warn(
            f"density support touches the box boundary "
            f"(boundary mass {edge:.2e} of {total:.2e})",
            BoundarySupportWarning,
            stacklevel=2,
        )
    return ops.coulomb_energy(ops.fft_padded(vals))


def coulomb_potential(rho: Field3D) -> Field3D:
    ops = ops_for(rho.grid)
    return Field3D(rho.grid, ops.coulomb_potential(ops.fft_padded(rho.values)))
