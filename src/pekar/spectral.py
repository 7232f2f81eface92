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

A field even about the box centre along some axes lies in a mirror class,
and ``ops_for(grid, even)`` transforms only its fundamental domain, the half
x > 0 of each even axis.  Per axis, the n³ transforms and the padded ones are

                        n³                  padded              padded as a matrix
    even axis:          DCT-II, length n/2  DCT-II, length n    n × n/2, inverse n/2 × n
    last axis not even: rfft, length n      rfft, length 2n     (2n+2) × n, inverse n × (2n+2)
    other axes:         FFT, length n       FFT, length 2n      none with two even axes

With no even axis this is the full box above.  The DCTs are orthonormal, and
the padded DCT-II is that of the zero-padded half.  It is the 2n-periodic FFT
of the half-sample-symmetric extension, so the kernel ŵ, even in each axis,
multiplies it and a DCT-III inverts it (Martucci, IEEE Trans. Signal Process.
42 (1994) 1038).  Orthonormal DCTs keep Parseval's weights uniform: each even
axis counts its half twice.

A class with two or three even axes on a grid with n < 128 applies each
padded pass as one precomputed real matrix on BLAS (sum factorization,
Orszag, J. Comput. Phys. 37 (1980) 70): at these short, half-zero lengths
a GEMM beats the pruned FFT passes, and at n = 128 the classes with two even
axes break even (the measured crossover, ``BENCH_dense.json``), so from there
on they keep the FFT passes.  The rfft matrix stacks the real parts over the
imaginary ones, so every product is real.  The inverse crops inside its
matrices, and its 1/2n scale is in the rfft one.
"""

from __future__ import annotations

import copy
import functools
import warnings

import numpy as np
from scipy import fft as sfft

from .fields import BoundarySupportWarning, Field3D, Grid3D

_BLOCK = 1 << 15  # spectrum entries per block of a reduction, cache-sized
_DENSE_BELOW = 128  # measured crossover of the per-axis matrices (BENCH_dense.json)


def _workers(n: int) -> int:
    """scipy.fft workers for the transforms of an n³ box: one below n = 48, else all cores."""
    return 1 if n < 48 else -1


def _half_grid(n: int, dx: float) -> np.ndarray:
    """|k|² on an n³ rfft half-grid."""
    k1 = 2 * np.pi * sfft.fftfreq(n, d=dx)
    kz = 2 * np.pi * sfft.rfftfreq(n, d=dx)
    KX, KY, KZ = np.meshgrid(k1, k1, kz, indexing="ij", sparse=True)
    return KX**2 + KY**2 + KZ**2


def _rfft_axis(even: tuple):
    """The axis the rfft halves: the last one that is not even, None if all are."""
    return max((a for a in range(3) if a not in even), default=None)


def _full_vdot(a: np.ndarray, b: np.ndarray, axis=2):
    """Σ a*·b over the full spectrum of a real grid, from its halves a and b
    along ``axis``, the rfft axis (None: no axis is halved)."""
    if axis is None:
        return np.vdot(a, b)
    # the first and last planes (kz = 0 and Nyquist) are their own mirrors: count once
    e = (slice(None),) * axis + (slice(None, None, a.shape[axis] - 1),)
    return 2 * np.vdot(a, b) - np.vdot(a[e], b[e])


def _class_slice(full: np.ndarray, even: tuple) -> np.ndarray:
    """The class's part of a cube-symmetric (m, m, m/2+1) rfft half-grid table:
    the first m/2 indices of each even axis (DCT frequencies), the whole rfft
    axis, taken from the table's last, and the whole of the other axes."""
    m, r = len(full), _rfft_axis(even)
    free = [0, 1] if r is not None else [0, 1, 2]
    src = [2 if a == r else free.pop(0) for a in range(3)]  # table axis of each class axis
    idx = [slice(None)] * 3
    for a in even:
        idx[src[a]] = slice(m // 2)
    out = np.ascontiguousarray(full[tuple(idx)].transpose(src))
    out.flags.writeable = False
    return out


def _dense(n: int, even: tuple) -> bool:
    """Whether the padded pair of the class ``even`` on an n³ box runs as
    per-axis matrices on BLAS: two or three even axes, n below the crossover."""
    return len(even) >= 2 and n < _DENSE_BELOW


@functools.cache
def _axis_matrices(n: int) -> tuple:
    """The padded passes of an n³ box as real matrices, read-only, built by
    applying the FFT passes to identity columns: the DCT-II of length n of
    the zero-padded half (n × n/2) and its inverse, DCT-III then the crop
    (n/2 × n); the rfft of length 2n of n samples, real parts stacked over
    imaginary parts ((2n+2) × n), and its inverse, irfft then the crop, on
    those stacked parts (n × (2n+2))."""
    eye, h = np.eye(n), n // 2
    rfft = np.fft.rfft(eye, n=2 * n, axis=0)
    parts = np.hstack((np.eye(n + 1), 1j * np.eye(n + 1)))
    mats = (sfft.dct(eye[:, :h], axis=0, norm="ortho"), sfft.idct(eye, axis=0, norm="ortho")[:h],
            np.vstack((rfft.real, rfft.imag)), np.fft.irfft(parts, n=2 * n, axis=0)[:n])
    for m in mats:
        m.flags.writeable = False
    return mats


def _along(m: np.ndarray, t: np.ndarray, axis: int) -> np.ndarray:
    """m applied to every line of the 3D array t along ``axis``: one GEMM on
    the first or the last axis, one per plane of axis 0 on the middle one."""
    if axis == 0:
        return (m @ t.reshape(len(t), -1)).reshape((len(m),) + t.shape[1:])
    if axis == 2:
        return (t.reshape(-1, t.shape[2]) @ m.T).reshape(t.shape[:2] + (len(m),))
    return np.matmul(m, t)


def _padded_passes(even: tuple, n: int) -> tuple:
    """(rfft axis, c2c axes, spectrum shape) of the padded transforms of the
    class ``even``: n on an even axis, n + 1 on the rfft axis, 2n on the others."""
    r = _rfft_axis(even)
    c2c = [a for a in range(3) if a not in even and a != r]
    return r, c2c, tuple(n if a in even else n + 1 if a == r else 2 * n for a in range(3))


def _crop(axis: int, m: int) -> tuple:
    return (slice(None),) * axis + (slice(m),)


def mirror_axes(*fields: np.ndarray) -> tuple:
    """The axes along which every field is exactly even about the box centre."""
    return tuple(a for a in range(3) if all(np.array_equal(f, np.flip(f, a)) for f in fields))


def memory_estimate(n: int) -> int:
    """Bytes of an n³ box's k2 and wk (float64) and one padded half-spectrum
    (complex): the bound of a solve with no even axis, the largest class."""
    return 8 * n * n * (n // 2 + 1) + (8 + 16) * (2 * n) ** 2 * (n + 1)


class SpectralOps:
    """Per-grid FFT arrays, read-only, and the operations built on them, for
    one mirror class: the fields even about the centre along the axes ``even``.

    ``ops_for(grid)`` is the full box (no even axis).  A class stores the half
    x > 0 of each even axis (``fold``, ``unfold``); there its n³ transforms are
    orthonormal DCT-II of length n/2, and its padded ones DCT-II of length n of
    the zero-padded half (Martucci, IEEE Trans. Signal Process. 42 (1994) 1038).
    The rfft halves the last axis that is not even; the others keep the full
    FFT.  Its k2 and wk hold the full box's values on the class's frequencies,
    as contiguous copies, transposed so that its rfft axis takes the tables'
    last, which keep ŵ·ŝ contiguous.  At n = 128 a class with two or three even
    axes copies 16.9 MB of ŵ and 2.1 MB of k², one with y or z even 33.8 and
    4.3 MB; only the class (0,), the tables' leading block, shares their memory.
    ``dense`` holds the padded passes' matrices when ``_dense`` is true.
    """

    even: tuple = ()
    dense = None

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

    def mirror(self, even: tuple) -> "SpectralOps":
        """The operators of the class ``even``, from this full box's arrays,
        with the padded passes' matrices below the crossover."""
        ops = copy.copy(self)
        ops.even = even
        ops.k2, ops.wk = _class_slice(self.k2, even), _class_slice(self.wk, even)
        if _dense(self.grid.n, even):
            ops.dense = _axis_matrices(self.grid.n)
        return ops

    # -- the fundamental domain ---------------------------------------------

    def fold(self, values: np.ndarray) -> np.ndarray:
        """The half x > 0 of each even axis of a box field, contiguous."""
        h = self.grid.n // 2
        return np.ascontiguousarray(values[tuple(slice(h if a in self.even else 0, None)
                                                 for a in range(3))])

    def unfold(self, half: np.ndarray) -> np.ndarray:
        """The box field whose ``fold`` is ``half``: each even axis mirrored."""
        for a in self.even:
            half = np.concatenate((np.flip(half, a), half), axis=a)
        return half

    # -- transforms ---------------------------------------------------------

    def fft(self, values: np.ndarray) -> np.ndarray:
        """The class coefficients of a folded field; real when every axis is even."""
        w, rest = _workers(self.grid.n), [a for a in range(3) if a not in self.even]
        if self.even:
            values = sfft.dctn(values, axes=self.even, norm="ortho", workers=w)
        return sfft.rfftn(values, axes=rest, workers=w) if rest else values

    def ifft(self, spec: np.ndarray) -> np.ndarray:
        n, w = self.grid.n, _workers(self.grid.n)
        rest = [a for a in range(3) if a not in self.even]
        if rest:
            spec = sfft.irfftn(spec, s=[n] * len(rest), axes=rest, workers=w)
        if self.even:
            spec = sfft.idctn(spec, axes=self.even, norm="ortho", overwrite_x=bool(rest), workers=w)
        return spec

    def fft_padded(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The spectrum of ``values`` zero-padded to its class's padded grid,
        written into ``out`` (shaped as the kernel, new when None) and returned;
        the axes of ``values`` that hold n/2 cells are the class's even axes.

        The padded array is never built.  The rfft pass writes straight into
        the box's corner of ``out``, with no padded real copy; then the c2c
        passes of the other axes and the DCT-II passes (length n, of the
        zero-padded half) of the even axes run in place, each skipping the
        lines still known to be zero.  With no even axis: the last axis runs
        on the n² nonzero lines, axis 0 on the n nonzero columns out[:, :n],
        and axis 1 on the whole array; in this order the result equals rfftn
        of the padded array bit for bit; axis 1 on the first n planes before
        axis 0 does not.  A class with two or three even axes below the
        crossover takes the matrix passes instead (the module docstring).
        """
        n, npad = self.grid.n, self.npad
        even = tuple(a for a in range(3) if values.shape[a] < n)  # the half axes
        r, c2c, shape = _padded_passes(even, n)
        if out is None:
            out = np.empty(shape, dtype=float if r is None else complex)
        if _dense(n, even) and self.dense is not None:  # the full box has no matrices
            return self._dense_forward(values, even, out)
        box = tuple(slice(n // 2) if a in even else slice(n) if a in c2c else slice(None)
                    for a in range(3))
        if r is None:
            out[box] = values
        else:
            np.fft.rfft(values, n=npad, axis=r, out=out[box])
        passes = c2c + list(even)
        for i, a in enumerate(passes):  # zero what lies beyond the box along a
            zero = [slice(None) if b in passes[:i] else box[b] for b in range(3)]
            zero[a] = slice(box[a].stop, None)
            out[tuple(zero)] = 0
        for i, a in enumerate(passes):
            blk = out[tuple(slice(None) if b in passes[:i + 1] else box[b] for b in range(3))]
            # scipy's passes write into the input under overwrite_x, but
            # document only that the input may be destroyed
            if a in even:
                res = sfft.dct(blk, axis=a, norm="ortho", overwrite_x=True, workers=_workers(n))
            else:
                res = sfft.fft(blk, axis=a, overwrite_x=True, workers=_workers(n))
            if not np.shares_memory(res, blk):
                blk[...] = res
        return out

    # -- energies and operators ---------------------------------------------

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """Σ u·v·dv over the box of the real fields u, v whose coefficients are
        a, b (Parseval); each even axis weighs twice, for the mirrored half."""
        e = len(self.even)
        x = _full_vdot(a, b, _rfft_axis(self.even))
        return float(x.real * (self.grid.cell_volume * 2**e) / self.grid.n ** (3 - e))

    def _reduce(self, w: np.ndarray, spec: np.ndarray, m: int) -> float:
        """Σ w·|ŝ|² · dx³/m³ over the full spectrum of an m³ grid, from the
        class's coefficients, a block of planes at a time (along axis 0, or 1
        when 0 is the rfft axis), so no temporary is full-size."""
        e, r = len(self.even), _rfft_axis(self.even)
        b = 1 if r == 0 else 0
        step = max(1, _BLOCK * spec.shape[b] // spec.size)
        s = 0.0
        for i in range(0, spec.shape[b], step):
            blk = (slice(None),) * b + (slice(i, i + step),)
            c = spec[blk]
            p = c.real**2
            if np.iscomplexobj(c):
                p += c.imag**2
            s += _full_vdot(w[blk], p, r)
        return float(self.grid.cell_volume * 2**e / m ** (3 - e) * s)

    def kinetic(self, spec: np.ndarray) -> float:
        """∫ |∇ψ|² dx = Σ |k|² |ψ̂|², from the coefficients ψ̂ = ``fft(ψ)``."""
        return self._reduce(self.k2, spec, self.grid.n)

    def coulomb_energy(self, spec_pad: np.ndarray) -> float:
        """D(ρ,ρ) = ∬ ρ(x) ρ(y)/|x-y| dx dy by the padded kernel, from ``fft_padded(ρ)``."""
        return self._reduce(self.wk, spec_pad, self.npad)

    def coulomb_potential(self, spec_pad: np.ndarray) -> np.ndarray:
        """Φ_ρ(x) = ∫ ρ(y)/|x-y| dy on the class's part of the box, from ``fft_padded(ρ)``.

        ``spec_pad`` may be overwritten: on the FFT passes ŵ·ŝ and the first
        inverse pass are computed in it, so no padded-size array is allocated;
        the matrix passes with an rfft axis allocate ŵ·Re and ŵ·Im instead.
        """
        # pruned inverse: the DCT-III of the even axes, the c2c passes and the
        # inverse rfft, cropping after each pass, so the later passes transform
        # only the lines that reach the box; the FFT passes run unscaled and
        # their 1/npad factors are applied once at the end, as irfftn does,
        # which keeps the full box's result bit-identical to it
        n, npad = self.grid.n, self.npad
        even = tuple(a for a in range(3) if spec_pad.shape[a] == n)
        if _dense(n, even) and self.dense is not None:  # the full box has no matrices
            return self._dense_inverse(spec_pad, even)
        r, c2c, _ = _padded_passes(even, n)
        t = np.multiply(self.wk, spec_pad, out=spec_pad)
        for a in even:
            t = sfft.idct(t, axis=a, norm="ortho", overwrite_x=True, workers=_workers(n))
            t = t[_crop(a, n // 2)]
        for a in c2c:
            t = sfft.ifft(t, axis=a, norm="forward", overwrite_x=True, workers=_workers(n))
            t = t[_crop(a, n)]
        if r is not None:
            t = sfft.irfft(t, n=npad, axis=r, norm="forward", workers=_workers(n))[_crop(r, n)]
        return t * (1.0 / npad ** (3 - len(even)))

    # the padded pair of a class with two or three even axes below the
    # crossover: each axis pass is one real matrix (sum factorization).  The
    # rfft axis runs on the smallest array, first in the forward and last in
    # the inverse, its real and imaginary parts stacked along it, so the even
    # axes transform both parts in one product: 2n⁴ multiply-adds a transform,
    # against 2.75n⁴ with the rfft axis on the largest array.

    def _dense_forward(self, values: np.ndarray, even: tuple, out: np.ndarray) -> np.ndarray:
        dct, _, rfft, _ = self.dense
        r = _rfft_axis(even)
        t = values if r is None else _along(rfft, values, r)
        for a in even:
            t = _along(dct, t, a)
        if r is None:
            out[...] = t
        else:
            out.real, out.imag = np.split(t, 2, axis=r)
        return out

    def _dense_inverse(self, spec_pad: np.ndarray, even: tuple) -> np.ndarray:
        _, idct, _, irfft = self.dense
        r = _rfft_axis(even)
        if r is None:
            t = np.multiply(self.wk, spec_pad, out=spec_pad)
        else:  # ŵ·Re stacked over ŵ·Im: real products only
            shape = list(spec_pad.shape)
            shape[r] *= 2
            t = np.empty(shape)
            re, im = np.split(t, 2, axis=r)
            np.multiply(self.wk, spec_pad.real, out=re)
            np.multiply(self.wk, spec_pad.imag, out=im)
        for a in even:
            t = _along(idct, t, a)
        return t if r is None else _along(irfft, t, r)

    def neg_laplacian(self, values: np.ndarray) -> np.ndarray:
        """-Δ by a round trip; a test reference, which the benchmark's tracer patches."""
        return self.ifft(self.k2 * self.fft(values))

    def precondition(self, values: np.ndarray, shift: float) -> np.ndarray:
        """(shift - 2Δ)⁻¹ of a real field; the descent loop divides half-spectra instead."""
        return self.ifft(self.fft(values) / (shift + 2 * self.k2))

    def boundary_mass(self, rho: np.ndarray) -> float:
        """Σ ρ·dv over the cells within 2dx of the faces: all but the core."""
        return float((np.sum(rho) - np.sum(rho[2:-2, 2:-2, 2:-2])) * self.grid.cell_volume)


def ops_for(grid: Grid3D, even: tuple = ()) -> SpectralOps:
    """The one SpectralOps of ``grid`` and the mirror class ``even``; every
    caller on that grid and class shares it.  A class's k2 and wk are copied
    from the full box's, so the full box's are built first, and its matrices
    (``dense``) are built once per n."""
    return _ops_for(grid, tuple(sorted(even)))


@functools.cache
def _ops_for(grid: Grid3D, even: tuple) -> SpectralOps:
    return _ops_for(grid, ()).mirror(even) if even else SpectralOps(grid)


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
