"""Truncated Taylor series and smooth dyadic block polynomials.

The block family W_n is built from a C-infinity cutoff psi: psi = 1 below 1,
0 above 2, strictly decreasing between.  Block n >= 1 carries coefficients
phi(k / 2^{n-1}) with phi(s) = psi(s/2) - psi(s) on the dyadic band
2^{n-1} <= k <= 2^{n+1}-1; block 0 is 1 + z.  Summed over n the coefficients
telescope to 1, which is what makes the blocks a partition of a series.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, require_number

# Elements per temporary in `_evaluate`: 2^16 complex values are 1 MiB.
_CHUNK_ELEMENTS = 2**16


class TaylorSeries:
    """A polynomial f(z) = sum a_k z^k stored as a dense coefficient vector."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        arr = np.asarray(coefficients)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("coefficients must form a nonempty 1-d array")
        if not np.iscomplexobj(arr):
            arr = arr.astype(float)
        if not np.all(np.isfinite(arr)):
            raise DomainError("coefficients must be finite")
        self.coefficients = arr

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z):
        return _evaluate(self.coefficients, z)

    def derivative(self) -> "TaylorSeries":
        if len(self.coefficients) == 1:
            return TaylorSeries(np.zeros(1, dtype=self.coefficients.dtype))
        k = np.arange(1, len(self.coefficients))
        return TaylorSeries(self.coefficients[1:] * k)

    def antiderivative(self, constant: float = 0.0) -> "TaylorSeries":
        k = np.arange(1, len(self.coefficients) + 1)
        out = np.concatenate([[constant], self.coefficients / k])
        return TaylorSeries(out)

    def hadamard(self, other: "TaylorSeries") -> "TaylorSeries":
        n = min(len(self.coefficients), len(other.coefficients))
        return TaylorSeries(self.coefficients[:n] * other.coefficients[:n])

    def pad(self, truncation: int) -> "TaylorSeries":
        if truncation + 1 <= len(self.coefficients):
            return TaylorSeries(self.coefficients[: truncation + 1])
        out = np.zeros(truncation + 1, dtype=self.coefficients.dtype)
        out[: len(self.coefficients)] = self.coefficients
        return TaylorSeries(out)

    @property
    def has_nonnegative_coefficients(self) -> bool:
        c = self.coefficients
        return not np.iscomplexobj(c) and bool(np.all(c >= 0))

    def __repr__(self) -> str:
        return f"TaylorSeries<N={self.truncation}>"


def _evaluate(coeffs: np.ndarray, z):
    """sum_k coeffs[k] z^k elementwise, with the shape of z (a scalar for a scalar).

    The coefficients, cut after the last nonzero, are split into blocks of B.
    Powers z^0..z^(B-1) come from one cumulative product, every block from one
    matrix product, and Horner's rule runs across the blocks in z^B, so the
    Python loop takes about sqrt(N) steps instead of N.  Points are taken in
    chunks that keep each temporary near 1 MiB.
    """
    z = np.asarray(z)
    dtype = np.result_type(coeffs, z, float)
    flat = z.astype(dtype, copy=False).reshape(-1)
    out = np.zeros(flat.shape, dtype=dtype)
    nonzero = np.flatnonzero(coeffs)
    n = int(nonzero[-1]) + 1 if len(nonzero) else 0
    if n:
        block = 1 << ((n - 1).bit_length() + 1) // 2
        count = -(-n // block)
        table = np.zeros(count * block, dtype=coeffs.dtype)
        table[:n] = coeffs[:n]
        table = table.reshape(count, block)
        chunk = max(1, _CHUNK_ELEMENTS // max(block, count))
        for start in range(0, len(flat), chunk):
            x = flat[start : start + chunk]
            powers = np.empty((block, len(x)), dtype=dtype)
            powers[0] = 1.0
            powers[1:] = x
            np.cumprod(powers, axis=0, out=powers)
            blocks = table @ powers
            step = powers[-1] * x
            acc = blocks[-1]
            for row in blocks[-2::-1]:
                acc *= step
                acc += row
            out[start : start + chunk] = acc
    out = out.reshape(z.shape)
    return out if out.shape else out[()]


# -- serialization ----------------------------------------------------------


def series_from_json(doc) -> TaylorSeries:
    if not isinstance(doc, (list, tuple)) or len(doc) == 0:
        raise DomainError("series JSON must be a nonempty array of coefficients")
    return TaylorSeries([require_number(c, "series coefficient") for c in doc])


def series_to_json(f: TaylorSeries) -> list[float]:
    if np.iscomplexobj(f.coefficients):
        raise DomainError("only real coefficient vectors have a JSON form")
    return [float(c) for c in f.coefficients]


def series_from_csv(text: str) -> TaylorSeries:
    """Read (index, coefficient) rows; indices must cover 0..N once each."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if rows and not rows[0][0].strip().isdigit():
        rows = rows[1:]
    entries = {int(idx): float(val) for idx, val, *_ in rows}
    n_max = max(entries)
    if set(entries) != set(range(n_max + 1)):
        raise DomainError("series CSV must list every index 0..N exactly once")
    return TaylorSeries(np.array([entries[k] for k in range(n_max + 1)]))


def series_to_csv(f: TaylorSeries, stream=None) -> str:
    buf = stream or io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["index", "coefficient"])
    for k, c in enumerate(f.coefficients):
        writer.writerow([k, repr(float(c))])
    return buf.getvalue() if stream is None else ""


# -- smooth cutoff and blocks -------------------------------------------------


def psi_cutoff(s):
    """C-infinity step: 1 on (-inf, 1], 0 on [2, inf), strictly decreasing between."""
    scalar = np.isscalar(s) or np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.ones_like(s)
    out[s >= 2.0] = 0.0
    mid = (s > 1.0) & (s < 2.0)
    sm = s[mid]
    rise = np.exp(-1.0 / (2.0 - sm))
    fall = np.exp(-1.0 / (sm - 1.0))
    out[mid] = rise / (rise + fall)
    return float(out[0]) if scalar else out


def phi_cutoff(s):
    """Bump phi(s) = psi(s/2) - psi(s), supported on (1, 4)."""
    scalar = np.isscalar(s) or np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = psi_cutoff(s / 2.0) - psi_cutoff(s)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class BlockPolynomial:
    """One smooth dyadic block: coefficients `values` on exponents offset..offset+len-1."""

    index: int
    offset: int
    values: np.ndarray

    @property
    def degree(self) -> int:
        return self.offset + len(self.values) - 1

    def to_series(self) -> TaylorSeries:
        out = np.zeros(self.degree + 1)
        out[self.offset :] = self.values
        return TaylorSeries(out)

    def hadamard(self, f: TaylorSeries) -> np.ndarray:
        """Coefficients of block * f on the block's support."""
        segment = np.zeros(len(self.values), dtype=f.coefficients.dtype)
        hi = min(self.degree + 1, len(f.coefficients))
        if hi > self.offset:
            segment[: hi - self.offset] = f.coefficients[self.offset : hi]
        return self.values * segment


def block_polynomial(n: int) -> BlockPolynomial:
    if n < 0:
        raise DomainError("block index must be nonnegative")
    if n == 0:
        return BlockPolynomial(0, 0, np.array([1.0, 1.0]))
    m = 2 ** (n - 1)
    ks = np.arange(m, 4 * m)
    return BlockPolynomial(n, m, phi_cutoff(ks / m))


def reconstruction_defect(f: TaylorSeries, depth: int) -> float:
    """Max coefficient defect of sum_{n<=depth} block_n * f against f.

    Requires 2^{depth+1} - 1 >= N.  Cancellation is exact (up to rounding)
    for exponents k <= 2^depth; deeper exponents sit in the partially
    covered outer band and contribute their honest defect.
    """
    n_max = f.truncation
    if 2 ** (depth + 1) - 1 < n_max:
        raise PreconditionError(
            f"depth {depth} covers exponents only up to {2 ** (depth + 1) - 1} < {n_max}"
        )
    acc = np.zeros(n_max + 1, dtype=f.coefficients.dtype)
    for n in range(depth + 1):
        block = block_polynomial(n)
        if block.offset > n_max:
            break
        vals = block.hadamard(f)
        hi = min(block.degree + 1, n_max + 1)
        acc[block.offset : hi] += vals[: hi - block.offset]
    return float(np.max(np.abs(acc - f.coefficients)))


# -- circle norms ------------------------------------------------------------


def _as_coefficients(poly) -> np.ndarray:
    if isinstance(poly, TaylorSeries):
        return poly.coefficients
    if isinstance(poly, BlockPolynomial):
        return poly.values  # |z^offset P(z)| = |P(z)| on the circle
    return np.asarray(poly)


def sup_norm(poly, samples: int | None = None) -> float:
    """Max of |P| over equispaced points on the unit circle (at least 8 per degree)."""
    coeffs = _as_coefficients(poly)
    degree = len(coeffs) - 1
    needed = 8 * (degree + 1)
    m = max(samples or 0, needed)
    if samples is not None and samples < needed:
        raise PreconditionError(f"need at least {needed} circle samples for degree {degree}")
    return float(np.max(np.abs(np.fft.fft(coeffs, m))))


def hardy_norm(poly, p: float) -> float:
    """Circle-average norm: p = 2 exactly from coefficients, p = 1 by quadrature."""
    coeffs = _as_coefficients(poly)
    if p == 2:
        return float(np.sqrt(np.sum(np.abs(coeffs) ** 2)))
    if p == 1:
        degree = len(coeffs) - 1
        m = 8 * (degree + 1)
        return float(np.mean(np.abs(np.fft.fft(coeffs, m))))
    raise DomainError("hardy_norm supports p in {1, 2}")
