"""Truncated Taylor series and smooth dyadic block polynomials.

A series is immutable: its constructor copies the coefficients into one
read-only buffer that is also its Horner table, so every call evaluates with
no further preparation.

The block family W_n is built from a C-infinity cutoff psi: psi = 1 below 1,
0 above 2, strictly decreasing between.  Block n >= 1 carries coefficients
phi(k / 2^{n-1}) with phi(s) = psi(s/2) - psi(s) on the dyadic band
2^{n-1} <= k <= 2^{n+1}-1; block 0 is 1 + z.  Summed over n the coefficients
telescope to 1, which is what makes the blocks a partition of a series.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_number

# Elements per temporary in `_evaluate`: 2^16 complex values are 1 MiB.
_CHUNK_ELEMENTS = 2**16


class TaylorSeries:
    """A polynomial f(z) = sum a_k z^k stored as a dense, read-only coefficient vector.

    The constructor copies its input, so the caller's array stays writable,
    and prepares evaluation there.  The copy is one read-only buffer of
    max(N + 1, rows * B) elements: its first N + 1 are `coefficients`, and
    its first rows * B, reshaped, are the Horner table, zero-padded rows of
    B, B the power of two nearest the square root of the length through the
    last nonzero.  Trailing zeros fall in the padding or past the table, so
    no second copy is made.  `degree` is the index of that last nonzero, 0
    for the zero series.
    """

    __slots__ = ("coefficients", "degree", "_horner")

    def __init__(self, coefficients):
        arr = np.asarray(coefficients)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("coefficients must form a nonempty 1-d array")
        if not np.iscomplexobj(arr):
            arr = arr.astype(float, copy=False)
        if not np.all(np.isfinite(arr)):
            raise DomainError("coefficients must be finite")
        if arr[-1]:
            length = len(arr)
        else:
            nonzero = np.flatnonzero(arr)
            length = int(nonzero[-1]) + 1 if len(nonzero) else 0
        # _evaluate then loops about sqrt(length) times; no nonzero coefficient gives no rows.
        block = 1 << ((length - 1).bit_length() + 1) // 2 if length else 1
        rows = -(-length // block)
        buffer = np.zeros(max(len(arr), rows * block), dtype=arr.dtype)
        buffer[: len(arr)] = arr
        buffer.setflags(write=False)
        self.coefficients = buffer[: len(arr)]
        self.degree = max(length - 1, 0)
        self._horner = buffer[: rows * block].reshape(rows, block)

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z):
        return _evaluate(self._horner, z)

    def derivative(self) -> "TaylorSeries":
        if len(self.coefficients) == 1:
            return TaylorSeries(np.zeros(1, dtype=self.coefficients.dtype))
        k = np.arange(1, len(self.coefficients))
        return TaylorSeries(self.coefficients[1:] * k)

    def pad(self, truncation: int) -> "TaylorSeries":
        if truncation < 0:
            raise DomainError(f"truncation must be nonnegative, got {truncation}")
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


def _evaluate(table: np.ndarray, z):
    """sum_k a_k z^k elementwise over a Horner table, with the shape of z (a scalar for a scalar).

    Powers z^0..z^(B-1) come from one cumulative product, every row of the
    table from one matrix product, and Horner's rule runs across the rows in
    z^B.  Points are taken in chunks that keep each temporary near 1 MiB.  A
    single real point runs the row Horner on Python floats: the same multiply
    then add in the same order, so the same bits, without two ufunc calls a
    row.
    """
    z = np.asarray(z)
    dtype = np.result_type(table, z, float)
    flat = z.astype(dtype, copy=False).reshape(-1)
    out = np.zeros(flat.shape, dtype=dtype)
    count, block = table.shape
    if count:
        chunk = max(1, _CHUNK_ELEMENTS // max(block, count))
        for start in range(0, len(flat), chunk):
            x = flat[start : start + chunk]
            powers = np.empty((block, len(x)), dtype=dtype)
            powers[0] = 1.0
            powers[1:] = x
            np.cumprod(powers, axis=0, out=powers)
            blocks = table @ powers
            step = powers[-1] * x
            if len(flat) == 1 and dtype == np.float64:
                rows, step_value = blocks[:, 0].tolist(), float(step[0])
                value = rows[-1]
                for row in rows[-2::-1]:
                    value = value * step_value + row
                out[0] = value
            else:
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
    """Read (index, coefficient) rows; indices must cover 0..N once each.

    A first row that does not parse as an integer and a number is a header and
    is skipped; any later such row, a repeated index or a gap is a DomainError.
    Blank lines and columns past the second are ignored.
    """
    entries: dict[int, float] = {}
    for line, row in enumerate(row for row in csv.reader(io.StringIO(text)) if row):
        try:
            idx, val = int(row[0]), float(row[1])
        except (ValueError, IndexError):
            if line == 0:
                continue
            raise DomainError(f"series CSV row {row!r} is not an (index, coefficient) pair") from None
        if idx in entries:
            raise DomainError(f"series CSV lists index {idx} twice")
        entries[idx] = val
    if not entries or set(entries) != set(range(len(entries))):
        raise DomainError("series CSV must list every index 0..N exactly once")
    return TaylorSeries(np.array([entries[k] for k in range(len(entries))]))


def series_to_csv(f: TaylorSeries) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["index", "coefficient"])
    for k, c in enumerate(f.coefficients):
        writer.writerow([k, repr(float(c))])
    return buf.getvalue()


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
    s = np.asarray(s, dtype=float)
    return psi_cutoff(s / 2.0) - psi_cutoff(s)


@dataclass(frozen=True)
class BlockPolynomial:
    """One smooth dyadic block: coefficients `values` on exponents offset..offset+len-1."""

    offset: int
    values: np.ndarray

    @property
    def degree(self) -> int:
        return self.offset + len(self.values) - 1

    def hadamard(self, f: TaylorSeries) -> np.ndarray:
        """Coefficients of block * f on the block's support."""
        segment = np.zeros(len(self.values), dtype=f.coefficients.dtype)
        hi = min(self.degree + 1, len(f.coefficients))
        if hi > self.offset:
            segment[: hi - self.offset] = f.coefficients[self.offset : hi]
        return self.values * segment


@functools.cache
def block_polynomial(n: int) -> BlockPolynomial:
    """Block n, built once per n; its `values` are read-only, so every caller shares them."""
    if n < 0:
        raise DomainError("block index must be nonnegative")
    if n == 0:
        offset, values = 0, np.array([1.0, 1.0])
    else:
        offset = 2 ** (n - 1)
        values = phi_cutoff(np.arange(offset, 4 * offset) / offset)
    values.setflags(write=False)
    return BlockPolynomial(offset, values)


# -- circle norms ------------------------------------------------------------


def _circle_peak(coeffs: np.ndarray, m: int) -> float:
    """max |DFT_m(coeffs)|: the largest |P| over m equispaced points of the unit circle.

    Real coefficients take a real-input FFT: P(e^{-i theta}) is the conjugate
    of P(e^{i theta}), so the half spectrum it returns holds the same maximum.
    Complex coefficients take the full transform.
    """
    transform = np.fft.fft if np.iscomplexobj(coeffs) else np.fft.rfft
    return float(np.max(np.abs(transform(coeffs, m))))


def sup_norm(poly) -> float:
    """Max of |P| over 8 (degree + 1) equispaced points on the unit circle.

    Real coefficients take a real-input FFT (the same maximum, by conjugate
    symmetry), complex ones the full transform.  Raw arrays must be nonempty,
    finite and 1-d, as for `TaylorSeries`.
    """
    coeffs = (poly if isinstance(poly, TaylorSeries) else TaylorSeries(poly)).coefficients
    return _circle_peak(coeffs, 8 * len(coeffs))
