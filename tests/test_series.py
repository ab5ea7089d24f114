"""Series layer: Taylor containers, IO, smooth cutoffs, dyadic blocks."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from hilbloch.errors import DomainError
from hilbloch.series import (
    BlockPolynomial,
    TaylorSeries,
    block_polynomial,
    phi_cutoff,
    psi_cutoff,
    series_from_csv,
    series_from_json,
    series_to_csv,
    series_to_json,
    sup_norm,
)

coeff_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=40),
    elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)


def _trailing_monomial(size_value):
    size, value = size_value
    c = np.zeros(size)
    c[-1] = value
    return c


_signed = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_subnormal=False)
# Real vectors for the circle maximum: mixed signs with planted zeros, and
# vectors whose only nonzero is the last one.
real_vectors = st.one_of(
    hnp.arrays(np.float64, st.integers(min_value=1, max_value=300), elements=st.one_of(st.just(0.0), _signed)),
    st.tuples(st.integers(min_value=1, max_value=300), _signed.filter(bool)).map(_trailing_monomial),
)


class TestTaylorSeries:
    def test_evaluation_matches_horner(self):
        f = TaylorSeries([1.0, 2.0, 3.0])
        assert f(0.5) == pytest.approx(1.0 + 1.0 + 0.75)
        assert f(0.0) == pytest.approx(1.0)

    def test_vector_and_complex_evaluation(self):
        f = TaylorSeries([0.0, 1.0])
        zs = np.array([0.1, 0.5 + 0.5j])
        assert np.allclose(f(zs), zs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            TaylorSeries([1.0, bad, 2.0])

    def test_truncation_is_top_index(self):
        assert TaylorSeries([1.0, 0.0, 2.0]).truncation == 2

    def test_derivative_oracle(self):
        f = TaylorSeries([5.0, 1.0, 2.0, 3.0])
        assert np.allclose(f.derivative().coefficients, [1.0, 4.0, 9.0])

    def test_pad_extends_and_truncates(self):
        f = TaylorSeries([1.0, 2.0])
        assert f.pad(4).truncation == 4
        assert np.allclose(f.pad(4).coefficients, [1.0, 2.0, 0.0, 0.0, 0.0])
        assert np.allclose(f.pad(0).coefficients, [1.0])

    @pytest.mark.parametrize("truncation", [-1, -3])
    def test_negative_pad_rejected(self, truncation):
        with pytest.raises(DomainError, match="nonnegative"):
            TaylorSeries(np.arange(1.0, 8.0)).pad(truncation)

    def test_nonnegativity_flag(self):
        assert TaylorSeries([0.0, 1.0, 2.0]).has_nonnegative_coefficients
        assert not TaylorSeries([0.0, -1e-12]).has_nonnegative_coefficients

    @given(coeff_arrays, st.floats(min_value=-0.9, max_value=0.9))
    def test_derivative_matches_difference_quotient(self, coeffs, z):
        f = TaylorSeries(coeffs)
        h = 1e-7
        numeric = (f(z + h) - f(z - h)) / (2.0 * h)
        assert f.derivative()(z) == pytest.approx(numeric, rel=1e-4, abs=1e-4)


def _mp_horner(coeffs, z):
    with mpmath.workdps(30):
        z = mpmath.mpc(complex(z))
        acc = mpmath.mpc(0)
        for c in reversed(coeffs):
            acc = acc * z + mpmath.mpc(complex(c))
        return complex(acc)


class TestEvaluator:
    """TaylorSeries.__call__ against 30-digit Horner and against its own contract."""

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0 - 2.0**-16])
    def test_dense_series_matches_mpmath(self, r):
        coeffs = np.random.default_rng(7).uniform(-1.0, 1.0, 2**14)
        f = TaylorSeries(coeffs)
        for z in (r, -r, r * np.exp(0.3j), r * np.exp(2.0j)):
            scale = np.sum(np.abs(coeffs) * abs(z) ** np.arange(len(coeffs)))
            assert abs(f(z) - _mp_horner(coeffs, z)) <= 1e-12 * scale

    def test_chunked_points_match_reference(self):
        # 2^14 coefficients in blocks of 128 take 512 points per chunk.
        coeffs = np.random.default_rng(8).uniform(-1.0, 1.0, 2**14)
        z = 0.999 * np.exp(2j * np.pi * np.arange(1500) / 1500)
        scale = np.sum(np.abs(coeffs) * 0.999 ** np.arange(len(coeffs)))
        reference = np.polynomial.polynomial.polyval(z, coeffs)
        assert np.max(np.abs(TaylorSeries(coeffs)(z) - reference)) <= 1e-12 * scale

    def test_trailing_zeros_do_not_change_values(self):
        z = np.array([0.3, -0.7, 0.5 + 0.5j])
        short = TaylorSeries([1.0, -2.0, 3.0])
        padded = short.pad(5000)
        assert np.array_equal(padded(z), short(z))

    def test_all_zero_series(self):
        f = TaylorSeries(np.zeros(9))
        assert f(0.5) == 0.0 and np.ndim(f(0.5)) == 0
        out = f(np.full((2, 3), 0.5 + 0.5j))
        assert out.shape == (2, 3) and np.iscomplexobj(out) and not np.any(out)

    def test_complex_coefficients(self):
        coeffs = np.random.default_rng(9).normal(size=300) + 1j * np.random.default_rng(10).normal(size=300)
        f = TaylorSeries(coeffs)
        for z in (0.8, 0.6 - 0.7j):
            assert f(z) == pytest.approx(_mp_horner(coeffs, z), rel=1e-12, abs=1e-12)

    def test_shapes_follow_the_input(self):
        f = TaylorSeries(np.arange(1.0, 70.0))
        scalar = f(0.5)
        assert isinstance(scalar, np.floating) and np.ndim(scalar) == 0
        zero_d = f(np.array(0.5))
        assert np.ndim(zero_d) == 0 and zero_d == scalar
        assert f([0.5]).shape == (1,)
        grid = np.linspace(-0.9, 0.9, 12).reshape(3, 4)
        values = f(grid)
        assert values.shape == (3, 4)
        assert np.allclose(values.ravel(), [f(z) for z in grid.ravel()], rtol=1e-14, atol=0.0)
        assert isinstance(f(0.5j), np.complexfloating)


class TestSeriesIO:
    def test_json_round_trip(self):
        f = TaylorSeries([1.0, -2.5, 0.0, 4.0])
        again = series_from_json(series_to_json(f))
        assert np.array_equal(again.coefficients, f.coefficients)

    def test_empty_json_rejected(self):
        with pytest.raises(DomainError):
            series_from_json([])

    def test_csv_round_trip(self):
        f = TaylorSeries([1.0, 0.25, -0.125])
        again = series_from_csv(series_to_csv(f))
        assert np.allclose(again.coefficients, f.coefficients)

    def test_csv_requires_full_index_coverage(self):
        with pytest.raises(DomainError):
            series_from_csv("index,coefficient\n0,1.0\n2,3.0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0,abc\n", "every index"),
            ("index,coefficient\n0,1.0\n1,abc\n", "not an"),
            ("index,coefficient\n0,1.0\n1\n", "not an"),
            ("index,coefficient\n", "every index"),
            ("", "every index"),
            ("0,1\n0,2\n1,3\n", "twice"),
            ("-1,5\n0,1\n", "every index"),
            ("index,coefficient\n-1,5\n0,1\n", "every index"),
            ("index,coefficient\n0,1\n1.5,2\n", "not an"),
        ],
        ids=["non_numeric_only_row", "non_numeric", "one_column", "header_only", "empty", "duplicate", "negative_first", "negative", "fractional_index"],
    )
    def test_malformed_csv_is_a_domain_error(self, text, message):
        with pytest.raises(DomainError, match=message):
            series_from_csv(text)

    def test_csv_without_header_keeps_its_first_row(self):
        assert series_from_csv("0,1.5\n1,-2\n").coefficients.tolist() == [1.5, -2.0]


class TestCutoffs:
    def test_psi_plateau_and_support(self):
        assert psi_cutoff(0.5) == pytest.approx(1.0)
        assert psi_cutoff(1.0) == pytest.approx(1.0)
        assert psi_cutoff(2.0) == pytest.approx(0.0)
        assert psi_cutoff(5.0) == 0.0

    def test_psi_is_monotone_on_transition(self):
        s = np.linspace(1.0, 2.0, 64)
        vals = psi_cutoff(s)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_phi_is_psi_increment(self):
        s = np.linspace(0.25, 4.0, 97)
        assert np.allclose(phi_cutoff(s), psi_cutoff(s / 2.0) - psi_cutoff(s), atol=1e-13)

    def test_partition_of_unity(self):
        # psi(s) + sum of phi over dyadic rescalings telescopes back to 1.
        s = np.linspace(0.5, 1000.0, 257)
        total = psi_cutoff(s) + sum(phi_cutoff(s / 2.0**j) for j in range(0, 16))
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_scalar_inputs_return_floats(self):
        assert isinstance(psi_cutoff(1.5), float)
        assert isinstance(phi_cutoff(1.5), float)


class TestBlocks:
    def test_block_zero_is_one_plus_z(self):
        v0 = block_polynomial(0)
        assert v0.offset == 0 and np.allclose(v0.values, [1.0, 1.0])

    def test_block_support(self):
        for n in (1, 2, 3, 5):
            vn = block_polynomial(n)
            nz = np.nonzero(np.abs(vn.values) > 1e-15)[0] + vn.offset
            assert nz[0] >= 2 ** (n - 1)
            assert nz[-1] <= 2 ** (n + 1) - 1
            assert isinstance(vn, BlockPolynomial)

    def test_center_coefficient_is_one(self):
        # At k = 2^n the bump passes the coefficient through unchanged.
        for n in (2, 4, 6):
            block = block_polynomial(n)
            assert block.values[2**n - block.offset] == pytest.approx(1.0, abs=1e-12)

    def test_blocks_telescope_to_the_series(self):
        # Blocks 0..6 sum to 1 on every exponent up to 2^6, so their products with f rebuild f.
        rng = np.random.default_rng(20260814)
        f = TaylorSeries(rng.standard_normal(2**6 + 1))
        rebuilt = np.zeros(len(f.coefficients))
        for n in range(7):
            block = block_polynomial(n)
            piece = block.hadamard(f)[: len(rebuilt) - block.offset]
            rebuilt[block.offset : block.offset + len(piece)] += piece
        assert np.max(np.abs(rebuilt - f.coefficients)) < 1e-12

    def test_hadamard_extracts_block(self):
        # The returned segment is indexed relative to the block offset.
        f = TaylorSeries(np.arange(32, dtype=float))
        block = block_polynomial(2)
        piece = block.hadamard(f)
        nz = np.nonzero(np.abs(piece) > 1e-15)[0] + block.offset
        assert nz[0] >= 2 and nz[-1] <= 7
        assert piece[4 - block.offset] == pytest.approx(4.0)


class TestPolynomialNorms:
    def test_sup_norm_of_monomial(self):
        assert sup_norm(TaylorSeries([0.0, 0.0, 1.0])) == pytest.approx(1.0, rel=1e-12)

    def test_sup_norm_of_binomial(self):
        assert sup_norm(TaylorSeries([1.0, 1.0])) == pytest.approx(2.0, rel=1e-6)

    @given(real_vectors)
    def test_real_sup_norm_matches_full_transform(self, c):
        full = np.max(np.abs(np.fft.fft(c, 8 * len(c))))
        assert sup_norm(c) == pytest.approx(full, rel=1e-13, abs=0.0)
        assert sup_norm(c) <= np.sum(np.abs(c)) * (1.0 + 1e-13)  # up to rounding

    @pytest.mark.parametrize("coeffs", [[1.0, 1j], [1.0, -1j]])
    def test_complex_sup_norm_reads_the_whole_circle(self, coeffs):
        # |1 +- i z| peaks at z = -+i.  numpy's DFT samples P(e^{-i theta}),
        # so for 1 - i z the peak lies in the half a real transform drops.
        assert sup_norm(np.array(coeffs)) == 2.0
        assert sup_norm(TaylorSeries(coeffs)) == 2.0

    @pytest.mark.parametrize(
        "bad, message", [([], "nonempty"), ([math.nan, 1.0], "finite"), ([math.inf], "finite")], ids=["empty", "nan", "inf"]
    )
    def test_raw_arrays_are_checked(self, bad, message):
        with pytest.raises(DomainError, match=message):
            sup_norm(np.array(bad))

    def test_block_norms_scale_dyadically(self):
        # Circle averages of |block| stay bounded while sup norms grow like the block length.
        for n in range(1, 8):
            block = block_polynomial(n)
            assert np.mean(np.abs(np.fft.fft(block.values, 8 * (block.degree + 1)))) < 4.0
            assert 0.25 <= sup_norm(block.values) / 2.0**n <= 4.0


def _unprepared_evaluate(coeffs: np.ndarray, z):
    """The evaluator as it was before series prepared their Horner table, kept verbatim as the reference."""
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
        chunk = max(1, 2**16 // max(block, count))
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


def _assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) and np.result_type(got) == np.result_type(want)
    assert np.array_equal(got, want)


class TestImmutableSeries:
    def test_coefficients_are_read_only(self):
        f = TaylorSeries([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            f.coefficients[1] = 5.0
        with pytest.raises(ValueError):
            f.coefficients *= 2.0
        assert f.coefficients.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.complex128])
    def test_the_callers_array_stays_writable_and_untouched(self, dtype):
        source = np.array([3, 0, 1, 2], dtype=dtype)
        f = TaylorSeries(source)
        assert source.flags.writeable
        assert not np.shares_memory(source, f.coefficients)
        source[0] = 7
        assert f.coefficients[0] == 3 and f(0.0) == 3.0

    def test_derived_series_are_read_only_too(self):
        f = TaylorSeries(np.arange(1.0, 9.0))
        for g in (f.derivative(), f.pad(3), f.pad(20)):
            assert not g.coefficients.flags.writeable

    @pytest.mark.parametrize(
        "coeffs, degree",
        [([0.0], 0), ([2.0], 0), ([0.0, 0.0, 0.0], 0), ([1.0, 0.0, -2.0, 0.0, 0.0], 2), ([0.0, 1j], 1), ([-0.0, 3.0, -0.0], 1)],
    )
    def test_degree_is_the_last_nonzero(self, coeffs, degree):
        assert TaylorSeries(coeffs).degree == degree


class TestPreparedEvaluation:
    """Evaluation through the prepared table gives the bits of the unprepared evaluator."""

    dense = np.random.default_rng(11).uniform(-1.0, 1.0, 2**14)

    @pytest.mark.parametrize("z", [0.0, 0.37, -0.81, 1.0 - 2.0**-16, -1.0])
    def test_real_scalar(self, z):
        f = TaylorSeries(self.dense)
        for point in (z, np.float64(z), np.array(z)):
            _assert_same_bits(f(point), _unprepared_evaluate(self.dense, point))

    def test_one_point_arrays(self):
        f = TaylorSeries(self.dense)
        for point in (np.array([0.93]), [0.5], np.array([[0.25]])):
            _assert_same_bits(f(point), _unprepared_evaluate(self.dense, point))

    @pytest.mark.parametrize("count", [511, 512, 513, 1500])
    def test_vectors_across_the_chunk_boundary(self, count):
        # 2^14 coefficients in blocks of 128 take 512 points per chunk.
        f = TaylorSeries(self.dense)
        real = np.linspace(-0.999, 0.999, count)
        circle = 0.999 * np.exp(2j * np.pi * np.arange(count) / count)
        for z in (real, circle):
            _assert_same_bits(f(z), _unprepared_evaluate(self.dense, z))

    def test_complex_coefficients_and_points(self):
        rng = np.random.default_rng(12)
        coeffs = rng.normal(size=300) + 1j * rng.normal(size=300)
        f = TaylorSeries(coeffs)
        for z in (0.8, 0.6 - 0.7j, np.array([0.6 - 0.7j]), np.array([0.1, 0.2 + 0.3j, -0.9j])):
            _assert_same_bits(f(z), _unprepared_evaluate(coeffs, z))
        real = TaylorSeries(self.dense[:300])
        for z in (0.6 - 0.7j, np.array([0.5j])):
            _assert_same_bits(real(z), _unprepared_evaluate(self.dense[:300], z))

    def test_zero_series(self):
        coeffs = np.zeros(9)
        f = TaylorSeries(coeffs)
        for z in (0.5, np.array([0.5]), np.full((2, 3), 0.5 + 0.5j)):
            _assert_same_bits(f(z), _unprepared_evaluate(coeffs, z))

    def test_trailing_zeros(self):
        coeffs = np.zeros(5000)
        coeffs[:3] = [1.0, -2.0, 3.0]
        f = TaylorSeries(coeffs)
        for z in (0.3, np.array([-0.7]), np.array([0.3, -0.7, 0.5 + 0.5j])):
            _assert_same_bits(f(z), _unprepared_evaluate(coeffs, z))

    def test_the_coefficients_are_their_own_table(self):
        # A nonzero last coefficient: the table is the coefficient buffer, rows of 128.
        f = TaylorSeries(self.dense)
        assert f._horner.shape == (128, 128) and np.shares_memory(f._horner, f.coefficients)
        # Trailing zeros: the table is cut at the last nonzero, in the same buffer.
        g = f.pad(2**15)
        assert g._horner.size == 2**14 and np.shares_memory(g._horner, g.coefficients)

    @pytest.mark.parametrize("size, last", [(5000, 2), (300, 0), (2**12 + 3, 2**12 - 1), (9, None), (1, None)])
    def test_trailing_zeros_share_one_buffer(self, size, last):
        # Prepared in the constructor: degree is set, and the table, cut at the last
        # nonzero (last=None: the zero series, no rows), lies in the coefficients' buffer.
        coeffs = np.zeros(size)
        if last is not None:
            coeffs[: last + 1] = np.linspace(1.0, 2.0, last + 1)
        f = TaylorSeries(coeffs)
        assert f.degree == (last or 0)
        rows, block = f._horner.shape
        length = 0 if last is None else last + 1
        assert (rows - 1) * block < length <= rows * block or rows == length == 0
        assert f._horner.base is f.coefficients.base is not None
        assert not f._horner.flags.writeable
        table = f._horner
        _assert_same_bits(f(0.5), _unprepared_evaluate(coeffs, 0.5))
        assert f._horner is table

    @given(
        coeffs=coeff_arrays,
        z=st.floats(min_value=-1.2, max_value=1.2, allow_nan=False),
    )
    def test_any_real_point_gives_the_same_bits(self, coeffs, z):
        f = TaylorSeries(coeffs)
        _assert_same_bits(f(z), _unprepared_evaluate(coeffs, z))
        _assert_same_bits(f(np.array([z])), _unprepared_evaluate(coeffs, np.array([z])))


class TestSharedBlocks:
    def test_each_block_is_built_once(self):
        assert block_polynomial(5) is block_polynomial(5)

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_block_values_are_read_only(self, n):
        with pytest.raises(ValueError):
            block_polynomial(n).values[0] = 2.0
