"""Series layer: Taylor containers, IO, smooth cutoffs, dyadic blocks."""

import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from hilbloch.errors import DomainError, PreconditionError
from hilbloch.series import (
    BlockPolynomial,
    TaylorSeries,
    block_polynomial,
    hardy_norm,
    phi_cutoff,
    psi_cutoff,
    reconstruction_defect,
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

    def test_hadamard_is_termwise(self):
        f = TaylorSeries([1.0, 2.0, 3.0])
        g = TaylorSeries([2.0, 0.5, -1.0])
        assert np.allclose(f.hadamard(g).coefficients, [2.0, 1.0, -3.0])

    def test_pad_extends_and_truncates(self):
        f = TaylorSeries([1.0, 2.0])
        assert f.pad(4).truncation == 4
        assert np.allclose(f.pad(4).coefficients, [1.0, 2.0, 0.0, 0.0, 0.0])
        assert np.allclose(f.pad(0).coefficients, [1.0])

    def test_nonnegativity_flag(self):
        assert TaylorSeries([0.0, 1.0, 2.0]).has_nonnegative_coefficients
        assert not TaylorSeries([0.0, -1e-12]).has_nonnegative_coefficients

    @given(coeff_arrays)
    def test_antiderivative_inverts_derivative(self, coeffs):
        f = TaylorSeries(coeffs)
        back = f.derivative().antiderivative(constant=float(coeffs[0]))
        assert np.allclose(back.pad(f.truncation).coefficients, coeffs, atol=1e-12)

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

    def test_csv_stream_target(self):
        buf = io.StringIO()
        series_to_csv(TaylorSeries([1.0, 2.0]), stream=buf)
        assert buf.getvalue().splitlines()[0] == "index,coefficient"


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
        assert np.allclose(v0.to_series().coefficients, [1.0, 1.0])

    def test_block_support(self):
        for n in (1, 2, 3, 5):
            vn = block_polynomial(n)
            coeffs = vn.to_series().coefficients
            nz = np.nonzero(np.abs(coeffs) > 1e-15)[0]
            assert nz[0] >= 2 ** (n - 1)
            assert nz[-1] <= 2 ** (n + 1) - 1
            assert isinstance(vn, BlockPolynomial)

    def test_center_coefficient_is_one(self):
        # At k = 2^n the bump passes the coefficient through unchanged.
        for n in (2, 4, 6):
            coeffs = block_polynomial(n).to_series().coefficients
            assert coeffs[2**n] == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_defect_is_tiny(self):
        rng = np.random.default_rng(20260814)
        f = TaylorSeries(rng.standard_normal(2**6 + 1))
        assert reconstruction_defect(f, depth=6) < 1e-12

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

    def test_sup_norm_sample_floor(self):
        with pytest.raises(PreconditionError):
            sup_norm(TaylorSeries(np.ones(16)), samples=16)

    def test_hardy_two_norm_is_coefficient_norm(self):
        f = TaylorSeries([3.0, 4.0])
        assert hardy_norm(f, 2) == pytest.approx(5.0)

    def test_hardy_one_norm_of_monomial(self):
        assert hardy_norm(TaylorSeries([0.0, 1.0]), 1) == pytest.approx(1.0, rel=1e-9)

    def test_unsupported_exponent(self):
        with pytest.raises(DomainError):
            hardy_norm(TaylorSeries([1.0]), 3)

    def test_block_norms_scale_dyadically(self):
        # L1 norms stay bounded while sup norms grow like the block length.
        for n in range(1, 8):
            vn = block_polynomial(n).to_series()
            assert hardy_norm(vn, 1) < 4.0
            assert 0.25 <= sup_norm(vn) / 2.0**n <= 4.0
