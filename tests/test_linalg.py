"""Tests for the dense matrix kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from procval import linalg

SIGMA_Z = np.diag([1.0, -1.0]).astype(np.complex128)


def kron_reference(a, b):
    """Independent loop-based Kronecker product."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=np.complex128)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


class TestTensor:
    def test_identity(self):
        assert np.array_equal(linalg.tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_pair(self):
        assert np.array_equal(linalg.tensor(SIGMA_Z, SIGMA_Z),
                              np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert np.abs(linalg.tensor(a, b) - kron_reference(a, b)).max() < 1e-14

    @pytest.mark.parametrize("d", [2, 3])
    def test_mixed_product(self, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            a, b, c, e = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                          for _ in range(4))
            lhs = linalg.tensor(a, b) @ linalg.tensor(c, e)
            rhs = linalg.tensor(a @ c, b @ e)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_needs_a_factor(self):
        with pytest.raises(ValueError):
            linalg.tensor()


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        got = linalg.partial_trace(linalg.tensor(a, b), (2, 3), {1})
        assert np.abs(got - a * np.trace(b)).max() < 1e-12
        got0 = linalg.partial_trace(linalg.tensor(a, b), (2, 3), {0})
        assert np.abs(got0 - b * np.trace(a)).max() < 1e-12

    def test_classically_correlated_marginals(self):
        rho = (np.eye(4) + linalg.tensor(SIGMA_Z, SIGMA_Z)) / 4.0
        # independent two-index sum
        expect = np.zeros((2, 2), dtype=np.complex128)
        for i in range(2):
            for j in range(2):
                expect[i, j] = sum(rho[i * 2 + k, j * 2 + k] for k in range(2))
        assert np.abs(expect - np.eye(2) / 2).max() < 1e-15
        got = linalg.partial_trace(rho, (2, 2), {1})
        assert np.abs(got - np.eye(2) / 2).max() < 1e-15

    def test_empty_discard_is_identity(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert np.array_equal(linalg.partial_trace(m, (2, 3), set()), m)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        for discard in [{0}, {1}, {2}, {0, 2}, {0, 1, 2}]:
            out = linalg.partial_trace(m, (2, 3, 2), discard)
            assert abs(np.trace(out) - np.trace(m)) < 1e-12

    def test_linear(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        lhs = linalg.partial_trace(2.0 * a - 3.0 * b, (2, 3), {0})
        rhs = (2.0 * linalg.partial_trace(a, (2, 3), {0})
               - 3.0 * linalg.partial_trace(b, (2, 3), {0}))
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_bad_index(self):
        with pytest.raises(IndexError):
            linalg.partial_trace(np.eye(4), (2, 2), {2})

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(4), (2, 3), {0})


class TestPermuteSubsystems:
    def test_identity_perm(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 6))
        assert np.array_equal(linalg.permute_subsystems(m, (2, 3), (0, 1)), m)

    def test_swap_factors(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        swapped = linalg.permute_subsystems(linalg.tensor(a, b), (2, 3), (1, 0))
        assert np.abs(swapped - linalg.tensor(b, a)).max() < 1e-15

    def test_three_factor_roundtrip(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        perm = [2, 0, 1]
        inv = list(np.argsort(perm))
        fwd = linalg.permute_subsystems(m, (2, 3, 2), perm)
        back = linalg.permute_subsystems(fwd, tuple((2, 3, 2)[p] for p in perm), inv)
        assert np.abs(back - m).max() < 1e-14

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(8)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = (g + g.conj().T) / 2
        out = linalg.permute_subsystems(m, (2, 2, 2), (2, 0, 1))
        assert np.abs(np.sort(np.linalg.eigvalsh(out))
                      - np.sort(np.linalg.eigvalsh(m))).max() < 1e-10

    def test_commutes_with_partial_trace(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        dims = (2, 3, 2)
        perm = (1, 2, 0)
        # tracing original factor perm[j] equals tracing slot j of the permuted matrix
        for slot, orig in enumerate(perm):
            lhs = linalg.partial_trace(
                linalg.permute_subsystems(m, dims, perm),
                tuple(dims[p] for p in perm), {slot})
            kept_orig = [i for i in range(3) if i != orig]
            kept_slots = [s for s, p in enumerate(perm) if p != orig]
            rhs = linalg.partial_trace(m, dims, {orig})
            rhs = linalg.permute_subsystems(
                rhs, tuple(dims[i] for i in kept_orig),
                [kept_orig.index(perm[s]) for s in kept_slots])
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            linalg.permute_subsystems(np.eye(4), (2, 2), (0, 0))

    @settings(max_examples=25, deadline=None)
    @given(
        re=arrays(np.float64, (12, 12), elements=st.floats(-1, 1)),
        im=arrays(np.float64, (12, 12), elements=st.floats(-1, 1)),
    )
    def test_roundtrip_is_exact(self, re, im):
        m = re + 1j * im
        perm = [1, 2, 0]
        fwd = linalg.permute_subsystems(m, (2, 3, 2), perm)
        back = linalg.permute_subsystems(fwd, (3, 2, 2), list(np.argsort(perm)))
        # pure relabeling, no arithmetic: bit-exact
        assert np.array_equal(back, m)


class TestMinEigenvalue:
    def test_identity(self):
        assert linalg.min_eigenvalue(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_sigma_z(self):
        assert linalg.min_eigenvalue(SIGMA_Z) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_general_eigensolver(self):
        rng = np.random.default_rng(10)
        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        m = (g + g.conj().T) / 2
        reference = float(np.min(np.linalg.eigvals(m).real))
        assert linalg.min_eigenvalue(m) == pytest.approx(reference, abs=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            linalg.min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_range_matches_general_eigensolver(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        m = (g + g.conj().T) / 2
        reference = np.sort(np.linalg.eigvals(m).real)
        lo, hi = linalg.eigenvalue_range(m)
        assert (lo, hi) == pytest.approx((reference[0], reference[-1]), abs=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            linalg.min_eigenvalue(m)


def test_hermiticity_defect():
    assert linalg.hermiticity_defect(np.eye(3)) == 0.0
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert linalg.hermiticity_defect(m) == pytest.approx(1.0)
    assert linalg.hermitian_tolerance(np.zeros((2, 2))) == pytest.approx(1e-12)


class TestFrobenius:
    def test_matches_numpy(self):
        m = np.arange(12.0).reshape(3, 4) * (1 - 2j)
        assert linalg.frobenius(m) == np.linalg.norm(m)

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_scale_safe_past_overflow(self, scale):
        m = np.array([[3.0, 4.0j], [0.0, 0.0]])
        assert linalg.frobenius(scale * m) == pytest.approx(5.0 * scale, rel=1e-15)

    def test_beyond_double_range_is_infinite(self):
        assert linalg.frobenius(np.full((2, 2), 1e308)) == np.inf

    @pytest.mark.parametrize("bad, want", [(np.inf, np.inf), (np.nan, np.nan)])
    def test_non_finite_entry(self, bad, want):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        assert linalg.frobenius(m) == pytest.approx(want, nan_ok=True)
