"""Tests for the operator basis and the term decomposition."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procval import gallery_entry, hsbasis, linalg
from procval.hsbasis import HSTerm

from helpers import random_hermitian

PAULI = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.diag([1.0, -1.0]).astype(complex),
}


def decompose_reference(m, dims):
    """Independent coefficient extraction: explicit trace against each dense
    basis element."""
    bases = [hsbasis.make_basis(d).ops for d in dims]
    total = int(np.prod(dims))
    out = {}
    for idx in itertools.product(*(range(d * d) for d in dims)):
        sigma = linalg.tensor(*(bases[k][i] for k, i in enumerate(idx)))
        out[idx] = complex(np.trace(np.asarray(m) @ sigma)) / total
    return out


class TestMakeBasis:
    def test_qubit_basis_is_pauli(self):
        basis = hsbasis.make_basis(2)
        assert len(basis) == 4
        for i, op in enumerate(basis.ops):
            assert np.abs(op - PAULI[i]).max() < 1e-15

    def test_degenerate_dimension(self):
        basis = hsbasis.make_basis(1)
        assert len(basis) == 1
        assert np.array_equal(basis.ops[0], np.array([[1.0 + 0j]]))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            hsbasis.make_basis(0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthogonality_and_structure(self, d):
        basis = hsbasis.make_basis(d)
        assert len(basis) == d * d
        assert np.array_equal(basis.ops[0], np.eye(d))
        gram = np.array([[np.trace(a @ b) for b in basis.ops] for a in basis.ops])
        assert np.abs(gram - d * np.eye(d * d)).max() < 1e-12
        for op in basis.ops[1:]:
            assert abs(np.trace(op)) < 1e-14
        for op in basis.ops:
            assert np.abs(op - op.conj().T).max() < 1e-14

    def test_cached(self):
        assert hsbasis.make_basis(3) is hsbasis.make_basis(3)


def test_product_basis_orthogonality_exhaustive():
    # trace(s_I s_J) = D * delta_IJ over every pair of 2-qubit product elements
    ops = hsbasis.make_basis(2).ops
    elements = {(i, j): linalg.tensor(ops[i], ops[j])
                for i in range(4) for j in range(4)}
    for a, ma in elements.items():
        for b, mb in elements.items():
            expect = 4.0 if a == b else 0.0
            assert abs(np.trace(ma @ mb) - expect) < 1e-12


class TestDecompose:
    def test_identity(self):
        terms = hsbasis.decompose(np.eye(8), (2, 4))
        assert terms == [HSTerm((0, 0), 1.0)]

    def test_classically_correlated_state(self):
        rho = (np.eye(4) + linalg.tensor(PAULI[3], PAULI[3])) / 4.0
        terms = hsbasis.decompose(rho, (2, 2))
        assert {t.indices: t.coeff for t in terms} == {(0, 0): 0.25, (3, 3): 0.25}

    def test_matches_reference_extraction(self):
        rng = np.random.default_rng(11)
        m = random_hermitian(8, rng)
        reference = decompose_reference(m, (2, 2, 2))
        coeffs = hsbasis.coefficient_tensor(m, (2, 2, 2))
        for idx, val in reference.items():
            assert abs(val.imag) < 1e-10
            assert coeffs[idx] == pytest.approx(val.real, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(12)
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        ca = hsbasis.coefficient_tensor(a, (2, 2))
        cb = hsbasis.coefficient_tensor(b, (2, 2))
        cab = hsbasis.coefficient_tensor(0.7 * a - 1.3 * b, (2, 2))
        assert np.abs(cab - (0.7 * ca - 1.3 * cb)).max() < 1e-12

    def test_threshold_semantics(self):
        rho = (np.eye(4) + linalg.tensor(PAULI[3], PAULI[3])) / 4.0
        assert hsbasis.decompose(rho, (2, 2), tol=0.3) == []
        assert len(hsbasis.decompose(rho, (2, 2), tol=0.2)) == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hsbasis.decompose(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            hsbasis.decompose(np.eye(4), (2, 3))

    @settings(max_examples=20, deadline=None)
    @given(coeffs=st.lists(st.floats(-2, 2), min_size=4, max_size=4))
    def test_extraction_is_linear_in_pauli_weights(self, coeffs):
        m = sum(c * PAULI[i] for i, c in enumerate(coeffs))
        tensor = hsbasis.coefficient_tensor(m, (2,))
        assert np.abs(tensor - np.asarray(coeffs)).max() < 1e-12


def _unit(dim, k):
    m = np.zeros((dim, dim), dtype=complex)
    m[k, k] = 1.0
    return m


# Operators and their subsystem dims for the shared contraction: a
# one-dimensional and a three-dimensional subsystem, and operators whose
# coefficient slices are mostly zero (a matrix unit and a gallery process).
CONTRACTION_CASES = {
    "random-1x3x2": (random_hermitian(6, np.random.default_rng(14)), (1, 3, 2)),
    "unit-1x3x2": (_unit(6, 4), (1, 3, 2)),
    "unit-3x1x2": (_unit(6, 1), (3, 1, 2)),
    "oneway-xy-d2": (gallery_entry("oneway-xy-d2").process.op, (2, 2, 2, 2)),
}


@pytest.mark.parametrize("name", CONTRACTION_CASES)
def test_coefficient_tensor_matches_reference(name):
    m, dims = CONTRACTION_CASES[name]
    coeffs = hsbasis.coefficient_tensor(m, dims)
    assert coeffs.shape == tuple(d * d for d in dims)
    for idx, val in decompose_reference(m, dims).items():
        assert abs(val.imag) < 1e-12
        assert coeffs[idx] == pytest.approx(val.real, abs=1e-12)


@pytest.mark.parametrize("name", CONTRACTION_CASES)
def test_reconstruct_round_trip(name):
    m, dims = CONTRACTION_CASES[name]
    back = hsbasis.reconstruct(hsbasis.decompose(m, dims, tol=0.0), dims)
    assert np.abs(back - m).max() <= 1e-12


class TestReconstruct:
    def test_empty(self):
        assert np.array_equal(hsbasis.reconstruct([], (2, 2)), np.zeros((4, 4)))

    def test_identity_term(self):
        got = hsbasis.reconstruct([HSTerm((0, 0), 2.5)], (2, 3))
        assert np.abs(got - 2.5 * np.eye(6)).max() < 1e-14

    def test_roundtrip_random_hermitian(self):
        rng = np.random.default_rng(13)
        m = random_hermitian(16, rng)
        terms = hsbasis.decompose(m, (2, 2, 2, 2), tol=0.0)
        back = hsbasis.reconstruct(terms, (2, 2, 2, 2))
        assert np.linalg.norm(back - m) < 1e-10 * max(1.0, np.linalg.norm(m))

    def test_index_recovery(self):
        terms = [HSTerm((1, 3), 0.7), HSTerm((2, 0), -1.25), HSTerm((3, 3), 0.5)]
        m = hsbasis.reconstruct(terms, (2, 2))
        got = sorted(hsbasis.decompose(m, (2, 2)), key=lambda t: t.indices)
        assert [t.indices for t in got] == [(1, 3), (2, 0), (3, 3)]
        for t, ref in zip(got, sorted(terms, key=lambda t: t.indices)):
            assert t.coeff == pytest.approx(ref.coeff, abs=1e-12)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(IndexError):
            hsbasis.reconstruct([HSTerm((4, 0), 1.0)], (2, 2))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            hsbasis.reconstruct([HSTerm((0,), 1.0)], (2, 2))
