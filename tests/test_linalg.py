"""Tests for the dense matrix kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from procval import PartyLayout, ProcessMatrix, gallery_entry, gallery_names, linalg

from helpers import cyclic_triple, gell_mann_weights, random_hermitian, record_eigvalsh_dims

SIGMA_Z = np.diag([1.0, -1.0]).astype(np.complex128)
EPS = 2.0 ** -52


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


def test_as_operator_needs_a_square_matrix():
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        linalg.as_operator(np.zeros((2, 3)))


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

    def test_dimension_below_one(self):
        with pytest.raises(ValueError, match="^subsystem dimensions must be >= 1$"):
            linalg.partial_trace(np.eye(2), (2, 0), [1])

    def test_total_dimension_past_int64(self):
        """``2**32 · 2**32 · 16 = 2**68``, which a product in int64 wraps to 0."""
        with pytest.raises(ValueError, match=f"has total dimension {2**68}, matrix has 16$"):
            linalg.partial_trace(np.eye(16), (2**32, 2**32, 16), [0])


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


def hidden_blocks(dim, rng, sizes=range(1, 9)):
    """A Hermitian operator of random dense blocks of the given sizes down
    its diagonal, rows and columns then shuffled by one permutation; and the
    block sizes."""
    out, cuts = np.zeros((dim, dim), dtype=complex), []
    while sum(cuts) < dim:
        cuts.append(min(int(rng.choice(sizes)), dim - sum(cuts)))
    at = 0
    for k in cuts:
        out[at:at + k, at:at + k] = random_hermitian(k, rng)
        at += k
    perm = rng.permutation(dim)
    return out[np.ix_(perm, perm)], sorted(cuts)


def whole_extremes(h):
    lam = np.linalg.eigvalsh(h)
    return lam[0], lam[-1]


class TestBlockSpectrum:
    """From ``_LIVE_MIN`` entries on, a spectrum is read per coupled block
    of the Hermitian part's nonzero pattern; the reference is one
    ``np.linalg.eigvalsh`` of the whole operator, called directly."""

    @pytest.mark.parametrize("dim", [128, 256])
    @pytest.mark.parametrize("seed", range(4))
    def test_hidden_blocks_agree_with_eigvalsh(self, dim, seed):
        rng = np.random.default_rng(seed)
        h, cuts = hidden_blocks(dim, rng)
        blocks = linalg._coupled_blocks(h)
        assert sorted(k for b in blocks for k in [b.shape[1]] * len(b)) == cuts
        got, want = linalg.eigenvalue_range(h), whole_extremes(h)
        assert np.abs(np.subtract(got, want)).max() <= 64 * EPS * linalg.frobenius(h)

    def test_blocks_of_one_size_share_one_call(self, monkeypatch):
        h, _ = hidden_blocks(128, np.random.default_rng(1), sizes=[1, 3])
        shapes, real = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or real(a))
        linalg.eigenvalue_range(h)
        assert len(shapes) == 1 and shapes[0][1:] == (3, 3)

    def test_diagonal_gives_its_exact_extremes(self, monkeypatch):
        values = np.random.default_rng(2).normal(size=256)
        values[::7] = 0.0
        dims = record_eigvalsh_dims(monkeypatch)
        assert linalg.eigenvalue_range(np.diag(values)) == (values.min(), values.max())
        assert dims == []

    @pytest.mark.parametrize("zero_in_first_column", [False, True])
    def test_dense_operator_makes_one_whole_call(self, monkeypatch, zero_in_first_column):
        h = random_hermitian(128, np.random.default_rng(3))
        if zero_in_first_column:
            h[5, 0] = h[0, 5] = 0.0
        want = whole_extremes(h)
        dims = record_eigvalsh_dims(monkeypatch)
        assert linalg.eigenvalue_range(h) == want and dims == [128]

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_tridiagonal_settles_or_falls_back(self, shuffled):
        """A path is the longest chain the search can meet: it settles as
        one block or gives up after its passes, and the extremes hold."""
        rng = np.random.default_rng(4)
        h = np.diag(rng.normal(size=512)).astype(complex)
        off = rng.normal(size=511) + 1j * rng.normal(size=511)
        h += np.diag(off, -1) + np.diag(off.conj(), 1)
        if shuffled:
            perm = rng.permutation(512)
            h = h[np.ix_(perm, perm)]
        assert linalg._coupled_blocks(h) is None
        got, want = linalg.eigenvalue_range(h), whole_extremes(h)
        assert np.abs(np.subtract(got, want)).max() <= 64 * EPS * linalg.frobenius(h)

    def test_defect_reads_the_pattern_of_the_hermitian_part(self, monkeypatch):
        """Entries ``±δ`` that cancel in ``(M + M†)/2`` couple nothing."""
        values = np.random.default_rng(5).normal(size=128)
        m = np.diag(values).astype(complex)
        m[3, 90], m[90, 3] = 1e-13, -1e-13
        assert linalg.hermiticity_defect(m) > 0
        dims = record_eigvalsh_dims(monkeypatch)
        assert linalg.eigenvalue_range(m) == (values.min(), values.max()) and dims == []

    def test_an_imaginary_entry_couples(self):
        """``i|3><90| - i|90><3|`` joins rows 3 and 90 into one 2 x 2 block,
        whose eigenvalues are ``±1`` beyond the diagonal's ``[-0.5, 0.5]``."""
        values = np.random.default_rng(7).uniform(-0.5, 0.5, size=128)
        values[3] = values[90] = 0.0
        h = np.diag(values).astype(complex)
        h[3, 90], h[90, 3] = 1j, -1j
        assert [b.shape for b in linalg._coupled_blocks(h)] == [(126, 1), (1, 2)]
        assert linalg.eigenvalue_range(h) == pytest.approx((-1.0, 1.0), abs=64 * EPS)

    def test_unsettled_passes_fall_back_to_one_call(self, monkeypatch):
        """A path of ``2**7 + 1`` rows, ordered so that each pass leaves
        every other root of the path standing, needs 8 hooking passes and a
        ninth to settle. With a row of its own beside it (dim 130) the
        search has ``(130).bit_length()``, 8 passes, so it gives up (None)
        although the pattern has two blocks, and the whole operator goes
        through one ``eigvalsh``."""
        # The more 2-adic a position of the path, the smaller its row.
        positions = range(2**7 + 1)
        order = sorted(positions, key=lambda p: (-(p & -p if p else 2**8), p))
        rows = [order.index(p) for p in positions]
        rng = np.random.default_rng(8)
        h = np.diag(rng.normal(size=130)).astype(complex)  # row 129 stands alone
        for a, b in zip(rows, rows[1:]):
            h[a, b] = complex(*rng.normal(size=2))
            h[b, a] = h[a, b].conjugate()
        assert linalg._coupled_blocks(h) is None
        want = whole_extremes(h)
        dims = record_eigvalsh_dims(monkeypatch)
        assert linalg.eigenvalue_range(h) == want and dims == [130]

    def test_rows_of_zeros_are_blocks_of_their_own(self):
        h, _ = hidden_blocks(128, np.random.default_rng(6), sizes=[2])
        h[:, 7] = h[7, :] = 0.0
        sizes = [b.shape for b in linalg._coupled_blocks(h)]
        assert sizes == [(2, 1), (63, 2)]
        got, want = linalg.eigenvalue_range(h), whole_extremes(h)
        assert np.abs(np.subtract(got, want)).max() <= 64 * EPS * linalg.frobenius(h)


def test_hermiticity_defect():
    assert linalg.hermiticity_defect(np.eye(3)) == 0.0
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert linalg.hermiticity_defect(m) == pytest.approx(1.0)
    assert linalg.hermitian_tolerance(np.zeros((2, 2))) == pytest.approx(1e-12)


@pytest.mark.parametrize("dim", [16, 1296])
def test_hermiticity_defect_in_blocks_matches_one_shot(dim):
    """The blocked comparison gives the one-shot value bit for bit, so
    ``require_hermitian`` raises with the same text."""
    rng = np.random.default_rng(dim)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    corner = np.eye(dim, dtype=complex)
    corner[-1, -2] = 1j  # the only deviation, in the last row block
    for m in (g, corner, (g + g.conj().T) / 2 + 1e-9 * g):
        one_shot = float(np.abs(m - m.conj().T).max())
        assert linalg.hermiticity_defect(m) == one_shot
    with pytest.raises(ValueError) as err:
        linalg.require_hermitian(m)
    assert str(err.value) == (f"matrix is not Hermitian: max |M - M^dagger| = "
                              f"{one_shot:.3e} > {linalg.hermitian_tolerance(m):.3e}")


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


PATTERN_CASES = ([gallery_entry(name).process for name in gallery_names()]
                 + list(cyclic_triple()))


class TestPatternWeights:
    """The basis-free split of ``linalg._pattern_weights`` against the
    Gell-Mann coefficients of ``hsbasis``."""

    @pytest.mark.parametrize("p", PATTERN_CASES, ids=lambda p: str(p.layout.subsystem_dims()))
    def test_split_matches_gell_mann_sums(self, p):
        got = linalg._pattern_weights(p.op, p.layout.subsystem_dims())
        want = gell_mann_weights(p)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * want.sum()

    def test_parts_sum_to_the_squared_norm(self):
        """On a random operator of subsystem dims (3, 1, 2, 2): every part is
        nonzero except those traceless on the dimension-1 subsystem, which
        has no axis for them."""
        layout = PartyLayout.of(("A", 3, 1), ("B", 2, 2))
        p = ProcessMatrix(layout, random_hermitian(12, np.random.default_rng(2)))
        got = linalg._pattern_weights(p.op, layout.subsystem_dims())
        assert got.shape == (2, 1, 2, 2) and (got > 0).all()
        assert got.sum() == pytest.approx(np.linalg.norm(p.op) ** 2, rel=1e-14)
        assert np.abs(got - gell_mann_weights(p)).max() <= 1e-15 * got.sum()

    def test_input_is_not_changed(self):
        p = gallery_entry("twoway-d3").process
        op = p.op.copy()
        linalg._pattern_weights(p.op, p.layout.subsystem_dims())
        assert np.array_equal(p.op, op)
