"""Tests for party layouts, term classification and process validity."""

import itertools

import numpy as np
import pytest

from procval import (
    PartyLayout,
    PartyReduction,
    PartyTag,
    ProcessMatrix,
    Tolerances,
    check_sequence,
    classify_term,
    find_blocking_pairs,
    gallery_entry,
    hsbasis,
    is_valid_process,
    linalg,
    maximally_mixed,
    oneway_channel_process,
    reduced_process,
    signalling_directions,
    state_process,
    tensor_product,
    two_party_product_invalid,
    twoway_channel_process,
)
from procval.hsbasis import HSTerm

from helpers import (
    BASE_NAMES,
    QUBIT_BIPARTITE,
    bipartite_qubit_suite,
    loop_forbidden_terms,
    suite_pairs,
)


class TestLayout:
    def test_dimensions(self):
        layout = PartyLayout.of(("A", 2, 3), ("B", 4, 5))
        assert layout.subsystem_dims() == (2, 3, 4, 5)
        assert layout.dim == 120
        assert layout.d_out == 15
        assert layout.d_in == 8
        assert layout.party_index("B") == 1

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            PartyLayout.of(("A", 2, 2), ("A", 2, 2))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            PartyLayout.of(("A", 0, 2))

    def test_unknown_party(self):
        with pytest.raises(KeyError):
            QUBIT_BIPARTITE.party_index("Q")

    def test_operator_shape_checked(self):
        with pytest.raises(ValueError):
            ProcessMatrix(layout=QUBIT_BIPARTITE, op=np.eye(8))


class TestClassifyTerm:
    def test_all_zero_is_trivial(self):
        sig = classify_term(HSTerm((0, 0, 0, 0), 1.0), QUBIT_BIPARTITE)
        assert sig.tags == (PartyTag.TRIVIAL, PartyTag.TRIVIAL)
        assert sig.is_trivial() and sig.is_allowed()
        assert sig.type_string(QUBIT_BIPARTITE) == "trivial"

    def test_cross_channel_term(self):
        # Z on X's output and Z on Y's input: X signals to Y
        sig = classify_term(HSTerm((0, 3, 3, 0), 1.0), QUBIT_BIPARTITE)
        assert sig.tags == (PartyTag.OUT, PartyTag.IN)
        assert sig.type_string(QUBIT_BIPARTITE) == "x2 y1"

    def test_merged_party_term(self):
        # on merged 4-level parties, a term touching input and output of both
        merged = PartyLayout.of(("X", 4, 4), ("Y", 4, 4))
        sig = classify_term(HSTerm((13, 13, 13, 13), 1.0), merged)
        assert sig.tags == (PartyTag.INOUT, PartyTag.INOUT)
        assert not sig.is_allowed()
        assert sig.type_string(merged) == "x1x2 y1y2"

    def test_exhaustive_truth_table(self):
        # all 16 patterns over {identity, Z} on two qubit parties
        def expected_tag(i, o):
            if i and o:
                return PartyTag.INOUT
            if i:
                return PartyTag.IN
            if o:
                return PartyTag.OUT
            return PartyTag.TRIVIAL

        for pattern in itertools.product([0, 3], repeat=4):
            sig = classify_term(HSTerm(pattern, 1.0), QUBIT_BIPARTITE)
            assert sig.tags == (
                expected_tag(pattern[0], pattern[1]),
                expected_tag(pattern[2], pattern[3]),
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            classify_term(HSTerm((0, 0), 1.0), QUBIT_BIPARTITE)

    def test_codes(self):
        sig = classify_term(HSTerm((3, 3, 0, 3), 1.0), QUBIT_BIPARTITE)
        assert sig.codes == ("12", "2")


class TestIsValidProcess:
    def test_maximally_mixed_single_party(self):
        layout = PartyLayout.of(("A", 2, 2))
        w = ProcessMatrix(layout, linalg.tensor(maximally_mixed(2), np.eye(2)))
        report = is_valid_process(w)
        assert report.verdict
        assert report.forbidden_terms == ()

    def test_twoway_mixture_is_valid(self):
        report = is_valid_process(twoway_channel_process(2))
        assert report.verdict
        assert report.psd_defect <= 1e-12
        assert report.trace_defect == 0.0

    def test_squared_twoway_is_rejected(self):
        w = twoway_channel_process(2)
        report = is_valid_process(tensor_product(w, w))
        assert not report.verdict
        assert report.forbidden_terms
        assert all(sig.codes == ("12", "12") for _, sig in report.forbidden_terms)

    def test_psd_failure_reported(self):
        layout = PartyLayout.of(("A", 2, 2))
        op = linalg.tensor(np.diag([1.5, -0.5]), np.eye(2))
        report = is_valid_process(ProcessMatrix(layout, op))
        assert not report.verdict
        assert report.psd_defect == pytest.approx(0.5)

    def test_trace_failure_reported(self):
        layout = PartyLayout.of(("A", 2, 2))
        report = is_valid_process(ProcessMatrix(layout, np.eye(4)))
        assert not report.verdict
        assert report.trace_defect == pytest.approx(2.0)

    def test_verdict_matches_defects(self):
        w = twoway_channel_process(2)
        report = is_valid_process(w, Tolerances(psd=1e-9, trace=1e-9))
        assert report.verdict == (
            report.psd_defect <= 1e-9
            and report.trace_defect <= 1e-9
            and not report.forbidden_terms
        )

    def test_rejects_non_hermitian(self):
        layout = PartyLayout.of(("A", 2, 2))
        op = np.zeros((4, 4), dtype=complex)
        op[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            is_valid_process(ProcessMatrix(layout, op))

    def test_transpose_of_valid_is_valid(self):
        for name in ("twoway-d2", "oneway-xy-d2", "state-bell-d2"):
            w = gallery_entry(name).process
            wt = ProcessMatrix(w.layout, w.op.T.copy())
            assert is_valid_process(wt).verdict

    def test_basis_convention_independence(self):
        # swapping the two qubit factors inside each 4-level input/output
        # leaves the verdict unchanged
        w = twoway_channel_process(4)
        refined = (2, 2) * 4
        perm = [1, 0, 3, 2, 5, 4, 7, 6]
        swapped = ProcessMatrix(w.layout,
                                linalg.permute_subsystems(w.op, refined, perm))
        assert is_valid_process(swapped).verdict == is_valid_process(w).verdict
        p = tensor_product(twoway_channel_process(2), twoway_channel_process(2))
        swapped_p = ProcessMatrix(p.layout,
                                  linalg.permute_subsystems(p.op, refined, perm))
        assert is_valid_process(swapped_p).verdict == is_valid_process(p).verdict is False


class TestForbiddenTerms:
    """``is_valid_process`` lists the same forbidden terms, with the same
    coefficients, signatures and order, as the term-by-term reference."""

    def test_gallery_pair_products(self):
        for a, b in itertools.product(BASE_NAMES, repeat=2):
            p = tensor_product(gallery_entry(a).process, gallery_entry(b).process)
            assert is_valid_process(p).forbidden_terms == loop_forbidden_terms(p), (a, b)

    def test_random_suite_and_its_products(self):
        suite = bipartite_qubit_suite()
        products = [tensor_product(w, z) for w, z in suite_pairs(suite, n=40)]
        assert any(loop_forbidden_terms(p) for p in products)
        for w in suite + products:
            assert is_valid_process(w).forbidden_terms == loop_forbidden_terms(w)


class TestToleranceEdge:
    """``is_valid_process``, ``find_blocking_pairs`` and ``check_sequence``
    flip together at 0.5x and 2x of each default threshold of
    ``FactorRecord.check``: PSD, trace and term.

    A forbidden output-only term ``eps * s_K`` on a maximally mixed process
    flips every validity verdict at the documented term threshold
    ``1e-9 * max(1, max |coeff|)``, here 1e-9: on the gallery's one-party
    ``state-maxmix-d2`` (identity coefficient 0.5, ``K = (0, 3)``) and on the
    two-party maximally mixed qubit process (identity coefficient 0.25,
    ``K = (0, 3, 0, 3)``, output on both parties)."""

    THRESHOLD = 1e-9

    @staticmethod
    def maxmix(n_parties):
        if n_parties == 1:
            return gallery_entry("state-maxmix-d2").process
        rho = linalg.tensor(maximally_mixed(2), maximally_mixed(2))
        return state_process(rho, QUBIT_BIPARTITE)

    @pytest.mark.parametrize("n_parties, identity", [(1, 0.5), (2, 0.25)])
    @pytest.mark.parametrize("factor, valid", [(0.5, True), (2.0, False)])
    def test_verdicts_flip_at_term_threshold(self, n_parties, identity, factor, valid):
        maxmix = self.maxmix(n_parties)
        dims = maxmix.layout.subsystem_dims()
        assert hsbasis.coefficient_tensor(maxmix.op, dims).max() == identity
        eps = factor * self.THRESHOLD
        kick_at = (0, 3) * n_parties
        kick = hsbasis.reconstruct([HSTerm(kick_at, eps)], dims)
        w = ProcessMatrix(maxmix.layout, maxmix.op + kick)
        report = is_valid_process(w)
        assert report.verdict is valid
        if not valid:
            ((term, sig),) = report.forbidden_terms
            assert term.indices == kick_at
            assert term.coeff == pytest.approx(eps, rel=1e-6)
            assert sig.codes == ("2",) * n_parties
        assert find_blocking_pairs(w, maxmix).w_valid is valid
        assert check_sequence([w, maxmix]).steps[0].w_valid is valid

    @pytest.mark.parametrize("factor, valid", [(0.5, True), (2.0, False)])
    def test_verdicts_flip_at_psd_threshold(self, factor, valid):
        """The input state ``diag(1 + d, 0, 0, -d)`` gives a process with the
        single negative eigenvalue ``-d``, unit trace per output and only
        input terms, so only the PSD limit ``1e-9 * ||W||_F`` decides."""
        d = factor * 1e-9 * 2.0  # ||W||_F = 2 * ||rho||_F, and ||rho||_F = 1 + O(d)
        rho = np.diag([1.0 + d, 0.0, 0.0, -d])
        w = state_process(rho, QUBIT_BIPARTITE, tol=1e-6)
        report = is_valid_process(w)
        assert report.psd_defect == pytest.approx(factor * 1e-9 * np.linalg.norm(w.op), rel=1e-6)
        assert report.trace_defect <= 1e-15
        assert not report.forbidden_terms
        assert report.verdict is valid
        maxmix = self.maxmix(2)
        assert find_blocking_pairs(w, maxmix).w_valid is valid
        assert check_sequence([w, maxmix]).steps[0].w_valid is valid

    @pytest.mark.parametrize("n_parties", [1, 2])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("factor, valid", [(0.5, True), (2.0, False)])
    def test_verdicts_flip_at_trace_threshold(self, n_parties, sign, factor, valid):
        """Adding ``t * I`` to a maximally mixed process moves only its trace,
        by ``t * dim``; the trace limit is ``1e-9 * d_out``."""
        maxmix = self.maxmix(n_parties)
        layout = maxmix.layout
        t = sign * factor * 1e-9 * layout.d_out / layout.dim
        w = ProcessMatrix(layout, maxmix.op + t * np.eye(layout.dim))
        report = is_valid_process(w)
        assert report.trace_defect == pytest.approx(factor * 1e-9 * layout.d_out, rel=1e-6)
        assert report.psd_defect < 0
        assert not report.forbidden_terms
        assert report.verdict is valid
        assert find_blocking_pairs(w, maxmix).w_valid is valid
        assert check_sequence([w, maxmix]).steps[0].w_valid is valid


class TestOverflow:
    """``I/2 + 1e160 (X on the input)`` on ``A(2->2)``: Hermitian, trace 2
    and only an allowed term, but with eigenvalue ``-1e160``. Its norm and
    the PSD threshold must not overflow to infinity and pass it."""

    LAYOUT = PartyLayout.of(("A", 2, 2))

    def huge(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        return ProcessMatrix(self.LAYOUT, np.eye(4) / 2 + 1e160 * np.kron(x, np.eye(2)))

    def test_is_invalid(self):
        report = is_valid_process(self.huge())
        assert report.verdict is False
        assert report.psd_defect == pytest.approx(1e160)
        assert report.trace_defect == 0.0
        assert not report.forbidden_terms

    def test_fold_of_overflowing_records_is_invalid(self):
        good = ProcessMatrix(self.LAYOUT, np.eye(4) / 2)
        assert is_valid_process(good).verdict
        # The merged record's coefficients, extremes and norm overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            report = check_sequence([self.huge(), self.huge(), good])
        assert report.steps[0].w_valid is False
        assert report.steps[1].w_valid is False
        assert report.steps[1].z_valid is True


class TestSignalling:
    def test_product_state_signals_nowhere(self):
        rho = linalg.tensor(maximally_mixed(2), maximally_mixed(2))
        w = state_process(rho, QUBIT_BIPARTITE)
        assert not signalling_directions(w, "X", "Y")
        assert not signalling_directions(w, "Y", "X")

    def test_twoway_signals_both_ways(self):
        w = twoway_channel_process(2)
        assert signalling_directions(w, "X", "Y")
        assert signalling_directions(w, "Y", "X")

    def test_oneway_signals_one_way(self):
        w = oneway_channel_process(2, "xy")
        assert signalling_directions(w, "X", "Y")
        assert not signalling_directions(w, "Y", "X")

    def test_unknown_party(self):
        with pytest.raises(KeyError):
            signalling_directions(twoway_channel_process(2), "X", "Q")

    def test_same_party_rejected(self):
        with pytest.raises(ValueError):
            signalling_directions(twoway_channel_process(2), "X", "X")

    def test_no_spectrum_is_computed(self, monkeypatch):
        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("signalling questions need no spectrum")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        w = twoway_channel_process(2)
        assert signalling_directions(w, "X", "Y")
        assert two_party_product_invalid(w, w)


class TestDegenerateParties:
    def test_preparation_only_party(self):
        # d_in = 1: the party can never host a pure-input term, so only the
        # identity operator (trace = d_out) is a valid process
        layout = PartyLayout.of(("P", 1, 2))
        assert is_valid_process(ProcessMatrix(layout, np.eye(2))).verdict
        skewed = ProcessMatrix(layout, np.diag([1.5, 0.5]).astype(complex))
        report = is_valid_process(skewed)
        assert not report.verdict
        assert report.forbidden_terms

    def test_measurement_only_party(self):
        layout = PartyLayout.of(("M", 2, 1))
        w = ProcessMatrix(layout, np.diag([0.25, 0.75]).astype(complex))
        assert is_valid_process(w).verdict

    def test_prep_to_measure_channel(self):
        layout = PartyLayout.of(("P", 1, 2), ("M", 2, 1))
        phi = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                phi[i * 2 + i, j * 2 + j] = 1.0
        w = ProcessMatrix(layout, phi)
        assert is_valid_process(w).verdict
        assert signalling_directions(w, "P", "M")
        assert not signalling_directions(w, "M", "P")


class TestReducedProcess:
    def test_keep_everything_is_identity(self):
        w = twoway_channel_process(2)
        out = reduced_process(w, {})
        assert out.layout == w.layout
        assert np.array_equal(out.op, w.op)

    def test_merged_form_reduces_to_qubit_form(self):
        w4 = twoway_channel_process(4)
        w2 = twoway_channel_process(2)
        split = PartyReduction((2, 2), (2, 2), (0,))
        primed = reduced_process(w4, {"X": split, "Y": split})
        assert primed.layout == w2.layout
        assert np.linalg.norm(primed.op - w2.op) < 1e-10
        split2 = PartyReduction((2, 2), (2, 2), (1,))
        doubled = reduced_process(w4, {"X": split2, "Y": split2})
        assert np.linalg.norm(doubled.op - w2.op) < 1e-10

    def test_product_reduces_to_first_factor(self):
        w = oneway_channel_process(2, "xy")
        z = gallery_entry("state-bell-d2").process
        p = tensor_product(w, z)
        split = PartyReduction((2, 2), (2, 2), (0,))
        back = reduced_process(p, {"X": split, "Y": split})
        assert np.linalg.norm(back.op - w.op) < 1e-12
        other = reduced_process(p, {"X": PartyReduction((2, 2), (2, 2), (1,)),
                                    "Y": PartyReduction((2, 2), (2, 2), (1,))})
        assert np.linalg.norm(other.op - z.op) < 1e-12

    def test_trace_stays_normalized(self):
        w4 = twoway_channel_process(4)
        split = PartyReduction((2, 2), (2, 2), (0,))
        out = reduced_process(w4, {"X": split, "Y": split})
        assert out.op.trace().real == pytest.approx(out.d_out)

    def test_rejects_misaligned_factors(self):
        with pytest.raises(ValueError, match="align"):
            PartyReduction((2, 2), (4,), (0,))

    def test_rejects_wrong_products(self):
        w4 = twoway_channel_process(4)
        bad = PartyReduction((2, 3), (2, 2), (0,))
        with pytest.raises(ValueError, match="multiply"):
            reduced_process(w4, {"X": bad})

    def test_rejects_empty_keep(self):
        with pytest.raises(ValueError):
            PartyReduction((2, 2), (2, 2), ())

    def test_rejects_unknown_party(self):
        with pytest.raises(KeyError):
            reduced_process(twoway_channel_process(2),
                            {"Q": PartyReduction((2,), (2,), (0,))})
