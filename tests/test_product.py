"""Tests for party merging, tensor products and the blocking-pair decision."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procval import (
    PartyLayout,
    PartyPairing,
    PartyReduction,
    ProcessMatrix,
    check_sequence,
    find_blocking_pairs,
    gallery_entry,
    hsbasis,
    is_valid_process,
    linalg,
    maximally_mixed,
    min_eigenvalue,
    oneway_channel_process,
    random_valid_process,
    reduced_process,
    state_process,
    tensor_product,
    two_party_product_invalid,
    twoway_channel_process,
)
from procval.hsbasis import HSTerm
from procval.process import FactorRecord
from procval.product import _merge_records

from helpers import (
    BASE_NAMES,
    bipartite_qubit_suite,
    dense_product,
    loop_blocking_pairs,
    random_hermitian,
    record_eigvalsh_dims,
    suite_pairs,
)


def one_party_state(diag):
    layout = PartyLayout.of(("A", 2, 2))
    return state_process(np.diag(diag).astype(complex), layout)


class TestPairing:
    def test_positional_names(self):
        w = twoway_channel_process(2)
        pairing = PartyPairing.positional(w.layout, w.layout)
        assert pairing.pairs == (("X", "X", "X"), ("Y", "Y", "Y"))

    def test_positional_distinct_names(self):
        a = one_party_state([0.5, 0.5])
        layout_b = PartyLayout.of(("B", 2, 2))
        b = state_process(maximally_mixed(2), layout_b)
        pairing = PartyPairing.positional(a.layout, layout_b)
        assert pairing.pairs == (("A", "B", "AB"),)

    def test_party_count_mismatch(self):
        w = twoway_channel_process(2)
        s = one_party_state([1.0, 0.0])
        with pytest.raises(ValueError):
            tensor_product(w, s)

    def test_explicit_pairing_checked(self):
        w = twoway_channel_process(2)
        bad = PartyPairing((("X", "Q", "A"), ("Y", "Y", "B")))
        with pytest.raises(KeyError):
            tensor_product(w, w, pairing=bad)

    def test_duplicate_merged_names_rejected(self):
        with pytest.raises(ValueError):
            PartyPairing((("X", "X", "A"), ("Y", "Y", "A")))


class TestTensorProduct:
    def test_state_processes_compose_freely(self):
        a = one_party_state([0.25, 0.75])
        b = one_party_state([0.5, 0.5])
        p = tensor_product(a, b)
        assert p.layout.parties[0].d_in == 4
        assert is_valid_process(p).verdict
        joint = state_process(
            linalg.tensor(np.diag([0.25, 0.75]), maximally_mixed(2)),
            PartyLayout.of(("AA", 4, 4)),
        )
        assert np.abs(p.op - joint.op).max() < 1e-14

    def test_squared_twoway_operator(self):
        w = twoway_channel_process(2)
        p = tensor_product(w, w)
        assert p.dim == 256
        assert p.op.trace().real == pytest.approx(16.0)
        assert min_eigenvalue(p.op) >= -1e-12
        assert not is_valid_process(p).verdict

    def test_oneway_same_direction_composes(self):
        w = oneway_channel_process(2, "xy")
        p = tensor_product(w, w)
        assert is_valid_process(p).verdict

    def test_trace_multiplies(self):
        w = twoway_channel_process(2)
        z = gallery_entry("state-bell-d2").process
        p = tensor_product(w, z)
        expected = w.op.trace().real * z.op.trace().real
        assert abs(p.op.trace().real - expected) <= 1e-12 * abs(expected)
        assert p.op.trace().real == pytest.approx(p.d_out)


class TestFindBlockingPairs:
    def test_states_never_block(self):
        a = gallery_entry("state-bell-d2").process
        b = gallery_entry("state-product-d2").process
        report = find_blocking_pairs(a, b)
        assert report.verdict
        assert report.blocking_pairs == ()
        assert report.w_valid and report.z_valid

    def test_squared_twoway_blocks_both_ways(self):
        w = twoway_channel_process(2)
        report = find_blocking_pairs(w, w)
        assert not report.verdict
        pairs = [(tw.indices, tz.indices) for tw, tz in report.blocking_pairs]
        assert pairs == [((0, 3, 3, 0), (3, 0, 0, 3)), ((3, 0, 0, 3), (0, 3, 3, 0))]
        for cases in report.per_party_cases:
            assert cases == (("1", "2"), ("1", "2"))

    def test_oneway_same_direction_passes(self):
        w = oneway_channel_process(2, "xy")
        report = find_blocking_pairs(w, w)
        assert report.verdict

    def test_oneway_opposite_directions_block(self):
        report = find_blocking_pairs(oneway_channel_process(2, "xy"),
                                     oneway_channel_process(2, "yx"))
        assert not report.verdict

    def test_symmetry_under_argument_swap(self):
        w = twoway_channel_process(2)
        z = gallery_entry("oneway-xy-d2").process
        fwd = find_blocking_pairs(w, z)
        rev = find_blocking_pairs(z, w)
        assert fwd.verdict == rev.verdict
        fwd_pairs = sorted((a.indices, b.indices) for a, b in fwd.blocking_pairs)
        rev_pairs = sorted((b.indices, a.indices) for a, b in rev.blocking_pairs)
        assert fwd_pairs == rev_pairs

    def test_invalid_input_flagged(self):
        layout = PartyLayout.of(("X", 2, 2), ("Y", 2, 2))
        bad = ProcessMatrix(layout, np.eye(16))  # trace 16, required 4
        report = find_blocking_pairs(bad, twoway_channel_process(2))
        assert not report.w_valid
        assert report.z_valid

    def test_matches_direct_validation_on_random_suite(self):
        suite = bipartite_qubit_suite(seed=99, n_mixtures=4, n_random=4)
        for w, z in suite_pairs(suite, seed=3, n=40):
            report = find_blocking_pairs(w, z)
            direct = is_valid_process(dense_product(w, z))
            assert report.verdict == direct.verdict

    def test_matches_term_loop_on_random_suite(self):
        suite = bipartite_qubit_suite(seed=5, n_mixtures=6, n_random=6)
        swapped = PartyPairing((("Y", "X", "B"), ("X", "Y", "A")))
        for w, z in suite_pairs(suite, seed=11, n=60):
            for pairing in (None, swapped):
                report = find_blocking_pairs(w, z, pairing=pairing)
                got = [((tw.indices, tz.indices), cases) for (tw, tz), cases
                       in zip(report.blocking_pairs, report.per_party_cases)]
                assert got == loop_blocking_pairs(w, z, pairing=pairing)
                assert report.verdict == (not got)
            assert report.w_valid == is_valid_process(w).verdict
            assert report.z_valid == is_valid_process(z).verdict

    def test_explicit_tol_matches_term_loop(self):
        w = gallery_entry("oneway-xy-d2").process
        z = random_valid_process(w.layout, seed=4, n_terms=20)
        for tol in (0.0, 0.05, 0.2):
            report = find_blocking_pairs(w, z, tol=tol)
            got = [((tw.indices, tz.indices), cases) for (tw, tz), cases
                   in zip(report.blocking_pairs, report.per_party_cases)]
            assert got == loop_blocking_pairs(w, z, tol=tol)

    @pytest.mark.parametrize("pattern", [(3, 0, 0, 0), (0, 0, 0, 0), (0, 3, 0, 3)],
                             ids=["psd", "trace", "term"])
    def test_input_validity_matches_is_valid_process(self, pattern):
        w = twoway_channel_process(2)
        bump = hsbasis.reconstruct([HSTerm(pattern, 0.5)], w.layout.subsystem_dims())
        bad = ProcessMatrix(w.layout, w.op + bump)
        assert not is_valid_process(bad).verdict
        report = find_blocking_pairs(bad, w)
        assert (report.w_valid, report.z_valid) == (False, True)

    def test_pair_tangled_on_a_third_party_blocks(self):
        # a pair can merge into a forbidden term even where both members act
        # on input AND output of the same party; three parties are needed to
        # exhibit it between individually valid processes
        import functools
        from procval.hsbasis import HSTerm, reconstruct

        layout = PartyLayout.of(("A", 2, 2), ("B", 2, 2), ("C", 2, 2))
        dims = layout.subsystem_dims()
        base = layout.d_out / layout.dim

        def valid_with_term(pattern):
            bump = reconstruct([HSTerm(pattern, 0.5 * base)], dims)
            op = base * np.eye(layout.dim) + bump
            p = ProcessMatrix(layout, op)
            assert is_valid_process(p).verdict
            return p

        t_w = (3, 3, 3, 0, 3, 3)  # A: both ends, B: pure input, C: both ends
        t_z = (3, 0, 0, 3, 3, 3)  # A: pure input, B: output, C: both ends
        w = valid_with_term(t_w)
        z = valid_with_term(t_z)

        report = find_blocking_pairs(w, z)
        assert not report.verdict
        assert report.per_party_cases == (
            (("1", "12"), ("1", "2"), ("12", "12")),
        )

        # dense evidence: the merged refined pattern carries the product of
        # the two coefficients (diagonal basis factors, so a diagonal trace)
        prod = tensor_product(w, z)
        merged = (3, 3, 3, 0, 3, 0, 0, 3, 3, 3, 3, 3)
        vec = {0: np.ones(2), 3: np.array([1.0, -1.0])}
        diag = functools.reduce(np.kron, [vec[i] for i in merged])
        coeff = float(np.real(np.diag(prod.op) @ diag)) / prod.dim
        assert coeff == pytest.approx((0.5 * base) ** 2, abs=1e-12)


class TestTwoPartyCheck:
    def test_same_direction_pair_is_fine(self):
        w = oneway_channel_process(2, "xy")
        assert two_party_product_invalid(w, w) is False

    def test_twoway_pair_is_invalid(self):
        w = twoway_channel_process(2)
        assert two_party_product_invalid(w, w) is True

    def test_non_signalling_factor_cannot_close_a_loop(self):
        w = gallery_entry("state-bell-d2").process
        z = twoway_channel_process(2)
        assert two_party_product_invalid(w, z) is False

    def test_requires_two_parties(self):
        s = one_party_state([1.0, 0.0])
        with pytest.raises(ValueError):
            two_party_product_invalid(s, s)

    def test_agrees_with_blocking_pairs(self):
        names = ["twoway-d2", "oneway-xy-d2", "oneway-yx-d2",
                 "state-bell-d2", "state-product-d2"]
        procs = [gallery_entry(n).process for n in names]
        for w, z in itertools.product(procs, repeat=2):
            assert two_party_product_invalid(w, z) == (
                not find_blocking_pairs(w, z).verdict
            )


class TestCheckSequence:
    def test_three_states_valid_in_every_order(self):
        states = [one_party_state([1.0, 0.0]),
                  one_party_state([0.5, 0.5]),
                  one_party_state([0.25, 0.75])]
        for order in itertools.permutations(states):
            report = check_sequence(list(order))
            assert report.verdict
            assert report.first_invalid_step is None

    def test_two_twoways_poison_every_order(self):
        procs = [twoway_channel_process(2), twoway_channel_process(2),
                 gallery_entry("state-bell-d2").process]
        seen_steps = set()
        for order in itertools.permutations(procs):
            report = check_sequence(list(order))
            assert not report.verdict
            seen_steps.add(report.first_invalid_step)
        # the two-way factors meet at step 0 or step 1 depending on the order
        assert seen_steps == {0, 1}

    def test_opposite_oneways_invalid_both_orders(self):
        xy = oneway_channel_process(2, "xy")
        yx = oneway_channel_process(2, "yx")
        assert not check_sequence([xy, yx]).verdict
        assert not check_sequence([yx, xy]).verdict

    def test_three_same_direction_oneways_valid(self):
        xy = oneway_channel_process(2, "xy")
        for order in itertools.permutations([xy, xy, xy]):
            assert check_sequence(list(order)).verdict

    def test_four_factor_order_independence(self):
        # prep/measure parties keep the folded dimension tiny (4 -> 16 -> 64)
        layout = PartyLayout.of(("P", 1, 2), ("M", 2, 1))
        ident = np.zeros((4, 4), dtype=complex)
        flipped = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                ident[i * 2 + i, j * 2 + j] = 1.0
                flipped[i * 2 + (1 - i), j * 2 + (1 - j)] = 1.0
        procs = [
            ProcessMatrix(layout, ident),
            ProcessMatrix(layout, flipped),
            state_process(np.diag([0.5, 0.5]).astype(complex), layout),
            state_process(np.diag([0.9, 0.1]).astype(complex), layout),
        ]
        assert all(is_valid_process(p).verdict for p in procs)
        for order in itertools.permutations(procs):
            assert check_sequence(list(order)).verdict

    def test_needs_two_processes(self):
        with pytest.raises(ValueError):
            check_sequence([twoway_channel_process(2)])

    def test_pairings_arity_checked(self):
        w = twoway_channel_process(2)
        with pytest.raises(ValueError, match="pairings"):
            check_sequence([w, w], pairings=[None, None])

    def test_factor_cap(self):
        s = one_party_state([0.5, 0.5])
        with pytest.raises(ValueError, match="factors"):
            check_sequence([s] * 9)

    def test_merged_record_size_cap(self):
        """The refusal is computed from the factors' dims before any merge:
        the record merged before the last step of five dim-16 factors would
        hold 2**32 coefficients. Four factors (2**24) are admitted."""
        w = twoway_channel_process(2)
        with pytest.raises(ValueError, match=r"factors of dims \[16, 16, 16, 16, 16\]"):
            check_sequence([w] * 5)
        assert check_sequence([w] * 4).first_invalid_step == 0


def assert_fold_matches_dense(ps, pairings=None, built=None):
    """Each step of ``check_sequence`` equals the blocking-pair search on the
    dense accumulated product, built with ``dense_product``, and its
    ``w_valid`` equals ``is_valid_process`` of that operator. ``built`` maps
    the factors of a prefix (by identity) to its dense product and verdict,
    so positional folds that share prefixes build each product once."""
    built = {} if built is None else built
    report = check_sequence(ps, pairings=pairings)
    assert len(report.steps) == len(ps) - 1
    acc, acc_valid = ps[0], is_valid_process(ps[0]).verdict
    first_bad = None
    for k, (step, nxt) in enumerate(zip(report.steps, ps[1:])):
        pairing = pairings[k] if pairings is not None else None
        dense = find_blocking_pairs(acc, nxt, pairing=pairing)
        assert step.verdict == dense.verdict
        assert ([(a.indices, b.indices) for a, b in step.blocking_pairs]
                == [(a.indices, b.indices) for a, b in dense.blocking_pairs])
        for got, want in zip(step.blocking_pairs, dense.blocking_pairs):
            for a, b in zip(got, want):
                assert abs(a.coeff - b.coeff) <= 1e-12
        assert step.per_party_cases == dense.per_party_cases
        assert step.layout == dense.layout
        assert step.w_valid == dense.w_valid == acc_valid
        assert step.z_valid == dense.z_valid
        if not dense.verdict and first_bad is None:
            first_bad = k
        if k + 2 < len(ps):
            key = tuple(id(p) for p in ps[:k + 2])
            if key not in built:
                prod = dense_product(acc, nxt, pairing=pairing)
                built[key] = (prod, is_valid_process(prod).verdict)
            acc, acc_valid = built[key]
    assert report.first_invalid_step == first_bad
    assert report.verdict == (first_bad is None)


class TestSequenceMatchesDenseProducts:
    def test_every_ordered_qubit_triple(self):
        procs = [gallery_entry(n).process for n in BASE_NAMES]
        built = {}
        for triple in itertools.product(procs, repeat=3):
            assert_fold_matches_dense(list(triple), built=built)

    def test_qutrit_fold(self):
        names = ("state-bell-d2", "twoway-d3", "oneway-yx-d2")
        assert_fold_matches_dense([gallery_entry(n).process for n in names])

    def test_non_positional_pairings(self):
        ps = [gallery_entry(n).process
              for n in ("oneway-xy-d2", "twoway-d2", "state-bell-d2")]
        pairings = [PartyPairing((("Y", "X", "B"), ("X", "Y", "A"))),
                    PartyPairing((("A", "Y", "P"), ("B", "X", "Q")))]
        assert_fold_matches_dense(ps, pairings=pairings)
        assert not check_sequence(ps, pairings=pairings).verdict

    def test_one_dimensional_ends_crossed(self):
        layout = PartyLayout.of(("P", 1, 2), ("M", 2, 1))
        prep = state_process(np.diag([0.9, 0.1]).astype(complex), layout)
        ident = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                ident[i * 2 + i, j * 2 + j] = 1.0
        chan = ProcessMatrix(layout, ident)
        crossed = PartyPairing((("M", "P", "A"), ("P", "M", "B")))
        straight = PartyPairing((("A", "P", "C"), ("B", "M", "D")))
        assert_fold_matches_dense([chan, prep, chan], pairings=[crossed, straight])
        assert_fold_matches_dense([chan, chan, chan], pairings=[crossed, straight])


@st.composite
def _layouts(draw, n_parties):
    dims = draw(st.lists(st.sampled_from([1, 1, 1, 2, 2, 3]), min_size=2 * n_parties,
                         max_size=2 * n_parties).filter(lambda d: 2 <= np.prod(d) <= 16))
    return PartyLayout.of(*((name, dims[2 * k], dims[2 * k + 1])
                            for k, name in enumerate("ABC"[:n_parties])))


@st.composite
def _operators(draw, layout):
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        return random_valid_process(layout, seed=seed, n_terms=draw(st.integers(1, 12)))
    return ProcessMatrix(layout, random_hermitian(layout.dim, np.random.default_rng(seed)))


@st.composite
def _factor_pairs(draw):
    n = draw(st.integers(1, 3))
    w = draw(_operators(draw(_layouts(n))))
    z = draw(_operators(draw(_layouts(n))))
    order = draw(st.permutations(range(n)))
    pairing = PartyPairing(tuple(
        (w.layout.names[k], z.layout.names[order[k]], f"M{k}") for k in range(n)))
    return w, z, pairing


class TestFactorRecord:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_factor_pairs())
    def test_merge_equals_built_product(self, case):
        w, z, pairing = case
        built = tensor_product(w, z, pairing=pairing)
        rec = _merge_records(FactorRecord.of(w), FactorRecord.of(z), pairing, built.layout)
        want = hsbasis.coefficient_tensor(built.op, built.layout.subsystem_dims())
        assert rec.coeffs.shape == want.shape
        assert np.abs(rec.coeffs - want).max() <= 1e-12
        lam = np.linalg.eigvalsh(built.op)
        scale = max(1.0, float(np.abs(lam).max()))
        assert abs(rec.lam_min - lam[0]) <= 1e-12 * scale
        assert abs(rec.lam_max - lam[-1]) <= 1e-12 * scale
        assert rec.norm == pytest.approx(np.linalg.norm(built.op), rel=1e-12)
        assert rec.trace == pytest.approx(built.op.trace().real, rel=1e-12, abs=1e-12)
        assert rec.valid == is_valid_process(built).verdict
        # The built product's own record reads its extremes the same way.
        built_rec = FactorRecord.of(built)
        assert (built_rec.lam_min, built_rec.lam_max) == (rec.lam_min, rec.lam_max)

    def test_gallery_validity_matches_is_valid_process(self):
        for name in ("twoway-d2", "twoway-d3", "state-maxmix-d2", "oneway-xy-d2"):
            w = gallery_entry(name).process
            assert FactorRecord.of(w).valid == is_valid_process(w).verdict

    def test_each_operator_is_checked_once(self, monkeypatch):
        """One finiteness and one Hermiticity check per operator: the plain
        operator's, or a built product's own plus one per factor."""
        def spy(name):
            seen, real = [], getattr(linalg, name)

            def wrapped(m, *args, **kwargs):
                seen.append(np.shape(m)[0])
                return real(m, *args, **kwargs)

            monkeypatch.setattr(linalg, name, wrapped)
            return seen

        finite, hermitian = spy("_require_finite"), spy("require_hermitian")

        def dims_checked(p):
            finite.clear()
            hermitian.clear()
            FactorRecord.of(p)
            assert finite == hermitian
            return sorted(hermitian)

        chan, prep = prep_measure_pair()
        w = gallery_entry("oneway-xy-d2").process
        assert dims_checked(w) == [16]
        assert dims_checked(tensor_product(w, chan)) == [4, 16, 64]
        assert dims_checked(tensor_product(tensor_product(w, chan), prep)) == [4, 4, 16, 64, 256]


def prep_measure_pair():
    """On P(1->2) M(2->1): the identity channel from P to M, and a product
    of a preparation and a measurement."""
    layout = PartyLayout.of(("P", 1, 2), ("M", 2, 1))
    ident = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            ident[i * 2 + i, j * 2 + j] = 1.0
    return (ProcessMatrix(layout, ident),
            state_process(np.diag([0.9, 0.1]).astype(complex), layout))


class TestBuiltProductSpectrum:
    """A ``tensor_product`` result takes its extreme eigenvalues from its
    factors; everything else, and every verdict, is that of the record-free
    copy ``dense_product``, whose operator is eigendecomposed."""

    @staticmethod
    def assert_matches_dense(p):
        dense = ProcessMatrix(p.layout, p.op)
        lam_min, lam_max = linalg.eigenvalue_range(dense.op)
        rec = FactorRecord.of(p)
        tol = 1e-12 * np.linalg.norm(p.op)
        assert abs(rec.lam_min - lam_min) <= tol
        assert abs(rec.lam_max - lam_max) <= tol
        got, want = is_valid_process(p), is_valid_process(dense)
        assert got.verdict == want.verdict
        assert got.forbidden_terms == want.forbidden_terms
        assert got.trace_defect == want.trace_defect
        assert abs(got.psd_defect - want.psd_defect) <= tol

    def test_gallery_qubit_pairs(self):
        for a, b in itertools.product(BASE_NAMES, repeat=2):
            self.assert_matches_dense(
                tensor_product(gallery_entry(a).process, gallery_entry(b).process))

    def test_nested_product(self, monkeypatch):
        chan, prep = prep_measure_pair()
        inner = tensor_product(twoway_channel_process(2), chan)
        p = tensor_product(inner, prep)
        assert p._factors[0] is inner and p.dim == 256
        eigvalsh_dims = record_eigvalsh_dims(monkeypatch)
        is_valid_process(p)
        assert sorted(eigvalsh_dims) == [4, 4, 16]
        self.assert_matches_dense(p)

    def test_non_positional_pairing(self):
        w = gallery_entry("oneway-xy-d2").process
        z = twoway_channel_process(2)
        swapped = PartyPairing((("Y", "X", "B"), ("X", "Y", "A")))
        self.assert_matches_dense(tensor_product(w, z, pairing=swapped))

    def test_one_dimensional_ends(self):
        chan, prep = prep_measure_pair()
        crossed = PartyPairing((("M", "P", "A"), ("P", "M", "B")))
        for w, z in itertools.product((chan, prep), repeat=2):
            for pairing in (None, crossed):
                self.assert_matches_dense(tensor_product(w, z, pairing=pairing))

    def test_eigendecomposes_only_the_factors(self, monkeypatch):
        w = gallery_entry("oneway-xy-d2").process
        z = prep_measure_pair()[0]
        eigvalsh_dims = record_eigvalsh_dims(monkeypatch)
        is_valid_process(tensor_product(w, z))
        assert eigvalsh_dims == [16, 4]
        is_valid_process(dense_product(w, z))
        assert eigvalsh_dims == [16, 4, 64]

    @pytest.mark.parametrize("case", ["defect-on-one", "both-anti-hermitian"])
    def test_factor_failing_hermiticity_gives_dense_answer(self, case):
        h = twoway_channel_process(2)
        if case == "defect-on-one":
            skew = 1e-11j * np.add.outer(np.arange(16.0), np.arange(16.0))
            w = ProcessMatrix(h.layout, h.op + skew)
            z = ProcessMatrix(h.layout, 1e-3 * gallery_entry("state-bell-d2").process.op)
        else:  # (iH) x (iH) = -(H x H) is Hermitian although neither factor is
            w = z = ProcessMatrix(h.layout, 1j * h.op)
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg.require_hermitian(w.op)
        p = tensor_product(w, z)
        linalg.require_hermitian(p.op)
        got, want = is_valid_process(p), is_valid_process(ProcessMatrix(p.layout, p.op))
        assert got == want

    def test_overflowing_product_raises_as_before(self):
        h = twoway_channel_process(2)
        big = ProcessMatrix(h.layout, 1e200 * h.op)
        with np.errstate(over="ignore"):
            is_valid_process(big)  # the factor itself is finite
            p = tensor_product(big, big)
        errors = []
        for candidate in (p, ProcessMatrix(p.layout, p.op)):
            with pytest.raises(ValueError, match="non-finite entry") as err:
                is_valid_process(candidate)
            errors.append(str(err.value))
        assert errors[0] == errors[1]

    def test_product_is_read_only_and_keeps_its_factors(self):
        h = twoway_channel_process(2)
        w = ProcessMatrix(h.layout, h.op.copy())
        p = tensor_product(w, w)
        with pytest.raises(ValueError, match="read-only"):
            p.op[0, 0] = 1.0
        before = FactorRecord.of(p)
        w.op[:] = 0.0  # the product remembers a copy of its factor
        after = FactorRecord.of(p)
        assert (after.lam_min, after.lam_max) == (before.lam_min, before.lam_max)
        assert ProcessMatrix(p.layout, p.op)._factors is None


@st.composite
def _valid_factor_pairs(draw):
    n = draw(st.integers(1, 3))
    layouts = [draw(_layouts(n).filter(lambda lay: 1 in lay.subsystem_dims()))
               for _ in range(2)]
    return tuple(random_valid_process(layout, seed=draw(st.integers(0, 2 ** 32 - 1)),
                                      n_terms=draw(st.integers(1, 12)))
                 for layout in layouts)


class TestReducedProduct:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_valid_factor_pairs())
    def test_reduce_recovers_first_factor(self, case):
        w, z = case
        p = tensor_product(w, z)
        keep = {m.name: PartyReduction((a.d_in, b.d_in), (a.d_out, b.d_out), (0,))
                for m, a, b in zip(p.layout.parties, w.layout.parties, z.layout.parties)}
        back = reduced_process(p, keep)
        assert back.layout == w.layout
        assert np.abs(back.op - w.op).max() <= 1e-12
