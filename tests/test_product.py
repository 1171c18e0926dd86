"""Tests for party merging, tensor products and the blocking-pair decision."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procval import (
    PartyLayout,
    PartyPairing,
    PartyReduction,
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
    min_eigenvalue,
    oneway_channel_process,
    random_valid_process,
    reduced_process,
    signalling_directions,
    state_process,
    tensor_product,
    two_party_product_invalid,
    twoway_channel_process,
)
from procval import product
from procval.hsbasis import HSTerm
from procval.process import _PRODUCT_ROUNDING, FactorRecord
from procval.product import (
    _built,
    combined_layout,
    _merge_records,
    _merge_weights,
    _merged_subsystems,
    _pattern_check,
    _resolve_pairing,
    _Weights,
)

from helpers import (
    BASE_NAMES,
    basis_coefficient,
    bipartite_qubit_suite,
    cyclic_triple,
    dense_forbidden_weight,
    dense_product,
    expansion,
    first_of_each_pattern,
    fold_blocking_pairs,
    loop_blocking_pairs,
    loop_forbidden_terms,
    merged_terms,
    product_terms,
    random_hermitian,
    record_eigvalsh_dims,
    suite_pairs,
)


THREE_PARTIES = PartyLayout.of(("A", 2, 2), ("B", 2, 1), ("C", 1, 2))
ROTATED = PartyPairing((("B", "C", "P"), ("C", "A", "Q"), ("A", "B", "R")))


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

    def test_pairing_must_cover_every_party(self):
        w = twoway_channel_process(2)
        short = PartyPairing((("X", "X", "X"),))
        with pytest.raises(ValueError, match="^pairing must cover every party of both"):
            find_blocking_pairs(w, w, pairing=short)

    def test_duplicate_merged_names_rejected(self):
        with pytest.raises(ValueError):
            PartyPairing((("X", "X", "A"), ("Y", "Y", "A")))

    def test_pairing_built_from_lists(self):
        """Pairs given as lists are kept as tuples, and answer as they do."""
        w = twoway_channel_process(2)
        listed = PartyPairing([["X", "X", "A"], ["Y", "Y", "B"]])
        tupled = PartyPairing((("X", "X", "A"), ("Y", "Y", "B")))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert find_blocking_pairs(w, w, pairing=listed) == find_blocking_pairs(w, w, pairing=tupled)
        assert tensor_product(w, w, pairing=listed).layout == tensor_product(w, w, pairing=tupled).layout
        assert check_sequence([w, w], pairings=[listed]) == check_sequence([w, w], pairings=[tupled])


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

    def test_rotated_pairing_matches_term_loop(self):
        """Tag patterns are grouped in layout order and permuted into the
        pairing's order; a rotation on unequal parties exercises that, at the
        cached default threshold and at explicit ones."""
        for seed in range(6):
            w = random_valid_process(THREE_PARTIES, seed=seed, n_terms=10)
            z = random_valid_process(THREE_PARTIES, seed=100 + seed, n_terms=10)
            for tol in (None, 0.0, 0.05):
                report = find_blocking_pairs(w, z, pairing=ROTATED, tol=tol)
                got = [((tw.indices, tz.indices), cases) for (tw, tz), cases
                       in zip(report.blocking_pairs, report.per_party_cases)]
                assert got == loop_blocking_pairs(w, z, pairing=ROTATED, tol=tol)
                assert report.verdict == (not got)


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

    def test_nine_one_party_factors(self):
        """Nine one-party factors merge a record on subsystems of dim 256,
        whose basis change would be a 34 GB matrix if it were dense."""
        s = one_party_state([0.25, 0.75])
        report = check_sequence([s] * 9)
        assert report.verdict is True and report.first_invalid_step is None
        assert len(report.steps) == 8
        assert all(step.w_valid and step.z_valid for step in report.steps)

    def test_five_twoway_factors(self):
        """The fold of five ``twoway-d2`` merges a record of dim 65536 before
        its last step. The accumulated product keeps one term per tag
        pattern, so from the second step on each step lists 4 blocking
        pairs, as the term-by-term reference does."""
        w = twoway_channel_process(2)
        report = check_sequence([w] * 5)
        assert report.first_invalid_step == 0
        assert [len(step.blocking_pairs) for step in report.steps] == [2, 4, 4, 4]
        assert report.steps[0].w_valid and not report.steps[1].w_valid
        assert_listings_match(report, [w] * 5)

    def test_eight_twoway_factors(self):
        """``[twoway-d2]*8`` is decided: its accumulated product before the
        last step (dim 16**7) holds one term per tag pattern, and every step
        lists the reference's blocking pairs."""
        w = twoway_channel_process(2)
        report = check_sequence([w] * 8)
        assert report.verdict is False and report.first_invalid_step == 0
        assert [len(step.blocking_pairs) for step in report.steps] == [2, 4, 4, 4, 4, 4, 4]
        assert report.steps[0].w_valid
        assert not any(step.w_valid for step in report.steps[1:])
        assert all(step.z_valid for step in report.steps)
        assert_listings_match(report, [w] * 8)


def assert_listings_match(report, ps, pairings=None):
    """Each step of ``report`` lists the blocking pairs, coefficients and
    per-party cases of the term-by-term reference ``fold_blocking_pairs``,
    bit for bit, and its verdict says whether that list is empty."""
    want = fold_blocking_pairs(ps, pairings)
    assert len(report.steps) == len(want)
    for step, ref in zip(report.steps, want):
        assert list(zip(step.blocking_pairs, step.per_party_cases)) == ref
        assert step.verdict == (not ref)


def assert_fold_matches_dense(ps, pairings=None, built=None):
    """Each step of ``check_sequence`` lists the reference's blocking pairs
    (``assert_listings_match``: the accumulated product's terms are its
    factors' terms multiplied out), and its verdict, layout and validity
    flags equal those of the blocking-pair search on the dense accumulated
    product, built with ``dense_product`` and extracted; ``w_valid`` equals
    ``is_valid_process`` of that operator. ``built`` maps the factors of a
    prefix (by identity) to its dense product and verdict, so positional
    folds that share prefixes build each product once."""
    built = {} if built is None else built
    report = check_sequence(ps, pairings=pairings)
    assert len(report.steps) == len(ps) - 1
    assert_listings_match(report, ps, pairings)
    acc, acc_valid = ps[0], is_valid_process(ps[0]).verdict
    first_bad = None
    for k, (step, nxt) in enumerate(zip(report.steps, ps[1:])):
        pairing = pairings[k] if pairings is not None else None
        dense = find_blocking_pairs(acc, nxt, pairing=pairing)
        assert step.verdict == dense.verdict
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

    def test_one_factor_at_two_steps_under_different_pairings(self):
        """A factor object given twice has one record, whose cached patterns
        are read in two party orders; neither read may change the other."""
        other = PartyPairing((("Q", "C", "X"), ("R", "A", "Y"), ("P", "B", "Z")))
        for seed in range(3):
            first = random_valid_process(THREE_PARTIES, seed=seed, n_terms=8)
            twice = random_valid_process(THREE_PARTIES, seed=50 + seed, n_terms=8)
            assert_fold_matches_dense([first, twice, twice], pairings=[ROTATED, other])


class TestOneTermPerPattern:
    """A merged record keeps one term per tag pattern, so a fold's listings
    stop growing with its length. Its verdicts read only which patterns are
    present, so they are those of the full term-by-term reference, whose
    accumulated product holds every pair of terms multiplied out."""

    @staticmethod
    def assert_verdicts_match_full(ps, valid):
        """``check_sequence(ps)``'s verdict, first invalid step, and each
        step's verdict and ``w_valid`` against ``fold_blocking_pairs(ps,
        full=True)`` and the full accumulated terms. ``valid[k]`` is whether
        ``ps[k]`` is a valid process."""
        report = check_sequence(ps)
        listings = fold_blocking_pairs(ps, full=True)
        terms, layout = ps[0].terms(), ps[0].layout
        for k, (step, listing, nxt) in enumerate(zip(report.steps, listings, ps[1:])):
            assert step.verdict == (not listing)
            assert step.w_valid == (all(valid[:k + 1]) and all(
                classify_term(t, layout).is_allowed() for t in terms))
            if k + 2 < len(ps):
                terms = product_terms(terms, nxt.terms(), layout, nxt.layout)
                layout = combined_layout(layout, nxt.layout,
                                         PartyPairing.positional(layout, nxt.layout))
        first = next((k for k, listing in enumerate(listings) if listing), None)
        assert report.first_invalid_step == first
        assert report.verdict == (first is None)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_twoway_folds(self, k):
        self.assert_verdicts_match_full([twoway_channel_process(2)] * k, [True] * k)

    def test_every_ordered_qubit_quadruple(self):
        procs = [gallery_entry(n).process for n in BASE_NAMES]
        valid = {id(p): is_valid_process(p).verdict for p in procs}
        for quadruple in itertools.product(procs, repeat=4):
            self.assert_verdicts_match_full(list(quadruple), [valid[id(p)] for p in quadruple])

    def test_thirty_one_twoway_factors(self):
        """``[twoway-d2]*31``: no row budget refuses it (one with 14 factors
        was refused when merged records held every pair of rows). Each
        listing holds at most 16 x 3 pairs, the two-party patterns of the
        accumulated product against the factor's nontrivial terms."""
        w = twoway_channel_process(2)
        start = time.perf_counter()
        report = check_sequence([w] * 31)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, elapsed
        assert report.verdict is False and report.first_invalid_step == 0
        assert len(report.steps) == 30
        assert all(len(step.blocking_pairs) <= 16 * 3 for step in report.steps)
        assert not any(step.w_valid for step in report.steps[1:])


class TestCyclicTriple:
    """The loop X→Y→Z→X closes only with all three factors. The built triple
    (dim 4096) is left out here, since extracting its record-free copy takes
    seconds; the CI workflow cross-checks it."""

    def test_each_factor_signals_one_way(self):
        for p, direction in zip(cyclic_triple(), ("XY", "YZ", "ZX")):
            assert is_valid_process(p).verdict
            assert {frm + to for frm, to in itertools.permutations("XYZ", 2)
                    if signalling_directions(p, frm, to)} == {direction}

    def test_every_pair_is_compatible(self):
        for w, z in itertools.permutations(cyclic_triple(), 2):
            report = find_blocking_pairs(w, z)
            assert report.verdict is True and not report.blocking_pairs

    def test_every_order_fails_at_the_second_step(self):
        """Step 1 lists one blocking pair, the loop: the term of the first
        two factors that carries both their signalling terms, against the
        third factor's signalling term."""
        for order in itertools.permutations(cyclic_triple()):
            report = check_sequence(list(order))
            assert report.verdict is False and report.first_invalid_step == 1
            assert len(report.steps[1].blocking_pairs) == 1
            assert_listings_match(report, list(order))

    def test_fold_matches_dense(self):
        assert_fold_matches_dense(list(cyclic_triple()))


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
        """Merged rows are the factors' first rows of each pattern
        multiplied out, one per merged pattern: the rows of the term-by-term
        reference ``merged_terms``, bit for bit. The built product carries
        those rows and the merged extremes, and its verdict is that of its
        record-free copy, which is extracted."""
        w, z, pairing = case
        built = tensor_product(w, z, pairing=pairing)
        rec = _merge_records(FactorRecord.of(w), FactorRecord.of(z), pairing, built.layout)
        want = merged_terms(w.terms(), z.terms(), w.layout, z.layout, pairing)
        assert list(map(tuple, rec.indices.tolist())) == [t.indices for t in want]
        assert rec.values.tolist() == [t.coeff for t in want]
        assert rec.tensor is None and rec.factors is None
        lam = np.linalg.eigvalsh(built.op)
        scale = max(1.0, float(np.abs(lam).max()))
        assert abs(rec.lam_min - lam[0]) <= 1e-12 * scale
        assert abs(rec.lam_max - lam[-1]) <= 1e-12 * scale
        assert rec.norm == pytest.approx(np.linalg.norm(built.op), rel=1e-12)
        assert rec.trace == pytest.approx(built.op.trace().real, rel=1e-12, abs=1e-12)
        assert rec.valid == is_valid_process(ProcessMatrix(built.layout, built.op)).verdict
        # The built product's own record reads the same rows and extremes.
        built_rec = FactorRecord.of(built)
        assert (built_rec.lam_min, built_rec.lam_max) == (rec.lam_min, rec.lam_max)
        assert np.array_equal(built_rec.indices, rec.indices)
        assert np.array_equal(built_rec.values, rec.values)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(_factor_pairs())
    def test_merged_rows_are_the_first_term_of_each_pattern(self, case):
        """Under positional pairings, the merged rows are the first term of
        each tag pattern in the full listing, every pair of the factors'
        terms multiplied out (``product_terms``), bit for bit."""
        w, z, _ = case
        pairing = PartyPairing.positional(w.layout, z.layout)
        layout = combined_layout(w.layout, z.layout, pairing)
        rec = _merge_records(FactorRecord.of(w), FactorRecord.of(z), pairing, layout)
        want = first_of_each_pattern(
            product_terms(w.terms(), z.terms(), w.layout, z.layout, pairing), layout)
        assert list(map(tuple, rec.indices.tolist())) == [t.indices for t in want]
        assert rec.values.tolist() == [t.coeff for t in want]

    def test_gallery_validity_matches_is_valid_process(self):
        for name in ("twoway-d2", "twoway-d3", "state-maxmix-d2", "oneway-xy-d2"):
            w = gallery_entry(name).process
            assert FactorRecord.of(w).valid == is_valid_process(w).verdict

    def test_each_operator_is_checked_once(self, monkeypatch):
        """One check (``linalg._checked``: finiteness, then Hermiticity) per
        operator, counted over build and validation: the plain operator's,
        or one per factor when a product is built. A built product's own
        operator is not checked: its factors' defects and norms bound its
        checks (the factors here are exactly Hermitian)."""
        def spy(name):
            seen, real = [], getattr(linalg, name)

            def wrapped(m, *args, **kwargs):
                seen.append(np.shape(m)[0])
                return real(m, *args, **kwargs)

            monkeypatch.setattr(linalg, name, wrapped)
            return seen

        checked, hermitian = spy("_checked"), spy("hermiticity_defect")

        def dims_checked(build):
            checked.clear()
            hermitian.clear()
            FactorRecord.of(build())
            assert checked == hermitian
            return sorted(hermitian)

        chan, prep = prep_measure_pair()
        w = gallery_entry("oneway-xy-d2").process
        assert dims_checked(lambda: w) == [16]
        assert dims_checked(lambda: tensor_product(w, chan)) == [4, 16]
        assert dims_checked(lambda: tensor_product(tensor_product(w, chan), prep)) == [
            4, 4, 16]


class TestMergedPruning:
    """The pruning rule of merged rows (``docs/tolerances.md``): each
    factor's rows are pruned at its own threshold before the merge, and the
    merged rows, one per tag pattern, are not pruned again, however small
    their coefficients. The dense path prunes the built operator's own
    coefficients, over the Gell-Mann basis, at the product's threshold, so
    a product of two small terms is kept where the dense path drops it."""

    LAYOUT = PartyLayout.of(("A", 2, 2))

    def factor(self, identity, eps, term=(1, 0)):
        terms = [HSTerm((0, 0), identity), HSTerm(term, eps)]
        return ProcessMatrix(self.LAYOUT, hsbasis.reconstruct(
            terms, self.LAYOUT.subsystem_dims()))

    @staticmethod
    def merged_and_dense(w, z):
        built = tensor_product(w, z)
        rec = _merge_records(FactorRecord.of(w), FactorRecord.of(z),
                             PartyPairing.positional(w.layout, z.layout), built.layout)
        want = merged_terms(w.terms(), z.terms(), w.layout, z.layout)
        assert list(map(tuple, rec.indices.tolist())) == [t.indices for t in want]
        assert rec.values.tolist() == [t.coeff for t in want]
        dense = ProcessMatrix(built.layout, built.op)
        assert is_valid_process(built).verdict == is_valid_process(dense).verdict
        return rec, hsbasis._term_rows(
            hsbasis.coefficient_tensor(dense.op, dense.layout.subsystem_dims()), None)

    def test_product_of_two_small_terms_is_kept(self):
        """Two kept factor terms of 1e-6, one on the input and one on the
        output, multiply into a row of 1e-12, below the product's threshold
        1e-9, and it is kept: it is the only term of its pattern. Each
        against the other factor's identity gives a row of 0.5e-6. The
        dense extraction drops the 1e-12 term and spreads each 0.5e-6 term
        over two Gell-Mann terms of 0.5e-6/sqrt(2)."""
        w, z = self.factor(0.5, 1e-6), self.factor(0.5, 1e-6, term=(0, 1))
        assert len(FactorRecord.of(w).values) == len(FactorRecord.of(z).values) == 2
        rec, (_, values) = self.merged_and_dense(w, z)
        assert rec.indices.tolist() == [[0, 0], [0, 1], [4, 0], [4, 1]]
        assert rec.values == pytest.approx([0.25, 0.5e-6, 0.5e-6, 1e-12], rel=1e-9)
        assert len(values) == 5
        assert np.abs(values[1:]) == pytest.approx([0.5e-6 / np.sqrt(2)] * 4, rel=1e-9)

    @pytest.mark.parametrize("factor, kept", [(0.5, False), (2.0, True)])
    def test_factor_term_at_its_own_threshold(self, factor, kept):
        """A factor term at 0.5x its threshold (1e-9) never reaches the
        merge; at 2x it is kept and, against an identity coefficient of 1,
        merges into one row of 2e-9 (two Gell-Mann terms of 2e-9/sqrt(2) in
        the dense extraction, also above the product's threshold)."""
        w = self.factor(0.5, factor * 1e-9)
        z = self.factor(1.0, 0.0)
        assert len(FactorRecord.of(w).values) == (2 if kept else 1)
        rec, (_, values) = self.merged_and_dense(w, z)
        assert len(rec.values) == (2 if kept else 1)
        assert len(values) == (3 if kept else 1)

    def test_small_blocking_terms_invalidate_every_product_answer(self):
        """On X(2->2)Y(2->2), ``w = I/4 + eps s(0,3,3,0)`` and
        ``z = I/4 + eps s(3,0,0,3)`` at eps = 1e-6 are valid, and their two
        small signalling terms block: their product ``eps**2 s(3,12,12,3)``
        is a pure input on no party. The pair search, the two-party
        shortcut, the built product and a fold all say invalid. The
        record-free copy prunes the 1e-12 term from its Gell-Mann expansion
        at its threshold 1e-9 and says valid: the documented difference."""
        layout = PartyLayout.of(("X", 2, 2), ("Y", 2, 2))
        dims, eps = layout.subsystem_dims(), 1e-6
        w, z = (ProcessMatrix(layout, np.eye(16) / 4 + hsbasis.reconstruct(
            [HSTerm(t, eps)], dims)) for t in ((0, 3, 3, 0), (3, 0, 0, 3)))
        maxmix = ProcessMatrix(layout, np.eye(16) / 4)
        assert all(is_valid_process(p).verdict for p in (w, z, maxmix))
        report = find_blocking_pairs(w, z)
        assert report.verdict is False and len(report.blocking_pairs) == 1
        assert two_party_product_invalid(w, z) is True
        assert check_sequence([w, z, maxmix]).steps[1].w_valid is False
        p = tensor_product(w, z)
        got = is_valid_process(p)
        assert got.verdict is False
        ((term, sig),) = got.forbidden_terms
        assert term.indices == (3, 12, 12, 3)
        assert term.coeff == pytest.approx(eps ** 2, rel=1e-6)
        assert sig.codes == ("12", "12")
        assert got.forbidden_terms == loop_forbidden_terms(p)
        assert is_valid_process(ProcessMatrix(p.layout, p.op)).verdict is True

    def test_indices_past_int64_are_refused(self):
        """A fold whose merged subsystem passes dim 2**31.5 is refused: its
        basis indices would not fit int64."""
        s = state_process(maximally_mixed(2), PartyLayout.of(("A", 2, 2)))
        assert check_sequence([s] * 32).verdict
        with pytest.raises(ValueError, match="dim 4294967296 .* int64"):
            check_sequence([s] * 34)

    def test_fold_past_int64_keys(self):
        """Nine maximally mixed one-party factors on A(4->4): the record
        merged before the last step has subsystems of dim 4**8, whose index
        space is 2**64."""
        layout = PartyLayout.of(("A", 4, 4))
        s = state_process(maximally_mixed(4), layout)
        report = check_sequence([s] * 9)
        assert report.verdict is True and report.first_invalid_step is None


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


@st.composite
def _valid_pairs(draw):
    """Two ``random_valid_process`` factors with the same number of parties,
    and a pairing of their parties in a drawn order."""
    n = draw(st.integers(1, 3))
    w, z = (random_valid_process(draw(_layouts(n)), seed=draw(st.integers(0, 2 ** 32 - 1)),
                                 n_terms=draw(st.integers(1, 12))) for _ in range(2))
    order = draw(st.permutations(range(n)))
    return w, z, PartyPairing(tuple(
        (w.layout.names[k], z.layout.names[order[k]], f"M{k}") for k in range(n)))


def _outcome(p):
    """``is_valid_process(p)``, or the message of the ValueError it raises."""
    try:
        return is_valid_process(p)
    except ValueError as err:
        return str(err)


class TestBuiltProductSpectrum:
    """A ``tensor_product`` result is decided from the record merged from
    its factors' records at its first question. Its verdict and
    forbidden-term indices are those of the record-free copy
    ``dense_product``, whose operator is eigendecomposed and extracted, and
    its trace defect (``tr W · tr Z``, not a sum over the made diagonal) is
    within ``1e-14 d_out`` of that copy's. Its
    forbidden terms are the factors' terms multiplied out, as the
    term-by-term reference lists them, bit for bit. Eigendecompositions are
    counted over build and validation."""

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
        assert got.forbidden_terms == loop_forbidden_terms(p)
        assert abs(got.trace_defect - want.trace_defect) <= 1e-14 * p.d_out
        assert abs(got.psd_defect - want.psd_defect) <= tol

    def test_gallery_qubit_pairs(self):
        for a, b in itertools.product(BASE_NAMES, repeat=2):
            self.assert_matches_dense(
                tensor_product(gallery_entry(a).process, gallery_entry(b).process))

    def test_nested_product(self, monkeypatch):
        h = twoway_channel_process(2)
        chan, prep = prep_measure_pair()
        eigvalsh_dims = record_eigvalsh_dims(monkeypatch)
        # The inner product's own operator is never eigendecomposed.
        p = tensor_product(tensor_product(h, chan), prep)
        is_valid_process(p)
        assert p.dim == 256 and sorted(eigvalsh_dims) == [4, 4, 16]
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
        dense = dense_product(w, z)
        eigvalsh_dims.clear()
        is_valid_process(dense)
        assert eigvalsh_dims == [64]

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
        assert p._factors.record is None
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

    def test_product_is_read_only_and_keeps_its_extremes(self):
        h = twoway_channel_process(2)
        w = ProcessMatrix(h.layout, h.op.copy())
        p = tensor_product(w, w)
        before = FactorRecord.of(p)
        # The record was merged at the first question, and the product keeps
        # a copy of its factor: the first read of op, after the factor is
        # zeroed in place, still makes the product as it was built.
        w.op[:] = 0.0
        assert FactorRecord.of(p) is before is p._factors.record
        assert "op" not in vars(p)
        assert p.op.tobytes() == dense_product(h, h).op.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            p.op[0, 0] = 1.0
        copy = ProcessMatrix(p.layout, p.op)
        assert copy._factors is None

    @staticmethod
    def assert_raises_or_matches_dense(p):
        """``is_valid_process(p)`` raises, with the same message, exactly when
        the record-free copy raises; otherwise it gives the same verdict, a
        trace defect within 1e-14 d_out, and a PSD defect within 1e-12 of the
        norm, and it lists the forbidden terms of the term-by-term reference.
        Returns how ``p`` was decided: "lazy" from its merged record alone,
        "dense" from its merged record after its made operator was checked,
        "none" with no merged record; "-raises" is added when both raise."""
        got = _outcome(p)
        path = "none" if p._factors.record is None else "dense" if "op" in vars(p) else "lazy"
        want = _outcome(ProcessMatrix(p.layout, p.op))
        if isinstance(got, str) or isinstance(want, str):
            assert got == want
            return path + "-raises"
        assert got.verdict == want.verdict
        assert got.forbidden_terms == loop_forbidden_terms(p)
        assert abs(got.trace_defect - want.trace_defect) <= 1e-14 * p.d_out
        assert abs(got.psd_defect - want.psd_defect) <= 1e-12 * linalg.frobenius(p.op)
        return path

    def test_factor_defects_around_their_limits(self):
        """Factors whose anti-Hermitian part is 0.5x, 1x and 2x their own
        Hermiticity limit, paired so that the product bound falls on either
        side of the product limit: the record decides below it, the made
        operator is checked above it (and may fail), and a factor that fails
        its own check leaves the product to the dense path, as does
        ``(iH) x (iH)``."""
        h = twoway_channel_process(2)
        bell = gallery_entry("state-bell-d2").process
        ramp = np.add.outer(np.arange(16.0), np.arange(16.0)) / 30.0  # largest entry 1
        paths = []
        for f, w_scale, z_scale in itertools.product((0.5, 1.0, 2.0), (0.1, 1.0), (0.1, 2.0, 10.0)):
            op = w_scale * h.op
            limit = 1e-12 * (1.0 + linalg.frobenius(op))
            w = ProcessMatrix(h.layout, op + 0.5j * f * limit * ramp)  # max|W - W^+| = f limit
            z = ProcessMatrix(bell.layout, z_scale * bell.op)
            for a, b in ((w, z), (w, w)):
                paths.append(self.assert_raises_or_matches_dense(tensor_product(a, b)))
        anti = ProcessMatrix(h.layout, 1j * h.op)
        paths.append(self.assert_raises_or_matches_dense(tensor_product(anti, anti)))
        assert set(paths) == {"lazy", "dense", "dense-raises", "none", "none-raises"}
        assert paths[-1] == "none"

    @pytest.mark.parametrize("scale, path", [(1e149, "lazy"), (1e151, "dense"),
                                             (3e153, "dense"), (1e154, "none-raises"),
                                             (2e154, "none-raises"), (1e155, "none-raises")])
    def test_factors_near_the_double_range(self, scale, path):
        """Factors near 1e154 put the norm product near overflow. Up to 1e300
        the record decides; above it the made operator is checked; at 1e155
        the product's norm overflows, so it carries no record, and both
        raise on its infinite entries."""
        h = twoway_channel_process(2)
        bell = gallery_entry("state-bell-d2").process
        w, z = (ProcessMatrix(p.layout, scale * p.op) for p in (h, bell))
        assert self.assert_raises_or_matches_dense(tensor_product(w, z)) == path

    @pytest.mark.parametrize("scale", [1e154, 2e154])
    def test_extraction_overflow_is_a_value_error(self, scale):
        """At 1e154 and 2e154 every entry of the product is finite (up to
        about 2.5e307) but its coefficients are not: the built product and
        its record-free copy raise a ValueError that names the overflow, and
        no RuntimeWarning."""
        h = twoway_channel_process(2)
        bell = gallery_entry("state-bell-d2").process
        w, z = (ProcessMatrix(p.layout, scale * p.op) for p in (h, bell))
        p = tensor_product(w, z)
        assert np.isfinite(p.op).all()
        for q in (p, ProcessMatrix(p.layout, p.op)):
            with pytest.raises(ValueError, match="coefficient extraction overflowed"):
                is_valid_process(q)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_factor_pairs(), st.floats(0.0, 1e-13))
    def test_carried_bound_holds_on_the_made_operator(self, case, skew):
        """What ``checks_certain`` compares holds on the made operator: its
        Hermiticity defect is at most the carried bound, and its norm is at
        least the carried norm less ``c·ε`` of it. Each factor gets an
        anti-Hermitian part of relative size ``skew``, within its own limit."""
        w, z, pairing = case
        rng = np.random.default_rng(len(w.op) + len(z.op))
        hs = [random_hermitian(p.dim, rng) for p in (w, z)]
        w, z = (ProcessMatrix(p.layout, p.op + 1j * skew * linalg.frobenius(p.op) * h
                              / np.abs(h).max()) for p, h in zip((w, z), hs))
        p = tensor_product(w, z, pairing=pairing)
        assert p._factors.record is not None
        assert linalg.hermiticity_defect(p.op) <= p._factors.record.defect
        assert linalg.frobenius(p.op) >= (1.0 - _PRODUCT_ROUNDING) * p._factors.record.norm

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_valid_pairs())
    def test_record_is_the_fold_steps_merge(self, case):
        """A built product's record is its factors' records merged as a fold
        step merges them, field for field, the trace ``tr W · tr Z`` bit for
        bit; its trace defect is within ``1e-14 d_out`` of the record-free
        copy's, whose trace is summed over the made diagonal."""
        w, z, pairing = case
        p = tensor_product(w, z, pairing=pairing)
        got = FactorRecord.of(p)
        rw, rz = FactorRecord.of(w), FactorRecord.of(z)
        want = _merge_records(rw, rz, _resolve_pairing(w.layout, z.layout, pairing), p.layout)
        assert "op" not in vars(p)
        assert got.layout == want.layout and np.array_equal(got.indices, want.indices)
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.lam_min, got.lam_max, got.norm, got.defect) == (
            want.lam_min, want.lam_max, want.norm, want.defect)
        assert got.trace == want.trace == rw.trace * rz.trace
        defect = is_valid_process(p).trace_defect
        assert defect == abs(want.trace - p.d_out)
        dense = is_valid_process(ProcessMatrix(p.layout, p.op)).trace_defect
        assert abs(defect - dense) <= 1e-14 * p.d_out

    def test_explicit_term_threshold_extracts(self):
        """A caller-given term threshold reads the built operator's own
        coefficients, as for any operator, so the terms are bit for bit
        those of the record-free copy."""
        w = gallery_entry("oneway-xy-d2").process
        z = twoway_channel_process(2)
        p = tensor_product(w, z)
        for tol in (0.0, 1e-9, 0.05):
            got = is_valid_process(p, Tolerances(term=tol))
            want = is_valid_process(ProcessMatrix(p.layout, p.op), Tolerances(term=tol))
            assert got.forbidden_terms == want.forbidden_terms
            assert find_blocking_pairs(p, w, tol=tol) == find_blocking_pairs(
                ProcessMatrix(p.layout, p.op), w, tol=tol)
        merged = _merge_records(FactorRecord.of(w), FactorRecord.of(z),
                                PartyPairing.positional(w.layout, z.layout), p.layout)
        with pytest.raises(ValueError, match="explicit term threshold"):
            merged.patterns(0.0)


class TestBuiltOperator:
    """``product._built`` writes the product operator with one multiply.
    Its bits are those of the Kronecker product reordered by
    ``linalg.permute_subsystems``, and so are those a built product makes
    when its ``op`` is first read."""

    @staticmethod
    def assert_bits(w, z, pairing=None):
        resolved = _resolve_pairing(w.layout, z.layout, pairing)
        nw = 2 * w.layout.n_parties
        perm = [k for a, b in _merged_subsystems(w.layout, z.layout, resolved) for k in (a, nw + b)]
        want = linalg.permute_subsystems(linalg.tensor(w.op, z.op),
                                         w.layout.subsystem_dims() + z.layout.subsystem_dims(), perm)
        p = tensor_product(w, z, pairing=pairing)
        built = _built(w, z, resolved, p.layout).op
        assert not built.flags.writeable
        assert built.tobytes() == p.op.tobytes() == want.tobytes()

    def test_gallery_pairs_and_crossed_pairings(self):
        swapped = PartyPairing((("Y", "X", "B"), ("X", "Y", "A")))
        for a, b in itertools.product(BASE_NAMES, repeat=2):
            for pairing in (None, swapped):
                self.assert_bits(gallery_entry(a).process, gallery_entry(b).process, pairing)

    def test_one_dimensional_ends(self):
        chan, prep = prep_measure_pair()
        crossed = PartyPairing((("M", "P", "A"), ("P", "M", "B")))
        idle = PartyLayout.of(("P", 1, 1), ("M", 1, 1))
        one = ProcessMatrix(idle, np.array([[1.0 + 0.5j]]))
        for w, z in itertools.product((chan, prep, one), repeat=2):
            for pairing in (None, crossed):
                self.assert_bits(w, z, pairing)

    def test_random_operators_under_rotated_pairings(self):
        """Random valid factors (made lazily) and random complex operators
        (whose products are made when built), entries that are not exact."""
        rng = np.random.default_rng(7)
        for seed in range(4):
            w = random_valid_process(THREE_PARTIES, seed=seed, n_terms=10)
            z = random_valid_process(THREE_PARTIES, seed=10 + seed, n_terms=10)
            self.assert_bits(w, z, ROTATED)
            g = [rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)) for _ in range(2)]
            self.assert_bits(*(ProcessMatrix(THREE_PARTIES, x) for x in g), ROTATED)


class TestProductBasis:
    """A built product's rows name elements of its factors' product basis:
    on merged subsystem ``k``, index ``i * d_q**2 + j`` is ``s_i x s_j``,
    each factor's element in its own basis. The rows are the term-by-term
    reference's terms (``merged_terms``), bit for bit: one per tag pattern
    of the factors' terms multiplied out, each a term of that full listing
    (``product_terms``) and, under positional pairings, the first of its
    pattern there. Each row's coefficient is the made operator's own
    coefficient on its basis element, within 1e-12 of its norm."""

    @staticmethod
    def assert_rows_make_operator(p):
        rec = FactorRecord.of(p)
        want = expansion(p)
        assert list(map(tuple, rec.indices.tolist())) == [t.indices for t in want]
        assert rec.values.tolist() == [t.coeff for t in want]
        f = p._factors
        full = product_terms(expansion(f.w), expansion(f.z), f.w.layout, f.z.layout, f.pairing)
        tags = [classify_term(t, p.layout).tags for t in want]
        assert len(set(tags)) == len(tags) and set(want) <= set(full)
        assert set(tags) == {classify_term(t, p.layout).tags for t in full}
        if f.pairing == PartyPairing.positional(f.w.layout, f.z.layout):
            assert want == first_of_each_pattern(full, p.layout)
        norm = np.linalg.norm(p.op)
        for t in want:
            assert abs(basis_coefficient(p, t.indices) - t.coeff) <= 1e-12 * norm

    def test_crossed_pairings(self):
        swapped = PartyPairing((("Y", "X", "B"), ("X", "Y", "A")))
        for a, b in (("twoway-d2", "oneway-xy-d2"), ("state-bell-d2", "oneway-yx-d2")):
            w, z = gallery_entry(a).process, gallery_entry(b).process
            for pairing in (None, swapped):
                self.assert_rows_make_operator(tensor_product(w, z, pairing=pairing))
        for seed in range(2):
            w = random_valid_process(THREE_PARTIES, seed=seed, n_terms=6)
            z = random_valid_process(THREE_PARTIES, seed=20 + seed, n_terms=6)
            self.assert_rows_make_operator(tensor_product(w, z, pairing=ROTATED))

    def test_one_dimensional_ends(self):
        chan, prep = prep_measure_pair()
        crossed = PartyPairing((("M", "P", "A"), ("P", "M", "B")))
        for w, z in itertools.product((chan, prep), repeat=2):
            self.assert_rows_make_operator(tensor_product(w, z, pairing=crossed))

    def test_nested_products(self):
        """Nested on either side, under crossed pairings at both levels."""
        h = twoway_channel_process(2)
        chan, prep = prep_measure_pair()
        crossed = PartyPairing((("M", "P", "A"), ("P", "M", "B")))
        inner = tensor_product(chan, prep, pairing=crossed)
        self.assert_rows_make_operator(tensor_product(inner, chan, pairing=PartyPairing(
            (("A", "M", "C"), ("B", "P", "D")))))
        self.assert_rows_make_operator(tensor_product(prep, inner, pairing=PartyPairing(
            (("M", "A", "C"), ("P", "B", "D")))))
        self.assert_rows_make_operator(tensor_product(tensor_product(h, chan), prep))


def count_builds(monkeypatch) -> list[int]:
    """Wrap ``product._built`` for the rest of the test; the returned list
    collects the dimension of every operator it makes."""
    dims, real = [], product._built

    def spy(w, z, pairing, layout):
        dims.append(layout.dim)
        return real(w, z, pairing, layout)

    monkeypatch.setattr(product, "_built", spy)
    return dims


class TestLazyOperator:
    """A built product makes its operator only when ``op`` is read."""

    def test_dim_6561_product_is_decided_from_its_factors(self, monkeypatch):
        """``twoway-d3`` squared: its operator alone would be 689 MB."""
        w = gallery_entry("twoway-d3").process
        builds = count_builds(monkeypatch)
        tracemalloc.start()
        try:
            p = tensor_product(w, w)
            report = is_valid_process(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.dim == 6561 and builds == []
        assert peak < 64 * 2 ** 20, peak
        assert report.verdict is False and report.verdict == find_blocking_pairs(w, w).verdict
        assert report.trace_defect == 0.0 and len(report.forbidden_terms) == 1
        assert report.forbidden_terms == loop_forbidden_terms(p) and builds == []

    def test_nested_products_never_build(self, monkeypatch):
        """The cyclic triple, built as ``(x y) z`` (dim 4096), is decided with
        no operator made, and so are the searches, folds and signalling
        queries on a built product."""
        x, y, z = cyclic_triple()
        builds = count_builds(monkeypatch)
        xy = tensor_product(x, y)
        p = tensor_product(xy, z)
        forbidden = is_valid_process(p).forbidden_terms
        assert len(forbidden) == 1 and forbidden == loop_forbidden_terms(p)
        assert find_blocking_pairs(xy, z).verdict is False
        assert check_sequence([xy, z]).first_invalid_step == 0
        assert signalling_directions(xy, "X", "Y") and not signalling_directions(xy, "Y", "X")
        assert builds == []

    def test_triple_with_idle_qubits_is_decided_at_dim_262144(self, monkeypatch):
        """The cyclic triple with a qubit idle party in place of each 1->1
        one: its product's operator would take 1 TiB, and it is decided from
        the records alone, as the fold decides it."""
        builds = count_builds(monkeypatch)
        factors = []
        for f in cyclic_triple():
            idle = PartyLayout.of(*((q.name, 2, 2) if q.d_in == 1 else (q.name, 1, 1)
                                    for q in f.layout.parties))
            factors.append(tensor_product(f, state_process(maximally_mixed(2), idle)))
        p = tensor_product(tensor_product(factors[0], factors[1]), factors[2])
        assert [f.dim for f in factors] == [64] * 3 and p.dim == 2 ** 18
        report = is_valid_process(p)
        assert report.verdict is False and report.forbidden_terms
        assert check_sequence(factors).first_invalid_step == 1
        assert all(is_valid_process(f).verdict for f in factors)
        assert builds == []

    def test_a_first_read_makes_each_level_once(self, monkeypatch):
        h = twoway_channel_process(2)
        chan, prep = prep_measure_pair()
        want = dense_product(h, chan).op
        inner = tensor_product(h, chan)
        p = tensor_product(inner, prep)
        builds = count_builds(monkeypatch)
        assert p.op is p.op and p.op is p._factors.op
        assert sorted(builds) == [64, 256]
        assert inner.op.tobytes() == want.tobytes()
        assert sorted(builds) == [64, 256]
        assert two_party_product_invalid(inner, h) is True and sorted(builds) == [64, 256]


def count_calls(monkeypatch, owner, name) -> list:
    """Wrap ``owner.name`` for the rest of the test; the returned list
    collects the first argument of every call."""
    calls, real = [], getattr(owner, name)

    def spy(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, staticmethod(spy) if isinstance(owner, type) else spy)
    return calls


class TestFactorsOnly:
    """A built product holds its factors and nothing else: ``tensor_product``
    extracts, eigendecomposes and merges nothing, and the first question
    merges the product's record from its factors' records, once per level."""

    def test_building_does_no_numerical_work(self, monkeypatch):
        h = twoway_channel_process(2)
        chan, prep = prep_measure_pair()
        records = count_calls(monkeypatch, FactorRecord, "of")
        extracted = count_calls(monkeypatch, hsbasis, "_extract")
        merged = count_calls(monkeypatch, product, "_merge_records")
        eigvalsh_dims = record_eigvalsh_dims(monkeypatch)
        inner = tensor_product(h, chan)
        p = tensor_product(inner, prep)
        assert records == extracted == merged == eigvalsh_dims == []
        report = is_valid_process(p)
        # one record per factor, one merge per level, and the product's own
        assert sorted(len(a) for a in extracted) == sorted(eigvalsh_dims) == [4, 4, 16]
        assert [m.layout.dim for m in merged] == [16, 64]
        assert len(records) == 5 and "op" not in vars(p) and "op" not in vars(inner)
        del records[:], extracted[:], merged[:], eigvalsh_dims[:]
        assert is_valid_process(p) == report
        find_blocking_pairs(inner, p)
        assert extracted == merged == eigvalsh_dims == [] and len(records) == 3
        assert report.verdict == is_valid_process(ProcessMatrix(p.layout, p.op)).verdict

    def test_a_process_asked_against_itself_is_reduced_once(self, monkeypatch):
        """A square keeps one copy of its factor, and each of the three
        self-pair questions extracts the operator once and eigendecomposes
        it at most once."""
        w = twoway_channel_process(2)
        square = tensor_product(w, w)
        assert square._factors.w is square._factors.z
        extracted = count_calls(monkeypatch, hsbasis, "_extract")
        eigvalsh_dims = record_eigvalsh_dims(monkeypatch)
        for question, spectra in ((lambda: is_valid_process(square), [16]),
                                  (lambda: find_blocking_pairs(w, w), [16]),
                                  (lambda: two_party_product_invalid(w, w), [])):
            del extracted[:], eigvalsh_dims[:]
            question()
            assert [len(a) for a in extracted] == [16] and eigvalsh_dims == spectra

    def test_six_nested_twoway_products(self):
        """``twoway-d2`` nested six times (dim 16.8 M, a 4.5 PB operator) is
        decided from its factors' records, at a small traced peak."""
        h = gallery_entry("twoway-d2").process
        p = h
        for _ in range(5):
            p = tensor_product(p, h)
        tracemalloc.start()
        try:
            report = is_valid_process(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.dim == 16 ** 6 and "op" not in vars(p)
        assert peak < 16 * 2 ** 20, peak
        assert report.verdict is False and report.trace_defect == 0.0
        assert report.verdict == check_sequence([h] * 6).verdict
        assert report.forbidden_terms == loop_forbidden_terms(p)


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


def _split(p):
    return linalg._pattern_weights(p.op, p.layout.subsystem_dims())


def _check(w, z, pairing):
    return _pattern_check(w, z, FactorRecord.of(w), FactorRecord.of(z), pairing)


SWAPPED = PartyPairing((("X", "Y", "P"), ("Y", "X", "Q")))


class TestPatternCheck:
    """The cross-check of ``procval product``: the factors' pattern weights,
    merged by OR-convolution, against the split of the record-free built
    product, and its verdict against dense validation."""

    @staticmethod
    def pairs():
        two, two3, xy = (gallery_entry(name).process
                         for name in ("twoway-d2", "twoway-d3", "oneway-xy-d2"))
        x, y, z = cyclic_triple()
        rng = np.random.default_rng(8)
        a, b = (ProcessMatrix(THREE_PARTIES, random_hermitian(16, rng)) for _ in range(2))
        return [(two, xy, None),
                (two3, two, None),
                (two, xy, SWAPPED),
                (x, y, None),
                (tensor_product(x, y), z, None),
                (a, b, ROTATED)]

    def test_merged_weights_match_the_dense_split(self):
        for w, z, pairing in self.pairs():
            pairing = _resolve_pairing(w.layout, z.layout, pairing)
            got = _merge_weights(_split(w), _split(z), w.layout, z.layout, pairing)
            want = _split(dense_product(w, z, pairing))
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * want.sum()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_factor_pairs())
    def test_merged_weights_on_random_layouts(self, case):
        w, z, pairing = case
        got = _merge_weights(_split(w), _split(z), w.layout, z.layout, pairing)
        want = _split(dense_product(w, z, pairing))
        assert np.abs(got - want).max() <= 1e-14 * want.sum()

    def test_forbidden_weight_is_the_dense_forbidden_part(self):
        for w, z, pairing in self.pairs():
            pairing = _resolve_pairing(w.layout, z.layout, pairing)
            want = dense_forbidden_weight(dense_product(w, z, pairing))
            assert _check(w, z, pairing)[1] == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_verdict_matches_dense_validation_on_random_suite(self):
        suite = bipartite_qubit_suite(seed=99, n_mixtures=4, n_random=4)
        for w, z in suite_pairs(suite, seed=3, n=40):
            for pairing in (None, SWAPPED):
                pairing = _resolve_pairing(w.layout, z.layout, pairing)
                got = _check(w, z, pairing)[0]
                assert got == is_valid_process(dense_product(w, z, pairing)).verdict

    def test_psd_and_trace_fail_the_check(self):
        """An input that fails only the PSD check (``I/4 + s(0,0,3,0)/2``,
        a pure input on Y with eigenvalue ``-1/4``) or only the trace check
        makes the product fail, as dense validation does."""
        layout = PartyLayout.of(("X", 2, 2), ("Y", 2, 2))
        mixed = ProcessMatrix(layout, np.eye(16) / 4)
        negative = ProcessMatrix(layout, mixed.op + hsbasis.reconstruct(
            [HSTerm((0, 0, 3, 0), 0.5)], layout.subsystem_dims()))
        report = is_valid_process(negative)
        assert report.psd_defect == pytest.approx(0.25) and report.trace_defect == 0
        assert not report.forbidden_terms
        pairing = _resolve_pairing(layout, layout, None)
        for bad in (negative, ProcessMatrix(layout, 2 * mixed.op)):
            assert _check(bad, mixed, pairing) == (False, 0.0)
            assert is_valid_process(dense_product(bad, mixed)).verdict is False


def test_ldexp_saturates_past_the_double_range():
    """The forbidden weight is scaled back by ``2**k``; past the double
    range it is infinite with its sign, not an OverflowError."""
    assert product._ldexp(0.75, 4) == 12.0
    assert product._ldexp(0.75, 2000) == np.inf
    assert product._ldexp(-0.75, 2000) == -np.inf


class TestPatternPresence:
    """The presence rule of the pattern-weight check (``docs/tolerances.md``,
    *The pattern-weight cross-check*): a pattern of a dim-D operator is
    present when its weight exceeds ``1e-18 max(D, largest weight)``."""

    LAYOUT = PartyLayout.of(("X", 2, 2), ("Y", 2, 2))

    def op(self, coeffs):
        """``I/4`` plus each ``(indices, c)`` term of ``coeffs``."""
        dims = self.LAYOUT.subsystem_dims()
        return ProcessMatrix(self.LAYOUT, np.eye(16) / 4 + hsbasis.reconstruct(
            [HSTerm(t, c) for t, c in coeffs], dims))

    @pytest.mark.parametrize("factor, present", [(0.5, False), (2.0, True)])
    def test_one_term_pattern_at_its_edge(self, factor, present):
        """With no pattern weight above D, the rule is the per-term rule on a
        one-term pattern: ``c² > 1e-18``, so ``|c| > 1e-9``."""
        c = np.sqrt(factor) * 1e-9
        w = self.op([((0, 3, 3, 0), c)])
        assert _Weights.of(w).present[0, 1, 1, 0] == present
        assert (len(FactorRecord.of(w).values) == 2) == present

    @pytest.mark.parametrize("scale", [2.0 ** -1100, 1e-200, 1e160, 1e300])
    def test_scaled_operators(self, scale):
        """Far from 1 the weights are taken at a power-of-two scale, so none
        overflows: a large operator keeps its patterns (the largest weight
        sets the threshold), and a tiny one has none (the floor does)."""
        w = self.op([((0, 3, 3, 0), 1e-6)])
        got = _Weights.of(ProcessMatrix(self.LAYOUT, scale * w.op)).present
        if scale < 1:
            assert not got.any()
        else:
            assert np.array_equal(got, _Weights.of(w).present)
