"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import contextlib
import functools
import io
import itertools

import numpy as np
import pytest

from procval import (
    PartyReduction,
    check_sequence,
    classify_term,
    find_blocking_pairs,
    gallery_entry,
    gallery_names,
    hsbasis,
    is_valid_process,
    linalg,
    normalization_oracle,
    oneway_channel_process,
    parse,
    reduced_process,
    serialize,
    tensor_product,
    two_party_product_invalid,
    twoway_channel_process,
)
from procval.cli import main as cli_main

from helpers import SQUARED_TWOWAY_WITNESS, bipartite_qubit_suite, dense_product, suite_pairs


def criterion(n, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {n}] FAIL - {desc}")
                raise
            print(f"[criterion {n}] PASS - {desc}")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def suite():
    return bipartite_qubit_suite(seed=20240811, n_mixtures=15, n_random=16)


@pytest.fixture(scope="module")
def pairs(suite):
    return suite_pairs(suite, seed=7, n=200)


@criterion(1, "two-way channel mixture: trace, positivity, exact term content")
def test_criterion_1_twoway_structure():
    w = twoway_channel_process(2)
    assert w.op.trace().real == 4.0
    assert w.d_out == 4
    assert linalg.min_eigenvalue(w.op) >= -1e-12
    terms = {t.indices: t for t in w.terms()}
    assert set(terms) == {(0, 0, 0, 0), (0, 3, 3, 0), (3, 0, 0, 3)}
    sig_a = classify_term(terms[(0, 3, 3, 0)], w.layout)
    sig_b = classify_term(terms[(3, 0, 0, 3)], w.layout)
    assert sig_a.type_string(w.layout) == "x2 y1"
    assert sig_b.type_string(w.layout) == "x1 y2"
    assert is_valid_process(w).verdict


@criterion(2, "squared two-way mixture rejected with the loop-building pair")
def test_criterion_2_counterexample():
    w = twoway_channel_process(2)
    prod = tensor_product(w, w)
    report = is_valid_process(prod)
    assert not report.verdict
    assert report.forbidden_terms
    assert all(sig.codes == ("12", "12") for _, sig in report.forbidden_terms)

    pair_report = find_blocking_pairs(w, w)
    got = [(a.indices, b.indices) for a, b in pair_report.blocking_pairs]
    assert got == [((0, 3, 3, 0), (3, 0, 0, 3)), ((3, 0, 0, 3), (0, 3, 3, 0))]
    assert all(cases == (("1", "2"), ("1", "2"))
               for cases in pair_report.per_party_cases)

    # the merged term carries Z exactly on (a2', a1'', b1', b2'') with the
    # product coefficient 1/8 * 1/8; refined order is
    # (a1', a1'', a2', a2'', b1', b1'', b2', b2'')
    coeffs = hsbasis.coefficient_tensor(prod.op, (2,) * 8)
    assert coeffs[(0, 3, 3, 0, 3, 0, 0, 3)] == pytest.approx(1 / 64, abs=1e-12)
    assert coeffs[(3, 0, 0, 3, 0, 3, 3, 0)] == pytest.approx(1 / 64, abs=1e-12)


@criterion(3, "blocking-pair verdict matches direct validation on 200 product pairs")
def test_criterion_3_pair_rule_equals_direct_check(pairs):
    agreements = 0
    verdicts = set()
    for w, z in pairs:
        pair_verdict = find_blocking_pairs(w, z).verdict
        direct_verdict = is_valid_process(dense_product(w, z)).verdict
        assert pair_verdict == direct_verdict
        agreements += 1
        verdicts.add(pair_verdict)
    assert agreements >= 200
    assert verdicts == {True, False}  # the suite exercises both outcomes


@criterion(4, "two-party signalling shortcut matches the blocking-pair rule")
def test_criterion_4_two_party_shortcut(pairs):
    for w, z in pairs:
        assert two_party_product_invalid(w, z) == (not find_blocking_pairs(w, z).verdict)
    xy = oneway_channel_process(2, "xy")
    yx = oneway_channel_process(2, "yx")
    truth_table = {
        (0, 0): False, (0, 1): True,
        (1, 0): True, (1, 1): False,
    }
    chans = [xy, yx]
    for (i, j), invalid in truth_table.items():
        assert two_party_product_invalid(chans[i], chans[j]) == invalid
        assert find_blocking_pairs(chans[i], chans[j]).verdict == (not invalid)


@criterion(5, "oracle: valid members within 1e-9; squared mixture exposed at --samples 0")
def test_criterion_5_oracle_agreement(suite):
    for k, w in enumerate(suite):
        verdict = normalization_oracle(w, samples=200, seed=1000 + k)
        assert verdict.max_deviation < 1e-9, (k, verdict.max_deviation)
    w = twoway_channel_process(2)
    verdict = normalization_oracle(tensor_product(w, w), samples=0, seed=0)
    assert verdict.max_deviation == pytest.approx(2.0 ** -7, abs=1e-12)
    assert verdict.witness
    assert verdict.witness_label == SQUARED_TWOWAY_WITNESS


@criterion(6, "merged-party process reduces to the qubit process on both halves")
def test_criterion_6_marginal_recovery():
    w4 = twoway_channel_process(4)
    w2 = twoway_channel_process(2)
    for slot in (0, 1):
        split = PartyReduction((2, 2), (2, 2), (slot,))
        got = reduced_process(w4, {"X": split, "Y": split})
        assert got.layout == w2.layout
        assert np.linalg.norm(got.op - w2.op) < 1e-10


@criterion(7, "sequence verdicts are independent of the construction order")
def test_criterion_7_order_independence():
    twoway = twoway_channel_process(2)
    xy = oneway_channel_process(2, "xy")
    yx = oneway_channel_process(2, "yx")
    state = gallery_entry("state-bell-d2").process

    for order in itertools.permutations([twoway, twoway, state]):
        assert check_sequence(list(order)).verdict is False
    for order in itertools.permutations([xy, yx, state]):
        assert check_sequence(list(order)).verdict is False
    for order in itertools.permutations([xy, xy, xy]):
        assert check_sequence(list(order)).verdict is True


@criterion(8, "numerical kernel invariants at stated tolerances")
def test_criterion_8_kernel():
    rng = np.random.default_rng(88)
    for d in (2, 3):
        a, b, c, e = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                      for _ in range(4))
        lhs = linalg.tensor(a, b) @ linalg.tensor(c, e)
        assert np.abs(lhs - linalg.tensor(a @ c, b @ e)).max() < 1e-12

    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    k = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    for discard in ({0}, {1}, {2}, {0, 2}):
        assert abs(np.trace(linalg.partial_trace(m, (2, 3, 2), discard)) - np.trace(m)) < 1e-12
        lin = linalg.partial_trace(2.0 * m - 0.5 * k, (2, 3, 2), discard)
        ref = (2.0 * linalg.partial_trace(m, (2, 3, 2), discard)
               - 0.5 * linalg.partial_trace(k, (2, 3, 2), discard))
        assert np.abs(lin - ref).max() < 1e-12

    perm = [2, 0, 1]
    fwd = linalg.permute_subsystems(m, (2, 3, 2), perm)
    back = linalg.permute_subsystems(fwd, (2, 2, 3), list(np.argsort(perm)))
    assert np.abs(back - m).max() < 1e-14

    ops = hsbasis.make_basis(2).ops
    for a_idx in itertools.product(range(4), repeat=2):
        for b_idx in itertools.product(range(4), repeat=2):
            sa = linalg.tensor(ops[a_idx[0]], ops[a_idx[1]])
            sb = linalg.tensor(ops[b_idx[0]], ops[b_idx[1]])
            expect = 4.0 if a_idx == b_idx else 0.0
            assert abs(np.trace(sa @ sb) - expect) < 1e-12


@criterion(9, "byte-exact fixture round trips and CLI exit-code contract")
def test_criterion_9_format_and_cli(tmp_path):
    for name in gallery_names():
        w = gallery_entry(name).process
        text = serialize(w)
        back = parse(text)
        assert back.op.tobytes() == w.op.tobytes()
        assert serialize(back) == text

    paths = {}
    for name in ("twoway-d2", "oneway-xy-d2", "oneway-yx-d2", "state-bell-d2"):
        p = tmp_path / f"{name}.json"
        p.write_text(serialize(gallery_entry(name).process), encoding="utf-8")
        paths[name] = str(p)
    w = twoway_channel_process(2)
    squared = tmp_path / "squared.json"
    squared.write_text(serialize(tensor_product(w, w)), encoding="utf-8")
    truncated = tmp_path / "truncated.json"
    truncated.write_text(serialize(w)[:100], encoding="utf-8")

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli_main(argv)

    for name, path in paths.items():
        assert run(["validate", path]) == 0, name
    assert run(["validate", str(squared)]) == 1
    assert run(["validate", str(truncated)]) == 2
    assert run(["product", paths["twoway-d2"], paths["twoway-d2"]]) == 1
    assert run(["product", paths["oneway-xy-d2"], paths["oneway-xy-d2"]]) == 0
    assert run(["product", paths["oneway-xy-d2"], paths["oneway-yx-d2"]]) == 1
    assert run(["oracle", paths["twoway-d2"], "--samples", "10", "--seed", "3"]) == 0
    assert run(["oracle", str(squared), "--samples", "0"]) == 1
