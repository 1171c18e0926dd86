"""Tests for the fixture gallery: every entry must match its advertised
verdicts and the advertised product behaviour."""

import numpy as np
import pytest

from procval import (
    PartyLayout,
    PartyReduction,
    classical_corr,
    find_blocking_pairs,
    gallery_entry,
    gallery_names,
    is_valid_process,
    linalg,
    maximally_mixed,
    mixture,
    oneway_channel_process,
    random_valid_process,
    reduced_process,
    signalling_directions,
    state_process,
    twoway_channel_process,
)

from helpers import QUBIT_BIPARTITE


def test_every_entry_matches_its_expectations():
    for name in gallery_names():
        entry = gallery_entry(name)
        report = is_valid_process(entry.process)
        assert report.verdict == entry.valid, name
        layout = entry.process.layout
        for frm in layout.names:
            for to in layout.names:
                if frm == to:
                    continue
                expect = (frm, to) in entry.signalling
                assert signalling_directions(entry.process, frm, to) == expect, (
                    name, frm, to)


def test_names_are_stable():
    assert gallery_names() == [
        "oneway-xy-d2",
        "oneway-yx-d2",
        "state-bell-d2",
        "state-maxmix-d2",
        "state-product-d2",
        "twoway-d2",
        "twoway-d3",
        "twoway-d4",
    ]
    with pytest.raises(KeyError, match="unknown"):
        gallery_entry("nope")


class TestMaximallyMixed:
    def test_qubit(self):
        assert np.array_equal(maximally_mixed(2), np.diag([0.5, 0.5]))

    def test_four_level(self):
        assert np.array_equal(maximally_mixed(4), np.eye(4) / 4)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_unit_trace(self, d):
        assert maximally_mixed(d).trace() == pytest.approx(1.0)

    def test_guard(self):
        with pytest.raises(ValueError):
            maximally_mixed(0)


class TestClassicalCorr:
    def test_qubit_form(self):
        z = np.diag([1.0, -1.0])
        expect = (np.eye(4) + linalg.tensor(z, z)) / 4.0
        assert np.abs(classical_corr(2) - expect).max() < 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_marginals_maximally_mixed(self, d):
        rho = classical_corr(d)
        for side in ({0}, {1}):
            marg = linalg.partial_trace(rho, (d, d), side)
            assert np.abs(marg - np.eye(d) / d).max() < 1e-14

    def test_term_content(self):
        from procval import decompose
        terms = {t.indices: t.coeff for t in decompose(classical_corr(2), (2, 2))}
        assert terms == {(0, 0): 0.25, (3, 3): 0.25}

    def test_guard(self):
        with pytest.raises(ValueError):
            classical_corr(1)


class TestTwowayProcess:
    @pytest.mark.parametrize("d", [2, 3])
    def test_valid_with_right_trace(self, d):
        w = twoway_channel_process(d)
        assert w.dim == d ** 4
        assert w.op.trace().real == pytest.approx(d * d)
        assert is_valid_process(w).verdict

    @pytest.mark.parametrize("d", [2, 3])
    def test_squared_is_invalid(self, d):
        w = twoway_channel_process(d)
        assert not find_blocking_pairs(w, w).verdict

    def test_merged_form_reduces_to_two_qubit_copies(self):
        w4 = twoway_channel_process(4)
        w2 = twoway_channel_process(2)
        for slot in (0, 1):
            split = PartyReduction((2, 2), (2, 2), (slot,))
            got = reduced_process(w4, {"X": split, "Y": split})
            assert np.linalg.norm(got.op - w2.op) < 1e-10


class TestOnewayProcess:
    def test_trace_and_direction(self):
        w = oneway_channel_process(2, "xy")
        assert w.op.trace().real == pytest.approx(4.0)
        assert signalling_directions(w, "X", "Y")
        assert not signalling_directions(w, "Y", "X")

    def test_direction_guard(self):
        with pytest.raises(ValueError):
            oneway_channel_process(2, "sideways")

    def test_product_truth_table(self):
        xy = oneway_channel_process(2, "xy")
        yx = oneway_channel_process(2, "yx")
        assert find_blocking_pairs(xy, xy).verdict
        assert find_blocking_pairs(yx, yx).verdict
        assert not find_blocking_pairs(xy, yx).verdict
        assert not find_blocking_pairs(yx, xy).verdict


class TestStateProcess:
    def test_requires_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            state_process(np.eye(2), PartyLayout.of(("A", 2, 2)))

    def test_requires_psd(self):
        with pytest.raises(ValueError, match="positive"):
            state_process(np.diag([1.5, -0.5]), PartyLayout.of(("A", 2, 2)))

    def test_requires_matching_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            state_process(maximally_mixed(2), QUBIT_BIPARTITE)

    def test_trace_is_output_dimension(self):
        w = state_process(linalg.tensor(maximally_mixed(2), maximally_mixed(2)),
                          QUBIT_BIPARTITE)
        assert w.op.trace().real == pytest.approx(w.d_out)


class TestMixture:
    def test_valid_mixture_stays_valid(self):
        a = gallery_entry("twoway-d2").process
        b = gallery_entry("state-bell-d2").process
        assert is_valid_process(mixture([a, b], [0.3, 0.7])).verdict

    def test_weight_checks(self):
        a = gallery_entry("twoway-d2").process
        with pytest.raises(ValueError):
            mixture([a, a], [0.7, 0.7])
        with pytest.raises(ValueError):
            mixture([], [])

    def test_default_weights_are_equal(self):
        a = gallery_entry("twoway-d2").process
        b = gallery_entry("state-bell-d2").process
        assert np.array_equal(mixture([a, b]).op, mixture([a, b], [0.5, 0.5]).op)

    def test_layout_check(self):
        a = gallery_entry("twoway-d2").process
        b = gallery_entry("state-maxmix-d2").process
        with pytest.raises(ValueError):
            mixture([a, b])


class TestRandomValidProcess:
    def test_always_valid(self):
        for seed in range(20):
            w = random_valid_process(QUBIT_BIPARTITE, seed=seed)
            report = is_valid_process(w)
            assert report.verdict, (seed, report)

    def test_deterministic(self):
        a = random_valid_process(QUBIT_BIPARTITE, seed=9)
        b = random_valid_process(QUBIT_BIPARTITE, seed=9)
        assert np.array_equal(a.op, b.op)

    def test_too_many_patterns_refused(self):
        """16 qubit parties have ``4**32 = 2**64`` term patterns, which a
        product in int64 wraps to 0."""
        layout = PartyLayout.of(*((f"P{k}", 2, 2) for k in range(16)))
        with pytest.raises(ValueError, match="layout too large to enumerate term patterns densely"):
            random_valid_process(layout, seed=1)


def test_names_build_no_entry(monkeypatch):
    """``gallery_names`` reads the static list of entries: it builds no
    process (``twoway-d4`` alone is a dim-256 operator)."""
    from procval import gallery

    def refuse():
        raise AssertionError("gallery_names built an entry")

    monkeypatch.setattr(gallery, "_ENTRIES", {
        name: (refuse, *rest) for name, (_, *rest) in gallery._ENTRIES.items()})
    before = gallery._entry.cache_info()
    assert gallery_names() == sorted([
        "oneway-xy-d2", "oneway-yx-d2", "state-bell-d2", "state-maxmix-d2",
        "state-product-d2", "twoway-d2", "twoway-d3", "twoway-d4"])
    assert gallery._entry.cache_info() == before


def test_each_entry_is_built_once_and_kept():
    for name in gallery_names():
        assert gallery_entry(name) is gallery_entry(name)
    with pytest.raises(KeyError, match="unknown gallery entry 'nope'; available: oneway-xy-d2"):
        gallery_entry("nope")
