"""Tests for channel sampling and the probability-normalization oracle."""

import numpy as np
import pytest

from procval import (
    PartyLayout,
    ProcessMatrix,
    gallery_entry,
    hsbasis,
    linalg,
    normalization_oracle,
    probability,
    random_cptp,
    random_valid_process,
    state_process,
    tensor_product,
    twoway_channel_process,
)
from procval.hsbasis import HSTerm
from procval.oracle import (
    depolarizing_channel,
    deterministic_battery,
    identity_channel,
    prepare_channel,
    routing_swap_channel,
)
from procval.process import classify_term

from helpers import QUBIT_BIPARTITE


class TestChannelConstructors:
    def test_identity_choi(self):
        ch = identity_channel(2)
        expect = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                expect[i * 2 + i, j * 2 + j] = 1.0
        assert np.array_equal(ch.choi, expect)
        ch.validate()

    def test_depolarizing_choi(self):
        ch = depolarizing_channel(2, 2)
        assert np.array_equal(ch.choi, np.kron(np.eye(2), np.eye(2) / 2))
        ch.validate()

    def test_prepare_channel(self):
        ch = prepare_channel(3, 2, 1)
        ch.validate()
        with pytest.raises(ValueError):
            prepare_channel(2, 2, 5)

    def test_routing_swap(self):
        ch = routing_swap_channel(2, 2)
        ch.validate()
        # forwarding both factors swaps a product input
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        rho = np.kron(np.diag([1.0, 0.0]), np.diag([0.25, 0.75]))
        assert np.abs(swap @ rho @ swap.T
                      - np.kron(np.diag([0.25, 0.75]), np.diag([1.0, 0.0]))).max() < 1e-14

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            from procval.oracle import ChoiChannel
            ChoiChannel(d_in=2, d_out=2, choi=np.eye(3))


class TestRandomCptp:
    def test_samples_satisfy_channel_invariants(self):
        for k in range(100):
            ch = random_cptp(2, 2, seed=k)
            assert linalg.min_eigenvalue(ch.choi) >= -1e-10
            marginal = linalg.partial_trace(ch.choi, (2, 2), {1})
            assert np.abs(marginal - np.eye(2)).max() < 1e-10

    def test_rectangular_dims(self):
        ch = random_cptp(3, 2, seed=5)
        ch.validate()
        assert ch.choi.shape == (6, 6)

    def test_deterministic_for_fixed_seed(self):
        a = random_cptp(2, 3, seed=42)
        b = random_cptp(2, 3, seed=42)
        assert np.array_equal(a.choi, b.choi)
        c = random_cptp(2, 3, seed=43)
        assert not np.array_equal(a.choi, c.choi)

    def test_trivial_environment_gives_unitary_channel(self):
        ch = random_cptp(3, 3, env_dim=1, seed=7)
        ch.validate()
        # rank-one Choi spectrum: a single eigenvalue d_in
        eigs = np.sort(np.linalg.eigvalsh(ch.choi))
        assert eigs[-1] == pytest.approx(3.0, abs=1e-10)
        assert np.abs(eigs[:-1]).max() < 1e-10

    def test_isometry_guard(self):
        with pytest.raises(ValueError, match="isometry"):
            random_cptp(4, 1, env_dim=2, seed=0)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            random_cptp(1 << 7, 1 << 7, seed=0)


class TestProbability:
    def test_state_process_is_normalized_for_any_channel(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        w = state_process(rho, PartyLayout.of(("A", 2, 2)))
        for k in range(25):
            p = probability(w, [random_cptp(2, 2, seed=k)])
            assert p == pytest.approx(1.0, abs=1e-12)

    def test_twoway_with_identity_channels(self):
        w = twoway_channel_process(2)
        p = probability(w, [identity_channel(2), identity_channel(2)])
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_loop_routing_breaks_normalization_of_squared_twoway(self):
        w = twoway_channel_process(2)
        prod = tensor_product(w, w)
        swap = routing_swap_channel(2, 2)
        p = probability(prod, [swap, swap])
        assert p == pytest.approx(1.5, abs=1e-12)
        # routing at only one merged party leaves the loop open
        p_open = probability(prod, [identity_channel(4), swap])
        assert p_open == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        w = twoway_channel_process(2)
        with pytest.raises(ValueError):
            probability(w, [identity_channel(4), identity_channel(2)])
        with pytest.raises(ValueError):
            probability(w, [identity_channel(2)])

    def test_transpose_convention_is_immaterial(self):
        w = twoway_channel_process(2)
        chans = [random_cptp(2, 2, seed=3), random_cptp(2, 2, seed=4)]
        c_tot = linalg.tensor(*(c.choi for c in chans))
        lhs = np.trace(w.op @ c_tot.T)
        rhs = np.trace(w.op.T @ c_tot)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestNormalizationOracle:
    def test_valid_gallery_entries_pass(self):
        for name in ("twoway-d2", "twoway-d3", "oneway-xy-d2",
                     "state-maxmix-d2", "state-bell-d2"):
            verdict = normalization_oracle(gallery_entry(name).process,
                                           samples=50, seed=11)
            assert verdict.max_deviation < 1e-9, name

    def test_squared_twoway_caught_by_battery_alone(self):
        w = twoway_channel_process(2)
        prod = tensor_product(w, w)
        verdict = normalization_oracle(prod, samples=0, seed=0)
        assert verdict.max_deviation > 1e-6
        assert verdict.max_deviation == pytest.approx(0.5, abs=1e-10)
        assert "route" in verdict.witness_label
        assert len(verdict.witness) == 2

    def test_battery_only_on_valid_process(self):
        w = gallery_entry("state-maxmix-d2").process
        verdict = normalization_oracle(w, samples=0, seed=0)
        assert verdict.max_deviation < 1e-12

    def test_deterministic(self):
        w = twoway_channel_process(2)
        a = normalization_oracle(w, samples=30, seed=5)
        b = normalization_oracle(w, samples=30, seed=5)
        assert a.max_deviation == b.max_deviation
        assert a.evaluations == b.evaluations

    def test_degenerate_party_dimensions(self):
        layout = PartyLayout.of(("P", 1, 2), ("M", 2, 1))
        phi = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                phi[i * 2 + i, j * 2 + j] = 1.0
        w = ProcessMatrix(layout, phi)
        verdict = normalization_oracle(w, samples=30, seed=3)
        assert verdict.max_deviation < 1e-9

    def test_battery_covers_merged_party_routings(self):
        prod = tensor_product(twoway_channel_process(2), twoway_channel_process(2))
        labels = {tuple(c.label for c in chans)
                  for chans in deterministic_battery(prod.layout)}
        assert ("route(2x2->swap)", "route(2x2->swap)") in labels

    def test_non_finite_probability_fails(self):
        w = twoway_channel_process(2)
        op = w.op.copy()
        op[0, 1] = np.nan
        verdict = normalization_oracle(ProcessMatrix(w.layout, op), samples=3, seed=0)
        assert verdict.max_deviation == np.inf
        assert verdict.witness

    @pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3])
    def test_deviation_is_linear_in_a_forbidden_kick(self, eps):
        """Maximally mixed two-party qubit process plus ``eps`` times Z on both
        outputs: p - 1 = eps * tr(Z N_X(I)) * tr(Z N_Y(I)), and a channel that
        prepares |0> gives |tr(Z N(I))| = 2, the largest any channel gives, so
        the worst deviation is exactly 4 * eps."""
        maxmix = np.eye(16) / 4.0
        z = np.diag([1.0, -1.0])
        kick = linalg.tensor(np.eye(2), z, np.eye(2), z)
        w = ProcessMatrix(QUBIT_BIPARTITE, maxmix + eps * kick)
        verdict = normalization_oracle(w, samples=20, seed=0)
        assert verdict.max_deviation == pytest.approx(4.0 * eps, rel=1e-6)

    def test_sample_count_guard(self):
        with pytest.raises(ValueError):
            normalization_oracle(twoway_channel_process(2), samples=-1)


def _forbidden_patterns(layout):
    import itertools
    sizes = [d * d for d in layout.subsystem_dims()]
    out = []
    for idx in itertools.product(*(range(s) for s in sizes)):
        sig = classify_term(HSTerm(idx, 1.0), layout)
        if not sig.is_trivial() and not sig.is_allowed():
            out.append(idx)
    return out


class TestOracleAgreesWithTermRule:
    def test_detection_suite(self):
        rng = np.random.default_rng(2024)
        forbidden = _forbidden_patterns(QUBIT_BIPARTITE)
        dims = QUBIT_BIPARTITE.subsystem_dims()

        valid = [random_valid_process(QUBIT_BIPARTITE, seed=int(rng.integers(2 ** 62)))
                 for _ in range(50)]
        violators = []
        for k in range(50):
            base = valid[k].op
            pattern = forbidden[int(rng.integers(len(forbidden)))]
            bump = hsbasis.reconstruct([HSTerm(pattern, 0.05)], dims)
            violators.append(ProcessMatrix(QUBIT_BIPARTITE, base + bump))

        for w in valid:
            verdict = normalization_oracle(w, samples=40, seed=1)
            assert verdict.max_deviation < 1e-9

        missed = []
        for i, w in enumerate(violators):
            verdict = normalization_oracle(w, samples=200, seed=1)
            if verdict.max_deviation <= 1e-6:
                missed.append(i)
        rate = 1.0 - len(missed) / len(violators)
        print(f"violator detection rate: {rate:.2%} ({len(missed)} missed)")
        assert rate >= 0.95
        # misses, if any, get a deeper search
        for i in missed:
            verdict = normalization_oracle(violators[i], samples=2000, seed=2)
            assert verdict.max_deviation > 1e-6
