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
from procval import oracle
from procval.hsbasis import HSTerm
from procval.oracle import (
    ChoiChannel,
    _PartySweep,
    _sweep_probabilities,
    depolarizing_channel,
    identity_channel,
    prepare_channel,
    unitary_channel,
)
from procval.process import classify_term

from helpers import QUBIT_BIPARTITE, SQUARED_TWOWAY_WITNESS


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

    @pytest.mark.parametrize("dims, env_dim, message", [
        ((0, 2), None, "channel dimensions must be >= 1"),
        ((2, 0), None, "channel dimensions must be >= 1"),
        ((2, 2), 0, "environment dimension must be >= 1"),
    ])
    def test_dimensions_below_one(self, dims, env_dim, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            random_cptp(*dims, env_dim=env_dim, seed=0)

    @pytest.mark.parametrize("diagonal, message", [
        ([1.5, -0.5], "Choi operator is not PSD: min eigenvalue -5.000e-01"),
        ([0.5, 0.25], "channel is not trace preserving: defect 2.500e-01"),
    ])
    def test_validate_names_the_failed_condition(self, diagonal, message):
        """A 1 -> 2 Choi operator is a state scaled by its trace."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            ChoiChannel(1, 2, np.diag(diagonal)).validate()


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
        # forwards the first input qubit to the second output slot and back
        u = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                u[j * 2 + i, i * 2 + j] = 1.0
        swap = unitary_channel(u, label="swap")
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
        """The sweep alone (no samples) exposes the loop, by exactly 2**-7."""
        w = twoway_channel_process(2)
        prod = tensor_product(w, w)
        verdict = normalization_oracle(prod, samples=0, seed=0)
        assert verdict.max_deviation > 1e-6
        assert verdict.max_deviation == pytest.approx(2.0 ** -7, abs=1e-12)
        assert verdict.witness_label == SQUARED_TWOWAY_WITNESS
        assert len(verdict.witness) == 2
        for ch in verdict.witness:
            ch.validate()
        assert abs(probability(prod, verdict.witness) - 1.0) == pytest.approx(2.0 ** -7,
                                                                             abs=1e-12)

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

    def test_imaginary_residue_raises(self):
        w = twoway_channel_process(2)
        op = w.op.copy()
        op[0, 5] += 1e-3j  # not Hermitian
        with pytest.raises(ValueError, match="imaginary residue"):
            normalization_oracle(ProcessMatrix(w.layout, op), samples=0)

    def test_probability_residue_raises(self):
        w = twoway_channel_process(2)
        op = w.op.copy()
        op[0, 0] += 1e-3j  # tr(W C^T) gains 1e-3j * C[0, 0] = 1e-3j / 4
        with pytest.raises(ValueError, match="probability has imaginary residue 2.500e-04"):
            probability(ProcessMatrix(w.layout, op), [depolarizing_channel(2)] * 2)

    def test_sweep_and_probability_share_one_residue_rule(self, monkeypatch):
        seen, real = [], oracle._imaginary_residue
        monkeypatch.setattr(oracle, "_imaginary_residue", lambda p: seen.append(np.shape(p)) or real(p))
        normalization_oracle(twoway_channel_process(2), samples=1)
        assert seen == [(14 * 14,), ()]

    def test_evaluations_count_sweep_tuples_and_samples(self):
        # a qubit party has 2 preparations and 4 * 3 tilts
        verdict = normalization_oracle(twoway_channel_process(2), samples=7, seed=0)
        assert verdict.evaluations == 14 * 14 + 7

    def test_default_draws_no_samples(self):
        w = twoway_channel_process(2)
        a, b = normalization_oracle(w), normalization_oracle(w, samples=0, seed=5)
        assert (a.max_deviation, a.witness_label) == (b.max_deviation, b.witness_label)
        assert a.evaluations == 14 * 14

    def test_one_party_sixteen_dimensional_document(self):
        """Four one-party qubit states merged into one 16 -> 16 party (dim
        256): the sweep has 16 + 256 * 255 members and never stacks their
        Choi operators. An output-only term breaks it."""
        s = gallery_entry("state-maxmix-d2").process
        w = tensor_product(tensor_product(s, s), tensor_product(s, s))
        assert w.layout.subsystem_dims() == (16, 16)
        verdict = normalization_oracle(w, samples=0)
        assert verdict.evaluations == 16 + 256 * 255
        assert verdict.max_deviation <= 1e-12
        z = np.diag([1.0, -1.0] * 8)
        bad = ProcessMatrix(w.layout, w.op + 0.01 * np.kron(np.eye(16), z))
        verdict = normalization_oracle(bad, samples=0)
        assert verdict.max_deviation > 1e-6
        assert abs(probability(bad, verdict.witness) - 1.0) == pytest.approx(
            verdict.max_deviation, abs=1e-12)


SWEEP_DIMS = [(1, 2), (2, 1), (2, 2), (3, 2), (2, 3), (4, 4)]


class TestSweep:
    @pytest.mark.parametrize("d_in, d_out", SWEEP_DIMS)
    def test_members_are_channels_spanning_the_channel_set(self, d_in, d_out):
        sweep = _PartySweep.of(d_in, d_out)
        assert len(sweep.pair) == d_out + d_in ** 2 * (d_out ** 2 - 1)
        members = [sweep.channel(m) for m in range(len(sweep.pair))]
        for ch in members:
            assert (ch.d_in, ch.d_out) == (d_in, d_out)
            ch.validate()
        diffs = np.array([(ch.choi - members[0].choi).reshape(-1) for ch in members])
        rank = np.linalg.matrix_rank(np.concatenate([diffs.real, diffs.imag], axis=1))
        assert rank + 1 == d_in ** 2 * (d_out ** 2 - 1) + 1
        assert [ch.label for ch in members[:d_out]] == [f"prepare|{k}>" for k in range(d_out)]

    def test_sets_are_built_once_per_party_shape(self):
        sweep = _PartySweep.of(2, 3)
        assert _PartySweep.of(2, 3) is sweep
        for a in (sweep.in_rows, sweep.out_rows, sweep.pair):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        w = twoway_channel_process(2)
        a, b = normalization_oracle(w), normalization_oracle(w)
        assert (a.witness_label, a.evaluations) == (b.witness_label, b.evaluations)
        assert all(x.label == y.label and np.array_equal(x.choi, y.choi)
                   for x, y in zip(a.witness, b.witness))

    @pytest.mark.parametrize("layout", [
        PartyLayout.of(("A", 1, 2), ("B", 2, 1), ("C", 2, 2)),
        PartyLayout.of(("A", 3, 2), ("B", 2, 1)),
    ])
    def test_each_value_is_the_probability_of_its_member_tuple(self, layout):
        """The subsystem-by-subsystem contraction against ``probability`` of
        the built member channels, on an arbitrary Hermitian operator."""
        rng = np.random.default_rng(7)
        g = rng.normal(size=(layout.dim,) * 2) + 1j * rng.normal(size=(layout.dim,) * 2)
        w = ProcessMatrix(layout, (g + g.conj().T) / 2)
        sweeps = [_PartySweep.of(p.d_in, p.d_out) for p in layout.parties]
        values = _sweep_probabilities(w, sweeps).reshape([len(s.pair) for s in sweeps])
        for idx in np.ndindex(values.shape):
            chans = [s.channel(m) for s, m in zip(sweeps, idx)]
            assert abs(values[idx] - probability(w, chans)) < 1e-12


def _forbidden_patterns(layout):
    import itertools
    sizes = [d * d for d in layout.subsystem_dims()]
    out = []
    for idx in itertools.product(*(range(s) for s in sizes)):
        sig = classify_term(HSTerm(idx, 1.0), layout)
        if not sig.is_trivial() and not sig.is_allowed():
            out.append(idx)
    return out


def _violators(valid, rng):
    """Each process of ``valid`` plus 0.05 times one randomly chosen forbidden
    basis term."""
    layout = valid[0].layout
    forbidden = _forbidden_patterns(layout)
    out = []
    for w in valid:
        pattern = forbidden[int(rng.integers(len(forbidden)))]
        bump = hsbasis.reconstruct([HSTerm(pattern, 0.05)], layout.subsystem_dims())
        out.append(ProcessMatrix(layout, w.op + bump))
    return out


class TestOracleAgreesWithTermRule:
    def test_detection_suite(self):
        """Every valid process passes and every violator fails, both at zero
        samples: the sweep decides normalization exactly."""
        rng = np.random.default_rng(2024)
        valid = [random_valid_process(QUBIT_BIPARTITE, seed=int(rng.integers(2 ** 62)))
                 for _ in range(50)]
        for w in valid:
            assert normalization_oracle(w, samples=0).max_deviation <= 1e-12
            assert normalization_oracle(w, samples=40, seed=1).max_deviation < 1e-9
        for w in _violators(valid, rng):
            assert normalization_oracle(w, samples=0).max_deviation > 1e-6

    def test_sets_are_built_once_per_party_shape(self):
        sweep = _PartySweep.of(2, 3)
        assert _PartySweep.of(2, 3) is sweep
        for a in (sweep.in_rows, sweep.out_rows, sweep.pair):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        w = twoway_channel_process(2)
        a, b = normalization_oracle(w), normalization_oracle(w)
        assert (a.witness_label, a.evaluations) == (b.witness_label, b.evaluations)
        assert all(x.label == y.label and np.array_equal(x.choi, y.choi)
                   for x, y in zip(a.witness, b.witness))

    @pytest.mark.parametrize("layout", [
        PartyLayout.of(("A", 1, 2), ("B", 2, 1), ("C", 2, 2)),
        PartyLayout.of(("A", 3, 2), ("B", 2, 3)),
    ], ids=["A(1-2)B(2-1)C(2-2)", "A(3-2)B(2-3)"])
    def test_detection_on_mixed_layouts(self, layout):
        valid = [random_valid_process(layout, seed=k) for k in range(30)]
        for w in valid:
            assert normalization_oracle(w, samples=0).max_deviation <= 1e-12
        for w in _violators(valid, np.random.default_rng(2025)):
            assert normalization_oracle(w, samples=0).max_deviation > 1e-6
