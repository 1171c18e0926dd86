"""Small operands skip the large-operator machinery, and the skip changes
no answer.

From ``linalg._LIVE_MIN`` operand entries on, coefficient extraction
multiplies only its live slices and a spectrum is read per coupled block
of the nonzero pattern; a record whose checked Hermiticity defect is
exactly 0 is eigendecomposed without its Hermitian-part copy. Each test
forces one side and compares the two: bit for bit, except that a block's
spectrum may differ from the whole operator's in the last bits, by at
most ``64 ε ‖W‖_F``. Tag patterns are grouped with a Python set, and are
checked against ``np.unique``."""

import contextlib
import itertools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procval import (
    PartyLayout,
    ProcessMatrix,
    check_sequence,
    find_blocking_pairs,
    gallery_entry,
    gallery_names,
    hsbasis,
    is_valid_process,
    linalg,
    random_valid_process,
    signalling_directions,
    state_process,
    tensor_product,
    two_party_product_invalid,
)
from procval import process
from procval.process import FactorRecord

from helpers import BASE_NAMES, cyclic_triple, expansion, random_hermitian, term_blocking_pairs


def bits(*values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


@contextlib.contextmanager
def large_operator_paths():
    """Every extraction step multiplies only its live slices and every
    spectrum is one ``eigvalsh`` of the Hermitian-part copy: the paths
    every operand took before they were selected by size."""
    real = linalg._hermitian_extremes
    with pytest.MonkeyPatch.context() as m:
        m.setattr(linalg, "_LIVE_MIN", 0)
        m.setattr(linalg, "_coupled_blocks", lambda h: None)
        # a nonzero defect keeps the copy
        m.setattr(linalg, "_hermitian_extremes", lambda a, norm, defect: real(a, norm, 1.0))
        yield


def extracted(op, dims, live_min):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(linalg, "_LIVE_MIN", live_min)
        return hsbasis._extract(op, dims)


def same_tensor(a, b) -> bool:
    """Equal bit for bit up to the sign of a zero: a slice that is left out
    is +0, and one that is multiplied can give -0 (``twoway-d3`` has 637
    such coefficients). ``x + 0.0`` is ``+0.0`` for either zero and ``x``
    otherwise."""
    return a.shape == b.shape and (a + 0.0).tobytes() == (b + 0.0).tobytes()


@st.composite
def sparse_hermitian(draw):
    """A Hermitian operator of dim <= 81 over 1 to 4 subsystems, with a drawn
    share of nonzero entries."""
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)
                      .filter(lambda d: math.prod(d) <= 81)))
    dim = math.prod(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from([0.01, 0.05, 0.2, 1.0]))
    g = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) * (
        rng.random((dim, dim)) < share)
    return (g + g.conj().T) / 2, dims


class TestContract:
    @settings(max_examples=60, deadline=None)
    @given(sparse_hermitian())
    def test_plain_and_live_slice_paths_agree(self, case):
        op, dims = case
        assert same_tensor(extracted(op, dims, 0), extracted(op, dims, 1 << 62))

    @pytest.mark.parametrize("w", BASE_NAMES)
    def test_dim_256_products_agree(self, w):
        """The made products of ``cli-docs``' product documents."""
        for z in BASE_NAMES:
            p = tensor_product(gallery_entry(w).process, gallery_entry(z).process)
            dims = p.layout.subsystem_dims()
            assert same_tensor(extracted(p.op, dims, 0), extracted(p.op, dims, 1 << 62))

    def test_small_operands_take_the_plain_path(self, monkeypatch):
        """A dim-32 extraction never looks for live slices; a dim-256 one
        does, at every step."""
        calls = []
        real = np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero", lambda a: calls.append(a.size) or real(a))
        layout = PartyLayout.of(("X", 2, 2), ("Y", 2, 2), ("Z", 1, 2))
        hsbasis._extract(random_valid_process(layout, seed=1).op, layout.subsystem_dims())
        assert calls == []
        p = tensor_product(gallery_entry("twoway-d2").process, gallery_entry("oneway-xy-d2").process)
        hsbasis._extract(p.op, p.layout.subsystem_dims())
        assert len(calls) == 4


class TestLayoutFields:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=6))
    def test_stored_fields_equal_their_recomputation(self, dims):
        layout = PartyLayout.of(*((f"P{k}", a, b) for k, (a, b) in enumerate(dims)))
        sub = tuple(d for pair in dims for d in pair)
        assert layout.subsystem_dims() == sub
        assert layout.names == tuple(p.name for p in layout.parties)
        assert layout.n_parties == len(dims)
        for got, want in ((layout.dim, sub), (layout.d_in, sub[0::2]), (layout.d_out, sub[1::2])):
            assert type(got) is int and got == int(np.prod(want))
        again = PartyLayout(list(layout.parties))
        assert again == layout and hash(again) == hash(layout)

    def test_gallery_layouts(self):
        for name in gallery_names():
            layout = gallery_entry(name).process.layout
            assert layout.dim == int(np.prod(layout.subsystem_dims()))
            assert layout.d_out == int(np.prod([p.d_out for p in layout.parties]))
            assert layout.d_in == int(np.prod([p.d_in for p in layout.parties]))

    def test_sizes_past_int64_are_exact(self):
        """``np.prod`` wrapped these to 0."""
        layout = PartyLayout.of(*((name, 2**22, 2**22) for name in "ABC"))
        assert layout.d_in == layout.d_out == 2**66 and layout.dim == 2**132

    def test_fold_whose_output_dimension_passes_int64(self):
        """The accumulated product of 22 maximally mixed three-qubit-party
        factors has d_out 2**66, and is valid: its trace is 8**22."""
        layout = PartyLayout.of(("A", 2, 2), ("B", 2, 2), ("C", 2, 2))
        s = state_process(np.eye(8, dtype=complex) / 8, layout)
        report = check_sequence([s] * 23)
        assert report.verdict is True
        assert all(step.w_valid and step.z_valid for step in report.steps)


class TestHermitianExtremes:
    def processes(self):
        """Operators whose Hermiticity defect is exactly 0, on layouts with
        small subsystems."""
        yield from (gallery_entry(name).process for name in gallery_names())
        rng = np.random.default_rng(5)
        for d_in, d_out in ((1, 1), (2, 1), (2, 3), (4, 4), (9, 9)):
            layout = PartyLayout.of(("A", d_in, d_out))
            yield ProcessMatrix(layout, random_hermitian(layout.dim, rng))
        p = tensor_product(gallery_entry("twoway-d2").process, gallery_entry("state-bell-d2").process)
        yield ProcessMatrix(p.layout, p.op)
        # zero parts of either sign: the copy's lower triangle differs in them
        signed = random_hermitian(4, rng)
        signed[1, 0] = complex(0.0, -0.0)
        signed[0, 1] = complex(-0.0, 0.0)
        yield ProcessMatrix(PartyLayout.of(("A", 2, 2)), signed)

    def test_without_the_copy_is_bit_identical(self):
        for w in self.processes():
            a = w.op
            assert linalg.hermiticity_defect(a) == 0.0
            lam = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
            assert bits(*linalg._hermitian_extremes(*linalg._checked(a))) == bits(lam[0], lam[-1])

    def test_records_read_their_extremes_as_the_dense_check_does(self):
        for w in self.processes():
            rec = FactorRecord.of(w)
            assert bits(rec.lam_min, rec.lam_max) == bits(*linalg.eigenvalue_range(w.op))

    def test_a_nonzero_defect_keeps_the_copy(self, monkeypatch):
        seen = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a) or real(a))
        w = gallery_entry("twoway-d2").process
        bent = w.op.copy()
        bent[0, 1] += 1e-15
        FactorRecord.of(w)
        FactorRecord.of(ProcessMatrix(w.layout, bent))
        assert seen[0] is w.op and seen[1] is not bent

    @pytest.mark.parametrize("w", BASE_NAMES)
    def test_gallery_pairs_read_by_block_and_whole(self, w):
        """The record-free copies of the 25 gallery qubit pairs (dim 256,
        coupled blocks of 1 to 4 entries): their extremes read per block
        (``_LIVE_MIN`` 0) are those of one whole ``eigvalsh`` (``_LIVE_MIN``
        past any size) within ``64 ε ‖W‖_F``, and so is their PSD defect."""
        for z in BASE_NAMES:
            p = tensor_product(gallery_entry(w).process, gallery_entry(z).process)
            copy = ProcessMatrix(p.layout, p.op)
            got = {}
            for live_min in (0, 1 << 62):
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(linalg, "_LIVE_MIN", live_min)
                    rec = FactorRecord.of(copy)
                    got[live_min] = (rec.lam_min, rec.lam_max, is_valid_process(copy).psd_defect)
            bound = 64 * 2.0 ** -52 * rec.norm
            assert np.abs(np.subtract(got[0], got[1 << 62])).max() <= bound, (w, z)

    def test_dim_4096_diagonal_makes_no_dim_squared_array(self):
        """The spectrum of a dim-4096 diagonal operator (268 MB) is read off
        its diagonal, at a traced peak far below one dim² array even of
        bools (16 MB)."""
        values = np.random.default_rng(7).normal(size=4096)
        values[::5] = 0.0
        a = np.zeros((4096, 4096), dtype=complex)
        a[np.diag_indices(4096)] = values
        norm = linalg.frobenius(a)
        tracemalloc.start()
        try:
            got = linalg._hermitian_extremes(a, norm, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (values.min(), values.max())
        assert peak < 16 * 2**20, peak


def answers(ps):
    """Every product answer about the factors ``ps`` (two for a pair),
    with each float as its bits."""
    w, z = ps[0], ps[-1]
    out = [find_blocking_pairs(w, z), check_sequence(ps)]
    if len(ps) == 2:
        report = is_valid_process(tensor_product(w, z))
        out.append((report, bits(report.psd_defect, report.trace_defect)))
        if w.layout.n_parties == 2:
            out.append(two_party_product_invalid(w, z))
    out += [signalling_directions(p, *p.layout.names[:2]) for p in ps if p.layout.n_parties > 1]
    return out


class TestAnswersUnchanged:
    PAIRS = [(a, b) for a, b in itertools.product(gallery_names(), repeat=2)
             if (a == "state-maxmix-d2") == (b == "state-maxmix-d2")]

    @pytest.mark.parametrize("names", PAIRS, ids="x".join)
    def test_gallery_pairs(self, names):
        ps = [gallery_entry(n).process for n in names]
        with large_operator_paths():
            want = answers(ps)
        assert answers(ps) == want
        listed = [((tw.indices, tz.indices), cases) for (tw, tz), cases in
                  zip(want[0].blocking_pairs, want[0].per_party_cases)]
        w, z = ps
        assert listed == [((a.indices, b.indices), cases) for (a, b), cases in
                          term_blocking_pairs(expansion(w), expansion(z), w.layout, z.layout)]

    def test_three_folds(self):
        for names in itertools.product(BASE_NAMES, repeat=3):
            ps = [gallery_entry(n).process for n in names]
            with large_operator_paths():
                want = check_sequence(ps)
            got = check_sequence(ps)
            assert got == want and got.first_invalid_step == want.first_invalid_step, names

    def test_cyclic_triple_and_random_factors(self):
        layout = PartyLayout.of(("X", 2, 2), ("Y", 2, 2))
        randoms = [random_valid_process(layout, seed=s, n_terms=n)
                   for s, n in enumerate((3, 20, 60))]
        for ps in (list(cyclic_triple()), randoms, randoms[:2], randoms[1:]):
            with large_operator_paths():
                want = answers(ps)
            assert answers(ps) == want

    @pytest.mark.parametrize("n_terms", [0, 3, 60, 2000])
    def test_groupings_are_those_of_np_unique(self, n_terms):
        """The set-found patterns and each term's row in them are those of
        ``np.unique``, from an all-trivial record to a dim-256 one with
        thousands of terms."""
        layout = PartyLayout.of(("X", 4, 4), ("Y", 4, 4))
        w = random_valid_process(layout, seed=3, n_terms=n_terms)
        rec = FactorRecord.of(w)
        codes = process._pattern_codes(rec.indices)
        patterns, group = np.unique(codes[codes != 0], return_inverse=True)
        _, _, tags, got = process._tag_patterns(rec.indices, rec.values)
        assert got.dtype == group.dtype and np.array_equal(got, group)
        shifts = np.arange(0, 2 * layout.n_parties, 2, dtype=np.uint64)
        assert np.array_equal((tags.astype(np.uint64) << shifts).sum(axis=1), patterns)
