"""One checked read per operator.

Every record, every spectrum-free term query, a built product's dense check
and ``linalg.eigenvalue_range`` read an operator through
``linalg._checked``: the non-finite check, then the Hermiticity check. So
they agree on its term rows, its spectrum and its errors, and the
spectrum's copy rule comes from the norm and defect that check gave."""

import struct
import tracemalloc

import numpy as np
import pytest

from procval import (
    PartyLayout,
    ProcessMatrix,
    find_blocking_pairs,
    gallery_entry,
    gallery_names,
    is_valid_process,
    linalg,
    random_valid_process,
    signalling_directions,
    tensor_product,
    two_party_product_invalid,
)
from procval import process
from procval.process import FactorRecord

from helpers import BASE_NAMES, QUBIT_BIPARTITE


def bits(*values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def operators():
    """The gallery entries, the built products of the gallery qubit pairs
    and their record-free copies (dim 256), random valid processes, and
    two operators with a Hermiticity defect inside the tolerance."""
    for name in gallery_names():
        yield gallery_entry(name).process
    for w in BASE_NAMES:
        for z in BASE_NAMES:
            p = tensor_product(gallery_entry(w).process, gallery_entry(z).process)
            yield p
            yield ProcessMatrix(p.layout, p.op)
    for layout in (QUBIT_BIPARTITE, PartyLayout.of(("A", 2, 3), ("B", 3, 2)),
                   PartyLayout.of(("X", 4, 4), ("Y", 4, 4))):
        for seed in range(3):
            yield random_valid_process(layout, seed=seed)
    for name in ("twoway-d2", "twoway-d4"):
        w = gallery_entry(name).process
        bent = w.op.copy()
        bent[0, 1] += 1e-15
        yield ProcessMatrix(w.layout, bent)


def copied_extremes(a):
    """The rule ``eigenvalue_range`` followed for every operator before the
    copy rule: ``eigvalsh`` of the Hermitian-part copy ``(a + a†)/2``, read
    per coupled block of its pattern from ``_LIVE_MIN`` entries on."""
    h = (a + a.conj().T) / 2.0
    blocks = linalg._coupled_blocks(h) if h.size >= linalg._LIVE_MIN else None
    if blocks is None:
        lam = np.linalg.eigvalsh(h)
        return lam[0], lam[-1]
    lams = [h[idx, idx].real if idx.shape[1] == 1
            else np.linalg.eigvalsh(h[idx[:, :, None], idx[:, None, :]]) for idx in blocks]
    return min(lam[:, 0].min() for lam in lams), max(lam[:, -1].max() for lam in lams)


def test_spectrum_free_rows_are_the_records_rows():
    for w in operators():
        rec = FactorRecord.of(w)
        indices, values = process._checked_rows(w)
        assert np.array_equal(indices, rec.indices) and indices.dtype == rec.indices.dtype
        assert values.tobytes() == rec.values.tobytes()


def test_eigenvalue_range_is_the_copied_rule_bit_for_bit():
    for w in operators():
        want = copied_extremes(w.op)
        assert bits(*linalg.eigenvalue_range(w.op)) == bits(*want)
        assert bits(linalg.min_eigenvalue(w.op)) == bits(want[0])
        if w._factors is None:
            rec = FactorRecord.of(w)
            assert bits(rec.lam_min, rec.lam_max) == bits(*want)


@pytest.mark.parametrize("nan, message", [
    (True, "matrix has a non-finite entry"),
    (False, "matrix is not Hermitian: max |M - M^dagger| = 5.000e-01 > "),
])
def test_every_reader_raises_the_same_error(nan, message):
    """A NaN entry is reported before the Hermiticity defect it also has."""
    h = gallery_entry("twoway-d2").process
    op = h.op.copy()
    op[0, 1] += 0.5
    if nan:
        op[3, 3] = np.nan
    w = ProcessMatrix(h.layout, op)
    readers = [
        lambda: is_valid_process(w),
        lambda: find_blocking_pairs(w, h),
        lambda: signalling_directions(w, "X", "Y"),
        lambda: two_party_product_invalid(h, w),
        lambda: linalg.eigenvalue_range(w.op),
        lambda: linalg.min_eigenvalue(w.op),
    ]
    messages = set()
    for read in readers:
        with pytest.raises(ValueError) as err:
            read()
        messages.add(str(err.value))
    assert len(messages) == 1 and messages.pop().startswith(message)


def test_the_copy_rule_comes_from_the_check(monkeypatch):
    """``eigvalsh`` reads the operator itself when its defect is exactly 0
    and its norm at most ``_SAFE_NORM``, and the Hermitian-part copy
    otherwise."""
    seen, real = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a) or real(a))
    a = gallery_entry("twoway-d2").process.op
    bent = a.copy()
    bent[0, 1] += 1e-15
    big = a * (2 * linalg._SAFE_NORM)
    for m in (a, bent, big):
        linalg.eigenvalue_range(m)
    assert [s is m for s, m in zip(seen, (a, bent, big))] == [True, False, False]


def test_exactly_hermitian_diagonal_is_read_without_the_copy():
    """The checks and the spectrum of a dim-2048 diagonal operator (64 MB)
    stay below 8 MB traced: the non-finite check's 4 MB of flags, and row
    blocks; the Hermitian-part copy alone would be 64 MB."""
    values = np.random.default_rng(9).normal(size=2048)
    a = np.zeros((2048, 2048), dtype=complex)
    a[np.diag_indices(2048)] = values
    tracemalloc.start()
    try:
        got = linalg.eigenvalue_range(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (values.min(), values.max())
    assert peak < 8 * 2**20, peak
