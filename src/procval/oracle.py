"""Independent check that a candidate process yields normalized
probabilities for local trace-preserving operations.

A tuple of local channels, one per party, is represented by Choi operators on
(input x output); the outcome probability is trace(W * transpose(C_A x C_B x
...)). A PSD operator is a valid process exactly when this is 1 for every
tuple. It is affine in each party's channel, so the sweep, every tuple from
one set per party whose affine hull holds all of that party's channels,
decides it exactly. Sets are built from matrix units, not from
:mod:`procval.hsbasis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import linalg
from .process import ProcessMatrix

__all__ = [
    "ChoiChannel",
    "OracleVerdict",
    "identity_channel",
    "depolarizing_channel",
    "prepare_channel",
    "unitary_channel",
    "random_cptp",
    "probability",
    "normalization_oracle",
]

_MAX_CHOI_DIM = 1 << 12


@dataclass(frozen=True, eq=False)
class ChoiChannel:
    """Choi operator of a channel from a d_in- to a d_out-dimensional system,
    on the (input x output) ordering: C = sum_ij |i><j| x N(|i><j|)."""

    d_in: int
    d_out: int
    choi: np.ndarray
    label: str = ""

    def __post_init__(self):
        a = linalg.as_operator(self.choi)
        if a.shape[0] != self.d_in * self.d_out:
            raise ValueError(
                f"Choi dimension {a.shape[0]} != d_in*d_out = {self.d_in * self.d_out}"
            )
        object.__setattr__(self, "choi", a)

    def validate(self) -> None:
        """Raise unless the Choi operator is PSD and trace-preserving within
        ``1e-10``."""
        lam = linalg.min_eigenvalue(self.choi)
        if lam < -1e-10:
            raise ValueError(f"Choi operator is not PSD: min eigenvalue {lam:.3e}")
        marginal = linalg.partial_trace(self.choi, (self.d_in, self.d_out), {1})
        defect = float(np.abs(marginal - np.eye(self.d_in)).max())
        if defect > 1e-10:
            raise ValueError(f"channel is not trace preserving: defect {defect:.3e}")


def identity_channel(d: int) -> ChoiChannel:
    """Choi of the identity channel: sum_ij |ii><jj|."""
    c = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            c[i * d + i, j * d + j] = 1.0
    return ChoiChannel(d_in=d, d_out=d, choi=c, label=f"identity({d})")


def depolarizing_channel(d_in: int, d_out: int | None = None) -> ChoiChannel:
    """Choi of the channel that discards its input and outputs the maximally
    mixed state: I_in x I_out / d_out."""
    d_out = d_in if d_out is None else d_out
    c = np.kron(np.eye(d_in), np.eye(d_out) / d_out).astype(np.complex128)
    return ChoiChannel(d_in=d_in, d_out=d_out, choi=c,
                       label=f"depolarize({d_in}->{d_out})")


def prepare_channel(d_in: int, d_out: int, k: int) -> ChoiChannel:
    """Choi of trace-and-prepare onto basis state |k>: I_in x |k><k|."""
    if not 0 <= k < d_out:
        raise ValueError(f"basis state {k} out of range for dimension {d_out}")
    proj = np.zeros((d_out, d_out), dtype=np.complex128)
    proj[k, k] = 1.0
    return ChoiChannel(d_in=d_in, d_out=d_out, choi=np.kron(np.eye(d_in), proj),
                       label=f"prepare|{k}>")


def unitary_channel(u: np.ndarray, label: str = "unitary") -> ChoiChannel:
    """Choi of X -> U X U^dagger."""
    u = np.asarray(u, dtype=np.complex128)
    d_out, d_in = u.shape
    v = u.T.reshape(-1)  # v[(i, o)] = U[o, i]
    return ChoiChannel(d_in=d_in, d_out=d_out, choi=np.outer(v, v.conj()), label=label)


def random_cptp(d_in: int, d_out: int, env_dim: int | None = None,
                seed=None) -> ChoiChannel:
    """Sample a random channel by the Stinespring construction.

    A random isometry from the input space into (output x environment) is
    drawn by orthonormalizing the columns of a complex Gaussian matrix; the
    environment is traced out and the Choi operator assembled. Deterministic
    for a fixed seed.

    Parameters
    ----------
    d_in, d_out : int
        Input and output dimensions.
    env_dim : int, optional
        Environment dimension; defaults to d_in * d_out.
    seed : int, SeedSequence or Generator, optional
        Randomness source.
    """
    if d_in < 1 or d_out < 1:
        raise ValueError("channel dimensions must be >= 1")
    env_dim = d_in * d_out if env_dim is None else env_dim
    if env_dim < 1:
        raise ValueError("environment dimension must be >= 1")
    if d_out * env_dim < d_in:
        raise ValueError(
            f"no isometry exists: d_out*env_dim = {d_out * env_dim} < d_in = {d_in}"
        )
    if d_in * d_out > _MAX_CHOI_DIM or d_out * env_dim > _MAX_CHOI_DIM:
        raise ValueError("channel dimensions exceed the dense-matrix budget")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d_out * env_dim, d_in)) + 1j * rng.normal(size=(d_out * env_dim, d_in))
    v, _ = np.linalg.qr(g)  # isometry: v^dagger v = I_in
    blocks = v.reshape(d_out, env_dim, d_in).transpose(2, 0, 1)  # [i, out, env]
    choi = np.einsum("ioe,jpe->iojp", blocks, blocks.conj())
    choi = choi.reshape(d_in * d_out, d_in * d_out)
    return ChoiChannel(d_in=d_in, d_out=d_out, choi=choi, label="random")


def probability(w: ProcessMatrix, channels: Sequence[ChoiChannel]) -> float:
    """Outcome probability of a tuple of local channels on a process:
    trace(W * transpose(C_A x C_B x ...))."""
    if len(channels) != w.layout.n_parties:
        raise ValueError(
            f"need one channel per party ({w.layout.n_parties}), got {len(channels)}"
        )
    for ch, party in zip(channels, w.layout.parties):
        if (ch.d_in, ch.d_out) != (party.d_in, party.d_out):
            raise ValueError(
                f"channel {ch.label or '?'} has dims ({ch.d_in},{ch.d_out}), "
                f"party {party.name!r} expects ({party.d_in},{party.d_out})"
            )
    c_tot = linalg.tensor(*(ch.choi for ch in channels))
    # trace(W C^T) contracts entrywise: sum_ij W[i,j] C[i,j].
    p = complex(np.sum(w.op * c_tot))
    if _imaginary_residue(p):
        raise ValueError(f"probability has imaginary residue {p.imag:.3e}")
    return float(p.real)


def _imaginary_residue(p):
    """Whether each probability of ``p`` is not real: ``|Im p| > 1e-10
    (1 + |Re p|)``. NaN compares false here; the callers count a non-finite
    probability as a deviation."""
    return np.abs(np.imag(p)) > 1e-10 * (1.0 + np.abs(np.real(p)))


def _hermitian_units(d: int) -> tuple[np.ndarray, list[str]]:
    """The Hermitian matrix units |j><j|, then |j><k|+|k><j| and
    i|j><k|-i|k><j| (j < k), with their labels."""
    e, (j, k) = np.eye(d), np.triu_indices(d, 1)
    jk = e[j, :, None] * e[k, None, :]  # the |j><k|, j < k
    kj = jk.transpose(0, 2, 1)
    units = np.concatenate([e[:, :, None] * e[:, None, :], jk + kj, 1j * (jk - kj)])
    labels = [f"|{i}><{i}|" for i in range(d)] + [f"|{a}><{b}|+|{b}><{a}|" for a, b in zip(j, k)]
    return units, labels + [f"i|{a}><{b}|-i|{b}><{a}|" for a, b in zip(j, k)]


@dataclass(frozen=True, eq=False)
class _PartySweep:
    """Sweep set of a (d_in -> d_out) party: the preparations I x |k><k|, then
    I x I/d_out + (h x s)/d_out for h a Hermitian unit of the input and s one
    of |k><k|-|k+1><k+1| or an off-diagonal unit of the output. ||h x s|| <= 1
    and tr(s) = 0 make each a channel; the affine rank is d_in^2 (d_out^2 - 1)
    + 1, one more than the channel set's dimension. Member m is I x I/d_out +
    in_rows[i] x out_rows[o], with (i, o) = divmod(pair[m], len(out_rows)).
    Built once per party shape, with read-only arrays."""

    in_rows: np.ndarray  # I, then the h
    out_rows: np.ndarray  # I/d_out, the |k><k| - I/d_out, then the s/d_out
    labels: tuple[tuple[str, ...], tuple[str, ...]]  # of the h and of the s
    pair: np.ndarray

    def __post_init__(self):
        for a in (self.in_rows, self.out_rows, self.pair):
            a.setflags(write=False)

    @staticmethod
    @lru_cache(maxsize=None)
    def of(d_in: int, d_out: int) -> "_PartySweep":
        hs, h_labels = _hermitian_units(d_in)
        us, u_labels = _hermitian_units(d_out)
        mix = np.eye(d_out) / d_out
        ss = np.concatenate([us[:d_out - 1] - us[1:d_out], us[d_out:]])
        s_labels = [f"{a}-{b}" for a, b in zip(u_labels, u_labels[1:d_out])] + u_labels[d_out:]
        tilts = np.add.outer(np.arange(1, 1 + d_in * d_in) * (1 + d_out + len(ss)),
                             np.arange(1 + d_out, 1 + d_out + len(ss)))
        return _PartySweep(np.concatenate([np.eye(d_in)[None], hs]),
                           np.concatenate([mix[None], us[:d_out] - mix, ss / d_out]),
                           (tuple(h_labels), tuple(s_labels)), np.r_[1:1 + d_out, tilts.ravel()])

    def channel(self, m: int) -> ChoiChannel:
        d_in, d_out = len(self.in_rows[0]), len(self.out_rows[0])
        if m < d_out:
            return prepare_channel(d_in, d_out, m)
        i, o = divmod(int(self.pair[m]), len(self.out_rows))
        choi = depolarizing_channel(d_in, d_out).choi + np.kron(self.in_rows[i], self.out_rows[o])
        h, s = self.labels[0][i - 1], self.labels[1][o - 1 - d_out]
        return ChoiChannel(d_in, d_out, choi, label=f"I/{d_out}+({h})x({s})/{d_out}")


def _sweep_probabilities(w: ProcessMatrix, sweeps: Sequence[_PartySweep]) -> np.ndarray:
    """p of every tuple of sweep members, flattened row-major, contracting W
    with one subsystem's rows at a time: each intermediate has ~dim^2 entries."""
    dims = w.layout.subsystem_dims()
    # Each subsystem's row and column index side by side: (x1, x1', x2, x2', ...).
    x = w.op.reshape(dims + dims).transpose(np.arange(2 * len(dims)).reshape(2, -1).T.ravel())
    for sweep in sweeps:
        for rows in (sweep.in_rows, sweep.out_rows):  # contract the leading axis, append the new
            x = x.reshape(rows[0].size, -1).T @ rows.reshape(len(rows), -1).T
        table = x.reshape(-1, len(sweep.in_rows) * len(sweep.out_rows))
        x = table.take(sweep.pair, axis=1)  # C order, so the next reshape is a view
        x += table[:, :1]  # p(I x I/d_out + X) = p(I x I/d_out) + p(X)
        del table  # else it outlives the next contraction
    return x.ravel()


def _sweep(w: ProcessMatrix) -> tuple[float, tuple[ChoiChannel, ...], int]:
    """Largest |p - 1| over the sweep, a tuple reaching it, the tuple count."""
    sweeps = [_PartySweep.of(party.d_in, party.d_out) for party in w.layout.parties]
    p = _sweep_probabilities(w, sweeps)
    residue = _imaginary_residue(p)
    if residue.any():
        raise ValueError(f"probability has imaginary residue {p.imag[residue][0]:.3e}")
    dev = np.abs(p.real - 1.0)
    dev[~np.isfinite(p)] = np.inf
    at = int(np.argmax(dev))
    members = np.unravel_index(at, [len(s.pair) for s in sweeps])
    return float(dev[at]), tuple(s.channel(int(m)) for s, m in zip(sweeps, members)), dev.size


@dataclass(frozen=True)
class OracleVerdict:
    """Largest observed |p - 1| and the channel tuple achieving it."""

    max_deviation: float
    witness: tuple[ChoiChannel, ...]
    witness_label: str
    evaluations: int


def normalization_oracle(w: ProcessMatrix, samples: int = 0,
                         seed: int = 0) -> OracleVerdict:
    """Probe probability normalization with the sweep, which decides it, plus
    ``samples`` random channel tuples (none by default: the sweep alone
    decides normalization).

    Every tuple is trace preserving, so a valid process must give p = 1 each
    time; the report carries the worst deviation and its witness tuple. A
    non-finite probability counts as an infinite deviation.
    Sample k draws party p's channel from the substream keyed by
    (seed, k, p), so results are reproducible and order-independent.
    """
    if samples < 0:
        raise ValueError("sample count must be >= 0")
    best, best_witness, n_sweep = _sweep(w)
    best_label = "sweep[" + ",".join(c.label for c in best_witness) + "]"
    for k in range(samples):
        chans = tuple(
            random_cptp(
                party.d_in, party.d_out,
                seed=np.random.SeedSequence(entropy=seed, spawn_key=(k, p)),
            )
            for p, party in enumerate(w.layout.parties)
        )
        dev = abs(probability(w, chans) - 1.0)
        if not math.isfinite(dev):
            dev = math.inf  # a non-finite probability is never normalized
        if dev > best:
            best, best_witness, best_label = dev, chans, f"sample[{k}]"
    return OracleVerdict(
        max_deviation=best,
        witness=best_witness,
        witness_label=best_label,
        evaluations=n_sweep + samples,
    )
