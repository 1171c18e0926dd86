"""Independent brute-force check that a candidate process yields normalized
probabilities for local trace-preserving operations.

A tuple of local channels, one per party, is represented by Choi operators on
(input x output); the outcome probability is trace(W * transpose(C_A x C_B x
...)). For any valid process this equals 1 for every trace-preserving tuple,
so the maximum deviation |p - 1| over sampled and hand-picked tuples is an
implementation-independent validity probe.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .process import PartyLayout, ProcessMatrix

__all__ = [
    "ChoiChannel",
    "OracleVerdict",
    "identity_channel",
    "depolarizing_channel",
    "prepare_channel",
    "unitary_channel",
    "routing_swap_channel",
    "random_cptp",
    "probability",
    "deterministic_battery",
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

    def validate(self, tol: float = 1e-10) -> None:
        """Raise unless the Choi operator is PSD and trace-preserving within
        ``tol``."""
        lam = linalg.min_eigenvalue(self.choi)
        if lam < -tol:
            raise ValueError(f"Choi operator is not PSD: min eigenvalue {lam:.3e}")
        marginal = linalg.partial_trace(self.choi, (self.d_in, self.d_out), {1})
        defect = float(np.abs(marginal - np.eye(self.d_in)).max())
        if defect > tol:
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


def routing_swap_channel(s: int, t: int) -> ChoiChannel:
    """Unitary channel on an (s x t)-factored system that forwards the first
    input factor to the second output slot and vice versa."""
    d = s * t
    u = np.zeros((d, d), dtype=np.complex128)
    for i in range(s):
        for j in range(t):
            u[j * s + i, i * t + j] = 1.0
    return ChoiChannel(d_in=d, d_out=d, choi=unitary_channel(u).choi,
                       label=f"route({s}x{t}->swap)")


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
    if abs(p.imag) > 1e-10 * (1.0 + abs(p.real)):
        raise ValueError(f"probability has imaginary residue {p.imag:.3e}")
    return float(p.real)


def _party_battery(party) -> list[ChoiChannel]:
    chans: list[ChoiChannel] = []
    if party.d_in == party.d_out:
        chans.append(identity_channel(party.d_in))
        # Cross-routing over every nontrivial factor split closes potential
        # feedback loops in merged-party layouts.
        for s in range(2, party.d_in):
            if party.d_in % s == 0 and party.d_in // s >= 2:
                chans.append(routing_swap_channel(s, party.d_in // s))
    chans.append(depolarizing_channel(party.d_in, party.d_out))
    for k in range(min(party.d_out, 4)):
        chans.append(prepare_channel(party.d_in, party.d_out, k))
    return chans


def deterministic_battery(layout: PartyLayout,
                          cap: int = 1024) -> list[tuple[ChoiChannel, ...]]:
    """Hand-picked channel tuples: identities, factor-swap routings,
    depolarizers and basis preparations, combined across parties (capped)."""
    per_party = [_party_battery(p) for p in layout.parties]
    return list(itertools.islice(itertools.product(*per_party), cap))


@dataclass(frozen=True)
class OracleVerdict:
    """Largest observed |p - 1| and the channel tuple achieving it."""

    max_deviation: float
    witness: tuple[ChoiChannel, ...]
    witness_label: str
    evaluations: int


def normalization_oracle(w: ProcessMatrix, samples: int = 200, seed: int = 0,
                         include_battery: bool = True,
                         env_dim: int | None = None) -> OracleVerdict:
    """Probe probability normalization with random channel tuples plus the
    deterministic battery.

    Every tuple is trace preserving, so a valid process must give p = 1 each
    time; the report carries the worst deviation and its witness tuple. A
    non-finite probability counts as an infinite deviation.
    Sample k draws party p's channel from the substream keyed by
    (seed, k, p), so results are reproducible and order-independent.
    """
    if samples < 0:
        raise ValueError("sample count must be >= 0")
    tuples: list[tuple[str, tuple[ChoiChannel, ...]]] = []
    if include_battery:
        for j, chans in enumerate(deterministic_battery(w.layout)):
            label = "battery[" + ",".join(c.label for c in chans) + "]"
            tuples.append((label, chans))
    for k in range(samples):
        chans = tuple(
            random_cptp(
                party.d_in, party.d_out, env_dim=env_dim,
                seed=np.random.SeedSequence(entropy=seed, spawn_key=(k, p)),
            )
            for p, party in enumerate(w.layout.parties)
        )
        tuples.append((f"sample[{k}]", chans))

    best = 0.0
    best_witness: tuple[ChoiChannel, ...] = ()
    best_label = "none"
    for label, chans in tuples:
        dev = abs(probability(w, chans) - 1.0)
        if not math.isfinite(dev):
            dev = math.inf  # a non-finite probability is never normalized
        if dev > best:
            best, best_witness, best_label = dev, chans, label
    return OracleVerdict(
        max_deviation=best,
        witness=best_witness,
        witness_label=best_label,
        evaluations=len(tuples),
    )
