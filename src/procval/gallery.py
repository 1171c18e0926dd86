"""Constructors for the concrete processes used as fixtures by the tests and
the CLI: classically correlated channel processes (one-way and two-way
mixtures), state processes, and randomized valid processes.

Entry names are stable across releases; the CLI exports them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import hsbasis, linalg
from .process import PartyLayout, ProcessMatrix, _allowed, _tag_patterns, _term

__all__ = [
    "maximally_mixed",
    "classical_corr",
    "twoway_channel_process",
    "oneway_channel_process",
    "state_process",
    "mixture",
    "random_valid_process",
    "GalleryEntry",
    "gallery_names",
    "gallery_entry",
]


def maximally_mixed(d: int) -> np.ndarray:
    """Maximally mixed state I/d."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return np.eye(d, dtype=np.complex128) / d


def classical_corr(d: int) -> np.ndarray:
    """Uniform classically correlated state (1/d) sum_i |ii><ii| on d x d —
    the normalized Choi state of the classical identity channel. For d = 2
    this equals (I + Z x Z)/4 entrywise."""
    if d < 2:
        raise ValueError("classical correlation needs dimension >= 2")
    rho = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        rho[i * d + i, i * d + i] = 1.0 / d
    return rho


def _bipartite_layout(d: int) -> PartyLayout:
    return PartyLayout.of(("X", d, d), ("Y", d, d))


def oneway_channel_process(d: int, direction: str = "xy") -> ProcessMatrix:
    """Process feeding one party a maximally mixed state and piping its output
    through a classical identity channel into the other party's input; the
    second output is discarded. Signals in one direction only.

    ``direction`` is ``"xy"`` (X's output reaches Y's input) or ``"yx"``.
    """
    if direction not in ("xy", "yx"):
        raise ValueError(f"direction must be 'xy' or 'yx', got {direction!r}")
    layout = _bipartite_layout(d)
    om = maximally_mixed(d)
    rho = classical_corr(d)
    d_out = layout.d_out
    if direction == "xy":
        # factors already in global order: x_in, (x_out, y_in), y_out
        op = d_out * linalg.tensor(om, rho, om)
    else:
        # built as x_out, (x_in, y_out), y_in -> reorder to global
        raw = d_out * linalg.tensor(om, rho, om)
        op = linalg.permute_subsystems(raw, (d, d, d, d), (1, 0, 3, 2))
    return ProcessMatrix(layout=layout, op=op)


def twoway_channel_process(d: int) -> ProcessMatrix:
    """Equal-weight classical mixture of an X-to-Y and a Y-to-X identity
    channel process. Valid, with signalling terms in both directions; its
    tensor product with itself is not a valid process."""
    a = oneway_channel_process(d, "xy")
    b = oneway_channel_process(d, "yx")
    return ProcessMatrix(layout=a.layout, op=(a.op + b.op) / 2.0)


def state_process(rho: np.ndarray, layout: PartyLayout,
                  tol: float = 1e-10) -> ProcessMatrix:
    """Process that hands the parties a shared input state and ignores their
    outputs: rho on the inputs, identity on the outputs."""
    rho = linalg.require_hermitian(rho)
    if rho.shape[0] != layout.d_in:
        raise ValueError(
            f"state dimension {rho.shape[0]} != joint input dimension {layout.d_in}"
        )
    if abs(float(rho.trace().real) - 1.0) > tol:
        raise ValueError("state must have unit trace")
    if linalg.min_eigenvalue(rho) < -tol:
        raise ValueError("state must be positive semidefinite")
    raw = linalg.tensor(rho, np.eye(layout.d_out))
    n = layout.n_parties
    # built on (in_1..in_n, out_1..out_n); interleave into the global order
    dims = [p.d_in for p in layout.parties] + [p.d_out for p in layout.parties]
    perm = []
    for k in range(n):
        perm += [k, n + k]
    return ProcessMatrix(layout=layout, op=linalg.permute_subsystems(raw, dims, perm))


def mixture(processes, weights=None) -> ProcessMatrix:
    """Convex mixture of processes over a common layout."""
    processes = list(processes)
    if not processes:
        raise ValueError("mixture of nothing")
    layout = processes[0].layout
    if any(p.layout != layout for p in processes):
        raise ValueError("all processes in a mixture must share a layout")
    if weights is None:
        weights = [1.0 / len(processes)] * len(processes)
    if abs(sum(weights) - 1.0) > 1e-12 or any(x < 0 for x in weights):
        raise ValueError("weights must be nonnegative and sum to 1")
    op = sum(x * p.op for x, p in zip(weights, processes))
    return ProcessMatrix(layout=layout, op=op)


def _allowed_patterns(layout: PartyLayout) -> np.ndarray:
    """Basis indices of the nontrivial terms the term rule allows, one row
    per term in lexicographic order."""
    sizes = [d * d for d in layout.subsystem_dims()]
    if math.prod(sizes) > (1 << 16):
        raise ValueError("layout too large to enumerate term patterns densely")
    every = np.argwhere(np.ones(sizes, dtype=bool))
    indices, _, tags, group = _tag_patterns(every, np.ones(len(every)))
    return indices[_allowed(tags)[group]]


def random_valid_process(layout: PartyLayout, seed=None,
                         n_terms: int = 12) -> ProcessMatrix:
    """Random valid process: draw coefficients on randomly chosen term
    patterns that are pure-input on some party, then shift by the identity
    and rescale until strictly positive semidefinite. The trace lands exactly
    on the output dimension and no forbidden pattern is populated.

    Coefficient magnitudes are bounded away from zero so downstream term
    pruning never drops a populated pattern.
    """
    rng = np.random.default_rng(seed)
    patterns = _allowed_patterns(layout)
    n = min(n_terms, len(patterns))
    picks = rng.choice(len(patterns), size=n, replace=False)
    terms = [_term(patterns[i], rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0))
             for i in picks]
    y = hsbasis.reconstruct(terms, layout.subsystem_dims())
    base = layout.d_out / layout.dim
    lam = linalg.min_eigenvalue(y)
    scale = 0.9 * base / (-lam) if lam < 0 else 1.0
    op = base * np.eye(layout.dim, dtype=np.complex128) + scale * y
    return ProcessMatrix(layout=layout, op=op)


@dataclass(frozen=True)
class GalleryEntry:
    """Named fixture process plus the verdicts it is expected to produce."""

    name: str
    process: ProcessMatrix
    valid: bool
    signalling: frozenset[tuple[str, str]]
    notes: str = ""


def _bell_state() -> np.ndarray:
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


_BOTH = frozenset({("X", "Y"), ("Y", "X")})
# Each entry's name, how to build its process, its expected verdict and
# signalling set, and its notes. A process is built on the first request
# for its entry (twoway-d4 alone is a dim-256 operator), then kept.
_ENTRIES = {
    "twoway-d2": (lambda: twoway_channel_process(2), True, _BOTH,
                  "equal mixture of qubit identity channels in both directions"),
    "twoway-d3": (lambda: twoway_channel_process(3), True, _BOTH,
                  "qutrit version of twoway-d2"),
    "twoway-d4": (lambda: twoway_channel_process(4), True, _BOTH,
                  "4-level version; reduces to two copies of twoway-d2"),
    "oneway-xy-d2": (lambda: oneway_channel_process(2, "xy"), True,
                     frozenset({("X", "Y")}), "classical identity channel from X to Y"),
    "oneway-yx-d2": (lambda: oneway_channel_process(2, "yx"), True,
                     frozenset({("Y", "X")}), "classical identity channel from Y to X"),
    "state-maxmix-d2": (lambda: state_process(maximally_mixed(2), PartyLayout.of(("X", 2, 2))),
                        True, frozenset(), "single party handed a maximally mixed qubit"),
    "state-bell-d2": (lambda: state_process(_bell_state(), _bipartite_layout(2)), True,
                      frozenset(), "shared Bell state; correlated but non-signalling"),
    "state-product-d2": (lambda: state_process(
                             linalg.tensor(np.diag([1.0, 0.0]), maximally_mixed(2)),
                             _bipartite_layout(2)),
                         True, frozenset(), "uncorrelated product state"),
}


@lru_cache(maxsize=None)
def _entry(name: str) -> GalleryEntry:
    build, valid, signalling, notes = _ENTRIES[name]
    return GalleryEntry(name=name, process=build(), valid=valid, signalling=signalling,
                        notes=notes)


def gallery_names() -> list[str]:
    return sorted(_ENTRIES)


def gallery_entry(name: str) -> GalleryEntry:
    if name not in _ENTRIES:
        raise KeyError(
            f"unknown gallery entry {name!r}; available: {', '.join(gallery_names())}"
        )
    return _entry(name)
