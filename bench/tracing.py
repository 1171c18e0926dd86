"""Span tracing of procval's layers, installed from outside the package.

Every public function of each procval module (its ``__all__``, plus
``cli.main``) is replaced by a wrapper that records one span: name, start,
end and parent span. The wrapper is bound under every name that referred to
the original function in any procval module, so calls made through
``from .x import f`` bindings and calls inside the defining module are caught
too. Spans are kept in flat arrays in memory and written out once, at the end.

A few wrappers also record counts at the same boundary (terms made, array
megabytes, distinct operators); those feed the per-layer metrics in
``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("linalg", "hsbasis", "process", "product", "oracle", "gallery",
           "io_format", "cli")

# (metric name, unit). Counts, times and megabytes are per measured round;
# ``*_dim_max`` is the largest dimension seen; ratios are distinct operators
# per call within a round; ``gallery.random_valid_s`` covers set-up only.
LAYER_METRICS = (
    ("linalg.eigh_calls", "count/round"),
    ("linalg.eigh_s", "s/round"),
    ("linalg.eigh_dim_max", "dim"),
    ("linalg.kron_s", "s/round"),
    ("linalg.kron_mb", "MB/round"),
    ("linalg.permute_s", "s/round"),
    ("linalg.ptrace_s", "s/round"),
    ("hsbasis.decompose_calls", "count/round"),
    ("hsbasis.decompose_s", "s/round"),
    ("hsbasis.coeff_s", "s/round"),
    ("hsbasis.terms_made", "count/round"),
    ("hsbasis.decompose_distinct_ratio", "ratio"),
    ("process.validate_calls", "count/round"),
    ("process.validate_self_s", "s/round"),
    ("process.validate_distinct_ratio", "ratio"),
    ("process.classify_calls", "count/round"),
    ("process.classify_s", "s/round"),
    ("process.signalling_s", "s/round"),
    ("process.reduce_s", "s/round"),
    ("product.blocking_calls", "count/round"),
    ("product.blocking_self_s", "s/round"),
    ("product.pairs_examined", "count/round"),
    ("product.blocking_found", "count/round"),
    ("product.shortcut_s", "s/round"),
    ("product.tensor_calls", "count/round"),
    ("product.tensor_s", "s/round"),
    ("product.tensor_dim_max", "dim"),
    ("product.sequence_s", "s/round"),
    ("oracle.calls", "count/round"),
    ("oracle.s", "s/round"),
    ("oracle.evaluations", "count/round"),
    ("oracle.probability_s", "s/round"),
    ("oracle.cptp_s", "s/round"),
    ("oracle.kron_mb", "MB/round"),
    ("io_format.parse_calls", "count/round"),
    ("io_format.parse_s", "s/round"),
    ("io_format.parse_mb", "MB/round"),
    ("io_format.serialize_calls", "count/round"),
    ("io_format.serialize_s", "s/round"),
    ("io_format.serialize_mb", "MB/round"),
    ("cli.calls", "count/round"),
    ("cli.self_s", "s/round"),
    ("gallery.random_valid_s", "s"),
)

# metric -> (span name, statistic) for the metrics read straight off spans.
_SPAN_METRICS = {
    "linalg.eigh_calls": ("linalg.min_eigenvalue", "calls"),
    "linalg.eigh_s": ("linalg.min_eigenvalue", "total"),
    "linalg.kron_s": ("linalg.tensor", "total"),
    "linalg.permute_s": ("linalg.permute_subsystems", "total"),
    "linalg.ptrace_s": ("linalg.partial_trace", "total"),
    "hsbasis.decompose_calls": ("hsbasis.decompose", "calls"),
    "hsbasis.decompose_s": ("hsbasis.decompose", "total"),
    "hsbasis.coeff_s": ("hsbasis.coefficient_tensor", "total"),
    "process.validate_calls": ("process.is_valid_process", "calls"),
    "process.validate_self_s": ("process.is_valid_process", "self"),
    "process.classify_calls": ("process.classify_term", "calls"),
    "process.classify_s": ("process.classify_term", "total"),
    "process.signalling_s": ("process.signalling_directions", "total"),
    "process.reduce_s": ("process.reduced_process", "total"),
    "product.blocking_calls": ("product.find_blocking_pairs", "calls"),
    "product.blocking_self_s": ("product.find_blocking_pairs", "self"),
    "product.shortcut_s": ("product.two_party_product_invalid", "total"),
    "product.tensor_calls": ("product.tensor_product", "calls"),
    "product.tensor_s": ("product.tensor_product", "total"),
    "product.sequence_s": ("product.check_sequence", "total"),
    "oracle.calls": ("oracle.normalization_oracle", "calls"),
    "oracle.s": ("oracle.normalization_oracle", "total"),
    "oracle.probability_s": ("oracle.probability", "total"),
    "oracle.cptp_s": ("oracle.random_cptp", "total"),
    "io_format.parse_calls": ("io_format.parse_document", "calls"),
    "io_format.parse_s": ("io_format.parse_document", "total"),
    "io_format.serialize_calls": ("io_format.serialize", "calls"),
    "io_format.serialize_s": ("io_format.serialize", "total"),
    "cli.calls": ("cli.main", "calls"),
    "cli.self_s": ("cli.main", "self"),
}


def _digest(op) -> bytes:
    a = np.ascontiguousarray(np.asarray(op, dtype=np.complex128))
    h = hashlib.blake2b(digest_size=16)
    h.update(str(a.shape).encode())
    h.update(memoryview(a).cast("B"))
    return h.digest()


class Tracer:
    """Records spans around procval's public functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        # Open spans: [span index, nontrivial term counts of child decomposes].
        self._stack: list[list] = []
        self.counts: dict[str, float] = {}
        self._distinct: dict[str, set] = {"hsbasis.decompose": set(),
                                          "process.is_valid_process": set()}
        self._distinct_total = {k: 0 for k in self._distinct}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _max(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0.0), value)

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1][0] if stack else -1)
            frame = [idx, []]
            stack.append(frame)
            start.append(clock())
            end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, frame)
            return result

        return traced

    # -- counts recorded at layer boundaries -----------------------------

    def _hook_linalg_min_eigenvalue(self, args, kwargs, result, frame):
        self._max("linalg.eigh_dim_max", np.shape(args[0])[0])

    def _hook_linalg_tensor(self, args, kwargs, result, frame):
        mb = result.nbytes / 1e6
        self._add("linalg.kron_mb", mb)
        if self._stack and self.names[self.span_name[self._stack[-1][0]]] == "oracle.probability":
            self._add("oracle.kron_mb", mb)

    def _hook_hsbasis_decompose(self, args, kwargs, result, frame):
        self._add("hsbasis.terms_made", len(result))
        dims = args[1] if len(args) > 1 else kwargs["dims"]
        self._distinct["hsbasis.decompose"].add((_digest(args[0]), tuple(dims)))
        if self._stack:
            self._stack[-1][1].append(sum(1 for t in result if not t.is_trivial()))

    def _hook_process_is_valid_process(self, args, kwargs, result, frame):
        w = args[0]
        self._distinct["process.is_valid_process"].add((_digest(w.op), w.layout))

    def _hook_product_find_blocking_pairs(self, args, kwargs, result, frame):
        # The first two decompositions made directly by the search are the
        # term lists of the two factors.
        counts = frame[1][:2]
        if len(counts) == 2:
            self._add("product.pairs_examined", counts[0] * counts[1])
        self._add("product.blocking_found", len(result.blocking_pairs))

    def _hook_product_tensor_product(self, args, kwargs, result, frame):
        self._max("product.tensor_dim_max", result.dim)

    def _hook_oracle_normalization_oracle(self, args, kwargs, result, frame):
        self._add("oracle.evaluations", result.evaluations)

    def _hook_io_format_parse_document(self, args, kwargs, result, frame):
        self._add("io_format.parse_mb", result[0].op.nbytes / 1e6)

    def _hook_io_format_serialize(self, args, kwargs, result, frame):
        self._add("io_format.serialize_mb", args[0].op.nbytes / 1e6)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every procval module in place."""
        mods = {m: importlib.import_module("procval." + m) for m in MODULES}
        package = importlib.import_module("procval")
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            public = list(getattr(mod, "__all__", ()))
            if short == "cli":
                public.append("main")
            for attr in public:
                fn = getattr(mod, attr)
                if inspect.isclass(fn) or not callable(fn):
                    continue
                wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for mod in [package, *mods.values()]:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def end_round(self) -> None:
        """Close a measured round: distinct-operator sets count per round."""
        for key, seen in self._distinct.items():
            self._distinct_total[key] += len(seen)
            seen.clear()

    def reset(self) -> None:
        """Drop everything recorded so far (used between set-up and the
        measured phase)."""
        for arr in (self.span_name, self.start, self.end, self.parent):
            del arr[:]
        self.counts.clear()
        for key in self._distinct:
            self._distinct[key].clear()
            self._distinct_total[key] = 0

    # -- results ---------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive time and self time (duration
        minus the time covered by direct child spans)."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_t = np.bincount(names, weights=dur - child, minlength=k)
        return {n: {"calls": float(calls[i]), "total": float(total[i]),
                    "self": float(self_t[i])} for i, n in enumerate(self.names)}

    def layer_metrics(self, rounds: int, random_valid_s: float) -> dict[str, float]:
        """Every metric of ``LAYER_METRICS`` for the measured phase."""
        totals = self.span_totals()
        out: dict[str, float] = {}
        for metric, unit in LAYER_METRICS:
            if metric in _SPAN_METRICS:
                span, stat = _SPAN_METRICS[metric]
                value = totals.get(span, {}).get(stat, 0.0)
            else:
                value = self.counts.get(metric, 0.0)
            if unit.endswith("/round"):
                value /= rounds
            out[metric] = value
        for metric, span in (("hsbasis.decompose_distinct_ratio", "hsbasis.decompose"),
                             ("process.validate_distinct_ratio", "process.is_valid_process")):
            calls = totals.get(span, {}).get("calls", 0.0)
            out[metric] = self._distinct_total[span] / calls if calls else 0.0
        out["gallery.random_valid_s"] = random_valid_s
        return out

    def write(self, path: str, t0: float) -> None:
        """Write the spans as flat arrays; times are seconds since ``t0``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.start) - t0,
            end=np.frombuffer(self.end) - t0,
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
