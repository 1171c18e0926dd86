"""Workload ``cli-docs``: in-process ``procval.cli.main`` on ``procmat/1``
documents of dim 16 to 256 written during set-up.

Document parsing and writing (``io_format``) and the normalization oracle do
most of the work here, and neither runs in the other two workloads. Reads
(``validate``, ``decompose``, ``oracle``) sit beside writes (``gallery
export``, ``reduce``). Each round also asks ``oracle`` and ``decompose`` on a
``twoway-d2`` export with one entry set to ``[NaN, 0.0]``; both must exit 2.

The mix is laid out by cost so that the median falls among the dim-16
document questions and the 90th percentile among the dim-256 ones (see
README.md).
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

import reference
from harness import CliAnswer, Op, Workload, cli_call

NAME = "cli-docs"

QUBITS = ("twoway-d2", "oneway-xy-d2", "oneway-yx-d2", "state-bell-d2",
          "state-product-d2")
NAN_ENTRY = 1  # index of the entry replaced by [NaN, 0.0]


def _nan_document(text: str) -> str:
    lines = text.split("\n")
    first = lines.index('    "entries": [') + 1
    line = lines[first + NAN_ENTRY]
    lines[first + NAN_ENTRY] = "      [NaN, 0.0]" + ("," if line.endswith(",") else "")
    return "\n".join(lines)


def build(pv, seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    os.makedirs(workdir, exist_ok=True)
    entry = {name: pv.gallery_entry(name) for name in QUBITS}

    docs: dict[str, dict] = {}  # path -> {"process", "valid", "metadata", "signalling"}

    def write(label: str, process, valid: bool, metadata=None, signalling=None) -> str:
        path = os.path.join(workdir, label + ".procmat.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(pv.serialize(process, metadata=metadata))
        docs[path] = {"process": process, "valid": valid, "metadata": metadata,
                      "signalling": signalling}
        return path

    gallery = [write(name, entry[name].process, True, {"description": entry[name].notes},
                     entry[name].signalling) for name in QUBITS]
    # Two valid and two invalid products (pairwise rule), chosen by the seed.
    ordered = list(itertools.product(QUBITS, repeat=2))
    rule = {pair: reference.pairwise_rule_valid(entry[n].signalling for n in pair)
            for pair in ordered}
    chosen = []
    for want in (True, False):
        pool = [pair for pair in ordered if rule[pair] == want]
        chosen += [pool[int(k)] for k in rng.choice(len(pool), size=2, replace=False)]
    products = []
    factors: dict[str, tuple] = {}
    for a, b in chosen:
        path = write(f"product-{a}-{b}", pv.tensor_product(entry[a].process, entry[b].process),
                     rule[(a, b)])
        products.append(path)
        factors[path] = (entry[a].process, entry[b].process)
    keep_slot = [int(k) for k in rng.integers(2, size=len(products))]
    reductions = []
    for k in range(2):
        path = products[k]
        keep = {name: pv.PartyReduction((2, 2), (2, 2), (keep_slot[k],)) for name in ("X", "Y")}
        reductions.append(write(f"reduced-{k}", pv.reduced_process(docs[path]["process"], keep),
                                True))
    nan_path = os.path.join(workdir, "nan.procmat.json")
    with open(nan_path, "w", encoding="utf-8") as fh:
        fh.write(_nan_document(pv.serialize(entry["twoway-d2"].process)))

    def pick(paths, n):
        return [paths[int(k)] for k in rng.choice(len(paths), size=n, replace=False)]

    def pick_json():
        return ["--json"] if rng.integers(2) else []

    # (argv, what the benchmark knows about the question), grouped by cost
    asks: list[tuple[list[str], dict]] = []
    # dim-16 documents, ~2-4 ms each
    for name in QUBITS:
        asks.append((["gallery", "export", name], {"export": entry[name].process}))
    for path in gallery + reductions:
        asks.append((["validate", path] + pick_json(), {"doc": path}))
    for path in gallery + reductions:
        asks.append((["decompose", path, "--json"], {"doc": path}))
    for path in gallery + reductions:
        asks.append((["oracle", path, "--samples", "0"] + pick_json(), {"doc": path}))
    # ~18-45 ms each: dense cross-check of a dim-256 product, 200-sample oracle
    # on dim 16, qutrit export
    for a, b in (pick(gallery, 2) for _ in range(4)):
        asks.append((["product", a, b] + pick_json(), {"pair": (a, b)}))
    for path in pick(gallery, 2):
        asks.append((["oracle", path, "--seed", str(int(rng.integers(1000)))] + pick_json(),
                     {"doc": path}))
    asks.append((["gallery", "export", "twoway-d3"],
                 {"export": pv.gallery_entry("twoway-d3").process}))
    # dim-256 documents, ~140-200 ms each
    for path in pick(products, 2):
        asks.append((["validate", path] + pick_json(), {"doc": path}))
    for path in products:
        asks.append((["decompose", path, "--json"], {"doc": path}))
    for k, path in enumerate(products[:2]):
        slot = str(keep_slot[k])
        asks.append((["reduce", path, "--keep", f"X=2x2:{slot}", "--keep", f"Y=2x2:{slot}"],
                     {"reduce": factors[path][keep_slot[k]]}))
    for path in pick(products, 2):
        asks.append((["oracle", path, "--samples", "0"] + pick_json(), {"doc": path}))
    # ~200-230 ms each
    asks.append((["gallery", "export", "twoway-d4"],
                 {"export": pv.gallery_entry("twoway-d4").process}))
    # ~300 ms
    path = pick(products, 1)[0]
    asks.append((["oracle", path], {"doc": path}))
    order = [int(k) for k in rng.permutation(len(asks))]
    asks = [asks[k] for k in order]
    # Questions whose required answer is exit 2 (non-finite entry).
    asks += [(["oracle", nan_path], {"rejects": True}),
             (["decompose", nan_path], {"rejects": True})]

    ops = [Op(" ".join(os.path.basename(a) for a in argv),
              lambda argv=argv: cli_call(pv.cli.main, argv), rejects=info.get("rejects", False))
           for argv, info in asks]

    round_trip_ok: dict[str, bool] = {}

    def round_trips(text: str) -> bool:
        return pv.serialize(pv.parse(text)) == text

    def doc_round_trips(path: str) -> bool:
        if path not in round_trip_ok:
            with open(path, encoding="utf-8") as fh:
                round_trip_ok[path] = round_trips(fh.read())
        return round_trip_ok[path]

    def check(idx: int, out: CliAnswer) -> list[str]:
        argv, info = asks[idx]
        cmd = argv[0]
        as_json = "--json" in argv
        payload = json.loads(out.out) if as_json or cmd == "decompose" else None
        problems = []

        def expect_code(code: int):
            if out.code != code:
                problems.append(f"exit {out.code}, expected {code}")

        if cmd == "gallery":
            expect_code(0)
            w = pv.parse(out.out)
            want = info["export"]
            if w.layout != want.layout or not np.array_equal(w.op, want.op):
                problems.append("exported document does not hold the gallery operator")
            if not round_trips(out.out):
                problems.append("serialize(parse(export)) differs from the export")
            return problems
        if cmd == "reduce":
            expect_code(0)
            w = pv.parse(out.out)
            want = info["reduce"]
            if w.layout.subsystem_dims() != want.layout.subsystem_dims():
                problems.append("reduced layout differs from the factor's")
            elif np.abs(w.op - want.op).max() > 1e-12:
                problems.append("reduced document does not recover its factor within 1e-12")
            return problems
        if cmd == "product":
            valid = reference.pairwise_rule_valid(docs[p]["signalling"] for p in info["pair"])
            expect_code(0 if valid else 1)
            agree = (payload["cross_check"] == "agree" if as_json
                     else "(agree)" in out.out)
            if not agree:
                problems.append("blocking-pair verdict and dense cross-check disagree")
            return problems

        doc = docs[info["doc"]]
        if doc["metadata"] is None and not doc_round_trips(info["doc"]):
            problems.append("serialize(parse(doc)) differs from the written document")
        if cmd == "validate":
            expect_code(0 if doc["valid"] else 1)
        elif cmd == "oracle":
            expect_code(0 if doc["valid"] else 1)
            if as_json:
                dev = payload["max_deviation"]
            else:
                line = next(l for l in out.out.splitlines() if l.startswith("max |p - 1|:"))
                dev = float(line.split(":", 1)[1])
            if doc["valid"] and not dev < 1e-9:
                problems.append(f"max |p-1| = {dev:.3e} on a valid document")
            if not doc["valid"] and not dev > 1e-6:
                problems.append(f"max |p-1| = {dev:.3e} on an invalid document")
        elif cmd == "decompose":
            expect_code(0)
            w = doc["process"]
            dims = w.layout.subsystem_dims()
            terms = [(t["indices"], t["coeff"]) for t in payload["terms"]]
            rebuilt = reference.basis_sum(terms, dims, lambda d: pv.make_basis(d).ops)
            if np.abs(rebuilt - w.op).max() > 1e-8:
                problems.append("listed terms do not reconstruct the document's operator")
        return problems

    def digest(idx: int, out: CliAnswer):
        return (out.code, hash(out.out))

    facts = {
        "documents": {os.path.basename(p): {"dim": d["process"].dim,
                                            "bytes": os.path.getsize(p),
                                            "valid": d["valid"]}
                      for p, d in docs.items()},
        "questions": len(asks),
    }
    return Workload(NAME, ops, check, digest, facts)
