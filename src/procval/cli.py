"""Command-line front end.

Subcommands: validate, decompose, product, oracle, reduce, gallery. Exit
codes: 0 = valid/pass, 1 = invalid/fail (witnesses printed), 2 = usage or
input error. ``--json`` swaps the human-readable report for a machine-readable
one with stable keys.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__, linalg
from .gallery import gallery_entry, gallery_names
from .io_format import ProcmatError, load_path, serialize
from .oracle import normalization_oracle
from .process import (
    FactorRecord,
    PartyReduction,
    Tolerances,
    classify_term,
    is_valid_process,
    reduced_process,
)
from .product import PartyPairing, _closes_loop, _pattern_check, _report, _resolve_pairing

DEFAULT_ORACLE_THRESHOLD = 1e-6


def _emit(args, payload: dict, human_lines: list[str]) -> int:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            print(line)
    return payload["exit_code"]


def _term_dict(term, sig, kind: str) -> dict:
    return {
        "indices": list(term.indices),
        "coeff": term.coeff,
        "type": kind,
        "codes": list(sig.codes),
    }


def _layout_line(layout) -> str:
    parts = " ".join(f"{p.name}({p.d_in}->{p.d_out})" for p in layout.parties)
    return f"parties: {parts}   dim {layout.dim}   required trace {layout.d_out}"


def cmd_validate(args) -> int:
    w = load_path(args.file)
    report = is_valid_process(w, Tolerances(term=args.tol))
    lines = [f"validate {args.file}", _layout_line(w.layout)]
    lines.append(f"min eigenvalue: {-report.psd_defect:.6g}")
    lines.append(f"trace defect:  {report.trace_defect:.6g}")
    forbidden = [(t, sig, sig.type_string(w.layout)) for t, sig in report.forbidden_terms]
    if forbidden:
        lines.append(f"forbidden terms ({len(forbidden)}):")
        for term, _, kind in forbidden:
            lines.append(f"  indices {term.indices}  coeff {term.coeff:+.6g}  type {kind}")
    else:
        lines.append("forbidden terms: none")
    lines.append(f"verdict: {'VALID' if report.verdict else 'INVALID'}")
    code = 0 if report.verdict else 1
    payload = {
        "command": "validate",
        "file": args.file,
        "verdict": report.verdict,
        "psd_defect": report.psd_defect,
        "trace_defect": report.trace_defect,
        "forbidden_terms": [_term_dict(*row) for row in forbidden],
        "exit_code": code,
    }
    return _emit(args, payload, lines)


def cmd_decompose(args) -> int:
    w = load_path(args.file)
    terms = w.terms(tol=args.tol)
    identity_coeff = float(w.op.trace().real) / w.dim
    lines = [f"decompose {args.file}", _layout_line(w.layout)]
    zeros = (0,) * (2 * w.layout.n_parties)
    sigs = [(t, classify_term(t, w.layout)) for t in terms if not t.is_trivial()]
    rows = [(t, sig, sig.type_string(w.layout)) for t, sig in sigs]
    lines.append(f"  indices {zeros}  coeff {identity_coeff:+.6g}  type trivial")
    for t, _, kind in rows:
        lines.append(f"  indices {t.indices}  coeff {t.coeff:+.6g}  type {kind}")
    lines.append(f"{1 + len(rows)} terms")
    payload = {
        "command": "decompose",
        "file": args.file,
        "terms": [
            {"indices": list(zeros), "coeff": identity_coeff, "type": "trivial",
             "codes": ["0"] * w.layout.n_parties}
        ] + [_term_dict(*row) for row in rows],
        "exit_code": 0,
    }
    return _emit(args, payload, lines)


def _party_name(layout, name: str) -> str:
    """``name`` when it names a party of ``layout``; else an input error."""
    if name not in layout.names:
        raise ValueError(f"unknown party {name!r} (have {list(layout.names)})")
    return name


def _parse_pairing(text: str, w, z) -> PartyPairing:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"bad pairing entry {chunk!r}, expected WPARTY=ZPARTY[:NAME]")
        wn, rest = chunk.split("=", 1)
        if ":" in rest:
            zn, name = rest.split(":", 1)
        else:
            zn, name = rest, None
        wn, zn = _party_name(w.layout, wn.strip()), _party_name(z.layout, zn.strip())
        pairs.append((wn, zn, name or (wn if wn == zn else wn + zn)))
    if len(pairs) != w.layout.n_parties:
        raise ValueError(
            f"pairing covers {len(pairs)} parties, process has {w.layout.n_parties}"
        )
    return PartyPairing(tuple(pairs))


def cmd_product(args) -> int:
    w = load_path(args.file_w)
    z = load_path(args.file_z)
    pairing = _parse_pairing(args.pairing, w, z) if args.pairing else None
    # find_blocking_pairs, keeping each input's record for the two-party shortcut.
    resolved = _resolve_pairing(w.layout, z.layout, pairing)
    rw, rz = FactorRecord.of(w), FactorRecord.of(z)
    if not rw.norm * rz.norm <= linalg._SAFE_NORM:
        raise ValueError(f"the product overflows: its Frobenius norm {rw.norm * rz.norm:.6g} "
                         f"is above {linalg._SAFE_NORM:g}")
    report = _report(rw, rz, resolved, tol=None)
    lines = [f"product {args.file_w} x {args.file_z}", _layout_line(report.layout)]
    if not report.w_valid or not report.z_valid:
        lines.append("warning: an input is not itself a valid process")
    for k, ((tw, tz), cases) in enumerate(zip(report.blocking_pairs, report.per_party_cases)):
        lines.append(f"blocking pair {k + 1}:")
        lines.append(f"  first  indices {tw.indices}  coeff {tw.coeff:+.6g}")
        lines.append(f"  second indices {tz.indices}  coeff {tz.coeff:+.6g}")
        case_str = " ".join(
            f"{p.name}:({a},{b})" for p, (a, b) in zip(report.layout.parties, cases)
        )
        lines.append(f"  cases  {case_str}")
    if not report.blocking_pairs:
        lines.append("blocking pairs: none")

    payload = {
        "command": "product",
        "files": [args.file_w, args.file_z],
        "verdict": report.verdict,
        "inputs_valid": [report.w_valid, report.z_valid],
        "blocking_pairs": [
            {
                "first": {"indices": list(tw.indices), "coeff": tw.coeff},
                "second": {"indices": list(tz.indices), "coeff": tz.coeff},
                "cases": [list(c) for c in cases],
            }
            for (tw, tz), cases in zip(report.blocking_pairs, report.per_party_cases)
        ],
    }

    if w.layout.n_parties == 2 and z.layout.n_parties == 2 and pairing is None:
        loop = _closes_loop(rw.patterns(), rz.patterns())
        payload["two_party_check_invalid"] = loop
        lines.append(f"two-party signalling check: product {'invalid' if loop else 'valid'}")

    # Cross-check at factor size, from the factors' pattern weights: of the
    # verdict above it shares only the merged record's extremes and trace.
    pattern_verdict, forbidden_weight = _pattern_check(w, z, rw, rz, resolved)
    payload["pattern_verdict"] = pattern_verdict
    payload["forbidden_weight"] = forbidden_weight
    payload["cross_check"] = "agree" if pattern_verdict == report.verdict else "disagree"
    lines.append(f"pattern-weight check of the product: "
                 f"{'valid' if pattern_verdict else 'invalid'}, forbidden weight "
                 f"{forbidden_weight:.6g} ({payload['cross_check']})")

    lines.append(f"verdict: {'VALID' if report.verdict else 'INVALID'}")
    payload["exit_code"] = 0 if report.verdict else 1
    return _emit(args, payload, lines)


def cmd_oracle(args) -> int:
    linalg._check_threshold("--threshold", args.threshold)
    w = load_path(args.file)
    verdict = normalization_oracle(w, samples=args.samples, seed=args.seed)
    code = 0 if verdict.max_deviation <= args.threshold else 1
    lines = [
        f"oracle {args.file}",
        _layout_line(w.layout),
        f"evaluations: {verdict.evaluations} (samples {args.samples}, seed {args.seed})",
        f"max |p - 1|: {verdict.max_deviation:.6g}",
        f"witness: {verdict.witness_label}",
        f"verdict: {'PASS' if code == 0 else 'FAIL'}",
    ]
    payload = {
        "command": "oracle",
        "file": args.file,
        "samples": args.samples,
        "seed": args.seed,
        "threshold": args.threshold,
        "max_deviation": verdict.max_deviation,
        "witness_label": verdict.witness_label,
        "witness_channels": [
            {
                "d_in": ch.d_in,
                "d_out": ch.d_out,
                "label": ch.label,
                "choi": np.ascontiguousarray(ch.choi).view(np.float64).reshape(-1, 2).tolist(),
            }
            for ch in verdict.witness
        ],
        "evaluations": verdict.evaluations,
        "exit_code": code,
    }
    return _emit(args, payload, lines)


def _parse_keep(specs: list[str], layout) -> dict[str, PartyReduction]:
    out: dict[str, PartyReduction] = {}
    for entry in specs:
        if "=" not in entry:
            raise ValueError(f"bad keep entry {entry!r}, expected NAME=FACTORS[:OUTFACTORS]:SLOTS")
        name, rest = entry.split("=", 1)
        pieces = rest.split(":")
        if len(pieces) == 2:
            ins, slots = pieces
            outs = ins
        elif len(pieces) == 3:
            ins, outs, slots = pieces
        else:
            raise ValueError(f"bad keep entry {entry!r}")

        def factors(text: str) -> tuple[int, ...]:
            return tuple(int(x) for x in text.lower().split("x"))

        try:
            out[_party_name(layout, name.strip())] = PartyReduction(
                in_factors=factors(ins),
                out_factors=factors(outs),
                keep=tuple(int(x) for x in slots.split(",")),
            )
        except IndexError as err:  # a keep slot out of range
            raise ValueError(str(err)) from None
    return out


def cmd_reduce(args) -> int:
    w = load_path(args.file)
    keep = _parse_keep(args.keep, w.layout)
    reduced = reduced_process(w, keep)
    text = serialize(reduced)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gallery(args) -> int:
    if args.action == "list":
        for name in gallery_names():
            print(name)
        return 0
    try:
        entry = gallery_entry(args.name)
    except KeyError as err:
        raise ValueError(err.args[0]) from None
    sys.stdout.write(serialize(entry.process, metadata={"description": entry.notes}
                               if args.describe else None))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procval",
        description="Validate process matrices and their tensor products.",
    )
    parser.add_argument("--version", action="version", version=f"procval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a process-matrix document")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=None, help="term pruning threshold")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("decompose", help="list the operator-basis terms")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("product", help="decide whether a tensor product is a valid process")
    p.add_argument("file_w")
    p.add_argument("file_z")
    p.add_argument("--pairing", default=None,
                   help="comma list WPARTY=ZPARTY[:NAME]; default pairs by position")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("oracle", help="probe probability normalization")
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=0,
                   help="random channel tuples to add to the exact sweep (default 0)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random tuples (default 0); "
                        "matters only with --samples N > 0")
    p.add_argument("--threshold", type=float, default=DEFAULT_ORACLE_THRESHOLD)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reduce", help="trace out sub-parties and renormalize")
    p.add_argument("file")
    p.add_argument("--keep", action="append", required=True,
                   help="NAME=FACTORS[:OUTFACTORS]:SLOTS, e.g. X=2x2:0 (repeatable)")
    p.add_argument("--out", default=None, help="write the document here instead of stdout")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("gallery", help="list or export the bundled fixture processes")
    p.add_argument("action", choices=["list", "export"])
    p.add_argument("name", nargs="?")
    p.add_argument("--describe", action="store_true",
                   help="include the entry description as metadata")
    p.set_defaults(func=cmd_gallery)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once: argparse makes a help
    formatter per argument, which costs more than a small question."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "gallery" and args.action == "export" and not args.name:
        parser.error("gallery export needs an entry name")
    try:
        return args.func(args)
    except (ProcmatError, OSError, ValueError) as err:
        print(f"procval: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
