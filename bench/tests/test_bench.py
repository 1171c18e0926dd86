"""Tests of the benchmark itself: every workload runs to its end at a
reduced size, every correctness check rejects a planted wrong answer, and
the tracer records the layers it names.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402

pv = run.import_procval()

import cli_docs  # noqa: E402
import dense_fold  # noqa: E402
import product_rule  # noqa: E402
import reference  # noqa: E402
from harness import (GAUGE_REFERENCE_S, CliAnswer, SpeedGauge, Workload,  # noqa: E402
                     check_answers, is_failed, run_rounds)
from tracing import LAYER_METRICS, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def product_wl() -> Workload:
    return product_rule.build(pv, seed=5)


@pytest.fixture(scope="module")
def dense_wl() -> Workload:
    return dense_fold.build(pv, seed=5)


@pytest.fixture(scope="module")
def cli_wl(tmp_path_factory) -> Workload:
    return cli_docs.build(pv, seed=5, workdir=str(tmp_path_factory.mktemp("docs")))


def labels_of(wl: Workload, prefix: str) -> list[int]:
    return [i for i, op in enumerate(wl.ops) if op.label.startswith(prefix)]


def first_answer(wl: Workload, i: int):
    return wl.ops[i].call()


# -- each workload runs to its end at a reduced size -------------------------

def reduced_product_rule(wl: Workload) -> Workload:
    keep = []
    for kind in ("find_blocking_pairs", "two_party_product_invalid",
                 "signalling_directions", "check_sequence"):
        keep += labels_of(wl, kind)[:15]
    return wl.subset(sorted(keep))


def test_product_rule_runs_and_checks(product_wl):
    wl = reduced_product_rule(product_wl)
    result = run_rounds(wl, seconds=0.0)
    assert result.rounds == 1 and result.failed == 0
    assert check_answers(wl, result) == []


def test_dense_fold_runs_and_checks(dense_wl):
    # The dim-256 questions only; the dim-1296 and dim-4096 folds take
    # seconds each and are exercised by the benchmark runs themselves.
    small = [i for i, op in enumerate(dense_wl.ops)
             if "twoway-d3" not in op.label and op.label.count(",") < 3]
    wl = dense_wl.subset(small[:40])
    result = run_rounds(wl, seconds=0.0)
    assert result.failed == 0
    assert check_answers(wl, result) == []


def test_cli_docs_runs_and_checks(cli_wl):
    result = run_rounds(cli_wl, seconds=0.0)
    # The two questions on the NaN document fail until parse rejects it.
    failed = [op.label for op, out in zip(cli_wl.ops, result.first) if is_failed(op, out)]
    assert failed == [op.label for op in cli_wl.ops if op.rejects]
    assert result.failed == 2
    assert check_answers(cli_wl, result) == []


def test_failed_share_is_the_same_every_round(cli_wl):
    rejecting = sum(op.rejects for op in cli_wl.ops)
    result = run_rounds(cli_wl.subset([i for i, op in enumerate(cli_wl.ops)
                                       if op.rejects or op.label.startswith("validate")]),
                        seconds=0.0)
    assert result.failed == rejecting


def test_speed_gauge_scales_by_the_samples_around_an_answer():
    gauge = SpeedGauge()
    gauge.samples = [(float(t), 1e-3 * 2**t) for t in range(10)]  # at t s, 2**t ms
    # An answer from 4.5 s to 4.6 s: the samples at 3, 4 s before it, 5, 6 s after.
    assert gauge.factor(4.5, 4.6) == pytest.approx(GAUGE_REFERENCE_S / 24e-3)
    # A long answer also takes every sample it spans: 1 s to 9 s.
    assert gauge.factor(2.5, 8.5) == pytest.approx(GAUGE_REFERENCE_S / 32e-3)


def test_adjusted_times_are_wall_times_scaled_by_the_gauge(product_wl):
    result = run_rounds(reduced_product_rule(product_wl), seconds=0.0)
    ratios = [t / w for ts, ws in zip(result.times, result.wall) for t, w in zip(ts, ws)]
    assert len(ratios) == result.attempted
    # The kernel's time on any working machine is within 10x of the reference.
    assert all(0.1 < r < 10 for r in ratios)


def test_same_seed_same_inputs(tmp_path):
    a = cli_docs.build(pv, seed=9, workdir=str(tmp_path / "a"))
    b = cli_docs.build(pv, seed=9, workdir=str(tmp_path / "b"))
    assert [op.label for op in a.ops] == [op.label for op in b.ops]
    for name in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    p1, p2 = product_rule.build(pv, seed=9), product_rule.build(pv, seed=9)
    assert [op.label for op in p1.ops] == [op.label for op in p2.ops]


# -- each check rejects a planted wrong answer -------------------------------

def test_product_rule_rejects_flipped_verdict(product_wl):
    i = labels_of(product_wl, "find_blocking_pairs")[0]
    out = first_answer(product_wl, i)
    assert product_wl.check(i, out) == []
    flipped = dataclasses.replace(out, verdict=not out.verdict)
    assert product_wl.check(i, flipped)


def test_product_rule_rejects_a_non_blocking_pair(product_wl):
    for i in labels_of(product_wl, "find_blocking_pairs"):
        out = first_answer(product_wl, i)
        if out.blocking_pairs:
            break
    tw, tz = out.blocking_pairs[0]
    # Make the first term a pure input on the first party: never blocking.
    n = len(tw.indices)
    pure_in = dataclasses.replace(tw, indices=(1,) + (0,) * (n - 1))
    planted = dataclasses.replace(out, blocking_pairs=((pure_in, tz),) + out.blocking_pairs[1:])
    assert any("pure input" in p for p in product_wl.check(i, planted))


def test_product_rule_rejects_flipped_shortcut_signalling_and_sequence(product_wl):
    for prefix in ("two_party_product_invalid", "signalling_directions"):
        i = labels_of(product_wl, prefix)[0]
        out = first_answer(product_wl, i)
        assert product_wl.check(i, out) == []
        assert product_wl.check(i, not out)
    i = labels_of(product_wl, "check_sequence")[0]
    out = first_answer(product_wl, i)
    assert product_wl.check(i, dataclasses.replace(out, verdict=not out.verdict))


def test_dense_fold_rejects_flipped_verdict_and_defects(dense_wl):
    fold = next(i for i in labels_of(dense_wl, "check_sequence")
                if "twoway-d3" not in dense_wl.ops[i].label
                and dense_wl.ops[i].label.count(",") == 2)
    out = first_answer(dense_wl, fold)
    assert dense_wl.check(fold, out) == []
    assert dense_wl.check(fold, dataclasses.replace(out, verdict=not out.verdict))
    step = 0 if out.first_invalid_step is None else None
    assert dense_wl.check(fold, dataclasses.replace(out, first_invalid_step=step))

    prod = next(i for i in labels_of(dense_wl, "is_valid_process")
                if "twoway-d3" not in dense_wl.ops[i].label)
    out = first_answer(dense_wl, prod)
    assert dense_wl.check(prod, out) == []
    assert dense_wl.check(prod, dataclasses.replace(out, verdict=not out.verdict))
    assert dense_wl.check(prod, dataclasses.replace(out, psd_defect=1e-3))
    assert dense_wl.check(prod, dataclasses.replace(out, trace_defect=1e-3))


def cli_index(wl: Workload, prefix: str, contains: str = "") -> int:
    return next(i for i in labels_of(wl, prefix) if contains in wl.ops[i].label)


def test_cli_docs_rejects_wrong_exit_code(cli_wl):
    i = cli_index(cli_wl, "validate")
    out = first_answer(cli_wl, i)
    assert cli_wl.check(i, out) == []
    assert cli_wl.check(i, dataclasses.replace(out, code=1 - out.code))
    j = cli_index(cli_wl, "product")
    out = first_answer(cli_wl, j)
    assert cli_wl.check(j, dataclasses.replace(out, code=1 - out.code))


def alter_one_digit(text: str, after: str) -> str:
    """Change one digit of the first entry line that follows ``after``."""
    start = text.index(after)
    k = next(p for p in range(start, len(text)) if text[p] in "123456789")
    return text[:k] + str(int(text[k]) % 9 + 1) + text[k + 1:]


def test_cli_docs_rejects_altered_export_and_reduction(cli_wl):
    i = cli_index(cli_wl, "gallery export", "twoway-d2")
    out = first_answer(cli_wl, i)
    assert cli_wl.check(i, out) == []
    bad = alter_one_digit(out.out, '"entries"')
    assert cli_wl.check(i, dataclasses.replace(out, out=bad))
    # A byte that parse ignores still breaks the round trip.
    assert cli_wl.check(i, dataclasses.replace(out, out=out.out.replace(", ", ",  ", 1)))
    j = cli_index(cli_wl, "reduce")
    out = first_answer(cli_wl, j)
    assert cli_wl.check(j, out) == []
    assert cli_wl.check(j, dataclasses.replace(out, out=alter_one_digit(out.out, '"entries"')))


def test_cli_docs_rejects_altered_decomposition_and_oracle(cli_wl):
    i = cli_index(cli_wl, "decompose")
    out = first_answer(cli_wl, i)
    payload = json.loads(out.out)
    payload["terms"][-1]["coeff"] += 1e-3
    assert cli_wl.check(i, dataclasses.replace(out, out=json.dumps(payload)))
    j = cli_index(cli_wl, "oracle", "--json")
    out = first_answer(cli_wl, j)
    assert cli_wl.check(j, out) == []
    payload = json.loads(out.out)
    payload["max_deviation"] = 0.5 if payload["max_deviation"] < 1e-9 else 0.0
    assert cli_wl.check(j, dataclasses.replace(out, out=json.dumps(payload)))


def test_cli_docs_rejects_a_written_document_that_does_not_round_trip(tmp_path):
    wl = cli_docs.build(pv, seed=3, workdir=str(tmp_path))
    i = next(i for i, op in enumerate(wl.ops)
             if op.label.startswith("validate reduced-"))
    out = first_answer(wl, i)
    assert wl.check(i, out) == []
    wl2 = cli_docs.build(pv, seed=3, workdir=str(tmp_path))
    path = tmp_path / wl2.ops[i].label.split()[1]
    path.write_text(path.read_text().replace(", ", ",  ", 1))
    assert any("serialize(parse(doc))" in p for p in wl2.check(i, out))


def test_nan_questions_fail_until_parse_rejects_them(cli_wl):
    rejecting = [op for op in cli_wl.ops if op.rejects]
    assert {op.label.split()[0] for op in rejecting} == {"oracle", "decompose"}
    assert is_failed(rejecting[0], CliAnswer(0, "", ""))
    assert not is_failed(rejecting[0], CliAnswer(2, "", "procval: error: ..."))


# -- the benchmark's own reference computations ------------------------------

def test_projector_signalling_matches_the_gallery():
    for name in pv.gallery_names():
        entry = pv.gallery_entry(name)
        if entry.process.layout.n_parties != 2:
            continue
        dims = entry.process.layout.subsystem_dims()
        assert reference.two_party_directions(entry.process.op, dims) == entry.signalling


def test_dense_term_rule_matches_is_valid_process():
    names = ("twoway-d2", "oneway-xy-d2", "oneway-yx-d2", "state-bell-d2")
    for a in names:
        for b in names:
            w, z = pv.gallery_entry(a).process, pv.gallery_entry(b).process
            op, dims = reference.built_product(w.op, w.layout.subsystem_dims(),
                                               z.op, z.layout.subsystem_dims())
            built = pv.tensor_product(w, z)
            assert np.allclose(op, built.op)
            assert reference.term_rule_holds(op, dims) == pv.is_valid_process(built).verdict


# -- tracing -----------------------------------------------------------------

def test_tracer_counts_layers_and_uninstalls():
    original = pv.find_blocking_pairs
    w = pv.gallery_entry("twoway-d2").process
    tracer = Tracer()
    tracer.install()
    try:
        assert pv.find_blocking_pairs is not original
        report = pv.find_blocking_pairs(w, w)
        tracer.end_round()
    finally:
        tracer.uninstall()
    assert pv.find_blocking_pairs is original
    assert pv.product.is_valid_process is pv.process.is_valid_process
    metrics = tracer.layer_metrics(rounds=1, random_valid_s=0.0)
    assert set(metrics) == {name for name, _ in LAYER_METRICS}
    nontrivial = sum(1 for t in w.terms() if not t.is_trivial())
    assert metrics["product.blocking_calls"] == 1
    assert metrics["product.pairs_examined"] == nontrivial ** 2
    assert metrics["product.blocking_found"] == len(report.blocking_pairs)
    assert metrics["process.validate_calls"] == 2
    assert metrics["process.validate_distinct_ratio"] == 0.5
    assert metrics["hsbasis.decompose_calls"] == 4
    totals = tracer.span_totals()["product.find_blocking_pairs"]
    assert 0 < totals["self"] < totals["total"]


# -- the command line --------------------------------------------------------

def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def run_bench(cwd, *args, timeout=300):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_traced_run_reports_every_layer_metric():
    proc = run_bench(os.path.dirname(BENCH), "--workload", "cli-docs", "--seed", "2",
                     "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 2
    assert list(result["metrics"]) == [name for name, _ in LAYER_METRICS]
    assert result["metrics"]["cli.calls"]["value"] == result["attempted"]


def test_untraced_run_reports_end_to_end_metrics():
    proc = run_bench(os.path.dirname(BENCH), "--workload", "product-rule", "--seed", "2",
                     "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "product-rule", "--seed", "1", "--seconds", "1",
                     timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
