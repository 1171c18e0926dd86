"""End-to-end tests of the command-line interface and its exit-code
contract (0 = valid/pass, 1 = invalid/fail, 2 = usage/input error)."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from procval import (
    HSTerm,
    PartyLayout,
    PartyReduction,
    ProcessMatrix,
    TermSignature,
    check_sequence,
    find_blocking_pairs,
    gallery_entry,
    gallery_names,
    hsbasis,
    is_valid_process,
    linalg,
    normalization_oracle,
    random_valid_process,
    reduced_process,
    serialize,
    state_process,
    tensor_product,
    two_party_product_invalid,
    twoway_channel_process,
)
from procval.cli import main
from procval.io_format import load_path

from helpers import (
    BASE_NAMES,
    QUBIT_BIPARTITE,
    SQUARED_TWOWAY_WITNESS,
    dense_forbidden_weight,
    dense_product,
)


@pytest.fixture()
def docs(tmp_path):
    paths = {}
    for name in ("twoway-d2", "twoway-d4", "oneway-xy-d2", "oneway-yx-d2",
                 "state-bell-d2", "state-maxmix-d2"):
        p = tmp_path / f"{name}.procmat.json"
        p.write_text(serialize(gallery_entry(name).process), encoding="utf-8")
        paths[name] = str(p)
    w = twoway_channel_process(2)
    squared = tmp_path / "squared.procmat.json"
    squared.write_text(serialize(tensor_product(w, w)), encoding="utf-8")
    paths["squared"] = str(squared)
    lines = serialize(w).splitlines(keepends=True)
    lines[lines.index('    "entries": [\n') + 2] = "      [NaN, 0.0],\n"
    nan = tmp_path / "nan.procmat.json"
    nan.write_text("".join(lines), encoding="utf-8")
    paths["nan"] = str(nan)
    truncated = tmp_path / "truncated.procmat.json"
    truncated.write_text(serialize(w)[:200], encoding="utf-8")
    paths["truncated"] = str(truncated)
    return paths


class TestValidate:
    def test_valid_fixture_exits_zero(self, docs, capsys):
        assert main(["validate", docs["twoway-d2"]]) == 0
        out = capsys.readouterr().out
        assert "VALID" in out

    def test_invalid_product_exits_one_with_witness(self, docs, capsys):
        assert main(["validate", docs["squared"]]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "x1x2 y1y2" in out

    def test_truncated_file_exits_two(self, docs, capsys):
        assert main(["validate", docs["truncated"]]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/does/not/exist.json"]) == 2

    def test_json_output(self, docs, capsys):
        assert main(["validate", docs["twoway-d2"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "validate"
        assert payload["verdict"] is True
        assert payload["exit_code"] == 0
        assert set(payload) == {"command", "file", "verdict", "psd_defect",
                                "trace_defect", "forbidden_terms", "exit_code"}


class TestDecompose:
    def test_twoway_terms(self, docs, capsys):
        assert main(["decompose", docs["twoway-d2"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        indexed = {tuple(t["indices"]): t for t in payload["terms"]}
        assert set(indexed) == {(0, 0, 0, 0), (0, 3, 3, 0), (3, 0, 0, 3)}
        assert indexed[(0, 3, 3, 0)]["type"] == "x2 y1"
        assert indexed[(3, 0, 0, 3)]["type"] == "x1 y2"

    def test_huge_threshold_keeps_identity_row(self, docs, capsys):
        assert main(["decompose", docs["twoway-d2"], "--tol", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["terms"]) == 1
        assert payload["terms"][0]["type"] == "trivial"


@pytest.mark.parametrize("command, name", [("validate", "squared"), ("decompose", "twoway-d4"),
                                           ("decompose", "squared")])
@pytest.mark.parametrize("as_json", [False, True])
def test_one_type_string_per_listed_term(docs, capsys, monkeypatch, command, name, as_json):
    """Each listed term's type is made once and shared by the text lines and
    the ``--json`` payload."""
    calls = []
    real = TermSignature.type_string

    def spy(sig, layout):
        calls.append(sig)
        return real(sig, layout)

    monkeypatch.setattr(TermSignature, "type_string", spy)
    main([command, docs[name]] + ["--json"] * as_json)
    out = capsys.readouterr().out
    if as_json:
        payload = json.loads(out)
        listed = payload["forbidden_terms" if command == "validate" else "terms"]
        assert len(calls) == sum(t["type"] != "trivial" for t in listed) > 0
    else:
        assert len(calls) == out.count("  type ") - (command == "decompose") > 0


class TestProduct:
    def test_squared_twoway(self, docs, capsys):
        assert main(["product", docs["twoway-d2"], docs["twoway-d2"], "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is False
        assert len(payload["blocking_pairs"]) == 2
        assert payload["two_party_check_invalid"] is True
        assert payload["pattern_verdict"] is False
        assert payload["cross_check"] == "agree"
        w = twoway_channel_process(2)
        assert payload["forbidden_weight"] == pytest.approx(
            dense_forbidden_weight(dense_product(w, w)), rel=1e-12)

    def test_oneway_same_direction(self, docs, capsys):
        assert main(["product", docs["oneway-xy-d2"], docs["oneway-xy-d2"]]) == 0
        assert "VALID" in capsys.readouterr().out

    def test_oneway_opposite_directions(self, docs):
        assert main(["product", docs["oneway-xy-d2"], docs["oneway-yx-d2"]]) == 1

    def test_explicit_pairing(self, docs):
        assert main(["product", docs["twoway-d2"], docs["twoway-d2"],
                     "--pairing", "X=X,Y=Y"]) == 1

    def test_bad_pairing_exits_two(self, docs, capsys):
        assert main(["product", docs["twoway-d2"], docs["twoway-d2"],
                     "--pairing", "X=X"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("pairing", ["Q=X,Y=Y", "X=X,Y=Q"])
    def test_unknown_pairing_party_exits_two(self, docs, capsys, pairing):
        assert main(["product", docs["twoway-d2"], docs["twoway-d2"],
                     "--pairing", pairing]) == 2
        assert "error" in capsys.readouterr().err

    def test_pairing_names_the_merged_parties(self, docs, capsys):
        assert main(["product", docs["twoway-d2"], docs["oneway-xy-d2"],
                     "--pairing", "X=Y:P,Y=X:Q"]) == 1
        assert "parties: P(4->4) Q(4->4)   dim 256" in capsys.readouterr().out

    def test_blank_pairing_chunks_are_skipped(self, docs, capsys):
        files = [docs["twoway-d2"], docs["oneway-xy-d2"]]
        assert main(["product", *files, "--pairing", "X=X,Y=Y"]) == 1
        want = capsys.readouterr().out
        assert main(["product", *files, "--pairing", " X=X,, Y=Y ,"]) == 1
        assert capsys.readouterr().out == want

    def test_pairing_entry_without_equals_exits_two(self, docs, capsys):
        assert main(["product", docs["twoway-d2"], docs["twoway-d2"],
                     "--pairing", "X=X,YY"]) == 2
        assert capsys.readouterr().err == (
            "procval: error: bad pairing entry 'YY', expected WPARTY=ZPARTY[:NAME]\n")

    def test_each_input_is_extracted_once(self, docs, capsys, monkeypatch):
        """The blocking-pair search and the two-party shortcut read the same
        two records, and the cross-check extracts nothing, so two operators
        are extracted (``hsbasis._extract`` is the extraction every record
        and every ``coefficient_tensor`` runs)."""
        extracted, real = [], hsbasis._extract

        def spy(m, dims, *args):
            extracted.append(tuple(dims))
            return real(m, dims, *args)

        monkeypatch.setattr(hsbasis, "_extract", spy)
        assert main(["product", docs["twoway-d2"], docs["oneway-xy-d2"], "--json"]) == 1
        assert len(extracted) == 2
        monkeypatch.setattr(hsbasis, "_extract", real)
        payload = json.loads(capsys.readouterr().out)
        w, z = (load_path(docs[n]) for n in ("twoway-d2", "oneway-xy-d2"))
        report = find_blocking_pairs(w, z)
        assert payload["verdict"] is report.verdict is False
        assert payload["blocking_pairs"] == [
            {"first": {"indices": list(tw.indices), "coeff": tw.coeff},
             "second": {"indices": list(tz.indices), "coeff": tz.coeff},
             "cases": [list(c) for c in cases]}
            for (tw, tz), cases in zip(report.blocking_pairs, report.per_party_cases)]
        assert payload["two_party_check_invalid"] is two_party_product_invalid(w, z) is True
        assert payload["pattern_verdict"] is False and payload["cross_check"] == "agree"

    @pytest.mark.parametrize("second, dim", [("oneway-xy-d2", 256), ("twoway-d4", 4096)])
    def test_cross_check_stays_at_factor_size(self, docs, capsys, monkeypatch, second, dim):
        """Every spectrum and every extraction is of a factor, one of each
        per factor for the records; the cross-check reads the records'
        extremes and takes neither."""
        extracted, dims = [], []
        real_extract, real_extremes = hsbasis._extract, linalg._hermitian_extremes

        def spy(m, sub, *args):
            extracted.append(len(m))
            return real_extract(m, sub, *args)

        def spectrum_spy(a, *args):
            dims.append(len(a))
            return real_extremes(a, *args)

        monkeypatch.setattr(hsbasis, "_extract", spy)
        monkeypatch.setattr(linalg, "_hermitian_extremes", spectrum_spy)
        assert main(["product", docs["twoway-d2"], docs[second]]) == 1
        out = capsys.readouterr().out
        assert f"dim {dim} " in out and "invalid, forbidden weight" in out and "(agree)" in out
        factor_dims = [16, dim // 16]
        assert sorted(extracted) == sorted(dims) == factor_dims

    def test_dim_4096_product_makes_no_dim_squared_array(self, docs, capsys):
        """``twoway-d2 x twoway-d4`` is decided and cross-checked at a traced
        peak (about 5 MB) below one dim² array of 16.8 M entries, even of
        bools (16 MB; 268 MB as complex). Its larger factor's operator is
        1 MB."""
        tracemalloc.start()
        try:
            code = main(["product", docs["twoway-d2"], docs["twoway-d4"]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and "(agree)" in capsys.readouterr().out
        assert peak < 12 * 2 ** 20, peak

    def test_overflowing_product_is_an_input_error(self, tmp_path, capsys):
        """``I/2 + 1e160 (X on the input)`` is a finite document, but its
        product with itself overflows the double range: exit 2, as the
        library's ``is_valid_process(tensor_product(huge, huge))`` raises."""
        layout = PartyLayout.of(("A", 2, 2))
        huge = ProcessMatrix(layout, np.eye(4) / 2 + 1e160 * np.kron([[0, 1], [1, 0]], np.eye(2)))
        path = tmp_path / "huge.procmat.json"
        path.write_text(serialize(huge), encoding="utf-8")
        with pytest.raises(ValueError, match="non-finite"):
            is_valid_process(tensor_product(huge, huge))
        assert main(["product", str(path), str(path)]) == 2
        assert "the product overflows" in capsys.readouterr().err

    @staticmethod
    def write_near_maxmix(tmp_path, **terms) -> list[str]:
        """One ``X(2->2)Y(2->2)`` document per keyword: ``I/4`` plus the
        given ``HSTerm`` list."""
        paths = []
        for name, ts in terms.items():
            op = np.eye(16) / 4 + hsbasis.reconstruct(ts, QUBIT_BIPARTITE.subsystem_dims())
            path = tmp_path / f"{name}.procmat.json"
            path.write_text(serialize(ProcessMatrix(QUBIT_BIPARTITE, op)), encoding="utf-8")
            paths.append(str(path))
        return paths

    def test_sub_threshold_signalling_pair(self, tmp_path, capsys):
        """``I/4 + 1e-6 s(0,3,3,0)`` x ``I/4 + 1e-6 s(3,0,0,3)``: the two
        small signalling terms block, and the pattern weights see them
        too, although the dense extraction of the built product would prune
        their 1e-12 product term and say valid."""
        paths = self.write_near_maxmix(tmp_path, w=[HSTerm((0, 3, 3, 0), 1e-6)],
                                       z=[HSTerm((3, 0, 0, 3), 1e-6)])
        assert main(["product", *paths]) == 1
        out = capsys.readouterr().out
        assert "pattern-weight check of the product: invalid" in out and "(agree)" in out
        assert "verdict: INVALID" in out
        assert main(["product", *paths, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        # The product term 1e-12 s(3,12,12,3), times dim 256.
        assert payload["forbidden_weight"] == pytest.approx(256 * 1e-24, rel=1e-6, abs=0)

    def test_many_sub_threshold_terms_disagree(self, tmp_path, capsys):
        """Nine terms of 0.5e-9 on one X-output, Y-input pattern are each
        below the per-term threshold, so the verdict drops them, but their
        pattern weight is above the weight threshold: against the signalling
        term of ``I/4 + 1e-6 s(3,0,0,3)`` the cross-check finds a forbidden
        pattern and says so (``docs/tolerances.md``)."""
        paths = self.write_near_maxmix(
            tmp_path, w=[HSTerm((0, i, j, 0), 0.5e-9) for i in (1, 2, 3) for j in (1, 2, 3)],
            z=[HSTerm((3, 0, 0, 3), 1e-6)])
        assert main(["product", *paths]) == 0
        out = capsys.readouterr().out
        assert "pattern-weight check of the product: invalid" in out and "(disagree)" in out
        assert "verdict: VALID" in out


class TestProductThresholdEdge:
    """The product's PSD and trace thresholds, ``1e-9 ‖W‖_F ‖Z‖_F`` and
    ``1e-9 d_out``, are applied by ``FactorRecord.psd_and_trace`` on the
    record merged from the factors' records. ``is_valid_process`` of the
    built product, the ``w_valid`` of a fold's next step and the
    pattern-weight check of ``procval product`` all read that record, so
    they flip together at 0.5x and 2x of each threshold; the factor ``W``
    flips at 0.5x and 2x of its own. ``W`` and ``Z`` hold input terms only,
    so no pair blocks and only these two checks decide."""

    @staticmethod
    def answers(w, tmp_path, capsys):
        z = gallery_entry("state-product-d2").process
        paths = []
        for name, p in (("w", w), ("z", z)):
            path = tmp_path / f"{name}.procmat.json"
            path.write_text(serialize(p), encoding="utf-8")
            paths.append(str(path))
        capsys.readouterr()
        assert main(["product", *paths, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["blocking_pairs"] == []
        report = is_valid_process(tensor_product(w, z))
        assert not report.forbidden_terms
        assert check_sequence([w, z, z]).steps[1].w_valid is report.verdict
        return report, payload["pattern_verdict"]

    @staticmethod
    def negative(d):
        """A process with the single negative eigenvalue ``-d``: the input
        state ``diag(1 + d, 0, 0, -d)``, unit trace per output."""
        return state_process(np.diag([1.0 + d, 0.0, 0.0, -d]), QUBIT_BIPARTITE, tol=1e-6)

    @pytest.mark.parametrize("factor, valid", [(0.5, True), (2.0, False)])
    def test_psd(self, tmp_path, capsys, factor, valid):
        z = gallery_entry("state-product-d2").process
        lam_z = linalg.eigenvalue_range(z.op)[1]
        norm_w = linalg.frobenius(self.negative(0.0).op)
        limit = 1e-9 * norm_w * linalg.frobenius(z.op)
        # The product's smallest eigenvalue is -d times Z's largest.
        report, pattern_verdict = self.answers(self.negative(factor * limit / lam_z),
                                               tmp_path, capsys)
        assert report.psd_defect == pytest.approx(factor * limit, rel=1e-6)
        assert report.trace_defect <= 1e-14
        assert report.verdict is pattern_verdict is valid
        own = is_valid_process(self.negative(factor * 1e-9 * norm_w))
        assert own.psd_defect == pytest.approx(factor * 1e-9 * norm_w, rel=1e-6)
        assert own.verdict is valid

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("factor, valid", [(0.5, True), (2.0, False)])
    def test_trace(self, tmp_path, capsys, sign, factor, valid):
        """``W = I/4 + t I`` is off its trace ``d_out = 4`` by ``16 t``, and
        the product, ``tr W · tr Z``, by ``16 t · 4``: both thresholds are
        passed at the same ``t``."""
        t = sign * factor * 1e-9 * 4 / 16
        w = ProcessMatrix(QUBIT_BIPARTITE, (0.25 + t) * np.eye(16))
        report, pattern_verdict = self.answers(w, tmp_path, capsys)
        assert report.trace_defect == pytest.approx(factor * 1e-9 * 16, rel=1e-6)
        assert report.psd_defect <= 0
        assert report.verdict is pattern_verdict is valid
        own = is_valid_process(w)
        assert own.trace_defect == pytest.approx(factor * 1e-9 * 4, rel=1e-6)
        assert own.verdict is valid


class TestOracle:
    def test_valid_process_passes(self, docs, capsys):
        assert main(["oracle", docs["twoway-d2"], "--samples", "25",
                     "--seed", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_deviation"] < 1e-9

    def test_squared_twoway_fails_by_battery(self, docs, capsys):
        assert main(["oracle", docs["squared"], "--samples", "0", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_deviation"] == pytest.approx(2.0 ** -7, abs=1e-12)
        assert payload["witness_label"] == SQUARED_TWOWAY_WITNESS
        assert payload["witness_channels"]

    @pytest.mark.parametrize("name, samples", [("squared", 0), ("twoway-d2", 6)])
    def test_witness_listing_is_each_choi_entry_as_re_im(self, docs, capsys, name, samples):
        main(["oracle", docs[name], "--samples", str(samples), "--seed", "3", "--json"])
        payload = json.loads(capsys.readouterr().out)
        witness = normalization_oracle(load_path(docs[name]), samples=samples, seed=3).witness
        assert witness and len(payload["witness_channels"]) == len(witness)
        for listed, ch in zip(payload["witness_channels"], witness):
            expect = [[float(x.real), float(x.imag)] for x in ch.choi.reshape(-1)]
            assert json.dumps(listed["choi"]) == json.dumps(expect)

    def test_battery_only_run(self, docs, capsys):
        assert main(["oracle", docs["state-maxmix-d2"], "--samples", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_deviation"] <= 1e-12
        assert payload["evaluations"] == 14

    def test_zero_samples_agrees_with_validate(self, tmp_path, capsys):
        """On every gallery entry and every ordered product of the two-party
        qubit entries, ``oracle --samples 0`` exits as ``validate`` does, and
        a valid input deviates by at most 1e-12."""
        procs = {name: gallery_entry(name).process for name in gallery_names()}
        for a, b in itertools.product(BASE_NAMES, repeat=2):
            procs[f"{a}x{b}"] = tensor_product(procs[a], procs[b])
        assert len(procs) == 8 + 25
        codes = set()
        for name, w in procs.items():
            path = tmp_path / f"{name}.procmat.json"
            path.write_text(serialize(w), encoding="utf-8")
            code = main(["validate", str(path)])
            codes.add(code)
            capsys.readouterr()
            assert main(["oracle", str(path), "--samples", "0", "--json"]) == code, name
            payload = json.loads(capsys.readouterr().out)
            if code == 0:
                assert payload["max_deviation"] <= 1e-12, name
        assert codes == {0, 1}

    def test_default_is_the_sweep_alone(self, docs, capsys):
        """With no flags the oracle draws no random tuples: its payload is the
        ``--samples 0`` one, and it counts only the 196 sweep tuples of a
        two-party qubit process."""
        assert main(["oracle", docs["twoway-d2"], "--json"]) == 0
        default = capsys.readouterr().out
        assert main(["oracle", docs["twoway-d2"], "--samples", "0", "--json"]) == 0
        assert capsys.readouterr().out == default
        payload = json.loads(default)
        assert payload["samples"] == 0
        assert payload["evaluations"] == 14 * 14
        assert payload["witness_label"].startswith("sweep[")

    def test_default_still_fails_the_squared_twoway(self, docs, capsys):
        assert main(["oracle", docs["squared"]]) == 1
        out = capsys.readouterr().out
        assert f"witness: {SQUARED_TWOWAY_WITNESS}" in out
        assert "verdict: FAIL" in out

    def test_seed_env_is_not_read(self, docs, monkeypatch, capsys):
        """``--seed`` is the only source of the seed: ``$PROCVAL_SEED``, an
        integer or not, changes neither the answer nor the exit code."""
        args = ["oracle", docs["twoway-d2"], "--samples", "3", "--json"]
        assert main(args) == 0
        want = capsys.readouterr()
        assert json.loads(want.out)["seed"] == 0
        for env in ("17", "x"):
            monkeypatch.setenv("PROCVAL_SEED", env)
            assert main(args) == 0
            assert capsys.readouterr() == want, env


class TestReduce:
    def test_merged_form_emits_qubit_form_bytes(self, docs, capsys):
        assert main(["reduce", docs["twoway-d4"],
                     "--keep", "X=2x2:0", "--keep", "Y=2x2:0"]) == 0
        out = capsys.readouterr().out
        assert out == serialize(twoway_channel_process(2))

    def test_keep_must_pair_input_with_output(self, docs, capsys):
        assert main(["reduce", docs["twoway-d4"],
                     "--keep", "X=2x2/4:0", "--keep", "Y=2x2:0"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("keep", ["Q=2x2:0", "X=2x2:2"])
    def test_unknown_party_or_slot_exits_two(self, docs, capsys, keep):
        assert main(["reduce", docs["twoway-d4"], "--keep", keep]) == 2
        assert "error" in capsys.readouterr().err

    def test_separate_output_factors(self, tmp_path, capsys):
        """``NAME=IN:OUT:SLOTS`` factors a party whose input and output
        differ: ``X(2->4)`` as ``2x1`` in and ``2x2`` out, keeping slot 0."""
        w = random_valid_process(PartyLayout.of(("X", 2, 4), ("Y", 2, 2)), seed=3)
        path = tmp_path / "w.procmat.json"
        path.write_text(serialize(w), encoding="utf-8")
        assert main(["reduce", str(path), "--keep", "X=2x1:2x2:0"]) == 0
        want = reduced_process(w, {"X": PartyReduction((2, 1), (2, 2), (0,))})
        assert want.layout == PartyLayout.of(("X", 2, 2), ("Y", 2, 2))
        assert capsys.readouterr().out == serialize(want)

    @pytest.mark.parametrize("keep, message", [
        ("X2x2:0", "bad keep entry 'X2x2:0', expected NAME=FACTORS[:OUTFACTORS]:SLOTS"),
        ("X=2:2:2:0", "bad keep entry 'X=2:2:2:0'"),
    ])
    def test_malformed_keep_entry_exits_two(self, docs, capsys, keep, message):
        assert main(["reduce", docs["twoway-d4"], "--keep", keep]) == 2
        assert capsys.readouterr().err == f"procval: error: {message}\n"

    def test_write_to_file(self, docs, tmp_path):
        out = tmp_path / "reduced.procmat.json"
        assert main(["reduce", docs["twoway-d4"], "--keep", "X=2x2:0",
                     "--keep", "Y=2x2:0", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == serialize(twoway_channel_process(2))


class TestGallery:
    def test_list_is_stable(self, capsys):
        assert main(["gallery", "list"]) == 0
        names = capsys.readouterr().out.split()
        assert names == sorted(names)
        assert "twoway-d2" in names

    def test_export_roundtrips(self, capsys):
        assert main(["gallery", "export", "twoway-d2"]) == 0
        out = capsys.readouterr().out
        assert out == serialize(gallery_entry("twoway-d2").process)

    def test_unknown_name(self, capsys):
        assert main(["gallery", "export", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_export_needs_name(self):
        with pytest.raises(SystemExit) as err:
            main(["gallery", "export"])
        assert err.value.code == 2


class TestThresholdInput:
    """``--tol`` and ``--threshold`` must be finite numbers >= 0: anything
    else is an input error (exit 2), not a verdict."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command, option, name", [
        ("validate", "--tol", "squared"), ("validate", "--tol", "twoway-d2"),
        ("decompose", "--tol", "twoway-d2"), ("oracle", "--threshold", "twoway-d2"),
        ("oracle", "--threshold", "nan")])
    def test_bad_values_exit_two(self, docs, capsys, command, option, name, value):
        assert main([command, docs[name], option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be a finite number >= 0" in captured.err

    def test_zero_tol_still_answers(self, docs, capsys):
        assert main(["validate", docs["twoway-d2"], "--tol", "0"]) == 0
        assert main(["validate", docs["squared"], "--tol", "0"]) == 1
        assert main(["decompose", docs["twoway-d2"], "--tol", "0"]) == 0
        assert main(["oracle", docs["twoway-d2"], "--threshold", "0"]) in (0, 1)
        assert main(["oracle", docs["squared"], "--threshold", "1e-9"]) == 1

    def test_explicit_default_tol_lists_the_default_terms(self, docs, capsys):
        capsys.readouterr()
        assert main(["validate", docs["squared"], "--json"]) == 1
        default = json.loads(capsys.readouterr().out)
        assert main(["validate", docs["squared"], "--tol", "1e-9", "--json"]) == 1
        explicit = json.loads(capsys.readouterr().out)
        assert explicit["forbidden_terms"] == default["forbidden_terms"]


def test_library_key_error_is_not_an_input_error(docs, monkeypatch):
    """Only errors in the input map to exit 2; a KeyError raised inside a
    library call is a fault of the program and propagates."""
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr("procval.cli.is_valid_process", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["validate", docs["twoway-d2"]])


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


class TestReaderInputErrors:
    """A document the reader cannot take is an input error: exit 2 and one
    line on stderr, never a traceback."""

    @staticmethod
    def edited(tmp_path, layout, old, new):
        text = serialize(random_valid_process(PartyLayout.of(layout), seed=1))
        assert text.count(old) == 1
        path = tmp_path / "edited.procmat.json"
        path.write_text(text.replace(old, new), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("layout, old, message", [
        (("A", 1, 2), '"d_in": 1', "d_in must be a positive integer (at parties[0])"),
        (("A", 2, 1), '"d_out": 1', "d_out must be a positive integer (at parties[0])"),
        (("A", 1, 1), '"dim": 1', "matrix.dim must be a positive integer (at matrix.dim)"),
    ])
    def test_boolean_dimension(self, tmp_path, capsys, layout, old, message):
        """``true`` decodes to a bool, which Python counts as the integer 1."""
        path = self.edited(tmp_path, layout, old, old.replace("1", "true"))
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err == f"procval: error: {message}\n"

    def test_deep_nesting(self, tmp_path, capsys):
        """Too deep for ``json.loads``, on the general path and in the
        canonical path's metadata, which then leaves it to the general path."""
        deep = '{"a": ' * 50_000 + "1" + "}" * 50_000
        canonical = serialize(twoway_channel_process(2), metadata={"x": 1}).replace('{"x": 1}', deep)
        for k, text in enumerate(["[" * 200_000 + "]" * 200_000, canonical]):
            path = tmp_path / f"deep{k}.procmat.json"
            path.write_text(text, encoding="utf-8")
            assert main(["validate", str(path)]) == 2
            assert capsys.readouterr().err == (
                "procval: error: invalid JSON: nested too deeply to decode (at $)\n")

    def test_non_finite_entry_still_parses(self, docs, capsys):
        """``decompose`` runs no finiteness check, so a NaN document is
        listed (exit 0), as the benchmark's ``cli-docs`` round expects."""
        assert main(["decompose", docs["nan"]]) == 0
        assert capsys.readouterr().out.endswith(" terms\n")


@pytest.mark.parametrize("command", ["validate", "product"])
def test_non_finite_entry_is_an_input_error(docs, capsys, command):
    files = [docs["nan"]] * (2 if command == "product" else 1)
    assert main([command, *files]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e154, 2e154])
def test_extraction_overflow_is_an_input_error(tmp_path, capsys, scale):
    """Entries up to about 2.5e307 are finite, but their coefficients
    overflow: ``validate`` exits 2 and names the overflow."""
    w, z = (ProcessMatrix(p.layout, scale * p.op) for p in (
        twoway_channel_process(2), gallery_entry("state-bell-d2").process))
    path = tmp_path / "near-overflow.procmat.json"
    path.write_text(serialize(tensor_product(w, z)), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "coefficient extraction overflowed" in capsys.readouterr().err


def test_oracle_never_passes_a_non_finite_entry(docs, capsys):
    assert main(["oracle", docs["nan"], "--samples", "2"]) != 0
    assert "PASS" not in capsys.readouterr().out


def test_exit_code_contract_over_gallery(docs):
    for name in ("twoway-d2", "twoway-d4", "oneway-xy-d2", "oneway-yx-d2",
                 "state-bell-d2", "state-maxmix-d2"):
        assert main(["validate", docs[name]]) == 0, name
    assert main(["validate", docs["squared"]]) == 1
    assert main(["validate", docs["truncated"]]) == 2
