"""Tests for the JSON schemas and the command-line interface."""

import ctypes
import hashlib
import json
import math
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chancert
import chancert.cli
from chancert import (
    BipartiteLayout,
    MatrixFileError,
    RankDecision,
    ToleranceConfig,
    equivalence_check,
    random_stinespring,
)
from chancert.certify import (
    NOT_HERMITIAN_NOTE,
    eb_verdict,
    pair_rules,
    ppt_rule,
    separability_verdict,
    witness_verdict,
)
from chancert.cli import ENV_VARS, main
from chancert.errors import EigensolverError
from chancert.io import (
    MATRIX_SCALE_LIMIT,
    OPERATOR_SCALE_RANGE,
    TOOL_VERSION,
    dumps,
    load_matrix,
    loads,
    matrix_file_dict,
    parse_matrix_file,
    save_json,
)
from chancert.harness import run_harness
from chancert.linalg import PsdCheck, psd_rule

from conftest import complex_gaussian, slightly_negative_choi


def strip_timestamp(text: str) -> dict:
    obj = json.loads(text)
    obj.pop("timestamp", None)
    return obj


class TestMatrixFiles:
    def test_floats_round_trip_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        m = complex_gaussian(rng, (4, 4))
        path = tmp_path / "m.json"
        save_json(path, matrix_file_dict(m, role="state", layout=BipartiteLayout(2, 2)))
        parsed = load_matrix(path)
        assert np.array_equal(parsed.matrix, m)
        assert parsed.role == "state"
        assert parsed.layout == BipartiteLayout(2, 2)

    def test_missing_field_rejected(self):
        with pytest.raises(MatrixFileError):
            parse_matrix_file({"schema_version": "1", "rows": 2, "cols": 2, "re": [[0, 0], [0, 0]]})

    def test_wrong_schema_version(self):
        payload = matrix_file_dict(np.eye(2))
        payload["schema_version"] = "0"
        with pytest.raises(MatrixFileError):
            parse_matrix_file(payload)

    def test_shape_mismatch_rejected(self):
        payload = matrix_file_dict(np.eye(2))
        payload["rows"] = 3
        with pytest.raises(MatrixFileError):
            parse_matrix_file(payload)

    def test_nan_rejected_on_parse(self):
        with pytest.raises(MatrixFileError):
            loads('{"schema_version": "1", "rows": 1, "cols": 1, "re": [[NaN]], "im": [[0]]}')

    def test_nan_rejected_on_write(self):
        payload = matrix_file_dict(np.eye(1))
        payload["re"] = [[float("nan")]]
        with pytest.raises(ValueError):
            dumps(payload)

    def test_infinite_entry_rejected(self, tmp_path, capsys):
        # json reads 1e999 as inf
        payload = matrix_file_dict(np.eye(4), role="choi", layout=BipartiteLayout(2, 2))
        payload["re"][0][0] = "entry"
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload).replace('"entry"', "1e999"))
        assert main(["analyze", str(path)]) == 2
        assert "matrix entries must be finite" in capsys.readouterr().err

    def test_deeply_nested_json_is_parse_error(self, tmp_path, capsys):
        # json's decoder recurses once per level, so this depth exhausts the
        # interpreter's recursion limit
        depth = 100_000
        payload = matrix_file_dict(np.eye(4), role="choi", layout=BipartiteLayout(2, 2))
        payload["re"] = "nested"
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(payload).replace('"nested"', "[" * depth + "]" * depth))
        for argv in (["analyze", str(path)], ["convert", str(path), "--to", "stinespring"]):
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err == "error: invalid JSON: nested too deeply\n", argv

    def test_inconsistent_layout_rejected(self):
        payload = matrix_file_dict(np.eye(4))
        payload["layout"] = [2, 3]
        with pytest.raises(MatrixFileError):
            parse_matrix_file(payload)

    @pytest.mark.parametrize("size, field, value", [
        (4, "layout", [2.9, 2]),
        (4, "layout", ["2", "2"]),
        (4, "layout", [None, 2]),
        (4, "dims", [True, 4]),
        (1, "rows", True),
        (1, "cols", True),
        (4, "re", "1.5"),
        (4, "re", True),
        (4, "im", "1.5"),
        (4, "im", True),
        (4, "kraus_index", True),
    ])
    def test_mistyped_field_rejected(self, tmp_path, size, field, value):
        # integer fields must be JSON integers (a boolean is not), and matrix
        # entries JSON numbers; re/im values replace the first entry
        d = int(np.sqrt(size))
        payload = matrix_file_dict(np.eye(size), role="state", dims=(d, d))
        path = tmp_path / "m.json"
        save_json(path, payload)
        assert main(["analyze", str(path)]) == 0  # well formed before the change
        if field in ("re", "im"):
            payload[field][0][0] = value
        else:
            payload[field] = value
        save_json(path, payload)
        with pytest.raises(MatrixFileError):
            parse_matrix_file(payload)
        assert main(["analyze", str(path)]) == 2


def json_reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False, indent=1)


JSON_STRINGS = st.one_of(st.text(), st.sampled_from(["", "\x00\x1f\t\n\"\\/", "é€", "\u2028",
                                                      "\U0001f600", "\ud800"]))
JSON_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, 1e16, 0.1]))
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-(2**80), 2**80),
                         JSON_FLOATS, JSON_STRINGS)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(JSON_FLOATS, max_size=5),  # all floats: the joined path
        st.lists(JSON_FLOATS, min_size=1, max_size=4).map(lambda xs: [*xs, 1, False]),
        st.dictionaries(JSON_STRINGS, children, max_size=5),
    ),
    max_leaves=40,
)
# Matrix-shaped values: lists of rows, which ``dumps`` writes a block of
# float rows at a time, and the rows that send a matrix to its per-entry path.
FLOAT_ROWS = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(JSON_FLOATS, min_size=n, max_size=n), min_size=1, max_size=4))
ODD_ENTRIES = st.sampled_from([0, -7, 2**70, True, False, None, "0.5", math.nan, math.inf,
                               -math.inf, np.float64(math.nan), np.float64(0.5)])


def planted(rows_at_entry):
    rows, i, j, entry = rows_at_entry
    row = rows[i % len(rows)]
    row[j % len(row)] = entry
    return rows


MATRIX_VALUES = st.one_of(
    FLOAT_ROWS,  # equal-length float rows
    st.tuples(FLOAT_ROWS, st.integers(0, 3), st.integers(0, 3), ODD_ENTRIES).map(planted),
    st.lists(st.lists(JSON_FLOATS, max_size=4), min_size=1, max_size=4),  # ragged and empty
    FLOAT_ROWS.map(tuple),  # a tuple of rows
    FLOAT_ROWS.map(lambda rows: [tuple(row) for row in rows]),  # rows that are tuples
    FLOAT_ROWS.map(lambda rows: [[np.float64(x) for x in row] for row in rows]),
    st.lists(st.lists(st.one_of(st.booleans(), st.integers(-3, 3), JSON_FLOATS),
                      min_size=1, max_size=4), min_size=1, max_size=4),
)


class TestEncoder:
    """``dumps`` writes exactly the bytes of json.dumps(sort_keys=True,
    allow_nan=False, indent=1), errors included."""

    @settings(max_examples=300, deadline=None)
    @given(obj=st.dictionaries(JSON_STRINGS, JSON_VALUES, max_size=6))
    def test_bytes_match_json(self, obj):
        assert dumps(obj) == json_reference(obj)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    @pytest.mark.parametrize("place", [
        lambda x: x,
        lambda x: {"a": x},
        lambda x: {"re": [[0.5, 1.0], [0.25, x]]},
        lambda x: {"a": {"b": [1, "c", (2.0, x)]}, "z": [math.nan]},
        lambda x: [x, math.nan],
    ])
    def test_non_finite_float_raises_json_error(self, bad, place):
        obj = place(bad)
        with pytest.raises(ValueError) as expected:
            json_reference(obj)
        with pytest.raises(ValueError) as raised:
            dumps(obj)
        assert str(raised.value) == str(expected.value)
        assert str(raised.value) == f"Out of range float values are not JSON compliant: {bad!r}"

    @pytest.mark.parametrize("obj", [
        {"a": object()}, {"a": np.int64(1)}, {"a": [1.0, {1, 2}]}, {1: "one"}, {"a": b"x"},
    ])
    def test_other_types_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            dumps(obj)

    @settings(max_examples=300, deadline=None)
    @given(obj=st.dictionaries(st.one_of(JSON_STRINGS, st.integers(0, 2)), MATRIX_VALUES,
                               max_size=3))
    def test_matrices_match_json(self, obj):
        # json's bytes, or its error: a NaN or infinity anywhere in a matrix
        # raises json's ValueError; a key that is not a string, TypeError
        if not all(isinstance(key, str) for key in obj):
            with pytest.raises(TypeError):
                dumps(obj)
            return
        try:
            expected = json_reference(obj)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                dumps(obj)
            assert str(raised.value) == str(error)
        else:
            assert dumps(obj) == expected


class TestOutputFormat:
    """Every file and stdout text that a command writes is the text json.dumps
    writes for the same object, and json.dumps is not called to write it."""

    @staticmethod
    def commands(tmp_path: Path) -> list[list[str]]:
        """generate of each kind, analyze of each role, convert to each
        target and verify-theorem, each writing to stdout and to a file."""
        sources = {
            "choi": ["--kind", "depolarizing", "--dims", "3"],
            "state": ["--kind", "tiles"],
            "stinespring": ["--kind", "random-stinespring", "--dims", "2,2,3", "--seed", "4"],
        }
        argvs = [["generate", *args] for args in (
            *sources.values(),
            *(["--kind", kind, "--dims", "2"] for kind in ("identity", "transpose", "dephasing")),
            ["--kind", "schur", "--params", "0.5,0.3,0.2"],
            ["--kind", "random-stinespring", "--dims", "3,2,4", "--seed", "9", "--index", "2",
             "--normalize"],
        )]
        argvs.append(["verify-theorem", "--dims", "2,2,3", "--trials", "20", "--seed", "3"])
        for role, args in sources.items():
            path = str(tmp_path / f"{role}.json")
            assert main(["generate", *args, "--output", path]) == 0
            argvs.append(["analyze", path])
            if role != "state":
                argvs += [["convert", path, "--to", target] for target in ("choi", "stinespring")]
        with_output = [[*argv, "--output", str(tmp_path / "out" / f"{i}.json")]
                       for i, argv in enumerate(argvs)]
        kraus = [["convert", str(tmp_path / f"{role}.json"), "--to", "kraus",
                  "--output", str(tmp_path / "out" / f"{role}-kraus.json")]
                 for role in ("choi", "stinespring")]
        return argvs + with_output + kraus

    def test_outputs_are_json_dumps_text(self, tmp_path, capsys, monkeypatch):
        argvs = self.commands(tmp_path)
        (tmp_path / "out").mkdir()
        capsys.readouterr()
        texts = []
        with monkeypatch.context() as patch:
            patch.setattr(json, "dumps", lambda *args, **kwargs: pytest.fail("json.dumps called"))
            for argv in argvs:
                assert main(argv) == 0, argv
                out, err = capsys.readouterr()
                assert err == ""
                if "--output" not in argv:
                    texts.append(out)
        files = sorted((tmp_path / "out").iterdir())
        assert len(texts) == 16 and len(files) == 16 + 9 + 3  # the Kraus ranks are 9 and 3
        texts += [path.read_text() for path in files]
        for text in texts:
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"


class TestCliAnalyze:
    def test_identity_choi(self, tmp_path, capsys):
        choi_path = tmp_path / "id.json"
        report_path = tmp_path / "report.json"
        assert main(["generate", "--kind", "identity", "--dims", "2",
                     "--output", str(choi_path)]) == 0
        assert main(["analyze", str(choi_path), "--output", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        predicates = report["analysis"]["predicates"]
        assert predicates["cp"]["value"] == "yes"
        assert predicates["ppt"]["value"] == "no"
        assert predicates["trace_preserving"]["value"] == "yes"
        assert report["input_digest"] == "sha256:" + hashlib.sha256(choi_path.read_bytes()).hexdigest()

    def test_input_read_once(self, tmp_path, monkeypatch):
        choi_path = tmp_path / "id.json"
        assert main(["generate", "--kind", "identity", "--dims", "2",
                     "--output", str(choi_path)]) == 0
        opened = []
        original = Path.open

        def counting_open(self, *args, **kwargs):  # read_bytes and read_text open through it
            opened.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counting_open)
        assert main(["analyze", str(choi_path), "--output", str(tmp_path / "r.json")]) == 0
        assert opened.count(choi_path) == 1

    def test_tiles_state(self, tmp_path):
        state_path = tmp_path / "tiles.json"
        report_path = tmp_path / "report.json"
        assert main(["generate", "--kind", "tiles", "--output", str(state_path)]) == 0
        assert main(["analyze", str(state_path), "--output", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        analysis = report["analysis"]
        assert analysis["predicates"]["ppt"]["value"] == "yes"
        assert analysis["ranks"]["state"]["rank"] == 4
        assert analysis["predicates"]["separable"]["value"] == "unknown"

    def test_dephasing_stinespring_both_eb(self, tmp_path):
        st_path = tmp_path / "schur.json"
        report_path = tmp_path / "report.json"
        assert main(["generate", "--kind", "schur", "--params", "1,1",
                     "--output", str(st_path)]) == 0
        assert main(["analyze", str(st_path), "--output", str(report_path)]) == 0
        predicates = json.loads(report_path.read_text())["analysis"]["predicates"]
        assert predicates["eb_phi"]["value"] == "yes"
        assert predicates["eb_psi"]["value"] == "yes"

    def test_purity_failure_exits_4(self, tmp_path, monkeypatch, capsys):
        # a purity failure on a non-fragile sample is a counterexample
        st_path = tmp_path / "st.json"
        assert main(["generate", "--kind", "random-stinespring", "--dims", "2,2,2", "--seed",
                     "1", "--index", "0", "--output", str(st_path)]) == 0
        original = chancert.certify.pair_rules
        monkeypatch.setattr(chancert.certify, "pair_rules",
                            lambda **records: (False, original(**records)[1]))
        assert main(["analyze", str(st_path), "--output", str(tmp_path / "r.json")]) == 4
        assert "purity rank equalities failed on a non-fragile sample" in capsys.readouterr().err

    def test_unmapped_error_is_internal_error(self, tmp_path, monkeypatch, capsys):
        # a ChancertError that no other exit code covers is an internal error
        choi_path = tmp_path / "id.json"
        assert main(["generate", "--kind", "identity", "--dims", "2",
                     "--output", str(choi_path)]) == 0

        def fail(args, cfg):
            raise EigensolverError("eigh did not converge")

        monkeypatch.setattr(chancert.cli, "cmd_analyze", fail)
        assert main(["analyze", str(choi_path)]) == 1
        assert capsys.readouterr() == ("", "internal error: eigh did not converge\n")

    @pytest.mark.parametrize("role, psd_key", [("choi", "cp"), ("state", "psd")])
    def test_non_hermitian_input_gets_no_rank_records(self, tmp_path, role, psd_key):
        # ranks come from eigenvalues, and no verdict on a matrix that is not
        # Hermitian reads them
        path, report_path = tmp_path / "m.json", tmp_path / "r.json"
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1.0
        save_json(path, matrix_file_dict(m, role=role, layout=BipartiteLayout(2, 2)))
        assert main(["analyze", str(path), "--output", str(report_path)]) == 0
        analysis = json.loads(report_path.read_text())["analysis"]
        assert analysis["ranks"] == {}
        assert NOT_HERMITIAN_NOTE in analysis["notes"]
        assert analysis["predicates"][psd_key]["value"] == "no"
        assert not analysis["spectra"][role]["hermitian"]

    def test_missing_role_is_parse_error(self, tmp_path):
        path = tmp_path / "bare.json"
        save_json(path, matrix_file_dict(np.eye(4)))
        assert main(["analyze", str(path)]) == 2

    def test_verdicts_rederivable_from_report(self, tmp_path):
        # every predicate of the choi, state and stinespring analyses follows
        # from the recorded spectra, ranks and rank chain by the record-level rules
        inputs = {
            "identity": ["--kind", "identity", "--dims", "2"],
            "depolarizing": ["--kind", "depolarizing", "--dims", "3"],
            "dephasing": ["--kind", "dephasing", "--dims", "3"],
            "transpose": ["--kind", "transpose", "--dims", "2"],
            "tiles": ["--kind", "tiles"],
            "schur": ["--kind", "schur", "--params", "0.5,0.3,0.2"],
            "schur-equal": ["--kind", "schur", "--params", "1,1"],
            "random": ["--kind", "random-stinespring", "--dims", "2,2,3", "--seed", "5"],
        }
        roles = set()
        for name, args in inputs.items():
            source, report = tmp_path / f"{name}.json", tmp_path / f"{name}.report.json"
            assert main(["generate", *args, "--output", str(source)]) == 0
            assert main(["analyze", str(source), "--output", str(report)]) == 0
            envelope = json.loads(report.read_text())
            roles.add(envelope["role"])
            rederive_predicates(envelope["role"], envelope["analysis"],
                                json.loads(source.read_text()).get("dims"))
        assert roles == {"choi", "state", "stinespring"}


def rederive_predicates(role: str, analysis: dict, dims) -> None:
    """Check each predicate of an ``analyze`` report against its records;
    ``dims`` are the input's, (d_a, d_b, d_c) for a dilation."""
    cfg = ToleranceConfig(**analysis["tolerances"])
    spectra = {key: PsdCheck(**value) for key, value in analysis["spectra"].items()}
    ranks = {key: RankDecision(**value) for key, value in analysis["ranks"].items()}
    for record in spectra.values():
        psd, threshold = psd_rule(np.array([record.lambda_min, record.lambda_max]), cfg)
        assert record.threshold == threshold
        assert record.psd == (record.hermitian and psd)
    for record in ranks.values():
        assert record.smallest_kept is None or record.smallest_kept > record.cutoff
        assert record.largest_discarded is None or record.largest_discarded <= record.cutoff
    predicates = analysis["predicates"]

    def value(key):
        return predicates[key]["value"] == "yes"

    if role == "choi":
        triple = (ranks["choi"], ranks["marginal_a"], ranks["marginal_b"])
        ppt = ppt_rule(spectra["choi"].psd, spectra["choi_pt"].psd)
        assert value("cp") == spectra["choi"].psd
        assert value("cocp") == spectra["choi_pt"].psd
        assert value("ppt") == ppt
        if spectra["choi"].psd:
            assert predicates["eb"] == eb_verdict(ppt, triple).to_json()
        else:
            assert "eb" not in predicates
    elif role == "state":
        triple = (ranks["state"], ranks["marginal_left"], ranks["marginal_right"])
        ppt = ppt_rule(spectra["state"].psd, spectra["state_pt"].psd)
        assert value("psd") == spectra["state"].psd
        assert value("ppt") == ppt
        assert predicates["distillable_witness"] == witness_verdict(triple).to_json()
        assert predicates["separable"] == separability_verdict(ppt, triple).to_json()
    else:
        # The Choi matrices are the purification marginals L_ab and L_ac, with
        # marginals (L_a, L_b) and (L_a, L_c); their rank decisions are the
        # recorded chain, and each Choi matrix's rank cutoff is that of its
        # recorded spectrum.
        chain = analysis["rank_chain"]
        assert chain == {f"rank_l{key}": ranks[f"l_{key}"].rank
                         for key in ("ab", "ac", "a", "b", "c")} | {"fragile": False}
        d_a, d_b, d_c = dims
        sides = {"phi": (("ab", "a", "b"), d_a * d_b), "psi": (("ac", "a", "c"), d_a * d_c)}
        ppt, eb = {}, {}
        for side, (keys, dim) in sides.items():
            triple = tuple(ranks[f"l_{key}"] for key in keys)
            choi = spectra[f"{side}_choi"]
            sigma_max = max(abs(choi.lambda_min), abs(choi.lambda_max))
            assert triple[0].cutoff == cfg.rank_tol * sigma_max * dim
            ppt[side] = ppt_rule(choi.psd, spectra[f"{side}_choi_pt"].psd)
            eb[side] = eb_verdict(ppt[side], triple)
            assert value(f"cp_{side}") == choi.psd
            assert value(f"ppt_{side}") == ppt[side]
            assert predicates[f"eb_{side}"] == eb[side].to_json()
            assert predicates[f"witness_{side}"] == witness_verdict(triple).to_json()
        purity, relation = pair_rules(
            phi_ppt=ppt["phi"], psi_ppt=ppt["psi"], witness_phi=value("witness_phi"),
            witness_psi=value("witness_psi"), eb_phi=eb["phi"].value,
            eb_psi=eb["psi"].value,
            **{f"l{key}": chain[f"rank_l{key}"] for key in ("ab", "ac", "a", "b", "c")},
        )
        assert purity and relation == 0
        assert chain["rank_lc"] == chain["rank_lab"] and chain["rank_lb"] == chain["rank_lac"]


class TestCliGenerateConvert:
    def test_generate_records_spec(self, tmp_path):
        path = tmp_path / "l.json"
        assert main(["generate", "--kind", "random-stinespring", "--dims", "2,2,2",
                     "--seed", "11", "--output", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["role"] == "stinespring"
        assert payload["dims"] == [2, 2, 2]
        assert payload["generator"]["seed"] == 11
        assert payload["generator"]["seed_derivation"] == chancert.generate.SEED_DERIVATION
        assert main(["generate", "--kind", "identity", "--dims", "2", "--output", str(path)]) == 0
        assert "seed_derivation" not in json.loads(path.read_text())["generator"]

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--index", "-3")])
    def test_negative_seed_or_index_is_parse_error(self, tmp_path, capsys, flag, value):
        path = tmp_path / "l.json"
        args = {"--seed": "3", "--index": "0", flag: value}
        assert main(["generate", "--kind", "random-stinespring", "--dims", "2,2,2",
                     "--seed", args["--seed"], "--index", args["--index"],
                     "--output", str(path)]) == 2
        assert flag.lstrip("-") in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("spec, extra, name", [
        (["--kind", "identity", "--dims", "2"], ["--seed", "-5", "--index", "3"], "seed"),
        (["--kind", "depolarizing", "--dims", "3"], ["--seed", "5"], "seed"),
        (["--kind", "tiles"], ["--index", "0"], "index"),
        (["--kind", "schur", "--params", "1,0.5"], ["--index", "2"], "index"),
        (["--kind", "identity", "--dims", "2"], ["--normalize"], "normalize"),
        (["--kind", "identity", "--dims", "2"], ["--params", "0.3,7"], "params"),
        (["--kind", "tiles"], ["--dims", "5"], "dims"),
        (["--kind", "schur", "--params", "1,0.5"], ["--dims", "7"], "dims"),
        (["--kind", "random-stinespring", "--dims", "2,2,2", "--seed", "3"], ["--params", "3"],
         "params"),
    ])
    def test_seed_or_index_of_non_random_kind_is_parse_error(
        self, tmp_path, capsys, spec, extra, name
    ):
        path = tmp_path / "g.json"
        assert main(["generate", *spec, *extra, "--output", str(path)]) == 2
        assert name in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("args, message", [
        (["--kind", "identity", "--dims", "2,3"], "identity takes exactly one dimension"),
        (["--kind", "identity"], "identity takes exactly one dimension"),
        (["--kind", "identity", "--dims", "0"], "dimension must be at least 1"),
        (["--kind", "random-stinespring", "--dims", "2,2", "--seed", "1"],
         "random-stinespring requires dims d_a,d_b,d_c"),
        (["--kind", "random-stinespring", "--dims", "2,0,3", "--seed", "1"],
         "all dimensions must be at least 1"),
        (["--kind", "random-stinespring", "--dims", "2,2,3"], "random-stinespring requires a seed"),
        (["--kind", "schur"], "schur requires the diagonal weights as params"),
        (["--kind", "schur", "--params=1,-0.5"], "entrywise multiplier weights must be nonnegative"),
        (["--kind", "schur", "--params=nan,1"], "entrywise multiplier weights must be finite"),
        (["--kind", "schur", "--params=inf,1"], "entrywise multiplier weights must be finite"),
        (["--kind", "schur", "--params", "a,1"], "expected comma-separated numbers, got 'a,1'"),
    ])
    def test_argument_error_is_parse_error(self, tmp_path, capsys, args, message):
        path = tmp_path / "g.json"
        assert main(["generate", *args, "--output", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not path.exists()

    def test_seed_is_used_whole(self, tmp_path):
        path = tmp_path / "l.json"
        seed = 2**64 + 5
        assert main(["generate", "--kind", "random-stinespring", "--dims", "2,2,2",
                     "--seed", str(seed), "--index", "7", "--output", str(path)]) == 0
        matrix = load_matrix(path).matrix
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(7,))))
        assert matrix.tobytes() == complex_gaussian(rng, (4, 2)).tobytes()

    def test_generate_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["generate", "--kind", "random-stinespring", "--dims", "3,2,2", "--seed", "4"]
        main(args + ["--output", str(a)])
        main(args + ["--output", str(b)])
        assert a.read_text() == b.read_text()

    def test_choi_kraus_choi_round_trip(self, tmp_path):
        choi_path = tmp_path / "deph.json"
        back_path = tmp_path / "back.json"
        main(["generate", "--kind", "dephasing", "--dims", "3", "--output", str(choi_path)])
        assert main(["convert", str(choi_path), "--to", "kraus",
                     "--output", str(tmp_path / "k.json")]) == 0
        kraus_paths = sorted(str(p) for p in tmp_path.glob("k.k*.json"))
        assert len(kraus_paths) == 3
        assert main(["convert", *kraus_paths, "--to", "choi", "--output", str(back_path)]) == 0
        original = load_matrix(choi_path).matrix
        rebuilt = load_matrix(back_path).matrix
        assert np.linalg.norm(rebuilt - original) <= 1e-8 * np.linalg.norm(original)

    def test_choi_stinespring_choi_round_trip(self, tmp_path):
        choi_path = tmp_path / "dep.json"
        st_path = tmp_path / "st.json"
        back_path = tmp_path / "back.json"
        main(["generate", "--kind", "depolarizing", "--dims", "2", "--output", str(choi_path)])
        assert main(["convert", str(choi_path), "--to", "stinespring",
                     "--output", str(st_path)]) == 0
        assert main(["convert", str(st_path), "--to", "choi", "--output", str(back_path)]) == 0
        original = load_matrix(choi_path).matrix
        rebuilt = load_matrix(back_path).matrix
        assert np.linalg.norm(rebuilt - original) <= 1e-8 * np.linalg.norm(original)

    @staticmethod
    def depolarizing_kraus_files(tmp_path) -> list[str]:
        choi_path = tmp_path / "dep.json"
        main(["generate", "--kind", "depolarizing", "--dims", "2", "--output", str(choi_path)])
        assert main(["convert", str(choi_path), "--to", "kraus",
                     "--output", str(tmp_path / "k.json")]) == 0
        paths = sorted(str(p) for p in tmp_path.glob("k.k*.json"))
        assert len(paths) == 4
        return paths

    @staticmethod
    def edit(path, **changes):
        payload = json.loads(Path(path).read_text())
        payload.update(changes)
        payload = {k: v for k, v in payload.items() if v is not None}
        save_json(path, payload)

    def test_partial_kraus_set_rejected(self, tmp_path):
        paths = self.depolarizing_kraus_files(tmp_path)
        assert main(["convert", *paths[:2], "--to", "choi",
                     "--output", str(tmp_path / "back.json")]) == 2

    def test_repeated_kraus_file_rejected(self, tmp_path):
        paths = self.depolarizing_kraus_files(tmp_path)
        assert main(["convert", *[paths[0]] * 4, "--to", "choi",
                     "--output", str(tmp_path / "back.json")]) == 2

    def test_kraus_file_without_index_rejected(self, tmp_path):
        paths = self.depolarizing_kraus_files(tmp_path)
        self.edit(paths[3], kraus_index=None)
        assert main(["convert", *paths, "--to", "choi",
                     "--output", str(tmp_path / "back.json")]) == 2

    def test_kraus_files_disagreeing_on_dims_rejected(self, tmp_path):
        paths = self.depolarizing_kraus_files(tmp_path)
        self.edit(paths[3], dims=[2, 3])
        assert main(["convert", *paths, "--to", "choi",
                     "--output", str(tmp_path / "back.json")]) == 2

    def test_kraus_files_with_three_dims_rejected(self, tmp_path, capsys):
        paths = self.depolarizing_kraus_files(tmp_path)
        for path in paths:
            self.edit(path, dims=[2, 2, 7])
        capsys.readouterr()
        assert main(["convert", *paths, "--to", "choi",
                     "--output", str(tmp_path / "back.json")]) == 2
        assert capsys.readouterr() == ("", "error: kraus files require dims [d_a, d_b]\n")

    @pytest.mark.parametrize("kind, role", [("depolarizing", "choi"), ("tiles", "state")])
    def test_dims_disagreeing_with_layout_rejected(self, tmp_path, capsys, kind, role):
        path = tmp_path / "m.json"
        dims = ["--dims", "2"] if kind == "depolarizing" else []
        assert main(["generate", "--kind", kind, *dims, "--output", str(path)]) == 0
        d_left, d_right = json.loads(path.read_text())["layout"]
        self.edit(path, dims=[d_left * d_right, 1])
        line = f"error: dims [{d_left * d_right}, 1] disagree with layout [{d_left}, {d_right}]\n"
        capsys.readouterr()
        argvs = [["analyze", str(path)]]
        if role == "choi":
            argvs.append(["convert", str(path), "--to", "stinespring"])
        for argv in argvs:
            assert main(argv) == 2, argv
            assert capsys.readouterr() == ("", line), argv

    def test_admitted_negative_eigenvalue_writes_no_zero_operator(self, tmp_path):
        choi_path = tmp_path / "j.json"
        save_json(choi_path, matrix_file_dict(slightly_negative_choi(), role="choi",
                                              layout=BipartiteLayout(2, 2)))
        assert main(["convert", str(choi_path), "--to", "kraus", "--psd-tol", "0.1",
                     "--output", str(tmp_path / "k.json")]) == 0
        kraus_paths = sorted(tmp_path.glob("k.k*.json"))
        assert len(kraus_paths) == 2
        assert all(np.linalg.norm(load_matrix(p).matrix) > 0.5 for p in kraus_paths)

    def test_non_cp_choi_to_kraus_is_precondition_failure(self, tmp_path):
        choi_path = tmp_path / "tr.json"
        main(["generate", "--kind", "transpose", "--dims", "2", "--output", str(choi_path)])
        assert main(["convert", str(choi_path), "--to", "kraus",
                     "--output", str(tmp_path / "k.json")]) == 3


def choi_of_operators(ops: np.ndarray) -> np.ndarray:
    """The Choi matrix of Kraus operators stacked as (n, d_b, d_a), written
    out from its definition: entry ((a, b), (x, y)) is sum_k K_k[b, a] conj(K_k[y, x])."""
    _, d_b, d_a = ops.shape
    return np.einsum("kba,kyx->abxy", ops, ops.conj()).reshape(d_a * d_b, d_a * d_b)


def choi_of_files(paths: list[Path]) -> np.ndarray:
    """The Choi matrix that a choi file, a Kraus set or a dilation file holds."""
    parsed = [load_matrix(p) for p in paths]
    if parsed[0].role == "choi":
        return parsed[0].matrix
    if parsed[0].role == "kraus":
        ordered = sorted(parsed, key=lambda p: p.kraus_index)
        return choi_of_operators(np.stack([p.matrix for p in ordered]))
    d_a, d_b, d_c = parsed[0].dims
    return choi_of_operators(parsed[0].matrix.reshape(d_b, d_c, d_a).transpose(1, 0, 2))


class TestRoleTable:
    """Every role the command line reads: each conversion keeps the map, and
    each refusal has its exit code and its one stderr line."""

    @staticmethod
    def sources(tmp_path: Path) -> dict[str, list[Path]]:
        choi = tmp_path / "deph.json"
        dilation = tmp_path / "dil.json"
        assert main(["generate", "--kind", "dephasing", "--dims", "3", "--output", str(choi)]) == 0
        assert main(["generate", "--kind", "random-stinespring", "--dims", "2,2,3", "--seed", "5",
                     "--output", str(dilation)]) == 0
        assert main(["convert", str(choi), "--to", "kraus",
                     "--output", str(tmp_path / "k.json")]) == 0
        return {"choi": [choi], "kraus": sorted(tmp_path.glob("k.k*.json")),
                "stinespring": [dilation]}

    @pytest.mark.parametrize("target", ["choi", "kraus", "stinespring"])
    @pytest.mark.parametrize("source", ["choi", "kraus", "stinespring"])
    def test_conversion_keeps_the_map(self, tmp_path, source, target):
        inputs = self.sources(tmp_path)[source]
        out = tmp_path / "out" / "x.json"
        out.parent.mkdir()
        assert main(["convert", *map(str, inputs), "--to", target, "--output", str(out)]) == 0
        written = sorted(out.parent.glob("x.k*.json")) if target == "kraus" else [out]
        want, got = choi_of_files(inputs), choi_of_files(written)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    @staticmethod
    def edited(src: Path, dst: Path, drop=(), **changes) -> str:
        obj = json.loads(src.read_text())
        for key in drop:
            del obj[key]
        obj.update(changes)
        dst.write_text(json.dumps(obj))
        return str(dst)

    def error_table(self, tmp_path: Path) -> list[tuple[list[str], int, str]]:
        files = self.sources(tmp_path)
        choi, dilation = str(files["choi"][0]), files["stinespring"][0]
        state = tmp_path / "tiles.json"
        assert main(["generate", "--kind", "tiles", "--output", str(state)]) == 0
        roleless = self.edited(files["choi"][0], tmp_path / "bare.json", drop=("role",))
        no_dims = self.edited(dilation, tmp_path / "nodims.json", drop=("dims",))
        bad_state = self.edited(state, tmp_path / "bad.json", drop=("layout",), dims=[3, 2])
        no_layout = self.edited(files["choi"][0], tmp_path / "nolayout.json",
                                drop=("layout", "dims"))
        state = str(state)
        return [
            (["analyze", roleless], 2,
             "error: input file has no role; pass --as choi|state|stinespring"),
            (["convert", roleless, "--to", "choi"], 2,
             "error: input files have no role; pass --from choi|kraus|stinespring"),
            (["analyze", str(files["kraus"][0])], 2, "error: role 'kraus' cannot be analyzed"),
            (["convert", state, "--to", "choi"], 2, "error: role 'state' cannot be converted"),
            (["convert", state, state, "--to", "choi"], 2,
             "error: role 'state' expects exactly one input file"),
            (["convert", choi, choi, "--to", "kraus", "--output", str(tmp_path / "k2.json")], 2,
             "error: role 'choi' expects exactly one input file"),
            (["convert", choi, "--to", "kraus"], 2, "error: converting to kraus requires --output"),
            (["analyze", no_dims], 2, "error: stinespring files require dims [d_a, d_b, d_c]"),
            (["convert", no_dims, "--to", "choi"], 2,
             "error: stinespring files require dims [d_a, d_b, d_c]"),
            (["analyze", bad_state], 3,
             "precondition failed: matrix shape (9, 9) does not match layout (3 x 2 = 6)"),
            (["analyze", no_layout], 2,
             "error: matrix file needs a layout or two-entry dims to be analyzed"),
            (["convert", no_layout, "--to", "stinespring"], 2,
             "error: matrix file needs a layout or two-entry dims to be converted"),
        ]

    def test_refusals(self, tmp_path, capsys):
        table = self.error_table(tmp_path)
        capsys.readouterr()
        for argv, rc, line in table:
            assert main(argv) == rc, argv
            assert capsys.readouterr() == ("", line + "\n"), argv


@pytest.fixture
def as_matrix_calls(monkeypatch):
    """A list that gains an entry per call of ``linalg.as_matrix``, wherever
    a chancert module binds it."""
    calls, original = [], chancert.linalg.as_matrix

    def counted(x):
        calls.append(None)
        return original(x)

    for name, module in list(sys.modules.items()):
        if name.startswith("chancert") and getattr(module, "as_matrix", None) is original:
            monkeypatch.setattr(module, "as_matrix", counted)
    return calls


class TestValidationBudget:
    """Each matrix on the analyze and convert path is checked once: by the
    constructor of the value object that first holds it, or by
    ``state_report``, which takes the state's matrix as it is. Helpers, the
    report builders and the file writer take checked matrices unchecked."""

    @pytest.fixture
    def files(self, tmp_path) -> dict[str, list[str]]:
        paths = {name: str(tmp_path / f"{name}.json") for name in ("choi", "state", "dilation")}
        for name, argv in (("choi", ["--kind", "depolarizing", "--dims", "3"]),
                           ("state", ["--kind", "tiles"]),
                           ("dilation", ["--kind", "random-stinespring", "--dims", "2,2,3",
                                         "--seed", "1"])):
            assert main(["generate", *argv, "--output", paths[name]]) == 0
        assert main(["convert", paths["choi"], "--to", "kraus",
                     "--output", str(tmp_path / "k.json")]) == 0
        files = {f"<{name}>": [path] for name, path in paths.items()}
        files["<kraus>"] = sorted(map(str, tmp_path.glob("k.k*.json")))  # 9 operators
        files["<out>"] = [str(tmp_path / "out" / "x.json")]
        (tmp_path / "out").mkdir()
        return files

    # (argv, with each file named by its key in ``files``, and the calls:
    # one per object built, and for a state one where state_report takes it)
    @pytest.mark.parametrize("argv, calls", [
        (["analyze", "<choi>"], 1),
        (["analyze", "<choi>", "--as", "state"], 1),
        (["analyze", "<state>"], 1),
        # the dilation, the Choi matrices of its purification, and the Kraus
        # route's two Choi matrices and swapped dilation
        (["analyze", "<dilation>"], 6),
        (["convert", "<choi>", "--to", "choi"], 1),
        (["convert", "<choi>", "--to", "kraus", "--output", "<out>"], 10),
        (["convert", "<choi>", "--to", "stinespring"], 11),
        (["convert", "<dilation>", "--to", "choi"], 2),
        (["convert", "<dilation>", "--to", "kraus", "--output", "<out>"], 4),
        (["convert", "<dilation>", "--to", "stinespring"], 1),
        (["convert", "<kraus>", "--to", "choi"], 10),
        (["convert", "<kraus>", "--to", "stinespring"], 10),
        (["convert", "<kraus>", "--to", "kraus", "--output", "<out>"], 9),
    ])
    def test_each_matrix_checked_once(self, files, capsys, as_matrix_calls, argv, calls):
        argv = [part for word in argv for part in files.get(word, [word])]
        as_matrix_calls.clear()
        assert main(argv) == 0
        assert len(as_matrix_calls) == calls

    def test_files_corpus(self, tmp_path, capsys, as_matrix_calls):
        # the commands of ``agreement.py --digest files``: per verb and
        # target, the commands and their calls, for exit 0 and otherwise
        from agreement import file_commands

        totals = {}
        for argv in file_commands(str(tmp_path)):
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            (tmp_path / "out").mkdir()
            before = len(as_matrix_calls)
            code = main(argv)
            key = (argv[0], argv[argv.index("--to") + 1] if "--to" in argv else None, code == 0)
            commands, calls = totals.get(key, (0, 0))
            totals[key] = (commands + 1, calls + len(as_matrix_calls) - before)
        assert totals == {
            ("analyze", None, True): (112, 342),
            ("analyze", None, False): (24, 1),
            ("convert", "choi", True): (96, 198),
            ("convert", "choi", False): (16, 0),
            ("convert", "kraus", True): (47, 238),
            ("convert", "kraus", False): (13, 6),
            ("convert", "stinespring", True): (88, 308),
            ("convert", "stinespring", False): (21, 8),
        }


def scaled_copy(src: Path, dst: Path, scale: float) -> Path:
    """``src`` with every entry multiplied by ``scale``, written to ``dst``."""
    obj = json.loads(src.read_text())
    for key in ("re", "im"):
        obj[key] = [[scale * x for x in row] for row in obj[key]]
    dst.write_text(json.dumps(obj))
    return dst


def largest_entry(path: Path) -> float:
    return float(np.abs(load_matrix(path).matrix).max())


def analyzed_verdicts(path: Path, capsys) -> tuple:
    """Scale-free verdicts of ``analyze``, and the rank chain where there is one."""
    capsys.readouterr()
    assert main(["analyze", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    analysis = json.loads(out)["analysis"]
    verdicts = {key: verdict["value"] for key, verdict in analysis["predicates"].items()
                if key not in ("tp_phi", "tp_psi", "trace_preserving")}
    return verdicts, analysis.get("rank_chain")


class TestOperatorScale:
    """Dilation and Kraus files whose Choi matrices would underflow or
    overflow are rejected where they are read; inside the range, and for
    Choi and state files, verdicts are those at scale 1."""

    @pytest.fixture
    def dilation(self, tmp_path) -> Path:
        path = tmp_path / "L.json"
        assert main(["generate", "--kind", "random-stinespring", "--dims", "2,2,3",
                     "--seed", "5", "--output", str(path)]) == 0
        return path

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e150, 1e200])
    def test_extreme_dilation_is_precondition_failure(self, tmp_path, capsys, dilation, scale):
        scaled = scaled_copy(dilation, tmp_path / "scaled.json", scale)
        named = f"magnitude {largest_entry(scaled):.3g}"
        capsys.readouterr()
        for argv in (["analyze", str(scaled)],
                     ["convert", str(scaled), "--to", "choi"],
                     ["convert", str(scaled), "--to", "kraus", "--output", str(tmp_path / "k.json")]):
            assert main(argv) == 3
            out, err = capsys.readouterr()
            assert out == "" and named in err and err.startswith("precondition failed")

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_kraus_set_is_precondition_failure(self, tmp_path, capsys, dilation, scale):
        assert main(["convert", str(dilation), "--to", "kraus",
                     "--output", str(tmp_path / "k.json")]) == 0
        files = sorted(tmp_path.glob("k.k*.json"))
        scaled = [str(scaled_copy(path, tmp_path / f"s{i}.json", scale))
                  for i, path in enumerate(files)]
        capsys.readouterr()
        assert main(["convert", *scaled, "--to", "choi"]) == 3
        assert "magnitude" in capsys.readouterr().err

    @pytest.mark.parametrize("end", [0, 1])
    def test_range_ends_keep_scale_one_verdicts(self, tmp_path, capsys, dilation, end):
        # a power of two puts the largest entry exactly inside the range end
        expected = analyzed_verdicts(dilation, capsys)
        exponent = np.log2(OPERATOR_SCALE_RANGE[end]) - np.floor(np.log2(largest_entry(dilation)))
        scaled = scaled_copy(dilation, tmp_path / "scaled.json", 2.0 ** (exponent - end))
        assert OPERATOR_SCALE_RANGE[0] <= largest_entry(scaled) <= OPERATOR_SCALE_RANGE[1]
        assert analyzed_verdicts(scaled, capsys) == expected
        assert main(["convert", str(scaled), "--to", "choi"]) == 0
        choi = json.loads(capsys.readouterr().out)
        assert np.abs(np.array(choi["re"])).max() > 0.0

    @pytest.mark.parametrize("scale", [1e-300, 1e150, 1e200, 1e300])
    @pytest.mark.parametrize("kind", ["identity", "dephasing", "tiles", "converted"])
    def test_choi_and_state_files_keep_verdicts(self, tmp_path, capsys, dilation, kind, scale):
        # from about 1e154 up, unscaled norms overflow: numpy's warning would
        # reach stderr, and a Hermitian deviation of inf / inf would make a
        # CP map's Choi matrix read not CP
        path = tmp_path / "m.json"
        if kind == "converted":
            argv = ["convert", str(dilation), "--to", "choi"]
        else:
            argv = ["generate", "--kind", kind, *([] if kind == "tiles" else ["--dims", "2"])]
        assert main([*argv, "--output", str(path)]) == 0
        expected = analyzed_verdicts(path, capsys)
        assert analyzed_verdicts(scaled_copy(path, tmp_path / "s.json", scale), capsys) == expected

    @pytest.mark.parametrize("scale", [1e-300, 1e200, 1e300])
    @pytest.mark.parametrize("kind", ["identity", "dephasing"])
    def test_scaled_channel_is_not_trace_preserving(self, tmp_path, capsys, kind, scale):
        # an overflowing norm would make tol * inf the bound, which every
        # comparison passes
        path = tmp_path / "m.json"
        assert main(["generate", "--kind", kind, "--dims", "2", "--output", str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(scaled_copy(path, tmp_path / "s.json", scale))]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out)["analysis"]["predicates"]["trace_preserving"]["value"] == "no"


def power_of_two_copy(src: Path, dst: Path, k: int) -> Path:
    """``src`` with every entry multiplied by 2^k, exactly while it stays normal."""
    obj = json.loads(src.read_text())
    for key in ("re", "im"):
        obj[key] = [[math.ldexp(x, k) for x in row] for row in obj[key]]
    dst.write_text(json.dumps(obj))
    return dst


def normal_scale_range(path: Path) -> tuple[int, int]:
    """The k for which every nonzero re and im entry of ``path`` times 2^k is
    a normal float."""
    obj = json.loads(path.read_text())
    entries = [abs(x) for key in ("re", "im") for row in obj[key] for x in row if x]
    return -1021 - math.frexp(min(entries))[1], 1024 - math.frexp(max(entries))[1]


def write_source(tmp_path: Path, kind: str, dims: str = "", seed: int = 0) -> Path:
    """A Choi file of the named channel ``kind``, the ``convert --to choi``
    file of a random dilation (``kind="converted"``), or the tiles state."""
    path = tmp_path / "m.json"
    if kind == "converted":
        dilation = tmp_path / "L.json"
        assert main(["generate", "--kind", "random-stinespring", "--dims", dims,
                     "--seed", str(seed), "--output", str(dilation)]) == 0
        argv = ["convert", str(dilation), "--to", "choi"]
    else:
        argv = ["generate", "--kind", kind, *(["--dims", dims] if dims else [])]
    assert main([*argv, "--output", str(path)]) == 0
    return path


def assert_scaled_verdicts(path: Path, capsys, k: int) -> None:
    """``analyze`` of ``path`` scaled by 2^k gives the verdicts at k = 0, or
    exit 3 when its largest entry times its dimension exceeds MATRIX_SCALE_LIMIT."""
    scaled = power_of_two_copy(path, path.with_name("scaled.json"), k)
    matrix = load_matrix(scaled).matrix
    if float(np.abs(matrix).max()) * matrix.shape[0] > MATRIX_SCALE_LIMIT:
        capsys.readouterr()
        assert main(["analyze", str(scaled)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("precondition failed") and err.count("\n") == 1
        assert "magnitude" in err
    else:
        assert analyzed_verdicts(scaled, capsys) == analyzed_verdicts(path, capsys)


SCALABLE_SOURCES = st.one_of(
    st.tuples(st.sampled_from(["identity", "dephasing", "depolarizing"]),
              st.sampled_from(["2", "3"]), st.just(0)),
    st.just(("tiles", "", 0)),
    st.tuples(st.just("converted"), st.sampled_from(["2,2,3", "2,3,2", "3,3,3", "2,2,6"]),
              st.integers(0, 2**32 - 1)),
)


class TestPowerOfTwoScaling:
    """Verdicts of Choi and state files are scale-free: at every scale 2^k
    that keeps the entries normal, ``analyze`` gives the verdicts at k = 0,
    or refuses the file where its spectra would overflow."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(source=SCALABLE_SOURCES, data=st.data())
    def test_verdicts_survive_power_of_two_scaling(self, tmp_path, capsys, source, data):
        path = write_source(tmp_path, *source)
        k = data.draw(st.integers(*normal_scale_range(path)), label="k")
        assert_scaled_verdicts(path, capsys, k)

    # Before MATRIX_SCALE_LIMIT, each of these exited 2 after numpy overflow
    # warnings, on "Eigenvalues did not converge" or on a NaN or infinity
    # the report encoder refused.
    @pytest.mark.parametrize("source, k", [
        (("identity", "2"), 1023),
        (("dephasing", "2"), 1023),
        (("depolarizing", "2"), 1023),
        (("depolarizing", "2"), 1024),
        (("tiles",), 1025),
        (("tiles",), 1026),
        (("converted", "2,2,3", 5), 1021),
    ])
    def test_overflowing_spectra_are_refused(self, tmp_path, capsys, source, k):
        assert_scaled_verdicts(write_source(tmp_path, *source), capsys, k)


class TestCliVerifyTheorem:
    def test_small_run_is_clean(self, tmp_path):
        out = tmp_path / "vt.json"
        assert main(["verify-theorem", "--trials", "40", "--dims", "2,2,3",
                     "--seed", "5", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        counts = report["counts"]
        assert counts["samples"] + counts["fragile_discarded"] == 40
        assert report["counterexamples"] == []
        # regime must have applied whenever phi was PPT
        assert counts["regime_applied_to_psi_given_phi_ppt"] == counts["phi_ppt"]

    def test_negative_seed_is_parse_error(self, tmp_path, capsys):
        out = tmp_path / "vt.json"
        assert main(["verify-theorem", "--trials", "3", "--dims", "2,2,2",
                     "--seed", "-1", "--output", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, env, message", [
        (["--dims", "2,2"], {}, "--dims"),
        (["--dims", "2,2,0"], {}, "--dims"),
        (["--trials", "0"], {}, "--trials"),
        ([], {"CHANCERT_PSD_TOL": "abc"}, "CHANCERT_PSD_TOL"),
        (["--dims", "2,x,3"], {}, "error: expected comma-separated integers, got '2,x,3'\n"),
    ])
    def test_invalid_run_is_parse_error(self, tmp_path, monkeypatch, capsys, args, env, message):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        out = tmp_path / "vt.json"
        # a later option overrides an earlier one
        assert main(["verify-theorem", "--trials", "3", "--dims", "2,2,2", "--seed", "1",
                     "--output", str(out), *args]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_replay_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify-theorem", "--trials", "25", "--dims", "2,2,2", "--seed", "9"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert strip_timestamp(a.read_text()) == strip_timestamp(b.read_text())

    def test_counterexample_exit_code(self, tmp_path, monkeypatch):
        # force a relation failure on every sample through the shared rule,
        # which both the batched engine and equivalence_check evaluate
        import chancert.certify as certify_mod

        original = certify_mod.pair_rules

        def explode(**records):
            purity, _ = original(**records)
            return purity, 1

        monkeypatch.setattr("chancert.certify.pair_rules", explode)
        out = tmp_path / "vt.json"
        assert main(["verify-theorem", "--trials", "3", "--dims", "2,2,2",
                     "--seed", "1", "--output", str(out)]) == 4
        report = json.loads(out.read_text())
        assert len(report["counterexamples"]) == 3
        assert report["counterexamples"][0]["seed"] == 1


def numpy_uses_openblas() -> bool:
    return "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


@pytest.fixture
def policy(monkeypatch):
    """The CLI's process policies, observed. ``mallopt`` lists the (param,
    value) of every mallopt call made through the C library that
    ``ctypes.CDLL(None)`` opens, which the fixture replaces. ``threads`` and
    ``set_threads`` are OpenBLAS's thread-count functions, None where numpy's
    BLAS is not OpenBLAS; the count is 2 when the test starts and restored
    after it. The policies are set anew on the next ``main``, during the test
    and after it."""
    controls = chancert.cli._openblas_thread_controls()
    if numpy_uses_openblas():
        assert controls is not None, "numpy uses OpenBLAS, but the lookup did not find it"
    get_threads, set_threads = controls or (None, None)
    calls = []
    real = ctypes.CDLL

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    def cdll(name, *args, **kwargs):
        return SimpleNamespace(mallopt=mallopt) if name is None else real(name, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    if controls is not None:
        before = get_threads()
        set_threads(2)
    chancert.cli._set_process_policy.cache_clear()
    yield SimpleNamespace(mallopt=calls, threads=get_threads, set_threads=set_threads)
    chancert.cli._set_process_policy.cache_clear()
    if controls is not None:
        set_threads(before)


def needs_openblas(policy):
    if policy.threads is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")


class TestKeepFreedMemory:
    """The CLI sets its process policies once per process, and never
    restores them: OpenBLAS held to one thread, and glibc's malloc keeping
    freed heap memory. Library calls set neither."""

    ARGV = ["verify-theorem", "--trials", "3", "--dims", "2,2,2", "--seed", "1"]

    def test_main_sets_both_thresholds_once(self, tmp_path, policy):
        # M_MMAP_THRESHOLD (-3) to 32 MiB and M_TRIM_THRESHOLD (-1) to 64 MiB
        for _ in range(2):
            assert main(self.ARGV + ["--output", str(tmp_path / "vt.json")]) == 0
        assert policy.mallopt == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_main_sets_one_thread_once(self, tmp_path, policy):
        needs_openblas(policy)
        assert main(self.ARGV + ["--output", str(tmp_path / "vt.json")]) == 0
        assert policy.threads() == 1
        policy.set_threads(2)
        assert main(self.ARGV + ["--output", str(tmp_path / "vt.json")]) == 0
        assert policy.threads() == 2

    def test_harness_runs_on_one_thread(self, tmp_path, monkeypatch, policy):
        needs_openblas(policy)
        seen = []
        original = chancert.cli.run_harness

        def spy(*args):
            seen.append(policy.threads())
            return original(*args)

        monkeypatch.setattr("chancert.cli.run_harness", spy)
        assert main(self.ARGV + ["--output", str(tmp_path / "vt.json")]) == 0
        assert seen == [1]
        assert policy.threads() == 1

    def test_analyze_runs_on_one_thread(self, tmp_path, policy):
        needs_openblas(policy)
        path = tmp_path / "id.json"
        save_json(path, matrix_file_dict(np.eye(4), role="choi", dims=(2, 2)))
        assert main(["analyze", str(path), "--output", str(tmp_path / "r.json")]) == 0
        assert policy.threads() == 1

    def test_library_calls_leave_the_policy_alone(self, policy):
        cfg = ToleranceConfig()
        run_harness((2, 2, 3), 20, 1, cfg)
        equivalence_check(random_stinespring(2, 2, 3, seed=1), cfg)
        assert policy.mallopt == []
        assert policy.threads is None or policy.threads() == 2

    @pytest.mark.parametrize("libc", ["raises", "no-mallopt"])
    def test_no_op_without_mallopt(self, monkeypatch, policy, libc):
        real = ctypes.CDLL

        def cdll(name, *args, **kwargs):
            if name is not None:
                return real(name, *args, **kwargs)
            if libc == "raises":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert chancert.cli._set_process_policy() is None
        assert policy.threads is None or policy.threads() == 1

    def test_no_op_without_openblas(self, tmp_path, monkeypatch, policy):
        monkeypatch.setattr("chancert.cli._openblas_thread_controls", lambda: None)
        assert main(self.ARGV + ["--output", str(tmp_path / "vt.json")]) == 0
        assert policy.mallopt == [(-3, 32 << 20), (-1, 64 << 20)]
        assert policy.threads is None or policy.threads() == 2

    def test_lookup_loads_no_second_copy(self, tmp_path, monkeypatch, policy):
        needs_openblas(policy)
        # a copy of numpy's linalg extension is a library the process has not
        # loaded; its OpenBLAS dependency, by name, is one it has
        source = Path(chancert.cli._umath_linalg.__file__)
        copy = tmp_path / source.name
        shutil.copyfile(source, copy)
        monkeypatch.setattr("chancert.cli._umath_linalg", SimpleNamespace(__file__=str(copy)))
        assert chancert.cli._openblas_thread_controls() is None
        with pytest.raises(OSError):
            ctypes.CDLL(str(copy), mode=os.RTLD_NOLOAD)

    def test_second_command_faults_in_no_pages(self, tmp_path):
        # each chunk at (4, 4, 16) frees over 2 MiB. Under glibc's default
        # the heap top goes back to the kernel after every chunk, and the
        # next chunk faults it in again: about 10000 minor faults per
        # 1000-trial command on a 2-core x86-64 host with glibc 2.36. Kept,
        # the second command reuses the first one's pages (0 to 2 faults)
        pytest.importorskip("resource")
        try:
            has_mallopt = hasattr(ctypes.CDLL(None), "mallopt")
        except (OSError, TypeError):
            has_mallopt = False
        if not has_mallopt:
            pytest.skip("the C library has no mallopt")
        src = str(Path(chancert.__file__).resolve().parents[1])
        script = (
            "import resource, sys\n"
            "from chancert.cli import main\n"
            "argv = ['verify-theorem', '--dims', '4,4,16', '--trials', '1000', '--seed', '1',"
            " '--output', sys.argv[1]]\n"
            "assert main(argv) == 0\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "assert main(argv) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "vt.json")],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert int(proc.stdout) < 100


class TestReentrantMain:
    """``main`` may be called repeatedly in one process: the parser is built
    once, and no state carries from one call to the next."""

    @staticmethod
    def commands(inputs: Path, out: Path) -> list[tuple[list[str], dict]]:
        """A mixed sequence of (argv, extra environment); sources are read
        from ``inputs`` and outputs written to ``out``."""
        return [
            (["generate", "--kind", "depolarizing", "--dims", "2",
              "--output", str(out / "dep.json")], {}),
            (["generate", "--kind", "random-stinespring", "--dims", "2,2,3", "--seed", "7",
              "--output", str(out / "st.json")], {}),
            (["analyze", str(inputs / "dep.json"), "--psd-tol", "0.1",
              "--output", str(out / "dep-loose.json")], {}),
            (["analyze", str(inputs / "dep.json"), "--output", str(out / "dep-default.json")], {}),
            (["analyze", str(inputs / "st.json"), "--output", str(out / "st-report.json")], {}),
            (["convert", str(inputs / "dep.json"), "--to", "kraus",
              "--output", str(out / "k.json")], {}),
            (["verify-theorem", "--dims", "2,2,3", "--trials", "20", "--seed", "5",
              "--output", str(out / "vt.json")], {}),
            (["analyze", str(inputs / "st.json"), "--output", str(out / "st-env.json")],
             {"CHANCERT_RANK_TOL": "1e-5"}),
        ]

    @staticmethod
    def outcome(rc, stdout: str, stderr: str, out: Path) -> tuple:
        files = {p.name: strip_timestamp(p.read_text()) for p in out.iterdir()}
        return rc, stdout.replace(str(out), "OUT"), stderr, files

    def test_repeated_calls_match_fresh_processes(self, tmp_path, capsys, monkeypatch):
        inputs, fresh = tmp_path / "in-process", tmp_path / "fresh"
        inputs.mkdir()
        fresh.mkdir()
        src = str(Path(chancert.__file__).resolve().parents[1])
        sequence = zip(self.commands(inputs, inputs), self.commands(inputs, fresh))
        for (argv, env), (fresh_argv, _) in sequence:
            for key, val in env.items():
                monkeypatch.setenv(key, val)
            rc = main(argv)
            captured = capsys.readouterr()
            rc, stdout, stderr, files = self.outcome(rc, captured.out, captured.err, inputs)

            for path in fresh.iterdir():
                path.unlink()
            proc = subprocess.run([sys.executable, "-m", "chancert.cli", *fresh_argv],
                                  capture_output=True, text=True, check=False,
                                  env={**os.environ, **env, "PYTHONPATH": src})
            expected = self.outcome(proc.returncode, proc.stdout, proc.stderr, fresh)
            assert (rc, stdout, stderr) == expected[:3], argv
            assert expected[3] and expected[3].items() <= files.items(), argv

    def test_handler_patch_after_first_call_applies(self, tmp_path, monkeypatch):
        path = tmp_path / "id.json"
        assert main(["generate", "--kind", "identity", "--dims", "2",
                     "--output", str(path)]) == 0
        calls = []

        def patched(args, cfg):
            calls.append(args.input)
            return 0

        monkeypatch.setattr("chancert.cli.cmd_analyze", patched)
        assert main(["analyze", str(path)]) == 0
        assert calls == [str(path)]


# per command: a valid argv, one missing a required argument, one with a bad type
VALID_ARGV = {
    "analyze": ["in.json", "--as", "choi", "--psd-tol", "0.1", "--output", "r.json"],
    "generate": ["--kind", "random-stinespring", "--dims", "2,2,3", "--seed", "7",
                 "--index", "3", "--normalize"],
    "convert": ["a.json", "b.json", "--to", "kraus", "--from", "choi", "--output", "k.json"],
    "verify-theorem": ["--dims", "2,2,3", "--trials", "5", "--seed", "1", "--rank-tol", "1e-17"],
}
MISSING_ARGV = {"analyze": ["--as", "choi"], "generate": ["--dims", "2"], "convert": ["a.json"],
                "verify-theorem": ["--dims", "2,2,3", "--trials", "5"]}
BAD_TYPE_ARGV = {"analyze": ["in.json", "--psd-tol", "loose"],
                 "generate": ["--kind", "identity", "--seed", "x"],
                 "convert": ["a.json", "--to", "choi", "--equality-tol", "tight"],
                 "verify-theorem": ["--dims", "2,2,3", "--trials", "five", "--seed", "1"]}
COMMANDS = tuple(chancert.cli.build_parser().commands)
ARGV_CASES = [
    *[[name, *VALID_ARGV[name]] for name in COMMANDS],
    *[[name, "-h"] for name in COMMANDS],
    *[[name, *MISSING_ARGV[name]] for name in COMMANDS],
    *[[name, *BAD_TYPE_ARGV[name]] for name in COMMANDS],
    *[[name, *VALID_ARGV[name], "--bogus"] for name in COMMANDS],
    *[[name, *VALID_ARGV[name], "stray"] for name in COMMANDS if name != "convert"],
    ["verify-theorem", "--dim", "2,2,3", "--tri", "5", "--seed", "1", "--out", "r.json"],
    ["analyze", "--", "-in.json"],
    ["generate", "--kind", "cat"],
    [], ["-h"], ["--help"], ["frobnicate", "--kind", "identity"], ["analyz", "in.json"],
    ["--psd-tol", "0.1", "analyze", "in.json"], ["--", "analyze", "in.json"],
]


class TestArgvParsing:
    """``main`` hands a valid command line to its subcommand's parser alone.
    Whatever the argv, it must parse as ``build_parser().parse_args`` does:
    the same namespace, or the same exit code, stdout and stderr."""

    def test_table_covers_every_command(self):
        assert set(COMMANDS) == set(VALID_ARGV) == set(MISSING_ARGV) == set(BAD_TYPE_ARGV)

    @pytest.mark.parametrize("argv", ARGV_CASES, ids=lambda argv: " ".join(argv) or "empty")
    def test_main_parses_as_the_full_parser(self, argv, capsys, monkeypatch):
        for name in ENV_VARS.values():
            monkeypatch.delenv(name, raising=False)
        try:
            expected = chancert.cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            captured = capsys.readouterr()
            expected = (exc.code, captured.out, captured.err)
        parsed = []
        for name in COMMANDS:
            monkeypatch.setattr(chancert.cli, "cmd_" + name.replace("-", "_"),
                                lambda args, cfg: parsed.append(args) or 0)
        monkeypatch.setattr(sys, "argv", ["chancert", *argv])
        for call in (lambda: main(argv), lambda: main()):
            try:
                assert call() == 0
                got = parsed.pop()
            except SystemExit as exc:
                captured = capsys.readouterr()
                got = (exc.code, captured.out, captured.err)
            assert got == expected
            assert type(got) is type(expected)
        if isinstance(expected, tuple):
            assert expected[0] in (0, 2) and (expected[1] or expected[2])


class TestToleranceOverrides:
    def test_flag_override_recorded(self, tmp_path):
        choi_path = tmp_path / "id.json"
        report_path = tmp_path / "r.json"
        main(["generate", "--kind", "identity", "--dims", "2", "--output", str(choi_path)])
        assert main(["analyze", str(choi_path), "--psd-tol", "1e-6",
                     "--output", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["tolerances"]["psd_tol"] == 1e-6

    def test_env_override_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHANCERT_RANK_TOL", "1e-5")
        choi_path = tmp_path / "id.json"
        report_path = tmp_path / "r.json"
        main(["generate", "--kind", "identity", "--dims", "2", "--output", str(choi_path)])
        assert main(["analyze", str(choi_path), "--output", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["tolerances"]["rank_tol"] == 1e-5

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHANCERT_RANK_TOL", "1e-5")
        choi_path = tmp_path / "id.json"
        report_path = tmp_path / "r.json"
        main(["generate", "--kind", "identity", "--dims", "2", "--output", str(choi_path)])
        main(["analyze", str(choi_path), "--rank-tol", "1e-4", "--output", str(report_path)])
        report = json.loads(report_path.read_text())
        assert report["tolerances"]["rank_tol"] == 1e-4

    def test_invalid_tolerance_is_parse_error(self, tmp_path):
        choi_path = tmp_path / "id.json"
        main(["generate", "--kind", "identity", "--dims", "2", "--output", str(choi_path)])
        assert main(["analyze", str(choi_path), "--psd-tol", "2.0"]) == 2


class TestReportDeterminism:
    def test_analyze_byte_identical_modulo_timestamp(self, tmp_path):
        choi_path = tmp_path / "id.json"
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--kind", "identity", "--dims", "2", "--output", str(choi_path)])
        main(["analyze", str(choi_path), "--output", str(a)])
        main(["analyze", str(choi_path), "--output", str(b)])
        assert strip_timestamp(a.read_text()) == strip_timestamp(b.read_text())
        stripped_a = dict(json.loads(a.read_text()))
        stripped_b = dict(json.loads(b.read_text()))
        stripped_a.pop("timestamp")
        stripped_b.pop("timestamp")
        assert dumps(stripped_a) == dumps(stripped_b)


def test_version_stated_once():
    # the package, its reports and its metadata give one version
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(chancert.__file__).resolve().parents[2] / "pyproject.toml"
    version = tomllib.loads(pyproject.read_text())["project"]["version"]
    assert chancert.__version__ == TOOL_VERSION == version


def generated_bytes(tmp_path: Path, argv: list[str]) -> bytes:
    """The bytes ``generate`` writes for ``argv`` to a fresh path."""
    fresh = tmp_path / "fresh" / "out.json"
    fresh.parent.mkdir(exist_ok=True)
    assert main(["generate", *argv, "--output", str(fresh)]) == 0
    return fresh.read_bytes()


IDENTITY = ["--kind", "identity", "--dims", "2"]
WIDE_DILATION = ["--kind", "random-stinespring", "--dims", "3,3,9", "--seed", "1"]


class TestOutputFiles:
    """Outputs are rewritten in place: cut to the new length only when a
    regular file was longer, with its inode, permission bits and symlinks kept."""

    def test_short_output_over_longer_file(self, tmp_path):
        path = tmp_path / "out.json"
        assert main(["generate", *WIDE_DILATION, "--output", str(path)]) == 0
        expected = generated_bytes(tmp_path, IDENTITY)
        assert path.stat().st_size > len(expected)
        assert main(["generate", *IDENTITY, "--output", str(path)]) == 0
        assert path.read_bytes() == expected

    def test_inode_and_permission_bits_kept(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_bytes(b"x" * 10_000)
        path.chmod(0o600)
        inode = path.stat().st_ino
        assert main(["generate", *IDENTITY, "--output", str(path)]) == 0
        assert path.stat().st_ino == inode
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert path.read_bytes() == generated_bytes(tmp_path, IDENTITY)

    def test_symlink_is_followed(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(b"x" * 10_000)
        link.symlink_to(target)
        assert main(["generate", *IDENTITY, "--output", str(link)]) == 0
        assert link.is_symlink() and link.readlink() == target
        assert target.read_bytes() == generated_bytes(tmp_path, IDENTITY)

    def test_null_device(self, capsys):
        # a device cannot be truncated: truncate() there raises EINVAL
        assert main(["generate", *IDENTITY, "--output", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    def test_fifo_reader_gets_whole_text(self, tmp_path):
        # the read end is open before the write, so the writer does not wait;
        # the text (about 4.7 KB) fits in the pipe's buffer
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["generate", *WIDE_DILATION, "--output", str(fifo)]) == 0
            with open(reader, "rb", closefd=False) as f:
                received = f.read()
        finally:
            os.close(reader)
        assert received == generated_bytes(tmp_path, WIDE_DILATION)


class TestUnwritableOutput:
    """An output that cannot be written is a one-line parse error (exit 2),
    for every command that writes one."""

    @staticmethod
    def commands(tmp_path: Path, output: Path) -> dict[str, tuple[list[str], Path]]:
        """Per command, (argv writing to ``output``, the first path it writes)."""
        source = tmp_path / "id.json"
        assert main(["generate", *IDENTITY, "--output", str(source)]) == 0
        kraus_file = output.with_name(output.stem + ".k00.json")
        return {
            "generate": (["generate", *IDENTITY, "--output", str(output)], output),
            "analyze": (["analyze", str(source), "--output", str(output)], output),
            "convert": (["convert", str(source), "--to", "kraus", "--output", str(output)],
                        kraus_file),
            "verify-theorem": (["verify-theorem", "--trials", "3", "--dims", "2,2,2",
                                "--seed", "1", "--output", str(output)], output),
        }

    @pytest.mark.parametrize("command", ["generate", "analyze", "convert", "verify-theorem"])
    @pytest.mark.parametrize("problem", ["missing-directory", "directory"])
    def test_exit_2_with_one_line(self, tmp_path, capsys, command, problem):
        output = tmp_path / ("missing" if problem == "missing-directory" else "") / "out.json"
        argv, written = self.commands(tmp_path, output)[command]
        if problem == "directory":
            written.mkdir()
        capsys.readouterr()
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {written}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_fresh_process_prints_no_traceback(self, tmp_path):
        src = str(Path(chancert.__file__).resolve().parents[1])
        missing = tmp_path / "missing" / "x.json"
        proc = subprocess.run(
            [sys.executable, "-m", "chancert.cli", "generate", *IDENTITY, "--output", str(missing)],
            capture_output=True, text=True, check=False, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: cannot write {missing}: ")
        assert "Traceback" not in proc.stderr
