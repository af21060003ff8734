"""Tests for the JSON schemas and the command-line interface."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chancert
import chancert.cli
from chancert import BipartiteLayout, MatrixFileError, RankDecision, ToleranceConfig, linalg
from chancert.certify import (
    EB_CODES,
    NOT_HERMITIAN_NOTE,
    eb_verdict,
    pair_rules,
    ppt_rule,
    separability_verdict,
    witness_verdict,
)
from chancert.cli import main
from chancert.io import (
    dumps,
    load_matrix,
    loads,
    matrix_file_dict,
    parse_matrix_file,
    save_json,
)
from chancert.errors import PurityViolationError
from chancert.linalg import PsdCheck, psd_rule

from conftest import complex_gaussian


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
            rederive_predicates(envelope["role"], envelope["analysis"])
        assert roles == {"choi", "state", "stinespring"}


def rederive_predicates(role: str, analysis: dict) -> None:
    """Check each predicate of an ``analyze`` report against its records."""
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
        ppt = ppt_rule(spectra["choi"], spectra["choi_pt"])
        assert value("cp") == spectra["choi"].psd
        assert value("cocp") == spectra["choi_pt"].psd
        assert value("ppt") == ppt
        if spectra["choi"].psd:
            assert predicates["eb"] == eb_verdict(ppt, triple).to_json()
        else:
            assert "eb" not in predicates
    elif role == "state":
        triple = (ranks["state"], ranks["marginal_left"], ranks["marginal_right"])
        ppt = ppt_rule(spectra["state"], spectra["state_pt"])
        assert value("psd") == spectra["state"].psd
        assert value("ppt") == ppt
        assert predicates["distillable_witness"] == witness_verdict(triple).to_json()
        assert predicates["separable"] == separability_verdict(ppt, triple).to_json()
    else:
        # The Choi matrices are the purification marginals L_ab and L_ac, with
        # marginals (L_a, L_b) and (L_a, L_c); their rank decisions are the
        # recorded chain. Fragility flags of the verdicts come from the Choi
        # matrices' own marginal ranks, which the report does not record.
        chain = analysis["rank_chain"]
        assert chain == {f"rank_l{key}": ranks[f"l_{key}"].rank
                         for key in ("ab", "ac", "a", "b", "c")} | {"fragile": False}
        sides = {"phi": ("ab", "a", "b"), "psi": ("ac", "a", "c")}
        ppt, eb = {}, {}
        for side, keys in sides.items():
            triple = tuple(ranks[f"l_{key}"] for key in keys)
            ppt[side] = ppt_rule(spectra[f"{side}_choi"], spectra[f"{side}_choi_pt"])
            eb[side] = eb_verdict(ppt[side], triple)
            assert value(f"cp_{side}") == spectra[f"{side}_choi"].psd
            assert value(f"ppt_{side}") == ppt[side]
            assert predicates[f"eb_{side}"]["value"] == eb[side].value
            assert predicates[f"witness_{side}"]["value"] == witness_verdict(triple).value
        chain_ranks = [chain[f"rank_l{key}"] for key in ("ab", "ac", "a", "b", "c")]
        purity, relation = pair_rules(
            ppt["phi"], ppt["psi"], value("witness_psi"), EB_CODES[eb["phi"].value],
            EB_CODES[eb["psi"].value], *chain_ranks,
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

    def test_non_cp_choi_to_kraus_is_precondition_failure(self, tmp_path):
        choi_path = tmp_path / "tr.json"
        main(["generate", "--kind", "transpose", "--dims", "2", "--output", str(choi_path)])
        assert main(["convert", str(choi_path), "--to", "kraus",
                     "--output", str(tmp_path / "k.json")]) == 3


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

        def explode(*args):
            purity, relation = original(*args)
            return purity, np.ones_like(relation)

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
def blas_threads():
    """OpenBLAS's thread-count getter, with the count set to 2 for the test."""
    if not numpy_uses_openblas():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    controls = linalg._openblas_thread_controls()
    assert controls is not None, "numpy uses OpenBLAS, but the lookup did not find it"
    get_threads, set_threads = controls
    before = get_threads()
    set_threads(2)
    try:
        yield get_threads
    finally:
        set_threads(before)


class TestBlasThreadPin:
    """``verify-theorem`` runs its harness with OpenBLAS held to one thread
    and leaves the thread count as it found it, however the harness ends."""

    ARGV = ["verify-theorem", "--trials", "3", "--dims", "2,2,2", "--seed", "1"]

    @staticmethod
    def spy_harness(monkeypatch, get_threads, error=None) -> list:
        """Record the thread count inside every run_harness call, then run or raise."""
        seen = []
        original = chancert.cli.run_harness

        def spy(*args):
            seen.append(get_threads())
            if error is not None:
                raise error
            return original(*args)

        monkeypatch.setattr("chancert.cli.run_harness", spy)
        return seen

    def test_harness_runs_on_one_thread(self, tmp_path, monkeypatch, blas_threads):
        seen = self.spy_harness(monkeypatch, blas_threads)
        assert main(self.ARGV + ["--output", str(tmp_path / "vt.json")]) == 0
        assert seen == [1]
        assert blas_threads() == 2

    def test_count_restored_on_counterexample(self, tmp_path, monkeypatch, blas_threads):
        original = chancert.certify.pair_rules

        def explode(*args):
            purity, relation = original(*args)
            return purity, np.ones_like(relation)

        monkeypatch.setattr("chancert.certify.pair_rules", explode)
        seen = self.spy_harness(monkeypatch, blas_threads)
        assert main(self.ARGV + ["--output", str(tmp_path / "vt.json")]) == 4
        assert seen == [1]
        assert blas_threads() == 2

    @pytest.mark.parametrize("error, rc", [
        (PurityViolationError("forced"), 4),
        (RuntimeError("forced"), None),
    ])
    def test_count_restored_when_harness_raises(self, monkeypatch, blas_threads, error, rc):
        seen = self.spy_harness(monkeypatch, blas_threads, error)
        if rc is None:
            with pytest.raises(RuntimeError, match="forced"):
                main(self.ARGV)
        else:
            assert main(self.ARGV) == rc
        assert seen == [1]
        assert blas_threads() == 2

    def test_no_op_without_openblas(self, tmp_path, monkeypatch, blas_threads):
        monkeypatch.setattr("chancert.linalg._openblas_thread_controls", lambda: None)
        seen = self.spy_harness(monkeypatch, blas_threads)
        assert main(self.ARGV + ["--output", str(tmp_path / "vt.json")]) == 0
        assert seen == [2]
        assert blas_threads() == 2

    def test_lookup_loads_no_second_copy(self, tmp_path, monkeypatch, blas_threads):
        # a copy of numpy's OpenBLAS is a library the process has not loaded
        wheel_copies = list(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"))
        if not wheel_copies:
            pytest.skip("numpy's OpenBLAS is not a wheel copy")
        copy = tmp_path / wheel_copies[0].name
        shutil.copyfile(wheel_copies[0], copy)
        monkeypatch.setattr("chancert.linalg._openblas_paths", lambda: iter([copy]))
        assert linalg._openblas_thread_controls.__wrapped__() is None


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
