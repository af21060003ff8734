"""Tests for the JSON schemas and the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from chancert import BipartiteLayout, MatrixFileError
from chancert.cli import main
from chancert.io import (
    dumps,
    load_matrix,
    loads,
    matrix_file_dict,
    parse_matrix_file,
    save_json,
)

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
        assert report["input_digest"].startswith("sha256:")

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

    def test_missing_role_is_parse_error(self, tmp_path):
        path = tmp_path / "bare.json"
        save_json(path, matrix_file_dict(np.eye(4)))
        assert main(["analyze", str(path)]) == 2

    def test_verdicts_rederivable_from_report(self, tmp_path):
        state_path = tmp_path / "tiles.json"
        report_path = tmp_path / "report.json"
        main(["generate", "--kind", "tiles", "--output", str(state_path)])
        main(["analyze", str(state_path), "--output", str(report_path)])
        analysis = json.loads(report_path.read_text())["analysis"]
        spectra = analysis["spectra"]
        ppt = (
            spectra["state"]["psd"]
            and spectra["state_pt"]["hermitian"]
            and spectra["state_pt"]["lambda_min"] >= spectra["state_pt"]["threshold"]
        )
        assert ppt == (analysis["predicates"]["ppt"]["value"] == "yes")
        ranks = analysis["ranks"]
        fired = ranks["state"]["rank"] < max(
            ranks["marginal_left"]["rank"], ranks["marginal_right"]["rank"]
        )
        assert fired == (analysis["predicates"]["distillable_witness"]["value"] == "yes")


class TestCliGenerateConvert:
    def test_generate_records_spec(self, tmp_path):
        path = tmp_path / "l.json"
        assert main(["generate", "--kind", "random-stinespring", "--dims", "2,2,2",
                     "--seed", "11", "--output", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["role"] == "stinespring"
        assert payload["dims"] == [2, 2, 2]
        assert payload["generator"]["seed"] == 11

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
