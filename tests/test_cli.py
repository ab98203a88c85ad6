import hashlib
import json

import pytest

from tcqkd import cli
from tcqkd.cli import main
from tcqkd.netsim import NetworkScenario, SessionSpec, scenario_to_json_dict
from tcqkd.protocols import ProtocolId, SessionConfig, transcript_from_json
from test_netsim import MALFORMED_SCENARIOS


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestTables:
    def test_bell_csv_all_match(self, tmp_path, capsys):
        out = tmp_path / "bell.csv"
        assert main(["tables", "bell", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 17
        assert all(l.endswith("true") for l in lines[1:])

    def test_ghz_text_flags_discrepancy_but_exits_zero(self, capsys):
        assert main(["tables", "ghz"]) == 0
        text = capsys.readouterr().out
        assert text.count("Alice") == 4
        assert "x+*" in text

    def test_all_scenarios(self, capsys):
        assert main(["tables", "all", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.count("scenario,center") == 3

    def test_unknown_scenario_usage_error(self, capsys):
        assert main(["tables", "bogus"]) == 1


class TestRun:
    def test_run_writes_transcript_and_summary(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = main(["run", "--protocol", "GHZ3", "--num-states", "800",
                     "--seed", "42", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 2
        assert doc["kept_fraction"] == 1.0
        summary = capsys.readouterr().out
        assert "protocol=GHZ3" in summary and "bound=1.0" in summary

    def test_run_rejects_zero_states(self, capsys):
        assert main(["run", "--protocol", "GHZ1", "--num-states", "0"]) == 1

    def test_run_rejects_unknown_protocol(self, capsys):
        assert main(["run", "--protocol", "GHZ9"]) == 1


class TestAttack:
    def test_intercept_aborts_with_exit_2(self, capsys):
        code = main(["attack", "GHZ1", "intercept-resend", "--num-states", "2000",
                     "--seed", "7", "--check-fraction", "0.2"])
        assert code == 2
        out = capsys.readouterr().out
        assert "predicted_detection_rate=0.25" in out
        assert "aborted=True" in out

    def test_ancilla_zero_coupling_survives(self, capsys):
        code = main(["attack", "GHZ1", "ancilla", "--coupling", "0.0",
                     "--num-states", "1500", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "predicted_detection_rate=0.0" in out

    def test_cheating_center_reports_rate(self, capsys):
        code = main(["attack", "GHZ2", "cheating-center", "--basis", "X",
                     "--num-states", "2000", "--seed", "9", "--check-fraction", "0.2"])
        assert code == 2
        assert "observed_check_error_rate" in capsys.readouterr().out

    def test_unsupported_combo_usage_error(self, capsys):
        assert main(["attack", "BELL4", "ancilla", "--num-states", "500"]) == 1


class TestBench:
    def test_grid_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--protocols", "GHZ1,GHZ3", "--loss-grid", "0.0,0.2",
                     "--num-states", "600", "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5
        assert lines[0].endswith("baseline_time_reserved")
        assert all(l.endswith("0.125") for l in lines[1:])

    def test_all_protocols_beat_baseline_at_zero_loss(self, tmp_path):
        out = tmp_path / "bench.csv"
        main(["bench", "--loss-grid", "0.0", "--num-states", "2000", "--seed", "5",
              "--out", str(out)])
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == 5
        for row in rows:
            fields = row.split(",")
            assert float(fields[8]) > 0.125  # efficiency_measured
            assert float(fields[8]) <= float(fields[9])  # <= bound

    def test_loss_monotone_efficiency(self, tmp_path):
        out = tmp_path / "bench.csv"
        main(["bench", "--protocols", "GHZ1", "--loss-grid", "0.0,0.1,0.5",
              "--num-states", "4000", "--seed", "5", "--out", str(out)])
        effs = [float(r.split(",")[8]) for r in out.read_text().strip().split("\n")[1:]]
        assert effs[0] > effs[1] > effs[2]

    def test_empty_protocol_set(self, capsys):
        assert main(["bench", "--protocols", "", "--loss-grid", "0.0"]) == 0
        out = capsys.readouterr().out
        assert out.strip().split("\n") == [out.strip()]  # header only


class TestNetwork:
    def _scenario_file(self, tmp_path, attacked=False):
        from tcqkd.adversary import InterceptResend, NoAttack

        sessions = (
            SessionSpec("u1", "u2", SessionConfig(
                ProtocolId.GHZ3, 500,
                qber_abort_threshold=0.05 if attacked else 0.0,
                attack=InterceptResend() if attacked else NoAttack())),
        )
        scenario = NetworkScenario(users=("u1", "u2"), sessions=sessions, seed=4)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_json_dict(scenario)), encoding="utf-8")
        return path

    def test_network_clean(self, tmp_path, capsys):
        path = self._scenario_file(tmp_path)
        report = tmp_path / "report.json"
        csv = tmp_path / "sessions.csv"
        code = main(["network", str(path), "--report", str(report), "--csv", str(csv)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["sessions"][0]["aborted"] is False
        assert csv.read_text().count("\n") == 2
        assert "u1->u2" in capsys.readouterr().out

    def test_network_aborted_session_exit_2(self, tmp_path, capsys):
        path = self._scenario_file(tmp_path, attacked=True)
        assert main(["network", str(path)]) == 2

    def test_missing_file_usage_error(self, capsys):
        assert main(["network", "/nonexistent/scenario.json"]) == 1

    @pytest.mark.parametrize("content,message", [
        (b"\n", "Expecting value: line 2 column 1 (char 1)"),
        (b"\xff\n", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["not_json", "not_utf8"])
    def test_unreadable_scenario_names_the_file(self, content, message, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(content)
        assert main(["network", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("name", sorted(MALFORMED_SCENARIOS))
    def test_malformed_scenario_one_line_exit_1(self, name, tmp_path, capsys):
        doc, message = MALFORMED_SCENARIOS[name]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["network", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestDeterminism:
    def test_run_byte_identical(self, tmp_path, capsys):
        args = ["run", "--protocol", "BELL5", "--num-states", "700", "--seed", "13"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert sha(a) == sha(b)

    def test_bench_byte_identical(self, tmp_path):
        args = ["bench", "--protocols", "GHZ2", "--loss-grid", "0.0,0.3",
                "--num-states", "500", "--seed", "21"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert sha(a) == sha(b)

    def test_network_byte_identical(self, tmp_path, capsys):
        scenario = TestNetwork()._scenario_file(tmp_path)
        a, b = tmp_path / "ra.json", tmp_path / "rb.json"
        main(["network", str(scenario), "--report", str(a)])
        main(["network", str(scenario), "--report", str(b)])
        assert sha(a) == sha(b)


class TestVerify:
    RUNS = {
        "run": ["run", "--protocol", "GHZ2", "--num-states", "3000", "--loss", "0.1",
                "--seed", "3"],
        "attack_reconciles": ["attack", "GHZ3", "ancilla", "--coupling", "0.2", "--threshold",
                              "0.3", "--num-states", "3000", "--seed", "4"],
        "attack_aborts": ["attack", "BELL5", "intercept-resend", "--num-states", "2000",
                          "--seed", "5"],
    }

    def _file(self, tmp_path, name):
        out = tmp_path / f"{name}.json"
        assert main(self.RUNS[name] + ["--out", str(out)]) in (0, 2)
        return out

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_run_and_attack_files_verify(self, name, tmp_path, capsys):
        out = self._file(tmp_path, name)
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        assert capsys.readouterr().out.startswith(f"{out}: equals a re-run of its config")

    def test_flipped_kept_digit_names_the_column(self, tmp_path, capsys):
        out = self._file(tmp_path, "run")
        doc = json.loads(out.read_text())
        lost, kept = doc["positions"]["lost"], doc["positions"]["kept"]
        at = next(i for i, (l, k) in enumerate(zip(lost, kept)) if l == k == "0")  # arrived
        doc["positions"]["kept"] = kept[:at] + "1" + kept[at + 1:]
        out.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {out}: positions.kept: '1' at {at} in the file, '0' in the re-run\n")

    def test_counts_are_recomputed_from_the_columns(self, tmp_path, capsys, monkeypatch):
        """A file whose kept_count its own kept column contradicts fails,
        even where the re-run agrees with it byte for byte."""
        out = self._file(tmp_path, "attack_reconciles")
        doc = json.loads(out.read_text())
        doc["kept_count"] += 1
        doc["kept_fraction"] = doc["kept_count"] / doc["config"]["num_states"]
        text = json.dumps(doc, separators=(",", ":")) + "\n"
        out.write_text(text, encoding="utf-8")
        monkeypatch.setattr(cli, "run_session", lambda config: transcript_from_json(text))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        kept = doc["positions"]["kept"].count("1")
        assert capsys.readouterr().err == (
            f"error: {out}: kept_count: {kept + 1} in the file, {kept} recomputed from it\n")

    @pytest.mark.parametrize("content,message", [
        (b'{"schema_version":', "Expecting value: line 1 column 19 (char 18)"),
        (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b'{"schema_version":1}', "schema_version: expected 2, got 1"),
    ], ids=["not_json", "not_utf8", "schema_1"])
    def test_malformed_file_one_line(self, content, message, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_bytes(content)
        assert main(["verify", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n"
        assert captured.out == ""


class TestConfigFile:
    def test_defaults_from_file_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("protocol=GHZ3\nnum-states=400\nseed=5\n", encoding="utf-8")
        assert main(["--config", str(cfg), "run"]) == 0
        assert "protocol=GHZ3" in capsys.readouterr().out
        # explicit flag wins over the file
        assert main(["--config", str(cfg), "run", "--protocol", "BELL4"]) == 0
        assert "protocol=BELL4" in capsys.readouterr().out

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("protocol GHZ3\n", encoding="utf-8")
        assert main(["--config", str(cfg), "run"]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: config line without '=': 'protocol GHZ3'\n"

    def test_undecodable_config_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"seed=5 \xff\n")
        assert main(["--config", str(cfg), "run", "--protocol", "GHZ1"]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n")

    def test_equals_form_reads_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("num-states=400\nseed=5\n", encoding="utf-8")
        assert main([f"--config={cfg}", "run", "--protocol", "GHZ1"]) == 0
        from_file = capsys.readouterr().out
        assert main(["run", "--protocol", "GHZ1", "--num-states", "400", "--seed", "5"]) == 0
        assert capsys.readouterr().out == from_file

    def test_unknown_key_one_line_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("num_state=400\nsede=5\n", encoding="utf-8")
        assert main(["--config", str(cfg), "run", "--protocol", "GHZ1",
                     "--num-states", "200"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {cfg}: unknown key 'num_state'\n"
        assert captured.out == ""

    def test_config_without_path_one_line_exit_1(self, capsys):
        assert main(["--config"]) == 1
        assert capsys.readouterr().err == "error: argument --config: expected one argument\n"
