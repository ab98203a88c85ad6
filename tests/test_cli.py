import hashlib
import json

import pytest

from tcqkd import cli
from tcqkd.cli import main
from tcqkd.netsim import NetworkScenario, SessionSpec
from tcqkd.protocols import ProtocolId, SessionConfig, transcript_from_json
from test_netsim import MALFORMED_SCENARIOS, scenario_to_json_dict


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


def test_main_without_arguments_reads_sys_argv(monkeypatch, capsys):
    assert main(["tables", "bell", "--format", "csv"]) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr("sys.argv", ["tcqkd", "tables", "bell", "--format", "csv"])
    assert main() == 0
    assert capsys.readouterr().out == expected


class TestRun:
    def test_run_writes_transcript_and_summary(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = main(["run", "--protocol", "GHZ3", "--num-states", "800",
                     "--seed", "42", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 4
        assert doc["kept_fraction"] == 1.0
        summary = capsys.readouterr().out
        assert "protocol=GHZ3" in summary and "bound=1.0" in summary

    def test_run_defaults_to_10000_states(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["run", "--protocol", "GHZ1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["num_states"] == 10000

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
        assert capsys.readouterr().err == "error: the ancilla attack targets the triplet protocols\n"

    @pytest.mark.parametrize("flags,message", [
        (["--target", "carol"], "argument --target: invalid choice: 'carol' (choose from 'alice', 'bob')"),
        (["--basis", "W"], "argument --basis: invalid choice: 'W' (choose from 'X', 'Y', 'Z')"),
    ], ids=["target", "basis"])
    def test_flag_outside_choices_usage_error(self, flags, message, capsys):
        # The choices are the Party and Basis values, in their order.
        assert main(["attack", "GHZ1", "intercept-resend", *flags]) == 1
        assert capsys.readouterr().err.endswith(f"tcqkd attack: error: {message}\n")

    def test_unknown_pool_basis_names_the_field(self, capsys):
        # The line a config document with this pool gets.
        assert main(["attack", "GHZ1", "intercept-resend", "--pool", "x,w"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: attack.basis_pool[1]: expected X/Y/Z, got 'W'\n"
        assert captured.out == ""


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
            assert float(fields[9]) > 0.125  # efficiency_measured
            assert float(fields[9]) <= float(fields[10])  # <= bound

    def test_loss_monotone_efficiency(self, tmp_path):
        out = tmp_path / "bench.csv"
        main(["bench", "--protocols", "GHZ1", "--loss-grid", "0.0,0.1,0.5",
              "--num-states", "4000", "--seed", "5", "--out", str(out)])
        effs = [float(r.split(",")[9]) for r in out.read_text().strip().split("\n")[1:]]
        assert effs[0] > effs[1] > effs[2]

    @pytest.mark.parametrize("flags,message", [
        (["--protocols", "GHZ1,GHZ9"], "protocol: expected GHZ1/GHZ2/GHZ3/BELL4/BELL5, got 'GHZ9'"),
        (["--loss-grid", "0.1,2"], "loss_probability must be in [0, 1]"),
        (["--loss-grid", "0.1,x"], "--loss-grid: expected a number, got 'x'"),
    ], ids=["protocol", "loss_range", "loss_text"])
    def test_bad_grid_refused_before_its_first_session(self, flags, message, tmp_path, capsys,
                                                       monkeypatch):
        """A bad value late in the grid is refused, naming its field,
        before any session runs or any file is written."""
        runs = []
        monkeypatch.setattr(cli, "run_session", lambda config: runs.append(config))
        out = tmp_path / "bench.csv"
        assert main(["bench", "--num-states", "500", "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert runs == [] and not out.exists()

    def test_header_begins_with_the_network_csv_header(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--protocols", "GHZ1", "--num-states", "500",
                     "--out", str(out)]) == 0
        csv = tmp_path / "sessions.csv"
        main(["network", str(TestNetwork()._scenario_file(tmp_path)), "--csv", str(csv)])
        network_header = csv.read_text().split("\n")[0]
        assert out.read_text().split("\n")[0] == network_header + ",baseline_time_reserved"

    def test_defaults_to_10000_states(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--protocols", "GHZ1", "--out", str(out)]) == 0
        header, row = out.read_text().strip().split("\n")
        assert dict(zip(header.split(","), row.split(",")))["num_states"] == "10000"

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

    @pytest.mark.parametrize("attacked", [False, True], ids=["error_only", "error_and_abort"])
    def test_network_session_error_exit_1(self, tmp_path, capsys, attacked):
        """A session naming an unregistered user is an error: exit 1, also
        when another session aborted, after every row is printed and the
        report and CSV are written."""
        from tcqkd.adversary import InterceptResend, NoAttack

        attack = InterceptResend() if attacked else NoAttack()
        sessions = (
            SessionSpec("u1", "u2", SessionConfig(ProtocolId.GHZ3, 500, attack=attack,
                                                  qber_abort_threshold=0.05)),
            SessionSpec("u1", "u3", SessionConfig(ProtocolId.GHZ3, 500)),
        )
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_json_dict(
            NetworkScenario(users=("u1", "u2"), sessions=sessions, seed=4))), encoding="utf-8")
        report, csv = tmp_path / "report.json", tmp_path / "sessions.csv"
        code = main(["network", str(path), "--report", str(report), "--csv", str(csv)])
        assert code == 1
        rows = json.loads(report.read_text())["sessions"]
        assert rows[0]["aborted"] is attacked
        assert rows[1]["error"] == "user id 'u3' is not registered"
        assert csv.read_text().count("\n") == 2
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert out[1] == "[1] u1->u3 GHZ3: error: user id 'u3' is not registered"

    def test_session_seed_in_config_exit_1(self, tmp_path, capsys):
        """A session config that states its own seed is that session's
        error, after the other rows are printed and the report written."""
        sessions = (SessionSpec("u1", "u2", SessionConfig(ProtocolId.GHZ3, 500)),
                    SessionSpec("u2", "u1", SessionConfig(ProtocolId.GHZ3, 500, rng_seed=5)))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_json_dict(
            NetworkScenario(users=("u1", "u2"), sessions=sessions, seed=4))), encoding="utf-8")
        report = tmp_path / "report.json"
        assert main(["network", str(path), "--report", str(report)]) == 1
        rows = json.loads(report.read_text())["sessions"]
        assert [row["error"] for row in rows] == [
            None, "rng_seed: set by the scenario seed, not in a session config"]
        out = capsys.readouterr().out.splitlines()
        assert out[1] == ("[1] u2->u1 GHZ3: error: "
                          "rng_seed: set by the scenario seed, not in a session config")

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


class TestOutputPinned:
    """The summary each verb reports, pinned byte for byte: the bench
    CSV file and the printed lines of run, attack and network."""

    def test_bench_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--protocols", "GHZ1,GHZ3,BELL5", "--loss-grid", "0.0,0.2",
                     "--num-states", "3000", "--seed", "3", "--out", str(out)]) == 0
        assert sha(out) == "3da7cf83eb00b1bd401ae27a10ee08860f71ec58d8007610eedfe6e67dbbf959"

    def test_run_stdout(self, capsys):
        assert main(["run", "--protocol", "GHZ2", "--num-states", "2000", "--loss", "0.05",
                     "--seed", "1"]) == 0
        assert capsys.readouterr().out == (
            "protocol=GHZ2 kept_fraction=0.4395 qber=0.0000 aborted=False final_key_bits=728 "
            "efficiency=0.3640 bound=0.5 baseline=0.125\n")

    def test_attack_stdout(self, capsys):
        assert main(["attack", "GHZ3", "ancilla", "--coupling", "0.05", "--num-states", "2000",
                     "--threshold", "0.3", "--seed", "1"]) == 0
        assert capsys.readouterr().out == (
            "protocol=GHZ3 kept_fraction=1.0000 qber=0.0200 aborted=False final_key_bits=1238 "
            "efficiency=0.6190 bound=1.0 baseline=0.125\n"
            "attack=ancilla predicted_detection_rate=0.012500000000000016 "
            "observed_check_error_rate=0.0200 predicted_accuracy=0.5780624749799804 "
            "observed_accuracy=0.5755555555555556\n")

    def test_network_stdout(self, tmp_path, capsys):
        # A session that runs, one that aborts and one that cannot run.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "seed": 7, "users": ["alice", "bob", "carol"],
            "channels": {"alice": {"loss_probability": 0.1},
                         "bob": {"loss_probability": 0.25}},
            "sessions": [
                {"requester": "alice", "responder": "bob",
                 "config": {"protocol": "GHZ1", "num_states": 2000}},
                {"requester": "bob", "responder": "carol",
                 "config": {"protocol": "GHZ2", "num_states": 2000,
                            "attack": {"kind": "intercept_resend"}}},
                {"requester": "carol", "responder": "dave",
                 "config": {"protocol": "BELL5", "num_states": 2000}},
            ]}), encoding="utf-8")
        assert main(["network", str(path)]) == 1
        assert capsys.readouterr().out == (
            "[0] alice->bob GHZ1: kept=0.3415 qber=0.0000 aborted=False key_bits=551\n"
            "[1] bob->carol GHZ2: kept=0.3770 qber=0.3467 aborted=True key_bits=0\n"
            "[2] carol->dave BELL5: error: user id 'dave' is not registered\n")


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

    def _flip_kept(self, tmp_path, columns):
        """The attack-free run's file with an arrived, unkept position set
        to '1' in each of columns; the position's index and the file."""
        out = self._file(tmp_path, "run")
        doc = json.loads(out.read_text())
        lost, kept = doc["positions"]["lost"], doc["positions"]["kept"]
        at = next(i for i, (l, k) in enumerate(zip(lost, kept)) if l == k == "0")  # arrived
        for key in columns:
            column = doc["positions"][key]
            doc["positions"][key] = column[:at] + "1" + column[at + 1:]
        out.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
        return at, out

    def test_flipped_kept_digit_names_the_column(self, tmp_path, capsys):
        """Kept and checked: no key position more, so the file reads and
        differs from the re-run first in the kept column."""
        at, out = self._flip_kept(tmp_path, ["kept", "used_for_check"])
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {out}: positions.kept: '1' at {at} in the file, '0' in the re-run\n")

    def test_contradictory_decided_field_one_line(self, tmp_path, capsys):
        """Kept alone: one key position more than Alice's raw key has
        bits, which the reader refuses."""
        _, out = self._flip_kept(tmp_path, ["kept"])
        bits = len(json.loads(out.read_text())["alice_raw_key"])
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}: alice_raw_key: expected {bits + 1} bits, got {bits}\n"
        assert captured.out == ""

    # A derived field, how a transcript gives it, and an edit of its JSON value.
    DERIVED = {
        "kept_count": (lambda t: t.kept_count, lambda v: v + 1),
        "bob_raw_key": (lambda t: t.bob_raw_key, lambda v: "10"[int(v[0])] + v[1:]),
        "events": (lambda t: t.events, lambda v: v[::-1]),
        "postproc.final_length": (lambda t: t.postproc_summary.final_length, lambda v: v + 1),
        "efficiency_measured": (lambda t: t.efficiency_measured, lambda v: v + 1),
        "adversary.observed_accuracy": (lambda t: t.adversary["observed_accuracy"],
                                        lambda v: v + 1),
    }

    @pytest.mark.parametrize("name", sorted(DERIVED))
    def test_derived_fields_come_from_the_columns(self, name, tmp_path, capsys, monkeypatch):
        """A file whose derived field contradicts its columns reads back
        with the derived value, and fails verify naming that field, even
        where the re-run is the file's own transcript."""
        value, edit = self.DERIVED[name]
        out = self._file(tmp_path, "attack_reconciles")
        doc = json.loads(out.read_text())
        *parents, key = name.split(".")
        inner = doc
        for parent in parents:
            inner = inner[parent]
        derived = value(transcript_from_json(out.read_text()))
        assert inner[key] == derived
        inner[key] = edit(inner[key])
        text = json.dumps(doc, separators=(",", ":")) + "\n"
        out.write_text(text, encoding="utf-8")
        assert value(transcript_from_json(text)) == derived
        monkeypatch.setattr(cli, "run_session", lambda config: transcript_from_json(text))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        err = capsys.readouterr().err
        # The reversed log differs first in its first event's seq.
        where = "events[0].seq" if name == "events" else name
        assert err.startswith(f"error: {out}: {where}: ") and err.endswith(" in the re-run\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["events"][3].update(event="announce"),
         "events[3].event: 'announce' in the file, 'announce_results' in the re-run"),
        (lambda doc: doc["events"].pop(), "events: 9 items in the file, 10 in the re-run"),
        (lambda doc: doc.update(note="extra"), "note: not in the re-run's transcript"),
        (lambda doc: doc.pop("kept_count"), "kept_count: missing from the file"),
    ], ids=["item", "length", "extra_key", "derived_key_removed"])
    def test_first_difference_is_named(self, edit, message, tmp_path, capsys):
        out = tmp_path / "ghz1-intercept.json"
        assert main(["attack", "GHZ1", "intercept-resend", "--num-states", "2000",
                     "--seed", "1", "--out", str(out)]) == 2
        doc = json.loads(out.read_text())
        edit(doc)
        out.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {out}: {message}\n"

    @pytest.mark.parametrize("content,message", [
        (b'{"schema_version":', "Expecting value: line 1 column 19 (char 18)"),
        (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b'{"schema_version":1}', "schema_version: expected 4, got 1"),
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

    def test_blank_and_comment_lines_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "commented.cfg"
        cfg.write_text("# a GHZ1 run\n\nnum-states=400\n   \n  # seed below\nseed=5\n",
                       encoding="utf-8")
        assert main(["--config", str(cfg), "run", "--protocol", "GHZ1"]) == 0
        from_file = capsys.readouterr().out
        assert main(["run", "--protocol", "GHZ1", "--num-states", "400", "--seed", "5"]) == 0
        assert capsys.readouterr().out == from_file

    def test_file_value_read_as_its_flag_is(self, tmp_path, capsys):
        # The config reads the protocol and names it, whether it came
        # from a flag or from the file.
        cfg = tmp_path / "ghz9.cfg"
        cfg.write_text("protocol=GHZ9\nnum-states=400\n", encoding="utf-8")
        assert main(["--config", str(cfg), "run"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: protocol: expected GHZ1/GHZ2/GHZ3/BELL4/BELL5, got 'GHZ9'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("line,argv,message", [
        ("kind=eve", ["attack", "GHZ1", "--num-states", "500"],
         "kind: expected intercept-resend/cheating-center/ancilla, got 'eve'"),
        ("scenario=foo", ["tables"], "scenario: expected bell/mixed/ghz/all, got 'foo'"),
        ("format=xml", ["tables", "all"], "format: expected text/csv, got 'xml'"),
        # Refused as the flag is, though intercept-resend reads no basis.
        ("basis=W", ["attack", "GHZ1", "intercept-resend", "--num-states", "500"],
         "basis: expected X/Y/Z, got 'W'"),
        ("target=carol", ["attack", "GHZ1", "intercept-resend", "--num-states", "500"],
         "target: expected alice/bob, got 'carol'"),
    ], ids=["kind", "scenario", "format", "basis", "target"])
    def test_file_value_outside_choices_one_line_exit_1(self, tmp_path, capsys, line, argv, message):
        # argparse checks choices only on the command line; the command
        # that runs checks the file's values against its own.
        cfg = tmp_path / "choice.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert main(["--config", str(cfg), *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_file_value_checked_by_the_command_that_runs(self, tmp_path, capsys):
        # tables' scenario has choices; network's is a path and has none.
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"users": ["a"]}), encoding="utf-8")
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"scenario={scenario}\n", encoding="utf-8")
        assert main(["--config", str(cfg), "network"]) == 0
        assert capsys.readouterr().err == ""
        cfg.write_text("scenario=bell\nformat=csv\n", encoding="utf-8")
        assert main(["--config", str(cfg), "tables"]) == 0
        assert capsys.readouterr().out.startswith("scenario,center,")

    def test_config_without_path_one_line_exit_1(self, capsys):
        assert main(["--config"]) == 1
        assert capsys.readouterr().err == "error: argument --config: expected one argument\n"
