import hashlib
import json

import numpy as np
import pytest

from tcqkd.adversary import InterceptResend
from tcqkd.netsim import (
    ChannelModel,
    NetworkScenario,
    SessionSpec,
    load_scenario,
    report_csv,
    run_network_scenario,
    scenario_from_json_dict,
    session_seed,
)
from tcqkd.protocols import ProtocolId, SessionConfig, config_to_json_dict


def scenario_to_json_dict(scenario: NetworkScenario) -> dict:
    """The scenario document `scenario_from_json_dict` reads back as
    scenario."""
    return {
        "schema_version": 1,
        "seed": scenario.seed,
        "users": list(scenario.users),
        "channels": {
            uid: {"loss_probability": ch.loss_probability, "latency_ticks": ch.latency_ticks}
            for uid, ch in sorted(scenario.channels.items())
        },
        "sessions": [
            {"requester": s.requester, "responder": s.responder,
             "config": config_to_json_dict(s.config)}
            for s in scenario.sessions
        ],
    }


# Malformed scenario documents and the error each must raise.
MALFORMED_SCENARIOS = {
    "no_users": ({"sessions": []}, "scenario: missing 'users'"),
    "no_responder": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "config": {"protocol": "GHZ1", "num_states": 100}}]},
        "sessions[0]: missing 'responder'"),
    "channel_list": ({"users": ["a"], "channels": {"a": [0.1]}},
                     "channels.a: expected an object, got list"),
    "seed_list": ({"users": ["a"], "seed": [1]}, "seed: expected a number, got [1]"),
    "loss_null": ({"users": ["a"], "channels": {"a": {"loss_probability": None}}},
                  "channels.a: loss_probability: expected a number, got None"),
    "loss_range": ({"users": ["a"], "channels": {"a": {"loss_probability": 2}}},
                   "channels.a: loss_probability must be in [0, 1]"),
    "user_list": ({"users": [["a"], "b"]}, "users[0]: expected a string, got list"),
    "requester_list": (
        {"users": ["a", "b"],
         "sessions": [{"requester": ["a"], "responder": "b",
                       "config": {"protocol": "GHZ1", "num_states": 100}}]},
        "sessions[0]: requester: expected a string, got list"),
    "num_states_text": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b",
                       "config": {"protocol": "GHZ1", "num_states": "x"}}]},
        "sessions[0].config: num_states: expected a number, got 'x'"),
    "num_states_fraction": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b",
                       "config": {"protocol": "GHZ1", "num_states": 2000.9}}]},
        "sessions[0].config: num_states: expected an integer, got 2000.9"),
    "rng_seed_fraction": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b",
                       "config": {"protocol": "GHZ1", "num_states": 2000, "rng_seed": 7.8}}]},
        "sessions[0].config: rng_seed: expected an integer, got 7.8"),
    "num_states_infinite": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b",
                       "config": {"protocol": "GHZ1", "num_states": float("inf")}}]},
        "sessions[0].config: num_states: expected an integer, got inf"),
    "basis_pool_text": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b",
                       "config": {"protocol": "GHZ1", "num_states": 2000,
                                  "attack": {"kind": "intercept_resend", "basis_pool": "XZ"}}}]},
        "sessions[0].config: attack.basis_pool: expected a list, got str"),
    "basis_pool_unknown_basis": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b",
                       "config": {"protocol": "GHZ1", "num_states": 2000,
                                  "attack": {"kind": "intercept_resend",
                                             "basis_pool": ["X", "W"]}}}]},
        "sessions[0].config: attack.basis_pool[1]: expected X/Y/Z, got 'W'"),
    "target_party_unknown": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b",
                       "config": {"protocol": "GHZ1", "num_states": 2000,
                                  "attack": {"kind": "intercept_resend",
                                             "target_party": "carol"}}}]},
        "sessions[0].config: attack.target_party: expected alice/bob, got 'carol'"),
    "protocol_unknown": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b",
                       "config": {"protocol": "GHZ9", "num_states": 2000}}]},
        "sessions[0].config: protocol: expected GHZ1/GHZ2/GHZ3/BELL4/BELL5, got 'GHZ9'"),
    "attack_text": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b",
                       "config": {"protocol": "GHZ1", "num_states": 2000, "attack": "none"}}]},
        "sessions[0].config: attack: expected an object, got str"),
    "config_unknown_key": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b",
                       "config": {"protocol": "GHZ1", "num_states": 2000,
                                  "check_fracton": 0.3}}]},
        "sessions[0].config: unknown key 'check_fracton'"),
    "attack_unknown_key": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b",
                       "config": {"protocol": "GHZ1", "num_states": 2000,
                                  "attack": {"kind": "ancilla", "basis": "X"}}}]},
        "sessions[0].config: attack: unknown key 'basis'"),
    "seed_fraction": ({"users": ["a"], "seed": 7.8}, "seed: expected an integer, got 7.8"),
    "seed_infinite": ({"users": ["a"], "seed": float("inf")}, "seed: expected an integer, got inf"),
    "sessions_misspelt": (
        {"users": ["a", "b"], "channels": {"a": {"loss": 0.3}},
         "sesions": [{"requester": "a", "responder": "b",
                      "config": {"protocol": "GHZ1", "num_states": 100}}]},
        "scenario: unknown key 'sesions'"),
    "channel_unknown_key": ({"users": ["a"], "channels": {"a": {"loss": 0.3}}},
                            "channels.a: unknown key 'loss'"),
    "session_unknown_key": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b", "priority": 1,
                       "config": {"protocol": "GHZ1", "num_states": 100}}]},
        "sessions[0]: unknown key 'priority'"),
    "schema_version_2": ({"schema_version": 2, "users": ["a"]},
                         "schema_version: expected 1, got 2"),
    "num_states_string": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b",
                       "config": {"protocol": "GHZ1", "num_states": "400"}}]},
        "sessions[0].config: num_states: expected a number, got '400'"),
    "check_fraction_string": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b",
                       "config": {"protocol": "GHZ1", "num_states": 400,
                                  "check_fraction": "0.2"}}]},
        "sessions[0].config: check_fraction: expected a number, got '0.2'"),
    "coupling_string": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b",
                       "config": {"protocol": "GHZ1", "num_states": 400,
                                  "attack": {"kind": "ancilla", "coupling": "0.5"}}}]},
        "sessions[0].config: attack.coupling: expected a number, got '0.5'"),
    "loss_true": ({"users": ["a"], "channels": {"a": {"loss_probability": True}}},
                  "channels.a: loss_probability: expected a number, got True"),
    "channel_not_a_user": (
        {"users": ["alice", "bob"], "channels": {"alice": {"loss_probability": 0.1},
                                                 "bbo": {"loss_probability": 0.25}}},
        "channels.bbo: not one of users"),
    "seed_negative": ({"users": ["a"], "seed": -3}, "seed: expected an integer >= 0, got -3"),
    "user_repeated": ({"users": ["a", "a"]}, "users[1]: 'a' repeats users[0]"),
    "user_repeated_later": ({"users": ["a", "b", "a"]}, "users[2]: 'a' repeats users[0]"),
    "attack_kind_unknown": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b",
                       "config": {"protocol": "GHZ1", "num_states": 2000,
                                  "attack": {"kind": "eve"}}}]},
        "sessions[0].config: attack.kind: "
        "expected none/intercept_resend/cheating_center/ancilla, got 'eve'"),
    "config_no_protocol": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b", "config": {"num_states": 2000}}]},
        "sessions[0].config: missing 'protocol'"),
}


def make_config(protocol=ProtocolId.GHZ1, n=1000, **kw):
    return SessionConfig(protocol=protocol, num_states=n, **kw)


class TestScenarioValidation:
    @pytest.mark.parametrize("name", [
        "user_list", "user_repeated", "user_repeated_later", "seed_list", "seed_fraction",
        "seed_infinite", "seed_negative", "loss_null", "loss_true", "loss_range",
        "channel_not_a_user"])
    def test_built_scenario_refused_like_a_loaded_one(self, name):
        """Built in Python from the document's values, the scenario is
        refused with the loaded document's message: the path of the
        object that refuses, then its own message."""
        doc, message = MALFORMED_SCENARIOS[name]
        with pytest.raises(ValueError) as exc:
            channels = {}
            for uid, ch in doc.get("channels", {}).items():
                path = f"channels.{uid}: "
                channels[uid] = ChannelModel(**ch)
            path = ""
            NetworkScenario(doc["users"], channels, seed=doc.get("seed", 0))
        assert path + str(exc.value) == message

    @pytest.mark.parametrize("build,message", [
        (lambda: NetworkScenario(("a",), seed=1.5), "seed: expected an integer, got 1.5"),
        (lambda: NetworkScenario(("a",), seed=-1), "seed: expected an integer >= 0, got -1"),
        (lambda: NetworkScenario(("a",), seed=True), "seed: expected a number, got True"),
        (lambda: NetworkScenario("ab"), "users: expected a list, got str"),
        (lambda: NetworkScenario(("a",), {"a": {"loss_probability": 0.1}}),
         "channels.a: expected a ChannelModel, got dict"),
        (lambda: NetworkScenario(("a", "b"), sessions=({"requester": "a"},)),
         "sessions[0]: expected a SessionSpec, got dict"),
        (lambda: SessionSpec("a", "b", {"protocol": "GHZ1", "num_states": 100}),
         "config: expected a SessionConfig, got dict"),
        (lambda: SessionSpec("a", 2, make_config()), "responder: expected a string, got int"),
        (lambda: ChannelModel(loss_probability="0.1"),
         "loss_probability: expected a number, got '0.1'"),
        (lambda: ChannelModel(loss_probability=True), "loss_probability: expected a number, got True"),
        (lambda: ChannelModel(latency_ticks=1.5), "latency_ticks: expected an integer, got 1.5"),
        (lambda: NetworkScenario(("a",), [("a", ChannelModel())]),
         "channels: expected an object, got list"),
        (lambda: NetworkScenario(("a",), None), "channels: expected an object, got NoneType"),
        (lambda: NetworkScenario(("a",), sessions=None), "sessions: expected a list, got NoneType"),
    ], ids=["seed_fraction", "seed_negative", "seed_true", "users_text", "channel_dict",
            "session_dict", "config_dict", "responder_int", "loss_text", "loss_true",
            "latency_fraction", "channels_list", "channels_none", "sessions_none"])
    def test_a_value_no_document_carries_is_refused(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    def test_fields_stored_as_a_document_gives_them(self):
        scenario = NetworkScenario(["a", "b"], {"a": ChannelModel(np.float32(0.5), 2.0)},
                                   seed=np.int64(3))
        assert scenario.users == ("a", "b")
        spec = SessionSpec("a", "b", make_config())
        assert NetworkScenario(["a", "b"], sessions=[spec]).sessions == (spec,)
        assert type(scenario.seed) is int and scenario.seed == 3
        channel = scenario.channels["a"]
        assert (type(channel.loss_probability), type(channel.latency_ticks)) == (float, int)
        assert scenario == NetworkScenario(("a", "b"), {"a": ChannelModel(0.5, 2)}, seed=3)

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(loss_probability=-0.1)
        with pytest.raises(ValueError):
            ChannelModel(latency_ticks=-1)


def one_session(config, requester="u1", responder="u2", losses=(0.0, 0.0)):
    """Run a two-user scenario, users u1 and u2 with the given channel
    losses, whose one session is requester -> responder."""
    scenario = NetworkScenario(
        users=("u1", "u2"),
        channels={"u1": ChannelModel(losses[0]), "u2": ChannelModel(losses[1])},
        sessions=(SessionSpec(requester, responder, config),),
        seed=4,
    )
    return run_network_scenario(scenario)


class TestOneSession:
    def test_basic_session(self):
        [tr] = one_session(make_config(n=2000)).transcripts
        assert abs(tr.kept_fraction - 0.5) <= 0.04
        assert tr.alice_final_key == tr.bob_final_key

    def test_self_session_rejected(self):
        result = one_session(make_config(), responder="u1")
        assert result.errors == ["a user cannot open a session with itself"]

    def test_unregistered_rejected(self):
        result = one_session(make_config(), responder="ghost")
        assert result.transcripts == [None]
        assert result.errors == ["user id 'ghost' is not registered"]

    def test_per_leg_loss_composition(self):
        # sift 0.5 times (1-0.5)^2 survival = 0.125
        [tr] = one_session(make_config(ProtocolId.BELL4, n=10000), losses=(0.5, 0.5)).transcripts
        assert tr.config.loss_probability == (0.5, 0.5)
        assert abs(tr.kept_fraction - 0.125) <= 0.02

    def test_asymmetric_legs(self):
        [tr] = one_session(make_config(n=10000), losses=(0.3, 0.0)).transcripts
        assert tr.config.loss_probability == (0.3, 0.0)
        assert abs(tr.kept_fraction - 0.5 * 0.7) <= 0.02


def three_user_scenario(protocol=ProtocolId.GHZ3, n=600, seed=5, attack_on=None):
    from tcqkd.adversary import NoAttack

    sessions = []
    pairs = [("a", "b"), ("b", "c"), ("a", "c")]
    for i, (req, res) in enumerate(pairs):
        attacked = attack_on is not None and attack_on[0] == i
        cfg = SessionConfig(
            protocol=protocol, num_states=n,
            qber_abort_threshold=0.05 if attacked else 0.0,
            attack=attack_on[1] if attacked else NoAttack(),
        )
        sessions.append(SessionSpec(req, res, cfg))
    return NetworkScenario(users=("a", "b", "c"), sessions=tuple(sessions), seed=seed)


class TestScenarios:
    def test_three_pairwise_ghz3_sessions(self):
        result = run_network_scenario(three_user_scenario())
        assert all(e is None for e in result.errors)
        for tr in result.transcripts:
            assert tr.kept_count == tr.config.num_states
            assert tr.alice_final_key == tr.bob_final_key
        assert result.report["per_protocol"]["GHZ3"]["sessions"] == 3

    def test_attacked_session_aborts_alone(self):
        scenario = three_user_scenario(
            protocol=ProtocolId.GHZ1, n=1500,
            attack_on=(1, InterceptResend()),
        )
        result = run_network_scenario(scenario)
        aborted = [row["aborted"] for row in result.report["sessions"]]
        assert aborted == [False, True, False]

    def test_empty_session_list(self):
        result = run_network_scenario(NetworkScenario(users=("a", "b"), seed=1))
        assert result.transcripts == []
        assert result.report["sessions"] == []
        assert report_csv(result).strip().count("\n") == 0

    def test_failing_session_recorded_and_continues(self):
        scenario = NetworkScenario(
            users=("a", "b"),
            sessions=(
                SessionSpec("a", "a", make_config(n=300)),  # invalid: self-session
                SessionSpec("a", "b", make_config(n=300)),
            ),
            seed=9,
        )
        result = run_network_scenario(scenario)
        assert result.transcripts[0] is None and result.errors[0]
        assert result.transcripts[1] is not None

    @pytest.mark.parametrize("loss", [0.5, (0.0, 0.2), (0.3, 0.0)])
    def test_config_loss_recorded_as_session_error(self, loss):
        # Loss is set per user under channels, on either leg.
        scenario = NetworkScenario(
            users=("a", "b"),
            sessions=(SessionSpec("a", "b", make_config(n=400, loss_probability=loss)),),
            seed=9,
        )
        result = run_network_scenario(scenario)
        assert result.transcripts == [None]
        assert result.errors == [
            "loss_probability: set per user under channels, not in a session config"]
        assert report_csv(result).strip().count("\n") == 0

    def test_config_seed_recorded_as_session_error(self):
        # The scenario seed sets every session's; a config's own seed
        # would otherwise be replaced without a word.
        scenario = NetworkScenario(
            users=("a", "b"),
            sessions=(SessionSpec("a", "b", make_config(n=400, rng_seed=5)),
                      SessionSpec("a", "b", make_config(n=400))),
            seed=9,
        )
        result = run_network_scenario(scenario)
        assert result.transcripts[0] is None
        assert result.errors == ["rng_seed: set by the scenario seed, not in a session config", None]
        assert result.transcripts[1].config.rng_seed == session_seed(9, 1)
        assert report_csv(result).strip().count("\n") == 1

    def test_channels_leaving_no_unchecked_positions_recorded_as_session_error(self):
        # 0.9 * 10 * 0.5 = 4.5 unchecked positions expected without loss,
        # 4.5 * 0.3 * 0.3 = 0.405 on these channels.
        scenario = NetworkScenario(
            users=("a", "b"),
            channels={"a": ChannelModel(0.7), "b": ChannelModel(0.7)},
            sessions=(SessionSpec("a", "b", make_config(n=10)),),
            seed=9,
        )
        result = run_network_scenario(scenario)
        assert result.transcripts == [None]
        assert result.errors == ["configuration leaves no unchecked positions in expectation"]

    def test_session_seeds_differ_by_index(self):
        assert session_seed(7, 0) != session_seed(7, 1)
        assert session_seed(7, 0) == session_seed(7, 0)

    def test_rows_name_declared_users(self):
        scenario = three_user_scenario(n=500)
        result = run_network_scenario(scenario)
        for row in result.report["sessions"]:
            assert row["requester"] in scenario.users
            assert row["responder"] in scenario.users


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        scenario = NetworkScenario(
            users=("a", "b"),
            channels={"a": ChannelModel(0.2, 3), "b": ChannelModel()},
            sessions=(SessionSpec("a", "b", make_config(ProtocolId.BELL5, 400)),),
            seed=123,
        )
        doc = scenario_to_json_dict(scenario)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        loaded = load_scenario(path)
        assert loaded.users == scenario.users
        assert loaded.seed == 123
        assert loaded.channels["a"].loss_probability == 0.2
        assert loaded.channels["a"].latency_ticks == 3
        assert loaded.sessions[0].config.protocol is ProtocolId.BELL5

    @pytest.mark.parametrize("name", sorted(MALFORMED_SCENARIOS))
    def test_malformed_document_names_the_place(self, name):
        doc, message = MALFORMED_SCENARIOS[name]
        with pytest.raises(ValueError) as exc:
            scenario_from_json_dict(doc)
        assert str(exc.value) == message

    def test_report_csv_rows(self):
        result = run_network_scenario(three_user_scenario(n=400))
        csv = report_csv(result)
        lines = csv.strip().split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("protocol,")

    def test_error_paths_pinned(self):
        # Every per-session error next to sessions that run; the report
        # and CSV bytes are pinned.
        def ghz1(requester, responder, n, **config):
            return {"requester": requester, "responder": responder,
                    "config": {"protocol": "GHZ1", "num_states": n, **config}}

        doc = {
            "seed": 3, "users": ["a", "b", "c"],
            "channels": {"a": {"loss_probability": 0.7, "latency_ticks": 5},
                         "b": {"loss_probability": 0.7, "latency_ticks": 7}},
            "sessions": [
                ghz1("a", "c", 300), ghz1("a", "a", 300), ghz1("a", "zed", 300),
                ghz1("zed", "b", 300), ghz1("c", "b", 300, loss_probability=[0.0, 0.1]),
                ghz1("a", "b", 10),
                {"requester": "b", "responder": "c",
                 "config": {"protocol": "BELL5", "num_states": 400}},
            ],
        }
        result = run_network_scenario(scenario_from_json_dict(doc))
        assert result.errors == [
            None,
            "a user cannot open a session with itself",
            "user id 'zed' is not registered",
            "user id 'zed' is not registered",
            "loss_probability: set per user under channels, not in a session config",
            "configuration leaves no unchecked positions in expectation",
            None,
        ]
        report = hashlib.sha256(json.dumps(result.report).encode()).hexdigest()
        csv = hashlib.sha256(report_csv(result).encode()).hexdigest()
        assert report == "cd4bfe9cbadc126811fabf53a214b98ef3d9d3ac884efc1ac082dc0b0165ba2f"
        assert csv == "b7d6c5d18718addaf672266ade3588fa46e20aeaa49f6ed3f41e9a8dcc3da2f6"

    def test_report_and_csv_read_the_summary(self):
        """Each report row carries its session's summary fields, the CSV
        row reads back to the summary, and the per-protocol totals sum
        the summaries: an attack-free, an aborted, a reconciled and an
        errored session, two of them GHZ3."""
        def session(requester, responder, protocol, **config):
            return {"requester": requester, "responder": responder,
                    "config": {"protocol": protocol, "num_states": 2000, **config}}

        doc = {
            "seed": 11, "users": ["a", "b", "c"],
            "channels": {"a": {"loss_probability": 0.1}, "c": {"loss_probability": 0.2}},
            "sessions": [
                session("a", "b", "GHZ1"),
                session("b", "c", "GHZ2", attack={"kind": "intercept_resend"}),
                session("c", "a", "GHZ3", qber_abort_threshold=0.3,
                        attack={"kind": "ancilla", "coupling": 0.2}),
                session("a", "zed", "BELL5"),
                session("b", "a", "GHZ3"),
            ],
        }
        result = run_network_scenario(scenario_from_json_dict(doc))
        attack_free, aborted, reconciled, errored, _ = result.transcripts
        assert aborted.check_report.aborted and errored is None
        assert reconciled.reconcile_leaked > 0 and reconciled.alice_final_key
        lines = report_csv(result).splitlines()
        assert lines[0].split(",") == list(attack_free.summary)
        done = [t for t in result.transcripts if t is not None]
        assert len(lines) == 1 + len(done)
        for row, transcript in zip(result.report["sessions"], result.transcripts):
            if transcript is None:
                assert row["error"] == "user id 'zed' is not registered"
                assert not set(row) & {"num_states", "qber", "key_bits"}
                continue
            summary = transcript.summary
            shared = {key: row[key] for key in row if key in summary}
            assert list(shared) == ["protocol", "num_states", "kept_fraction", "qber", "aborted",
                                    "key_bits", "efficiency_measured", "efficiency_bound"]
            assert json.dumps(shared) == json.dumps({key: summary[key] for key in shared})
        for line, transcript in zip(lines[1:], done):
            summary = transcript.summary
            cells = line.split(",")
            assert all(cell in ("true", "false") for cell, value in zip(cells, summary.values())
                       if isinstance(value, bool))
            back = {key: cell == "true" if isinstance(value, bool) else type(value)(cell)
                    for (key, value), cell in zip(summary.items(), cells)}
            assert json.dumps(back) == json.dumps(summary)
        for protocol, totals in result.report["per_protocol"].items():
            mine = [t.summary for t in done if t.summary["protocol"] == protocol]
            assert totals == {
                "sessions": len(mine),
                "aborted": sum(s["aborted"] for s in mine),
                "key_bits": sum(s["key_bits"] for s in mine),
                "mean_qber": sum(s["qber"] for s in mine) / len(mine),
                "mean_efficiency": sum(s["efficiency_measured"] for s in mine) / len(mine),
            }
        assert result.report["per_protocol"]["GHZ3"]["sessions"] == 2

    def test_latency_bookkeeping(self):
        scenario = NetworkScenario(
            users=("a", "b"),
            channels={"a": ChannelModel(0.0, 5), "b": ChannelModel(0.0, 7)},
            sessions=(SessionSpec("a", "b", make_config(n=300)),),
            seed=2,
        )
        result = run_network_scenario(scenario)
        assert result.report["sessions"][0]["channel_latency_ticks"] == 12
