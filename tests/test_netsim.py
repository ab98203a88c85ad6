import json

import pytest

from tcqkd.adversary import InterceptResend
from tcqkd.netsim import (
    ChannelModel,
    NetworkScenario,
    Registry,
    SessionSpec,
    build_registry,
    load_scenario,
    register_user,
    report_csv,
    request_session,
    run_network_scenario,
    scenario_from_json_dict,
    scenario_to_json_dict,
    session_seed,
)
from tcqkd.protocols import ProtocolId, SessionConfig


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
                  "channels.a.loss_probability: expected a number, got None"),
    "loss_range": ({"users": ["a"], "channels": {"a": {"loss_probability": 2}}},
                   "channels.a: loss_probability must be in [0, 1]"),
    "user_list": ({"users": [["a"], "b"]}, "users[0]: expected a string, got list"),
    "requester_list": (
        {"users": ["a", "b"],
         "sessions": [{"requester": ["a"], "responder": "b",
                       "config": {"protocol": "GHZ1", "num_states": 100}}]},
        "sessions[0].requester: expected a string, got list"),
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
        "sessions[0].config: basis_pool: expected a list, got str"),
    "attack_text": (
        {"users": ["a", "b"],
         "sessions": [{"requester": "a", "responder": "b",
                       "config": {"protocol": "GHZ1", "num_states": 2000, "attack": "none"}}]},
        "sessions[0].config: attack: expected an object, got str"),
    "seed_fraction": ({"users": ["a"], "seed": 7.8}, "seed: expected an integer, got 7.8"),
    "seed_infinite": ({"users": ["a"], "seed": float("inf")}, "seed: expected an integer, got inf"),
}


def make_config(protocol=ProtocolId.GHZ1, n=1000, **kw):
    return SessionConfig(protocol=protocol, num_states=n, **kw)


class TestRegistry:
    def test_register(self):
        reg = Registry()
        register_user(reg, "alice")
        assert "alice" in reg and len(reg) == 1

    def test_duplicate_rejected(self):
        reg = Registry()
        register_user(reg, "alice")
        with pytest.raises(ValueError):
            register_user(reg, "alice")

    def test_many_users(self):
        reg = Registry()
        for i in range(10):
            register_user(reg, f"u{i}")
        assert len(reg) == 10

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(loss_probability=-0.1)
        with pytest.raises(ValueError):
            ChannelModel(latency_ticks=-1)


class TestRequestSession:
    def _registry(self, loss=0.0):
        reg = Registry()
        register_user(reg, "u1", ChannelModel(loss_probability=loss))
        register_user(reg, "u2", ChannelModel(loss_probability=loss))
        return reg

    def test_basic_session(self):
        tr = request_session(self._registry(), "u1", "u2", make_config(n=2000, rng_seed=4))
        assert abs(tr.kept_fraction - 0.5) <= 0.04
        assert tr.alice_final_key == tr.bob_final_key

    def test_self_session_rejected(self):
        with pytest.raises(ValueError):
            request_session(self._registry(), "u1", "u1", make_config())

    def test_unregistered_rejected(self):
        with pytest.raises(ValueError):
            request_session(self._registry(), "u1", "ghost", make_config())

    def test_per_leg_loss_composition(self):
        # sift 0.5 times (1-0.5)^2 survival = 0.125
        reg = self._registry(loss=0.5)
        tr = request_session(reg, "u1", "u2",
                             make_config(ProtocolId.BELL4, n=10000, rng_seed=10))
        assert abs(tr.kept_fraction - 0.125) <= 0.02

    def test_asymmetric_legs(self):
        reg = Registry()
        register_user(reg, "u1", ChannelModel(loss_probability=0.3))
        register_user(reg, "u2", ChannelModel(loss_probability=0.0))
        tr = request_session(reg, "u1", "u2", make_config(n=10000, rng_seed=10))
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

    def test_session_seeds_differ_by_index(self):
        assert session_seed(7, 0) != session_seed(7, 1)
        assert session_seed(7, 0) == session_seed(7, 0)

    def test_registry_integrity(self):
        scenario = three_user_scenario(n=500)
        registry = build_registry(scenario)
        result = run_network_scenario(scenario)
        for row in result.report["sessions"]:
            assert row["requester"] in registry
            assert row["responder"] in registry


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

    def test_latency_bookkeeping(self):
        scenario = NetworkScenario(
            users=("a", "b"),
            channels={"a": ChannelModel(0.0, 5), "b": ChannelModel(0.0, 7)},
            sessions=(SessionSpec("a", "b", make_config(n=300)),),
            seed=2,
        )
        result = run_network_scenario(scenario)
        assert result.report["sessions"][0]["channel_latency_ticks"] == 12
