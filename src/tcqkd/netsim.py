"""One trusted center, N registered users, lossy quantum channels.

Users register once; any registered pair can request a key session.
The center runs the configured protocol between the two users, with
each user's channel applying independent per-particle erasure on its
quantum leg (the center's own particle never travels).

Scenario seeds split into per-session seeds via
SeedSequence(scenario_seed, spawn_key=(session_index,)), so a scenario
is reproducible as a whole while its sessions stay statistically
independent.  Sessions run one after another in declared order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .protocols import (
    SessionConfig,
    SessionTranscript,
    _config_at,
    _integer,
    _member,
    _of_type,
    config_to_json_dict,
    run_session,
    summary_csv_row,
    SUMMARY_CSV_HEADER,
)


@dataclass(frozen=True)
class ChannelModel:
    loss_probability: float = 0.0
    latency_ticks: int = 0

    def __post_init__(self):
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        if self.latency_ticks < 0:
            raise ValueError("latency_ticks must be non-negative")


class Registry:
    """User registry plus each user's quantum channel to the center."""

    def __init__(self):
        self._channels: dict[str, ChannelModel] = {}

    def __len__(self):
        return len(self._channels)

    def __contains__(self, user_id: str):
        return user_id in self._channels

    def channel(self, user_id: str) -> ChannelModel:
        return self._channels[user_id]


def register_user(registry: Registry, user_id: str,
                  channel: ChannelModel | None = None) -> None:
    if user_id in registry:
        raise ValueError(f"user id {user_id!r} already registered")
    registry._channels[user_id] = channel or ChannelModel()


def request_session(registry: Registry, requester: str, responder: str,
                    config: SessionConfig) -> SessionTranscript:
    """Run one protocol session between two registered users.

    The requester plays Alice and the responder Bob; each leg applies
    that user's channel loss independently per particle.
    """
    if requester == responder:
        raise ValueError("a user cannot open a session with itself")
    for uid in (requester, responder):
        if uid not in registry:
            raise ValueError(f"user id {uid!r} is not registered")
    leg_loss = (
        registry.channel(requester).loss_probability,
        registry.channel(responder).loss_probability,
    )
    return run_session(config, leg_loss=leg_loss)


@dataclass(frozen=True)
class SessionSpec:
    requester: str
    responder: str
    config: SessionConfig


@dataclass(frozen=True)
class NetworkScenario:
    users: tuple[str, ...]
    channels: dict = field(default_factory=dict)  # user id -> ChannelModel
    sessions: tuple[SessionSpec, ...] = ()
    seed: int = 0


def session_seed(scenario_seed: int, session_index: int) -> int:
    """Documented splitting rule for per-session seeds."""
    ss = np.random.SeedSequence(scenario_seed, spawn_key=(session_index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def build_registry(scenario: NetworkScenario) -> Registry:
    registry = Registry()
    for uid in scenario.users:
        register_user(registry, uid, scenario.channels.get(uid))
    return registry


@dataclass
class ScenarioResult:
    transcripts: list  # SessionTranscript | None per session
    errors: list  # str | None per session
    report: dict


def run_network_scenario(scenario: NetworkScenario) -> ScenarioResult:
    """Execute all sessions in declared order.

    Session i runs its declared config with the seed
    session_seed(scenario.seed, i).  A failing session is recorded and
    the scenario continues.
    """
    registry = build_registry(scenario)
    transcripts, errors = [], []
    for i, spec in enumerate(scenario.sessions):
        cfg = replace(spec.config, rng_seed=session_seed(scenario.seed, i))
        try:
            transcripts.append(request_session(registry, spec.requester, spec.responder, cfg))
            errors.append(None)
        except ValueError as exc:
            transcripts.append(None)
            errors.append(str(exc))
    report = _aggregate_report(scenario, registry, transcripts, errors)
    return ScenarioResult(transcripts, errors, report)


def _aggregate_report(scenario, registry, transcripts, errors) -> dict:
    rows = []
    per_protocol: dict[str, dict] = {}
    for i, (spec, transcript, error) in enumerate(zip(scenario.sessions, transcripts, errors)):
        lat = 0
        if spec.requester in registry and spec.responder in registry:
            lat = (registry.channel(spec.requester).latency_ticks
                   + registry.channel(spec.responder).latency_ticks)
        row = {
            "session_index": i,
            "requester": spec.requester,
            "responder": spec.responder,
            "protocol": spec.config.protocol.value,
            "channel_latency_ticks": lat,
            "error": error,
        }
        if transcript is not None:
            row.update(
                {
                    "num_states": transcript.config.num_states,
                    "kept_fraction": transcript.kept_fraction,
                    "qber": transcript.check_report.qber,
                    "aborted": transcript.check_report.aborted,
                    "key_bits": len(transcript.alice_final_key),
                    "efficiency_measured": transcript.efficiency_measured,
                    "efficiency_bound": transcript.efficiency_bound,
                }
            )
            agg = per_protocol.setdefault(
                transcript.config.protocol.value,
                {"sessions": 0, "aborted": 0, "key_bits": 0, "qber_sum": 0.0,
                 "efficiency_sum": 0.0},
            )
            agg["sessions"] += 1
            agg["aborted"] += int(transcript.check_report.aborted)
            agg["key_bits"] += len(transcript.alice_final_key)
            agg["qber_sum"] += transcript.check_report.qber
            agg["efficiency_sum"] += transcript.efficiency_measured
        rows.append(row)
    for agg in per_protocol.values():
        n = agg["sessions"]
        agg["mean_qber"] = agg.pop("qber_sum") / n
        agg["mean_efficiency"] = agg.pop("efficiency_sum") / n
    return {
        "schema_version": 1,
        "seed": scenario.seed,
        "users": list(scenario.users),
        "sessions": rows,
        "per_protocol": per_protocol,
    }


def report_csv(result: ScenarioResult) -> str:
    """One summary row per completed session."""
    lines = [SUMMARY_CSV_HEADER]
    for t in result.transcripts:
        if t is not None:
            lines.append(summary_csv_row(t))
    return "\n".join(lines) + "\n"


# --- scenario files ------------------------------------------------------


def scenario_to_json_dict(scenario: NetworkScenario) -> dict:
    return {
        "schema_version": 1,
        "seed": scenario.seed,
        "users": list(scenario.users),
        "channels": {
            uid: {"loss_probability": ch.loss_probability, "latency_ticks": ch.latency_ticks}
            for uid, ch in sorted(scenario.channels.items())
        },
        "sessions": [
            {
                "requester": s.requester,
                "responder": s.responder,
                "config": config_to_json_dict(s.config),
            }
            for s in scenario.sessions
        ],
    }


def _number(value, path: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{path}: expected a number, got {value!r}") from None


def scenario_from_json_dict(doc: dict) -> NetworkScenario:
    """Parse a scenario document.  A malformed document raises a
    ValueError naming where it is malformed, e.g.
    ``sessions[0]: missing 'responder'``."""
    doc = _of_type(doc, dict, "scenario")
    channels = {}
    for uid, ch in _of_type(doc.get("channels", {}), dict, "channels").items():
        path = f"channels.{uid}"
        ch = _of_type(ch, dict, path)
        loss = _number(ch.get("loss_probability", 0.0), f"{path}.loss_probability")
        latency = _integer(ch.get("latency_ticks", 0), f"{path}.latency_ticks")
        try:
            channels[uid] = ChannelModel(loss_probability=loss, latency_ticks=latency)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    sessions = []
    for i, s in enumerate(_of_type(doc.get("sessions", []), list, "sessions")):
        path = f"sessions[{i}]"
        s = _of_type(s, dict, path)
        sessions.append(SessionSpec(
            requester=_of_type(_member(s, "requester", path), str, f"{path}.requester"),
            responder=_of_type(_member(s, "responder", path), str, f"{path}.responder"),
            config=_config_at(_member(s, "config", path), f"{path}.config"),
        ))
    return NetworkScenario(
        users=tuple(_of_type(uid, str, f"users[{i}]") for i, uid
                    in enumerate(_of_type(_member(doc, "users", "scenario"), list, "users"))),
        channels=channels,
        sessions=tuple(sessions),
        seed=_integer(doc.get("seed", 0), "seed"),
    )


def load_scenario(path) -> NetworkScenario:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: {exc}") from None
    return scenario_from_json_dict(doc)
