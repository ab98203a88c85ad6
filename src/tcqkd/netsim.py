"""One trusted center, N users, lossy quantum channels.

A scenario names its users, each user's quantum channel to the center,
and the sessions between pairs of users.  The center runs the
configured protocol between the two users, with each user's channel
applying independent per-particle erasure on its quantum leg (the
center's own particle never travels); the session's config states both
legs' losses, so its transcript re-runs to the same bytes.

Scenario seeds split into per-session seeds via
SeedSequence(scenario_seed, spawn_key=(session_index,)), so a scenario
is reproducible as a whole while its sessions stay statistically
independent.  Sessions run one after another in declared order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .jsonfields import _integer, _known_keys, _number, _of_type
from .protocols import (
    SessionConfig,
    _config_at,
    _member,
    run_session,
    summary_csv_row,
    SUMMARY_CSV_HEADER,
)


@dataclass(frozen=True)
class ChannelModel:
    loss_probability: float = 0.0
    latency_ticks: int = 0

    def __post_init__(self):
        for name, read in (("loss_probability", _number), ("latency_ticks", _integer)):
            object.__setattr__(self, name, read(getattr(self, name), name))
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        if self.latency_ticks < 0:
            raise ValueError("latency_ticks must be non-negative")


@dataclass(frozen=True)
class SessionSpec:
    requester: str
    responder: str
    config: SessionConfig

    def __post_init__(self):
        for name in ("requester", "responder"):
            _of_type(getattr(self, name), str, name)
        if not isinstance(self.config, SessionConfig):
            raise ValueError(f"config: expected a SessionConfig, got {type(self.config).__name__}")


@dataclass(frozen=True)
class NetworkScenario:
    users: tuple[str, ...]
    channels: dict = field(default_factory=dict)  # user id -> ChannelModel
    sessions: tuple[SessionSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        for name in ("users", "sessions"):
            object.__setattr__(self, name, tuple(_of_type(getattr(self, name), (list, tuple), name)))
        _of_type(self.channels, dict, "channels")
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if self.seed < 0:
            raise ValueError(f"seed: expected an integer >= 0, got {self.seed}")
        first = {}
        for i, uid in enumerate(self.users):
            if first.setdefault(_of_type(uid, str, f"users[{i}]"), i) != i:
                raise ValueError(f"users[{i}]: {uid!r} repeats users[{first[uid]}]")
        for uid, c in self.channels.items():
            if uid not in first:
                raise ValueError(f"channels.{uid}: not one of users")
            if not isinstance(c, ChannelModel):
                raise ValueError(f"channels.{uid}: expected a ChannelModel, got {type(c).__name__}")
        for i, s in enumerate(self.sessions):
            if not isinstance(s, SessionSpec):
                raise ValueError(f"sessions[{i}]: expected a SessionSpec, got {type(s).__name__}")


def session_seed(scenario_seed: int, session_index: int) -> int:
    """Documented splitting rule for per-session seeds."""
    ss = np.random.SeedSequence(scenario_seed, spawn_key=(session_index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class ScenarioResult:
    transcripts: list  # SessionTranscript | None per session
    errors: list  # str | None per session
    report: dict


def _session_config(scenario: NetworkScenario, index: int) -> SessionConfig:
    """The config session index runs with.  The requester plays Alice
    and the responder Bob, and loss_probability is (requester's channel
    loss, responder's); a user without a channel has a lossless one.
    Loss is set per user and the seed by the scenario, so a config with
    its own loss or seed is refused.
    """
    spec = scenario.sessions[index]
    if spec.config.legs != (0.0, 0.0):
        raise ValueError("loss_probability: set per user under channels, not in a session config")
    if spec.config.rng_seed:
        raise ValueError("rng_seed: set by the scenario seed, not in a session config")
    if spec.requester == spec.responder:
        raise ValueError("a user cannot open a session with itself")
    for uid in (spec.requester, spec.responder):
        if uid not in scenario.users:
            raise ValueError(f"user id {uid!r} is not registered")
    legs = tuple(scenario.channels.get(uid, ChannelModel()).loss_probability
                 for uid in (spec.requester, spec.responder))
    return replace(spec.config, rng_seed=session_seed(scenario.seed, index), loss_probability=legs)


def run_network_scenario(scenario: NetworkScenario) -> ScenarioResult:
    """Execute all sessions in declared order.

    Session i runs its declared config with the seed
    session_seed(scenario.seed, i) and its two users' channel losses as
    its legs.  A failing session is recorded and the scenario continues.
    """
    transcripts, errors = [], []
    for i in range(len(scenario.sessions)):
        try:
            transcripts.append(run_session(_session_config(scenario, i)))
            errors.append(None)
        except ValueError as exc:
            transcripts.append(None)
            errors.append(str(exc))
    report = _aggregate_report(scenario, transcripts, errors)
    return ScenarioResult(transcripts, errors, report)


# The summary fields a report row copies; it states the protocol itself,
# and a session's losses are its users' channels.
_REPORT_FIELDS = ("num_states", "kept_fraction", "qber", "aborted", "key_bits",
                  "efficiency_measured", "efficiency_bound")


def _aggregate_report(scenario, transcripts, errors) -> dict:
    rows = []
    per_protocol: dict[str, dict] = {}
    for i, (spec, transcript, error) in enumerate(zip(scenario.sessions, transcripts, errors)):
        pair = (spec.requester, spec.responder)
        lat = 0
        if all(uid in scenario.users for uid in pair):
            lat = sum(scenario.channels.get(uid, ChannelModel()).latency_ticks for uid in pair)
        row = {
            "session_index": i,
            "requester": spec.requester,
            "responder": spec.responder,
            "protocol": spec.config.protocol.value,
            "channel_latency_ticks": lat,
            "error": error,
        }
        if transcript is not None:
            summary = transcript.summary
            row.update((key, summary[key]) for key in _REPORT_FIELDS)
            totals = {"sessions": 1, "aborted": summary["aborted"], "key_bits": summary["key_bits"],
                      "qber_sum": summary["qber"], "efficiency_sum": summary["efficiency_measured"]}
            agg = per_protocol.setdefault(summary["protocol"], dict.fromkeys(totals, 0))
            for key, value in totals.items():
                agg[key] += value
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
    rows = [summary_csv_row(t) for t in result.transcripts if t is not None]
    return "\n".join([SUMMARY_CSV_HEADER, *rows]) + "\n"


# --- scenario files ------------------------------------------------------


def scenario_from_json_dict(doc: dict) -> NetworkScenario:
    """Parse a scenario document; each object reads its own fields.  A
    malformed document raises a ValueError naming where it is malformed, e.g.
    ``sessions[0]: missing 'responder'``."""
    doc = _of_type(doc, dict, "scenario")
    _known_keys(doc, ("schema_version", "seed", "users", "channels", "sessions"), "scenario: ")
    version = _integer(doc.get("schema_version", 1), "schema_version")
    if version != 1:
        raise ValueError(f"schema_version: expected 1, got {version}")
    users = _member(doc, "users", "scenario")
    channels = {}
    for uid, ch in _of_type(doc.get("channels", {}), dict, "channels").items():
        path = f"channels.{uid}"
        _known_keys(_of_type(ch, dict, path), ("loss_probability", "latency_ticks"), f"{path}: ")
        try:
            channels[uid] = ChannelModel(**ch)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    sessions = []
    for i, s in enumerate(_of_type(doc.get("sessions", []), list, "sessions")):
        path = f"sessions[{i}]"
        _known_keys(_of_type(s, dict, path), ("requester", "responder", "config"), f"{path}: ")
        ids = [_member(s, key, path) for key in ("requester", "responder")]
        config = _config_at(_member(s, "config", path), f"{path}.config")
        try:
            sessions.append(SessionSpec(*ids, config))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return NetworkScenario(users, channels, sessions, doc.get("seed", 0))


def load_scenario(path) -> NetworkScenario:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: {exc}") from None
    return scenario_from_json_dict(doc)
