"""Workload inputs, made from the workload seed, and one pass over them.

A pass is the unit the benchmark times: every session of the workload,
run back to back by one caller (a closed loop).  The same inputs are
run pass after pass, so every pass of one run must serialize to the
same bytes.

* ``core_sweep`` -- attack-free sessions of all five protocols at
  n = 2000 and loss 0.05: the per-position session core (``protocols``
  and ``qstate``) with little post-processing.
* ``distill_long`` -- one GHZ3 session of n = 45000 under a weak
  ancilla probe (coupling 0.05, abort threshold 0.5).  QBER is about
  1.25 %, so reconciliation runs and 40500 sifted bits reach the
  quadratic Toeplitz hash: ``postproc`` is the largest layer.
* ``network_attacks`` -- a ``netsim`` scenario document: 8 users, 12
  sessions of 5000 states mixing intercept-resend on either party, a
  cheating center, a full-coupling probe and weak probes under a 0.3
  threshold.  Most sessions abort; each transcript is serialized and
  the CSV report is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tcqkd import (
    AncillaEntangle,
    Basis,
    CheatingCenterMeasureAll,
    InterceptResend,
    Party,
    ProtocolId,
    SessionConfig,
    netsim,
    protocols,
)

CORE_NUM_STATES = 2000
CORE_SESSIONS_PER_PROTOCOL = 10
CORE_LOSS = 0.05

DISTILL_NUM_STATES = 45000
DISTILL_COUPLING = 0.05
DISTILL_THRESHOLD = 0.5

NETWORK_USERS = 8
NETWORK_NUM_STATES = 5000
NETWORK_MAX_LOSS = 0.15
NETWORK_WEAK_THRESHOLD = 0.3


@dataclass
class PassResult:
    """What one pass produced, in session order."""

    transcripts: list  # SessionTranscript | None per session
    errors: list  # str | None per session
    states: int  # prepared states over all sessions
    serialized: list | None = None  # transcript JSON per session, when the pass serializes
    report_csv: str | None = None


def _seed_stream(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def _session_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**63))


def core_sweep_inputs(seed: int) -> list:
    rng = _seed_stream(seed)
    return [
        SessionConfig(protocol, CORE_NUM_STATES, loss_probability=CORE_LOSS,
                      rng_seed=_session_seed(rng))
        for _ in range(CORE_SESSIONS_PER_PROTOCOL)
        for protocol in ProtocolId
    ]


def distill_long_inputs(seed: int) -> list:
    rng = _seed_stream(seed)
    return [SessionConfig(ProtocolId.GHZ3, DISTILL_NUM_STATES,
                          qber_abort_threshold=DISTILL_THRESHOLD,
                          rng_seed=_session_seed(rng),
                          attack=AncillaEntangle(coupling=DISTILL_COUPLING))]


def network_attacks_inputs(seed: int) -> dict:
    """A scenario document; the seed picks user losses, pairs, weak
    couplings and session order.  The attack mix itself is fixed."""
    rng = _seed_stream(seed)
    users = [f"u{i}" for i in range(NETWORK_USERS)]
    losses = rng.permutation(np.linspace(0.0, NETWORK_MAX_LOSS, NETWORK_USERS))
    strong = [  # detected at the default zero threshold
        (ProtocolId.GHZ1, InterceptResend(Party.ALICE)),
        (ProtocolId.GHZ3, InterceptResend(Party.ALICE)),
        (ProtocolId.BELL5, InterceptResend(Party.ALICE)),
        (ProtocolId.GHZ2, InterceptResend(Party.BOB)),
        (ProtocolId.BELL4, InterceptResend(Party.BOB)),
        (ProtocolId.GHZ1, CheatingCenterMeasureAll(Basis.X)),
        (ProtocolId.GHZ2, CheatingCenterMeasureAll(Basis.Y)),
        (ProtocolId.GHZ3, AncillaEntangle(coupling=1.0)),
    ]
    specs = [(protocol, attack, 0.0) for protocol, attack in strong]
    for protocol in (ProtocolId.GHZ1, ProtocolId.GHZ2, ProtocolId.GHZ3):
        coupling = round(float(rng.uniform(0.2, 0.3)), 4)
        specs.append((protocol, AncillaEntangle(coupling=coupling), NETWORK_WEAK_THRESHOLD))
    specs.append((ProtocolId.BELL5, None, 0.0))
    sessions = []
    for k in rng.permutation(len(specs)):
        protocol, attack, threshold = specs[k]
        requester, responder = (users[int(i)] for i in rng.choice(NETWORK_USERS, 2, replace=False))
        config = SessionConfig(protocol, NETWORK_NUM_STATES, qber_abort_threshold=threshold,
                               **({} if attack is None else {"attack": attack}))
        sessions.append({"requester": requester, "responder": responder,
                         "config": protocols.config_to_json_dict(config)})
    return {
        "seed": _session_seed(rng),
        "users": users,
        "channels": {u: {"loss_probability": float(loss), "latency_ticks": i}
                     for i, (u, loss) in enumerate(zip(users, losses))},
        "sessions": sessions,
    }


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_sessions(configs: list) -> PassResult:
    """Run each config through ``protocols.run_session``, in order."""
    transcripts, errors = [], []
    for config in configs:
        try:
            transcripts.append(protocols.run_session(config))
            errors.append(None)
        except Exception as exc:  # a raising session is a counted failure
            transcripts.append(None)
            errors.append(_error_text(exc))
    return PassResult(transcripts, errors, sum(c.num_states for c in configs))


def run_scenario(doc: dict) -> PassResult:
    """Parse and run the scenario on the sequential path, serialize
    every transcript and build the CSV report."""
    states = sum(int(s["config"]["num_states"]) for s in doc["sessions"])
    try:
        result = netsim.run_network_scenario(netsim.scenario_from_json_dict(doc))
        serialized = [None if t is None else protocols.transcript_to_json(t)
                      for t in result.transcripts]
        csv = netsim.report_csv(result)
    except Exception as exc:  # the whole scenario failed: every session counts
        n = len(doc["sessions"])
        return PassResult([None] * n, [_error_text(exc)] * n, states)
    return PassResult(result.transcripts, result.errors, states, serialized, csv)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object  # seed -> inputs
    run_pass: object  # inputs -> PassResult
    # Share of a pass spent in numpy kernels rather than the interpreter,
    # from the traced profile: privacy amplification's convolution is
    # about half of distill_long and under 5 % of the others.
    numpy_share: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("core_sweep", core_sweep_inputs, run_sessions, 0.0),
        Workload("distill_long", distill_long_inputs, run_sessions, 0.5),
        Workload("network_attacks", network_attacks_inputs, run_scenario, 0.0),
    )
}
