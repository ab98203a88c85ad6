"""Spans recorded from outside the package, by patching public calls.

Each patched call records one span: name, start, end, parent span and
session id.  Spans stay in memory until the run ends.  A name is
patched where callers look it up: the names ``protocols`` and
``netsim`` import from other modules are patched in the importing
module, ``Register.measure`` on the class, and the ``postproc``
functions on their own module, which ``protocols`` calls through.

The layer of a span is the part of its name before the first dot; a
layer's self time is the time its spans cover minus the time their
child spans cover, so the self times of all layers, the benchmark's
own ``bench`` layer included, add up to the traced wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from tcqkd import netsim, postproc, protocols, qstate

ROOT_SPAN = "bench.pass"
SESSION_SPAN = "protocols.run_session"
SERIALIZE_SPAN = "protocols.transcript_to_json"

# (owner, attribute, span name).  run_session and transcript_to_json get
# wrappers that also track the session id.
PATCH_SITES = (
    (protocols, "run_session", SESSION_SPAN),
    (netsim, "run_session", SESSION_SPAN),
    (protocols, "transcript_to_json", SERIALIZE_SPAN),
    (protocols, "eavesdrop_check", "protocols.eavesdrop_check"),
    (qstate.Register, "measure", "qstate.Register.measure"),
    (protocols, "predict_detection_rate", "adversary.predict_detection_rate"),
    (protocols, "predict_adversary_accuracy", "adversary.predict_adversary_accuracy"),
    (protocols, "infer_bob_outcome", "adversary.infer_bob_outcome"),
    (postproc, "reconcile", "postproc.reconcile"),
    (postproc, "privacy_amplify", "postproc.privacy_amplify"),
    (netsim, "scenario_from_json_dict", "netsim.scenario_from_json_dict"),
    (netsim, "run_network_scenario", "netsim.run_network_scenario"),
    (netsim, "report_csv", "netsim.report_csv"),
)


class Tracer:
    """Records spans of one pass at a time; ``spans()`` returns the last."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._records: list[tuple] = []
        self._stack: list[int] = [-1]
        self._count = 0
        self._session = -1
        self._session_of: dict[int, int] = {}
        self._sessions = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        perf = time.perf_counter
        stack = self._stack
        records = self._records

        def traced(*args, **kwargs):
            idx = self._count
            self._count = idx + 1
            parent = stack[-1]
            stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                records.append((idx, nid, t0, t1, parent, self._session))

        return traced

    def _wrap_session(self, fn):
        inner = self._wrap(SESSION_SPAN, fn)

        def traced(*args, **kwargs):
            self._session = self._sessions
            self._sessions += 1
            try:
                transcript = inner(*args, **kwargs)
                self._session_of[id(transcript)] = self._session
                return transcript
            finally:
                self._session = -1

        return traced

    def _wrap_serialize(self, fn):
        inner = self._wrap(SERIALIZE_SPAN, fn)

        def traced(transcript):
            self._session = self._session_of.get(id(transcript), -1)
            try:
                return inner(transcript)
            finally:
                self._session = -1

        return traced

    @contextmanager
    def traced_pass(self):
        """Patch every site, record one root span around the body, and
        restore the originals on exit."""
        self._records.clear()
        self._session_of.clear()
        self._sessions = 0
        session_wrapper = None
        originals = []
        for owner, attr, name in PATCH_SITES:
            fn = owner.__dict__[attr]
            originals.append((owner, attr, fn))
            if name == SESSION_SPAN:
                session_wrapper = session_wrapper or self._wrap_session(fn)
                wrapper = session_wrapper
            elif name == SERIALIZE_SPAN:
                wrapper = self._wrap_serialize(fn)
            else:
                wrapper = self._wrap(name, fn)
            setattr(owner, attr, wrapper)
        root_nid = self._name_id(ROOT_SPAN)
        self._stack[:] = [-1, 0]  # span 0 is the root
        self._count = 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._records.append((0, root_nid, t0, t1, -1, -1))
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def spans(self) -> dict:
        """The last pass's spans as columns, ordered by span id."""
        cols = list(zip(*sorted(self._records)))
        return {
            "id": np.asarray(cols[0], dtype=np.int64),
            "name": np.asarray(cols[1], dtype=np.int64),
            "start": np.asarray(cols[2], dtype=np.float64),
            "end": np.asarray(cols[3], dtype=np.float64),
            "parent": np.asarray(cols[4], dtype=np.int64),
            "session": np.asarray(cols[5], dtype=np.int64),
        }


def layer_metrics(spans: dict, names: list, result) -> dict:
    """Per-layer metrics of one traced pass, from its spans and outputs."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=len(dur))
    span_name = np.asarray(names)[spans["name"]]
    span_layer = np.asarray([n.split(".")[0] for n in names])[spans["name"]]

    def calls(name):
        return int(np.count_nonzero(span_name == name))

    def busy(name):
        return float(dur[span_name == name].sum())

    def own(name):
        return float(self_time[span_name == name].sum())

    def layer_self(layer):
        return float(self_time[span_layer == layer].sum())

    done = [t for t in result.transcripts if t is not None]
    sifted = sum(len(t.alice_raw_key) for t in done)
    final = sum(len(t.alice_final_key) for t in done)
    wall = float(dur[0])
    return {
        "qstate.measure_calls": calls("qstate.Register.measure"),
        "qstate.measure_s": busy("qstate.Register.measure"),
        "protocols.session_s": busy(SESSION_SPAN),
        "protocols.core_self_s": own(SESSION_SPAN),
        "protocols.check_s": busy("protocols.eavesdrop_check"),
        "protocols.serialize_s": busy(SERIALIZE_SPAN),
        "protocols.serialize_bytes_per_state":
            sum(len(s) for s in result.serialized if s) / result.states if result.serialized else 0.0,
        "protocols.kept_ratio": sum(t.kept_count for t in done) / result.states,
        "protocols.aborted_sessions": sum(t.check_report.aborted for t in done),
        "protocols.self_s": layer_self("protocols"),
        "adversary.oracle_calls": (calls("adversary.predict_detection_rate")
                                   + calls("adversary.predict_adversary_accuracy")),
        "adversary.oracle_s": (busy("adversary.predict_detection_rate")
                               + busy("adversary.predict_adversary_accuracy")),
        "adversary.infer_calls": calls("adversary.infer_bob_outcome"),
        "adversary.infer_s": busy("adversary.infer_bob_outcome"),
        "adversary.self_s": layer_self("adversary"),
        "postproc.reconcile_s": busy("postproc.reconcile"),
        "postproc.reconcile_bits_in": sum(len(t.alice_raw_key) for t in done
                                          if t.postproc_summary.qber_used > 0),
        "postproc.reconcile_leaked_bits": sum(t.postproc_summary.reconcile_leaked for t in done),
        "postproc.pa_s": busy("postproc.privacy_amplify"),
        "postproc.pa_bits_in": sifted,
        "postproc.pa_bits_out": final,
        "postproc.distill_ratio": final / sifted if sifted else 0.0,
        "postproc.residual_mismatch_sessions": sum(
            not t.check_report.aborted and t.alice_final_key != t.bob_final_key for t in done),
        "postproc.self_s": layer_self("postproc"),
        "netsim.scenario_s": busy("netsim.run_network_scenario"),
        "netsim.self_s": layer_self("netsim"),
        "netsim.session_errors": (sum(e is not None for e in result.errors)
                                  if result.report_csv is not None else 0),
        "trace.wall_s": wall,
        "trace.unattributed_frac": layer_self("bench") / wall,
    }
