"""Tests of the benchmark's own checks and tracing.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from tcqkd import InterceptResend, ProtocolId, SessionConfig, run_session  # noqa: E402


@pytest.fixture(scope="module")
def clean():
    return run_session(SessionConfig(ProtocolId.GHZ3, 400, rng_seed=5))


def _flip_first(bits: str) -> str:
    return "10"[int(bits[0])] + bits[1:]


def test_clean_session_passes(clean):
    assert Checker().failures([clean], [None]) == [None]


def test_forged_transcript_with_differing_final_keys_fails(clean):
    forged = dataclasses.replace(clean, bob_final_key=_flip_first(clean.bob_final_key))
    [reason] = Checker().failures([forged], [None])
    assert reason == "success reported with differing final keys"


def test_a_failing_session_counts_once_whatever_the_number_of_passes(monkeypatch, clean):
    forged = dataclasses.replace(clean, bob_final_key=_flip_first(clean.bob_final_key))
    passes = []

    def run_pass(_inputs):
        passes.append(None)
        return workloads.PassResult([clean, forged, clean], [None] * 3, 3 * clean.config.num_states)

    monkeypatch.setitem(workloads.WORKLOADS, "core_sweep",
                        workloads.Workload("core_sweep", lambda seed: None, run_pass, 0.0))
    monkeypatch.setattr(run, "measure_setup", lambda workload, seed: 0.1)
    line, record = run.run(run.parse_args(
        ["--workload", "core_sweep", "--seed", "0", "--seconds", "0.5", "--trace", "0"]))
    assert len(passes) > 1
    assert (line["attempted"], line["failed"]) == (3, 1)
    assert record["failures"] == [
        {"pass": 0, "session": 1, "reason": "success reported with differing final keys"}]

def test_raised_session_fails():
    assert Checker().failures([None], ["ValueError: boom"]) == ["ValueError: boom"]


def test_wrong_final_length_fails(clean):
    forged = dataclasses.replace(clean, alice_final_key=clean.alice_final_key[1:],
                                 bob_final_key=clean.bob_final_key[1:])
    [reason] = Checker().failures([forged], [None])
    assert reason.startswith("final key length")


def test_check_errors_far_from_the_oracle_fail():
    attacked = run_session(SessionConfig(ProtocolId.GHZ1, 2000, rng_seed=3,
                                         attack=InterceptResend()))
    assert Checker().failures([attacked], [None]) == [None]
    report = dataclasses.replace(attacked.check_report, error_count=0)
    [reason] = Checker().failures([dataclasses.replace(attacked, check_report=report)], [None])
    assert "outside" in reason


def test_layer_self_times_add_up_to_the_traced_wall():
    configs = workloads.core_sweep_inputs(0)[:5]
    tracer = tracing.Tracer()
    with tracer.traced_pass():
        result = workloads.run_sessions(configs)
    m = tracing.layer_metrics(tracer.spans(), tracer.names, result)
    layers = sum(m[f"{layer}.self_s"] for layer in ("protocols", "postproc", "adversary", "netsim"))
    total = layers + m["qstate.measure_s"] + m["trace.unattributed_frac"] * m["trace.wall_s"]
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["qstate.measure_calls"] > 0
    assert run_session is tracing.protocols.run_session  # originals restored


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    with tracer.traced_pass():
        result = workloads.run_sessions(workloads.core_sweep_inputs(0)[:1])
    layer = set(tracing.layer_metrics(tracer.spans(), tracer.names, result)) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "states_per_ref", "sessions_per_ref", "setup_s", "peak_rss_mb"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
