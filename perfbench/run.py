"""Speed benchmark of tcqkd, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload core_sweep --seed 1 --seconds 40 --trace 0

The package is imported from the checkout's ``src/``; nothing is
installed.  Workloads are defined in ``workloads.py``.  The run repeats
passes over the workload's inputs, one session after another in one
thread, for ``--seconds`` seconds, and checks every session
(``checks.py``).

``--trace 0`` times the passes with nothing patched and reports the
end-to-end metrics: states and sessions per reference interval over all
passes of the run, the median set-up time of several fresh
interpreters (``import tcqkd`` plus input generation) and the peak
resident memory.  The reference interval is the time fixed work that
does not touch tcqkd takes, measured just before and just after each
pass: an interpreter loop and a numpy integer convolution, mixed in the
workload's proportion of interpreted to numpy-kernel time.  On a
shared 2-vCPU Xeon VM identical passes ran up to twice as fast in some
minutes as in others, which moves every wall-clock rate with it; over
ten seeds the quartile spread of states per wall second was 12-24 %,
that of states per reference interval 4-9 %.  States and sessions
per wall second are printed too, ungated.
``--trace 1`` alternates untraced passes with passes traced by
``tracing.py`` and reports the per-module metrics, each the median over
traced passes, and the tracing overhead.

Standard output lists every metric with its unit, the run context and
the determinism digest (sha256 of the pass's transcript JSON, equal for
every pass of a run), and ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts each
session of the workload's inputs once and ``failed`` those that failed
a check in any pass, so both depend on the seed alone, not on how many
passes fit in ``--seconds``.  The same record, and the
spans of the last traced pass, are written under ``.bench_out/``.
The exit code is 1, with no result line, when the package cannot be
imported from ``src/`` or a check cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("core_sweep", "distill_long", "network_attacks")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 7
REFERENCE_LOOPS = 500_000  # about 0.12 s of interpreter work
REFERENCE_CONVOLVE = 13_000  # about 0.12 s of numpy integer convolution
SETUP_PROBE_TIMEOUT_S = 60
MAX_LISTED_FAILURES = 20


class BenchError(Exception):
    """The program cannot be loaded or a check cannot run."""


def load_workloads():
    """Import tcqkd from this checkout's src/, then the workload module."""
    sys.path.insert(0, str(SRC))
    try:
        import tcqkd
    except ImportError as exc:
        raise BenchError(f"cannot import tcqkd from {SRC}: {exc}") from exc
    if not Path(tcqkd.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"tcqkd was imported from {tcqkd.__file__}, not from {SRC}")
    import workloads
    return workloads


def setup_probe(workload: str, seed: int):
    """Child side of the set-up measurement: print the seconds taken to
    import the package and make the workload's inputs."""
    t0 = time.perf_counter()
    load_workloads().WORKLOADS[workload].make_inputs(seed)
    print(repr(time.perf_counter() - t0))


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, cwd=ROOT, timeout=SETUP_PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tcqkd").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_context(args, loadavg) -> dict:
    import numpy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(loadavg),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def reference_seconds(numpy_share: float) -> float:
    """Wall time of fixed work that does not touch tcqkd, interpreted and
    numpy in the given proportion: the host's current speed, the unit
    of the ``*_per_ref`` metrics."""
    t0 = time.perf_counter()
    table = dict.fromkeys(range(1024), 0)
    acc = 0
    for i in range(REFERENCE_LOOPS):
        table[i & 1023] = i
        acc += table[(i * 7) & 1023]
    interpreted = time.perf_counter() - t0
    if not numpy_share:
        return interpreted
    import numpy as np
    ones = np.ones(REFERENCE_CONVOLVE, dtype=np.int64)
    t0 = time.perf_counter()
    np.convolve(ones, ones)
    kernel = time.perf_counter() - t0
    return (1 - numpy_share) * interpreted + numpy_share * kernel


def unit_of(metric: str) -> str:
    if metric.startswith(("states_per_", "sessions_per_")):
        what, per = metric.split("_per_")
        return f"{what}/{per}"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_per_state"):
        return "B/state"
    if metric.endswith(("_frac", "_ratio")):
        return "ratio"
    if "bits" in metric:
        return "bits"
    return "count"


def pass_digest(result) -> str:
    """sha256 of the pass's transcript JSON, in session order.  A
    session that raised contributes its error text instead."""
    from tcqkd import protocols

    h = hashlib.sha256()
    blobs = result.serialized or [None if t is None else protocols.transcript_to_json(t)
                                  for t in result.transcripts]
    for blob, error in zip(blobs, result.errors):
        h.update((blob if blob is not None else f"error: {error}\n").encode())
    return h.hexdigest()


def run(args) -> tuple[dict, dict]:
    """Run the workload; return (result line, full record)."""
    loadavg = os.getloadavg()
    workloads = load_workloads()
    import tracing
    from checks import Checker

    context = run_context(args, loadavg)
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    checker = Checker()
    tracer = tracing.Tracer() if args.trace else None

    walls = {False: [], True: []}  # traced? -> pass wall times
    untraced, layer_rows = [], []  # (states, sessions, wall, reference) per untraced pass
    digests = []
    session_failures = None  # per session of the inputs: (pass, reason) of its first failure
    iteration_s = []
    start = time.perf_counter()
    traced = False
    while True:
        iteration_start = time.perf_counter()
        if traced:
            with tracer.traced_pass():
                result = workload.run_pass(inputs)
            spans = tracer.spans()
            wall = float(spans["end"][0] - spans["start"][0])
            layer_rows.append(tracing.layer_metrics(spans, tracer.names, result))
        else:
            reference = reference_seconds(workload.numpy_share)
            t0 = time.perf_counter()
            result = workload.run_pass(inputs)
            wall = time.perf_counter() - t0
            reference = (reference + reference_seconds(workload.numpy_share)) / 2
            untraced.append((result.states, len(result.errors), wall, reference))
        walls[traced].append(wall)
        reasons = checker.failures(result.transcripts, result.errors)
        if session_failures is None:
            session_failures = [None] * len(reasons)
        for i, reason in enumerate(reasons):
            if reason is not None and session_failures[i] is None:
                session_failures[i] = (len(digests), reason)
        digests.append(pass_digest(result))
        del result
        iteration_s.append(time.perf_counter() - iteration_start)
        # Stop before a pass that would end past --seconds, once the
        # trace has at least one traced pass.
        projected = time.perf_counter() - start + max(iteration_s[-2:])
        if projected > args.seconds and (not args.trace or walls[True]):
            break
        traced = bool(args.trace) and not traced

    if args.trace:
        metrics = {name: statistics.median(row[name] for row in layer_rows)
                   for name in layer_rows[0]}
        metrics["trace.overhead_frac"] = (statistics.median(walls[True])
                                          / statistics.median(walls[False]) - 1)
        OUT_DIR.mkdir(exist_ok=True)
        import numpy as np
        np.savez(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz",
                 names=np.asarray(tracer.names), **tracer.spans())
    else:
        in_references = sum(w / ref for *_, w, ref in untraced)
        metrics = {
            "states_per_ref": sum(st for st, *_ in untraced) / in_references,
            "sessions_per_ref": sum(se for _, se, *_ in untraced) / in_references,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    correct = len(set(digests)) == 1
    attempted = len(session_failures)
    failures = [{"pass": first[0], "session": i, "reason": first[1]}
                for i, first in enumerate(session_failures) if first is not None]
    failed = len(failures)
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    record = {
        "context": context,
        "digest": digests[0],
        "digests_agree": correct,
        "passes": {"untraced_wall_s": walls[False], "traced_wall_s": walls[True],
                   "reference_s": [ref for *_, ref in untraced]},
        "states_per_s": sum(st for st, *_ in untraced) / sum(walls[False]),
        "sessions_per_s": sum(se for _, se, *_ in untraced) / sum(walls[False]),
        "failed_frac": failed / attempted,
        "failures": failures[:MAX_LISTED_FAILURES],
        **line,
    }
    return line, record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        line, record = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("# context " + json.dumps(record["context"]))
    print(f"# digest sha256:{record['digest']} (all passes agree: {record['digests_agree']})")
    print(f"# passes untraced={len(record['passes']['untraced_wall_s'])}"
          f" traced={len(record['passes']['traced_wall_s'])}")
    shown = dict(line["metrics"])
    if not args.trace:
        for name in ("states_per_s", "sessions_per_s", "failed_frac"):
            shown[name] = {"value": record[name], "unit": unit_of(name)}
    for name, m in shown.items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    for f in record["failures"]:
        print(f"# failed: pass {f['pass']} session {f['session']}: {f['reason']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
