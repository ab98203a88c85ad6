"""Command-line front end.

Verbs: tables (derive and print correlation tables), run (one session),
attack (adversary experiment with oracle comparison), bench (efficiency
sweep over protocols and loss), network (execute a scenario file),
verify (check a transcript file written by run or attack --out).

Exit codes: 0 success, 1 usage error or a transcript that does not
verify, 2 session aborted by the eavesdrop check.  Every command is
deterministic given its --seed, and re-runs produce byte-identical
output files.  A --config file of key=value lines supplies defaults;
explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import netsim
from .adversary import (
    AncillaEntangle,
    CheatingCenterMeasureAll,
    InterceptResend,
    NoAttack,
    Party,
    UnsupportedAttackError,
)
from .postproc import final_key_length
from .protocols import (
    ProtocolId,
    SessionConfig,
    SUMMARY_CSV_HEADER,
    summary_csv_row,
    run_session,
    transcript_from_json,
    transcript_to_json,
    TIME_RESERVED_EPR_BASELINE,
)
from .qstate import Basis, TableScenario, derive_correlation_table, table_to_csv, table_to_text

_TABLE_SELECTORS = {
    "bell": TableScenario.BELL_TABLE_I,
    "mixed": TableScenario.MIXED_TABLE_II,
    "ghz": TableScenario.GHZ_TABLE_III,
}


def _write_or_print(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: config line without '=': {line!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _add_session_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--num-states", type=int, default=10000)
    parser.add_argument("--loss", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--check-fraction", type=float, default=0.1)
    parser.add_argument("--threshold", type=float, default=None,
                        help="QBER abort threshold (default 0 for run, 0.05 for attack)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tcqkd", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="key=value file of option defaults")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_tables = sub.add_parser("tables", help="derive correlation tables")
    p_tables.add_argument("scenario", choices=[*_TABLE_SELECTORS, "all"])
    p_tables.add_argument("--format", choices=["text", "csv"], default="text")
    p_tables.add_argument("--out")

    p_run = sub.add_parser("run", help="run one attack-free session")
    p_run.add_argument("--protocol", required=True, choices=[p.value for p in ProtocolId])
    _add_session_flags(p_run)
    p_run.add_argument("--out", help="transcript JSON path")

    p_attack = sub.add_parser("attack", help="run an adversary experiment")
    p_attack.add_argument("protocol", choices=[p.value for p in ProtocolId])
    p_attack.add_argument("kind", choices=["intercept-resend", "cheating-center", "ancilla"])
    p_attack.add_argument("--target", choices=["alice", "bob"], default="alice")
    p_attack.add_argument("--pool", help="comma-separated Eve bases, e.g. X,Y")
    p_attack.add_argument("--basis", choices=["X", "Y", "Z"], default="X")
    p_attack.add_argument("--coupling", type=float, default=1.0)
    _add_session_flags(p_attack)
    p_attack.add_argument("--out", help="transcript JSON path")

    p_bench = sub.add_parser("bench", help="efficiency sweep -> CSV")
    p_bench.add_argument("--protocols", default=",".join(p.value for p in ProtocolId),
                         help="comma-separated list; empty string for none")
    p_bench.add_argument("--loss-grid", default="0.0", help="comma-separated loss values")
    p_bench.add_argument("--num-states", type=int, default=10000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--check-fraction", type=float, default=0.1)
    p_bench.add_argument("--out", help="CSV path")

    p_net = sub.add_parser("network", help="execute a scenario file")
    p_net.add_argument("scenario", help="scenario JSON path")
    p_net.add_argument("--report", help="aggregate report JSON path")
    p_net.add_argument("--csv", help="per-session summary CSV path")

    p_verify = sub.add_parser("verify", help="check a transcript file from run or attack --out")
    p_verify.add_argument("file", help="transcript JSON path")
    return parser


def _apply_config_defaults(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Pull --config FILE or --config=FILE out of argv and fold the
    file's values into subparser defaults."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if known.config is None:
        return rest
    values = _parse_config_file(known.config)
    subparsers = parser._subparsers._group_actions[0].choices.values()  # noqa: SLF001
    dests = {action.dest for subparser in subparsers for action in subparser._actions}  # noqa: SLF001
    for key in values:
        if key not in dests:
            raise ValueError(f"{known.config}: unknown key {key!r}")
    for subparser in subparsers:
        supplied = {}
        for action in subparser._actions:  # noqa: SLF001
            if action.dest in values:
                supplied[action.dest] = values[action.dest]
                action.required = False
        subparser.set_defaults(**supplied)
    return rest


def cmd_tables(args) -> int:
    names = list(_TABLE_SELECTORS) if args.scenario == "all" else [args.scenario]
    render = table_to_csv if args.format == "csv" else table_to_text
    chunks = [render(derive_correlation_table(_TABLE_SELECTORS[n])) for n in names]
    _write_or_print("\n".join(chunks) if args.format == "text" else "".join(chunks), args.out)
    return 0


def _session_config(args, attack) -> SessionConfig:
    default_threshold = 0.05 if not isinstance(attack, NoAttack) else 0.0
    threshold = default_threshold if args.threshold is None else float(args.threshold)
    return SessionConfig(
        protocol=ProtocolId(args.protocol),
        num_states=int(args.num_states),
        check_fraction=float(args.check_fraction),
        qber_abort_threshold=threshold,
        loss_probability=float(args.loss),
        rng_seed=int(args.seed),
        attack=attack,
    )


def cmd_run(args, attack=NoAttack()) -> int:
    transcript = run_session(_session_config(args, attack))
    if args.out:
        Path(args.out).write_text(transcript_to_json(transcript), encoding="utf-8")
    cr = transcript.check_report
    print(
        f"protocol={transcript.config.protocol.value} "
        f"kept_fraction={transcript.kept_fraction:.4f} "
        f"qber={cr.qber:.4f} aborted={cr.aborted} "
        f"final_key_bits={len(transcript.alice_final_key)} "
        f"efficiency={transcript.efficiency_measured:.4f} "
        f"bound={transcript.efficiency_bound} baseline={TIME_RESERVED_EPR_BASELINE}"
    )
    adv = transcript.adversary
    if adv is not None:
        print(
            f"attack={adv['kind']} predicted_detection_rate={adv['predicted_detection_rate']} "
            f"observed_check_error_rate={adv['observed_check_error_rate']:.4f} "
            f"predicted_accuracy={adv['predicted_accuracy']} "
            f"observed_accuracy={adv['observed_accuracy']}"
        )
    return 2 if cr.aborted else 0


def cmd_attack(args) -> int:
    if args.kind == "intercept-resend":
        pool = None
        if args.pool:
            pool = tuple(Basis(b.strip().upper()) for b in args.pool.split(","))
        attack = InterceptResend(target_party=Party(args.target), basis_pool=pool)
    elif args.kind == "cheating-center":
        attack = CheatingCenterMeasureAll(basis=Basis(args.basis))
    else:
        attack = AncillaEntangle(coupling=args.coupling)
    return cmd_run(args, attack)


def cmd_bench(args) -> int:
    protocols = [p for p in args.protocols.split(",") if p]
    losses = [float(x) for x in args.loss_grid.split(",") if x != ""]
    lines = [SUMMARY_CSV_HEADER + ",baseline_time_reserved"]
    for name in protocols:
        for loss in losses:
            cfg = SessionConfig(
                protocol=ProtocolId(name),
                num_states=int(args.num_states),
                check_fraction=float(args.check_fraction),
                loss_probability=loss,
                rng_seed=int(args.seed),
            )
            transcript = run_session(cfg)
            lines.append(summary_csv_row(transcript) + f",{TIME_RESERVED_EPR_BASELINE!r}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def cmd_network(args) -> int:
    scenario = netsim.load_scenario(args.scenario)
    result = netsim.run_network_scenario(scenario)
    if args.report:
        Path(args.report).write_text(
            json.dumps(result.report, separators=(",", ":")) + "\n", encoding="utf-8")
    if args.csv:
        Path(args.csv).write_text(netsim.report_csv(result), encoding="utf-8")
    aborted = 0
    for row in result.report["sessions"]:
        status = "error: " + row["error"] if row["error"] else (
            f"kept={row['kept_fraction']:.4f} qber={row['qber']:.4f} "
            f"aborted={row['aborted']} key_bits={row['key_bits']}")
        print(f"[{row['session_index']}] {row['requester']}->{row['responder']} "
              f"{row['protocol']}: {status}")
        aborted += int(bool(row["error"] is None and row["aborted"]))
    return 2 if aborted else 0


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _first_difference(found, expected, path: str = "") -> str | None:
    """Where two JSON values first differ, as one line that names the
    field (object keys joined by dots) and, in equal-length strings such
    as the position columns, the first index that differs; or None."""
    if isinstance(found, dict) and isinstance(expected, dict):
        for key in dict.fromkeys([*expected, *found]):
            where = f"{path}.{key}" if path else key
            if key not in found:
                return f"{where}: missing from the file"
            if key not in expected:
                return f"{where}: not in the re-run's transcript"
            difference = _first_difference(found[key], expected[key], where)
            if difference:
                return difference
        return None
    if (isinstance(found, str) and isinstance(expected, str) and len(found) == len(expected)
            and found != expected):
        at = next(i for i, (a, b) in enumerate(zip(found, expected)) if a != b)
        return f"{path}: {found[at]!r} at {at} in the file, {expected[at]!r} in the re-run"
    if type(found) is not type(expected) or found != expected:
        return f"{path}: {_short(found)} in the file, {_short(expected)} in the re-run"
    return None


def _recount(transcript, positions: dict) -> str | None:
    """The first field the file's own position columns contradict, as
    one line, or None."""
    def chars(key):
        return np.frombuffer(positions[key].encode("ascii"), dtype=np.uint8)

    kept, checked = chars("kept") == ord("1"), chars("used_for_check") == ord("1")
    # An outcome's digit is its key bit: + is 0, - is 1.
    bob_raw = ("" if transcript.check_report.aborted
               else chars("bob_outcome")[kept & ~checked].tobytes().decode())
    pp = transcript.postproc_summary
    final_length = final_key_length(len(transcript.alice_raw_key), pp.qber_used,
                                    pp.reconcile_leaked, pp.epsilon)
    for name, recorded, recomputed in (
        ("kept_count", transcript.kept_count, int(np.count_nonzero(kept))),
        ("check_report.checked_count", transcript.check_report.checked_count,
         int(np.count_nonzero(checked))),
        ("bob_raw_key", transcript.bob_raw_key, bob_raw),
        ("postproc.final_length", pp.final_length, final_length),
        ("efficiency_measured", transcript.efficiency_measured,
         final_length / transcript.config.num_states),
    ):
        if recorded != recomputed:
            return f"{name}: {_short(recorded)} in the file, {_short(recomputed)} recomputed from it"
    return None


def cmd_verify(args) -> int:
    """Re-run the file's config and compare the bytes, then recompute
    what the file's columns determine.  Network sessions are not covered:
    their per-leg loss is not in the config."""
    try:
        text = Path(args.file).read_text(encoding="utf-8")
        transcript = transcript_from_json(text)
    except ValueError as exc:  # not UTF-8, not JSON, or malformed
        raise ValueError(f"{args.file}: {exc}") from None
    rerun = transcript_to_json(run_session(transcript.config))
    if rerun != text:
        difference = _first_difference(json.loads(text), json.loads(rerun)) or (
            f"bytes differ from the re-run's at offset {len(os.path.commonprefix([text, rerun]))}")
        raise ValueError(f"{args.file}: {difference}")
    difference = _recount(transcript, json.loads(text)["positions"])
    if difference:
        raise ValueError(f"{args.file}: {difference}")
    print(f"{args.file}: equals a re-run of its config, and its counts, Bob's raw key and the "
          "final length agree with its columns")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        argv = _apply_config_defaults(parser, argv)
    except (OSError, ValueError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handlers = {
        "tables": cmd_tables,
        "run": cmd_run,
        "attack": cmd_attack,
        "bench": cmd_bench,
        "network": cmd_network,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.verb](args)
    except (UnsupportedAttackError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
