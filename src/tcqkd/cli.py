"""Command-line front end.

Verbs: tables (derive and print correlation tables), run (one session),
attack (adversary experiment with oracle comparison), bench (efficiency
sweep over protocols and loss), network (execute a scenario file),
verify (check a transcript file, such as one written by run or attack
--out, or a network session's).

Exit codes: 0 success, 1 usage error, a transcript that does not
verify or a network session that could not run, 2 session aborted by
the eavesdrop check.  Every command is
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

from . import netsim
from .adversary import (
    AncillaEntangle,
    CheatingCenterMeasureAll,
    InterceptResend,
    NoAttack,
    Party,
)
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
    p_attack.add_argument("--target", choices=[p.value for p in Party], default=Party.ALICE.value)
    p_attack.add_argument("--pool", help="comma-separated Eve bases, e.g. X,Y")
    p_attack.add_argument("--basis", choices=[b.value for b in Basis], default=Basis.X.value)
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

    p_verify = sub.add_parser("verify", help="check a transcript file against a re-run")
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


def _check_choices(parser: argparse.ArgumentParser, args):
    """Refuse a value outside its option's choices in the command that runs:
    argparse checks the command line's, not those a --config file supplied."""
    subparser = parser._subparsers._group_actions[0].choices[args.verb]  # noqa: SLF001
    for action in subparser._actions:  # noqa: SLF001
        value = getattr(args, action.dest, None)
        if value is not None and action.choices is not None and value not in action.choices:
            raise ValueError(f"{action.dest}: expected {'/'.join(action.choices)}, got {value!r}")


def cmd_tables(args) -> int:
    names = list(_TABLE_SELECTORS) if args.scenario == "all" else [args.scenario]
    render = table_to_csv if args.format == "csv" else table_to_text
    chunks = [render(derive_correlation_table(_TABLE_SELECTORS[n])) for n in names]
    _write_or_print("\n".join(chunks) if args.format == "text" else "".join(chunks), args.out)
    return 0


def cmd_run(args, attack=NoAttack()) -> int:
    threshold = args.threshold
    if threshold is None:
        threshold = 0.0 if isinstance(attack, NoAttack) else 0.05
    transcript = run_session(SessionConfig(args.protocol, args.num_states, args.check_fraction,
                                           threshold, args.loss, args.seed, attack))
    if args.out:
        Path(args.out).write_text(transcript_to_json(transcript), encoding="utf-8")
    s = transcript.summary
    print(
        f"protocol={s['protocol']} kept_fraction={s['kept_fraction']:.4f} "
        f"qber={s['qber']:.4f} aborted={s['aborted']} final_key_bits={s['key_bits']} "
        f"efficiency={s['efficiency_measured']:.4f} "
        f"bound={s['efficiency_bound']} baseline={TIME_RESERVED_EPR_BASELINE}"
    )
    adv = transcript.adversary
    if adv is not None:
        print(
            f"attack={adv['kind']} predicted_detection_rate={adv['predicted_detection_rate']} "
            f"observed_check_error_rate={adv['observed_check_error_rate']:.4f} "
            f"predicted_accuracy={adv['predicted_accuracy']} "
            f"observed_accuracy={adv['observed_accuracy']}"
        )
    return 2 if s["aborted"] else 0


def cmd_attack(args) -> int:
    if args.kind == "intercept-resend":
        pool = [b.strip().upper() for b in args.pool.split(",")] if args.pool else None
        attack = InterceptResend(target_party=args.target, basis_pool=pool)
    elif args.kind == "cheating-center":
        attack = CheatingCenterMeasureAll(basis=args.basis)
    else:
        attack = AncillaEntangle(coupling=args.coupling)
    return cmd_run(args, attack)


def _loss(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--loss-grid: expected a number, got {text!r}") from None


def cmd_bench(args) -> int:
    losses = [_loss(x) for x in args.loss_grid.split(",") if x != ""]
    # The whole grid is built, and so refused, before its first session runs.
    configs = [SessionConfig(name, args.num_states, args.check_fraction, 0.0, loss, args.seed)
               for name in args.protocols.split(",") if name for loss in losses]
    lines = [SUMMARY_CSV_HEADER + ",baseline_time_reserved"]
    lines += (f"{summary_csv_row(run_session(c))},{TIME_RESERVED_EPR_BASELINE!r}" for c in configs)
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
    for row in result.report["sessions"]:
        status = "error: " + row["error"] if row["error"] else (
            f"kept={row['kept_fraction']:.4f} qber={row['qber']:.4f} "
            f"aborted={row['aborted']} key_bits={row['key_bits']}")
        print(f"[{row['session_index']}] {row['requester']}->{row['responder']} "
              f"{row['protocol']}: {status}")
    if any(result.errors):  # a session that could not run outranks an abort
        return 1
    return 2 if any(row["aborted"] for row in result.report["sessions"]) else 0


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _first_difference(found, expected, path: str = "") -> str | None:
    """Where two JSON values first differ, as one line that names the
    field (object keys joined by dots, list items indexed as [i]) and, in
    equal-length strings such as the position columns, the first index
    that differs; lists of different lengths give both lengths; or None."""
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
    if isinstance(found, list) and isinstance(expected, list):
        if len(found) != len(expected):
            return f"{path}: {len(found)} items in the file, {len(expected)} in the re-run"
        for i, (a, b) in enumerate(zip(found, expected)):
            difference = _first_difference(a, b, f"{path}[{i}]")
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


def cmd_verify(args) -> int:
    """Read the file, re-run its config and compare the bytes.  The
    reader takes only what the session decided from the file, and the
    re-run derives every other field, such as kept_count or Bob's raw
    key, from its own columns: a file whose derived fields contradict
    its columns differs from the re-run there.  A network session's
    transcript is covered too: its config states both legs' losses."""
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
    print(f"{args.file}: equals a re-run of its config")
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
        _check_choices(parser, args)
        return handlers[args.verb](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's says how much it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
