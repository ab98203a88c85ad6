"""The columnar transcript document read back by `transcript_from_json`.

Reading a document gives the transcript that wrote it, and writing that
again gives the same bytes, for every (protocol, attack) family.  The
writer's bytes are those of `json.dumps` on `reference_document`, a dict
built field by field from the transcript, although the writer copies
columns and bit strings instead of escaping them.  A malformed document
raises one ValueError line that names the field.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tcqkd import protocols
from tcqkd.adversary import AncillaEntangle, InterceptResend
from tcqkd.protocols import (
    ProtocolId,
    SessionConfig,
    config_from_json_dict,
    config_to_json_dict,
    run_session,
    transcript_from_json,
    transcript_to_json,
)
from test_scalar_session import ATTACKS, FIXED_CASES, draw_session
from test_session_tables import IDS, PAIRINGS


def digits(block) -> dict:
    """A position or record block's columns as JSON strings: one
    character per item, its digit or '-' for -1."""
    return {name: "".join("-" if v < 0 else str(v) for v in block.column(name).astype(int).tolist())
            for name in block.names}


def reference_document(transcript) -> dict:
    """The transcript's document as a dict, built field by field in
    document order."""
    config = transcript.config
    adversary = transcript.adversary
    if adversary is not None:
        prefix = "probe-" if isinstance(config.attack, AncillaEntangle) else ""
        adversary["records"] = {"basis_prefix": prefix, **digits(adversary["records"])}
    announcements = protocols._SCHEMES[config.protocol].announcements
    return {
        "schema_version": protocols.SCHEMA_VERSION,
        "config": config_to_json_dict(config),
        "events": transcript.events,
        "positions": {**protocols._legends(announcements), **digits(transcript.positions)},
        "check_report": {key: getattr(transcript.check_report, key) for key in (
            "checked_count", "error_count", "qber", "aborted", "empty_check_warning")},
        "alice_raw_key": transcript.alice_raw_key,
        "bob_raw_key": transcript.bob_raw_key,
        "alice_final_key": transcript.alice_final_key,
        "bob_final_key": transcript.bob_final_key,
        "postproc": vars(transcript.postproc_summary),
        "adversary": adversary,
        "kept_count": transcript.kept_count,
        "kept_fraction": transcript.kept_fraction,
        "efficiency_measured": transcript.efficiency_measured,
        "efficiency_bound": transcript.efficiency_bound,
        "baseline_time_reserved": protocols.TIME_RESERVED_EPR_BASELINE,
    }


def dumps(transcript) -> str:
    """The document as `json.dumps` writes it, escaping every string."""
    return json.dumps(reference_document(transcript), separators=(",", ":")) + "\n"


def assert_round_trip(transcript):
    text = transcript_to_json(transcript)
    assert text == dumps(transcript)
    back = transcript_from_json(text)
    assert back == transcript
    assert transcript_to_json(back) == text
    assert list(back.positions) == list(transcript.positions)


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_round_trip(data):
    """Each example writes and reads one session of every family, and
    the writer's bytes are those of `json.dumps`."""
    for protocol, _, attacks in ATTACKS:
        config = draw_session(data, protocol, attacks)
        if config is not None:
            assert_round_trip(run_session(config))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_config_round_trip(data):
    """A config reads back from its document as the config that wrote it."""
    for protocol, _, attacks in ATTACKS:
        config = draw_session(data, protocol, attacks)
        if config is not None:
            assert config_from_json_dict(config_to_json_dict(config)) == config
            doc = json.loads(json.dumps(config_to_json_dict(config)))
            assert config_from_json_dict(doc) == config


@pytest.mark.parametrize("loss", [0.0, (0.05, 0.2)], ids=["lossless", "lossy"])
@pytest.mark.parametrize("threshold", [0.0, 0.5], ids=["aborted", "passing"])
@pytest.mark.parametrize("protocol,attack", FIXED_CASES,
                         ids=[f"{p.value}-{a.kind}" for p, a in FIXED_CASES])
def test_bytes_are_json_dumps_aborted_or_not(protocol, attack, threshold, loss):
    transcript = run_session(SessionConfig(protocol, 400, qber_abort_threshold=threshold,
                                           loss_probability=loss, rng_seed=3, attack=attack))
    assert transcript.check_report.aborted is (threshold == 0.0)
    assert transcript_to_json(transcript) == dumps(transcript)


@pytest.mark.parametrize("threshold", [0.0, 0.9])
@pytest.mark.parametrize("protocol,attack", PAIRINGS, ids=IDS)
def test_every_pairing_writes_the_reference_document(protocol, attack, threshold):
    """Every compiled pairing, lossy on both legs, aborted or passing."""
    transcript = run_session(SessionConfig(protocol, 400, qber_abort_threshold=threshold,
                                           loss_probability=(0.1, 0.2), rng_seed=3, attack=attack))
    assert transcript_to_json(transcript) == dumps(transcript)


@pytest.mark.parametrize("forged", ['01"10', "0\\1", '\\"', "0é1", "1\n0"])
def test_forged_key_is_escaped(forged):
    """A final key that is not bits goes through json: its quote,
    backslash, non-ASCII or control character comes out escaped, and
    the document parses."""
    transcript = replace(run_session(SessionConfig(ProtocolId.GHZ3, 300, rng_seed=5)),
                         alice_final_key=forged)
    text = transcript_to_json(transcript)
    assert text == dumps(transcript)
    assert json.dumps(forged) in text
    assert json.loads(text)["alice_final_key"] == forged


N = 300
TEXT = transcript_to_json(run_session(SessionConfig(
    ProtocolId.GHZ2, N, qber_abort_threshold=0.5, loss_probability=0.2, rng_seed=5,
    attack=InterceptResend())))
DOC = json.loads(TEXT)
POSITIONS = DOC["positions"]
ARRIVED = POSITIONS["lost"].count("0")
LOST_AT = POSITIONS["lost"].index("1")
NOT_KEPT_AT = next(i for i, (lost, kept) in enumerate(zip(POSITIONS["lost"], POSITIONS["kept"]))
                   if lost == "0" and kept == "0")


def set_char(column: str, at: int, char: str) -> str:
    return column[:at] + char + column[at + 1:]


def edit_positions(key, value):
    def edit(doc):
        doc["positions"][key] = value(doc["positions"][key])
    return edit


def edit(path, value):
    def edit(doc):
        *parents, key = path
        for parent in parents:
            doc = doc[parent]
        doc[key] = value
    return edit


def drop_record(doc):
    records = doc["adversary"]["records"]
    records["outcome"] = records["outcome"][:-1]


MALFORMED = {
    "short_column": (edit_positions("kept", lambda c: c[:-1]),
                     f"positions.kept: expected {N} characters of 0/1, got {N - 1}"),
    "bad_character": (edit_positions("alice_basis", lambda c: set_char(c, 7, "x")),
                      f"positions.alice_basis: expected {N} characters of 0/1/2/-, got 'x' at 7"),
    "non_ascii": (edit_positions("kept", lambda c: set_char(c, 3, "é")),
                  f"positions.kept: expected {N} characters of 0/1, got {N}"),
    "out_of_legend": (edit_positions("center_announcement", lambda c: set_char(c, 9, "4")),
                      f"positions.center_announcement: expected {N} characters of 0/1/2/3/-,"
                      " got '4' at 9"),
    "none_in_flags": (edit_positions("used_for_check", lambda c: set_char(c, 2, "-")),
                      f"positions.used_for_check: expected {N} characters of 0/1, got '-' at 2"),
    "records_not_arrived_count": (
        drop_record,
        f"adversary.records.outcome: expected {ARRIVED} characters of 0/1, got {ARRIVED - 1}"),
    "lost_but_measured": (
        edit_positions("lost", lambda c: set_char(c, LOST_AT, "0")),
        f"positions.alice_basis: expected '-' exactly where lost, not at {LOST_AT}"),
    "checked_outside_kept": (
        edit_positions("used_for_check", lambda c: set_char(c, NOT_KEPT_AT, "1")),
        f"positions.used_for_check: position {NOT_KEPT_AT} is not kept"),
    "kept_but_lost": (edit_positions("kept", lambda c: set_char(c, LOST_AT, "1")),
                      f"positions.kept: position {LOST_AT} is not arrived"),
    "schema_version_1": (edit(["schema_version"], 1), "schema_version: expected 4, got 1"),
    "legend": (edit(["positions", "bases"], ["X", "Y"]),
               'positions.bases: expected ["X", "Y", "Z"]'),
    "missing_column": (lambda doc: doc["positions"].pop("bob_outcome"),
                       "positions: missing 'bob_outcome'"),
    "column_not_a_string": (edit(["positions", "kept"], [1, 0]),
                            "positions.kept: expected a string, got list"),
    "config": (edit(["config", "protocol"], "GHZ9"),
               "config: protocol: expected GHZ1/GHZ2/GHZ3/BELL4/BELL5, got 'GHZ9'"),
    "loss_one_leg": (edit(["config", "loss_probability"], [0.1]),
                     "config: loss_probability: expected one number or two, got 1"),
    "loss_leg_not_a_number": (edit(["config", "loss_probability"], [0.1, "x"]),
                              "config: loss_probability[1]: expected a number, got 'x'"),
    "loss_leg_out_of_range": (edit(["config", "loss_probability"], [0.1, 1.5]),
                              "config: loss_probability must be in [0, 1]"),
    "loss_a_boolean": (edit(["config", "loss_probability"], True),
                       "config: loss_probability: expected a number, got True"),
    "config_unknown_key": (edit(["config", "check_fracton"], 0.3),
                           "config: unknown key 'check_fracton'"),
    "attack_unknown_key": (edit(["config", "attack", "coupling"], 0.5),
                           "config: attack: unknown key 'coupling'"),
    "attack_kind_unknown": (edit(["config", "attack", "kind"], "eve"),
                            "config: attack.kind: "
                            "expected none/intercept_resend/cheating_center/ancilla, got 'eve'"),
    "count_not_an_integer": (edit(["check_report", "error_count"], "12"),
                             "check_report.error_count: expected an integer, got str"),
    "count_a_boolean": (edit(["postproc", "reconcile_leaked"], True),
                        "postproc.reconcile_leaked: expected an integer, got bool"),
    "records_prefix": (lambda doc: doc["adversary"]["records"].pop("basis_prefix"),
                       "adversary.records: missing 'basis_prefix'"),
}


def test_unedited_document_reads():
    assert transcript_to_json(transcript_from_json(TEXT)) == TEXT


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_document_one_line(name):
    mutate, message = MALFORMED[name]
    doc = json.loads(TEXT)
    mutate(doc)
    with pytest.raises(ValueError) as info:
        transcript_from_json(json.dumps(doc))
    assert str(info.value) == message


KEYED = transcript_to_json(run_session(SessionConfig(ProtocolId.GHZ3, 1000, rng_seed=5)))


@pytest.mark.parametrize("key", ["alice_final_key", "bob_final_key"])
def test_final_key_off_the_length_formula_one_line(key):
    """A final key one bit shorter than `final_key_length` gives from
    the file is refused, even though no derived field is read."""
    doc = json.loads(KEYED)
    length = len(doc[key])
    assert length > 0
    doc[key] = doc[key][:-1]
    with pytest.raises(ValueError) as info:
        transcript_from_json(json.dumps(doc))
    assert str(info.value) == f"{key}: expected {length} bits, got {length - 1}"


@pytest.mark.parametrize("text,message", [
    ("[]", "transcript: expected an object, got list"),
    ("{}", "transcript: missing 'schema_version'"),
])
def test_not_a_transcript(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        transcript_from_json(text)


# Decided fields that contradict the columns or each other, in the
# attack-free GHZ3 document (100 checked, 0 errors, threshold 0, a
# 900-bit raw key): each is refused with one line that names it.
CONTRADICTORY = {
    "errors_above_checked": (edit(["check_report", "error_count"], 300),
                             "check_report.error_count: expected 0 to 100, got 300"),
    "negative_errors": (edit(["check_report", "error_count"], -5),
                        "check_report.error_count: expected 0 to 100, got -5"),
    "raw_key_when_aborted": (edit(["check_report", "error_count"], 1),
                             "alice_raw_key: expected 0 bits (the check aborted), got 900"),
    "raw_key_short": (lambda doc: doc.update(alice_raw_key=doc["alice_raw_key"][:-1]),
                      "alice_raw_key: expected 900 bits, got 899"),
    "raw_key_not_bits": (lambda doc: doc.update(alice_raw_key=set_char(doc["alice_raw_key"], 4, "2")),
                         "alice_raw_key: expected bits 0/1, got '2' at 4"),
    "final_key_not_bits": (lambda doc: doc.update(
        bob_final_key=set_char(doc["bob_final_key"], 0, "x")),
        "bob_final_key: expected bits 0/1, got 'x' at 0"),
    "negative_leak": (edit(["postproc", "reconcile_leaked"], -3),
                      "postproc.reconcile_leaked: expected a count >= 0, got -3"),
}


@pytest.mark.parametrize("name", sorted(CONTRADICTORY))
def test_contradictory_decided_field_one_line(name):
    mutate, message = CONTRADICTORY[name]
    doc = json.loads(KEYED)
    mutate(doc)
    with pytest.raises(ValueError) as info:
        transcript_from_json(json.dumps(doc))
    assert str(info.value) == message
