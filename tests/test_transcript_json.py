"""The columnar transcript document read back by `transcript_from_json`.

Reading a document gives the transcript that wrote it, and writing that
again gives the same bytes, for every (protocol, attack) family.  A
malformed document raises one ValueError line that names the field.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tcqkd.adversary import InterceptResend
from tcqkd.protocols import (
    ProtocolId,
    SessionConfig,
    run_session,
    transcript_from_json,
    transcript_to_json,
)
from test_scalar_session import ATTACKS, draw_session


def assert_round_trip(transcript):
    text = transcript_to_json(transcript)
    back = transcript_from_json(text)
    assert back == transcript
    assert transcript_to_json(back) == text
    assert list(back.positions) == list(transcript.positions)


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_round_trip(data):
    """Each example writes and reads one session of every family."""
    for protocol, _, attacks in ATTACKS:
        session = draw_session(data, protocol, attacks)
        if session is not None:
            assert_round_trip(run_session(*session))


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
    "schema_version_1": (edit(["schema_version"], 1), "schema_version: expected 2, got 1"),
    "legend": (edit(["positions", "bases"], ["X", "Y"]),
               'positions.bases: expected ["X", "Y", "Z"]'),
    "missing_column": (lambda doc: doc["positions"].pop("bob_outcome"),
                       "positions: missing 'bob_outcome'"),
    "column_not_a_string": (edit(["positions", "kept"], [1, 0]),
                            "positions.kept: expected a string, got list"),
    "config": (edit(["config", "protocol"], "GHZ9"),
               "config: 'GHZ9' is not a valid ProtocolId"),
    "count_not_an_integer": (edit(["check_report", "checked_count"], "12"),
                             "check_report.checked_count: expected an integer, got str"),
    "count_a_boolean": (edit(["kept_count"], True), "kept_count: expected an integer, got bool"),
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


@pytest.mark.parametrize("text,message", [
    ("[]", "transcript: expected an object, got list"),
    ("{}", "transcript: missing 'schema_version'"),
])
def test_not_a_transcript(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        transcript_from_json(text)
