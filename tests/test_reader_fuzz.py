"""Every field of a document, set to an odd value or deleted: the
transcript and scenario readers either read the document or refuse it
with one ValueError line, and raise nothing else."""

import copy
import json

import pytest

from tcqkd.adversary import InterceptResend
from tcqkd.netsim import scenario_from_json_dict
from tcqkd.protocols import ProtocolId, SessionConfig, run_session, transcript_from_json, transcript_to_json

VALUES = [None, True, False, float("nan"), float("inf"), -float("inf"), 10**40, -10**40,
          0, -1, 1.5, "", "x", "0101", [], [1], {}, {"a": 1}]
DELETE = object()


def transcript_document(config):
    return json.loads(transcript_to_json(run_session(config)))


def read_transcript(doc):
    return transcript_from_json(json.dumps(doc))


DOCUMENTS = {
    "ghz1_intercept": (transcript_document(SessionConfig(ProtocolId.GHZ1, 40, attack=InterceptResend())),
                       read_transcript),
    "bell5_loss": (transcript_document(SessionConfig(ProtocolId.BELL5, 40, loss_probability=(0.1, 0.2))),
                   read_transcript),
    "scenario": ({"schema_version": 1, "seed": 7, "users": ["alice", "bob"],
                  "channels": {"alice": {"loss_probability": 0.1, "latency_ticks": 2},
                               "bob": {"loss_probability": 0.25}},
                  "sessions": [{"requester": "alice", "responder": "bob",
                                "config": {"protocol": "GHZ1", "num_states": 2000}}]},
                 scenario_from_json_dict),
}


def fields(node, path=()):
    """The path of every object member and list item, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from fields(child, path + (key,))


def edited(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, key = path
    node = doc
    for parent in parents:
        node = node[parent]
    if value is DELETE:
        del node[key]
    else:
        node[key] = copy.deepcopy(value)
    return doc


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_every_field_read_or_refused_in_one_line(name):
    doc, read = DOCUMENTS[name]
    read(doc)
    faults = []
    for path in fields(doc):
        for value in VALUES + [DELETE]:
            try:
                read(edited(doc, path, value))
            except ValueError as exc:
                if len(str(exc).splitlines()) != 1:
                    faults.append((path, value, str(exc)))
            except Exception as exc:
                faults.append((path, value, repr(exc)))
    assert faults == []
