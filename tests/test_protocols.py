import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from tcqkd import adversary, protocols
from tcqkd.adversary import (
    AncillaEntangle,
    CheatingCenterMeasureAll,
    InterceptResend,
    NoAttack,
    Party,
    UnsupportedAttackError,
)
from tcqkd.protocols import (
    ProtocolId,
    SessionConfig,
    TIME_RESERVED_EPR_BASELINE,
    center_basis_rule_p3,
    consistency_map,
    efficiency_bound,
    keep_rule,
    party_bases,
    run_session,
    summary_csv_row,
    SUMMARY_CSV_HEADER,
    transcript_to_json,
)
from tcqkd.qstate import Basis, Outcome, TableScenario, TwoQubitLabel, derive_correlation_table

P, M = Outcome.PLUS, Outcome.MINUS
X, Y, Z = Basis.X, Basis.Y, Basis.Z
L = TwoQubitLabel

# The paper's correlation tables' columns: what the center announces.
TABLE_I = (L.PSI_PLUS, L.PSI_MINUS, L.PHI_PLUS, L.PHI_MINUS)
TABLE_II = (L.PHI_PLUS, L.PSI_MINUS, L.COMB_PHI_MINUS, L.COMB_PSI_PLUS)
TABLE_III = ((X, P), (X, M), (Y, P), (Y, M))

# Each protocol's announcements and keep rule, as the paper states them.
PAPER_RULES = {
    ProtocolId.GHZ1: (TABLE_III[:2], lambda ann, a, b: a is b),
    ProtocolId.GHZ2: (TABLE_III, lambda ann, a, b: (a is b) == (ann[0] is X)),
    # Every reachable combination is kept; the center's basis follows
    # the disclosed bases, so no other combination occurs.
    ProtocolId.GHZ3: (TABLE_III, lambda ann, a, b: ann[0] is center_basis_rule_p3(a, b)),
    ProtocolId.BELL4: (TABLE_I, lambda ann, a, b: a is b),
    ProtocolId.BELL5: (TABLE_II, lambda ann, a, b: (a is b) == (ann in (L.PHI_PLUS, L.PSI_MINUS))),
}


class TestCenterBasisRule:
    def test_equal_bases_give_x(self):
        assert center_basis_rule_p3(X, X) is X
        assert center_basis_rule_p3(Y, Y) is X

    def test_different_bases_give_y(self):
        assert center_basis_rule_p3(X, Y) is Y
        assert center_basis_rule_p3(Y, X) is Y

    def test_z_rejected(self):
        with pytest.raises(ValueError):
            center_basis_rule_p3(Z, X)


class TestKeepRule:
    def test_ghz1(self):
        assert keep_rule(ProtocolId.GHZ1, (X, P), X, X)
        assert not keep_rule(ProtocolId.GHZ1, (X, P), X, Y)

    def test_ghz2(self):
        assert keep_rule(ProtocolId.GHZ2, (Y, P), X, Y)
        assert not keep_rule(ProtocolId.GHZ2, (Y, P), X, X)
        assert keep_rule(ProtocolId.GHZ2, (X, M), Y, Y)
        assert not keep_rule(ProtocolId.GHZ2, (X, M), Y, X)

    def test_ghz3_keeps_everything(self):
        for a in (X, Y):
            for b in (X, Y):
                ann = (center_basis_rule_p3(a, b), P)
                assert keep_rule(ProtocolId.GHZ3, ann, a, b)

    def test_bell4(self):
        assert keep_rule(ProtocolId.BELL4, TwoQubitLabel.PHI_MINUS, Z, Z)
        assert not keep_rule(ProtocolId.BELL4, TwoQubitLabel.PHI_MINUS, Z, X)

    def test_bell5(self):
        assert keep_rule(ProtocolId.BELL5, TwoQubitLabel.PHI_PLUS, X, X)
        assert not keep_rule(ProtocolId.BELL5, TwoQubitLabel.PHI_PLUS, X, Z)
        assert keep_rule(ProtocolId.BELL5, TwoQubitLabel.COMB_PSI_PLUS, X, Z)
        assert not keep_rule(ProtocolId.BELL5, TwoQubitLabel.COMB_PSI_PLUS, Z, Z)

    def test_announcement_type_checked(self):
        with pytest.raises(TypeError):
            keep_rule(ProtocolId.GHZ1, TwoQubitLabel.PSI_PLUS, X, X)
        with pytest.raises(TypeError):
            keep_rule(ProtocolId.BELL4, (X, P), X, X)

    @pytest.mark.parametrize("protocol", list(ProtocolId))
    def test_keep_rule_is_the_papers(self, protocol):
        announcements, rule = PAPER_RULES[protocol]
        bases = party_bases(protocol)
        for ann, a, b in itertools.product(announcements, bases, bases):
            assert keep_rule(protocol, ann, a, b) == rule(ann, a, b), (ann, a, b)

    @pytest.mark.parametrize("protocol", list(ProtocolId))
    def test_keep_rule_is_the_compiled_table_on_the_pool(self, protocol):
        """Every compiled leaf's kept flag is the paper's rule (the
        trailing lost column is no path's leaf); off the pool keep_rule
        refuses."""
        table = protocols._compile(protocol, NoAttack())
        rule = PAPER_RULES[protocol][1]
        for ann, a, b, _, _, kept in table.leaves[:6, :-1].T.tolist():
            assert kept == rule(table.announcements[ann], list(Basis)[a], list(Basis)[b])
        pool = party_bases(protocol)
        names = "/".join(b.value.lower() for b in pool)
        for ann, a, b in itertools.product(table.announcements, Basis, Basis):
            if a not in pool or b not in pool:
                with pytest.raises(ValueError, match=f"^{protocol.value} uses the {names} pool only$"):
                    keep_rule(protocol, ann, a, b)

    @pytest.mark.parametrize("protocol", list(ProtocolId))
    def test_only_the_protocols_announcements_accepted(self, protocol):
        announcements, _ = PAPER_RULES[protocol]
        for ann in set(TABLE_I + TABLE_II + TABLE_III + ((Z, P), (Z, M))) - set(announcements):
            with pytest.raises(TypeError):
                keep_rule(protocol, ann, X, X)

    def test_announcements_are_the_tables_columns(self):
        def columns(scenario):
            entries = derive_correlation_table(scenario).entries
            return tuple(dict.fromkeys(e.announcement for e in entries))

        assert columns(TableScenario.BELL_TABLE_I) == TABLE_I
        assert columns(TableScenario.MIXED_TABLE_II) == TABLE_II
        assert columns(TableScenario.GHZ_TABLE_III) == TABLE_III
        for protocol in ProtocolId:
            table = protocols._compile(protocol, NoAttack())
            assert table.announcements == PAPER_RULES[protocol][0]


class TestConsistencyMap:
    def test_ghz3_reference_row(self):
        # center y+, own (x,+) -> peer y-
        assert consistency_map(ProtocolId.GHZ3, (Y, P), X, P, Y) is M

    def test_bell5_comb_row(self):
        assert consistency_map(ProtocolId.BELL5, TwoQubitLabel.COMB_PHI_MINUS, X, P, Z) is M

    def test_ghz1_correlated_branch(self):
        assert consistency_map(ProtocolId.GHZ1, (X, P), X, P, X) is P

    def test_non_deterministic_combination_raises(self):
        with pytest.raises(LookupError):
            consistency_map(ProtocolId.GHZ1, (X, P), X, P, Y)


def numpy_stream(seed, key) -> np.random.Generator:
    """A session stream as numpy spawns it from the seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def config_with(field, value) -> SessionConfig:
    """A GHZ1 config of 2000 states whose field is value; a field named
    Class.name is that field of an attack of the named class."""
    model, _, name = field.rpartition(".")
    if model:
        attack = getattr(adversary, model)(**{name: value})
        return SessionConfig(ProtocolId.GHZ1, 2000, qber_abort_threshold=0.5, attack=attack)
    return SessionConfig(**{"protocol": ProtocolId.GHZ1, "num_states": 2000, field: value})


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            SessionConfig(ProtocolId.GHZ1, 0)
        with pytest.raises(ValueError):
            SessionConfig(ProtocolId.GHZ1, 100, check_fraction=0.0)
        with pytest.raises(ValueError):
            SessionConfig(ProtocolId.GHZ1, 100, qber_abort_threshold=1.0)
        with pytest.raises(ValueError):
            SessionConfig(ProtocolId.GHZ1, 100, loss_probability=1.5)
        with pytest.raises(ValueError):
            SessionConfig(ProtocolId.GHZ1, 100, rng_seed=-1)

    def test_num_states_ceiling(self):
        """A config is made up to `MAX_NUM_STATES` (2**48); above it no
        machine could hold the session, and the field refuses it."""
        assert SessionConfig(ProtocolId.GHZ1, protocols.MAX_NUM_STATES).num_states == 2**48
        for n in (2**48 + 1, 10**40):
            with pytest.raises(ValueError, match=r"^num_states must be in \[1, 2\*\*48\]$"):
                SessionConfig(ProtocolId.GHZ1, n)

    def test_an_object_that_is_no_attack_is_refused(self):
        with pytest.raises(UnsupportedAttackError, match="unknown attack <object object at"):
            SessionConfig(ProtocolId.GHZ1, 100, attack=object())

    def test_expected_unchecked_guard(self):
        with pytest.raises(ValueError):
            SessionConfig(ProtocolId.GHZ1, 2, check_fraction=0.9)

    def test_total_erasure_allowed(self):
        SessionConfig(ProtocolId.GHZ1, 100, loss_probability=1.0)
        SessionConfig(ProtocolId.GHZ1, 100, loss_probability=(0.0, 1.0))

    def test_loss_per_leg(self):
        assert SessionConfig(ProtocolId.GHZ1, 100, loss_probability=0.2).legs == (0.2, 0.2)
        config = SessionConfig(ProtocolId.GHZ1, 100, loss_probability=(0.1, 0.25))
        assert config.legs == (0.1, 0.25)
        assert {config: 1}[SessionConfig(ProtocolId.GHZ1, 100, loss_probability=(0.1, 0.25))]
        for bad in [(0.1,), (0.1, 0.2, 0.3), (0.1, 1.5), (-0.1, 0.0)]:
            with pytest.raises(ValueError, match="loss_probability"):
                SessionConfig(ProtocolId.GHZ1, 100, loss_probability=bad)

    @pytest.mark.parametrize("field,value,message", [
        ("rng_seed", True, "rng_seed: expected a number, got True"),
        ("num_states", 2000.5, "num_states: expected an integer, got 2000.5"),
        ("loss_probability", "0.1", "loss_probability: expected a number, got '0.1'"),
        ("loss_probability", [0.1, "0.2"], "loss_probability[1]: expected a number, got '0.2'"),
        ("check_fraction", None, "check_fraction: expected a number, got None"),
        ("protocol", "GHZ9", "protocol: expected GHZ1/GHZ2/GHZ3/BELL4/BELL5, got 'GHZ9'"),
        ("AncillaEntangle.coupling", True, "attack.coupling: expected a number, got True"),
        ("InterceptResend.basis_pool", "XY", "attack.basis_pool: expected a list, got str"),
        ("InterceptResend.basis_pool", ["X", "W"], "attack.basis_pool[1]: expected X/Y/Z, got 'W'"),
        ("InterceptResend.target_party", "carol",
         "attack.target_party: expected alice/bob, got 'carol'"),
        ("CheatingCenterMeasureAll.basis", "W", "attack.basis: expected X/Y/Z, got 'W'"),
        ("protocol", ["GHZ1"], "protocol: expected GHZ1/GHZ2/GHZ3/BELL4/BELL5, got ['GHZ1']"),
        ("InterceptResend.basis_pool", [], "attack.basis_pool must be non-empty"),
        ("InterceptResend.target_party", 0, "attack.target_party: expected alice/bob, got 0"),
        ("AncillaEntangle.coupling", 1.5, "attack.coupling must be in [0, 1]"),
    ])
    def test_a_value_no_document_carries_is_refused(self, field, value, message):
        with pytest.raises(ValueError) as info:
            config_with(field, value)
        assert str(info.value) == message

    @pytest.mark.parametrize("field,value,stored", [
        ("num_states", 2000.0, 2000),
        ("num_states", np.int64(2000), 2000),
        ("rng_seed", 7.0, 7),
        ("rng_seed", np.uint64(2**64 - 1), 2**64 - 1),
        ("check_fraction", np.float32(0.2), float(np.float32(0.2))),
        ("qber_abort_threshold", 0, 0.0),
        ("loss_probability", [0.1, 0.2], (0.1, 0.2)),
        ("loss_probability", (np.float64(0.1), 0), (0.1, 0.0)),
        ("protocol", "GHZ1", ProtocolId.GHZ1),
        ("InterceptResend.target_party", "alice", Party.ALICE),
        ("InterceptResend.target_party", "bob", Party.BOB),
        ("InterceptResend.basis_pool", ("X",), (X,)),
        ("InterceptResend.basis_pool", ["Y", "X"], (Y, X)),
        ("CheatingCenterMeasureAll.basis", "X", X),
        ("AncillaEntangle.coupling", np.float32(0.3), float(np.float32(0.3))),
    ])
    def test_stored_as_the_reader_makes_it(self, field, value, stored):
        """A value the document reader would give back is stored as that
        Python number, tuple or enum member, so the session runs, writes
        the bytes of its stored form, and its transcript reads back."""
        config = config_with(field, value)
        model, _, name = field.rpartition(".")
        kept = getattr(config.attack if model else config, name)
        assert kept == stored and type(kept) is type(stored)
        if isinstance(kept, tuple):
            assert [type(item) for item in kept] == [type(item) for item in stored]
        text = transcript_to_json(run_session(config))
        assert text == transcript_to_json(run_session(config_with(field, stored)))
        assert protocols.transcript_from_json(text).config == config

    def test_an_attack_read_by_value_predicts_as_its_enum_form(self):
        by_value, by_member = InterceptResend(target_party="alice"), InterceptResend(Party.ALICE)
        for predict in (protocols.predict_detection_rate, protocols.predict_adversary_accuracy):
            assert predict(ProtocolId.GHZ2, by_value) == predict(ProtocolId.GHZ2, by_member)

    @pytest.mark.parametrize("read,doc,default", [
        (protocols.config_from_json_dict, {"protocol": "GHZ1", "num_states": 2000},
         SessionConfig(ProtocolId.GHZ1, 2000)),
        (protocols.attack_from_json, {}, NoAttack()),
        *[(protocols.attack_from_json, {"kind": cls.kind}, cls())
          for cls in (NoAttack, InterceptResend, CheatingCenterMeasureAll, AncillaEntangle)],
    ])
    def test_a_key_left_out_reads_as_the_default(self, read, doc, default):
        """Each default is the dataclass's: a document without the key
        reads as the object built without the field."""
        assert read(doc) == default

    @pytest.mark.parametrize("protocol,attack", [
        (ProtocolId.BELL4, InterceptResend(Party.BOB, (Z, X))),
        (ProtocolId.GHZ2, CheatingCenterMeasureAll(Y)),
        (ProtocolId.GHZ3, AncillaEntangle(0.05)),
    ])
    def test_non_default_fields_round_trip(self, protocol, attack):
        config = SessionConfig(protocol, 2000, check_fraction=0.2, qber_abort_threshold=0.3,
                               loss_probability=(0.1, 0.2), rng_seed=7, attack=attack)
        assert protocols.config_from_json_dict(protocols.config_to_json_dict(config)) == config


class TestSessions:
    @pytest.mark.parametrize("protocol", list(ProtocolId))
    def test_attack_free_keys_agree(self, protocol):
        cfg = SessionConfig(protocol, 2000, rng_seed=5)
        tr = run_session(cfg)
        assert tr.alice_raw_key == tr.bob_raw_key
        assert tr.alice_final_key == tr.bob_final_key
        assert len(tr.alice_final_key) > 0
        assert tr.check_report.error_count == 0
        assert not tr.check_report.aborted

    def test_sifted_fractions(self):
        for protocol in (ProtocolId.GHZ1, ProtocolId.GHZ2, ProtocolId.BELL4, ProtocolId.BELL5):
            tr = run_session(SessionConfig(protocol, 10000, rng_seed=42))
            assert 0.48 <= tr.kept_fraction <= 0.52
        tr = run_session(SessionConfig(ProtocolId.GHZ3, 10000, rng_seed=42))
        assert tr.kept_fraction == 1.0

    def test_ghz3_all_usable_before_check(self):
        tr = run_session(SessionConfig(ProtocolId.GHZ3, 1000, rng_seed=3))
        assert tr.kept_count == 1000

    def test_total_erasure_empty_keys(self):
        for protocol in ProtocolId:
            tr = run_session(SessionConfig(protocol, 50, loss_probability=1.0, rng_seed=1))
            assert all(p.lost for p in tr.positions)
            assert tr.alice_raw_key == "" and tr.bob_final_key == ""
            assert tr.kept_count == 0
            assert tr.check_report.empty_check_warning
            assert not tr.check_report.aborted

    def test_loss_reduces_kept_fraction(self):
        tr = run_session(SessionConfig(ProtocolId.BELL4, 10000, loss_probability=0.5, rng_seed=8))
        # sift 0.5 x survival (1-0.5)^2 = 0.125
        assert abs(tr.kept_fraction - 0.125) <= 0.02

    def test_check_consumes_positions(self):
        cfg = SessionConfig(ProtocolId.GHZ1, 4000, check_fraction=0.25, rng_seed=9)
        tr = run_session(cfg)
        checked = sum(1 for p in tr.positions if p.used_for_check)
        assert checked == int(0.25 * tr.kept_count)
        assert len(tr.alice_raw_key) == tr.kept_count - checked
        for p in tr.positions:
            if p.used_for_check:
                assert p.kept
            if p.kept:
                assert not p.lost

    def test_efficiency_accounting(self):
        tr = run_session(SessionConfig(ProtocolId.GHZ3, 10000, check_fraction=0.02, rng_seed=12))
        assert tr.efficiency_measured == len(tr.alice_final_key) / tr.config.num_states
        assert tr.efficiency_measured <= efficiency_bound(ProtocolId.GHZ3)
        assert tr.efficiency_bound - tr.efficiency_measured <= 0.03

    @pytest.mark.parametrize("protocol", list(ProtocolId))
    def test_efficiency_approaches_bound_at_small_check_fraction(self, protocol):
        tr = run_session(SessionConfig(protocol, 10000, check_fraction=0.02, rng_seed=12))
        assert tr.efficiency_measured <= tr.efficiency_bound
        assert tr.efficiency_bound - tr.efficiency_measured <= 0.03

    def test_bounds_per_protocol(self):
        assert efficiency_bound(ProtocolId.GHZ3) == 1.0
        for p in (ProtocolId.GHZ1, ProtocolId.GHZ2, ProtocolId.BELL4, ProtocolId.BELL5):
            assert efficiency_bound(p) == 0.5
        assert TIME_RESERVED_EPR_BASELINE == 0.125

    def test_abort_empties_keys(self):
        cfg = SessionConfig(ProtocolId.GHZ1, 2000, qber_abort_threshold=0.0,
                            rng_seed=4, attack=InterceptResend())
        tr = run_session(cfg)
        assert tr.check_report.aborted
        assert tr.alice_raw_key == "" and tr.alice_final_key == ""
        assert tr.efficiency_measured == 0.0

    def test_derived_fields_follow_a_replaced_field(self):
        tr = run_session(SessionConfig(ProtocolId.GHZ1, 2000, rng_seed=4,
                                       attack=InterceptResend()))
        assert tr.check_report.aborted and tr.bob_raw_key == ""
        forged = replace(tr, check_report=replace(tr.check_report, error_count=0),
                         alice_final_key="0" * 10)
        assert not forged.check_report.aborted
        assert len(forged.bob_raw_key) == forged.kept_count - forged.check_report.checked_count
        assert forged.adversary["observed_check_error_rate"] == 0.0
        assert forged.postproc_summary.final_length == 10
        assert forged.efficiency_measured == 10 / 2000

    @pytest.mark.parametrize("attack, eve", [
        (NoAttack(), False), (CheatingCenterMeasureAll(), False),
        (InterceptResend(), True), (AncillaEntangle(coupling=0.3), True)],
        ids=["no-attack", "cheating-center", "intercept-resend", "ancilla"])
    @pytest.mark.parametrize("protocol", [ProtocolId.GHZ1, ProtocolId.GHZ2])
    def test_adversary_stream_built_only_when_drawn(self, monkeypatch, protocol, attack, eve):
        built = []
        real = protocols._session_streams

        def streams(seed, keys):
            rngs, pa_seed, rec_seed = real(seed, keys)
            built.extend(rngs)
            return rngs, pa_seed, rec_seed

        monkeypatch.setattr(protocols, "_session_streams", streams)
        run_session(SessionConfig(protocol, 200, qber_abort_threshold=0.99, rng_seed=3, attack=attack))
        assert (protocols._STREAM_EVE in built) == eve
        assert len(built) == len(set(built)) == 4 + eve


class TestEventOrdering:
    def _index(self, events, name):
        return next(i for i, e in enumerate(events) if e["event"] == name)

    def test_center_first_protocols(self):
        for protocol in (ProtocolId.GHZ1, ProtocolId.GHZ2):
            tr = run_session(SessionConfig(protocol, 200, rng_seed=2))
            ev = tr.events
            assert self._index(ev, "center_measure") < self._index(ev, "alice_measure")
            assert self._index(ev, "center_measure") < self._index(ev, "bob_measure")

    def test_parties_first_in_ghz3(self):
        tr = run_session(SessionConfig(ProtocolId.GHZ3, 200, rng_seed=2))
        ev = tr.events
        for party_event in ("alice_measure", "bob_measure", "send_basis"):
            assert self._index(ev, party_event) < self._index(ev, "center_measure")

    def test_event_sequence_numbers(self):
        tr = run_session(SessionConfig(ProtocolId.BELL4, 100, rng_seed=2))
        assert [e["seq"] for e in tr.events] == list(range(len(tr.events)))


class TestChannelLosses:
    @pytest.mark.parametrize("loss_a, loss_b", [
        (0.0, 0.0), (1.0, 1.0), (0.0, 0.3), (0.3, 0.3), (0.5, 0.5), (0.02, 0.2), (0.3, 0.0),
        (1.0, 0.0), (0.0, 1.0), (0.9, 0.1)])
    def test_lost_where_either_leg_lost(self, loss_a, loss_b):
        """The channel stream draws random(n) for Alice's leg, then
        random(n) for Bob's; a position is lost where either leg's draw
        falls under its loss.  A config whose legs leave less than one
        unchecked position in expectation is refused, at the small n."""
        for seed, n in enumerate([2, 3, 4, 17, 1000, 4001]):
            channel = numpy_stream(seed, protocols._STREAM_CHANNEL)
            alice, bob = channel.random(n), channel.random(n)
            kwargs = dict(check_fraction=0.01, loss_probability=(loss_a, loss_b), rng_seed=seed)
            if 0 < (1 - 0.01) * n * ((1 - loss_a) * (1 - loss_b)) < 1:
                with pytest.raises(ValueError, match="no unchecked positions in expectation"):
                    SessionConfig(ProtocolId.GHZ3, n, **kwargs)
                continue
            lost = run_session(SessionConfig(ProtocolId.GHZ3, n, **kwargs)).positions.column("lost")
            assert lost.dtype == bool
            assert lost.tolist() == [a < loss_a or b < loss_b for a, b in zip(alice, bob)]

    @pytest.mark.parametrize("loss_a, loss_b, draws", [
        (0.0, 0.0, 0), (0.3, 0.0, 1), (0.0, 0.3, 2), (0.3, 0.2, 2), (1.0, 0.0, 0), (0.0, 1.0, 0),
        (1.0, 1.0, 0), (0.3, 1.0, 1), (1.0, 0.3, 2)])
    def test_a_leg_at_zero_or_one_draws_nothing(self, monkeypatch, loss_a, loss_b, draws):
        """A leg at loss 0 or 1 needs no draw, except Alice's when Bob's
        leg draws: his leg reads doubles n..2n-1 of the channel stream
        either way.  The lost column is the two-draw one in every case."""
        calls = []
        real = protocols._session_streams

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def random(self, size):
                calls.append(size)
                return self.rng.random(size)

        def streams(seed, keys):
            rngs, pa_seed, rec_seed = real(seed, keys)
            rngs[protocols._STREAM_CHANNEL] = Counting(rngs[protocols._STREAM_CHANNEL])
            return rngs, pa_seed, rec_seed

        n, seed = 1000, 3
        channel = numpy_stream(seed, protocols._STREAM_CHANNEL)
        alice, bob = channel.random(n), channel.random(n)
        monkeypatch.setattr(protocols, "_session_streams", streams)
        config = SessionConfig(ProtocolId.GHZ3, n, check_fraction=0.01,
                               loss_probability=(loss_a, loss_b), rng_seed=seed)
        lost = run_session(config).positions.column("lost")
        assert calls == [n] * draws
        assert lost.dtype == bool
        assert lost.tolist() == [a < loss_a or b < loss_b for a, b in zip(alice, bob)]
        if 1.0 in (loss_a, loss_b):
            assert lost.all()


class TestPositions:
    CONFIG =SessionConfig(ProtocolId.GHZ2, 500, loss_probability=0.2, rng_seed=5,
                           qber_abort_threshold=0.5, attack=InterceptResend())

    def test_sequence_behaviour(self):
        positions = run_session(self.CONFIG).positions
        records = list(positions)
        assert len(positions) == len(records) == 500
        assert [p.index for p in records] == list(range(500))
        assert positions[-1] == records[-1] and positions[-500] == records[0]
        assert positions[3] == records[3]
        for bad in (500, -501):
            with pytest.raises(IndexError):
                positions[bad]
        assert positions[10:20] == records[10:20]
        assert positions[::-7] == records[::-7]
        assert positions[490:600] == records[490:]
        assert positions[5:5] == []
        lost = [p for p in records if p.lost]
        assert lost and all(p.alice_basis is p.bob_outcome is p.center_announcement is None
                            for p in lost)

    def test_equal_between_runs_of_one_seed(self):
        first, second = run_session(self.CONFIG), run_session(self.CONFIG)
        assert list(first.positions) == list(second.positions)
        assert first.positions == second.positions
        assert first == second
        other = run_session(replace(self.CONFIG, rng_seed=6))
        assert first.positions != other.positions

    def test_adversary_records(self):
        tr = run_session(self.CONFIG)
        records = tr.adversary["records"]
        arrived = [p.index for p in tr.positions if not p.lost]
        assert [r["position"] for r in records] == arrived
        assert records[-1] == list(records)[-1]
        assert set(records[0]) == {"position", "basis_used", "outcome", "inferred_bit"}


class TestSessionStreams:
    # Seeds of one and two 32-bit words at their edges, and a seeded
    # sample cut to every even bit length.
    SAMPLE = np.random.default_rng(20261022).integers(2**64, size=32, dtype=np.uint64)
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1,
             *(int(x) >> shift for x, shift in zip(SAMPLE, range(0, 64, 2)))]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_streams_are_numpys_spawned_streams(self, seed):
        """`_session_streams` mixes the seed once and finishes numpy's
        SeedSequence per key in Python: every generator's state and the
        post-processing words equal those of numpy's own spawned
        sequences."""
        keys = range(protocols._STREAM_POSTPROC)
        rngs, pa_seed, rec_seed = protocols._session_streams(seed, keys)
        assert list(rngs) == list(keys)
        for key in keys:
            assert rngs[key].bit_generator.state == numpy_stream(seed, key).bit_generator.state
        postproc = np.random.SeedSequence(seed, spawn_key=(protocols._STREAM_POSTPROC,))
        assert [pa_seed, rec_seed] == postproc.generate_state(2, np.uint64).tolist()


class TestDeterminismAndSerialization:
    def test_identical_configs_identical_transcripts(self):
        cfg = SessionConfig(ProtocolId.GHZ2, 1500, loss_probability=0.1, rng_seed=77)
        assert transcript_to_json(run_session(cfg)) == transcript_to_json(run_session(cfg))

    def test_different_seeds_differ(self):
        a = run_session(SessionConfig(ProtocolId.GHZ2, 1500, rng_seed=1))
        b = run_session(SessionConfig(ProtocolId.GHZ2, 1500, rng_seed=2))
        assert transcript_to_json(a) != transcript_to_json(b)

    def test_json_document_shape(self):
        cfg = SessionConfig(ProtocolId.BELL5, 300, loss_probability=0.1, rng_seed=6)
        doc = json.loads(transcript_to_json(run_session(cfg)))
        assert doc["schema_version"] == 4
        assert doc["config"]["protocol"] == "BELL5"
        positions = doc["positions"]
        assert positions["bases"] == ["X", "Y", "Z"] and positions["outcomes"] == ["+", "-"]
        assert all(set(a) == {"label"} for a in positions["announcements"])
        columns = {key: positions[key] for key in protocols._Positions.names}
        assert all(len(column) == 300 for column in columns.values())
        assert set(columns["lost"]) == {"0", "1"}
        # A prepared pair's label is announced whether or not it arrived.
        assert set(columns["center_announcement"]) <= set("0123")
        lost = [i for i, c in enumerate(columns["lost"]) if c == "1"]
        assert all(columns["alice_basis"][i] == columns["bob_outcome"][i] == "-" for i in lost)
        assert doc["baseline_time_reserved"] == 0.125
        json.dumps(doc)  # round-trippable

    def test_ghz_announcement_shape(self):
        doc = json.loads(transcript_to_json(run_session(SessionConfig(ProtocolId.GHZ2, 50, rng_seed=6))))
        positions = doc["positions"]
        assert positions["announcements"] == [{"basis": b, "outcome": o}
                                              for b in "XY" for o in "+-"]
        assert set(positions["center_announcement"]) <= set("0123")

    def test_summary_csv(self):
        tr = run_session(SessionConfig(ProtocolId.GHZ1, 500, rng_seed=11))
        row = summary_csv_row(tr)
        fields = row.split(",")
        assert len(fields) == len(SUMMARY_CSV_HEADER.split(","))
        assert SUMMARY_CSV_HEADER.split(",") == list(tr.summary)
        assert fields[0] == "GHZ1"
        assert fields[4] == "none"


class TestKeyAgreementGrid:
    @pytest.mark.parametrize("protocol", list(ProtocolId))
    @pytest.mark.parametrize("loss", [0.0, 0.1, 0.5])
    def test_agreement(self, protocol, loss):
        tr = run_session(SessionConfig(protocol, 1200, loss_probability=loss, rng_seed=33))
        assert tr.check_report.error_count == 0
        assert tr.alice_final_key == tr.bob_final_key
