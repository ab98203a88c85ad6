import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from tcqkd import protocols
from tcqkd.adversary import InterceptResend, NoAttack
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
    transcript_to_json_dict,
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
        """Every compiled leaf's kept flag is the paper's rule; off the
        pool keep_rule refuses."""
        table = protocols._compile(protocol, NoAttack())
        rule = PAPER_RULES[protocol][1]
        for ann, a, b, _, _, kept in table.leaves[:6].T.tolist():
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

    def test_expected_unchecked_guard(self):
        with pytest.raises(ValueError):
            SessionConfig(ProtocolId.GHZ1, 2, check_fraction=0.9)

    def test_total_erasure_allowed(self):
        SessionConfig(ProtocolId.GHZ1, 100, loss_probability=1.0)


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


def scalar_channel_losses(draws, n, loss_a, loss_b):
    """The erasure walk one position at a time: Bob's leg draws only
    when Alice's particle arrived."""
    lost, j = [], 0
    for _ in range(n):
        if draws[j] < loss_a:
            lost.append(True)
            j += 1
        else:
            lost.append(bool(draws[j + 1] < loss_b))
            j += 2
    return lost


class TestChannelLosses:
    @pytest.mark.parametrize("loss_a, loss_b", [
        (0.0, 0.0), (1.0, 1.0), (0.0, 0.3), (0.3, 0.3), (0.5, 0.5), (0.02, 0.2), (0.3, 0.0),
        (1.0, 0.0), (0.0, 1.0), (0.9, 0.1)])
    def test_equals_the_scalar_walk(self, loss_a, loss_b):
        for seed, n in enumerate([1, 2, 3, 17, 1000, 4001]):
            draws = np.random.default_rng(seed).random(2 * n)
            lost = protocols._channel_losses(np.random.default_rng(seed), n, loss_a, loss_b)
            assert lost.dtype == bool
            assert lost.tolist() == scalar_channel_losses(draws, n, loss_a, loss_b)


class TestPositions:
    CONFIG = SessionConfig(ProtocolId.GHZ2, 500, loss_probability=0.2, rng_seed=5,
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
        doc = transcript_to_json_dict(run_session(cfg))
        assert doc["schema_version"] == 2
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
        doc = transcript_to_json_dict(run_session(SessionConfig(ProtocolId.GHZ2, 50, rng_seed=6)))
        positions = doc["positions"]
        assert positions["announcements"] == [{"basis": b, "outcome": o}
                                              for b in "XY" for o in "+-"]
        assert set(positions["center_announcement"]) <= set("0123")

    def test_summary_csv(self):
        tr = run_session(SessionConfig(ProtocolId.GHZ1, 500, rng_seed=11))
        row = summary_csv_row(tr)
        fields = row.split(",")
        assert len(fields) == len(SUMMARY_CSV_HEADER.split(","))
        assert fields[0] == "GHZ1"
        assert fields[3] == "none"


class TestKeyAgreementGrid:
    @pytest.mark.parametrize("protocol", list(ProtocolId))
    @pytest.mark.parametrize("loss", [0.0, 0.1, 0.5])
    def test_agreement(self, protocol, loss):
        tr = run_session(SessionConfig(protocol, 1200, loss_probability=loss, rng_seed=33))
        assert tr.check_report.error_count == 0
        assert tr.alice_final_key == tr.bob_final_key
