import dataclasses
import hashlib

import numpy as np
import pytest

from tcqkd.cli import main

from tcqkd.qstate import (
    Basis,
    Outcome,
    TableScenario,
    TwoQubitLabel,
    announcement_str,
    derive_correlation_table,
    table_to_csv,
    table_to_text,
)

import oracle

P, M = Outcome.PLUS, Outcome.MINUS
X, Y, Z = Basis.X, Basis.Y, Basis.Z

def cells(table):
    """{(announcement, alice_basis, alice_outcome): entry} over a table's entries."""
    return {(e.announcement, e.alice_basis, e.alice_outcome): e for e in table.entries}


def oracle_pair(announcement):
    """(Alice, Bob) pair via the independent projection route."""
    if isinstance(announcement, TwoQubitLabel):
        return oracle.PAIRS[announcement.value]
    basis, out = announcement
    _, pair = oracle.project(oracle.GHZ3, 3, 0, oracle.EIGEN[(basis.value, out.value)])
    return pair


def oracle_entry(announcement, alice_basis, alice_outcome):
    pair = oracle_pair(announcement)
    _, bob = oracle.project(pair, 2, 0, oracle.EIGEN[(alice_basis.value, alice_outcome.value)])
    return oracle.deterministic_outcome(bob)


class TestDerivedTablesAgainstOracle:
    @pytest.mark.parametrize("scenario", list(TableScenario))
    def test_every_entry_matches_independent_projection(self, scenario):
        table = derive_correlation_table(scenario)
        assert len(table.entries) == 16
        for e in table.entries:
            expected = oracle_entry(e.announcement, e.alice_basis, e.alice_outcome)
            assert e.deterministic
            assert (e.bob_basis.value, e.bob_outcome.value) == expected

    def test_alice_marginals_are_uniform(self):
        # Announcements alone never fix a party's outcome.
        table = derive_correlation_table(TableScenario.GHZ_TABLE_III)
        for e in table.entries:
            pair = oracle_pair(e.announcement)
            p, _ = oracle.project(pair, 2, 0, oracle.EIGEN[(e.alice_basis.value, e.alice_outcome.value)])
            assert abs(p - 0.5) <= 1e-12


class TestReferenceComparison:
    def test_bell_table_all_match(self):
        table = derive_correlation_table(TableScenario.BELL_TABLE_I)
        assert all(e.matches_paper for e in table.entries)

    def test_mixed_table_all_match(self):
        table = derive_correlation_table(TableScenario.MIXED_TABLE_II)
        assert all(e.matches_paper for e in table.entries)

    def test_ghz_table_has_exactly_one_flagged_entry(self):
        table = derive_correlation_table(TableScenario.GHZ_TABLE_III)
        flagged = table.discrepancies()
        assert len(flagged) == 1
        e = flagged[0]
        assert e.announcement == (Y, M)
        assert (e.alice_basis, e.alice_outcome) == (Y, P)
        assert (e.bob_basis, e.bob_outcome) == (X, P)  # derived, against printed x-

    @pytest.mark.parametrize(
        "announcement,alice,expected_bob",
        [
            # spot rows straight off the reference layouts
            (TwoQubitLabel.PSI_PLUS, (X, P), (X, P)),
            (TwoQubitLabel.PHI_MINUS, (X, M), (X, P)),
            (TwoQubitLabel.COMB_PHI_MINUS, (X, P), (Z, M)),
            (TwoQubitLabel.COMB_PSI_PLUS, (Z, M), (X, M)),
        ],
    )
    def test_reference_spot_checks(self, announcement, alice, expected_bob):
        scenario = (
            TableScenario.BELL_TABLE_I
            if announcement in (TwoQubitLabel.PSI_PLUS, TwoQubitLabel.PHI_MINUS)
            else TableScenario.MIXED_TABLE_II
        )
        e = cells(derive_correlation_table(scenario))[(announcement, *alice)]
        assert (e.bob_basis, e.bob_outcome) == expected_bob
        assert e.matches_paper

    def test_bell_table_holds_no_bell5_label(self):
        table = derive_correlation_table(TableScenario.BELL_TABLE_I)
        assert all(e.announcement is not TwoQubitLabel.COMB_PSI_PLUS for e in table.entries)

    def test_ghz_spot_checks(self):
        table = cells(derive_correlation_table(TableScenario.GHZ_TABLE_III))
        e = table[((X, M), Y, P)]
        assert (e.bob_basis, e.bob_outcome) == (Y, P)
        e = table[((Y, P), Y, P)]
        assert (e.bob_basis, e.bob_outcome) == (X, M)


class TestExports:
    def test_csv_shape_and_columns(self):
        csv = table_to_csv(derive_correlation_table(TableScenario.BELL_TABLE_I))
        lines = csv.strip().split("\n")
        assert lines[0] == ("scenario,center,alice_basis,alice_outcome,bob_basis,"
                            "bob_outcome,deterministic,matches_paper")
        assert len(lines) == 17
        assert all(line.endswith("true") for line in lines[1:])

    def test_csv_flags_ghz_discrepancy(self):
        csv = table_to_csv(derive_correlation_table(TableScenario.GHZ_TABLE_III))
        lines = csv.strip().split("\n")[1:]
        false_rows = [l for l in lines if l.endswith("false")]
        assert len(false_rows) == 1
        assert false_rows[0].startswith("GhzTableIII,y-,Y,+,X,+")

    def test_text_layout(self):
        text = table_to_text(derive_correlation_table(TableScenario.MIXED_TABLE_II))
        lines = text.strip().split("\n")
        assert lines[0] == "MixedTableII"
        assert lines[1].split() == ["Center", "Phi+", "Psi-", "phi-", "psi+"]
        # four Alice/Bob row pairs
        assert sum(1 for l in lines if l.startswith("Alice")) == 4
        assert sum(1 for l in lines if l.startswith("Bob")) == 4
        assert "*" not in text

    def test_text_marks_ghz_discrepancy(self):
        text = table_to_text(derive_correlation_table(TableScenario.GHZ_TABLE_III))
        assert "x+*" in text

    def test_text_writes_an_undetermined_entry_as_question_mark(self):
        table = derive_correlation_table(TableScenario.BELL_TABLE_I)
        first = dataclasses.replace(table.entries[0], bob_basis=None, bob_outcome=None,
                                    deterministic=False, matches_paper=False)
        text = table_to_text(dataclasses.replace(table, entries=(first, *table.entries[1:])))
        bob_lines = [l for l in text.split("\n") if l.startswith("Bob")]
        assert bob_lines[0].split() == ["Bob", "?*", "x-", "x+", "x-"]
        assert text.endswith("* 1 entry disagree(s) with the reference table\n")

    @pytest.mark.parametrize("fmt,digest", [
        ("text", "4986bffaa1c7f048c05beccf54ba4da2908003a485289d69654c8fa4876df834"),
        ("csv", "3dd4b322562d4503fdd2563511090fa8b51291c4963c8d1691fa00bc7311952d"),
    ])
    def test_cli_tables_output_pinned(self, fmt, digest, capsys):
        # What `tcqkd tables all` prints, byte for byte, in each format.
        assert main(["tables", "all", "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_announcement_str(self):
        assert announcement_str((Y, M)) == "y-"
        assert announcement_str(TwoQubitLabel.COMB_PSI_PLUS) == "CombPsiPlus"
