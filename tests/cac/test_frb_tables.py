"""Cross-checks of FRB1 and FRB2 against Tables 1 and 2 of the paper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cac.facs.definitions import flc1_definition, flc2_definition
from repro.cac.facs.frb1 import FRB1_TABLE
from repro.cac.facs.frb2 import FRB2_TABLE
from repro.fuzzy.compiled import CompiledMamdaniEngine
from repro.fuzzy.defuzzification import Centroid
from repro.fuzzy.inference import MamdaniEngine
from repro.fuzzy.membership import Trapezoidal
from repro.fuzzy.rules import RuleBase


def rule_rows(rules) -> list[tuple]:
    """Each rule as (label, antecedent (variable, term) pairs, consequent pairs, weight)."""
    return [
        (
            rule.label,
            tuple((p.variable, p.term) for p in rule.antecedent),
            tuple((c.variable, c.term) for c in rule.consequents),
            rule.weight,
        )
        for rule in rules
    ]


def prototype(variable, term_name: str) -> float:
    """The middle of a term's core, where it alone has full membership."""
    membership = variable.term(term_name).membership
    if isinstance(membership, Trapezoidal):
        low, high = membership.core
        return 0.5 * (low + high)
    return membership.peak


def assert_row_decides_alone(base: RuleBase, index: int) -> None:
    """At its terms' prototypes, row ``index`` fires at 1 and every other
    row at 0, so MIN, CLIP and MAX leave its consequent term unchanged and
    the output is that term's centroid, on both engines and both paths."""
    rule = base[index]
    inputs = {
        p.variable: prototype(base.input_variables[p.variable], p.term)
        for p in rule.antecedent
    }
    (consequent,) = rule.consequents
    output = base.output_variables[consequent.variable]
    surface = output.sample_term(consequent.term)
    expected = Centroid()(output.grid, surface)
    strengths = [1.0 if i == index else 0.0 for i in range(len(base))]
    columns = {name: np.array([value]) for name, value in inputs.items()}
    for engine in (MamdaniEngine(base), CompiledMamdaniEngine(base)):
        result = engine.infer(inputs)
        assert [a.firing_strength for a in result.activations] == strengths
        np.testing.assert_array_equal(result.aggregated[output.name], surface)
        assert result.outputs[output.name] == expected
        batch = engine.infer_batch(columns)
        assert batch.outputs[output.name][0] == expected
        assert batch.dominant_indices[0] == index
    crisp = CompiledMamdaniEngine(base).infer_crisp(inputs)
    assert crisp.dominant_label == rule.label == str(index)
    assert crisp[output.name] == expected


def frb1_base() -> RuleBase:
    return flc1_definition().build_controller().rule_base


def frb2_base() -> RuleBase:
    return flc2_definition().build_controller().rule_base


class TestFRB1Table:
    def test_has_42_rules(self):
        """Section 3.1: |T(S)| x |T(A)| x |T(D)| = 3 x 7 x 2 = 42 rules."""
        assert len(FRB1_TABLE) == 42
        assert len(frb1_base().rules) == 42

    def test_rule_indices_are_sequential(self):
        assert [row[0] for row in FRB1_TABLE] == list(range(42))

    def test_covers_every_input_combination_exactly_once(self):
        combos = {(s, a, d) for _, s, a, d, _ in FRB1_TABLE}
        assert len(combos) == 42
        speeds = {s for _, s, _, _, _ in FRB1_TABLE}
        angles = {a for _, _, a, _, _ in FRB1_TABLE}
        distances = {d for _, _, _, d, _ in FRB1_TABLE}
        assert speeds == {"Sl", "M", "Fa"}
        assert angles == {"B1", "L1", "L2", "St", "R1", "R2", "B2"}
        assert distances == {"N", "F"}

    def test_consequents_are_valid_correction_terms(self):
        valid = {f"Cv{i}" for i in range(1, 10)}
        assert {cv for *_, cv in FRB1_TABLE} <= valid

    @pytest.mark.parametrize(
        "index,expected",
        [
            (0, ("Sl", "B1", "N", "Cv3")),
            (6, ("Sl", "St", "N", "Cv9")),
            (20, ("M", "St", "N", "Cv9")),
            (27, ("M", "B2", "F", "Cv1")),
            (34, ("Fa", "St", "N", "Cv9")),
            (35, ("Fa", "St", "F", "Cv9")),
            (41, ("Fa", "B2", "F", "Cv1")),
        ],
    )
    def test_spot_checks_against_paper_table1(self, index, expected):
        assert FRB1_TABLE[index][1:] == expected

    def test_straight_near_always_best_correction(self):
        """Heading straight at a nearby BS gets Cv9 at every speed (rules 6, 20, 34)."""
        for index, s, a, d, cv in FRB1_TABLE:
            if a == "St" and d == "N":
                assert cv == "Cv9"

    def test_moving_away_fast_gets_worst_correction(self):
        for index, s, a, d, cv in FRB1_TABLE:
            if s == "Fa" and a in ("B1", "B2"):
                assert cv == "Cv1"

    def test_rule_strings_parse_and_validate_against_variables(self):
        base = frb1_base()
        assert len(base) == 42
        assert base.is_complete()
        for rule, (index, s, a, d, cv) in zip(base, FRB1_TABLE):
            assert str(rule) == f"[{index}] IF S is {s} AND A is {a} AND D is {d} THEN Cv is {cv}"

    def test_rule_labels_match_indices(self):
        for rule, (index, *_rest) in zip(frb1_base().rules, FRB1_TABLE):
            assert rule.label == str(index)

    def test_rule_strings_mention_their_terms(self):
        assert rule_rows(frb1_base().rules) == [
            (str(index), (("S", s), ("A", a), ("D", d)), (("Cv", cv),), 1.0)
            for index, s, a, d, cv in FRB1_TABLE
        ]

    @pytest.mark.parametrize("index", range(42))
    def test_row_decides_alone_at_its_prototype(self, index):
        assert_row_decides_alone(frb1_base(), index)


class TestFRB2Table:
    def test_has_27_rules(self):
        """Section 3.2: 3 x 3 x 3 = 27 rules."""
        assert len(FRB2_TABLE) == 27
        assert len(frb2_base().rules) == 27

    def test_rule_indices_are_sequential(self):
        assert [row[0] for row in FRB2_TABLE] == list(range(27))

    def test_covers_every_input_combination_exactly_once(self):
        combos = {(cv, r, cs) for _, cv, r, cs, _ in FRB2_TABLE}
        assert len(combos) == 27
        assert {cv for _, cv, _, _, _ in FRB2_TABLE} == {"B", "N", "G"}
        assert {r for _, _, r, _, _ in FRB2_TABLE} == {"T", "Vo", "Vi"}
        assert {cs for _, _, _, cs, _ in FRB2_TABLE} == {"S", "M", "F"}

    def test_consequents_are_valid_decision_terms(self):
        assert {ar for *_, ar in FRB2_TABLE} <= {"R", "WR", "NRNA", "WA", "A"}

    @pytest.mark.parametrize(
        "index,expected",
        [
            (0, ("B", "T", "S", "A")),
            (5, ("B", "Vo", "F", "WR")),
            (8, ("B", "Vi", "F", "WR")),
            (13, ("N", "Vo", "M", "NRNA")),
            (19, ("G", "T", "M", "A")),
            (25, ("G", "Vi", "M", "A")),
            (26, ("G", "Vi", "F", "R")),
        ],
    )
    def test_spot_checks_against_paper_table2(self, index, expected):
        assert FRB2_TABLE[index][1:] == expected

    def test_small_counter_state_never_rejects(self):
        """With a nearly empty cell, Table 2 never outputs Reject or Weak Reject."""
        for _, cv, r, cs, ar in FRB2_TABLE:
            if cs == "S":
                assert ar in ("A", "WA")

    def test_only_hard_reject_is_good_video_on_full_cell(self):
        rejects = [(cv, r, cs) for _, cv, r, cs, ar in FRB2_TABLE if ar == "R"]
        assert rejects == [("G", "Vi", "F")]

    def test_rules_validate_against_flc2_variables(self):
        base = frb2_base()
        assert len(base) == 27
        assert base.is_complete()

    def test_rule_labels_match_indices(self):
        for rule, (index, *_rest) in zip(frb2_base().rules, FRB2_TABLE):
            assert rule.label == str(index)

    def test_rule_strings_reference_decision_variable(self):
        assert rule_rows(frb2_base().rules) == [
            (str(index), (("Cv", cv), ("R", r), ("Cs", cs)), (("AR", ar),), 1.0)
            for index, cv, r, cs, ar in FRB2_TABLE
        ]

    @pytest.mark.parametrize("index", range(27))
    def test_row_decides_alone_at_its_prototype(self, index):
        assert_row_decides_alone(frb2_base(), index)
