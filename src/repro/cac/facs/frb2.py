"""FRB2 — the 27-rule fuzzy rule base of FLC2 (Table 2 of the paper).

Transcribed verbatim from Table 2: rule index, correction-value term (Bad /
Normal / Good), request term (Text / Voice / Video), counter-state term
(Small / Middle / Full) and the accept/reject consequent (R / WR / NRNA /
WA / A).  :func:`~repro.cac.facs.definitions.flc2_definition` makes one
conjunctive rule of each row, labelled with its index.
"""

from __future__ import annotations

__all__ = ["FRB2_TABLE"]

#: Table 2 of the paper: (rule index, Cv, R, Cs, A/R).
FRB2_TABLE: tuple[tuple[int, str, str, str, str], ...] = (
    (0, "B", "T", "S", "A"),
    (1, "B", "T", "M", "NRNA"),
    (2, "B", "T", "F", "NRNA"),
    (3, "B", "Vo", "S", "A"),
    (4, "B", "Vo", "M", "NRNA"),
    (5, "B", "Vo", "F", "WR"),
    (6, "B", "Vi", "S", "WA"),
    (7, "B", "Vi", "M", "NRNA"),
    (8, "B", "Vi", "F", "WR"),
    (9, "N", "T", "S", "A"),
    (10, "N", "T", "M", "NRNA"),
    (11, "N", "T", "F", "NRNA"),
    (12, "N", "Vo", "S", "A"),
    (13, "N", "Vo", "M", "NRNA"),
    (14, "N", "Vo", "F", "NRNA"),
    (15, "N", "Vi", "S", "WA"),
    (16, "N", "Vi", "M", "NRNA"),
    (17, "N", "Vi", "F", "NRNA"),
    (18, "G", "T", "S", "A"),
    (19, "G", "T", "M", "A"),
    (20, "G", "T", "F", "NRNA"),
    (21, "G", "Vo", "S", "A"),
    (22, "G", "Vo", "M", "A"),
    (23, "G", "Vo", "F", "WR"),
    (24, "G", "Vi", "S", "A"),
    (25, "G", "Vi", "M", "A"),
    (26, "G", "Vi", "F", "R"),
)

