"""FRB1 — the 42-rule fuzzy rule base of FLC1 (Table 1 of the paper).

The table is transcribed verbatim: rule index, speed term, angle term,
distance term and the correction-value consequent.
:func:`~repro.cac.facs.definitions.flc1_definition` makes one conjunctive
rule of each row, labelled with its index.
"""

from __future__ import annotations

__all__ = ["FRB1_TABLE"]

#: Table 1 of the paper: (rule index, S, A, D, Cv).
FRB1_TABLE: tuple[tuple[int, str, str, str, str], ...] = (
    (0, "Sl", "B1", "N", "Cv3"),
    (1, "Sl", "B1", "F", "Cv1"),
    (2, "Sl", "L1", "N", "Cv4"),
    (3, "Sl", "L1", "F", "Cv2"),
    (4, "Sl", "L2", "N", "Cv5"),
    (5, "Sl", "L2", "F", "Cv3"),
    (6, "Sl", "St", "N", "Cv9"),
    (7, "Sl", "St", "F", "Cv3"),
    (8, "Sl", "R1", "N", "Cv5"),
    (9, "Sl", "R1", "F", "Cv2"),
    (10, "Sl", "R2", "N", "Cv4"),
    (11, "Sl", "R2", "F", "Cv2"),
    (12, "Sl", "B2", "N", "Cv3"),
    (13, "Sl", "B2", "F", "Cv1"),
    (14, "M", "B1", "N", "Cv2"),
    (15, "M", "B1", "F", "Cv1"),
    (16, "M", "L1", "N", "Cv4"),
    (17, "M", "L1", "F", "Cv1"),
    (18, "M", "L2", "N", "Cv8"),
    (19, "M", "L2", "F", "Cv5"),
    (20, "M", "St", "N", "Cv9"),
    (21, "M", "St", "F", "Cv7"),
    (22, "M", "R1", "N", "Cv8"),
    (23, "M", "R1", "F", "Cv5"),
    (24, "M", "R2", "N", "Cv4"),
    (25, "M", "R2", "F", "Cv1"),
    (26, "M", "B2", "N", "Cv2"),
    (27, "M", "B2", "F", "Cv1"),
    (28, "Fa", "B1", "N", "Cv1"),
    (29, "Fa", "B1", "F", "Cv1"),
    (30, "Fa", "L1", "N", "Cv1"),
    (31, "Fa", "L1", "F", "Cv2"),
    (32, "Fa", "L2", "N", "Cv6"),
    (33, "Fa", "L2", "F", "Cv8"),
    (34, "Fa", "St", "N", "Cv9"),
    (35, "Fa", "St", "F", "Cv9"),
    (36, "Fa", "R1", "N", "Cv6"),
    (37, "Fa", "R1", "F", "Cv8"),
    (38, "Fa", "R2", "N", "Cv1"),
    (39, "Fa", "R2", "F", "Cv2"),
    (40, "Fa", "B2", "N", "Cv1"),
    (41, "Fa", "B2", "F", "Cv1"),
)

