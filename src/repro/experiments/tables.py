"""Tables 1 & 2 and the membership-function figures (Figs. 5 and 6).

These artifacts are static (they describe the controller, not a workload), so
"reproducing" them means rendering our FRB1/FRB2 and membership
configurations in the paper's layout and cross-checking them against the
transcribed tables.
"""

from __future__ import annotations

from ..analysis.plotting import ascii_membership_plot
from ..analysis.tables import format_table
from ..cac.facs.flc1 import FLC1
from ..cac.facs.flc2 import FLC2
from ..cac.facs.frb1 import FRB1_TABLE
from ..cac.facs.frb2 import FRB2_TABLE

__all__ = [
    "render_frb1",
    "render_frb2",
    "render_flc1_memberships",
    "render_flc2_memberships",
]


def render_frb1() -> str:
    """Render Table 1 (FRB1) in the paper's column layout."""
    rows = [[index, s, a, d, cv] for index, s, a, d, cv in FRB1_TABLE]
    return format_table(
        ["Rule", "S", "A", "D", "Cv"], rows, title="Table 1 — FRB1 (42 rules)"
    )


def render_frb2() -> str:
    """Render Table 2 (FRB2) in the paper's column layout."""
    rows = [[index, cv, r, cs, ar] for index, cv, r, cs, ar in FRB2_TABLE]
    return format_table(
        ["Rule", "Cv", "R", "Cs", "A/R"], rows, title="Table 2 — FRB2 (27 rules)"
    )


def render_flc1_memberships(points: int = 25) -> str:
    """Render the four FLC1 membership-function panels of Fig. 5 as ASCII plots."""
    flc1 = FLC1()
    sections: list[str] = []
    for variable, title in (
        ("S", "Fig. 5(a) — speed terms (km/h)"),
        ("A", "Fig. 5(b) — angle terms (degrees)"),
        ("D", "Fig. 5(c) — distance terms (km)"),
        ("Cv", "Fig. 5(d) — correction value terms"),
    ):
        samples = flc1.controller.membership_table(variable, points=points)
        sections.append(ascii_membership_plot(samples, title=title))
    return "\n\n".join(sections)


def render_flc2_memberships(points: int = 25) -> str:
    """Render the four FLC2 membership-function panels of Fig. 6 as ASCII plots."""
    flc2 = FLC2()
    sections: list[str] = []
    for variable, title in (
        ("Cv", "Fig. 6(a) — correction value terms"),
        ("R", "Fig. 6(b) — request terms (BU)"),
        ("Cs", "Fig. 6(c) — counter state terms (BU)"),
        ("AR", "Fig. 6(d) — accept/reject terms"),
    ):
        samples = flc2.controller.membership_table(variable, points=points)
        sections.append(ascii_membership_plot(samples, title=title))
    return "\n\n".join(sections)
