"""The paper's FLC1 and FLC2 as declarative definitions (Figs. 5 and 6).

:func:`flc1_definition` and :func:`flc2_definition` are the one place the
paper's membership functions and rule bases (FRB1, FRB2) are written down:
:class:`~repro.cac.facs.flc1.FLC1` and :class:`~repro.cac.facs.flc2.FLC2`
compile them when built without a definition of their own, and their JSON
exports are ``examples/controllers/flc{1,2}.json``.

The paper specifies the *shapes* (triangular/trapezoidal, Section 3) and the
universe tick marks visible in Figs. 5 and 6 but not every numeric break
point; the values here are read off those figures.  Universes (Section 4):

* ``S``  — user speed, 0–120 km/h;
* ``A``  — user heading relative to the bearing towards the BS, −180°…180°;
* ``D``  — distance between user and BS, 0–10 km;
* ``Cv`` — correction value, 0–1;
* ``R``  — requested bandwidth, 0–10 BU (text 1, voice 5, video 10);
* ``Cs`` — counter state, 0–40 BU;
* ``AR`` — the soft accept/reject decision A/R, −1…1.
"""

from __future__ import annotations

from ....cellular.traffic import PAPER_BANDWIDTH_UNITS
from ....fuzzy.definition import FLCDefinition, MembershipDef, RuleDef, TermDef, VariableDef
from ..frb1 import FRB1_TABLE
from ..frb2 import FRB2_TABLE

__all__ = [
    "flc1_definition",
    "flc2_definition",
    "builtin_definitions",
    "FLC1_VARIABLES",
    "FLC2_VARIABLES",
]

#: (input names, output names) signatures used to recognise which slot a
#: standalone definition file fills inside the two-stage FACS pipeline.
FLC1_VARIABLES: tuple[tuple[str, ...], tuple[str, ...]] = (("S", "A", "D"), ("Cv",))
FLC2_VARIABLES: tuple[tuple[str, ...], tuple[str, ...]] = (("Cv", "R", "Cs"), ("AR",))


def _tri(name: str, *params: float) -> TermDef:
    return TermDef(name, MembershipDef("triangular", params))


def _trap(name: str, *params: float) -> TermDef:
    return TermDef(name, MembershipDef("trapezoidal", params))


def _thirds(name: str, lo: float, hi: float, low: str, middle: str, high: str) -> VariableDef:
    """Three triangles on ``[lo, hi]``: a shoulder at each end, a peak in the middle."""
    mid = 0.5 * (lo + hi)
    terms = (_tri(low, lo, lo, mid), _tri(middle, lo, mid, hi), _tri(high, mid, hi, hi))
    return VariableDef(name, (lo, hi), terms)


def flc1_definition() -> FLCDefinition:
    """The paper's FLC1: the Fig. 5 memberships and FRB1 (Table 1, 42 rules).

    Speed terms (Sl, M, Fa) follow the km/h marks of Fig. 5(a): 0, 15, 30,
    60, 120.  The Slow plateau is kept narrow (0–5 km/h) because Fig. 7 of
    the paper distinguishes 4 km/h from 10 km/h walking users: with a wide
    plateau the two would be fuzzified identically and the curves would
    coincide.  The seven angle terms of Fig. 5(b) sit on the marks
    −180/−135, −90, −45, 0, 45, 90 and 135/180 degrees; B1 and B2 are the
    trapezoidal "moving away" shoulders.  Distance terms are the two ramps
    of Fig. 5(c), and the correction value has nine evenly spaced terms on
    [0, 1] (Fig. 5(d)).
    """
    speed = (
        _trap("Sl", 0.0, 0.0, 5.0, 30.0),
        _tri("M", 5.0, 30.0, 60.0),
        _trap("Fa", 30.0, 60.0, 120.0, 120.0),
    )
    angle = (
        _trap("B1", -180.0, -180.0, -135.0, -90.0),
        _tri("L1", -135.0, -90.0, -45.0),
        _tri("L2", -90.0, -45.0, 0.0),
        _tri("St", -45.0, 0.0, 45.0),
        _tri("R1", 0.0, 45.0, 90.0),
        _tri("R2", 45.0, 90.0, 135.0),
        _trap("B2", 90.0, 135.0, 180.0, 180.0),
    )
    distance = (_tri("N", 0.0, 0.0, 10.0), _tri("F", 0.0, 10.0, 10.0))
    step = 1.0 / 8
    correction = (
        _trap("Cv1", 0.0, 0.0, 0.0, step),
        *(_tri(f"Cv{k + 1}", (k - 1) * step, k * step, (k + 1) * step) for k in range(1, 8)),
        _trap("Cv9", 1.0 - step, 1.0, 1.0, 1.0),
    )
    return FLCDefinition(
        name="FLC1",
        inputs=(
            VariableDef("S", (0.0, 120.0), speed),
            VariableDef("A", (-180.0, 180.0), angle),
            VariableDef("D", (0.0, 10.0), distance),
        ),
        outputs=(VariableDef("Cv", (0.0, 1.0), correction),),
        rules=tuple(
            RuleDef((("S", s), ("A", a), ("D", d)), (("Cv", cv),), label=str(index))
            for index, s, a, d, cv in FRB1_TABLE
        ),
    )


def flc2_definition() -> FLCDefinition:
    """The paper's FLC2: the Fig. 6 memberships and FRB2 (Table 2, 27 rules).

    Cv, R and Cs each have three triangular terms (Fig. 6(a)–(c)); R peaks
    at the voice request of 5 BU and Cs spans the paper's 40 BU cell.  The
    A/R terms of Fig. 6(d) are trapezoidal at the ends (R and A, per
    Section 3.2) and triangular in the middle.
    """
    decision = (
        _trap("R", -1.0, -1.0, -1.0, -0.5),
        _tri("WR", -1.0, -0.5, 0.0),
        _tri("NRNA", -0.5, 0.0, 0.5),
        _tri("WA", 0.0, 0.5, 1.0),
        _trap("A", 0.5, 1.0, 1.0, 1.0),
    )
    return FLCDefinition(
        name="FLC2",
        inputs=(
            _thirds("Cv", 0.0, 1.0, "B", "N", "G"),
            _thirds("R", 0.0, 10.0, "T", "Vo", "Vi"),
            _thirds("Cs", 0.0, float(PAPER_BANDWIDTH_UNITS), "S", "M", "F"),
        ),
        outputs=(VariableDef("AR", (-1.0, 1.0), decision),),
        rules=tuple(
            RuleDef((("Cv", cv), ("R", r), ("Cs", cs)), (("AR", ar),), label=str(index))
            for index, cv, r, cs, ar in FRB2_TABLE
        ),
    )


def builtin_definitions() -> dict[str, FLCDefinition]:
    """Both built-in definitions keyed by the controller name."""
    return {"FLC1": flc1_definition(), "FLC2": flc2_definition()}
