"""The interpreted engine the compiled one is held equal to.

Every :class:`~repro.fuzzy.controller.FuzzyController` runs a
:class:`~repro.fuzzy.compiled.CompiledMamdaniEngine`.  Its base class,
:class:`~repro.fuzzy.inference.MamdaniEngine`, interprets the rule base one
rule at a time and is the oracle: :func:`reference_engine` builds it over a
controller's own rule base and defuzzifier.
"""

from __future__ import annotations

from repro.fuzzy import FuzzyController, MamdaniEngine


def reference_engine(controller: FuzzyController) -> MamdaniEngine:
    """The interpreted twin of ``controller``'s compiled engine."""
    return MamdaniEngine(controller.rule_base, defuzzifier=controller.engine.defuzzifier)


def reference_compute(controller: FuzzyController, **inputs: float) -> float:
    """``controller.compute(**inputs)``, answered by the interpreted engine."""
    (output,) = controller.output_names
    return reference_engine(controller).infer(inputs)[output]
