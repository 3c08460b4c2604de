"""The fuzzy-logic core of FLC1 and FLC2, built from scratch.

Provides exactly what an :class:`~repro.fuzzy.definition.FLCDefinition` can
say: triangular and trapezoidal membership functions, linguistic variables,
conjunctive rules with weights, Mamdani inference (MIN conjunction, each
consequent CLIPped at its rule's strength, MAX aggregation: the paper's
operators, and the only ones the engines run) and defuzzification.
"""

from .membership import (
    MembershipFunction,
    Trapezoidal,
    Triangular,
    paper_trapezoidal,
    paper_triangular,
)
from .variables import FuzzificationResult, LinguisticVariable, Term
from .rules import Consequent, FuzzyRule, Proposition, RuleBase
from .defuzzification import (
    Bisector,
    Centroid,
    DefuzzificationError,
    Defuzzifier,
    LargestOfMaximum,
    MeanOfMaximum,
    SmallestOfMaximum,
    WeightedAverage,
    defuzzifier_by_name,
)
from .inference import (
    InferenceResult,
    MamdaniEngine,
    RuleActivation,
)
from .compiled import CompiledMamdaniEngine, CrispInference
from .controller import FuzzyController

__all__ = [
    # membership
    "MembershipFunction",
    "Triangular",
    "Trapezoidal",
    "paper_triangular",
    "paper_trapezoidal",
    # variables
    "Term",
    "LinguisticVariable",
    "FuzzificationResult",
    # rules
    "Proposition",
    "Consequent",
    "FuzzyRule",
    "RuleBase",
    # defuzzification
    "Defuzzifier",
    "Centroid",
    "Bisector",
    "MeanOfMaximum",
    "SmallestOfMaximum",
    "LargestOfMaximum",
    "WeightedAverage",
    "defuzzifier_by_name",
    "DefuzzificationError",
    # inference
    "MamdaniEngine",
    "InferenceResult",
    "RuleActivation",
    # compiled fast path
    "CompiledMamdaniEngine",
    "CrispInference",
    # controller
    "FuzzyController",
]
