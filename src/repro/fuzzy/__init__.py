"""A self-contained fuzzy-logic toolkit (replacement for scikit-fuzzy).

Provides membership functions, linguistic variables, conjunctive rules,
Mamdani inference and defuzzification — everything FLC1 and FLC2 of the
paper's FACS system need, built from scratch.
"""

from .membership import (
    ConstantMF,
    Gaussian,
    GeneralizedBell,
    MembershipFunction,
    PiShape,
    PiecewiseLinear,
    Sigmoid,
    Singleton,
    SShape,
    Trapezoidal,
    Triangular,
    ZShape,
    paper_trapezoidal,
    paper_triangular,
)
from .operators import (
    BOUNDED_SUM,
    LUKASIEWICZ_AND,
    MAXIMUM,
    MINIMUM,
    PROBABILISTIC_SUM,
    PRODUCT,
    SNorm,
    TNorm,
    snorm_by_name,
    tnorm_by_name,
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
    ImplicationMethod,
    InferenceResult,
    MamdaniEngine,
    RuleActivation,
)
from .compiled import CompiledMamdaniEngine, CrispInference
from .controller import (
    ENGINES,
    EngineSpec,
    FuzzyController,
)

__all__ = [
    # membership
    "MembershipFunction",
    "Triangular",
    "Trapezoidal",
    "Gaussian",
    "GeneralizedBell",
    "Sigmoid",
    "ZShape",
    "SShape",
    "PiShape",
    "Singleton",
    "PiecewiseLinear",
    "ConstantMF",
    "paper_triangular",
    "paper_trapezoidal",
    # operators
    "TNorm",
    "SNorm",
    "MINIMUM",
    "PRODUCT",
    "LUKASIEWICZ_AND",
    "MAXIMUM",
    "PROBABILISTIC_SUM",
    "BOUNDED_SUM",
    "tnorm_by_name",
    "snorm_by_name",
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
    "ImplicationMethod",
    # compiled fast path
    "CompiledMamdaniEngine",
    "CrispInference",
    # controller
    "FuzzyController",
    "ENGINES",
    "EngineSpec",
]
