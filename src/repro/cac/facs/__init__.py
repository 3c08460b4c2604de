"""FACS — the paper's Fuzzy Admission Control System (FLC1 + FLC2)."""

from .frb1 import FRB1_TABLE
from .frb2 import FRB2_TABLE
from .flc1 import FLC1, CorrectionResult
from .flc2 import FLC2, DecisionResult
from .system import FACSConfig, FuzzyAdmissionControlSystem

__all__ = [
    "FRB1_TABLE",
    "FRB2_TABLE",
    "FLC1",
    "CorrectionResult",
    "FLC2",
    "DecisionResult",
    "FACSConfig",
    "FuzzyAdmissionControlSystem",
]
