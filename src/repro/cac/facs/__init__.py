"""FACS — the paper's Fuzzy Admission Control System (FLC1 + FLC2)."""

from .config import (
    DEFAULT_FLC1_CONFIG,
    DEFAULT_FLC2_CONFIG,
    FLC1Config,
    FLC2Config,
)
from .frb1 import FRB1_TABLE, frb1_rules
from .frb2 import FRB2_TABLE, frb2_rules
from .flc1 import FLC1, CorrectionResult
from .flc2 import FLC2, DecisionResult
from .system import FACSConfig, FuzzyAdmissionControlSystem

__all__ = [
    "FLC1Config",
    "FLC2Config",
    "DEFAULT_FLC1_CONFIG",
    "DEFAULT_FLC2_CONFIG",
    "FRB1_TABLE",
    "frb1_rules",
    "FRB2_TABLE",
    "frb2_rules",
    "FLC1",
    "CorrectionResult",
    "FLC2",
    "DecisionResult",
    "FACSConfig",
    "FuzzyAdmissionControlSystem",
]
