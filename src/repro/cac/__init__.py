"""Call admission control algorithms: FACS, SCC and classic baselines."""

from .base import AdmissionController, AdmissionDecision, DecisionOutcome
from .complete_sharing import CompleteSharingController
from .guard_channel import GuardChannelConfig, GuardChannelController
from .threshold_policy import ThresholdPolicyConfig, ThresholdPolicyController
from .facs import FACSConfig, FLC1, FLC2, FuzzyAdmissionControlSystem
from .scc import ProjectionConfig, SCCConfig, ShadowClusterController

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "DecisionOutcome",
    "CompleteSharingController",
    "GuardChannelController",
    "GuardChannelConfig",
    "ThresholdPolicyController",
    "ThresholdPolicyConfig",
    "FuzzyAdmissionControlSystem",
    "FACSConfig",
    "FLC1",
    "FLC2",
    "ShadowClusterController",
    "SCCConfig",
    "ProjectionConfig",
]
