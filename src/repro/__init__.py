"""repro — reproduction of the FACS fuzzy call-admission-control system.

Reference: L. Barolli, F. Xhafa, A. Durresi, A. Koyama,
"A Fuzzy-based Call Admission Control System for Wireless Cellular Networks",
ICDCS Workshops 2007.

Package layout
--------------
``repro.fuzzy``
    From-scratch fuzzy-logic toolkit (membership functions, rules, Mamdani
    inference, defuzzification, controllers).
``repro.des``
    From-scratch discrete-event simulation kernel (environment, processes,
    seeded random streams).
``repro.cellular``
    Cellular-network substrate (hex geometry, base stations, mobility,
    traffic classes, calls, handoffs, metrics).
``repro.cac``
    Admission controllers: the paper's FACS, the SCC baseline and classic
    non-fuzzy baselines.
``repro.simulation``
    Experiment engine: single-cell batch runs (Figs. 7-10), multi-cell
    network runs, sweeps and result aggregation.
``repro.experiments``
    One entry point per paper table/figure plus ablations.
``repro.analysis``
    Statistics, ASCII tables/plots, CSV/JSON export.
``repro.api``
    The canonical entry point: declarative, serializable ``Scenario``
    objects, string-keyed registries (controllers, executors,
    scenarios) and the ``Runner`` facade returning ``RunReport`` objects.
"""

from .cac import (
    AdmissionController,
    AdmissionDecision,
    CompleteSharingController,
    FACSConfig,
    FuzzyAdmissionControlSystem,
    GuardChannelController,
    SCCConfig,
    ShadowClusterController,
    ThresholdPolicyController,
)
from .cellular import (
    Call,
    CallType,
    CellularNetwork,
    PAPER_BANDWIDTH_UNITS,
    PAPER_TRAFFIC_MIX,
    ServiceClass,
    UserProfile,
    UserState,
)
from .api import Runner, RunReport, Scenario
from .fuzzy import FuzzyController, LinguisticVariable, Term, Triangular, Trapezoidal
from .simulation import (
    BatchExperimentConfig,
    NetworkExperimentConfig,
    run_batch_experiment,
    run_network_experiment,
    run_acceptance_sweep,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # unified scenario API
    "Runner",
    "RunReport",
    "Scenario",
    # admission control
    "AdmissionController",
    "AdmissionDecision",
    "FuzzyAdmissionControlSystem",
    "FACSConfig",
    "ShadowClusterController",
    "SCCConfig",
    "CompleteSharingController",
    "GuardChannelController",
    "ThresholdPolicyController",
    # cellular substrate
    "Call",
    "CallType",
    "CellularNetwork",
    "ServiceClass",
    "UserState",
    "UserProfile",
    "PAPER_TRAFFIC_MIX",
    "PAPER_BANDWIDTH_UNITS",
    # fuzzy toolkit
    "FuzzyController",
    "LinguisticVariable",
    "Term",
    "Triangular",
    "Trapezoidal",
    # simulation
    "BatchExperimentConfig",
    "NetworkExperimentConfig",
    "run_batch_experiment",
    "run_network_experiment",
    "run_acceptance_sweep",
]
