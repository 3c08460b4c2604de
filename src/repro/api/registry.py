"""The API-level registries: controllers, figures, artifacts, ablations, scenarios.

Every name a :class:`~repro.api.scenario.Scenario` can reference — an
admission controller, a figure sweep, a static paper artifact, a control
surface, an ablation study or a whole experiment id — resolves through one
of the registries below.  Together with the executor registry
(:data:`repro.simulation.EXECUTORS`) they replace the string literals that
used to be duplicated across the CLI, ``FACSConfig`` and the experiment
dispatch ladder.

Registering a new controller makes it addressable from scenario JSON
immediately:

>>> from repro.api import register_controller
>>> @register_controller("AlwaysAccept")
... def _always_accept():
...     return MyControllerFactory()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..cac.adaptive_threshold import AdaptiveThresholdController
from ..cac.complete_sharing import CompleteSharingController
from ..cac.facs.system import FACSConfig
from ..cac.guard_channel import GuardChannelController
from ..cac.mpc_lookahead import MPCLookaheadController
from ..cac.threshold_policy import ThresholdPolicyController
from ..experiments.ablations import (
    baseline_ablation,
    defuzzifier_ablation,
    threshold_ablation,
)
from ..experiments.fig7_speed import render_figure7, reproduce_figure7
from ..experiments.fig8_angle import render_figure8, reproduce_figure8
from ..experiments.fig9_distance import render_figure9, reproduce_figure9
from ..experiments.fig10_facs_vs_scc import render_figure10, reproduce_figure10
from ..experiments.surfaces import (
    flc1_surface_grid,
    flc2_surface_grid,
    render_flc1_grid,
    render_flc2_grid,
)
from ..experiments.tables import (
    render_flc1_memberships,
    render_flc2_memberships,
    render_frb1,
    render_frb2,
)
from ..registry import Registry
from ..simulation.engine import ControllerFactory
from ..simulation.scenario import facs_factory, scc_factory

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

__all__ = [
    "CONTROLLERS",
    "FIGURES",
    "ARTIFACTS",
    "SURFACES",
    "ABLATIONS",
    "SCENARIOS",
    "FigureDef",
    "SurfaceDef",
    "register_controller",
    "register_scenario",
    "controller_factory",
    "definition_controller_factory",
    "is_definition_controller",
    "DEFINITION_CONTROLLER_SUFFIX",
    "scenario_for",
    "scenario_ids",
    "DEFAULT_NETWORK_CONTROLLERS",
]

# ----------------------------------------------------------------------
# Controllers
# ----------------------------------------------------------------------
#: Builder signature: ``() -> ControllerFactory``.
ControllerBuilder = Callable[[], ControllerFactory]

CONTROLLERS: Registry[ControllerBuilder] = Registry("controller")

#: Default curve set of the multi-cell network sweep (registration order of
#: the paper's Section 4 comparison).
DEFAULT_NETWORK_CONTROLLERS: tuple[str, ...] = ("FACS", "SCC", "CS")


def register_controller(name: str, *, replace: bool = False):
    """Decorator registering a controller builder under ``name``.

    The builder takes no arguments and must return a picklable
    zero-argument controller factory (see
    :mod:`repro.simulation.scenario`).
    """
    return CONTROLLERS.register(name, replace=replace)


#: Suffix marking a controller id as a definition file rather than a
#: registered name.  ``examples/controllers/flc1.json`` is a valid
#: controller id everywhere a registered name is (Scenario, Campaign, CLI).
DEFINITION_CONTROLLER_SUFFIX = ".json"


def is_definition_controller(name: str) -> bool:
    """True when ``name`` addresses an FLC-definition file, not a registry key."""
    return (
        name.endswith(DEFINITION_CONTROLLER_SUFFIX) and name not in CONTROLLERS
    )


def definition_controller_factory(path: str) -> ControllerFactory:
    """FACS factory for a standalone FLC-definition JSON file.

    The file holds one stage of the two-stage FACS pipeline; which stage is
    recognised from its variable names (``S/A/D → Cv`` fills the FLC1 slot,
    ``Cv/R/Cs → AR`` the FLC2 slot) and the other stage keeps the paper's
    built-in controller.
    """
    from ..analysis.io import read_flc_definition_json
    from ..cac.facs.definitions import FLC1_VARIABLES, FLC2_VARIABLES
    from ..fuzzy.definition import DefinitionError

    definition = read_flc_definition_json(path)
    signature = (definition.input_names(), definition.output_names())
    if signature == FLC1_VARIABLES:
        config = FACSConfig(flc1=definition)
    elif signature == FLC2_VARIABLES:
        config = FACSConfig(flc2=definition)
    else:
        raise DefinitionError(
            f"controller definition {path} fits neither FACS slot: "
            f"FLC1 needs {FLC1_VARIABLES[0]} -> {FLC1_VARIABLES[1]}, "
            f"FLC2 needs {FLC2_VARIABLES[0]} -> {FLC2_VARIABLES[1]}, "
            f"got {signature[0]} -> {signature[1]}"
        )
    return facs_factory(config)


def controller_factory(name: str) -> ControllerFactory:
    """Resolve a controller id into a fresh-instance factory.

    ``name`` is either a registered controller name or the path of an
    FLC-definition JSON file (any id ending in ``.json``).
    """
    if is_definition_controller(name):
        return definition_controller_factory(name)
    return CONTROLLERS.get(name)()


@register_controller("FACS")
def _facs_controller() -> ControllerFactory:
    return facs_factory(FACSConfig())


@register_controller("SCC")
def _scc_controller() -> ControllerFactory:
    return scc_factory()


@register_controller("CS")
def _complete_sharing_controller() -> ControllerFactory:
    return CompleteSharingController


@register_controller("GuardChannel")
def _guard_channel_controller() -> ControllerFactory:
    return GuardChannelController


@register_controller("Threshold")
def _threshold_controller() -> ControllerFactory:
    return ThresholdPolicyController


@register_controller("AdaptiveThreshold")
def _adaptive_threshold_controller() -> ControllerFactory:
    return AdaptiveThresholdController


@register_controller("MPCLookahead")
def _mpc_lookahead_controller() -> ControllerFactory:
    return MPCLookaheadController


# ----------------------------------------------------------------------
# Figure sweeps, static artifacts, surfaces, ablations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FigureDef:
    """How to reproduce and render one acceptance-vs-requests figure.

    A scenario seed of ``None`` simply omits the ``seed`` kwarg, so each
    ``reproduce`` function's own default (the figure's canonical seed)
    applies.
    """

    reproduce: Callable[..., object]
    render: Callable[[object], str]
    #: Keyword of ``reproduce`` holding the per-curve values (speeds,
    #: angles, distances); ``None`` for figures with a fixed curve set.
    curve_kwarg: str | None


FIGURES: Registry[FigureDef] = Registry("figure")
FIGURES.register("fig7-speed", FigureDef(reproduce_figure7, render_figure7, "speeds_kmh"))
FIGURES.register("fig8-angle", FigureDef(reproduce_figure8, render_figure8, "angles_deg"))
FIGURES.register(
    "fig9-distance", FigureDef(reproduce_figure9, render_figure9, "distances_km")
)
FIGURES.register(
    "fig10-facs-vs-scc", FigureDef(reproduce_figure10, render_figure10, None)
)

#: Static paper artifacts: experiment id → zero-argument renderer.
ARTIFACTS: Registry[Callable[[], str]] = Registry("artifact")
ARTIFACTS.register("table1-frb1", render_frb1)
ARTIFACTS.register("table2-frb2", render_frb2)
ARTIFACTS.register("fig5-flc1-mf", render_flc1_memberships)
ARTIFACTS.register("fig6-flc2-mf", render_flc2_memberships)


@dataclass(frozen=True)
class SurfaceDef:
    """How to compute and render one control surface.

    ``render_grid`` draws a grid ``grid`` already produced, so one run
    evaluates the surface exactly once.
    """

    grid: Callable[..., tuple[list[float], list[float], list[list[float]]]]
    render_grid: Callable[..., str]
    #: Keyword naming the fixed third input of the surface.
    fixed_kwarg: str
    default_fixed: float


SURFACES: Registry[SurfaceDef] = Registry("surface")
SURFACES.register(
    "flc1", SurfaceDef(flc1_surface_grid, render_flc1_grid, "distance_km", 3.0)
)
SURFACES.register(
    "flc2", SurfaceDef(flc2_surface_grid, render_flc2_grid, "request_bu", 5.0)
)

#: Ablation studies: short name → reproduce function returning a SweepResult.
ABLATIONS: Registry[Callable[..., object]] = Registry("ablation")
ABLATIONS.register("defuzz", defuzzifier_ablation)
ABLATIONS.register("threshold", threshold_ablation)
ABLATIONS.register("baselines", baseline_ablation)


# ----------------------------------------------------------------------
# Scenarios (experiment id → canonical default Scenario)
# ----------------------------------------------------------------------
#: Experiment id → zero-argument factory of the canonical default
#: :class:`~repro.api.scenario.Scenario` for that paper artifact.  The
#: built-in factories are registered in :mod:`repro.api.scenario`, one per
#: entry of ``python -m repro list``.
SCENARIOS: Registry[Callable[[], "Scenario"]] = Registry("scenario")


def register_scenario(experiment_id: str, *, replace: bool = False):
    """Decorator registering a default-scenario factory for an experiment id."""
    return SCENARIOS.register(experiment_id, replace=replace)


def scenario_for(experiment_id: str) -> "Scenario":
    """The canonical default scenario reproducing ``experiment_id``."""
    return SCENARIOS.get(experiment_id)()


def scenario_ids() -> tuple[str, ...]:
    """All experiment ids with a registered scenario, in registration order."""
    return SCENARIOS.names()
