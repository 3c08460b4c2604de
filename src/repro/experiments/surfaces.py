"""Control-surface renderings of FLC1 and FLC2 (tensorized grid inference).

The decision behaviour of the two controllers is easiest to see as a
surface: Cv over the (speed, angle) plane for FLC1, A/R over the
(correction value, counter state) plane for FLC2.  Whole grids are
evaluated in one pass through the compiled engines' ``infer_batch``
tensors — the per-point results are bit-identical to scalar ``infer``.

The ``*_surface_grid`` functions return the raw grid (for the machine-
readable metrics of a :class:`repro.api.RunReport`); the ``render_*_grid``
functions draw a precomputed grid as an ASCII heatmap, and the
``render_*_surface`` functions do both in one call.
"""

from __future__ import annotations

from ..analysis.plotting import ascii_heatmap
from ..cac.facs.flc1 import FLC1
from ..cac.facs.flc2 import FLC2

__all__ = [
    "flc1_surface_grid",
    "flc2_surface_grid",
    "render_flc1_grid",
    "render_flc2_grid",
    "render_flc1_surface",
    "render_flc2_surface",
]


def flc1_surface_grid(
    distance_km: float = 3.0,
    resolution: int = 31,
) -> tuple[list[float], list[float], list[list[float]]]:
    """Cv over the (speed, angle) plane at a fixed user-to-BS distance."""
    flc1 = FLC1()
    xs, ys, surface = flc1.controller.engine.control_surface(
        "S", "A", "Cv", fixed={"D": distance_km}, resolution=resolution
    )
    return [float(x) for x in xs], [float(y) for y in ys], surface.tolist()


def flc2_surface_grid(
    request_bu: float = 5.0,
    resolution: int = 31,
) -> tuple[list[float], list[float], list[list[float]]]:
    """A/R over the (Cv, counter state) plane at a fixed bandwidth request."""
    flc2 = FLC2()
    xs, ys, surface = flc2.controller.engine.control_surface(
        "Cv", "Cs", "AR", fixed={"R": request_bu}, resolution=resolution
    )
    return [float(x) for x in xs], [float(y) for y in ys], surface.tolist()


def render_flc1_grid(
    xs: list[float],
    ys: list[float],
    surface: list[list[float]],
    distance_km: float = 3.0,
) -> str:
    """Render a precomputed FLC1 surface grid as an ASCII heatmap."""
    return ascii_heatmap(
        xs,
        ys,
        surface,
        title=(
            f"FLC1 correction value Cv — speed (x, km/h) vs angle (y, deg) "
            f"at D={distance_km:g} km"
        ),
        x_label="speed (km/h)",
        y_label="angle (deg)",
    )


def render_flc2_grid(
    xs: list[float],
    ys: list[float],
    surface: list[list[float]],
    request_bu: float = 5.0,
) -> str:
    """Render a precomputed FLC2 surface grid as an ASCII heatmap."""
    return ascii_heatmap(
        xs,
        ys,
        surface,
        title=(
            f"FLC2 accept/reject score A/R — correction value (x) vs counter "
            f"state (y, BU) at R={request_bu:g} BU"
        ),
        x_label="Cv",
        y_label="Cs (BU)",
    )


def render_flc1_surface(distance_km: float = 3.0, resolution: int = 31) -> str:
    """Compute and render the FLC1 control surface."""
    xs, ys, surface = flc1_surface_grid(distance_km=distance_km, resolution=resolution)
    return render_flc1_grid(xs, ys, surface, distance_km=distance_km)


def render_flc2_surface(request_bu: float = 5.0, resolution: int = 31) -> str:
    """Compute and render the FLC2 control surface."""
    xs, ys, surface = flc2_surface_grid(request_bu=request_bu, resolution=resolution)
    return render_flc2_grid(xs, ys, surface, request_bu=request_bu)
