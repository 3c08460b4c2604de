#!/usr/bin/env python3
"""Quickstart: make admission decisions with the paper's FACS controller.

Builds the paper's FACS controller through the ``repro.api`` registry (the
same string key a scenario JSON would use), feeds it a few hand-picked
connection requests against a 40-BU base station, and prints the correction
value, the soft accept/reject score and the binding decision for each — the
smallest possible end-to-end use of the library.  The closing lines show
the declarative side of the same API: every paper experiment is a
serializable ``Scenario`` run through the ``Runner`` facade.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.api import controller_factory, scenario_for
from repro.cellular import BaseStation, Call, ServiceClass, UserState


def main() -> None:
    # controller_factory resolves the registered name into a factory of
    # fresh controller instances; FuzzyAdmissionControlSystem() directly
    # still works, but the registry key is what scenario JSON files use.
    facs = controller_factory("FACS")()
    station = BaseStation()  # 40 bandwidth units, as in the paper

    # Pre-load the cell with a few ongoing calls so the counter state matters.
    for _ in range(3):
        ongoing = Call(service=ServiceClass.VOICE, bandwidth_units=5)
        station.allocate(ongoing)
        facs.on_admitted(ongoing, station, now=0.0)
    print(
        f"Base station occupancy before new requests: "
        f"{station.used_bu}/{station.capacity_bu} BU\n"
    )

    requests = [
        ("pedestrian heading to BS", ServiceClass.VOICE, UserState(4.0, 0.0, 1.0)),
        ("pedestrian wandering", ServiceClass.VOICE, UserState(4.0, 90.0, 5.0)),
        ("car heading to BS", ServiceClass.VIDEO, UserState(60.0, 0.0, 2.0)),
        ("car driving away", ServiceClass.VIDEO, UserState(60.0, 170.0, 8.0)),
        ("text from a parked user", ServiceClass.TEXT, UserState(0.0, 0.0, 3.0)),
    ]

    rows = []
    for label, service, user in requests:
        call = Call(
            service=service,
            bandwidth_units={
                ServiceClass.TEXT: 1,
                ServiceClass.VOICE: 5,
                ServiceClass.VIDEO: 10,
            }[service],
            user_state=user,
        )
        decision = facs.decide(call, station, now=0.0)
        rows.append(
            [
                label,
                service.value,
                f"{user.speed_kmh:.0f} km/h",
                f"{user.angle_deg:+.0f} deg",
                f"{user.distance_km:.0f} km",
                f"{decision.diagnostics['correction_value']:.2f}",
                f"{decision.score:+.2f}",
                "ACCEPT" if decision.accepted else "reject",
            ]
        )

    print(
        format_table(
            ["Request", "Class", "Speed", "Angle", "Distance", "Cv", "A/R score", "Decision"],
            rows,
            title="FACS admission decisions (Cv from FLC1, A/R from FLC2)",
        )
    )
    ledger = station.ledger
    print(
        f"\nCounter state Cs (RTC + NRTC): {ledger.real_time_bu} + "
        f"{ledger.non_real_time_bu} = {station.used_bu}/{station.capacity_bu} BU"
    )

    # Every paper experiment is also a declarative scenario; this JSON is
    # all `Runner().run(Scenario.from_json(...))` needs to reproduce Fig. 10
    # (equivalently: `python -m repro run --config fig10.json`).
    print("\nFig. 10 as a serializable scenario:")
    print(scenario_for("fig10-facs-vs-scc").to_json())


if __name__ == "__main__":
    main()
