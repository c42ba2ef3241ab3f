"""Harden a combinational circuit with SERTOPT (the paper's Table-1 flow).

Starting from a speed-optimized baseline at the nominal 70 nm operating
point, SERTOPT re-assigns gate sizes, channel lengths, supply voltages
and threshold voltages inside the timing-neutral delay subspace, and
reports the same columns as the paper's Table 1.

Run:  python examples/harden_circuit.py [circuit] [evaluations]
e.g.  python examples/harden_circuit.py c432 120
"""

import sys

from repro import (
    AsertaConfig,
    CellLibrary,
    Sertopt,
    SertoptConfig,
    iscas85_circuit,
)
from repro.analysis.reports import format_percent, format_ratio, format_table


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "c432"
    evaluations = int(sys.argv[2]) if len(sys.argv) > 2 else 80

    circuit = iscas85_circuit(name)
    library = CellLibrary.paper_library(vdds=(0.8, 1.0), vths=(0.2, 0.3))
    config = SertoptConfig(
        max_evaluations=evaluations,
        aserta=AsertaConfig(n_vectors=2000, seed=0),
    )

    print(f"optimizing {circuit!r} with {evaluations} cost evaluations...")
    result = Sertopt(circuit, library=library, config=config).optimize()

    space = result.delay_space_info
    print(
        f"delay subspace: dimension {space['dimension']} "
        f"({space['gates']} gates, {space['paths']} sampled paths)"
    )
    print(
        format_table(
            ("metric", "value"),
            [
                ("unreliability decrease", format_percent(result.unreliability_reduction)),
                ("area ratio", format_ratio(result.area_ratio)),
                ("energy ratio", format_ratio(result.energy_ratio)),
                ("delay ratio", format_ratio(result.delay_ratio)),
                ("VDDs used", ", ".join(map(str, result.vdds_used()))),
                ("Vths used", ", ".join(map(str, result.vths_used()))),
                ("optimizer evaluations", result.optimizer_result.evaluations),
                ("runtime (s)", f"{result.runtime_s:.1f}"),
            ],
            title=f"SERTOPT result for {name}",
        )
    )

    changed = [
        gate.name
        for gate in circuit.gates()
        if result.optimized_assignment[gate.name]
        != result.baseline_assignment[gate.name]
    ]
    print(f"\n{len(changed)} of {circuit.gate_count} gates re-assigned")


if __name__ == "__main__":
    main()
