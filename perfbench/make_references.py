"""Regenerate ``perfbench/references.json`` (reference outputs per seed).

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_references.py

The references pin what each workload must return for seeds
``0..SEEDS-1``: the nominal ``analyze()`` total and the single-call
``analyze(a).total`` of every seeded lane (ASERTA workloads), the
Table-1 ``(dU, delay ratio)`` of every SERTOPT seed and anchor
(SERTOPT) and the per-analysis-unit
totals of the campaign grid.  Regenerate only when the estimate itself
is meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

SEEDS = 16


def main() -> None:
    from repro import (
        AsertaAnalyzer,
        AsertaConfig,
        CampaignRunner,
        Sertopt,
        SertoptConfig,
        iscas85_circuit,
    )

    references: dict = {}
    for name in ("c432", "c5315"):
        circuit = iscas85_circuit(name)
        analyzer = AsertaAnalyzer(
            circuit, AsertaConfig(n_vectors=workloads.N_VECTORS)
        )
        references[f"aserta-{name}"] = {
            "nominal": analyzer.analyze().total,
            "lanes": {
                str(seed): [
                    analyzer.analyze(a).total
                    for a in workloads.mixed_assignments(
                        circuit, seed, workloads.LANES
                    )
                ]
                for seed in range(SEEDS)
            },
        }
        print(f"aserta-{name} done", flush=True)
    c432 = iscas85_circuit("c432")
    seeds = {}
    for seed in (*range(SEEDS), *workloads.SERTOPT_ANCHORS):
        result = Sertopt(c432, config=SertoptConfig(seed=seed)).optimize()
        seeds[str(seed)] = [result.unreliability_reduction, result.delay_ratio]
    references["sertopt-c432"] = {"seeds": seeds}
    print("sertopt-c432 done", flush=True)
    seeds = {}
    for seed in range(SEEDS):
        outcome = CampaignRunner(workloads.campaign_spec(seed, None)).run(
            parallel=False
        )
        seeds[str(seed)] = workloads.unit_totals(outcome.results)
    references["campaign"] = {"seeds": seeds}
    workloads.REFERENCES.write_text(
        json.dumps(references, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {workloads.REFERENCES}")


if __name__ == "__main__":
    main()
