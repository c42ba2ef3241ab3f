"""Delay-assignment variation in the nullspace of the topology matrix.

Paper Section 4: with ``T`` the binary paths-by-gates topology matrix
and ``d`` the gate-delay vector, the path-delay vector is ``D = T d``.
Perturbations ``delta`` restricted to the nullspace of ``T`` change gate
delays without changing any path delay, so timing is preserved by
construction and the optimizer searches freely inside that subspace.

Two constructions of the subspace are provided:

* ``method="potential"`` (default) — an exact, enumeration-free basis.
  Assign a potential ``phi`` to every signal, require all fan-ins of a
  gate to share one potential (union-find merge), pin potentials of
  primary inputs and primary outputs to zero, and set
  ``delta_d(g) = phi(out(g)) - phi(fanins(g))``.  Every PI-to-PO path
  sum then telescopes to zero, so the move is timing-neutral for *all*
  paths — including the astronomically many that sampling would miss —
  and each basis vector is a sparse, local "slow these producers /
  speed their consumers" trade, the physical move SERTOPT exploits.

* ``method="svd"`` — the literal construction from the paper: build
  ``T`` from enumerated/sampled paths
  (:func:`repro.circuit.paths.collect_paths`) and take an orthonormal
  nullspace basis.  Exact when the path count is below the cap; above
  it, unsampled paths can drift (the cost's timing term polices the
  residual).  Kept for fidelity and for the ablation benchmarks.

Every potential-basis vector lies in the nullspace of *any* sampled
``T`` — a property the test suite checks — so the default method is a
strict soundness upgrade, not a departure from the paper's framework.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.circuit.netlist import Circuit
from repro.circuit.paths import collect_paths, topology_matrix
from repro.errors import OptimizationError
from repro.sta.timing import critical_path

#: Delay floor (ps): assignments are clamped here before matching.
MIN_DELAY_PS = 0.5


class DelaySpace:
    """The feasible delay-perturbation subspace for one circuit."""

    def __init__(
        self,
        circuit: Circuit,
        base_delays: Mapping[str, float],
        max_paths: int = 800,
        seed: int = 0,
        max_dimension: int | None = None,
        method: str = "potential",
    ) -> None:
        if method not in ("potential", "svd"):
            raise OptimizationError(
                f"unknown delay-space method {method!r}; use 'potential' or 'svd'"
            )
        self.circuit = circuit
        self.method = method
        self.gate_order = tuple(
            name for name in circuit.topological_order()
            if not circuit.gate(name).is_input
        )
        self._gate_index = {name: i for i, name in enumerate(self.gate_order)}
        self.base = np.array(
            [float(base_delays[name]) for name in self.gate_order]
        )
        if np.any(self.base < 0.0):
            raise OptimizationError("base delays must be non-negative")

        critical = critical_path(circuit, dict(base_delays))
        self.paths = collect_paths(
            circuit, max_paths=max_paths, seed=seed, extra=[critical]
        )
        self.matrix = topology_matrix(self.paths, self.gate_order)

        if method == "potential":
            basis = self._potential_basis()
        else:
            try:
                from scipy.linalg import null_space
            except ImportError as exc:
                raise OptimizationError(
                    "delay-space method 'svd' needs scipy; install the "
                    "'scipy' extra or use method='potential'"
                ) from exc
            basis = null_space(self.matrix)
            if basis.size:
                # Normalize to unit max-entry so one coefficient unit is
                # one picosecond on the most-affected gate.
                peaks = np.max(np.abs(basis), axis=0)
                basis = basis / np.where(peaks > 0.0, peaks, 1.0)
        if max_dimension is not None and basis.shape[1] > max_dimension:
            basis = basis[:, :max_dimension]
        self.basis = basis

    # ------------------------------------------------------------------
    # Potential-based construction
    # ------------------------------------------------------------------

    def _potential_basis(self) -> np.ndarray:
        """Sparse timing-exact basis from signal potentials.

        Signals are merged with union-find so that all fan-ins of every
        gate share one class; classes containing a primary input and the
        classes of primary-output signals are pinned to potential zero.
        Each remaining free class yields one direction: +1 ps on every
        gate producing a signal of the class, -1 ps on every gate
        consuming the class.  Directions are ordered by decreasing
        leverage (number of gates touched).
        """
        circuit = self.circuit
        parent: dict[str, str] = {name: name for name in circuit.signal_names()}

        def find(name: str) -> str:
            root = name
            while parent[root] != root:
                root = parent[root]
            while parent[name] != root:
                parent[name], name = root, parent[name]
            return root

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for gate in circuit.gates():
            first = gate.fanins[0]
            for other in gate.fanins[1:]:
                union(first, other)

        pinned: set[str] = set()
        for name in circuit.inputs:
            pinned.add(find(name))
        for name in circuit.outputs:
            pinned.add(find(name))

        columns: list[np.ndarray] = []
        class_members: dict[str, list[str]] = {}
        for name in circuit.signal_names():
            class_members.setdefault(find(name), []).append(name)

        for root, members in class_members.items():
            if root in pinned:
                continue
            column = np.zeros(len(self.gate_order))
            touched = 0
            member_set = set(members)
            for signal in members:
                index = self._gate_index.get(signal)
                if index is not None:
                    column[index] += 1.0  # producer of a class signal
                    touched += 1
            for gate in circuit.gates():
                if gate.fanins and gate.fanins[0] in member_set:
                    column[self._gate_index[gate.name]] -= 1.0
                    touched += 1
            if np.any(column != 0.0):
                columns.append(column)
        if not columns:
            return np.zeros((len(self.gate_order), 0))
        columns.sort(key=lambda c: int(np.count_nonzero(c)), reverse=True)
        return np.stack(columns, axis=1)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def dimension(self) -> int:
        """Number of independent timing-neutral delay directions."""
        return int(self.basis.shape[1])

    def delta(self, coefficients: np.ndarray) -> np.ndarray:
        """``delta = N x`` — a timing-neutral delay perturbation."""
        x = np.asarray(coefficients, dtype=np.float64)
        if x.shape != (self.dimension,):
            raise OptimizationError(
                f"expected {self.dimension} coefficients, got shape {x.shape}"
            )
        if self.dimension == 0:
            return np.zeros_like(self.base)
        return self.basis @ x

    def assigned_delays(self, coefficients: np.ndarray) -> dict[str, float]:
        """Per-gate delay targets ``d + N x``, clamped to a positive floor."""
        vector = np.maximum(self.base + self.delta(coefficients), MIN_DELAY_PS)
        return {
            name: float(vector[i]) for name, i in self._gate_index.items()
        }

    def path_delay_residual(self, coefficients: np.ndarray) -> float:
        """Largest |change| over represented path delays (0 by design,
        up to the MIN_DELAY clamp)."""
        if self.dimension == 0:
            return 0.0
        return float(np.max(np.abs(self.matrix @ self.delta(coefficients))))

    def describe(self) -> dict[str, int]:
        return {
            "gates": len(self.gate_order),
            "paths": len(self.paths),
            "dimension": self.dimension,
        }
