"""Exact structural pass: the Section-3.1 ``P_ij`` estimate, batched.

The seed estimator (:func:`repro.logicsim.sensitization.sensitization_probabilities`)
walks one fault site at a time: flip row ``i``'s packed values, push an
event-driven overlay through its fanout cone, count output differences.
This module produces the same counts in two exact parts.

* **Fanout-free tracing.** A row with exactly one fanout gate ``g``
  that is not a primary output is *fanout-free*.  Complementing it can
  change only ``g``, and changes ``g`` in exactly the lanes where
  ``local_i = eval(g, pin i complemented) ^ base[g]`` is set, so its
  output differences are ``local_i & delta_g`` vector by vector
  (critical-path tracing, Abramovici et al., DAC 1983).  ANDing the
  local masks along each chain of fanout-free rows gives a ``chain``
  mask per row against the chain's *root*, the first row downstream
  that is not fanout-free.  Every other row is a root.
* **Root fault simulation on a compact cone.** Only roots are
  fault-simulated, in blocks of ``S`` sites, level by level through the
  :class:`~repro.circuit.indexed.IndexedCircuit` CSR arrays with one
  NumPy call per ``(level, gate-type/fan-in group)``.  A block's faulty
  state is a ``(C+1, S, W)`` ``uint64`` *delta* tensor (XOR against the
  fault-free base, 64 vectors per word) over the ``C`` rows of the
  block's union fanout cone plus its site rows.  Row ``C`` is a shared
  zero row that fan-ins outside the cone point to, so every fan-in
  gather is one contiguous ``S·W`` slab.  A site's own row stays pinned
  at "complemented" for its lane, exactly like the event overlay pins
  the flipped source.

A fanout-free row's counts are ``popcount(chain[i] & delta[root(i)])``
over the outputs, read off its root's block.  Both implementations
perform exact zero-delay simulation of the *same* random vectors (same
seed, same packing), so the ``P_ij`` counts are **bit-identical** —
asserted across every bundled circuit by
``tests/test_engine_structural.py``.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.gate import evaluate_words
from repro.circuit.indexed import IndexedCircuit
from repro.circuit.netlist import Circuit
from repro.errors import SimulationError
from repro.logicsim.bitsim import BitParallelSimulator
from repro.logicsim.vectors import lane_mask, random_input_words
from repro.telemetry import resolve

#: Default ceiling on one block's compact delta tensor plus its gather
#: and readout temporaries (bytes) — blocks shrink on large circuits so
#: memory stays flat.  On c5315 and c7552 at 10 000 vectors a 64 MiB
#: block runs as fast as a 128 MiB one.
DEFAULT_MAX_BLOCK_BYTES = 1 << 26

#: Hard cap on sites per block (beyond this, gather sizes stop helping).
MAX_BLOCK_SITES = 256

#: Cap on one row's ``(S, W)`` slab (bytes).  Wider slabs ran no faster
#: on c1908 or c5315 at 2000 or 10 000 vectors; narrower ones keep the
#: blocks of small circuits small (at 10 000 vectors all 105 of c432's
#: roots would otherwise form one 25 MB tensor, and freeing it raises
#: glibc's dynamic mmap threshold for the rest of the process).
MAX_SLAB_BYTES = 1 << 15

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


class CompiledStructuralCircuit:
    """Assignment- and protocol-independent simulation schedule.

    Everything here depends only on the netlist structure, so one
    compiled instance serves every ``(n_vectors, seed)`` estimate of a
    circuit and is a natural citizen of the content-addressed artifact
    cache (keyed by :func:`repro.engine.artifacts.compiled_key`).
    """

    def __init__(self, indexed: IndexedCircuit) -> None:
        idx = indexed
        self.indexed = idx
        n = idx.n_signals
        self.word_count = (n + 63) // 64

        #: Bit position of each row inside the packed row bitsets.
        self.bit_word = np.arange(n, dtype=np.int64) >> 6
        self.bit_mask = np.uint64(1) << (
            np.arange(n, dtype=np.uint64) & np.uint64(63)
        )

        # cone[r] — packed set of rows that row r can influence (its
        # strict fanout cone, own bit excluded).  One pass from the
        # deepest level up; each row ORs its successors' closed cones.
        closed = np.zeros((n, self.word_count), dtype=np.uint64)
        closed[np.arange(n), self.bit_word] = self.bit_mask
        for rows, dsts, starts in idx.fanout_level_segments():
            closed[rows] |= np.bitwise_or.reduceat(
                closed[dsts], starts, axis=0
            )
        closed[np.arange(n), self.bit_word] ^= self.bit_mask
        self.cone = closed

        # Fanout-free structure: ffr rows, their one successor, and the
        # root each chain of fanout-free rows ends at.
        fanout_count = np.diff(idx.fanout_ptr)
        #: Rows with exactly one fanout gate that are not primary outputs.
        self.ffr = (fanout_count == 1) & ~idx.is_output
        #: The one fanout gate of each fanout-free row (-1 elsewhere).
        self.successor = np.full(n, -1, dtype=np.int64)
        self.successor[self.ffr] = idx.edge_dst[idx.fanout_ptr[:-1][self.ffr]]
        #: Rows that are fault-simulated (not fanout-free), ascending.
        self.roots = np.flatnonzero(~self.ffr)
        #: ``(rows, successors)`` of the fanout-free rows per level,
        #: deepest first — the order chain masks are ANDed in.
        self.chain_levels: list[tuple[np.ndarray, np.ndarray]] = []
        root = np.arange(n, dtype=np.int64)
        ffr_levels = idx.level[self.ffr]
        ffr_rows = np.flatnonzero(self.ffr)
        for level in np.unique(ffr_levels)[::-1]:
            rows = ffr_rows[ffr_levels == level]
            succ = self.successor[rows]
            root[rows] = root[succ]
            self.chain_levels.append((rows, succ))
        #: Root row of every row (a root is its own).
        self.root = root

        # Evaluation schedule: for each logic level >= 1, the gate rows
        # grouped by (gate type, fan-in count) with their dense fan-in
        # row matrices — the unit of one vectorized evaluate_words call.
        # ``slot_of`` numbers the groups; ``slot_weight`` is the number
        # of (rows, S, W) temporaries one group's evaluation holds.
        schedule: list[tuple[int, list[tuple[int, np.ndarray, np.ndarray]]]] = []
        #: Local-mask plan: ``(group id, gate rows, fan-in matrix, pin)``
        #: for every (level, group, pin) driven by a fanout-free row.
        self.trace_plan: list[tuple[int, np.ndarray, np.ndarray, int]] = []
        slot_of = np.zeros(n, dtype=np.int64)
        weights = [0]
        gate_rows = idx.gate_rows
        gate_levels = idx.level[gate_rows]
        for level in np.unique(gate_levels):
            at_level = gate_rows[gate_levels == level]
            entries: list[tuple[int, np.ndarray, np.ndarray]] = []
            for gid in np.unique(idx.group_id[at_level]):
                rows = at_level[idx.group_id[at_level] == gid]
                nfi = idx.group_pairs[gid][1]
                fanin_matrix = idx.fanin_src[
                    idx.fanin_ptr[rows][:, np.newaxis]
                    + np.arange(nfi, dtype=np.int64)
                ]
                entries.append((int(gid), rows, fanin_matrix))
                slot_of[rows] = len(weights)
                weights.append(nfi + 2)
                for pin in range(nfi):
                    traced = self.ffr[fanin_matrix[:, pin]]
                    if traced.any():
                        self.trace_plan.append(
                            (int(gid), rows[traced], fanin_matrix[traced], pin)
                        )
            schedule.append((int(level), entries))
        self.schedule = schedule
        self.slot_of = slot_of
        self.slot_weight = np.array(weights, dtype=np.int64)

    def rows_of(self, bits: np.ndarray) -> np.ndarray:
        """Boolean ``(V,)`` membership of a packed row bitset."""
        flat = np.unpackbits(
            bits.astype("<u8", copy=False).view(np.uint8), bitorder="little"
        )
        return flat[: self.indexed.n_signals].astype(bool)

    def candidates(self, sites: np.ndarray) -> np.ndarray:
        """Rows some site in ``sites`` can influence (bool ``(V,)``).

        A site row is a candidate only if *another* site reaches it —
        its own value is pinned to the complement, never re-evaluated.
        """
        return self.rows_of(np.bitwise_or.reduce(self.cone[sites], axis=0))


def pick_block_sites(
    n_rows: int, n_words: int, max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES
) -> int:
    """Sites per block so an ``(n_rows, S, n_words)`` tensor stays under
    the byte budget and each row's slab under :data:`MAX_SLAB_BYTES`."""
    slab = max(1, n_words * 8)
    fit = min(MAX_SLAB_BYTES // slab, max_block_bytes // max(1, n_rows * slab))
    return int(max(1, min(MAX_BLOCK_SITES, fit)))


def _plan_root_blocks(
    compiled: CompiledStructuralCircuit,
    n_words: int,
    block_sites: int | None = None,
    max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES,
) -> list[tuple[np.ndarray, int, int]]:
    """Group the root sites, in row order, into ``(sites, cone rows,
    bytes)`` blocks.

    A block's footprint, in ``(S, W)`` slabs, is its ``C + 1`` compact
    rows plus the larger of its biggest group evaluation
    (``slot_weight`` slabs per gate in the cone) and its readout (three
    slabs per primary output in the cone).  With ``block_sites`` set,
    every block holds that many roots; otherwise blocks grow greedily
    while the footprint fits ``max_block_bytes`` (a single site always
    forms a block).
    """
    idx = compiled.indexed
    cone, slot_of = compiled.cone, compiled.slot_of
    weight = compiled.slot_weight
    blocks: list[tuple[np.ndarray, int, int]] = []
    sites: list[int] = []
    union = np.zeros(compiled.word_count, dtype=np.uint64)
    slot_rows = np.zeros(weight.size, dtype=np.int64)
    n_rows = n_outputs = footprint = 0
    for site in compiled.roots:
        while True:
            bits = cone[site].copy()
            bits[compiled.bit_word[site]] |= compiled.bit_mask[site]
            bits &= ~union
            new_rows = np.flatnonzero(compiled.rows_of(bits))
            grown = slot_rows + np.bincount(
                slot_of[new_rows], minlength=weight.size
            )
            rows = n_rows + new_rows.size
            outputs = n_outputs + int(idx.is_output[new_rows].sum())
            need = rows + 1 + max(int((grown * weight).max()), 3 * outputs)
            limit = (
                block_sites
                if block_sites is not None
                else pick_block_sites(need, n_words, max_block_bytes)
            )
            if not sites or len(sites) < limit:
                break
            blocks.append((np.array(sites, dtype=np.int64), n_rows, footprint))
            sites = []
            union[:] = 0
            slot_rows[:] = 0
            n_rows = n_outputs = 0
        sites.append(int(site))
        union |= bits
        slot_rows = grown
        n_rows, n_outputs = rows, outputs
        footprint = len(sites) * need * n_words * 8
    if sites:
        blocks.append((np.array(sites, dtype=np.int64), n_rows, footprint))
    return blocks


def _chain_masks(
    compiled: CompiledStructuralCircuit, base: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """``(V, W)`` lanes in which complementing each row flips its root.

    A root's entry is the full lane mask.  A fanout-free row's local
    mask comes from one ``evaluate_words`` call per (level, group, pin)
    of its successor; masks are then ANDed down each chain, deepest
    level first, so a successor's entry is final before it is read.
    """
    idx = compiled.indexed
    chain = np.empty_like(base)
    chain[:] = mask
    for gid, rows, fanins, pin in compiled.trace_plan:
        words = [base[fanins[:, t]] for t in range(fanins.shape[1])]
        words[pin] ^= _FULL
        local = evaluate_words(idx.group_pairs[gid][0], words)
        local ^= base[rows]
        local &= mask
        chain[fanins[:, pin]] = local
    for rows, succ in compiled.chain_levels:
        chain[rows] &= chain[succ]
    return chain


def _simulate_block(
    compiled: CompiledStructuralCircuit,
    base: np.ndarray,
    mask: np.ndarray,
    sites: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fault-simulate one block of root sites on its compact cone.

    Returns ``(out, cols)``: the ``(O_c, S, W)`` deltas of the ``O_c``
    primary outputs inside the cone, and their output columns.  The
    ``(C+1, S, W)`` tensor itself is freed on return.
    """
    idx = compiled.indexed
    candidate = compiled.candidates(sites)
    member = candidate.copy()
    member[sites] = True
    cone_rows = np.flatnonzero(member)
    position = np.full(idx.n_signals, cone_rows.size, dtype=np.int64)
    position[cone_rows] = np.arange(cone_rows.size, dtype=np.int64)

    lanes = np.arange(sites.size, dtype=np.int64)
    delta = np.zeros(
        (cone_rows.size + 1, sites.size, base.shape[1]), dtype=np.uint64
    )
    delta[position[sites], lanes] = mask
    site_levels = idx.level[sites]
    min_level = int(site_levels.min())
    for level, entries in compiled.schedule:
        if level <= min_level:
            continue
        for gid, rows, fanin_matrix in entries:
            active = candidate[rows]
            if not active.any():
                continue
            rows_active = rows[active]
            fanins = fanin_matrix[active]
            words = []
            for t in range(fanins.shape[1]):
                word = delta[position[fanins[:, t]]]
                word ^= base[fanins[:, t], np.newaxis]
                words.append(word)
            faulty = evaluate_words(idx.group_pairs[gid][0], words)
            # No lane mask needed: the pins clear the tail lanes past
            # ``n_vectors``, so faulty and base agree there.
            faulty ^= base[rows_active, np.newaxis]
            delta[position[rows_active]] = faulty
        # Sites at this level were just re-evaluated under *other*
        # faults; restore their own-lane pin.
        pinned = site_levels == level
        if pinned.any():
            delta[position[sites[pinned]], lanes[pinned]] = mask
    cols = np.flatnonzero(member[idx.output_rows])
    return delta[position[idx.output_rows[cols]]], cols


def structural_matrix_batched(
    circuit: Circuit,
    n_vectors: int = 10000,
    seed: int = 0,
    simulator: BitParallelSimulator | None = None,
    compiled: CompiledStructuralCircuit | None = None,
    block_sites: int | None = None,
    max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES,
    telemetry=None,
) -> np.ndarray:
    """Dense ``(V, O)`` estimate of ``P_ij``: root fault simulation plus
    fanout-free tracing.

    Bit-identical to the event-driven estimator on the same
    ``(n_vectors, seed)``: row order is the indexed circuit's
    topological order, columns are primary outputs in declaration
    order, and the guaranteed diagonal ``P_jj = 1`` is applied exactly
    as the sparse estimator does.  ``block_sites`` and
    ``max_block_bytes`` count root sites (see :func:`_plan_root_blocks`).
    ``telemetry`` records one ``structural.block`` span per root block
    and the ``structural.root_sites`` / ``structural.fanout_free_rows``
    counters.
    """
    tel = resolve(telemetry)
    if n_vectors < 1:
        raise SimulationError(f"need at least one vector, got {n_vectors}")
    if block_sites is not None and block_sites < 1:
        raise SimulationError(f"block_sites must be >= 1, got {block_sites}")
    sim = simulator if simulator is not None else BitParallelSimulator(circuit)
    if sim.circuit is not circuit:
        raise SimulationError("simulator was compiled for a different circuit")
    idx = circuit.indexed()
    if compiled is None:
        compiled = CompiledStructuralCircuit(idx)
    elif compiled.indexed is not idx:
        raise SimulationError(
            "compiled structural schedule belongs to a different circuit"
        )

    inputs = random_input_words(len(circuit.inputs), n_vectors, seed)
    base = sim.simulate(inputs)
    mask = lane_mask(n_vectors)
    n_words = base.shape[1]
    blocks = _plan_root_blocks(compiled, n_words, block_sites, max_block_bytes)
    traced_rows = np.flatnonzero(compiled.ffr)
    tel.metrics.add("structural.root_sites", int(compiled.roots.size))
    tel.metrics.add("structural.fanout_free_rows", int(traced_rows.size))

    chain = _chain_masks(compiled, base, mask)
    counts = np.zeros((idx.n_signals, idx.n_outputs), dtype=np.int64)
    in_block = np.full(idx.n_signals, -1, dtype=np.int64)
    for sites, cone_rows, footprint in blocks:
        with tel.span(
            "structural.block",
            sites=int(sites.size),
            cone_rows=cone_rows,
            bytes=footprint,
        ):
            out, cols = _simulate_block(compiled, base, mask, sites)
            counts[sites[:, np.newaxis], cols] = (
                np.bitwise_count(out).sum(axis=2).T
            )

            # Fanout-free rows whose chain ends at one of these sites,
            # read off S at a time so the readout fits the footprint.
            in_block[sites] = np.arange(sites.size, dtype=np.int64)
            traced = traced_rows[in_block[compiled.root[traced_rows]] >= 0]
            for lo in range(0, traced.size, sites.size):
                part = traced[lo : lo + sites.size]
                hits = out[:, in_block[compiled.root[part]]]
                hits &= chain[part]
                counts[part[:, np.newaxis], cols] = (
                    np.bitwise_count(hits).sum(axis=2).T
                )
            in_block[sites] = -1

    p = counts / float(n_vectors)
    p[idx.output_rows, idx.col_of_row[idx.output_rows]] = 1.0
    return p


def structural_matrix_event(
    circuit: Circuit,
    n_vectors: int = 10000,
    seed: int = 0,
    simulator: BitParallelSimulator | None = None,
) -> np.ndarray:
    """Dense ``(V, O)`` matrix from the event-driven seed estimator.

    The escape hatch (``structural_engine="event"``) and the baseline
    the batched engine is differential-tested and benchmarked against.
    """
    from repro.logicsim.sensitization import sensitization_probabilities

    sparse = sensitization_probabilities(
        circuit, n_vectors=n_vectors, seed=seed, simulator=simulator
    )
    return circuit.indexed().output_matrix(sparse)


def structural_matrix(
    circuit: Circuit,
    n_vectors: int = 10000,
    seed: int = 0,
    engine: str = "batched",
    simulator: BitParallelSimulator | None = None,
    compiled: CompiledStructuralCircuit | None = None,
) -> np.ndarray:
    """Dispatch to one structural estimator by name."""
    if engine == "batched":
        return structural_matrix_batched(
            circuit, n_vectors, seed, simulator=simulator, compiled=compiled
        )
    if engine == "event":
        return structural_matrix_event(
            circuit, n_vectors, seed, simulator=simulator
        )
    raise SimulationError(
        f"structural engine must be 'batched' or 'event', got {engine!r}"
    )


def sparse_paths_from_matrix(
    indexed: IndexedCircuit, p_matrix: np.ndarray
) -> dict[str, dict[str, float]]:
    """Sparse ``{gate: {output: P_ij}}`` view of a dense matrix.

    The exact inverse of :meth:`IndexedCircuit.output_matrix` under the
    estimator's sparsity rule (an entry exists iff it is non-zero; the
    ``P_jj = 1`` diagonal is always non-zero), so round-tripping either
    way is lossless.
    """
    outputs = indexed.circuit.outputs
    result: dict[str, dict[str, float]] = {}
    for row, name in enumerate(indexed.order):
        cols = np.flatnonzero(p_matrix[row])
        result[name] = {outputs[col]: float(p_matrix[row, col]) for col in cols}
    return result
