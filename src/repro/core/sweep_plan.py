"""The compiled Section-3.2 sweep over the circuit's live table cells.

Section 3.2 fills a table ``WS_ij`` only for the primary outputs ``j``
that gate ``i``'s fan-out cone reaches — on the ISCAS-85 circuits that
is 2–14% of the ``(row, output)`` grid.  A :class:`SweepPlan` compiles
the reverse sweep of :mod:`repro.core.electrical_masking` down to that
live work, once per circuit:

* **compact cells** — the plan numbers every ``(row, output)`` cell
  that can ever hold a table: the PO-seeded ``(po_row, po_col)`` cells
  and every scatter target of a live pair.  One extra all-zero cell
  closes the index; a successor cell that never receives a table
  gathers from it.  The sweep keeps its tables in a compact
  ``(cells + 1, k + 1, B)`` tensor with the lanes innermost, so every
  scatter target is one contiguous ``(k, B)`` block;
* **live pairs** — per logic level only the ``(edge, output)`` pairs
  with a nonzero Equation-2 share are kept, factored through their
  unique ``(destination, output)`` gather cells so each interpolation
  runs once per cell and is expanded onto its pairs with one take
  (:attr:`PlanLevel.pair_cell`);
* **scatter order** — a level's target cells form one contiguous
  compact range, and its pairs are grouped by target in edge-major
  order, so one ``np.add.reduceat`` per level adds every target's
  contributions in exactly the order the unfused loop's ``np.add.at``
  decomposition does;
* **step (iv)** interpolates ``W_ij`` on the live cells only and
  scatters the result into the dense ``(B, V, O)`` expected-width
  matrix the Equation-3/4 reduce reads.

Dropping the dead work is bitwise-neutral: every table holds only
nonnegative finite widths (never ``-0.0``), a zero share times a finite
contribution is exactly ``+0.0``, ``x + 0.0 == x`` bit for bit, and a
cell that never receives a table interpolates to ``+0.0`` in the dense
loop too.  Each live contribution is computed with the identical
expression and added in the identical per-cell order, so the compiled
sweep is bitwise identical to the unfused dense loop — the conformance
matrix and the Hypothesis suite pin this.  A single analysis runs the
same kernel as a batch of one.  Plans are cached on the
:class:`~repro.core.masking.MaskingStructure` and, across analyzers, in
the engine's :class:`~repro.engine.cache.ArtifactCache`
(:func:`repro.engine.artifacts.sweep_plan_key`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.masking import MaskingStructure
from repro.errors import AnalysisError
from repro.tech.glitch import propagate_width_grid_batch
from repro.tech.lut import bracket_queries_rows


@dataclass(frozen=True)
class PlanLevel:
    """Everything precomputable about one reverse-sweep level.

    A *gather cell* is a unique ``(destination row, output)`` whose
    table is interpolated once; a *pair* is a live ``(edge, output)``
    that expands a gather cell's interpolated value, weights it with
    its Equation-2 share and accumulates onto its target cell.  The
    level's target cells are the contiguous compact range
    ``tstart:tstop``, numbered by descending pair count, and its pairs
    are ordered rank-major: first every target's first pair (in target
    order), then the second pair of each target that has one, and so
    on — so occurrence rank ``r`` updates the target prefix of length
    ``rank_counts[r]`` with one slice add.
    """

    #: Destination row per gather cell, ``(C,)``.
    dst: np.ndarray
    #: Compact cell per gather cell (the zero cell when the successor
    #: never receives a table), ``(C,)``.
    gather: np.ndarray
    #: Pair -> local gather cell, ``(P,)`` — the expansion take.
    pair_cell: np.ndarray
    #: Nonzero Equation-2 shares, ``(P, 1, 1)``.
    pair_share: np.ndarray
    #: Pairs per occurrence rank; ``rank_counts[0]`` is the number of
    #: target cells.
    rank_counts: tuple[int, ...]
    tstart: int


@dataclass(frozen=True)
class SweepPlan:
    """Compiled execution plan of the Section-3.2 reverse sweep.

    Bound to one :class:`~repro.core.masking.MaskingStructure` (the
    shares are baked into the levels); independent of the assignment,
    the sample count and the population width.
    """

    n_signals: int
    n_outputs: int
    #: Destination row per gather cell, concatenated over levels.
    cell_dst: np.ndarray
    #: Row / output column of every compact cell (the zero cell, index
    #: ``n_cells``, has none).
    live_row: np.ndarray
    live_col: np.ndarray
    #: The first ``n_po`` compact cells are the PO-seeded
    #: ``(po_row, po_col)`` tables.
    n_po: int
    levels: tuple[PlanLevel, ...]

    @property
    def n_cells(self) -> int:
        """Live compact cells (the zero cell not counted)."""
        return int(self.live_row.size)

    def lane_bytes(self, n_samples: int) -> int:
        """Bytes one lane of :meth:`run` holds: its compact tables plus
        its row of the dense ``(V, O)`` expected-width matrix."""
        return 8 * (
            (self.n_cells + 1) * (n_samples + 1)
            + self.n_signals * self.n_outputs
        )

    def run(
        self,
        delays: np.ndarray,
        generated: np.ndarray,
        samples: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The whole Section-3.2 pass for ``B`` lanes.

        ``delays`` and ``generated`` are ``(B, V)`` electrical
        annotations and ``samples`` the ``(B, k)`` sample-width grids.
        Returns ``(tables, expected)``: the compact anchored tables
        ``(cells + 1, k + 1, B)`` — ``tables[c, 1 + m, b]`` is
        ``WS_ijm`` of cell ``c`` in lane ``b``, and anchor ``0`` is the
        "vanished glitch" zero — and the dense ``(B, V, O)`` Equation-3
        expected widths.
        """
        if delays.shape[1] != self.n_signals:
            raise AnalysisError(
                f"sweep plan built for {self.n_signals} signals cannot "
                f"run a {delays.shape} delay batch"
            )
        n_lanes, n_samples = samples.shape
        # Elements per compact cell; anchor ``m`` of lane ``b`` sits at
        # ``m * n_lanes + b`` inside its cell's block.
        stride = (n_samples + 1) * n_lanes
        tables = np.zeros((self.n_cells + 1, n_samples + 1, n_lanes))
        flat = tables.reshape(-1)
        inner = tables[:, 1:]

        # Step (ii): PO gates present the samples directly to their
        # latch and nothing to other latches.
        inner[:self.n_po] = samples.T
        anchored = np.concatenate((np.zeros((n_lanes, 1)), samples), axis=1)

        # Equation 1 for every row, bracketed on each lane's anchored
        # grid (the same clamped-bracket semantics as every table
        # lookup).
        brackets = _lanes_last(
            bracket_queries_rows(
                anchored, propagate_width_grid_batch(samples, delays), "width"
            )
        )

        # Step (iii), one logic level at a time from the output side:
        # interpolate each gather cell at the attenuated widths, expand
        # onto the live pairs, weight with the shares, and accumulate
        # each target's pairs rank by rank, i.e. in edge-major order.  A
        # target is written by its own level only, so ``c1 + c2 + ...``
        # equals the dense loop's ``0.0 + c1 + c2 + ...`` bit for bit.
        for level in self.levels:
            contribution = _interpolate(
                flat,
                (level.gather * stride)[:, np.newaxis, np.newaxis],
                level.dst,
                *brackets,
            ).take(level.pair_cell, axis=0)
            contribution *= level.pair_share
            done = 0
            for count in level.rank_counts:
                block = contribution[done:done + count]
                if done:
                    inner[level.tstart:level.tstart + count] += block
                else:
                    inner[level.tstart:level.tstart + count] = block
                done += count

        # Step (iv): expected widths of the generated glitches, one
        # interpolation per live cell, scattered into the dense matrix
        # (every other cell is exactly +0.0 in the dense loop too).
        live = _interpolate(
            flat,
            (np.arange(self.n_cells) * stride)[:, np.newaxis],
            self.live_row,
            *_lanes_last(bracket_queries_rows(anchored, generated, "width")),
        )
        expected = np.zeros((n_lanes, self.n_signals * self.n_outputs))
        expected.T[self.live_row * self.n_outputs + self.live_col] = live
        expected = expected.reshape(n_lanes, self.n_signals, self.n_outputs)
        # A PO gate's generated glitch reaches its own latch unattenuated.
        po_rows = self.live_row[:self.n_po]
        expected[:, po_rows, self.live_col[:self.n_po]] = generated[
            :, po_rows
        ]
        return tables, expected


def _lanes_last(brackets: tuple) -> tuple:
    """``(low, high, frac)`` over ``(B, V, ...)`` -> C-contiguous
    ``(V, ..., B)`` arrays, one row's block per signal; the bracket
    indices become in-cell flat offsets (``index * B + lane``) and
    ``1 - frac`` is appended."""
    low, high, frac = brackets
    n_lanes = low.shape[0]
    lane = np.arange(n_lanes).reshape((-1,) + (1,) * (low.ndim - 1))

    def move(x: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(np.moveaxis(x, 0, -1))

    frac = move(frac)
    return (
        move(low * n_lanes + lane),
        move(high * n_lanes + lane),
        frac,
        1.0 - frac,
    )


def _interpolate(
    flat: np.ndarray,
    base: np.ndarray,
    rows: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    frac: np.ndarray,
    omf: np.ndarray,
) -> np.ndarray:
    """Anchored linear interpolation of the cells starting at flat
    offsets ``base``, at the brackets of their signal ``rows``:
    ``lo * (1 - f) + hi * f``."""
    at = low.take(rows, axis=0)
    at += base
    t_lo = flat.take(at)
    at = high.take(rows, axis=0)
    at += base
    t_hi = flat.take(at)
    t_lo *= omf.take(rows, axis=0)
    t_hi *= frac.take(rows, axis=0)
    t_lo += t_hi
    return t_lo


def build_sweep_plan(structure: MaskingStructure) -> SweepPlan:
    """Compile ``structure`` into a :class:`SweepPlan`.

    The topology schedule (edge batches per level) is served from the
    indexed circuit's cached
    :meth:`~repro.circuit.indexed.IndexedCircuit.sweep_index_plan`;
    the live-pair extraction, cell factorization and compact cell index
    are built here from the Equation-2 shares.  Compact cells are
    numbered PO cells first, then each level's targets as one
    contiguous range in sweep order.
    """
    idx = structure.indexed
    batches, __slots = idx.sweep_index_plan()
    n_outputs = idx.n_outputs
    po_rows = idx.output_rows
    # Keys are ``row * n_outputs + output``.
    cell_keys = [po_rows * n_outputs + idx.col_of_row[po_rows]]
    raw = []
    for edges in batches:
        share = structure.edge_shares[edges]
        # Live pairs in edge-major order — the reference loop's
        # element order, which fixes each pair's occurrence rank.
        pair_edge, pair_out = np.nonzero(share != 0.0)
        if pair_edge.size == 0:
            continue
        target_key, pair_target, counts = np.unique(
            idx.edge_src[edges][pair_edge] * n_outputs + pair_out,
            return_inverse=True,
            return_counts=True,
        )
        pair_target = pair_target.reshape(-1)
        by_target = np.argsort(pair_target, kind="stable")
        rank = np.empty(pair_target.size, dtype=np.int64)
        rank[by_target] = (
            np.arange(pair_target.size)
            - (np.cumsum(counts) - counts)[pair_target[by_target]]
        )
        # Targets by descending pair count; pairs rank-major.
        target_order = np.argsort(-counts, kind="stable")
        position = np.empty_like(target_order)
        position[target_order] = np.arange(target_order.size)
        order = np.lexsort((position[pair_target], rank))
        pair_edge, pair_out = pair_edge[order], pair_out[order]
        gather_key, pair_cell = np.unique(
            idx.edge_dst[edges][pair_edge] * n_outputs + pair_out,
            return_inverse=True,
        )
        raw.append((
            gather_key,
            pair_cell.reshape(-1).astype(np.int64),
            share[pair_edge, pair_out].reshape(-1, 1, 1),
            tuple(int(n) for n in np.bincount(rank)),
        ))
        cell_keys.append(target_key[target_order])

    live_key = np.concatenate(cell_keys).astype(np.int64)
    n_cells = int(live_key.size)
    by_key = np.argsort(live_key)
    sorted_key = live_key[by_key]

    def compact(keys: np.ndarray) -> np.ndarray:
        """Compact cell of each key; the zero cell when not live."""
        pos = np.minimum(np.searchsorted(sorted_key, keys), n_cells - 1)
        return np.where(sorted_key[pos] == keys, by_key[pos], n_cells)

    levels = []
    tstart = int(cell_keys[0].size)
    for gather_key, pair_cell, share, rank_counts in raw:
        levels.append(
            PlanLevel(
                dst=gather_key // n_outputs,
                gather=compact(gather_key),
                pair_cell=pair_cell,
                pair_share=share,
                rank_counts=rank_counts,
                tstart=tstart,
            )
        )
        tstart += rank_counts[0]

    return SweepPlan(
        n_signals=idx.n_signals,
        n_outputs=n_outputs,
        cell_dst=np.concatenate(
            [level.dst for level in levels] or [np.empty(0, dtype=np.int64)]
        ),
        live_row=live_key // n_outputs,
        live_col=live_key % n_outputs,
        n_po=int(cell_keys[0].size),
        levels=tuple(levels),
    )


def sweep_plan_for(structure: MaskingStructure) -> SweepPlan:
    """The plan for ``structure``, cached on the structure (the same
    ``object.__setattr__`` idiom as the slot cache — a frozen dataclass
    with memoized derived state).

    The compiled content is assignment-independent, so candidate
    batches of any width and any mutation of assignments between calls
    reuse one plan safely.
    """
    plan = getattr(structure, "_sweep_plan", None)
    if plan is None:
        plan = build_sweep_plan(structure)
        object.__setattr__(structure, "_sweep_plan", plan)
    return plan
