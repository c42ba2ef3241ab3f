"""Builds the paper's SPICE look-up tables from the analytical gate model.

ASERTA's inputs are tables "for delays, static energies, dynamic
energies, output ramp and gate input capacitances for different types of
gates, fan-ins, sizes, channel lengths, VDDs, Vths, input ramps and load
capacitances", plus a generated-glitch-width table (Section 3).  The
paper fixes one injected charge and defers a charge axis to future work;
this implementation includes the charge axis (exercised by the ABL-Q
extension experiment) while defaulting to the fixed 16 fC the paper uses.

Each table is built on first use per ``(gate type, fan-in)`` and cached,
as one NumPy broadcast over a sparse ``meshgrid`` of its axes with the
``vdd <= vth`` points masked to ``inf``.  The broadcasts follow the
scalar :mod:`repro.tech.gate_electrical` model operation for operation,
with the same libm calls, so each table is bitwise equal to sampling
that model point by point.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Iterable

import numpy as np

from repro.circuit.gate import GateType
from repro.errors import TableError
from repro.tech import constants as k
from repro.tech import gate_electrical as ge
from repro.tech.library import CellParams
from repro.tech.lut import GridTable
from repro.units import PS_PER_FF_V_PER_UA, THERMAL_VOLTAGE_V

DEFAULT_SIZE_GRID: tuple[float, ...] = (0.5, 1.0, 2.0, 3.0, 4.0)
DEFAULT_LENGTH_GRID: tuple[float, ...] = (70.0, 100.0, 150.0, 250.0, 300.0)
DEFAULT_VDD_GRID: tuple[float, ...] = (0.6, 0.8, 1.0, 1.2)
DEFAULT_VTH_GRID: tuple[float, ...] = (0.1, 0.2, 0.3, 0.35)
DEFAULT_LOAD_GRID: tuple[float, ...] = (0.1, 0.3, 0.8, 2.0, 5.0, 12.0, 30.0, 80.0)
DEFAULT_RAMP_GRID: tuple[float, ...] = (5.0, 20.0, 60.0)
DEFAULT_CHARGE_GRID: tuple[float, ...] = (0.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class TechnologyTables:
    """Lazy cache of interpolated characterization tables.

    ``use_tables=False`` callers (the transient reference simulator)
    bypass this class and evaluate :mod:`repro.tech.gate_electrical`
    directly; the difference between the two paths is precisely the
    interpolation error that the Fig-3 correlation experiment measures.
    """

    def __init__(
        self,
        sizes: Iterable[float] = DEFAULT_SIZE_GRID,
        lengths_nm: Iterable[float] = DEFAULT_LENGTH_GRID,
        vdds: Iterable[float] = DEFAULT_VDD_GRID,
        vths: Iterable[float] = DEFAULT_VTH_GRID,
        loads_ff: Iterable[float] = DEFAULT_LOAD_GRID,
        ramps_ps: Iterable[float] = DEFAULT_RAMP_GRID,
        charges_fc: Iterable[float] = DEFAULT_CHARGE_GRID,
    ) -> None:
        self.sizes = tuple(sizes)
        self.lengths_nm = tuple(lengths_nm)
        self.vdds = tuple(vdds)
        self.vths = tuple(vths)
        self.loads_ff = tuple(loads_ff)
        self.ramps_ps = tuple(ramps_ps)
        self.charges_fc = tuple(charges_fc)
        #: Sample grid per table axis name, in :meth:`axes_digest` order.
        self._grids = {
            "size": self.sizes,
            "length": self.lengths_nm,
            "vdd": self.vdds,
            "vth": self.vths,
            "load": self.loads_ff,
            "ramp": self.ramps_ps,
            "charge": self.charges_fc,
        }
        for name, grid in self._grids.items():
            if len(grid) == 0 or any(b <= a for a, b in zip(grid, grid[1:])):
                raise TableError(f"grid {name!r} must be strictly increasing")
            if grid[0] < 0.0 or (grid[0] == 0.0 and name in _POSITIVE_AXES):
                raise TableError(f"grid {name!r} has unphysical values")
        self._cache: dict[tuple[str, GateType, int], GridTable] = {}
        self._stack_cache: dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Table construction
    # ------------------------------------------------------------------

    def _get(self, kind: str, gtype: GateType, fanin: int) -> GridTable:
        key = (kind, gtype, fanin)
        table = self._cache.get(key)
        if table is None:
            names, build = _KINDS[kind]
            grids = [self._grids[name] for name in names]
            coords = np.meshgrid(*grids, indexing="ij", sparse=True)
            table = GridTable(list(zip(names, grids)), build(gtype, fanin, *coords))
            self._cache[key] = table
        return table

    def stacked_values(
        self, kind: str, pairs: tuple[tuple[GateType, int], ...]
    ) -> np.ndarray:
        """``(len(pairs), *grid_shape)`` value tensor for one table kind.

        Every ``(gate type, fan-in)`` table of a kind samples the same
        grids, so their value arrays stack into one tensor indexable by
        a per-gate table id — the shape
        :func:`~repro.tech.lut.stacked_lookup` consumes.  Cached per
        ``(kind, pairs)``; circuits sharing gate populations share the
        stack.
        """
        key = (kind, pairs)
        stack = self._stack_cache.get(key)
        if stack is None:
            stack = np.stack(
                [self._get(kind, gtype, fanin).values for gtype, fanin in pairs]
            )
            self._stack_cache[key] = stack
        return stack

    def axes_digest(self) -> str:
        """Stable content hash of the seven sample grids plus the gate
        model version.

        The table *values* are a pure function of
        :data:`repro.tech.gate_electrical.GATE_MODEL_VERSION` and the
        grids, so together they identify a tensor completely — this is
        the fingerprint the engine's content-addressed artifact cache
        keys stacked tensors by (an edited electrical model bumps the
        version, so a persistent cache can never serve stale tensors).
        """
        import hashlib
        import json

        payload = json.dumps(
            [ge.GATE_MODEL_VERSION, *map(list, self._grids.values())],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def adopt_stack(
        self,
        kind: str,
        pairs: tuple[tuple[GateType, int], ...],
        values: np.ndarray,
    ) -> None:
        """Install a precomputed stacked tensor (cache warm-up).

        Used by :meth:`repro.engine.engine.AnalysisEngine.warm_stacked_tables`
        to seed the per-instance stack cache from the artifact store so
        a warm process never evaluates the characterization grids.  An
        already-present stack is left untouched.
        """
        self._stack_cache.setdefault((kind, pairs), np.asarray(values))

    # ------------------------------------------------------------------
    # Interpolated queries (the ASERTA-facing API)
    # ------------------------------------------------------------------

    def delay_ps(
        self,
        gtype: GateType,
        fanin: int,
        params: CellParams,
        load_ff: float,
        ramp_ps: float,
    ) -> float:
        return self._get("delay", gtype, fanin).lookup(
            **_cell_point(params), load=load_ff, ramp=ramp_ps
        )

    def output_ramp_ps(
        self, gtype: GateType, fanin: int, params: CellParams, load_ff: float
    ) -> float:
        return self._get("ramp", gtype, fanin).lookup(
            **_cell_point(params), load=load_ff
        )

    def generated_width_ps(
        self,
        gtype: GateType,
        fanin: int,
        params: CellParams,
        load_ff: float,
        charge_fc: float = k.DEFAULT_CHARGE_FC,
    ) -> float:
        return self._get("glitch", gtype, fanin).lookup(
            **_cell_point(params), load=load_ff, charge=charge_fc
        )

    def input_cap_ff(self, gtype: GateType, fanin: int, params: CellParams) -> float:
        return self._get("input_cap", gtype, fanin).lookup(
            size=params.size, length=params.length_nm
        )

    def static_power_uw(
        self, gtype: GateType, fanin: int, params: CellParams
    ) -> float:
        return self._get("static_power", gtype, fanin).lookup(**_cell_point(params))

    def dynamic_energy_fj(
        self, gtype: GateType, fanin: int, params: CellParams, load_ff: float
    ) -> float:
        return self._get("dynamic_energy", gtype, fanin).lookup(
            size=params.size, load=load_ff, vdd=params.vdd
        )

    def cached_table_count(self) -> int:
        return len(self._cache)


def _cell_point(params: CellParams) -> dict[str, float]:
    """The four cell-axis coordinates of one cell."""
    return {
        "size": params.size,
        "length": params.length_nm,
        "vdd": params.vdd,
        "vth": params.vth,
    }


def _drive(gtype: GateType, fanin: int, size, length, vdd, vth):
    """Drive current, self-capacitance and the ``vdd <= vth`` mask.
    Masked points are evaluated at a unit overdrive so the arithmetic
    stays finite; every builder overwrites them with ``inf``."""
    dead = vdd <= vth
    width = size * k.WIDTH_PER_SIZE_NM
    current = ge.drive_current_array(
        width, length, np.where(dead, 1.0, vdd - vth), ge.drive_divisor(gtype, fanin)
    )
    self_cap = ge.self_capacitance_array(width, ge.self_cap_factor(gtype, fanin))
    return current, self_cap, dead


def _step_ps(gtype: GateType, fanin: int, size, length, vdd, vth, load):
    """Step-input delay of :func:`ge.propagation_delay_ps`, and the mask."""
    current, self_cap, dead = _drive(gtype, fanin, size, length, vdd, vth)
    return PS_PER_FF_V_PER_UA * (self_cap + load) * vdd / (2.0 * current), dead


def _delay(gtype, fanin, size, length, vdd, vth, load, ramp):
    step, dead = _step_ps(gtype, fanin, size, length, vdd, vth, load)
    return np.where(dead, np.inf, step + k.RAMP_DELAY_FRACTION * ramp)


def _ramp(gtype, fanin, size, length, vdd, vth, load):
    # ge.output_ramp_ps scales the zero-ramp delay ``step + 0.0``, which
    # is ``step`` bit for bit (step is positive).
    step, dead = _step_ps(gtype, fanin, size, length, vdd, vth, load)
    return np.where(dead, np.inf, k.RAMP_OF_DELAY * step)


def _glitch(gtype, fanin, size, length, vdd, vth, load, charge):
    current, self_cap, dead = _drive(gtype, fanin, size, length, vdd, vth)
    critical = (self_cap + load) * vdd / 2.0
    removal = PS_PER_FF_V_PER_UA * (charge - critical) / current
    live = np.broadcast_to((charge > critical) & ~dead, removal.shape)
    # libm ``pow`` per live point, as the scalar model's float ``**``
    # calls it; NumPy's array power differs by an ulp on some inputs.
    excess = removal[live]
    exponents = repeat(k.SET_SATURATION_EXPONENT)
    saturated = np.fromiter(map(math.pow, excess, exponents), float, excess.size)
    values = np.zeros(removal.shape)
    values[live] = k.STRIKE_TAU_PS + k.SET_WIDTH_SCALE_PS * saturated
    return np.where(dead, np.inf, values)


def _input_cap(gtype, fanin, size, length):
    width = size * k.WIDTH_PER_SIZE_NM
    return ge.input_capacitance_array(width, length, ge.input_cap_factor(gtype, fanin))


def _static_power(gtype, fanin, size, length, vdd, vth):
    # libm ``exp`` once per Vth, as the scalar leakage model calls it.
    exponents = (-v / (k.SUBTHRESHOLD_N * THERMAL_VOLTAGE_V) for v in vth.flat)
    leak = np.array([math.exp(e) for e in exponents]).reshape(vth.shape)
    per_stack = k.LEAKAGE_SCALE_UA * (size * k.WIDTH_PER_SIZE_NM / length) * leak
    stacks = max(1.0, ge.transistor_count(gtype, fanin) / 4.0)
    return np.where(vdd <= vth, np.inf, per_stack * stacks * vdd)


def _dynamic_energy(gtype, fanin, size, load, vdd):
    width = size * k.WIDTH_PER_SIZE_NM
    self_cap = ge.self_capacitance_array(width, ge.self_cap_factor(gtype, fanin))
    return (self_cap + load) * vdd * vdd


_CELL = ("size", "length", "vdd", "vth")
#: Table kind -> (axis names, builder over the sparse grids of those axes).
_KINDS = {
    "delay": (_CELL + ("load", "ramp"), _delay),
    "ramp": (_CELL + ("load",), _ramp),
    "glitch": (_CELL + ("load", "charge"), _glitch),
    "input_cap": (_CELL[:2], _input_cap),
    "static_power": (_CELL, _static_power),
    "dynamic_energy": (("size", "load", "vdd"), _dynamic_energy),
}
#: Axes the device model needs strictly positive; the rest are >= 0.
_POSITIVE_AXES = frozenset({"size", "length", "vdd"})


_DEFAULT_TABLES: TechnologyTables | None = None


def default_tables() -> TechnologyTables:
    """Process-wide shared table cache (every analysis in one process
    should reuse one instance and its built tables)."""
    global _DEFAULT_TABLES
    if _DEFAULT_TABLES is None:
        _DEFAULT_TABLES = TechnologyTables()
    return _DEFAULT_TABLES


def reset_default_tables() -> TechnologyTables | None:
    """Drop the shared table singleton; returns the previous instance.

    The singleton accumulates lazily built :class:`GridTable` objects
    and adopted LUT stacks for the life of the process, so anything
    measuring a *cold* analysis (the campaign throughput benchmark, a
    profiling session) must reset it or the measurement silently rides
    whatever earlier analyses in the same process already paid for.
    Live analyzers holding a reference keep their (warm) instance; only
    the next :func:`default_tables` call builds a fresh one.
    """
    global _DEFAULT_TABLES
    previous = _DEFAULT_TABLES
    _DEFAULT_TABLES = None
    return previous
