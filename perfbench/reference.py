"""The reference kernel warm timings are expressed in.

A fixed piece of work that calls nothing in ``repro``: an interpreter
loop over a dict and floats; NumPy gathers, an unbuffered scatter-add, a
sort and an interpolation on cache-sized arrays; and a random gather and
a streaming copy and sum of a 12.8 MB array, larger than a core's cache,
which, like the batched sweep on a large circuit, depend on the shared
cache and memory rather than on the core alone. ``perfbench/child.py``
times it right after every untraced warm call, in the same process, and
a warm timing is reported as the call's wall time over the kernel's.
When other tenants of a shared host slow the machine, they slow the call
and the kernel next to it alike, and the ratio stays put; a change to
the program moves the call and not the kernel.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(20240)
_VALUES = _RNG.random(200_000)
_INDEX = _RNG.integers(0, 200_000, 400_000)
#: Tiles of ``_VALUES`` in the kernel's large array (12.8 MB).
_TILES = 8
_LARGE_INDEX = _RNG.integers(0, _TILES * _VALUES.size, 500_000, dtype=np.int32)


def reference_kernel() -> float:
    """The fixed work; returns a checksum so nothing is optimized away."""
    table: dict[int, float] = {}
    total = 0.0
    for i in range(30_000):
        key = i % 997
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key] * 1e-9
    out = np.zeros(_VALUES.size)
    for __ in range(3):
        gathered = _VALUES[_INDEX]
        np.add.at(out, _INDEX[:100_000], gathered[:100_000])
        ordered = np.sort(gathered)
        out += np.interp(_VALUES, ordered[:1000], _VALUES[:1000])
    # Allocated and freed in each call, so the kernel adds little to the
    # process's peak resident set.
    large = np.tile(_VALUES, _TILES)
    for __ in range(2):
        total += float(large[_LARGE_INDEX].sum()) + float(large.sum())
    return total + float(out.sum())


def time_reference() -> float:
    """Wall time of one :func:`reference_kernel` call, s."""
    started = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - started
