"""Counter-mode random streams for reproducible, worker-count-independent Monte Carlo.

Every simulated run draws its randomness from a stateless 64-bit hash of
(master seed, run index, slot index), so the value a run sees never depends
on how runs are batched or distributed across workers.  The hash is the
splitmix64 finalizer applied twice with two Weyl increments:

    stream(seed, run)       = mix64(seed + (run + 1) * GAMMA_RUN)
    value(seed, run, slot)  = mix64(stream + (slot + 1) * GAMMA_SLOT)
    double in [0, 1)        = (value >> 11) * 2**-53

A value depends on its own (seed, run, slot) only, so ``uniform_block``
hashes exactly the runs and slots a caller asks for: any subset of run
indices, in any order, and any subset of slots.  Each model declares the
slots it reads on each path (``LG_SLOTS``, ``SAMPLE_SLOTS``, ``JOINT_SLOTS``)
and nothing else is ever hashed, which leaves every value it does read,
and so every result byte, unchanged.  Model kernels read the drawn block
through ``Uniforms``, a slot-addressed view.

This stream is the only source of randomness in the package: no module
holds a generator of its own, and every statistical verdict is a
deterministic test of the counts drawn from it.

``map_chunks`` is the one Monte Carlo engine: callers accumulate per-chunk
partial sums over fixed ``CHUNK_RUNS``-run chunks and reduce them in chunk
order, which keeps floating-point totals byte-identical for any worker
count.  The ONTOLAB_THREADS environment variable is the only worker
setting (``resolve_workers``); no function takes a worker count.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
GAMMA_RUN = 0x9E3779B97F4A7C15
GAMMA_SLOT = 0xD1B54A32D192ED03

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_TO_DOUBLE = 2.0 ** -53

CHUNK_RUNS = 1 << 16


def _mix64(x: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer on a uint64 array, in place; tmp is scratch of the same shape."""
    np.right_shift(x, _S30, out=tmp)
    np.bitwise_xor(x, tmp, out=x)
    np.multiply(x, _M1, out=x)
    np.right_shift(x, _S27, out=tmp)
    np.bitwise_xor(x, tmp, out=x)
    np.multiply(x, _M2, out=x)
    np.right_shift(x, _S31, out=tmp)
    np.bitwise_xor(x, tmp, out=x)


def uniform_block(seed: int, runs, slots: tuple[int, ...]) -> np.ndarray:
    """Uniform doubles in [0, 1): element [i, j] is value(seed, runs[i], slots[j]).

    `runs` holds absolute run indices (an integer array or a range); the
    result has shape (len(runs), len(slots)) and its columns are contiguous.
    """
    if isinstance(runs, range):
        x = np.arange(runs.start, runs.stop, runs.step, dtype=np.uint64)
    else:
        x = np.asarray(runs).astype(np.uint64)  # a fresh buffer, hashed in place below
    tmp = np.empty_like(x)
    # offsets are reduced as Python ints: NumPy scalar arithmetic warns on the wrap
    np.add(x, 1, out=x)
    np.multiply(x, np.uint64(GAMMA_RUN), out=x)
    np.add(x, np.uint64(int(seed) & _MASK64), out=x)
    _mix64(x, tmp)
    out = np.empty((len(slots), len(x)))
    bits = np.empty_like(x)
    for row, slot in zip(out, slots):
        np.add(x, np.uint64(((int(slot) + 1) * GAMMA_SLOT) & _MASK64), out=bits)
        _mix64(bits, tmp)
        np.right_shift(bits, _S11, out=bits)
        np.multiply(bits, _TO_DOUBLE, out=row)
    return out.T


class Uniforms:
    """Slot-addressed view of one ``uniform_block(seed, runs, slots)``.

    ``u.get(slot)`` is the column of a drawn slot, or None for an undrawn
    one, which a method that needs uniforms rejects.  ``u.columns(slots)``
    is the (n, len(slots)) view of slots drawn side by side.  Every read is
    a view of the one block, never a copy.
    """

    def __init__(self, seed: int, runs, slots: tuple[int, ...]):
        self.slots = tuple(slots)
        self.block = uniform_block(seed, runs, self.slots)
        self._index = {slot: j for j, slot in enumerate(self.slots)}

    def get(self, slot: int) -> np.ndarray | None:
        j = self._index.get(slot)
        return None if j is None else self.block[:, j]

    def columns(self, slots) -> np.ndarray:
        slots = tuple(slots)
        j = self._index[slots[0]]
        if self.slots[j : j + len(slots)] != slots:
            raise KeyError(f"slots {slots} were not drawn side by side in {self.slots}")
        return self.block[:, j : j + len(slots)]


def _mix64_int(x: int) -> int:
    # same finalizer on plain Python ints (scalar path, no numpy overflow warnings)
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def substream_seed(seed: int, label: int) -> int:
    """Derived 64-bit seed for an independent named substream."""
    inner = _mix64_int(int(label) + GAMMA_SLOT)
    return _mix64_int((int(seed) & _MASK64) ^ inner)


def resolve_workers() -> int:
    """Worker count: ONTOLAB_THREADS, at most the usable CPU count, else that count.

    The usable CPUs are the process's affinity set where the OS has one, so
    a CPU-pinned process gets no more workers than it may run on.  A value
    that is not an integer, or is below 1, raises ValueError.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    env = os.environ.get("ONTOLAB_THREADS")
    if env is None:
        return cpus
    try:
        workers = int(env)
    except ValueError as exc:
        raise ValueError(f"ONTOLAB_THREADS must be an integer, got {env!r}") from exc
    if workers < 1:
        raise ValueError(f"ONTOLAB_THREADS must be at least 1, got {env!r}")
    return min(workers, cpus)


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    # one pool per worker count, kept for the life of the process
    return ThreadPoolExecutor(max_workers=workers)


def map_chunks(fn, n_runs: int) -> list:
    """Apply fn(run_lo, n) over CHUNK_RUNS-run chunks, results in chunk order.

    The chunk grid depends only on n_runs, never on the worker count, so a
    fold over the returned list is reproducible for any parallelism.  Chunks
    run on a thread pool shared by every call with the same worker count, so
    fn must not call map_chunks: a nested call could wait on itself.
    """
    spans = [(lo, min(CHUNK_RUNS, n_runs - lo)) for lo in range(0, n_runs, CHUNK_RUNS)]
    nw = resolve_workers()
    if nw <= 1 or len(spans) <= 1:
        return [fn(lo, n) for lo, n in spans]
    futures = [_pool(nw).submit(fn, lo, n) for lo, n in spans]
    try:
        return [f.result() for f in futures]
    except BaseException:
        # a failed call leaves none of its queued chunks to later calls
        for f in futures:
            f.cancel()
        raise
