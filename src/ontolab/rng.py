"""Counter-mode random streams for reproducible, worker-count-independent Monte Carlo.

Every simulated run draws its randomness from a stateless 64-bit hash of
(master seed, run index, slot index), so the value a run sees never depends
on how runs are batched or distributed across workers.  The hash is the
splitmix64 finalizer applied twice with two Weyl increments:

    stream(seed, run)       = mix64(seed + (run + 1) * GAMMA_RUN)
    value(seed, run, slot)  = mix64(stream + (slot + 1) * GAMMA_SLOT)
    double in [0, 1)        = (value >> 11) * 2**-53

A value depends on its own (seed, run, slot) only, so ``uniform_block``
hashes exactly the runs and slots a caller asks for: a range of run indices
and any subset of slots.  A caller hands a model kernel ``Uniforms``, one
chunk's runs of one seed, and the kernel draws the slots it reads, in one
call, at its top; nothing else is ever hashed, which leaves every value it
does read, and so every result byte, unchanged.

This stream is the only source of randomness in the package: no module
holds a generator of its own, and every statistical verdict is a
deterministic test of the counts drawn from it.

``map_chunks`` is the one Monte Carlo engine: it adds up the fresh int64
count arrays of fixed ``CHUNK_RUNS``-run chunks, so a total is exact for any
worker count and memory does not grow with runs.  ONTOLAB_THREADS is the
only worker setting (``resolve_workers``); no function takes a worker count.
"""

from __future__ import annotations

import collections
import functools
import itertools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InvalidArgumentError

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


def uniform_block(seed: int, runs: range, slots: tuple[int, ...]) -> np.ndarray:
    """Uniform doubles in [0, 1): element [i, j] is value(seed, runs[i], slots[j]).

    `runs` is a range of absolute run indices; the result has shape
    (len(runs), len(slots)) and its columns are contiguous.
    """
    x = np.arange(runs.start, runs.stop, runs.step, dtype=np.uint64)
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
    """One chunk's runs of the stream of `seed`, from which a kernel draws the slots it reads."""

    def __init__(self, seed: int, runs: range):
        self.seed, self.runs = seed, runs

    def draw(self, slots: tuple[int, ...]) -> np.ndarray:
        """``uniform_block(seed, runs, slots)``: column j holds slot slots[j]."""
        return uniform_block(self.seed, self.runs, slots)


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


def map_chunks(fn, n_runs: int):
    """The sum of the fresh int64 count arrays fn(run_lo, n), one shape for all the CHUNK_RUNS-run chunks.

    The first chunk's array is the total; each later one is added into it in
    place, in chunk order, and dropped.  The chunk grid depends only on n_runs
    and integer sums are exact, so the total is the same for any worker count.
    At most 2 x workers chunks are submitted and not yet added: memory stays
    flat as runs grow, and each worker has a chunk queued.  Chunks run on a
    thread pool shared by every call with the same worker count, so fn must
    not call map_chunks: a nested call could wait on itself.  n_runs below 1
    raises InvalidArgumentError.
    """
    if n_runs < 1:
        raise InvalidArgumentError("runs must be >= 1")
    spans = [(lo, min(CHUNK_RUNS, n_runs - lo)) for lo in range(0, n_runs, CHUNK_RUNS)]
    nw = resolve_workers()
    if nw <= 1 or len(spans) <= 1:
        total = fn(*spans[0])
        for lo, n in spans[1:]:
            total += fn(lo, n)
        return total
    pool, todo = _pool(nw), iter(spans)
    window = collections.deque(pool.submit(fn, lo, n) for lo, n in itertools.islice(todo, 2 * nw))
    try:
        total = window.popleft().result()
        while window:
            total += window.popleft().result()
            window.extend(pool.submit(fn, lo, n) for lo, n in itertools.islice(todo, 1))
        return total
    except BaseException:
        # a failed call leaves none of its queued chunks to later calls
        for f in window:
            f.cancel()
        raise
