"""Exhaustive and sampled enumeration of the 2^m span of a cocycle basis.

Both modes are one walk over a stream of combination masks: each step
multiplies the current ±1 tensor by the basis rows where the mask differs
from the previous one.  Exhaustive mode streams reflected-Gray-code masks,
so each step is a single pointwise multiplication; sampled mode streams
seeded random masks.  The exhaustive index space may be partitioned across
workers by its leading bits; counts and retained witnesses are independent
of the partitioning because retention keeps the numerically smallest
combination masks.  `limit` caps the walk before the size refusal, so a
limited prefix of a span with more than 2^62 combinations may be walked.
"""

from __future__ import annotations

import heapq
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .reduction import CochainBasis, ReductionOutput
from .tensor import SignTensor

MAX_EXHAUSTIVE_BITS = 62

PREDICATES = ("improper", "proper", "hadamard2d")


class SpanTooLargeError(ValueError):
    """Exhaustive enumeration refused; use sampling."""


@dataclass
class SearchSpace:
    v: int
    n: int
    labels: list[str]
    bits: np.ndarray  # (m, v**n) uint8 cochain bits

    def __post_init__(self):
        self.bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        if self.bits.shape != (len(self.labels), self.v ** self.n):
            raise ValueError("bits shape does not match labels and (v, n)")
        if len(self.labels) and \
                np.unique(self.bits, axis=0).shape[0] != len(self.labels):
            raise ValueError("basis cochains must be pairwise distinct")

    @classmethod
    def from_basis(cls, basis: CochainBasis) -> "SearchSpace":
        if not len(basis):
            raise ValueError("empty basis has no search space; pass v and n explicitly")
        first = basis.entries[0][1]
        return cls(v=first.v, n=first.n, labels=basis.labels(), bits=basis.matrix())

    @classmethod
    def from_reduction(cls, out: ReductionOutput) -> "SearchSpace":
        return cls.from_basis(out.basis)

    @property
    def m(self) -> int:
        return len(self.labels)

    def _mask_rows(self, mask: int) -> list[int]:
        if not 0 <= mask < 1 << self.m:
            raise ValueError(f"mask {mask} is not a combination of {self.m} rows")
        return [i for i in range(self.m) if mask >> i & 1]

    def combo_labels(self, mask: int) -> list[str]:
        return [self.labels[i] for i in self._mask_rows(mask)]

    def combo_bits(self, mask: int) -> np.ndarray:
        return np.bitwise_xor.reduce(self.bits[self._mask_rows(mask)], axis=0)

    def combo_tensor(self, mask: int) -> SignTensor:
        signs = (1 - 2 * self.combo_bits(mask).astype(np.int8))
        return SignTensor(self.v, self.n, signs.reshape((self.v,) * self.n))


@dataclass
class Witness:
    mask: int
    labels: list[str]
    passed: list[str]


@dataclass
class SearchReport:
    examined: int
    hits: dict[str, int]
    witnesses: list[Witness]
    duration: float
    mode: str
    seed: int | None = None


def tensor_of_combination(space: SearchSpace, combo) -> SignTensor:
    """Pointwise product of the selected basis tensors; combo is an iterable
    of labels or a bit mask."""
    if isinstance(combo, int):
        return space.combo_tensor(combo)
    mask = 0
    index = {lab: i for i, lab in enumerate(space.labels)}
    for lab in combo:
        if lab not in index:
            raise KeyError(f"unknown basis label {lab!r}")
        if mask >> index[lab] & 1:
            raise ValueError(f"basis label {lab!r} appears more than once")
        mask |= 1 << index[lab]
    return space.combo_tensor(mask)


class _Tester:
    """Per-process predicate evaluator over a flat ±1 vector."""

    def __init__(self, space: SearchSpace, predicates: tuple[str, ...]):
        v, n = space.v, space.n
        self.predicates = predicates
        flat = np.arange(v ** n).reshape((v,) * n)
        self.axis_idx = [np.moveaxis(flat, ax, 0).reshape(v, -1) for ax in range(n)]
        self.row_idx = self.axis_idx[:1]
        self.pair_idx = [(np.moveaxis(flat, (l, j), (0, 1)).reshape(v, v, -1))
                         for l in range(n) for j in range(n) if j != l]
        self.offdiag = ~np.eye(v, dtype=bool)

    def orthogonal(self, pm: np.ndarray, axis_idx) -> bool:
        # improper: sections orthogonal along every axis; a planar Hadamard
        # matrix is the axis-0 case, orthogonal rows
        for idx in axis_idx:
            s = pm[idx]
            if (np.matmul(s, s.T)[self.offdiag] != 0).any():
                return False
        return True

    def proper_full(self, pm: np.ndarray) -> bool:
        # orthogonality for every fixing of the n-2 spectator coordinates
        for idx in self.pair_idx:
            a = pm[idx]
            prod = np.einsum("xkr,ykr->xyr", a, a)
            if (prod[self.offdiag] != 0).any():
                return False
        return True

    def evaluate(self, pm: np.ndarray) -> list[str]:
        passed = []
        improper = None
        for pred in self.predicates:
            if pred == "hadamard2d":
                ok = self.orthogonal(pm, self.row_idx)
            else:
                if improper is None:
                    improper = self.orthogonal(pm, self.axis_idx)
                # proper implies improper: skip the expensive check when the
                # cheaper one already failed
                ok = improper and (pred == "improper" or self.proper_full(pm))
            if ok:
                passed.append(pred)
        return passed


class _WitnessHeap:
    """Keeps the `cap` numerically smallest masks (deterministic retention)."""

    def __init__(self, cap: int):
        self.cap = cap
        self._heap: list[tuple[int, tuple[str, ...]]] = []  # max-heap via negation

    def offer(self, mask: int, passed: tuple[str, ...]):
        if self.cap <= 0:
            return
        item = (-mask, passed)
        if len(self._heap) < self.cap:
            heapq.heappush(self._heap, item)
        elif item > self._heap[0]:
            heapq.heapreplace(self._heap, item)

    def items(self) -> list[tuple[int, tuple[str, ...]]]:
        return sorted((-m, p) for m, p in self._heap)


def _gray(i: int) -> int:
    return i ^ (i >> 1)


def _scan(space: SearchSpace, predicates: tuple[str, ...], masks, cap: int):
    """Test the product of every mask in `masks`; returns the examined
    count, the hit counts and the `cap` smallest hit masks."""
    tester = _Tester(space, predicates)
    pm_rows = (1 - 2 * space.bits.astype(np.int32))
    current = np.ones(space.v ** space.n, dtype=np.int32)
    counts = dict.fromkeys(predicates, 0)
    heap = _WitnessHeap(cap)
    examined = prev = 0
    for examined, mask in enumerate(masks, 1):
        diff = mask ^ prev
        while diff:  # multiply in the row of each bit that changed
            low = diff & -diff
            current *= pm_rows[low.bit_length() - 1]
            diff ^= low
        prev = mask
        passed = tester.evaluate(current)
        for p in passed:
            counts[p] += 1
        if passed:
            heap.offer(mask, tuple(passed))
    return examined, counts, heap.items()


def _scan_gray_range(args):
    space, predicates, start, stop, cap = args
    return _scan(space, predicates, map(_gray, range(start, stop)), cap)


def enumerate_span(space: SearchSpace,
                   predicates=("improper",),
                   *,
                   workers: int = 1,
                   sample_count: int | None = None,
                   seed: int = 0,
                   max_witnesses: int = 1024,
                   limit: int | None = None) -> SearchReport:
    """Count predicate hits over the span of the basis.

    Exhaustive mode (the default) visits the first `limit` (default all
    2^m) combinations in Gray-code order and refuses when that count
    exceeds 2^62; sampled mode draws sample_count masks from a seeded
    generator.  Counts and witnesses are independent of the worker count.
    """
    predicates = tuple(predicates)
    for p in predicates:
        if p not in PREDICATES:
            raise ValueError(f"unknown predicate {p!r}")
    if "hadamard2d" in predicates and space.n != 2:
        raise ValueError("hadamard2d applies only to 2-dimensional spans")
    for name, count in (("sample_count", sample_count), ("limit", limit)):
        if count is not None and count < 0:
            raise ValueError(f"{name} must be nonnegative, got {count}")
    t0 = time.perf_counter()

    sampled = sample_count is not None
    if sampled:
        rng = random.Random(seed)
        masks = (rng.getrandbits(space.m) for _ in range(sample_count))
        results = [_scan(space, predicates, masks, max_witnesses)]
    else:
        total = 1 << space.m if limit is None else min(1 << space.m, limit)
        if total > 1 << MAX_EXHAUSTIVE_BITS:
            raise SpanTooLargeError(
                f"2^{space.m} combinations exceed exhaustive limits; "
                f"use sampling (--sample)")
        nworkers = max(1, int(workers))
        nranges = 1
        while nranges < nworkers:
            nranges *= 2
        bounds = [(total * k // nranges, total * (k + 1) // nranges)
                  for k in range(nranges)]
        args = [(space, predicates, a, b, max_witnesses)
                for a, b in bounds if b > a]
        if nworkers == 1 or len(args) == 1:
            results = [_scan_gray_range(a) for a in args]
        else:
            with ProcessPoolExecutor(max_workers=nworkers) as pool:
                results = list(pool.map(_scan_gray_range, args))

    counts = dict.fromkeys(predicates, 0)
    merged = []
    for _, c, items in results:
        for p in predicates:
            counts[p] += c[p]
        merged.extend(items)
    merged.sort()
    witnesses = [Witness(m, space.combo_labels(m), list(p))
                 for m, p in merged[:max_witnesses]]
    return SearchReport(examined=sum(r[0] for r in results), hits=counts,
                        witnesses=witnesses,
                        duration=time.perf_counter() - t0,
                        mode="sampled" if sampled else "exhaustive",
                        seed=seed if sampled else None)


def default_workers() -> int:
    env = os.environ.get("COCYRED_WORKERS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1
