"""Exhaustive and sampled enumeration of the 2^m span of a cocycle basis.

Both modes are one walk over a stream of combination masks, taken in
batches whose size follows from the byte budget `SCAN_BYTES`.  A stream
yields the heads of each batch (see below) and gives the little-endian
bytes of only the masks asked for; only a hit is decoded to an int.
Exhaustive mode streams the reflected Gray codes g(i) = i ^ (i >> 1) of
an index range, in blocks of 2^k indices aligned to 2^k; sampled mode
streams seeded `getrandbits(m)` draws, a batch from one `getrandbits`
call.  The exhaustive index space may be partitioned across workers by
its leading bits, walked in a process pool when each worker gets at
least `POOL_MIN_COMBOS` of them; otherwise it is walked inline as one
range.  Counts and retained witnesses are independent of the
partitioning because retention keeps the numerically smallest distinct
combination masks.  `limit` caps the walk before the
size refusal, so a limited prefix of a span with more than 2^62
combinations may be walked.

A walk of the whole span is taken modulo separable sign changes.
Multiplying a ±1 tensor by a product of single-axis ±1 functions s_a(x_a)
keeps every predicate: along axis a it flips whole sections, and along
any other axis it multiplies two parallel sections by the same signs, so
no dot product between them changes.  Every predicate is therefore
constant on the cosets of K, the masks whose combination is separable (a
sum over the axes of functions of one coordinate).  K is computed in a
tagged pass, in echelon form with exclusive pivots; the masks with zero
pivot bits are a complement of K, one per coset.  The walk streams their
Gray codes over the non-pivot rows, multiplies each count by 2^dim K,
and keeps every hit as the 2^dim K original masks of its coset, so the
retained witnesses are still the smallest original hit masks.  A prefix
is not a union of cosets and is walked mask by mask.  So a space has two
walks, each a `_Walk` built on first use and kept: `_full_walk`, modulo
K, and `_plain_walk`, for prefixes and samples.  A walk owns its coset,
tables, head, test stages and sizes, built once; a process pool is sent
the walk as built.

A walk evaluates every predicate on a batch at once, with integer and
bit operations only: packed popcount tests of every two sections along
axis 0, then, for the improper and proper tests at degree n >= 3 only,
one pass over the unpacked bits of the products that pass, over one test
list whose prefixes are the predicates (see `_Walk`).
So a verdict is the depth a product reached in that list, and `_scan`
tallies depths and keeps its witnesses in one trimmed dict.
Every walk is staged in two: it first forms only the head of each mask's
product, the sections s_0 ^ s_j for the h pairs (0, j) of the head, and
forms the full products, a survivor chunk at a time, only of the masks
whose head sections all have L/2 ones, as every predicate requires; they
are tested on the other pairs only.  A sampled batch forms its heads from
a head table, one entry per digit of each mask: a mask byte when the
walk's tables at 8 bits a digit fit in a quarter of `SCAN_BYTES`, else a
4-bit half of one (see `_digit_bits`).  A Gray block forms them with no
digit at all: for a block aligned to 2^k, g(a + t) = g(a) ^ g(t) for
every t < 2^k, and a head is linear in its mask, so the block's heads are
one low table, the heads of g(0 .. 2^k - 1) built once per range, XOR the
head of g(a).  2^k is the largest power of two, at most
2^m, whose rows leave room in `SCAN_BYTES` (2 MiB) for the full products
of the block's expected survivors.  The pairs are picked when the walk is
built, greedily on its own products of at most PROBE_MASKS seeded draws:
each is the pair that the fewest draws surviving the pairs before it
pass, and one is added only while it cuts the share that pass by more
than 1/v, so that a head section more per mask spares more than it costs
in full products.  At degree 3 a single pair passes so few draws that the
head stays one pair; at degree 2 it takes two or three.  The
predicates of `tensor.py` are the slow referee that the tests judge the
walk by.  Witnesses are masks; `SearchSpace.combo_labels` names their
rows.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .gf2 import WORD, int_rows, pack_rows, tagged_kernel
from .reduction import ReductionOutput
from .tensor import SignTensor

MAX_EXHAUSTIVE_BITS = 62

# Bytes a walk may hold in its XOR tables and head table (h/v of their
# size, for a head of h pairs) plus what one batch of a `_scan` holds,
# which sets the batch, Gray block and survivor chunk sizes when the walk
# is built, on its space's first use of it.  The tables take one digit per
# mask byte, 256 entries per 8 rows, when they fit in a quarter of it, and
# else one per 4 bits, 8 times smaller (`_digit_bits`).  A Gray block of
# 2^k masks holds its low table and heads, 16 h bytes per word of a
# section per mask, and the popcounts and positions of its survivors,
# beside one survivor chunk.  A batch or block gets at least a quarter of
# it, so the bound is max(SCAN_BYTES, tables + head table + quarter).  The
# probe that picks the walk's head runs between its tables and its head
# table, within the same bound.  It does not cover the witness dict, which
# holds at most 2 `max_witnesses` masks plus the hits of one batch, each
# with its coset.  2 MiB is one core's L2 cache on common x86 hosts.  It
# is fixed, not read from the machine, so that the sizes, and the memory a
# walk holds, do not depend on the host.  A batch or block costs about a
# hundred numpy calls whatever its size, so larger ones spread that cost
# over more masks.
SCAN_BYTES = 1 << 21

# Fewest combinations per worker that pay for starting a process pool;
# below it the walk is one range, walked inline.
POOL_MIN_COMBOS = 1 << 17

# Most seeded draws that pick the pairs (0, j) of a space's head.
PROBE_MASKS = 1024

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
        if len({row.tobytes() for row in self.bits}) != len(self.labels):
            raise ValueError("basis cochains must be pairwise distinct")

    @classmethod
    def from_reduction(cls, out: ReductionOutput) -> "SearchSpace":
        basis = out.basis
        if not len(basis):
            raise ValueError("empty basis has no search space; pass v and n explicitly")
        return cls(v=basis.v, n=basis.n, labels=basis.labels, bits=basis.bits)

    @property
    def m(self) -> int:
        return len(self.labels)

    def _mask_rows(self, mask: int) -> list[int]:
        if not 0 <= mask < 1 << self.m:
            raise ValueError(f"mask {mask} is not a combination of {self.m} rows")
        return _set_bits(mask)

    def combo_labels(self, mask: int) -> list[str]:
        return [self.labels[i] for i in self._mask_rows(mask)]

    def combo_bits(self, mask: int) -> np.ndarray:
        return np.bitwise_xor.reduce(self.bits[self._mask_rows(mask)], axis=0)

    def combo_tensor(self, mask: int) -> SignTensor:
        signs = (1 - 2 * self.combo_bits(mask).astype(np.int8))
        return SignTensor(self.v, self.n, signs.reshape((self.v,) * self.n))

    @cached_property
    def _full_walk(self) -> "_Walk":
        """The walk of the full span modulo K, or the plain one if K = 0."""
        rows = _separable_masks(self)
        return _Walk(self.v, self.n, self.bits, rows) if rows else self._plain_walk

    @cached_property
    def _plain_walk(self) -> "_Walk":
        """The walk of every mask, for a prefix or sampled draws."""
        return _Walk(self.v, self.n, self.bits, [])


@dataclass
class Witness:
    mask: int
    passed: list[str]


@dataclass
class SearchReport:
    examined: int
    hits: dict[str, int]
    witnesses: list[Witness]
    duration: float
    mode: str
    seed: int | None = None
    quotient_dim: int = 0
    head_pairs: tuple[int, ...] = ()


def _set_bits(x: int) -> list[int]:
    """The positions of the set bits of x >= 0, lowest first."""
    found = []
    while x:
        low = x & -x
        found.append(low.bit_length() - 1)
        x ^= low
    return found


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


class _Walk:
    """One walk of a space's span, given a basis of K in echelon form with
    exclusive pivots (none for the plain walk of every mask, of a prefix
    or of sampled draws): the coset of K, the bit-packed products of the
    walked rows, the one predicate test list, and the head and sizes, all
    built once.

    Every mask is c ^ k for exactly one k in K and one c whose pivot bits
    are zero, so the walk visits those c only: the masks over the `free`
    (non-pivot) rows, the walk's m rows.  Each walked mask stands for the
    2^dim masks of its `coset`, which `expand` lists.

    A product is the cochain's v sections along axis 0, each of `words` =
    ceil(v^(n-1)/64) uint64 words: section i holds, in row-major order and
    zero padded, the bits whose first coordinate is i, and is the XOR of
    one four-Russians table entry per digit of its mask: per byte, from 256
    entries per 8 rows, when those tables fit in a quarter of `SCAN_BYTES`,
    else per 4 bits, from 16 entries per 4 rows (`_digit_bits`).  Two ±1
    vectors of length L are orthogonal iff they differ in exactly L/2
    places, so axis 0 is tested entirely on packed words, with popcounts,
    and one pair test serves every list of pairs i < j.

    The head is the h pairs (0, j) of `js`, which `_probe_head` picks from
    the walk's own products.  The head table is the tables restricted to
    section 0 XOR section j, for each j of `js`, so `products` forms the
    head s_0 ^ s_j1, ..., s_0 ^ s_jh of every mask of a sampled batch.  A
    Gray walk reads the head of each row out of the same table and forms
    the heads of a block of `block` = 2^k masks as one low-table slice XOR
    the head of the block's first Gray code (see `_gray_blocks`).  Either
    way `passing` keeps the masks whose h head sections all have L/2 ones,
    and only they get mask bytes and full products, `full` at a time.  Two
    packed stages test section 0 against the sections outside the head:
    one on every full product, then the others on its survivors.  At
    degree 2 on a normalized cocyclic matrix this is the row-sum test of
    Horadam and de Launey, and few products pass it.  Their survivors,
    `chunk` at a time, are tested on the pairs (i >= 1, j); that completes
    the planar Hadamard test, so a degree-2 walk never unpacks, whatever
    the predicate: a square ±1 matrix with orthogonal rows has orthogonal
    columns, so at n = 2 the improper and proper tests are the planar one.
    At n >= 3, only for the improper and proper tests are the products
    that pass unpacked, for one pass over one test list: the sections
    along each later axis, then the parallel rows of every pair of axes.
    The three predicates are prefixes of that list, ending at `ends`, so
    the numpy calls per batch do not grow with v, and a verdict is a
    depth: `verdicts` gives each product whose axis-0 sections are
    pairwise orthogonal the number of tests it passed, and predicate p
    holds iff that is at least ends[p].

    A batch holds its heads and leaves room for one survivor chunk of a
    quarter more than `share`, the probe's share of masks that pass the
    head, so one chunk usually takes all its survivors.  A block is the
    largest power of two, at most 2^m, whose low-table rows, heads,
    popcounts and survivor positions leave room for the full products of
    `share` of its masks; it needs far fewer bytes per mask than a batch,
    which gathers a table entry per digit.  `full` fits beside either.
    """

    def __init__(self, v: int, n: int, bits: np.ndarray, kernel_rows: list[int]):
        self.dim = len(kernel_rows)
        pivots = {x.bit_length() - 1 for x in kernel_rows}
        self.free = [i for i in range(len(bits)) if i not in pivots]
        self.coset = [0]  # the masks of K: walked mask c stands for c ^ K
        for x in kernel_rows:
            self.coset += [c ^ x for c in self.coset]
        rows = bits[self.free] if self.dim else bits
        self.v, self.n, self.m = v, n, len(rows)
        self.length = v ** (n - 1)
        self.words = -(-self.length // WORD)
        self.width = width = v * self.words
        # ±1 vectors of odd length have odd dot products: no count is half;
        # at v = 1 the head s_0 ^ s_0 has 0 = L // 2 ones
        self.half = self.length // 2 if self.length % 2 == 0 or v == 1 else -1
        per = _digit_bits(self.m, width)
        groups = -(-self.m // per)
        packed = np.zeros((per * groups, width), dtype=np.uint64)
        packed[:self.m] = pack_rows(rows.reshape(
            self.m * v, self.length)).reshape(self.m, width)
        # four-Russians tables: entry d of group g is the XOR of the rows
        # per * g + b over the set bits b of d, for per bits a digit
        self.tables = np.zeros((groups, 1 << per, width), dtype=np.uint64)
        for b in range(per):
            np.bitwise_xor(self.tables[:, :1 << b], packed[b::per, None],
                           out=self.tables[:, 1 << b:2 << b])
        # tables past the budget (spans far beyond exhaustive reach) still
        # leave a quarter of it to the probe, a batch or a block
        room = max(SCAN_BYTES - self.tables.nbytes, SCAN_BYTES // 4)
        # a batch of full products holds its mask stream and digits, the
        # product and one gathered table entry per mask, and one section
        # row's XORs and popcounts
        per_mask = 24 * width + (25 * self.words + 5) * v + 128
        self.js, self.share = js, share = _probe_head(
            self, max(1, room // per_mask))
        self.h = h = len(js)
        sections = self.tables.reshape(groups, 1 << per, v, self.words)
        table = sections.take(js, axis=2)
        table ^= sections[:, :, :1]
        self.head = table.reshape(groups, 1 << per, h * self.words)
        room = max(room - self.head.nbytes, SCAN_BYTES // 4)
        r = np.arange(v)
        # every pair i < j, row-major, so the pair (0, j) is at j - 1; past
        # the head the packed tests take one pair (0, j) outside it, then
        # the other pairs (0, j) outside it, then (i >= 1, j)
        self.pairs = x, y = np.nonzero(r[:, None] < r)
        out = [j - 1 for j in range(1, v) if j not in js]
        self.stages = [(x[k], y[k]) for k in (out[:1], out[1:], slice(v - 1, None))]
        # the unpacked tests, (axes moved, to where, segments per row): the
        # sections along each later axis, then the rows of each pair of axes;
        # at n = 2 the packed pairs have decided all of them
        self.tests = [] if n == 2 else (
            [((1 + a,), (1,), 1) for a in range(1, n)]
            + [((1 + l, 1 + j), (1, n), self.length // v)
               for l in range(n) for j in range(l + 1, n)])
        # each predicate is a prefix of the unpacked tests
        self.ends = {"hadamard2d": 0, "improper": min(n - 1, len(self.tests)),
                     "proper": len(self.tests)}
        # a batch of heads holds its mask stream and digits, the head and
        # one gathered entry per mask, and the head's popcounts; then, while
        # the survivors' full products are formed, the masks as drawn and
        # the survivor positions, beside one survivor chunk
        rows = -(-self.m // 32)
        per_head = 24 * h * self.words + 4 * -(-self.m // 8) + 8 * rows + 64
        per_held = 8 * rows + 24
        survive = min(1.0, 1.25 * share + 0.01)
        self.batch = max(1, min(room // per_head,
                                int(room // (per_held + survive * per_mask))))
        # a Gray block (see `_gray_blocks`) holds, per mask, a row of the
        # low table, its head, the head's popcounts (and their sums over
        # words) and two compares, and the position of a survivor; it is
        # the largest power of two, at most 2^m, that leaves room for the
        # full products of its share of survivors
        per_row = 17 * h * self.words + (4 * h if self.words > 1 else 0) + 10
        fit = int(room // (per_row + share * per_mask))
        self.block = 1 << min(self.m, max(0, fit.bit_length() - 1))
        room -= max(per_held * self.batch, per_row * self.block)
        # one survivor chunk, of a batch or a block: the full products of
        # `full` masks at once
        self.full = max(1, room // per_mask)
        # the survivor pass runs while the full products and their masks
        # are held; per survivor it holds the packed and unpacked product,
        # the cube, one moved copy, and per pair of rows two rows and the
        # counts; that is more than the packed pair test before it holds,
        # about 18 bytes per pair per word
        held = (8 * width + 128) * self.full
        per_survivor = 72 * width + 3 * v ** n \
            + (2 * v + 5) * (v - 1) * self.length // 2
        self.chunk = max(1, (room - held) // per_survivor)

    def expand(self, x: int) -> list[int]:
        """The original masks of walked mask x's coset."""
        if not self.dim:
            return [x]
        base = 0
        for j in _set_bits(x):
            base |= 1 << self.free[j]
        return [base ^ k for k in self.coset]

    def products(self, raw: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Packed products of a batch of masks, given as rows of
        little-endian mask bytes, from `table` (the tables or the head
        table): one table entry per digit, a mask byte for tables of 256
        entries a group and half of one for tables of 16.

        A digit that is the same throughout the batch (the high digits of
        a run of Gray codes) adds one fixed entry instead of a gather.
        """
        per = table.shape[1].bit_length() - 1  # bits per digit
        groups = min(len(table), 8 * raw.shape[1] // per)
        used = np.ascontiguousarray(raw[:, :-(-groups * per // 8)].T)
        spread = np.bitwise_or.reduce(used ^ used[:, :1], axis=1).tolist()
        digits = used
        if per == 4:
            digits = np.empty((2 * len(used), len(raw)), dtype=np.uint8)
            np.bitwise_and(used, 15, out=digits[0::2])
            np.right_shift(used, 4, out=digits[1::2])
        prod = np.zeros((len(raw), table.shape[2]), dtype=np.uint64)
        entry = np.empty_like(prod)
        fixed = np.zeros_like(prod[0])
        for g in range(groups):
            if spread[g * per // 8] >> g * per % 8 & (1 << per) - 1:
                # digits are below 2^per (16 or 256), the table's entries,
                # so "clip" only skips the bounds check
                np.take(table[g], digits[g], axis=0, out=entry, mode="clip")
                prod ^= entry
            else:
                fixed ^= table[g, digits[g, 0]]
        prod ^= fixed
        return prod

    def passing(self, heads: np.ndarray) -> np.ndarray:
        """Positions of the masks whose h head sections all have L/2 ones,
        given their `heads`, one column per mask of the h sections' words:
        one compare per section, chained."""
        ones = np.bitwise_count(heads)
        if self.words > 1:
            ones = ones.reshape(self.h, self.words, -1).sum(axis=1, dtype=np.int32)
        passed = ones[0] == self.half
        for c in range(1, self.h):
            passed &= ones[c] == self.half
        return np.flatnonzero(passed)

    def verdicts(self, heads: np.ndarray, masks,
                 depth: int) -> tuple[np.ndarray, np.ndarray]:
        """(positions, reached) for the masks of a batch, given by their
        `heads` and by `masks(positions)`, their rows of little-endian mask
        bytes: the positions, ascending, whose axis-0 sections are pairwise
        orthogonal, and how many of the first `depth` unpacked tests each
        passed (int8), so that predicate p holds iff reached >= ends[p].
        Full products are formed only of the positions whose h head
        sections all have L/2 ones, `full` at a time, and tested on the two
        packed stages outside the head, then `chunk` at a time in the
        survivor pass."""
        alive = self.passing(heads)
        found, reached = [alive[:0]], [np.zeros(0, dtype=np.int8)]
        for k in range(0, len(alive), self.full):
            part = alive[k:k + self.full]
            prod = self.products(masks(part), self.tables)
            keep = np.flatnonzero(self._orthogonal(prod, self.stages[0]))
            keep = keep[self._orthogonal(prod[keep], self.stages[1])]
            for c in range(0, len(keep), self.chunk):
                where, depths = self._survivors(prod, keep[c:c + self.chunk], depth)
                found.append(part[where])
                reached.append(depths)
        return np.concatenate(found), np.concatenate(reached)

    def bits(self, prod: np.ndarray) -> np.ndarray:
        """Cochain bits of packed products."""
        unpacked = np.unpackbits(prod.view(np.uint8).reshape(
            len(prod), self.v, -1), axis=2, bitorder="little")
        return unpacked[:, :, :self.length].reshape(len(prod), -1)

    def _orthogonal(self, prod: np.ndarray, pairs) -> np.ndarray:
        """Whether sections x and y of each packed product are orthogonal
        for every pair (x, y) of `pairs`: s_x . s_y = L - 2 popcount(s_x ^
        s_y)."""
        x, y = pairs
        s = prod.reshape(len(prod), self.v, self.words)
        return (self._ones(s[:, x] ^ s[:, y]) == self.half).all(axis=1)

    def _ones(self, x: np.ndarray) -> np.ndarray:
        """Popcounts of packed sections, summed over their words."""
        ones = np.bitwise_count(x)
        return ones[..., 0] if self.words == 1 else ones.sum(axis=-1, dtype=np.int32)

    def _survivors(self, prod: np.ndarray, alive: np.ndarray,
                   depth: int) -> tuple[np.ndarray, np.ndarray]:
        """(positions, reached): the positions among `alive` whose axis-0
        sections are pairwise orthogonal, and how many of the first `depth`
        unpacked tests each passed; each test runs on the survivors of the
        one before, and the pass ends at the first test that leaves none.

        The pairs (i >= 1, j) of axis 0 are tested on the packed sections,
        and only the products that pass them are unpacked, when depth > 0.
        Each unpacked test reads the bits as (positions, v, segments,
        segment length) and keeps a position when every two of its v rows
        differ in exactly half of every segment: the sections along each
        later axis, one segment each, then for each l < j the rows along j
        at two positions of l, one segment per fixing of the other
        coordinates.  Only l < j is tested: a square ±1 matrix M with M M^T
        = vI is invertible, so M^T M = vI too, and the rows along l at two
        positions of j are then orthogonal as well.
        """
        alive = alive[self._orthogonal(prod[alive], self.stages[2])]
        reached = np.zeros(len(alive), dtype=np.int8)
        if depth and len(alive):
            x, y = self.pairs
            cube = self.bits(prod[alive]).reshape((len(alive),) + (self.v,) * self.n)
            left = np.arange(len(alive))
            for src, dst, segments in self.tests[:depth]:
                rows = np.moveaxis(cube, src, dst).reshape(
                    len(left), self.v, segments, self.length // segments)
                differ = rows[:, x]
                differ ^= rows[:, y]
                ones = differ.sum(axis=3, dtype=np.int32)
                keep = (ones == self.length // segments // 2).all(axis=(1, 2))
                left, cube = left[keep], cube[keep]
                reached[left] += 1
                if not len(left):
                    break
        return alive, reached


def _digit_bits(m: int, width: int) -> int:
    """Bits per digit of the four-Russians tables of m rows of `width`
    words: 8, so that each mask byte is a digit, when those tables, 256
    entries per 8 rows, fit in a quarter of `SCAN_BYTES`; otherwise 4, with
    16 entries per 4 rows."""
    return 8 if -(-m // 8) * 256 * width * 8 <= SCAN_BYTES // 4 else 4


def _separable_masks(space: SearchSpace) -> list[int]:
    """A basis of K, the masks whose combination is separable (a sum over
    the axes of functions of one coordinate), in highest-bit echelon form
    with exclusive pivots: no row has another row's highest bit set.

    x is in K iff x @ bits lies in the span of S, the n*v single-axis
    indicator rows (bit set where x_a = i).  So it is one `tagged_kernel`
    pass over the rows of bits, seeded with the rows of S shifted past bit
    m, whose vectors already have exclusive pivots.
    """
    v, n, m = space.v, space.n, space.m
    coords = np.indices((v,) * n).reshape(n, 1, -1)
    single = (coords == np.arange(v)[:, None]).reshape(n * v, -1)
    return tagged_kernel(int_rows(pack_rows(space.bits)),
                         [x << m for x in int_rows(pack_rows(single))])


def _probe_head(walk: _Walk, size: int) -> tuple[tuple[int, ...], float]:
    """(pairs, share): the pairs (0, j) that the walk tests first and the
    share of the draws of the probe, min(PROBE_MASKS, 2^m) draws of
    random.Random(0), that pass all of them, from the walk's full products
    of those draws, `size` at a time.  The first pair is the one that the
    fewest draws pass, and each next one the one that the fewest of the
    draws surviving the pairs so far pass, ties to the smallest j.
    A pair is added only while it cuts the pass share by more than 1/v:
    one more head section per mask pays only if it spares a full product,
    v sections, for more than one in v masks.  At v = 1, with no pair,
    s_0 ^ s_0 passes all."""
    v = walk.v
    if v == 1:
        return (0,), 1.0
    draws = min(PROBE_MASKS, 1 << walk.m)
    passes = []
    for raw in _sampled_batches(random.Random(0), walk.m, draws, size):
        s = walk.products(raw, walk.tables).reshape(len(raw), v, walk.words)
        passes.append(walk._ones(s[:, :1] ^ s[:, 1:]) == walk.half)
    alive = np.concatenate(passes)
    pairs, count = [], draws
    while True:
        passed = alive.sum(axis=0)
        j = int(np.argmin(passed))
        if pairs and (count - passed[j]) * v <= draws:
            return tuple(pairs), count / draws
        pairs.append(1 + j)
        count = int(passed[j])
        alive = alive[alive[:, j]]


def _gray_blocks(start: int, stop: int, walk: _Walk):
    """The heads of the reflected Gray codes g(i) = i ^ (i >> 1) of the
    indices [start, stop), one block of `walk.block` = 2^k indices at a
    time, each with a function from positions in it to mask bytes.

    For a block aligned to 2^k, a = 0 mod 2^k, g(a + t) = g(a) ^ g(t) for
    every t < 2^k, and a head is linear in its mask: so the heads of a
    block are the rows of one low table, the heads of g(0 .. 2^k - 1),
    XOR the head of g(a), and no mask is formed before its head passes.
    The low table is built by k reflections, g(2^b + t) = 2^b ^ g(2^b - 1
    - t) for t < 2^b.  A block is cut to [start, stop) at the ends."""
    size = walk.block
    bits = np.arange(walk.m)
    per = walk.head.shape[1].bit_length() - 1  # bits per digit
    rows = walk.head[bits // per, 1 << bits % per].T  # a column per row's head
    low = np.zeros((len(rows), size), dtype=np.uint64)
    for b in range(size.bit_length() - 1):
        np.bitwise_xor(low[:, (1 << b) - 1::-1], rows[:, b:b + 1],
                       out=low[:, 1 << b:2 << b])
    for a in range(start - start % size, stop, size):
        first = max(start, a)
        base = np.bitwise_xor.reduce(rows[:, _set_bits(a ^ a >> 1)], axis=1)
        yield (low[:, first - a:min(stop - a, size)] ^ base[:, None],
               partial(_gray_bytes, first))


def _gray_bytes(first: int, positions: np.ndarray) -> np.ndarray:
    """Little-endian bytes of the Gray codes of the indices first +
    positions."""
    i = positions + first
    i ^= i >> 1
    return i.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)


def _digit_heads(batches, walk: _Walk):
    """The heads of each batch of `batches(walk.batch)`, rows of mask
    bytes, formed from the head table one digit (a mask byte or half of
    one, as the walk's tables are sized) at a time, each with its batch's
    row lookup."""
    for raw in batches(walk.batch):
        yield walk.products(raw, walk.head).T, raw.__getitem__


def _sampled_batches(rng: random.Random, m: int, count: int, size: int):
    """`count` draws of `rng.getrandbits(m)`, in order, in batches of
    little-endian mask bytes.  getrandbits(k) takes ceil(k/32) 32-bit
    generator words, lowest first, and shifts only the last right by -k
    mod 32, so one call for all of a batch's words, with each draw's last
    word shifted, gives the same draws and leaves the same state."""
    words, shift = -(-m // 32), -m % 32
    for a in range(0, count, size):
        c = min(size, count - a)
        drawn = rng.getrandbits(32 * words * c).to_bytes(4 * words * c, "little")
        rows = np.frombuffer(drawn, dtype="<u4").reshape(c, words)
        if shift:
            rows = rows.copy()
            rows[:, -1] >>= shift
        yield rows.view(np.uint8)[:, :(m + 7) // 8]


def _ints(raw: np.ndarray) -> list[int]:
    """The masks of rows of little-endian mask bytes, as ints; rows of 8
    bytes, as every Gray code is given, are read as one uint64 each."""
    if raw.shape[1] == 8:
        return raw.view("<u8").ravel().tolist()
    return int_rows(raw)


def _scan(walk: _Walk, predicates: tuple[str, ...], stream, cap: int):
    """Test the product of every mask of `stream(walk)`, an iterable
    of (heads, masks) batches of masks of the walk's rows: the packed heads
    of the batch, one column per mask, and a function from positions in
    the batch to their masks' rows of little-endian bytes, asked only for
    positions whose heads pass; returns the examined count, the hit counts
    and the `cap` smallest distinct hit masks with the predicates each
    passed, decoding only the hits to ints.  Each mask counts, and is kept
    as a witness, once per mask of its coset.

    A verdict is the depth a mask reached in the walk's test list, so
    the counts are one tally per depth, and `passed[t]` names the
    predicates of depth t.  The witnesses are one dict, mask -> passed,
    cut to its `cap` smallest keys once it holds more than 2 cap; after a
    cut, a mask above the largest key kept cannot be among the `cap`
    smallest and is not stored."""
    ends = [walk.ends[p] for p in predicates]
    depth = max(ends, default=0)
    passed = [tuple(p for p, e in zip(predicates, ends) if t >= e)
              for t in range(depth + 1)]
    least = min(ends, default=depth + 1)
    tally = np.zeros(depth + 1, dtype=np.int64)
    kept: dict[int, tuple[str, ...]] = {}
    bound = None
    examined = 0
    for heads, masks in stream(walk):
        examined += heads.shape[1] << walk.dim
        where, reached = walk.verdicts(heads, masks, depth)
        tally += np.bincount(reached, minlength=depth + 1)
        hit = reached >= least
        if not cap or not hit.any():
            continue
        for mask, t in zip(_ints(masks(where[hit])), reached[hit].tolist()):
            for original in walk.expand(mask):
                if bound is None or original <= bound:
                    kept[original] = passed[t]
        if len(kept) > 2 * cap:
            smallest = sorted(kept)[:cap]
            kept, bound = {x: kept[x] for x in smallest}, smallest[-1]
    counts = {p: int(tally[e:].sum()) << walk.dim for p, e in zip(predicates, ends)}
    return examined, counts, sorted(kept.items())[:cap]


def _scan_gray_range(args):
    walk, predicates, start, stop, cap = args
    return _scan(walk, predicates, partial(_gray_blocks, start, stop), cap)


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
    exceeds 2^62; a walk of all 2^m walks them modulo the separable
    combinations, with the same counts and witnesses.  Sampled mode draws
    sample_count masks from a generator seeded with `seed` >= 0, the same
    as sample_count calls of `random.Random(seed).getrandbits(m)`.  Counts
    and witnesses are independent of the worker count.
    """
    predicates = tuple(predicates)
    for k, p in enumerate(predicates):
        if p not in PREDICATES:
            raise ValueError(f"unknown predicate {p!r}")
        if p in predicates[:k]:
            raise ValueError(f"predicate {p!r} appears more than once")
    if "hadamard2d" in predicates and space.n != 2:
        raise ValueError("hadamard2d applies only to 2-dimensional spans")
    for name, count in (("sample_count", sample_count), ("limit", limit),
                        ("max_witnesses", max_witnesses), ("seed", seed)):
        if count is not None and count < 0:
            raise ValueError(f"{name} must be nonnegative, got {count}")
    t0 = time.perf_counter()

    sampled = sample_count is not None
    if sampled:
        walk = space._plain_walk
        stream = partial(_digit_heads, partial(
            _sampled_batches, random.Random(seed), space.m, sample_count))
        results = [_scan(walk, predicates, stream, max_witnesses)]
    else:
        total = 1 << space.m if limit is None else min(1 << space.m, limit)
        if total > 1 << MAX_EXHAUSTIVE_BITS:
            raise SpanTooLargeError(
                f"2^{space.m} combinations exceed exhaustive limits; "
                f"use sampling (--sample)")
        # a prefix is not a union of cosets of K: only a full walk is
        # taken modulo K
        walk = space._full_walk if total == 1 << space.m else space._plain_walk
        total >>= walk.dim
        nworkers = max(1, int(workers))
        # the power of two at or above nworkers, or one range if no pool
        nranges = 1 << (nworkers - 1).bit_length()
        if total // nranges < POOL_MIN_COMBOS:
            nranges = 1
        bounds = [(total * k // nranges, total * (k + 1) // nranges)
                  for k in range(nranges)]
        args = [(walk, predicates, a, b, max_witnesses)
                for a, b in bounds if b > a]
        if nranges == 1:
            results = [_scan_gray_range(a) for a in args]
        else:
            # the pool starts all its processes at once: no more than the
            # ranges or the CPUs
            procs = min(nworkers, len(args), os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=procs) as pool:
                results = list(pool.map(_scan_gray_range, args))

    counts = dict.fromkeys(predicates, 0)
    merged = []
    for _, c, items in results:
        for p in predicates:
            counts[p] += c[p]
        merged.extend(items)
    merged.sort()
    witnesses = [Witness(m, list(p)) for m, p in merged[:max_witnesses]]
    return SearchReport(examined=sum(r[0] for r in results), hits=counts,
                        witnesses=witnesses,
                        duration=time.perf_counter() - t0,
                        mode="sampled" if sampled else "exhaustive",
                        seed=seed if sampled else None, quotient_dim=walk.dim,
                        head_pairs=walk.js)


def default_workers() -> int:
    env = os.environ.get("COCYRED_WORKERS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1
