"""Dense exact linear algebra over GF(2).

Matrices are 2-D numpy arrays with entries in {0, 1} (dtype uint8 at the
API level).  One engine, the incremental row basis `Basis`, answers every
rank, greedy-selection, span-membership and kernel question, and ranks
the brute-force cohomology oracle's bar-complex matrices.  Its rows are
Python ints (bit j is column j) kept under their highest set bit; a new
row is reduced by XORing in the basis row under its current top bit
until it is zero or its top bit is new, and then enlarges the basis.  A
row enlarges the basis iff it lies outside the span of the rows offered
before it, whatever the pivot rule, so greedy selection is the
lexicographically first maximal independent subset.  The highest-bit
pivot is chosen for fill-in: every row of the bar complex's d^n has a bit
in its top column block (from the drop-first face), so most rows bring a
new top bit and need few XORs, where lowest-bit pivots XOR long runs of
zero words.

The Smith normal form, which also needs its transforms, is a separate
elimination on unpacked matrices; the tests use it as the independent
referee of the engine.

Row-vector convention throughout: row m of a matrix is the image of the
m-th basis element, and a coordinate row x maps to x @ M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORD = 64


def as_bits(a) -> np.ndarray:
    """Validate and return a 2-D uint8 0/1 matrix."""
    m = np.asarray(a, dtype=np.uint8)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if m.size and m.max() > 1:
        raise ValueError("matrix entries must be 0 or 1")
    return m


def pack_rows(a: np.ndarray) -> np.ndarray:
    """Pack each row of a 0/1 matrix into uint64 words (little bit first)."""
    m = as_bits(a)
    rows, cols = m.shape
    nwords = max(1, -(-cols // WORD))
    packed = np.zeros((rows, nwords * 8), dtype=np.uint8)
    packed[:, :-(-cols // 8)] = np.packbits(m, axis=1, bitorder="little")
    return packed.view(np.uint64).reshape(rows, nwords)


class Basis:
    """Incremental GF(2) row basis.

    Rows are Python ints, bit j being column j, and each basis row is kept
    under its bit_length(), so a row operation is one big-int XOR.  A row
    is reduced by XORing in the basis row under its current top bit until
    it is zero or its top bit is new.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, x: int) -> int:
        """x reduced by the basis: 0 iff x lies in its span."""
        rows = self.rows
        while x:
            b = rows.get(x.bit_length())
            if b is None:
                break
            x ^= b
        return x

    def add(self, x: int) -> int:
        """Reduce x and keep the result if it is nonzero; returns it."""
        x = self.reduce(x)
        if x:
            self.rows[x.bit_length()] = x
        return x


def int_rows(packed: np.ndarray) -> list[int]:
    """Rows of a little-endian packed bit matrix (uint8 bytes or pack_rows
    words) as ints, bit j of a row being column j."""
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def bit_rows(rows: list[int], cols: int) -> np.ndarray:
    """Inverse of int_rows: ints (bit j = column j) as a (len(rows), cols)
    0/1 uint8 matrix."""
    width = -(-cols // 8)
    packed = np.frombuffer(b"".join(x.to_bytes(width, "little") for x in rows),
                           dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=cols, bitorder="little")


def greedy_independent_rows(m) -> tuple[list[int], int]:
    """Scan rows in index order, keeping each row iff it enlarges the span.

    Returns (selected 0-based row indices, rank).  The selection is the
    lexicographically first maximal independent subset of rows: a row
    enlarges the basis iff it lies outside the span of the rows before it.
    """
    m = as_bits(m)
    basis = Basis()
    selected: list[int] = []
    for i, x in enumerate(int_rows(pack_rows(m))):
        if len(basis) == m.shape[1]:
            break
        if basis.add(x):
            selected.append(i)
    return selected, len(selected)


def gf2_rank(m) -> int:
    """Rank of M."""
    return greedy_independent_rows(m)[1]


def in_row_space(basis, x) -> bool:
    """True iff x lies in the GF(2) span of the given rows."""
    x = np.asarray(x, dtype=np.uint8).reshape(1, -1)
    basis = as_bits(basis) if len(basis) else np.zeros((0, x.shape[1]), dtype=np.uint8)
    if basis.shape[1] != x.shape[1]:
        raise ValueError("row length mismatch")
    span = Basis()
    for row in int_rows(pack_rows(basis)):
        span.add(row)
    return not span.reduce(int_rows(pack_rows(x))[0])


@dataclass
class SnfResult:
    """Smith normal form over GF(2): D = P @ M @ Q with I_rank top-left in D."""

    D: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    rank: int


def smith_normal_form_gf2(m) -> SnfResult:
    """Rank normal form D = P·M·Q over GF(2), with P and Q.

    Over a field the Smith form is I_rank ⊕ 0; P and Q are accumulated from
    the elementary operations.
    """
    d = as_bits(m).copy()
    q_rows, r_cols = d.shape
    p = np.eye(q_rows, dtype=np.uint8)
    q = np.eye(r_cols, dtype=np.uint8)

    rank = 0
    while True:
        sub = d[rank:, rank:]
        nz = np.argwhere(sub)
        if nz.size == 0:
            break
        i, j = int(nz[0, 0]) + rank, int(nz[0, 1]) + rank
        if i != rank:
            d[[rank, i]] = d[[i, rank]]
            p[[rank, i]] = p[[i, rank]]
        if j != rank:
            d[:, [rank, j]] = d[:, [j, rank]]
            q[:, [rank, j]] = q[:, [j, rank]]
        # clear the pivot column with row ops, then the pivot row with column ops
        rows = np.nonzero(d[:, rank])[0]
        rows = rows[rows != rank]
        if rows.size:
            d[rows] ^= d[rank]
            p[rows] ^= p[rank]
        cols = np.nonzero(d[rank, :])[0]
        cols = cols[cols != rank]
        if cols.size:
            d[:, cols] ^= d[:, [rank]]
            q[:, cols] ^= q[:, [rank]]
        rank += 1

    return SnfResult(D=d, P=p, Q=q, rank=rank)


def tagged_kernel(rows: list[int], seed=()) -> list[int]:
    """Kernel vectors of one tagged pass over int rows.  After the `seed`
    rows (already shifted past bit k = len(rows)), row i enters one `Basis`
    as (rows[i] << k) | (1 << i), and a remainder with no bit at or above
    k is kept.  Its bits name rows, row i the highest, whose XOR the seed
    spans (is 0, with no seed).  Kept row i is stored under its top bit i,
    which no later remainder reaches (each keeps its own higher tag bit),
    so no other row ever takes bit i: the kept vectors, in order of their
    top bits, have exclusive pivots, none holding another's top bit."""
    k = len(rows)
    basis = Basis()
    for x in seed:
        basis.add(x)
    return [r for i, x in enumerate(rows)
            if not (r := basis.add((x << k) | (1 << i))) >> k]


def left_kernel(m) -> tuple[int, np.ndarray]:
    """Rank of M and a basis for {x : x @ M = 0}, as rows, from one
    `tagged_kernel` pass over the rows of M."""
    m = as_bits(m)
    rows = m.shape[0]
    if rows == 0:
        return 0, np.zeros((0, 0), dtype=np.uint8)
    kernel = tagged_kernel(int_rows(pack_rows(m)))
    return rows - len(kernel), bit_rows(kernel, rows)
