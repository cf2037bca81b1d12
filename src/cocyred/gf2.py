"""Dense exact linear algebra over GF(2).

Matrices are 2-D numpy arrays with entries in {0, 1} (dtype uint8 at the
API level).  Eliminations work on rows packed into uint64 words so that
row operations are word-parallel, which matters for the brute-force
cohomology oracle, whose matrices reach a few thousand rows by ~2^16
columns.  The column sweep, `column_sweep`, answers rank and kernel
questions.  Greedy selection and span membership sweep the rows of M in
order: the column sweep over M^T selects the same rows but fills in far
more when M^T is tall.  The Smith normal form, which also needs its
transforms, is the only other elimination.

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
    nwords = max(1, (cols + WORD - 1) // WORD)
    padded = np.zeros((rows, nwords * WORD), dtype=np.uint8)
    padded[:, :cols] = m
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view(np.uint64).reshape(rows, nwords)


def unpack_rows(words: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of pack_rows."""
    rows = words.shape[0]
    if rows == 0:
        return np.zeros((0, cols), dtype=np.uint8)
    bits = np.unpackbits(words.view(np.uint8).reshape(rows, -1),
                         axis=1, bitorder="little")
    return np.ascontiguousarray(bits[:, :cols])


def column_sweep(w: np.ndarray, ncols: int) -> list[int]:
    """Row-reduce packed rows in place by a left-to-right column sweep.

    Each column that has a 1 at or below the current row gets a pivot: the
    first such row is swapped up and added to every later row with that
    bit.  Returns the pivot columns.  Afterwards the first len(pivots) rows
    span the row space and every later row is zero in columns < ncols.

    Works one word of columns at a time on a contiguous copy of that word,
    kept in step with the row operations; the OR of its live rows skips
    every column that can no longer hold a pivot.
    """
    rows, _ = w.shape
    pivots: list[int] = []
    r = 0
    for word in range((ncols + WORD - 1) // WORD):
        if r == rows:
            break
        col = w[r:, word].copy()
        base = r
        live_mask = (1 << min(WORD, ncols - word * WORD)) - 1
        while r < rows:
            live = int(np.bitwise_or.reduce(col[r - base:])) & live_mask
            if not live:
                break
            bit = (live & -live).bit_length() - 1
            live_mask &= ~((2 << bit) - 1)
            hits = r + np.flatnonzero(col[r - base:] & np.uint64(1 << bit))
            piv = int(hits[0])
            if piv != r:
                w[[r, piv]] = w[[piv, r]]
                col[[r - base, piv - base]] = col[[piv - base, r - base]]
            below = hits[1:]
            if below.size:
                # rows >= r are zero left of this word, so XOR from it on
                w[below, word:] ^= w[r, word:]
                col[below - base] ^= col[r - base]
            pivots.append(word * WORD + bit)
            r += 1
    return pivots


def greedy_independent_rows(m) -> tuple[list[int], int]:
    """Scan rows in index order, keeping each row iff it enlarges the span.

    Returns (selected 0-based row indices, rank).  The selection is the
    lexicographically first maximal independent subset of rows.  A
    row-order sweep over M itself: a row is kept iff it is nonzero after
    reduction by the kept rows before it; its lowest set bit becomes its
    pivot column and is cleared from every later row.
    """
    m = as_bits(m)
    w = pack_rows(m)
    selected: list[int] = []
    for i, row in enumerate(w):
        if len(selected) == m.shape[1]:
            break
        nonzero = np.flatnonzero(row)
        if not nonzero.size:
            continue
        word = int(nonzero[0])
        low = int(row[word]) & -int(row[word])
        # row is zero left of its pivot word, so XOR from that word on
        later = i + 1 + np.flatnonzero(w[i + 1:, word] & np.uint64(low))
        w[later, word:] ^= row[word:]
        selected.append(i)
    return selected, len(selected)


def gf2_rank(m) -> int:
    """Rank of M: the pivot count of the sweep over M itself, which for a
    wide matrix fills in far less than the sweep over its transpose."""
    m = as_bits(m)
    return len(column_sweep(pack_rows(m), m.shape[1]))


def in_row_space(basis, x) -> bool:
    """True iff x lies in the GF(2) span of the given rows."""
    x = np.asarray(x, dtype=np.uint8).reshape(1, -1)
    basis = as_bits(basis) if len(basis) else np.zeros((0, x.shape[1]), dtype=np.uint8)
    if basis.shape[1] != x.shape[1]:
        raise ValueError("row length mismatch")
    selected, _ = greedy_independent_rows(np.vstack([basis, x]))
    return basis.shape[0] not in selected


@dataclass
class SnfResult:
    """Smith normal form over GF(2): D = P @ M @ Q with I_rank top-left in D."""

    D: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    Pinv: np.ndarray
    Qinv: np.ndarray
    rank: int


def smith_normal_form_gf2(m) -> SnfResult:
    """Rank normal form D = P·M·Q over GF(2), with all four transforms.

    Over a field the Smith form is I_rank ⊕ 0; P and Q are accumulated from
    the elementary operations (transvections and swaps are self-inverse, so
    the inverses are accumulated alongside rather than inverted afterwards).
    """
    d = as_bits(m).copy()
    q_rows, r_cols = d.shape
    p = np.eye(q_rows, dtype=np.uint8)
    pinv = np.eye(q_rows, dtype=np.uint8)
    q = np.eye(r_cols, dtype=np.uint8)
    qinv = np.eye(r_cols, dtype=np.uint8)

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
            pinv[:, [rank, i]] = pinv[:, [i, rank]]
        if j != rank:
            d[:, [rank, j]] = d[:, [j, rank]]
            q[:, [rank, j]] = q[:, [j, rank]]
            qinv[[rank, j]] = qinv[[j, rank]]
        # clear the pivot column with row ops, then the pivot row with column ops
        rows = np.nonzero(d[:, rank])[0]
        rows = rows[rows != rank]
        if rows.size:
            d[rows] ^= d[rank]
            p[rows] ^= p[rank]
            pinv[:, rank] ^= (pinv[:, rows].sum(axis=1) & 1).astype(np.uint8)
        cols = np.nonzero(d[rank, :])[0]
        cols = cols[cols != rank]
        if cols.size:
            d[:, cols] ^= d[:, [rank]]
            q[:, cols] ^= q[:, [rank]]
            qinv[rank] ^= (qinv[cols].sum(axis=0) & 1).astype(np.uint8)
        rank += 1

    return SnfResult(D=d, P=p, Q=q, Pinv=pinv, Qinv=qinv, rank=rank)


def left_kernel(m) -> tuple[int, np.ndarray]:
    """Rank of M and a basis for {x : x @ M = 0}, as rows.

    Augmented elimination: the sweep row-reduces [M | I] with pivots
    restricted to the M block; the identity parts of the zero rows span the
    kernel.  Accepts either an unpacked 0/1 matrix or (packed, ncols).
    """
    if isinstance(m, tuple):
        packed, ncols = m
    else:
        m = as_bits(m)
        packed, ncols = pack_rows(m), m.shape[1]
    rows, nw = packed.shape
    if rows == 0:
        return 0, np.zeros((0, 0), dtype=np.uint8)
    aug = np.hstack([packed, pack_rows(np.eye(rows, dtype=np.uint8))])
    rank = len(column_sweep(aug, ncols))
    return rank, unpack_rows(np.ascontiguousarray(aug[rank:, nw:]), rows)
