"""±1 arrays of shape (v,)*n, their constructors and Hadamard predicates.

Entries use the same row-major layout as cochain bits, so the sign tensor
of a cochain is (-1)**bit reshaped.  "Horizontal" sections fix the last
axis, matching the printed section lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .reduction import Cochain


@dataclass
class SignTensor:
    v: int
    n: int
    entries: np.ndarray  # int8, shape (v,)*n

    def __post_init__(self):
        self.entries = np.ascontiguousarray(self.entries, dtype=np.int8)
        if self.entries.shape != (self.v,) * self.n:
            raise ValueError(f"entries must have shape {(self.v,) * self.n}")
        if not np.isin(self.entries, (-1, 1)).all():
            raise ValueError("entries must be ±1")

    def flat(self) -> np.ndarray:
        return self.entries.reshape(-1)


def tensor_from_cochain(f: Cochain) -> SignTensor:
    signs = (1 - 2 * f.bits.astype(np.int8)).reshape((f.v,) * f.n)
    return SignTensor(v=f.v, n=f.n, entries=signs)


# -- structured matrices ---------------------------------------------------


def all_ones(v: int, n: int = 2) -> np.ndarray:
    return np.ones((v,) * n, dtype=np.int8)


def back_negacyclic(j: int) -> np.ndarray:
    """First row all ones; -1 exactly where row+col >= j (0-based)."""
    a = np.arange(j)
    return np.where(a[:, None] + a[None, :] >= j, -1, 1).astype(np.int8)


def forward_negacyclic(k: int) -> np.ndarray:
    """First row and first column all ones; -1 where col >= row >= 1."""
    a = np.arange(k)
    neg = (a[None, :] >= a[:, None]) & (a[:, None] >= 1)
    return np.where(neg, -1, 1).astype(np.int8)


def kronecker(a, b) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=np.int8), np.asarray(b, dtype=np.int8))


def half_ones_half_alternating(size: int, period: int = 1) -> np.ndarray:
    """Top half all ones; bottom half columns alternate sign in blocks of
    `period`.  Covers the fixed 4x4 and 8x8 blocks of the printed bases."""
    cols = np.arange(size)
    bottom = np.where((cols // period) % 2 == 1, -1, 1).astype(np.int8)
    out = np.ones((size, size), dtype=np.int8)
    out[size // 2:] = bottom
    return out


def alternating_columns(size: int, period: int = 1) -> np.ndarray:
    """Every row alternates sign in column blocks of `period`."""
    cols = np.arange(size)
    row = np.where((cols // period) % 2 == 1, -1, 1).astype(np.int8)
    return np.tile(row, (size, 1))


def alternating_back_negacyclic(n: int) -> np.ndarray:
    """Back negacyclic with every even row (0-based) negated; the inner
    block of the dihedral third representative's upper-right quadrant."""
    signs = np.where(np.arange(n)[:, None] % 2 == 0, -1, 1).astype(np.int8)
    return back_negacyclic(n) * signs


def alternating_forward_block(n: int) -> np.ndarray:
    """-1 exactly where ([row >= col] + row) is odd (0-based); the inner
    block of the dihedral third representative's lower-right quadrant."""
    a = np.arange(n)
    bits = ((a[:, None] >= a[None, :]).astype(int) + a[:, None]) % 2
    return np.where(bits == 1, -1, 1).astype(np.int8)


def section(t: SignTensor, axis: int, idx: int) -> np.ndarray:
    """The (n-1)-dimensional slice at position idx along axis (0-based)."""
    return np.take(t.entries, idx, axis=axis)


# -- Hadamard predicates -----------------------------------------------------


def is_hadamard_2d(m: SignTensor) -> bool:
    """All distinct-row dot products vanish."""
    if m.n != 2:
        raise ValueError("is_hadamard_2d needs a 2-dimensional array")
    g = m.entries.astype(np.int64) @ m.entries.astype(np.int64).T
    return bool((g[~np.eye(m.v, dtype=bool)] == 0).all())


def is_improper_hadamard(t: SignTensor) -> bool:
    """Parallel (n-1)-dimensional sections are mutually orthogonal along
    every axis."""
    if t.n < 2:
        raise ValueError("need arity >= 2")
    for axis in range(t.n):
        s = np.moveaxis(t.entries, axis, 0).reshape(t.v, -1).astype(np.int64)
        g = s @ s.T
        if (g[~np.eye(t.v, dtype=bool)] != 0).any():
            return False
    return True


def is_proper_hadamard(t: SignTensor) -> bool:
    """Every pair of parallel axis-aligned rows is orthogonal: for each pair
    of distinct axes (j, l), positions x<y on l, and each fixing of the
    remaining n-2 coordinates."""
    if t.n < 2:
        raise ValueError("need arity >= 2")
    v = t.v
    offdiag = ~np.eye(v, dtype=bool)
    for l in range(t.n):
        for j in range(t.n):
            if j == l:
                continue
            a = np.moveaxis(t.entries, (l, j), (0, 1)).reshape(v, v, -1)
            a = a.astype(np.int64)
            # dot along the row axis j, for every fixing of the rest
            prod = np.einsum("xkr,ykr->xyr", a, a)
            if (prod[offdiag] != 0).any():
                return False
    return True


# -- serialization -----------------------------------------------------------


def tensor_to_text(t: SignTensor) -> str:
    """Sections along the last axis in order, each a v-line block, blank
    line between blocks.  A 2-D array is a single block."""
    a = t.entries
    if t.n == 2:
        blocks = [a]
    else:
        lead = np.moveaxis(a, range(2, t.n), range(t.n - 2))
        blocks = [lead[idx] for idx in np.ndindex(*(t.v,) * (t.n - 2))]
    out = []
    for block in blocks:
        for row in block:
            out.append(" ".join(str(int(x)) for x in row))
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"


def tensor_to_json(t: SignTensor) -> str:
    return json.dumps({"v": t.v, "n": t.n,
                       "entries": [int(x) for x in t.flat()]})
