"""The cohomological reduction method and its brute-force oracle.

A degree-n cochain on a group of order v is a bit sequence of length v**n;
the bit for the tuple (g_1, ..., g_n) sits at the row-major flat index, so
tuple index T (1-based, as printed) corresponds to flat position T-1.

The coboundary of a degree-n cochain f is

    (df)(h_1,...,h_{n+1}) = f(h_2,...,h_{n+1}) + f(h_1,...,h_n)
                            + sum_j f(h_1,...,h_j h_{j+1},...,h_{n+1})   mod 2

and ``coboundary_generator(G, n, T)`` is d applied to the characteristic
function of the (n-1)-tuple with index T.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gf2 import (WORD, SnfResult, column_sweep, greedy_independent_rows,
                  smith_normal_form_gf2)
from .groups import FiniteGroup
from .model import CohModel


@dataclass
class Cochain:
    v: int
    n: int
    bits: np.ndarray  # flat (v**n,) uint8

    def __post_init__(self):
        self.bits = np.ascontiguousarray(self.bits, dtype=np.uint8).ravel()
        if self.bits.shape != (self.v ** self.n,):
            raise ValueError(f"need {self.v ** self.n} bits for v={self.v}, n={self.n}")


@dataclass
class CochainBasis:
    entries: list[tuple[str, Cochain]]

    def labels(self) -> list[str]:
        return [lab for lab, _ in self.entries]

    def matrix(self) -> np.ndarray:
        if not self.entries:
            return np.zeros((0, 0), dtype=np.uint8)
        return np.stack([c.bits for _, c in self.entries])

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class ReductionOutput:
    reps: CochainBasis
    cobs: CochainBasis
    hdim: int
    snf_lower: SnfResult
    snf_upper: SnfResult

    @property
    def basis(self) -> CochainBasis:
        return CochainBasis(self.reps.entries + self.cobs.entries)


@functools.lru_cache(maxsize=64)
def _face_indices(g: FiniteGroup, n: int) -> list[np.ndarray]:
    """Flat-index arrays for the n+2 terms of the degree-n coboundary.

    Each array has length v**(n+1) and maps an (n+1)-tuple to the flat
    index of the n-tuple appearing in one term of the formula: drop-first,
    drop-last, and the n merged tuples.
    """
    v = g.order
    coords = np.indices((v,) * (n + 1)).reshape(n + 1, -1)
    weights = v ** np.arange(n - 1, -1, -1, dtype=np.int64)

    def flatten(slots):
        return (weights[None, :] * np.stack(slots, axis=1)).sum(axis=1)

    terms = [flatten([coords[p] for p in range(1, n + 1)]),
             flatten([coords[p] for p in range(n)])]
    for j in range(n):
        slots = [coords[p] for p in range(j)]
        slots.append(g.mul[coords[j], coords[j + 1]])
        slots.extend(coords[p] for p in range(j + 2, n + 1))
        terms.append(flatten(slots))
    return terms


def bar_codifferential(g: FiniteGroup, n: int, f: Cochain) -> Cochain:
    """d(f) for a degree-n cochain, as a degree-(n+1) cochain."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if f.n != n or f.v != g.order:
        raise ValueError("cochain does not match group/degree")
    out = np.zeros(g.order ** (n + 1), dtype=np.uint8)
    for idx in _face_indices(g, n):
        out ^= f.bits[idx]
    return Cochain(g.order, n + 1, out)


def coboundary_generator(g: FiniteGroup, n: int, tuple_index: int) -> Cochain:
    """The degree-n coboundary of the characteristic (n-1)-cochain δ_T.

    tuple_index is 1-based, matching the printed ∂_T labels.
    """
    v = g.order
    if not (1 <= tuple_index <= v ** (n - 1)):
        raise IndexError(f"tuple index {tuple_index} out of range")
    delta = np.zeros(v ** (n - 1), dtype=np.uint8)
    delta[tuple_index - 1] = 1
    return bar_codifferential(g, n - 1, Cochain(v, n - 1, delta))


def coboundary_matrix(g: FiniteGroup, n: int, mode: str = "all"):
    """Rows d(δ_T) for the scanned tuple indices T; returns (matrix, labels).

    mode "all" scans every T in 1..v^(n-1); mode "normalized" scans only
    tuples with no identity coordinate.
    """
    v = g.order
    nrows = v ** (n - 1)
    acc = np.zeros((nrows, v ** n), dtype=np.uint8)
    cols = np.arange(v ** n)
    for idx in _face_indices(g, n - 1):
        acc[idx, cols] ^= 1
    if mode == "all":
        keep = np.arange(nrows)
    elif mode == "normalized":
        coords = np.indices((v,) * (n - 1)).reshape(n - 1, -1)
        keep = np.nonzero((coords != g.identity).all(axis=0))[0]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return acc[keep], [int(T) + 1 for T in keep]


def coboundary_basis(g: FiniteGroup, n: int, mode: str = "all") -> CochainBasis:
    """Greedy independent subset of the coboundary generators, labeled cob:T."""
    return _greedy_coboundaries(g, n, mode, np.zeros((0, g.order ** n), np.uint8))[0]


def _greedy_coboundaries(g: FiniteGroup, n: int, mode: str,
                         tail: np.ndarray) -> tuple[CochainBasis, int]:
    """coboundary_basis(g, n, mode), and the number of rows of `tail` that
    are independent modulo it, from one greedy pass over the generators
    followed by `tail` (the greedy selection of a prefix is its own)."""
    if n < 2:
        raise ValueError("coboundary bases start at degree 2")
    rows, labels = coboundary_matrix(g, n, mode)
    selected, rank = greedy_independent_rows(np.vstack([rows, tail]))
    entries = [(f"cob:{labels[i]}", Cochain(g.order, n, rows[i]))
               for i in selected if i < len(rows)]
    return CochainBasis(entries), rank - len(entries)


def representative_cocycles(model: CohModel, n: int) -> CochainBasis:
    """Representative degree-n cocycles lifted from the model.

    Steps: rank/image of the lower codifferential from its Smith form
    (first l rows of Q^-1), kernel of the upper one (last r-k rows of P),
    first-fit selection of kernel rows outside the image span, then lift
    through the model's projection coefficients.
    """
    return _lift_representatives(model, n, *_model_smith_forms(model, n))


def _model_smith_forms(model: CohModel, n: int) -> tuple[SnfResult, SnfResult]:
    if n != model.degree:
        raise ValueError(f"model is for degree {model.degree}, not {n}")
    return (smith_normal_form_gf2(model.diff[n - 1]),
            smith_normal_form_gf2(model.diff[n]))


def _lift_representatives(model: CohModel, n: int, snf_lo: SnfResult,
                          snf_hi: SnfResult) -> CochainBasis:
    l, k = snf_lo.rank, snf_hi.rank
    kernel_rows = snf_hi.P[k:]
    selected, _ = greedy_independent_rows(np.vstack([snf_lo.Qinv[:l], kernel_rows]))
    kept = [kernel_rows[i - l] for i in selected if i >= l]
    if len(kept) != model.dims[n] - k - l:
        raise AssertionError("kernel filtering did not yield r-k-l representatives")

    v = model.group.order
    entries = []
    for m, row in enumerate(kept, start=1):
        bits = (model.lift_table @ row.astype(np.int64)) % 2
        entries.append((f"rep:{m}", Cochain(v, n, bits.astype(np.uint8))))
    return CochainBasis(entries)


def default_mode(n: int) -> str:
    """Coboundary scan convention: printed degree-2 bases exclude identity
    generators; degree >= 3 bases include them."""
    return "normalized" if n == 2 else "all"


def full_cocycle_basis(model: CohModel, n: int,
                       mode: str | None = None) -> ReductionOutput:
    """Juxtaposed representative + coboundary basis, with joint independence
    asserted."""
    mode = default_mode(n) if mode is None else mode
    snf_lo, snf_hi = _model_smith_forms(model, n)
    reps = _lift_representatives(model, n, snf_lo, snf_hi)
    rep_rows = np.array([c.bits for _, c in reps.entries], dtype=np.uint8)
    cobs, free = _greedy_coboundaries(
        model.group, n, mode, rep_rows.reshape(len(reps), model.group.order ** n))
    if free != len(reps):
        raise AssertionError("representatives and coboundaries are not independent")
    hdim = model.dims[n] - snf_hi.rank - snf_lo.rank
    return ReductionOutput(reps=reps, cobs=cobs, hdim=hdim,
                           snf_lower=snf_lo, snf_upper=snf_hi)


# -- brute-force oracle ----------------------------------------------------

# Budget for the packed d^n, the oracle's largest array.  The sweep reduces
# it in place; v=20 at degree 3 (160 MB) fits, v=32 at degree 3 (4 GiB)
# does not.
ORACLE_BYTES = 2 ** 28


class OracleSizeError(ValueError):
    """The packed bar-complex matrix at this size exceeds the oracle budget."""


@dataclass
class BruteForceResult:
    hdim: int
    ker_dim: int  # dim Ker d^n
    im_rank: int  # rank d^{n-1} = dim Im d^{n-1}


def _codifferential_matrix_packed(g: FiniteGroup, n: int):
    """Packed matrix of d on degree-n cochains: v**n rows, v**(n+1) columns."""
    v = g.order
    nrows, ncols = v ** n, v ** (n + 1)
    packed = np.zeros((nrows, (ncols + WORD - 1) // WORD), dtype=np.uint64)
    cols = np.arange(ncols)
    bits = np.left_shift(np.uint64(1), (cols % WORD).astype(np.uint64))
    for idx in _face_indices(g, n):
        np.bitwise_xor.at(packed, (idx, cols // WORD), bits)
    return packed, ncols


def brute_force_cohomology(g: FiniteGroup, n: int) -> BruteForceResult:
    """Cohomology of the full bar cochain complex at degree n.

    Independent of the model path: builds the actual coboundary matrices on
    v**(n-1) and v**n tuples and ranks them with the sweep, in place.
    Refuses before allocating when the packed d^n exceeds ORACLE_BYTES.
    """
    if n < 2:
        raise ValueError("oracle supports degree >= 2")
    v = g.order
    need = v ** n * ((v ** (n + 1) + WORD - 1) // WORD) * 8
    if need > ORACLE_BYTES:
        raise OracleSizeError(
            f"packed d^{n} needs {need} bytes at v = {v}, over the "
            f"{ORACLE_BYTES}-byte oracle budget")
    im_rank = len(column_sweep(*_codifferential_matrix_packed(g, n - 1)))
    ker_dim = v ** n - len(column_sweep(*_codifferential_matrix_packed(g, n)))
    return BruteForceResult(hdim=ker_dim - im_rank, ker_dim=ker_dim,
                            im_rank=im_rank)
