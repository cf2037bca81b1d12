"""The cohomological reduction method and its brute-force oracle.

A degree-n cochain on a group of order v is a bit sequence of length v**n;
the bit for the tuple (g_1, ..., g_n) sits at the row-major flat index, so
tuple index T (1-based, as printed) corresponds to flat position T-1.

The coboundary of a degree-n cochain f is

    (df)(h_1,...,h_{n+1}) = f(h_2,...,h_{n+1}) + f(h_1,...,h_n)
                            + sum_j f(h_1,...,h_j h_{j+1},...,h_{n+1})   mod 2

and ``coboundary_generator(G, n, T)`` is d applied to the characteristic
function of the (n-1)-tuple with index T.  `_face_terms` is the one
implementation of the formula: it applies the n+2 terms to an array
indexed by n-tuples.  `codifferential_words` XORs them, for
`count_non_cocycles`, `verify` and the one-cochain `bar_codifferential`;
`_codifferential_rows` applies them to the tuple indices to build the rows
of the matrix of d (row T is the generator above), for the coboundary
bases, `coboundary_matrix` and the oracle alike; it keeps only the columns
from a given one on, the slice the oracle ranks.  The tests judge both
against the formula evaluated tuple by tuple.

A basis is stored once, as one matrix whose rows are its cochains; `reps`
and `cobs` are row views of the reduction's basis.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .gf2 import (WORD, Basis, SnfResult, bit_rows, greedy_independent_rows,
                  int_rows, pack_rows, smith_normal_form_gf2)
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
    """Labeled degree-n cochains, the rows of one (k, v**n) 0/1 matrix."""
    labels: list[str]
    v: int
    n: int
    bits: np.ndarray  # (len(labels), v**n) uint8

    @property
    def entries(self) -> list[tuple[str, Cochain]]:
        return [(lab, Cochain(self.v, self.n, row))
                for lab, row in zip(self.labels, self.bits)]

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, rows: slice) -> "CochainBasis":
        return CochainBasis(self.labels[rows], self.v, self.n, self.bits[rows])


@dataclass
class ReductionOutput:
    """The juxtaposed basis, stored once: its first hdim rows are the
    representatives (one per cohomology class), the rest the coboundaries."""
    basis: CochainBasis
    hdim: int
    snf_lower: SnfResult
    snf_upper: SnfResult

    @property
    def reps(self) -> CochainBasis:
        return self.basis[:self.hdim]

    @property
    def cobs(self) -> CochainBasis:
        return self.basis[self.hdim:]


# Bytes of rows of d built at a time.
ORACLE_CHUNK_BYTES = 1 << 20


def _face_terms(g: FiniteGroup, n: int, x: np.ndarray):
    """The n+2 terms of the degree-n coboundary formula applied to x, an
    array whose first axis runs over the v**n flat n-tuples: each term has
    first axis v**(n+1), the term's value at an (n+1)-tuple being the row
    of x at the n-tuple the formula reads there (drop-first, drop-last,
    then h_j h_{j+1} merged for j = 1..n)."""
    v, tail = g.order, x.shape[1:]
    yield np.broadcast_to(x, (v,) + x.shape).reshape((v ** (n + 1),) + tail)
    yield np.repeat(x, v, axis=0)
    for j in range(n):
        blocks = x.reshape((v ** j, v, v ** (n - 1 - j)) + tail)
        yield np.take(blocks, g.mul, axis=1).reshape((v ** (n + 1),) + tail)


_BIT = np.left_shift(1, np.arange(8)).astype(np.uint8)  # bit b of a byte


def _codifferential_rows(g: FiniteGroup, n: int, low: int = 0):
    """Rows of d on degree-n cochains (v**n rows, v**(n+1) columns) as
    ints, bit c - low being column c >= low, built ORACLE_CHUNK_BYTES at a
    time; columns below `low` are never touched.

    Term i of the formula, applied to the tuple indices, names at column c
    the row r it reads there.  Each entry (r, c) of the n+2 terms with
    c >= low is keyed by its bit r*8*width + c - low in the packed rows,
    and the keys are sorted once: each chunk of rows is then one run of
    keys, XORed into a zeroed packed buffer (a bit read twice cancels).
    """
    nrows, cols = g.order ** n, g.order ** (n + 1) - low
    width = -(-cols // 8)
    key, at = np.empty((n + 2) * cols, dtype=np.int64), 0
    for term in _face_terms(g, n, np.arange(nrows, dtype=np.int32)):
        part = key[at:at + cols]
        part[:] = term[low:]
        del term  # free it before the next term is built
        part *= 8 * width
        part += np.arange(cols)
        at += cols
    key.sort()
    step = max(1, min(nrows, ORACLE_CHUNK_BYTES // width))
    cuts = np.searchsorted(key, np.arange(0, nrows + step, step) * (8 * width))
    buf = np.empty(step * width, dtype=np.uint8)
    for r0, e0, e1 in zip(range(0, nrows, step), cuts, cuts[1:]):
        chunk = buf[:(min(r0 + step, nrows) - r0) * width]
        chunk.fill(0)
        bits = key[e0:e1]
        np.bitwise_xor.at(chunk, (bits >> 3) - r0 * width, _BIT[bits & 7])
        view = memoryview(chunk)
        for b in range(0, len(chunk), width):
            yield int.from_bytes(view[b:b + width], "little")


def bar_codifferential(g: FiniteGroup, n: int, f: Cochain) -> Cochain:
    """d(f) for a degree-n cochain, as a degree-(n+1) cochain."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    if f.n != n or f.v != g.order:
        raise ValueError("cochain does not match group/degree")
    return Cochain(g.order, n + 1, codifferential_words(g, n, f.bits))


def codifferential_words(g: FiniteGroup, n: int,
                         words: np.ndarray) -> np.ndarray:
    """d of the columns of a (v**n, k) matrix of degree-n cochains, packed
    by `pack_rows`: the XOR of the n+2 terms of the formula applied to
    `words`, as (v**(n+1), ceil(k/64)) words.  Any array whose first axis
    runs over the v**n tuples works, e.g. one cochain's bits.  The
    temporaries are the result and one term."""
    if len(words) != g.order ** n:
        raise ValueError("cochains do not match group/degree")
    acc = np.zeros((len(words) * g.order,) + words.shape[1:], words.dtype)
    for term in _face_terms(g, n, words):
        acc ^= term
        del term  # free it before the next term is built
    return acc


def count_non_cocycles(g: FiniteGroup, n: int, rows: np.ndarray) -> int:
    """How many rows of a (k, v**n) 0/1 matrix of degree-n cochains have a
    nonzero coboundary, from `codifferential_words` on 64 rows at a time."""
    rows = np.asarray(rows, dtype=np.uint8)
    bad = 0
    for start in range(0, len(rows), WORD):
        words = pack_rows(rows[start:start + WORD].T)
        bad += int(np.bitwise_count(np.bitwise_or.reduce(
            codifferential_words(g, n, words), axis=None)))
    return bad


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


def _scanned(g: FiniteGroup, n: int, mode: str) -> np.ndarray:
    """Which (n-1)-tuples a degree-n coboundary scan visits, as a boolean
    mask over flat indices: mode "all" scans every tuple, mode "normalized"
    only tuples with no identity coordinate."""
    v = g.order
    if mode == "all":
        return np.ones(v ** (n - 1), dtype=bool)
    if mode == "normalized":
        coords = np.indices((v,) * (n - 1)).reshape(n - 1, -1)
        return (coords != g.identity).all(axis=0)
    raise ValueError(f"unknown mode {mode!r}")


def coboundary_matrix(g: FiniteGroup, n: int, mode: str = "all"):
    """Rows d(δ_T) for the scanned tuple indices T, unpacked; returns
    (matrix, labels)."""
    scan = _scanned(g, n, mode)
    rows = [row for row, keep in zip(_codifferential_rows(g, n - 1), scan)
            if keep]
    return bit_rows(rows, g.order ** n), [int(T) + 1 for T in np.flatnonzero(scan)]


def coboundary_basis(g: FiniteGroup, n: int, mode: str = "all") -> CochainBasis:
    """Greedy independent subset of the coboundary generators, labeled cob:T."""
    empty = CochainBasis([], g.order, n, np.zeros((0, g.order ** n), np.uint8))
    return _greedy_coboundaries(g, n, mode, empty)


def _greedy_coboundaries(g: FiniteGroup, n: int, mode: str,
                         head: CochainBasis) -> CochainBasis:
    """`head` followed by coboundary_basis(g, n, mode), from one greedy
    pass over the generators and then `head` (the greedy selection of a
    prefix is its own); raises unless `head` is independent modulo them."""
    if n < 2:
        raise ValueError("coboundary bases start at degree 2")
    scan = _scanned(g, n, mode)
    basis = Basis()
    chosen = [(T, row) for T, row in enumerate(_codifferential_rows(g, n - 1))
              if scan[T] and basis.add(row)]
    tail = int_rows(pack_rows(head.bits))
    if sum(1 for row in tail if basis.add(row)) != len(head):
        raise AssertionError("representatives and coboundaries are not independent")
    return CochainBasis(head.labels + [f"cob:{T + 1}" for T, _ in chosen],
                        g.order, n,
                        bit_rows(tail + [row for _, row in chosen], g.order ** n))


def _model_smith_forms(model: CohModel, n: int) -> tuple[SnfResult, SnfResult]:
    if n != model.degree:
        raise ValueError(f"model is for degree {model.degree}, not {n}")
    return (smith_normal_form_gf2(model.diff[n - 1]),
            smith_normal_form_gf2(model.diff[n]))


def _lift_representatives(model: CohModel, n: int, snf_lo: SnfResult,
                          snf_hi: SnfResult) -> CochainBasis:
    """Representative degree-n cocycles lifted from the model.

    Steps: kernel of the upper codifferential from its Smith form (last
    r-k rows of P), first-fit selection of kernel rows outside the image of
    the lower one (spanned by the rows of d^(n-1), rank l), then lift
    through the model's projection coefficients.
    """
    l, k, q = snf_lo.rank, snf_hi.rank, model.dims[n - 1]
    kernel_rows = snf_hi.P[k:]
    selected, _ = greedy_independent_rows(np.vstack([model.diff[n - 1], kernel_rows]))
    kept = kernel_rows[[i - q for i in selected if i >= q]]
    if len(kept) != model.dims[n] - k - l:
        raise AssertionError("kernel filtering did not yield r-k-l representatives")
    return CochainBasis([f"rep:{m}" for m in range(1, len(kept) + 1)],
                        model.group.order, n, model.lift(kept))


def default_mode(n: int) -> str:
    """Coboundary scan convention: printed degree-2 bases exclude identity
    generators; degree >= 3 bases include them."""
    return "normalized" if n == 2 else "all"


class ReductionSizeError(ValueError):
    """The cocycle basis at this size exceeds the byte budget."""


def basis_bytes(v: int, n: int, r: int) -> int:
    """Upper bound on the bytes `full_cocycle_basis` holds at degree n and
    order v for a model with r degree-n generators: the unpacked basis (at
    most v**(n-1) + r rows of v**n bytes) and the `Basis` of the rows of
    d^(n-1) (`oracle_bytes(v, n - 1)`)."""
    return (v ** (n - 1) + r) * v ** n + oracle_bytes(v, n - 1)


def check_basis_size(v: int, n: int, r: int) -> None:
    """Raise ReductionSizeError when `basis_bytes(v, n, r)` exceeds
    ORACLE_BYTES."""
    need = basis_bytes(v, n, r)
    if need > ORACLE_BYTES:
        raise ReductionSizeError(f"degree-{n} cocycle basis needs {need} bytes "
                                 f"at v = {v}, over the {ORACLE_BYTES}-byte budget")


def full_cocycle_basis(model: CohModel, n: int,
                       mode: str | None = None) -> ReductionOutput:
    """Juxtaposed representative + coboundary basis, with joint independence
    asserted.  Refuses before any cochain is allocated when `basis_bytes`
    exceeds ORACLE_BYTES."""
    mode = default_mode(n) if mode is None else mode
    snf_lo, snf_hi = _model_smith_forms(model, n)
    check_basis_size(model.group.order, n, model.dims[n])
    reps = _lift_representatives(model, n, snf_lo, snf_hi)
    return ReductionOutput(basis=_greedy_coboundaries(model.group, n, mode, reps),
                           hdim=len(reps), snf_lower=snf_lo, snf_upper=snf_hi)


# -- brute-force oracle ----------------------------------------------------

# Budget for what the oracle holds at its largest (`oracle_bytes`): the
# basis of d^n, one chunk of its rows and the sorted keys that fill it.
# g1:7 at degree 3 (v=28, a two-element generating suffix, about 134 MB)
# fits, g1:8 (v=32, about 295 MB) does not.  `full_cocycle_basis` and
# `builtin_model` refuse past the same budget.
ORACLE_BYTES = 2 ** 28


class OracleSizeError(ValueError):
    """The bar-complex rank at this size exceeds the oracle budget."""


@dataclass
class BruteForceResult:
    hdim: int
    ker_dim: int  # dim Ker d^n
    im_rank: int  # rank d^{n-1} = dim Im d^{n-1}


def oracle_bytes(v: int, n: int, a: int = 0) -> int:
    """Upper bound on the bytes `brute_force_cohomology` holds at degree n
    and order v, while it ranks d^n (v**n rows of v**(n+1) bits) on the
    `cols` = (v - a)*v**n columns of the generating suffix a, ..., v-1: a
    basis of at most v**n ints and one row chunk, both `cols` bits wide,
    and what `_codifferential_rows` holds besides.  At a = 0 the slice is
    the full width."""
    rows, cols = v ** n, (v - a) * v ** n
    digits = -(-cols // sys.int_info.bits_per_digit)
    basis = rows * digits * sys.int_info.sizeof_digit
    width = -(-cols // 8)
    chunk = max(ORACLE_CHUNK_BYTES, width)
    # the int64 keys of the (n+2)*cols entries; while they are filled, one
    # int32 term at the full width v**(n+1) and an int64 column range, and
    # while a chunk is filled, an int64 byte and bit index and a uint8 bit
    # for each of its entries, at most (n+2)*v a row
    entries, step = (n + 2) * cols, max(1, min(rows, ORACLE_CHUNK_BYTES // width))
    select = 8 * entries + max(4 * v ** (n + 1) + 8 * cols,
                               17 * min(entries, step * (n + 2) * v))
    return basis + chunk + select


def _generating_suffix(g: FiniteGroup) -> int:
    """The largest a such that the elements a, ..., v-1 generate G."""
    mul, v = g.mul.tolist(), g.order
    span: set[int] = set()
    for a in range(v - 1, 0, -1):
        if a in span:
            continue  # adding a does not enlarge the subgroup
        gens = range(a, v)
        span, todo = set(gens), list(gens)
        while todo:
            x = mul[todo.pop()]
            for s in gens:
                if x[s] not in span:
                    span.add(x[s])
                    todo.append(x[s])
        if len(span) == v:
            return a
    return 0


def _codifferential_rank(g: FiniteGroup, n: int, low: int) -> int:
    basis = Basis()
    for row in _codifferential_rows(g, n, low):
        basis.add(row)
    return len(basis)


def brute_force_cohomology(g: FiniteGroup, n: int) -> BruteForceResult:
    """Cohomology of the full bar cochain complex at degree n.

    Independent of the model path: ranks the actual coboundary matrices on
    v**(n-1) and v**n tuples by feeding their rows, a chunk at a time, to
    the GF(2) basis engine.  Refuses before allocating when
    `oracle_bytes(v, n, a)`, the bound at the slice ranked, exceeds
    ORACLE_BYTES.

    Each matrix is ranked on its columns whose first coordinate lies in
    the generating suffix a, ..., v-1 (`_generating_suffix`), the top
    (v - a) / v of its width.  The rank is the same: for y = dx, the set
    S of a with y(a, ...) = 0 is closed under products, since d(y) = 0 at
    (a, b, h) reads y(b, h) + y(ab, h) plus terms whose first argument is
    a; so S is a subgroup, and it is G as soon as it holds the suffix.
    Hence x @ d = 0 iff x @ d vanishes on the slice.
    """
    if n < 2:
        raise ValueError("oracle supports degree >= 2")
    v, a = g.order, _generating_suffix(g)
    need = oracle_bytes(v, n, a)
    if need > ORACLE_BYTES:
        raise OracleSizeError(
            f"packed d^{n} needs {need} bytes at v = {v}, over the "
            f"{ORACLE_BYTES}-byte oracle budget")
    im_rank = _codifferential_rank(g, n - 1, a * v ** (n - 1))
    ker_dim = v ** n - _codifferential_rank(g, n, a * v ** n)
    return BruteForceResult(hdim=ker_dim - im_rank, ker_dim=ker_dim,
                            im_rank=im_rank)
