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
bases, `coboundary_matrix` and the oracle alike.  For the oracle it keeps
only the block that block elimination leaves to rank (the rows and columns
whose first coordinate lies in a suffix of the elements), mapped through
the quotient by the rows it eliminates in closed form.  The tests judge
both against the formula evaluated tuple by tuple.

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


def _easy_block(g: FiniteGroup, a: int) -> list[int]:
    """E for the suffix S = a, ..., v-1, as int rows: the rows x < a of d^1
    on its columns (s, z), s in S, bit (s - a)*v + z being column (s, z).
    Row x has a 1 at (s, x) from the drop-first term and one at
    (s, s^-1 x) from the merge, for each s in S (the drop-last term reads
    s there, never x)."""
    v, rows = g.order, [0] * a
    for term in _face_terms(g, 1, np.arange(v)):
        for c, x in enumerate(term[a * v:].tolist()):
            if x < a:
                rows[x] ^= 1 << c
    return rows


def _suffix_quotient(g: FiniteGroup, a: int) -> np.ndarray:
    """Q for the suffix a, ..., v-1: a ((v - a)*v, q) 0/1 matrix, q being
    (v - a)*v - rank E (E = `_easy_block(g, a)`), whose row k is the unit
    vector e_k reduced modulo the reduced echelon rows of E and read on
    E's non-pivot coordinates.  So u @ Q = 0 iff u is in the row space of
    E.  At a = 0, E is empty and Q is the identity."""
    cols = (g.order - a) * g.order
    basis = Basis()
    for x in _easy_block(g, a):
        basis.add(x)
    echelon: dict[int, int] = {}  # pivot -> its row, on no other pivot
    for top in sorted(basis.rows):
        x = basis.rows[top]
        for p, row in echelon.items():
            if x >> p & 1:
                x ^= row
        echelon[top - 1] = x
    free = [k for k in range(cols) if k not in echelon]
    quotient = np.zeros((cols, len(free)), dtype=np.uint8)
    quotient[free, range(len(free))] = 1
    if echelon:
        quotient[list(echelon)] = bit_rows(list(echelon.values()), cols)[:, free]
    return quotient


def _codifferential_rows(g: FiniteGroup, n: int,
                         quotient: np.ndarray | None = None):
    """Rows of d on degree-n cochains as ints, built ORACLE_CHUNK_BYTES at
    a time.  With no `quotient`, all v**n rows, bit c being column c.
    With Q = `_suffix_quotient(g, a)`, the rows left to rank on the
    suffix S = a, ..., v-1: the rows x = (x1, r) with x1 in S, on the
    columns (s, z, r') with s in S, mapped through Q (x) I.  Column
    (k, r'), for k = (s - a)*v + z, goes to the bits j*v**(n-1) + r'
    with Q[k, j] = 1.

    This is block elimination.  On those columns a row with x1 outside S
    has only the drop-first entry (s, x1, r) and the first-merge entry
    (s, s^-1 x1, r), for each s in S: every other term reads the first
    coordinate s there.  So these rows are v**(n-1) copies of
    E = `_easy_block(g, a)`, one for each r, and the rank on the columns
    is v**(n-1) * rank E plus the rank of the rows built here.  Each row
    built has n*v + 2|S| entries there: v from each term that keeps x1
    first, |S| from each of the other two.

    Term i of the formula, applied to the tuple indices, names at column c
    the row it reads there.  Each entry (row, c) in the block is keyed by
    row * stride + c and the keys are sorted once, so that each chunk of
    rows is one run of keys.  The run's bits are XORed into a zeroed
    packed buffer (a bit read twice cancels): one bit an entry, or,
    through Q, one for each 1 in row k of Q, the w-th 1 of every row in
    layer w.
    """
    v = g.order
    m = v ** (n - 1)
    if quotient is None:
        a, q, targets = 0, v * v, None
    else:
        a, q = v - len(quotient) // v, quotient.shape[1]
        weight = quotient.sum(axis=1, dtype=np.min_scalar_type(q))
        k, j = np.nonzero(quotient)
        # targets[w, k]: column j*m of the w-th 1 in row k of Q
        targets = np.zeros((weight.max(initial=0), len(quotient)), np.int64)
        targets[np.arange(len(k)) - np.searchsorted(k, k), k] = j * m
    first, low = a * m, a * v * m  # first row and column of the block
    nrows, cols = v ** n - first, v ** (n + 1) - low
    width = -(-q * m // 8)
    stride = 8 * width if targets is None else cols
    key, at = np.empty(nrows * (n * v + 2 * (v - a)), dtype=np.int64), 0
    for term in _face_terms(g, n, np.arange(v ** n, dtype=np.int32)):
        if a:
            col = np.flatnonzero(term[low:] >= first)
            rows = term[low:][col]
        else:
            col, rows = np.arange(cols), term
        del term  # free it before the next term is built
        part = key[at:at + len(col)]
        part[:] = rows
        del rows
        part *= stride
        part += col
        at += len(col)
    key.sort()
    step = max(1, min(nrows, ORACLE_CHUNK_BYTES // width))
    cuts = np.searchsorted(key, np.arange(first, v ** n + step, step) * stride)
    buf = np.empty(step * width, dtype=np.uint8)
    for r0, e0, e1 in zip(range(first, v ** n, step), cuts, cuts[1:]):
        chunk = buf[:(min(r0 + step, v ** n) - r0) * width]
        chunk.fill(0)
        if targets is None:
            bits = key[e0:e1]
            np.bitwise_xor.at(chunk, (bits >> 3) - r0 * width, _BIT[bits & 7])
        else:
            base, c = np.divmod(key[e0:e1], stride)
            k, c = np.divmod(c, m)
            base -= r0
            base *= 8 * width
            base += c
            del c
            # heaviest rows of Q first, so that each layer is a prefix
            order = np.argsort(weight.take(k), kind="stable")[::-1]
            k, base = k.take(order), base.take(order)
            del order
            held = np.cumsum(np.bincount(weight.take(k))[::-1])[::-1]
            for layer, count in zip(targets, held[1:]):
                bits = layer.take(k[:count])
                bits += base[:count]
                bit = _BIT.take(bits & 7)
                bits >>= 3
                np.bitwise_xor.at(chunk, bits, bit)
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
# basis of the rows of d^n it ranks, one chunk of them, the sorted keys
# that fill it and one face term at the full width.  At degree 3, g1:14
# (v=56, a two-element generating suffix, about 196 MiB) fits and g1:15
# (v=60, about 270 MiB) does not; the cyclic groups, with a one-element
# suffix, fit up to cyclic:43 (v=86), where the face term dominates.
# `full_cocycle_basis` and `builtin_model` refuse past the same budget.
ORACLE_BYTES = 2 ** 28


class OracleSizeError(ValueError):
    """The bar-complex rank at this size exceeds the oracle budget."""


@dataclass
class BruteForceResult:
    hdim: int
    ker_dim: int  # dim Ker d^n
    im_rank: int  # rank d^{n-1} = dim Im d^{n-1}


def oracle_bytes(v: int, n: int, a: int = 0, q: int | None = None) -> int:
    """Upper bound on the bytes `_codifferential_rank` holds while it
    ranks d^n (v**n rows, v**(n+1) columns) at order v on the suffix
    a, ..., v-1 through a Q of q columns (at most (v - a)*v, the
    default).  By block elimination it ranks only the (v - a)*v**(n-1)
    rows whose first coordinate lies in the suffix, q*v**(n-1) bits
    wide, and counts the others as v**(n-1) copies of E
    (`_codifferential_rows`).  At a = 0 there is no Q: all v**n rows, at
    the full width.

    It holds a basis of at most one int a row and one packed chunk of
    rows, both that wide, and the builder's arrays: the int64 keys of the
    n*v + 2(v - a) entries of each row; while they are filled, one int32
    term at the full width v**(n+1) and, per column of the slice, an
    int64 column index (and a bool mask and an int32 row, at a > 0);
    while a chunk is filled, per entry an int64 byte index and a uint8
    bit (at a = 0), or five int64 arrays and a byte (at a > 0); and, at
    a > 0, Q and its tables of targets, at most 25 bytes an entry of Q."""
    m, suffix = v ** (n - 1), v - a
    q = suffix * v if q is None else q
    rows, cols, bits = suffix * m, suffix * v ** n, q * m
    digits = -(-bits // sys.int_info.bits_per_digit)
    basis = rows * digits * sys.int_info.sizeof_digit
    width = -(-bits // 8)
    chunk = max(ORACLE_CHUNK_BYTES, width)
    entries = rows * (n * v + 2 * suffix)
    step = max(1, min(rows, ORACLE_CHUNK_BYTES // width))
    per_column, per_entry = (13, 41) if a else (8, 17)
    select = 8 * entries + max(4 * v ** (n + 1) + per_column * cols,
                               per_entry * min(entries, step * (n * v + 2 * suffix)))
    quotient = 25 * suffix * v * q if a else 0
    return basis + chunk + select + quotient


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


def _codifferential_rank(g: FiniteGroup, n: int,
                         quotient: np.ndarray | None = None) -> int:
    """Rank of d^n, on the columns of the suffix a, ..., v-1 when given its
    Q = `_suffix_quotient(g, a)`: v**(n-1) * rank E plus the rank of the
    rows `_codifferential_rows` builds through Q."""
    basis = Basis()
    for row in _codifferential_rows(g, n, quotient):
        basis.add(row)
    easy = 0 if quotient is None else len(quotient) - quotient.shape[1]
    return g.order ** (n - 1) * easy + len(basis)


def brute_force_cohomology(g: FiniteGroup, n: int) -> BruteForceResult:
    """Cohomology of the full bar cochain complex at degree n.

    Independent of the model path: ranks the actual coboundary matrices on
    v**(n-1) and v**n tuples by feeding their rows, a chunk at a time, to
    the GF(2) basis engine.  Refuses before allocating when
    `oracle_bytes(v, n, a, q)`, the bound for the rows ranked, exceeds
    ORACLE_BYTES.

    Each matrix is ranked on its columns whose first coordinate lies in
    the generating suffix S = a, ..., v-1 (`_generating_suffix`), the top
    (v - a) / v of its width.  The rank is the same: for y = dx, the set
    of s with y(s, ...) = 0 is closed under products, since d(y) = 0 at
    (s, b, h) reads y(b, h) + y(sb, h) plus terms whose first argument is
    s; so it is a subgroup, and it is G as soon as it holds the suffix.
    Hence x @ d = 0 iff x @ d vanishes on the slice.

    On the slice, the rows whose first coordinate x1 lies outside S are
    eliminated in closed form.  Each has just two entries per block s in
    S, at (s, x1, r) and (s, s^-1 x1, r), so they are v**(n-1) copies of
    one small matrix E that depends only on the table.  With Q the map
    that reduces modulo the rows of E onto E's non-pivot coordinates
    (`_suffix_quotient`), rank = v**(n-1) * rank E + rank of (Q (x) I)
    applied to the rows with x1 in S, which are all that is ranked.
    """
    if n < 2:
        raise ValueError("oracle supports degree >= 2")
    v, a = g.order, _generating_suffix(g)
    quotient = _suffix_quotient(g, a) if a else None
    q = None if quotient is None else quotient.shape[1]
    need = oracle_bytes(v, n, a, q)
    if need > ORACLE_BYTES:
        raise OracleSizeError(
            f"packed d^{n} needs {need} bytes at v = {v}, over the "
            f"{ORACLE_BYTES}-byte oracle budget")
    im_rank = _codifferential_rank(g, n - 1, quotient)
    ker_dim = v ** n - _codifferential_rank(g, n, quotient)
    return BruteForceResult(hdim=ker_dim - im_rank, ker_dim=ker_dim,
                            im_rank=im_rank)
