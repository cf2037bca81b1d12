"""Cohomological model data for the built-in families.

A model for target degree n carries the two codifferential matrices over
Z2 (row m = coordinates of d applied to the m-th basis element), whose
shapes give the basis dimensions of degrees n-1, n and n+1, and the lift
map: the coefficient vector, in the degree-n basis, of the model
projection applied to a bar tuple [g_1|...|g_n].  Lifting a coordinate
row c therefore gives the cochain  tuple |-> <c, lift(tuple)> mod 2.

The abelian families (g1, g2, cyclic) get their model at every degree
n >= 2 from one rule, the tensor product of the models of the cyclic
factors Z_N in `GroupSpec.radices` (Künneth / Eilenberg-Zilber), spelled
out by `_product_diff` and `_product_lift`.  d4t, which is not abelian,
keeps one hand-written model at degree 2.  `PRINTED` holds the paper's
(l, k, hdim) for its six (family, degree) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .groups import Family, FiniteGroup, GroupSpec, build_group


class ModelUnavailableError(ValueError):
    """Raised when no built-in model exists for a (family, degree) pair."""


class ModelSizeError(ValueError):
    """The built-in model's lift table at this size exceeds the byte budget."""


@dataclass
class CohModel:
    group: FiniteGroup
    degree: int
    diff: dict[int, np.ndarray]
    lift_table: np.ndarray = field(repr=False)  # (v**degree, dims[degree]) uint8

    def __post_init__(self):
        n = self.degree
        if self.diff[n - 1].shape[1] != self.diff[n].shape[0]:
            raise ValueError("d^(n-1) and d^n do not compose")
        if ((self.diff[n - 1].astype(int) @ self.diff[n].astype(int)) % 2).any():
            raise ValueError("d∘d != 0")
        if self.lift_table.shape != (self.group.order ** n, self.dims[n]):
            raise ValueError("lift table has wrong shape")

    @property
    def dims(self) -> dict[int, int]:
        """The basis dimensions (q, r, s) of degrees n-1, n and n+1, read
        off the shapes of d^(n-1) and d^n."""
        n = self.degree
        (q, r), s = self.diff[n - 1].shape, self.diff[n].shape[1]
        return {n - 1: q, n: r, n + 1: s}

    def lift(self, coords) -> np.ndarray:
        """The cochains of (k, r) coordinate rows, as a (k, v**n) uint8
        matrix: row c is the cochain tuple |-> <c, lift(tuple)> mod 2."""
        return ((np.asarray(coords, dtype=np.int64) @ self.lift_table.T) % 2
                ).astype(np.uint8)


def _lift_d4t_2(g: FiniteGroup) -> np.ndarray:
    """d4t's degree-2 lift table: brackets over Z, reduced mod 2t where marked."""
    (i1, i2), (j1, j2) = map(g.coords_of, np.indices((g.order,) * 2))
    m = g.order // 2
    twist = (((-1) ** (i1 + j1)) * i2) % m
    brackets = [i1 * j1, (-j1 * ((-1) ** i1) * i2) % m,
                ((((-1) ** j1) * j2) % m + twist >= m) + j1 * (i2 >= 1) * (twist - 1)]
    return np.stack([np.ravel(b) % 2 for b in brackets], axis=1).astype(np.uint8)


def _compositions(d: int, k: int) -> list[tuple[int, ...]]:
    """The weak compositions of d into k parts, in descending lexicographic
    order: the degree-d basis of the product model."""
    return sorted((a for a in product(range(d + 1), repeat=k) if sum(a) == d),
                  reverse=True)


def _product_diff(radices: tuple[int, ...], d: int) -> np.ndarray:
    """The product model's d from degree d: a goes to a + e_p for each
    factor p with a_p and N_p odd (Z_N's d is N mod 2 from odd degrees)."""
    lo, hi = _compositions(d, len(radices)), _compositions(d + 1, len(radices))
    at = {a: col for col, a in enumerate(hi)}
    diff = np.zeros((len(lo), len(hi)), np.uint8)
    for row, a in enumerate(lo):
        for p, (ap, radix) in enumerate(zip(a, radices)):
            if ap % 2 and radix % 2:
                diff[row, at[a[:p] + (ap + 1,) + a[p + 1:]]] = 1
    return diff


def _product_lift(g: FiniteGroup, n: int) -> np.ndarray:
    """The (v**n, r) lift table of the product model.  Composition a takes
    the n tuple slots left to right, a_p of them for factor p, whose
    cochain on its slots is the product of the carries [y + y' >= N_p] of
    consecutive slot pairs (beta), times the last slot's coordinate mod 2
    when a_p is odd (alpha)."""
    v, radices = g.order, g.spec.radices
    coords = g.coords_of(np.arange(v))
    y = [[c.reshape((1,) * s + (v,) + (1,) * (n - 1 - s)) for c in coords]
         for s in range(n)]
    comps = _compositions(n, len(radices))
    lift = np.empty((v,) * n + (len(comps),), np.uint8)
    for col, a in enumerate(comps):
        term, s = 1, 0
        for p, (ap, radix) in enumerate(zip(a, radices)):
            for i in range(s, s + ap - 1, 2):
                term = term * (y[i][p] + y[i + 1][p] >= radix)
            if ap % 2:
                term = term * (y[s + ap - 1][p] % 2)
            s += ap
        lift[..., col] = term
    return lift.reshape(v ** n, len(comps))


#: The paper's printed (l, k, hdim) for even and for odd t, by (family,
#: degree), for `verify` to compare against.  The printed hdim of (g2, 3,
#: odd t) disagrees with r - k - l = 4 and is surfaced as a warning there.
PRINTED = {
    (Family.G1, 2): ((0, 0, 3), (0, 0, 3)),
    (Family.D4T, 2): ((0, 0, 3), (0, 0, 3)),
    (Family.G2, 2): ((0, 0, 6), (1, 2, 3)),
    (Family.G1, 3): ((0, 0, 4), (0, 0, 4)),
    (Family.G2, 3): ((0, 0, 10), (2, 4, 3)),
    (Family.CYCLIC, 3): ((0, 0, 1), (0, 0, 1)),
}


def model_bytes(v: int, n: int, r: int) -> int:
    """Upper bound on the bytes `builtin_model` holds while it builds a
    model of order v at degree n with r degree-n generators: the (v**n, r)
    uint8 lift table and, while a column is formed, two int64 terms of
    v**n entries and their masks; and the group's v x v tables, or d4t's
    int64 bracket terms, at most 20 of v**2 entries."""
    return v ** n * (r + 24) + 160 * v * v


def model_generators(spec: GroupSpec, degree: int) -> int:
    """r, the number of degree-n generators of the built-in model for
    (spec, degree), which `builtin_model` builds only after this returns.
    Raises ModelUnavailableError when there is no such model, and
    ModelSizeError when `model_bytes` exceeds the budget ORACLE_BYTES that
    `full_cocycle_basis` also keeps."""
    from . import reduction  # reduction imports this module
    n = degree
    if n < 2 or (spec.family is Family.D4T and n != 2):
        raise ModelUnavailableError(
            f"no built-in model for this family/degree pair ({spec}, degree {n})"
        )
    k = len(spec.radices)
    r = 3 if spec.family is Family.D4T else math.comb(n + k - 1, k - 1)
    need = model_bytes(spec.order, n, r)
    if need > reduction.ORACLE_BYTES:
        raise ModelSizeError(f"degree-{n} model needs {need} bytes at v = "
                             f"{spec.order}, over the {reduction.ORACLE_BYTES}"
                             f"-byte budget")
    return r


def builtin_model(spec: GroupSpec, degree: int) -> CohModel:
    """The built-in model for (spec, degree): the product of cyclic models
    for the abelian families at every degree >= 2, and the hand-written
    degree-2 model for d4t.  Refuses, before the group is built, as
    `model_generators` does."""
    n = degree
    model_generators(spec, n)
    g = build_group(spec)
    if spec.family is Family.D4T:
        diff = {1: np.zeros((2, 3), np.uint8), 2: np.zeros((3, 4), np.uint8)}
        lift = _lift_d4t_2(g)
    else:
        diff = {d: _product_diff(spec.radices, d) for d in (n - 1, n)}
        lift = _product_lift(g, n)
    return CohModel(group=g, degree=n, diff=diff, lift_table=lift)

