"""The built-in group families, realized as explicit multiplication tables.

Families (t >= 1):

* ``g1``     -- Z_2t x Z_2, order 4t
* ``g2``     -- Z_t x Z_2 x Z_2, order 4t
* ``d4t``    -- the dihedral group D_4t = Z_2 semidirect Z_2t, order 4t
* ``cyclic`` -- Z_2t, order 2t

Elements are indexed 0..v-1 internally; index 0 is the identity.  Index i
has the mixed-radix coordinates `np.unravel_index(i, spec.radices)` (the
row-major product ordering), so index+1 reproduces the 1..|G| labeling
used in all printed output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Family(str, Enum):
    G1 = "g1"
    G2 = "g2"
    D4T = "d4t"
    CYCLIC = "cyclic"


@dataclass(frozen=True)
class GroupSpec:
    family: Family
    t: int

    def __post_init__(self):
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")

    @property
    def radices(self) -> tuple[int, ...]:
        """The family's coordinate form: coordinate p runs over Z_radices[p]."""
        t = self.t
        return {Family.G1: (2 * t, 2), Family.G2: (t, 2, 2),
                Family.D4T: (2, 2 * t), Family.CYCLIC: (2 * t,)}[self.family]

    @property
    def order(self) -> int:
        return math.prod(self.radices)

    def __str__(self) -> str:
        return f"{self.family.value}:{self.t}"


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a ``family:t`` spec string, e.g. ``g1:2`` or ``cyclic:5``."""
    try:
        name, _, t_str = text.strip().lower().partition(":")
        family = Family(name)
        t = int(t_str)
    except (ValueError, KeyError):
        raise ValueError(
            f"bad group spec {text!r}; expected g1:t, g2:t, d4t:t or cyclic:t"
        ) from None
    return GroupSpec(family, t)


class FiniteGroup:
    """A finite group given by its multiplication table.

    Attributes
    ----------
    order : int
        Number of elements v.
    mul : (v, v) int array
        mul[a, b] is the index of the product, 0-based.
    inv : (v,) int array
        Index of each inverse.
    identity : int
        Always 0 for the built-in families.
    """

    def __init__(self, spec: GroupSpec | None, mul: np.ndarray):
        self.spec = spec
        self.mul = np.ascontiguousarray(mul, dtype=np.int64)
        self.order = self.mul.shape[0]
        if self.mul.shape != (self.order, self.order):
            raise ValueError("multiplication table must be square")
        ident = np.nonzero((self.mul == np.arange(self.order)).all(axis=1))[0]
        if ident.size != 1 or ident[0] != 0:
            raise ValueError("element 0 must be the identity")
        self.identity = 0
        inv = np.argwhere(self.mul == 0)
        self.inv = np.zeros(self.order, dtype=np.int64)
        self.inv[inv[:, 0]] = inv[:, 1]

    # -- coordinate maps -------------------------------------------------

    def coords_of(self, idx: np.ndarray | int):
        """Coordinates of element indices in the family's product form."""
        return np.unravel_index(idx, self._radices())

    def index_of(self, coords) -> np.ndarray:
        """Element indices of coordinates; raises if one is out of range."""
        return np.asarray(np.ravel_multi_index(tuple(coords), self._radices()))

    def _radices(self) -> tuple[int, ...]:
        if self.spec is None:
            raise ValueError("table-built group has no coordinate form")
        return self.spec.radices

    def __repr__(self) -> str:
        tag = self.spec if self.spec is not None else "table"
        return f"FiniteGroup({tag}, order={self.order})"


def build_group(spec: GroupSpec) -> FiniteGroup:
    """Materialize the multiplication table for a family spec: coordinates
    add modulo their radix, with one twist for d4t."""
    radices = spec.radices
    coords = np.unravel_index(np.arange(spec.order), radices)
    left = [c[:, None] for c in coords]
    right = [c[None, :] for c in coords]
    prod = [(x + y) % m for x, y, m in zip(left, right, radices)]
    if spec.family is Family.D4T:
        # (i1, i2) * (j1, j2) = (i1 + j1 mod 2, i2 + (-1)^i1 * j2 mod 2t):
        # the flip part of the LEFT operand twists the rotation of the right.
        # This is the unique orientation under which every lifted dual basis
        # element satisfies the 2-cocycle condition (checked by `verify`);
        # the mirror convention fails for the third basis element at t >= 2.
        prod[1] = (left[1] + (1 - 2 * left[0]) * right[1]) % radices[1]
    return FiniteGroup(spec, np.ravel_multi_index(prod, radices))


def group_axioms_hold(g: FiniteGroup) -> bool:
    """Exhaustive associativity / identity / inverse / Latin-square check."""
    m = g.mul
    v = g.order
    if (m[0] != np.arange(v)).any() or (m[:, 0] != np.arange(v)).any():
        return False
    if (m[np.arange(v), g.inv] != 0).any() or (m[g.inv, np.arange(v)] != 0).any():
        return False
    rows_ok = (np.sort(m, axis=1) == np.arange(v)).all()
    cols_ok = (np.sort(m, axis=0) == np.arange(v)[:, None]).all()
    if not (rows_ok and cols_ok):
        return False
    # associativity: (ab)c == a(bc) for all b, c, one left factor a at a
    # time; row b of m[m[a]] is (ab)c over c, and m[a][m] is a(bc)
    return all((m[m[a]] == m[a][m]).all() for a in range(v))
