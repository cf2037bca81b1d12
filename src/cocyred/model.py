"""Cohomological model data for the built-in families.

A model for target degree n carries three basis dimensions (degrees n-1,
n, n+1), the two codifferential matrices over Z2 in those bases (row m =
coordinates of d applied to the m-th basis element), and the lift map: the
coefficient vector, in the degree-n basis, of the model projection applied
to a bar tuple [g_1|...|g_n].  Lifting a coordinate row c therefore gives
the cochain  tuple |-> <c, lift(tuple)> mod 2.

Built-in data exists for (g1, g2, d4t) at degree 2 and (g1, g2, cyclic) at
degree 3.  Coefficients of the form "t * basis element" are stored already
reduced mod 2, so the matrices depend only on the parity of t.

Models can also be loaded from JSON files carrying an explicit lift table;
see `save_model` / `load_model`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .gf2 import as_bits
from .groups import Family, FiniteGroup, GroupSpec, build_group, parse_group_spec


class ModelUnavailableError(ValueError):
    """Raised when no built-in model exists for a (family, degree) pair."""


#: (family, degree, t parity) -> (rank of lower codifferential l,
#: rank of upper codifferential k, tabulated cohomology dimension).
#: The tabulated dimension is what the source tables print; for (g2, 3, odd)
#: it disagrees with r - k - l = 4 and is surfaced as a warning downstream.
TABULATED = {
    (Family.G1, 2, 0): (0, 0, 3),
    (Family.G1, 2, 1): (0, 0, 3),
    (Family.D4T, 2, 0): (0, 0, 3),
    (Family.D4T, 2, 1): (0, 0, 3),
    (Family.G2, 2, 0): (0, 0, 6),
    (Family.G2, 2, 1): (1, 2, 3),
    (Family.G1, 3, 0): (0, 0, 4),
    (Family.G1, 3, 1): (0, 0, 4),
    (Family.G2, 3, 0): (0, 0, 10),
    (Family.G2, 3, 1): (2, 4, 3),
    (Family.CYCLIC, 3, 0): (0, 0, 1),
    (Family.CYCLIC, 3, 1): (0, 0, 1),
}


@dataclass
class CohModel:
    group: FiniteGroup
    degree: int
    dims: dict[int, int]
    diff: dict[int, np.ndarray]
    lift_table: np.ndarray = field(repr=False)  # (v**degree, dims[degree]) uint8
    tabulated: tuple[int, int, int] | None = None

    def __post_init__(self):
        n = self.degree
        q, r, s = self.dims[n - 1], self.dims[n], self.dims[n + 1]
        if self.diff[n - 1].shape != (q, r) or self.diff[n].shape != (r, s):
            raise ValueError("codifferential shapes do not match dims")
        if ((self.diff[n - 1].astype(int) @ self.diff[n].astype(int)) % 2).any():
            raise ValueError("d∘d != 0")
        if self.lift_table.shape != (self.group.order ** n, r):
            raise ValueError("lift table has wrong shape")

    def lift(self, tup) -> np.ndarray:
        """Coefficient vector of the lift of one degree-n tuple (0-based indices)."""
        v, n = self.group.order, self.degree
        if len(tup) != n:
            raise ValueError(f"expected a {n}-tuple")
        flat = 0
        for g in tup:
            if not (0 <= g < v):
                raise IndexError("element index out of range")
            flat = flat * v + int(g)
        return self.lift_table[flat]

    def codifferential_matrix(self, i: int) -> np.ndarray:
        if i not in self.diff:
            raise ValueError(f"degree {i} outside this model (has {sorted(self.diff)})")
        return self.diff[i]


def _coord_grids(g: FiniteGroup, n: int):
    """Per-tuple coordinate arrays, each of shape (v,)*n per tuple slot."""
    v = g.order
    idx = np.indices((v,) * n)  # idx[p] = element index in slot p
    return [g.coords_of(idx[p]) for p in range(n)]


def _lift_bits_g1(g: FiniteGroup, n: int) -> np.ndarray:
    t = g.spec.t
    if n == 2:
        (i1, i2), (j1, j2) = _coord_grids(g, 2)
        cols = [i1 + j1 >= 2 * t, (i1 * j2) % 2, i2 + j2 >= 2]
    else:
        (i1, i2), (j1, j2), (k1, k2) = _coord_grids(g, 3)
        cols = [(k1 * (i1 + j1 >= 2 * t)) % 2,
                (k2 * (i1 + j1 >= 2 * t)) % 2,
                (i1 * (j2 + k2 >= 2)) % 2,
                (k2 * (i2 + j2 >= 2)) % 2]
    return np.stack([np.asarray(c, dtype=np.uint8).ravel() for c in cols], axis=1)


def _lift_bits_g2(g: FiniteGroup, n: int) -> np.ndarray:
    # The printed e_1 / v_1 condition "i1 + j2 >= t" contradicts the closed
    # form BN_t ⊗ 1_4; the consistent condition uses j1.
    t = g.spec.t
    if n == 2:
        (i1, i2, i3), (j1, j2, j3) = _coord_grids(g, 2)
        cols = [i1 + j1 >= t,
                (i1 * j2) % 2,
                (i1 * j3) % 2,
                i2 + j2 >= 2,
                (i2 * j3) % 2,
                i3 + j3 >= 2]
    else:
        (i1, i2, i3), (j1, j2, j3), (k1, k2, k3) = _coord_grids(g, 3)
        cols = [(k1 * (i1 + j1 >= t)) % 2,
                (k2 * (i1 + j1 >= t)) % 2,
                (k3 * (i1 + j1 >= t)) % 2,
                (i1 * (j2 + k2 >= 2)) % 2,
                (i1 * j2 * k3) % 2,
                (i1 * (j3 + k3 >= 2)) % 2,
                (k2 * (i2 + j2 >= 2)) % 2,
                (k3 * (i2 + j2 >= 2)) % 2,
                (i2 * (j3 + k3 >= 2)) % 2,
                (k3 * (i3 + j3 >= 2)) % 2]
    return np.stack([np.asarray(c, dtype=np.uint8).ravel() for c in cols], axis=1)


def _lift_bits_d4t(g: FiniteGroup) -> np.ndarray:
    # Inner brackets over Z with the marked mod-2t reductions; one global
    # mod-2 reduction at the end.
    t = g.spec.t
    m = 2 * t
    (i1, i2), (j1, j2) = _coord_grids(g, 2)
    i1 = i1.astype(np.int64); i2 = i2.astype(np.int64)
    j1 = j1.astype(np.int64); j2 = j2.astype(np.int64)
    e1 = i1 * j1
    e2 = (-j1 * ((-1) ** i1) * i2) % m
    twist = (((-1) ** (i1 + j1)) * i2) % m
    e3 = (((((-1) ** j1) * j2) % m + twist) >= m).astype(np.int64) \
        + j1 * (i2 >= 1) * (twist - 1)
    cols = [e1 % 2, e2 % 2, e3 % 2]
    return np.stack([np.asarray(c, dtype=np.uint8).ravel() for c in cols], axis=1)


def _lift_bits_cyclic(g: FiniteGroup) -> np.ndarray:
    t = g.spec.t
    (i,), (j,), (k,) = _coord_grids(g, 3)
    bit = (k * (i + j >= 2 * t)) % 2
    return np.asarray(bit, dtype=np.uint8).reshape(-1, 1)


def builtin_model(spec: GroupSpec, degree: int) -> CohModel:
    """The built-in model for (spec, degree); raises ModelUnavailableError
    for pairs with no built-in data."""
    fam, t = spec.family, spec.t
    par = t % 2
    g = build_group(spec)
    if degree == 2 and fam in (Family.G1, Family.D4T):
        dims = {1: 2, 2: 3, 3: 4}
        d1 = np.zeros((2, 3), dtype=np.uint8)
        d2 = np.zeros((3, 4), dtype=np.uint8)
        lift = _lift_bits_g1(g, 2) if fam is Family.G1 else _lift_bits_d4t(g)
        diff = {1: d1, 2: d2}
    elif degree == 2 and fam is Family.G2:
        dims = {1: 3, 2: 6, 3: 10}
        d1 = np.zeros((3, 6), dtype=np.uint8)
        d1[0, 0] = par
        d2 = np.zeros((6, 10), dtype=np.uint8)
        d2[1, 1] = par
        d2[2, 2] = par
        lift = _lift_bits_g2(g, 2)
        diff = {1: d1, 2: d2}
    elif degree == 3 and fam is Family.G1:
        dims = {2: 3, 3: 4, 4: 5}
        diff = {2: np.zeros((3, 4), dtype=np.uint8), 3: np.zeros((4, 5), dtype=np.uint8)}
        lift = _lift_bits_g1(g, 3)
    elif degree == 3 and fam is Family.G2:
        dims = {2: 6, 3: 10, 4: 15}
        d2 = np.zeros((6, 10), dtype=np.uint8)
        d2[1, 1] = par
        d2[2, 2] = par
        d3 = np.zeros((10, 15), dtype=np.uint8)
        for m in (0, 3, 4, 5):
            d3[m, m] = par
        diff = {2: d2, 3: d3}
        lift = _lift_bits_g2(g, 3)
    elif degree == 3 and fam is Family.CYCLIC:
        dims = {2: 1, 3: 1, 4: 1}
        diff = {2: np.zeros((1, 1), dtype=np.uint8), 3: np.zeros((1, 1), dtype=np.uint8)}
        lift = _lift_bits_cyclic(g)
    else:
        raise ModelUnavailableError(
            f"no built-in model for this family/degree pair ({spec}, degree {degree})"
        )
    return CohModel(group=g, degree=degree, dims=dims, diff=diff,
                    lift_table=lift, tabulated=TABULATED[(fam, degree, par)])


# -- model files ---------------------------------------------------------


def save_model(model: CohModel, path) -> None:
    """Write a model as JSON with an explicit full lift table (1-based keys)."""
    g = model.group
    v, n = g.order, model.degree
    tuples = np.indices((v,) * n).reshape(n, -1)
    lift = {}
    for col in range(tuples.shape[1]):
        key = ",".join(str(int(x) + 1) for x in tuples[:, col])
        lift[key] = [int(b) for b in model.lift_table[col]]
    doc = {
        "group": str(g.spec) if g.spec is not None else (g.mul + 1).tolist(),
        "degree": n,
        "dims": [model.dims[n - 1], model.dims[n], model.dims[n + 1]],
        "diff": [model.diff[n - 1].tolist(), model.diff[n].tolist()],
        "lift": lift,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_model(path) -> CohModel:
    """Load a JSON model file; validates shapes, 0/1 entries and d∘d = 0."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        degree = int(doc["degree"])
        dims = [int(x) for x in doc["dims"]]
        grp = doc["group"]
        diff_raw = doc["diff"]
        lift_raw = doc["lift"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model file ({exc})") from None
    if isinstance(grp, str):
        group = build_group(parse_group_spec(grp))
    else:
        mul = np.asarray(grp, dtype=np.int64) - 1  # explicit tables are 1-based
        group = FiniteGroup(None, mul)
    if len(dims) != 3:
        raise ValueError(f"{path}: dims must have three entries")
    q, r, s = dims
    try:
        d_lo = as_bits(np.asarray(diff_raw[0], dtype=np.uint8).reshape(q, r))
        d_hi = as_bits(np.asarray(diff_raw[1], dtype=np.uint8).reshape(r, s))
    except ValueError as exc:
        raise ValueError(f"{path}: bad codifferential data ({exc})") from None
    v, n = group.order, degree
    table = np.zeros((v ** n, r), dtype=np.uint8)
    seen = np.zeros(v ** n, dtype=bool)
    for key, bits in lift_raw.items():
        parts = key.split(",")
        if len(parts) != n:
            raise ValueError(f"{path}: lift key {key!r} is not a {n}-tuple")
        flat = 0
        for p in parts:
            e = int(p) - 1
            if not (0 <= e < v):
                raise ValueError(f"{path}: lift key {key!r} out of range")
            flat = flat * v + e
        row = np.asarray(bits, dtype=np.uint8)
        if row.shape != (r,) or (row > 1).any():
            raise ValueError(f"{path}: lift value for {key!r} must be {r} bits")
        table[flat] = row
        seen[flat] = True
    if not seen.all():
        raise ValueError(f"{path}: lift table incomplete ({int((~seen).sum())} missing)")
    try:
        return CohModel(group=group, degree=degree,
                        dims={n - 1: q, n: r, n + 1: s},
                        diff={n - 1: d_lo, n: d_hi},
                        lift_table=table, tabulated=None)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
