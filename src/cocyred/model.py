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

from .gf2 import left_kernel
from .groups import (Family, FiniteGroup, GroupSpec, build_group,
                     group_axioms_hold, parse_group_spec)


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
    """Write a model as JSON; its lift table is the (v^n, r) 0/1 matrix
    whose rows are the n-tuples in row-major order, as in cochain bits."""
    g, n = model.group, model.degree
    doc = {
        "group": str(g.spec) if g.spec is not None else (g.mul + 1).tolist(),
        "degree": n,
        "dims": [model.dims[n - 1], model.dims[n], model.dims[n + 1]],
        "diff": [model.diff[n - 1].tolist(), model.diff[n].tolist()],
        "lift": model.lift_table.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _is_int(x) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _object(pairs) -> dict:
    """A JSON object as a dict; a key given twice is an error, not the
    silent overwrite of `json.load`."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} given twice in one object")
        doc[key] = value
    return doc


def _matrix(x, rows: int, cols: int) -> np.ndarray:
    """A rows x cols matrix given as nested lists of the JSON integers 0
    and 1 (a matrix with no rows is []), as a uint8 array."""
    if not (isinstance(x, list) and len(x) == rows
            and all(isinstance(row, list) and len(row) == cols for row in x)):
        raise ValueError(f"expected a {rows} x {cols} matrix as nested lists")
    for row in x:
        for b in row:
            if not (_is_int(b) and 0 <= b <= 1):
                raise ValueError(f"{b!r} is not a bit, the integer 0 or 1")
    return np.array(x, dtype=np.uint8).reshape(rows, cols)


def load_model(path) -> CohModel:
    """Load a JSON model file; validates the shapes that `dims` gives,
    entries that are the integers 0 and 1, d∘d = 0, the group axioms of an
    explicit table, and that every row of Ker d^n lifts to a cocycle."""
    with open(path) as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_object)
        except ValueError as exc:
            raise ValueError(f"{path}: not a JSON model file ({exc})") from None
    try:
        n, dims = doc["degree"], doc["dims"]
        grp, diff_raw, lift_raw = doc["group"], doc["diff"], doc["lift"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed model file ({exc})") from None
    if not _is_int(n) or n < 2:
        raise ValueError(f"{path}: degree must be an integer >= 2, got {n!r}")
    if not (isinstance(dims, list) and len(dims) == 3
            and all(_is_int(x) and x >= 0 for x in dims)):
        raise ValueError(f"{path}: dims must be three integers >= 0, got {dims!r}")
    if isinstance(grp, str):
        try:
            group = build_group(parse_group_spec(grp))
        except ValueError as exc:
            raise ValueError(f"{path}: bad group spec {grp!r} ({exc})") from None
    else:
        try:
            mul = np.asarray(grp, dtype=np.int64) - 1  # explicit tables are 1-based
            group = FiniteGroup(None, mul)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad group table ({exc})") from None
        if not group_axioms_hold(group):
            raise ValueError(f"{path}: group table is not a group (fails "
                             f"associativity, identity, inverse or Latin-square)")
    q, r, s = dims
    try:
        d_lo = _matrix(diff_raw[0], q, r)
        d_hi = _matrix(diff_raw[1], r, s)
    except (TypeError, KeyError, IndexError, ValueError) as exc:
        raise ValueError(f"{path}: bad codifferential data ({exc})") from None
    try:
        table = _matrix(lift_raw, group.order ** n, r)
    except ValueError as exc:
        raise ValueError(f"{path}: bad lift table ({exc})") from None
    try:
        model = CohModel(group=group, degree=n,
                         dims={n - 1: q, n: r, n + 1: s},
                         diff={n - 1: d_lo, n: d_hi},
                         lift_table=table, tabulated=None)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    from .reduction import count_non_cocycles  # reduction imports this module
    _, kernel = left_kernel(d_hi)
    bad = count_non_cocycles(group, n, (kernel.astype(np.int64) @ table.T) % 2)
    if bad:
        raise ValueError(f"{path}: {bad} of the {len(kernel)} rows of Ker d^{n} "
                         f"lift to cochains that are not cocycles")
    return model
