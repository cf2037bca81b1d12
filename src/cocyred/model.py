"""Cohomological model data for the built-in families.

A model for target degree n carries three basis dimensions (degrees n-1,
n, n+1), the two codifferential matrices over Z2 in those bases (row m =
coordinates of d applied to the m-th basis element), and the lift map: the
coefficient vector, in the degree-n basis, of the model projection applied
to a bar tuple [g_1|...|g_n].  Lifting a coordinate row c therefore gives
the cochain  tuple |-> <c, lift(tuple)> mod 2.

Built-in data exists for (g1, g2, d4t) at degree 2 and (g1, g2, cyclic) at
degree 3, one row of `BUILTIN` each.  Coefficients of the form "t * basis
element" are stored already reduced mod 2, so the matrices depend only on
the parity of t.

Models can also be loaded from JSON files carrying an explicit lift table;
see `save_model` / `load_model`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .gf2 import left_kernel
from .groups import (Family, FiniteGroup, GroupSpec, build_group,
                     group_axioms_hold, parse_group_spec)


class ModelUnavailableError(ValueError):
    """Raised when no built-in model exists for a (family, degree) pair."""


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

    def lift(self, coords) -> np.ndarray:
        """The cochains of (k, r) coordinate rows, as a (k, v**n) uint8
        matrix: row c is the cochain tuple |-> <c, lift(tuple)> mod 2."""
        return ((np.asarray(coords, dtype=np.int64) @ self.lift_table.T) % 2
                ).astype(np.uint8)


def _lift_g1_2(t, i, j):
    (i1, i2), (j1, j2) = i, j
    return [i1 + j1 >= 2 * t, i1 * j2, i2 + j2 >= 2]


def _lift_g1_3(t, i, j, k):
    (i1, i2), (j1, j2), (k1, k2) = i, j, k
    return [k1 * (i1 + j1 >= 2 * t), k2 * (i1 + j1 >= 2 * t),
            i1 * (j2 + k2 >= 2), k2 * (i2 + j2 >= 2)]


# The printed e_1 / v_1 condition "i1 + j2 >= t" of g2 contradicts the
# closed form BN_t ⊗ 1_4; the consistent condition uses j1.

def _lift_g2_2(t, i, j):
    (i1, i2, i3), (j1, j2, j3) = i, j
    return [i1 + j1 >= t, i1 * j2, i1 * j3, i2 + j2 >= 2, i2 * j3, i3 + j3 >= 2]


def _lift_g2_3(t, i, j, k):
    (i1, i2, i3), (j1, j2, j3), (k1, k2, k3) = i, j, k
    return [k1 * (i1 + j1 >= t), k2 * (i1 + j1 >= t), k3 * (i1 + j1 >= t),
            i1 * (j2 + k2 >= 2), i1 * j2 * k3, i1 * (j3 + k3 >= 2),
            k2 * (i2 + j2 >= 2), k3 * (i2 + j2 >= 2), i2 * (j3 + k3 >= 2),
            k3 * (i3 + j3 >= 2)]


def _lift_d4t_2(t, i, j):
    # Inner brackets over Z with the marked mod-2t reductions.
    (i1, i2), (j1, j2) = i, j
    m = 2 * t
    twist = (((-1) ** (i1 + j1)) * i2) % m
    return [i1 * j1,
            (-j1 * ((-1) ** i1) * i2) % m,
            ((((-1) ** j1) * j2) % m + twist >= m) + j1 * (i2 >= 1) * (twist - 1)]


def _lift_cyclic_3(t, i, j, k):
    return [k[0] * (i[0] + j[0] >= 2 * t)]


class Builtin(NamedTuple):
    """One built-in model: dims (q, r, s) of degrees n-1, n, n+1; the
    diagonal positions of d^(n-1) and d^n whose entry is t mod 2 (all other
    entries are 0); the lift builder, which maps t and the coordinates of
    the n tuple slots (arrays over the v**n tuples) to the r brackets of the
    model projection, taken mod 2 afterwards; and the printed (l, k, hdim)
    for even and for odd t."""
    dims: tuple[int, int, int]
    lower: tuple[int, ...]
    upper: tuple[int, ...]
    lift: Callable
    even: tuple[int, int, int]
    odd: tuple[int, int, int]


#: The built-in models by (family, degree).  The printed hdim of (g2, 3,
#: odd t) disagrees with r - k - l = 4 and is surfaced as a warning
#: downstream.
BUILTIN = {
    (Family.G1, 2): Builtin((2, 3, 4), (), (), _lift_g1_2, (0, 0, 3), (0, 0, 3)),
    (Family.D4T, 2): Builtin((2, 3, 4), (), (), _lift_d4t_2, (0, 0, 3), (0, 0, 3)),
    (Family.G2, 2): Builtin((3, 6, 10), (0,), (1, 2), _lift_g2_2,
                            (0, 0, 6), (1, 2, 3)),
    (Family.G1, 3): Builtin((3, 4, 5), (), (), _lift_g1_3, (0, 0, 4), (0, 0, 4)),
    (Family.G2, 3): Builtin((6, 10, 15), (1, 2), (0, 3, 4, 5), _lift_g2_3,
                            (0, 0, 10), (2, 4, 3)),
    (Family.CYCLIC, 3): Builtin((1, 1, 1), (), (), _lift_cyclic_3,
                                (0, 0, 1), (0, 0, 1)),
}


def builtin_model(spec: GroupSpec, degree: int) -> CohModel:
    """The built-in model for (spec, degree); raises ModelUnavailableError
    for pairs with no built-in data."""
    row = BUILTIN.get((spec.family, degree))
    if row is None:
        raise ModelUnavailableError(
            f"no built-in model for this family/degree pair ({spec}, degree {degree})"
        )
    n, par = degree, spec.t % 2
    q, r, s = row.dims
    diff = {n - 1: np.zeros((q, r), np.uint8), n: np.zeros((r, s), np.uint8)}
    for j, at in ((n - 1, row.lower), (n, row.upper)):
        diff[j][list(at), list(at)] = par
    g = build_group(spec)
    brackets = row.lift(spec.t, *map(g.coords_of, np.indices((g.order,) * n)))
    lift = np.stack([np.ravel(b) % 2 for b in brackets], axis=1).astype(np.uint8)
    return CohModel(group=g, degree=n, dims={n - 1: q, n: r, n + 1: s},
                    diff=diff, lift_table=lift,
                    tabulated=row.odd if par else row.even)


# -- model files ---------------------------------------------------------


#: The top-level keys that `save_model` writes; `load_model` requires them
#: all and rejects any other.
MODEL_KEYS = ("group", "degree", "dims", "diff", "lift")


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
    """Load a JSON model file; validates its keys, the shapes that `dims`
    gives, entries that are the integers 0 and 1, d∘d = 0, the group axioms
    of an explicit table, and that every row of Ker d^n lifts to a
    cocycle."""
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
    extra = sorted(doc.keys() - MODEL_KEYS)
    if extra:
        raise ValueError(f"{path}: unknown keys {extra}, not in {MODEL_KEYS}")
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
        if not (isinstance(diff_raw, list) and len(diff_raw) == 2):
            raise ValueError("expected a list of two matrices")
        d_lo = _matrix(diff_raw[0], q, r)
        d_hi = _matrix(diff_raw[1], r, s)
    except ValueError as exc:
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
    bad = count_non_cocycles(group, n, model.lift(kernel))
    if bad:
        raise ValueError(f"{path}: {bad} of the {len(kernel)} rows of Ker d^{n} "
                         f"lift to cochains that are not cocycles")
    return model
