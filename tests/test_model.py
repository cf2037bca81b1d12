import math
import re
import tracemalloc

import numpy as np
import pytest

from cocyred.groups import Family, GroupSpec, build_group, parse_group_spec
import cocyred.reduction as reduction
from cocyred.model import (CohModel, ModelSizeError, ModelUnavailableError,
                           builtin_model, model_bytes, model_generators)
from cocyred.reduction import basis_bytes, codifferential_words
from cocyred.tensor import all_ones, back_negacyclic
from cocyred.verify import run_verify


def test_dims_per_family():
    cases = {
        (Family.G1, 2): (2, 3, 4),
        (Family.D4T, 2): (2, 3, 4),
        (Family.G2, 2): (3, 6, 10),
        (Family.G1, 3): (3, 4, 5),
        (Family.G2, 3): (6, 10, 15),
        (Family.CYCLIC, 3): (1, 1, 1),
        (Family.CYCLIC, 2): (1, 1, 1),
        (Family.G1, 4): (4, 5, 6),
        (Family.G2, 4): (10, 15, 21),
        (Family.CYCLIC, 4): (1, 1, 1),
    }
    for (fam, deg), (q, r, s) in cases.items():
        m = builtin_model(GroupSpec(fam, 2), deg)
        assert (m.dims[deg - 1], m.dims[deg], m.dims[deg + 1]) == (q, r, s)


def test_unsupported_pairs_raise():
    for fam, deg in [(Family.D4T, 3), (Family.D4T, 1), (Family.G1, 1),
                     (Family.G2, 1), (Family.CYCLIC, 1), (Family.CYCLIC, 0)]:
        spec = GroupSpec(fam, 2)
        with pytest.raises(ModelUnavailableError, match=re.escape(
                f"no built-in model for this family/degree pair ({spec}, "
                f"degree {deg})")):
            builtin_model(spec, deg)


@pytest.mark.parametrize("spec,n,r", [("g1:3", 4, 5), ("g2:3", 4, 15),
                                      ("d4t:40", 2, 3)])
def test_oversized_model_refused_before_building(monkeypatch, spec, n, r):
    # one byte under `model_bytes` the model is refused before the group is
    # built; at it, the model is built within it
    spec = parse_group_spec(spec)
    v = spec.order
    need = model_bytes(v, n, r)
    monkeypatch.setattr(reduction, "ORACLE_BYTES", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ModelSizeError, match=re.escape(
                f"degree-{n} model needs {need} bytes at v = {v}, over the "
                f"{need - 1}-byte budget")):
            builtin_model(spec, n)
        _, refused = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        monkeypatch.setattr(reduction, "ORACLE_BYTES", need)
        model = builtin_model(spec, n)
        _, built = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert refused < v ** n  # not one byte per tuple
    assert model.dims[n] == r and built <= need


def test_model_generators_count_the_models_generators():
    # the CLI refuses an oversized basis from `model_generators` before any
    # model is built, so its r must be the r of the model built
    for fam in Family:
        for t in (1, 2, 3):
            spec = GroupSpec(fam, t)
            for n in [2] if fam is Family.D4T else (2, 3, 4):
                assert builtin_model(spec, n).dims[n] == \
                    model_generators(spec, n), (fam, t, n)


def test_model_guard_never_refuses_what_the_reduction_accepts():
    # wherever `model_bytes` is over the budget, so is `basis_bytes`, which
    # `full_cocycle_basis` refuses past: the model guard only refuses
    # earlier, never more
    budget = reduction.ORACLE_BYTES
    for fam in Family:
        for t in range(1, 200):
            v = GroupSpec(fam, t).order
            k = len(GroupSpec(fam, t).radices)
            for n in [2] if fam is Family.D4T else range(2, 30):
                r = 3 if fam is Family.D4T else math.comb(n + k - 1, k - 1)
                if model_bytes(v, n, r) > budget:
                    assert basis_bytes(v, n, r) > budget, (fam, t, n)


def test_g2_codifferentials_odd_t():
    m = builtin_model(GroupSpec(Family.G2, 3), 2)
    d1 = m.diff[1]
    assert d1.shape == (3, 6)
    expect = np.zeros((3, 6), dtype=np.uint8)
    expect[0, 0] = 1
    assert (d1 == expect).all()
    d2 = m.diff[2]
    assert d2.shape == (6, 10)
    assert sorted(map(tuple, np.argwhere(d2))) == [(1, 1), (2, 2)]


def test_g2_codifferentials_even_t_vanish():
    m = builtin_model(GroupSpec(Family.G2, 2), 2)
    assert not m.diff[1].any()
    assert not m.diff[2].any()


def test_g2_degree3_codifferential_odd_t():
    m = builtin_model(GroupSpec(Family.G2, 3), 3)
    d3 = m.diff[3]
    assert d3.shape == (10, 15)
    assert sorted(map(tuple, np.argwhere(d3))) == [(0, 0), (3, 3), (4, 4), (5, 5)]


def test_g1_codifferentials_vanish():
    for t in (1, 2, 3):
        m = builtin_model(GroupSpec(Family.G1, t), 2)
        assert not m.diff[1].any()
        assert not m.diff[2].any()


def test_g1_lift_example():
    # tuple of elements with coordinates (0,1), (0,1): only the third
    # bracket fires
    m = builtin_model(GroupSpec(Family.G1, 1), 2)
    g = m.group
    e = int(g.index_of((0, 1)))
    assert (m.lift_table[e * g.order + e] == [0, 0, 1]).all()


def test_cyclic_lift_example():
    # t=2, values (2,2,1): [1 * [4 >= 4]]_2 = 1; at v=4 the tuple (i,j,k)
    # sits at flat index 16i + 4j + k
    m = builtin_model(GroupSpec(Family.CYCLIC, 2), 3)
    assert (m.lift_table[2 * 16 + 2 * 4 + 1] == [1]).all()
    assert (m.lift_table[1 * 16 + 2 * 4 + 1] == [0]).all()


@pytest.mark.parametrize("fam,deg,ts", [
    (Family.G1, 2, (1, 2, 3, 4)), (Family.G2, 2, (1, 2, 3, 4, 5)),
    (Family.D4T, 2, (1, 2, 3, 4)), (Family.G1, 3, (1, 2, 3)),
    (Family.G2, 3, (1, 2, 3, 4)), (Family.CYCLIC, 3, (1, 2, 3, 4, 5)),
])
def test_lift_normalization(fam, deg, ts):
    for t in ts:
        m = builtin_model(GroupSpec(fam, t), deg)
        v = m.group.order
        coords = np.indices((v,) * deg).reshape(deg, -1)
        has_id = (coords == 0).any(axis=0)
        assert not m.lift_table[has_id].any()


def test_g2_lift_of_first_element_is_bn_kron_ones():
    for t in (2, 3, 4):
        m = builtin_model(GroupSpec(Family.G2, t), 2)
        lifted = (1 - 2 * m.lift_table[:, 0].astype(np.int8)).reshape(4 * t, 4 * t)
        assert (lifted == np.kron(back_negacyclic(t), all_ones(4))).all()


def assert_chain_map(spec, n):
    # d(lift_n(e_m)) == lift_{n+1}(d^n e_m) for every basis element e_m: one
    # identity cross-validating the group law, both lift tables and the
    # codifferential data; the columns of a lift table are the lifted e_m
    m, m_next = builtin_model(spec, n), builtin_model(spec, n + 1)
    lhs = codifferential_words(m.group, n, m.lift_table)
    assert (lhs == m_next.lift(m.diff[n]).T).all()


@pytest.mark.parametrize("t", (1, 2, 3, 4, 5))
def test_g2_chain_map(t):
    assert_chain_map(GroupSpec(Family.G2, t), 2)


@pytest.mark.parametrize("t", (1, 2, 3))
@pytest.mark.parametrize("fam,n", [
    (Family.G1, 2), (Family.G1, 3), (Family.G1, 4), (Family.G2, 3),
    (Family.G2, 4), (Family.CYCLIC, 2), (Family.CYCLIC, 3), (Family.CYCLIC, 4)])
def test_product_model_chain_map(fam, n, t):
    # with test_g2_chain_map, every abelian family at n = 2, 3, 4
    assert_chain_map(GroupSpec(fam, t), n)


@pytest.mark.parametrize("spec,n", [
    ("g1:1", 4), ("g2:1", 4), ("cyclic:1", 4), ("cyclic:2", 4),
    ("cyclic:3", 4), ("cyclic:1", 2), ("cyclic:2", 2), ("cyclic:3", 2),
    ("cyclic:2", 5), ("g1:1", 5), ("g1:2", 4)])
def test_product_models_pass_verify(spec, n):
    # pairs with no printed data: verify's closed-form and tabulated checks
    # are skipped, and the bar-complex oracle referees the model
    checks = run_verify(parse_group_spec(spec), n)
    assert [c.line() for c in checks if c.status == "FAIL"] == []
    assert [c.status for c in checks if c.name == "oracle-hdim"] == ["PASS"]


def test_lift_is_stored_row_major():
    # row k of the lift table is the k-th n-tuple in row-major order, as in
    # cochain bits: (a, b) sits at va + b.  test_g1_lift_example reads a
    # tuple (e, e), the same in either order; the middle column of g1:1 at
    # degree 2 is a_0 b_1, so (1, 0), (0, 1) fires it and the reversed
    # tuple does not
    m = builtin_model(GroupSpec(Family.G1, 1), 2)
    g = m.group
    a, b = int(g.index_of((1, 0))), int(g.index_of((0, 1)))
    assert m.lift_table[a * g.order + b].tolist() == [0, 1, 0]
    assert m.lift_table[b * g.order + a].tolist() == [0, 0, 0]


def test_cyclic_lift_table_counts():
    # t=2, degree 3: full table has 64 rows, 12 of them nonzero
    # (k odd and i+j >= 4: 2 * 6 tuples)
    m = builtin_model(GroupSpec(Family.CYCLIC, 2), 3)
    assert m.lift_table.shape == (64, 1)
    assert int(m.lift_table.any(axis=1).sum()) == 12


def cyclic1_model(**change):
    """Z_2 at degree 2 with zero d, whose one generator lifts to the
    cocycle f(a, b) = ab; `change` replaces any of its fields."""
    zero = np.zeros((1, 1), dtype=np.uint8)
    fields = dict(group=build_group(GroupSpec(Family.CYCLIC, 1)), degree=2,
                  diff={1: zero, 2: zero},
                  lift_table=np.array([[0], [0], [0], [1]], dtype=np.uint8))
    return CohModel(**{**fields, **change})


def test_model_with_no_lower_basis():
    # q = 0: d^(n-1) is a (0, r) matrix
    m = cyclic1_model(diff={1: np.zeros((0, 1), dtype=np.uint8),
                            2: np.zeros((1, 1), dtype=np.uint8)})
    assert m.diff[1].shape == (0, 1) and m.dims == {1: 0, 2: 1, 3: 1}
    assert m.lift([[1]]).tolist() == [[0, 0, 0, 1]]


def test_model_rejects_broken_d_squared():
    m = builtin_model(GroupSpec(Family.G2, 3), 2)
    diff = {n: d.copy() for n, d in m.diff.items()}
    diff[2][0, 0] = 1  # now d1 @ d2 != 0
    with pytest.raises(ValueError, match="d∘d != 0"):
        CohModel(group=m.group, degree=2, diff=diff, lift_table=m.lift_table)


@pytest.mark.parametrize("q,r,s", [(1, 2, 1), (0, 0, 1), (2, 3, 2)])
def test_model_rejects_codifferentials_that_do_not_compose(q, r, s):
    # d^(n-1) is (q, r) and d^n is (r + 1, s): no product, so no model
    diff = {1: np.zeros((q, r), np.uint8), 2: np.zeros((r + 1, s), np.uint8)}
    with pytest.raises(ValueError, match=r"^d\^\(n-1\) and d\^n do not compose$"):
        cyclic1_model(diff=diff)


@pytest.mark.parametrize("rows,cols", [(3, 1), (5, 1), (4, 2), (1, 4)])
def test_model_rejects_wrong_lift_shape(rows, cols):
    with pytest.raises(ValueError, match="lift table has wrong shape"):
        cyclic1_model(lift_table=np.zeros((rows, cols), dtype=np.uint8))
