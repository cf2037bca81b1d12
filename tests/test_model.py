import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from cocyred.groups import (Family, FiniteGroup, GroupSpec, build_group,
                            parse_group_spec)
import cocyred.reduction as reduction
from cocyred.model import (CohModel, ModelSizeError, ModelUnavailableError,
                           builtin_model, load_model, model_bytes,
                           model_generators, save_model)
from cocyred.reduction import basis_bytes, codifferential_words
from cocyred.tensor import all_ones, back_negacyclic
from cocyred.verify import run_verify

from test_groups import LOOP5


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


def assert_same_model(loaded, m):
    assert loaded.degree == m.degree
    assert loaded.dims == m.dims
    assert loaded.diff.keys() == m.diff.keys()
    for i in m.diff:
        assert loaded.diff[i].shape == m.diff[i].shape
        assert (loaded.diff[i] == m.diff[i]).all()
    assert loaded.lift_table.shape == m.lift_table.shape
    assert (loaded.lift_table == m.lift_table).all()
    assert (loaded.group.mul == m.group.mul).all()


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "model.json"
    for fam, deg in [(Family.G1, 2), (Family.G2, 2), (Family.D4T, 2),
                     (Family.G1, 3), (Family.G2, 3), (Family.CYCLIC, 3)]:
        for t in (1, 2):
            m = builtin_model(GroupSpec(fam, t), deg)
            save_model(m, path)
            assert_same_model(load_model(path), m)


def test_lift_is_stored_row_major(tmp_path):
    # row k of the saved lift is the k-th n-tuple in row-major order, as in
    # cochain bits: (0, 1), (0, 1) sits at 4e + e
    m = builtin_model(GroupSpec(Family.G1, 1), 2)
    path = tmp_path / "g1.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    e = int(m.group.index_of((0, 1)))
    assert doc["lift"][e * m.group.order + e] == [0, 0, 1]
    assert doc["lift"] == m.lift_table.tolist()


def test_roundtrip_with_no_lower_basis(tmp_path):
    # q = 0: d^(n-1) has no rows and is saved as []; over Z_2 the lift is
    # the cocycle f(a, b) = ab
    zero = np.zeros((1, 1), dtype=np.uint8)
    m = CohModel(group=build_group(GroupSpec(Family.CYCLIC, 1)), degree=2,
                 dims={1: 0, 2: 1, 3: 1},
                 diff={1: np.zeros((0, 1), dtype=np.uint8), 2: zero},
                 lift_table=np.array([[0], [0], [0], [1]], dtype=np.uint8))
    path = tmp_path / "q0.json"
    save_model(m, path)
    assert json.loads(path.read_text())["diff"][0] == []
    assert_same_model(load_model(path), m)


def test_cyclic_lift_table_counts(tmp_path):
    # t=2, degree 3: full table has 64 rows, 12 of them nonzero
    # (k odd and i+j >= 4: 2 * 6 tuples)
    m = builtin_model(GroupSpec(Family.CYCLIC, 2), 3)
    path = tmp_path / "cyc.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    assert len(doc["lift"]) == 64
    nonzero = sum(1 for bits in doc["lift"] if any(bits))
    assert nonzero == 12


def test_load_rejects_broken_d_squared(tmp_path):
    m = builtin_model(GroupSpec(Family.G2, 3), 2)
    path = tmp_path / "bad.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    doc["diff"][1][0][0] = 1  # now d1 @ d2 != 0
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="d∘d"):
        load_model(path)


def test_load_rejects_incomplete_lift(tmp_path):
    m = builtin_model(GroupSpec(Family.G1, 1), 2)
    path = tmp_path / "short.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    doc["lift"].pop()
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"short.json: bad lift table "
                                         r"\(expected a 16 x 3 matrix"):
        load_model(path)


def test_load_rejects_non_bit_entries(tmp_path):
    m = builtin_model(GroupSpec(Family.G1, 1), 2)
    path = tmp_path / "bad_bits.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    doc["lift"][0] = [2, 0, 0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"bad lift table \(2 is not a bit"):
        load_model(path)


def test_load_rejects_lift_that_is_not_a_cocycle(tmp_path):
    # over Z_2 with zero d, Ker d^2 is everything, and its one row lifts to
    # the cochain that is 1 at the 1-based tuple (1, 2) only: d of it is 1
    # at (1, 1, 2), so it is no cocycle
    path = tmp_path / "cochain.json"
    path.write_text(json.dumps({
        "group": "cyclic:1", "degree": 2, "dims": [1, 1, 1],
        "diff": [[[0]], [[0]]], "lift": [[0], [1], [0], [0]]}))
    with pytest.raises(ValueError, match=r"cochain.json: 1 of the 1 rows of "
                                         r"Ker d\^2 lift to cochains that are "
                                         r"not cocycles"):
        load_model(path)


def _lift_keyed(doc):
    # the lift as an object keyed by 1-based comma-joined tuples
    doc["lift"] = {"1,1": [0, 0, 0]}


def _lift_bit_not_int(doc):
    doc["lift"][0] = ["x", 0, 0]


def _degree_negative(doc):
    doc["degree"] = -1


def _dims_not_int(doc):
    doc["dims"] = [2, 3.5, 4]


def _degree_below_two(doc):
    doc["degree"] = 1
    doc["lift"] = doc["lift"][:4]


def _group_spec_bad(doc):
    doc["group"] = "g1:0"


def _diff_entry(value):
    def mutate(doc):
        doc["diff"][0][0][0] = value
    return mutate


def _lift_bit(value):
    def mutate(doc):
        doc["lift"][0][0] = value
    return mutate


def _transposed(x):
    return [list(col) for col in zip(*x)]


def _diff_transposed(doc):
    doc["diff"][0] = _transposed(doc["diff"][0])


def _diff_flat(doc):
    doc["diff"][0] = sum(doc["diff"][0], [])


def _lift_one_row_short(doc):
    doc["lift"].pop()


def _lift_transposed(doc):
    doc["lift"] = _transposed(doc["lift"])


def _lift_flat(doc):
    doc["lift"] = sum(doc["lift"], [])


def _extra_key(doc):
    doc["note"] = "ignored?"


def _missing_key(doc):
    del doc["dims"]


def _diff_third_entry(doc):
    doc["diff"].append("anything")


def _diff_one_entry(doc):
    doc["diff"].pop()


def _diff_object(doc):
    doc["diff"] = {"0": doc["diff"][0], "1": doc["diff"][1]}


# g1:1 at degree 2: dims (2, 3, 4), and the lift has 16 rows of 3 bits
DIFF_SHAPE = r"bad codifferential data \(expected a 2 x 3 matrix as nested lists\)$"
DIFF_PAIR = r"bad codifferential data \(expected a list of two matrices"
LIFT_SHAPE = r"bad lift table \(expected a 16 x 3 matrix as nested lists\)$"


@pytest.mark.parametrize("mutate,match", [
    pytest.param(_lift_keyed, LIFT_SHAPE, id="lift-keyed-object"),
    pytest.param(_lift_bit_not_int, r"bad lift table \('x' is not",
                 id="lift-bit-word"),
    (None, "not a JSON model file"),
    pytest.param(_degree_negative, "degree must be an integer >= 2, got -1",
                 id="degree-negative"),
    pytest.param(_dims_not_int,
                 r"dims must be three integers >= 0, got \[2, 3\.5, 4\]",
                 id="dims-not-int"),
    pytest.param(_degree_below_two, "degree must be an integer >= 2, got 1",
                 id="degree-below-two"),
    pytest.param(_group_spec_bad, r"bad group spec 'g1:0' \(t must be >= 1",
                 id="group-spec-bad"),
    pytest.param(_diff_entry(1.5), r"bad codifferential data \(1\.5 is not",
                 id="diff-float"),
    pytest.param(_diff_entry(True), r"bad codifferential data \(True is not",
                 id="diff-bool"),
    pytest.param(_diff_entry("1"), r"bad codifferential data \('1' is not",
                 id="diff-str"),
    pytest.param(_diff_entry(-1), r"bad codifferential data \(-1 is not",
                 id="diff-negative"),
    pytest.param(_diff_transposed, DIFF_SHAPE, id="diff-transposed"),
    pytest.param(_diff_flat, DIFF_SHAPE, id="diff-flat"),
    pytest.param(_lift_bit(1.5), r"bad lift table \(1\.5 is not",
                 id="lift-bit-float"),
    pytest.param(_lift_bit(True), r"bad lift table \(True is not",
                 id="lift-bit-bool"),
    pytest.param(_lift_bit("1"), r"bad lift table \('1' is not",
                 id="lift-bit-str"),
    pytest.param(_lift_bit(-1), r"bad lift table \(-1 is not",
                 id="lift-bit-negative"),
    pytest.param(_lift_one_row_short, LIFT_SHAPE, id="lift-one-row-short"),
    pytest.param(_lift_transposed, LIFT_SHAPE, id="lift-transposed"),
    pytest.param(_lift_flat, LIFT_SHAPE, id="lift-flat"),
    pytest.param(_extra_key, r"unknown keys \['note'\]", id="extra-key"),
    pytest.param(_missing_key, r"malformed model file \('dims'\)",
                 id="missing-key"),
    pytest.param(_diff_third_entry, DIFF_PAIR, id="diff-third-entry"),
    pytest.param(_diff_one_entry, DIFF_PAIR, id="diff-one-entry"),
    pytest.param(_diff_object, DIFF_PAIR, id="diff-object")])
def test_load_rejects_malformed_lift_or_json(tmp_path, mutate, match):
    m = builtin_model(GroupSpec(Family.G1, 1), 2)
    path = tmp_path / "malformed.json"
    save_model(m, path)
    if mutate is None:
        path.write_text(path.read_text()[:-1])
    else:
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"malformed.json: {match}"):
        load_model(path)


def test_load_rejects_repeated_json_key(tmp_path):
    # json.load alone keeps the later of two equal keys
    m = builtin_model(GroupSpec(Family.G1, 1), 2)
    path = tmp_path / "twice.json"
    save_model(m, path)
    text = path.read_text().replace('"degree": 2', '"degree": 3, "degree": 2')
    path.write_text(text)
    with pytest.raises(ValueError, match="twice.json: .*key 'degree' given twice"):
        load_model(path)


def test_load_explicit_table_group(tmp_path):
    # a model over an explicit 1-based multiplication table round-trips
    m = builtin_model(GroupSpec(Family.CYCLIC, 2), 3)
    path = tmp_path / "table.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    doc["group"] = (build_group(GroupSpec(Family.CYCLIC, 2)).mul + 1).tolist()
    path.write_text(json.dumps(doc))
    loaded = load_model(path)
    assert loaded.group.spec is None
    assert_same_model(loaded, m)
    path2 = tmp_path / "table2.json"
    save_model(loaded, path2)
    again = load_model(path2)
    assert again.group.spec is None
    assert_same_model(again, m)


def table_model(mul):
    """A degree-2 model with zero data over an explicit group table."""
    v = len(mul)
    zero = np.zeros((1, 1), dtype=np.uint8)
    return CohModel(group=FiniteGroup(None, mul), degree=2,
                    dims={1: 1, 2: 1, 3: 1}, diff={1: zero, 2: zero},
                    lift_table=np.zeros((v * v, 1), dtype=np.uint8))


def test_load_rejects_non_associative_table(tmp_path):
    path = tmp_path / "loop.json"
    save_model(table_model(LOOP5), path)
    with pytest.raises(ValueError, match="loop.json.*not a group"):
        load_model(path)
    z5 = (np.arange(5)[:, None] + np.arange(5)) % 5
    save_model(table_model(z5), path)
    assert (load_model(path).group.mul == z5).all()


def test_load_rejects_malformed_table(tmp_path):
    path = tmp_path / "ragged.json"
    save_model(table_model(LOOP5), path)
    doc = json.loads(path.read_text())
    doc["group"][2] = doc["group"][2][:4]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="ragged.json: bad group table"):
        load_model(path)
