import json

import numpy as np
import pytest

from cocyred.groups import Family, FiniteGroup, GroupSpec, build_group
from cocyred.model import (CohModel, ModelUnavailableError, builtin_model,
                           load_model, save_model)
from cocyred.reduction import Cochain, bar_codifferential
from cocyred.tensor import all_ones, back_negacyclic

from test_groups import LOOP5


def test_dims_per_family():
    cases = {
        (Family.G1, 2): (2, 3, 4),
        (Family.D4T, 2): (2, 3, 4),
        (Family.G2, 2): (3, 6, 10),
        (Family.G1, 3): (3, 4, 5),
        (Family.G2, 3): (6, 10, 15),
        (Family.CYCLIC, 3): (1, 1, 1),
    }
    for (fam, deg), (q, r, s) in cases.items():
        m = builtin_model(GroupSpec(fam, 2), deg)
        assert (m.dims[deg - 1], m.dims[deg], m.dims[deg + 1]) == (q, r, s)


def test_unsupported_pairs_raise():
    for fam, deg in [(Family.CYCLIC, 2), (Family.D4T, 3), (Family.G1, 4)]:
        with pytest.raises(ModelUnavailableError):
            builtin_model(GroupSpec(fam, 2), deg)


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


@pytest.mark.parametrize("t", (1, 2, 3, 4, 5))
def test_g2_chain_map(t):
    # d(lift_2(e_m)) == lift_3(d^2 e_m): one identity cross-validating the
    # group law, both lift formulas and the codifferential data
    m2 = builtin_model(GroupSpec(Family.G2, t), 2)
    m3 = builtin_model(GroupSpec(Family.G2, t), 3)
    g = m2.group
    for col in range(6):
        lhs = bar_codifferential(g, 2, Cochain(g.order, 2,
                                               m2.lift_table[:, col])).bits
        rhs = (m3.lift_table @ m2.diff[2][col].astype(np.int64)) % 2
        assert (lhs == rhs.astype(np.uint8)).all()


def test_save_load_roundtrip(tmp_path):
    m = builtin_model(GroupSpec(Family.G1, 1), 2)
    path = tmp_path / "g1.json"
    save_model(m, path)
    loaded = load_model(path)
    assert loaded.degree == m.degree
    assert loaded.dims == m.dims
    for i in m.diff:
        assert (loaded.diff[i] == m.diff[i]).all()
    assert (loaded.lift_table == m.lift_table).all()
    assert loaded.group.order == m.group.order
    assert (loaded.group.mul == m.group.mul).all()


def test_cyclic_lift_table_counts(tmp_path):
    # t=2, degree 3: full table has 64 entries, 12 of them nonzero
    # (k odd and i+j >= 4: 2 * 6 tuples)
    m = builtin_model(GroupSpec(Family.CYCLIC, 2), 3)
    path = tmp_path / "cyc.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    assert len(doc["lift"]) == 64
    nonzero = sum(1 for bits in doc["lift"].values() if any(bits))
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
    doc["lift"].popitem()
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="incomplete"):
        load_model(path)


def test_load_rejects_non_bit_entries(tmp_path):
    m = builtin_model(GroupSpec(Family.G1, 1), 2)
    path = tmp_path / "bad_bits.json"
    save_model(m, path)
    doc = json.loads(path.read_text())
    key = next(iter(doc["lift"]))
    doc["lift"][key] = [2, 0, 0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_model(path)


def _lift_as_list(doc):
    doc["lift"] = [[0, 0, 0]]


def _lift_key_not_int(doc):
    doc["lift"]["a,1"] = doc["lift"].pop("1,1")


def _lift_bit_not_int(doc):
    doc["lift"]["1,1"] = ["x", 0, 0]


def _degree_negative(doc):
    doc["degree"] = -1


def _dims_not_int(doc):
    doc["dims"] = [2, 3.5, 4]


def _degree_below_two(doc):
    doc["degree"] = 1
    doc["lift"] = {k.partition(",")[0]: bits for k, bits in doc["lift"].items()}


def _group_spec_bad(doc):
    doc["group"] = "g1:0"


def _diff_entry(value):
    def mutate(doc):
        doc["diff"][0][0][0] = value
    return mutate


def _lift_bit(value):
    def mutate(doc):
        doc["lift"]["1,1"][0] = value
    return mutate


def _lift_key_repeated(doc):
    doc["lift"]["02,2"] = doc["lift"]["2,2"]


@pytest.mark.parametrize("mutate,match", [
    (_lift_as_list, "lift must map"),
    (_lift_key_not_int, "bad lift entry 'a,1'"),
    (_lift_bit_not_int, "bad lift entry '1,1'"),
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
    pytest.param(_lift_bit(1.9), r"bad lift entry '1,1' \(1\.9 is not",
                 id="lift-bit-float"),
    pytest.param(_lift_bit("1"), r"bad lift entry '1,1' \('1' is not",
                 id="lift-bit-str"),
    pytest.param(_lift_key_repeated, "lift key '02,2' repeats a tuple",
                 id="lift-key-repeated")])
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
    text = path.read_text().replace('"lift": {', '"lift": {"1,1": [1, 0, 0], ')
    path.write_text(text)
    with pytest.raises(ValueError, match="twice.json: .*key '1,1' given twice"):
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
    assert (loaded.lift_table == m.lift_table).all()
    path2 = tmp_path / "table2.json"
    save_model(loaded, path2)
    again = load_model(path2)
    assert (again.group.mul == loaded.group.mul).all()


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
