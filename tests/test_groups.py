import numpy as np
import pytest

from cocyred.groups import (Family, FiniteGroup, GroupSpec, build_group,
                            group_axioms_hold, parse_group_spec)


def test_parse_group_spec():
    s = parse_group_spec("g1:2")
    assert s.family is Family.G1 and s.t == 2 and s.order == 8
    assert parse_group_spec("cyclic:5").order == 10
    assert str(parse_group_spec("d4t:3")) == "d4t:3"


@pytest.mark.parametrize("bad", ["", "g7:1", "g1", "g1:0", "g1:x", "d4t:-2"])
def test_parse_group_spec_rejects(bad):
    with pytest.raises(ValueError):
        parse_group_spec(bad)


def test_index_formulas_match_printed_examples():
    # printed 1-based indices: i = 2*i1+i2+1, 4*i1+2*i2+i3+1, 2t*i1+i2+1
    g1 = build_group(GroupSpec(Family.G1, 2))
    assert int(g1.index_of((1, 1))) + 1 == 4
    g2 = build_group(GroupSpec(Family.G2, 2))
    assert int(g2.index_of((1, 0, 1))) + 1 == 6
    d = build_group(GroupSpec(Family.D4T, 2))
    assert int(d.index_of((1, 3))) + 1 == 8


@pytest.mark.parametrize("fam", list(Family))
@pytest.mark.parametrize("t", range(1, 9))
def test_group_axioms_exhaustive(fam, t):
    g = build_group(GroupSpec(fam, t))
    assert group_axioms_hold(g)


@pytest.mark.parametrize("fam", list(Family))
def test_identity_row_and_inverse(fam):
    g = build_group(GroupSpec(fam, 3))
    v = g.order
    assert (g.mul[0] == np.arange(v)).all()
    assert g.inv[0] == 0
    for a in range(v):
        assert g.mul[a, g.inv[a]] == 0


def test_cyclic_multiplication():
    g = build_group(GroupSpec(Family.CYCLIC, 2))  # Z_4
    # elements with values 2 and 3 multiply to the value-1 element
    assert g.mul[2, 3] == 1


def test_d4t_rotation_subgroup():
    g = build_group(GroupSpec(Family.D4T, 2))
    a = int(g.index_of((0, 1)))
    b = int(g.index_of((0, 3)))
    assert g.mul[a, b] == 0  # rotations by 1 and 3 compose to the identity


def test_d4t_reflections_are_involutions():
    for t in (1, 2, 3, 4):
        g = build_group(GroupSpec(Family.D4T, t))
        for k in range(2 * t):
            refl = int(g.index_of((1, k)))
            assert g.inv[refl] == refl


def test_d4t_t1_is_klein_four():
    g = build_group(GroupSpec(Family.D4T, 1))
    assert (g.mul == g.mul.T).all()
    for a in range(4):
        assert g.mul[a, a] == 0
    d4 = build_group(GroupSpec(Family.D4T, 2)).mul
    assert not (d4 == d4.T).all()


@pytest.mark.parametrize("fam", list(Family))
def test_coords_roundtrip(fam):
    g = build_group(GroupSpec(fam, 4))
    idx = np.arange(g.order)
    assert (g.index_of(g.coords_of(idx)) == idx).all()


def test_index_of_rejects_out_of_range_coordinates():
    # (2t, 2) at t = 2: the first coordinate runs over 0..3
    g = build_group(GroupSpec(Family.G1, 2))
    assert int(g.index_of((3, 1))) == 7
    with pytest.raises(ValueError):
        g.index_of((4, 0))
    with pytest.raises(ValueError):
        g.index_of((0, 2))



# A loop of order 5, the smallest order with a non-associative one: 0 is
# the identity and every row and column is a permutation, but
# (1*1)*2 = 2 while 1*(1*2) = 4.
LOOP5 = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                  [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])


def test_group_axioms_reject_non_associative_loop():
    assert not group_axioms_hold(FiniteGroup(None, LOOP5))
    z5 = (np.arange(5)[:, None] + np.arange(5)) % 5
    assert group_axioms_hold(FiniteGroup(None, z5))
