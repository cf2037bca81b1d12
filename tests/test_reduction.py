import tracemalloc

import numpy as np
import pytest

from cocyred.gf2 import gf2_rank, greedy_independent_rows, in_row_space
from cocyred.groups import Family, GroupSpec, build_group
from cocyred.model import builtin_model
from cocyred.reduction import (Cochain, OracleSizeError, bar_codifferential,
                               brute_force_cohomology, coboundary_basis,
                               coboundary_generator, full_cocycle_basis,
                               representative_cocycles)
from cocyred.verify import closed_form_rep_tensors
from cocyred.tensor import tensor_from_cochain


def delta(v, n, flat):
    bits = np.zeros(v ** n, dtype=np.uint8)
    bits[flat] = 1
    return Cochain(v, n, bits)


def test_homomorphisms_are_one_cocycles():
    g = build_group(GroupSpec(Family.G1, 2))  # Z_4 x Z_2
    # f(i) = i2 is a homomorphism to Z_2
    _, i2 = g.coords_of(np.arange(g.order))
    f = Cochain(g.order, 1, i2.astype(np.uint8))
    assert not bar_codifferential(g, 1, f).bits.any()


def test_klein_four_characteristic_coboundaries_coincide():
    g = build_group(GroupSpec(Family.G1, 1))  # Z_2 x Z_2
    d2, d3, d4 = (coboundary_generator(g, 2, T) for T in (2, 3, 4))
    assert d2.bits.any()
    assert (d2.bits == d3.bits).all() and (d3.bits == d4.bits).all()


@pytest.mark.parametrize("spec", [GroupSpec(Family.G1, 1), GroupSpec(Family.G1, 2),
                                  GroupSpec(Family.CYCLIC, 3), GroupSpec(Family.D4T, 2)])
@pytest.mark.parametrize("n", (1, 2))
def test_d_squared_is_zero_exhaustively(spec, n):
    g = build_group(spec)
    v = g.order
    for flat in range(v ** n):
        df = bar_codifferential(g, n, delta(v, n, flat))
        assert not bar_codifferential(g, n + 1, df).bits.any()


def test_degree_mismatch_raises():
    g = build_group(GroupSpec(Family.G1, 1))
    with pytest.raises(ValueError):
        bar_codifferential(g, 2, delta(4, 1, 0))


def test_z2_characteristic_coboundary_vanishes():
    g = build_group(GroupSpec(Family.CYCLIC, 1))  # Z_2
    assert not coboundary_generator(g, 2, 2).bits.any()


def test_z4_coboundary_of_identity_tuple():
    # direct evaluation oracle: bit(h1,h2) = [h2==e] + [h1==e] + [h1h2==e]
    g = build_group(GroupSpec(Family.CYCLIC, 2))
    got = coboundary_generator(g, 2, 1).bits.reshape(4, 4)
    h = np.arange(4)
    expect = ((h[None, :] == 0).astype(int) + (h[:, None] == 0)
              + (g.mul == 0)) % 2
    assert (got == expect).all()


def test_coboundary_generator_range_check():
    g = build_group(GroupSpec(Family.G1, 1))
    with pytest.raises(IndexError):
        coboundary_generator(g, 2, 0)
    with pytest.raises(IndexError):
        coboundary_generator(g, 3, 17)


def test_normalized_basis_g1_t1():
    g = build_group(GroupSpec(Family.G1, 1))
    basis = coboundary_basis(g, 2, mode="normalized")
    assert basis.labels() == ["cob:2"]


def test_all_basis_counts():
    assert len(coboundary_basis(build_group(GroupSpec(Family.CYCLIC, 2)), 3)) == 12
    assert len(coboundary_basis(build_group(GroupSpec(Family.G1, 1)), 3)) == 11


def test_g1_t1_degree3_basis_indices():
    g = build_group(GroupSpec(Family.G1, 1))
    labels = coboundary_basis(g, 3, mode="all").labels()
    assert labels == [f"cob:{T}" for T in list(range(1, 11)) + [13]]


@pytest.mark.parametrize("spec,n", [
    (GroupSpec(Family.G1, 1), 2), (GroupSpec(Family.G1, 2), 2),
    (GroupSpec(Family.CYCLIC, 2), 3), (GroupSpec(Family.D4T, 2), 2),
])
def test_all_mode_spans_full_coboundary_image(spec, n):
    # every element is a generator d(δ_T), so span ⊆ Im d^{n-1}; equality
    # follows from independence and the oracle's rank of d^{n-1}
    g = build_group(spec)
    basis = coboundary_basis(g, n, mode="all")
    bf = brute_force_cohomology(g, n)
    for lab, c in basis.entries:
        T = int(lab.split(":")[1])
        assert (c.bits == coboundary_generator(g, n, T).bits).all()
    assert gf2_rank(basis.matrix()) == len(basis) == bf.im_rank


@pytest.mark.parametrize("fam,t,deg", [
    (Family.G1, 1, 2), (Family.G1, 2, 2), (Family.G1, 3, 2),
    (Family.G2, 2, 2), (Family.G2, 3, 2), (Family.D4T, 1, 2),
    (Family.D4T, 2, 2), (Family.D4T, 3, 2), (Family.G1, 1, 3),
    (Family.G1, 2, 3), (Family.G2, 1, 3), (Family.G2, 2, 3),
    (Family.CYCLIC, 1, 3), (Family.CYCLIC, 2, 3), (Family.CYCLIC, 3, 3),
])
def test_reps_match_closed_forms(fam, t, deg):
    model = builtin_model(GroupSpec(fam, t), deg)
    reps = representative_cocycles(model, deg)
    expected = closed_form_rep_tensors(GroupSpec(fam, t), deg)
    assert len(reps) == len(expected)
    for (_, c), exp in zip(reps.entries, expected):
        assert (tensor_from_cochain(c).entries == exp).all()


def test_representative_degree_mismatch():
    model = builtin_model(GroupSpec(Family.G1, 1), 2)
    with pytest.raises(ValueError):
        representative_cocycles(model, 3)


def test_full_basis_counts():
    out = full_cocycle_basis(builtin_model(GroupSpec(Family.G1, 1), 3), 3, mode="all")
    assert len(out.reps) == 4 and len(out.cobs) == 11
    out = full_cocycle_basis(builtin_model(GroupSpec(Family.CYCLIC, 2), 3), 3,
                             mode="all")
    assert len(out.reps) == 1 and len(out.cobs) == 12


def test_full_basis_spans_kernel():
    for spec, n in [(GroupSpec(Family.G1, 1), 3), (GroupSpec(Family.CYCLIC, 2), 3),
                    (GroupSpec(Family.G2, 3), 2)]:
        # span ⊆ Ker d^n (cocycles); equality from independence and the
        # oracle's dim Ker d^n
        model = builtin_model(spec, n)
        out = full_cocycle_basis(model, n, mode="all")
        bf = brute_force_cohomology(model.group, n)
        for _, c in out.basis.entries:
            assert not bar_codifferential(model.group, n, c).bits.any()
        assert gf2_rank(out.basis.matrix()) == len(out.basis) == bf.ker_dim


def test_every_emitted_element_is_a_cocycle():
    for spec, n in [(GroupSpec(Family.G2, 3), 2), (GroupSpec(Family.G2, 2), 3),
                    (GroupSpec(Family.D4T, 3), 2)]:
        model = builtin_model(spec, n)
        out = full_cocycle_basis(model, n)
        g = model.group
        for _, c in out.basis.entries:
            assert not bar_codifferential(g, n, c).bits.any()


def test_reps_outside_coboundary_span():
    model = builtin_model(GroupSpec(Family.G2, 3), 2)
    out = full_cocycle_basis(model, 2, mode="all")
    cobs = out.cobs.matrix()
    for _, c in out.reps.entries:
        assert not in_row_space(cobs, c.bits)


def test_brute_force_known_dimensions():
    assert brute_force_cohomology(build_group(GroupSpec(Family.G1, 1)), 2).hdim == 3
    assert brute_force_cohomology(build_group(GroupSpec(Family.CYCLIC, 2)), 3).hdim == 1
    assert brute_force_cohomology(build_group(GroupSpec(Family.G1, 1)), 3).hdim == 4


def test_brute_force_guard():
    # packed d^3 would be 20 GB at v=40 and 4 GiB at v=32: both are refused
    # before anything of that size is allocated
    for spec in (GroupSpec(Family.CYCLIC, 20), GroupSpec(Family.G1, 8)):
        g = build_group(spec)
        tracemalloc.start()
        try:
            with pytest.raises(OracleSizeError):
                brute_force_cohomology(g, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, spec


def test_snf_ranks_match_tabulated_g2_odd():
    model = builtin_model(GroupSpec(Family.G2, 5), 2)
    out = full_cocycle_basis(model, 2)
    assert out.snf_lower.rank == 1 and out.snf_upper.rank == 2
    assert out.hdim == 3
