import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyred import reduction, verify
from cocyred.gf2 import (Basis, gf2_rank, greedy_independent_rows,
                         in_row_space, pack_rows, smith_normal_form_gf2)
from cocyred.groups import Family, FiniteGroup, GroupSpec, build_group
from cocyred.model import builtin_model
from cocyred.reduction import (ORACLE_BYTES, Cochain, OracleSizeError,
                               bar_codifferential, brute_force_cohomology,
                               coboundary_basis, coboundary_generator,
                               coboundary_matrix, codifferential_words,
                               count_non_cocycles, full_cocycle_basis,
                               oracle_bytes)
from cocyred.search import SearchSpace
from cocyred.verify import (closed_form_rep_tensors, product_identity_holds,
                            run_verify)
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


@pytest.mark.parametrize("spec,n", [(GroupSpec(Family.G1, 1), 3),
                                    (GroupSpec(Family.D4T, 2), 2),
                                    (GroupSpec(Family.G1, 2), 3)])
def test_count_non_cocycles_matches_referee(spec, n):
    # basis cocycles mixed with random cochains, more than one word of rows
    g = build_group(spec)
    basis = full_cocycle_basis(builtin_model(spec, n), n, mode="all").basis
    rng = np.random.default_rng(7)
    rows = np.vstack([basis.bits,
                      rng.integers(0, 2, (70, g.order ** n), dtype=np.uint8)])
    rows = rows[rng.permutation(len(rows))]
    want = sum(bool(bar_codifferential(g, n, Cochain(g.order, n, r)).bits.any())
               for r in rows)
    assert 0 < want < len(rows) and len(rows) > 64
    assert count_non_cocycles(g, n, rows) == want
    assert count_non_cocycles(g, n, basis.bits) == 0
    assert count_non_cocycles(g, n, rows[:0]) == 0
    # the batched d, unpacked, is the referee's d of every row
    words = codifferential_words(g, n, pack_rows(rows.T))
    got = np.unpackbits(words.view(np.uint8), axis=1, count=len(rows),
                        bitorder="little")
    assert len(rows) % 64
    for r, col in zip(rows, got.T):
        assert (bar_codifferential(g, n, Cochain(g.order, n, r)).bits == col).all()


def _textbook_d(g, n, f):
    """(df)(h_1..h_{n+1}) = f(h_2..h_{n+1}) + sum_j f(.., h_j h_{j+1}, ..)
    + f(h_1..h_n), one tuple at a time."""
    v = g.order
    out = np.zeros(v ** (n + 1), dtype=np.uint8)
    for flat, h in enumerate(itertools.product(range(v), repeat=n + 1)):
        terms = [h[1:], h[:-1]] + [h[:j] + (g.mul[h[j], h[j + 1]],) + h[j + 2:]
                                   for j in range(n)]
        out[flat] = sum(f[np.ravel_multi_index(t, (v,) * n)] for t in terms) % 2
    return out


@pytest.mark.parametrize("spec,n", [(GroupSpec(Family.G1, 1), 1),
                                    (GroupSpec(Family.D4T, 2), 1),
                                    (GroupSpec(Family.D4T, 2), 2),
                                    (GroupSpec(Family.CYCLIC, 3), 2),
                                    (GroupSpec(Family.D4T, 2), 3),
                                    (GroupSpec(Family.G2, 1), 3)])
def test_d_equals_tuple_formula(spec, n):
    # the non-abelian d4t cases check the order of each merged product
    g = build_group(spec)
    f = np.random.default_rng(11).integers(0, 2, g.order ** n, dtype=np.uint8)
    want = _textbook_d(g, n, f)
    assert want.any()
    assert (bar_codifferential(g, n, Cochain(g.order, n, f)).bits == want).all()
    d = coboundary_matrix(g, n + 1, "all")[0]
    assert ((f.astype(np.int64) @ d) % 2 == want).all()


def test_count_non_cocycles_peak_within_four_terms():
    spec, n = GroupSpec(Family.G1, 5), 3
    rows = full_cocycle_basis(builtin_model(spec, n), n).basis.bits[:64]
    g = build_group(spec)  # fresh: a per-group cache would count in the peak
    tracemalloc.start()
    try:
        assert count_non_cocycles(g, n, rows) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * g.order ** (n + 1) * 8


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


@pytest.mark.parametrize("rows_per_chunk", [1, 3])
def test_coboundary_matrix_rows_are_generators(monkeypatch, rows_per_chunk):
    # every row of coboundary_matrix is d(δ_T) for its label T, with chunks
    # of one row and of three rows (the last chunk is then ragged: 4, 8,
    # 16 and 64 rows are not multiples of 3)
    for spec in (GroupSpec(Family.G1, 1), GroupSpec(Family.D4T, 2),
                 GroupSpec(Family.G1, 2)):
        g = build_group(spec)
        v = g.order
        for n in (2, 3):
            width = -(-v ** n // 8)  # bytes of one row of d^(n-1)
            monkeypatch.setattr(reduction, "ORACLE_CHUNK_BYTES",
                                rows_per_chunk * width)
            every = list(range(1, v ** (n - 1) + 1))
            no_identity = [T for T in every if all(
                np.unravel_index(T - 1, (v,) * (n - 1)))]
            for mode, want in (("all", every), ("normalized", no_identity)):
                rows, labels = coboundary_matrix(g, n, mode)
                assert labels == want, (spec, n, mode)
                assert rows.shape == (len(want), v ** n)
                for row, T in zip(rows, labels):
                    assert (row == coboundary_generator(g, n, T).bits).all(), \
                        (spec, n, mode, T)


@pytest.mark.parametrize("rows_per_chunk", [1, 3])
def test_sliced_rows_are_full_rows_shifted(monkeypatch, rows_per_chunk):
    # with low > 0 each row is the full row shifted right by low, with
    # chunks of one row and of three rows of the slice (the last chunk is
    # then ragged: 4, 8, 16, 64 and 512 rows are not multiples of 3)
    cases = [(build_group(spec), n)
             for spec in (GroupSpec(Family.G1, 1), GroupSpec(Family.D4T, 2),
                          GroupSpec(Family.G1, 2))
             for n in (1, 2, 3)]
    full = [list(reduction._codifferential_rows(g, n)) for g, n in cases]
    for (g, n), rows in zip(cases, full):
        v = g.order
        cols = v ** (n + 1)
        for low in sorted({1, 7, 8, 13, cols // 2, (v - 1) * v ** n, cols - 1}):
            width = 1 + -(-(cols - low) // 8)  # the dump byte and the slice
            monkeypatch.setattr(reduction, "ORACLE_CHUNK_BYTES",
                                rows_per_chunk * width)
            got = list(reduction._codifferential_rows(g, n, low))
            assert got == [row >> low for row in rows], (g, n, low)


def test_run_verify_retains_nothing():
    spec = GroupSpec(Family.G1, 2)
    run_verify(spec, 3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_verify(spec, 3)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 14


def test_normalized_basis_g1_t1():
    g = build_group(GroupSpec(Family.G1, 1))
    basis = coboundary_basis(g, 2, mode="normalized")
    assert basis.labels == ["cob:2"]


def test_all_basis_counts():
    assert len(coboundary_basis(build_group(GroupSpec(Family.CYCLIC, 2)), 3)) == 12
    assert len(coboundary_basis(build_group(GroupSpec(Family.G1, 1)), 3)) == 11


def test_g1_t1_degree3_basis_indices():
    g = build_group(GroupSpec(Family.G1, 1))
    labels = coboundary_basis(g, 3, mode="all").labels
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
    assert gf2_rank(basis.bits) == len(basis) == bf.im_rank


@pytest.mark.parametrize("fam,t,deg", [
    (Family.G1, 1, 2), (Family.G1, 2, 2), (Family.G1, 3, 2),
    (Family.G2, 2, 2), (Family.G2, 3, 2), (Family.D4T, 1, 2),
    (Family.D4T, 2, 2), (Family.D4T, 3, 2), (Family.G1, 1, 3),
    (Family.G1, 2, 3), (Family.G2, 1, 3), (Family.G2, 2, 3),
    (Family.CYCLIC, 1, 3), (Family.CYCLIC, 2, 3), (Family.CYCLIC, 3, 3),
])
def test_reps_match_closed_forms(fam, t, deg):
    model = builtin_model(GroupSpec(fam, t), deg)
    reps = full_cocycle_basis(model, deg).reps
    expected = closed_form_rep_tensors(GroupSpec(fam, t), deg)
    assert len(reps) == len(expected)
    for (_, c), exp in zip(reps.entries, expected):
        assert (tensor_from_cochain(c).entries == exp).all()


def test_representative_degree_mismatch():
    model = builtin_model(GroupSpec(Family.G1, 1), 2)
    with pytest.raises(ValueError, match="model is for degree 2, not 3"):
        full_cocycle_basis(model, 3)


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
        assert gf2_rank(out.basis.bits) == len(out.basis) == bf.ker_dim


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
    cobs = out.cobs.bits
    for _, c in out.reps.entries:
        assert not in_row_space(cobs, c.bits)


def test_brute_force_known_dimensions():
    assert brute_force_cohomology(build_group(GroupSpec(Family.G1, 1)), 2).hdim == 3
    assert brute_force_cohomology(build_group(GroupSpec(Family.CYCLIC, 2)), 3).hdim == 1
    assert brute_force_cohomology(build_group(GroupSpec(Family.G1, 1)), 3).hdim == 4


def test_brute_force_guard():
    # the sliced d^3 needs about 640 MB at v=40 and 325 MB at v=32: both
    # are refused before anything of that size is allocated
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


@pytest.mark.parametrize("spec,n", [
    (GroupSpec(Family.G1, 1), 2), (GroupSpec(Family.D4T, 1), 2),
    (GroupSpec(Family.CYCLIC, 3), 2), (GroupSpec(Family.G1, 2), 2),
    (GroupSpec(Family.G2, 2), 2), (GroupSpec(Family.D4T, 2), 2),
    (GroupSpec(Family.CYCLIC, 4), 2), (GroupSpec(Family.CYCLIC, 1), 3),
    (GroupSpec(Family.G1, 1), 3), (GroupSpec(Family.CYCLIC, 2), 3),
    (GroupSpec(Family.CYCLIC, 3), 3),
])
def test_oracle_ranks_equal_snf_ranks(spec, n):
    # d^{n-1} and d^n unpacked from coboundary_matrix (rows d(δ_T)) and
    # ranked by the Smith form; v=8 at degree 3 is left out because its
    # Smith form of d^3 takes about 30 s
    g = build_group(spec)
    bf = brute_force_cohomology(g, n)
    d_lo, _ = coboundary_matrix(g, n, "all")
    d_hi, _ = coboundary_matrix(g, n + 1, "all")
    assert bf.im_rank == smith_normal_form_gf2(d_lo).rank
    assert bf.ker_dim == g.order ** n - smith_normal_form_gf2(d_hi).rank
    assert bf.hdim == bf.ker_dim - bf.im_rank


def test_oracle_guard_admits_v20_degree3():
    # at the full width v=20 at degree 3 fits and v=32 does not; at the
    # slice of a generating suffix, g1:6 (v=24, a=22) is admitted and g1:8
    # (v=32, a=30) is refused
    assert oracle_bytes(20, 3) <= ORACLE_BYTES < oracle_bytes(32, 3)
    assert oracle_bytes(32, 3) < oracle_bytes(40, 3)
    g6, g8 = (build_group(GroupSpec(Family.G1, t)) for t in (6, 8))
    assert reduction._generating_suffix(g6) == 22
    assert reduction._generating_suffix(g8) == 30
    assert oracle_bytes(24, 3, 22) <= ORACLE_BYTES < oracle_bytes(32, 3, 30)
    assert oracle_bytes(24, 3, 22) < oracle_bytes(24, 3)


def test_oracle_peak_within_its_estimate():
    g = build_group(GroupSpec(Family.G1, 4))
    tracemalloc.start()
    try:
        bf = brute_force_cohomology(g, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bf.hdim == 4
    assert peak < oracle_bytes(16, 3, reduction._generating_suffix(g))


def _full_rank(g, n):
    """Rank of d^n over all its columns: the slow referee of the slice."""
    basis = Basis()
    for row in reduction._codifferential_rows(g, n):
        basis.add(row)
    return len(basis)


def _closure(mul, gens):
    """The subgroup generated by `gens`, as a boolean mask: the set times
    itself until it stops growing."""
    held = np.zeros(len(mul), dtype=bool)
    held[list(gens)] = True
    while True:
        idx = np.flatnonzero(held)
        grown = held.copy()
        grown[mul[np.ix_(idx, idx)].ravel()] = True
        if (grown == held).all():
            return held
        held = grown


def _permutation_group(k):
    """S_k as FiniteGroup(None, table), in lexicographic order: the
    identity comes first."""
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return FiniteGroup(None, np.array([[index[tuple(x[i] for i in y)]
                                        for y in perms] for x in perms]))


def _relabelled(g, perm):
    """g with element i renamed p[i], p = [0] + perm (identity kept at 0)."""
    p = np.array([0] + list(perm))
    mul = np.empty_like(g.mul)
    mul[np.ix_(p, p)] = p[g.mul]
    return FiniteGroup(None, mul)


def test_generating_suffix_is_the_largest():
    groups = [build_group(GroupSpec(f, t)) for f in Family for t in range(1, 10)]
    groups += [_permutation_group(3), _permutation_group(4),
               _relabelled(build_group(GroupSpec(Family.D4T, 3)),
                           range(11, 0, -1)),
               FiniteGroup(None, np.zeros((1, 1), dtype=int))]
    for g in groups:
        v = g.order
        want = max(a for a in range(v) if _closure(g.mul, range(a, v)).all())
        assert reduction._generating_suffix(g) == want, g


@pytest.mark.parametrize("spec", [GroupSpec(f, t) for f in Family
                                  for t in (1, 2, 3)])
def test_generating_suffix_slice_keeps_the_rank(spec):
    # the columns of d^n whose first coordinate lies in a generating set
    # have the left kernel of all of d^n, so the same rank
    g = build_group(spec)
    v, a = g.order, reduction._generating_suffix(g)
    for n in (1, 2, 3):
        assert reduction._codifferential_rank(g, n, a * v ** n) == \
            _full_rank(g, n), (spec, n)


def test_slice_outside_a_generating_set_loses_rank():
    # the top two elements of g2:2 (Z_2^3) generate a subgroup of order 4:
    # their two column blocks of d^3 rank 396, not 449
    g = build_group(GroupSpec(Family.G2, 2))
    assert reduction._generating_suffix(g) == 5
    assert _full_rank(g, 3) == 449
    assert reduction._codifferential_rank(g, 3, 6 * 8 ** 3) == 396
    assert reduction._codifferential_rank(g, 3, 5 * 8 ** 3) == 449


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_slice_rank_on_relabelled_tables(data):
    spec = data.draw(st.sampled_from([GroupSpec(Family.D4T, 3),
                                      GroupSpec(Family.G2, 2)]))
    g = build_group(spec)
    h = _relabelled(g, data.draw(st.permutations(range(1, g.order))))
    v, a = h.order, reduction._generating_suffix(h)
    assert _closure(h.mul, range(a, v)).all()
    for n in (1, 2, 3):
        assert reduction._codifferential_rank(h, n, a * v ** n) == \
            _full_rank(h, n), (spec, n)
    for n in (2, 3):
        assert brute_force_cohomology(h, n) == brute_force_cohomology(g, n)


def test_snf_ranks_match_tabulated_g2_odd():
    model = builtin_model(GroupSpec(Family.G2, 5), 2)
    out = full_cocycle_basis(model, 2)
    assert out.snf_lower.rank == 1 and out.snf_upper.rank == 2
    assert out.hdim == 3


def test_reduction_stores_its_basis_once():
    spec = GroupSpec(Family.G1, 2)
    out = full_cocycle_basis(builtin_model(spec, 3), 3)
    joint = out.basis.bits
    assert len(out.reps) == out.hdim and len(out.reps) + len(out.cobs) == len(joint)
    for view in (out.reps.bits, out.cobs.bits,
                 SearchSpace.from_reduction(out).bits):
        assert np.shares_memory(view, joint)
    assert np.shares_memory(out.reps.entries[0][1].bits, joint)


@pytest.mark.parametrize("fam", (Family.G1, Family.G2))
@pytest.mark.parametrize("t", range(1, 17))
def test_product_identity_holds_and_detects_a_flipped_lift_bit(fam, t):
    # t = 2^r q covers every power-of-two factor up to 2^4
    spec = GroupSpec(fam, t)
    m = builtin_model(spec, 2)
    assert product_identity_holds(spec, m) is True
    lift = m.lift_table.copy()
    lift[-1, 0] ^= 1
    assert product_identity_holds(spec, dataclasses.replace(m, lift_table=lift)) is False


def _status(checks, name):
    return next(c.status for c in checks if c.name == name)


def test_chain_map_fails_on_a_perturbed_degree3_lift(monkeypatch):
    # g2 with t odd: d^2 maps the second basis element to the second
    # degree-3 element, so the check reads column 1 of the degree-3 lift
    spec = GroupSpec(Family.G2, 3)
    assert _status(run_verify(spec, 2), "chain-map") == "PASS"

    def perturbed(s, degree):
        m = builtin_model(s, degree)
        if degree == 3:
            lift = m.lift_table.copy()
            lift[-1, 1] ^= 1
            m = dataclasses.replace(m, lift_table=lift)
        return m

    monkeypatch.setattr(verify, "builtin_model", perturbed)
    assert _status(run_verify(spec, 2), "chain-map") == "FAIL"


def test_oracle_coboundary_span_fails_on_a_flipped_cob_bit(monkeypatch):
    spec = GroupSpec(Family.G1, 1)
    assert _status(run_verify(spec, 3), "oracle-coboundary-span") == "PASS"

    def flipped(model, n, mode=None):
        out = full_cocycle_basis(model, n, mode)
        out.cobs.bits[2, 5] ^= 1
        return out

    monkeypatch.setattr(verify, "full_cocycle_basis", flipped)
    assert _status(run_verify(spec, 3), "oracle-coboundary-span") == "FAIL"
