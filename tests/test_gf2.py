import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyred.gf2 import (as_bits, bit_rows, gf2_rank, greedy_independent_rows,
                         in_row_space, int_rows, left_kernel, pack_rows,
                         smith_normal_form_gf2, tagged_kernel)


def rand_matrix(rng, rows, cols):
    return rng.integers(0, 2, size=(rows, cols)).astype(np.uint8)


def span(mat):
    """Every GF(2) combination of the rows, as a set of byte strings."""
    vecs = set()
    for picks in itertools.product((0, 1), repeat=mat.shape[0]):
        acc = np.zeros(mat.shape[1], dtype=np.uint8)
        for p, row in zip(picks, mat):
            if p:
                acc ^= row
        vecs.add(acc.tobytes())
    return vecs


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(0)
    for rows, cols in [(1, 1), (3, 64), (5, 65), (7, 130), (2, 300), (0, 70),
                       (3, 0)]:
        m = rand_matrix(rng, rows, cols)
        words = pack_rows(m)
        assert words.shape == (rows, max(1, -(-cols // 64)))
        assert (bit_rows(int_rows(words), cols) == m).all()


def test_as_bits_rejects_bad_entries():
    with pytest.raises(ValueError):
        as_bits(np.array([[0, 2]]))
    with pytest.raises(ValueError):
        as_bits(np.zeros(3))


def test_greedy_zero_matrix():
    sel, rank = greedy_independent_rows(np.zeros((4, 5), dtype=np.uint8))
    assert sel == [] and rank == 0


def test_greedy_identity():
    sel, rank = greedy_independent_rows(np.eye(3, dtype=np.uint8))
    assert sel == [0, 1, 2] and rank == 3


def test_greedy_dependent_rows():
    m = np.array([[1, 1], [1, 1], [0, 1]], dtype=np.uint8)
    sel, rank = greedy_independent_rows(m)
    assert sel == [0, 2] and rank == 2


def test_greedy_is_lexicographically_first():
    # brute force over all subsets, independent iff its span has 2^size
    # elements: the greedy result must be the lexicographically smallest
    # maximal independent index set
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = rand_matrix(rng, 5, 4)
        sel, rank = greedy_independent_rows(m)
        best = None
        for size in range(5, -1, -1):
            candidates = [c for c in itertools.combinations(range(5), size)
                          if len(span(m[list(c)])) == 2 ** size]
            if candidates:
                best = min(candidates)
                break
        assert tuple(sel) == best
        assert rank == len(best) == gf2_rank(m)


def snf_selection(m):
    """Rows i with rank(m[:i+1]) > rank(m[:i]), ranks from the Smith form.

    Prefix ranks rise by at most 1 per row, never at a zero row, and never
    fall.  So among the nonzero rows, an interval of prefixes whose end
    ranks agree holds no rise, and one whose ranks differ by its length
    rises at every row; bisecting the others finds every rise with far
    fewer Smith forms than one per row.
    """
    nonzero = np.flatnonzero(m.any(axis=1))

    def rank(i):
        return smith_normal_form_gf2(m[nonzero[:i]]).rank

    def rises(lo, hi, rlo, rhi):
        if rhi - rlo in (0, hi - lo):
            return list(nonzero[lo:hi]) if rhi > rlo else []
        mid = (lo + hi) // 2
        rmid = rank(mid)
        return rises(lo, mid, rlo, rmid) + rises(mid, hi, rmid, rhi)

    total = rank(len(nonzero))
    return rises(0, len(nonzero), 0, total), total


def test_greedy_equals_snf_prefix_ranks():
    # row i is kept iff the Smith-form rank of the prefix m[:i+1] exceeds
    # that of m[:i], on tall and wide matrices with zero and repeated rows
    rng = np.random.default_rng(7)
    for k in range(200):
        short, long = int(rng.integers(1, 40)), int(rng.integers(40, 200))
        rows, cols = (long, short) if k % 2 else (short, long)
        sparsity = int(rng.integers(1, 8))  # about one entry in `sparsity`
        m = (rng.integers(0, sparsity, size=(rows, cols)) == 0).astype(np.uint8)
        m[rng.integers(0, rows, size=rows // 4)] = 0  # some zero rows
        m = np.vstack([m, m[rng.integers(0, rows, size=3)]])  # repeats
        sel, rank = greedy_independent_rows(m)
        want, total = snf_selection(m)
        assert sel == want
        assert rank == len(sel) == total == gf2_rank(m)


@st.composite
def gf2_matrices(draw):
    """Random 0/1 matrices whose widths straddle 64-bit word boundaries,
    with zero rows, repeated rows and empty shapes."""
    rows = draw(st.integers(0, 24))
    cols = draw(st.sampled_from([0, 1, 2, 31, 63, 64, 65, 127, 128, 129, 191, 200]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sparsity = draw(st.integers(1, 12))
    m = (rng.integers(0, sparsity, size=(rows, cols)) == 0).astype(np.uint8)
    if rows:
        m[draw(st.lists(st.integers(0, rows - 1), max_size=4))] = 0
        repeats = draw(st.lists(st.integers(0, rows - 1), max_size=4))
        m = np.vstack([m, m[repeats]]) if repeats else m
    order = draw(st.permutations(range(m.shape[0])))
    return m[list(order)]


@settings(max_examples=150, deadline=None)
@given(m=gf2_matrices())
def test_rank_equals_snf_rank(m):
    assert gf2_rank(m) == smith_normal_form_gf2(m).rank
    sel, rank = greedy_independent_rows(m)
    assert rank == len(sel) == smith_normal_form_gf2(m[sel]).rank


@settings(max_examples=150, deadline=None)
@given(m=gf2_matrices(), data=st.data())
def test_in_row_space_random_shapes(m, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    picks = rng.integers(0, 2, size=m.shape[0]).astype(np.uint8)
    x = (picks.astype(int) @ m.astype(int) % 2).astype(np.uint8)
    assert in_row_space(m, x)
    y = x ^ rng.integers(0, 2, size=m.shape[1]).astype(np.uint8)
    inside = (smith_normal_form_gf2(np.vstack([m, y])).rank
              == smith_normal_form_gf2(m).rank)
    assert in_row_space(m, y) == inside


@settings(max_examples=150, deadline=None)
@given(m=gf2_matrices())
def test_left_kernel_random_shapes(m):
    rank, ker = left_kernel(m)
    assert rank == smith_normal_form_gf2(m).rank
    assert ker.shape == (m.shape[0] - rank, m.shape[0])
    assert not ((ker.astype(int) @ m.astype(int)) % 2).any()
    assert smith_normal_form_gf2(ker).rank == ker.shape[0]


def test_snf_zero_matrix():
    s = smith_normal_form_gf2(np.zeros((3, 4), dtype=np.uint8))
    assert s.rank == 0
    assert (s.D == 0).all()
    assert (s.P == np.eye(3)).all() and (s.Q == np.eye(4)).all()


def test_snf_identity():
    s = smith_normal_form_gf2(np.eye(3, dtype=np.uint8))
    assert s.rank == 3 and (s.D == np.eye(3)).all()


def test_snf_single_entry_matrix():
    # a 3x6 matrix whose only 1 sits at (0,0) is already in normal form
    m = np.zeros((3, 6), dtype=np.uint8)
    m[0, 0] = 1
    s = smith_normal_form_gf2(m)
    assert s.rank == 1 and (s.D == m).all()


@pytest.mark.parametrize("seed", range(20))
def test_snf_random_properties(seed):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(1, 9), rng.integers(1, 13)
    m = rand_matrix(rng, rows, cols)
    s = smith_normal_form_gf2(m)
    assert ((s.P.astype(int) @ m.astype(int) @ s.Q.astype(int)) % 2 == s.D).all()
    assert gf2_rank(s.P) == rows
    assert gf2_rank(s.Q) == cols
    canon = np.zeros_like(m)
    canon[:s.rank, :s.rank] = np.eye(s.rank, dtype=np.uint8)
    assert (s.D == canon).all()
    assert s.rank == gf2_rank(m)


@pytest.mark.parametrize("seed", range(10))
def test_row_space_equals_leading_qinv_rows(seed):
    # row space of M = span of the first `rank` rows of Q^-1, checked by
    # enumerating the full row-span of both (matrices up to 6x10); those
    # rows are the leading rows of P·M = D·Q^-1, whose other rows are zero
    rng = np.random.default_rng(100 + seed)
    rows, cols = rng.integers(1, 7), rng.integers(1, 11)
    m = rand_matrix(rng, rows, cols)
    s = smith_normal_form_gf2(m)
    pm = ((s.P.astype(int) @ m.astype(int)) % 2).astype(np.uint8)
    assert not pm[s.rank:].any()
    assert span(m) == span(pm[:s.rank])


def test_in_row_space_trivial_cases():
    assert in_row_space([], np.zeros(3, dtype=np.uint8))
    basis = np.array([[1, 1, 0]], dtype=np.uint8)
    assert in_row_space(basis, np.array([1, 1, 0], dtype=np.uint8))
    assert not in_row_space(basis, np.array([1, 0, 0], dtype=np.uint8))


def test_in_row_space_length_mismatch():
    with pytest.raises(ValueError):
        in_row_space(np.eye(2, dtype=np.uint8), np.zeros(3, dtype=np.uint8))


def test_in_row_space_random_combinations():
    rng = np.random.default_rng(7)
    for _ in range(50):
        basis = rand_matrix(rng, rng.integers(1, 6), 12)
        picks = rng.integers(0, 2, size=basis.shape[0])
        x = np.zeros(12, dtype=np.uint8)
        for p, row in zip(picks, basis):
            if p:
                x ^= row
        assert in_row_space(basis, x)


def test_left_kernel_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = rand_matrix(rng, rng.integers(1, 9), rng.integers(1, 15))
        rank, ker = left_kernel(m)
        assert rank == gf2_rank(m) == smith_normal_form_gf2(m).rank
        assert ker.shape[0] == m.shape[0] - rank
        if ker.size:
            assert not ((ker.astype(int) @ m.astype(int)) % 2).any()
            assert gf2_rank(ker) == ker.shape[0]



def test_tagged_kernel_with_a_seed():
    # each kept vector names rows of M, its own index the highest, whose XOR
    # lies in the row space of S: dim {x : x @ M in span S} of them
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = rand_matrix(rng, rng.integers(1, 9), rng.integers(1, 12))
        s = rand_matrix(rng, rng.integers(0, 4), m.shape[1])
        k = len(m)
        kept = tagged_kernel(int_rows(pack_rows(m)),
                             [x << k for x in int_rows(pack_rows(s))])
        assert len(kept) == k + gf2_rank(s) - gf2_rank(np.vstack([m, s]))
        # exclusive pivots: no kept vector holds another's top bit
        tops = [x.bit_length() - 1 for x in kept]
        assert tops == sorted(set(tops))
        assert all([t for t in tops if x >> t & 1] == [x.bit_length() - 1]
                   for x in kept)
        for x in bit_rows(kept, k):
            assert in_row_space(s, (x.astype(int) @ m) % 2)
