import itertools

import numpy as np
import pytest

from cocyred.gf2 import (as_bits, gf2_rank, greedy_independent_rows,
                         in_row_space, left_kernel, pack_rows,
                         smith_normal_form_gf2, unpack_rows)


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
    for rows, cols in [(1, 1), (3, 64), (5, 65), (7, 130), (2, 300)]:
        m = rand_matrix(rng, rows, cols)
        assert (unpack_rows(pack_rows(m), cols) == m).all()


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
    assert ((s.P.astype(int) @ s.Pinv.astype(int)) % 2 == np.eye(rows)).all()
    assert ((s.Q.astype(int) @ s.Qinv.astype(int)) % 2 == np.eye(cols)).all()
    canon = np.zeros_like(m)
    canon[:s.rank, :s.rank] = np.eye(s.rank, dtype=np.uint8)
    assert (s.D == canon).all()
    assert s.rank == gf2_rank(m)


@pytest.mark.parametrize("seed", range(10))
def test_row_space_equals_leading_qinv_rows(seed):
    # row space of M = span of the first `rank` rows of Q^-1, checked by
    # enumerating the full row-span of both (matrices up to 6x10)
    rng = np.random.default_rng(100 + seed)
    rows, cols = rng.integers(1, 7), rng.integers(1, 11)
    m = rand_matrix(rng, rows, cols)
    s = smith_normal_form_gf2(m)
    assert span(m) == span(s.Qinv[:s.rank])


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

