import json

import numpy as np
import pytest

from cocyred.reduction import Cochain
from cocyred.tensor import (SignTensor, all_ones, back_negacyclic,
                            forward_negacyclic, is_hadamard_2d,
                            is_improper_hadamard, is_proper_hadamard,
                            kronecker, section, tensor_from_cochain,
                            tensor_to_json, tensor_to_text)

P, M = 1, -1

# the two displayed order-4 improper witnesses, sections k = 1..4
WITNESS_G1 = np.array([
    [[P, P, P, P], [P, P, M, M], [P, M, P, M], [M, P, P, M]],
    [[P, P, M, M], [P, P, P, P], [P, M, M, P], [M, P, M, P]],
    [[P, M, P, M], [P, M, M, P], [P, P, P, P], [M, M, P, P]],
    [[M, P, P, M], [M, P, M, P], [M, M, P, P], [P, P, P, P]]], dtype=np.int8)

WITNESS_CYCLIC = np.array([
    [[P, P, P, P], [P, M, M, P], [M, P, M, P], [P, P, M, M]],
    [[P, P, M, M], [P, M, P, M], [M, P, P, M], [P, P, P, P]],
    [[P, M, P, M], [P, P, M, M], [M, M, M, M], [P, M, M, P]],
    [[M, P, P, M], [M, M, M, M], [P, P, M, M], [M, P, M, P]]], dtype=np.int8)


def sections_to_tensor(w):
    # displayed sections list w[k][i][j] -> entries[i, j, k]
    return SignTensor(w.shape[1], 3, np.moveaxis(w, 0, 2))


def test_back_negacyclic_smallest():
    assert (back_negacyclic(2) == [[1, 1], [1, -1]]).all()
    bn4 = back_negacyclic(4)
    assert (bn4[0] == 1).all() and (bn4[:, 0] == 1).all()
    assert bn4[3, 1] == -1 and bn4[1, 3] == -1 and bn4[2, 2] == -1
    assert bn4[1, 2] == 1


def test_forward_negacyclic_pattern():
    fn = forward_negacyclic(4)
    assert (fn[0] == 1).all() and (fn[:, 0] == 1).all()
    assert (fn[1, 1:] == -1).all()
    assert (fn[3] == [1, 1, 1, -1]).all()


def test_zero_cochain_gives_all_ones():
    t = tensor_from_cochain(Cochain(4, 2, np.zeros(16, dtype=np.uint8)))
    assert (t.entries == all_ones(4)).all()


def test_xor_is_pointwise_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.integers(0, 2, 16).astype(np.uint8)
        b = rng.integers(0, 2, 16).astype(np.uint8)
        ta = tensor_from_cochain(Cochain(4, 2, a))
        tb = tensor_from_cochain(Cochain(4, 2, b))
        tab = tensor_from_cochain(Cochain(4, 2, a ^ b))
        assert (tab.entries == ta.entries * tb.entries).all()


def test_kronecker_matches_numpy():
    a, b = back_negacyclic(2), all_ones(3)
    assert (kronecker(a, b) == np.kron(a, b)).all()


def test_is_hadamard_2d():
    assert is_hadamard_2d(SignTensor(2, 2, [[1, 1], [1, -1]]))
    assert not is_hadamard_2d(SignTensor(4, 2, all_ones(4)))
    # rows a, c of back_negacyclic(n) have dot product n - 2(c-a): only the
    # order-2 case is Hadamard
    assert not is_hadamard_2d(SignTensor(4, 2, back_negacyclic(4)))
    assert is_hadamard_2d(SignTensor(
        4, 2, kronecker(back_negacyclic(2), back_negacyclic(2))))
    with pytest.raises(ValueError):
        is_hadamard_2d(sections_to_tensor(WITNESS_G1))


def test_displayed_witnesses_improper_not_proper():
    for w in (WITNESS_G1, WITNESS_CYCLIC):
        t = sections_to_tensor(w)
        assert is_improper_hadamard(t)
        assert not is_proper_hadamard(t)


def test_all_ones_not_improper():
    assert not is_improper_hadamard(SignTensor(2, 3, all_ones(2, 3)))
    assert not is_improper_hadamard(SignTensor(4, 2, all_ones(4)))


def test_equal_hadamard_layers_are_not_improper():
    h = back_negacyclic(4)
    stacked = np.repeat(h[:, :, None], 4, axis=2)
    assert not is_improper_hadamard(SignTensor(4, 3, stacked))


def test_order2_proper_example():
    i, j, k = np.indices((2, 2, 2))
    t = SignTensor(2, 3, ((-1) ** (i * j + j * k + k * i)).astype(np.int8))
    assert is_proper_hadamard(t)
    assert is_improper_hadamard(t)


def test_proper_implies_improper_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = rng.choice([-1, 1], size=(2, 2, 2)).astype(np.int8)
        t = SignTensor(2, 3, a)
        if is_proper_hadamard(t):
            assert is_improper_hadamard(t)


def test_planar_sections_of_proper_are_hadamard():
    i, j, k = np.indices((2, 2, 2))
    t = SignTensor(2, 3, ((-1) ** (i * j + j * k + k * i)).astype(np.int8))
    for axis in range(3):
        for idx in range(2):
            plane = SignTensor(2, 2, section(t, axis, idx))
            assert is_hadamard_2d(plane)


def test_predicates_agree_for_matrices():
    rng = np.random.default_rng(3)
    seen_true = False
    for _ in range(200):
        a = rng.choice([-1, 1], size=(2, 2)).astype(np.int8)
        t = SignTensor(2, 2, a)
        h2, imp, pro = is_hadamard_2d(t), is_improper_hadamard(t), is_proper_hadamard(t)
        assert h2 == imp == pro
        seen_true |= h2
    assert seen_true


def test_sections_of_witness():
    t = sections_to_tensor(WITNESS_G1)
    secs = [section(t, 2, k) for k in range(t.v)]
    assert (secs[0] == WITNESS_G1[0]).all()
    assert (secs[3] == WITNESS_G1[3]).all()


def _assert_text_layout(t):
    """Block i of the text is the (v, v) array at the i-th fixing, in
    row-major order, of the axes after the first two; one blank line
    between blocks and one newline at the end."""
    text = tensor_to_text(t)
    assert text.endswith("\n") and not text.endswith("\n\n")
    blocks = text[:-1].split("\n\n")
    assert len(blocks) == t.v ** (t.n - 2)
    for i, block in enumerate(blocks):
        rows = [[int(x) for x in line.split(" ")] for line in block.split("\n")]
        fixed = np.unravel_index(i, (t.v,) * (t.n - 2))
        assert (np.array(rows) == t.entries[(slice(None), slice(None)) + fixed]).all()
    return blocks


def test_text_layout_3d():
    blocks = _assert_text_layout(sections_to_tensor(WITNESS_CYCLIC))
    first_block = blocks[0].splitlines()
    assert first_block[0] == "1 1 1 1"
    assert first_block[1] == "1 -1 -1 1"


def test_text_layout_2d():
    # not symmetric, so a transposed block fails
    assert len(_assert_text_layout(SignTensor(3, 2, forward_negacyclic(3)))) == 1


def test_text_layout_4d():
    rng = np.random.default_rng(4)
    _assert_text_layout(SignTensor(3, 4, rng.choice([-1, 1], size=(3,) * 4)))


def test_json_layout():
    # WITNESS_G1 reads the same in C and Fortran order; this one does not
    t = sections_to_tensor(WITNESS_CYCLIC)
    assert json.loads(tensor_to_json(t)) == {
        "v": 4, "n": 3, "entries": t.entries.ravel().tolist()}


def test_fixed_blocks_against_literals():
    from cocyred.tensor import (alternating_back_negacyclic,
                                alternating_columns,
                                half_ones_half_alternating)
    a = np.array([[1, 1, 1, 1],
                  [1, 1, 1, 1],
                  [1, -1, 1, -1],
                  [1, -1, 1, -1]], dtype=np.int8)
    assert (half_ones_half_alternating(4) == a).all()
    k2 = np.array([[1] * 8] * 4
                  + [[1, 1, -1, -1, 1, 1, -1, -1]] * 4, dtype=np.int8)
    assert (half_ones_half_alternating(8, period=2) == k2).all()
    k3 = np.array([[1] * 8] * 4
                  + [[1, -1, 1, -1, 1, -1, 1, -1]] * 4, dtype=np.int8)
    assert (half_ones_half_alternating(8, period=1) == k3).all()
    b = np.array([[1, -1, 1, -1]] * 4, dtype=np.int8)
    assert (alternating_columns(4) == b).all()
    # even 0-based rows of the alternating back negacyclic are negated
    ab = alternating_back_negacyclic(3)
    bn = back_negacyclic(3)
    assert (ab[0] == -bn[0]).all() and (ab[1] == bn[1]).all()
    assert (ab[2] == -bn[2]).all()


def test_sign_tensor_validation():
    with pytest.raises(ValueError):
        SignTensor(2, 2, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SignTensor(2, 2, np.ones((2, 3)))
