import random

import numpy as np
import pytest

from cocyred.gf2 import in_row_space
from cocyred.groups import Family, GroupSpec
from cocyred.model import builtin_model
from cocyred.reduction import full_cocycle_basis
from cocyred.search import (SearchSpace, SpanTooLargeError, enumerate_span,
                            tensor_of_combination)
from cocyred.tensor import (SignTensor, is_hadamard_2d, is_improper_hadamard,
                            is_proper_hadamard)

from test_tensor import WITNESS_CYCLIC, WITNESS_G1, sections_to_tensor


def space_for(fam, t, degree, mode="all"):
    out = full_cocycle_basis(builtin_model(GroupSpec(fam, t), degree), degree,
                             mode=mode)
    return SearchSpace.from_reduction(out)


def test_headline_counts_g1():
    space = space_for(Family.G1, 1, 3)
    assert space.m == 15
    report = enumerate_span(space, ("improper", "proper"))
    assert report.examined == 32768
    assert report.hits == {"improper": 64, "proper": 0}


def test_headline_counts_cyclic():
    space = space_for(Family.CYCLIC, 2, 3)
    assert space.m == 13
    report = enumerate_span(space, ("improper", "proper"))
    assert report.examined == 8192
    assert report.hits == {"improper": 32, "proper": 0}


def test_witnesses_rematerialize_and_pass():
    space = space_for(Family.CYCLIC, 2, 3)
    report = enumerate_span(space, ("improper",))
    assert len(report.witnesses) == 32
    for w in report.witnesses:
        ten = tensor_of_combination(space, w.mask)
        assert is_improper_hadamard(ten)
        assert not is_proper_hadamard(ten)


def test_displayed_combo_products():
    space = space_for(Family.G1, 1, 3)
    ten = tensor_of_combination(space, ["cob:4", "cob:7", "cob:10", "cob:13"])
    assert (ten.entries == sections_to_tensor(WITNESS_G1).entries).all()
    space = space_for(Family.CYCLIC, 2, 3)
    ten = tensor_of_combination(space, ["cob:4", "cob:7", "cob:8", "cob:9"])
    assert (ten.entries == sections_to_tensor(WITNESS_CYCLIC).entries).all()


def test_displayed_tensors_in_span_and_witness_sets():
    for fam, t, w in [(Family.G1, 1, WITNESS_G1),
                      (Family.CYCLIC, 2, WITNESS_CYCLIC)]:
        space = space_for(fam, t, 3)
        ten = sections_to_tensor(w)
        bits = ((1 - ten.flat()) // 2).astype(np.uint8)
        assert in_row_space(space.bits, bits)
        report = enumerate_span(space, ("improper",))
        masks = {wit.mask for wit in report.witnesses}
        match = [m for m in masks
                 if (space.combo_bits(m) == bits).all()]
        assert len(match) == 1


def test_empty_basis():
    space = SearchSpace(v=2, n=3, labels=[], bits=np.zeros((0, 8), dtype=np.uint8))
    report = enumerate_span(space, ("improper",))
    assert report.examined == 1
    assert report.hits["improper"] == 0


def test_gray_matches_naive_hadamard2d():
    space = space_for(Family.G1, 1, 2, mode="normalized")
    assert space.m == 4
    report = enumerate_span(space, ("hadamard2d",))
    naive = sum(is_hadamard_2d(space.combo_tensor(mask))
                for mask in range(2 ** space.m))
    assert report.hits["hadamard2d"] == naive == 6


def test_gray_matches_naive_improper():
    space = space_for(Family.CYCLIC, 1, 3)  # m = 3, v = 2
    report = enumerate_span(space, ("improper", "proper"))
    naive_imp = naive_pro = 0
    for mask in range(2 ** space.m):
        ten = space.combo_tensor(mask)
        naive_imp += is_improper_hadamard(ten)
        naive_pro += is_proper_hadamard(ten)
    assert report.hits["improper"] == naive_imp
    assert report.hits["proper"] == naive_pro


def test_gray_state_equals_from_scratch_product(monkeypatch):
    # record the incremental tensor at every step of the Gray walk and of a
    # seeded sampled walk, and compare it against the mask's from-scratch
    # product
    import cocyred.search as search_mod
    space = space_for(Family.CYCLIC, 1, 3)  # m = 3
    snapshots = []
    orig = search_mod._Tester.evaluate

    def spy(self, pm):
        snapshots.append(pm.copy())
        return orig(self, pm)

    monkeypatch.setattr(search_mod._Tester, "evaluate", spy)
    rng = random.Random(3)
    for sample_count, masks in (
            (None, [i ^ (i >> 1) for i in range(2 ** space.m)]),
            (40, [rng.getrandbits(space.m) for _ in range(40)])):
        snapshots.clear()
        enumerate_span(space, ("improper",), sample_count=sample_count, seed=3)
        assert len(snapshots) == len(masks)
        for mask, pm in zip(masks, snapshots):
            expect = 1 - 2 * space.combo_bits(mask).astype(np.int32)
            assert (pm == expect).all()


def test_sampled_hits_match_referee():
    # replay the seeded masks and count hits with the tensor.py predicates
    space = space_for(Family.G1, 1, 3)
    report = enumerate_span(space, ("improper", "proper"), sample_count=3000,
                            seed=5)
    rng = random.Random(5)
    masks = [rng.getrandbits(space.m) for _ in range(3000)]
    hits = sorted(m for m in masks
                  if is_improper_hadamard(space.combo_tensor(m)))
    assert hits and report.hits == {"improper": len(hits), "proper": 0}
    assert [w.mask for w in report.witnesses] == hits


def test_worker_independence():
    space = space_for(Family.G1, 1, 3)
    r1 = enumerate_span(space, ("improper", "proper"), workers=1)
    r4 = enumerate_span(space, ("improper", "proper"), workers=4)
    assert r1.hits == r4.hits
    assert r1.examined == r4.examined
    assert [w.mask for w in r1.witnesses] == [w.mask for w in r4.witnesses]


def test_basis_order_invariance():
    space = space_for(Family.CYCLIC, 2, 3)
    rng = np.random.default_rng(5)
    perm = rng.permutation(space.m)
    shuffled = SearchSpace(v=space.v, n=space.n,
                           labels=[space.labels[i] for i in perm],
                           bits=space.bits[perm])
    assert enumerate_span(shuffled, ("improper",)).hits["improper"] == 32


def test_witness_cap_keeps_smallest_masks():
    space = space_for(Family.CYCLIC, 2, 3)
    full = enumerate_span(space, ("improper",))
    capped = enumerate_span(space, ("improper",), max_witnesses=5)
    assert capped.hits == full.hits
    assert [w.mask for w in capped.witnesses] == \
        sorted(w.mask for w in full.witnesses)[:5]
    capped4 = enumerate_span(space, ("improper",), max_witnesses=5, workers=4)
    assert [w.mask for w in capped4.witnesses] == [w.mask for w in capped.witnesses]


def test_sampled_mode_deterministic():
    space = space_for(Family.CYCLIC, 2, 3)
    r1 = enumerate_span(space, ("improper",), sample_count=500, seed=11)
    r2 = enumerate_span(space, ("improper",), sample_count=500, seed=11)
    assert r1.examined == r2.examined == 500
    assert r1.hits == r2.hits
    assert [w.mask for w in r1.witnesses] == [w.mask for w in r2.witnesses]
    r3 = enumerate_span(space, ("improper",), sample_count=500, seed=12)
    assert [w.mask for w in r3.witnesses] != [w.mask for w in r1.witnesses]


def test_exhaustive_refusal():
    bits = np.eye(63, 64, dtype=np.uint8)
    space = SearchSpace(v=8, n=2, labels=[f"cob:{i+1}" for i in range(63)],
                        bits=bits)
    with pytest.raises(SpanTooLargeError):
        enumerate_span(space, ("hadamard2d",))
    # sampling still allowed at that size
    report = enumerate_span(space, ("hadamard2d",), sample_count=10, seed=0)
    assert report.examined == 10


def test_limit_option():
    space = space_for(Family.CYCLIC, 2, 3)
    report = enumerate_span(space, ("improper",), limit=100)
    assert report.examined == 100


def test_limit_applies_before_refusal():
    bits = np.eye(63, 64, dtype=np.uint8)
    space = SearchSpace(v=8, n=2, labels=[f"cob:{i+1}" for i in range(63)],
                        bits=bits)
    report = enumerate_span(space, ("hadamard2d",), limit=10)
    assert report.mode == "exhaustive" and report.examined == 10
    with pytest.raises(SpanTooLargeError, match="2\\^63 combinations"):
        enumerate_span(space, ("hadamard2d",))
    with pytest.raises(SpanTooLargeError):
        enumerate_span(space, ("hadamard2d",), limit=2 ** 62 + 1)


@pytest.mark.parametrize("kwargs", ({"sample_count": -5}, {"limit": -1}))
def test_negative_counts_raise(kwargs):
    space = space_for(Family.CYCLIC, 2, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_span(space, ("improper",), **kwargs)


def test_duplicate_label_raises():
    space = space_for(Family.G1, 1, 3)
    with pytest.raises(ValueError, match="'cob:4'"):
        tensor_of_combination(space, ["cob:4", "cob:4"])


def test_combo_decoding():
    space = space_for(Family.CYCLIC, 2, 3)
    mask = 0b1000000000101
    assert space.combo_labels(mask) == [space.labels[i] for i in (0, 2, 12)]
    assert (space.combo_bits(mask)
            == space.bits[0] ^ space.bits[2] ^ space.bits[12]).all()
    assert not space.combo_bits(0).any()
    for bad in (-1, 1 << space.m):
        with pytest.raises(ValueError):
            space.combo_bits(bad)


def test_unknown_label_raises():
    space = space_for(Family.CYCLIC, 2, 3)
    with pytest.raises(KeyError):
        tensor_of_combination(space, ["cob:999"])


def test_hadamard2d_requires_planar_space():
    space = space_for(Family.CYCLIC, 2, 3)
    with pytest.raises(ValueError):
        enumerate_span(space, ("hadamard2d",))


def test_empty_combo_is_all_ones():
    space = space_for(Family.G1, 1, 2)
    ten = tensor_of_combination(space, [])
    assert (ten.entries == 1).all()
