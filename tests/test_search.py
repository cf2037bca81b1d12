import dataclasses
import functools
import itertools
import random
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cocyred.search as search_mod
from cocyred.gf2 import gf2_rank, in_row_space
from cocyred.groups import Family, GroupSpec
from cocyred.model import builtin_model
from cocyred.reduction import default_mode, full_cocycle_basis
from cocyred.search import (SearchSpace, SpanTooLargeError, enumerate_span,
                            tensor_of_combination)
from cocyred.tensor import (SignTensor, is_hadamard_2d, is_improper_hadamard,
                            is_proper_hadamard, section)

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


@pytest.mark.parametrize("degree,m,improper", [(4, 6, 8), (5, 11, 88),
                                                (6, 22, 12368)])
def test_cyclic1_walks_above_degree3(degree, m, improper):
    # the n-generic kernel at n >= 4, walked through the quotient; at
    # degrees 4 and 5 the tensor.py predicates re-judge every mask
    space = space_for(Family.CYCLIC, 1, degree)
    assert space.m == m
    report = enumerate_span(space, ("improper", "proper"))
    assert report.examined == 2 ** m and report.quotient_dim > 0
    assert report.hits == {"improper": improper, "proper": 0}
    if degree <= 5:
        tensors = [space.combo_tensor(mask) for mask in range(2 ** m)]
        hits = [mask for mask, ten in enumerate(tensors)
                if is_improper_hadamard(ten)]
        assert [w.mask for w in report.witnesses] == hits
        assert not any(map(is_proper_hadamard, tensors))


def unpacked(prod, sections, length):
    """The first `length` bits of each of the `sections` packed sections of
    each row of `prod`, as (rows, sections, length) bits."""
    bits = np.unpackbits(prod.reshape(len(prod), sections, -1).view(np.uint8),
                         axis=2, bitorder="little")
    return bits[:, :, :length]


def test_gray_state_equals_from_scratch_product(monkeypatch):
    # record every head that the Gray walk and a seeded sampled walk test,
    # in walk order, and every full product: each head is s_0 ^ s_j of the
    # mask's from-scratch bits, for each pair (0, j) of the head, and the
    # walk forms the full product of exactly the masks whose head sections
    # all have L/2 ones, each equal to the mask's from-scratch product.  A
    # Gray walk forms no head from digits but one per mask from its block's
    # low table; at a small budget its blocks are a few masks each.  Each
    # space is built after its budget is patched, and its walk, with the
    # probe that picks the head, before the spies record
    default = search_mod.SCAN_BYTES
    snapshots = []
    heads = []
    orig_products = search_mod._Walk.products
    orig_passing = search_mod._Walk.passing

    def products(self, raw, table):
        prod = orig_products(self, raw, table)
        if table is self.tables:
            masks = [int.from_bytes(r.tobytes(), "little") for r in raw]
            snapshots.extend(zip(masks, self.bits(prod)))
        return prod

    def passing(self, block):
        rows = np.ascontiguousarray(block.T)
        heads.extend(unpacked(rows, self.h, self.length))
        return orig_passing(self, block)

    def spied(space, *args, **kwargs):
        """`enumerate_span` with the spies recording."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search_mod._Walk, "products", products)
            mp.setattr(search_mod._Walk, "passing", passing)
            return enumerate_span(space, *args, **kwargs)

    def survivors(space, masks, js):
        """The masks whose head sections all have L/2 ones, after checking
        that the walk tested the head of each of `masks`, in order, and
        formed the full product of exactly those."""
        assert len(heads) == len(masks)
        alive = []
        for mask, head in zip(masks, heads):
            cube = space.combo_bits(mask).reshape(space.v, -1)
            assert (head == cube[0] ^ cube[list(js)]).all()
            if (2 * head.sum(axis=1) == head.shape[1]).all():
                alive.append(mask)
        assert [mask for mask, _ in snapshots] == alive
        for mask, bits in snapshots:
            assert (bits == space.combo_bits(mask)).all()
        snapshots.clear()
        heads.clear()
        return alive

    for budget, block in ((default, 16), (0, 1)):
        monkeypatch.setattr(search_mod, "SCAN_BYTES", budget)
        space = space_for(Family.CYCLIC, 1, 4)  # m = 6, dim K = 2
        quotient = space._full_walk
        # modulo K the walk tests one head, on the pair (0, 1), per coset,
        # over the free rows: each product equals the product of its lifted
        # original mask
        assert len(quotient.free) == 4
        assert (quotient.js, quotient.block) == ((1,), block)
        free = SearchSpace(v=space.v, n=space.n,
                           labels=[space.labels[i] for i in quotient.free],
                           bits=space.bits[quotient.free])
        spied(space, ("improper",))
        alive = survivors(free, [i ^ (i >> 1) for i in range(16)], (1,))
        assert len(alive) == 6
        for mask in alive:
            lifted = quotient.expand(mask)[0]
            assert (free.combo_bits(mask) == space.combo_bits(lifted)).all()
    # without K, every mask; a budget of 0 walks blocks of one mask
    monkeypatch.setattr(search_mod, "_separable_masks", lambda space: [])
    for budget, blocks in ((default, (64, 256)), (8000, (32, 16)), (0, (1, 1))):
        monkeypatch.setattr(search_mod, "SCAN_BYTES", budget)
        # walked at v = 2 on the pair (0, 1) and at v = 8 on the head
        # (0, 3), (0, 2)
        plain = [(space_for(Family.CYCLIC, 1, 4), ("improper",), 40, (1,)),
                 (space_for(Family.G1, 2, 2, mode="normalized"),
                  ("hadamard2d",), 300, (3, 2))]
        for (space, predicates, count, js), block in zip(plain, blocks):
            walk = space._plain_walk
            assert space._full_walk is space._plain_walk
            assert (walk.js, walk.block) == (js, block)
            rng = random.Random(4)
            for sample_count, masks in (
                    (None, [i ^ (i >> 1) for i in range(2 ** space.m)]),
                    (count, [rng.getrandbits(space.m) for _ in range(count)])):
                report = spied(space, predicates, sample_count=sample_count,
                               seed=4)
                assert report.head_pairs == js
                assert 0 < len(survivors(space, masks, js)) < len(masks)


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


def test_pool_runs_at_threshold(monkeypatch):
    # the full span of g2:4 at degree 2 (m = 18) gives each of two workers
    # 2^17 = POOL_MIN_COMBOS combinations: the real pool runs and agrees
    # with one worker
    started = []

    class Pool(search_mod.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(search_mod, "ProcessPoolExecutor", Pool)
    # two CPUs on any host, so that the pool starts one process per range
    monkeypatch.setattr(search_mod.os, "cpu_count", lambda: 2)
    space = space_for(Family.G2, 4, 2, mode="normalized")
    assert 2 ** space.m // 2 == search_mod.POOL_MIN_COMBOS
    r1 = enumerate_span(space, ("hadamard2d",), workers=1)
    r2 = enumerate_span(space, ("hadamard2d",), workers=2)
    assert started == [2]
    assert r1.examined == r2.examined == 2 ** space.m
    assert r1.hits == r2.hits and r1.hits["hadamard2d"] > 0
    assert [(w.mask, w.passed) for w in r1.witnesses] == \
        [(w.mask, w.passed) for w in r2.witnesses]


def test_small_walks_run_inline(monkeypatch):
    # 2^15 combinations over 4 workers is under POOL_MIN_COMBOS each; the
    # walk, of the quotient or of a prefix, is one range, one `_scan` call
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    calls = []
    orig = search_mod._scan

    def spy(*args, **kwargs):
        calls.append(args[2].args[:2])
        return orig(*args, **kwargs)

    monkeypatch.setattr(search_mod, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(search_mod, "_scan", spy)
    space = space_for(Family.G1, 1, 3)
    report = enumerate_span(space, ("improper", "proper"), workers=4)
    assert report.hits == {"improper": 64, "proper": 0}
    report = enumerate_span(space, ("improper", "proper"), workers=4,
                            limit=20001)
    assert report.examined == 20001 and report.hits["improper"] > 0
    assert calls == [(0, 2 ** 11), (0, 20001)]


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


@pytest.mark.parametrize("kwargs", ({"sample_count": -5}, {"limit": -1},
                                    {"sample_count": 5, "seed": -1}))
def test_negative_counts_raise(kwargs):
    # Random(-s) is seeded as Random(s), so a negative seed is refused
    space = space_for(Family.CYCLIC, 2, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_span(space, ("improper",), **kwargs)


def test_duplicate_label_raises():
    space = space_for(Family.G1, 1, 3)
    with pytest.raises(ValueError, match="'cob:4'"):
        tensor_of_combination(space, ["cob:4", "cob:4"])


def test_space_rejects_equal_rows_and_bad_shapes():
    rows = np.eye(4, 8, dtype=np.uint8)
    equal = np.vstack([rows[:3], rows[1:2]])
    for bits in (equal, np.asfortranarray(equal)):
        with pytest.raises(ValueError,
                           match="^basis cochains must be pairwise distinct$"):
            SearchSpace(v=2, n=3, labels=list("abcd"), bits=bits)
    for v, n, labels in ((2, 3, "abc"), (2, 2, "abcd"), (3, 2, "abcd")):
        with pytest.raises(ValueError, match=r"^bits shape does not match "
                                             r"labels and \(v, n\)$"):
            SearchSpace(v=v, n=n, labels=list(labels), bits=rows)
    # distinct rows that share every byte but one pass
    rows[3] = rows[2]
    rows[3, 7] = 1
    assert SearchSpace(v=2, n=3, labels=list("abcd"), bits=rows).m == 4


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


# -- the bit-packed kernel against the tensor.py referees --------------------

REFEREES = {"improper": is_improper_hadamard, "proper": is_proper_hadamard,
            "hadamard2d": is_hadamard_2d}


def assert_walk_matches_referees(space, predicates):
    """Walk the whole span and compare its witnesses and counts with the
    tensor.py referees; returns their (mask, passed) hits."""
    expect = []
    for mask in range(2 ** space.m):
        ten = space.combo_tensor(mask)
        passed = [p for p in predicates if REFEREES[p](ten)]
        if passed:
            expect.append((mask, passed))
    report = enumerate_span(space, predicates, max_witnesses=2 ** space.m)
    assert [(w.mask, w.passed) for w in report.witnesses] == expect
    assert report.hits == {p: sum(p in ps for _, ps in expect)
                           for p in predicates}
    return expect


def hadamard_matrix(v):
    """A Hadamard matrix of order v (Sylvester, or Paley for 12), or None."""
    if v == 12:
        q = 11
        squares = {x * x % q for x in range(1, q)}
        s = np.zeros((12, 12), dtype=np.int64)
        s[0, 1:], s[1:, 0] = 1, -1
        for i in range(q):
            for j in range(q):
                if i != j:
                    s[1 + i, 1 + j] = 1 if (j - i) % q in squares else -1
        h = np.eye(12, dtype=np.int64) + s
    else:
        h = np.ones((1, 1), dtype=np.int64)
        while len(h) < v:
            h = np.kron(h, [[1, 1], [1, -1]])
        if len(h) != v:
            return None
    assert (h @ h.T == v * np.eye(v, dtype=np.int64)).all()
    return h


def planted_tensor(v, n, kind, rng):
    """±1 tensor of shape (v,)*n: proper ("proper", H[x,y]H[y,z]H[x,z]),
    improper only ("improper", H[x,y]H[x,z]) or random, with every axis
    permuted.  Odd v and v=10 have no Hadamard matrix and get a random one."""
    h = hadamard_matrix(v)
    if h is None or kind == "random":
        return rng.choice(np.array([-1, 1]), size=(v,) * n)
    if n == 2:
        t = h
    elif kind == "proper":
        t = h[:, :, None] * h[None, :, :] * h[:, None, :]
    else:
        t = h[:, :, None] * h[:, None, :]
    return t[np.ix_(*[rng.permutation(v) for _ in range(n)])]


def span_around(t, m, rng):
    """A space of m rows: t, one single-axis sign change per axis (which
    keep every predicate) and a random row, in that order."""
    v, n = t.shape[0], t.ndim
    rows = [(1 - t.reshape(-1)) // 2]
    for axis in range(n):
        signs = rng.integers(0, 2, size=v)
        signs[:2] = (0, 1)  # neither constant nor zero
        shape = [1] * n
        shape[axis] = v
        rows.append(np.broadcast_to(signs.reshape(shape), t.shape).reshape(-1))
    rows.append(rng.integers(0, 2, size=v ** n))
    bits = np.array(rows[:m], dtype=np.uint8)
    assume(len(np.unique(bits, axis=0)) == m)
    return SearchSpace(v=v, n=n, labels=[f"r{i}" for i in range(m)], bits=bits)


@settings(max_examples=80, deadline=None)
@given(v=st.sampled_from([3, 4, 8, 10, 12, 16]), n=st.sampled_from([2, 3]),
       kind=st.sampled_from(["proper", "improper", "random"]),
       m=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_kernel_verdicts_equal_referees(v, n, kind, m, seed, data):
    sets = [("improper", "proper"), ("proper",)]
    if n == 2:
        sets.append(("hadamard2d", "improper"))
    predicates = data.draw(st.sampled_from(sets))
    rng = np.random.default_rng(seed)
    m = min(m, n + 2)
    space = span_around(planted_tensor(v, n, kind, rng), m, rng)
    expect = assert_walk_matches_referees(space, predicates)
    if v % 2:
        assert not expect


@pytest.mark.parametrize("v,n", [(3, 2), (4, 3), (5, 3), (10, 3), (12, 2),
                                 (16, 3)])
def test_packed_sections_give_exact_dot_products(v, n):
    # v=10 at n=3 has two-word sections of 100 bits and 28 padding bits
    rng = np.random.default_rng(10 * v + n)
    pm = rng.choice(np.array([-1, 1]), size=(v,) * n)
    bits = ((1 - pm) // 2).reshape(1, -1).astype(np.uint8)
    space = SearchSpace(v=v, n=n, labels=["t"], bits=bits)
    walk = space._plain_walk
    prod = walk.products(np.array([[1]], dtype=np.uint8), walk.tables)
    assert (walk.bits(prod) == bits).all()
    # axis 0 from the packed product, the later axes from the unpacked
    # bits that the survivor pass reshapes
    sections = prod.reshape(v, walk.words)
    cube = walk.bits(prod).reshape((v,) * n)
    length = v ** (n - 1)
    for axis in range(n):
        s = np.moveaxis(pm, axis, 0).reshape(v, -1).astype(np.int64)
        gram = s @ s.T
        if axis == 0:
            ones = [[int(walk._ones(sections[i] ^ sections[j]))
                     for j in range(v)] for i in range(v)]
        else:
            rows = np.moveaxis(cube, axis, 0).reshape(v, length)
            ones = [[int((rows[i] ^ rows[j]).sum()) for j in range(v)]
                    for i in range(v)]
        assert (length - 2 * np.array(ones) == gram).all()


def test_every_sign_matrix_of_order_4():
    # the span of the 16 unit cochains is every 4x4 sign matrix; at n=2 all
    # three predicates mean HH^T = 4I, which holds for 768 of them
    space = SearchSpace(v=4, n=2, labels=[f"e{k}" for k in range(16)],
                        bits=np.eye(16, dtype=np.uint8))
    masks = np.arange(2 ** 16)
    pm = (1 - 2 * (masks[:, None] >> np.arange(16) & 1)).reshape(-1, 4, 4)
    gram = pm @ pm.transpose(0, 2, 1)
    hadamard = masks[(gram == 4 * np.eye(4, dtype=np.int64)).all(axis=(1, 2))]
    assert len(hadamard) == 768
    for predicates in (("hadamard2d", "improper"), ("improper", "proper")):
        report = enumerate_span(space, predicates)
        assert report.hits == dict.fromkeys(predicates, 768)
        assert [w.mask for w in report.witnesses] == hadamard.tolist()


def test_odd_order_never_passes():
    # every two rows differ in exactly 2 = 5 // 2 places, and none of them
    # is orthogonal to another: odd length never passes
    rows = [[0] * 5] + [[int(c in (0, k)) for c in range(5)] for k in range(1, 5)]
    space = SearchSpace(v=5, n=2, labels=["t"],
                        bits=np.array(rows, dtype=np.uint8).reshape(1, -1))
    assert not is_hadamard_2d(space.combo_tensor(1))
    assert enumerate_span(space, ("hadamard2d",)).hits == {"hadamard2d": 0}


@pytest.mark.parametrize("v,n", [(1, 2), (1, 3), (2, 2), (2, 3)])
@pytest.mark.parametrize("quotient", [True, False])
def test_smallest_orders_match_referees(monkeypatch, v, n, quotient):
    # the unit cochains span every ±1 tensor of order v; at v = 1 there is
    # no second section for the packed stages, and every mask passes
    if not quotient:
        monkeypatch.setattr(search_mod, "_separable_masks", lambda space: [])
    space = SearchSpace(v=v, n=n, labels=[f"e{i}" for i in range(v ** n)],
                        bits=np.eye(v ** n, dtype=np.uint8))
    for k in range(1, 4):
        for predicates in itertools.combinations(search_mod.PREDICATES, k):
            if "hadamard2d" in predicates and n != 2:
                continue
            expect = assert_walk_matches_referees(space, predicates)
            if v == 1:
                assert [mask for mask, _ in expect] == [0, 1]


@pytest.mark.parametrize("v,n,i,j", [pytest.param(4, 2, 1, 2, id="2"),
                                     pytest.param(4, 3, 1, 2, id="3"),
                                     pytest.param(16, 3, 5, 11, id="v16-3")])
def test_equal_sections_fail_in_the_survivor_pass(v, n, i, j):
    # Sylvester H with row j replaced by row i >= 1: along axis 0, section
    # 0 is orthogonal to every other section, so both packed stages keep
    # it, but sections i and j are equal.  At n = 3, T = H'[x0, x1]
    # H[x1, x2] has orthogonal sections along axes 1 and 2, so only the
    # packed test of the pairs (i >= 1, j) rejects it as improper.  At
    # v = 16, n = 3 a section is 4 words long.
    h = hadamard_matrix(v)
    h1 = h.copy()
    h1[j] = h1[i]
    t = h1 if n == 2 else h1[:, :, None] * h[None, :, :]

    def non_orthogonal(axis):
        s = np.moveaxis(t, axis, 0).reshape(v, -1)
        gram = s @ s.T
        return {(a, b) for a in range(v) for b in range(a + 1, v) if gram[a, b]}

    assert non_orthogonal(0) == {(i, j)}
    assert n == 2 or non_orthogonal(1) == non_orthogonal(2) == set()
    # t, a sign change of its axis-0 sections and a random row
    rows = [(1 - t.reshape(-1)) // 2,
            np.repeat(np.resize([0, 1, 1, 0], v), v ** (n - 1)),
            np.random.default_rng(n).integers(0, 2, size=v ** n)]
    space = SearchSpace(v=v, n=n, labels=["t", "s", "r"],
                        bits=np.array(rows, dtype=np.uint8))
    walk = space._plain_walk
    raw = np.array([[1]], dtype=np.uint8)
    planted = walk.products(raw, walk.tables)
    assert walk._orthogonal(planted, walk.stages[0]).tolist() == [True]
    assert walk._orthogonal(planted, walk.stages[1]).tolist() == [True]
    heads = walk.products(raw, walk.head).T
    assert walk.passing(heads).tolist() == [0]
    where, reached = walk.verdicts(heads, raw.__getitem__, len(walk.tests))
    assert not len(where) and not len(reached)
    ten = space.combo_tensor(1)
    assert not is_improper_hadamard(ten)
    assert n != 2 or not is_hadamard_2d(ten)
    sets = [("improper",), ("improper", "proper")]
    if n == 2:
        sets += [("hadamard2d",), ("hadamard2d", "improper")]
    for predicates in sets:
        expect = assert_walk_matches_referees(space, predicates)
        assert 1 not in [mask for mask, _ in expect]


def test_degree2_hadamard_walks_never_unpack(monkeypatch):
    # a degree-2 walk is decided on packed axis-0 sections alone, whatever
    # the predicate: orthogonal rows of a square ±1 matrix make its columns
    # orthogonal too
    def refuse(self, prod):
        raise AssertionError("a degree-2 walk unpacked its products")

    space = space_for(Family.D4T, 3, 2, mode="normalized")
    monkeypatch.setattr(search_mod._Walk, "bits", refuse)
    for predicates in [("hadamard2d",), ("improper", "proper"), ("proper",)]:
        expect = assert_walk_matches_referees(space, predicates)
        assert len(expect) == 72, predicates


def test_unpacked_products_have_orthogonal_axis0_sections(monkeypatch):
    # at n = 3 only the products whose axis-0 sections are pairwise
    # orthogonal, by the tensor.py Gram, are unpacked for the later axes
    space = space_for(Family.G1, 1, 3)
    unpacked = []
    orig = search_mod._Walk.bits

    def spy(self, prod):
        bits = orig(self, prod)
        unpacked.extend(bits)
        return bits

    monkeypatch.setattr(search_mod._Walk, "bits", spy)
    expect = assert_walk_matches_referees(space, ("improper", "proper"))
    assert len(expect) == 64 and unpacked
    for bits in unpacked:
        ten = SignTensor(space.v, space.n,
                         (1 - 2 * bits.astype(np.int64)).reshape((space.v,) * 3))
        s = np.array([section(ten, 0, i).reshape(-1) for i in range(space.v)])
        gram = s @ s.T
        assert (gram == s.shape[1] * np.eye(space.v, dtype=np.int64)).all()


# -- staged walks ------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(v=st.sampled_from([2, 4, 6, 8, 12, 16]), n=st.sampled_from([2, 3]),
       kind=st.sampled_from(["proper", "improper", "random"]),
       heads=st.sampled_from(["none", "all", "any"]),
       share=st.sampled_from([0.0, 0.5, 1.0]),
       budget=st.sampled_from([0, 20_000, None]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_staged_verdicts_equal_referees(v, n, kind, heads, share, budget,
                                        seed, data):
    # one batch through a walk staged on a head of 1 to 3 drawn pairs
    # (0, j), forced in place of the probe's, against the tensor.py
    # referees; in it no head section, every head section or any share of
    # them has L/2 ones.  A budget of 0 forms one full product at a time,
    # and no budget gives more full products at once than it holds.  The
    # chained head test keeps the masks whose head sections all pass
    # v = 6 has no Hadamard matrix, and its planted tensor is random
    assume(heads != "all" or kind != "random" and v != 6)
    rng = np.random.default_rng(seed)
    space = span_around(planted_tensor(v, n, kind, rng), n + 2, rng)
    js = tuple(data.draw(st.lists(st.integers(1, v - 1), min_size=1,
                                  max_size=min(3, v - 1), unique=True)))
    sets = [("improper", "proper"), ("proper",)]
    if n == 2:
        sets.append(("hadamard2d", "improper"))
    predicates = data.draw(st.sampled_from(sets))
    # rows 1..n are single-axis sign changes: with them alone the sections
    # along axis 0 are equal or opposite, and with the planted tensor, row
    # 0, they stay pairwise orthogonal
    signs = [k << 1 for k in range(2 ** n)]
    masks = {"none": signs, "all": [1 | k for k in signs],
             "any": list(range(2 ** space.m))}[heads]
    raw = np.array(masks, dtype=np.uint8)[:, None]
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(search_mod, "SCAN_BYTES", budget)
        mp.setattr(search_mod, "_probe_head", lambda walk, size: (js, share))
        walk = search_mod._Walk(space.v, space.n, space.bits, [])
    assert walk.js == js and walk.share == share
    assert budget is None or walk.full == 1 \
        or walk.full * 24 * walk.width <= budget
    heads_of = walk.products(raw, walk.head)
    head = walk._ones(heads_of.reshape(
        len(masks), len(js), walk.words)) == walk.half
    assert walk.passing(heads_of.T).tolist() == \
        np.flatnonzero(head.all(axis=1)).tolist()
    assert heads != "none" or not head.any()
    assert heads != "all" or head.all()
    # each head section by the tensor.py dot product s_0 . s_j = 0
    for k, mask in enumerate(masks):
        ten = space.combo_tensor(mask)
        s0 = section(ten, 0, 0).reshape(-1).astype(np.int64)
        assert head[k].tolist() == [s0 @ section(ten, 0, j).reshape(-1) == 0
                                    for j in js]
    # a verdict is the depth reached in the one test list: the positions
    # are the masks whose axis-0 sections are pairwise orthogonal, by the
    # tensor.py Gram, and predicate p holds iff reached >= ends[p]
    depth = max(walk.ends[p] for p in predicates)
    where, reached = walk.verdicts(heads_of.T, raw.__getitem__, depth)
    assert reached.dtype == np.int8 and len(reached) == len(where)
    assert ((0 <= reached) & (reached <= depth)).all()
    length = v ** (n - 1)
    orthogonal = []
    for k, mask in enumerate(masks):
        s = np.array([section(space.combo_tensor(mask), 0, i).reshape(-1)
                      for i in range(v)], dtype=np.int64)
        if (s @ s.T == length * np.eye(v, dtype=np.int64)).all():
            orthogonal.append(k)
    assert where.tolist() == orthogonal
    for p in predicates:
        expect = [k for k, mask in enumerate(masks)
                  if REFEREES[p](space.combo_tensor(mask))]
        assert where[reached >= walk.ends[p]].tolist() == expect
    if heads == "all" and kind == "proper":
        assert len(where) == len(masks) and (reached == depth).all()


def probe_passes(space):
    """Whether s_0 . s_j = 0, by tensor.py dot products of the sections
    along axis 0, for each draw of the probe (rows) and j = 1..v-1."""
    rng = random.Random(0)
    draws = min(search_mod.PROBE_MASKS, 2 ** space.m)
    passes = []
    for _ in range(draws):
        ten = space.combo_tensor(rng.getrandbits(space.m))
        s = np.array([section(ten, 0, k).reshape(-1)
                      for k in range(space.v)], dtype=np.int64)
        passes.append(s[0] @ s[1:].T == 0)
    return np.array(passes)


@pytest.mark.parametrize("family,t,degree,head", [
    (Family.G1, 2, 2, (3, 2)), (Family.G1, 3, 2, (5, 4, 1)),
    (Family.G1, 4, 2, (2, 4, 6)), (Family.D4T, 5, 2, (4, 2, 3)),
    (Family.G1, 1, 3, (2,)), (Family.CYCLIC, 2, 3, (2,)),
    (Family.G1, 2, 3, (4,)), (Family.CYCLIC, 5, 3, (1,)),
    (Family.G2, 2, 3, (1,)), (Family.CYCLIC, 3, 3, (3,)),
    (Family.G1, 4, 3, (9,))],
    ids=["g1:2-2", "g1:3-2", "g1:4-2", "d4t:5-2", "g1:1-3", "cyclic:2-3",
         "g1:2-3", "cyclic:5-3", "g2:2-3", "cyclic:3-3", "g1:4-3"])
def test_head_is_the_greedy_probe_choice(family, t, degree, head):
    # re-derive the head from the probe's draws: each pair is the one that
    # the fewest draws surviving the pairs before it pass, ties to the
    # smallest, and one is added only while it cuts the count of draws
    # that pass by more than draws / v.  The degree-3 spaces that the span
    # and sampled benchmarks walk, and cyclic:3 and g1:4, keep one pair,
    # the one a single-pair head had.  g1:2 at degree 2 (m = 8) has 256
    # masks and draws 256 times
    space = space_for(family, t, degree, default_mode(degree))
    passes = probe_passes(space)
    draws, v = len(passes), space.v
    assert (draws == 256) == (space.m == 8)
    alive = np.ones(draws, dtype=bool)
    for k, j in enumerate(head):
        counts = passes[alive].sum(axis=0)
        assert j == 1 + int(np.argmin(counts))
        assert k == 0 or (alive.sum() - counts[j - 1]) * v > draws
        alive &= passes[:, j - 1]
    # the next pair would not cut enough
    assert (alive.sum() - passes[alive].sum(axis=0).min()) * v <= draws
    walk = space._plain_walk
    assert (walk.js, walk.share) == (head, alive.sum() / draws)


def test_walk_staged_on_a_later_pair_equals_referees():
    # g1:3 at degree 2 is staged on the head (0, 5), (0, 4), (0, 1)
    space = space_for(Family.G1, 3, 2, mode="normalized")
    assert space._plain_walk.js == (5, 4, 1)
    expect = assert_walk_matches_referees(space, ("hadamard2d", "improper"))
    assert len(expect) == 24
    assert enumerate_span(space, ("hadamard2d",)).head_pairs == (5, 4, 1)


@pytest.mark.parametrize("v", [2, 4, 6, 8, 10])
def test_walks_are_staged_from_order_8(v):
    # every walk is staged, from order 2 on, on a head of distinct pairs;
    # the unit cochains span every v x v sign matrix
    space = SearchSpace(v=v, n=2, labels=[f"e{k}" for k in range(v * v)],
                        bits=np.eye(v * v, dtype=np.uint8))
    report = enumerate_span(space, ("hadamard2d",), sample_count=64)
    walk = space._plain_walk
    js = walk.js
    assert report.head_pairs == js
    assert len(set(js)) == len(js) and all(1 <= j < v for j in js)
    assert walk.head.shape == (len(walk.tables), walk.tables.shape[1],
                               len(js) * walk.words)


def stage_pairs(walk):
    """The pairs (i, j) of the walk's packed stages, in test order."""
    return [(int(i), int(j)) for x, y in walk.stages for i, j in zip(x, y)]


@pytest.mark.parametrize("v,js", [(2, (1,)), (4, (2,)), (4, (3, 1, 2)),
                                  (8, (6, 2, 4)), (16, (4, 2, 3)),
                                  (16, tuple(range(15, 0, -1)))])
def test_stages_test_only_the_pairs_outside_the_head(monkeypatch, v, js):
    # the head's pairs (0, j), tested on the heads, and the pairs of the
    # packed stages, tested on full products, are disjoint and together
    # every pair i < j; the first stage holds one pair (0, j) outside the
    # head, or none when the head covers every (0, j)
    monkeypatch.setattr(search_mod, "_probe_head", lambda walk, size: (js, 0.5))
    bits = np.random.default_rng(v).integers(0, 2, size=(3, v * v),
                                             dtype=np.uint8)
    walk = search_mod._Walk(v, 2, bits, [])
    staged, head = stage_pairs(walk), [(0, j) for j in js]
    assert len(walk.stages[0][1]) == min(1, v - 1 - len(js))
    assert not set(staged) & set(head) and len(set(staged)) == len(staged)
    assert sorted(staged + head) == [(i, j) for i in range(v)
                                     for j in range(i + 1, v)]


@pytest.mark.parametrize("v,n,kind", [(4, 3, "proper"), (4, 3, "improper"),
                                      (4, 2, "random"), (8, 2, "proper")])
def test_head_of_every_first_pair_equals_referees(monkeypatch, v, n, kind):
    # a head of every pair (0, j) leaves both (0, j) stages empty: they pass
    # every full product, and the pairs (i >= 1, j) decide the rest
    monkeypatch.setattr(search_mod, "_probe_head",
                        lambda walk, size: (tuple(range(1, v)), 0.5))
    space = with_indicator_rows(
        planted_tensor(v, n, kind, np.random.default_rng(v + n)))
    assert not len(space._plain_walk.stages[0][1])
    assert stage_pairs(space._plain_walk) == [
        (i, j) for i in range(1, v) for j in range(i + 1, v)]
    expect = assert_walk_matches_referees(space, ("improper", "proper"))
    assert kind == "random" or expect


# -- batch edges -------------------------------------------------------------


@pytest.mark.parametrize("budget", [0, 20_000, None])
def test_batch_edges_keep_counts_and_witnesses(monkeypatch, budget):
    # limits around and between block boundaries, at blocks of 1, of about
    # a hundred and of the default budget; the space is built after the
    # patch, so that its walks are sized at that budget.  At the default
    # budget one block holds the whole prefix walk of cyclic:2, so that
    # case walks the 2^16 masks of d4t:4 (K = 0).  Each case: the span,
    # its mode, predicates and hits, and the blocks of the prefix walk and
    # of the walk modulo K
    case, mode, predicates, hits, (block, full_block) = {
        0: ((Family.CYCLIC, 2, 3), "all", ("improper", "proper"), 32, (1, 1)),
        20_000: ((Family.CYCLIC, 2, 3), "all", ("improper", "proper"), 32,
                 (128, 128)),
        None: ((Family.D4T, 4, 2), "normalized", ("hadamard2d",), 768,
               (16384, 16384))}[budget]
    full = {w.mask: w.passed for w in enumerate_span(
        space_for(*case, mode=mode), predicates).witnesses}
    assert len(full) == hits
    if budget is not None:
        monkeypatch.setattr(search_mod, "SCAN_BYTES", budget)
    space = space_for(*case, mode=mode)
    assert space._plain_walk.block == block
    assert space._full_walk.block == full_block
    assert 3 * block + 7 < 2 ** space.m
    for limit in (1, block - 1, block + 1, 3 * block + 7, None):
        walked = 2 ** space.m if limit is None else limit
        masks = {i ^ (i >> 1) for i in range(walked)}
        expect = sorted((mask, p) for mask, p in full.items() if mask in masks)
        report = enumerate_span(space, predicates, limit=limit)
        assert report.examined == walked
        assert report.hits == {p: sum(p in ps for _, ps in expect)
                               for p in predicates}
        assert [(w.mask, w.passed) for w in report.witnesses] == expect
    assert "proper" not in predicates or not report.hits["proper"]


def with_indicator_rows(pm):
    """The span of a ±1 tensor and the single-axis indicator rows of its
    axes 1..n-1 but the last of each: every mask with the tensor gives it
    times a separable sign, which keeps every predicate."""
    v, n = len(pm), pm.ndim
    coords = np.indices(pm.shape).reshape(n, -1)
    rows = [((1 - pm.reshape(-1)) // 2).astype(np.uint8)]
    rows += [(coords[a] == i).astype(np.uint8) for a in range(1, n)
             for i in range(v - 1)]
    return SearchSpace(v=v, n=n, labels=[f"r{k}" for k in range(len(rows))],
                       bits=np.array(rows))


def test_survivor_chunks_split_batches(monkeypatch):
    # a planted proper tensor times separable rows: every mask with it is a
    # hit, so half of each batch survives axis 0, in several chunks
    space = with_indicator_rows(
        planted_tensor(4, 3, "proper", np.random.default_rng(4)))
    monkeypatch.setattr(search_mod, "SCAN_BYTES", 6000)
    predicates = ("improper", "proper")
    walk = space._plain_walk
    assert 2 < 2 * walk.chunk < walk.full
    # a prefix is walked mask by mask, not modulo the separable rows
    walked = 2 ** space.m - 1
    expect = []
    for mask in sorted(i ^ (i >> 1) for i in range(walked)):
        passed = [p for p in predicates if REFEREES[p](space.combo_tensor(mask))]
        if passed:
            expect.append((mask, passed))
    assert len(expect) == 2 ** (space.m - 1)
    report = enumerate_span(space, predicates, limit=walked, max_witnesses=128)
    assert report.hits == dict.fromkeys(predicates, len(expect))
    assert [(w.mask, w.passed) for w in report.witnesses] == expect


def test_worker_ranges_split_batches(monkeypatch):
    # two ranges, of the quotient walk and of 10000/10001 masks, none a
    # multiple of the block; without a pool the walk is one range
    monkeypatch.setattr(search_mod, "POOL_MIN_COMBOS", 1)
    space = space_for(Family.G1, 1, 3)
    block = space._plain_walk.block
    assert 10000 % block and 10001 % block
    for limit in (None, 20001):
        r1 = enumerate_span(space, ("improper", "proper"), limit=limit)
        r2 = enumerate_span(space, ("improper", "proper"), limit=limit,
                            workers=2)
        assert r1.examined == r2.examined == (limit or 2 ** 15)
        assert r1.hits == r2.hits and r1.hits["improper"] > 0
        assert [w.mask for w in r1.witnesses] == [w.mask for w in r2.witnesses]


@pytest.mark.parametrize("family,t,degree,run", [
    (Family.G1, 1, 3, {}),                       # full walk modulo K
    (Family.CYCLIC, 2, 3, {}),
    (Family.G1, 2, 3, {"limit": 2 ** 15}),       # Gray prefix, m = 59
    (Family.D4T, 4, 2, {}),
    (Family.G1, 4, 2, {}),
    (Family.CYCLIC, 5, 3, {"sample_count": 4096, "seed": 2})],  # m = 91
    ids=["g1:1-3", "cyclic:2-3", "g1:2-3-prefix", "d4t:4-2", "g1:4-2",
         "cyclic:5-3-sampled"])
def test_byte_and_nibble_tables_agree(monkeypatch, family, t, degree, run):
    # the same space walked on tables of one mask byte per digit and, with
    # the digit forced to 4 bits, of one nibble per digit: the same products
    # and heads of seeded draws, of the draws with each byte's low nibble
    # cleared, and of a run of Gray codes whose high digits are fixed, and
    # the same counts, witnesses and head at 1 and 2 workers; every witness
    # passes exactly its predicates' tensor.py tests
    monkeypatch.setattr(search_mod, "POOL_MIN_COMBOS", 1)
    predicates = ("hadamard2d",) if degree == 2 else ("improper", "proper")
    found = []
    for per in (8, 4):
        with pytest.MonkeyPatch.context() as mp:
            if per == 4:
                mp.setattr(search_mod, "_digit_bits", lambda m, width: 4)
            space = space_for(family, t, degree, default_mode(degree))
            walk = space._plain_walk if run else space._full_walk
        assert walk.tables.shape[1] == walk.head.shape[1] == 1 << per
        draws = next(search_mod._sampled_batches(random.Random(7), walk.m,
                                                 256, 256))
        gray = search_mod._gray_bytes(2 ** min(walk.m, 62) - 256,
                                      np.arange(256))
        batches = draws, draws & 240, gray
        products = [walk.products(raw, table) for raw in batches
                    for table in (walk.tables, walk.head)]
        for raw in batches:
            raw = raw[:16]
            for mask, bits in zip(search_mod._ints(raw),
                                  walk.bits(walk.products(raw, walk.tables))):
                assert (bits == space.combo_bits(walk.expand(mask)[0])).all()
        reports = [enumerate_span(space, predicates, workers=w, **run)
                   for w in (1, 2)]
        found.append((products, [
            (r.examined, r.hits, r.head_pairs, r.quotient_dim,
             [(w.mask, w.passed) for w in r.witnesses]) for r in reports]))
    (byte_products, byte_reports), (nibble_products, nibble_reports) = found
    for a, b in zip(byte_products, nibble_products):
        assert a.dtype == b.dtype and (a == b).all()
    assert byte_reports[0] == byte_reports[1] == nibble_reports[0] \
        == nibble_reports[1]
    for mask, passed in byte_reports[0][-1]:
        ten = space.combo_tensor(mask)
        assert passed == [p for p in predicates if REFEREES[p](ten)]


def test_unaligned_gray_ranges_equal_referees(monkeypatch):
    # prefixes and worker ranges that start or stop inside a block of 2^k
    # indices: their first and last blocks are cut, and every head is a
    # row of the low table XOR the head of its block's first Gray code.
    # The tensor.py referees judge every mask of each range
    predicates = ("improper", "proper")
    monkeypatch.setattr(search_mod, "SCAN_BYTES", 40_000)
    monkeypatch.setattr(search_mod, "POOL_MIN_COMBOS", 1)
    space = space_for(Family.CYCLIC, 2, 3)  # m = 13
    size = space._plain_walk.block
    assert size == 256 and 3 * size + 7 < 2 ** space.m
    passed = {}
    for i in range(2 ** space.m):
        ten = space.combo_tensor(i ^ (i >> 1))
        ps = [p for p in predicates if REFEREES[p](ten)]
        if ps:
            passed[i ^ (i >> 1)] = ps
    # two workers split 2(i - 1), for the first hit at an index i inside a
    # block, just before it, and 2^m - 1 at 2^(m-1) - 1
    inside = min(i for i in range(2 ** space.m)
                 if i ^ (i >> 1) in passed and i % size > 1)
    for limit, workers in [(1, 1), (size - 1, 1), (size + 1, 1),
                           (3 * size + 7, 1), (2 * inside - 2, 2),
                           (2 ** space.m - 1, 2)]:
        masks = [i ^ (i >> 1) for i in range(limit)]
        expect = sorted((mask, passed[mask]) for mask in masks if mask in passed)
        assert expect or limit <= size + 1
        report = enumerate_span(space, predicates, limit=limit,
                                workers=workers)
        assert report.examined == limit
        assert report.hits == {p: sum(p in ps for _, ps in expect)
                               for p in predicates}
        assert [(w.mask, w.passed) for w in report.witnesses] == expect


def test_empty_basis_sampled():
    space = SearchSpace(v=2, n=3, labels=[], bits=np.zeros((0, 8), dtype=np.uint8))
    report = enumerate_span(space, ("improper", "proper"), sample_count=5)
    assert report.examined == 5
    assert report.hits == {"improper": 0, "proper": 0}


def with_row_0(stream):
    """`stream` with row 0 added to every mask."""
    def batches(size):
        for raw in stream(size):
            raw = raw.copy()
            raw[:, 0] |= 1
            yield raw
    return batches


@pytest.mark.parametrize("family,t,degree,stream", [
    # m = 91, v = 10: byte tables of 491,520 B, the largest built-in ones
    (Family.CYCLIC, 5, 3, "sampled"),
    (Family.G1, 4, 3, "sampled"),      # m = 243, v = 16: nibble tables
    (Family.D4T, 4, 2, "gray"),        # m = 16, v = 16
    (Family.G1, 1, 3, "gray"),         # m = 15, v = 4
    pytest.param(None, 16, 3, "survivors", id="axis0-survivors"),  # m = 31
    pytest.param(None, 16, 2, "survivors", id="axis0-survivors-deg2"),  # m = 16
    pytest.param(None, 16, 3, "with-t", id="first-pair-survivors"),  # m = 31
    pytest.param(None, 16, 2, "every-head", id="every-head-pair-survivors"),
    pytest.param(None, 16, 2, "every-head-gray",
                 id="every-head-gray-block")])  # m = 16
def test_scan_stays_within_byte_budget(monkeypatch, family, t, degree, stream):
    if stream in ("survivors", "with-t", "every-head", "every-head-gray"):
        # T(x0, x1, x2) = H16[x0, x1]: every mask with T, half of all
        # masks, passes axis 0 and fails axis 2; at degree 2, T = H16 and
        # every mask with it is Hadamard.  With T added to every mask,
        # every mask passes the first pair, and every survivor chunk is
        # full.  With row 5 of H16 made row 4, every mask with T still has
        # section 0 orthogonal to every other, but no mask is a hit; on a
        # head of three pairs and a share of 6%, as degree-2 probes give,
        # every mask passes every pair of the head, 16 times the survivors
        # that the batch or block was sized for.  With T the last of the m
        # rows, the Gray codes of the indices 2^(m-1) on all hold it, and
        # every mask of every block passes the head.  The walk, and so its
        # probe or the forced head, is built inside the traced window
        h = hadamard_matrix(16)
        if stream.startswith("every-head"):
            h[5] = h[4]
        if degree == 2:
            space = with_indicator_rows(h)
            predicates = ("hadamard2d",)
        else:
            space = with_indicator_rows(np.broadcast_to(h[:, :, None], (16,) * 3))
            predicates = ("improper", "proper")
        masks = partial(search_mod._sampled_batches, random.Random(1),
                        space.m, 2048)
        if stream != "survivors":
            masks = with_row_0(masks)
        masks = partial(search_mod._digit_heads, masks)
        if stream == "every-head-gray":
            space = SearchSpace(v=space.v, n=space.n, labels=space.labels[::-1],
                                bits=space.bits[::-1])
            top = 2 ** (space.m - 1)
            masks = partial(search_mod._gray_blocks, top, top + 8192)
        if stream.startswith("every-head"):
            monkeypatch.setattr(search_mod, "_probe_head",
                                lambda kernel, size: ((1, 2, 3), 0.06))
    elif stream == "sampled":
        space = space_for(family, t, degree)
        predicates = ("improper", "proper")
        masks = partial(search_mod._digit_heads, partial(
            search_mod._sampled_batches, random.Random(1), space.m, 4096))
    else:
        space = space_for(family, t, degree)
        predicates = ("hadamard2d",) if degree == 2 else ("improper", "proper")
        masks = partial(search_mod._gray_blocks, 0, 8192)
    tracemalloc.start()
    try:
        examined, counts, _ = search_mod._scan(space._plain_walk, predicates,
                                               masks, 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert examined in (2048, 4096, 8192)
    assert not stream.startswith("every-head") or counts == {"hadamard2d": 0}
    assert peak < search_mod.SCAN_BYTES


# -- sampled witnesses -------------------------------------------------------


def test_sampled_witnesses_are_distinct_masks():
    # seed 1 draws one hit mask twice: it counts twice, it is kept once
    space = space_for(Family.G1, 1, 3)
    report = enumerate_span(space, ("improper", "proper"), sample_count=4096,
                            seed=1)
    rng = random.Random(1)
    draws = [rng.getrandbits(space.m) for _ in range(4096)]
    hit_draws = [m for m in draws if is_improper_hadamard(space.combo_tensor(m))]
    assert report.hits == {"improper": len(hit_draws), "proper": 0}
    assert len(hit_draws) == 6
    assert [w.mask for w in report.witnesses] == sorted(set(hit_draws))
    assert len(report.witnesses) == 5


@pytest.mark.parametrize("m", [0, 1, 5, 31, 32, 33, 63, 64, 65, 91, 96, 243])
def test_sampled_stream_equals_per_draw_referee(m):
    # one getrandbits call per batch gives the bytes of the per-draw
    # getrandbits(m) referee and leaves the generator in its state
    rng, referee = random.Random(m), random.Random(m)
    batches = list(search_mod._sampled_batches(rng, m, 1000, 64))
    assert [len(raw) for raw in batches] == [64] * 15 + [40]
    rows = [row.tobytes() for raw in batches for row in raw]
    width = (m + 7) // 8
    assert rows == [referee.getrandbits(m).to_bytes(width, "little")
                    for _ in range(1000)]
    assert rng.getstate() == referee.getstate()


def test_sampled_witnesses_above_bit_63():
    # 64 distinct separable rows under g1:1's 15 rows (m = 79): a mask is a
    # hit iff its top 15 bits are a g1:1 hit, so every hit has bits above 63
    top = space_for(Family.G1, 1, 3)
    f = np.random.default_rng(0).integers(0, 2, size=(400, 3, 4), dtype=np.uint8)
    separable = (f[:, 0, :, None, None] ^ f[:, 1, None, :, None]
                 ^ f[:, 2, None, None, :]).reshape(400, 64)
    low = [row for row in np.unique(separable, axis=0)
           if row.any() and not (row == top.bits).all(axis=1).any()][:64]
    assert len(low) == 64
    space = SearchSpace(v=4, n=3, labels=[f"s{i}" for i in range(64)] + top.labels,
                        bits=np.vstack(low + [top.bits]))
    predicates = ("improper", "proper")
    rng = random.Random(2)
    draws = [rng.getrandbits(space.m) for _ in range(8192)]
    hits = [x for x in draws if is_improper_hadamard(space.combo_tensor(x))]
    assert len(hits) > 5 and min(hits) >> 64
    assert not any(is_proper_hadamard(space.combo_tensor(x)) for x in hits)
    for cap in (1024, 3):
        report = enumerate_span(space, predicates, sample_count=8192, seed=2,
                                max_witnesses=cap)
        assert report.hits == {"improper": len(hits), "proper": 0}
        assert [(w.mask, w.passed) for w in report.witnesses] == \
            [(x, ["improper"]) for x in sorted(set(hits))[:cap]]


def test_scan_keeps_the_smallest_distinct_hits():
    # a hand-made stream over a span in which a mask is a hit iff it holds
    # row 0.  The first batch holds 20 hits 4 apart, largest first, the
    # largest twice, and a miss: at caps below 11 the dict is cut after it.
    # The second offers cut masks again, above the bound, a miss and hits
    # below the bound, 57 among the masks kept at cap 6; the third 10 hits
    # about the bounds and the two smallest, each twice.  The first batch
    # alone ends on the masks a cut keeps
    space = with_indicator_rows(
        planted_tensor(4, 3, "proper", np.random.default_rng(4)))
    predicates = ("improper", "proper")
    passed = {x: tuple(p for p in predicates
                       if REFEREES[p](space.combo_tensor(x)))
              for x in range(2 ** space.m)}
    hits = [x for x, ps in passed.items() if ps]
    assert hits == list(range(1, 2 ** space.m, 2))
    assert all(passed[x] == predicates for x in hits)
    batches = [hits[63:23:-2] + [127, 126],
               [127, 123, 2, 57, 81, 11],
               hits[40:30:-1] + hits[:2] + hits[:2]]
    for walked in (batches[:1], batches):
        drawn = [x for b in walked for x in b if passed[x]]
        stream = partial(search_mod._digit_heads, lambda size: (
            np.array(b, dtype=np.uint8)[:, None] for b in walked))
        for cap in (0, 1, 2, 3, 6, 9, 100):
            examined, counts, kept = search_mod._scan(
                space._plain_walk, predicates, stream, cap)
            assert examined == sum(map(len, walked))
            assert counts == dict.fromkeys(predicates, len(drawn))
            assert kept == [(x, predicates) for x in sorted(set(drawn))[:cap]]


@pytest.mark.parametrize("kwargs", [{}, {"limit": 1000},
                                    {"sample_count": 300, "seed": 2}])
def test_no_predicates_walks_and_finds_nothing(kwargs):
    # an empty predicate list walks the span, or the prefix or the draws,
    # and counts and keeps nothing
    space = space_for(Family.G1, 1, 3)
    report = enumerate_span(space, (), **kwargs)
    assert report.examined == kwargs.get("limit", kwargs.get("sample_count",
                                                             2 ** space.m))
    assert report.hits == {} and report.witnesses == []


@pytest.mark.parametrize("predicates", [("improper", "improper"),
                                        ("hadamard2d", "improper", "hadamard2d")])
def test_repeated_predicate_raises(predicates):
    # a repeated name would count its hits twice
    space = space_for(Family.G1, 1, len(predicates))
    with pytest.raises(ValueError, match="more than once"):
        enumerate_span(space, predicates)


@pytest.mark.parametrize("workers,cpus,procs", [(10000, 4096, 127),
                                                (10000, 3, 3), (10000, None, 1),
                                                (5, 4096, 5)])
def test_pool_starts_at_most_ranges_and_cpus(monkeypatch, workers, cpus, procs):
    # a pool forks all its processes at its first task, so it starts no more
    # than the ranges, the CPUs or the workers asked for.  A fake pool maps
    # the ranges inline; no process is started.  The ranges stay as the
    # worker count makes them, so the results equal those of one worker
    space = with_indicator_rows(
        planted_tensor(4, 3, "proper", np.random.default_rng(4)))
    limit = 2 ** space.m - 1
    want = fingerprint(enumerate_span(space, ("improper",), limit=limit,
                                      max_witnesses=5))
    started, ranges = [], []

    class Pool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            ranges.append(len(args))
            return [fn(a) for a in args]

    monkeypatch.setattr(search_mod, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(search_mod, "POOL_MIN_COMBOS", 0)
    monkeypatch.setattr(search_mod.os, "cpu_count", lambda: cpus)
    got = enumerate_span(space, ("improper",), limit=limit, max_witnesses=5,
                         workers=workers)
    assert started == [procs]
    assert ranges == [min(limit, 1 << (workers - 1).bit_length())]
    assert fingerprint(got) == want


# -- the walk modulo separable sign changes ----------------------------------

# (family, t, degree, mode, dim K)
QUOTIENT_CASES = [(Family.G1, 1, 3, "all", 4), (Family.CYCLIC, 2, 3, "all", 2),
                  (Family.G2, 1, 3, "all", 4), (Family.CYCLIC, 1, 3, "all", 2),
                  (Family.G1, 3, 2, "all", 1), (Family.D4T, 4, 2, "all", 1),
                  (Family.G2, 4, 2, "all", 1)]


def fingerprint(report):
    return (report.examined, report.hits,
            [(w.mask, w.passed) for w in report.witnesses])


def quotient_runs(m):
    """(limit, max_witnesses) of each walk: prefixes one short of the span
    (d = 0) and full walks (d = dim K), with a small witness cap."""
    return [(2 ** m - 1, 3), (2 ** m, 3), (None, 3), (None, 1024)]


@functools.cache
def plain_walks(family, t, degree, mode, predicates):
    """Fingerprints of the quotient runs with the K builder patched away,
    so that every mask is walked."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_mod, "_separable_masks", lambda space: [])
        space = space_for(family, t, degree, mode)
        reports = [enumerate_span(space, predicates, limit=limit,
                                  max_witnesses=cap)
                   for limit, cap in quotient_runs(space.m)]
    assert all(r.quotient_dim == 0 for r in reports)
    return [fingerprint(r) for r in reports]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("family,t,degree,mode,dim", QUOTIENT_CASES)
def test_quotient_walk_equals_plain_walk(monkeypatch, family, t, degree, mode,
                                         dim, workers):
    # the full enumeration is the referee of the quotient: with and without
    # K the counts and the retained witnesses must be identical
    predicates = ("hadamard2d",) if degree == 2 else ("improper", "proper")
    want = plain_walks(family, t, degree, mode, predicates)
    space = space_for(family, t, degree, mode)
    started = []

    class Pool(search_mod.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(search_mod, "ProcessPoolExecutor", Pool)
    # two CPUs on any host, so that the pool starts one process per range
    monkeypatch.setattr(search_mod.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(search_mod, "POOL_MIN_COMBOS", 1)
    runs = quotient_runs(space.m)
    got = [enumerate_span(space, predicates, workers=workers, limit=limit,
                          max_witnesses=cap) for limit, cap in runs]
    assert [r.quotient_dim for r in got] == [0, dim, dim, dim]
    assert started == [2] * len(runs) * (workers == 2)
    assert [fingerprint(r) for r in got] == want
    assert got[-1].hits[predicates[0]] > 0 or space.v == 2  # cyclic:1 has none


def test_each_walk_kind_builds_one_kernel(monkeypatch):
    # repeated full, prefix and sampled walks of one space build two
    # walks, the walk modulo K over the free rows and the plain walk, and
    # probe each once; a two-worker walk sends its workers the walk that
    # the parent holds and builds none there
    built, probes, started = [], [], []
    init, probe = search_mod._Walk.__init__, search_mod._probe_head

    def spy_init(self, v, n, bits, kernel_rows):
        built.append(len(bits) - len(kernel_rows))
        init(self, v, n, bits, kernel_rows)

    def spy_probe(walk, size):
        probes.append(walk.m)
        return probe(walk, size)

    class Pool(search_mod.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(search_mod._Walk, "__init__", spy_init)
    monkeypatch.setattr(search_mod, "_probe_head", spy_probe)
    monkeypatch.setattr(search_mod, "ProcessPoolExecutor", Pool)
    # two CPUs on any host, so that the pool starts one process per range
    monkeypatch.setattr(search_mod.os, "cpu_count", lambda: 2)
    space = space_for(Family.G1, 1, 3)  # m = 15, dim K = 4
    predicates = ("improper", "proper")
    walks = [{}, {"limit": 20001}, {"sample_count": 500, "seed": 3}]
    inline = [[fingerprint(enumerate_span(space, predicates, **kw))
               for kw in walks] for _ in range(2)]
    assert inline[0] == inline[1]
    assert built == probes == [11, 15]
    monkeypatch.setattr(search_mod, "POOL_MIN_COMBOS", 1)
    pooled = [fingerprint(enumerate_span(space, predicates, workers=2, **kw))
              for kw in walks[:2]]
    assert started == [2, 2] and built == [11, 15]
    assert pooled == inline[0][:2]


def separable_row(v, n, rng):
    """sum over the axes a of f_a(x_a), for random f_a: (Z_v) -> GF(2)."""
    coords = np.indices((v,) * n)
    f = rng.integers(0, 2, size=(n, v))
    return sum(f[a][coords[a]] for a in range(n)).reshape(-1) % 2


def is_separable(bits, v, n):
    """f is separable iff f(x) = sum_a f(x_a e_a) + (n - 1) f(0) for all x."""
    f = bits.reshape((v,) * n).astype(np.int64)
    coords = np.indices((v,) * n)
    zero = (0,) * n
    axis_parts = sum(f[tuple(coords[a] if b == a else 0 for b in range(n))]
                     for a in range(n))
    return bool(((f - axis_parts - (n - 1) * f[zero]) % 2 == 0).all())


@settings(max_examples=60, deadline=None)
@given(v=st.sampled_from([2, 4, 8]), n=st.sampled_from([2, 3]),
       kind=st.sampled_from(["proper", "improper", "random"]),
       separable=st.integers(1, 3), extra=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_quotient_walk_equals_referee(v, n, kind, separable, extra, seed):
    # planted spans with separable rows, so dim K >= 1, against a tensor.py
    # enumeration of every mask
    rng = np.random.default_rng(seed)
    rows = [(1 - planted_tensor(v, n, kind, rng).reshape(-1)) // 2]
    rows += [separable_row(v, n, rng) for _ in range(separable)]
    rows += [rng.integers(0, 2, size=v ** n) for _ in range(extra)]
    bits = np.array(rng.permutation(rows), dtype=np.uint8)
    m = len(bits)
    assume(len(np.unique(bits, axis=0)) == m and bits.any(axis=1).all())
    space = SearchSpace(v=v, n=n, labels=[f"r{i}" for i in range(m)],
                        bits=bits)
    assert space._full_walk.dim >= 1
    predicates = ("improper", "proper")
    expect = []
    for mask in range(2 ** m):
        ten = space.combo_tensor(mask)
        passed = [p for p in predicates if REFEREES[p](ten)]
        if passed:
            expect.append((mask, passed))
    for cap in (2 ** m, 2):
        report = enumerate_span(space, predicates, max_witnesses=cap)
        assert report.quotient_dim == space._full_walk.dim
        assert report.examined == 2 ** m
        assert [(w.mask, w.passed) for w in report.witnesses] == expect[:cap]
        assert report.hits == {p: sum(p in ps for _, ps in expect)
                               for p in predicates}


@pytest.mark.parametrize("family,t,degree,mode,dim", QUOTIENT_CASES + [
    (Family.D4T, 4, 2, "normalized", 0), (Family.G2, 2, 3, "all", 6),
    (Family.G1, 4, 3, "all", 4), (Family.CYCLIC, 1, 6, "all", 3)])
def test_separable_masks_span_k(family, t, degree, mode, dim):
    # d = dim(span(B) ∩ span(S)) for independent basis rows B and the
    # single-axis indicator rows S, and every mask of K is separable
    space = space_for(family, t, degree, mode)
    rows = search_mod._separable_masks(space)
    v, n = space.v, space.n
    coords = np.indices((v,) * n).reshape(n, 1, -1)
    single = (coords == np.arange(v)[:, None]).reshape(n * v, -1)
    single = single.astype(np.uint8)
    expect = (gf2_rank(space.bits) + gf2_rank(single)
              - gf2_rank(np.vstack([space.bits, single])))
    assert gf2_rank(space.bits) == space.m
    assert len(rows) == expect == dim
    # echelon form with exclusive pivots: no row holds another's top bit
    pivots = [x.bit_length() - 1 for x in rows]
    assert len(set(pivots)) == len(rows)
    for x in rows:
        assert [p for p in pivots if x >> p & 1] == [x.bit_length() - 1]
    coset = space._full_walk.coset
    assert len(set(coset)) == 2 ** len(rows)
    for mask in coset:
        assert is_separable(space.combo_bits(mask), v, n)
    # a separable row alone would be in K, with its own index as pivot
    for i in space._full_walk.free:
        assert not is_separable(space.bits[i], v, n)


def test_empty_reduction_has_no_search_space():
    out = full_cocycle_basis(builtin_model(GroupSpec(Family.G1, 1), 2), 2)
    empty = dataclasses.replace(out, basis=out.basis[:0], hdim=0)
    with pytest.raises(ValueError, match="^empty basis has no search space; "
                                         "pass v and n explicitly$"):
        SearchSpace.from_reduction(empty)
