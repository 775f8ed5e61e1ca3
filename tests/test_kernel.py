"""The numpy pair-counting kernel against scalar reference loops.

Every reference here is written with the scalar group arithmetic only
(``mul`` and ``inv``), so it shares no code with ``diff_array`` or
``difference_counts``.  The streamed profile's classification is checked
against the dense reference in ``helpers`` at many block and chunk sizes.
"""
import random
import tracemalloc
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwedf import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    DisjointFamily,
    ElementaryAbelianGroup,
    HeisenbergGroup,
    check_difference_set,
    check_rwedf,
    check_wedf,
    classify,
    closure,
    difference_profile,
    e_delta,
    e_hat,
    internal_differences,
    nonzero_singletons,
    play,
    weighted_sum,
)
from rwedf.classify import rwedf_failure_witness
from rwedf import groups
from rwedf.constructions import f21_group
from rwedf.groups import difference_count_blocks, is_subgroup
from rwedf.simulate import _Board

from helpers import all_fixtures, bimodal_z12, reference_classification
from helpers import reference_counts as ref_counts

KERNEL_POOL = [
    CyclicGroup(1),
    CyclicGroup(2),
    CyclicGroup(9),
    CyclicGroup(16),
    ElementaryAbelianGroup(2, 4),
    ElementaryAbelianGroup(3, 2),
    ElementaryAbelianGroup(5, 2),
    DihedralGroup(1),
    DihedralGroup(4),
    DihedralGroup(7),
    HeisenbergGroup(2),
    HeisenbergGroup(3),
    DirectProductGroup(CyclicGroup(3), DihedralGroup(3)),
    DirectProductGroup(
        DirectProductGroup(CyclicGroup(2), HeisenbergGroup(2)), ElementaryAbelianGroup(3, 1)
    ),
    DirectProductGroup(f21_group(), CyclicGroup(2)),
    f21_group(),
]


def ref_diff(g, a, b):
    return g.mul(a, g.inv(b))


def ref_self_counts(g, members):
    counts = [0] * g.order
    for a in members:
        for b in members:
            if a != b:
                counts[ref_diff(g, a, b)] += 1
    return counts


def ref_weighted_sums(family, weights):
    """sum_i w_i * N_i(delta) per delta = 1..n-1, one Fraction per cell."""
    rows = ref_counts(family)
    return [
        sum((Fraction(w) * row[d] for w, row in zip(weights, rows)), Fraction(0))
        for d in range(1, family.n)
    ]


@st.composite
def families(draw, pool=KERNEL_POOL, max_m=5):
    group = draw(st.sampled_from(pool))
    n = group.order
    support = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 12))))
    m = draw(st.integers(1, min(max_m, len(support))))
    assign = [draw(st.integers(0, m - 1)) for _ in support]
    assign[:m] = range(m)
    sets = [[] for _ in range(m)]
    for x, j in zip(support, assign):
        sets[j].append(x)
    return DisjointFamily.of(group, *sets)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_POOL), st.data())
def test_diff_array_matches_scalar_arithmetic(g, data):
    idx = st.integers(0, g.order - 1)
    a = data.draw(st.lists(idx, min_size=1, max_size=9))
    b = data.draw(st.lists(idx, min_size=1, max_size=9))
    got = g.diff_array(np.array(a)[:, None], np.array(b)[None, :])
    assert got.tolist() == [[ref_diff(g, x, y) for y in b] for x in a]
    assert g.diff_array(a[0], np.array(b)).tolist() == [ref_diff(g, a[0], y) for y in b]
    assert g.diff_array(np.array(a), np.array(a)).tolist() == [0] * len(a)


@pytest.mark.parametrize("chunk", [1, 7, groups.PAIR_CHUNK])
def test_diff_rows_is_the_whole_difference_table(chunk, monkeypatch):
    monkeypatch.setattr(groups, "PAIR_CHUNK", chunk)
    for g in KERNEL_POOL:
        g.__dict__.pop("diff_rows", None)  # built by an earlier test or parameter
        assert g.diff_rows == [
            [ref_diff(g, a, b) for b in range(g.order)] for a in range(g.order)
        ]


# small chunks split the pairs of even a tiny family across many steps
chunks = st.sampled_from([1, 2, 5, 17, groups.PAIR_CHUNK])


@settings(max_examples=150, deadline=None)
@given(families(), chunks)
def test_profile_matches_pair_loop(fam, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "PAIR_CHUNK", chunk)
        prof = difference_profile(fam)
    expected = [tuple(row[1:]) for row in ref_counts(fam)]
    assert tuple(prof.row(i) for i in range(fam.m)) == tuple(expected)
    assert prof.matrix.dtype == np.int64
    assert prof.matrix.tolist() == [list(row) for row in expected]


@settings(max_examples=150, deadline=None)
@given(families(max_m=1), chunks)
def test_self_differences_match_pair_loop(fam, chunk):
    g, members = fam.group, fam.sets[0]
    counts = ref_self_counts(g, members)
    lam = counts[1] if g.order > 1 else 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "PAIR_CHUNK", chunk)
        assert internal_differences(g, members) == tuple(d for d, c in enumerate(counts) if c)
        expected = lam if all(c == lam for c in counts[1:]) else None
        assert check_difference_set(g, members) == expected
        assert is_subgroup(g, (0, *members)) == (
            closure(g, members).carrier == tuple(sorted({0, *members}))
        )


@settings(max_examples=100, deadline=None)
@given(families(), st.data())
def test_weighted_sums_match_fractions(fam, data):
    weight = st.fractions(min_value=Fraction(1, 50), max_value=1, max_denominator=60)
    weights = [data.draw(weight) for _ in range(fam.m)]
    sums = ref_weighted_sums(fam, weights)
    prof = difference_profile(fam)
    for d, s in enumerate(sums, start=1):
        assert weighted_sum(fam, prof, weights, d) == s
    assert check_wedf(fam, prof, weights) == (sums[0] if sums and len(set(sums)) == 1 else None)
    reciprocal = ref_weighted_sums(fam, [Fraction(1, k) for k in fam.sizes])
    for d, s in enumerate(reciprocal, start=1):
        assert e_delta(fam, prof, d) == s / fam.m


@settings(max_examples=100, deadline=None)
@given(families(), st.data())
def test_success_vectors_match_scalar_shift(fam, data):
    if fam.n < 2:
        return
    delta = data.draw(st.integers(1, fam.n - 1))
    g = fam.group
    owner = {x: i for i, s in enumerate(fam.sets) for x in s}
    board = _Board(fam)
    pos = np.arange(fam.total)
    wins = board.wins(np.full(fam.total, delta), pos).tolist()
    for i, members in enumerate(fam.sets):
        shifted = [g.mul(g.inv(delta), x) for x in members]
        expected = [owner.get(y, i) != i for y in shifted]
        assert wins[board.start[i] : board.start[i] + len(members)] == expected
    # a shift per trial, as the random-shift game scores its picks
    deltas = data.draw(st.lists(st.integers(1, fam.n - 1), min_size=fam.total,
                                max_size=fam.total))
    flat = [(x, i) for i, s in enumerate(fam.sets) for x in s]
    expected = [owner.get(g.mul(g.inv(d), x), i) != i for d, (x, i) in zip(deltas, flat)]
    assert board.wins(np.array(deltas, dtype=np.int64), pos).tolist() == expected


@settings(max_examples=100, deadline=None)
@given(families())
def test_play_rate_matches_e_delta(fam):
    prof = difference_profile(fam)
    for d in range(1, fam.n):
        assert play(fam, d, trials=1, seed=d).analytic_rate == e_delta(fam, prof, d)


def test_sparse_family_in_a_large_group():
    # n > 2048 used to go through a separate per-pair branch
    g = CyclicGroup(4099)
    fam = DisjointFamily.of(g, (0, 7, 4000), (3, 2048), (4098,))
    prof = difference_profile(fam)
    assert prof.matrix.tolist() == [list(row[1:]) for row in ref_counts(fam)]
    assert sum(map(sum, prof.matrix.tolist())) == 3 * 3 + 2 * 4 + 1 * 5


def past_int64_family():
    """15 prime sizes 2..47 in Z_331, T = 328: lcm(sizes) is about 6.1e17."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    g = CyclicGroup(331)
    elems = list(range(g.order))
    random.Random(20180504).shuffle(elems)
    sets, at = [], 0
    for k in primes:
        sets.append(elems[at : at + k])
        at += k
    return DisjointFamily.of(g, *sets), primes


def test_scaled_sums_past_int64():
    # lcm(sizes) * max count * m is past the int64 guard, so the integer-scaled
    # sums take the exact fallback
    fam, primes = past_int64_family()
    assert fam.total == 328

    prof = difference_profile(fam)
    assert lcm(*primes) * int(prof.matrix.max()) * fam.m >= 2**62

    sums = ref_weighted_sums(fam, [Fraction(1, k) for k in primes])
    constant = len(set(sums)) == 1
    assert check_rwedf(fam, prof) == (sums[0] if constant else None)
    witness = next((d for d, s in enumerate(sums, start=1) if s != sums[0]), None)
    assert rwedf_failure_witness(fam, prof) == witness
    assert e_hat(fam, prof) == max(sums) / fam.m
    assert e_delta(fam, prof, 5) == sums[4] / fam.m

    # weights (p - 1)/p share that denominator, and their scaled sums would
    # wrap around in int64
    weights = [Fraction(p - 1, p) for p in primes]
    sums = ref_weighted_sums(fam, weights)
    assert max(sums) * lcm(*primes) >= 2**63
    assert [weighted_sum(fam, prof, weights, d) for d in range(1, fam.n)] == sums
    assert check_wedf(fam, prof, weights) == (sums[0] if len(set(sums)) == 1 else None)


def test_weights_past_int64_on_an_empty_column():
    # the scaled weights 2^65 and 3^41 do not fit int64 even where every count is 0
    fam = DisjointFamily.of(CyclicGroup(7), (0,), (1,))
    prof = difference_profile(fam)
    weights = (Fraction(1, 3**41), Fraction(1, 2**65))
    assert weighted_sum(fam, prof, weights, 3) == 0
    assert weighted_sum(fam, prof, weights, 1) == Fraction(1, 2**65)
    assert weighted_sum(fam, prof, weights, 6) == Fraction(1, 3**41)
    assert check_wedf(fam, prof, weights) is None


# -- the streamed profile against the dense reference -------------------------

def _classified(fam, weights, rows, chunk):
    """classify(fam, weights).to_json_dict() with blocks of `rows` rows and PAIR_CHUNK chunk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "BLOCK_CELLS", rows * fam.n)
        mp.setattr(groups, "PAIR_CHUNK", chunk)
        return classify(fam, weights).to_json_dict()


def _witness_after_a_block_boundary():
    # singleton rows are always 0-or-1, so the first bimodal break is row 3: (3, 1, 1)
    return DisjointFamily.of(CyclicGroup(7), (0,), (1,), (2,), (3, 5))


BLOCK_CASES = [(label, fam, weights) for label, fam, weights in all_fixtures()] + [
    ("whole-group", DisjointFamily.of(CyclicGroup(6), range(6)), None),
    ("n=2", DisjointFamily.of(CyclicGroup(2), (0,), (1,)), None),
    ("n=2-weighted", DisjointFamily.of(CyclicGroup(2), (0,), (1,)),
     (Fraction(1, 3), Fraction(1))),
    ("witness-row-3", _witness_after_a_block_boundary(), None),
    # n - 1 = 6 divides both row sums k * (T - k), yet neither row is constant
    ("even-row-sums", DisjointFamily.of(CyclicGroup(7), (0, 1), (2, 3, 4)), None),
    ("bimodal-weighted", bimodal_z12(), (Fraction(1, 2),) * 8),
    ("product", DisjointFamily.of(DirectProductGroup(CyclicGroup(3), DihedralGroup(3)),
                                  (1, 2, 9), (4, 13), (7,), (16, 17)), None),
    ("cayley-f21", DisjointFamily.of(f21_group(), (1, 4, 11), (2, 3), (20,)),
     (Fraction(1, 2), Fraction(1, 4), Fraction(1))),
]


@pytest.mark.parametrize("label, fam, weights", BLOCK_CASES, ids=lambda v: str(v)[:16])
def test_classify_blocks_match_dense_reference(label, fam, weights):
    ref = reference_classification(fam, weights)
    first = None
    for rows in range(1, 18):
        for chunk in (1, 7, groups.PAIR_CHUNK):
            got = _classified(fam, weights, rows, chunk)
            assert {k: got[k] for k in ref} == ref, (rows, chunk)
            first = first or got
            assert got == first, (rows, chunk)
    if label == "witness-row-3":
        assert ref["bimodal_witness"] == [3, 1, 1]


def test_blocks_stack_to_the_count_matrix(monkeypatch):
    fam = _witness_after_a_block_boundary()
    for rows in range(1, 6):
        monkeypatch.setattr(groups, "BLOCK_CELLS", rows * fam.n)
        blocks = [b.copy() for b in difference_count_blocks(fam.group, fam.sets)]
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert np.vstack(blocks).tolist() == ref_counts(fam)


@settings(max_examples=150, deadline=None)
@given(families(), st.integers(1, 17), st.sampled_from([1, 7, groups.PAIR_CHUNK]), st.data())
def test_streamed_classify_matches_dense_reference(fam, rows, chunk, data):
    if fam.n < 2:
        return
    weight = st.fractions(min_value=Fraction(1, 30), max_value=1, max_denominator=30)
    weights = data.draw(st.none() | st.lists(weight, min_size=fam.m, max_size=fam.m))
    ref = reference_classification(fam, weights)
    got = _classified(fam, weights, rows, chunk)
    assert {k: got[k] for k in ref} == ref
    assert got == classify(fam, weights).to_json_dict()


@pytest.mark.parametrize("rows", [1, 2, 5, 15, 16])
def test_streamed_classify_past_int64(rows):
    # the reciprocal sums take the Python-int path from the first block past the bound
    fam, primes = past_int64_family()
    weights = [Fraction(p - 1, p) for p in primes]
    ref = reference_classification(fam, weights)
    if rows == 1:
        counts = [row[1:] for row in ref_counts(fam)]
        assert lcm(*primes) * max(map(max, counts)) * fam.m >= 2**62
    got = _classified(fam, weights, rows, groups.PAIR_CHUNK)
    assert {k: got[k] for k in ref} == ref


def test_weighted_sums_past_int64_by_their_counts():
    # the scaled weights 2^60 - 1 and 1 fit int64 with m = 2, and only the
    # counts (up to 9) carry the sums past 2^63
    fam = DisjointFamily.of(CyclicGroup(19), range(9), range(9, 18))
    weights = (Fraction(2**60 - 1, 2**60), Fraction(1, 2**60))
    sums = ref_weighted_sums(fam, weights)
    assert max(sums) * 2**60 >= 2**63
    prof = difference_profile(fam)
    assert [weighted_sum(fam, prof, weights, d) for d in range(1, fam.n)] == sums
    for rows in (1, 2):
        wedf = _classified(fam, weights, rows, groups.PAIR_CHUNK)["wedf"]
        assert wedf == reference_classification(fam, weights)["wedf"]


def test_classify_memory_is_linear_in_n():
    # m * (n - 1) is about 16.8M cells here, 128 MB as a dense int64 matrix
    fam = nonzero_singletons(CyclicGroup(4096))
    tracemalloc.start()
    try:
        report = classify(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert (report.rwedf, report.bimodal.holds, report.r_optimal) == (4094, True, True)
