"""The numpy pair-counting kernel against scalar reference loops.

Every reference here is written with the scalar group law of
``helpers.scalar_diff`` only, so it shares no code with ``diff_array``, the
pair kernel or the member pass.  The streamed profile's classification is
checked against the dense reference in ``helpers`` at many block and chunk
sizes.
The kernel's two routes, cross pairs and complement, are each forced in turn
(``forced``), whichever one the pair counts would pick.
"""
import importlib
import random
import tracemalloc
from contextlib import contextmanager
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
    check_partial_difference_set,
    check_rwedf,
    check_wedf,
    classify,
    classify_many,
    closure,
    difference_profile,
    enumerate_subgroups,
    e_delta,
    e_hat,
    internal_differences,
    left_cosets,
    nonzero_singletons,
    play,
    weighted_sum,
)
from rwedf.classify import rwedf_failure_witness
from rwedf import family as family_module
from rwedf import groups
from rwedf.constructions import f21_group, heisenberg_partition
from rwedf.groups import difference_count_blocks, is_subgroup, packed, self_difference_counts
from rwedf.simulate import _Board

from helpers import KERNEL_POOL, all_fixtures, bimodal_z12, reference_classification, scalar_diff
from helpers import scalar_inv, scalar_mul, weighted_z8
from helpers import reference_counts as ref_counts

def ref_self_counts(g, members):
    counts = [0] * g.order
    for a in members:
        for b in members:
            if a != b:
                counts[scalar_diff(g, a, b)] += 1
    return counts


def ref_partial_difference_set(members, counts):
    """(lambda, mu) from the self-counts, split by membership; None when either varies."""
    if len(members) <= 1:
        return None
    inside = {c for d, c in enumerate(counts) if d and d in members}
    outside = {c for d, c in enumerate(counts) if d and d not in members}
    if len(inside) > 1 or len(outside) > 1:
        return None
    return (inside.pop() if inside else 0), (outside.pop() if outside else 0)


def ref_weighted_sums(family, weights):
    """sum_i w_i * N_i(delta) per delta = 1..n-1, one Fraction per cell."""
    rows = ref_counts(family)
    return [
        sum((Fraction(w) * row[d] for w, row in zip(weights, rows)), Fraction(0))
        for d in range(1, family.n)
    ]


@st.composite
def families(draw, pool=KERNEL_POOL, max_m=5, total=None, m=None):
    group = draw(st.sampled_from(pool))
    n = group.order
    low, high = (total, total) if total else (1, min(n, 12))
    support = sorted(draw(st.sets(st.integers(0, n - 1), min_size=low, max_size=high)))
    m = m or draw(st.integers(1, min(max_m, len(support))))
    assign = [draw(st.integers(0, m - 1)) for _ in support]
    assign[:m] = range(m)
    sets = [[] for _ in range(m)]
    for x, j in zip(support, assign):
        sets[j].append(x)
    return DisjointFamily.of(group, *sets)


ROUTES = ("cross", "complement")


@contextmanager
def forced(route):
    """Every pass of the pair kernel that counts the other sets takes this route,
    whichever visits fewer pairs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "_complement_is_cheaper", lambda *args: route == "complement")
        yield


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_POOL), st.data())
def test_diff_array_matches_scalar_arithmetic(g, data):
    idx = st.integers(0, g.order - 1)
    a = data.draw(st.lists(idx, min_size=1, max_size=9))
    b = data.draw(st.lists(idx, min_size=1, max_size=9))
    got = g.diff_array(np.array(a)[:, None], np.array(b)[None, :])
    assert got.tolist() == [[scalar_diff(g, x, y) for y in b] for x in a]
    assert g.diff_array(a[0], np.array(b)).tolist() == [scalar_diff(g, a[0], y) for y in b]
    assert g.diff_array(np.array(a), np.array(a)).tolist() == [0] * len(a)
    assert g.diff_array(a[0], b[0]) == scalar_diff(g, a[0], b[0])


# every ordered pair of these: e = 1, odd e, halves of unequal and of equal length
EVERY_PAIR_GROUPS = [
    ElementaryAbelianGroup(3, 1),
    ElementaryAbelianGroup(3, 3),
    ElementaryAbelianGroup(3, 4),
    ElementaryAbelianGroup(5, 3),
    ElementaryAbelianGroup(7, 2),
    HeisenbergGroup(2),
    HeisenbergGroup(3),
    HeisenbergGroup(5),
    HeisenbergGroup(7),
]


class CheckedTable(np.ndarray):
    """A table view that fails on an index outside 0..len - 1, where numpy would
    wrap a negative one silently."""

    def __getitem__(self, key):
        k = np.asarray(key)
        assert k.dtype.kind == "i" and 0 <= k.min() and k.max() < len(self), "table index out of range"
        return np.asarray(self)[key]


def checked(value):
    """value with every array in it, nested in tuples too, seen through CheckedTable."""
    if isinstance(value, np.ndarray):
        return value.view(CheckedTable)
    if isinstance(value, tuple):
        return tuple(map(checked, value))
    return value


def assert_law_matches_scalar(g, xs, ys):
    """diff_array(x, y) == scalar_diff(g, x, y) for every x in xs and y in ys, with the
    operands as (k, 1) x (1, l) broadcasts, 1-d arrays, Python ints and 0-d values."""
    want = [[scalar_diff(g, x, y) for y in ys] for x in xs]
    a, b = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    assert g.diff_array(a[:, None], b[None, :]).tolist() == want
    assert [g.diff_array(x, b).tolist() for x in xs] == want
    assert g.diff_array(np.repeat(a, len(b)), np.tile(b, len(a))).tolist() == sum(want, [])
    for i, x in enumerate(xs[:40]):
        y = ys[i % len(ys)]
        for u, v in ((x, y), (np.int64(x), np.int64(y)), (np.array(x), np.array(y))):
            assert g.diff_array(u, v) == want[i][i % len(ys)]


@pytest.mark.parametrize("g", EVERY_PAIR_GROUPS, ids=repr)
def test_table_laws_match_scalar_arithmetic_on_every_pair(g):
    g.diff(0, 0)  # builds the group's law tables, if it has any
    for name, value in list(vars(g).items()):
        vars(g)[name] = checked(value)  # each pre-key must land inside its table
    assert_law_matches_scalar(g, range(g.order), range(g.order))


@pytest.mark.parametrize("g", [HeisenbergGroup(11), ElementaryAbelianGroup(3, 6)], ids=repr)
def test_table_laws_match_scalar_arithmetic_on_random_pairs(g):
    # the two groups of the benchmark's verify workload
    rng = random.Random(g.order)
    assert_law_matches_scalar(g, rng.sample(range(g.order), 120), rng.sample(range(g.order), 120))


@pytest.mark.parametrize("g", KERNEL_POOL, ids=repr)
def test_diff_array_returns_int64(g):
    # the kernel adds an int64 offset in place, and numpy would cast it into a
    # narrower result and wrap without an error
    idx = np.arange(g.order, dtype=np.int64)
    assert g.diff_array(idx[:, None], idx).dtype == np.int64
    assert g.diff_array(0, idx).dtype == np.int64
    assert g.diff_array(g.order - 1, 0).dtype == np.int64


@pytest.mark.parametrize("kind, args", [(ElementaryAbelianGroup, (3, 12)),
                                        (ElementaryAbelianGroup, (1048573, 1)),
                                        (HeisenbergGroup, (101,))],
                         ids=["Z_3^12", "Z_1048573", "Heisenberg_101"])
def test_law_tables_are_built_on_first_use_within_n_cells(kind, args):
    g = kind(*args)
    assert all(type(v) is int for v in vars(g).values())  # nothing built yet
    tracemalloc.start()
    try:
        g.diff(1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * g.order  # n int64 cells


def scalar_table(g):
    """table[a][b] == a * b by the scalar law, for the subgroup references below."""
    return [[scalar_mul(g, a, b) for b in range(g.order)] for a in range(g.order)]


def bfs_closure(table, gens):
    """The carrier of <gens>: a BFS over right multiplication, one element at a time."""
    seen, queue = {0}, [0]
    while queue:
        x = queue.pop()
        for s in gens:
            y = table[x][s]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return tuple(sorted(seen))


def walk_subgroups(table):
    """(carrier, generators) of every subgroup, each known one closed with every element."""
    found = {(0,): ()}
    frontier = [((0,), ())]
    while frontier:
        fresh = []
        for carrier, gens in frontier:
            for x in range(1, len(table)):
                if x not in carrier:
                    bigger = tuple(sorted({*gens, x}))
                    sub = bfs_closure(table, bigger)
                    if sub not in found:
                        found[sub] = bigger
                        fresh.append((sub, bigger))
        frontier = fresh
    return sorted(found.items(), key=lambda item: (len(item[0]), item[0]))


def walk_left_cosets(table, carrier):
    seen, cosets = set(), []
    for x in range(len(table)):
        if x not in seen:
            coset = tuple(sorted(table[x][h] for h in carrier))
            seen.update(coset)
            cosets.append(coset)
    return cosets


@pytest.mark.parametrize("g", KERNEL_POOL, ids=repr)
def test_subgroup_paths_match_scalar_walks(g):
    table = scalar_table(g)
    assert [g.order_of(a) for a in range(g.order)] == [
        len(bfs_closure(table, [a])) for a in range(g.order)
    ]
    subs = enumerate_subgroups(g)
    assert [(s.carrier, s.generators) for s in subs] == walk_subgroups(table)
    for sub in subs:
        assert left_cosets(g, sub) == walk_left_cosets(table, sub.carrier)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_POOL), st.data())
def test_closure_matches_scalar_bfs(g, data):
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=4))
    sub = closure(g, gens)
    assert sub.carrier == bfs_closure(scalar_table(g), gens)
    assert sub.generators == tuple(sorted(set(gens)))


@pytest.mark.parametrize("chunk", [1, 7, groups.PAIR_CHUNK])
def test_diff_rows_is_the_whole_difference_table(chunk, monkeypatch):
    monkeypatch.setattr(groups, "PAIR_CHUNK", chunk)
    for g in KERNEL_POOL:
        g.__dict__.pop("diff_rows", None)  # built by an earlier test or parameter
        assert g.diff_rows == [
            [scalar_diff(g, a, b) for b in range(g.order)] for a in range(g.order)
        ]


# small chunks split the pairs of even a tiny family across many steps
chunks = st.sampled_from([1, 2, 5, 17, groups.PAIR_CHUNK])


@settings(max_examples=150, deadline=None)
@given(families(), chunks, st.sampled_from(ROUTES))
def test_profile_matches_pair_loop(fam, chunk, route):
    with pytest.MonkeyPatch.context() as mp, forced(route):
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
        got = self_difference_counts(g, members)
        assert got.dtype == np.int64 and got.tolist() == counts
        assert internal_differences(g, members) == tuple(d for d, c in enumerate(counts) if c)
        expected = lam if all(c == lam for c in counts[1:]) else None
        assert check_difference_set(g, members) == expected
        if g.abelian:
            assert check_partial_difference_set(g, members) == (
                ref_partial_difference_set(members, counts))
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
        shifted = [scalar_mul(g, scalar_inv(g, delta), x) for x in members]
        expected = [owner.get(y, i) != i for y in shifted]
        assert wins[board.start[i] : board.start[i] + len(members)] == expected
    # a shift per trial, as the random-shift game scores its picks
    deltas = data.draw(st.lists(st.integers(1, fam.n - 1), min_size=fam.total,
                                max_size=fam.total))
    flat = [(x, i) for i, s in enumerate(fam.sets) for x in s]
    expected = [owner.get(scalar_mul(g, scalar_inv(g, d), x), i) != i
                for d, (x, i) in zip(deltas, flat)]
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
    ("one-set", DisjointFamily.of(CyclicGroup(7), (1, 3)), None),
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
    for route in ROUTES:
        for rows in range(1, 18):
            for chunk in (1, 7, groups.PAIR_CHUNK):
                with forced(route):
                    got = _classified(fam, weights, rows, chunk)
                assert {k: got[k] for k in ref} == ref, (route, rows, chunk)
                first = first or got
                assert got == first, (route, rows, chunk)
    if label == "witness-row-3":
        assert ref["bimodal_witness"] == [3, 1, 1]


def test_blocks_stack_to_the_count_matrix(monkeypatch):
    # every block case, column 0 included, by both routes
    for label, fam, _ in BLOCK_CASES:
        expected = ref_counts(fam)
        for route in ROUTES:
            for rows in range(1, 6):
                monkeypatch.setattr(groups, "BLOCK_CELLS", rows * fam.n)
                with forced(route):
                    blocks = [b.copy() for b in difference_count_blocks(fam.group, *packed(fam.sets))]
                assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
                assert np.vstack(blocks).tolist() == expected, (label, route, rows)


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
    # the reciprocal and weighted sums take the Python-int path for the whole pass
    fam, primes = past_int64_family()
    weights = [Fraction(p - 1, p) for p in primes]
    ref = reference_classification(fam, weights)
    if rows == 1:
        counts = [row[1:] for row in ref_counts(fam)]
        assert lcm(*primes) * max(map(max, counts)) * fam.m >= 2**62
    for route in ROUTES:
        with forced(route):
            got = _classified(fam, weights, rows, groups.PAIR_CHUNK)
        assert {k: got[k] for k in ref} == ref, route


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


# -- many families in one pass -------------------------------------------------

@st.composite
def family_lists(draw, weighted=False):
    """Families of one group, in runs of equal totals, so that they stack; with
    weighted, every family has the same m and a shared weight vector is drawn."""
    group = draw(st.sampled_from([g for g in KERNEL_POOL if g.order > 1]))
    top = min(group.order, 12)
    m = draw(st.integers(1, min(4, top))) if weighted else None
    out = []
    for total in draw(st.lists(st.integers(m or 1, top), min_size=1, max_size=3)):
        run = st.lists(families([group], total=total, m=m), min_size=1, max_size=6)
        out += draw(run)
    weight = st.fractions(min_value=Fraction(1, 30), max_value=1, max_denominator=30)
    weights = tuple(draw(st.lists(weight, min_size=m, max_size=m))) if weighted else None
    return out, weights


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(family_lists), st.integers(1, 17),
       st.sampled_from([1, 7, groups.PAIR_CHUNK]))
def test_classify_many_matches_classify(drawn, rows, chunk):
    fams, weights = drawn
    expected = [classify(f, weights) for f in fams]
    # small blocks and chunks split the stacks mid-list and families across blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups, "BLOCK_CELLS", rows * fams[0].n)
        mp.setattr(groups, "PAIR_CHUNK", chunk)
        got = classify_many(fams, weights)
    assert got == expected
    for fam, report in zip(fams, got):
        ref = reference_classification(fam, weights)
        assert {k: report.to_json_dict()[k] for k in ref} == ref


def test_classify_many_over_groups_and_shapes():
    fams = [fam for _, fam, _ in all_fixtures()]
    for g in (CyclicGroup(2), CyclicGroup(6), DihedralGroup(3)):
        n = g.order
        fams += [
            DisjointFamily.of(g, range(n)),  # the whole group, m = 1
            DisjointFamily.of(g, *([x] for x in range(n))),  # n singletons
            nonzero_singletons(g),
            DisjointFamily.of(g, (1,)),
            DisjointFamily.of(g, (0,), (1,)),
        ]
    # Z_7, T = 5, sizes (2, 3): n - 1 divides both row sums, yet not every row is constant
    z7 = CyclicGroup(7)
    fams += [DisjointFamily.of(z7, (0, 1), (2, 3, 4)), DisjointFamily.of(z7, (0, 3), (1, 2, 5)),
             DisjointFamily.of(z7, (1, 6), (2, 3, 4))]
    expected = [classify(f) for f in fams]
    for route in ROUTES:
        with forced(route):
            got = classify_many(fams)
        assert got == expected, route
    for fam, report in zip(fams, got):
        ref = reference_classification(fam)
        assert {k: report.to_json_dict()[k] for k in ref} == ref
    assert [r.trivial for r in expected].count(True) >= 9
    # equal sizes (EDF checks) and unequal sizes, weighted, in one stack
    g = CyclicGroup(13)
    fams = [DisjointFamily.of(g, (1, 3, 9), (2, 5, 6)),
            DisjointFamily.of(g, (0, 4), (7, 8, 10, 11)),
            DisjointFamily.of(g, (1, 12), (2, 11, 3, 10))]
    weights = (Fraction(1, 2), Fraction(1, 3))
    assert classify_many(fams, weights) == [classify(f, weights) for f in fams]
    assert classify_many([]) == []


def test_classify_many_with_a_family_past_int64():
    # the 15-set family stacks with its neighbours of the same group and total,
    # and its bound takes the sums of the whole stack to Python ints
    fam, primes = past_int64_family()
    g = fam.group
    elems = [x for s in fam.sets for x in s]
    twin = DisjointFamily.of(g, elems[:164], elems[164:])
    small = DisjointFamily.of(g, (0, 5), (7,))
    fams = [twin, fam, twin, small, fam]
    expected = [classify(f) for f in fams]
    for route in ROUTES:
        with forced(route):
            assert classify_many(fams) == expected, route


def _profile_facts(profile):
    return (profile.scale, profile.reciprocal, profile.row_constants, profile.bimodal_witness)


def test_profile_scale_past_int64():
    # the 16 primes 2..53 as sizes in Z_383: K = lcm(sizes) itself is past 2^63, so the
    # scales are Python ints, alone and stacked with a family of the same total
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    g = CyclicGroup(383)
    elems = list(range(g.order))
    random.Random(20180504).shuffle(elems)
    sets, at = [], 0
    for k in primes:
        sets.append(elems[at : at + k])
        at += k
    fam = DisjointFamily.of(g, *sets)
    assert fam.total == 381 and lcm(*primes) == 32_589_158_477_190_044_730 >= 2**63
    ref = reference_classification(fam)
    got = classify(fam).to_json_dict()
    assert {k: got[k] for k in ref} == ref
    pair = DisjointFamily.of(g, elems[:190], elems[190:381])
    stacked = family_module.difference_profiles([fam, pair])
    assert stacked[0].scale == lcm(*primes)
    assert [_profile_facts(p) for p in stacked] == [
        _profile_facts(difference_profile(f)) for f in (fam, pair)]


# -- weighted sums in the same pass ---------------------------------------------

def _count_passes(monkeypatch):
    """The number of sets of each pass of the pair kernel that the profile makes."""
    passes = []

    def counting(group, sets, *args, real=family_module.difference_count_blocks, **kwargs):
        passes.append(len(sets))
        return real(group, sets, *args, **kwargs)

    monkeypatch.setattr(family_module, "difference_count_blocks", counting)
    return passes


def test_weighted_classify_is_one_kernel_pass(monkeypatch):
    passes = _count_passes(monkeypatch)
    for label, fam, weights in BLOCK_CASES:
        weights = weights or tuple(Fraction(1, k + 1) for k in fam.sizes)
        passes.clear()
        report = classify(fam, weights).to_json_dict()
        assert passes == [fam.m], label
        ref = reference_classification(fam, weights)
        assert {k: report[k] for k in ref} == ref, label


def test_weighted_classify_many_over_groups_and_totals(monkeypatch):
    z9, d4, z3z3 = CyclicGroup(9), DihedralGroup(4), ElementaryAbelianGroup(3, 2)
    fams = [
        DisjointFamily.of(z9, (0, 1), (3,), (5, 7)),
        DisjointFamily.of(z9, (2,), (4, 6), (8, 0)),
        DisjointFamily.of(z9, (0,), (1,), (2,)),
        DisjointFamily.of(d4, (0, 1, 2), (4,), (6, 7)),
        DisjointFamily.of(d4, (1,), (2, 3), (5, 6, 7)),
        DisjointFamily.of(z3z3, (1, 2), (3, 6), (4, 8)),
        DisjointFamily.of(z9, (1, 2, 4), (3, 5), (0,)),
    ]
    weights = (Fraction(1, 2), Fraction(1, 3), Fraction(1))
    expected = [classify(f, weights) for f in fams]
    passes = _count_passes(monkeypatch)
    got = classify_many(fams, weights)
    # one pass per run of one group and one total
    assert passes == [6, 3, 6, 3, 3]
    assert got == expected
    for fam, report in zip(fams, got):
        ref = reference_classification(fam, weights)
        assert {k: report.to_json_dict()[k] for k in ref} == ref


@pytest.mark.parametrize("rows", [1, 2, 5, 15, 16])
def test_weighted_sums_past_int64_take_python_ints(monkeypatch, rows):
    fam, primes = past_int64_family()
    weights = [Fraction(p - 1, p) for p in primes]
    dtypes = []

    class Recording(family_module._ColumnSums):
        def values(self):
            dtypes.append(self.sums.dtype)
            return super().values()

    monkeypatch.setattr(family_module, "_ColumnSums", Recording)
    monkeypatch.setattr(groups, "BLOCK_CELLS", rows * fam.n)
    prof = difference_profile(fam, weights)
    assert dtypes == [object, object]  # the reciprocal sums, then the weighted ones
    assert [Fraction(s, lcm(*primes)) for s in prof.weighted] == ref_weighted_sums(fam, weights)


def test_weighted_classify_many_checks_the_weights_once_per_family(monkeypatch):
    z9, d4 = CyclicGroup(9), DihedralGroup(4)
    fams = [
        DisjointFamily.of(z9, (0, 1), (3,), (5, 7)),
        DisjointFamily.of(z9, (2,), (4, 6), (8, 0)),
        DisjointFamily.of(d4, (0, 1, 2), (4,), (6, 7)),
    ]
    weights = (Fraction(1, 2), Fraction(1, 3), Fraction(1))
    checked = []

    def counting(m, ws, real=family_module.check_weights):
        checked.append(m)
        return real(m, ws)

    def refused(*args):
        raise AssertionError("the report reads wedf off the profile")

    classify_module = importlib.import_module("rwedf.classify")
    for module in (family_module, classify_module):
        monkeypatch.setattr(module, "check_weights", counting)
    monkeypatch.setattr(classify_module, "check_wedf", refused)
    got = classify_many(fams, weights)
    assert checked == [3]  # once for the batch: every family has the same m
    for fam, report in zip(fams, got):
        ref = reference_classification(fam, weights)
        assert {k: report.to_json_dict()[k] for k in ref} == ref


def test_check_wedf_profiles_again_only_for_other_weights(monkeypatch):
    fam, weights = weighted_z8()
    plain = difference_profile(fam)
    weighted = difference_profile(fam, weights)
    assert (plain.weights, plain.weighted) == (None, None)
    passes = _count_passes(monkeypatch)
    assert check_wedf(fam, weighted, weights) == 3 and passes == []
    assert check_wedf(fam, plain, weights) == 3 and passes == [3]
    assert check_wedf(fam, weighted, (1, 1, 1)) == 6 and passes == [3, 3]


@pytest.mark.parametrize("chunk", [1, 3, 7, groups.PAIR_CHUNK])
@pytest.mark.parametrize("rows", [1, 2, 5, 64])
def test_span_counts_each_family_apart(monkeypatch, rows, chunk):
    g = DihedralGroup(4)
    stack = [[(0, 1), (2,), (3, 4, 5)], [(7,), (0, 6), (1, 2, 3)], [(5, 6, 7, 0, 1, 2)]]
    monkeypatch.setattr(groups, "BLOCK_CELLS", rows * g.order)
    monkeypatch.setattr(groups, "PAIR_CHUNK", chunk)
    sets = [s for fam in stack for s in fam]
    expected = [row for fam in stack for row in ref_counts(DisjointFamily.of(g, *fam))]
    for route in ROUTES:
        with forced(route):
            got = np.vstack([b.copy() for b in difference_count_blocks(g, *packed(sets), span=6)])
        assert got.tolist() == expected, route


# -- the two routes of the pair kernel -------------------------------------------

def covering_families(g, copies=3):
    """copies families of g for each total n, n - 1 (G minus the identity), n - 2
    and a small one, of mixed set sizes, the supports drawn apart."""
    n = g.order
    rng = random.Random(n)
    out = []
    for total in sorted({n, n - 1, n - 2, min(n, 3)} - {0, -1}):
        for _ in range(copies):
            pool = list(range(1, n)) if total == n - 1 else list(range(n))
            rng.shuffle(pool)
            m = rng.randint(1, min(total, 5))
            cuts = [0, *sorted(rng.sample(range(1, total), m - 1)), total]
            out.append(DisjointFamily.of(g, *(pool[a:b] for a, b in zip(cuts, cuts[1:]))))
    return out


@pytest.mark.parametrize("g", KERNEL_POOL, ids=repr)
def test_both_routes_match_pair_loop_at_every_total(g, monkeypatch):
    fams = covering_families(g)
    counts = {fam: ref_counts(fam) for fam in fams}
    classes = {fam: reference_classification(fam) for fam in fams} if g.order > 1 else {}
    # chunks of a few pairs split every family; on the largest groups they are
    # scaled up to keep the steps few
    small = (1, 7) if g.order <= 32 else (g.order // 2, 3 * g.order)
    for route in ROUTES:
        for rows, chunk in ((1, small[0]), (2, small[1]), (64, groups.PAIR_CHUNK)):
            monkeypatch.setattr(groups, "BLOCK_CELLS", rows * g.order)
            monkeypatch.setattr(groups, "PAIR_CHUNK", chunk)
            with forced(route):
                for total in {fam.total for fam in fams}:
                    # the families of one total, each counted alone and all stacked
                    stack = [fam for fam in fams if fam.total == total]
                    for fam in stack:
                        blocks = difference_count_blocks(g, *packed(fam.sets))
                        assert np.vstack([b.copy() for b in blocks]).tolist() == counts[fam]
                    sets = [s for fam in stack for s in fam.sets]
                    blocks = difference_count_blocks(g, *packed(sets), span=total)
                    expected = [row for fam in stack for row in counts[fam]]
                    assert np.vstack([b.copy() for b in blocks]).tolist() == expected
                reports = classify_many(list(classes))
            for fam, report in zip(classes, reports):
                got = report.to_json_dict()
                assert {k: got[k] for k in classes[fam]} == classes[fam], (route, rows, chunk)


def test_the_route_follows_the_pair_counts(monkeypatch):
    taken = []

    def recording(*args, real=groups._complement_is_cheaper):
        taken.append((args, real(*args)))
        return taken[-1][1]

    monkeypatch.setattr(groups, "_complement_is_cheaper", recording)
    z7 = CyclicGroup(7)
    # 13 pairs of G minus the identity: 26 peers an element in the support, 1 outside
    difference_profile(heisenberg_partition(3))
    # the whole group as one set has no peer outside; two singletons have 2 in, 5 out
    classify_many([DisjointFamily.of(z7, range(7)), DisjointFamily.of(z7, (0,), (1,)),
                   DisjointFamily.of(z7, (3,), (5,))])
    assert taken == [((27, 26), True), ((7, 7), True), ((7, 2), False)]
    # the differences within one set never reach the kernel
    assert is_subgroup(z7, range(7)) and internal_differences(z7, (0, 1, 3)) == (1, 2, 3, 4, 5, 6)
    assert len(taken) == 3


@pytest.mark.parametrize("g", [CyclicGroup(8), DihedralGroup(4), HeisenbergGroup(3)], ids=repr)
def test_the_route_turns_past_half_the_group(g, monkeypatch):
    """A family of total n/2 takes the support route, one of n/2 + 1 the complement."""
    taken = []

    def recording(*args, real=groups._complement_is_cheaper):
        taken.append(real(*args))
        return taken[-1]

    monkeypatch.setattr(groups, "_complement_is_cheaper", recording)
    n = g.order
    for total, route in ((n // 2, False), (n // 2 + 1, True)):
        members = random.Random(total).sample(range(n), total)
        fam = DisjointFamily.of(g, members[:1], members[1:3], members[3:])
        got = np.vstack([b.copy() for b in difference_count_blocks(g, *packed(fam.sets))])
        assert taken[-1] is route and got.tolist() == ref_counts(fam)
