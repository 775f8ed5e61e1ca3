import hashlib
import importlib
import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import islice, product
from math import lcm
from pathlib import Path

import numpy as np
import pytest

from rwedf import (
    BudgetExceeded,
    CensusStats,
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    DisjointFamily,
    ElementaryAbelianGroup,
    GroupTooLarge,
    InfeasibleParameters,
    SearchSpec,
    classify,
    enumerate_families,
    enumerate_star_partitions,
    group_from_descriptor,
    naive_enumerate,
    rwedf_census,
    write_families_jsonl,
)
from rwedf import census, search
from rwedf.classify import ClassificationReport
from rwedf.family import DifferenceProfile, _check_packed, count_matrix

from helpers import (
    HALF,
    KERNEL_POOL,
    canonical_key,
    coset_z33,
    least_in_orbit,
    mixed_z10,
    reference_orbit_keys,
    weighted_z8,
)


def both(spec):
    fast = enumerate_families(spec)
    slow = naive_enumerate(spec)
    assert [f.sets for f in fast.families] == [f.sets for f in slow.families]
    return fast


def test_unrestricted_matches_naive():
    res = both(SearchSpec(group=CyclicGroup(8), sizes=(3, 3, 2)))
    assert len(res.families) == 280
    assert res.stats.complete


def test_rwedf_z10_frozen_count():
    spec = SearchSpec(group=CyclicGroup(10), sizes=(2, 2, 1, 1), require=frozenset({"rwedf"}))
    res = both(spec)
    assert len(res.families) == 40
    fixture = tuple(sorted(mixed_z10().sets, key=lambda s: (-len(s), s)))
    assert fixture in {f.canonical_key() for f in res.families}
    assert all(classify(f).rwedf == 2 for f in res.families)


def test_rwedf_z33_frozen_count():
    spec = SearchSpec(
        group=ElementaryAbelianGroup(3, 2), sizes=(2, 2, 2, 2), require=frozenset({"rwedf"})
    )
    res = both(spec)
    assert len(res.families) == 81
    assert coset_z33().canonical_key() in {f.canonical_key() for f in res.families}


def test_wedf_z8_frozen_count():
    half = Fraction(1, 2)
    spec = SearchSpec(
        group=CyclicGroup(8),
        sizes=(3, 3, 2),
        require=frozenset({"wedf"}),
        weights=(half, half, half),
    )
    res = both(spec)
    assert len(res.families) == 8
    fam8, _ = weighted_z8()
    assert fam8.canonical_key() in {f.canonical_key() for f in res.families}


def test_bimodal_counts_with_pruning():
    for sizes, expected in (((2, 2, 2, 1), 0), ((4, 2, 1, 1), 4)):
        spec = SearchSpec(group=CyclicGroup(8), sizes=sizes, require=frozenset({"bimodal"}))
        res = both(spec)
        assert len(res.families) == expected
    sizes = (3, 2, 1, 1, 1, 1, 1, 1)
    spec = SearchSpec(group=CyclicGroup(12), sizes=sizes, require=frozenset({"bimodal"}))
    fast = enumerate_families(spec)
    assert len(fast.families) == 12
    # the coset completion cut must shrink the placement tree
    free = enumerate_families(SearchSpec(group=CyclicGroup(12), sizes=sizes))
    assert fast.stats.nodes < free.stats.nodes
    assert fast.stats.pruned > 0


def test_translation_dedup():
    spec = SearchSpec(
        group=CyclicGroup(10),
        sizes=(2, 2, 1, 1),
        require=frozenset({"rwedf"}),
        dedup="translation",
    )
    res = enumerate_families(spec)
    assert len(res.families) == 4
    # each class representative is minimal among its own translates
    for fam in res.families:
        keys = [fam.translate(g).canonical_key() for g in range(fam.n)]
        assert fam.canonical_key() == min(keys)


@pytest.mark.parametrize("dedup", ["none", "translation"])
@pytest.mark.parametrize(
    "group, sizes, require, weights",
    [
        (CyclicGroup(9), (4, 2), frozenset(), None),
        (CyclicGroup(7), (3, 2), frozenset({"wedf"}), (1, HALF)),
        # unequal weights on equal sizes: the walk without symmetry
        (CyclicGroup(5), (2, 2), frozenset({"wedf"}), (1, HALF)),
    ],
)
def test_target_ell_is_the_rwedf_requirement(group, sizes, require, weights, dedup):
    # summed over the n-1 shifts, a constant reciprocal sum ell gives
    # (n-1)*ell = (m-1)*T: the sizes leave one target ell, and the rwedf flag
    # asks for exactly the families that reach it
    ell = Fraction((len(sizes) - 1) * sum(sizes), group.order - 1)
    by_flag = SearchSpec(group=group, sizes=sizes, require=require | {"rwedf"},
                         weights=weights, dedup=dedup)
    unfiltered = replace(by_flag, require=require)
    for run in (enumerate_families, naive_enumerate):
        families = run(unfiltered).families
        reports = [classify(f) for f in families]
        assert {r.rwedf for r in reports} <= {None, ell}
        hits = run(by_flag).families
        assert hits and [f.sets for f in hits] == [
            f.sets for f, r in zip(families, reports) if r.rwedf is not None]


def test_parallel_matches_serial():
    spec = SearchSpec(group=CyclicGroup(10), sizes=(2, 2, 1, 1), require=frozenset({"rwedf"}))
    serial = enumerate_families(spec, workers=1)
    parallel = enumerate_families(spec, workers=4)
    assert len(serial.families) == 40
    assert [f.sets for f in serial.families] == [f.sets for f in parallel.families]
    assert serial.stats.nodes == parallel.stats.nodes > 0


# (group, sizes, requirement keywords, hits without dedup, translation classes);
# unique and tied largest sets alike take the symmetry cut on the largest block
SYMMETRIC_CASES = [
    (CyclicGroup(9), (4, 2), dict(require=frozenset({"rwedf"})), 27, 3),
    (CyclicGroup(7), (2, 2, 2), dict(require=frozenset({"rwedf"})), 21, 3),
    (DihedralGroup(4), (4, 2, 1, 1), dict(require=frozenset({"bimodal"})), 28, 7),
    (DihedralGroup(5), (2, 2, 2), dict(require=frozenset({"bimodal"})), 50, 10),
    (
        DirectProductGroup(CyclicGroup(2), CyclicGroup(4)),
        (4, 2, 1, 1),
        dict(require=frozenset({"wedf"}), weights=(1, 1, HALF, HALF)),
        32,
        4,
    ),
    (ElementaryAbelianGroup(3, 2), (2, 2, 2), dict(require=frozenset({"rwedf"})), 144, 16),
    (ElementaryAbelianGroup(2, 3), (4, 2, 1, 1), dict(require=frozenset({"bimodal"})), 84, 21),
    (ElementaryAbelianGroup(3, 2), (3,), dict(require=frozenset({"rwedf"})), 84, 12),
]


@pytest.mark.parametrize("group, sizes, kwargs, hits, classes", SYMMETRIC_CASES)
def test_symmetric_search_matches_naive(group, sizes, kwargs, hits, classes):
    for dedup, expected in (("none", hits), ("translation", classes)):
        res = both(SearchSpec(group=group, sizes=sizes, dedup=dedup, **kwargs))
        assert len(res.families) == expected
        assert res.stats.complete


def test_symmetric_search_walks_a_smaller_tree():
    spec = SearchSpec(group=CyclicGroup(9), sizes=(4, 2), require=frozenset({"rwedf"}))
    res = enumerate_families(spec)
    # the full walk takes 2,029 nodes; anchoring set 0 at the identity and the
    # symmetry cut on the largest set leave well under a quarter of them
    assert res.stats.nodes < 2029 // 4
    assert res.stats.pruned > 0


@pytest.mark.parametrize(
    "spec",
    [
        # star partitions must keep the identity outside the union
        SearchSpec(group=DihedralGroup(3), sizes=(2, 1, 1, 1), require=frozenset({"star_partition"})),
        SearchSpec(
            group=ElementaryAbelianGroup(3, 2),
            sizes=(2, 2, 2, 2),
            require=frozenset({"star_partition"}),
            dedup="translation",
        ),
        # translation can swap the equal-sized sets that carry different weights
        SearchSpec(
            group=DihedralGroup(3),
            sizes=(1, 1, 1, 1),
            require=frozenset({"wedf"}),
            weights=(1, HALF, HALF, HALF),
        ),
        SearchSpec(
            group=CyclicGroup(5),
            sizes=(2, 2),
            require=frozenset({"wedf"}),
            weights=(1, HALF),
            dedup="translation",
        ),
    ],
)
def test_translation_variant_requirements_walk_the_whole_tree(spec):
    res = both(spec)
    assert res.stats.complete


@pytest.mark.parametrize(
    "group, sizes",
    [(DihedralGroup(3), (2, 1, 1, 1)), (ElementaryAbelianGroup(3, 2), (2, 2, 2, 2))],
)
def test_star_partition_dedup_keeps_least_hit(group, sizes):
    # no translate of a star partition is one (it would hold the identity), so
    # the dedup keeps the least hit of each class, not the least translate
    spec = SearchSpec(group=group, sizes=sizes, require=frozenset({"star_partition"}))
    assert len(both(spec).families) == 1
    deduped = SearchSpec(group=group, sizes=sizes, require=spec.require, dedup="translation")
    assert len(both(deduped).families) == 1


@pytest.mark.parametrize(
    "group, sizes",
    [(ElementaryAbelianGroup(3, 2), (2, 2, 2, 2)), (ElementaryAbelianGroup(2, 3), (3, 1, 1, 1, 1))],
)
def test_star_partition_dedup_expands_no_translation_class(monkeypatch, group, sizes):
    # no two star partitions are translates, so the walk keeps no record of classes
    spec = SearchSpec(group=group, sizes=sizes, require=frozenset({"star_partition"}))
    plain = enumerate_families(spec)
    calls = []

    def counting(*args, real=search._translation_classes):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(search, "_translation_classes", counting)
    deduped = enumerate_families(replace(spec, dedup="translation"))
    assert calls == []
    assert [f.sets for f in deduped.families] == [f.sets for f in plain.families]
    assert deduped.stats == plain.stats


@pytest.mark.parametrize(
    "group, sizes",
    [(ElementaryAbelianGroup(3, 2), (2, 2, 2, 2)), (ElementaryAbelianGroup(2, 3), (3, 1, 1, 1, 1))],
)
def test_naive_star_partition_dedup_translates_nothing(monkeypatch, group, sizes):
    # the oracle keeps every star partition under dedup as the walk does, and runs
    # no translate loop to find that out
    spec = SearchSpec(group=group, sizes=sizes, require=frozenset({"star_partition"}))
    plain = naive_enumerate(spec)
    calls = []

    def counting(family, g, real=DisjointFamily.translate):
        calls.append(g)
        return real(family, g)

    monkeypatch.setattr(DisjointFamily, "translate", counting)
    deduped = naive_enumerate(replace(spec, dedup="translation"))
    assert calls == []
    assert [f.sets for f in deduped.families] == [f.sets for f in plain.families] != []


def test_star_partition_walk_tests_each_set_once(monkeypatch):
    # the spreads of PG(3, 2): 1,876 completed sets, 371 of them distinct
    sets = []

    def counting(group, carrier, real=search.is_subgroup):
        sets.append(tuple(carrier))
        return real(group, carrier)

    monkeypatch.setattr(search, "is_subgroup", counting)
    spec = SearchSpec(group=ElementaryAbelianGroup(2, 4), sizes=(3,) * 5,
                      require=frozenset({"star_partition"}))
    res = enumerate_families(spec)
    digest = hashlib.sha256(repr([f.sets for f in res.families]).encode()).hexdigest()
    assert len(res.families) == 56 and res.stats.complete
    assert digest == "de6cd42cf583aca2df1d56b197f7d55e86214ab6c72f31e2ec103fbbc4799e0f"
    assert res.stats.nodes == 2583
    assert res.stats.pruned_by == dict.fromkeys(search.PRUNE_REASONS, 0) | {"star": 1673}
    assert len(sets) == len(set(sets)) == 371


@pytest.mark.parametrize(
    "spec, hits",
    [
        (SearchSpec(group=CyclicGroup(5), sizes=(2, 2), require=frozenset({"edf", "sedf"})), 5),
        (SearchSpec(group=CyclicGroup(7), sizes=(3, 2), require=frozenset({"gsedf", "rwedf"})), 21),
        # two column caps with different coefficients: weights (2, 1)/2, sizes (2, 3)/6
        (
            SearchSpec(
                group=CyclicGroup(7),
                sizes=(3, 2),
                require=frozenset({"wedf", "rwedf"}),
                weights=(1, HALF),
            ),
            21,
        ),
    ],
)
def test_combined_requirements_match_naive(spec, hits):
    assert len(both(spec).families) == hits


def test_star_partition_needs_total_n_minus_1():
    # sizes adding up to 4 cannot partition the 5 non-identity elements of D_3
    spec = SearchSpec(group=DihedralGroup(3), sizes=(2, 1, 1), require=frozenset({"star_partition"}))
    res = both(spec)
    assert res.families == [] and res.stats.nodes == 0


def test_leaves_run_no_classifier(monkeypatch):
    specs = [
        SearchSpec(group=CyclicGroup(10), sizes=(2, 2, 1, 1), require=frozenset({"rwedf"})),
        SearchSpec(group=CyclicGroup(9), sizes=(2, 2), require=frozenset({"edf"})),
        SearchSpec(group=CyclicGroup(5), sizes=(2, 2), require=frozenset({"sedf"})),
        SearchSpec(group=CyclicGroup(7), sizes=(3, 2), require=frozenset({"gsedf"})),
        SearchSpec(group=CyclicGroup(8), sizes=(3, 3, 2), require=frozenset({"wedf"}),
                   weights=(HALF, HALF, HALF)),
        SearchSpec(group=CyclicGroup(8), sizes=(4, 2, 1, 1), require=frozenset({"bimodal"})),
        SearchSpec(group=DihedralGroup(3), sizes=(2, 1, 1, 1),
                   require=frozenset({"star_partition"})),
    ]
    expected = [[f.sets for f in naive_enumerate(spec).families] for spec in specs]
    assert all(expected)

    def refuse(*args, **kwargs):
        raise AssertionError("a search leaf went through the classifier")

    monkeypatch.setattr(search, "classify", refuse)
    monkeypatch.setattr(search, "classify_many", refuse)
    monkeypatch.setattr(search, "difference_profile", refuse)
    for spec, sets in zip(specs, expected):
        assert [f.sets for f in enumerate_families(spec).families] == sets


@pytest.mark.parametrize(
    "kwargs",
    [dict(require=frozenset({flag})) for flag in ("rwedf", "bimodal", "edf", "sedf", "gsedf")]
    + [dict(require=frozenset({"wedf"}), weights=(1,)),
       dict(require=frozenset({"rwedf", "star_partition"}))],
)
def test_order_one_group_refuses_classifying_flags(kwargs):
    spec = SearchSpec(group=CyclicGroup(1), sizes=(1,), **kwargs)
    for run in (enumerate_families, naive_enumerate):
        with pytest.raises(InfeasibleParameters, match="order 1"):
            run(spec)


def test_order_one_group_searches_without_classifying():
    assert len(both(SearchSpec(group=CyclicGroup(1), sizes=(1,))).families) == 1
    star = SearchSpec(group=CyclicGroup(1), sizes=(1,), require=frozenset({"star_partition"}))
    assert both(star).families == []


def test_cap_counts_expanded_families():
    spec = SearchSpec(group=CyclicGroup(8), sizes=(3, 3, 2), result_cap=3)
    res = enumerate_families(spec, workers=4)
    assert len(res.families) == 3
    assert not res.stats.complete
    every = {f.sets for f in naive_enumerate(SearchSpec(group=CyclicGroup(8), sizes=(3, 3, 2))).families}
    assert {f.sets for f in res.families} <= every
    # with translation dedup the cap counts classes, not orbit members found
    spec = SearchSpec(group=CyclicGroup(9), sizes=(4, 2), require=frozenset({"rwedf"}),
                      dedup="translation", result_cap=3)
    res = enumerate_families(spec)
    assert len(res.families) == 3 and not res.stats.complete
    # a cap above the number of hits returns them all and completes
    spec = SearchSpec(group=CyclicGroup(9), sizes=(4, 2), require=frozenset({"rwedf"}),
                      dedup="translation", result_cap=4)
    res = enumerate_families(spec)
    assert len(res.families) == 3 and res.stats.complete


def test_budget_exhaustion_keeps_genuine_hits():
    spec = SearchSpec(group=CyclicGroup(10), sizes=(2, 2, 1, 1), require=frozenset({"rwedf"}))
    every = {f.sets for f in naive_enumerate(spec).families}
    assert enumerate_families(spec).stats.nodes == 956  # every budget below stops the walk
    partial = []
    for budget in (30, 300, 900):
        with pytest.raises(BudgetExceeded) as info:
            enumerate_families(
                SearchSpec(group=spec.group, sizes=spec.sizes, require=spec.require,
                           node_budget=budget)
            )
        err = info.value
        assert err.stats.nodes <= budget and not err.stats.complete
        found = [f.sets for f in err.families]
        assert found == sorted(found) and set(found) <= every
        partial.append(len(found))
    assert partial == sorted(partial) and partial[-1] > 0


# (group, sizes): a tied and a unique largest block per group, each small
# enough for the generate-and-test oracle
HOLOMORPH_CASES = [
    (CyclicGroup(5), (2, 2)),
    (CyclicGroup(5), (3, 1, 1)),
    (CyclicGroup(6), (2, 2, 2)),
    (CyclicGroup(6), (3, 2, 1)),
    (CyclicGroup(7), (3, 3, 1)),
    (CyclicGroup(7), (4, 2)),
    (CyclicGroup(8), (2, 2, 2, 2)),
    (CyclicGroup(8), (4, 2, 1, 1)),
    (CyclicGroup(9), (2, 2, 2, 2)),
    (CyclicGroup(9), (3, 1, 1)),
    (CyclicGroup(10), (2, 2)),
    (CyclicGroup(10), (3, 1)),
    (CyclicGroup(11), (2, 2)),
    (CyclicGroup(11), (2, 1)),
    (CyclicGroup(12), (2, 2)),
    (CyclicGroup(12), (2, 1)),
    (CyclicGroup(13), (1, 1, 1)),
    (CyclicGroup(13), (2, 1)),
    (CyclicGroup(14), (1, 1, 1)),
    (CyclicGroup(14), (2, 1)),
    (CyclicGroup(15), (1, 1, 1)),
    (CyclicGroup(15), (2, 1)),
    (CyclicGroup(16), (1, 1, 1)),
    (CyclicGroup(16), (2, 1)),
    (DirectProductGroup(CyclicGroup(2), CyclicGroup(4)), (2, 2, 2, 2)),
    (DirectProductGroup(CyclicGroup(2), CyclicGroup(4)), (4, 2, 1, 1)),
    (DirectProductGroup(CyclicGroup(3), CyclicGroup(3)), (2, 2, 2, 2)),
    (DirectProductGroup(CyclicGroup(3), CyclicGroup(3)), (3, 3)),
    (ElementaryAbelianGroup(2, 3), (2, 2, 2, 2)),
    (ElementaryAbelianGroup(2, 3), (4, 2, 1, 1)),
    (ElementaryAbelianGroup(2, 4), (1, 1, 1)),
    (ElementaryAbelianGroup(2, 4), (2, 1)),
    (ElementaryAbelianGroup(3, 2), (2, 2, 2, 2)),
    (ElementaryAbelianGroup(3, 2), (3, 3)),
    (DihedralGroup(3), (2, 2, 1)),
    (DihedralGroup(3), (3, 2, 1)),
    (DihedralGroup(4), (2, 2, 2, 2)),
    (DihedralGroup(4), (4, 2, 1, 1)),
]


def holomorph_flags(sizes):
    flags = [dict(), dict(require=frozenset({"wedf"}), weights=(HALF,) * len(sizes))]
    return flags + [dict(require=frozenset({flag}))
                    for flag in ("rwedf", "bimodal", "edf", "sedf", "gsedf")]


@pytest.fixture
def memo_oracle(monkeypatch):
    """The oracle's classify_many, run once per batch of leaves and weights."""
    cache = {}

    def memo(families, weights=None, run=search.classify_many):
        key = (tuple((id(f.group), f.sets) for f in families), weights)
        if key not in cache:
            cache[key] = run(families, weights)
        return cache[key]

    monkeypatch.setattr(search, "classify_many", memo)


# (group, sizes) with long runs of equal sizes, where the room bound cuts
ROOM_CASES = [
    (CyclicGroup(7), (1,) * 6),
    (CyclicGroup(8), (2, 1, 1, 1, 1)),
    (DihedralGroup(4), (3, 1, 1, 1, 1)),
]


@pytest.mark.parametrize("group, sizes", HOLOMORPH_CASES + ROOM_CASES, ids=str)
def test_holomorph_search_matches_naive(memo_oracle, group, sizes):
    for kwargs in holomorph_flags(sizes):
        for dedup in ("none", "translation"):
            res = both(SearchSpec(group=group, sizes=sizes, dedup=dedup, **kwargs))
            assert res.stats.complete


@pytest.mark.parametrize(
    "group, sizes, require",
    [
        # the coset cut bans the rest of a completed set's coset
        (ElementaryAbelianGroup(2, 3), (4, 1, 1, 1, 1), "bimodal"),
        (ElementaryAbelianGroup(2, 3), (3, 3, 1, 1), "bimodal"),
        (DirectProductGroup(CyclicGroup(2), CyclicGroup(4)), (2, 2, 2, 1, 1), "bimodal"),
        # a star partition bans the identity
        (ElementaryAbelianGroup(2, 3), (1,) * 7, "star_partition"),
        (ElementaryAbelianGroup(2, 3), (3, 1, 1, 1, 1), "star_partition"),
        (ElementaryAbelianGroup(3, 2), (2, 2, 2, 2), "star_partition"),
    ],
    ids=str,
)
def test_room_bound_with_banned_elements_matches_naive(group, sizes, require):
    for dedup in ("none", "translation"):
        res = both(SearchSpec(group=group, sizes=sizes, require=frozenset({require}), dedup=dedup))
        assert res.stats.complete


@pytest.mark.parametrize("sizes, nodes, cosets", [((2, 2, 1, 1), 86, 6), ((2, 2, 2, 1), 61, 13)])
def test_coset_bans_nest(sizes, nodes, cosets):
    # a set's coset bans only the elements still free, and frees only those, so an
    # element an earlier set's coset banned stays banned; freeing it too walks
    # 102 and 64 nodes
    spec = SearchSpec(group=ElementaryAbelianGroup(3, 2), sizes=sizes,
                      require=frozenset({"bimodal"}))
    res = both(spec)
    assert res.stats.complete and res.stats.nodes == nodes
    assert res.stats.pruned_by["coset"] == cosets


@pytest.mark.parametrize(
    "group, sizes",
    [
        (CyclicGroup(7), (1,) * 6),
        (CyclicGroup(8), (2, 1, 1, 1, 1)),
        (CyclicGroup(9), (3, 2, 1, 1)),
        (DihedralGroup(4), (2, 2, 1, 1, 1)),
    ],
    ids=str,
)
def test_search_enters_only_prefixes_that_extend(monkeypatch, group, sizes):
    # with no flags there are no caps and no bans, so every prefix the walk enters
    # must extend to a family of these sizes on the elements it leaves free
    spec = SearchSpec(group=group, sizes=sizes)
    extendable = set()
    for f in naive_enumerate(spec).families:
        for i, members in enumerate(f.sets):
            for k in range(1, len(members) + 1):
                extendable.add((*f.sets[:i], members[:k]))
    entered = []

    def recording(self, x, i, real=search._Searcher._apply):
        entered.append((*map(tuple, self.slots[:i]), (*self.slots[i], x)))
        return real(self, x, i)

    monkeypatch.setattr(search._Searcher, "_apply", recording)
    res = enumerate_families(spec)
    assert res.stats.complete and len(entered) == res.stats.nodes > 0
    assert [p for p in entered if p not in extendable] == []


# the search workload of perfbench/: (spec, hits, nodes with translations,
# automorphisms and the room bound); translations alone walked 87,086 / 26,450 /
# 8,395 nodes, and with automorphisms but no room bound 41,286 / 2,631 / 2,861
BENCH_SPECS = [
    (SearchSpec(group=CyclicGroup(12), sizes=(3, 2, 1, 1, 1, 1, 1, 1),
                require=frozenset({"rwedf"})), 12, 9210),
    (SearchSpec(group=CyclicGroup(11), sizes=(2, 2, 2, 2), dedup="translation"), 1575, 2319),
    (SearchSpec(group=CyclicGroup(16), sizes=(4, 4, 2, 2, 1, 1, 1, 1),
                require=frozenset({"bimodal"})), 36, 2376),
]


@pytest.mark.parametrize("spec, hits, nodes", BENCH_SPECS, ids=["z12", "z11", "z16"])
def test_bench_search_node_ceilings(spec, hits, nodes):
    res = enumerate_families(spec)
    assert len(res.families) == hits and res.stats.complete
    assert res.stats.nodes <= nodes


def test_bench_search_hits_match_perfbench_digests(monkeypatch, tmp_path):
    # the hit digests perfbench checks, computed by its own hits_digest
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    workloads = importlib.import_module("perfbench.workloads")
    jobs = workloads.SEARCH_JOBS["full"]
    assert len(jobs) == len(BENCH_SPECS)
    for (spec, hits, _), (desc, sizes, flags, count, digest) in zip(BENCH_SPECS, jobs):
        assert spec.group.describe() == group_from_descriptor(desc).describe()
        assert ",".join(map(str, spec.sizes)) == sizes
        assert dict(zip(flags[::2], flags[1::2])) == (
            {"--require": ",".join(sorted(spec.require))} if spec.require
            else {"--dedup": spec.dedup})
        path = tmp_path / "hits.jsonl"
        write_families_jsonl(path, enumerate_families(spec).families)
        assert hits == count and workloads.hits_digest(path) == digest


@pytest.mark.parametrize("workload", ["verify", "search", "census", "simulate"])
def test_every_benchmark_job_passes_its_check(monkeypatch, tmp_path, workload):
    # one run of each full perfbench job, checked against its frozen answer as
    # perfbench checks it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    workloads = importlib.import_module("perfbench.workloads")
    jobs = workloads.setup(workload, tmp_path, 1)
    assert jobs and [msg for job in jobs for msg in job.failures(job.call())] == []


def test_perfbench_tracer_finds_every_binding(monkeypatch):
    # perfbench/tracer.py wraps these bindings and stops a traced run at one the
    # program no longer has; uninstall puts every original back
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    tracer = importlib.import_module("perfbench.tracer").Tracer()
    try:
        tracer.install()
        wrapped = list(tracer._undo)
        assert all(getattr(owner, attr) is not old for owner, attr, old in wrapped)
    finally:
        tracer.uninstall()
    assert {"rwedf.search.classify", "rwedf.search.difference_profile",
            "rwedf.search._translation_classes"} <= set(tracer.installed)
    assert all(getattr(owner, attr) is old for owner, attr, old in wrapped)


def test_symmetry_images_once_per_set_0(monkeypatch):
    # each completed largest set's images are sorted once per set 0, and the memo
    # keeps no answer from an earlier set 0
    computed = []
    under = {}  # set -> the set 0 its kept answer was computed under

    def images(self, members, real=search._Searcher._images):
        computed.append((tuple(self.slots[0]), members))
        under[members] = tuple(self.slots[0])
        return real(self, members)

    completed = []

    def image_test(self, i, real=search._Searcher._image_sorts_first):
        cut = real(self, i)
        completed.append(i)
        assert all(under[b] == tuple(self.slots[0]) for b in self.images)
        return cut

    monkeypatch.setattr(search._Searcher, "_images", images)
    monkeypatch.setattr(search._Searcher, "_image_sorts_first", image_test)
    res = enumerate_families(BENCH_SPECS[1][0])
    assert len(res.families) == 1575 and res.stats.nodes == BENCH_SPECS[1][2]
    assert len(computed) == len(set(computed)) == 46
    assert len(completed) == 1581


def test_symmetric_search_expands_through_translation_classes(monkeypatch):
    # perfbench times the tie test and the orbit expansion by wrapping this
    # module-level name, which every leaf of the symmetric walk passes through
    spec = BENCH_SPECS[1][0]
    autos = spec.group.automorphism_subgroup()
    least = []
    expand = search._translation_classes

    def counting(table, auto_array, sizes, keys, dedup, ties):
        for leaf, row in enumerate(keys.tolist()):
            own = ties[ties[:, 0] == leaf, 1:].tolist()
            if least_in_orbit(spec.group, autos, split_key(row, sizes), own):
                least.append(row)
        return expand(table, auto_array, sizes, keys, dedup, ties)

    monkeypatch.setattr(search, "_translation_classes", counting)
    res = enumerate_families(spec)
    assert len(res.families) == 1575
    assert len(least) == len(set(map(tuple, least))) == 170  # one per T x| A orbit


def split_key(row, sizes):
    """A flat key's members split back into sets of the given sizes."""
    members = iter(row)
    return tuple(tuple(islice(members, k)) for k in sizes)


def expand_one(table, autos, key, dedup):
    """``_translation_classes`` on the batch of one key, its rows split back into sets."""
    sizes = tuple(map(len, key))
    flat = np.array([[x for s in key for x in s]], dtype=np.int64)
    rows = search._translation_classes(table, np.array(autos), sizes, flat, dedup)
    return [split_key(row, sizes) for row in rows.tolist()]


def random_key(rng, group, sizes):
    members = rng.sample(range(group.order), sum(sizes))
    bounds = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    return canonical_key([members[lo:hi] for lo, hi in zip(bounds, bounds[1:])])


def random_sizes(rng, n):
    total = rng.randint(1, min(n, 9))
    cuts = sorted(rng.sample(range(1, total), rng.randint(0, min(3, total - 1))))
    return sorted((hi - lo for lo, hi in zip([0, *cuts], [*cuts, total])), reverse=True)


@pytest.mark.parametrize("chunk", [1, search.PAIR_CHUNK])
@pytest.mark.parametrize("group", KERNEL_POOL, ids=repr)
def test_orbit_expansion_matches_scalar_reference(monkeypatch, group, chunk):
    # chunk 1 takes the automorphisms one at a time and merges the parts
    monkeypatch.setattr(search, "PAIR_CHUNK", chunk)
    rng = random.Random(group.order * 1009 + chunk)
    idx = np.arange(group.order)
    table = group.diff_array(idx[:, None], idx)
    autos = group.automorphism_subgroup()
    for _ in range(6):
        key = random_key(rng, group, random_sizes(rng, group.order))
        for dedup in ("none", "translation"):
            got = expand_one(table, autos, key, dedup)
            assert got == reference_orbit_keys(group, autos, key, dedup)


def test_orbit_expansion_of_large_members():
    # two tied sets of 7 in Z_1024, where a base-n int64 code of a set would overflow
    # (1024^7 = 2^70): the sets are ordered by their least members instead
    group = CyclicGroup(1024)
    idx = np.arange(1024)
    table = group.diff_array(idx[:, None], idx)
    autos = [group.automorphism_subgroup()[u] for u in (0, 1, 255, 511)]  # x -> ux, u = 1, 3, 511, 1023
    key = random_key(random.Random(7), group, [7, 7, 3])
    for dedup in ("none", "translation"):
        got = expand_one(table, autos, key, dedup)
        assert got == reference_orbit_keys(group, autos, key, dedup)


@pytest.mark.parametrize("chunk", [1, search.PAIR_CHUNK])
@pytest.mark.parametrize("group", KERNEL_POOL, ids=repr)
def test_batch_expansion_matches_single_keys(monkeypatch, group, chunk):
    # a batch, with random ties or none, is the concatenation of its one-key calls
    monkeypatch.setattr(search, "PAIR_CHUNK", chunk)
    rng = random.Random(group.order * 7919 + chunk)
    idx = np.arange(group.order)
    table = group.diff_array(idx[:, None], idx)
    autos = np.array(group.automorphism_subgroup())
    sizes = tuple(random_sizes(rng, group.order))
    keys = np.array([[x for s in random_key(rng, group, sizes) for x in s] for _ in range(7)])
    ties = np.array([(leaf, rng.choice(keys[leaf]), rng.randrange(len(autos)))
                     for leaf in range(len(keys)) for _ in range(rng.randint(0, 3))],
                    dtype=np.int64).reshape(-1, 3)
    for dedup in ("none", "translation"):
        for batch_ties in (None, ties):
            got = search._translation_classes(table, autos, sizes, keys, dedup, batch_ties)
            parts = []
            for leaf in range(len(keys)):
                own = None if batch_ties is None else ties[ties[:, 0] == leaf] * [0, 1, 1]
                parts.append(search._translation_classes(
                    table, autos, sizes, keys[leaf : leaf + 1], dedup, own))
            assert got.dtype == np.int64
            assert got.tolist() == np.concatenate(parts).tolist()
    empty = search._translation_classes(table, autos, sizes, keys[:0], "none")
    assert empty.shape == (0, sum(sizes))


@pytest.mark.parametrize("spec, hits, nodes", BENCH_SPECS, ids=["z12", "z11", "z16"])
def test_batched_tie_test_matches_scalar_reference(monkeypatch, spec, hits, nodes):
    # every leaf of the symmetric walk is tested in a batch; each verdict is the
    # scalar tie test's on the same key and ties
    autos = spec.group.automorphism_subgroup()
    leaves = []
    test = search._least_keys

    def recording(table, auto_array, sizes, keys, ties):
        least = test(table, auto_array, sizes, keys, ties)
        for leaf, row in enumerate(keys.tolist()):
            own = ties[ties[:, 0] == leaf, 1:].tolist()
            assert own  # the key itself: a = 0 and the identity
            expected = least_in_orbit(spec.group, autos, split_key(row, sizes), own)
            assert bool(least[leaf]) is expected
            leaves.append(expected)
        return least

    monkeypatch.setattr(search, "_least_keys", recording)
    res = enumerate_families(spec)
    assert len(res.families) == hits and res.stats.nodes <= nodes
    assert leaves
    if spec.dedup == "translation":
        assert sum(leaves) == 170 < len(leaves)  # one least key per T x| A orbit


@pytest.mark.parametrize("spec, nodes", [
    (SearchSpec(group=CyclicGroup(11), sizes=(2, 2, 2, 2), dedup="translation",
                result_cap=100), 29),
    (SearchSpec(group=CyclicGroup(13), sizes=(3, 3, 2, 2), dedup="translation",
                result_cap=5000), 794),
], ids=["z11", "z13"])
def test_cap_stops_the_walk_at_the_leaf_that_reaches_it(spec, nodes):
    # the pending leaves are flushed as soon as they could reach the cap, so the
    # walk stops where it did when each leaf was expanded as it was met
    res = enumerate_families(spec)
    assert (len(res.families), res.stats.nodes, res.stats.complete) == (
        spec.result_cap, nodes, False)
    sets = [f.sets for f in res.families]
    assert sets == sorted(sets)
    if spec.group.order == 11:
        assert set(sets) <= {f.sets for f in enumerate_families(BENCH_SPECS[1][0]).families}


def test_budget_flushes_the_pending_leaves():
    spec = SearchSpec(group=CyclicGroup(11), sizes=(2, 2, 2, 2), dedup="translation",
                      node_budget=500)
    with pytest.raises(BudgetExceeded) as info:
        enumerate_families(spec)
    assert len(info.value.families) == 1380 and info.value.stats.nodes == 500
    assert not info.value.stats.complete
    assert [f.sets for f in info.value.families] == sorted(f.sets for f in info.value.families)


def test_dedup_search_memory_stays_near_its_output():
    # before least-key emission, the seen set took 23 MB against 2.8 MB of result
    group = CyclicGroup(11)
    group.diff_rows  # the cached table is the group's, not the search's
    spec = SearchSpec(group=group, sizes=(3, 3, 2, 2), dedup="translation")
    tracemalloc.start()
    try:
        res = enumerate_families(spec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.families) == 6300 and res.stats.complete
    assert peak < 2 * held


@pytest.mark.parametrize(
    "spec, reasons",
    [
        (SearchSpec(group=CyclicGroup(10), sizes=(2, 2, 1, 1), require=frozenset({"rwedf"})),
         {"column": 644, "symmetry": 42}),
        (SearchSpec(group=CyclicGroup(5), sizes=(2, 2), require=frozenset({"sedf"})),
         {"cell": 2, "symmetry": 3}),
        (BENCH_SPECS[2][0], {"coset": 85, "symmetry": 1106}),
        (SearchSpec(group=DihedralGroup(3), sizes=(2, 1, 1, 1),
                    require=frozenset({"star_partition"})), {"star": 9}),
        (SearchSpec(group=CyclicGroup(8), sizes=(2, 2, 1), require=frozenset({"rwedf"})),
         {"infeasible": 1}),
    ],
)
def test_prunes_by_reason(spec, reasons):
    stats = enumerate_families(spec).stats
    assert stats.pruned_by == dict.fromkeys(search.PRUNE_REASONS, 0) | reasons
    assert list(stats.pruned_by) == list(search.PRUNE_REASONS)
    assert stats.pruned == sum(reasons.values())


def test_search_order_guard(monkeypatch):
    big = CyclicGroup(2**16)
    for run in (enumerate_families, naive_enumerate):
        with pytest.raises(GroupTooLarge, match="SEARCH_ORDER_LIMIT"):
            run(SearchSpec(group=big, sizes=(1,)))
    assert "diff_rows" not in vars(big)  # refused before the table is built
    with pytest.raises(GroupTooLarge):
        enumerate_families(SearchSpec(group=CyclicGroup(search.SEARCH_ORDER_LIMIT + 1), sizes=(1,)))
    monkeypatch.setattr(search, "SEARCH_ORDER_LIMIT", 12)  # the limit itself is allowed
    assert len(enumerate_families(SearchSpec(group=CyclicGroup(12), sizes=(1,))).families) == 12
    with pytest.raises(GroupTooLarge):
        enumerate_families(SearchSpec(group=CyclicGroup(13), sizes=(1,)))


@pytest.mark.parametrize("weights", [(HALF, HALF), (HALF,), (HALF, HALF, HALF)])
@pytest.mark.parametrize("require", [frozenset(), frozenset({"rwedf"})])
def test_weights_without_wedf_refused(weights, require):
    spec = SearchSpec(group=CyclicGroup(5), sizes=(2, 2), require=require, weights=weights)
    for run in (enumerate_families, naive_enumerate):
        with pytest.raises(InfeasibleParameters, match="wedf"):
            run(spec)


def test_infeasible_specs():
    with pytest.raises(InfeasibleParameters, match="exceeds group order"):
        enumerate_families(SearchSpec(group=CyclicGroup(5), sizes=(3, 3)))
    with pytest.raises(InfeasibleParameters, match="non-increasing"):
        enumerate_families(SearchSpec(group=CyclicGroup(8), sizes=(2, 3)))
    with pytest.raises(InfeasibleParameters):
        enumerate_families(
            SearchSpec(group=CyclicGroup(8), sizes=(3, 3), require=frozenset({"sparkle"}))
        )
    with pytest.raises(InfeasibleParameters, match="weight"):
        enumerate_families(
            SearchSpec(group=CyclicGroup(8), sizes=(3, 3), require=frozenset({"wedf"}))
        )


def test_unknown_dedup_refused_on_both_paths():
    spec = SearchSpec(group=CyclicGroup(7), sizes=(2, 2), dedup="Translation")
    for run in (enumerate_families, naive_enumerate):
        with pytest.raises(InfeasibleParameters, match="dedup"):
            run(spec)


def test_fractional_target_skips_search():
    # (m-1)*T*lcm(sizes) = 20 is not divisible by n-1 = 7, so the scaled
    # constancy target is fractional and no family can reach it
    spec = SearchSpec(group=CyclicGroup(8), sizes=(2, 2, 1), require=frozenset({"rwedf"}))
    res = enumerate_families(spec)
    assert res.families == []
    assert res.stats.nodes == 0 and res.stats.pruned == 1
    assert naive_enumerate(spec).families == []


def test_budget_exhaustion():
    spec = SearchSpec(group=CyclicGroup(8), sizes=(3, 3, 2), node_budget=50)
    with pytest.raises(BudgetExceeded) as info:
        enumerate_families(spec)
    err = info.value
    assert not err.stats.complete
    assert err.stats.nodes <= 50
    assert 0 < len(err.families) < 280


@pytest.mark.parametrize("field, value", [("result_cap", 0), ("result_cap", -1),
                                          ("node_budget", -3)])
def test_bad_cap_or_budget_refused(field, value):
    spec = SearchSpec(group=CyclicGroup(8), sizes=(3, 3, 2), **{field: value})
    with pytest.raises(InfeasibleParameters):
        enumerate_families(spec)
    with pytest.raises(InfeasibleParameters):
        naive_enumerate(spec)


def test_result_cap():
    spec = SearchSpec(group=CyclicGroup(8), sizes=(3, 3, 2), result_cap=5)
    res = enumerate_families(spec)
    assert len(res.families) == 5
    assert not res.stats.complete


def test_naive_oracle_stops_at_the_cap_before_the_budget():
    # its nodes are its leaves: at the fourth leaf the three met hold two hits,
    # so the run ends at the cap and does not raise, as the walk does
    spec = SearchSpec(group=CyclicGroup(7), sizes=(2, 1), node_budget=3, result_cap=2)
    res = naive_enumerate(spec)
    assert res.stats.nodes == 3 and not res.stats.complete
    assert [f.sets for f in res.families] == [((0, 1), (2,)), ((0, 1), (3,))]
    walk = enumerate_families(spec)
    assert len(walk.families) == 2 and not walk.stats.complete


def test_naive_oracle_raises_at_the_budget_before_the_cap():
    spec = SearchSpec(group=CyclicGroup(7), sizes=(2, 1), node_budget=3, result_cap=5)
    with pytest.raises(BudgetExceeded, match="node budget exhausted") as info:
        naive_enumerate(spec)
    err = info.value
    assert err.stats.nodes == 3 and not err.stats.complete
    assert [f.sets for f in err.families] == [((0, 1), (2,)), ((0, 1), (3,)), ((0, 1), (4,))]


@pytest.mark.parametrize("sizes, require, dedup", [((2, 2), (), "translation"),
                                                    ((3, 3), ("rwedf",), "none")])
def test_naive_oracle_budget_keeps_the_hits_met(sizes, require, dedup):
    # the leaves come in canonical order, so the hits among the first leaves,
    # filtered and deduplicated as a full run is, begin the full run's list
    spec = SearchSpec(group=CyclicGroup(7), sizes=sizes, require=frozenset(require), dedup=dedup)
    full = [f.sets for f in naive_enumerate(spec).families]
    for budget in (0, 20, 60):  # of 105 and 70 leaves
        with pytest.raises(BudgetExceeded) as info:
            naive_enumerate(replace(spec, node_budget=budget))
        got = [f.sets for f in info.value.families]
        assert info.value.stats.nodes == budget
        assert got == full[: len(got)]
        assert budget < 60 or got  # the full run has hits among its first 60 leaves


def test_naive_oracle_honours_the_result_cap():
    group = CyclicGroup(7)
    full = naive_enumerate(SearchSpec(group=group, sizes=(2, 1)))
    hits = [f.sets for f in full.families]
    assert full.stats.complete and len(hits) == 105
    for cap, complete in ((2, False), (len(hits), False), (len(hits) + 1, True)):
        spec = SearchSpec(group=group, sizes=(2, 1), result_cap=cap)
        res = naive_enumerate(spec)
        assert [f.sets for f in res.families] == hits[:cap]
        assert res.stats.complete is complete
        assert enumerate_families(spec).stats.complete is complete  # as the walk reports it


def test_star_partitions_dihedral():
    d10 = DihedralGroup(5)
    parts = enumerate_star_partitions(d10)
    assert len(parts) == 2
    assert [s.carrier for s in parts[0]] == [tuple(range(10))]
    carriers = [s.carrier for s in parts[1]]
    assert (0, 1, 2, 3, 4) in carriers
    assert len(carriers) == 6


def test_star_partitions_elementary_abelian():
    parts = enumerate_star_partitions(ElementaryAbelianGroup(3, 2))
    assert len(parts) == 2
    assert len(parts[1]) == 4  # the four order-3 lines


def test_star_partitions_node_budget():
    group = ElementaryAbelianGroup(2, 3)
    assert len(enumerate_star_partitions(group, node_budget=37)) == 9  # 37 stars placed
    with pytest.raises(BudgetExceeded):
        enumerate_star_partitions(group, node_budget=36)
    with pytest.raises(InfeasibleParameters):
        enumerate_star_partitions(group, node_budget=-1)
    assert enumerate_star_partitions(CyclicGroup(1), node_budget=0) == [[]]


def test_star_partitions_take_the_budget_by_keyword_only():
    # a positional second argument, once the order limit, must not become a budget
    with pytest.raises(TypeError):
        enumerate_star_partitions(ElementaryAbelianGroup(2, 3), 128)


def test_star_partitions_cyclic_only_trivial():
    for n in (5, 6, 12):
        parts = enumerate_star_partitions(CyclicGroup(n))
        assert len(parts) == 1


def test_census_cross_checks_run():
    stats = rwedf_census(CyclicGroup(5), cross_check_every=7)
    assert stats.families == 202
    assert stats.cross_checked == 202 // 7
    assert stats.cross_failures == 0


def test_census_frozen_counts():
    # rwedf counts among all nonempty families (any support, any partition)
    frozen = {2: (4, 4), 3: (14, 14), 4: (51, 24), 5: (202, 52), 6: (876, 82), 7: (4139, 289)}
    for n, (families, hits) in frozen.items():
        stats = rwedf_census(CyclicGroup(n))
        assert stats.families == families, n
        assert stats.rwedf == hits, n
        assert stats.violations == 0


def test_census_nonabelian():
    stats = rwedf_census(DihedralGroup(3), cross_check_every=11)
    assert stats.families == 876
    assert stats.violations == 0
    assert stats.cross_failures == 0


def reference_census(group, record=None):
    """The unweighted census sweep: every support, every set partition, one at a time.

    Appends each family's canonical key to ``record`` when one is given.
    """
    n = group.order
    diff = group.diff_rows
    stats = CensusStats()
    blocks = []
    counts = [0] * (n * n)  # row b at offset b*n
    owner = [-1] * n
    placed = []

    def leaf():
        if not blocks:
            return
        stats.families += 1
        if record is not None:
            record.append(DisjointFamily.of(group, *blocks).canonical_key())
        sizes = [len(b) for b in blocks]
        m = len(sizes)
        k_lcm = lcm(*sizes)
        sums = [sum(k_lcm // len(b) * counts[i * n + d] for i, b in enumerate(blocks))
                for d in range(1, n)]
        constant = len(set(sums)) <= 1
        meets_bound = max(sums, default=0) * (n - 1) == k_lcm * (m - 1) * sum(sizes)
        stats.violations += constant != meets_bound
        stats.rwedf += constant

    def place(x, b, sign):
        for y in placed:
            j = owner[y]
            if j != b:
                counts[b * n + diff[x][y]] += sign
                counts[j * n + diff[y][x]] += sign

    def rec(x):
        if x == n:
            leaf()
            return
        rec(x + 1)  # skip x
        open_blocks = len(blocks)
        for b in range(open_blocks + 1):
            if b == open_blocks:
                blocks.append([])
            place(x, b, +1)
            owner[x] = b
            placed.append(x)
            blocks[b].append(x)
            rec(x + 1)
            blocks[b].pop()
            placed.pop()
            owner[x] = -1
            place(x, b, -1)
            if b == open_blocks:
                blocks.pop()

    rec(0)
    return stats


CENSUS_GROUPS = [CyclicGroup(n) for n in range(1, 9)] + [
    DihedralGroup(3),
    DihedralGroup(4),
    DirectProductGroup(CyclicGroup(2), CyclicGroup(4)),
    ElementaryAbelianGroup(2, 3),
    ElementaryAbelianGroup(3, 2),
]


@pytest.mark.parametrize("group", CENSUS_GROUPS, ids=repr)
def test_census_orbits_match_full_sweep(group):
    stats = rwedf_census(group)
    ref = reference_census(group)
    assert (stats.families, stats.rwedf, stats.violations) == (
        ref.families, ref.rwedf, ref.violations)
    assert stats.violations == 0
    # one representative per support orbit: fewer leaves than families once n > 2
    assert stats.supports <= stats.leaves <= stats.families
    if group.order > 2:
        assert stats.leaves < stats.families


@pytest.mark.parametrize("group, families", [(CyclicGroup(5), 202), (DihedralGroup(3), 876)])
def test_census_cross_checks_every_genuine_family(monkeypatch, group, families):
    check_every_genuine_family(monkeypatch, group, families)


@pytest.mark.parametrize("block, batch", [(240, 7), (census.CENSUS_BLOCK, census.CROSS_CHECK_BATCH)])
def test_census_cross_checks_every_genuine_family_split_rows(monkeypatch, block, batch):
    # the supports of Z_2^3 that are unions of cosets have non-trivial stabilisers and
    # fewer than n translates; 240 cells grow a block for the 8 points of the whole
    # support from 2 of its 877 prefixes, and batches of 7 split each block's crossings
    monkeypatch.setattr(census, "CENSUS_BLOCK", block)
    monkeypatch.setattr(census, "CROSS_CHECK_BATCH", batch)
    batches = check_every_genuine_family(monkeypatch, ElementaryAbelianGroup(2, 3), 21146)
    # full batches across blocks and supports, and the rest at the end
    assert batches == [batch] * (21146 // batch) + [21146 % batch] * (21146 % batch > 0)


def packed_sets(parts, sizes, elems):
    """The sets of each packed family, as tuples of member tuples, in order."""
    members = iter(elems.tolist())
    sets = iter([tuple(islice(members, k)) for k in sizes.tolist()])
    return [tuple(islice(sets, m)) for m in parts.tolist()]


def check_every_genuine_family(monkeypatch, group, families):
    """Cross-check every family of the census; return the sizes of the batches checked."""
    checked = []
    batches = []

    def recording_sums(group, parts, sizes, elems, real=census._kernel_sums):
        checked.extend(DisjointFamily(group, sets).canonical_key()
                       for sets in packed_sets(parts, sizes, elems))
        batches.append(len(parts))
        return real(group, parts, sizes, elems)

    monkeypatch.setattr(census, "_kernel_sums", recording_sums)
    stats = rwedf_census(group, cross_check_every=1)
    every = []
    reference_census(group, record=every)
    assert stats.families == stats.cross_checked == len(checked) == families
    assert stats.cross_failures == 0
    assert len(set(checked)) == len(set(every)) == families
    assert set(checked) == set(every)
    return batches


def test_census_cross_check_catches_a_wrong_report(monkeypatch):
    perturbed = []

    def perturbing_sums(group, parts, sizes, elems, real=census._kernel_sums):
        got = real(group, parts, sizes, elems)
        if len(parts) and not perturbed:
            got[-1, 0] += 1  # the batch's last family's first sum moves by 1 / lcm(1..n)
            perturbed.append(packed_sets(parts, sizes, elems)[-1])
        return got

    monkeypatch.setattr(census, "_kernel_sums", perturbing_sums)
    stats = rwedf_census(DihedralGroup(3), cross_check_every=5)
    assert len(perturbed) == 1
    assert stats.cross_checked == 876 // 5 and stats.cross_failures == 1


def test_census_cross_check_catches_a_wrong_least_sum(monkeypatch):
    # a least sum of a non-constant family raised by 1 keeps its largest sum, its
    # non-constancy and its R-optimal verdict: only the sums themselves show it
    raised = []

    def raising_stack(group, total, parts, sizes, elems, real=census._stack_profiles):
        stack = real(group, total, parts, sizes, elems)
        sums = stack.reciprocal
        spread = sums.max(axis=1) - sums.min(axis=1)
        if not raised and (spread >= 2).any():
            f = int(np.argmax(spread >= 2))
            sums[f, sums[f].argmin()] += 1
            raised.append(f)
        return stack

    monkeypatch.setattr(census, "_stack_profiles", raising_stack)
    stats = rwedf_census(DihedralGroup(3), cross_check_every=5)
    assert len(raised) == 1
    assert stats.cross_checked == 876 // 5 and stats.cross_failures == 1


@pytest.mark.parametrize("group", [CyclicGroup(6), DihedralGroup(3)], ids=repr)
@pytest.mark.parametrize("every", [3, 7, 11])
def test_census_cross_check_count(group, every):
    stats = rwedf_census(group, cross_check_every=every)
    assert stats.families == 876
    assert stats.cross_checked == stats.families // every
    assert stats.cross_failures == 0


def test_census_refuses_a_negative_cross_check_interval():
    with pytest.raises(ValueError, match="cross_check_every must be 0 or positive, got -7"):
        rwedf_census(CyclicGroup(6), cross_check_every=-7)


@pytest.mark.parametrize("every", [2.5, True, False, "3", None, Fraction(3)])
def test_census_refuses_a_cross_check_interval_that_is_not_an_integer(every):
    with pytest.raises(TypeError, match=re.escape(f"cross_check_every {every!r} is not an integer")):
        rwedf_census(CyclicGroup(6), cross_check_every=every)


def test_census_takes_a_numpy_integer_interval():
    assert rwedf_census(CyclicGroup(6), cross_check_every=np.int64(7)) == rwedf_census(
        CyclicGroup(6), cross_check_every=7)


def test_census_of_the_trivial_group_crosses_nothing():
    # classification needs n >= 2, so the one family of Z_1 is counted and never crossed
    stats = rwedf_census(CyclicGroup(1), cross_check_every=1)
    assert (stats.families, stats.rwedf, stats.cross_checked, stats.cross_failures) == (1, 1, 0, 0)


@pytest.mark.parametrize("group", [DihedralGroup(3), CyclicGroup(6), ElementaryAbelianGroup(2, 3)],
                         ids=repr)
def test_census_verdicts_match_classify(monkeypatch, group):
    # the verdicts read off every crossed family's kernel sums against classify's report
    seen = []

    def recording_sums(group, parts, sizes, elems, real=census._kernel_sums):
        got = real(group, parts, sizes, elems)
        seen.extend(zip(packed_sets(parts, sizes, elems), got.tolist()))
        return got

    monkeypatch.setattr(census, "_kernel_sums", recording_sums)
    stats = rwedf_census(group, cross_check_every=1)
    assert len(seen) == stats.cross_checked == stats.families and stats.cross_failures == 0
    n, scale = group.order, lcm(*range(1, group.order + 1))
    for sets, sums in seen:
        m, total, top = len(sets), sum(map(len, sets)), max(sums)
        report = classify(DisjointFamily(group, sets))
        flat = len(set(sums)) == 1
        assert flat == (report.rwedf is not None), sets
        if flat:
            assert Fraction(sums[0], scale) == report.rwedf, sets
        assert Fraction(top, scale * m) == report.e_hat, sets
        # e_hat = top / (scale * m) meets (m - 1) * T / (m * (n - 1))
        assert (top * (n - 1) == (m - 1) * total * scale) == report.r_optimal, sets


def test_census_cross_checks_build_no_family_objects(monkeypatch):
    # the crossed families reach the pair kernel packed: no family, profile or report
    # object is made for them
    made = []

    def counting(cls):
        real = cls.__init__

        def init(self, *args, **kwargs):
            made.append(cls.__name__)
            real(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)

    for cls in (DisjointFamily, DifferenceProfile, ClassificationReport):
        counting(cls)
    classify(DisjointFamily.of(CyclicGroup(5), (0,), (1, 2)))
    assert made == ["DisjointFamily", "DifferenceProfile", "ClassificationReport"]
    made.clear()
    stats = rwedf_census(DihedralGroup(4), cross_check_every=7)
    assert (stats.cross_checked, stats.cross_failures) == (3020, 0)
    assert made == []


@pytest.mark.parametrize("total, parts, sizes, elems, message", [
    (3, [2], [1, 2], [0, 1, 2], None),
    (3, [2], [1, 2], [0, 1, 6], "outside 0..5"),
    (3, [2], [1, 2], [-1, 1, 2], "outside 0..5"),
    (3, [2], [1, 2], [0, 2, 1], "not strictly increasing"),
    (3, [2], [1, 2], [0, 2, 2], "not strictly increasing"),
    (3, [2], [1, 2], [2, 1, 2], "overlapping"),
    (2, [1, 2], [2, 1, 1], [0, 1, 3, 3], "overlapping"),
    (3, [2], [3, 0], [0, 1, 2], "empty set"),
    (3, [2, 1], [1, 2, 2], [0, 1, 2, 3, 4], "3 elements"),
])
def test_packed_families_are_checked(total, parts, sizes, elems, message):
    args = (CyclicGroup(6), total, *(np.array(a, dtype=np.int64) for a in (parts, sizes, elems)))
    if message is None:
        _check_packed(*args)
    else:
        with pytest.raises(ValueError, match=message):
            _check_packed(*args)


def rgs_reference(s):
    """Restricted growth strings of s points in lex order, filtered from itertools.product."""
    rows = []
    for row in product(*(range(i + 1) for i in range(s))):
        if all(row[i] <= 1 + max(row[:i]) for i in range(1, s)):
            rows.append(row)
    return rows


@pytest.mark.parametrize("s", range(1, 9))
@pytest.mark.parametrize("block", [1, 3, 64, census.CENSUS_BLOCK])
def test_set_partitions_lex_order(monkeypatch, s, block):
    monkeypatch.setattr(census, "CENSUS_BLOCK", block)
    table = np.random.default_rng(s).integers(0, 1000, (1 << s, 3))
    table[0] = 0
    blocks = list(census._set_partitions(table))
    chunks = [rgs for rgs, _, _ in blocks]
    assert all(c.dtype == np.int8 and len(c) <= s * block for c in chunks)
    # a row holds s mask and 3 sum cells: a block stays within CENSUS_BLOCK cells, or
    # grows from a single row for s - 1 points when one such row alone passes it
    assert all(len(c) * (s + 3) <= max(block, s * (s + 3)) for c in chunks)
    rows = [tuple(r) for c in chunks for r in c.tolist()]
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    assert len(rows) == len(set(rows)) == bell[s]
    assert rows == rgs_reference(s)
    # the carried masks are each row's blocks, and the carried sums their table rows
    bits = 1 << np.arange(s)
    for rgs, masks, sums in blocks:
        assert masks.shape == (len(rgs), s)
        expect = [[int(bits[row == a].sum()) for a in range(s)] for row in rgs]
        assert masks.tolist() == expect
        assert np.array_equal(sums, table[masks].sum(axis=1))


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("group", [CyclicGroup(6), DihedralGroup(3),
                                   ElementaryAbelianGroup(2, 3)], ids=repr)
def test_census_block_size_free(monkeypatch, group, block):
    monkeypatch.setattr(census, "CENSUS_BLOCK", block)
    stats = rwedf_census(group)
    ref = reference_census(group)
    assert (stats.families, stats.rwedf, stats.violations) == (
        ref.families, ref.rwedf, ref.violations)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_census_cross_checks_block_size_free(monkeypatch, block):
    monkeypatch.setattr(census, "CENSUS_BLOCK", block)
    check_every_genuine_family(monkeypatch, DihedralGroup(3), 876)


# sha256 of repr([family.sets, ...]) in the order the cross-check saw them, from the
# recursive census that came before the block sweep
CROSS_CHECK_DIGESTS = [
    (CyclicGroup(6), 7, 125, "1c0b9b434972e14c8f2c52b0d3e5392efd3d45a4b1a43ed2d2de1a5fd5decfbd"),
    (DihedralGroup(3), 11, 79, "b7705565705050bdd8cdedbcf58e1ebc5e5836af04aa62398cdfb8b2bdb32765"),
    (DihedralGroup(4), 7, 3020, "0027ff8f9b7a507bcce6d2d016934ccbd38026b767ea891c43f4fb0983809c76"),
]


@pytest.mark.parametrize("block", [1, census.CENSUS_BLOCK])
@pytest.mark.parametrize("group, every, count, digest", CROSS_CHECK_DIGESTS)
def test_census_cross_check_positions_frozen(monkeypatch, block, group, every, count, digest):
    monkeypatch.setattr(census, "CENSUS_BLOCK", block)
    checked = []

    def recording_sums(group, parts, sizes, elems, real=census._kernel_sums):
        checked.extend(packed_sets(parts, sizes, elems))
        return real(group, parts, sizes, elems)

    monkeypatch.setattr(census, "_kernel_sums", recording_sums)
    stats = rwedf_census(group, cross_check_every=every)
    assert stats.cross_checked == len(checked) == count
    assert hashlib.sha256(repr(checked).encode()).hexdigest() == digest


def test_census_z11_frozen():
    stats = rwedf_census(CyclicGroup(11))
    assert (stats.families, stats.rwedf, stats.violations) == (4213596, 3082, 0)
    assert (stats.leaves, stats.supports) == (999936, 187)


def test_census_counters_frozen():
    z10 = rwedf_census(CyclicGroup(10))
    assert (z10.families, z10.rwedf, z10.leaves, z10.supports) == (678569, 1374, 174565, 107)
    d4 = rwedf_census(DihedralGroup(4), cross_check_every=7)
    assert (d4.families, d4.rwedf, d4.cross_checked) == (21146, 296, 3020)
    assert (d4.leaves, d4.supports, d4.cross_failures) == (6842, 42, 0)


def test_census_without_bitwise_count(monkeypatch):
    # np.bitwise_count is new in numpy 2.0; the subset table sizes its blocks without it
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    stats = rwedf_census(CyclicGroup(6))
    assert (stats.families, stats.rwedf) == (876, 82)


def test_census_times_its_cross_checks():
    plain = rwedf_census(CyclicGroup(6))
    assert plain.cross_check_s == 0.0 and plain.elapsed_s > 0
    checked = rwedf_census(CyclicGroup(6), cross_check_every=3)
    assert checked.cross_checked == 292
    assert 0 < checked.cross_check_s <= checked.elapsed_s
    # the times vary from run to run, so neither == nor repr reads them
    again = rwedf_census(CyclicGroup(6), cross_check_every=3)
    assert again == checked and repr(again) == repr(checked)
    assert "elapsed_s" not in repr(checked)


def test_census_cross_check_time_holds_every_batch(monkeypatch):
    # a clock that moves one second in each batch's kernel sums and stands still otherwise
    clock = [0.0]
    batches = []

    def ticking_sums(group, parts, sizes, elems, real=census._kernel_sums):
        clock[0] += 1
        batches.append(len(parts))
        return real(group, parts, sizes, elems)

    monkeypatch.setattr(census, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(census, "_kernel_sums", ticking_sums)
    monkeypatch.setattr(census, "CROSS_CHECK_BATCH", 5)
    stats = rwedf_census(DihedralGroup(3), cross_check_every=2)
    assert batches == [5] * 87 + [3]
    assert stats.cross_check_s == stats.elapsed_s == len(batches)


def test_census_order_guard(monkeypatch):
    assert census._census_scale(40) == lcm(*range(1, 41))
    big = CyclicGroup(2**20)
    with pytest.raises(GroupTooLarge, match="DENSE_CELL_LIMIT"):
        rwedf_census(big)
    assert "diff_rows" not in vars(big)  # refused before the table is built
    # every order from 21 up is refused by the cell limit, and says so
    with pytest.raises(GroupTooLarge,
                       match=r"2\^41 x 40 = 87960930222080 cells, past DENSE_CELL_LIMIT"):
        rwedf_census(CyclicGroup(41))
    # the subset table of the whole group: 2^21 x 20 cells pass DENSE_CELL_LIMIT
    z21 = CyclicGroup(21)
    with pytest.raises(GroupTooLarge, match="DENSE_CELL_LIMIT"):
        rwedf_census(z21)
    assert "diff_rows" not in vars(z21)
    # Z_5 needs 2^5 x 4 = 128 cells
    monkeypatch.setattr(census, "DENSE_CELL_LIMIT", 127)
    with pytest.raises(GroupTooLarge, match="128 cells"):
        rwedf_census(CyclicGroup(5))
    monkeypatch.setattr(census, "DENSE_CELL_LIMIT", 128)
    assert rwedf_census(CyclicGroup(5)).families == 202


@pytest.mark.parametrize("group", [CyclicGroup(6), DihedralGroup(3), ElementaryAbelianGroup(2, 3),
                                   ElementaryAbelianGroup(3, 2)], ids=repr)
def test_subset_table_matches_the_profile_kernel(group):
    n = group.order
    scale = lcm(*range(1, n + 1))
    for support in (list(range(n)), list(range(1, n, 2))):
        table = census._subset_table(group, support, scale)
        s = len(support)
        assert table.shape == (1 << s, n - 1) and table.dtype == np.int64
        assert not table[0].any() and not table[-1].any()
        for mask in range(1, (1 << s) - 1):
            block = [x for i, x in enumerate(support) if mask >> i & 1]
            rest = [x for x in support if x not in block]
            counts = count_matrix(DisjointFamily.of(group, block, rest))[0]
            assert table[mask].tolist() == (scale // len(block) * counts).tolist(), (support, mask)


@pytest.mark.parametrize("value", [True, 2.5, "2"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("field", ["sizes", "node_budget", "result_cap"])
@pytest.mark.parametrize("walk", [enumerate_families, naive_enumerate])
def test_search_counts_must_be_integers(walk, field, value):
    given = {"sizes": (value, 1), "node_budget": value, "result_cap": value}[field]
    spec = replace(SearchSpec(group=CyclicGroup(7), sizes=(2, 1)), **{field: given})
    with pytest.raises(TypeError, match="is not an integer"):
        walk(spec)


@pytest.mark.parametrize("walk", [enumerate_families, naive_enumerate])
def test_search_reads_numpy_integer_counts(walk):
    g = CyclicGroup(7)
    plain = walk(SearchSpec(group=g, sizes=(2, 1), node_budget=1000, result_cap=5))
    numpy = walk(SearchSpec(group=g, sizes=(np.int64(2), np.int32(1)),
                            node_budget=np.int64(1000), result_cap=np.int16(5)))
    assert numpy.families == plain.families and numpy.stats == plain.stats


@pytest.mark.parametrize("walk", [enumerate_families, naive_enumerate])
def test_search_refuses_a_string_of_flags(walk):
    # a str is a collection of its letters; it is refused, not read as flags 'r', 'w', ...
    with pytest.raises(TypeError, match="'rwedf'"):
        walk(SearchSpec(group=CyclicGroup(7), sizes=(2, 1), require="rwedf"))


@pytest.mark.parametrize("value", [True, 2.5, "2"], ids=["bool", "float", "str"])
def test_star_partitions_budget_must_be_an_integer(value):
    with pytest.raises(TypeError, match="node budget"):
        enumerate_star_partitions(ElementaryAbelianGroup(2, 3), node_budget=value)
    assert len(enumerate_star_partitions(ElementaryAbelianGroup(2, 3),
                                         node_budget=np.int64(37))) == 9


def test_star_partitions_refuse_an_order_past_the_limit():
    with pytest.raises(GroupTooLarge, match="star partition limit 128"):
        enumerate_star_partitions(CyclicGroup(search.STAR_PARTITION_ORDER_LIMIT + 1))


@pytest.mark.parametrize("flag", ["edf", "sedf", "gsedf"])
def test_one_set_meets_no_difference_family_flag(flag):
    # edf, sedf and gsedf each need two sets; the walk places no node, the oracle tests all
    spec = SearchSpec(group=CyclicGroup(5), sizes=(2,), require=frozenset({flag}))
    walked = enumerate_families(spec)
    assert walked.families == [] and walked.stats.nodes == 0
    assert walked.stats.pruned_by["infeasible"] == 1 and walked.stats.complete
    oracle = naive_enumerate(spec)
    assert oracle.families == [] and oracle.stats.nodes == 10
