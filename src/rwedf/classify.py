"""Classifiers for external difference family variants and a combined report.

Family kinds, all over one group G of order n with m disjoint sets of sizes
k_1..k_m and T = sum k_i:

  EDF    equal sizes, sum_i N_i(delta) constant over delta != 0
  SEDF   every single row N_i constant (equal sizes, m >= 2)
  GSEDF  row i constant with its own value lambda_i
  WEDF   weighted row sum with given weights constant
  RWEDF  the reciprocal weighting 1/k_i; the constant is called ell

The worst-case adversary rate e_hat equals the averaging bound exactly when
the family is an RWEDF, which is what makes this weighting the optimal one.

Every check reads the reductions of one streamed ``difference_profile``,
never the m x (n-1) count matrix: the reciprocal column sums (the plain
column sums when sizes are equal, and K times the non-zero rows per column
when the family is bimodal), the weighted column sums when weights are
given, the rows' values when every row is constant, and the first bimodal
witness.  ``classify_many`` builds the same reports for many families from
``difference_profiles``, which counts the pairs of many families of one group
and one total in one kernel pass.

Each predicate has one implementation, its public reader (``check_edf``,
``check_sedf``, ``check_gsedf``, ``check_rwedf``, ``rwedf_failure_witness``,
``is_bimodal``), and a report holds those readers' values over the shared
profile, e_hat's and r_bound's among them; it derives only what no reader
gives: the R-optimal test, e_hat == r_bound, and the structure checks on ell.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .family import (
    DifferenceProfile,
    DisjointFamily,
    _profile_of,
    check_weights,
    difference_profile,
    difference_profiles,
    e_hat,
    is_bimodal,
    r_bound,
    BimodalVerdict,
)
from .groups import FiniteGroup, self_difference_counts


def check_edf(profile: DifferenceProfile) -> Optional[int]:
    """Common column sum if sizes are equal, m >= 2, and sums are constant."""
    fam = profile.family
    if fam.m < 2 or len(set(fam.sizes)) != 1:
        return None
    # equal sizes k: K = k and every reciprocal weight K / k is 1
    sums = profile.reciprocal
    if sums.count(sums[0]) != len(sums):
        return None
    return sums[0]


def check_sedf(profile: DifferenceProfile) -> Optional[int]:
    """Common per-row count if every row is constant with one shared value."""
    fam = profile.family
    if fam.m < 2 or len(set(fam.sizes)) != 1:
        return None
    values = profile.row_constants
    if values is None or values.count(values[0]) != len(values):
        return None
    return values[0]


def check_gsedf(profile: DifferenceProfile) -> Optional[Tuple[int, ...]]:
    """Per-row constants (lambda_1..lambda_m) if each row is constant."""
    if profile.family.m < 2:
        return None
    return profile.row_constants


def _constant_value(sums: Sequence[int], denominator: int) -> Optional[Fraction]:
    """sums[0] / denominator when every entry of the scaled sums is equal."""
    if not sums or sums.count(sums[0]) != len(sums):
        return None
    return Fraction(sums[0], denominator)


def check_wedf(
    family: DisjointFamily,
    profile: DifferenceProfile,
    weights: Sequence[Fraction],
) -> Optional[Fraction]:
    """Constant weighted column sum under the given weights, if constant.

    Reads the profile's weighted sums when it was taken with these weights,
    and profiles the family once more otherwise.
    """
    profile = _profile_of(family, profile, check_weights(family.m, weights))
    return _constant_value(profile.weighted, profile.weight_scale)


def check_rwedf(
    family: DisjointFamily, profile: Optional[DifferenceProfile] = None
) -> Optional[Fraction]:
    """The constant ell = sum_i N_i(delta)/k_i, or None if it varies."""
    profile = _profile_of(family, profile)
    return _constant_value(profile.reciprocal, profile.scale)


def rwedf_failure_witness(
    family: DisjointFamily, profile: DifferenceProfile
) -> Optional[int]:
    """Smallest delta whose reciprocal sum differs from delta = 1's, if any."""
    sums = _profile_of(family, profile).reciprocal
    first = sums[0]
    for d, s in enumerate(sums, start=1):
        if s != first:
            return d
    return None


def check_difference_set(group: FiniteGroup, members: Sequence[int]) -> Optional[int]:
    """lambda if every non-identity element arises exactly lambda times as d1*d2^-1."""
    counts = self_difference_counts(group, members)[1:]
    if (counts != counts[:1]).any():
        return None
    return int(counts[0]) if len(counts) else 0


def check_partial_difference_set(
    group: FiniteGroup, members: Sequence[int]
) -> Optional[Tuple[int, int]]:
    """(lambda, mu) multiplicities split between members and non-members.

    Internal differences must hit every delta in d \\ {0} lambda times and every
    delta outside d (and != 0) mu times.  Abelian groups only; sets of size
    at most 1 report absent by convention.
    """
    if not group.abelian:
        raise ValueError("partial difference sets are defined here for abelian groups")
    ms = sorted(set(members))
    if len(ms) <= 1:
        return None
    counts = self_difference_counts(group, ms)
    inside = np.zeros(group.order, dtype=bool)
    inside[ms] = True
    inside_counts = set(counts[1:][inside[1:]].tolist())
    outside_counts = set(counts[1:][~inside[1:]].tolist())
    if len(inside_counts) > 1 or len(outside_counts) > 1:
        return None
    lam = inside_counts.pop() if inside_counts else 0
    mu = outside_counts.pop() if outside_counts else 0
    return lam, mu


def m2_ell_bound_holds(n: int, ell: Fraction) -> bool:
    """Exact test of ell^2 >= 2/(n-1), the two-set lower bound on ell."""
    return Fraction(ell) ** 2 >= Fraction(2, n - 1)


def m2_ell_bound_tight(n: int, ell: Fraction) -> bool:
    return Fraction(ell) ** 2 == Fraction(2, n - 1)


@dataclass
class ClassificationReport:
    """Everything the verifier knows about one family."""

    n: int
    m: int
    sizes: Tuple[int, ...]
    trivial: bool
    edf: Optional[int]
    sedf: Optional[int]
    gsedf: Optional[Tuple[int, ...]]
    rwedf: Optional[Fraction]
    rwedf_witness: Optional[int]
    bimodal: BimodalVerdict
    e_hat: Fraction
    r_bound: Fraction
    r_optimal: bool
    param_identity_ok: bool
    ell_below_m: Optional[bool]
    m2_structure: str
    key_prop: Optional[Tuple[int, int]]
    wedf_weights: Optional[Tuple[Fraction, ...]] = None
    wedf: Optional[Fraction] = None

    def to_json_dict(self) -> dict:
        """The fields in order, ``bimodal`` as "bimodal" and "bimodal_witness", and the
        wedf pair only when the report has weights; a Fraction as "p/q", a tuple as a list."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "bimodal":
                out["bimodal"], out["bimodal_witness"] = value.holds, _json_value(value.witness)
            elif self.wedf_weights is not None or not f.name.startswith("wedf"):
                out[f.name] = _json_value(value)
        return out


def _json_value(value):
    """A Fraction as "p/q", a tuple as a list with each Fraction as "p/q", anything else as is."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [str(v) if type(v) is Fraction else v for v in value]
    return value


def _is_trivial_shape(family: DisjointFamily) -> bool:
    # Degenerate shapes: any single set (ell = 0 vacuously, with the whole
    # group as the canonical case) and the partition into n singletons
    # (ell = n).  Only these may violate ell < m.
    # sizes are positive, so n sets add up to n exactly when each is a singleton
    return family.m == 1 or family.m == family.total == family.n


def _check_order(family: DisjointFamily) -> None:
    if family.n < 2:
        raise ValueError("classification needs a group of order at least 2")


def classify(
    family: DisjointFamily, weights: Optional[Sequence[Fraction]] = None
) -> ClassificationReport:
    """Run every checker once over a shared profile."""
    _check_order(family)
    return _report(difference_profile(family, weights))


def classify_many(
    families: Sequence[DisjointFamily], weights: Optional[Sequence[Fraction]] = None
) -> List[ClassificationReport]:
    """The reports of classify(f, weights) for each family f, in order.

    The profiles come from ``difference_profiles``, which counts the pairs of
    many families of one group and one total in one kernel pass.
    """
    for family in families:
        _check_order(family)
    profiles = difference_profiles(families, weights)
    return [_report(p) for p in profiles]


def _report(profile: DifferenceProfile) -> ClassificationReport:
    """Each reader's verdict over the profile's family; wedf under the weights it was taken with."""
    family = profile.family
    m, n, total = family.m, family.n, family.total
    rwedf = check_rwedf(family, profile)
    bimodal = is_bimodal(family, profile)
    worst, bound = e_hat(family, profile), r_bound(n, m, total)
    trivial = _is_trivial_shape(family)

    param_ok, ell_below_m, m2, key_prop = True, None, "not-applicable", None
    if rwedf is not None:
        ell, scale = rwedf.numerator, rwedf.denominator
        param_ok = (n - 1) * ell == (m - 1) * total * scale
        ell_below_m = trivial or ell < m * scale
        if m == 2:
            m2 = "EDF" if family.sizes[0] == family.sizes[1] else "GSEDF"
        # bimodal: N_i(delta) / k_i is 1 where N_i(delta) != 0 and 0 elsewhere,
        # so ell is an integer (scale 1), each column's count of non-zero rows
        if bimodal.holds:
            key_prop = (ell, m - ell)

    return ClassificationReport(
        n=n,
        m=m,
        sizes=family.sizes,
        trivial=trivial,
        edf=check_edf(profile),
        sedf=check_sedf(profile),
        gsedf=check_gsedf(profile),
        rwedf=rwedf,
        rwedf_witness=None if rwedf is not None else rwedf_failure_witness(family, profile),
        bimodal=bimodal,
        e_hat=worst,
        r_bound=bound,
        r_optimal=worst == bound,
        param_identity_ok=param_ok,
        ell_below_m=ell_below_m,
        m2_structure=m2,
        key_prop=key_prop,
        wedf_weights=profile.weights,
        wedf=_constant_value(profile.weighted, profile.weight_scale) if profile.weights else None,
    )
