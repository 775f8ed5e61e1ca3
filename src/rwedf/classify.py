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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .family import (
    DifferenceProfile,
    DisjointFamily,
    check_weights,
    difference_profile,
    difference_profiles,
    is_bimodal,
    r_bound,
    reciprocal_sums,
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


def _first_change(sums: Sequence[int]) -> Optional[int]:
    """The least delta whose sum differs from delta = 1's."""
    first = sums[0]
    for d, s in enumerate(sums, start=1):
        if s != first:
            return d
    return None


def check_wedf(
    family: DisjointFamily,
    profile: DifferenceProfile,
    weights: Sequence[Fraction],
) -> Optional[Fraction]:
    """Constant weighted column sum under the given weights, if constant.

    Reads the profile's weighted sums when it was taken with these weights,
    and profiles the family once more otherwise.
    """
    weights = check_weights(family.m, weights)
    if profile.weights != weights:
        profile = difference_profile(family, weights)
    return _constant_value(profile.weighted, profile.weight_scale)


def check_rwedf(
    family: DisjointFamily, profile: Optional[DifferenceProfile] = None
) -> Optional[Fraction]:
    """The constant ell = sum_i N_i(delta)/k_i, or None if it varies."""
    if profile is None:
        profile = difference_profile(family)
    k, sums = reciprocal_sums(profile)
    return _constant_value(sums, k)


def rwedf_failure_witness(
    family: DisjointFamily, profile: DifferenceProfile
) -> Optional[int]:
    """Smallest delta whose reciprocal sum differs from delta = 1's, if any."""
    return _first_change(reciprocal_sums(profile)[1])


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
        from .files import frac_str

        out = {
            "n": self.n,
            "m": self.m,
            "sizes": list(self.sizes),
            "trivial": self.trivial,
            "edf": self.edf,
            "sedf": self.sedf,
            "gsedf": list(self.gsedf) if self.gsedf is not None else None,
            "rwedf": frac_str(self.rwedf) if self.rwedf is not None else None,
            "rwedf_witness": self.rwedf_witness,
            "bimodal": self.bimodal.holds,
            "bimodal_witness": list(self.bimodal.witness) if self.bimodal.witness else None,
            "e_hat": frac_str(self.e_hat),
            "r_bound": frac_str(self.r_bound),
            "r_optimal": self.r_optimal,
            "param_identity_ok": self.param_identity_ok,
            "ell_below_m": self.ell_below_m,
            "m2_structure": self.m2_structure,
            "key_prop": list(self.key_prop) if self.key_prop is not None else None,
        }
        if self.wedf_weights is not None:
            out["wedf_weights"] = [frac_str(w) for w in self.wedf_weights]
            out["wedf"] = frac_str(self.wedf) if self.wedf is not None else None
        return out


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
    return _report(family, difference_profile(family, weights))


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
    return [_report(f, p) for f, p in zip(families, profiles)]


def _report(family: DisjointFamily, profile: DifferenceProfile) -> ClassificationReport:
    """Every checker over the family's profile; wedf under the weights it was taken with."""
    m, n, total = family.m, family.n, family.total
    sizes = family.sizes
    k, sums = profile.scale, profile.reciprocal
    flat = sums.count(sums[0]) == len(sums)

    if m == 1:
        edf = sedf = None
        gsedf = None
        rwedf: Optional[Fraction] = Fraction(0)
        witness = None
    else:
        edf = check_edf(profile)
        sedf = check_sedf(profile)
        gsedf = check_gsedf(profile)
        rwedf = Fraction(sums[0], k) if flat else None
        witness = None if flat else _first_change(sums)

    bimodal = is_bimodal(family, profile)
    top = max(sums)
    ehat = Fraction(top, k * m)
    bound = r_bound(n, m, total)
    trivial = _is_trivial_shape(family)

    param_ok = True
    ell_below_m: Optional[bool] = None
    if rwedf is not None:
        ell, scale = rwedf.numerator, rwedf.denominator
        param_ok = (n - 1) * ell == (m - 1) * total * scale
        ell_below_m = trivial or ell < m * scale

    if m == 2 and rwedf is not None:
        m2 = "EDF" if sizes[0] == sizes[1] else "GSEDF"
    else:
        m2 = "not-applicable"

    # bimodal: N_i(delta) / k_i is 1 where N_i(delta) != 0 and 0 elsewhere, so
    # the scaled reciprocal sum of a column is K times its count of non-zero rows
    key_prop: Optional[Tuple[int, int]] = None
    if bimodal.holds and flat:
        lam = sums[0] // k
        key_prop = (lam, m - lam)

    report = ClassificationReport(
        n=n,
        m=m,
        sizes=sizes,
        trivial=trivial,
        edf=edf,
        sedf=sedf,
        gsedf=gsedf,
        rwedf=rwedf,
        rwedf_witness=witness,
        bimodal=bimodal,
        e_hat=ehat,
        r_bound=bound,
        # e_hat = top / (K * m) meets (m - 1) * T / (m * (n - 1))
        r_optimal=top * (n - 1) == (m - 1) * total * k,
        param_identity_ok=param_ok,
        ell_below_m=ell_below_m,
        m2_structure=m2,
        key_prop=key_prop,
    )
    if profile.weights is not None:
        report.wedf_weights = profile.weights
        report.wedf = _constant_value(profile.weighted, profile.weight_scale)
    return report
