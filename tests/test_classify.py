from fractions import Fraction

import pytest

from rwedf import (
    CyclicGroup,
    DihedralGroup,
    DisjointFamily,
    check_difference_set,
    check_edf,
    check_gsedf,
    check_partial_difference_set,
    check_rwedf,
    check_sedf,
    check_wedf,
    classify,
    cyclotomic_squares,
    difference_profile,
    m2_ell_bound_holds,
    m2_ell_bound_tight,
    m2_edf,
    nonzero_singletons,
)

from helpers import (
    all_fixtures,
    bimodal_z12,
    coset_z33,
    mixed_z10,
    pair_z7,
    star_d10,
    weighted_z8,
)


def test_weighted_z8_report():
    fam, w = weighted_z8()
    r = classify(fam, w)
    assert (r.n, r.m, r.sizes) == (8, 3, (3, 3, 2))
    assert r.wedf == 3
    assert r.rwedf is None and r.rwedf_witness == 4
    assert r.edf is None and r.sedf is None and r.gsedf is None
    assert r.e_hat == Fraction(7, 9)
    assert r.r_bound == Fraction(16, 21)
    assert not r.r_optimal
    assert not r.bimodal.holds
    assert not r.trivial


def test_mixed_z10_report():
    r = classify(mixed_z10())
    assert r.rwedf == 2
    assert r.edf is None and r.sedf is None and r.gsedf is None
    assert not r.bimodal.holds
    assert r.e_hat == r.r_bound == Fraction(1, 2)
    assert r.r_optimal and r.param_identity_ok and r.ell_below_m


def test_bimodal_z12_report():
    r = classify(bimodal_z12())
    assert (r.n, r.m, r.sizes) == (12, 8, (3, 2, 1, 1, 1, 1, 1, 1))
    assert r.rwedf == 7
    assert r.bimodal.holds
    assert r.key_prop == (7, 1)
    assert r.gsedf is None
    assert r.ell_below_m  # integer ell at the m-1 ceiling


def test_coset_z33_report():
    r = classify(coset_z33())
    assert r.rwedf == 3
    assert r.edf == 6
    assert r.bimodal.holds
    assert r.key_prop == (3, 1)
    assert r.sedf is None
    assert r.e_hat == r.r_bound == Fraction(3, 4)


def test_pair_z7_report():
    r = classify(pair_z7())
    assert r.rwedf == Fraction(7, 6)
    assert r.gsedf == (2, 2)
    assert r.edf is None and r.sedf is None
    assert r.m2_structure == "GSEDF"
    assert r.e_hat == Fraction(7, 12)


def test_pair_f21_report():
    fam = dict((lbl, f) for lbl, f, _ in all_fixtures())["pair_f21"]
    r = classify(fam)
    assert (r.n, r.m, r.sizes) == (21, 2, (5, 16))
    assert r.rwedf == Fraction(21, 20)
    assert r.gsedf == (4, 4)
    assert r.m2_structure == "GSEDF"
    assert r.e_hat == r.r_bound == Fraction(21, 40)


def test_star_d10_report():
    r = classify(star_d10())
    assert (r.n, r.m, r.sizes) == (10, 6, (1, 1, 1, 1, 1, 4))
    assert r.rwedf == 5
    assert r.bimodal.holds
    assert r.key_prop == (5, 1)
    assert r.e_hat == r.r_bound == Fraction(5, 6)


def test_heisenberg_27_report():
    fam = dict((lbl, f) for lbl, f, _ in all_fixtures())["heisenberg_27"]
    r = classify(fam)
    assert r.m == 13 and set(r.sizes) == {2}
    assert r.rwedf == 12
    assert r.edf == 24
    assert r.bimodal.holds
    assert r.e_hat == r.r_bound == Fraction(12, 13)


@pytest.mark.parametrize("label,fam,weights", all_fixtures(), ids=lambda v: str(v)[:24])
def test_report_internal_consistency(label, fam, weights):
    r = classify(fam, weights)
    assert r.r_optimal == (r.e_hat == r.r_bound) == (r.rwedf is not None)
    if r.rwedf is not None:
        assert (r.n - 1) * r.rwedf == (r.m - 1) * fam.total
        assert r.param_identity_ok
        if not r.trivial:
            assert r.rwedf < r.m
            if r.rwedf.denominator == 1:
                assert r.rwedf <= r.m - 1


def test_single_set_conventions():
    g = CyclicGroup(5)
    r = classify(DisjointFamily.of(g, range(5)))
    assert r.trivial
    assert r.rwedf == 0
    assert r.edf is None and r.sedf is None and r.gsedf is None
    # a single proper subset is still a degenerate shape with ell = 0
    r2 = classify(DisjointFamily.of(g, (1, 3)))
    assert r2.trivial and r2.rwedf == 0


def test_all_singletons_convention():
    g = CyclicGroup(4)
    r = classify(DisjointFamily.of(g, (0,), (1,), (2,), (3,)))
    assert r.trivial
    assert r.rwedf == 4  # ell = n is allowed only here
    assert r.ell_below_m  # waived for trivial shapes


def test_nonzero_singletons_is_nontrivial_edf():
    r = classify(nonzero_singletons(CyclicGroup(6)))
    assert not r.trivial
    assert r.edf == 4
    assert r.rwedf == 4 and r.rwedf < r.m


def test_checkers_reject_unequal_sizes():
    fam = pair_z7()
    prof = difference_profile(fam)
    assert check_edf(prof) is None
    assert check_sedf(prof) is None
    assert check_gsedf(prof) == (2, 2)


def test_wedf_needs_valid_weights():
    from rwedf.errors import BadWeight

    fam, _ = weighted_z8()
    prof = difference_profile(fam)
    assert check_wedf(fam, prof, (1, 1, 1)) == 6
    assert check_wedf(fam, prof, (Fraction(1, 2),) * 3) == 3
    assert check_wedf(fam, prof, (Fraction(1, 2), Fraction(1, 2), 1)) is None
    with pytest.raises(BadWeight):
        check_wedf(fam, prof, (1, 1))
    with pytest.raises(BadWeight):
        classify(fam, (2, 1, 1))


def test_difference_set_checks():
    z7 = CyclicGroup(7)
    assert check_difference_set(z7, (1, 2, 4)) == 1
    assert check_difference_set(CyclicGroup(5), (1, 2)) is None
    assert check_difference_set(z7, range(7)) == 7
    assert check_difference_set(z7, (3,)) == 0
    assert check_difference_set(z7, ()) == 0
    # 11 is refused, not read as 4 (which would make a (7, 3, 1) set)
    with pytest.raises(ValueError, match="element 11 out of range for order 7"):
        check_difference_set(z7, (1, 2, 11))


def test_partial_difference_set_checks():
    z13 = CyclicGroup(13)
    squares = (1, 3, 4, 9, 10, 12)
    assert check_partial_difference_set(z13, squares) == (2, 3)
    assert check_partial_difference_set(z13, (1, 2)) is None
    assert check_partial_difference_set(z13, (5,)) is None
    with pytest.raises(ValueError):
        check_partial_difference_set(DihedralGroup(5), (1, 2))
    for members, bad in (((1, 13), 13), ((-1, 1), -1)):
        with pytest.raises(ValueError, match=f"element {bad} out of range for order 13"):
            check_partial_difference_set(z13, members)


def test_cyclotomic_pair_is_edf():
    r = classify(cyclotomic_squares(13))
    assert r.sizes == (6, 6)
    assert r.edf == 6
    assert r.rwedf == 1
    assert r.m2_structure == "EDF"


def test_two_set_bound():
    assert m2_ell_bound_holds(7, Fraction(7, 6))
    assert not m2_ell_bound_tight(7, Fraction(7, 6))
    for k in (1, 2, 3):
        n = 2 * k * k + 1
        ell = classify(m2_edf(k)).rwedf
        assert m2_ell_bound_tight(n, ell)
    assert not m2_ell_bound_holds(101, Fraction(1, 100))


def test_classify_rejects_trivial_group():
    with pytest.raises(ValueError):
        classify(DisjointFamily.of(CyclicGroup(1), (0,)))


def test_report_json_shape():
    fam, w = weighted_z8()
    data = classify(fam, w).to_json_dict()
    assert data["wedf"] == "3"
    assert data["rwedf"] is None
    assert data["e_hat"] == "7/9"
    assert data["sizes"] == [3, 3, 2]
    assert data["bimodal_witness"] == [0, 1, 2]
    data2 = classify(mixed_z10()).to_json_dict()
    assert data2["rwedf"] == "2"
    assert "wedf" not in data2
