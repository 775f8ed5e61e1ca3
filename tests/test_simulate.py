from fractions import Fraction

import pytest

from rwedf import family as family_module
from rwedf import simulate
from rwedf import (
    CyclicGroup,
    DisjointFamily,
    IdentityDelta,
    classify,
    difference_profile,
    e_delta,
    play,
    play_best_response,
    play_random_delta,
    r_bound,
)

from helpers import all_fixtures, mixed_z10, star_d10, weighted_z8


def test_seed_determinism():
    fam, _ = weighted_z8()
    a = play(fam, 3, trials=5000, seed=77)
    b = play(fam, 3, trials=5000, seed=77)
    assert a == b
    c = play_random_delta(fam, trials=5000, seed=77)
    d = play_random_delta(fam, trials=5000, seed=77)
    assert c == d


def test_analytic_rates_are_exact():
    fam, _ = weighted_z8()
    profile = difference_profile(fam)
    for delta in (1, 4, 7):
        res = play(fam, delta, trials=10, seed=0)
        assert res.analytic_rate == e_delta(fam, profile, delta)
    rnd = play_random_delta(fam, trials=10, seed=0)
    assert rnd.delta is None
    assert rnd.analytic_rate == r_bound(fam.n, fam.m, fam.total)
    best = play_best_response(fam, trials=10, seed=0)
    assert best.analytic_rate == classify(fam).e_hat == Fraction(7, 9)


def test_best_response_picks_least_peak():
    # rate is 7/9 at every shift except the dip to 2/3 at delta=4,
    # so the least maximizer is 1
    fam, _ = weighted_z8()
    result = play_best_response(fam, trials=10, seed=0)
    assert result.delta == 1
    assert result.analytic_rate == Fraction(7, 9)
    # constant-rate family: every shift ties, least one wins
    assert play_best_response(mixed_z10(), trials=10, seed=0).delta == 1


def test_empirical_tracks_analytic_on_fixtures():
    for label, fam, _ in all_fixtures():
        res = play_best_response(fam, trials=20000, seed=11)
        assert abs(res.z_score) < 4, label
        assert res.empirical_rate == res.successes / res.trials
        rnd = play_random_delta(fam, trials=20000, seed=12)
        assert abs(rnd.z_score) < 4, label


def test_every_shift_agrees_on_dihedral():
    # non-abelian check: the tamper map must reproduce e_delta per shift
    fam = star_d10()
    profile = difference_profile(fam)
    for delta in range(1, fam.n):
        res = play(fam, delta, trials=20000, seed=delta)
        assert res.analytic_rate == e_delta(fam, profile, delta)
        assert abs(res.z_score) < 4, delta


def test_zero_rate_shift():
    g = CyclicGroup(10)
    fam = DisjointFamily.of(g, (0,), (1,))
    res = play(fam, 5, trials=2000, seed=3)
    assert res.analytic_rate == 0
    assert res.successes == 0
    assert res.z_score == 0.0


def test_certain_win_shift():
    g = CyclicGroup(2)
    fam = DisjointFamily.of(g, (0,), (1,))
    res = play(fam, 1, trials=2000, seed=3)
    assert res.analytic_rate == 1
    assert res.successes == 2000
    assert res.z_score == 0.0


def test_guards():
    fam = mixed_z10()
    with pytest.raises(IdentityDelta):
        play(fam, 0, trials=10, seed=0)
    with pytest.raises(ValueError):
        play(fam, 1, trials=0, seed=0)
    with pytest.raises(ValueError):
        play_random_delta(fam, trials=0, seed=0)
    lone = DisjointFamily.of(CyclicGroup(1), (0,))
    with pytest.raises(ValueError):
        play_random_delta(lone, trials=10, seed=0)


def test_play_rate_is_e_delta_on_fixtures():
    for label, fam, _ in all_fixtures():
        profile = difference_profile(fam)
        for delta in range(1, fam.n):
            res = play(fam, delta, trials=1, seed=0)
            assert res.analytic_rate == e_delta(fam, profile, delta), (label, delta)


def test_fixed_shift_builds_no_profile(monkeypatch):
    # --delta takes its exact rate from the win vectors; --best builds one profile
    calls = []
    for module in (family_module, simulate):
        real = module.difference_profile
        monkeypatch.setattr(module, "difference_profile",
                            lambda f, real=real: calls.append(f) or real(f))
    fam, _ = weighted_z8()
    play(fam, 4, trials=10, seed=0)
    assert calls == []
    play_best_response(fam, trials=10, seed=0)
    assert calls == [fam]
