import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rwedf import family as family_module
from rwedf import simulate
from rwedf import (
    CyclicGroup,
    DisjointFamily,
    IdentityDelta,
    classify,
    desarguesian_star_partition,
    difference_profile,
    e_delta,
    f21_fixture,
    heisenberg_partition,
    nonzero_singletons,
    play,
    play_best_response,
    play_random_delta,
    r_bound,
)

from helpers import (all_fixtures, bimodal_z12, mixed_z10, reference_play_successes,
                     reference_random_delta_successes, reference_wins, star_d10, weighted_z8)


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
    # no trial to play: refused before the profile is built
    with pytest.raises(ValueError, match="at least one trial"):
        play_best_response(fam, trials=0, seed=0)
    assert calls == [fam]


# 1 and 5 trials leave most (delta, set) cells empty; a chunk of 29 trials splits
# cells and mixes set sizes within one draw; with a chunk of 1 every chunk lies
# inside one cell, and the sweep stops at 60 trials, as 3000 would take 3000
# steps per draw.  (n-1)*m trials sit on the line between counting the
# random-shift cells in bins and sorting the trials.
@pytest.mark.parametrize("chunk", [1, 29, simulate.TRIAL_CHUNK])
def test_games_match_scalar_reference(monkeypatch, chunk):
    monkeypatch.setattr(simulate, "TRIAL_CHUNK", chunk)
    sweep = (1, 5, 60, 3000) if chunk > 1 else (1, 5, 60)
    for label, fam, _ in all_fixtures():
        cells = (fam.n - 1) * fam.m
        for seed in (0, 1, 2):
            for trials in (*sweep, cells - 1, cells, cells + 1):
                assert (play_random_delta(fam, trials, seed).successes
                        == reference_random_delta_successes(fam, trials, seed)), (label, seed, trials)
            for trials in sweep:
                for delta in range(1, fam.n):
                    assert (play(fam, delta, trials, seed).successes
                            == reference_play_successes(fam, delta, trials, seed)), (label, delta)
        best = play_best_response(fam, 500, seed=9)
        assert best.successes == reference_play_successes(fam, best.delta, 500, 9), label


def _final_state(monkeypatch, game, *args):
    """The state one call of game(*args) leaves the one generator it makes in."""
    made = []
    real = np.random.default_rng
    with monkeypatch.context() as patch:
        patch.setattr(simulate.np.random, "default_rng",
                      lambda seed: made.append(real(seed)) or made[-1])
        game(*args)
    (rng,) = made
    return rng.bit_generator.state


def _drawn_through(fam, trials, seed, last):
    """The state after the sources, TRIAL_CHUNK at a time, then the picks of sets 0..last."""
    rng = np.random.default_rng(seed)
    counts = np.zeros(fam.m, dtype=np.int64)
    for lo in range(0, trials, simulate.TRIAL_CHUNK):
        sources = rng.integers(0, fam.m, size=min(simulate.TRIAL_CHUNK, trials - lo))
        counts += np.bincount(sources, minlength=fam.m)
    for i in range(last + 1):
        rng.integers(0, fam.sizes[i], size=counts[i])
    return rng.bit_generator.state


def _last_mixed(fam, delta):
    """The last set whose members neither all win nor all lose at delta, or -1."""
    return max((i for i, w in enumerate(reference_wins(fam, delta)) if 0 < w.sum() < len(w)),
               default=-1)


# Enough trials that every set has sources and the draws span chunk boundaries.
STATE_TRIALS = 2 * simulate.TRIAL_CHUNK + 3


def test_bimodal_game_draws_only_sources(monkeypatch):
    for fam in (heisenberg_partition(3), bimodal_z12()):
        for delta in range(1, fam.n):
            assert _last_mixed(fam, delta) == -1
            assert (_final_state(monkeypatch, play, fam, delta, STATE_TRIALS, 4)
                    == _drawn_through(fam, STATE_TRIALS, 4, -1)), delta


def test_game_ending_on_a_mixed_set_draws_every_pick(monkeypatch):
    fam = f21_fixture()
    assert _last_mixed(fam, 5) == fam.m - 1
    assert (_final_state(monkeypatch, play, fam, 5, STATE_TRIALS, 4)
            == _final_state(monkeypatch, reference_play_successes, fam, 5, STATE_TRIALS, 4))


def test_picks_stop_at_the_last_mixed_set(monkeypatch):
    # (2, 6) is uniform at every shift and follows a mixed set at all but 4,
    # where every set is uniform
    fam, _ = weighted_z8()
    assert [_last_mixed(fam, delta) for delta in range(1, fam.n)] == [1, 1, 1, -1, 1, 1, 1]
    for delta in range(1, fam.n):
        state = _final_state(monkeypatch, play, fam, delta, STATE_TRIALS, 4)
        assert state == _drawn_through(fam, STATE_TRIALS, 4, _last_mixed(fam, delta)), delta
        assert state != _drawn_through(fam, STATE_TRIALS, 4, fam.m - 1), delta


# Seeded successes pinned when both games were a loop over (delta, set) cells,
# on the three benchmark families and a spread with 31-member sets: a change to
# the batch order fails here.  The random-shift rows on heisenberg(7) and f21
# have (n-1)*m <= trials, multi-member sets drawing in every cell; the 20,000-trial
# spread rows have more cells than trials.
FROZEN_DRAWS = [
    ("spread (2,1,9)", lambda: desarguesian_star_partition(2, 1, 9), None, 20_000,
     (19957, 19975, 19970)),
    ("heisenberg(7)", lambda: heisenberg_partition(7), "best", 200_000, (196470, 196582, 196489)),
    ("f21", f21_fixture, 5, 200_000, (105014, 104979, 104959)),
    ("spread (2,5,2)", lambda: desarguesian_star_partition(2, 5, 2), None, 20_000,
     (19431, 19397, 19371)),
    ("heisenberg(7) random", lambda: heisenberg_partition(7), None, 200_000,
     (196377, 196512, 196426)),
    ("f21 random", f21_fixture, None, 200_000, (104972, 105080, 105088)),
]


@pytest.mark.parametrize("label,build,mode,trials,pinned", FROZEN_DRAWS,
                         ids=[row[0] for row in FROZEN_DRAWS])
def test_frozen_draws(label, build, mode, trials, pinned):
    fam = build()
    for seed, expected in zip((1, 2, 3), pinned):
        if mode is None:
            res = play_random_delta(fam, trials, seed)
        elif mode == "best":
            res = play_best_response(fam, trials, seed)
        else:
            res = play(fam, mode, trials, seed)
        assert res.successes == expected, (label, seed)


def test_random_shift_memory_is_linear_in_trials():
    # (n-1)*m is 2^32 cells here; the game may only hold arrays of about trials + n
    fam = nonzero_singletons(CyclicGroup(65536))
    trials, seed = 10_000, 5
    tracemalloc.start()
    try:
        res = play_random_delta(fam, trials, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # set i is {i + 1}, so a trial loses only when its shift is that member (x - delta = 0)
    rng = np.random.default_rng(seed)
    deltas = rng.integers(1, fam.n, size=trials)
    lost = np.count_nonzero(rng.integers(0, fam.m, size=trials) + 1 == deltas)
    assert res.successes == trials - lost == 10_000


def test_counted_random_shift_memory():
    # 261,121 cells, fewer than the trials: the game counts them in bins no
    # larger than the key and hands them on in blocks
    fam = desarguesian_star_partition(2, 1, 9)
    tracemalloc.start()
    try:
        res = play_random_delta(fam, 10**6, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert res.successes == 998082  # pinned when the cells came from one np.unique
