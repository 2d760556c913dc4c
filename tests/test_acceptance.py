"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them)."""

import time

import numpy as np
import pytest

from rallystats import GameConfig, Player, RallyProbs, ScoringSystem, SeedSpec
from rallystats import asymptotics, duration, estimate, matchlevel, sideout, simulate
from rallystats.asymptotics import Direction
from rallystats.estimate import FitMode, FitModel
from rallystats.matchlevel import MatchConfig, ServerRule

from oracles import (
    at_q,
    convergence_check,
    duration_marginal,
    enumerate_rallypoint,
    enumerate_sideout,
    given_tally_moments,
    no_server_score_prob,
    score_marginal,
    served_by,
    tally_moments,
    tally_prob,
)

A, B = Player.A, Player.B
SO_CFG = GameConfig(n=15)
RP_CFG = GameConfig(n=21, system=ScoringSystem.RALLY_POINT)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def test_criterion_01_figure_aggregates():
    expected = {
        (0.7, 0.5): (33.5, 8.6),
        (0.6, 0.5): (41.6, 9.5),
        (0.5, 0.5): (48.7, 10.1),
        (0.4, 0.5): (52.5, 11.5),
    }
    start = time.perf_counter()
    got = {
        pair: duration.aggregate_moments(RallyProbs(*pair), SO_CFG).by_server[A]
        for pair in expected
    }
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    details = []
    for pair, (e, sd) in expected.items():
        m = got[pair]
        ok = ok and abs(m.mean - e) <= 0.05 and abs(m.sd - sd) <= 0.05
        details.append(f"{pair}: ({m.mean:.3f}, {m.sd:.3f}) vs ({e}, {sd})")
    report(1, ok, f"duration summaries {'; '.join(details)} in {elapsed * 1e3:.0f} ms")


def test_criterion_02_win_probabilities():
    vals = {
        (0.5, 0.5): 0.53,
        (0.7, 0.5): 0.94,
        (0.4, 0.5): 0.22,
    }
    got = {pair: sideout.game_win_prob(A, A, RallyProbs(*pair), SO_CFG) for pair in vals}
    ok = all(abs(got[pair] - v) <= 0.005 for pair, v in vals.items())
    report(2, ok, ", ".join(f"p_win{pair}={got[pair]:.4f} (target {v})" for pair, v in vals.items()))


def test_criterion_03_conditional_aggregates():
    targets = {
        (0.7, 0.5): {"eA": 32.95, "eB": 41.95, "sdA": 8.34, "sdB": 7.36},
        (0.4, 0.5): {"eA": 56.30, "eB": 51.43, "sdA": 10.90, "sdB": 11.44},
        (0.5, 0.5): {"eA": 48.31, "eB": 49.17, "sdA": 10.23, "sdB": 9.95},
    }
    ok = True
    details = []
    for pair, t in targets.items():
        agg = duration.aggregate_moments(RallyProbs(*pair), SO_CFG)
        ma, mb = agg.by_server_winner[(A, A)], agg.by_server_winner[(A, B)]
        for name, got, want in (
            ("eA", ma.mean, t["eA"]),
            ("eB", mb.mean, t["eB"]),
            ("sdA", ma.sd, t["sdA"]),
            ("sdB", mb.sd, t["sdB"]),
        ):
            if abs(got - want) > 0.01:
                ok = False
                details.append(f"{pair} {name}: {got:.4f} != {want}")
    report(3, ok, "all conditional means/sds within 0.01" if ok else "; ".join(details))


def test_criterion_04_simmons_bounds():
    n = 15
    ok = True
    for q in np.arange(0.0, 0.91, 0.1):
        pr = at_q(q)
        for k in range(n):
            # the law given the end score; at q = 0 no game ends at k > 0
            e = given_tally_moments(n, k, A, pr).mean
            lo = (n + k) * (1 + pr.q) / (1 - pr.q)
            if not (lo - 1e-9 <= e <= lo + 2 * k + 1e-9):
                ok = False
            if k == 0 and abs(e - lo) > 1e-12:
                ok = False
    report(4, ok, "bounds hold on k in 0..14, q in {0,.1,...,.9}, equality at k=0")


def test_criterion_05_rallypoint_symmetry_and_closed_form():
    pr = RallyProbs(0.5, 0.5)
    w_a = sideout.game_win_prob(A, A, pr, RP_CFG)
    w_b = sideout.game_win_prob(A, B, pr, RP_CFG)
    ok = abs(w_a - 0.5) <= 1e-12 and abs(w_b - 0.5) <= 1e-12
    worst = 0.0
    for p in (0.2, 0.5, 0.73):
        ns = RallyProbs.no_server(p)
        for alpha in range(0, 22):
            for beta in range(0, 21):
                for last in (A, B):
                    if (last is A and alpha < 1) or (last is B and beta < 1):
                        continue
                    diff = abs(
                        tally_prob(alpha, beta, last, ns, ScoringSystem.RALLY_POINT)
                        - no_server_score_prob(alpha, beta, last, p)
                    )
                    worst = max(worst, diff)
    ok = ok and worst <= 1e-12
    report(5, ok, f"win probs ({w_a:.15f}, {w_b:.15f}); worst closed-form gap {worst:.2e}")


def test_criterion_06_winning_probability_comparison():
    def ratio(p):
        pr = RallyProbs.no_server(p)
        return sideout.game_win_prob(A, A, pr, RP_CFG) / sideout.game_win_prob(A, A, pr, SO_CFG)

    hi = np.arange(0.5, 1.0, 0.0005)
    hi_vals = np.array([ratio(p) for p in hi])
    # the ratio tends to 1 from below as p -> 1; allow float-level slack
    ok = hi_vals.min() > 0.926 and hi_vals.max() <= 1.0 + 1e-12
    lo = np.arange(0.0005, 0.5, 0.0005)
    lo_vals = np.array([ratio(p) for p in lo])
    imax = int(np.argmax(lo_vals))
    peak, at = lo_vals[imax], lo[imax]
    ok = ok and abs(peak - 28) <= 1.0 and 0.05 <= at <= 0.15
    report(6, ok, f"ratio range p>=.5: ({hi_vals.min():.4f}, {hi_vals.max():.4f}); "
                  f"max ratio {peak:.2f} at p={at:.4f}")


def test_criterion_07_duration_endpoints_and_dominance():
    e_lo = duration.aggregate_moments(RallyProbs.no_server(1e-4), SO_CFG).by_server[A].mean
    e_hi = duration.aggregate_moments(RallyProbs.no_server(1 - 1e-4), SO_CFG).by_server[A].mean
    ok = abs(e_lo - 16.0) <= 0.01 and abs(e_hi - 15.0) <= 0.01
    dominated = True
    for p in np.arange(0.05, 0.951, 0.05):
        pr = RallyProbs.no_server(p)
        so_sd = duration.aggregate_moments(pr, SO_CFG).by_server[A].sd
        rp_sd = duration.aggregate_moments(pr, RP_CFG).by_server[A].sd
        dominated = dominated and rp_sd <= so_sd
    ok = ok and dominated
    report(7, ok, f"e endpoints {e_lo:.4f} / {e_hi:.4f}; rally-point sd dominated: {dominated}")


def test_criterion_08_limit_laws():
    tv = convergence_check(
        ScoringSystem.SIDE_OUT, B, Direction.P_TO_1, 15, [1 - 1e-4]
    )[0]
    agg = duration.aggregate_moments(RallyProbs.no_server(1e-4), RP_CFG)
    m = agg.by_server_winner[(A, A)]
    lim = asymptotics.limit_moments(ScoringSystem.RALLY_POINT, A, Direction.P_TO_0, 21)
    ok = tv < 0.01 and abs(m.mean - lim.mean) <= 0.05 and abs(m.variance - lim.variance) <= 0.05
    report(8, ok, f"TV to uniform {tv:.4f}; rally-point moments "
                  f"({m.mean:.4f}, {m.variance:.4f}) vs ({lim.mean:.4f}, {lim.variance:.4f})")


def test_criterion_09_oracle_equivalence():
    start = time.perf_counter()
    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    worst = 0.0
    for n in (1, 2, 3, 4):
        for pa in grid:
            for pb in grid:
                pr = RallyProbs(pa, pb)
                outcomes, leftover = enumerate_sideout(pa, pb, n, server=A, tol=1e-13)
                assert leftover < 1e-12
                for (a, b, last), mass in score_marginal(outcomes).items():
                    worst = max(worst, abs(tally_prob(a, b, last, pr) - mass))
                uncond, _ = duration_marginal(outcomes)
                pmf = duration.duration_pmf_unconditional(pr, served_by(GameConfig(n=n), A), epsilon=1e-13)
                for d, mass in uncond.items():
                    worst = max(worst, abs(pmf.prob(d) - mass))
                rp_out, _ = enumerate_rallypoint(pa, pb, n, server=A)
                for (a, b, last), mass in score_marginal(rp_out).items():
                    worst = max(
                        worst, abs(tally_prob(a, b, last, pr, ScoringSystem.RALLY_POINT) - mass)
                    )
    enum_ok = worst <= 1e-10

    # Monte Carlo agreement at (n, p_a, p_b) = (15, .6, .5), J = 1e6
    pr = RallyProbs(0.6, 0.5)
    cfg = GameConfig(n=15, s_a=1.0)
    sample = simulate.sample_games(pr, cfg, 1_000_000, SeedSpec(20_240_815, 0))
    total = len(sample.duration)
    bins_checked = bins_off = 0
    dist = sideout.score_distribution(pr, cfg, server=A)
    for score, mass in dist.entries.items():
        expect = total * mass
        if expect < 10:
            continue
        hits = int(
            np.sum(
                (sample.alpha == score.alpha)
                & (sample.beta == score.beta)
                & (sample.winner_a == (score.winner is A))
            )
        )
        bins_checked += 1
        if abs(hits - expect) > 3 * np.sqrt(total * mass * (1 - mass)):
            bins_off += 1
    pmf = duration.duration_pmf_unconditional(pr, served_by(cfg, A), epsilon=1e-12)
    counts = np.bincount(sample.duration, minlength=pmf.offset + len(pmf.masses))
    for i, mass in enumerate(pmf.masses):
        expect = total * mass
        if expect < 10:
            continue
        bins_checked += 1
        if abs(counts[pmf.offset + i] - expect) > 3 * np.sqrt(total * mass * (1 - mass)):
            bins_off += 1
    elapsed = time.perf_counter() - start
    mc_ok = bins_off <= 0.01 * bins_checked
    ok = enum_ok and mc_ok and elapsed < 120.0
    report(9, ok, f"worst enumeration gap {worst:.2e}; MC bins off {bins_off}/{bins_checked}; "
                  f"{elapsed:.1f} s")


def test_criterion_10_structural_invariants():
    ok = True
    notes = []

    # score-distribution normalization, n <= 30
    for n in (1, 7, 15, 30):
        for pa, pb in ((0.5, 0.5), (0.9, 0.05), (0.2, 0.7)):
            total = sideout.score_distribution(RallyProbs(pa, pb), GameConfig(n=n), server=A).total_mass
            if abs(total - 1.0) > 1e-12:
                ok = False
                notes.append(f"normalization n={n} ({pa},{pb}): {total}")

    # exact parity zeros
    for a, b, last, server in ((9, 4, A, A), (4, 9, B, A), (9, 4, A, B)):
        pmf = duration.score_pmf(RallyProbs(0.55, 0.45), GameConfig(n=9, s_a=float(server is A)), (a, b))
        idx = np.nonzero(pmf.masses > 0.0)[0]
        if len(set((pmf.offset + idx) % 2)) != 1:
            ok = False
            notes.append(f"parity violated for ({a},{b},{last},{server})")

    # q-monotonicity of conditional expectations
    grid = np.arange(0.0, 0.951, 0.05)
    for a, b, c in ((15, 7, A), (7, 15, B), (15, 0, A)):
        vals = [given_tally_moments(a, b, c, at_q(q)).mean for q in grid]
        if not all(x < y for x, y in zip(vals, vals[1:])):
            ok = False
            notes.append(f"q-monotonicity failed at ({a},{b},{c})")

    # duration laws given an end score depend on (p_a, p_b) only through q
    for score in ((5, 3), (3, 5)):
        p1 = duration.score_pmf(RallyProbs(0.5, 0.5), GameConfig(n=5), score)
        p2 = duration.score_pmf(RallyProbs(0.6, 0.375), GameConfig(n=5), score)
        if p1.offset != p2.offset or not np.allclose(p1.masses, p2.masses, atol=1e-15):
            ok = False
            notes.append(f"q-only dependence failed at {score}")

    # Anderson match-rule invariance at n = 15
    cfg = GameConfig(n=15, s_a=1.0)
    for m in (2, 3):
        for pa in np.arange(0.1, 0.91, 0.1):
            for pb in np.arange(0.1, 0.91, 0.1):
                pr = RallyProbs(pa, pb)
                w = matchlevel.match_win_prob(pr, cfg, MatchConfig(m, ServerRule.WINNER_SERVES_NEXT))
                alt = matchlevel.match_win_prob(pr, cfg, MatchConfig(m, ServerRule.ALTERNATE))
                if abs(w - alt) > 1e-12:
                    ok = False
                    notes.append(f"Anderson invariance failed at ({pa:.1f},{pb:.1f},M={m})")

    # MGF finite differences vs closed-form moments (Richardson, h = 1e-4) at
    # every end of a game to 15 first served by A
    def fd(pr, score, h=1e-4):
        def m(t):
            return duration.score_mgf(pr, GameConfig(n=15), score, t)

        def d1(hh):
            return (m(hh) - m(-hh)) / (2 * hh)

        def d2(hh):
            return (m(hh) - 2 * m(0.0) + m(-hh)) / (hh * hh)

        mean = (4 * d1(h / 2) - d1(h)) / 3
        second = (4 * d2(h / 2) - d2(h)) / 3
        return mean, second - mean * mean

    worst = 0.0
    for q in (0.2, 0.6):
        pr = at_q(q)
        for score in sideout.score_distribution(pr, GameConfig(n=15)).entries:
            want = tally_moments(score.alpha, score.beta, score.last_scorer, pr.q)
            e, v = want.mean, want.variance
            fe, fv = fd(pr, score)
            worst = max(worst, abs(fe - e) / max(1, abs(e)), abs(fv - v) / max(1, abs(v)))
    if worst > 1e-6:
        ok = False
        notes.append(f"MGF fd gap {worst:.2e}")
    report(10, ok, "all structural invariants hold" if ok else "; ".join(notes))


def test_criterion_11_estimation_dominance():
    truth = (0.6, 0.5)
    reps = 500
    sq_err = {FitMode.SCORE_ONLY: [], FitMode.SCORE_DURATION: []}
    for i in range(reps):
        sample = simulate.sample_games(
            RallyProbs(*truth), GameConfig(n=15, s_a=0.5), 2, SeedSpec(4242, i)
        )
        records = estimate.records_from_sample(sample)
        for mode in sq_err:
            res = estimate.fit(records, mode, FitModel.SERVER)
            sq_err[mode].append(((res.p_a - truth[0]) ** 2, (res.p_b - truth[1]) ** 2))
    mse = {m: np.mean(np.array(v), axis=0) for m, v in sq_err.items()}
    so, sd = mse[FitMode.SCORE_ONLY], mse[FitMode.SCORE_DURATION]
    ok = sd[0] < so[0] and sd[1] < so[1]
    report(11, ok, f"m=2, {reps} replications: score-only MSE ({so[0]:.5f}, {so[1]:.5f}) vs "
                   f"score+duration ({sd[0]:.5f}, {sd[1]:.5f})")


def test_criterion_12_rare_event_value():
    value = sideout.game_win_prob(A, A, RallyProbs.no_server(0.0085), SO_CFG)
    ok = 3.5e-31 / 2 <= value <= 3.5e-31 * 2
    report(12, ok, f"p_win(A-game, p=.0085, n=15) = {value:.3e} (target ~3.5e-31)")
