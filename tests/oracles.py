"""Brute-force oracles: rally-by-rally enumeration of whole games.

These implement nothing but the literal game rules, advancing probability
mass one rally at a time over (score_a, score_b, server) states, so they
are independent of every closed form they are used to check.  Side-out
games can last arbitrarily long; enumeration stops once the surviving
active mass drops below `tol` (reported back to the caller).
"""

import dataclasses
import functools
import math
from collections import defaultdict
from math import comb

import mpmath
import numpy as np
from scipy.optimize import minimize

from rallystats import (
    ConditioningError,
    DomainError,
    GameConfig,
    InfeasibleData,
    Player,
    RallyProbs,
    ScoringSystem,
    ServerRule,
    TerminalScore,
    asymptotics,
    duration,
    estimate,
    kernel,
    matchlevel,
    sideout,
    simulate,
    validate,
)
from rallystats.core import expect_count
from rallystats.simulate import GameSample

A, B = Player.A, Player.B

# rally probabilities of the tie-break oracle checks: edges and interior, q < 1
ORACLE_PROBS = [(pa, pb) for pa in (0.0, 0.3, 0.6, 1.0) for pb in (0.0, 0.3, 0.6, 1.0) if pa + pb > 0.0]


def binom(m: int, k: int) -> float:
    """Binomial coefficient in double precision, with binom(-1, -1) := 1.

    Outside that special case the coefficient is zero whenever k < 0 or
    k > m.  Computed by a multiplicative recurrence (relative error a few
    ulp per factor).  The interruption coefficients, which overflow double
    precision for large games, are built in log form in `kernel` instead.
    """
    if m == -1 and k == -1:
        return 1.0
    if k < 0 or k > m:
        return 0.0
    k = min(k, m - k)
    out = 1.0
    for i in range(k):
        out = out * (m - i) / (i + 1)
    return out


def _placements(alpha, beta, receiver_last, r):
    """Number of ways to place r A-interruptions in an A-game ending
    (alpha, beta): C(alpha, r) C(beta - 1, r - 1) when A scores last,
    C(alpha, r - 1) C(beta - 1, r - 1) when B does (binom(-1, -1) = 1)."""
    return binom(alpha, r - receiver_last) * binom(beta - 1, r - 1)


def prob_score_r_j(alpha, beta, last_scorer, r, j, probs):
    """The paper's elementary side-out probability, in an A-game, of final
    tally (alpha, beta) with `last_scorer` taking the last point through
    exactly r A-interruptions and j exchanges; 0 outside the feasible
    ranges."""
    receiver_last = int(last_scorer is B)
    c = _placements(alpha, beta, receiver_last, r)
    if j < 0 or c == 0.0:
        return 0.0
    return (
        binom(alpha + beta + j - 1, j)
        * c
        * probs.p_a**alpha
        * probs.p_b**beta
        * probs.q_a**receiver_last
        * probs.q ** (r - receiver_last + j)
    )


def score_prob_r(alpha, beta, last_scorer, r, probs):
    """The paper's elementary rally-point probability, in an A-game, of
    final tally (alpha, beta) with `last_scorer` taking the last point
    through exactly r A-interruptions; 0 outside the feasible range."""
    d = int(last_scorer is B)
    c = _placements(alpha, beta, d, r)
    if c == 0.0:
        return 0.0
    j = r - d
    return c * probs.p_a ** (alpha - j) * probs.p_b ** (beta - d - j) * probs.q_a**d * probs.q**j


def no_server_score_prob(alpha, beta, last_scorer, p):
    """Negative-binomial closed form of a rally-point tally in the
    no-server model p_a = 1 - p_b: binom(alpha+beta-1, beta) p^alpha
    (1-p)^beta when A scores last, and binom(alpha+beta-1, alpha) p^alpha
    (1-p)^beta when B does."""
    if last_scorer is A:
        return binom(alpha + beta - 1, beta) * p**alpha * (1.0 - p) ** beta
    return binom(alpha + beta - 1, alpha) * p**alpha * (1.0 - p) ** beta


def enumerate_sideout(p_a, p_b, n, server=A, tol=1e-14, max_rallies=100_000, tiebreak=None):
    """Joint law of (alpha, beta, last scorer, duration) for a side-out
    game, by exhaustive level-by-level enumeration of rally sequences.
    With a tie-break l, a game that reaches n-1 all is set to l further
    points: from then on (both scores at least n-1) the target is n-1+l.

    Returns (outcomes, leftover): a dict keyed by (alpha, beta, last,
    duration) and the active probability mass never resolved.
    """
    outcomes = defaultdict(float)
    active = {(0, 0, server): 1.0}
    rallies = 0
    while active and rallies < max_rallies:
        rallies += 1
        nxt = defaultdict(float)
        for (a, b, srv), mass in active.items():
            target = n - 1 + tiebreak if tiebreak is not None and min(a, b) >= n - 1 else n
            if srv is A:
                win, stay = p_a * mass, (1.0 - p_a) * mass
                if a + 1 == target:
                    outcomes[(target, b, A, rallies)] += win
                else:
                    nxt[(a + 1, b, A)] += win
                nxt[(a, b, B)] += stay
            else:
                win, stay = p_b * mass, (1.0 - p_b) * mass
                if b + 1 == target:
                    outcomes[(a, target, B, rallies)] += win
                else:
                    nxt[(a, b + 1, B)] += win
                nxt[(a, b, A)] += stay
        active = {k: v for k, v in nxt.items() if v > 0.0}
        if sum(active.values()) < tol:
            break
    return dict(outcomes), sum(active.values())


def enumerate_rallypoint(p_a, p_b, n, server=A):
    """Joint law of (alpha, beta, last scorer, duration) for a rally-point
    game.  The game ends within 2n - 1 rallies, so this is exact."""
    outcomes = defaultdict(float)
    active = {(0, 0, server): 1.0}
    rallies = 0
    while active:
        rallies += 1
        nxt = defaultdict(float)
        for (a, b, srv), mass in active.items():
            p_serve = p_a if srv is A else p_b
            # server keeps serve and scores with p_serve; otherwise the
            # receiver scores and takes the serve
            for winner, wmass in ((srv, p_serve * mass), (srv.other, (1.0 - p_serve) * mass)):
                if wmass == 0.0:
                    continue
                na, nb = (a + 1, b) if winner is A else (a, b + 1)
                if na == n or nb == n:
                    outcomes[(na, nb, winner, rallies)] += wmass
                else:
                    nxt[(na, nb, winner)] += wmass
        active = dict(nxt)
    return dict(outcomes), 0.0


def score_marginal(outcomes):
    """Collapse a joint (alpha, beta, last, duration) law over durations."""
    out = defaultdict(float)
    for (a, b, last, _d), mass in outcomes.items():
        out[(a, b, last)] += mass
    return dict(out)


def duration_marginal(outcomes, condition=None):
    """Duration law, optionally conditioned on a predicate over
    (alpha, beta, last); normalized over the matching mass."""
    out = defaultdict(float)
    total = 0.0
    for (a, b, last, d), mass in outcomes.items():
        if condition is not None and not condition(a, b, last):
            continue
        out[d] += mass
        total += mass
    return {d: m / total for d, m in out.items()}, total


def enumerate_trajectories(p_a, p_b, n, server=A, max_rallies=40, min_mass=0.0):
    """Probability of every full rally-winner sequence of a side-out game
    (for trajectory-level simulation checks).  Sequences still running
    after max_rallies are returned as unresolved mass."""
    done = {}
    unresolved = 0.0
    stack = [((), 0, 0, server, 1.0)]
    while stack:
        path, a, b, srv, mass = stack.pop()
        if mass <= min_mass:
            unresolved += mass
            continue
        if len(path) >= max_rallies:
            unresolved += mass
            continue
        p_serve = p_a if srv is A else p_b
        for winner, wmass in ((srv, p_serve * mass), (srv.other, (1.0 - p_serve) * mass)):
            if wmass == 0.0:
                continue
            npath = path + (winner,)
            na, nb = a, b
            if winner is srv:
                na, nb = (a + 1, b) if winner is A else (a, b + 1)
            if na == n or nb == n:
                done[npath] = done.get(npath, 0.0) + wmass
            else:
                stack.append((npath, na, nb, winner, wmass))
    return done, unresolved


def backward_induction_win_prob(p_a, p_b, n, server=A, rally_point=False):
    """P[A wins] of a game to n by backward induction over (a, b, server)
    states, in float64.

    Side-out: from (a, b) with A serving, A scores with p_a or hands the
    serve to B, who scores with p_b or hands it back; solving that pair of
    equations gives x = (p_a u + q_a p_b w) / (1 - q) for the state A
    serves, where u is the value after A scores and w after B scores.
    Rally-point: every rally scores and the scorer serves next.  Every step
    is a convex combination of values in [0, 1], so nothing can overflow,
    whatever n; 1 - q is taken as p_a + q_a p_b, which does not cancel as
    q -> 1.
    """
    q_a, q_b = 1.0 - p_a, 1.0 - p_b
    # row[b] = (value with A serving, value with B serving) at (a, b)
    nxt = [(1.0, 1.0)] * (n + 1)  # a = n: A has won
    for a in range(n - 1, -1, -1):
        row = [(0.0, 0.0)] * (n + 1)  # b = n: B has won
        for b in range(n - 1, -1, -1):
            u = nxt[b][0]  # A scored, A serves on
            w = row[b + 1][1]  # B scored, B serves on
            if rally_point:
                x = p_a * u + q_a * w
                y = p_b * w + q_b * u
            else:
                x = (p_a * u + q_a * p_b * w) / (p_a + q_a * p_b)
                y = p_b * w + q_b * x
            row[b] = (x, y)
        nxt = row
    return nxt[0][0] if server is A else nxt[0][1]


def closed_form_score_prob(alpha, beta, last, p_a, p_b, rally_point=False):
    """Term-by-term sum over the interruption count r of an A-game tally,
    with exact integer coefficients: the scalar loop the shared kernel
    replaced, kept as a reference for it."""
    q_a, q_b = 1.0 - p_a, 1.0 - p_b
    q = q_a * q_b

    def c(top, r):  # binom(top, r) with the binom(-1, -1) = 1 convention
        return 1 if top == r == -1 else (comb(top, r) if 0 <= r <= top else 0)

    if last is A:
        terms = [
            (c(alpha, r) * c(beta - 1, r - 1), r, 0) for r in range(min(beta, 1), min(alpha, beta) + 1)
        ]
    else:
        terms = [(c(alpha, r - 1) * c(beta - 1, r - 1), r, 1) for r in range(1, min(alpha, beta - 1) + 2)]
    total = 0.0
    for coef, r, d in terms:
        j = r - d  # power of q
        if rally_point:
            total += coef * p_a ** (alpha - j) * p_b ** (beta - d - j) * q_a**d * q**j
        else:
            x, y = p_a / (p_a + q_a * p_b), p_b / (p_a + q_a * p_b)
            total += coef * x**alpha * y**beta * q_a**d * q**j
    return total


def swapped(probs):
    """The same game seen from the other player's side."""
    return RallyProbs(probs.p_b, probs.p_a)


def served_by(config, server):
    """`config` with its first server stated in s_a, 1 for A and 0 for B;
    None keeps the config's s_a."""
    return config if server is None else dataclasses.replace(config, s_a=float(server is A))


def _exchange_terms(m0, probs, epsilon, term):
    """The exchange series for m0 points from its base `term` = (1-q)^m0,
    and a bound on the terms left out, term by term.

    The terms are running products of the ratios q(m0+l)/(l+1) in the
    rounded q, in chunks of the mean plus twelve standard deviations (which
    reach 1e-12 from m0 = 15 on).  The exact q enters through a factor
    exp(l (log q - log q_rounded)), formed in extended precision.  The
    series stops at the first index past the peak where the geometric tail
    bound drops below epsilon times the accumulated mass; that bound uses
    the current term ratio, which decreases towards q, so it is certified.
    This walk was the engine's before `duration._exchange_cut` found the
    same stop in closed form."""
    q = probs.q
    p_a, p_b = np.longdouble(probs.p_a), np.longdouble(probs.p_b)
    one_minus_q = p_a + (1.0 - p_a) * p_b
    drift = float(np.log1p(-p_a) + np.log1p(-p_b) - np.log(np.longdouble(q)))
    mean = m0 * q / float(one_minus_q)
    size = min(int(mean + 12.0 * np.sqrt(mean / float(one_minus_q))) + 64, 1 << 20)
    pieces, cum = [], 0.0
    for start in range(0, duration._MAX_TERMS, size):
        l = np.arange(start, start + size, dtype=float)
        ratio = q * (m0 + l) / (l + 1.0)
        nxt = term * np.cumprod(ratio) * np.exp((l + 1.0 - start) * drift)
        terms = np.concatenate(([term], nxt[:-1]))
        total = cum + np.cumsum(terms)
        with np.errstate(divide="ignore"):
            tail = nxt / (1.0 - ratio)
        stop = np.flatnonzero((ratio < 1.0) & (tail <= epsilon * total))
        if stop.size:
            pieces.append(terms[: stop[0] + 1])
            return np.concatenate(pieces), float(tail[stop[0]])
        pieces.append(terms)
        term, cum = nxt[-1], total[-1]
    raise DomainError("exchange series failed to converge")


def exchange_cut_walk(m0, probs, epsilon):
    """`duration._exchange_cut` by a walk over s up from the mode, with
    `kernel.log_exchange_binom` formed for blocks of s at once: the first s
    whose certified tail (`duration._exchange_tail`) is at most epsilon
    gives the series length s + 1 and that tail.  The reference for the
    cut's search by Newton steps and bisection."""
    if probs.q == 0.0 or m0 == 0:
        return 1, 0.0
    mode, limit, _, log_tail = duration._exchange_tail(m0, probs)
    for start in range(mode, limit + 1, 1024):
        s = np.arange(start, min(start + 1024, limit + 1))
        for si, log_c in zip(s.tolist(), kernel.log_exchange_binom(m0, s + 1)[:, -1].tolist()):
            tail = math.exp(log_tail(si, log_c))
            if tail <= epsilon:
                return si + 1, tail
    raise DomainError("exchange series failed to converge")


def exchange_pmf(m0, probs, epsilon):
    """Negative-binomial law of the exchange count for m0 scored points,
    P[J = l] = binom(m0+l-1, l) q^l (1-q)^m0, and a bound on what it leaves
    out: the series `_exchange_terms` builds from the base (1-q)^m0, with
    1 - q = p_a + q_a p_b formed in extended precision.  The one series per
    point total the game PMFs were built from, kept as a reference for
    `duration.exchange_mixture`."""
    if epsilon <= 0.0:
        raise DomainError("epsilon must be > 0")
    if probs.q == 0.0 or m0 == 0:
        return np.array([1.0]), 0.0
    p_a, p_b = np.longdouble(probs.p_a), np.longdouble(probs.p_b)
    base = float((p_a + (1.0 - p_a) * p_b) ** m0)
    if base <= 0.0:
        raise DomainError(f"q={probs.q} too close to 1: exchange series underflows for {m0} points")
    return _exchange_terms(m0, probs, epsilon, base)


def nb_terms(m0, probs, length):
    """The first `length` terms of NB(m0, q), binom(m0+l-1, l) q^l
    (1-q)^m0, as running products of the term ratios from the base, all in
    extended precision (no underflow of the base, and q^l to about 1e-19
    l relative)."""
    p_a, p_b = np.longdouble(probs.p_a), np.longdouble(probs.p_b)
    l = np.arange(length - 1, dtype=np.longdouble)
    ratio = (1 - p_a) * (1 - p_b) * (m0 + l) / (l + 1)
    return (np.concatenate(([np.longdouble(1)], np.cumprod(ratio))) * (p_a + (1 - p_a) * p_b) ** m0).astype(float)


def _series(m0, probs, epsilon, terms):
    """`exchange_pmf`'s series and bound, the series continued to at least
    `terms` terms by `nb_terms`: a reference cut at epsilon lacks terms
    that the last bins of a longer window need to 1e-12 relative."""
    series, bound = exchange_pmf(m0, probs, epsilon)
    return (nb_terms(m0, probs, max(terms, len(series))) if terms and probs.q > 0.0 else series), bound


@functools.lru_cache(maxsize=4096)
def interruption_weights(alpha, beta, server_last, q):
    """Law of the power j of q given a tally (alpha, beta) of the first
    server and the receiver, from the exact integer coefficients
    C(alpha, j) C(beta - 1, j - [server last]) (`math.comb`) times q^j in
    40-digit mpmath, normalized and rounded once: (j, weights), the
    interruption count being j + [receiver last].  A shutout has the one
    term j = 0; at q = 0 all the mass is on the least j."""
    if beta == 0:
        return np.array([0]), np.array([1.0])
    d = int(server_last)
    js = [j for j in range(d, min(alpha, beta) + 1) if comb(alpha, j) * comb(beta - 1, j - d) > 0]
    with mpmath.workdps(40):
        q = mpmath.mpf(q)
        # q^j0 is factored out, so that the law at q = 0 is its limit
        terms = [comb(alpha, j) * comb(beta - 1, j - d) * q ** (j - js[0]) for j in js]
        total = mpmath.fsum(terms)
        weights = np.array([float(t / total) for t in terms])
    js = np.array(js)
    for arr in (js, weights):
        arr.setflags(write=False)  # cached: shared by every caller
    return js, weights


def mixture_pmfs(system, rows, probs, coef, epsilon, terms=0):
    """Laws of D mixed over the tallies of `rows` (first-server
    coordinates), row r weighing coef[i, r] in mixture i, as the
    per-point-total reference for `duration.exchange_mixture`.

    Given a side-out tally, D = alpha + beta + delta + 2(j + l), with delta
    = [receiver scores last], j the interruption pair shift and l the
    exchange count.  A row is one (m0 = alpha + beta, delta) group: its
    weighted interruption law is convolved once with the one series of its
    m0 (`exchange_pmf`) and written at stride 2.  A rally-point tally is
    the point mass at alpha + beta.  Each law starts at the least m0 +
    delta of its rows and ends with the longest series; its truncation
    bound is the weighted sum of the series' bounds.  Every series has at
    least `terms` terms (`_series`)."""
    m0 = rows.alpha + rows.beta
    if system is ScoringSystem.SIDE_OUT:
        tallies = zip(rows.alpha.tolist(), rows.beta.tolist(), rows.server_last.tolist())
        law = [interruption_weights(*t, probs.q) for t in tallies]
        delta = (~rows.server_last).astype(int)
        used = (coef > 0.0).any(axis=0)
        series = {m: _series(m, probs, epsilon, terms) for m in set(m0[used].tolist())}
    else:
        law = [(np.array([0]), np.array([1.0]))] * len(m0)
        delta = np.zeros_like(m0)
        series = dict.fromkeys(m0.tolist(), (np.array([1.0]), 0.0))
    pmfs = []
    for c in coef:
        rs = np.flatnonzero(c > 0.0)
        start = int((m0 + delta)[rs].min())
        stop = max(int(m0[r] + delta[r] + 2 * (law[r][0][-1] + len(series[m0[r]][0])) - 1) for r in rs)
        masses = np.zeros(stop - start)
        for r in rs:
            js, weights = law[r]
            pairs = np.convolve(c[r] * weights, series[m0[r]][0])
            i = m0[r] + delta[r] + 2 * js[0] - start
            masses[i : i + 2 * len(pairs) - 1 : 2] += pairs
        pmfs.append(duration.DurationPMF(start, masses, float(sum(c[r] * series[m0[r]][1] for r in rs))))
    return pmfs


def _table_weights(probs, config):
    """`kernel.table(n)` of a game without a tie-break and its rows'
    probabilities weight[i, r] when A (i = 0) or B (i = 1) serves first."""
    rows = kernel.table(config.n)
    return rows, kernel._ends(config.system, rows, probs.p_a, probs.p_b).weight[:, :, 0].T


def _row_coef(weight, server, winner, s_a):
    """Each row's weight in the event (first server, winner), a None mixing
    both first servers with weights (s_a, 1 - s_a) or both winners: the
    first server wins rows 0..n-1 and the receiver rows n..2n-1."""
    n = weight.shape[1] // 2
    coef = np.zeros(2 * n)
    for i, (first, wt) in enumerate(((A, s_a), (B, 1.0 - s_a))):
        if server not in (None, first):
            continue
        wt = 1.0 if server is not None else wt
        for half, won in ((0, first), (1, first.other)):
            if winner in (None, won):
                coef[half * n : (half + 1) * n] += wt * weight[i, half * n : (half + 1) * n]
    return coef


def per_point_total_pmf(probs, config, server, winner, epsilon, terms=0):
    """Law of a game's D given the event (first server, winner), a None
    mixing both as the engine does, by `mixture_pmfs`; normalized when the
    winner is given."""
    rows, weight = _table_weights(probs, config)
    c = _row_coef(weight, server, winner, config.s_a)
    pmf = mixture_pmfs(config.system, rows, probs, c[None], epsilon, terms)[0]
    total = 1.0 if winner is None else c.sum()
    return duration.DurationPMF(pmf.offset, pmf.masses / total, pmf.truncation_bound / total)


def per_point_total_mixture(points, law, probs, epsilon, terms=0):
    """`duration.exchange_mixture` of a side-out law[M - points, s] by one
    exchange series per point total: the shifts of each M convolved along
    each parity class with NB(M, q) (`_series`), on a window from `points`
    that ends with the longest series; the truncation bound is the
    mass-weighted sum of the series' bounds."""
    series = {k: _series(points + k, probs, epsilon, terms) for k in range(len(law)) if law[k].any()}
    stop = max(k + law.shape[1] + 2 * len(nb) for k, (nb, _) in series.items())
    masses, bound = np.zeros(stop), 0.0
    for k, (nb, tail) in series.items():
        for e in (0, 1):
            pairs = np.convolve(law[k, e::2], nb)
            masses[k + e : k + e + 2 * len(pairs) : 2] += pairs
        bound += law[k].sum() * tail
    return duration.DurationPMF(points, masses, bound)


def reference_exchange_mixture(points, law, probs, system, epsilon=1e-12):
    """`duration.exchange_mixture` as a Horner pass of full-window filters:
    from the largest M down, filter the whole window and add the rallies of
    the next M, every pass along both parity classes as a two-level scan
    (`_FullWindowFilter`).  The same window and truncation bound as the
    engine, which runs the passes over the law's head alone."""
    k, s = np.nonzero(law > 0.0)
    top, exchanges = points + int(k.max()), system is ScoringSystem.SIDE_OUT and probs.q > 0.0
    length, tail = duration._exchange_cut(top, probs, epsilon) if exchanges else (1, 0.0)
    start = points + int((k + s).min())
    stop = points + int((k + s).max()) + 2 * (length - 1)
    i = points + k + s - start
    if not exchanges:
        return duration.DurationPMF(start, np.bincount(i, law[k, s], stop - start + 1), 0.0)
    filt = _FullWindowFilter(probs, (stop - start) // 2 + 1)
    flat, masses = filt.place(i, law[k, s], top - points - k)
    rows = np.searchsorted(k, np.arange(int(k.max()) + 2))
    for m in range(top, 0, -1):
        if m >= points:
            take = slice(rows[m - points], rows[m - points + 1])
            filt.flat[flat[take]] += masses[take]
        filt()
    # the law's mass summed over the box of its support, as the engine sums it
    mass = float(law[: int(k.max()) + 1, : int(s.max()) + 1].sum())
    return duration.DurationPMF(start, filt.unscale()[: stop - start + 1], mass * tail)


class _FullWindowFilter:
    """y[t] = q y[t-1] + (1-q) x[t] along both parity classes over a whole
    window, as a two-level scan.  Layout: acc[i, b, e] holds t = bC + i of
    class e.  Scale: a value at t is kept times q^-(t - t0), t0 the first t
    of its block of G columns, so that the filter is (1-q) times a prefix
    sum: C - 1 row adds, a prefix sum of each block's column totals, and
    the carry K' = q^(GC) (K + the block's sum) from block to block.  The
    factor 1 - q of each pass is kept as a running power, folded into the
    values before it passes e^(700 - 350)."""

    _RANGE = 350.0
    _HEADROOM = 700.0

    def __init__(self, probs, length):
        p_a, p_b = np.longdouble(probs.p_a), np.longdouble(probs.p_b)
        log_q = np.log1p(-p_a) + np.log1p(-p_b)
        reach = self._RANGE / -float(log_q)
        c = max(1, min(math.isqrt(length // 256), int(reach)))
        g = max(1, min(-(-length // c), int(reach / c)))
        blocks = -(-length // (c * g))
        self.acc = np.zeros((c, blocks * g, 2))
        self.flat = self.acc.reshape(-1)
        self.sums = self.acc[-1].reshape(blocks, g, 2)
        self.before = np.zeros((blocks, g, 2))
        self.carried = self.before.reshape(-1, 2)
        i = np.arange(c) * log_q
        col = np.arange(g) * (c * log_q)
        self.row_up, self.col_up = np.exp(-i).astype(float), np.exp(-col).astype(float)
        self.row_down, self.col_down = np.exp(i).astype(float), np.tile(np.exp(col).astype(float), blocks)
        self.hop = float(np.exp(c * g * log_q))
        self.log_keep = np.log(p_a + (1.0 - p_a) * p_b)
        self.span = max(1, int(min((self._HEADROOM - self._RANGE) / max(-float(self.log_keep), 1e-300), duration._MAX_TERMS)))
        self.passes = 0

    def place(self, i, masses, after):
        c, cols, _ = self.acc.shape
        t, row = i // 2, (i // 2) % c
        col = t // c
        done = np.arange(int(after.max()) + 1)
        lift = np.exp(-np.minimum(done, (done - 1) % self.span + 1) * self.log_keep).astype(float)[after]
        return (row * cols + col) * 2 + i % 2, masses * lift * self.row_up[row] * self.col_up[col % len(self.col_up)]

    def __call__(self):
        acc, before = self.acc, self.before
        if self.passes >= self.span:
            acc *= float(np.exp(self.passes * self.log_keep))
            self.passes = 0
        for i in range(1, len(acc)):
            acc[i] += acc[i - 1]
        np.add.accumulate(self.sums[:, :-1], axis=1, out=before[:, 1:])
        for b in range(1, len(before)):
            carry = self.hop * (self.sums[b - 1, -1] + before[b - 1, -1])
            before[b, 0] = carry
            before[b, 1:] += carry
        acc += self.carried
        self.passes += 1

    def unscale(self):
        acc = self.acc.reshape(len(self.acc), -1)
        acc *= self.row_down[:, None]
        acc *= np.repeat(self.col_down * float(np.exp(self.passes * self.log_keep)), 2)
        return np.ascontiguousarray(acc.view(np.complex128).T).view(float).reshape(-1)


def mixture_calls(monkeypatch):
    """The arguments of every `duration.exchange_mixture` call from here
    on, in order."""
    calls, mixture = [], duration.exchange_mixture
    monkeypatch.setattr(duration, "exchange_mixture", lambda *args: calls.append(args) or mixture(*args))
    return calls


def built_filters(monkeypatch):
    """Every `duration._GeometricFilter` built from here on, with the
    shape of the array its `tail` fills, in order: [(filter, shape)]."""
    built, init, tail = [], duration._GeometricFilter.__init__, duration._GeometricFilter.tail

    def spy_init(self, *args):
        init(self, *args)
        built.append([self, None])

    def spy_tail(self, out):
        next(entry for entry in built if entry[0] is self)[1] = out.shape
        tail(self, out)

    monkeypatch.setattr(duration._GeometricFilter, "__init__", spy_init)
    monkeypatch.setattr(duration._GeometricFilter, "tail", spy_tail)
    return built


def check_against_full_window(pmf, ref):
    """A PMF of `duration.exchange_mixture` against
    `reference_exchange_mixture` of the same law: the same window and
    truncation bound, the same zero pattern and 1e-12 relative agreement on
    every nonzero bin."""
    assert (pmf.offset, len(pmf.masses), pmf.truncation_bound) == (ref.offset, len(ref.masses), ref.truncation_bound)
    np.testing.assert_array_equal(pmf.masses == 0.0, ref.masses == 0.0)
    nonzero = ref.masses > 0.0
    np.testing.assert_allclose(pmf.masses[nonzero], ref.masses[nonzero], rtol=1e-12, atol=0)


def mp_sideout_duration_prob(p_a, p_b, n, server, d, dps=30):
    """P[D = d] of a side-out game to n first served by `server`: the
    paper's elementary probabilities (`prob_score_r_j`) of every terminal
    tally, interruption count r and exchange count j with alpha + beta +
    2r - delta + 2j = d rallies, delta = [the receiver scores last], summed
    in mpmath."""
    if server is B:
        p_a, p_b = p_b, p_a
    with mpmath.workdps(dps):
        p_a, p_b = mpmath.mpf(p_a), mpmath.mpf(p_b)
        q_a = 1 - p_a
        q = q_a * (1 - p_b)
        total = mpmath.mpf(0)
        for k in range(n):
            for alpha, beta, delta in ((n, k, 0), (k, n, 1)):
                for r in range(n + 2):
                    c = _placements(alpha, beta, delta, r)
                    twice_j = d - alpha - beta - 2 * r + delta
                    if c == 0 or twice_j < 0 or twice_j % 2:
                        continue
                    j = twice_j // 2
                    total += (
                        mpmath.binomial(alpha + beta + j - 1, j) * int(c)
                        * p_a**alpha * p_b**beta * q_a**delta * q ** (r - delta + j)
                    )
        return total


def check_against_reference(pmf, ref, epsilon):
    """A PMF against a reference law built at epsilon 1e-16 on a window at
    least as long: no reference mass before the PMF's window, the same zero
    pattern and 1e-12 relative agreement on every nonzero bin, a truncation
    bound within epsilon that covers the reference mass past the window, and
    an L1 distance within that bound plus 1e-14."""
    lo = pmf.offset - ref.offset
    want = ref.masses[lo : lo + len(pmf.masses)]
    beyond = float(ref.masses[lo + len(pmf.masses) :].sum())
    assert lo >= 0 and not ref.masses[:lo].any()
    assert len(want) == len(pmf.masses)
    np.testing.assert_array_equal(pmf.masses == 0.0, want == 0.0)
    nonzero = want > 0.0
    np.testing.assert_allclose(pmf.masses[nonzero], want[nonzero], rtol=1e-12, atol=0)
    assert pmf.truncation_bound <= epsilon
    assert beyond <= pmf.truncation_bound
    assert np.abs(pmf.masses - want).sum() + beyond <= pmf.truncation_bound + 1e-14


def full_cdf_quantile(pmf):
    """`duration.quantile` as it read a CDF of the whole PMF, np.cumsum of
    the masses cached per PMF, before it read CDF checkpoints: the
    reference the checkpointed search must match bit for bit, errors
    included.  Returns quantile(level, mode) of the PMF; the CDF and the
    mid-jump values are formed once."""
    cdf = np.cumsum(pmf.masses)
    idx = np.flatnonzero(pmf.masses > 0.0)
    support, w = pmf.offset + idx, pmf.masses[idx]
    mid = cdf[idx] - 0.5 * w

    def quantile(level, mode):
        if not (0.0 < level < 1.0):
            raise DomainError(f"quantile level {level} outside (0, 1)")
        if not len(cdf) or cdf[-1] <= 0.0:
            raise ConditioningError("PMF carries no mass")
        if level > cdf[-1]:
            raise DomainError(
                f"level {level} unreachable: computed mass {cdf[-1]:.17g} "
                f"(truncation bound {pmf.truncation_bound:.3g})"
            )
        if mode is duration.QuantileMode.STANDARD:
            return float(pmf.offset + np.searchsorted(cdf, level))
        if level <= mid[0]:
            return float(support[0])
        if level >= mid[-1]:
            return float(support[-1])
        i = int(np.searchsorted(mid, level)) - 1
        frac = (level - mid[i]) / (mid[i + 1] - mid[i])
        return float(support[i] + frac * (support[i + 1] - support[i]))

    return quantile


def reference_quantile(pmf, level, mode):
    """`duration.quantile` as it read the PMF before the CDF was cached: the
    cumulative sum over the support alone, recomputed on every call."""
    idx = np.nonzero(pmf.masses > 0.0)[0]
    support = pmf.offset + idx
    w = pmf.masses[idx]
    cdf = np.cumsum(w)
    if mode is duration.QuantileMode.STANDARD:
        return float(support[np.searchsorted(cdf, level)])
    mid = cdf - 0.5 * w
    if level <= mid[0]:
        return float(support[0])
    if level >= mid[-1]:
        return float(support[-1])
    i = int(np.searchsorted(mid, level)) - 1
    frac = (level - mid[i]) / (mid[i + 1] - mid[i])
    return float(support[i] + frac * (support[i + 1] - support[i]))


def _tally_duration_law(alpha, beta, last, probs, epsilon, rally_point, terms=0):
    """(offset, masses, truncation bound) of D given an A-game tally: the
    exchange series shifted by each interruption count and summed with its
    weight, then spread over every other rally count."""
    if rally_point:
        return alpha + beta, np.array([1.0]), 0.0
    # the interruption pairs, j of them: the last side-out of a receiver's win is single
    pair_shift, weights = interruption_weights(alpha, beta, last is A, probs.q)
    nb, bound = _series(alpha + beta, probs, epsilon, terms)
    pairs = np.zeros(len(nb) + int(pair_shift.max()))
    for weight, shift in zip(weights, pair_shift):
        pairs[shift : shift + len(nb)] += weight * nb
    masses = np.zeros(2 * len(pairs) - 1)
    masses[::2] = pairs
    return alpha + beta + (last is B), masses, bound


def tally_pmf(alpha, beta, last, probs, epsilon=1e-12):
    """The law of D given an A-game side-out tally (`_tally_duration_law`)
    as a DurationPMF: a reference for the law given an end score, and the
    law of tallies no game ends at."""
    return duration.DurationPMF(*_tally_duration_law(alpha, beta, last, probs, epsilon, False))


def tally_moments(alpha, beta, last, q):
    """Mean and variance of D given an A-game side-out tally at q, from the
    law of the power j of q (`interruption_weights`): D = alpha + beta +
    [B last] + 2j + 2L with L ~ NB(alpha + beta, q), so the mean is (alpha +
    beta)(1+q)/(1-q) + [B last] + 2E[j] and the variance 4(alpha +
    beta)q/(1-q)^2 + 4Var[j]."""
    js, weights = interruption_weights(alpha, beta, last is A, q)
    mean_j = float(np.dot(weights, js))
    var_j = float(np.dot(weights, (js - mean_j) ** 2))
    points = alpha + beta
    return duration.Moments(
        points * (1.0 + q) / (1.0 - q) + int(last is B) + 2.0 * mean_j,
        4.0 * points * q / (1.0 - q) ** 2 + 4.0 * var_j,
    )


def at_q(q):
    """Even rally probabilities p_a = p_b = 1 - sqrt(q), whose exchange
    probability is q up to rounding."""
    p = 1.0 - math.sqrt(q)
    return RallyProbs(p, p)


def no_server_grid(step=0.0005):
    """The paper's no-server parameter grid {step, 2*step, ..., 1 - step};
    raise DomainError for a step that is not finite, lies outside (0, 1) or
    does not divide 1 (1/step an integer up to rounding)."""
    if not 0.0 < step < 1.0:  # NaN compares false
        raise DomainError(f"step={step} outside (0, 1)")
    count = round(1.0 / step) - 1
    if abs(1.0 / step - (count + 1)) > 1e-9 * (count + 1):
        raise DomainError(f"step={step} does not divide 1: 1/step = {1.0 / step!r}")
    return [RallyProbs.no_server(i * step) for i in range(1, count + 1)]


def is_end(alpha, beta, last):
    """Whether a game to max(alpha, beta) can end at the tally: the last
    scorer reaches it, the other stays below."""
    return alpha != beta and (alpha if last is A else beta) == max(alpha, beta)


def tally_prob(alpha, beta, last, probs, system=ScoringSystem.SIDE_OUT):
    """Probability of an A-game tally: its entry of the public
    `sideout.score_distribution` of a game to max(alpha, beta) first served
    by A where it is an end score, `closed_form_score_prob` otherwise."""
    if not is_end(alpha, beta, last):
        return closed_form_score_prob(alpha, beta, last, probs.p_a, probs.p_b, system is ScoringSystem.RALLY_POINT)
    config = GameConfig(n=max(alpha, beta), system=system)
    return sideout.score_distribution(probs, config, server=A).entries[TerminalScore(alpha, beta, last)]


def _end_config(alpha, beta, last, probs):
    """The config of the side-out game to max(alpha, beta), first served by
    A, that ends at the A-game tally with positive probability at `probs`,
    or None for a tally no such game ends at."""
    if not is_end(alpha, beta, last) or tally_prob(alpha, beta, last, probs) == 0.0:
        return None
    return GameConfig(n=max(alpha, beta))


def given_tally_moments(alpha, beta, last, probs):
    """Mean and variance of D given an A-game side-out tally: the public law
    given the end score (`duration.score_moments`) where a game ends there
    with positive probability, `tally_moments` otherwise."""
    config = _end_config(alpha, beta, last, probs)
    if config is None:
        return tally_moments(alpha, beta, last, probs.q)
    return duration.score_moments(probs, config, (alpha, beta))


def given_tally_pmf(alpha, beta, last, probs, epsilon=1e-12):
    """PMF of D given an A-game side-out tally: `duration.score_pmf` where a
    game ends there with positive probability, `tally_pmf` otherwise."""
    config = _end_config(alpha, beta, last, probs)
    if config is None:
        return tally_pmf(alpha, beta, last, probs, epsilon)
    return duration.score_pmf(probs, config, (alpha, beta), epsilon)


def aligned(*pmfs):
    """The masses of DurationPMFs on the union of their windows, one row
    per PMF."""
    start = min(pmf.offset for pmf in pmfs)
    out = np.zeros((len(pmfs), max(pmf.offset + len(pmf.masses) for pmf in pmfs) - start))
    for row, pmf in zip(out, pmfs):
        row[pmf.offset - start : pmf.offset - start + len(pmf.masses)] = pmf.masses
    return out


def tv_distance(a, b):
    """Total-variation distance of two DurationPMFs, counting any truncated
    mass as misplaced."""
    pa, pb = aligned(a, b)
    return 0.5 * float(np.abs(pa - pb).sum()) + 0.5 * (max(1.0 - a.total_mass, 0.0) + max(1.0 - b.total_mass, 0.0))


def convergence_check(system, winner, direction, n, p_sequence, epsilon=1e-12):
    """Total-variation distance between the exact law of D given the winner
    of an A-game (`duration.duration_pmf_winner`, the config's default s_a =
    1) in the no-server model at each p and the limiting law
    (`asymptotics.limit_pmf`).  A ConditioningError propagates where the
    conditioning event underflows at an extreme p."""
    target = asymptotics.limit_pmf(system, winner, direction, n)
    config = GameConfig(n=n, system=system)
    pmfs = (duration.duration_pmf_winner(RallyProbs.no_server(p), config, winner, epsilon=epsilon) for p in p_sequence)
    return np.array([tv_distance(pmf, target) for pmf in pmfs])


def per_tally_duration_pmf(probs, config, winners, server=None, epsilon=1e-12, terms=0):
    """Law of D as a mixture of one law per terminal tally and first
    server, weighted by `closed_form_score_prob` and placed by its offset;
    with a single winner the weights are normalized over that winner's
    tallies.  The per-score mixture the grouped exchange series replaced,
    kept as a reference for it.  Every series has at least `terms` terms
    (`_series`).  Returns (offset, masses, truncation bound)."""
    rally_point = config.system is ScoringSystem.RALLY_POINT
    n = config.n
    servers = {server: 1.0} if server is not None else {A: config.s_a, B: config.s_b}
    parts = []
    for sv, s_wt in servers.items():
        pr = probs if sv is A else swapped(probs)
        for k in range(n):
            for alpha, beta, last in ((n, k, A), (k, n, B)):
                winner = sv if last is A else sv.other
                if s_wt == 0.0 or winner not in winners:
                    continue
                wt = s_wt * closed_form_score_prob(alpha, beta, last, pr.p_a, pr.p_b, rally_point)
                parts.append((wt, _tally_duration_law(alpha, beta, last, pr, epsilon, rally_point, terms)))
    if len(winners) == 1:
        total = sum(wt for wt, _ in parts)
        parts = [(wt / total, law) for wt, law in parts]
    parts = [(wt, law) for wt, law in parts if wt > 0.0]
    start = min(off for _, (off, _, _) in parts)
    masses = np.zeros(max(off + len(m) for _, (off, m, _) in parts) - start)
    bound = 0.0
    for wt, (off, m, b) in parts:
        masses[off - start : off - start + len(m)] += wt * m
        bound += wt * b
    return start, masses, bound


def exact_h_count(alpha, beta, last, m):
    """H(m) of an A-game tally in exact integers: the number-weight of
    trajectories with m rally pairs beyond the scored points, a
    convolution over the exchange count l of C(alpha+beta+l-1, l) with the
    interruption coefficient of q^(m-l).  The loop the estimator's
    log-space sum replaced, kept as a reference for it."""

    def c(top, r):  # binom(top, r) with the binom(-1, -1) = 1 convention
        return 1 if top == r == -1 else (comb(top, r) if 0 <= r <= top else 0)

    shift = 1 if last is A else 0
    return sum(
        c(alpha + beta + l - 1, l) * c(alpha, m - l) * c(beta - 1, m - l - shift)
        for l in range(max(0, m - min(alpha, beta)), m + 1)
    )


def mp_sideout_win_prob(p_a, p_b, n, server=A, dps=40):
    """P[A wins] of a side-out game to n by backward induction in
    `dps`-digit arithmetic.  At each (a, b) the values x (A serving) and
    y (B serving) solve the pair x = p_a u + q_a y, y = p_b w + q_b x,
    with u the value after A scores and w after B scores."""
    with mpmath.workdps(dps):
        pa, pb = mpmath.mpf(p_a), mpmath.mpf(p_b)
        qa, qb = 1 - pa, 1 - pb
        one, zero = mpmath.mpf(1), mpmath.mpf(0)
        nxt = [(one, one)] * (n + 1)  # a = n: A has won
        for a in range(n - 1, -1, -1):
            row = [(zero, zero)] * (n + 1)  # b = n: B has won
            for b in range(n - 1, -1, -1):
                u, w = nxt[b][0], row[b + 1][1]
                x = (pa * u + qa * pb * w) / (1 - qa * qb)
                row[b] = (x, pb * w + qb * x)
            nxt = row
        return nxt[0][0] if server is A else nxt[0][1]


def mp_rallypoint_win_prob(p_a, p_b, n, server=A, dps=40):
    """P[A wins] of a rally-point game to n as the binomial sum over the
    terminal tallies and interruption counts, in `dps`-digit arithmetic.
    With the first server's tally alpha and the receiver's beta and j
    round trips of the serve (lost by the first server, then won back,
    each weighing q = q_a q_b), a tally won by the server carries
    C(alpha, j) C(beta - 1, j - 1) paths and one won by the receiver
    C(alpha, j) C(beta - 1, j)."""
    with mpmath.workdps(dps):
        ps, pr = (mpmath.mpf(p_a), mpmath.mpf(p_b)) if server is A else (mpmath.mpf(p_b), mpmath.mpf(p_a))
        qs, q = 1 - ps, (1 - ps) * (1 - pr)
        server_wins = ps**n + mpmath.fsum(
            comb(n, j) * comb(k - 1, j - 1) * ps ** (n - j) * pr ** (k - j) * q**j
            for k in range(1, n)
            for j in range(1, min(n, k) + 1)
        )
        receiver_wins = mpmath.fsum(
            comb(k, j) * comb(n - 1, j) * ps ** (k - j) * pr ** (n - 1 - j) * qs * q**j
            for k in range(n)
            for j in range(min(k, n - 1) + 1)
        )
        return server_wins if server is A else receiver_wins


def mp_rallypoint_duration_moments(p_a, p_b, n, s_a, dps=50):
    """Mean and variance of the rally count of a rally-point game to n
    whose first server is A with probability s_a, by a forward pass over
    (score of A, score of B, server) in `dps`-digit arithmetic; a
    rally-point game lasts alpha + beta rallies."""
    with mpmath.workdps(dps):
        p = {A: mpmath.mpf(p_a), B: mpmath.mpf(p_b)}
        states = {(0, 0, A): mpmath.mpf(s_a), (0, 0, B): 1 - mpmath.mpf(s_a)}
        law = defaultdict(lambda: mpmath.mpf(0))
        for _ in range(2 * n - 1):
            nxt = defaultdict(lambda: mpmath.mpf(0))
            for (a, b, server), mass in states.items():
                for winner, wt in ((server, p[server]), (server.other, 1 - p[server])):
                    na, nb = a + (winner is A), b + (winner is B)
                    if max(na, nb) == n:
                        law[na + nb] += mass * wt
                    else:
                        nxt[(na, nb, winner)] += mass * wt
            states = nxt
        mean = mpmath.fsum(d * w for d, w in law.items())
        return mean, mpmath.fsum((d - mean) ** 2 * w for d, w in law.items())


def mp_sideout_duration_moments(p_a, p_b, n, s_a, dps=50):
    """Mean and variance of the rally count of a side-out game to n whose
    first server is A with probability s_a, overall and given each winner
    ({winner: (mean, variance)}), by a forward pass over (score of A, score
    of B, server) in `dps`-digit arithmetic.  From server s the next point
    goes to s after 1 + 2G rallies and to the receiver after 2 + 2G, with
    G the exchanges before it: P[G = g, s scores] = q^g p_s and P[G = g,
    receiver scores] = q^g q_s p_r, so G ~ Geometric(1 - q) whoever
    scores.  Each state carries its mass and the first two moments of the
    rallies so far, times that mass."""
    with mpmath.workdps(dps):
        p = {A: mpmath.mpf(p_a), B: mpmath.mpf(p_b)}
        q = (1 - p[A]) * (1 - p[B])
        g1 = q / (1 - q)  # E[G]
        g2 = q * (1 + q) / (1 - q) ** 2  # E[G^2]
        # E[X] and E[X^2] of X = c + 2G rallies for c = 1, 2
        step = {c: (c + 2 * g1, c * c + 4 * c * g1 + 4 * g2) for c in (1, 2)}
        zero = (mpmath.mpf(0),) * 3
        states = {(0, 0, A): (mpmath.mpf(s_a), 0, 0), (0, 0, B): (1 - mpmath.mpf(s_a), 0, 0)}
        ends = {A: zero, B: zero}
        for _ in range(2 * n - 1):
            nxt = defaultdict(lambda: zero)
            for (a, b, server), (m0, m1, m2) in states.items():
                receiver = server.other
                for winner, c, w in ((server, 1, p[server]), (receiver, 2, (1 - p[server]) * p[receiver])):
                    w, (e1, e2) = w / (1 - q), step[c]
                    moved = (w * m0, w * (m1 + m0 * e1), w * (m2 + 2 * m1 * e1 + m0 * e2))
                    na, nb = a + (winner is A), b + (winner is B)
                    key = winner if max(na, nb) == n else (na, nb, winner)
                    target = ends if max(na, nb) == n else nxt
                    target[key] = tuple(x + y for x, y in zip(target[key], moved))
            states = nxt

        def moments(m0, m1, m2):
            mean = m1 / m0
            return mean, m2 / m0 - mean**2

        out = {w: moments(*ends[w]) for w in Player}
        out[None] = moments(*(x + y for x, y in zip(ends[A], ends[B])))
        return out


def record_rows(batch):
    """The records of a `RecordBatch` one row at a time, as Python values:
    (first server, alpha, beta, last scorer, rally count or None)."""
    cols = (batch.first_server_a, batch.alpha, batch.beta, batch.last_scorer_a, batch.duration)
    for first_a, alpha, beta, last_a, duration in zip(*(c.tolist() for c in cols)):
        yield A if first_a else B, alpha, beta, A if last_a else B, None if math.isnan(duration) else int(duration)


def score_loglik(records):
    """Score-only log-likelihood of a record batch as a function of
    (p_a, p_b): the exponent totals plus, per distinct tally in
    first-server coordinates, its q-polynomial with exact integer
    coefficients, summed in plain floating point.  The form the kernel
    evaluation replaced, kept as a reference for it."""

    def c(top, r):  # binom(top, r) with the binom(-1, -1) = 1 convention
        return 1 if top == r == -1 else (comb(top, r) if 0 <= r <= top else 0)

    k = [0, 0, 0, 0]  # exponents of log p_a, log q_a, log p_b, log q_b
    tallies = defaultdict(int)
    for first, alpha, beta, last, _ in record_rows(records):
        swap = first is B
        a, b = (beta, alpha) if swap else (alpha, beta)
        server_last = last is first
        server, receiver = (2, 0) if swap else (0, 2)
        k[server] += a
        k[receiver] += b
        k[server + 1] += 0 if server_last else 1
        tallies[(a, b, server_last)] += 1
    counts = np.array(list(tallies.values()))
    points = sum(n * (a + b) for (a, b, _), n in tallies.items())
    width = max(min(a, b) for a, b, _ in tallies) + 1
    poly = np.array(
        [[c(a, j) * c(b - 1, j - 1 if last else j) for j in range(width)] for a, b, last in tallies],
        dtype=float,
    )

    def loglik(p_a, p_b):
        if not (0.0 < p_a < 1.0 and 0.0 < p_b < 1.0):
            return -np.inf
        q_a, q_b = 1.0 - p_a, 1.0 - p_b
        sums = poly @ (q_a * q_b) ** np.arange(width)
        if np.any(sums <= 0.0):
            return -np.inf
        return (
            k[0] * np.log(p_a) + k[1] * np.log(q_a) + k[2] * np.log(p_b) + k[3] * np.log(q_b)
            - points * np.log(p_a + q_a * p_b)
            + counts @ np.log(sums)
        )

    return loglik


def log_h(rows, m):
    """log H(m) of one record: the tally's (a one-row `kernel` table)
    number-weight of trajectories with m extra rally pairs, a convolution
    over the l exchanges of C(a+b+l-1, l) with the kernel coefficient of
    q^(m-l).  The per-record form `estimate._log_h` replaced, kept as a
    reference for it."""
    j0 = int(rows.j0[0])
    j = np.arange(j0, min(int(rows.top[0]), m) + 1)
    if j.size == 0:
        return -np.inf
    log_exchanges = kernel.log_exchange_binom(int(rows.alpha[0] + rows.beta[0]), m - j)[:, -1]
    return float(np.logaddexp.reduce(log_exchanges + rows.logc[0, j - j0]))


def start_grid_probs(model):
    """(p_a, p_b) at the points of `estimate.fit`'s start grid."""
    grid = np.stack([g.ravel() for g in np.meshgrid(*[estimate._GRID] * (2 if model is estimate.FitModel.SERVER else 1))])
    return estimate._probs(1.0 / (1.0 + np.exp(-grid)), model)


class RecordLikelihood:
    """A `RecordBatch` reduced row by row to exponent totals,
    and either the extra rally pairs with log H(m) or the counts of its
    distinct tallies (first-server coordinates, first servers pooled, in
    first-seen order): the per-record set-up `estimate._Likelihood`
    replaced with column arithmetic, kept as a reference for it.  It has
    the same methods, so `estimate.fit` runs on it when patched in; its
    start grid is evaluated by the kernel, without the grid cache."""

    def __init__(self, records, mode):
        if not len(records):
            raise InfeasibleData("no records")
        self.mode = mode
        self.k = [0, 0, 0, 0]  # exponents of log p_a, log q_a, log p_b, log q_b, less m
        self.m, self.log_h_total = 0, 0.0  # extra rally pairs and log H(m), with durations
        tallies = {}  # tally -> its records
        spans = []
        for i, (first, alpha, beta, last, duration) in enumerate(record_rows(records)):
            swap = first is B
            a, b = (beta, alpha) if swap else (alpha, beta)
            server_last = last is first
            win_pts, lose_pts = (a, b) if server_last else (b, a)
            if win_pts <= lose_pts:
                raise InfeasibleData(
                    f"record {i}: last scorer of a completed game must hold the higher tally ({alpha}, {beta})"
                )
            delta = 0 if server_last else 1  # the receiving side scored last
            server, receiver = (2, 0) if swap else (0, 2)
            self.k[server] += a
            self.k[receiver] += b
            self.k[server + 1] += delta
            if mode is estimate.FitMode.SCORE_DURATION:
                if duration is None:
                    raise InfeasibleData(f"record {i}: duration required for score-and-duration fit")
                span = duration - a - b - delta
                if span < 0 or span % 2 != 0:
                    raise InfeasibleData(
                        f"record {i}: duration {duration} infeasible for tally ({alpha}, {beta}) with first server "
                        f"{first.value} (wrong parity or too short)"
                    )
                # H(m) vanishes below the tally's fewest interruption pairs
                if span // 2 < kernel.tallies([(a, b, server_last)]).j0[0]:
                    raise InfeasibleData(f"record {i}: duration {duration} carries zero probability")
                spans.append(span // 2)
            tallies.setdefault((a, b, server_last), []).append(i)
        if mode is estimate.FitMode.SCORE_DURATION:
            m = np.array(spans)
            log_h_values = np.empty(len(m))
            for key, which in tallies.items():
                log_h_values[which] = estimate._log_h(kernel.tallies([key]), m[which])
            self.m = int(m.sum())
            self.log_h_total = float(np.add.accumulate(log_h_values)[-1])  # in record order
        else:
            self.rows = kernel.tallies(list(tallies))
            self.counts = np.array([len(which) for which in tallies.values()], dtype=float)
            self.j0_total = float(self.counts @ self.rows.j0)

    def e_step(self, p_a, p_b):
        """Score-only log-likelihood, and mean and variance of the extra
        rally pairs, at each point of the arrays (p_a, p_b), from one
        kernel evaluation of the tallies' polynomials per distinct q; at
        the point of two floats, three floats."""
        x, y = np.asarray(p_a, dtype=np.longdouble), np.asarray(p_b, dtype=np.longdouble)
        q_a, q_b = 1.0 - x, 1.0 - y
        q = np.atleast_1d(q_a * q_b)
        one_minus_q = x + q_a * y  # does not cancel as q -> 1
        distinct, where = np.unique(q, return_inverse=True) if q.size > 1 else (q, slice(None))
        poly = np.stack(kernel.interruption_polynomial(self.rows, distinct), axis=1)
        sums = (self.counts[:, None, None] * poly).sum(axis=0)[:, where]  # log P, mean and variance of s
        k_pa, k_qa, k_pb, k_qb = self.k
        bases = (x / one_minus_q, y / one_minus_q, q_a, q_b, q)
        log_x, log_y, log_qa, log_qb, log_q = (np.log(v).astype(float) for v in bases)
        ll = k_pa * log_x + k_pb * log_y + k_qa * log_qa + k_qb * log_qb + self.j0_total * log_q + sums[0]
        odds = (q / one_minus_q).astype(float)
        mean = self.j0_total + sums[1] + (k_pa + k_pb) * odds
        out = ll, mean, sums[2] + (k_pa + k_pb) * (odds / one_minus_q).astype(float)
        return out if np.ndim(p_a) else tuple(float(v[0]) for v in out)

    def grid_e_step(self, model):
        """`e_step` at every point of the fit's start grid."""
        return self.e_step(*start_grid_probs(model))

    def __call__(self, p_a, p_b):
        if not (0.0 < p_a < 1.0 and 0.0 < p_b < 1.0):
            return -np.inf
        if self.mode is estimate.FitMode.SCORE_ONLY:
            return self.e_step(p_a, p_b)[0]
        won, served = (np.array(v, dtype=float) for v in estimate._serve_counts(self.k, self.m, estimate.FitModel.SERVER))
        return float(won @ np.log([p_a, p_b]) + (served - won) @ np.log1p([-p_a, -p_b])) + self.log_h_total


def reference_score_information(k, x, mean, var, model):
    """Score-only logit score won - served p at E[M] (Fisher's identity) and
    observed information diag(served p (1 - p)) - Var[M] w w^T, w the
    derivative of that score in M (Louis's formula), as numpy arrays: the
    form `estimate._score_information` replaced with floats, kept as a
    reference for it."""
    won, served = (np.array(v, dtype=float) for v in estimate._serve_counts(k, mean, model))
    w = -x if model is estimate.FitModel.SERVER else 1.0 - 2.0 * x
    return won - served * x, np.diag(served * x * (1.0 - x)) - var * np.outer(w, w)


def reference_newton(lik, model, lo, hi):
    """Projected Newton steps in logit coordinates on [lo, hi] from the best
    point of the start grid, on numpy arrays with `np.linalg.eigvalsh` and
    `np.linalg.solve`: the form `estimate._newton` replaced with
    closed-form algebra on floats, kept as a reference for it (patch it in
    as `estimate._newton`).  Returns the estimate, its log-likelihood, the
    steps taken and the points evaluated."""
    bounds = np.array([-1.0, 1.0]) * math.log(hi / lo)
    grid = estimate._start_grid(model).theta
    ll, mean, var = lik.grid_e_step(model)
    evaluations = grid.shape[1]
    best = np.argmax(ll)
    theta, ll, mean, var = grid[:, best], ll[best], mean[best], var[best]
    x = 1.0 / (1.0 + np.exp(-theta))
    for steps in range(1, estimate._MAX_STEPS + 1):
        score, info = reference_score_information(lik.k, x, mean, var, model)
        free = ~((theta <= bounds[0]) & (score < 0.0) | (theta >= bounds[1]) & (score > 0.0))
        step = np.zeros_like(x)
        if free.any():
            h = info[np.ix_(free, free)]
            floor, low = 1e-12 * (1.0 + np.trace(h)), np.linalg.eigvalsh(h)[0]
            if low < floor:  # not positive definite: shift it
                h = h + (floor - 2.0 * min(low, 0.0)) * np.eye(len(h))
            step[free] = np.linalg.solve(h, score[free])
        # end the step just past the first bound it meets, where the clip holds that coordinate
        inside = (step != 0.0) & (theta > bounds[0]) & (theta < bounds[1])
        room = (np.where(step < 0.0, bounds[0], bounds[1]) - theta)[inside] / step[inside]
        t = min(1.0, 1.000001 * room.min(initial=np.inf))
        # gains below the rounding of the log-likelihood cannot be resolved
        tol = estimate._GAIN_TOL * (1.0 + abs(ll))
        while True:
            theta_new = np.clip(theta + t * step, *bounds)
            x_new = 1.0 / (1.0 + np.exp(-theta_new))
            ll_new, mean_new, var_new = lik.e_step(*estimate._probs(x_new, model))
            evaluations += 1
            if ll_new >= ll - tol:
                break
            t /= 2.0  # the likelihood dropped
            if t * np.abs(step).max() < estimate._STEP_TOL:
                return x, ll, steps, evaluations
        gain, moved = ll_new - ll, np.abs(theta_new - theta).max()
        theta, x, ll, mean, var = theta_new, x_new, ll_new, mean_new, var_new
        if moved < estimate._STEP_TOL or gain <= tol:
            return x, ll, steps, evaluations
    raise estimate.NonConvergence(f"no convergence within {estimate._MAX_STEPS} Newton steps")


def per_server_e_step(records):
    """The score-only E-step of a record batch as a function of the arrays
    (p_a, p_b): log-likelihood and the mean and variance of the extra rally
    pairs M, from the game table of each target score (`kernel.game`, one
    whole-table kernel evaluation), its components' weights per first
    server contracted with the tally counts.  The form the q-only E-step
    replaced, kept as a reference for it."""
    k = [0, 0, 0, 0]  # exponents of log p_a, log q_a, log p_b, log q_b, less m
    tallies = {}  # n -> counts over (kernel.table(n) rows, first server)
    for first, alpha, beta, last, _ in record_rows(records):
        swap = first is B
        a, b = (beta, alpha) if swap else (alpha, beta)
        server_last = last is first
        win_pts = a if server_last else b
        server, receiver = (2, 0) if swap else (0, 2)
        k[server] += a
        k[receiver] += b
        k[server + 1] += 0 if server_last else 1
        counts = tallies.setdefault(win_pts, np.zeros((2 * win_pts, 2)))
        counts[b if server_last else win_pts + a, int(swap)] += 1

    def e_step(p_a, p_b):
        p_a, p_b = np.broadcast_arrays(np.atleast_1d(np.asarray(p_a, dtype=float)), np.asarray(p_b, dtype=float))
        sums = 0.0
        for n, counts in tallies.items():
            game = kernel.game(GameConfig(n), p_a, p_b)
            # the law of R = (s + delta) / 2 given a tally, from that of the
            # shift s, is the same for both first servers
            log_weight, delta = np.log(game.weight), (game.alpha < game.beta)[:, None]
            r_mean, r_var = (game.shift_mean + delta) / 2.0, game.shift_var / 4.0
            moments = np.broadcast_arrays(r_mean[:, None], r_var[:, None], log_weight)[:2]
            by_server = np.stack([log_weight, *moments])
            sums = sums + np.einsum("rs,xrsp->xp", counts, by_server)
        k_pa, k_qa, k_pb, k_qb = k
        one_minus_q = p_a + (1.0 - p_a) * p_b
        odds = (1.0 - p_a) * (1.0 - p_b) / one_minus_q
        return sums[0], sums[1] - k_qa - k_qb + (k_pa + k_pb) * odds, sums[2] + (k_pa + k_pb) * odds / one_minus_q

    return e_step


def multistart_score_fit(records, server_model=True):
    """Score-only MLE by bounded L-BFGS-B with finite-difference gradients
    from each start of a 3 x 3 grid (3 starts in the no-server model, p_b =
    1 - p_a), keeping the best: the optimizer the Newton fit replaced,
    kept as a reference for it.  Returns (p_a, p_b, log-likelihood)."""
    loglik = score_loglik(records)
    lo, starts_1d = 1e-9, (0.25, 0.5, 0.75)
    if server_model:
        starts = [(x, y) for x in starts_1d for y in starts_1d]

        def nll(x):
            return -loglik(x[0], x[1])

    else:
        starts = [(x,) for x in starts_1d]

        def nll(x):
            return -loglik(x[0], 1.0 - x[0])

    best = min(
        (
            minimize(nll, np.array(x0), method="L-BFGS-B", bounds=[(lo, 1.0 - lo)] * len(x0),
                     options={"maxfun": 10_000 // len(starts), "ftol": 1e-13, "gtol": 1e-9})
            for x0 in starts
        ),
        key=lambda res: res.fun,
    )
    p_a = float(best.x[0])
    p_b = float(best.x[1]) if server_model else 1.0 - p_a
    return p_a, p_b, -float(best.fun)


def _game_laws(p_a, p_b, n, rally_point, tiebreak):
    """Enumerated law of a game's (winner, rallies) for each first server."""
    games = {}
    for server in (A, B):
        if rally_point:
            outcomes, _ = enumerate_rallypoint(p_a, p_b, n, server=server)
        else:
            outcomes, _ = enumerate_sideout(p_a, p_b, n, server=server, tol=1e-15, tiebreak=tiebreak)
        law = defaultdict(float)
        for (_, _, winner, rallies), mass in outcomes.items():
            law[(winner, rallies)] += mass
        games[server] = law
    return games


def _compose(games, m, rule, s_a):
    """Finished mass of a match, {(winner, duration): probability}, from the
    game laws {first server: {(winner, rallies): probability}}."""
    coin = [(A, s_a), (B, 1.0 - s_a)]
    states = {(0, 0, server): {0: wt} for server, wt in coin if wt > 0.0}
    total = defaultdict(float)
    for _ in range(2 * m - 1):
        nxt = defaultdict(lambda: defaultdict(float))
        for (a, b, server), law in states.items():
            for (winner, rallies), mass in games[server].items():
                na, nb = a + (winner is A), b + (winner is B)
                if rule == "winner-serves-next":
                    servers = [(winner, 1.0)]
                elif rule == "alternate":
                    servers = [(server.other, 1.0)]
                else:
                    servers = coin
                for d, prior in law.items():
                    if na == m or nb == m:
                        total[(winner, d + rallies)] += prior * mass
                        continue
                    for nxt_server, wt in servers:
                        nxt[(na, nb, nxt_server)][d + rallies] += prior * mass * wt
        states = nxt
    return dict(total)


def compose_match(p_a, p_b, n, m, rule, s_a, rally_point=False, tiebreak=None):
    """Finished mass of a match by match winner and total rally count,
    {(winner, duration): probability}, by composing enumerated game laws
    game by game over (games won by A, games won by B, first server) with
    plain dictionaries.  `rule` is a `ServerRule` value string:
    "winner-serves-next", "alternate" or "coin-flip-each"; `tiebreak` is
    the side-out extension l or None."""
    return _compose(_game_laws(p_a, p_b, n, rally_point, tiebreak), m, rule, s_a)


def compose_match_durations(p_a, p_b, n, m, rule, s_a, rally_point=False, tiebreak=None):
    """Law of a match's total rally count, {duration: probability}, from
    `compose_match`."""
    law = defaultdict(float)
    for (_, d), mass in compose_match(p_a, p_b, n, m, rule, s_a, rally_point, tiebreak).items():
        law[d] += mass
    return dict(law)


def compose_match_win_probs(p_a, p_b, n, m, rule, s_a, rally_point=False, tiebreak=None):
    """Probability that each player takes the match, {winner: probability}:
    `compose_match` on the enumerated game laws with their durations
    summed out."""
    games = {}
    for server, law in _game_laws(p_a, p_b, n, rally_point, tiebreak).items():
        games[server] = defaultdict(float)
        for (winner, _), mass in law.items():
            games[server][(winner, 0)] += mass
    wins = {A: 0.0, B: 0.0}
    for (winner, _), mass in _compose(games, m, rule, s_a).items():
        wins[winner] += mass
    return wins


def duration_pmfs_by_server_winner(probs, config, epsilon=1e-12, terms=0):
    """Law of a game's rallies jointly with the winner for each first
    server, from one exchange series per point total (`mixture_pmfs`):
    {(first server, winner): law of mass P[winner | server]} over the
    pairs of positive probability."""
    rows, weight = _table_weights(probs, config)
    coef = {}
    for server in (A, B):
        for winner in (A, B):
            c = _row_coef(weight, server, winner, config.s_a)
            if c.sum() > 0.0:
                coef[(server, winner)] = c
    pmfs = mixture_pmfs(config.system, rows, probs, np.array(list(coef.values())), epsilon, terms)
    return dict(zip(coef, pmfs))


def _merge(left, right):
    """Sum of two (offset, masses) laws."""
    start = min(left[0], right[0])
    merged = np.zeros(max(left[0] + len(left[1]), right[0] + len(right[1])) - start)
    for offset, masses in (left, right):
        merged[offset - start : offset - start + len(masses)] += masses
    return start, merged


def reference_match_duration_pmf(probs, game_config, match_config, epsilon=1e-12):
    """Law of a match's total rally count by the direct composition: a
    forward pass over (games won by A, games won by B, next first server)
    that `np.convolve`s the running law with each game's joint (rallies,
    winner) law, every game series cut at epsilon / (2M - 1); the
    truncation bound sums the games' bounds weighted by the probability of
    reaching them."""
    from rallystats.matchlevel import _next_servers

    games = duration_pmfs_by_server_winner(probs, game_config, epsilon / (2 * match_config.games_to_win - 1))
    m, rule, s_a = match_config.games_to_win, match_config.server_rule, game_config.s_a
    states = {(0, 0, first): (0, np.array([wt])) for first, wt in _next_servers(rule, None, None, s_a)}
    done, bound = [], 0.0
    for total in range(2 * m - 1):
        for a, b, server in [k for k in states if k[0] + k[1] == total]:
            offset, masses = states.pop((a, b, server))
            for winner in (A, B):
                game = games.get((server, winner))
                if game is None:
                    continue
                bound += masses.sum() * game.truncation_bound
                law = (offset + game.offset, np.convolve(masses, game.masses))
                na, nb = a + (winner is A), b + (winner is B)
                if na == m or nb == m:
                    done.append(law)
                    continue
                for first, wt in _next_servers(rule, server, winner, s_a):
                    key, nxt = (na, nb, first), (law[0], law[1] * wt)
                    states[key] = _merge(states[key], nxt) if key in states else nxt
    start, masses = functools.reduce(_merge, done)
    return duration.DurationPMF(start, masses, bound)


def reference_match_win_probs(probs, game_config, match_config):
    """Match-winning probabilities {winner: probability} by the match pass
    on 1 x 1 laws, the game-winning probabilities, as `match_duration_pmf`
    runs it on whole game laws; the float pass of
    `matchlevel.match_win_prob` must equal them bit for bit."""
    wins = [p for server in (A, B) for p in sideout.game_win_probs(server, probs, game_config)]  # [first server, game winner]
    events = [(server, game_winner) for server in (A, B) for game_winner in (A, B)]
    laws = {event: np.array([[p]]) for event, p in zip(events, wins) if p > 0.0}

    def play(state, server):
        winners = [w for w in (A, B) if (server, w) in laws]
        return list(zip(winners, matchlevel._play(state, [laws[(server, w)] for w in winners])))

    done = matchlevel._finished_matches(play, match_config, game_config.s_a, np.ones((1, 1)))
    return {winner: float(np.sum(sum(state for _, state in done.get(winner, [])))) for winner in (A, B)}


def reference_batch_games(
    probs: RallyProbs,
    config: GameConfig,
    count: int,
    rng: np.random.Generator,
    first_server_a: np.ndarray | None = None,
) -> GameSample:
    """The batch simulator's original per-rally loop: full-length state
    arrays, with the live games found by `np.nonzero` at every rally.  It
    draws one uniform per live game in index order and picks each game's
    serve probability with `np.where`, so the compacted loop in `simulate`
    must return exactly the same arrays for the same generator."""
    p_a, p_b = probs.p_a, probs.p_b
    n = config.n
    sideout = config.system is ScoringSystem.SIDE_OUT
    if first_server_a is None:
        first_server_a = rng.random(count) < config.s_a
    server_a = first_server_a.copy()
    score_a = np.zeros(count, dtype=np.int64)
    score_b = np.zeros(count, dtype=np.int64)
    duration = np.zeros(count, dtype=np.int64)
    target = np.full(count, n, dtype=np.int64)
    active = np.ones(count, dtype=bool)
    while True:
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        sa = server_a[idx]
        server_won = rng.random(idx.size) < np.where(sa, p_a, p_b)
        duration[idx] += 1
        if sideout:
            a_scores = sa & server_won
            b_scores = ~sa & server_won
        else:
            a_scores = sa == server_won
            b_scores = ~a_scores
        score_a[idx[a_scores]] += 1
        score_b[idx[b_scores]] += 1
        server_a[idx] = np.where(server_won, sa, ~sa)
        if config.tiebreak is not None:
            tie = idx[(score_a[idx] == n - 1) & (score_b[idx] == n - 1) & (target[idx] == n)]
            target[tie] = n - 1 + config.tiebreak
        finished = idx[(score_a[idx] >= target[idx]) | (score_b[idx] >= target[idx])]
        active[finished] = False
    return GameSample(
        first_server_a=first_server_a,
        alpha=score_a,
        beta=score_b,
        winner_a=score_a >= target,
        duration=duration,
    )


@dataclasses.dataclass(frozen=True)
class SimResult:
    score: TerminalScore
    winner: Player
    duration: int
    trajectory: tuple[tuple[Player, Player], ...] | None = None


def simulate_game(probs, config, seed, keep_trajectory=False):
    """Play a single game rally by rally from the generator of the
    `SeedSpec` `seed`: the scalar reference of the batch simulator, which
    can retain the trajectory of (server, rally winner) pairs.

    Side-out: the server scores on a won rally, otherwise the serve
    transfers without a point.  Rally-point: the rally winner scores and
    serves next.  With a tie-break configured, reaching n-1 all raises the
    target by the extension length.
    """
    rng = seed.generator()
    n = config.n
    side_out = config.system is ScoringSystem.SIDE_OUT
    server = A if rng.random() < config.s_a else B
    score = {A: 0, B: 0}
    target = n
    trajectory = [] if keep_trajectory else None
    rallies = 0
    while True:
        server_won = rng.random() < (probs.p_a if server is A else probs.p_b)
        rally_winner = server if server_won else server.other
        rallies += 1
        if trajectory is not None:
            trajectory.append((server, rally_winner))
        if server_won or not side_out:
            score[rally_winner] += 1
        server = rally_winner
        if config.tiebreak is not None and target == n and score[A] == score[B] == n - 1:
            target = n - 1 + config.tiebreak
        if max(score.values()) >= target:
            winner = A if score[A] >= target else B
            kept = tuple(trajectory) if trajectory is not None else None
            return SimResult(TerminalScore(score[A], score[B], winner), winner, rallies, kept)


@dataclasses.dataclass(frozen=True)
class MatchSample:
    """Outcome arrays of a batch of independent matches."""

    winner_a: np.ndarray  # bool
    total_rallies: np.ndarray
    games_played: np.ndarray


def sample_matches(probs, game_config, match_config, replications, seed) -> MatchSample:
    """Simulate first-to-M-games matches under the configured rule for the
    first server of each game, every game of a round played by the batch
    simulator (`simulate._batch_games`) on one generator: the Monte Carlo
    reference of the match laws of `matchlevel`."""
    validate(probs, game_config)
    expect_count(replications, "replications", 1)
    rng = seed.generator()
    count = replications
    wins_a = np.zeros(count, dtype=np.int64)
    wins_b = np.zeros(count, dtype=np.int64)
    rallies = np.zeros(count, dtype=np.int64)
    server_a = simulate._first_servers(rng, count, game_config.s_a)
    m = match_config.games_to_win
    active = np.ones(count, dtype=bool)
    while True:
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        batch = simulate._batch_games(probs, game_config, idx.size, rng, first_server_a=server_a[idx])
        rallies[idx] += batch.duration
        wins_a[idx[batch.winner_a]] += 1
        wins_b[idx[~batch.winner_a]] += 1
        if match_config.server_rule is ServerRule.WINNER_SERVES_NEXT:
            server_a[idx] = batch.winner_a
        elif match_config.server_rule is ServerRule.ALTERNATE:
            server_a[idx] = ~server_a[idx]
        else:  # COIN_FLIP_EACH
            server_a[idx] = simulate._first_servers(rng, idx.size, game_config.s_a)
        active[idx] = (wins_a[idx] < m) & (wins_b[idx] < m)
    return MatchSample(winner_a=wins_a >= m, total_rallies=rallies, games_played=wins_a + wins_b)
