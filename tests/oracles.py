"""Brute-force oracles: rally-by-rally enumeration of whole games.

These implement nothing but the literal game rules, advancing probability
mass one rally at a time over (score_a, score_b, server) states, so they
are independent of every closed form they are used to check.  Side-out
games can last arbitrarily long; enumeration stops once the surviving
active mass drops below `tol` (reported back to the caller).
"""

import functools
from collections import defaultdict
from math import comb

import mpmath
import numpy as np
from scipy.optimize import minimize

from rallystats import GameConfig, Player, RallyProbs, ScoringSystem, binom, duration
from rallystats.simulate import GameSample

A, B = Player.A, Player.B

# rally probabilities of the tie-break oracle checks: edges and interior, q < 1
ORACLE_PROBS = [(pa, pb) for pa in (0.0, 0.3, 0.6, 1.0) for pb in (0.0, 0.3, 0.6, 1.0) if pa + pb > 0.0]


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


def _tally_duration_law(alpha, beta, last, probs, epsilon, rally_point):
    """(offset, masses, truncation bound) of D given an A-game tally: the
    exchange series shifted by each interruption count and summed with its
    weight, then spread over every other rally count."""
    if rally_point:
        return alpha + beta, np.array([1.0]), 0.0
    w = duration.interruption_weights(alpha, beta, last, probs.q)
    nb, bound = duration._exchange_pmf(alpha + beta, probs, epsilon)
    pairs = np.zeros(len(nb) + int(w.pair_shift.max()))
    for weight, shift in zip(w.weights, w.pair_shift):
        pairs[shift : shift + len(nb)] += weight * nb
    masses = np.zeros(2 * len(pairs) - 1)
    masses[::2] = pairs
    return alpha + beta + (last is B), masses, bound


def per_tally_duration_pmf(probs, config, winners, server=None, epsilon=1e-12):
    """Law of D as a mixture of one law per terminal tally and first
    server, weighted by `closed_form_score_prob` and placed by its offset;
    with a single winner the weights are normalized over that winner's
    tallies.  The per-score mixture the grouped exchange series replaced,
    kept as a reference for it.  Returns (offset, masses, truncation
    bound)."""
    rally_point = config.system is ScoringSystem.RALLY_POINT
    n = config.n
    servers = {server: 1.0} if server is not None else {A: config.s_a, B: config.s_b}
    parts = []
    for sv, s_wt in servers.items():
        pr = probs if sv is A else probs.swapped()
        for k in range(n):
            for alpha, beta, last in ((n, k, A), (k, n, B)):
                winner = sv if last is A else sv.other
                if s_wt == 0.0 or winner not in winners:
                    continue
                wt = s_wt * closed_form_score_prob(alpha, beta, last, pr.p_a, pr.p_b, rally_point)
                parts.append((wt, _tally_duration_law(alpha, beta, last, pr, epsilon, rally_point)))
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
    for r in records:
        swap = r.first_server is B
        a, b = (r.score.beta, r.score.alpha) if swap else (r.score.alpha, r.score.beta)
        server_last = r.score.last_scorer is r.first_server
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


def compose_match_durations(p_a, p_b, n, m, rule, s_a, rally_point=False):
    """Law of a match's total rally count, {duration: probability}, from
    `compose_match`."""
    law = defaultdict(float)
    for (_, d), mass in compose_match(p_a, p_b, n, m, rule, s_a, rally_point).items():
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


def duration_pmfs_by_server_winner(probs, config, epsilon=1e-12):
    """Law of a game's rallies jointly with the winner for each first
    server, sharing exchange series: {(first server, winner): law of mass
    P[winner | server]} over the pairs of positive probability."""
    events = [(server, winner) for server in (A, B) for winner in (A, B)]
    return {event: joint for event, (joint, _) in duration._joint_pmfs(probs, config, epsilon, events).items()}


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
