"""Output checks: CLI table parsing, probability sums, and mpmath
references that share no code with rallystats."""

from __future__ import annotations

import csv
import io
import math

import mpmath

from .ops import CheckFailed, require_finite

_DPS = 40


def parse_table(text: str, columns: list[str]) -> list[dict[str, str]]:
    """Parse a CLI CSV table and check its header and row widths."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != columns:
        raise CheckFailed(f"header {rows[0] if rows else None} != {columns}")
    out = []
    for row in rows[1:]:
        if len(row) != len(columns):
            raise CheckFailed(f"ragged row {row}")
        out.append(dict(zip(columns, row)))
    if not out:
        raise CheckFailed("table has no rows")
    return out


def num(cell: str) -> float:
    try:
        v = float(cell)
    except ValueError as exc:
        raise CheckFailed(f"not a number: {cell!r}") from exc
    require_finite(v)
    return v


def print_rounding(v: float) -> float:
    """Largest rounding error of `v` printed with 12 significant digits,
    as every CLI float cell is."""
    if v == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(v))) - 11)


def check_total(values: list[float], target: float, tol: float, what: str) -> None:
    """sum(values) == target within `tol` plus the printing error of the cells."""
    slack = tol + sum(print_rounding(v) for v in values)
    if abs(math.fsum(values) - target) > slack:
        raise CheckFailed(f"{what}: total {math.fsum(values)!r} != {target} (slack {slack:.3g})")


def check_probabilities(values: list[float]) -> None:
    for v in values:
        if not (0.0 <= v <= 1.0):
            raise CheckFailed(f"probability {v!r} outside [0, 1]")


def check_nondecreasing(values: list[float], what: str) -> None:
    if any(b < a for a, b in zip(values, values[1:])):
        raise CheckFailed(f"{what} not monotone: {values}")


def sideout_win_a_mp(p, n: int):
    """P[A wins a side-out game to n, A serving first] in the no-server
    model (p_a = p, p_b = 1 - p), by backward induction over (a, b, server)."""
    with mpmath.workdps(_DPS):
        return _sideout_win_a(mpmath.mpf(p), n)


def _sideout_win_a(pa, n: int):
    pb = 1 - pa
    qa, qb = 1 - pa, 1 - pb
    # x[a][b]: A serving at (a, b); y[a][b]: B serving at (a, b)
    x = [[mpmath.mpf(0)] * (n + 1) for _ in range(n + 1)]
    y = [[mpmath.mpf(0)] * (n + 1) for _ in range(n + 1)]
    for b in range(n + 1):
        x[n][b] = y[n][b] = mpmath.mpf(1)
    for a in range(n - 1, -1, -1):
        for b in range(n - 1, -1, -1):
            x[a][b] = (pa * x[a + 1][b] + qa * pb * y[a][b + 1]) / (1 - qa * qb)
            y[a][b] = pb * y[a][b + 1] + qb * x[a][b]
    return x[0][0]


def rallypoint_win_a_mp(p, n: int):
    """Same for rally-point scoring, where in the no-server model A wins
    every rally with probability p whoever serves."""
    with mpmath.workdps(_DPS):
        p = mpmath.mpf(p)
        return +mpmath.fsum(mpmath.binomial(n - 1 + k, k) * p**n * (1 - p) ** k for k in range(n))


def rel_err(value: float, ref) -> float:
    with mpmath.workdps(_DPS):
        return float(abs((mpmath.mpf(value) - ref) / ref))
