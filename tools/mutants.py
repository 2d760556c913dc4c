"""Run a fixed corpus of mutants of the package against its tests, so that
test strength is a number each change can quote.

Each entry of `MUTANTS` names a module of `src/rallystats`, an exact source
fragment that must occur there once, its replacement and one line on the
defect it stands for.  The tool first copies the checkout it sits in
(everything but `.git` and caches, since tier-1 also reads `README.md`,
`pyproject.toml` and `tools/`) to a temporary directory and checks that
the unmutated copy imports `rallystats` from itself and passes the whole
suite (tier-1); otherwise no entry can be judged and it stops.  For each
entry it then makes a fresh copy, applies the entry there (never to the
checkout) and runs the module's tests (`tests/test_<module>.py`) with
`-x`.  An entry that survives them runs against tier-1.  A mutant that
breaks the import fails the collection of its tests, so it counts as
killed.

    python tools/mutants.py

It prints one line per entry (its name, killed or survived, the first
failing test and the time taken) and then `killed K of N`.  It exits 0
when every entry is killed, and 1 otherwise, also when a fragment does
not occur exactly once.  Only the standard library and pytest are used.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 1800  # seconds per pytest run; a run that takes longer counts as killed


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str
    old: str
    new: str
    defect: str


MUTANTS = (
    Mutant(
        "variance-over-c-minus-1", "simulate",
        "(c * s2 - s1 * s1) / (c * c)", "(c * s2 - s1 * s1) / (c * (c - 1))",
        "the Monte Carlo variance divides by c - 1, not by c",
    ),
    Mutant(
        "prob-drops-last-bin", "duration",
        "if i < 0 or i >= len(self.masses):", "if i < 0 or i >= len(self.masses) - 1:",
        "DurationPMF.prob reads the last bin as 0",
    ),
    Mutant(
        "nearest-mass-first-hit", "duration",
        "int(hit[0 if step > 0 else -1])", "int(hit[0])",
        "the search back for the nearest bin with mass reads the first hit of its chunk, not the last",
    ),
    Mutant(
        "count-admits-2-to-63", "estimate",
        "high: int = 2**63 - 1", "high: int = 2**63",
        "a record count of 2^63, past the int64 columns, is accepted",
    ),
    Mutant(
        "newton-no-stop-on-gain", "estimate",
        "if moved < _STEP_TOL or gain <= tol:", "if moved < _STEP_TOL:",
        "Newton steps go on after the log-likelihood stops rising",
    ),
    Mutant(
        "newton-step-ends-on-bound", "estimate",
        "t = min(1.0, 1.000001 * room)", "t = min(1.0, room)",
        "a Newton step ends on the bound it meets, not just past it",
    ),
    Mutant(
        "louis-term-linear-in-w", "estimate",
        "- var * (w * w),),)", "- var * w,),)",
        "the no-server observed information subtracts var w, not var w^2",
    ),
    Mutant(
        "vanishing-threshold-zero", "duration",
        "kept = np.where(total > _TINY, total, np.nan)", "kept = np.where(total > 0.0, total, np.nan)",
        "an event of probability at most 1e-300 gets moments",
    ),
    Mutant(
        "last-checkpoint-dropped", "duration",
        "np.empty(-(-len(self.masses) // _CHUNK))", "np.empty(len(self.masses) // _CHUNK)",
        "the CDF checkpoint of a short last chunk is missing",
    ),
    Mutant(
        "block-bound-once", "matchlevel",
        "matches * single.truncation_bound)", "single.truncation_bound)",
        "a block of K matches reports the bound of one match",
    ),
    Mutant(
        "truncation-bound-over-4", "duration",
        "float(law.sum()) * tail)", "float(law.sum()) * tail / 4)",
        "the truncation bound is a quarter of the tail it must cover",
    ),
    Mutant(
        "exchange-tail-without-rounding", "duration",
        "return sum(parts) + ulp * (m0 * log_c + 2.0 * sum(map(abs, parts)) + 2.0 * cond + 4.0)", "return sum(parts)",
        "the exchange tail bound leaves out the rounding of its log sum",
    ),
    Mutant(
        "tiebreak-ends-a-point-late", "simulate",
        ">= n - 1 + ell)", "> n - 1 + ell)",
        "a simulated tie-break game ends one point past n - 1 + l",
    ),
    Mutant(
        "alternate-keeps-the-server", "matchlevel",
        "else server.other, 1.0)]", "else server, 1.0)]",
        "under the alternating rule the first server of a game serves the next one first",
    ),
    Mutant(
        "never-served-start-0.4", "estimate",
        "else 0.5 for w, s", "else 0.4 for w, s",
        "a player who never served is estimated at 0.4, not 0.5",
    ),
    Mutant(
        "record-columns-share-memory", "estimate",
        "col = col.astype(dtype)\n", "col = col.astype(dtype, copy=False).view()\n",
        "a record batch keeps views of the caller's arrays, so a later write changes a checked batch",
    ),
    Mutant(
        "batched-log-h-first-j0", "estimate",
        "rows.j0[tally][:, None]", "rows.j0[tally[:1]][:, None]",
        "a batched log H(m) reads every entry's j0 from the first entry's tally",
    ),
    Mutant(
        "interpolated-quantile-wrong-checkpoint", "duration",
        "if i else marks[b - 1]", "if i else marks[b]",
        "the interpolated quantile reads the CDF before a chunk edge from the wrong checkpoint",
    ),
    Mutant(
        "flag-draw-hi-lo-swapped", "simulate",
        "((u < self.hi) & h) | (u < self.lo)", "((u < self.lo) & h) | (u < self.hi)",
        "the flags of the rallies won by the server swap the two serve probabilities",
    ),
    Mutant(
        "finished-state-keeps-scoring", "simulate",
        "nxt[:, int(won)] = 2 * np.where(end, state, scored)", "nxt[:, int(won)] = 2 * scored",
        "a finished state of the rally state table goes on scoring instead of absorbing",
    ),
    Mutant(
        "pool-rewind-by-its-length", "simulate",
        "_rewind(bits, mark, used)\n            mark = bits.state", "_rewind(bits, mark, pool.size)\n            mark = bits.state",
        "a table batch's refill advances the generator by the pool's length, not by the deviates used",
    ),
    Mutant(
        "compacted-draw-reversed", "simulate",
        "rules.score(server_won(server_h), ", "rules.score(server_won(server_h[::-1]), ",
        "a compacted block hands its deviates to its live games in reverse order",
    ),
    Mutant(
        "winner-normalizer-law-sum", "duration",
        "_pre_exchange(config, game, probs.q)(c) / total,",
        "(lambda law: law / (float(law.sum()) if winner else 1.0))(_pre_exchange(config, game, probs.q)(c)),",
        "the winner PMF divides by the sum of its law, not by P[winner] from the kernel",
    ),
    Mutant(
        "ordered-sum-pairwise", "kernel",
        "return np.add.accumulate(x, axis=axis).take(-1, axis=axis)", "return x.sum(axis=axis)",
        "the ordered sum adds a fast axis pairwise, so a point alone gets other bits than in a grid",
    ),
    Mutant(
        "one-minus-q-cancels", "kernel",
        "return p_a + (1.0 - p_a) * p_b", "return 1.0 - (1.0 - p_a) * (1.0 - p_b)",
        "1 - q is formed by subtraction, which cancels as q -> 1",
    ),
    Mutant(
        "mixture-swaps-first-servers", "sideout",
        "s_a * weight[0] + s_b * weight[1]", "s_b * weight[0] + s_a * weight[1]",
        "the score distribution weighs A's first serve by s_b",
    ),
    Mutant(
        "uniform-limit-misquoted", "asymptotics",
        "var = (n * n - 1) / 12", "var = (n - 1) ** 2 / 12",
        "the uniform limit law of upset wins has variance (n - 1)^2 / 12",
    ),
    Mutant(
        "typed-error-exits-1", "cli",
        "sys.exit(3)", "sys.exit(1)",
        "a typed error of the package exits 1, the code of an uncaught exception, not 3",
    ),
    Mutant(
        "q-equal-one-admitted", "core",
        "probs.q >= 1.0", "probs.q > 1.0",
        "an exact law is computed for q = 1, where no game ends",
    ),
    Mutant(
        "exchange-binom-admits-inf", "kernel",
        "(l < np.inf)", "(l <= np.inf)",
        "an infinite exchange count is accepted and gives a table of inf",
    ),
    Mutant(
        "pmf-offset-0-refused", "duration",
        'offset") < 0:', 'offset") < 1:',
        "a duration PMF that starts at 0 rallies is refused",
    ),
    Mutant(
        "quantile-level-1-admitted", "duration",
        'level") < 1.0):', 'level") <= 1.0):',
        "a quantile level of 1, outside the documented (0, 1), is accepted where the PMF's mass reaches 1",
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT, dest, ignore=ignore, dirs_exist_ok=True)


def _env(tree: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def _pytest(tree: Path, args: list[str]) -> str | None:
    """The first failing test of a pytest run in `tree` (or why the run
    failed), or None when it passes."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args]
    try:
        run = subprocess.run(cmd, cwd=tree, env=_env(tree), capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return f"timeout after {TIMEOUT} s"
    if run.returncode == 0:
        return None
    lines = run.stdout.splitlines()
    # "FAILED <id> - <message>": a parametrized id may hold spaces, so it ends at the separator
    failed = (line.partition(" ")[2].partition(" - ")[0] for line in lines if line.startswith(("FAILED ", "ERROR ")))
    return next(failed, f"pytest exit {run.returncode}")


def baseline() -> str | None:
    """Why the unmutated copy cannot judge the corpus, or None when it
    imports `rallystats` from itself and passes tier-1."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        cmd = [sys.executable, "-c", "import rallystats; print(rallystats.__file__)"]
        found = subprocess.run(cmd, cwd=tree, env=_env(tree), capture_output=True, text=True)
        if found.returncode or not Path(found.stdout.strip()).resolve().is_relative_to(tree.resolve()):
            return f"rallystats does not import from the copy: {(found.stdout or found.stderr).strip()}"
        failed = _pytest(tree, ["--continue-on-collection-errors"])
        return f"tier-1 fails without a mutant, at {failed}" if failed else None


def run(mutant: Mutant) -> tuple[str, str]:
    """(outcome, detail) of one entry: killed, survived or stale (the
    fragment is not in the module once)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        path = tree / "src" / "rallystats" / f"{mutant.module}.py"
        source = path.read_text(encoding="utf-8")
        if source.count(mutant.old) != 1:
            return "stale", f"fragment found {source.count(mutant.old)} times in {mutant.module}.py"
        path.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
        failed = _pytest(tree, [f"tests/test_{mutant.module}.py"])
        if failed:
            return "killed", f"by {failed}"
        failed = _pytest(tree, ["--continue-on-collection-errors"])
        return ("killed", f"by {failed} (tier-1)") if failed else ("survived", "module tests and tier-1 pass")


def main() -> int:
    start = time.perf_counter()
    if reason := baseline():
        print(f"no entry run: {reason}")
        return 1
    print(f"baseline: the unmutated copy passes tier-1\t{time.perf_counter() - start:.1f} s", flush=True)
    killed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        outcome, detail = run(mutant)
        print(f"{mutant.name}\t{mutant.module}\t{outcome}\t{detail}\t{time.perf_counter() - start:.1f} s", flush=True)
        killed += outcome == "killed"
    print(f"killed {killed} of {len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
