"""rallystats benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Runs one workload (see bench/README.md) closed-loop from this single
process, checks every output, and prints a report followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}.  The seed and S fix
the operations a run makes; there are about S seconds of them on the
reference host.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, each timed operation scaled to the reference host speed
(the report keeps the raw wall times); with --trace 1 they are its
per-layer metrics, taken from spans around the
calls into each rallystats module, and the end-to-end numbers are not
reported.  The full record (machine, report, metrics, spans) is written
under .bench_out/ at the root of the checkout.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported here or in any child process.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

IMPORT_PROBES = 5
RUN_LIMIT_S = 170.0  # every child process must end within this much of the start


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_probes(ctx, count: int):
    """`count` fresh interpreters that import rallystats.cli."""
    from harness.metrics import ImportProbe
    from harness.ops import Op, Recorder
    from harness.tracing import NullTracer

    rec, lines = Recorder(ctx.sampler), []
    for _ in range(count):
        s = rec.run(Op("import", lambda tr: ctx.run_cli([], tr), lambda out: lines.append(out.split())), NullTracer())
        if not s.ok:
            raise RuntimeError(f"import rallystats.cli failed: {s.error}")
    rec.scale()
    return [
        ImportProbe(s.seconds, float(module_s), scipy_loaded == "True", s.scaled)
        for s, (module_s, scipy_loaded) in zip(rec.samples, lines)
    ]


def measure(workload, seconds: float, traced: bool, sampler):
    """Run the workload's fixed plan, which its seed and `seconds` decide,
    so that two runs with the same arguments attempt the same operations.

    In a traced run every round runs untraced and then traced on the same
    inputs, which gives the tracing overhead.  The host-speed sampler is
    paused while traced operations run."""
    from harness.metrics import NOTES
    from harness.ops import Recorder
    from harness.tracing import NullTracer, Tracer

    plain, traced_rec = Recorder(sampler), Recorder()
    tracer = Tracer(NOTES) if traced else None
    rounds = []
    for kind, ops in workload.plan(seconds):
        rounds.append((kind, [plain.run(op, NullTracer()) for op in ops]))
        if tracer is not None:
            with sampler.paused():
                for op in ops:
                    tracer.op = plain.attempted + traced_rec.attempted
                    traced_rec.run(op, tracer)
    plain.scale()
    if tracer is not None:
        tracer.op = None
        with sampler.paused():
            workload.probe(tracer)
    return rounds, plain, traced_rec, tracer


def machine_info(seed: int) -> dict:
    import rallystats

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    git = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
    )
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath", "click"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "rallystats": rallystats.__version__,
        "commit": git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)",
        "seed": seed,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def peak_rss_mb() -> float:
    """Benchmark process plus its largest child; one child runs at a time."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from harness.sampler import Sampler
    from harness.metrics import END_TO_END, gated_end_to_end, per_layer, per_layer_spec
    from harness.stats import median
    from harness.workloads import WORKLOADS, Context, Reported

    tag = f"{name}-seed{seed}-trace{int(traced)}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + RUN_LIMIT_S
    sampler = Sampler()
    ctx = Context(root=ROOT, bench=BENCH, work=work, seed=seed, env=child_env(), deadline=deadline, sampler=sampler)
    sampler.start()
    try:
        probes = import_probes(ctx, IMPORT_PROBES)
        workload = WORKLOADS[name](ctx)
        rounds, plain, traced_rec, tracer = measure(workload, seconds, traced, sampler)
    finally:
        sampler.stop()
        shutil.rmtree(work, ignore_errors=True)

    samples = plain.samples + traced_rec.samples
    attempted, failed = len(samples), sum(not s.ok for s in samples)
    if not any(s.ok for s in plain.samples):
        errors = "; ".join(sorted({s.error for s in samples}))
        raise SystemExit(f"error: no operation of {name} succeeded, nothing to measure: {errors}")
    report = {
        "setup_s": Reported(median([p.wall_s for p in probes]), "s", len(probes)),
        **workload.report(rounds),
        "peak_rss_mb": Reported(peak_rss_mb(), "MB", 1),
        "fail_ratio": Reported(failed / attempted, "ratio", attempted),
        "host_factor": Reported(sampler.run_factor, "ratio", len(sampler.samples), "mean kernel time / reference"),
    }
    if traced:
        overhead = sum(s.seconds for s in traced_rec.samples) / sum(s.seconds for s in plain.samples)
        metrics = per_layer(tracer.spans, probes, overhead)
        spec = per_layer_spec()
    else:
        setup_s = median([p.scaled_s for p in probes])
        op_p50_s, work_per_s = workload.end_to_end(rounds)
        metrics = gated_end_to_end(setup_s, op_p50_s, work_per_s, report["peak_rss_mb"].value)
        spec = END_TO_END
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": int(traced),
        "machine": machine_info(seed),
        "report": {k: asdict(v) for k, v in report.items()},
        "failures": [asdict(s) for s in samples if not s.ok],
        "operations": [asdict(s) for s in plain.samples],
        "result": {
            "correct": not any(s.wrong for s in samples),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": spec[k][0]} for k, v in metrics.items()},
        },
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.dump(OUT / f"{tag}-spans.json")
    return record


def print_report(record: dict) -> None:
    m = record["machine"]
    print(f"# rallystats benchmark: workload={record['workload']} seed={m['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print(f"# machine: nproc={m['nproc']} affinity={m['affinity']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} mpmath={m['mpmath']} rallystats={m['rallystats']} "
          f"commit={m['commit']} threads={','.join(f'{k}={v}' for k, v in m['threads'].items())}")
    if not record["trace"]:
        print(f"{'metric':<24}{'value':>16}  {'unit':<6}{'n':>6}  note")
        for name, r in record["report"].items():
            value = "undefined" if r["value"] is None else f"{r['value']:.6g}"
            print(f"{name:<24}{value:>16}  {r['unit']:<6}{r['n']:>6}  {r['note']}")
    print(f"# {'per-layer' if record['trace'] else 'end-to-end'} metrics (result line):")
    for name, v in record["result"]["metrics"].items():
        print(f"#   {name:<56}{v['value']:>14.6g} {v['unit']}")
    for f in record["failures"]:
        print(f"# failed: {f['name']}: {f['error']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rallystats" / "__init__.py").is_file():
        print(f"error: no rallystats source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(record)
    print(json.dumps(record["result"]), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    from harness.workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
