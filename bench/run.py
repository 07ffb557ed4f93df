"""Layered benchmark of decoygraph: the solve, scan and mitigate workloads.

    python3 bench/run.py --workload solve|scan|mitigate --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``.
Each workload is a closed loop: one process, one client thread, and the next
job starts only when the previous one has returned. The timed phase runs
whole rounds of the same jobs until ``--seconds`` have passed, so the share
of failed jobs is the same in every run. Every output is then checked
against ``oracle.py`` and against properties of the method.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of several
set-ups in the run), ``jobs_per_s``, ``job_p50_s`` and ``peak_rss_mb``.
``--trace 1`` runs set-up plus one round untraced, then again with span
wrappers (``spans.py``) on the program's module attributes, and prints the
per-layer counts and self times of the traced pass with the tracing
overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Details of the run go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "decoygraph"
MODULES = ("graph", "game", "lp", "zeroday", "mitigation", "evaluation", "cli", "fixtures")

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("graph.enumerate_attack_paths.calls", "count"),
    ("graph.enumerate_attack_paths.paths", "count"),
    ("graph.enumerate_attack_paths.self_s", "s"),
    ("graph.augment.calls", "count"),
    ("game.build_matrix.calls", "count"),
    ("game.build_matrix.cells", "count"),
    ("game.build_matrix.self_s", "s"),
    ("game.reward.calls", "count"),
    ("lp.solve_zero_sum.calls", "count"),
    ("lp.solve_zero_sum.cells", "count"),
    ("lp.solve_zero_sum.self_s", "s"),
    ("lp.solve_zero_sum.failed", "count"),
    ("lp.solve_lp.calls", "count"),
    ("lp.solve_lp.self_s", "s"),
    ("zeroday.scan_candidates.self_s", "s"),
    ("zeroday.evaluate_candidate.calls", "count"),
    ("zeroday.evaluate_candidate.self_s", "s"),
    ("zeroday.new_paths", "count"),
    ("zeroday.new_paths_per_path", "ratio"),
    ("mitigation.evaluate_mitigation.self_s.pessimistic", "s"),
    ("mitigation.evaluate_mitigation.self_s.optimistic", "s"),
    ("mitigation.outcomes", "count"),
    ("mitigation.planners.self_s", "s"),
    ("mitigation.augmented_paths.hits", "count"),
    ("mitigation.augmented_paths.misses", "count"),
    ("evaluation.sweep.self_s", "s"),
    ("evaluation.capture_proportion.calls", "count"),
    ("evaluation.capture_proportion.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def configure_environment() -> None:
    """Make a run independent of the caller's environment.

    DECOYGRAPH_THREADS would move the scan onto a thread pool; BLAS threads
    would compete with the single client thread for the machine's cores.
    """
    os.environ.pop("DECOYGRAPH_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def locate_program() -> None:
    spec = importlib.util.find_spec(PACKAGE)
    origin = Path(spec.origin).resolve() if spec and spec.origin else None
    if origin is None or SRC not in origin.parents:
        raise SystemExit(f"error: {PACKAGE} not found under {SRC}")


def import_program():
    """Import the package afresh, as a new process would: module-level
    state such as caches starts empty."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES})


class Rounds:
    """Outputs and timings of the jobs run so far."""

    def __init__(self, workload):
        self.workload = workload
        self.first: dict = {}
        self.digests: dict = {}
        self.times: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.failures: list[str] = []
        self.unexpected: list[str] = []
        self.nondeterministic: list[str] = []
        self.attempted = 0

    def run(self, jobs) -> None:
        for job in jobs:
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = job.call()
            except Exception as exc:  # a failed job is counted, never fatal
                self.by_label.setdefault(job.label, []).append(time.perf_counter() - start)
                self.failures.append(f"{job.label}: {type(exc).__name__}: {exc}")
                if not job.expected_failure:
                    self.unexpected.append(job.label)
                continue
            elapsed = time.perf_counter() - start
            if job.collect is not None:
                result = job.collect(result)
            self.times.append(elapsed)
            self.by_label.setdefault(job.label, []).append(elapsed)
            digest = self.workload.digest(result)
            if job.label not in self.digests:
                self.first[job.label] = result
                self.digests[job.label] = digest
            elif self.digests[job.label] != digest:
                self.nondeterministic.append(job.label)


def check(workload, dg, state, rounds: Rounds) -> list[str]:
    problems = [f"unexpected failure: {label}" for label in rounds.unexpected]
    problems += [f"output changed between rounds: {label}" for label in rounds.nondeterministic]
    try:
        workload.check(dg, state, rounds.first)
    except Exception as exc:  # any exception in a check is a failed check
        problems.append(f"{type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
    return problems


def tail(times: list[float]) -> str | None:
    """The highest percentile with ten samples beyond it, for reference."""
    n = len(times)
    if n < 40:
        return None
    ordered = sorted(times)
    pct = int(100 * (n - 10) / n)
    return f"p{pct} {ordered[n - 11]:.4f} s over {n} jobs"


def timed_setup(workload, samples: list[float]):
    start = time.perf_counter()
    dg = import_program()
    state = workload.setup(dg)
    samples.append(time.perf_counter() - start)
    return dg, state


def measure(workload, seconds: float) -> dict:
    """Set up, then run whole rounds until ``seconds`` of job time.

    One more set-up is timed after each round, off the job clock, so the
    median set-up time samples the whole run and not only its start.
    ``jobs_per_s`` is the jobs completed over the wall time of the rounds.
    """
    setups: list[float] = []
    for _ in range(workload.setup_repeats):
        dg, state = timed_setup(workload, setups)
    jobs = workload.jobs(dg, state)
    rounds = Rounds(workload)
    wall = 0.0
    n_rounds = 0
    while n_rounds == 0 or wall < seconds:
        start = time.perf_counter()
        rounds.run(jobs)
        wall += time.perf_counter() - start
        n_rounds += 1
        timed_setup(workload, setups)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = check(workload, dg, state, rounds)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(rounds.times) / wall,
        "job_p50_s": statistics.median(rounds.times) if rounds.times else 0.0,
        "peak_rss_mb": peak,
    }
    details = {
        "setup_s": setups,
        "rounds": n_rounds,
        "wall_s": wall,
        "jobs_per_round": len(jobs),
        "job_times_s": rounds.by_label,
        "tail": tail(rounds.times),
        "failures": sorted(set(rounds.failures)),
    }
    return dict(metrics=metrics, details=details, rounds=rounds, problems=problems)


def measure_traced(workload) -> dict:
    import spans

    start = time.perf_counter()
    dg = import_program()
    plain = Rounds(workload)
    plain.run(workload.jobs(dg, workload.setup(dg)))
    untraced = time.perf_counter() - start

    tracer = spans.Tracer()
    start = time.perf_counter()
    dg = import_program()
    spans.install(tracer, dg)
    state = workload.setup(dg)
    rounds = Rounds(workload)
    rounds.run(workload.jobs(dg, state))
    traced = time.perf_counter() - start
    tracer.uninstall()

    problems = check(workload, dg, state, rounds)
    problems += [
        f"traced output differs: {label}"
        for label, digest in rounds.digests.items()
        if plain.digests.get(label) != digest
    ]
    stats = dict(tracer.stats)
    cache = getattr(getattr(dg.mitigation, "_augmented_paths", None), "cache_info", None)
    if cache is not None:
        info = cache()
        stats["mitigation.augmented_paths.hits"] = info.hits
        stats["mitigation.augmented_paths.misses"] = info.misses
        stats["mitigation.augmented_paths.currsize"] = info.currsize
    else:
        tracer.absent.append(f"{PACKAGE}.mitigation._augmented_paths.cache_info")
    base = stats.get("graph.enumerate_attack_paths.paths", 0.0)
    stats["zeroday.new_paths_per_path"] = (
        stats.get("zeroday.new_paths", 0.0) / base if base else 0.0
    )
    stats["trace.overhead_s"] = traced - untraced
    metrics = {name: stats.get(name, 0.0) for name, _ in PER_LAYER}
    details = {
        "untraced_s": untraced,
        "traced_s": traced,
        "absent": tracer.absent,
        "stats": dict(sorted(stats.items())),
        "failures": sorted(set(rounds.failures)),
    }
    return dict(metrics=metrics, details=details, rounds=rounds, problems=problems)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "scan", "mitigate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    configure_environment()
    locate_program()
    import workloads  # imports numpy, after the thread settings above

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    # The constructor imports the program once to read the fixtures, which
    # also compiles its bytecode before any set-up is timed.
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir, import_program())
    result = measure_traced(workload) if args.trace else measure(workload, args.seconds)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    rounds = result["rounds"]
    line = {
        "correct": not result["problems"],
        "attempted": rounds.attempted,
        "failed": len(rounds.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "problems": result["problems"],
        **result["details"],
        "result": line,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    for name, value in result["metrics"].items():
        print(f"{args.workload:9s} {name:52s} {value:14.6g} {units[name]}", file=sys.stderr)
    if result["details"].get("tail"):
        print(f"{args.workload:9s} tail (reference only): {result['details']['tail']}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
