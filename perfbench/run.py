"""The horoindex benchmark: one command, one workload, exact answer checks.

    python3 perfbench/run.py --workload small-batch --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from `src/`
(nothing is installed).  A run sets up (import, problem generation, problem
files, warm-up), then issues the seed's problems one at a time, each after
the previous one has returned, until `--seconds` have passed.  Answers are
checked after the timed loop.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
holds the run's metadata and the figures behind the metrics.

`--trace 0` reports the end-to-end metrics.  `--trace 1` wraps every layer
(see tracer.py), runs a fixed prefix of the seed's problems traced, replays
them untraced, and reports the per-layer metrics.
"""

import time

START = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references"
WORK = HERE / ".work"

SETUP_SAMPLES = 3  # set-ups per run (this process plus fresh child processes)

# How many problems a traced run answers: a fixed prefix of the pool, so
# counts repeat exactly across runs of a seed.  For hilbert-series 56 calls
# are one rotation over its four faces (K = 9, 17, 17, 9).
TRACE_PREFIX = {"small-batch": 100, "gl3-lift": 8, "hilbert-series": 56}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("small-batch", "gl3-lift", "hilbert-series"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a few problems per workload, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (one set-up sample)")
    p.add_argument("--write-references", action="store_true",
                   help="compute and store the default seed's reference answers")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_workloads():
    if not (SRC / "horoindex" / "__init__.py").is_file():
        sys.stderr.write(f"no horoindex sources under {SRC}; run from a source checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    return workloads


class Setup:
    """Everything a run needs before its first timed problem.

    Problem files go to a directory kept across runs (`slot` names it) and
    are rewritten in place.  Creating and deleting a thousand files per
    set-up took 0.1 to 0.6 s, slower with every run as the file system
    caught up; rewriting them takes about 0.01 s.
    """

    def __init__(self, wl, seed, smoke, slot):
        clock = time.perf_counter
        t0 = clock()
        self.workdir = WORK / f"{wl.name}-{slot}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.problems = wl.pool(seed, smoke)
        t1 = clock()
        self.items = wl.prepare(self.problems, self.workdir)
        t2 = clock()
        for item in wl.warmup(self.workdir):
            wl.execute(item)
        self.parts_s = {"import": t0 - START, "pool": t1 - t0, "prepare": t2 - t1,
                        "warmup": clock() - t2}


def setup_samples(args, first, parts):
    """`first` plus SETUP_SAMPLES-1 set-ups timed in fresh interpreters.

    Returns the set-up times and, per sample, their parts (import, pool
    generation, prepared inputs, warm-up).
    """
    samples, details = [first], [parts]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        line = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append(line["setup_s"])
        details.append(line["parts_s"])
    return samples, details


def run_problems(wl, items, deadline=None):
    """Issue items in order, one at a time, until done or past the deadline.

    Returns (raw results or exceptions, latencies in s, wall time in s).
    """
    clock = time.perf_counter
    results, latencies = [], []
    begin = clock()
    for item in items:
        t0 = clock()
        if deadline is not None and t0 - begin >= deadline:
            break
        try:
            results.append(wl.execute(item))
        except Exception as exc:  # a failed problem is counted, never fatal
            results.append(exc)
        latencies.append(clock() - t0)
    return results, latencies, clock() - begin


def answers_of(wl, results):
    out = []
    for raw in results:
        try:
            out.append(None if isinstance(raw, Exception) else wl.answer_of(raw))
        except (ValueError, KeyError, TypeError):
            out.append(None)
    return out


def load_references(directory, workload):
    path = directory / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def failures(workloads, wl, problems, results, answers, seed, ref_dir):
    """One reason (or None) per problem: oracle checks, then references."""
    reasons = wl.check(problems, answers)
    for i, raw in enumerate(results):
        if isinstance(raw, Exception):
            reasons[i] = f"raised {raw!r}"
    if seed == workloads.DEFAULT_SEED:
        refs = load_references(ref_dir, wl.name)
        for i, problem in enumerate(problems):
            if reasons[i] is not None:
                continue
            expected = refs.get(workloads.key_digest(workloads.problem_key(problem)))
            if expected is None:
                reasons[i] = "no reference answer"
            elif expected != answers[i]:
                reasons[i] = f"reference says {expected}, got {answers[i]}"
    return reasons


def tail(latencies):
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond); with 10 samples or fewer,
    the maximum with the samples beyond it that it has (0).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def metadata(workloads, wl, args, problems, attempted):
    from horoindex.rationals import Q
    meta = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "rational_backend": Q.__module__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "pool_problems": len(problems), "attempted": attempted,
    }
    if wl.name == "small-batch":
        parts = [part for part, _ in problems[:attempted]]
        meta["attempted_by_part"] = {p: parts.count(p) for p in workloads.SMALL_PARTS}
    return meta


def end_to_end(workloads, wl, args, setup, setup_runs):
    setup_s, setup_parts = setup_runs
    results, latencies, wall = run_problems(wl, setup.items, args.seconds)
    # read before the checks: loading the references would count as the program's memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(results)
    problems = setup.problems[:n]
    answers = answers_of(wl, results)
    reasons = failures(workloads, wl, problems, results, answers, args.seed, REFERENCES)
    failed = sum(r is not None for r in reasons)
    value, pct, beyond = tail(latencies)
    report = {
        "meta": metadata(workloads, wl, args, setup.problems, n),
        "timed_wall_s": wall,
        "failed_frac": failed / n if n else 1.0,
        "latency_tail": {"percentile": pct, "samples": n, "beyond": beyond},
        "setup_samples_s": setup_s,
        "setup_parts_s": setup_parts,
        "pool_exhausted": n == len(setup.items),
        "failures": [{"problem": i, "reason": r} for i, r in enumerate(reasons) if r][:10],
    }
    metrics = {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "problems_per_s": {"value": (n - failed) / wall, "unit": "1/s"},
        "latency_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
        "latency_tail_ms": {"value": 1000 * value, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    return report, {"correct": failed == 0, "attempted": n, "failed": failed,
                    "metrics": metrics}


def traced(workloads, wl, args, setup, setup_runs):
    import layers
    from tracer import Tracer

    count = TRACE_PREFIX[wl.name]
    items, problems = setup.items[:count], setup.problems[:count]
    with Tracer() as tracer:
        results, _, traced_wall = run_problems(wl, items)
    plain, _, plain_wall = run_problems(wl, items)
    answers = answers_of(wl, results)
    reasons = failures(workloads, wl, problems, results, answers, args.seed, REFERENCES)
    for i, other in enumerate(answers_of(wl, plain)):
        if reasons[i] is None and other != answers[i]:
            reasons[i] = f"untraced answer {other} differs from traced {answers[i]}"
    failed = sum(r is not None for r in reasons)
    reach = layers.reach_violations(wl.name, tracer)
    metrics = layers.per_layer_metrics(tracer)
    metrics["tracer.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    report = {
        "meta": metadata(workloads, wl, args, setup.problems, len(items)),
        "traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
        "setup_samples_s": setup_runs[0],
        "reach_violations": reach,
        "layers": layers.layer_table(tracer),
        "failures": [{"problem": i, "reason": r} for i, r in enumerate(reasons) if r][:10],
    }
    return report, {"correct": failed == 0 and not reach, "attempted": len(items),
                    "failed": failed, "metrics": metrics}


def write_references(workloads, wl):
    """Answer the default seed's whole pool; store only verified answers."""
    problems = wl.pool(workloads.DEFAULT_SEED)
    workdir = WORK / f"{wl.name}-refs"
    workdir.mkdir(parents=True, exist_ok=True)
    results, _, wall = run_problems(wl, wl.prepare(problems, workdir))
    answers = answers_of(wl, results)
    reasons = wl.check(problems, answers)
    bad = [(i, r) for i, r in enumerate(reasons) if r or isinstance(results[i], Exception)]
    if bad:
        sys.stderr.write(f"not storing references, {len(bad)} problems failed: {bad[:5]}\n")
        return 1
    refs = {workloads.key_digest(workloads.problem_key(p)): a
            for p, a in zip(problems, answers)}
    REFERENCES.mkdir(parents=True, exist_ok=True)
    (REFERENCES / f"{wl.name}.json").write_text(json.dumps(refs, indent=0, sort_keys=True))
    print(f"{wl.name}: {len(refs)} reference answers in {wall:.1f} s")
    return 0


def main(argv=None):
    args = parse_args(argv)
    workloads = import_workloads()
    wl = workloads.WORKLOADS[args.workload]
    if args.write_references:
        return write_references(workloads, wl)
    setup = Setup(wl, args.seed, args.smoke, "setup" if args.setup_only else "run")
    first = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": first, "parts_s": setup.parts_s}))
        return 0
    samples = setup_samples(args, first, setup.parts_s)
    run = traced if args.trace else end_to_end
    report, result = run(workloads, wl, args, setup, samples)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
