#!/usr/bin/env python3
"""Benchmark of the ncshilov pipeline; README.md in this directory explains it.

    python3 bench/run.py --workload envelope-loose --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it ("info") holds the run's work counts, host steal time
and failures.  Run files go to bench/out/.
"""

import os

# One process, one thread: BLAS is held to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Set-up is repeated and its median reported, so that setup_s is steady.
SETUP_REPEATS = 3
# op_tail_s is the time at the highest percentile with this many
# operations beyond it.
TAIL_BEYOND = 10


def steal_ticks():
    """Host steal time so far (clock ticks, all CPUs), or None."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def tail_time(times):
    ordered = sorted(times)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def measure(rounds, seconds, recorder):
    """Send whole rounds back to back until ``seconds`` have passed.
    Returns the per-operation times, the executed rounds as
    (round index, outputs, work counts) and the phase's wall, CPU and
    steal figures."""
    times, executed = [], []
    steal0 = steal_ticks()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    r = 0
    while True:
        idx = r % len(rounds)
        before = Counter(recorder.counts)
        outs = []
        for op in rounds[idx]:
            t = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising operation is counted as failed
                out = exc
            times.append(time.perf_counter() - t)
            outs.append(out)
        counts = Counter(recorder.counts)
        counts.subtract(before)
        executed.append((idx, outs, recorder.work(counts)))
        r += 1
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    steal1 = steal_ticks()
    steal_s = None if steal0 is None or steal1 is None else \
        (steal1 - steal0) / os.sysconf("SC_CLK_TCK")
    return times, executed, t0, wall, cpu, steal_s


def check_round(ops, outs):
    """Problems per operation of one executed round."""
    found = []
    for i, (op, out) in enumerate(zip(ops, outs)):
        nxt = outs[i + 1] if i + 1 < len(outs) else None
        if isinstance(out, Exception):
            found.append([f"raised {out!r}"])
            continue
        try:
            found.append(op.check(out, nxt))
        except Exception as exc:  # a malformed output is a failed operation
            found.append([f"check could not run on the output: {exc!r}"])
    return found


def round_digest(ops, outs):
    parts = []
    for op, out in zip(ops, outs):
        parts.append(f"{op.label}:raised" if isinstance(out, Exception)
                     else f"{op.label}:{op.summary(out)}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def compare_work(path: Path, work: dict) -> list[str]:
    """Compare this run's per-round work with earlier runs of the same
    workload and seed in this checkout, then merge it into ``path``."""
    known = json.loads(path.read_text()) if path.exists() else {}
    notes = [f"round {idx}: {rec} != earlier {known[idx]}"
             for idx, rec in work.items() if idx in known and known[idx] != rec]
    known.update(work)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    tmp.replace(path)
    return notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ncshilov" / "__init__.py").is_file():
        print("error: the ncshilov sources (src/ncshilov) are not in this checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import tracing
    import workloads

    imports_s = time.perf_counter() - _STARTED
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    traced = bool(args.trace)
    recorder = tracing.Recorder(spans=traced).install()
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            setup_times = []
            for _ in range(1 if traced else SETUP_REPEATS):
                t = time.perf_counter()
                rounds = setup(args.seed, Path(tmp))
                setup_times.append(time.perf_counter() - t)
            setup_s = imports_s + statistics.median(setup_times)
            counts0 = Counter(recorder.counts)
            times, executed, phase_start, wall, cpu, steal_s = measure(
                rounds, args.seconds, recorder)
            counts = Counter(recorder.counts)
            counts.subtract(counts0)
    finally:
        recorder.uninstall()

    attempted = failed = unexpected = 0
    failures = Counter()
    work = {}
    nondeterministic = []
    for idx, outs, round_counts in executed:
        ops = rounds[idx]
        for op, problems in zip(ops, check_round(ops, outs)):
            attempted += 1
            if problems:
                failed += 1
                unexpected += not op.known_fault
                failures[f"{op.label}: {problems[0]}"[:200]] += 1
        rec = {"counts": round_counts, "digest": round_digest(ops, outs)}
        if str(idx) in work and work[str(idx)] != rec:
            nondeterministic.append(f"round {idx} differs between its repeats")
        work.setdefault(str(idx), rec)
    nondeterministic += compare_work(OUT / f"work-{args.workload}-seed{args.seed}.json", work)

    n = len(times)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(executed), "distinct_rounds": len(work), "operations": n,
        "timed_wall_s": wall, "ops_per_s": n / wall, "host_steal_s": steal_s,
        "imports_s": imports_s, "setup_runs_s": setup_times,
        "work_counts": recorder.work(counts),
        "failures": dict(failures.most_common(8)),
        "unexpected_failures": unexpected,
        "nondeterministic": nondeterministic,
    }
    if traced:
        metrics = recorder.layer_metrics(phase_start, counts)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "layers": recorder.names, "timed_phase_start": phase_start,
            "counts": dict(sorted(counts.items())), "spans": recorder.spans}))
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (n / wall, "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (tail_time(times), "s"),
            "cpu_s_per_op": (cpu / n, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    if nondeterministic:
        print(f"warning: nondeterministic workload: {nondeterministic[:3]}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
