#!/usr/bin/env python3
"""sumbox benchmark.

    python3 bench/run.py --workload capacity --seed 0 --seconds 30 --trace 0

Runs one workload (capacity, scheme, simulate, verify, or all) in a closed
loop from one process and one thread: whole passes over the workload's fixed
op list, with set-up probes in fresh interpreters between passes, until the
next pass would end more than --seconds after the start (at least one pass).
Timings are scaled to host speed, read from a fixed reference kernel run
between ops. Every op's output is checked exactly; a mismatch or an
exception is a failed op. The last line of stdout is one JSON object: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced set-up
and pass with --trace 1.
See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up probes, fresh interpreters run between passes: at most this many,
# and no more than this share of the run's time.
MAX_SETUP_PROBES = 15
SETUP_SHARE = 0.25
# Timings are scaled to a host on which reference_kernel() takes this long;
# on the host the benchmark was defined on it took 2.2 to 11 ms, 4.2 at the median.
REFERENCE_S = 0.004
# ... and on which startup_reference() takes this long (0.16 to 0.30 s there).
STARTUP_REFERENCE_S = 0.2
# Least time between two reference_kernel() readings in a pass.
GAUGE_EVERY_S = 0.02
WORKLOADS = ("capacity", "scheme", "simulate", "verify")

OP_MEANING = {
    "capacity": "one exact capacity solve (sumbox capacity)",
    "scheme": "build, render, parse and certify one scheme (scheme build + scheme check)",
    "simulate": "one simulate_batch call, one single-shot trial, or one exhaustive decode check",
    "verify": "one suite of check_identities(seed, 100, 5), or one oracle-LP case",
}


def import_sumbox():
    """Import sumbox from this checkout's src/, never from an installed copy."""
    if not (SRC / "sumbox" / "__init__.py").is_file():
        sys.exit(f"bench: no sumbox sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sumbox
    if not Path(sumbox.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: sumbox imported from {sumbox.__file__}, not from {SRC}")


def reference_kernel() -> float:
    """Seconds for a fixed piece of pure-Python work that never calls sumbox.

    Exact rational elimination on a fixed 8 x 9 matrix, then a dict loop:
    the mix of small-object arithmetic and interpreter overhead that sumbox's
    LP, field and oracle code runs on. The shared host changes speed by up to
    2x from one second to the next and in phases of minutes, and this
    kernel's time moves with every op's (BASELINE.md), so it is the yardstick
    timings are scaled by. The collector is off while it runs, so its time
    does not grow with the workload's heap. Do not change it: doing so
    changes every timing's unit.
    """
    gc.disable()
    try:
        return _reference_work()
    finally:
        gc.enable()


def _reference_work() -> float:
    rng = random.Random(12345)
    n = 8
    t = time.perf_counter()
    a = [[Fraction(rng.randrange(-9, 10)) for _ in range(n + 1)] for _ in range(n)]
    for i in range(n):
        p = next(r for r in range(i, n) if a[r][i] != 0)
        a[i], a[p] = a[p], a[i]
        inv = 1 / a[i][i]
        a[i] = [x * inv for x in a[i]]
        for r in range(n):
            if r != i and a[r][i] != 0:
                f = a[r][i]
                a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    d: dict[int, int] = {}
    for k in range(5000):
        d[k * 7 % 1009] = d.get(k * 7 % 1009, 0) + k
    return time.perf_counter() - t


def host_speed() -> float:
    """The median of three reference_kernel times: the host's current pace."""
    return statistics.median(reference_kernel() for _ in range(3))


def startup_reference() -> float:
    """Seconds from spawning a fresh interpreter to the end of `import numpy`.

    Starting an interpreter and importing is exec, page faults and shared
    libraries more than bytecode, and the host slows it in its own way, which
    reference_kernel() does not track; this does. It is the yardstick for the
    start-up part of set-up.
    """
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", "import time, numpy; print(time.monotonic())"],
                         check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout) - t0


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """A fresh interpreter's set-up: (start-up and imports, input building) seconds."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        check=True, capture_output=True, text=True, timeout=120)
    imported, ended = map(float, out.stdout.split()[-2:])
    return imported - t0, ended - imported


def run_pass(w, tracer=None, gauge=False):
    """One pass over the ops: per-op latencies, failures and host pace.

    Every pass starts with sumbox's field caches empty, as a fresh `sumbox`
    process does, so that log-table and extension builds stay in the pass.
    With `gauge`, reference_kernel() runs before the first op, after the
    last, and between ops whenever GAUGE_EVERY_S has passed since it last
    ran; an op's pace is the median of the two readings before its stretch
    of ops and the two after it. Without it the pace list is empty.
    """
    clear_field_caches()
    if w.fresh_inputs is not None:
        w.fresh_inputs()
    times, failed, pace = [], [], []
    marks = [(0, reference_kernel(), time.perf_counter())] if gauge else []
    for i, op in enumerate(w.ops):
        if tracer is not None:
            tracer.op, tracer.enabled = i, True
        t = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # a failing op is counted, the run goes on
            out, err = None, exc
        times.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.enabled = False
        if err is None:
            try:
                ok = bool(op.check(out))
            except Exception as exc:
                ok, err = False, exc
        else:
            ok = False
        if not ok:
            failed.append(op.name)
            print(f"FAILED op {op.name}", file=sys.stderr)
            if err is not None:
                traceback.print_exception(err, file=sys.stderr)
        if gauge and (i + 1 == len(w.ops) or time.perf_counter() - marks[-1][2] >= GAUGE_EVERY_S):
            marks.append((i + 1, reference_kernel(), time.perf_counter()))
    readings = [r for _, r, _ in marks]
    for j, ((lo, _, _), (hi, _, _)) in enumerate(zip(marks, marks[1:])):
        pace += [statistics.median(readings[max(0, j - 1):j + 3])] * (hi - lo)
    return times, failed, pace


def clear_field_caches():
    from sumbox import field

    for fn in (field.field_construct, field.extend_field):
        while not hasattr(fn, "cache_clear"):  # under a tracing wrapper
            fn = fn.__wrapped__
        fn.cache_clear()


def run_setup_checks(w) -> list[str]:
    failed = []
    for name, check in w.setup_checks:
        try:
            ok = bool(check())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            failed.append(name)
            print(f"FAILED set-up check {name}", file=sys.stderr)
    return failed


def measure(args, workloads) -> dict:
    """Passes over the ops, with set-up probes between them, for --seconds.

    Each op is scaled by the pace run_pass reads around it, and the
    input-building part of each probe by the mean of host_speed() on either
    side of it, to seconds on a host where reference_kernel() takes
    REFERENCE_S. The start-up part of each probe is scaled by a
    startup_reference() taken just before it, to STARTUP_REFERENCE_S.
    """
    start = time.monotonic()
    probe_s = 0.0  # time spent on probes and their references

    def probe():
        nonlocal probe_s
        t = time.monotonic()
        startup_ref = startup_reference()
        before = host_speed()
        imports, build = probe_setup(args.workload, args.seed)
        pace = (before + host_speed()) / 2
        setups.append((imports * STARTUP_REFERENCE_S / startup_ref
                       + build * REFERENCE_S / pace, imports + build))
        probe_s += time.monotonic() - t

    setups: list[tuple[float, float]] = []  # (scaled, unscaled seconds)
    probe()
    w = workloads.SETUPS[args.workload](ROOT, args.seed)
    failed = run_setup_checks(w)
    attempted = len(w.setup_checks)
    passes: list[tuple[list[float], list[float]]] = []  # (op seconds, op pace)
    pass_s: list[float] = []
    while True:
        t0 = time.monotonic()
        t, f, pace = run_pass(w, gauge=True)
        pass_s.append(time.monotonic() - t0)
        passes.append((t, pace))
        attempted += len(t)
        failed += f
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(pass_s) > args.seconds:
            break
        if len(setups) < MAX_SETUP_PROBES and probe_s < SETUP_SHARE * elapsed:
            probe()
    scaled_setups = [scaled for scaled, _ in setups]
    scaled = [[x * REFERENCE_S / r for x, r in zip(t, pace)] for t, pace in passes]
    op_median = [statistics.median(op) for op in zip(*scaled)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "wall_s": (statistics.median(map(sum, scaled)), "s"),
        "op_p50_ms": (statistics.median(op_median) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    n = len(op_median)
    # Reported, not gated: only the capacity ladder has ten ops beyond its p90.
    p90_ms = statistics.quantiles(op_median, n=10)[-1] * 1e3
    refs = [r for _, pace in passes for r in pace]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"ops/pass {n}  op = {OP_MEANING[args.workload]}")
    print(f"  reference kernel {min(refs) * 1e3:.2f}-{max(refs) * 1e3:.2f} ms around "
          f"{len(refs)} ops; timings below are scaled to {REFERENCE_S * 1e3:g} ms")
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes: {_fmt(scaled_setups)} "
                   f"(unscaled {_fmt(raw for _, raw in setups)})",
        "wall_s": f"median of {len(passes)} passes: {_fmt(map(sum, scaled))} "
                  f"(unscaled {_fmt(sum(t) for t, _ in passes)})",
        "op_p50_ms": f"over n = {n} ops, each its median of {len(passes)} passes",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for key, (val, unit) in metrics.items():
        print(f"  {key:<14}{val:>12.4f} {unit:<3} {notes[key]}")
    print(f"  {'op_p90_ms':<14}{p90_ms:>12.4f} ms  over n = {n} ops, {n - int(0.9 * n)} beyond "
          "(not in the JSON result)")
    for key, (val, unit, note) in workload_rates(args.workload, w, op_median).items():
        print(f"  {key:<20}{val:>12.2f} {unit:<3} {note}")
    print(f"  fail_ratio    {len(failed)}/{attempted}")
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def workload_rates(name, w, op_s) -> dict:
    """The simulate workload's batch and single-shot rates, from scaled op times."""
    if name != "simulate":
        return {}
    from workloads import BATCH
    kinds = [op.name.split()[0] for op in w.ops]
    batch = sum(t for k, t in zip(kinds, op_s) if k == "batch")
    trial = sum(t for k, t in zip(kinds, op_s) if k == "trial")
    return {
        "realizations_per_s": (sum(BATCH.values()) / batch, "1/s", "simulate_batch ops only"),
        "trials_per_s": (kinds.count("trial") / trial, "1/s", "simulate + true_sum, one trial per op"),
    }


def measure_traced(args, workloads) -> dict:
    import tracing

    problems = tracing.self_test(workloads)
    if problems:
        for p in problems:
            print(f"trace self-test: {p}", file=sys.stderr)
        sys.exit("bench: trace self-test failed")
    print("trace self-test: ok (11 capacity_lp spans on table 1, each with lp.solve_min; "
          "8 simulate_batch spans under one exhaustive decode check)")
    clear_field_caches()
    tracer = tracing.Tracer()
    with tracer.patched([workloads]):
        tracer.op, tracer.enabled = "setup", True
        w = workloads.SETUPS[args.workload](ROOT, args.seed)
        tracer.enabled = False
    failed = run_setup_checks(w)
    before, f1, _ = run_pass(w)
    with tracer.patched([workloads]):
        times, f2, _ = run_pass(w, tracer)
    after, f3, _ = run_pass(w)
    failed += f1 + f2 + f3
    attempted = 3 * len(w.ops) + len(w.setup_checks)
    traced, untraced = sum(times), (sum(before) + sum(after)) / 2
    layers = tracing.layer_metrics(tracer, traced / untraced)
    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    spans_file = out / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op", "ok"],
                                      "spans": tracer.spans}))
    print(f"workload {args.workload}  seed {args.seed}  traced set-up + 1 pass, "
          f"{len(tracer.spans)} spans -> {spans_file.relative_to(ROOT)}")
    print(f"  traced pass {traced:.4f} s, mean of the untraced passes before and after it "
          f"{untraced:.4f} s")
    for key, (val, unit) in layers.items():
        print(f"  {key:<40}{val:>14.6g} {unit}")
    print(f"  fail_ratio    {len(failed)}/{attempted}")
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}}


def run_all(args) -> dict:
    """Each workload in its own process; metrics keyed "<workload>.<metric>"."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rpartition("\n{")[0] + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            sys.exit(f"bench: workload {name} exited with {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return total


def _fmt(values) -> str:
    return ", ".join(f"{v:.3f}" for v in values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    import_sumbox()
    if args.workload == "all":
        result = run_all(args)
    else:
        import workloads
        if args.setup_probe:
            imported = time.monotonic()
            workloads.SETUPS[args.workload](ROOT, args.seed)
            print(imported, time.monotonic())
            return 0
        result = measure_traced(args, workloads) if args.trace else measure(args, workloads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
