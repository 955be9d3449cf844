"""Benchmark of kinkzeta: one command, three workloads, checked results.

    python3 kzbench/run.py --workload zeta-sweep --seed 1 --seconds 20 --trace 0
    python3 kzbench/run.py --self-check

The command runs from the root of a source checkout and imports kinkzeta
from its src/ directory; nothing is installed.  With --trace 0 it prints
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
metrics, as the last line of standard output.  See kzbench/README.md.

This process only starts workers and collects their reports; it imports
neither numpy nor kinkzeta.  Each worker is a fresh interpreter: the
set-up probes import, build the inputs, run one warm-up operation, time
the yardstick and stop, and the main worker then runs the timed phase in
a closed loop with one caller.  The end-to-end times are scaled to the
yardstick's reference speed (see yardstick.py); the raw values go to the
line above the result and to the results file.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before anything can import numpy; the
# workers inherit this environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("zeta-sweep", "lattice-gate", "pointwise-tables")
SETUP_PROBES = 7         # fresh starts per run; setup_s is their median
WORKER_TIMEOUT = 150.0   # seconds, per worker process


# ---------------------------------------------------------------------------
# worker side (a fresh interpreter per process)
# ---------------------------------------------------------------------------

def worker(args) -> int:
    t_start = time.perf_counter()
    import resource

    import workloads

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"cli-out-{os.getpid()}.csv"
    ctx = workloads.Context(out_path, tracer)
    try:
        rounds, warmup = workloads.build(args.workload, args.seed, ctx)
        warmup.call()
        print(f"READY {time.perf_counter() - t_start:.6f}", flush=True)
        if not args.trace:
            import yardstick
            print(f"SPEED {yardstick.REF_S / yardstick.burst():.9f}", flush=True)
        if args.probe:
            return 0
        if tracer:
            report = traced_pass(rounds[0], tracer)
        else:
            report = timed_phase(rounds, args.seconds)
        report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                 / 1024.0)
        report.update(verify(report.pop("records"), report.pop("results"),
                             report.pop("scales", None)))
        if tracer:
            report["metrics"] = tracer.metrics()
            tracer.dump(RESULTS / f"spans-{args.workload}-seed{args.seed}.json")
    finally:
        out_path.unlink(missing_ok=True)
    print("REPORT " + json.dumps(report), flush=True)
    return 0


def run_op(op, records, results, op_id):
    """Time one call; keep the first result of each input, and compare a
    repeat with it at once, so that only distinct results are held."""
    t0 = time.perf_counter()
    try:
        res, exc = op.call(), None
    except Exception as e:   # an operation's failure is data, not a crash
        res, exc = None, e
    dt = time.perf_counter() - t0
    if exc is not None:
        records.append((op, dt, "raised", f"{type(exc).__name__}: {exc}"))
    elif op.key in results:
        from workloads import same_result
        if same_result(res, results[op.key][1]):
            records.append((op, dt, "repeat", None))
        elif op.cli:
            records.append((op, dt, "changed", "output not byte-identical"))
        else:
            results[(op.key, op_id)] = (op, res)
            records.append((op, dt, "check", (op.key, op_id)))
    else:
        results[op.key] = (op, res)
        records.append((op, dt, "check", op.key))
    return dt


def timed_phase(rounds, seconds):
    """Whole rounds until `seconds` have passed (at least one round).  A
    yardstick sample follows the first operation that ends EVERY_S or more
    after the last one; its time is left out of the wall time.  Returns,
    besides the records, each operation's scale to the reference speed."""
    import yardstick

    records, results, spans, samples = [], {}, [], []
    n_rounds = 0
    left_out = 0.0
    last = -math.inf
    t0 = time.perf_counter()
    while True:
        for op in rounds[n_rounds % len(rounds)]:
            dt = run_op(op, records, results, len(records))
            now = time.perf_counter()
            spans.append((now - dt, now))
            if now - last >= yardstick.EVERY_S:
                samples.append((now, yardstick.sample()))
                last = time.perf_counter()
                left_out += last - now
        n_rounds += 1
        wall = time.perf_counter() - t0 - left_out
        if wall >= seconds:
            break
    return {"rounds": n_rounds, "wall_s": wall, "records": records,
            "results": results, "scales": yardstick.scales(spans, samples),
            "speed": yardstick.REF_S / statistics.median(s for _, s in samples)}


def traced_pass(ops, tracer):
    """One pass over the first round with spans on, for the per-layer
    metrics, then the same pass without spans, for the tracing overhead.
    An unmeasured pass runs first, so that neither measured pass pays for
    first calls, and the lame_system cache is emptied before each measured
    pass, so that both do the same work."""
    from kinkzeta.bakerakhiezer import lame_system

    for op in ops:
        run_op(op, [], {}, 0)
    lame_system.cache_clear()
    records, results = [], {}
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            tracer.op = i
            run_op(op, records, results, len(records))
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    lame_system.cache_clear()
    t0 = time.perf_counter()
    for op in ops:
        run_op(op, [], {}, 0)
    plain = time.perf_counter() - t0
    return {"rounds": 1, "wall_s": traced, "untraced_wall_s": plain,
            "records": records, "results": results}


def class_p50(records, times):
    """op_p50_ms: the median over attempted operations of their class's
    median time, and the class medians (ms).  Classes differ in cost by up
    to x10 and come in fixed numbers per round; with an even split the
    plain median of all times is the mean of the slowest call of one class
    and the fastest of the next, two tail values."""
    by_class = {}
    for (op, *_), t in zip(records, times):
        by_class.setdefault(op.cls, []).append(t)
    med = {cls: 1e3 * statistics.median(ts) for cls, ts in by_class.items()}
    return statistics.median(med[op.cls] for op, *_ in records), med


def verify(records, results, scales=None):
    """Check every distinct result against the reference (after timing).
    `scales` turns each operation's time into time at the reference speed."""
    from checks import CheckFailed
    from workloads import op_digits

    verdict = {}
    for key, (op, res) in results.items():
        try:
            verdict[key] = (True, op_digits(op, res), None)
        except CheckFailed as e:
            verdict[key] = (False, None, str(e))
    times, per_class = [], {}
    passed = failed = named_faults = 0
    correct = True
    digits = []
    problems = []
    for op, dt, kind, info in records:
        times.append(dt)
        cls = per_class.setdefault(op.cls, {"attempted": 0, "raised": 0,
                                            "checked": 0, "repeats": 0,
                                            "failed": 0})
        cls["attempted"] += 1
        if kind == "raised":
            cls["raised"] += 1
            ok, d, why = False, None, info
        elif kind == "changed":
            cls["repeats"] += 1
            ok, d, why = False, None, info
        else:
            ok, d, why = verdict[op.key if kind == "repeat" else info]
            cls["checked" if kind == "check" else "repeats"] += 1
        if ok:
            passed += 1
            if d is not None:
                digits.append(d)
            continue
        failed += 1
        cls["failed"] += 1
        if op.fault and kind != "changed":
            named_faults += 1
        else:
            correct = False
            if len(problems) < 5:
                problems.append(f"{op.cls} {op.key}: {why}")
    scaled = [t * f for t, f in zip(times, scales)] if scales else times
    p50, _ = class_p50(records, scaled)
    raw_p50, raw_med = class_p50(records, times)
    for name, m in raw_med.items():
        per_class[name]["median_ms"] = m
    return {"attempted": len(records), "failed": failed, "passed": passed,
            "op_p50_ms": p50, "raw_op_p50_ms": raw_p50, "busy_s": sum(scaled),
            "named_faults": named_faults, "correct": correct,
            "problems": problems, "times": times,
            "min_correct_digits": min(digits) if digits else 0.0,
            "classes": per_class}


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def spawn(args, probe: bool):
    """Start a worker; return (seconds until it reported READY, the speed
    it measured right after, report)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(WORKER_TIMEOUT, proc.kill)
    killer.start()
    ready, speed, report = None, None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY ") and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("SPEED "):
                speed = float(line[len("SPEED "):])
            elif line.startswith("REPORT "):
                report = json.loads(line[len("REPORT "):])
        rc = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None or (not probe and report is None) or (
            speed is None and not args.trace):
        raise RuntimeError(f"worker failed (exit code {rc})")
    return ready, speed, report


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns the printed result and the per-class
    counts of attempted, raised, checked and repeated operations."""
    setup = []
    if not args.trace:
        setup = [spawn(args, probe=True)[:2] for _ in range(args.probes)]
    ready, speed, rep = spawn(args, probe=False)
    setup.append((ready, speed))
    times = sorted(rep["times"])
    n = len(times)
    info = (f"{args.workload} seed {args.seed}: {rep['rounds']} rounds, "
            f"attempted {rep['attempted']}, failed {rep['failed']} "
            f"({rep['named_faults']} at named faults), "
            f"p90 {1e3 * times[min(n - 1, int(0.9 * n))]:.3f} ms over {n} ops")
    raw = {}
    if args.trace:
        info += (f"; traced pass {rep['wall_s']:.4f} s, untraced "
                 f"{rep['untraced_wall_s']:.4f} s")
        metrics = rep["metrics"]
    else:
        raw = {"setup_s": statistics.median(r for r, _ in setup),
               "results_per_s": rep["passed"] / rep["wall_s"],
               "op_p50_ms": rep["raw_op_p50_ms"], "speed": rep["speed"]}
        info += "; raw " + ", ".join(f"{k} {v:.4g}" for k, v in raw.items())
        metrics = {
            "setup_s": {"value": statistics.median(r * f for r, f in setup),
                        "unit": "s"},
            "results_per_s": {"value": rep["passed"] / rep["busy_s"], "unit": "1/s"},
            "op_p50_ms": {"value": rep["op_p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
            "min_correct_digits": {"value": rep["min_correct_digits"],
                                   "unit": "digits"},
        }
    print(info)
    for p in rep["problems"]:
        print(f"check failed: {p}")
    result = {"correct": rep["correct"], "attempted": rep["attempted"],
              "failed": rep["failed"], "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "raw": raw, "classes": rep["classes"], "info": info},
                   indent=1))
    return result, rep["classes"]


def self_check() -> int:
    """One pass of every workload, traced and untraced: the printed metric
    names must be those of BENCHMARK.json and every check must have run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}
    ok = [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for wl in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=wl, seed=1, seconds=0, trace=trace,
                                      probes=1)
            res, classes = run(args)
            names = list(res["metrics"])
            if names != want[trace]:
                print(f"{wl} trace {trace}: metrics {names} differ from BENCHMARK.json")
                ok = False
            for cls, c in classes.items():
                if c["checked"] + c["repeats"] + c["raised"] != c["attempted"] or (
                        c["checked"] == 0 and c["raised"] < c["attempted"]):
                    print(f"{wl} trace {trace}: not every {cls} result was checked")
                    ok = False
            ok &= res["correct"]
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="kinkzeta benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="one pass of every workload; checks metric names "
                         "and that every check ran")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kinkzeta" / "__init__.py").is_file():
        print(f"error: no kinkzeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args)
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    args.probes = SETUP_PROBES - 1
    try:
        result, _ = run(args)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
