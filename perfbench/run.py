#!/usr/bin/env python3
"""Benchmark for tauthom: three seeded workloads driven through the public
API and the command line, one process and one thread per workload.

    python3 perfbench/run.py --workload nerve-homology --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --steady 10 --seconds 30

``--trace 0`` runs whole rounds of queries until ``--seconds`` have passed
and reports the end-to-end metrics, with every query's time scaled to the
reference speed of a calibration kernel timed between queries; ``--trace
1`` runs round 0 once under the per-layer profiler and reports the
per-layer metrics. ``--steady N``
repeats untraced runs in fresh processes on seeds ``--seed`` .. ``--seed``+N-1
and prints the median, quartiles and sample count of every metric.
``--size smoke`` shrinks every ladder to a few light queries, and
``--seconds 0`` runs exactly one round. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Run from the repository root; the library is imported from
``src/`` and nowhere else.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("nerve-homology", "uct-corpus", "cli-reports")
# The highest of p90, p95, p98 and p99 that leaves ten queries beyond it in
# a --seconds 30 run (README, "Metrics").
TAIL_PERCENTILE = {"nerve-homology": 90, "uct-corpus": 95, "cli-reports": 98}
SETUP_PROBES = 9
CHILD_TIMEOUT = 170
# Median wall time of calibration_seconds() on the machine the reference
# figures in the README come from; a query's time is reported as its wall
# time times CAL_REFERENCE_S over the kernel's time around it.
CAL_REFERENCE_S = 0.002
_CAL_ROW = tuple(range(1, 129))
_CAL_MAP = {i: 7 * i + 1 for i in range(64)}
_CAL_MODULUS = 7 ** 150


def calibration_seconds():
    """Wall time of one run of a fixed pure-Python kernel: integer
    arithmetic, tuple and dict reads and one bignum product per pass. It
    uses nothing from tauthom and allocates no container, and the
    collector is off while it runs, so the library's heap does not reach it."""
    row, cmap, modulus = _CAL_ROW, _CAL_MAP, _CAL_MODULUS
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, big = 1, 3 ** 120
        for _ in range(120):
            for x in row:
                acc = (acc * x + cmap[x & 63]) % 1000003
            big = big * (acc | 1) % modulus
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _import_library():
    init = os.path.join(SRC, "tauthom", "__init__.py")
    if not os.path.isfile(init):
        sys.exit("perfbench: %s not found; run from a tauthom checkout" % init)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import tauthom
    if os.path.abspath(tauthom.__file__) != init:
        sys.exit("perfbench: imported tauthom from %s, expected %s" % (tauthom.__file__, init))
    return tauthom


def _child(args, timeout=CHILD_TIMEOUT):
    """Run this script in a fresh interpreter; return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)] + args,
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("child %s exited %d: %s" % (args, proc.returncode, proc.stderr[-2000:]))
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


class Session:
    """One workload in this process: its context, queries and outcomes."""

    def __init__(self, workload, seed, size):
        self.tauthom = _import_library()
        import workloads
        self.w = workloads
        self.workdir = os.path.join(HERE, ".work", str(os.getpid()))
        self.ctx = workloads.Context(workload, seed, size, self.workdir)
        self.times = []
        self.failed = 0
        self.wrong = 0
        self.notes = []

    def round(self, index):
        return self.w.build_round(self.ctx, index)

    def attempt(self, query, runner=None):
        t0 = time.perf_counter()
        try:
            out = runner(query.call) if runner else query.call()
        except (Exception, SystemExit) as exc:
            elapsed = time.perf_counter() - t0
            status = self.w.FAILED
            self._note(query, "raised %r" % (exc,))
        else:
            elapsed = time.perf_counter() - t0
            try:
                status = query.check(out)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                status = self.w.WRONG
                self._note(query, "malformed output: %r" % (exc,))
        self.times.append(elapsed)
        if status != self.w.OK:
            self.failed += 1
            self.wrong += status == self.w.WRONG
            self._note(query, status)
        return elapsed

    def _note(self, query, what):
        if len(self.notes) < 20:
            self.notes.append("%s: %s" % (query.label, what))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:
            pass

    def result(self, metrics):
        for note in self.notes:
            print("  not ok: %s" % note, file=sys.stderr)
        return {"correct": self.wrong == 0, "attempted": len(self.times),
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _setup_seconds(workload, seed, size):
    """Median, over fresh interpreters, of the time from process start to
    the first query being ready: import tauthom and build round 0."""
    samples = []
    # perf_counter reads the system-wide monotonic clock, so a child's
    # reading can be compared with the parent's
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        _, ready = _child(["--setup-probe", "--workload", workload, "--seed", str(seed),
                           "--size", size])
        samples.append(ready["ready"] - t0)
    return statistics.median(samples)


def setup_probe(workload, seed, size):
    session = Session(workload, seed, size)
    try:
        session.round(0)
        ready = time.perf_counter()
    finally:
        session.close()
    return {"ready": ready}


def timed_run(workload, seed, seconds, size):
    setup = _setup_seconds(workload, seed, size)
    session = Session(workload, seed, size)
    scaled, kernel = [], []
    try:
        queries = session.round(0)
        for _ in range(5):
            calibration_seconds()
        before = calibration_seconds()
        start = time.perf_counter()
        done = 0
        while True:
            for q in queries:
                elapsed = session.attempt(q)
                after = calibration_seconds()
                # the host's speed swings by a fifth within a second (README,
                # "Calibration"); the kernel on both sides of the query tracks it
                scaled.append(elapsed * 2 * CAL_REFERENCE_S / (before + after))
                kernel.append(after)
                before = after
            done += 1
            if done == 1:
                # later rounds only add memo entries, so a peak over the
                # whole run would measure the run's length
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if time.perf_counter() - start >= seconds:
                break
            try:
                queries = session.round(done)
            except session.w.InputsExhausted as exc:
                print("%s: stopping after %d rounds: %s" % (workload, done, exc))
                break
    finally:
        session.close()
    ok = len(scaled) - session.failed
    pct = TAIL_PERCENTILE[workload]
    metrics = {
        "queries_per_s": (ok / sum(scaled), "1/ref_s"),
        "query_p50_ms": (1000 * statistics.median(scaled), "ref_ms"),
        "query_tail_ms": (1000 * statistics.quantiles(scaled, n=100, method="inclusive")[pct - 1],
                          "ref_ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    print("%s seed %d: %d queries in %d rounds, %d failed, %.1f s querying; tail is p%d"
          % (workload, seed, len(scaled), done, session.failed, sum(session.times), pct))
    print("  calibration kernel median %.4f ms (reference %.4f ms); unscaled query p50 %.4f ms"
          % (1000 * statistics.median(kernel), 1000 * CAL_REFERENCE_S,
             1000 * statistics.median(session.times)))
    for name, (value, unit) in metrics.items():
        print("  %-14s %12.4f %s" % (name, value, unit))
    return session.result(metrics)


def reference_run(workload, seed, size):
    """Round 0 untraced: the wall time the traced run is compared against."""
    session = Session(workload, seed, size)
    try:
        for q in session.round(0):
            session.attempt(q)
    finally:
        session.close()
    return {"query_wall_s": sum(session.times)}


def traced_run(workload, seed, size):
    import tracing
    _, reference = _child(["--reference", "--workload", workload, "--seed", str(seed),
                           "--size", size])
    session = Session(workload, seed, size)
    profile = tracing.LayerProfile(session.tauthom)
    rows = []
    try:
        for q in session.round(0):
            elapsed = session.attempt(q, profile.call)
            profile.absorb()
            rows.append({"query": q.label, "wall_s": elapsed,
                         "self_s": {k: v for k, v in profile.last_self_s.items() if v}})
    finally:
        session.close()
    metrics = profile.metrics()
    metrics["matrices.max_transform_bits"] = (session.ctx.max_transform_bits, "bits")
    traced = sum(session.times)
    overhead = traced / reference["query_wall_s"]
    print("%s seed %d: round 0 traced, %d queries, %d failed" % (
        workload, seed, len(session.times), session.failed))
    print("  tracing overhead: %.2fx (traced %.2f s, untraced %.2f s)"
          % (overhead, traced, reference["query_wall_s"]))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print("  %-28s %14.4f %s" % (name, value, unit))
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "trace-%s-seed%d.json" % (workload, seed)), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "overhead": overhead,
                   "traced_wall_s": traced, "untraced_wall_s": reference["query_wall_s"],
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "queries": rows}, fh, indent=1)
    return session.result(metrics)


def steady(workloads, runs, first_seed, seconds, size):
    """Untraced runs in fresh processes; quartiles of every metric."""
    summary = {}
    for workload in workloads:
        results = []
        for seed in range(first_seed, first_seed + runs):
            _, res = _child(["--workload", workload, "--seed", str(seed), "--seconds",
                             str(seconds), "--trace", "0", "--size", size])
            results.append(res)
        rows = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "n": runs,
                          "spread": (q3 - q1) / med, "values": values,
                          "unit": results[0]["metrics"][name]["unit"]}
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        summary[workload] = {"metrics": rows, "failed_shares": shares,
                             "correct": all(r["correct"] for r in results)}
        print("%s: %d runs, seeds %d..%d, failed shares %s, correct %s" % (
            workload, runs, first_seed, first_seed + runs - 1, shares,
            summary[workload]["correct"]))
        for name, row in rows.items():
            print("  %-14s median %12.4f  q1 %12.4f  q3 %12.4f  n %d  spread %.3f %s" % (
                name, row["median"], row["q1"], row["q3"], row["n"], row["spread"], row["unit"]))
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "steady-%s.json" % "+".join(workloads)), "w") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--steady", type=int, default=None, metavar="N",
                   help="repeat N untraced runs in fresh processes and summarise")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.steady is not None and args.steady < 2:
        p.error("--steady needs at least 2 runs for quartiles")
    _import_library()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.steady:
        print(json.dumps(steady(workloads, args.steady, args.seed, args.seconds, args.size)))
        return 0
    if args.workload == "all":
        combined = {}
        for workload in WORKLOADS:
            out, res = _child(["--workload", workload, "--seed", str(args.seed), "--seconds",
                               str(args.seconds), "--trace", str(args.trace), "--size",
                               args.size])
            sys.stdout.write("".join(out.splitlines(True)[:-1]))
            print("  attempted %d, failed %d, correct %s"
                  % (res["attempted"], res["failed"], res["correct"]))
            combined[workload] = res
        print(json.dumps(combined))
        return 0
    if args.setup_probe:
        result = setup_probe(args.workload, args.seed, args.size)
    elif args.reference:
        result = reference_run(args.workload, args.seed, args.size)
    elif args.trace:
        result = traced_run(args.workload, args.seed, args.size)
    else:
        result = timed_run(args.workload, args.seed, args.seconds, args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
