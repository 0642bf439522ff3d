"""tvbcox benchmark: one workload, in this process, with no threads.

    python3 bench/run.py --workload cox-kernel --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from src/.  The
run sets up the workload several times, then makes timed passes over its
operations until --seconds have gone by (at least one whole pass), then
checks the answers against the oracles.  Lines starting with "#" carry
information; the last line is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  See bench/README.md.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

import tracing
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "work")
SETUP_REPEATS = 9
MODULES = ("linalg", "poly", "bundle", "cox", "gz", "suite", "cli")
REF_ITERATIONS = 1500
REF_NOMINAL_S = 0.01
SAMPLE_EVERY_S = 0.3
SAMPLE_WINDOW_S = 1.0
END_TO_END = {"setup_s": "s", "elapsed_s": "s", "peak_rss_mib": "MiB",
              "op_p50_s": "s", "op_p90_s": "s", "heavy_tier_s": "s"}


class Program:
    """The tvbcox modules of one fresh import."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "tvbcox" or m.startswith("tvbcox.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module("tvbcox." + name))


def reference_loop():
    """Fixed stdlib work of the program's kind: Fraction coefficients
    summed into a dict keyed by exponent tuples, then the keys sorted by
    a graded key.  It never calls tvbcox, so a change to the program
    cannot move it."""
    terms = {}
    for i in range(REF_ITERATIONS):
        key = (i % 13, i % 7, i % 5, i // 97)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(i % 11 + 1, i % 97 + 1)
    return sorted(terms, key=lambda m: (sum(m), m))


class HostSpeed:
    """Samples the speed of the host while the workload runs.

    On a shared machine the speed of the same code can drift by a factor
    of two within minutes (measured on a 2-core shared host).  A SIGALRM
    timer interrupts the run every SAMPLE_EVERY_S seconds to time
    reference_loop; the time spent in it is taken out of the interval it
    interrupted.  scale() turns an interval's wall time into seconds on a
    host where reference_loop takes REF_NOMINAL_S, from the samples taken
    within SAMPLE_WINDOW_S of it.
    """

    def __init__(self):
        self.samples = []  # (perf_counter at the start of the sample, seconds)
        self.stolen = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - start
        self.samples.append((start, elapsed))
        self.stolen += elapsed

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def interval(self, fn):
        """Run fn; returns its result, its wall seconds without the samples
        taken meanwhile, and its start and end."""
        stolen, start = self.stolen, time.perf_counter()
        result = fn()
        end = time.perf_counter()
        return result, end - start - (self.stolen - stolen), start, end

    def scale(self, start, end):
        """REF_NOMINAL_S over the median sample near [start, end] (over all
        samples if none is near); 1 when nothing was sampled, as in a
        traced run."""
        if not self.samples:
            return 1.0
        near = [r for t, r in self.samples
                if start - SAMPLE_WINDOW_S <= t <= end + SAMPLE_WINDOW_S]
        return REF_NOMINAL_S / statistics.median(near or [r for _, r in self.samples])


class Record:
    __slots__ = ("label", "heavy", "wall", "start", "end", "seconds", "ok", "output")

    def __init__(self, op, timing, ok, output):
        self.label, self.heavy = op.label, op.heavy
        self.wall, self.start, self.end = timing
        self.seconds = None  # host-normalized, filled in once the run is over
        self.ok, self.output = ok, output


def run_pass(ops, tracer, pass_index, speed):
    """One timed pass; an operation fails when it raises or, for a CLI
    call, exits with a code other than 0."""
    records = []
    for k, op in enumerate(ops):
        if tracer:
            tracer.op, tracer.pass_index = k, pass_index
        try:
            raw, *timing = speed.interval(op.run)
        except Exception:  # a failing operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            now = time.perf_counter()
            records.append(Record(op, (0.0, now, now), False, None))
            continue
        ok = not (isinstance(raw, int) and not isinstance(raw, bool) and raw != 0)
        records.append(Record(op, timing, ok, op.collect(raw) if ok else None))
    return records


def quantile(values, q):
    """Linear interpolation between order statistics."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def info(tag, payload):
    print(f"# {tag} {json.dumps(payload, sort_keys=True)}", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tvbcox", "__init__.py")):
        print(f"bench: no tvbcox sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, workload.name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    # traced runs give raw per-layer times, so the sampler stays off there
    speed = HostSpeed()
    if not args.trace:
        speed.start()

    def set_up(directory):
        prog = Program()
        return prog, workload.setup(prog, args.seed, directory)

    # each set-up writes into a directory of its own: rewriting existing
    # files measured slower and far noisier than writing new ones
    setups = []
    for k in range(SETUP_REPEATS):
        directory = os.path.join(workdir, f"setup{k}")
        os.makedirs(directory)
        (prog, inputs), *timing = speed.interval(lambda: set_up(directory))
        setups.append(timing)
    if not prog.cli.__file__.startswith(SRC + os.sep):
        speed.stop()
        print(f"bench: tvbcox was imported from {prog.cli.__file__}", file=sys.stderr)
        return 2
    info("env", {"python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
                 "src_lines": src_lines(), "workload": workload.name, "seed": args.seed})

    ops = workload.operations(prog, inputs)
    tracer = tracing.Tracer(prog) if args.trace else None
    if tracer:
        tracer.install()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(ops, tracer, len(passes), speed))
    if tracer:
        tracer.uninstall()
    else:
        speed.stop()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for rec in (rec for records in passes for rec in records):
        rec.seconds = rec.wall * speed.scale(rec.start, rec.end)
    setup_s = [wall * speed.scale(start, end) for wall, start, end in setups]
    pass_seconds = [sum(rec.seconds for rec in records) for records in passes]
    info("passes", {
        "count": len(passes),
        "seconds": [round(s, 4) for s in pass_seconds],
        "wall_seconds": [round(sum(r.wall for r in records), 4) for records in passes],
        "reference_samples": len(speed.samples),
        "reference_median_s": (statistics.median(r for _, r in speed.samples)
                               if speed.samples else None),
    })
    info("figures", workload.figures_of(passes, quantile, statistics.median))

    fails = workload.check(prog, inputs, passes)
    for message in fails[:20]:
        print(f"# check failed: {message}", file=sys.stderr)
    attempted = sum(len(records) for records in passes)
    failed = sum(1 for records in passes for rec in records if not rec.ok)

    if tracer:
        path = os.path.join(workdir, "spans.jsonl")
        tracer.write(path)
        info("spans", {"file": os.path.relpath(path, ROOT), "count": len(tracer.spans)})
        metrics = tracer.layer_metrics(len(passes))
    else:
        # one latency per operation, its median over passes, so that the
        # quantiles do not depend on how many passes fitted in the run
        op_times = [statistics.median(rec.seconds for rec in same)
                    for same in zip(*passes)]
        values = {
            "setup_s": statistics.median(setup_s),
            "elapsed_s": statistics.median(pass_seconds),
            "peak_rss_mib": peak_rss_mib,
            "op_p50_s": quantile(op_times, 0.5),
            "op_p90_s": quantile(op_times, 0.9),
            "heavy_tier_s": statistics.median(
                [sum(rec.seconds for rec in records if rec.heavy) for records in passes]),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
