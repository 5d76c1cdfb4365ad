"""diacats benchmark: one workload per process, serial, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes over the workload's instances for about ``--seconds`` seconds.
Each pass starts with a set-up: the program is imported anew from ``src/``
of the checkout this file sits in and the workload's inputs are built.  Then
one client calls the program: each verdict starts after the previous one
has returned and been checked.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The host's speed swings by up to 2x, within seconds and over minutes, as
other tenants come and go.  So a fixed pure-Python reference workload is
timed before and after every set-up and verdict, and every half second
during it (from a SIGALRM handler; that time is taken off the call's); the
call's time is divided by the mean reference time.  Times
are reported in seconds at reference speed: the host speed at which the
reference takes ``REFERENCE_S``.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the sum over
instances of each verdict's median time (checks are not timed);
``setup_s``, the median set-up (import plus inputs); ``peak_rss_mb``.

``--trace 1`` reports the per-layer metrics.  Passes alternate between the
original functions and the wrappers of ``spans.py``; ``trace.overhead_s``
is the traced ``wall_s`` minus the untraced one.  Per-layer times are raw
seconds, the mean over traced passes of one set-up plus one pass.  The
spans of the last traced pass are written to
``bench/out/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# Nominal time of reference_work(); it only sets the scale of the timings.
REFERENCE_S = 0.030


def reference_work():
    """Fixed pure-Python work of about 30 ms: chains in the divisibility
    poset of 1..60 built from tuples, lists and dicts, like the program's
    own data.  Do not edit: every timing is measured against it."""
    up = {a: [b for b in range(a + 1, 61) if b % a == 0] for a in range(1, 61)}
    total = 0
    for _ in range(40):
        chains = [(a,) for a in up]
        for _ in range(3):
            longer = [c + (b,) for c in chains for b in up[c[-1]]]
            total += len(longer)
            chains = longer + [(a,) for a in up]
        seen = {}
        for c in chains:
            seen[c[1:]] = seen.get(c[1:], 0) + len(c)
        total += len(seen)
    return total


class SpeedProbe:
    """Times reference_work() around, and every ``TICK_S`` during, the
    measured calls.  The ticks run from a SIGALRM handler in the main
    thread; their time is subtracted from the measured call and, in traced
    passes, from the self time of the span they interrupt."""

    TICK_S = 0.5

    def __init__(self):
        self.samples = []
        self.stolen = 0.0
        self.tracer = None
        self.last = self.probe()

    def probe(self):
        t = time.perf_counter()
        reference_work()
        self.last = time.perf_counter() - t
        return self.last

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(self.probe())
        d = time.perf_counter() - t
        self.stolen += d
        if self.tracer is not None:
            self.tracer.exclude(d)

    def call(self, fn):
        """(result, raw seconds, seconds at reference speed) of ``fn()``.
        A call that raises is re-raised after the probe that follows it."""
        self.samples, self.stolen = [self.last], 0.0
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        t = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            raw = time.perf_counter() - t - self.stolen
            self.samples.append(self.probe())
        return result, raw, raw * REFERENCE_S / statistics.mean(self.samples)


def import_program():
    """Import diacats from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "diacats", "__init__.py")):
        sys.exit("bench: no diacats sources under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import diacats
    where = os.path.dirname(os.path.dirname(os.path.abspath(diacats.__file__)))
    if where != SRC:
        sys.exit("bench: diacats imported from %s, not %s" % (where, SRC))


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny instance lists, for the smoke test")
    return p.parse_args(argv)


class Tally:
    """Verdicts attempted and failed, each verdict's times, and the
    input-only fingerprint of each instance, which every pass must repeat."""

    def __init__(self, golden):
        self.attempted = 0
        self.failed = 0
        self.golden = golden
        self.first = None
        # traced pass? -> instance index -> [(raw s, s at reference speed)]
        self.times = {False: {}, True: {}}

    def fail(self, label, why):
        self.failed += 1
        print("bench: FAILED %s: %s" % (label, why), file=sys.stderr)

    def wall(self, traced):
        """Sum over instances of the median verdict time at reference speed."""
        return sum(statistics.median(s for _, s in ts)
                   for ts in self.times[traced].values())


def run_pass(instances, tally, probe, tracer=None):
    """One pass over the instances, each verdict timed and then checked."""
    prints = []
    for i, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = "%d:%s" % (i, inst.label)
        tally.attempted += 1
        gc.collect()
        try:
            result, raw, scaled = probe.call(inst.verdict)
        except Exception:  # a failed verdict is counted, not fatal
            tally.fail(inst.label, traceback.format_exc())
            prints.append(None)
            continue
        tally.times[tracer is not None].setdefault(i, []).append((raw, scaled))
        problems, fp = inst.check(result)
        del result
        if tally.first is not None and fp != tally.first[i]:
            problems.append("fingerprint %s differs from first pass %s"
                            % (fp, tally.first[i]))
        if tally.golden is not None and fp != tally.golden[i]:
            problems.append("fingerprint %s differs from golden %s"
                            % (fp, tally.golden[i]))
        if problems:
            tally.fail(inst.label, "; ".join(problems))
        prints.append(fp)
    if tally.first is None:
        tally.first = prints


def golden_for(workload, size, seed):
    """Recorded fingerprints, or None when none were recorded for this seed."""
    import workloads
    with open(os.path.join(BENCH, "golden.json")) as f:
        rec = json.load(f)[workload][size]
    return rec.get(str(seed)) if workload in workloads.SEEDED else rec


def fresh_setup(args, probe, tracer=None):
    """Import the program anew and build the workload's inputs (with the
    tracer's wrappers in place, if given).  Returns (set-up time at
    reference speed, instances)."""
    for name in [m for m in sys.modules
                 if m in ("diacats", "workloads") or m.startswith("diacats.")]:
        del sys.modules[name]
    gc.collect()
    probe.tracer = tracer

    def setup():
        import workloads
        if tracer is not None:
            tracer.instance = "setup"
            tracer.install()
        try:
            return workloads.WORKLOADS[args.workload](args.seed, args.size)
        finally:
            if tracer is not None:
                tracer.uninstall()

    instances, _, scaled = probe.call(setup)
    return scaled, instances


def measure(args, tally):
    """Set-up and pass, repeated until the next one would end after
    ``--seconds``.  Traced runs alternate untraced and traced passes.
    Returns (untraced set-up times, tracers of the traced passes)."""
    import spans
    probe = SpeedProbe()
    setups, tracers = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t = time.perf_counter()
        tracer = spans.Tracer() if args.trace and len(setups) > len(tracers) else None
        dt, instances = fresh_setup(args, probe, tracer)
        if tracer is None:
            setups.append(dt)
            run_pass(instances, tally, probe)
        else:
            tracer.install()
            try:
                run_pass(instances, tally, probe, tracer)
            finally:
                tracer.uninstall()
                probe.tracer = None
            tracers.append(tracer)
        del instances
        longest = max(longest, time.perf_counter() - t)
        done = len(tracers) >= 1 if args.trace else True
        if done and time.perf_counter() - start + longest > args.seconds:
            return setups, tracers


def main(argv=None):
    args = parse(argv)
    import_program()
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit("bench: unknown workload %r (have %s)"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    tally = Tally(golden_for(args.workload, args.size, args.seed))
    setups, tracers = measure(args, tally)
    if not args.trace:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"wall_s": (tally.wall(False), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (rss_kb / 1024.0, "MB")}
    else:
        values = spans.summarize(tracers)
        wall_t, wall_u = tally.wall(True), tally.wall(False)
        values.update({"trace.wall_s": wall_t, "trace.untraced_wall_s": wall_u,
                       "trace.overhead_s": wall_t - wall_u})
        metrics = {n: (values[n], spans.unit(n)) for n in spans.metric_names()}
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        path = os.path.join(BENCH, "out", "%s.spans.jsonl" % args.workload)
        spans.write_spans(tracers[-1], path)
        print("bench: spans of the last traced pass in %s" % os.path.relpath(path, ROOT))
    print("bench: %s seed=%d setup_s=%s" % (args.workload, args.seed,
                                            [round(t, 4) for t in setups]))
    for traced in (False, True):
        for i, ts in tally.times[traced].items():
            print("bench: %s instance %d raw_s=%s scaled_s=%s" % (
                "traced" if traced else "untraced", i,
                [round(r, 4) for r, _ in ts], [round(s, 4) for _, s in ts]))
    print("bench: fingerprint %s" % json.dumps(tally.first))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {n: {"value": v, "unit": u}
                                  for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
