"""One benchmark sample in a fresh, single-threaded process.

Usage (from run.py): worker.py '<json config>'.  The config names the
workload, size, seed, mode ("setup", "time" or "trace"), an optional
fault, the output directory, the reference digest and the monotonic
clock reading taken just before this process was spawned.  The last
line of standard output is one JSON object with the sample's numbers.

Set-up and timed samples also report the CPU speed they ran at.  On a
shared 2-vCPU virtual machine the vCPUs ran up to twice as slow in
phases lasting tens of seconds, so raw seconds did not repeat between
runs.  A timer signal runs a fixed calibration kernel every
PROBE_PERIOD_S while the sample runs, and the sample's seconds are
multiplied by

    (REFERENCE_KERNEL_S / median kernel time) ** SPEED_EXPONENT

Kernel time is taken out of the sample first.  The program slows less
than the kernel does: regressing log slice time on log kernel time over
a few hundred slices of the d_1 assembly, the page loop and the fact
attack gave exponents from 0.54 to 0.76 on that machine, and 0.6 gave
the smallest run-to-run spread over ten runs of each workload.
Traced samples run without the probe, so it adds nothing to self times.
"""

import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

PROBE_PERIOD_S = 0.05
REFERENCE_KERNEL_S = 0.001
SPEED_EXPONENT = 0.6


def kernel():
    """Fixed pure-Python work in the program's style: Fractions in lists
    of lists, dict counting, small-int residues.  About a millisecond."""
    rows = [[Fraction(i * j % 11, 1 + (i + j) % 5) for j in range(12)]
            for i in range(12)]
    counts = {}
    for row in rows:
        for x in row:
            counts[x] = counts.get(x, 0) + 1
    sums = [sum(row) for row in rows]
    residues = [(i * i + 3 * i) % 3 for i in range(300)]
    return sorted(counts), sums, residues


class SpeedProbe:
    """Times kernel() from a SIGALRM timer while a sample runs."""

    def __init__(self):
        self.times = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.times.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def reset(self):
        self.times = []

    def take(self):
        """(seconds spent in the kernel, speed scale) since the last take."""
        times, self.times = self.times, []
        if not times:
            self._tick(None, None)
            times, self.times = self.times, []
            return 0.0, (REFERENCE_KERNEL_S / times[0]) ** SPEED_EXPONENT
        return (sum(times),
                (REFERENCE_KERNEL_S / statistics.median(times)) ** SPEED_EXPONENT)


def main():
    cfg = json.loads(sys.argv[1])
    probe = None
    if cfg["mode"] != "trace":
        probe = SpeedProbe()
        probe.start()
    import workloads

    wl = workloads.make(cfg["workload"], cfg["size"], cfg["seed"], cfg["out_dir"])
    wl.setup()
    out = {"setup_s": time.monotonic() - cfg["spawned_at"]}
    if probe is not None:
        spent, out["setup_scale"] = probe.take()
        out["setup_s"] -= spent
    if cfg["mode"] == "setup":
        probe.stop()
        print(json.dumps(out))
        return 0

    expected = cfg["expected"]
    if cfg["fault"] == "digest" and expected:
        expected = ("0" if expected[0] != "0" else "1") + expected[1:]
    elif cfg["fault"] == "entry":
        workloads.flip_one_entry()

    tracer = None
    if cfg["mode"] == "trace":
        import tracing
        tracer = tracing.Tracer(cfg["run_id"])
        tracer.install()
    if probe is not None:
        probe.reset()
    c0 = time.process_time()
    w0 = time.perf_counter()
    result = wl.run()
    out["wall_s"] = time.perf_counter() - w0
    out["cpu_s"] = time.process_time() - c0
    if probe is not None:
        probe.stop()
        spent, out["scale"] = probe.take()
        out["wall_s"] -= spent
        out["cpu_s"] -= spent
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics(out["wall_s"])
        tracer.write_spans(os.path.join(
            cfg["out_dir"], "spans-%s-%d.json" % (cfg["workload"], cfg["seed"])))

    units, checks = wl.check(result, expected)
    failures = [name for name, ok in checks if not ok]
    out.update(units=units, attempted=len(checks), failed=len(failures),
               failures=sorted(set(failures)),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
