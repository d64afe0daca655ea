"""knotss benchmark: time to a verified result, per workload.

    python3 perfbench/run.py --workload sinha-pages --seed 20260823 \\
        --seconds 16 --trace 0

Closed loop with one client: every sample runs in a fresh,
single-threaded worker process (worker.py), and the next sample starts
only after the previous one has ended.  Each run first starts a few
set-up-only workers, then runs timed samples until --seconds have
passed (at least one).  Every output is checked against a reference
digest or an independent oracle; a failed check makes the exit code 1.

--trace 0 reports the end-to-end metrics: medians over the samples,
with times at the reference CPU speed defined in worker.py.
--trace 1 runs one untraced and one traced sample of the same inputs
and reports the per-layer metrics of tracing.py.

--workload all runs the four workloads one after the other.  --size
tiny and --fault exist for teeth.py, which checks that the checks fail
when the outputs are wrong.

The last line of standard output is one JSON object: correct,
attempted, failed and metrics.  Run context and every sample are also
written to .perfbench_out/ at the root of the checkout.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_ONLY = 8
BUDGET_S = 170

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("units_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]

UNITS = {"sinha-pages": "E_r slots computed",
         "d1-tower": "columns verified",
         "fact-attack": "restarts",
         "gate-small": "checks passed"}


class WorkerError(Exception):
    pass


def _read(path):
    try:
        return path.read_text().strip()
    except OSError:
        return None


def commit():
    """HEAD of the checkout's git metadata, when it has any."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def src_lines():
    """Newline counts of src/knotss/*.py, as `wc -l` gives them."""
    counts = {p.stem: p.read_bytes().count(b"\n")
              for p in sorted((ROOT / "src" / "knotss").glob("*.py"))}
    out = {"src_lines.%s" % m: counts.get(m, 0)
           for m in tracing.SRC_LINE_MODULES}
    out["src_lines.total"] = sum(counts.values())
    return out


def tail_percentile(values):
    """(p, value): the highest whole percentile with at least ten samples
    above it, by nearest rank; None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


class Runner:
    def __init__(self, args, deadline):
        self.args = args
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0")
        self.reference = json.loads((HERE / "reference.json").read_text())

    def spawn(self, workload, mode, run_id=""):
        cfg = {"workload": workload, "size": self.args.size,
               "seed": self.args.seed, "mode": mode, "run_id": run_id,
               "fault": self.args.fault, "out_dir": str(OUT_DIR),
               "expected": self.reference[self.args.size].get(workload)}
        cfg["spawned_at"] = time.monotonic()
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerError("out of time before a %s sample" % mode)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerError("%s sample timed out" % mode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerError("%s worker exited with %d" % (mode, proc.returncode))
        try:
            return json.loads(lines[-1])
        except ValueError:
            raise WorkerError("%s worker printed no result" % mode)

    def measure(self, workload):
        """Set-up-only workers, then timed samples for --seconds.  Times
        are scaled to the reference CPU speed (see worker.py)."""
        setups = [self.spawn(workload, "setup") for _ in range(SETUP_ONLY)]
        samples = []
        start = time.monotonic()
        while not samples or time.monotonic() - start < self.args.seconds:
            samples.append(self.spawn(workload, "time"))
        setups += samples
        series = {"wall_s": [s["wall_s"] * s["scale"] for s in samples],
                  "cpu_s": [s["cpu_s"] * s["scale"] for s in samples],
                  "units_per_s": [s["units"] / (s["wall_s"] * s["scale"])
                                  for s in samples],
                  "setup_s": [s["setup_s"] * s["setup_scale"] for s in setups],
                  "peak_rss_mb": [s["peak_rss_mb"] for s in samples]}
        measured = {"wall_s": [s["wall_s"] for s in samples],
                    "cpu_s": [s["cpu_s"] for s in samples],
                    "units_per_s": [s["units"] / s["wall_s"] for s in samples],
                    "setup_s": [s["setup_s"] for s in setups],
                    "speed_scale": [s["scale"] for s in samples]}
        metrics = {name: {"value": statistics.median(series[name]), "unit": unit}
                   for name, unit in END_TO_END}
        return samples, series, measured, metrics

    def trace(self, workload):
        """One untraced and one traced sample of the same inputs."""
        run_id = "%s:%d" % (workload, self.args.seed)
        base = self.spawn(workload, "time", run_id)
        traced = self.spawn(workload, "trace", run_id)
        values = dict(traced.pop("layers"), **src_lines())
        values["trace.overhead_ratio"] = traced["wall_s"] / base["wall_s"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.metric_specs()}
        return [base, traced], None, None, metrics


def run_workload(runner, workload):
    args = runner.args
    size = workloads.SIZES[workload][args.size]
    context = {"workload": workload, "seed": args.seed, "size": size,
               "size_grade": args.size, "unit": UNITS[workload],
               "seconds": args.seconds, "trace": args.trace,
               "fault": args.fault, "commit": commit(),
               "python": sys.version.split()[0], "nproc": os.cpu_count(),
               "loadavg_start": _read(Path("/proc/loadavg"))}
    error = None
    samples, series, measured, metrics = [], None, None, {}
    try:
        if args.trace:
            samples, series, measured, metrics = runner.trace(workload)
        else:
            samples, series, measured, metrics = runner.measure(workload)
    except WorkerError as exc:
        error = str(exc)
    context["loadavg_end"] = _read(Path("/proc/loadavg"))

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    if error is not None:
        attempted += 1
        failed += 1
    failures = sorted({f for s in samples for f in s["failures"]})
    if error is not None:
        failures.append(error)

    print("workload %s  seed %d  size %s  unit: %s"
          % (workload, args.seed, json.dumps(size), UNITS[workload]))
    print("context %s" % json.dumps(context))
    for name, m in metrics.items():
        line = "  %-44s %-22r %s" % (name, m["value"], m["unit"])
        if series is not None:
            values = series[name]
            tail = tail_percentile(values)
            line += "   median of %d%s" % (
                len(values), "" if tail is None else ", p%d %r" % tail)
            if name in measured:
                line += "; measured %r" % statistics.median(measured[name])
        print(line)
    if measured is not None:
        print("  %-44s %-22r x     median of %d samples"
              % ("speed_scale", statistics.median(measured["speed_scale"]),
                 len(measured["speed_scale"])))
    print("  %-44s %-22r ratio   %d failed of %d checks"
          % ("failed_ratio", failed / attempted if attempted else 1.0,
             failed, attempted))
    for f in failures:
        print("  FAILED: %s" % f)

    OUT_DIR.mkdir(exist_ok=True)
    record = {"context": context, "samples": samples, "series": series,
              "measured": measured, "metrics": metrics,
              "attempted": attempted, "failed": failed, "failures": failures}
    (OUT_DIR / ("result-%s-%d-trace%d.json" % (workload, args.seed, args.trace))
     ).write_text(json.dumps(record, indent=1))
    ok = failed == 0 and attempted > 0
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=20260823)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--fault", choices=("none", "digest", "entry"),
                    default="none")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "knotss" / "__init__.py").is_file():
        print("error: no knotss sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    rc = 0
    for name in names:
        runner = Runner(args, time.monotonic() + BUDGET_S)
        rc = max(rc, run_workload(runner, name))
    return rc


if __name__ == "__main__":
    sys.exit(main())
