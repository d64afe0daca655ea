"""Teeth check for the benchmark's own output checks, at tiny sizes.

    python3 perfbench/teeth.py

Asserts that a clean run passes, that a corrupted reference digest and
a flipped d_1 matrix entry each make the run report failed checks and
exit nonzero, that the benchmark refuses to run without the program's
sources, and that BENCHMARK.json names exactly the metrics the code
reports.  Exits 0 when every assertion holds; takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class TeethError(Exception):
    pass


def require(condition, detail):
    if not condition:
        raise TeethError(detail)


def bench(*extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "0",
         "--seed", "7"] + list(extra),
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout


def expect_clean(workload, trace):
    code, result, out = bench("--workload", workload, "--trace", str(trace))
    require(code == 0 and result["correct"] and result["failed"] == 0, out)
    print("clean %-12s trace %d: exit 0, 0 of %d checks failed"
          % (workload, trace, result["attempted"]))


def expect_caught(workload, fault, check_name):
    code, result, out = bench("--workload", workload, "--fault", fault)
    ratio = result["failed"] / result["attempted"]
    require(code != 0 and not result["correct"] and ratio > 0, out)
    require("FAILED: %s" % check_name in out, out)
    print("fault %-6s %-12s: exit %d, failed_ratio %.4f, caught by %r"
          % (fault, workload, code, ratio, check_name))


def expect_refusal_without_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, out = bench("--workload", "d1-tower", cwd=bare)
    shutil.rmtree(bare)
    require(code != 0 and result is None, out)
    print("no sources: exit %d, no result printed" % code)


def expect_names_match():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    require([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
            "workload names differ")
    require([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == run.END_TO_END, "end-to-end metrics differ")
    require([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == tracing.metric_specs(), "per-layer metrics differ")
    print("BENCHMARK.json names match the reported metrics")


def main():
    expect_names_match()
    for name in workloads.WORKLOADS:
        expect_clean(name, 0)
    expect_clean("sinha-pages", 1)
    expect_caught("sinha-pages", "digest", "output digest")
    expect_caught("d1-tower", "digest", "matrices digest")
    expect_caught("d1-tower", "entry", "d1 d1 = 0 on a column")
    expect_refusal_without_sources()
    print("teeth: all assertions hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
