"""Regenerate reference.json: the digests the benchmark checks outputs
against, for every size grade.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it from the root of a checkout whose outputs are known to be right;
a change to the program must leave these digests unchanged.
"""

import json
import os
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench_out"
DIGESTED = [name for name, cls in workloads.WORKLOADS.items()
            if hasattr(cls, "digest")]


def main():
    OUT_DIR.mkdir(exist_ok=True)
    doc = {"regenerate": "PYTHONPATH=src python3 perfbench/make_reference.py"}
    for size in ("full", "tiny"):
        doc[size] = {}
        for name in DIGESTED:
            wl = workloads.make(name, size, 0, str(OUT_DIR))
            wl.setup()
            result = wl.run()
            doc[size][name] = wl.digest(result)
            if name == "sinha-pages":
                os.remove(wl.output)
            print(size, name, doc[size][name], flush=True)
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
