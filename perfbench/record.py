"""Write the benchmark's fixed data and record its golden answers.

    python3 perfbench/record.py

Run from the root of an ordo checkout.  Writes the ordering files the CLI
queries read (perfbench/data/) and the answers of the queries that have no
closed-form reference (CLI stdout, convexity certificates, Sikora
coordinates) to perfbench/golden/answers.json.  Record only on code whose
answers are trusted: later runs compare against these byte for byte.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
import workloads  # noqa: E402

GOLDEN_OPS = ("cli", "convex", "sikora")


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    for name, doc in workloads.data_documents().items():
        (HERE / "data" / name).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")

    import runner

    ordo = runner.import_ordo()
    golden = {}
    for workload in workloads.WORKLOADS:
        ops = runner.Ops(ordo, workloads.cone_docs(workload))
        for q in workloads.build(workload, 0):
            if q["op"] in GOLDEN_OPS:
                golden[refs.golden_key(q)] = json.dumps(ops.run(q), sort_keys=True)
    (HERE / "golden" / "answers.json").write_text(
        json.dumps(golden, sort_keys=True, indent=1) + "\n")
    print(f"recorded {len(golden)} golden answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
