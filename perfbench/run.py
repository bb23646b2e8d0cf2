"""ordo's benchmark: one workload per run, answers checked against references.

    python3 perfbench/run.py --workload flag_exact --seed 1 --seconds 50 --trace 0

Run from the root of an ordo checkout (the directory holding src/ and
BENCHMARK.json).  The run

  1. builds the workload's queries from --seed (perfbench/workloads.py);
  2. starts perfbench/runner.py in a fresh process, which imports ordo,
     times set-up, and repeats passes over the queries for --seconds;
  3. checks every answer: flag floors against integer square roots and
     sympy, braid signs against Dynnikov coordinates, constructions by
     their closed forms, and CLI stdout byte for byte against
     perfbench/golden/answers.json, recorded from the code the benchmark
     was written against (perfbench/record.py);
  4. prints a table of the metrics, one JSON line of details (context,
     tail percentile and its sample count, error rate, refusals) and, last,
     one JSON line {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and reports the per-layer metrics.
Both are measured in the runner process: one process per workload, so
peak_rss_mb is the workload's own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
import workloads  # noqa: E402

CHILD_GRACE_S = 140  # the runner's set-up and its last pass may overrun --seconds


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "ordo").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _generator_checks(queries: list[dict]) -> list[str]:
    """Words built with a known sign must have it under Dynnikov coordinates."""
    problems = []
    for i, q in enumerate(queries):
        if q["op"] == "dsign" and q["kind"] != "random":
            want = {"positive": 1, "negative": -1, "identity": 0}[q["kind"]]
            if refs.braid_sign(tuple(map(tuple, q["word"])), q["n"]) != want:
                problems.append(f"query {i}: generated {q['kind']} word has another sign")
    return problems


def _tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _end_to_end(report: dict, n_queries: int) -> tuple[dict, dict]:
    """Each query's latency is the fastest of its passes, since other load on
    the machine only ever slows a query down; throughput is the number of
    queries over the sum of those latencies."""
    untraced = [p for p in report["passes"] if not p["traced"]]
    per_query = [min(p["latencies"][i] for p in untraced) for i in range(n_queries)]
    tail, percentile = _tail(per_query)
    values = {
        "setup_s": statistics.median(report["setup_s"]),
        "queries_per_s": n_queries / sum(per_query),
        "query_p50_ms": statistics.median(per_query) * 1e3,
        "query_tail_ms": tail * 1e3,
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
    }
    details = {"tail_percentile": round(percentile, 3), "latency_samples": n_queries,
               "latency_sample": "per query, fastest of the passes", "passes": len(untraced),
               "setup_reps": len(report["setup_s"])}
    return values, details


def _per_layer(report: dict) -> tuple[dict, dict]:
    traced = report["traced_layers"]
    keys = traced[0].keys()
    values = {k: statistics.median(layers[k] for layers in traced) for k in keys}
    untraced_s = statistics.median(p["seconds"] for p in report["passes"] if not p["traced"])
    traced_s = statistics.median(p["seconds"] for p in report["passes"] if p["traced"])
    values["trace.overhead_s"] = traced_s - untraced_s
    details = {"traced_passes": len(traced), "untraced_pass_s": untraced_s,
               "traced_pass_s": traced_s, "spans_per_pass": values.pop("spans")}
    return values, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ordo" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("run from the root of an ordo checkout: src/ordo and BENCHMARK.json are needed",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    queries = workloads.build(args.workload, args.seed)
    problems = _generator_checks(queries)
    request = {"src": str(src), "cones": workloads.cone_docs(args.workload),
               "queries": queries, "seconds": args.seconds, "trace": bool(args.trace)}
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "runner.py")], cwd=root,
                              input=json.dumps(request), capture_output=True, text=True,
                              timeout=args.seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        print("runner did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"runner exited with {proc.returncode}:\n{proc.stderr[-4000:]}", file=sys.stderr)
        return 1
    report = json.loads(proc.stdout)
    elapsed = time.monotonic() - started

    golden = json.loads((HERE / "golden" / "answers.json").read_text())
    checker = refs.Checker(workloads.FLAGS, golden)
    attempted = failed = refused = 0
    for i, (q, seen) in enumerate(zip(queries, report["answers"])):
        for answer, count in seen.items():
            attempted += count
            verdict = checker.classify(q, answer, workloads.BALL_RADIUS)
            if verdict == refs.Checker.REFUSED:
                refused += count
            elif not verdict:
                failed += count
                if len(problems) < 20:
                    problems.append(f"query {i} ({q['op']}): got {answer[:300]}")
    if report["traced_answer_mismatches"]:
        problems.append(f"{report['traced_answer_mismatches']} traced answers differ "
                        "from the untraced ones")

    if args.trace:
        values, details = _per_layer(report)
        wanted = spec["per_layer"]
    else:
        values, details = _end_to_end(report, len(queries))
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    details.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "queries_per_pass": len(queries),
        "error_rate": failed / attempted if attempted else 0.0,
        "beyond_cap_refused": refused, "problems": problems,
        "run_wall_s": round(elapsed, 3),
        "context": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "machine": platform.machine(), "platform": platform.platform(),
                    "git_commit": _git_commit(root), "src_sha256": _source_digest(src)},
    })
    for name, metric in metrics.items():
        print(f"{args.workload:11s} {name:45s} {metric['value']:16.6f} {metric['unit']}")
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
