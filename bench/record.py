"""Run every workload on several seeds and append one point to the trajectory.

    python3 bench/record.py --label NAME

Each workload runs RUNS times untraced (seeds 1..RUNS) and once traced
(seed 1), one process at a time, each run as long as ``run_seconds`` in
BENCHMARK.json.  For every end-to-end metric the point keeps the median over
runs and the spread (distance between the first and third quartile over the
median), and the summary marks a spread above a third of the metric's bound.
It also marks a node count (``verify_nodes``, ``search8_nodes``) that differs
from the previous point: a search that explores a different tree is not
comparable, and one that explores too little may prune away models.  The
point goes to bench/trajectory.json.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + 170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    detail = json.loads(next(line[8:] for line in lines if line.startswith("detail: ")))
    nodes = [line for line in lines if line.split(" ", 1)[0].endswith("_nodes")]
    return json.loads(lines[-1]), detail, nodes


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    point = {
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "context": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "loadavg_start": list(os.getloadavg())},
        "run_seconds": seconds,
        "workloads": {},
    }
    names = [w["name"] for w in bench["workloads"]]
    # seeds in the outer loop, so that drift in machine speed reaches every
    # workload alike
    runs = {name: [] for name in names}
    for seed in range(1, RUNS + 1):
        for name in names:
            runs[name].append(run_once(name, seed, seconds, 0))
    for name in names:
        results = runs[name]
        traced, _, _ = run_once(name, 1, seconds, 1)
        entry = {"runs": RUNS,
                 "samples_per_run": [len(d["samples"]) for _, d, _ in results],
                 "tail_pct_per_run": [d["tail_pct"] for _, d, _ in results],
                 "loadavg_start_per_run": [d["context"]["loadavg_start"][0]
                                           for _, d, _ in results],
                 "counts": sorted({line for _, _, nodes in results for line in nodes}),
                 "end_to_end": {},
                 "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r, _, _ in results]
            median, width = spread(values)
            entry["end_to_end"][metric] = {"median": median, "spread": width,
                                           "values": values}
            flag = "  above bound/3" if width > bound / 3 else ""
            print(f"{name:13s} {metric:12s} median {median:.6g}  spread {width:.3f}"
                  f"  bound {bound}{flag}")
        point["workloads"][name] = entry

    path = HERE / "trajectory.json"
    trajectory = json.loads(path.read_text()) if path.exists() else []
    if trajectory:
        for name, entry in point["workloads"].items():
            before = trajectory[-1]["workloads"].get(name, {}).get("counts")
            if before is not None and before != entry["counts"]:
                print(f"{name:13s} node counts changed: {before} -> {entry['counts']}")
    trajectory.append(point)
    path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
