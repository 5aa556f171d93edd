"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload vox1o_shape --seeds 1-10 \
        [--seconds S]

``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json. Runs are
plain (``--trace 0``) and sequential, each in its own process. For every
metric it prints the median of the runs and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of that median, which is the spread the bounds in BENCHMARK.json are
set against. The per-run results and the summary go to
perfbench/out/spread/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text(
    encoding="utf-8"))["run_seconds"]


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=RUN_SECONDS)
    args = p.parse_args()

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, check=False)
        if proc.returncode != 0:
            sys.exit(f"seed {seed} exited {proc.returncode}: "
                     f"{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": mid, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / mid if mid else 0.0,
                         "unit": runs[0]["metrics"][name]["unit"],
                         "values": values}
        print(f"{name:40s} median {mid:14.6g}  spread "
              f"{summary[name]['spread']:7.2%}  "
              f"min {min(values):.6g} max {max(values):.6g}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed/attempted shares: {sorted(shares)}")
    out = HERE / "out" / "spread"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seeds{args.seeds[0]}-{args.seeds[-1]}.json"
    (out / name).write_text(json.dumps({"runs": runs, "summary": summary},
                                       indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()
