"""Repeat the benchmark over several seeds and summarise every metric.

    python3 perfbench/baseline.py [--seeds 10] [--trace 0|1] [--label TEXT] [--out FILE]

For every workload in BENCHMARK.json this runs seeds 1..N, each as one
`run.py` process with the spec's ``run_seconds``, one after another.
For every workload and metric it prints the run count, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median beside the metric's bound from BENCHMARK.json.
Run it with the same arguments on a change and on its parent commit to
compare the two.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    summary = {"label": args.label, "seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in range(1, args.seeds + 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            summary.setdefault("env", json.loads(lines[0])["env"])
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(lines[-2], file=sys.stderr)
        rows = summary["workloads"][workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {"unit": units[name], "runs": len(vals), "median": median,
                          "q1": q1, "q3": q3, "spread": spread}
            if name in bounds:
                print(f"{workload:16} {name:14} median {median:10.4f} {units[name]:4}"
                      f" spread {spread:6.3f} (bound {bounds[name]})")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
