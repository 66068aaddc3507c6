"""Run workloads over several seeds and report how far each metric spreads.

Run from the repository root:

    python3 perfbench/spread.py                      # seeds 1-10, every workload
    python3 perfbench/spread.py --seeds 5 --workloads iso
    python3 perfbench/spread.py --out perfbench/baseline.json

Each run is one `run.py` process with tracing off, one after another, with
the command and run length from BENCHMARK.json and seeds 1 to --seeds.  For
every end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median and the bound.
--out writes every value with the python version, nproc, commit and seed of
its run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> tuple[dict, dict]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)}: wrong answers: {proc.stderr[-2000:]}")
    head = next(line for line in lines if line.startswith("workload="))
    info = dict(item.split("=", 1) for item in head.split())
    return result, info


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    record = {"benchmark": spec["command"], "run_seconds": spec["run_seconds"],
              "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            result, info = run_once(spec, workload, seed)
            runs.append({"info": info, "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
                + f"  raw_pass_s {info['raw_pass_s']}", flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {m['name']:14s} median {med:10.4f} {m['unit']:5s} q1 {q1:10.4f} "
                  f"q3 {q3:10.4f} spread {spread:.3f} bound {m['bound']}")
            worst = max(worst, spread / m["bound"])
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"largest spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
