"""Run the benchmark over several seeds and summarise the spread of each metric.

Usage:
    python3 bench/collect.py --workloads zeta-256,quad-fourier --seeds 101-110 \
        [--trace-seed 101] [--out bench/results/BENCH_0.json]

Runs `bench/run.py` once per seed and workload, one run at a time, with the
run length from BENCHMARK.json. For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to a third of the metric's bound, which is the
steadiness the benchmark aims for. With --trace-seed it also makes one
traced run per workload. With --out it writes all of it as a trajectory
point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The last-line result of one run and the full result file it wrote (with its wall time)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    with open(HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json", encoding="utf-8") as fh:
        full = json.load(fh)
    full["wall_s"] = wall
    return json.loads(proc.stdout.strip().splitlines()[-1]), full


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, help="a range 'a-b' or a list 'a,b,c'")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=None, help="write the summary JSON here")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": seconds, "seeds": _seeds(args.seeds), "workloads": {}}
    for wl in args.workloads.split(","):
        pairs = [run_once(wl, seed, seconds, 0) for seed in summary["seeds"]]
        runs = [p[0] for p in pairs]
        entry = {"attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "probe_median_s": [p[1]["speed"]["probe_median_s"] for p in pairs],
                 "wall_s": [p[1]["wall_s"] for p in pairs],
                 "ops_sha256": [p[1]["ops_sha256"] for p in pairs],
                 "known_defects_failed": [sum(not k["ok"] for k in p[1]["known_defects"])
                                          for p in pairs],
                 "end_to_end": {}}
        print(f"{wl}: attempted {entry['attempted']}, failed {entry['failed']}, "
              f"known-defect cases failing {entry['known_defects_failed']}, "
              f"wall {statistics.median(entry['wall_s']):.1f} s per run (median)")
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            raw = summarise([p[1]["raw_metrics"][name]["value"] for p in pairs])
            s.update(unit=runs[0]["metrics"][name]["unit"], bound=bound,
                     raw_median=raw["median"], raw_spread=raw["spread"])
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < bound / 3 else "  <-- spread above bound/3"
            print(f"  {name:26s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:.4f} (bound/3 {bound / 3:.4f}, "
                  f"raw {raw['spread']:.4f}){flag}")
        if args.trace_seed is not None:
            traced, full = run_once(wl, args.trace_seed, seconds, 1)
            entry["trace_seed"] = args.trace_seed
            entry["per_layer"] = traced["metrics"]
            entry["per_layer_raw"] = full["raw_metrics"]
        summary.setdefault("env", pairs[0][1]["env"])
        summary["workloads"][wl] = entry
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
