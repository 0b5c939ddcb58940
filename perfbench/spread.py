"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload scan,analytic]
                                [--trace 0] [--out perfbench/results/x.json]

For every workload and end-to-end metric it prints the median of the runs
and the spread, the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound in BENCHMARK.json, and the same for the unscaled seconds run.py
prints by name (setup_raw_s, wall_s; no bound).  Each run is one
`perfbench/run.py` invocation with BENCHMARK.json's run_seconds; its
duration is recorded too, to check the driver's time budget.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PRINTED = ("setup_raw_s", "wall_s")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", default=",".join(
        w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in BENCHMARK[kind]}
    if not args.trace:
        bounds.update(dict.fromkeys(PRINTED))
    summary = {}
    for workload in args.workload.split(","):
        runs = []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=HERE.parent)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["exit"] = seed, proc.returncode
            result["run_s"] = time.monotonic() - start
            for name in PRINTED:
                found = re.search(rf"^metric .* {name} = (\S+)", proc.stdout, re.M)
                if found and not args.trace:
                    result["metrics"][name] = {"value": float(found.group(1))}
            runs.append(result)
            print(f"{workload} seed={seed} exit={proc.returncode} correct="
                  f"{result['correct']} run_s={result['run_s']:.1f} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                      if v["value"] is not None), flush=True)
        stats = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) > 1 and None not in values:
                median, share = spread(values)
                stats[name] = {"median": median, "spread": share,
                               "bound": bounds[name], "values": values}
                print(f"  {workload} {name}: median {median:.4g}, spread "
                      f"{share:.3f} (bound {bounds[name]})", flush=True)
        summary[workload] = {"seeds": args.seeds, "metrics": stats,
                             "run_s": [r["run_s"] for r in runs],
                             "all_correct": all(r["correct"] for r in runs)}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
