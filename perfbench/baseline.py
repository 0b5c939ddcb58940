"""One-off baseline record: report-all end to end, its section times, Tier-1.

    python3 perfbench/baseline.py [--seed 7] [--tier1] [--out FILE]

1. Runs `python -m dfsbell.cli report-all --seed S --format json` twice, each
   in a fresh interpreter, and checks that both exit 0, validate against
   src/dfsbell/report_schema.json, pass every check and are byte-identical.
2. Runs the traced benchmark (`run.py --trace 1`) on seed S, whose layer
   pass times report-all's six sections with report-all's calls, sizes and
   substreams.  simulate-fixed is used because its own iteration is the
   shortest.
3. With --tier1, times the Tier-1 suite once.  That figure is informational
   and not gated: the suite takes minutes.

One report-all run takes about a minute on a 2-core box, longer than the
benchmark's run budget allows per run, so it is recorded here and not
measured as a workload.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import jsonschema

import run

ROOT = run.HERE.parent


def timed(cmd, env):
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, cwd=ROOT)
    return proc, time.monotonic() - start


def report_all(seed, env):
    schema = json.loads((run.SRC / "dfsbell" / "report_schema.json").read_text())
    cmd = [sys.executable, "-m", "dfsbell.cli", "report-all", "--seed",
           str(seed), "--format", "json"]
    runs = [timed(cmd, env) for _ in range(2)]
    checks = {}
    for i, (proc, _) in enumerate(runs, 1):
        checks[f"run {i} exits 0"] = proc.returncode == 0
        try:
            doc = json.loads(proc.stdout)
            jsonschema.validate(doc, schema)
            checks[f"run {i} validates against the schema"] = True
        except (json.JSONDecodeError, jsonschema.ValidationError):
            checks[f"run {i} validates against the schema"] = False
            continue
        checks[f"run {i} every check passed"] = all(
            c["passed"] for s in doc["sections"] for c in s["checks"])
    checks["same-seed runs are byte-identical"] = runs[0][0].stdout == runs[1][0].stdout
    return {"command": cmd[1:], "wall_s": [t for _, t in runs], "checks": checks}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tier1", action="store_true")
    parser.add_argument("--out", type=Path,
                        default=run.HERE / "results" / "baseline.json")
    args = parser.parse_args(argv)
    env = run.child_env()
    record = {"seed": args.seed, "report_all": report_all(args.seed, env)}
    for name, ok in record["report_all"]["checks"].items():
        print(f"check {'PASS' if ok else 'FAIL'} report-all: {name}", flush=True)

    proc, seconds = timed([sys.executable, str(run.HERE / "run.py"), "--workload",
                           "simulate-fixed", "--seed", str(args.seed),
                           "--trace", "1"], env)
    lines = proc.stdout.strip().splitlines()
    traced = json.loads(lines[-1])
    record["facts"] = dict(line[len("fact "):].split(" = ", 1)
                           for line in lines if line.startswith("fact "))
    record["traced_run"] = {"wall_s": seconds, "correct": traced["correct"],
                            "metrics": {k: v["value"] for k, v in
                                        traced["metrics"].items()}}
    for name, value in record["traced_run"]["metrics"].items():
        if name.startswith("cli.section."):
            print(f"metric {name} = {value!r} s", flush=True)

    if args.tier1:
        proc, seconds = timed([sys.executable, "-m", "pytest", "-q",
                               "--continue-on-collection-errors", "-p",
                               "no:cacheprovider"], env)
        tail = proc.stdout.strip().splitlines()[-1:]
        record["tier1"] = {"wall_s": seconds, "exit": proc.returncode,
                           "summary": tail[0] if tail else ""}
        print(f"metric tier1 wall_s = {seconds!r} s ({record['tier1']['summary']})")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    ok = all(record["report_all"]["checks"].values()) and traced["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
