"""Regenerate the reference figures in benchmarks/README.md.

    python3 benchmarks/reference.py [--seeds 10] [--seconds 12] [--workload NAME ...]

For each workload it runs `run.py` once per seed (one process each, one
after the other) and prints every end-to-end metric's median, quartiles
and spread (quartile distance over median), then one traced run's
per-layer breakdown, then the L1 of the uniform policy and of the
baselines (`gfnpool baselines`) on seed 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import run  # first: pins BLAS threads before numpy loads, puts gfnpool on the path
import checks  # noqa: E402
import pipeline  # noqa: E402

HERE = Path(__file__).resolve().parent


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_table(results: list[dict]) -> list[str]:
    lines = ["| metric | unit | median | Q1 | Q3 | spread |", "|---|---|---|---|---|---|"]
    for name, m in results[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        lines.append(f"| `{name}` | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {(q3 - q1) / med:.3f} |")
    return lines


def baselines(workload: str) -> dict:
    """L1 to the product target of the uniform policy and of each baseline."""
    wl = pipeline.WORKLOADS[workload]
    rundir = run.RUNS / f"{workload}-baselines"
    try:
        config = pipeline.write_inputs(wl, 1, rundir)
        rnd = pipeline.run_round(wl, config)
        code, _, err = pipeline.command("baselines", "--config", str(config))
        if code:
            sys.exit(f"baselines failed on {workload}: {err}")
        doc = json.loads((config.parent / "out" / wl.name / "baselines.json").read_text())
        refs = checks.References(pipeline.setup(config).envs)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    out = {"uniform": refs.uniform_l1, "ep (AB)": rnd.report["models"]["global"]["l1"]}
    for name, row in doc["baselines"].items():
        out[name] = row.get("l1", row.get("error"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args()
    for wl in args.workload or list(pipeline.WORKLOADS):
        results = [bench(wl, s, args.seconds, 0) for s in range(1, args.seeds + 1)]
        ok = all(r["correct"] and not r["failed"] for r in results)
        print(f"\n### {wl}: {len(results)} seeds, all correct: {ok}, attempted per run: "
              f"{sorted({r['attempted'] for r in results})}\n")
        print("\n".join(spread_table(results)))
        traced = bench(wl, 1, args.seconds, 1)
        print(f"\nTraced run, seed 1 (correct: {traced['correct']}):\n")
        print("| metric | value | unit |\n|---|---|---|")
        for name, m in traced["metrics"].items():
            print(f"| `{name}` | {m['value']:.6g} | {m['unit']} |")
        print("\nL1 to the product target, seed 1:\n")
        print("| model | L1 |\n|---|---|")
        for name, v in baselines(wl).items():
            print(f"| {name} | {v if isinstance(v, str) else f'{v:.4f}'} |")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
