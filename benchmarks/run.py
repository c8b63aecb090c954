"""Benchmark of the gfnpool pipeline: train-clients -> aggregate -> evaluate.

Run from the repository root:

    python3 benchmarks/run.py --workload multiset-tab --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones, measured without any wrapper; with `--trace 1` they are
the per-layer ones, from a traced round (see README.md). Each run is one
process, with BLAS pinned to one thread and clients trained serially.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"  # scratch outputs, removed after each run
TRACES = ROOT / ".bench_traces"  # traced runs' spans

if not (SRC / "gfnpool" / "__init__.py").is_file():
    sys.exit(f"benchmark: no gfnpool sources under {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

import checks  # noqa: E402
import pipeline  # noqa: E402
import tracing  # noqa: E402
from gfnpool.train import train_clients  # noqa: E402

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _setups(config):
    """Repeat the set-up until it has run a few times and for about a second;
    return the median time and the last set-up."""
    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        su = pipeline.setup(config)
        times.append(su.seconds)
    return statistics.median(times), su


def _peak_rss_mb() -> float:
    """High-water resident set of this process image. Unlike getrusage's
    ru_maxrss, it does not inherit the parent's size across exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _settle() -> None:
    """Keep what the benchmark holds out of the garbage collector's way, so a
    timed round pays the collection costs a fresh `gfnpool` process would."""
    gc.collect()
    gc.freeze()


def _check_outputs(wl, su, refs, rounds) -> list[str]:
    first = rounds[0]
    fails = []
    for k, r in enumerate(rounds[1:], start=2):
        if r.snapshots != first.snapshots or r.global_snapshot != first.global_snapshot:
            fails.append(f"round {k} snapshots differ from round 1")
    fails += checks.check_models(su, refs, first.snapshots, first.global_snapshot, first.report)
    fails += checks.check_reward_free_aggregation(su, first.snapshots)
    if wl.env["kind"] == "phylo":
        fails += checks.check_phylo(su, refs, first.snapshots, first.global_snapshot)
    return fails


def _require_whole(rounds) -> None:
    """Stop if an operation failed: the metrics need every output."""
    for r in rounds:
        if r.failed:
            for e in r.errors:
                print(e, file=sys.stderr, end="")
            sys.exit(f"benchmark: {r.failed} of {r.attempted} operations failed")


def timed_run(wl, seed: int, seconds: float, rundir: Path) -> dict:
    config = pipeline.write_inputs(wl, seed, rundir)
    setup_s, su = _setups(config)
    _settle()
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(pipeline.run_round(wl, config))
    _require_whole(rounds)
    peak_rss_mb = _peak_rss_mb()
    report = rounds[0].report["models"]
    med = statistics.median
    client_traj = wl.clients * wl.train_epochs * wl.batch
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "client_traj_per_s": _metric(med(client_traj / r.clients_s for r in rounds), "traj/s"),
        "agg_traj_per_s": _metric(med(wl.agg_epochs * wl.batch / r.agg_s for r in rounds), "traj/s"),
        "eval_s": _metric(med(med(r.eval_s) for r in rounds), "s"),
        "pipeline_s": _metric(med(r.pipeline_s for r in rounds), "s"),
        "ep_l1": _metric(report["global"]["l1"], "L1"),
        "client_l1_max": _metric(max(report[f"client{k}"]["l1_local"] for k in range(wl.clients)), "L1"),
        "snapshot_kb": _metric(sum(len(s) for s in rounds[0].snapshots) / 1024, "KB"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    refs = checks.References(su.envs)
    fails = checks.check_target(su, refs) + _check_outputs(wl, su, refs, rounds)
    return _result(fails, rounds, metrics)


def traced_run(wl, seed: int, seconds: float, rundir: Path) -> dict:
    """One untraced round as the reference, then the same round traced, then
    the client fan-out at full parallelism (traced run only)."""
    config = pipeline.write_inputs(wl, seed, rundir)
    su = pipeline.setup(config)
    _settle()
    reference = pipeline.run_round(wl, config)
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        _settle()
        traced = pipeline.run_round(wl, config)
        nproc = min(len(os.sched_getaffinity(0)), wl.clients, 4)
        jobs = list(zip(su.run.client_envs(), su.run.client_train_configs()))
        t0 = time.perf_counter()
        fanned = train_clients(jobs, parallelism=nproc)
        fanout_s = time.perf_counter() - t0
    finally:
        tr.uninstall()
    rounds = [reference, traced]
    _require_whole(rounds)
    refs = checks.References(su.envs)
    fails = checks.check_target(su, refs) + _check_outputs(wl, su, refs, rounds)
    if [r.snapshot for r in fanned] != reference.snapshots:
        fails.append(f"fan-out at parallelism {nproc} changed the snapshots")
    n = tracing.calls_under(tr, "env.log_reward", "aggregate.aggregate_ab")
    if n:
        fails.append(f"aggregate_ab evaluated log_reward {n} times")
    metrics = {k: _metric(v, u) for k, (v, u) in tracing.layer_metrics(tr).items()}
    metrics["train.fanout_s"] = _metric(fanout_s, "s")
    metrics["trace.overhead_s"] = _metric(traced.pipeline_s - reference.pipeline_s, "s")
    TRACES.mkdir(exist_ok=True)
    tr.write(TRACES / f"{wl.name}-seed{seed}.json")
    return _result(fails, rounds, metrics)


def _result(fails: list[str], rounds, metrics: dict) -> dict:
    for f in fails:
        print(f"check failed: {f}", file=sys.stderr)
    return {
        "correct": not fails,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the rounds are measured")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload not in pipeline.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; have {sorted(pipeline.WORKLOADS)}")
    wl = pipeline.WORKLOADS[args.workload]
    rundir = RUNS / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        result = run(wl, args.seed, args.seconds, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
