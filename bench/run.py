"""Benchmark of the sepmac CLI: four workloads, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload verify --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload verify --seed 0 --seconds 25 --trace 1
    python3 bench/run.py ... --append results.jsonl   # also keep the full record
    python3 bench/run.py --compare base.jsonl new.jsonl
    python3 bench/run.py --self-test                   # each workload once, smallest size
    python3 bench/run.py --record-expected             # rewrite expected_seed0.json

Workloads: verify, search, exponent, bounds (see workloads.py for why each
exists and what was left out). Each run starts fresh interpreters: two that
only set up, then one that sets up and runs as many whole passes over the
workload as fit in --seconds at the pass time recorded in workloads.py, one
command at a time through `sepmac.cli.main` in-process.
Every answer is checked; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics:
  wall_ref     median over passes of one pass's command time, in reference units
  cmd_p50_ref  median per-command latency, in reference units
  cmd_tail_ref per-command latency at the highest percentile with at least
               ten commands beyond it, in reference units; with fewer than
               21 commands in a run no such percentile lies above the median,
               and the median is reported (search, exponent)
  peak_rss_mb  peak resident memory of the measuring process
  setup_s      median over three fresh interpreters of the time from start to
               the first timed command (import sepmac, generate the inputs)
A reference unit is the time of a fixed task independent of sepmac
(worker.reference: a pure-Python loop and three small SLSQP solves). It runs
after every command for at least a tenth of the command's time, and each
command's latency is divided by the mean reference time just before and
just after it. The CPU speed of a shared machine drifts by tens of percent
within minutes; the ratio cancels most of that drift and seconds do not.
The same three times in seconds (wall_s, cmd_p50_s, cmd_tail_s) are printed
and kept in the --append record. The share of commands with a wrong exit
code or answer, fail_frac, is failed/attempted.

--trace 1 runs one untraced pass, then one traced pass, and reports the
per-layer metrics of tracing.py for the traced pass together with the tracing
overhead: traced minus untraced pass time, in seconds and reference units.

BENCH_0.jsonl holds the --append records of the commit that added the
benchmark: ten untraced runs per workload (seeds 0-9) and one traced run
each, for --compare.

Nothing is pinned: CPU frequency, cache state and other load on the machine
are left as they are. Numeric thread pools are capped at the number of CPUs
this process may use.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "search", "exponent", "bounds")
SETUP_PROBES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
NOT_PINNED = "nothing pinned: CPU frequency, cache state and other load are left as they are"


def fail(msg: str) -> NoReturn:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(1)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = env.get(var, "")
        env[var] = str(min(int(cur), nproc) if cur.isdigit() and int(cur) > 0 else nproc)
    return env


def environment(worker: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": worker["numpy"],
            "scipy": worker["scipy"], "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "threads": {var: child_env()[var] for var in THREAD_VARS}, "note": NOT_PINNED}


def worker(workload: str, seed: int, seconds: float, trace: int, *flags: str,
           timeout: float = 170) -> dict:
    """Start worker.py in a fresh interpreter and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *flags]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=child_env(), timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload} worker did not finish within {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} worker failed (exit code {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, latency) at the highest percentile that has at least ten
    latencies beyond it, but not below the median: with fewer than 21
    latencies no percentile above the median has ten beyond it, and the
    median is reported."""
    xs = sorted(latencies)
    k = max(len(xs) - 11, (len(xs) - 1) // 2)
    return 100.0 * (k + 1) / len(xs), xs[k]


def run(workload: str, seed: int, seconds: float, trace: int, small: bool = False,
        probes: int = SETUP_PROBES) -> dict:
    """One benchmark run: the record kept by --append."""
    flags = ("--small",) if small else ()
    setups = [worker(workload, seed, seconds, 0, "--setup-only", *flags, timeout=60)["setup_s"]
              for _ in range(probes)]
    res = worker(workload, seed, seconds, trace, *flags)
    setups.append(res["setup_s"])
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "small": small, "env": environment(res),
              "attempted": res["attempted"], "failed": res["failed"],
              "failures": res["failures"],
              "passes": sum(not p["traced"] for p in res["passes"]),
              "latencies": res["passes"]}
    untraced = [p for p in res["passes"] if not p["traced"]]
    walls = [sum(p["lat"]) for p in untraced]
    walls_ref = [sum(p["norm"]) for p in untraced]
    if trace:
        traced = next(p for p in res["passes"] if p["traced"])
        layers = res["layers"]
        layers["trace.overhead_s"] = sum(traced["lat"]) - walls[0]
        layers["trace.overhead_ref"] = sum(traced["norm"]) - walls_ref[0]
        record["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        return record
    lat = [x for p in untraced for x in p["lat"]]
    norm = [x for p in untraced for x in p["norm"]]
    pct, tail_ref = tail(norm)
    record["metrics"] = {
        "wall_ref": {"value": statistics.median(walls_ref), "unit": "ref"},
        "cmd_p50_ref": {"value": statistics.median(norm), "unit": "ref"},
        "cmd_tail_ref": {"value": tail_ref, "unit": "ref"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    record["seconds_metrics"] = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cmd_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "cmd_tail_s": {"value": tail(lat)[1], "unit": "s"},
    }
    record["cmd_samples"] = len(norm)
    record["cmd_tail_percentile"] = pct
    record["setup_samples"] = len(setups)
    return record


def layer_unit(name: str) -> str:
    if name.endswith("_ref"):
        return "ref"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith("_per_point"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def report(rec: dict) -> None:
    """Human-readable lines before the final JSON line."""
    w = rec["workload"]
    print(f"# {w} seed={rec['seed']} trace={rec['trace']} env={json.dumps(rec['env'])}")
    print(f"{w} fail_frac {rec['failed'] / rec['attempted']:.6g} ratio "
          f"({rec['failed']} of {rec['attempted']} commands wrong)")
    notes = {}
    if not rec["trace"]:
        n = rec["cmd_samples"]
        tail_note = f"  (p{rec['cmd_tail_percentile']:.1f}, n={n})"
        notes = {"wall": f"  (median of {rec['passes']} passes)", "cmd_p50": f"  (n={n})",
                 "cmd_tail": tail_note,
                 "setup": f"  (median of {rec['setup_samples']} interpreters)"}
    metrics = {**rec["metrics"], **rec.get("seconds_metrics", {})}
    for name, m in metrics.items():
        value = m["value"]
        text = f"{value:.0f}" if m["unit"] == "count" and value == int(value) else f"{value:.6g}"
        print(f"{w} {name} {text} {m['unit']}{notes.get(name.rsplit('_', 1)[0], '')}")
    if rec["trace"]:
        m = rec["metrics"]
        print(f"{w} tracing overhead {m['trace.overhead_s']['value']:.4g} s "
              f"({m['trace.overhead_ref']['value']:.4g} ref) per pass: traced minus "
              f"untraced pass time, one pass each")
        idle = [k for k, m in rec["metrics"].items() if m["value"] == 0]
        if idle:
            print(f"{w} reported as 0, not exercised by this workload: {', '.join(idle)}")
    for problem in rec["failures"]:
        print(f"{w} WRONG {problem}")


def compare(base_path: str, new_path: str) -> None:
    """Per workload and metric: base median, new median, new/base ratio and
    each side's run-to-run spread (quartile distance over median). A metric
    with a bound is unresolved when either spread is wider than the bound,
    else worse or ok by the bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    def load(path):
        groups: dict = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                rec = json.loads(line)
                metrics = {**rec["metrics"], **rec.get("seconds_metrics", {})}
                for name, m in metrics.items():
                    groups.setdefault((rec["workload"], name), []).append(m["value"])
        return groups

    def spread(xs):
        if len(xs) < 2:
            return math.inf
        q1, med, q3 = statistics.quantiles(xs, n=4)
        return (q3 - q1) / abs(med) if med else math.inf

    base, new = load(base_path), load(new_path)
    print(f"{'workload':9} {'metric':32} {'base':>12} {'new':>12} {'new/base':>9} "
          f"{'spread':>13}  status")
    for key in sorted(base.keys() & new.keys(), key=lambda k: (WORKLOADS.index(k[0]), k[1])):
        b, n = statistics.median(base[key]), statistics.median(new[key])
        ratio = n / b if b else math.nan
        bound = bounds.get(key[1])
        status = ""
        if bound is not None:
            worse = ratio - 1 if better[key[1]] == "lower" else 1 - ratio
            if max(spread(base[key]), spread(new[key])) > bound:
                status = "unresolved"
            else:
                status = "worse" if worse > bound else "ok"
        spreads = f"{spread(base[key]):.3f}/{spread(new[key]):.3f}"
        print(f"{key[0]:9} {key[1]:32} {b:12.6g} {n:12.6g} {ratio:9.4f} {spreads:>13}  {status}")


def self_test() -> bool:
    ok = True
    for w in WORKLOADS:
        rec = run(w, seed=0, seconds=0, trace=1, small=True, probes=0)
        good = rec["failed"] == 0
        ok &= good
        print(f"self-test {w}: {'ok' if good else 'WRONG'} "
              f"({rec['attempted']} commands checked)")
        for problem in rec["failures"]:
            print(f"  {problem}")
    return ok


def record_expected() -> None:
    expected = {}
    for size, flags in (("full", ()), ("small", ("--small",))):
        expected[size] = {}
        for w in WORKLOADS:
            expected[size].update(worker(w, 0, 0, 0, "--record", *flags)["answers"])
    (HERE / "expected_seed0.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--append", metavar="FILE", help="append the full run record as a JSON line")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-expected", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "sepmac" / "__init__.py").is_file():
        fail(f"no sepmac sources under {ROOT / 'src'}; run from a checkout of the repository")
    if args.compare:
        compare(*args.compare)
    elif args.self_test:
        sys.exit(0 if self_test() else 1)
    elif args.record_expected:
        record_expected()
    elif args.workload is None:
        ap.error("--workload is required")
    else:
        rec = run(args.workload, args.seed, args.seconds, args.trace)
        if args.append:
            with open(args.append, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec) + "\n")
        report(rec)
        print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                          "failed": rec["failed"], "metrics": rec["metrics"]}))


if __name__ == "__main__":
    main()
