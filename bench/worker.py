"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py, which passes the monotonic time at which it started this
process, so setup_s covers interpreter start, `import sepmac` and input
generation. Prints one JSON line: setup time, per-command latencies of each
pass in seconds and in reference units, peak RSS, the answer tally and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench-work"
EXPECTED = HERE / "expected_seed0.json"

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy  # noqa: E402
import scipy  # noqa: E402
from scipy.optimize import minimize  # noqa: E402
from sepmac import cli  # noqa: E402

import workloads  # noqa: E402


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed


def out_file(argv: list[str]) -> str | None:
    return Path(argv[argv.index("--out") + 1]).read_text() if "--out" in argv else None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="print the answers of one untraced pass instead of checking them")
    args = ap.parse_args()

    setup, commands, pass_s = workloads.WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        os.chdir(work)
        for argv in setup(args.seed, args.small):
            rc, _, _ = run_cli(argv)
            if rc != 0:
                raise RuntimeError(f"setup command failed with exit code {rc}: {argv}")
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        passes = 1 if args.record else max(1, int(args.seconds // pass_s))
        result = timed_phase(args, commands(args.small), passes)
        result.update(setup_s=setup_s, numpy=numpy.__version__, scipy=scipy.__version__)
        print(json.dumps(result))
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


REF_SHARE = 0.1  # reference time after a command, as a share of the command's time
_REF_MATRIX = numpy.arange(16.0).reshape(4, 4) / 10 + numpy.eye(4)


def reference() -> float:
    """Seconds taken by fixed work independent of sepmac: a pure-Python loop
    of integer arithmetic, tuple sorting and dict updates, and three small
    SLSQP solves. It is timed next to every command, so command times can
    be given in units of the machine's speed at that moment."""
    start = time.perf_counter()
    total, counts = 0, {}
    for i in range(150_000):
        total += i * i
    for i in range(20_000):
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        counts[key] = counts.get(key, 0) + 1
    for k in range(3):
        minimize(lambda x: float(x @ _REF_MATRIX @ x + numpy.exp(-x).sum()),
                 numpy.full(4, 0.5 + k), method="SLSQP", bounds=[(0, 5)] * 4,
                 constraints=[{"type": "eq", "fun": lambda x: float(x.sum() - 2)}])
    return time.perf_counter() - start


def timed_phase(args, cmds: list[list[str]], n_passes: int) -> dict:
    """`n_passes` passes over `cmds`, or when tracing one untraced pass (for
    the tracing overhead) and one traced pass. After every command the
    reference runs for at least REF_SHARE of the command's time, and the
    command's latency is also given divided by the mean reference time of
    the runs just before and just after it."""
    runs = []  # (seed pass, argv, exit code, stdout, output file)
    passes = []  # {"traced": bool, "lat": [seconds], "norm": [reference units]}
    tracer = None
    for _ in range(2 if args.trace else n_passes):
        if args.trace and passes:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        # the traced pass repeats the untraced pass's work
        seed_pass = 0 if tracer else len(passes)
        lat, norm, before = [], [], [reference()]
        for i, argv in enumerate(cmds):
            os.environ["SEPMAC_SEED"] = str(workloads.optimizer_seed(args.seed, seed_pass, i))
            rc, stdout, elapsed = run_cli(argv)
            runs.append((seed_pass, argv, rc, stdout, out_file(argv)))
            after = []
            while sum(after) < REF_SHARE * elapsed or not after:
                after.append(reference())
            lat.append(elapsed)
            norm.append(elapsed / statistics.mean(before + after))
            before = after
        passes.append({"traced": tracer is not None, "lat": lat, "norm": norm})
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.record:
        return {"answers": {" ".join(argv): workloads.answer(argv, rc, stdout, f)
                            for _, argv, rc, stdout, f in runs}}
    size = "small" if args.small else "full"
    expected = json.loads(EXPECTED.read_text())[size] if EXPECTED.exists() else {}
    cache: dict = {}
    failures = []
    for seed_pass, argv, rc, stdout, f in runs:
        label = " ".join(argv)
        try:
            ans = workloads.answer(argv, rc, stdout, f)
            committed = args.seed == 0 and seed_pass == 0
            problem = workloads.check(argv, ans, expected.get(label), committed, cache)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"{label}: unreadable answer ({exc!r})"
        if problem:
            failures.append(problem)
    return {
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(runs),
        "failed": len(failures),
        "failures": sorted(set(failures)),
        "layers": tracer.metrics(1) if tracer else None,
    }


if __name__ == "__main__":
    sys.exit(main())
