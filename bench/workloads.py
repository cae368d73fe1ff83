"""The four benchmark workloads and how each answer is checked.

A workload is a list of setup commands (input generation, timed into
setup_s) and a list of CLI commands (one pass, timed into wall_ref). The
program sees only the generated files; the seed drives `gen --seed`, the
custom channel table, the union word and, through optimizer_seed, the
SEPMAC_SEED of every command. `small` is the smallest size of each
workload, used by the self-test.

Every answer is checked. Answers that do not depend on the seed (exhaustive
search optima, table1, bound and exponent values) are compared with the
committed answers for any seed; verdicts, witnesses, reduced and decoded
codes and greedy codes are recomputed by oracle.py for any seed and also
compared byte for byte with the committed answers of the first pass of
seed 0.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle

# Tolerances fixed before any measurement: the CLI prints exponents with six
# decimals, and the entropy maximiser runs SLSQP to ftol 1e-12 from
# seed-dependent starts.
EXPONENT_TOL = 2e-6
ENTROPY_TOL = 1e-7


def optimizer_seed(seed: int, pass_no: int, command: int) -> int:
    """SEPMAC_SEED for one command of one pass. Optimiser starts and greedy
    orders differ between commands and passes, so a run's cost averages
    over several of them instead of repeating one draw."""
    return seed * 1_000_000 + pass_no * 1000 + command


def _gen(kind, q, n, t, seed, out, comp=None):
    argv = ["gen", "--ensemble", kind, "--q", str(q), "--N", str(n), "--t", str(t),
            "--seed", str(seed), "--out", out]
    return argv + (["--composition", comp] if comp else [])


def _custom_table(seed: int, path: str) -> None:
    """A custom channel for s=2, q=3: a seeded labelling of the six
    compositions with three labels, each used at least once."""
    comps = [(c0, c1, 2 - c0 - c1) for c0 in range(3) for c1 in range(3 - c0)]
    labels = ["u", "v", "w"] + [random.Random(seed).choice("uvw") for _ in range(3)]
    random.Random(seed + 1).shuffle(labels)
    lines = ["3 2 3"] + [f"{a} {b} {c} -> {lab}" for (a, b, c), lab in zip(comps, labels)]
    Path(path).write_text("\n".join(lines) + "\n")


def _union_word(seed: int, code: str, path: str) -> None:
    """The union of two seeded codewords of `code`, one subset per row."""
    _, x = oracle.read_code(code)
    cols = random.Random(seed).sample(range(x.shape[1]), 2)
    rows = [",".join(map(str, sorted(set(x[i, cols].tolist())))) for i in range(x.shape[0])]
    Path(path).write_text("\n".join(rows) + "\n")


# --- verify ------------------------------------------------------------------
# Why: the full C(t,s) message enumeration through core -> channels -> verify,
# with holding and failing verdicts, and no construct, bounds or exponent code.
# The s=3 separable checks on t=40 codes carry most of the time (B, s=3, q=3,
# N=30 alone takes 2.0-2.2 s); channel-free checks are sized so they hold and
# so enumerate every tuple on every seed.

def verify_setup(seed: int, small: bool):
    t = 10 if small else 40
    n = 8 if small else 30
    k = seed * 16
    yield _gen("cr", 2, n, t, k + 1, "cr2.txt")
    yield _gen("cr", 3, n, t, k + 2, "cr3.txt")
    yield _gen("fc", 2, 20, t, k + 3, "fc2.txt", "10,10")
    yield _gen("fc", 3, 24, t, k + 4, "fc3.txt", "8,8,8")
    _custom_table(k + 5, "custom.txt")
    _union_word(k + 6, "cr3.txt", "z.txt")


def verify_commands(small: bool):
    def sep(code, s, channel):
        return ["verify", "--code", code, "--s", str(s), "--channel", channel, "--separable"]
    return [
        sep("cr3.txt", 3, "B"),
        sep("cr2.txt", 3, "A"),
        sep("fc3.txt", 3, "eras"),
        sep("fc2.txt", 3, "thr:2"),
        sep("cr2.txt", 2, "disj"),
        sep("fc2.txt", 2, "B"),
        sep("cr3.txt", 2, "A"),
        sep("fc3.txt", 2, "custom:custom.txt"),
        ["verify", "--code", "cr3.txt", "--s", "2", "--le-separable"],
        ["verify", "--code", "cr3.txt", "--s", "2", "--frameproof"],
        ["verify", "--code", "fc3.txt", "--s", "2", "--list", "2"],
        ["verify", "--code", "cr3.txt", "--s", "3", "--hash"],
        ["reduce", "--code", "cr3.txt", "--q", "2", "--out", "red.txt"],
        ["verify", "--code", "red.txt", "--s", "2", "--list", "2"],
        ["decode", "--code", "cr3.txt", "--z", "z.txt"],
    ]


# --- search ------------------------------------------------------------------
# Why: the same channel kernel used incrementally, one extension check per
# branch-and-bound node, next to split-graph girth pruning. Carrying output
# ids down the recursion shows here and not in `verify`.
# Seed costs: disj s=2 N=4 331 nodes; N=5 6,553 nodes, 8-9 s; thr:2 N=5
# 4,172 nodes, 4.5-5 s; eras q=2 N=4 2,554 nodes, 2.2 s; greedy B s=2 q=3
# N=5 243 candidates, 4-5 s.
# Left out: exhaustive q=3 runs (B s=2 q=3 N=3 takes 340 s and 265,594 nodes).

def search_setup(seed: int, small: bool):
    return ()


def search_commands(small: bool):
    def search(channel, q, n, out, *mode):
        return ["search", "--channel", channel, "--s", "2", "--q", str(q), "--N", str(n),
                *mode, "--out", out]
    if small:
        return [search("disj", 2, 3, "s1.txt"),
                search("B", 3, 2, "s5.txt", "--mode", "greedy")]
    return [
        search("disj", 2, 4, "s1.txt"),
        search("disj", 2, 5, "s2.txt"),
        search("thr:2", 2, 5, "s3.txt"),
        search("eras", 2, 4, "s4.txt"),
        search("B", 3, 5, "s5.txt", "--mode", "greedy"),
    ]


# --- exponent ----------------------------------------------------------------
# Why: the multi-start SLSQP polytope solver does nearly all the work; a
# convex-dual exponent should move this workload only.
# The ROADMAP sweep (B s=2 q=2, rates in [0, 0.3], cr and fc) runs one
# command per rate, so each point draws its own optimiser starts: the cost of
# a point varies by 10-17% with the starts, and a multi-rate command reuses
# one draw for every rate. Left out, to keep one pass within the run
# length: 13 of the sweep's 20 rates (the full sweeps take 17.5-18 s under
# cr and 11-12.5 s under fc). Single points take 2.2-3.5 s.

RATES = ("0", "0.05", "0.1", "0.15", "0.2", "0.25", "0.3")


def exponent_setup(seed: int, small: bool):
    return ()


def exponent_commands(small: bool):
    def exp(channel, s, q, rate, *ens):
        return ["exponent", "--channel", channel, "--s", str(s), "--q", str(q),
                "--R", rate, *ens]
    if small:
        return [exp("B", 2, 2, "0.1")]
    return [
        *(exp("B", 2, 2, r) for r in RATES),
        *(exp("B", 2, 2, r, "--ensemble", "fc") for r in RATES),
        exp("A", 3, 2, "0.1"),
        exp("eras", 3, 2, "0.1"),
        exp("B", 2, 3, "0.1"),
    ]


# --- bounds ------------------------------------------------------------------
# Why: no other workload calls `bounds`. Exact Fraction P_term (table1 up to
# q'=64, ld-lower up to q'=256) and the multi-start entropy maximiser
# (B s=5 q=5 takes 1.0-1.6 s) would otherwise go unmeasured.

def bounds_setup(seed: int, small: bool):
    return ()


def bounds_commands(small: bool):
    def entropy(channel, s, q):
        return ["bound", "--kind", "entropy", "--channel", channel, "--s", str(s), "--q", str(q)]
    if small:
        return [["table1", "--qprime-max", "4"], entropy("A", 2, 2),
                ["bound", "--kind", "b-capacity", "--s", "2", "--q", "2"]]
    return [
        ["table1"],
        ["bound", "--kind", "ld-lower", "--s", "3", "--L", "2", "--q", "2", "--qprime-max", "256"],
        entropy("B", 5, 5),
        entropy("A", 4, 4),
        entropy("A", 3, 5),
        entropy("eras", 3, 4),
        ["bound", "--kind", "b-capacity", "--s", "3", "--q", "4"],
        ["bound", "--kind", "comb-upper", "--s", "4", "--q", "3"],
    ]


# (setup, commands, seconds of one pass when the workload was defined). A
# run makes max(1, seconds // pass seconds) passes, so every run of a
# workload has the same number of command samples whatever the machine's
# speed at that moment.
WORKLOADS = {
    "verify": (verify_setup, verify_commands, 8.0),
    "search": (search_setup, search_commands, 21.0),
    "exponent": (exponent_setup, exponent_commands, 19.0),
    "bounds": (bounds_setup, bounds_commands, 2.6),
}


# --- answers and checks ------------------------------------------------------

def answer(argv: list[str], rc: int, stdout: str, out_file: str | None) -> dict:
    """What a command produced, in a JSON-comparable form."""
    ans: dict = {"rc": rc}
    if argv[0] in ("table1", "exponent"):
        ans["csv"] = stdout
    else:
        ans["payload"] = json.loads(stdout)["payload"] if stdout else None
    if out_file is not None:
        ans["file"] = out_file
    return ans


def _arg(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _csv_values(text):
    return [[float(v) for v in row.split(",")] for row in text.splitlines()[1:]]


def seed_free(argv) -> bool:
    """True when the answer does not depend on the seed."""
    return argv[0] in ("table1", "bound", "exponent") or (
        argv[0] == "search" and "greedy" not in argv)


def same(argv, got: dict, want: dict) -> bool:
    """Equality with the committed answer, within the fixed tolerances."""
    if argv[0] == "exponent":
        if got["rc"] != want["rc"]:
            return False
        a, b = _csv_values(got["csv"]), _csv_values(want["csv"])
        return len(a) == len(b) and all(
            ra == rb and abs(ea - eb) <= EXPONENT_TOL for (ra, ea), (rb, eb) in zip(a, b))
    if argv[0] == "bound" and _arg(argv, "--kind") == "entropy":
        g, w = got["payload"], want["payload"]
        return (got["rc"] == want["rc"] and g["params"] == w["params"]
                and abs(g["value"] - w["value"]) <= ENTROPY_TOL)
    return got == want


def oracle_answer(argv) -> dict | None:
    """The answer recomputed independently of sepmac, when the benchmark can
    do so; None for answers checked only against committed values."""
    cmd = argv[0]
    if cmd == "verify":
        q, x = oracle.read_code(_arg(argv, "--code"))
        s = int(_arg(argv, "--s"))
        if "--separable" in argv:
            payload = oracle.separable(q, x, s, _arg(argv, "--channel"))
        elif "--frameproof" in argv:
            payload = oracle.cover(q, x, s, "frameproof")
        elif "--list" in argv:
            payload = oracle.cover(q, x, s, "list", int(_arg(argv, "--list")))
        elif "--hash" in argv:
            payload = oracle.hash_(q, x, s)
        else:
            payload = oracle.le_separable(q, x, s)
        return {"rc": 0 if payload["holds"] else 1, "payload": payload}
    if cmd == "reduce":
        qp, x = oracle.read_code(_arg(argv, "--code"))
        q = int(_arg(argv, "--q"))
        text = oracle.reduce_text(qp, x, q)
        _, n, t = (int(v) for v in text.split("\n", 1)[0].split())
        return {"rc": 0, "payload": {"out": _arg(argv, "--out"), "N": n, "t": t, "q": q},
                "file": text}
    if cmd == "decode":
        _, x = oracle.read_code(_arg(argv, "--code"))
        z = [[int(a) for a in ln.split(",")] for ln in
             Path(_arg(argv, "--z")).read_text().split()]
        return {"rc": 0, "payload": {"decoded": oracle.decode(x, z)}}
    return None


def oracle_problem(argv, got: dict) -> str | None:
    """Property checks on a search answer: the returned code must be
    separable, of the reported size, with sorted distinct codewords."""
    if argv[0] != "search":
        return None
    payload = got["payload"]
    q, n, s = (int(_arg(argv, f)) for f in ("--q", "--N", "--s"))
    cq, x = oracle.parse_code(got["file"])
    cols = [tuple(c) for c in x.T.tolist()]
    if (cq, x.shape[0], len(cols)) != (q, n, payload["t_star"]) or cols != sorted(set(cols)):
        return "returned code does not match t_star or has unsorted/repeated codewords"
    if "greedy" in argv and payload["nodes"] != q ** n:
        return f"greedy search visited {payload['nodes']} candidates, expected {q ** n}"
    if not oracle.separable(q, x, s, _arg(argv, "--channel"))["holds"]:
        return "returned code is not separable"
    return None


def check(argv, got: dict, expected: dict | None, committed: bool,
          cache: dict) -> str | None:
    """None when the answer is right, else a one-line reason. `committed`
    is true when the command's inputs are those the committed answers were
    recorded from (seed 0 with the first pass's optimiser seeds)."""
    label = " ".join(argv)
    if label not in cache:
        cache[label] = oracle_answer(argv)
    want = cache[label]
    if want is not None and got != want:
        return f"{label}: answer differs from the independent recomputation"
    problem = oracle_problem(argv, got)
    if problem:
        return f"{label}: {problem}"
    if seed_free(argv) or committed:
        if expected is None:
            return f"{label}: no committed answer"
        if not same(argv, got, expected):
            return f"{label}: answer differs from the committed answer"
    return None
