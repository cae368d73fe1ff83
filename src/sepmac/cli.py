"""Command-line front end.

Payload goes to stdout (JSON or CSV), logs to stderr. Exit codes:
0 success / property holds, 1 property fails, 2 usage error,
3 size limit (the desk-scale guards of channels, search, verify and exponent).

Environment variable SEPMAC_SEED overrides the default seed 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .core import InvalidParametersError, SizeLimitError, load_code, save_code, CodeFileError
from .channels import load_channel, make_channel, ChannelFileError
from . import bounds as bnd
from . import construct as cst
from . import exponent as expm
from . import verify as vfy

SCHEMA = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


class UsageError(Exception):
    pass


def _default_seed() -> int:
    return int(os.environ.get("SEPMAC_SEED", "0"))


def _emit(command: str, params: dict, payload: dict, started: float) -> None:
    record = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "params": params,
        "payload": payload,
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    json.dump(record, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _channel_from_args(args, s: int, q: int):
    name = args.channel
    if name is None:
        raise UsageError("--channel is required for this operation")
    if name.startswith("custom:"):
        spec = load_channel(name.split(":", 1)[1])
        if spec.s != s or spec.q != q:
            raise UsageError(
                f"custom channel has (s={spec.s}, q={spec.q}), expected (s={s}, q={q})")
        return spec
    return make_channel(name, s, q)


def _distribution_from_args(args) -> bnd.Distribution:
    """--p as a distribution over A_q; uniform when absent."""
    if not args.p:
        return bnd.Distribution(tuple(1.0 / args.q for _ in range(args.q)))
    try:
        return bnd.Distribution(tuple(float(x) for x in args.p.split(",")))
    except ValueError as exc:  # a non-number, or a law Distribution rejects
        raise UsageError(f"--p {args.p}: {exc}") from None


# --- subcommands -------------------------------------------------------------


def cmd_verify(args) -> int:
    started = time.monotonic()
    code = load_code(args.code)
    s = args.s
    flags = [name for name in ("separable", "le_separable", "frameproof", "hash")
             if getattr(args, name)]
    if args.list is not None:
        flags.append("list")
    if len(flags) != 1:
        raise UsageError("exactly one property flag is required")
    prop = flags[0]

    channel_free = prop in ("le_separable", "frameproof", "hash", "list")
    if channel_free and args.channel is not None:
        raise UsageError(f"--{prop.replace('_', '-')} is channel-free; drop --channel")

    if prop == "separable":
        channel = _channel_from_args(args, s, code.q)
        verdict = vfy.is_separable(code, s, channel)
    elif prop == "le_separable":
        verdict = vfy.is_at_most_s_separable(code, s)
    elif prop == "frameproof":
        verdict = vfy.is_frameproof(code, s)
    elif prop == "hash":
        verdict = vfy.is_hash(code, s)
    else:
        verdict = vfy.is_list_decoding(code, s, args.list)

    params = {"code": args.code, "s": s, "property": prop}
    if args.list is not None:
        params["L"] = args.list
    if args.channel is not None:
        params["channel"] = args.channel
    payload = {"property": prop, **verdict.to_dict()}
    _emit("verify", params, payload, started)
    return EXIT_OK if verdict.holds else EXIT_FAIL


def cmd_bound(args) -> int:
    started = time.monotonic()
    kind = args.kind
    s, q, L = args.s, args.q, args.L
    scale = 1.0 / math.log(2) if args.bits else 1.0
    unit = "bits" if args.bits else "nats"

    if kind == "entropy":
        channel = _channel_from_args(args, s, q)
        report = bnd.capacity_entropy_bound(channel, seed=_default_seed())
    elif kind == "b-capacity":
        report = bnd.BoundReport("b-capacity", bnd.capacity_B_closed_form(s, q),
                                 {"s": s, "q": q})
    elif kind == "comb-upper":
        report = bnd.BoundReport("comb-upper", bnd.comb_upper_bound(s, q),
                                 {"s": s, "q": q})
    elif kind == "ld-lower":
        if L is None:
            raise UsageError("--L is required for ld-lower")
        report = bnd.lower_bound_LD(s, L, q, qprime_max=args.qprime_max)
    elif kind == "ld-upper":
        if L is None:
            raise UsageError("--L is required for ld-upper")
        report = bnd.BoundReport("ld-upper", bnd.upper_bound_LD(s, L, q),
                                 {"s": s, "L": L, "q": q})
    elif kind == "a-upper":
        report = bnd.BoundReport("a-upper", bnd.upper_bound_A(s, q), {"s": s, "q": q})
    else:
        raise UsageError(f"unknown bound kind {kind!r}")

    payload = report.to_dict()
    payload["value"] = payload["value"] * scale
    payload["unit"] = unit
    _emit("bound", {"kind": kind, "s": s, "q": q, "L": L, "bits": args.bits},
          payload, started)
    return EXIT_OK


def cmd_table1(args) -> int:
    started = time.monotonic()
    rows = ["s,L,q,lower_bound,qprime_argmax,upper_bound"]
    for q in (2, 3):
        for L in (1, 2):
            for s in range(2, 7):
                rep = bnd.lower_bound_LD(s, L, q, qprime_max=args.qprime_max)
                up = bnd.upper_bound_LD(s, L, q)
                rows.append(f"{s},{L},{q},{rep.value:.4f},{rep.witness},{up:.4f}")
    sys.stdout.write("\n".join(rows) + "\n")
    print(f"table1 done in {time.monotonic() - started:.2f}s", file=sys.stderr)
    return EXIT_OK


def cmd_search(args) -> int:
    started = time.monotonic()
    channel = _channel_from_args(args, args.s, args.q)
    result = cst.max_code_search(channel, args.s, args.q, args.N,
                                 mode=args.mode, seed=_default_seed())
    if args.out:
        save_code(result.code, args.out)
    _emit("search", {"channel": args.channel, "s": args.s, "q": args.q,
                     "N": args.N, "mode": args.mode},
          result.to_dict(), started)
    return EXIT_OK


def cmd_gen(args) -> int:
    started = time.monotonic()
    seed = args.seed if args.seed is not None else _default_seed()
    if args.ensemble == "cr":
        spec = cst.EnsembleSpec("cr", args.q, args.N, args.t,
                                p=_distribution_from_args(args).probs, seed=seed)
    else:
        if not args.composition:
            raise UsageError("--composition is required for the fc ensemble")
        comp = tuple(int(x) for x in args.composition.split(","))
        spec = cst.EnsembleSpec("fc", args.q, args.N, args.t, composition=comp, seed=seed)
    code = cst.random_code(spec)
    save_code(code, args.out)
    _emit("gen", {"ensemble": args.ensemble, "q": args.q, "N": args.N,
                  "t": args.t, "seed": seed},
          {"out": args.out}, started)
    return EXIT_OK


def cmd_reduce(args) -> int:
    started = time.monotonic()
    code = load_code(args.code)
    reduced = cst.reduce_alphabet(code, args.q)
    save_code(reduced, args.out)
    _emit("reduce", {"code": args.code, "q": args.q},
          {"out": args.out, "N": reduced.N, "t": reduced.t, "q": reduced.q}, started)
    return EXIT_OK


def cmd_decode(args) -> int:
    started = time.monotonic()
    code = load_code(args.code)
    with open(args.z, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    z = []
    for ln in lines:
        members = sorted(int(x) for x in ln.replace("{", "").replace("}", "").split(",") if x != "")
        z.append(members)
    decoded = sorted(vfy.factor_decode(code, z))
    _emit("decode", {"code": args.code, "z": args.z},
          {"decoded": decoded}, started)
    return EXIT_OK


def cmd_exponent(args) -> int:
    started = time.monotonic()
    channel = _channel_from_args(args, args.s, args.q)
    dist = _distribution_from_args(args)
    rows = ["R,E"]
    r_values = [float(x) for x in args.R.split(",")]
    for r in r_values:
        rep = expm.exponent(channel, dist, r, ensemble=args.ensemble)
        rows.append(f"{r:.6f},{rep.value:.6f}")
    sys.stdout.write("\n".join(rows) + "\n")
    print(f"exponent sweep done in {time.monotonic() - started:.2f}s", file=sys.stderr)
    return EXIT_OK


# --- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepmac",
        description="Separable and list-decoding codes for symmetric MACs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a code property")
    p.add_argument("--code", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--channel")
    p.add_argument("--separable", action="store_true")
    p.add_argument("--le-separable", dest="le_separable", action="store_true")
    p.add_argument("--frameproof", action="store_true")
    p.add_argument("--hash", action="store_true")
    p.add_argument("--list", type=int, metavar="L")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="compute a rate/capacity bound")
    p.add_argument("--kind", required=True,
                   choices=["entropy", "b-capacity", "comb-upper",
                            "ld-lower", "ld-upper", "a-upper"])
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--L", type=int)
    p.add_argument("--channel")
    p.add_argument("--qprime-max", dest="qprime_max", type=int, default=64)
    p.add_argument("--bits", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("table1", help="list-decoding lower bound table (CSV)")
    p.add_argument("--qprime-max", dest="qprime_max", type=int, default=64)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("search", help="maximal separable code search")
    p.add_argument("--channel", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "greedy"], default="exhaustive")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("gen", help="generate a random code")
    p.add_argument("--ensemble", choices=["cr", "fc"], required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--p", help="comma-separated distribution for cr")
    p.add_argument("--composition", help="comma-separated per-symbol counts for fc")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("reduce", help="alphabet-reduction construction")
    p.add_argument("--code", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("decode", help="factor decoding of a union output word")
    p.add_argument("--code", required=True)
    p.add_argument("--z", required=True,
                   help="file with one subset per row, e.g. '0,1' per line")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("exponent", help="error-exponent sweep (CSV)")
    p.add_argument("--channel", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--R", required=True, help="comma-separated rate grid")
    p.add_argument("--ensemble", choices=["cr", "fc"], default="cr")
    p.add_argument("--p", help="comma-separated input distribution")
    p.set_defaults(func=cmd_exponent)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (CodeFileError, ChannelFileError, InvalidParametersError, ValueError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
