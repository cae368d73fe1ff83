"""Command-line front end.

Payload goes to stdout (JSON or CSV), logs to stderr. Exit codes:
0 success / property holds, 1 property fails, 2 usage error (a bad option
or value, an unreadable or malformed file, a decode symbol outside the
alphabet), 3 size limit (the desk-scale guards of channels, search, verify,
gen, reduce, bounds and exponent). `main` parses, starts the clock, runs the
command's handler, named in `SUBCOMMANDS`, and maps its errors to these
codes; commands call the library and `_emit` the result. A command that
reads a code file makes every refusal that its header and the options
decide, of size or of usage, before it parses the rows.

Each subcommand's options live in one parser, `subcommand_parser(name)`, the
only parser of a command that starts with `name`. The top-level parser,
`build_parser()`, lists the subcommands and holds none of their options: it
answers `sepmac -h` and a missing or unknown subcommand, and names an
argument that a subcommand's parser leaves over. Each parser is built at its
first use and keeps no state between parses, so `main` is safe to call
repeatedly in one process: each call prints, and returns, what a fresh
process would.

Environment variable SEPMAC_SEED overrides the default seed 0 of `gen` and
greedy `search`; the entropy bound and every other result ignore it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from . import __version__
from .core import (Distribution, InvalidParametersError, SizeLimitError, _content, load_code,
                   save_code)
from .channels import load_channel, make_channel
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


def _values(option: str, text: str, kind=float) -> tuple:
    """The comma-separated values of an option or environment variable."""
    try:
        return tuple(map(kind, text.split(",")))
    except ValueError as exc:  # its message names the bad value
        raise UsageError(f"{option} {text}: {exc}") from None


def _default_seed() -> int:
    text = os.environ.get("SEPMAC_SEED", "0")
    seed = _values("SEPMAC_SEED", text, int)
    if len(seed) != 1:
        raise UsageError(f"SEPMAC_SEED {text}: expected one integer")
    return seed[0]


def _emit(args, params: dict, payload: dict) -> None:
    record = {
        "schema": SCHEMA,
        "version": __version__,
        "command": args.command,
        "params": params,
        "payload": payload,
        "wall_time_s": round(time.monotonic() - args.started, 6),
    }
    # dumps takes the C encoder; dump to a stream encodes in Python, byte for byte the same
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


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


def _distribution_from_args(args) -> Distribution:
    """--p as a distribution over A_q; uniform when absent."""
    if args.p is None:
        return Distribution(tuple(1.0 / args.q for _ in range(args.q)))
    try:
        return Distribution(_values("--p", args.p))
    except InvalidParametersError as exc:
        raise UsageError(f"--p {args.p}: {exc}") from None


# --- subcommands -------------------------------------------------------------


def cmd_verify(args) -> int:
    s, prop, channel = args.s, args.property, None

    def check(q, N, t):
        nonlocal channel
        if prop != "separable" and args.channel is not None:
            raise UsageError(f"--{prop.replace('_', '-')} is channel-free; drop --channel")
        if prop == "separable":
            channel = _channel_from_args(args, s, q)
        vfy.check_params(prop, t, q, s, args.L)

    code = load_code(args.code, check)
    if prop == "separable":
        verdict = vfy.is_separable(code, s, channel)
    elif prop == "list":
        verdict = vfy.is_list_decoding(code, s, args.L)
    else:
        verdict = {"le_separable": vfy.is_at_most_s_separable, "frameproof": vfy.is_frameproof,
                   "hash": vfy.is_hash}[prop](code, s)

    params = {"code": args.code, "s": s, "property": prop}
    if args.L is not None:
        params["L"] = args.L
    if args.channel is not None:
        params["channel"] = args.channel
    _emit(args, params, {"property": prop, **verdict.to_dict()})
    return EXIT_OK if verdict.holds else EXIT_FAIL


def cmd_bound(args) -> int:
    kind, s, q, L = args.kind, args.s, args.q, args.L
    if kind.startswith("ld-") and L is None:
        raise UsageError(f"--L is required for {kind}")
    if L is not None and not kind.startswith("ld-"):
        raise UsageError(f"--L applies to ld-lower and ld-upper only; drop it for {kind}")
    if args.channel is not None and kind != "entropy":
        raise UsageError(f"--channel applies to entropy only; drop it for {kind}")
    if args.qprime_max is not None and kind != "ld-lower":
        raise UsageError(f"--qprime-max applies to ld-lower only; drop it for {kind}")

    if kind == "entropy":
        report = bnd.capacity_entropy_bound(_channel_from_args(args, s, q))
    elif kind == "ld-lower":
        qprime_max = bnd.QPRIME_MAX if args.qprime_max is None else args.qprime_max
        report = bnd.lower_bound_LD(s, L, q, qprime_max)
    elif kind == "ld-upper":
        report = bnd.BoundReport(kind, bnd.upper_bound_LD(s, L, q), {"s": s, "L": L, "q": q})
    else:
        value = {"b-capacity": bnd.capacity_B_closed_form, "comb-upper": bnd.comb_upper_bound,
                 "a-upper": bnd.upper_bound_A}[kind](s, q)
        report = bnd.BoundReport(kind, value, {"s": s, "q": q})

    payload = report.to_dict()
    if args.bits:
        payload["value"] /= math.log(2)
    payload["unit"] = "bits" if args.bits else "nats"
    params = {"kind": kind, "s": s, "q": q, "L": L, "bits": args.bits}
    if args.channel is not None:
        params["channel"] = args.channel
    _emit(args, params, payload)
    return EXIT_OK


def cmd_table1(args) -> int:
    table = [(s, L, q) for q in (2, 3) for L in (1, 2) for s in range(2, 7)]
    rows = ["s,L,q,lower_bound,qprime_argmax,upper_bound"]
    for (s, L, q), rep in zip(table, bnd.lower_bound_LD_rows(table, args.qprime_max)):
        up = bnd.upper_bound_LD(s, L, q)
        rows.append(f"{s},{L},{q},{rep.value:.4f},{rep.witness},{up:.4f}")
    sys.stdout.write("\n".join(rows) + "\n")
    print(f"table1 done in {time.monotonic() - args.started:.2f}s", file=sys.stderr)
    return EXIT_OK


def cmd_search(args) -> int:
    channel = _channel_from_args(args, args.s, args.q)
    result = cst.max_code_search(channel, args.N, mode=args.mode, seed=_default_seed())
    if args.out:
        save_code(result.code, args.out)
    _emit(args, {"channel": args.channel, "s": args.s, "q": args.q, "N": args.N,
                 "mode": args.mode}, result.to_dict())
    return EXIT_OK


def cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.ensemble == "cr":
        if args.composition is not None:
            raise UsageError("--composition applies to the fc ensemble only; drop it for cr")
        spec = cst.EnsembleSpec("cr", args.q, args.N, args.t,
                                p=_distribution_from_args(args).probs, seed=seed)
    else:
        if args.p is not None:
            raise UsageError("--p applies to the cr ensemble only; drop it for fc")
        if args.composition is None:
            raise UsageError("--composition is required for the fc ensemble")
        spec = cst.EnsembleSpec("fc", args.q, args.N, args.t,
                                composition=_values("--composition", args.composition, int),
                                seed=seed)
    save_code(cst.random_code(spec), args.out)
    _emit(args, {"ensemble": args.ensemble, "q": args.q, "N": args.N, "t": args.t,
                 "seed": seed}, {"out": args.out})
    return EXIT_OK


def cmd_reduce(args) -> int:
    code = load_code(args.code, functools.partial(cst.check_reduce, args.q))
    reduced = cst.reduce_alphabet(code, args.q)
    save_code(reduced, args.out)
    _emit(args, {"code": args.code, "q": args.q},
          {"out": args.out, "N": reduced.N, "t": reduced.t, "q": reduced.q})
    return EXIT_OK


def cmd_decode(args) -> int:
    code = load_code(args.code, lambda q, N, t: vfy._check_masks(q))
    with open(args.z, "r", encoding="utf-8") as fh:
        rows = [ln.replace("{", "").replace("}", "") for ln in _content(fh)]
    z = [_values("--z", row, int) if row else () for row in rows]
    _emit(args, {"code": args.code, "z": args.z},
          {"decoded": sorted(vfy.factor_decode(code, z))})
    return EXIT_OK


def cmd_exponent(args) -> int:
    channel = _channel_from_args(args, args.s, args.q)
    dist = _distribution_from_args(args)
    sweep = expm.exponent(channel, dist, _values("--R", args.R), args.ensemble)
    sys.stdout.write("\n".join(["R,E"] + [f"{rep.R:.6f},{rep.value:.6f}" for rep in sweep]) + "\n")
    for rep in sweep:
        if not rep.converged:
            print(f"exponent at R={rep.R:.6f} not converged: gap {rep.gap:.3e}, m* {rep.m_star}",
                  file=sys.stderr)
    print(f"exponent sweep done in {time.monotonic() - args.started:.2f}s", file=sys.stderr)
    return EXIT_OK


# --- argument parsing --------------------------------------------------------


SUBCOMMANDS = {  # name: (its handler, its line in `sepmac --help`)
    "verify": (cmd_verify, "verify a code property"),
    "bound": (cmd_bound, "compute a rate/capacity bound"),
    "table1": (cmd_table1, "list-decoding lower bound table (CSV)"),
    "search": (cmd_search, "maximal separable code search"),
    "gen": (cmd_gen, "generate a random code"),
    "reduce": (cmd_reduce, "alphabet-reduction construction"),
    "decode": (cmd_decode, "factor decoding of a union output word"),
    "exponent": (cmd_exponent, "error-exponent sweep (CSV)")}


@functools.cache
def subcommand_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand `name`'s parser, the only one that holds its options, built
    at the first call for `name`, with `command` set as a default."""
    p = argparse.ArgumentParser(prog=f"sepmac {name}")
    p.set_defaults(command=name)
    if name == "verify":
        p.add_argument("--code", required=True)
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--channel")
        prop = p.add_mutually_exclusive_group(required=True)
        for flag in ("separable", "le-separable", "frameproof", "hash"):
            prop.add_argument(f"--{flag}", dest="property", action="store_const",
                              const=flag.replace("-", "_"))
        prop.add_argument("--list", dest="L", type=int, metavar="L")
        # the required group leaves the property at this default only for --list
        p.set_defaults(property="list")
    elif name == "bound":
        p.add_argument("--kind", required=True,
                       choices=["entropy", "b-capacity", "comb-upper",
                                "ld-lower", "ld-upper", "a-upper"])
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--L", type=int)
        p.add_argument("--channel")
        p.add_argument("--qprime-max", dest="qprime_max", type=int)
        p.add_argument("--bits", action="store_true")
    elif name == "table1":
        p.add_argument("--qprime-max", dest="qprime_max", type=int, default=bnd.QPRIME_MAX)
    elif name == "search":
        p.add_argument("--channel", required=True)
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--mode", choices=["exhaustive", "greedy"], default="exhaustive")
        p.add_argument("--out")
    elif name == "gen":
        p.add_argument("--ensemble", choices=["cr", "fc"], required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--p", help="comma-separated distribution for cr")
        p.add_argument("--composition", help="comma-separated per-symbol counts for fc")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", required=True)
    elif name == "reduce":
        p.add_argument("--code", required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--out", required=True)
    elif name == "decode":
        p.add_argument("--code", required=True)
        p.add_argument("--z", required=True,
                       help="file with one subset per row, e.g. '0,1' per line")
    elif name == "exponent":
        p.add_argument("--channel", required=True)
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--R", required=True, help="comma-separated rate grid")
        p.add_argument("--ensemble", choices=["cr", "fc"], default="cr")
        p.add_argument("--p", help="comma-separated input distribution")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, built at the first call: each subcommand takes
    the rest of argv as it is, for its own parser."""
    parser = argparse.ArgumentParser(
        prog="sepmac", description="Separable and list-decoding codes for symmetric MACs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in SUBCOMMANDS.items():
        sub.add_parser(name, help=text).add_argument("rest", nargs=argparse.REMAINDER)
    return parser


def _parse_args(argv: list) -> argparse.Namespace:
    """argv parsed by the parser of the subcommand it names, after a leading `--`."""
    if argv[:1] == ["--"]:  # Python 3.11's argparse takes it for the subcommand's name
        argv = argv[1:]
    if not argv or argv[0] not in SUBCOMMANDS:
        top = build_parser().parse_args(argv)  # help, a missing or unknown subcommand exit
        argv = [top.command, *top.rest]
    args, extras = subcommand_parser(argv[0]).parse_known_args(argv[1:])
    if extras:
        build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    args.started = time.monotonic()
    try:
        return SUBCOMMANDS[args.command][0](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (ValueError, OSError) as exc:  # bad files and parameters, unreadable paths
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
