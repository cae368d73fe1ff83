import argparse
import builtins
import contextlib
import io
import json
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

import sepmac.construct as cst
import reference as ref
from sepmac import __version__, cli
from sepmac import exponent as expm
from sepmac.bounds import Distribution, lower_bound_LD, lower_bound_LD_rows, upper_bound_LD
from sepmac.cli import build_parser, main
from sepmac.channels import make_channel
from sepmac.core import format_code, load_code, Code, InvalidParametersError

SEP_CODE = format_code(Code(2, [(0, 0), (0, 1), (1, 0)]))
BAD_CODE = format_code(Code(2, [(0, 0), (0, 1), (1, 0), (1, 1)]))


@pytest.fixture()
def code_file(tmp_path):
    def write(text, name="code.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def run_err(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out = run(capsys, argv)
    return rc, json.loads(out)


def test_verify_holds(capsys, code_file):
    rc, rec = run_json(capsys, [
        "verify", "--code", code_file(SEP_CODE), "--s", "2",
        "--channel", "B", "--separable"])
    assert rc == 0
    assert rec["schema"] == 1
    assert rec["command"] == "verify"
    assert rec["payload"]["holds"] is True
    assert rec["payload"].get("witness") is None
    assert rec["wall_time_s"] >= 0


def test_verify_fails_with_witness(capsys, code_file):
    rc, rec = run_json(capsys, [
        "verify", "--code", code_file(BAD_CODE), "--s", "2",
        "--channel", "B", "--separable"])
    assert rc == 1
    assert rec["payload"]["holds"] is False
    assert rec["payload"]["witness"] == [[1, 4], [2, 3]]


def test_verify_channel_free_rejects_channel(capsys, code_file):
    rc, _ = run(capsys, [
        "verify", "--code", code_file(SEP_CODE), "--s", "2",
        "--channel", "B", "--frameproof"])
    assert rc == 2
    # the header's checks refuse before the rows are read, so the option
    # fault is named, not the malformed row
    rc, out, err = run_err(capsys, [
        "verify", "--code", code_file("2 1 4\n1 x 0 1\n"), "--s", "2",
        "--channel", "B", "--frameproof"])
    assert rc == 2 and out == ""
    assert "--frameproof is channel-free; drop --channel" in err
    assert "non-integer symbol" not in err


def test_verify_requires_one_property(capsys, code_file):
    path = code_file(SEP_CODE)
    rc, _ = run(capsys, ["verify", "--code", path, "--s", "2"])
    assert rc == 2
    rc, _ = run(capsys, ["verify", "--code", path, "--s", "2",
                         "--separable", "--frameproof"])
    assert rc == 2


def test_verify_list_property(capsys, code_file):
    rc, rec = run_json(capsys, [
        "verify", "--code", code_file(SEP_CODE), "--s", "2", "--list", "2"])
    assert rc == 0
    assert rec["params"]["L"] == 2


def test_parser_built_once(capsys, code_file):
    # each call on the shared parser prints and returns what it does on a
    # fresh one, also right after a failed parse and after --help
    assert build_parser() is build_parser()
    assert cli.subcommand_parser("verify") is cli.subcommand_parser("verify")
    valid = ["verify", "--code", code_file(SEP_CODE), "--s", "2", "--channel", "B",
             "--separable"]
    calls = [valid, ["bound", "--kind", "nope", "--s", "2", "--q", "2"],
             ["verify", "--code", valid[2], "--s", "2"], ["--help"], valid]

    def outcome(argv):
        rc, out, err = run_err(capsys, argv)
        return rc, re.sub(r'"wall_time_s": [^}]*', "", out), err

    shared = [outcome(argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        cli.subcommand_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [0, 2, 2, 0, 0]
    assert shared[1][2].startswith("usage: sepmac bound ")
    assert shared[3][1].startswith("usage: sepmac ")


# valid arguments of every subcommand, long forms, `--opt=value` forms and abbreviations
VALID_ARGVS = {
    "verify": [["--code", "c.txt", "--s", "2", "--channel", "B", "--separable"],
               ["--s=2", "--code", "c.txt", "--list", "3"],
               ["--co", "c.txt", "--s", "2", "--frame"],
               ["--code", "c.txt", "--s", "2", "--le-separable"],
               ["--code", "c", "--s", "1", "--hash"]],
    "bound": [["--kind", "ld-lower", "--s", "2", "--L", "1", "--q", "3", "--qprime", "10"],
              ["--kind=entropy", "--s", "2", "--q", "2", "--channel", "A", "--bits"]],
    "table1": [[], ["--qprime-max", "4"], ["--qprime-max=4"], ["--qp", "4"]],
    "search": [["--channel", "B", "--s", "2", "--q", "2", "--N", "3"],
               ["--channel", "B", "--s", "2", "--q", "2", "--N", "3", "--mode", "greedy", "--out",
                "o.txt"]],
    "gen": [["--ensemble", "cr", "--q", "2", "--N", "3", "--t", "4", "--out", "o.txt"],
            ["--ensemble", "fc", "--q", "2", "--N", "3", "--t", "4", "--out", "o.txt",
             "--composition", "1,2", "--seed", "-3", "--p", "0.5,0.5"]],
    "reduce": [["--code", "c.txt", "--q", "2", "--out", "o.txt"]],
    "decode": [["--code", "c.txt", "--z", "z.txt"]],
    "exponent": [["--channel", "B", "--s", "2", "--q", "2", "--R", "0.1"],
                 ["--channel", "B", "--s", "2", "--q", "2", "--R=0,0.1", "--ensemble", "fc",
                  "--p", "0.5,0.5"]],
}
# failing arguments: missing required, bad int, bad choice, excluded or
# ambiguous options, unknown or leftover arguments, missing values, help
FAILING_ARGVS = [[name, *tail] for name in VALID_ARGVS for tail in (
    [], ["-h"], ["--help"], ["--h"], [*VALID_ARGVS[name][0], "--bogus"],
    [*VALID_ARGVS[name][0], "extra"], [*VALID_ARGVS[name][0], "--", "x"],
    [*VALID_ARGVS[name][0], "-h"], [*VALID_ARGVS[name][0][:-1]])] + [
    ["verify", "--code", "c", "--s", "x", "--hash"], ["verify", "--code", "c", "--s", "2"],
    ["verify", "--code", "c", "--s", "2", "--separable", "--frameproof"],
    ["verify", "--code", "c", "--s", "2", "--l"],
    ["verify", "--code", "c", "--s", "2", "--list", "x"],
    ["bound", "--kind", "nope", "--s", "2", "--q", "2"], ["bound", "--s", "2", "--q", "2"],
    ["bound", "--kind", "ld-lower", "--s", "2", "--q", "2", "--L"],
    ["table1", "--qprime-max", "x"], ["table1", "--qprime", "4", "--qprime-max"],
    ["search", "--channel", "B", "--s", "2", "--q", "2", "--N", "3", "--mode", "nope"],
    ["gen", "--ensemble", "xx", "--q", "2", "--N", "3", "--t", "4", "--out", "o"],
    ["exponent", "--channel", "B", "--s", "2", "--q", "2"],
    ["exponent", "--channel", "B", "--s", "2", "--q", "2", "--R", "0.1", "--ensemble", "x"]]


def parse_outcome(parse, argv):
    """The parsed namespace's attributes, or the exit code, stdout and stderr
    of a parse that exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


# no subcommand, help, an unknown word, an option the top level does not take,
# a `--` inside a command
EDGE_ARGVS = [[], ["-h"], ["--help"], ["frobnicate"], ["-h", "verify"], ["--"], ["VERIFY"],
              ["-", "verify"], ["--version"], ["verify", "--", "--code", "c"]]


@pytest.mark.parametrize("argv", [[name, *tail] for name, tails in VALID_ARGVS.items()
                                  for tail in tails] + FAILING_ARGVS + EDGE_ARGVS, ids=" ".join)
def test_subcommand_parser_matches_full_parser(argv):
    # a command parsed by its subcommand's parser alone gets the namespace, or
    # the exit code, usage, help and error text, that the reference full
    # parser, with every subcommand's options under the top level, gives
    assert VALID_ARGVS.keys() == cli.SUBCOMMANDS.keys()
    own = parse_outcome(cli._parse_args, argv)
    full = parse_outcome(ref.full_parser().parse_args, argv)
    assert own == full
    if isinstance(full, dict):
        assert full["command"] == argv[0] and full == vars(
            cli.subcommand_parser(argv[0]).parse_args(argv[1:]))
    elif "-h" in argv or "--help" in argv:
        name = argv[0] if argv[0] in cli.SUBCOMMANDS else "[-h]"
        assert full[0] == 0 and full[1].startswith(f"usage: sepmac {name} ")


@pytest.mark.parametrize("argv", [
    ["verify", "--code", "c", "--s", "2", "--hash"], ["verify", "--code", "c", "--s", "2"],
    ["verify", "-h"], ["exponent", "--channel", "B", "--s", "2", "--q", "2", "--R", "0.1", "x"],
    ["table1", "--", "x"], ["table1"], ["frobnicate"], []], ids=" ".join)
def test_leading_double_dash(argv):
    # a `--` before the subcommand changes nothing
    assert parse_outcome(cli._parse_args, ["--", *argv]) == parse_outcome(cli._parse_args, argv)


@pytest.mark.parametrize("argv,error", [
    (["--", "--", "exponent", "--channel", "B", "--s", "2", "--q", "2", "--R", "0.1"],
     "invalid choice: '--'"),
    (["-", "exponent"], "invalid choice: '-'"), (["expo"], "invalid choice: 'expo'"),
    (["--", "--"], "the following arguments are required: command")], ids=" ".join)
def test_top_level_parse_only_exits(argv, error):
    # an argv that does not start with a subcommand, after one `--`, is left
    # to the top-level parser, which exits on each of these: a second `--`, a
    # lone `-`, a prefix of a subcommand's name, nothing after the `--`s
    rc, out, err = parse_outcome(cli._parse_args, argv)
    assert (rc, out) == (2, "") and err.startswith("usage: sepmac [-h] {verify,") and error in err


def test_option_before_subcommand():
    # an option before the subcommand is refused under the top-level usage
    rc, out, err = parse_outcome(cli._parse_args, ["-x", "verify", "--code", "c", "--s", "2",
                                                   "--hash"])
    assert rc == 2 and out == ""
    assert err.startswith("usage: sepmac [-h] {verify,") and "unrecognized arguments: -x" in err


def test_top_level_parser_holds_no_subcommand_option():
    sub, = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sub.choices.keys() == cli.SUBCOMMANDS.keys()
    for parser in sub.choices.values():
        assert [a.dest for a in parser._actions] == ["help", "rest"]


def test_subcommand_builds_only_its_parser(capsys):
    build_parser.cache_clear()
    cli.subcommand_parser.cache_clear()
    assert main(["exponent", "--channel", "B", "--s", "2", "--q", "2", "--R", "0.1"]) == 0
    assert build_parser.cache_info().currsize == 0
    assert cli.subcommand_parser.cache_info().currsize == 1
    capsys.readouterr()
    # a command without a subcommand builds the top-level parser
    assert main([]) == 2 and capsys.readouterr().err.startswith("usage: sepmac [-h] {verify,")
    assert build_parser.cache_info().currsize == 1
    # a leftover argument is named under the top-level usage, without a second parse
    parses = []
    real = argparse.ArgumentParser.parse_known_args
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(argparse.ArgumentParser, "parse_known_args",
                   lambda self, *a, **k: parses.append(self.prog) or real(self, *a, **k))
        assert main(["exponent", "--channel", "B", "--s", "2", "--q", "2", "--R", "0.1",
                     "extra"]) == 2
    assert parses == ["sepmac exponent"]
    assert capsys.readouterr().err == (
        "usage: sepmac [-h] {verify,bound,table1,search,gen,reduce,decode,exponent} ...\n"
        "sepmac: error: unrecognized arguments: extra\n")


@pytest.mark.parametrize("argv, err", [
    (["verify", "--s", "2", "--le-separable"], "more than 1000000 index sets"),
    (["reduce", "--q", "2", "--out", "{dir}/out.txt"], "N*t = 30000000 code cells"),
    (["decode", "--z", "{dir}/z.txt"], "alphabet size 65 exceeds the 64-bit row masks")])
def test_header_decides_refusal(capsys, tmp_path, argv, err):
    # a header past a guard: the refusal comes before the rows it announces
    # are read, so their absence is never reported
    header = "65 2 3" if argv[0] == "decode" else "3 1000 10000"
    (tmp_path / "big.txt").write_text(header + "\n0 1 2\n")
    (tmp_path / "z.txt").write_text("0\n0\n")
    argv = [a.format(dir=tmp_path) for a in argv] + ["--code", str(tmp_path / "big.txt")]
    rc, out, stderr = run_err(capsys, argv)
    assert rc == 3 and out == "" and err in stderr
    assert not (tmp_path / "out.txt").exists()


HEADER_VALUES = [-1, 0, 1, 2, 3, 65, 10 ** 4, 2 ** 63, 2 ** 64, 10 ** 400]
HEADER_ARGVS = [["verify", "--s", s, *prop] for s in ("1", "2", "1000000")
                for prop in (["--channel", "B", "--separable"], ["--channel", "disj", "--separable"],
                             ["--le-separable"], ["--frameproof"], ["--hash"], ["--list", "2"])]
HEADER_ARGVS += [["reduce", "--q", q] for q in ("2", "3", "100")] + [["decode"]]


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.sampled_from(HEADER_VALUES)] * 3),
       st.sampled_from(["", "0 1\n", "0 1\n1 0\n", "0 x\n"]), st.sampled_from(HEADER_ARGVS))
def test_header_checks_exit_cleanly(tmp_path_factory, header, rows, argv):
    # whatever the header claims, the checks made on it end in an exit code
    path = tmp_path_factory.mktemp("code") / "code.txt"
    path.write_text("{} {} {}\n".format(*header) + rows)
    (path.parent / "z.txt").write_text("0\n1\n")
    files = {"reduce": ["--out", str(path.parent / "out.txt")],
             "decode": ["--z", str(path.parent / "z.txt")]}
    argv = argv + ["--code", str(path), *files.get(argv[0], [])]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2, 3)


@pytest.mark.parametrize("argv", [
    ["verify", "--s", "2", "--channel", "B", "--separable"], ["verify", "--s", "2", "--hash"],
    ["reduce", "--q", "2", "--out", "{dir}/out.txt"], ["decode", "--z", "{dir}/z.txt"]],
    ids=" ".join)
def test_code_file_opened_once(capsys, tmp_path, monkeypatch, argv):
    # the header checks and the rows are read from one open of the file
    path = tmp_path / "code.txt"
    path.write_text(format_code(Code(3, [(0, 1), (2, 0), (1, 1)])))
    (tmp_path / "z.txt").write_text("0,1\n1\n")
    opened, real = [], builtins.open
    monkeypatch.setattr(builtins, "open",
                        lambda file, *a, **k: opened.append(str(file)) or real(file, *a, **k))
    rc, _, err = run_err(capsys, [a.format(dir=tmp_path) for a in argv] + ["--code", str(path)])
    assert rc in (0, 1) and err == ""
    assert opened.count(str(path)) == 1


def test_missing_code_file(capsys):
    rc, _ = run(capsys, ["verify", "--code", "/nonexistent", "--s", "2",
                         "--frameproof"])
    assert rc == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_bound_ld_lower(capsys):
    rc, rec = run_json(capsys, [
        "bound", "--kind", "ld-lower", "--s", "2", "--L", "1", "--q", "3"])
    assert rc == 0
    assert abs(rec["payload"]["value"] - 0.2939) < 1e-4
    assert rec["payload"]["witness"] == 3
    assert rec["payload"]["unit"] == "nats"


def test_ld_lower_qprime_max_default(capsys):
    argv = ["bound", "--kind", "ld-lower", "--s", "3", "--L", "2", "--q", "2"]
    payloads = [run_json(capsys, argv + extra)[1]["payload"] for extra in
                ([], ["--qprime-max", "64"], ["--qprime-max", "5"])]
    assert payloads[0] == payloads[1] != payloads[2]


def test_bound_bits_flag(capsys):
    import math
    _, nats = run_json(capsys, [
        "bound", "--kind", "b-capacity", "--s", "2", "--q", "2"])
    _, bits = run_json(capsys, [
        "bound", "--kind", "b-capacity", "--s", "2", "--q", "2", "--bits"])
    assert abs(nats["payload"]["value"] - bits["payload"]["value"] * math.log(2)) < 1e-12
    assert bits["payload"]["value"] == 0.75
    _, bits = run_json(capsys, [
        "bound", "--kind", "a-upper", "--s", "4", "--q", "8", "--bits"])
    assert bits["payload"]["value"] == 1.5


def test_b_capacity_limit_exit_code(capsys):
    # C(22, 12) * 10 = 6,466,460 kernel cells: both B-channel bounds refuse
    for argv in (["--kind", "b-capacity"], ["--kind", "entropy", "--channel", "B"]):
        rc, out = run(capsys, ["bound", *argv, "--s", "12", "--q", "10"])
        assert rc == 3 and out == ""


@pytest.mark.parametrize("channel,s,q", [("B", 1, 200), ("A", 3, 30), ("A", 3, 40)])
def test_entropy_work_limit_exit_code(capsys, channel, s, q):
    # 8.8, 6.6 and 19.8 million work units: refused at once. B s=1 q=200 and
    # A s=3 q=40 took 13 s and 30 s on a Xeon core when each of the 17 starts
    # ran its own SLSQP, and take 0.01 s and 0.8 s since they climb as one
    # batch; the guard is kept, so no input's exit code changed. A s=3 q=30
    # is the first A s=3 instance past the guard
    start = time.monotonic()
    rc, out, err = run_err(capsys, ["bound", "--kind", "entropy", "--channel", channel,
                                    "--s", str(s), "--q", str(q)])
    assert rc == 3 and out == "" and "work units" in err
    assert time.monotonic() - start < 1


LD_LOWER = ["bound", "--kind", "ld-lower", "--q", "2"]


@pytest.mark.parametrize("argv", [
    # charged up to where the envelope must end the scan: still over the
    # budget with L = 200000, where that q' is past 10^7; nowhere for
    # s = 20000, whose first value underflows; and not sought for L = 10^16,
    # past a float's 53-bit mantissa
    LD_LOWER + ["--s", "3", "--L", "200000", "--qprime-max", "100000000"],
    LD_LOWER + ["--s", "20000", "--L", "1", "--qprime-max", "100000000"],
    LD_LOWER + ["--s", "3", "--L", str(10 ** 16)],
    # q'^(s+L) denominators of up to 1.2 million bits
    LD_LOWER + ["--s", "3", "--L", "200000"],
    # 64^2 powers (m-k)^s of up to 120,000 and 12 million bits
    LD_LOWER + ["--s", "20000", "--L", "1"],
    LD_LOWER + ["--s", "2000000", "--L", "1"],
    # a 401-digit s: the budget's integer arithmetic does not overflow
    LD_LOWER + ["--s", str(10 ** 400), "--L", "1"]])
def test_ld_lower_limit_exit_code(capsys, argv):
    # the work budget refuses before the first P_term
    start = time.monotonic()
    rc, out, err = run_err(capsys, argv)
    assert rc == 3 and out == "" and "work units" in err
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("argv", [
    # 10^8 - 1 values of q' (and past 2^53), but the envelope ends the scan
    # before q' = 10
    LD_LOWER + ["--s", "3", "--L", "1", "--qprime-max", "100000000"],
    LD_LOWER + ["--s", "3", "--L", "1", "--qprime-max", str(10 ** 400)],
    # charging every q' up to 10^8 (10^6) would be over the budget (only the
    # first two rows would fit it up to 10^6), but each row's scan ends below
    # q' = 17
    ["table1", "--qprime-max", "100000000"],
    ["table1", "--qprime-max", "1000000"]])
def test_ld_lower_budget_charges_up_to_the_envelope(capsys, argv):
    # the budget is charged only up to where the envelope must end each scan:
    # these answer at once, and table1 as at the default q'max
    start = time.monotonic()
    rc, out, err = run_err(capsys, argv)
    assert rc == 0 and "work units" not in err
    assert time.monotonic() - start < 1
    if argv[0] == "table1":
        assert out == run(capsys, ["table1"])[1]
    else:
        assert '"witness": 6' in out and '"at_cap": false' in out


def test_ld_lower_exact_too_long_to_print(capsys):
    rc, out, err = run_err(capsys, ["bound", "--kind", "ld-lower", "--s", "3", "--L", "5000",
                                    "--q", "2"])
    assert rc == 3 and out == ""
    assert "decimal digits" in err and "Traceback" not in err


def test_bound_requires_L(capsys):
    rc, _ = run(capsys, ["bound", "--kind", "ld-lower", "--s", "2", "--q", "3"])
    assert rc == 2


NO_CHANNEL = "usage error: --channel is required for this operation"


@pytest.mark.parametrize("seed, argv, rc, want", [
    (None, ["bound", "--kind", "ld-upper", "--s", "3", "--L", "2", "--q", "2"], 0,
     '"unit": "nats", "value": 0.34657359027997264}'),
    (None, ["bound", "--kind", "ld-upper", "--s", "3", "--L", "2", "--q", "2", "--bits"], 0,
     '"unit": "bits", "value": 0.5}'),
    (None, ["verify", "--code", "CODE", "--s", "2", "--separable"], 2, NO_CHANNEL),
    (None, ["bound", "--kind", "entropy", "--s", "2", "--q", "2"], 2, NO_CHANNEL),
    ("1,2", ["search", "--channel", "B", "--s", "2", "--q", "2", "--N", "3", "--mode", "greedy"],
     2, "SEPMAC_SEED 1,2: expected one integer"),
    # the code's second row is malformed: the refusal is the header check's
    (None, ["verify", "--code", "CODE", "--s", "2", "--list", "0"], 2, "L >= 1, got s=2, L=0"),
    (None, ["bound", "--kind", "comb-upper", "--s", "1", "--q", "2"], 2, "need s >= 2"),
    (None, ["bound", "--kind", "a-upper", "--s", "1", "--q", "2"], 2, "need s >= 2"),
    (None, ["bound", "--kind", "ld-upper", "--s", "1", "--L", "1", "--q", "2"], 2,
     "need s >= 2, L >= 1, q >= 2, got (1, 1, 2)"),
    # a record names the options given, --qprime-max included, and no other
    (None, ["bound", "--kind", "ld-lower", "--s", "2", "--L", "1", "--q", "3", "--qprime-max", "8"],
     0, '"params": {"L": 1, "bits": false, "kind": "ld-lower", "q": 3, "qprime_max": 8, "s": 2}'),
    (None, ["bound", "--kind", "b-capacity", "--s", "2", "--q", "2", "--bits"], 0,
     '"params": {"bits": true, "kind": "b-capacity", "q": 2, "s": 2}'),
])
def test_cli_paths_and_refusals(capsys, code_file, monkeypatch, seed, argv, rc, want):
    if seed is not None:
        monkeypatch.setenv("SEPMAC_SEED", seed)
    path = code_file("2 1 4\n1 x 0 1\n")
    got, out, err = run_err(capsys, [path if a == "CODE" else a for a in argv])
    assert got == rc
    assert want in (out if rc == 0 else err) and (out if rc else err) == ""


def test_table1_csv(capsys):
    rc, out = run(capsys, ["table1"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,L,q,lower_bound,qprime_argmax,upper_bound"
    assert len(lines) == 1 + 20  # q in {2,3} x L in {1,2} x s in 2..6
    row = dict(zip(("s", "L", "q", "lo", "arg", "up"), lines[1].split(",")))
    assert (row["s"], row["L"], row["q"]) == ("2", "1", "2")
    assert row["lo"] == "0.1438" and row["arg"] == "2"
    for ln in lines[1:]:
        parts = ln.split(",")
        assert float(parts[3]) <= float(parts[5]) + 1e-9


@pytest.mark.parametrize("qprime_max", [3, 4, 64, 256])
def test_table1_matches_rows_one_by_one(capsys, qprime_max):
    # the table's q = 2 and q = 3 rows share each (s, L)'s P_term sums; built
    # one row at a time, the reports and the CSV are the same
    table = [(s, L, q) for q in (2, 3) for L in (1, 2) for s in range(2, 7)]
    reports = [lower_bound_LD(s, L, q, qprime_max) for s, L, q in table]
    assert lower_bound_LD_rows(table, qprime_max) == reports
    rows = [f"{s},{L},{q},{rep.value:.4f},{rep.witness},{upper_bound_LD(s, L, q):.4f}"
            for (s, L, q), rep in zip(table, reports)]
    rc, out = run(capsys, ["table1", "--qprime-max", str(qprime_max)])
    assert rc == 0
    assert out == "\n".join(["s,L,q,lower_bound,qprime_argmax,upper_bound", *rows]) + "\n"


def test_search_json_and_out(capsys, tmp_path):
    out_path = str(tmp_path / "best.txt")
    rc, rec = run_json(capsys, [
        "search", "--channel", "disj", "--s", "2", "--q", "2", "--N", "3",
        "--out", out_path])
    assert rc == 0
    assert rec["payload"]["t_star"] == 4
    code = load_code(out_path)
    assert code.t == 4


def test_search_limit_exit_code(capsys):
    rc, _ = run(capsys, ["search", "--channel", "disj", "--s", "2", "--q", "2",
                         "--N", "25"])
    assert rc == 3


@pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
@pytest.mark.parametrize("N", [10 ** 4, 10 ** 8])
def test_search_guard_refuses_a_huge_N_at_once(capsys, mode, N):
    # 3^N past the guard is never built: 3^10000 has 4,772 digits, past the
    # 4,300 an int may print (that raised ValueError, exit 2), and 3^(10^8)
    # did not finish within 100 s
    started = time.perf_counter()
    rc, out, err = run_err(capsys, ["search", "--channel", "B", "--s", "2", "--q", "3",
                                    "--N", str(N), "--mode", mode])
    assert time.perf_counter() - started < 0.5
    assert rc == 3 and out == ""
    assert f"q^N exceeds guard {cst.EXHAUSTIVE_GUARD} (q=3, N={N})" in err


def test_search_node_budget_exit_code(capsys, monkeypatch):
    # disj s=2 N=5 visits 6,553 nodes: the budget stops it after work started
    monkeypatch.setattr(cst, "NODE_GUARD", 1000)
    rc, out, err = run_err(capsys, ["search", "--channel", "disj", "--s", "2", "--q", "2",
                                    "--N", "5"])
    assert rc == 3 and out == "" and "nodes" in err


# each command that writes --out, its other options and the work that fills the file
OUT_WORK = {"search": (["--channel", "B", "--s", "2", "--q", "3", "--N", "3"], "max_code_search"),
            "gen": (["--ensemble", "cr", "--q", "2", "--N", "3", "--t", "4"], "random_code"),
            "reduce": (["--code", "{dir}/code.txt", "--q", "2"], "reduce_alphabet")}


def _out_argv(tmp_path, name, out):
    """Command ``name`` writing ``out`` in tmp_path, whose code.txt is a q=3 code."""
    (tmp_path / "code.txt").write_text(format_code(Code(3, [(0, 1), (2, 0)])))
    argv = [a.format(dir=tmp_path) for a in OUT_WORK[name][0]]
    return [name, *argv, "--out", str(tmp_path / out)]


@pytest.mark.parametrize("out, err", [("missing/x.txt", "[Errno 2] No such file or directory"),
                                      ("code.txt/x.txt", "[Errno 20] Not a directory"),
                                      (".", "[Errno 21] Is a directory")],
                         ids=["missing parent", "file as parent", "directory"])
@pytest.mark.parametrize("name", list(OUT_WORK))
def test_unusable_out_refused_before_the_work(capsys, tmp_path, monkeypatch, name, out, err):
    # an --out that open would refuse is refused with open's error before the
    # search, draw or reduction runs (the B s=2 q=3 N=3 search takes 265,594 nodes)
    work = OUT_WORK[name][1]
    monkeypatch.setattr(cst, work, lambda *args, **kwargs: pytest.fail(f"{work} ran"))
    rc, stdout, stderr = run_err(capsys, argv := _out_argv(tmp_path, name, out))
    assert rc == 2 and stdout == ""
    assert stderr == f"error: {err}: {argv[-1]!r}\n"


@pytest.mark.parametrize("name", list(OUT_WORK))
def test_out_untouched_when_the_work_is_refused(capsys, tmp_path, monkeypatch, name):
    # the check opens nothing, so a file at --out outlives a refused command
    def refuse(*args, **kwargs):
        raise cst.SizeLimitError("refused")
    monkeypatch.setattr(cst, OUT_WORK[name][1], refuse)
    (tmp_path / "out.txt").write_text("kept\n")
    rc, stdout, stderr = run_err(capsys, _out_argv(tmp_path, name, "out.txt"))
    assert (rc, stdout, stderr) == (3, "", "error: refused\n")
    assert (tmp_path / "out.txt").read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["search", "--channel", "B", "--s", "2", "--q", "2", "--N", "100000000"],
    ["gen", "--ensemble", "cr", "--q", "2", "--N", "100000", "--t", "100000"],
    ["reduce", "--code", "{dir}/big.txt", "--q", "2"]], ids=lambda argv: argv[0])
def test_unusable_out_refused_before_the_command_checks(capsys, tmp_path, argv):
    # with a usable --out each exits 3 on its own size check (q^N, cells drawn,
    # a header of 30,000,000 cells); an unusable one is refused first, with 2
    (tmp_path / "big.txt").write_text("3 1000 10000\n0 1 2\n")
    out = str(tmp_path / "missing" / "x.txt")
    rc, stdout, stderr = run_err(capsys, [a.format(dir=tmp_path) for a in argv] + ["--out", out])
    assert (rc, stdout, stderr) == (2, "", f"error: [Errno 2] No such file or directory: {out!r}\n")


@pytest.mark.parametrize("prop", [
    ["--channel", "B", "--separable"], ["--le-separable"], ["--frameproof"], ["--hash"],
    ["--list", "2"]])
def test_verify_limit_exit_code(capsys, code_file, prop):
    # C(200, 3) = 1,313,400 messages: refused before any is enumerated
    big = format_code(Code(3, [(j % 3,) for j in range(200)]))
    rc, out = run(capsys, ["verify", "--code", code_file(big), "--s", "3", *prop])
    assert rc == 3 and out == ""


@pytest.mark.parametrize("argv", [
    ["bound", "--kind", "entropy", "--channel", "B", "--s", "2", "--q", "300"],
    ["verify", "--s", "2", "--channel", "B", "--separable"]])
def test_channel_kernel_limit_exit_code(capsys, code_file, argv):
    # C(302, 2) * 300 = 13,635,300 kernel cells: refused before any is built
    if argv[0] == "verify":
        argv = argv + ["--code", code_file(format_code(
            Code(300, [(0,), (1,), (299,)])))]
    rc, out = run(capsys, argv)
    assert rc == 3 and out == ""


def test_gen_reproducible(capsys, tmp_path):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    for path in (a, b):
        rc, _ = run_json(capsys, [
            "gen", "--ensemble", "cr", "--q", "2", "--N", "4", "--t", "5",
            "--seed", "9", "--out", path])
        assert rc == 0
    assert load_code(a) == load_code(b)


def test_gen_seed_env(capsys, tmp_path, monkeypatch):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    monkeypatch.setenv("SEPMAC_SEED", "123")
    run_json(capsys, ["gen", "--ensemble", "cr", "--q", "2", "--N", "4",
                      "--t", "5", "--out", a])
    run_json(capsys, ["gen", "--ensemble", "cr", "--q", "2", "--N", "4",
                      "--t", "5", "--seed", "123", "--out", b])
    assert load_code(a) == load_code(b)


def test_gen_fc_needs_composition(capsys, tmp_path):
    rc, _ = run(capsys, ["gen", "--ensemble", "fc", "--q", "2", "--N", "4",
                         "--t", "5", "--out", str(tmp_path / "x.txt")])
    assert rc == 2


@pytest.mark.parametrize("option, argv", [
    ("--p", ["gen", "--ensemble", "fc", "--q", "2", "--N", "2", "--t", "2",
             "--composition", "1,1", "--p", "0.2,0.8", "--out", "{dir}/code.txt"]),
    ("--composition", ["gen", "--ensemble", "cr", "--q", "2", "--N", "2", "--t", "2",
                       "--composition", "1,1", "--out", "{dir}/code.txt"]),
    ("--L", ["bound", "--kind", "a-upper", "--s", "2", "--q", "2", "--L", "3"]),
    ("--channel", ["bound", "--kind", "comb-upper", "--s", "2", "--q", "2",
                   "--channel", "B"]),
    ("--qprime-max", ["bound", "--kind", "entropy", "--channel", "A", "--s", "2", "--q", "2",
                      "--qprime-max", "3"])])
def test_ignored_option_refused(capsys, tmp_path, option, argv):
    rc, out, err = run_err(capsys, [a.format(dir=tmp_path) for a in argv])
    assert rc == 2 and out == ""
    assert err.startswith(f"usage error: {option} ")
    assert not (tmp_path / "code.txt").exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--ensemble", "cr", "--q", "2", "--N", "100000", "--t", "100000"],
    ["gen", "--ensemble", "fc", "--q", "2", "--N", "10001", "--t", "1000",
     "--composition", "5000,5001"],
    ["reduce", "--code", "{dir}/big.txt", "--q", "2"]])
def test_code_cell_limit_exit_code(capsys, tmp_path, argv):
    # 10^10 and 10,001,000 cells drawn, and 64 * 160,000 cells reduced from a
    # q=64 code, are refused before any is written
    if argv[0] == "reduce":
        (tmp_path / "big.txt").write_text(format_code(Code(64, [(0,) * 400] * 400)))
    out_file = tmp_path / "out.txt"
    rc, out, err = run_err(capsys, [a.format(dir=tmp_path) for a in argv]
                           + ["--out", str(out_file)])
    assert rc == 3 and out == "" and "code cells" in err
    assert not out_file.exists()


def test_reduce_roundtrip(capsys, tmp_path, code_file):
    src = tmp_path / "src.txt"
    src.write_text(format_code(Code(4, [(0, 3), (2, 1)])))
    out = str(tmp_path / "red.txt")
    rc, rec = run_json(capsys, ["reduce", "--code", str(src), "--q", "3",
                                "--out", out])
    assert rc == 0
    reduced = load_code(out)
    assert reduced.q == 3 and reduced.N == 4
    assert rec["payload"]["N"] == 4


def test_reduce_to_larger_alphabet(capsys, tmp_path, code_file):
    code_path = code_file(format_code(Code(3, [(0, 2), (1, 1)])))
    for q in ("3", "4"):
        rc, out = run(capsys, ["reduce", "--code", code_path, "--q", q,
                               "--out", str(tmp_path / "red.txt")])
        assert rc == 2 and out == ""


def test_decode(capsys, tmp_path, code_file):
    # a row of braces around nothing, or around blanks, is the empty set
    code_path = code_file(format_code(Code(2, [(0, 0), (1, 1), (0, 1)])))
    z = tmp_path / "z.txt"
    for text, decoded in [("0,1\n1\n", [2, 3]), ("{0, 1}\n{1}\n", [2, 3]),
                          ("0,1\n{}\n", []), ("{0,1}\n{ }\n", [])]:
        z.write_text(text)
        rc, rec = run_json(capsys, ["decode", "--code", code_path, "--z", str(z)])
        assert rc == 0
        assert rec["payload"]["decoded"] == decoded, text


def test_decode_indented_comment(capsys, tmp_path, code_file):
    code_path = code_file(format_code(Code(2, [(0, 0), (1, 1), (0, 1)])))
    z = tmp_path / "z.txt"
    z.write_text("0,1\n  # note\n1\n")
    rc, rec = run_json(capsys, ["decode", "--code", code_path, "--z", str(z)])
    assert rc == 0
    assert rec["payload"]["decoded"] == [2, 3]


def test_decode_wrong_length(capsys, tmp_path, code_file):
    code_path = code_file(format_code(Code(2, [(0, 0), (1, 1), (0, 1)])))
    z = tmp_path / "z.txt"
    z.write_text("0,1\n1\n0\n")
    rc, out = run(capsys, ["decode", "--code", code_path, "--z", str(z)])
    assert rc == 2 and out == ""


def test_table1_empty_qprime_range(capsys):
    rc, out = run(capsys, ["table1", "--qprime-max", "1"])
    assert rc == 2 and out == ""


def test_search_channel_s_mismatch(capsys, tmp_path):
    ch = tmp_path / "chan.txt"
    ch.write_text("2 2 2\n2 0 -> 0\n1 1 -> 1\n0 2 -> 1\n")
    rc, out = run(capsys, ["search", "--channel", f"custom:{ch}", "--s", "3",
                           "--q", "2", "--N", "2"])
    assert rc == 2 and out == ""


@pytest.mark.parametrize("argv,code,err", [
    # the kernel guard comes before the q = 2 check and the level check
    (["--channel", "disj", "--s", "2000", "--q", "3"], 3,
     "error: channel too large: C(q+s, s)*q = 4012011003 kernel cells exceed guard "
     "1048576 (q=3, s=2000)\n"),
    (["--channel", "thr:3000", "--s", "2000", "--q", "3"], 3,
     "error: channel too large: C(q+s, s)*q = 4012011003 kernel cells exceed guard "
     "1048576 (q=3, s=2000)\n"),
    # the user count comes before the level check
    (["--channel", "thr:2", "--s", "0", "--q", "2"], 2,
     "error: user count must be >= 1, got 0\n"),
    # a count too long to print is refused unprinted, without computing it
    (["--channel", "B", "--s", "100000", "--q", "100000"], 3,
     "error: channel too large: C(q+s, s)*q kernel cells exceed guard 1048576 "
     "(q=100000, s=100000)\n")])
def test_channel_refusal_order(capsys, argv, code, err):
    assert run_err(capsys, ["search", *argv, "--N", "2"]) == (code, "", err)


def test_unknown_threshold_channel(capsys):
    rc, out, err = run_err(capsys, ["search", "--channel", "thr:x", "--s", "2",
                                    "--q", "2", "--N", "2"])
    assert rc == 2 and out == ""
    assert "unknown channel name 'thr:x'" in err


@pytest.mark.parametrize("probs", ["0.5,0.5000000001", "0.5,x", "nan,0.5", ""])
@pytest.mark.parametrize("command", [
    ["gen", "--ensemble", "cr", "--N", "2", "--t", "2", "--out"],
    ["exponent", "--channel", "B", "--s", "2", "--R", "0.1"]])
def test_p_usage_error(capsys, tmp_path, command, probs):
    if command[0] == "gen":
        command = command + [str(tmp_path / "code.txt")]
    rc, out, err = run_err(capsys, command + ["--q", "2", "--p", probs])
    assert rc == 2 and out == ""
    assert err.startswith("usage error: --p")
    if probs == "0.5,0.5000000001":
        assert "sum to 1.0000000001" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--code", "{dir}", "--s", "2", "--frameproof"],
    ["gen", "--ensemble", "cr", "--q", "2", "--N", "2", "--t", "2", "--out", "{dir}"]])
def test_directory_path_exit_code(capsys, tmp_path, argv):
    argv = [a.format(dir=tmp_path) for a in argv]
    rc, out, err = run_err(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("option, argv", [
    ("--R", ["exponent", "--channel", "B", "--s", "2", "--q", "2", "--R", "0.1,abc"]),
    ("--composition", ["gen", "--ensemble", "fc", "--q", "2", "--N", "2", "--t", "2",
                       "--composition", "a,b", "--out", "{dir}/code.txt"]),
    ("--z", ["decode", "--code", "{dir}/code.txt", "--z", "{dir}/z.txt"]),
    ("SEPMAC_SEED", ["gen", "--ensemble", "cr", "--q", "2", "--N", "2", "--t", "2",
                     "--out", "{dir}/code.txt"]),
    ("--composition", ["gen", "--ensemble", "fc", "--q", "2", "--N", "2", "--t", "2",
                       "--composition", "", "--out", "{dir}/code.txt"])])
def test_bad_value_names_option(capsys, tmp_path, monkeypatch, option, argv):
    (tmp_path / "code.txt").write_text(SEP_CODE)
    (tmp_path / "z.txt").write_text("0,1\n0,x\n")
    if option == "SEPMAC_SEED":
        monkeypatch.setenv("SEPMAC_SEED", "x")
    rc, out, err = run_err(capsys, [a.format(dir=tmp_path) for a in argv])
    assert rc == 2 and out == ""
    # the value is named, not the option reported missing
    assert err.startswith(f"usage error: {option}") and "required" not in err


def test_entropy_bound_ignores_seed(capsys, monkeypatch):
    # SEPMAC_SEED seeds gen and greedy search only: unset, negative, past 64
    # bits or not an integer, the entropy bound prints the same payload
    argv = ["bound", "--kind", "entropy", "--channel", "A", "--s", "2", "--q", "3"]
    payloads = []
    for seed in (None, "-1", str(2 ** 64 - 1), "x"):
        if seed is None:
            monkeypatch.delenv("SEPMAC_SEED", raising=False)
        else:
            monkeypatch.setenv("SEPMAC_SEED", seed)
        rc, rec = run_json(capsys, argv)
        assert rc == 0
        payloads.append({k: rec["payload"].get(k) for k in ("value", "witness", "approximate")})
    assert all(p == payloads[0] for p in payloads)


def test_exhaustive_search_ignores_seed(capsys, monkeypatch):
    # only greedy search draws an order: exhaustive search never reads
    # SEPMAC_SEED, so a value that does not parse is not refused either
    argv = ["search", "--channel", "B", "--s", "2", "--q", "2", "--N", "3"]
    payloads = []
    for seed in (None, "-1", "x"):
        if seed is None:
            monkeypatch.delenv("SEPMAC_SEED", raising=False)
        else:
            monkeypatch.setenv("SEPMAC_SEED", seed)
        rc, rec = run_json(capsys, argv)
        assert rc == 0 and "seed" not in rec["params"]
        payloads.append(rec["payload"])
    assert payloads == [{"mode": "exhaustive", "nodes": 36, "t_star": 5}] * 3


@pytest.mark.parametrize("argv", [
    ["gen", "--ensemble", "cr", "--q", "2", "--N", "6", "--t", "8", "--p", "0.3,0.7"],
    ["gen", "--ensemble", "fc", "--q", "2", "--N", "4", "--t", "8", "--composition", "1,3"],
    ["search", "--channel", "B", "--s", "2", "--q", "2", "--N", "4", "--mode", "greedy"]],
    ids=["gen-cr", "gen-fc", "search-greedy"])
def test_record_reruns_its_command(capsys, tmp_path, monkeypatch, argv):
    # a record's params are the options given and the seed SEPMAC_SEED gave;
    # rebuilt from the record, the seed passed back through SEPMAC_SEED, the
    # command writes the same file
    first, again = str(tmp_path / "first.txt"), str(tmp_path / "again.txt")
    monkeypatch.setenv("SEPMAC_SEED", "5")
    rc, rec = run_json(capsys, argv + ["--out", first])
    assert rc == 0 and rec["command"] == argv[0]
    given = dict(zip((flag[2:] for flag in argv[1::2]), argv[2::2]))
    assert {k: str(v) for k, v in rec["params"].items()} == dict(given, out=first, seed="5")
    params = dict(rec["params"], out=again)
    monkeypatch.setenv("SEPMAC_SEED", str(params.pop("seed")))
    rc, _ = run_json(capsys, [rec["command"], *(a for k, v in params.items()
                                                for a in (f"--{k}", str(v)))])
    assert rc == 0 and open(first).read() == open(again).read()
    monkeypatch.setenv("SEPMAC_SEED", "6")  # another seed draws another file
    run_json(capsys, argv + ["--out", again])
    assert open(first).read() != open(again).read()


def test_decode_symbol_outside_alphabet(capsys, tmp_path, code_file):
    code_path = code_file(SEP_CODE)
    z = tmp_path / "z.txt"
    z.write_text("0,7\n0\n")
    rc, out, err = run_err(capsys, ["decode", "--code", code_path, "--z", str(z)])
    assert rc == 2 and out == ""
    assert "symbol 7 outside alphabet of size 2" in err


def test_exponent_csv(capsys):
    rc, out = run(capsys, [
        "exponent", "--channel", "B", "--s", "2", "--q", "2", "--R", "0.0,0.3"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "R,E"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["0.000000", "0.300000"]
    assert float(rows[0][1]) >= float(rows[1][1]) >= 0.0
    # a rate of -0 is the rate 0
    rc, neg = run(capsys, [
        "exponent", "--channel", "B", "--s", "2", "--q", "2", "--R", "-0"])
    assert rc == 0 and neg.splitlines() == ["R,E", ",".join(rows[0])]


def test_exponent_reports_unconverged_rates(capsys, monkeypatch):
    # one stderr line per report whose certificate fails; stdout unchanged
    argv = ["exponent", "--channel", "B", "--s", "2", "--q", "2", "--ensemble", "fc",
            "--p", "0.3,0.7", "--R", "0,0.1,0.3"]
    rc, want, err = run_err(capsys, argv)
    assert rc == 0 and "not converged" not in err
    monkeypatch.setattr(expm, "CERTIFICATE_TOL", 0.0)
    reports = expm.exponent(make_channel("B", 2, 2), Distribution((0.3, 0.7)), [0, 0.1, 0.3], "fc")
    rc, out, err = run_err(capsys, argv)
    assert rc == 0 and out == want
    lines = [ln for ln in err.splitlines() if "not converged" in ln]
    assert lines and lines == [f"exponent at R={rep.R:.6f} not converged: gap {rep.gap:.3e}, "
                               f"m* {rep.m_star}" for rep in reports if not rep.converged]


def test_emit_matches_json_dump(capsys, monkeypatch):
    # the one-shot C encoder writes the bytes json.dump's Python encoder wrote;
    # params are the arguments that hold a value, but the command and its start
    args = argparse.Namespace(command="verify", started=10.0, code="c.txt", s=2, L=None)
    params = {"code": "c.txt", "s": 2}
    payload = {"witness": ((1, 2), (3, (4, 5))), "value": 0.1 + 0.2, "tiny": 5e-324,
               "big": 1e300, "neg": -0.0, "inf": float("inf"), "ratio": 2 / 3,
               "nested": {"b": [1.5, (2, 3.25)], "a": True, "label": "\u00e9\u2028"}}
    monkeypatch.setattr(cli.time, "monotonic", lambda: 12.3456789)
    cli._emit(args, payload)
    out = capsys.readouterr().out
    want = io.StringIO()
    json.dump({"schema": cli.SCHEMA, "version": __version__, "command": "verify",
               "params": params, "payload": payload, "wall_time_s": round(12.3456789 - 10.0, 6)},
              want, sort_keys=True)
    assert out == want.getvalue() + "\n"


def _builtin(name, s, q):
    try:
        return make_channel(name, s, q) is not None
    except InvalidParametersError:
        return False


@pytest.mark.parametrize("name, s, q", [
    (name, s, q) for name in ("A", "B", "eras", "disj", "thr:1", "thr:2", "thr:3")
    for s in (1, 2, 3) for q in (2, 3) if _builtin(name, s, q)])
def test_exponent_sweep_matches_single_rates(capsys, name, s, q):
    # one word table serves the whole sweep; each rate's row is the bytes of
    # its own single-rate command
    rates = ["0", "0.1", "0.35"]
    for ensemble in ("cr", "fc"):
        for p in ([], ["--p", "0.7,0.3" if q == 2 else "0.5,0.3,0.2"]):
            argv = ["exponent", "--channel", name, "--s", str(s), "--q", str(q),
                    "--ensemble", ensemble, *p, "--R"]
            rc, sweep = run(capsys, argv + [",".join(rates)])
            assert rc == 0
            rows = []
            for r in rates:
                rc, out = run(capsys, argv + [r])
                assert rc == 0 and out.startswith("R,E\n")
                rows.append(out[len("R,E\n"):])
            assert sweep == "R,E\n" + "".join(rows)


@pytest.mark.parametrize("q, probs", [("3", "0.5,0.5"), ("2", "0.5,0.3,0.2")])
def test_exponent_distribution_size_mismatch(capsys, q, probs):
    rc, out = run(capsys, ["exponent", "--channel", "B", "--s", "2", "--q", q,
                           "--R", "0.1", "--p", probs])
    assert rc == 2
    assert out == ""


def test_exponent_limit_exit_code(capsys):
    # 14 * 2^14 = 229,376 word-table cells, past WORD_GUARD
    rc, out, err = run_err(capsys, ["exponent", "--channel", "disj", "--s", "14", "--q", "2",
                                    "--R", "0.1"])
    assert rc == 3 and out == "" and "instance too large" in err


def test_custom_channel(capsys, tmp_path, code_file):
    ch = tmp_path / "chan.txt"
    ch.write_text("2 2 2\n2 0 -> 0\n1 1 -> 1\n0 2 -> 1\n")
    code_path = code_file(SEP_CODE)
    rc, rec = run_json(capsys, [
        "verify", "--code", code_path, "--s", "2",
        "--channel", f"custom:{ch}", "--separable"])
    assert rc in (0, 1)
    assert rec["params"]["channel"].startswith("custom:")
    # the bound's record names the channel file too; its payload keeps the name "custom"
    rc, rec = run_json(capsys, ["bound", "--kind", "entropy", "--s", "2", "--q", "2",
                                "--channel", f"custom:{ch}"])
    assert rc == 0 and rec["params"]["channel"] == f"custom:{ch}"
    assert rec["payload"]["params"]["channel"] == "custom"


def test_custom_channel_shape_mismatch(capsys, tmp_path, code_file):
    ch = tmp_path / "chan.txt"
    ch.write_text("2 3 2\n3 0 -> 0\n2 1 -> 1\n1 2 -> 1\n0 3 -> 1\n")
    rc, _ = run(capsys, [
        "verify", "--code", code_file(SEP_CODE), "--s", "2",
        "--channel", f"custom:{ch}", "--separable"])
    assert rc == 2


# (code, channel, colliding output, witness) of failing separability checks,
# taken from the release before outputs became their labels
A_B_CODE = "3 2 6\n0 2 1 1 2 0\n1 2 0 2 0 1\n"
BIN_CODE = "2 3 5\n0 0 1 1 1\n0 1 0 1 1\n1 1 0 0 1\n"
COLLISIONS = [
    (A_B_CODE, "A", '[["{0,2}", "{1,2}"]]', "[[1, 2], [2, 6]]"),
    (A_B_CODE, "B", '[["(1,0,1)", "(0,1,1)"]]', "[[1, 2], [2, 6]]"),
    ("3 2 4\n0 0 1 0\n1 2 1 0\n", "eras", '[["0", "*"]]', "[[1, 2], [1, 4]]"),
    (BIN_CODE, "disj", '[["1", "1", "1"]]', "[[1, 4], [1, 5]]"),
    (BIN_CODE, "thr:2", '[["0", "0", "1"]]', "[[1, 2], [1, 5]]"),
    (BIN_CODE, "custom", '[["v", "v", "v"]]', "[[1, 4], [1, 5]]"),
]


@pytest.mark.parametrize("code,channel,output,witness", COLLISIONS,
                         ids=[c[1] for c in COLLISIONS])
def test_separable_colliding_output_bytes(capsys, tmp_path, code_file, code, channel,
                                          output, witness):
    if channel == "custom":
        chan = tmp_path / "chan.txt"
        chan.write_text("2 2 2\n2 0 -> u\n1 1 -> v\n0 2 -> v\n")
        channel = f"custom:{chan}"
    rc, out = run(capsys, ["verify", "--code", code_file(code), "--s", "2",
                           "--channel", channel, "--separable"])
    assert rc == 1
    assert f'"colliding_output": {output}, "holds": false' in out
    assert f'"witness": {witness}' in out


@pytest.mark.parametrize("argv,t_star,nodes", [
    # a search tree 1,025 nodes deep and a channel of 1,000 symbols
    (["--s", "1", "--q", "2", "--N", "10"], 1024, 1025),
    (["--s", "1", "--q", "1000", "--N", "1"], 1000, 1001),
    (["--s", "1", "--q", "1000", "--N", "1", "--mode", "greedy"], 1000, 1000),
], ids=["deep", "wide", "wide-greedy"])
def test_search_deep_and_wide(capsys, argv, t_star, nodes):
    rc, rec = run_json(capsys, ["search", "--channel", "B"] + argv)
    assert rc == 0
    assert (rec["payload"]["t_star"], rec["payload"]["nodes"]) == (t_star, nodes)
