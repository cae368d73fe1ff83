import json
import time

import pytest

import sepmac.construct as cst
from sepmac.cli import main
from sepmac.core import format_code, load_code, Code

SEP_CODE = format_code(Code.from_columns(2, [(0, 0), (0, 1), (1, 0)]))
BAD_CODE = format_code(Code.from_columns(2, [(0, 0), (0, 1), (1, 0), (1, 1)]))


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


def test_bound_bits_flag(capsys):
    import math
    _, nats = run_json(capsys, [
        "bound", "--kind", "b-capacity", "--s", "2", "--q", "2"])
    _, bits = run_json(capsys, [
        "bound", "--kind", "b-capacity", "--s", "2", "--q", "2", "--bits"])
    assert abs(nats["payload"]["value"] - bits["payload"]["value"] * math.log(2)) < 1e-12
    assert abs(bits["payload"]["value"] - 0.75) < 1e-12


def test_b_capacity_limit_exit_code(capsys):
    # C(22, 12) * 10 = 6,466,460 kernel cells: both B-channel bounds refuse
    for argv in (["--kind", "b-capacity"], ["--kind", "entropy", "--channel", "B"]):
        rc, out = run(capsys, ["bound", *argv, "--s", "12", "--q", "10"])
        assert rc == 3 and out == ""


LD_LOWER = ["bound", "--kind", "ld-lower", "--q", "2"]


@pytest.mark.parametrize("argv", [
    # 10^8 - 1 values of q'
    LD_LOWER + ["--s", "3", "--L", "1", "--qprime-max", "100000000"],
    ["table1", "--qprime-max", "100000000"],
    # the first two rows fit the budget, the whole table does not
    ["table1", "--qprime-max", "1000000"],
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


def test_ld_lower_exact_too_long_to_print(capsys):
    rc, out, err = run_err(capsys, ["bound", "--kind", "ld-lower", "--s", "3", "--L", "5000",
                                    "--q", "2"])
    assert rc == 3 and out == ""
    assert "decimal digits" in err and "Traceback" not in err


def test_bound_requires_L(capsys):
    rc, _ = run(capsys, ["bound", "--kind", "ld-lower", "--s", "2", "--q", "3"])
    assert rc == 2


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


def test_search_node_budget_exit_code(capsys, monkeypatch):
    # disj s=2 N=5 visits 6,553 nodes: the budget stops it after work started
    monkeypatch.setattr(cst, "NODE_GUARD", 1000)
    rc, out, err = run_err(capsys, ["search", "--channel", "disj", "--s", "2", "--q", "2",
                                    "--N", "5"])
    assert rc == 3 and out == "" and "nodes" in err


@pytest.mark.parametrize("prop", [
    ["--channel", "B", "--separable"], ["--le-separable"], ["--frameproof"], ["--hash"],
    ["--list", "2"]])
def test_verify_limit_exit_code(capsys, code_file, prop):
    # C(200, 3) = 1,313,400 messages: refused before any is enumerated
    big = format_code(Code.from_columns(3, [(j % 3,) for j in range(200)]))
    rc, out = run(capsys, ["verify", "--code", code_file(big), "--s", "3", *prop])
    assert rc == 3 and out == ""


@pytest.mark.parametrize("argv", [
    ["bound", "--kind", "entropy", "--channel", "B", "--s", "2", "--q", "300"],
    ["verify", "--s", "2", "--channel", "B", "--separable"]])
def test_channel_kernel_limit_exit_code(capsys, code_file, argv):
    # C(302, 2) * 300 = 13,635,300 kernel cells: refused before any is built
    if argv[0] == "verify":
        argv = argv + ["--code", code_file(format_code(
            Code.from_columns(300, [(0,), (1,), (299,)])))]
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


def test_reduce_roundtrip(capsys, tmp_path, code_file):
    src = tmp_path / "src.txt"
    src.write_text(format_code(Code.from_columns(4, [(0, 3), (2, 1)])))
    out = str(tmp_path / "red.txt")
    rc, rec = run_json(capsys, ["reduce", "--code", str(src), "--q", "3",
                                "--out", out])
    assert rc == 0
    reduced = load_code(out)
    assert reduced.q == 3 and reduced.N == 4
    assert rec["payload"]["N"] == 4


def test_reduce_to_larger_alphabet(capsys, tmp_path, code_file):
    code_path = code_file(format_code(Code.from_columns(3, [(0, 2), (1, 1)])))
    for q in ("3", "4"):
        rc, out = run(capsys, ["reduce", "--code", code_path, "--q", q,
                               "--out", str(tmp_path / "red.txt")])
        assert rc == 2 and out == ""


def test_decode(capsys, tmp_path, code_file):
    code_path = code_file(format_code(Code.from_columns(2, [(0, 0), (1, 1), (0, 1)])))
    z = tmp_path / "z.txt"
    z.write_text("0,1\n1\n")
    rc, rec = run_json(capsys, ["decode", "--code", code_path, "--z", str(z)])
    assert rc == 0
    assert rec["payload"]["decoded"] == [2, 3]


def test_decode_indented_comment(capsys, tmp_path, code_file):
    code_path = code_file(format_code(Code.from_columns(2, [(0, 0), (1, 1), (0, 1)])))
    z = tmp_path / "z.txt"
    z.write_text("0,1\n  # note\n1\n")
    rc, rec = run_json(capsys, ["decode", "--code", code_path, "--z", str(z)])
    assert rc == 0
    assert rec["payload"]["decoded"] == [2, 3]


def test_decode_wrong_length(capsys, tmp_path, code_file):
    code_path = code_file(format_code(Code.from_columns(2, [(0, 0), (1, 1), (0, 1)])))
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
     "error: user count must be >= 1, got 0\n")])
def test_channel_refusal_order(capsys, argv, code, err):
    assert run_err(capsys, ["search", *argv, "--N", "2"]) == (code, "", err)


def test_unknown_threshold_channel(capsys):
    rc, out, err = run_err(capsys, ["search", "--channel", "thr:x", "--s", "2",
                                    "--q", "2", "--N", "2"])
    assert rc == 2 and out == ""
    assert "unknown channel name 'thr:x'" in err


@pytest.mark.parametrize("probs", ["0.5,0.5000000001", "0.5,x", "nan,0.5"])
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
                     "--out", "{dir}/code.txt"])])
def test_bad_value_names_option(capsys, tmp_path, monkeypatch, option, argv):
    (tmp_path / "code.txt").write_text(SEP_CODE)
    (tmp_path / "z.txt").write_text("0,1\n0,x\n")
    if option == "SEPMAC_SEED":
        monkeypatch.setenv("SEPMAC_SEED", "x")
    rc, out, err = run_err(capsys, [a.format(dir=tmp_path) for a in argv])
    assert rc == 2 and out == ""
    assert err.startswith(f"usage error: {option}")


def test_entropy_accepts_any_integer_seed(capsys, monkeypatch):
    # like gen and greedy search, the entropy bound reduces its seed to 64 bits
    argv = ["bound", "--kind", "entropy", "--channel", "A", "--s", "2", "--q", "3"]
    payloads = []
    for seed in ("-1", str(2 ** 64 - 1)):
        monkeypatch.setenv("SEPMAC_SEED", seed)
        rc, rec = run_json(capsys, argv)
        assert rc == 0
        payloads.append(rec["payload"])
    assert payloads[0] == payloads[1]


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


@pytest.mark.parametrize("q, probs", [("3", "0.5,0.5"), ("2", "0.5,0.3,0.2")])
def test_exponent_distribution_size_mismatch(capsys, q, probs):
    rc, out = run(capsys, ["exponent", "--channel", "B", "--s", "2", "--q", q,
                           "--R", "0.1", "--p", probs])
    assert rc == 2
    assert out == ""


def test_exponent_limit_exit_code(capsys):
    rc, _ = run(capsys, ["exponent", "--channel", "B", "--s", "4", "--q", "2",
                         "--R", "0.1"])
    assert rc == 3


def test_custom_channel(capsys, tmp_path, code_file):
    ch = tmp_path / "chan.txt"
    ch.write_text("2 2 2\n2 0 -> 0\n1 1 -> 1\n0 2 -> 1\n")
    code_path = code_file(SEP_CODE)
    rc, rec = run_json(capsys, [
        "verify", "--code", code_path, "--s", "2",
        "--channel", f"custom:{ch}", "--separable"])
    assert rc in (0, 1)
    assert rec["params"]["channel"].startswith("custom:")


def test_custom_channel_shape_mismatch(capsys, tmp_path, code_file):
    ch = tmp_path / "chan.txt"
    ch.write_text("2 3 2\n3 0 -> 0\n2 1 -> 1\n1 2 -> 1\n0 3 -> 1\n")
    rc, _ = run(capsys, [
        "verify", "--code", code_file(SEP_CODE), "--s", "2",
        "--channel", f"custom:{ch}", "--separable"])
    assert rc == 2
