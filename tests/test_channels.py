import itertools
import tracemalloc

import numpy as np
import pytest

import sepmac.core
from reference import NotSymmetricError, eval_channel, type_of, validate_symmetric
from sepmac.cli import main
from sepmac.core import Code, InvalidParametersError, compositions
from sepmac.channels import (
    ChannelFileError,
    ChannelSpec,
    make_channel,
    output_ids,
    parse_channel,
)


def test_a_mac_union():
    ch = make_channel("A", 4, 3)
    out = eval_channel(ch, type_of((0, 0, 1, 1), 3))
    assert out == "{0,1}"


def test_erasure():
    ch = make_channel("eras", 3, 4)
    assert eval_channel(ch, type_of((2, 2, 2), 4)) == "2"
    assert eval_channel(ch, type_of((1, 2, 2), 4)) == "*"


def test_disjunctive_and_threshold():
    disj = make_channel("disj", 3, 2)
    assert eval_channel(disj, type_of((0, 0, 0), 2)) == "0"
    assert eval_channel(disj, type_of((0, 0, 1), 2)) == "1"
    thr = make_channel("thr:2", 3, 2)
    assert eval_channel(thr, type_of((0, 1, 0), 2)) == "0"
    assert eval_channel(thr, type_of((1, 1, 0), 2)) == "1"
    # disjunctive agrees with 1-thr everywhere
    one_thr = make_channel("thr:1", 3, 2)
    for comp in compositions(3, 2):
        assert eval_channel(disj, comp) == eval_channel(one_thr, comp)


def test_threshold_requires_binary():
    with pytest.raises(InvalidParametersError):
        make_channel("disj", 2, 3)
    with pytest.raises(InvalidParametersError):
        make_channel("thr:1", 2, 3)
    with pytest.raises(InvalidParametersError):
        make_channel("thr:4", 3, 2)


def output_word(channel, code, indices):
    """The output labels of the message ``indices`` (1-based), row by row."""
    ids = output_ids(channel, code.symbols[np.array(indices) - 1])
    return [channel.outputs[z] for z in ids.tolist()]


def test_output_word():
    code = Code(2, [(0, 0), (0, 1), (1, 0)])
    disj = make_channel("disj", 2, 2)
    z = output_word(disj, code, (2, 3))
    assert z == ["1", "1"]
    b = make_channel("B", 2, 2)
    z = output_word(b, code, (1, 2))
    assert z == ["(2,0)", "(1,1)"]


def test_output_word_order_independent():
    code = Code(3, [(0, 1), (2, 0), (1, 1), (2, 2)])
    ch = make_channel("A", 2, 3)
    z1 = output_word(ch, code, (2, 4))
    z2 = output_word(ch, code, (4, 2))
    assert z1 == z2


def test_output_alphabet_size():
    assert len(make_channel("A", 4, 3).outputs) == 7  # = 2^3 - 1 since s >= q
    assert len(make_channel("B", 4, 3).outputs) == 15
    assert len(make_channel("eras", 3, 5).outputs) == 6
    assert len(make_channel("disj", 3, 2).outputs) == 2
    assert len(make_channel("thr:2", 3, 2).outputs) == 2


@pytest.mark.parametrize("name,s,q", [
    ("A", 2, 2), ("A", 3, 3), ("B", 2, 3), ("B", 3, 2),
    ("eras", 2, 3), ("disj", 3, 2), ("thr:2", 3, 2),
])
def test_image_size_matches_declared(name, s, q):
    ch = make_channel(name, s, q)
    image = {eval_channel(ch, c) for c in compositions(s, q)}
    assert len(image) == len(ch.outputs)


def test_b_mac_injective_on_compositions():
    ch = make_channel("B", 3, 3)
    comps = list(compositions(3, 3))
    outs = [eval_channel(ch, c) for c in comps]
    assert len(set(outs)) == len(comps)


def test_s1_channels_injective():
    for name in ("A", "B", "eras"):
        ch = make_channel(name, 1, 3)
        outs = {eval_channel(ch, type_of((a,), 3)) for a in range(3)}
        assert len(outs) == 3


def test_validate_symmetric_word_table():
    # total word table of the B-MAC: accepted, keyed down to compositions
    q, s = 2, 2
    table = {w: str(type_of(w, q)) for w in itertools.product(range(q), repeat=s)}
    spec = validate_symmetric(table, s, q)
    assert spec.name() == "custom"
    assert spec.outputs == ("(0, 2)", "(1, 1)", "(2, 0)")


def test_validate_symmetric_rejects_asymmetric():
    table = {(0, 0): "a", (0, 1): "b", (1, 0): "c", (1, 1): "d"}
    with pytest.raises(NotSymmetricError) as err:
        validate_symmetric(table, 2, 2)
    assert err.value.witness == ((0, 1), (1, 0))


def test_validate_symmetric_composition_table():
    table = {(3, 0): "0", (2, 1): "x", (1, 2): "x", (0, 3): "1"}
    spec = ChannelSpec("custom", 2, 3, table.__getitem__)
    assert eval_channel(spec, type_of((0, 1, 0), 2)) == "x"


def test_custom_table_must_be_total():
    # the output function's own error: a dict lookup raises KeyError
    with pytest.raises(KeyError):
        ChannelSpec("custom", 2, 2, {}.__getitem__)


def test_outputs_compare_as_labels():
    # an output is the label it prints: disj and thr:1 print the same
    # outputs, and two values of a library-built table with equal str are
    # one output
    a = make_channel("disj", 2, 2)
    b = make_channel("thr:1", 2, 2)
    comp = type_of((0, 1), 2)
    assert eval_channel(a, comp) == eval_channel(b, comp) == "1"
    assert a.outputs == b.outputs == ("1", "0")
    spec = ChannelSpec("custom", 2, 1, {(1, 0): 1, (0, 1): "1"}.__getitem__)
    assert spec.outputs == ("1",)


CHANNEL_FILE = """\
# disjunctive, s=3
2 3 2
3 0 -> 0
2 1 -> 1
1 2 -> 1
0 3 -> 1
"""


def test_parse_channel_file():
    spec = parse_channel(CHANNEL_FILE)
    assert spec.q == 2 and spec.s == 3
    assert eval_channel(spec, type_of((0, 0, 0), 2)) == "0"
    assert eval_channel(spec, type_of((0, 1, 0), 2)) == "1"


@pytest.mark.parametrize("bad", [
    "",
    "2 3\n",
    "2 3 2\n3 0 -> 0\n",                      # missing compositions
    "2 3 2\n3 0 -> 0\n2 1 -> 1\n1 2 -> 1\n0 3 -> 1\n3 0 -> 0\n",  # duplicate
    "2 3 9\n3 0 -> 0\n2 1 -> 1\n1 2 -> 1\n0 3 -> 1\n",            # wrong |Z|
    "2 3 2\n4 0 -> 0\n2 1 -> 1\n1 2 -> 1\n0 3 -> 1\n",            # bad weight
])
def test_parse_channel_strict(bad):
    with pytest.raises((ChannelFileError, InvalidParametersError)):
        parse_channel(bad)


@pytest.mark.parametrize("bad, message", [
    ("# no header\n", "empty channel file"),
    ("2 3\n", "header must be 'q s |Z|', got '2 3'"),
    ("2 3 x\n", "non-integer header '2 3 x'"),
    ("2 1 2\n1 0 0\n0 1 -> 1\n", "expected '2 counts -> label', got '1 0 0'"),
    ("2 1 2\n1 x -> 0\n0 1 -> 1\n", "non-integer count in '1 x -> 0'"),
])
def test_parse_channel_header_messages(bad, message):
    # the channel header's faults, named as the code header's are, and a
    # row's faults, named with the row
    with pytest.raises(ChannelFileError) as exc:
        parse_channel(bad)
    assert str(exc.value) == message


def test_channels_built_without_compositions(monkeypatch):
    # the kernel is the one walk over the compositions
    cases = [("A", 3, 4), ("B", 2, 3), ("eras", 3, 3), ("thr:2", 3, 2), ("disj", 2, 2)]
    want = [make_channel(*case) for case in cases] + [parse_channel(CHANNEL_FILE)]

    def refuse(*args):
        raise AssertionError("compositions enumerated outside the kernel")

    monkeypatch.setattr(sepmac.core, "compositions", refuse)
    monkeypatch.setattr("sepmac.channels.compositions", refuse, raising=False)
    got = [make_channel(*case) for case in cases] + [parse_channel(CHANNEL_FILE)]
    for g, w in zip(got, want):
        assert g.trans.dtype == w.trans.dtype and np.array_equal(g.trans, w.trans)
        assert g.outputs == w.outputs


def test_kernel_memory_at_its_guard():
    # B s=2 q=127 is the largest B s=2 channel inside KERNEL_GUARD; it keeps
    # one 128 x 127 uint16 table and its 8,128 labels, within 4 MB
    tracemalloc.start()
    try:
        ch = make_channel("B", 2, 127)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ch.trans.shape == (128, 127) and ch.trans.dtype == np.uint16
    assert kept <= 4 * 2 ** 20


def test_kernel_memory_at_large_s():
    # disj s=300 has 45,150 states of weight < s; the build holds one weight's
    # states at a time and peaks within 16 MB
    tracemalloc.start()
    try:
        ch = make_channel("disj", 300, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ch.trans.shape == (45150, 2) and ch.outputs == ("1", "0")
    assert peak <= 16 * 2 ** 20


def test_parse_channel_names_missing_composition(tmp_path, capsys):
    text = "2 3 2\n3 0 -> 0\n2 1 -> 1\n0 3 -> 1\n"
    with pytest.raises(ChannelFileError, match=r"missing composition \(1, 2\)"):
        parse_channel(text)
    chan, code = tmp_path / "chan.txt", tmp_path / "code.txt"
    chan.write_text(text)
    code.write_text("2 2 4\n0 0 1 1\n0 1 0 1\n")
    argv = ["verify", "--code", str(code), "--s", "3", "--channel", f"custom:{chan}",
            "--separable"]
    assert main(argv) == 2
    assert "missing composition (1, 2)" in capsys.readouterr().err
