"""The exact sparse engine against the dense one, and the labels it derives.

The command line computes with `ExactProtocol`; the library's dense
`Protocol` is the oracle.  The same CLI handlers run on both engines (the
dense one substituted for `_protocol_from_args`), and every number they
print must agree within 1e-15, with equal verdicts, PASS/FAIL lines and
exit codes.
"""

import contextlib
import io
import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import reference
from ewflab import bellbohm, born, cli, facts, histories
from ewflab.exact import (
    DEFAULT_COIN_FLOATS,
    GLOBAL_SPACE,
    RECORDERS,
    ROOT_HALF_FLOAT,
    STAGES,
    ExactProtocol,
    Surd,
    exact_label,
    outcome_vectors,
)
from ewflab.protocol import Protocol

TOL = 1e-15
SEEDED = [f"{a!r},{math.sqrt(1 - a * a)!r}" for a in (random.Random(2019).uniform(0.05, 0.99) for _ in range(20))]
CONFIGS = (
    [([], "default")]
    + [(["--coin", coin], f"seeded{i}") for i, coin in enumerate(SEEDED)]
    + [(["--flip-ok-sign"], "flip-ok-sign"), (["--corrupt-preparation"], "corrupt-preparation")]
)
COMMANDS = [
    ["simulate", "--policy", "collapse"],
    ["simulate", "--policy", "marginal"],
    ["verify"],
    ["histories"],
    ["histories", "--define", "a: r=tail, w1=ok", "--define", "b: z=+, w2=fail", "--define", "c: w1=fail"],
    ["bellbohm"],
    ["argue", "--interpretation", "all"],
    ["audit"],
]
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]\d+)?")
#: an exact label: in parentheses after a number, or a distribution table's last column
LABEL = re.compile(r" \((?:-?\d+(?:/\d+)?)\)|^(\(.*\) +\S+ +)\S+$", re.MULTILINE)


def _dense_from_args(args, parser):
    coin = tuple(float(a) for a in args.coin) if args.coin else None
    return Protocol(coin, flip_ok_sign=args.flip_ok_sign, corrupt_preparation=args.corrupt_preparation)


def _run(argv, monkeypatch, dense):
    with monkeypatch.context() as m:
        if dense:
            m.setattr(cli, "_protocol_from_args", _dense_from_args)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _same_text(got: str, want: str, where) -> None:
    """Equal but for numbers, which agree within TOL; exact labels are not compared."""
    got, want = (LABEL.sub(lambda m: m.group(1) or "", text) for text in (got, want))
    assert NUMBER.sub("#", got) == NUMBER.sub("#", want), where
    for x, y in zip(NUMBER.findall(got), NUMBER.findall(want)):
        assert abs(float(x) - float(y)) <= TOL, (where, x, y)


def _same_json(got, want, where) -> None:
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            if key == "exact":  # the dense engine's labels are guesses
                assert got[key] is None or abs(float(Fraction(got[key])) - got["probability"]) <= TOL, where
            else:
                _same_json(got[key], want[key], (where, key))
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, (where, i))
    elif isinstance(want, float) and not isinstance(want, bool):
        assert abs(got - want) <= TOL, (where, got, want)
    elif isinstance(want, str):
        _same_text(got, want, where)
    else:
        assert got == want, where


@pytest.mark.parametrize("extra", [c for c, _ in CONFIGS], ids=[i for _, i in CONFIGS])
def test_every_printed_number_matches_the_dense_engine(extra, monkeypatch):
    for argv in [command + ["--format", "json"] + extra for command in COMMANDS] + [["report"] + extra]:
        got, want = _run(argv, monkeypatch, False), _run(argv, monkeypatch, True)
        assert got[0] == want[0], argv  # exit code
        assert got[2] == want[2], argv  # stderr: refusals and usage errors
        if argv[0] == "report":  # text only
            _same_text(got[1], want[1], argv)
        elif want[1]:  # a refusal prints nothing
            _same_json(json.loads(got[1]), json.loads(want[1]), argv)


# -- labels are derived -----------------------------------------------------------------


def _cells(protocol) -> dict:
    """Every probability the CLI labels, keyed by where it is printed."""
    cells = {}
    for policy in born.CollapsePolicy:
        joint = born.joint_distribution(protocol, policy)
        for labels, p in joint.outcomes + joint.marginal(("w1", "w2")).outcomes:
            cells[(policy.value, labels)] = p
    for h in (histories.okok_fine_history(protocol), histories.okok_coarse_history(protocol)):
        cells[("history", h.name)] = histories.history_probability(protocol, h)
    table = bellbohm.exact_chain(protocol)
    for t in table.entries:
        cells[("trajectory", t.configs)] = t.probability
    for key, p in table.final_record_marginal().items():
        cells[("final", key)] = p
    return cells


def test_default_joint_equals_the_hand_derived_table_exactly():
    from test_born import EXACT_JOINT

    for policy in born.CollapsePolicy:
        joint = born.joint_distribution(ExactProtocol(), policy)
        assert {cell: p.rational() for cell, p in joint.outcomes if p} == EXACT_JOINT


def test_no_irrational_value_is_labelled():
    """Each label is its cell's exact value, and a cell with an irrational part gets none.

    A decimal coin (a, b) is rational, yet most cells are not: W1 measures
    the coin and F1 together, which adds a·b·√2 cross terms.
    """
    root2, root3, root6 = (Surd(n).sqrt() for n in (2, 3, 6))
    coins = [tuple(coin.split(",")) for coin in SEEDED] + [
        (Surd(1, 0, 0, 0, 2), root3 / 2),  # 60 degrees
        ((root6 - root2) / 4, (root6 + root2) / 4),  # 75 degrees
    ]
    counts = {"irrational": 0, "rational": 0}
    for coin in coins:
        dense = _cells(Protocol(tuple(float(Surd(0) + c) for c in coin)))
        for key, p in _cells(ExactProtocol(coin)).items():
            label = exact_label(p)
            assert (label is None) == (p.rational() is None), key
            assert label is None or Fraction(label) == p.rational(), key
            counts["irrational" if label is None else "rational"] += 1
            assert abs(float(p) - dense[key]) <= TOL, key
    assert min(counts.values()) > 100


@pytest.mark.parametrize(
    "coin, okok, h1",
    [("0.6,0.8", "9/100", "2/25"), ("0.28,0.96", "49/2500", "72/625")],
)
def test_decimal_coins_label_their_rational_cells(capsys, coin, okok, h1):
    """P(w1=ok, w2=ok) = a^2/4 and P(h1) = b^2/8 are rational at a decimal coin.

    At 0.28,0.96 their denominators are above 240, where labels guessed
    from floats stopped.
    """
    assert cli.main(["simulate", "--coin", coin, "--format", "json"]) == 0
    cells = {tuple(c["labels"]): c["exact"] for c in json.loads(capsys.readouterr().out)["record_marginal"]["outcomes"]}
    assert cells == {("ok", "ok"): okok, ("ok", "fail"): None, ("fail", "ok"): okok, ("fail", "fail"): None}
    assert cli.main(["histories", "--coin", coin, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["histories"][0]["exact"] == h1


# -- the engine's pieces ------------------------------------------------------------------


def test_surd_arithmetic_is_exact():
    root2, root3, root6 = (Surd(n).sqrt() for n in (2, 3, 6))
    assert root2 * root3 == root6 and root6 * root6 == 6 and root2 * root2 == 2
    x = (1 + root2 - 3 * root3 + root6 / 7) / 5
    assert x * x.inverse() == 1 and (x - x) == 0 and not (x - x)
    assert abs(float(x) - (1 + math.sqrt(2) - 3 * math.sqrt(3) + math.sqrt(6) / 7) / 5) <= TOL
    # a sign decided where floats cannot: (1 + √2)^2 - (3 + 2√2) is exactly 0
    assert (1 + root2) * (1 + root2) - (3 + 2 * root2) == 0
    assert root2 - Fraction(14142135623730951, 10**16) < 0 < root2 - Fraction(14142135623730950, 10**16)
    assert Surd(2, 0, 0, 0, 3).sqrt() == root6 / 3
    assert exact_label(Surd(9, 0, 0, 0, 400)) == "9/400" and exact_label(root2 / 2) is None


@pytest.mark.parametrize("x", [Surd(3, 0, 0, 0, 5), Surd(-7, 0, 0, 0, 2), Surd(0), Surd(1, 1, 0, 0, 2),
                               Surd(2, -1, 3, 1, 7), ExactProtocol().coin_amplitudes[1]],
                         ids=["3/5", "-7/2", "0", "(1+√2)/2", "mixed", "coin-b"])
def test_surd_int_power_is_repeated_multiplication(x):
    want = Surd(1)
    for n in range(6):
        assert x**n == want and type(x**n) is Surd
        want = want * x


def test_surd_power_needs_a_nonnegative_int():
    x = Surd(1, 1, 0, 0, 2)
    for exponent in (0.5, 2.0, Fraction(1, 2), Surd(2)):
        with pytest.raises(TypeError):
            x**exponent
    with pytest.raises(ValueError):
        x**-1
    assert abs(ExactProtocol().coin_amplitudes[1]) ** 2 == Fraction(2, 3)


@pytest.mark.parametrize("x", [Surd(1), Surd(1, 1, 0, 0, 1), Surd(2, -1, 3, 1, 7)], ids=["1", "1+√2", "mixed"])
@pytest.mark.parametrize("zero", [Surd(), 0, Fraction(0), 0.0], ids=["surd", "int", "fraction", "float"])
def test_dividing_by_an_exact_zero_raises(x, zero):
    """Like int and Fraction, a Surd refuses a zero divisor instead of returning a denominator of 0."""
    for divide in (lambda: x / zero, lambda: 1 / (x * zero), lambda: (x * zero).inverse()):
        with pytest.raises(ZeroDivisionError, match="^Surd division by zero$"):
            divide()


@pytest.mark.parametrize("flags", [{}, {"flip_ok_sign": True}, {"corrupt_preparation": True}])
@pytest.mark.parametrize("coin", [None, ("0.6", "0.8")] + [tuple(c.split(",")) for c in SEEDED[:5]])
def test_pilot_states_match_the_dense_engine(coin, flags):
    exact = ExactProtocol(coin, **flags)
    dense = Protocol(None if coin is None else tuple(map(float, coin)), **flags)
    for stage in STAGES:
        state = exact.pilot_state_after(stage)
        assert len(state.nums) <= 16
        amps = np.zeros(GLOBAL_SPACE.size, dtype=complex)
        for i, x in state.components().items():
            amps[i] = float(x)
        assert np.max(np.abs(amps - dense.pilot_state_after(stage).amps)) <= TOL
        if stage in exact.stage_unitaries:
            assert (
                exact.stage_unitaries[stage].rewritten_memory_axes
                == dense.stage_unitaries[stage].rewritten_memory_axes
            )


# -- float images ---------------------------------------------------------------------------


@pytest.mark.parametrize("flags", [{}, {"flip_ok_sign": True}, {"corrupt_preparation": True}])
def test_float_images_equal_the_float_build_bit_for_bit(flags):
    protocol = Protocol(**flags)
    measured_at = {stage: var for var, (_, stage) in RECORDERS.items()}
    for stage, unitary in protocol.stage_unitaries.items():
        if stage in measured_at:
            old = reference.record_matrix(protocol, measured_at[stage])
        else:
            old = reference.preparation_matrix(protocol)
        assert np.array_equal(unitary.matrix, old)


@pytest.mark.parametrize("flags", [{}, {"flip_ok_sign": True}, {"corrupt_preparation": True}])
def test_fact_vectors_equal_the_oracle_and_the_table(flags):
    """The outcome vectors the facts read: the spanning-set floats bit for bit, the table's Surds exactly."""
    dense, exact = Protocol(**flags), ExactProtocol(**flags)
    surds = {(1, 0): Surd(1), (-1, 0): Surd(-1), (1, 1): Surd(0, 1, 0, 0, 2), (-1, 1): Surd(0, -1, 0, 0, 2)}
    for var in RECORDERS:
        decomposition = reference.basis(dense, var)
        for label, codes in outcome_vectors(var, dense.flip_ok_sign).items():
            (old,) = decomposition.projector(label).vectors
            amps = np.zeros(old.space.size, dtype=complex)
            for labels, x in facts._vector(dense, var, label).items():
                assert type(x) is float
                amps[old.space.index_of(labels)] = x
            assert np.array_equal(amps, old.amps)
            vector = facts._vector(exact, var, label)
            assert all(type(x) is Surd for x in vector.values())
            assert vector == {labels: surds[code] for labels, code in codes.items()}


def test_float_images_keep_the_float_build_bits():
    """The float build's 1/√2 sits one ulp below the correctly rounded value; its coin does not."""
    assert ROOT_HALF_FLOAT == 1.0 / math.sqrt(2.0) == 0.7071067811865475
    assert float(Surd(0, 1, 0, 0, 2)) == math.nextafter(ROOT_HALF_FLOAT, 1)
    assert DEFAULT_COIN_FLOATS == (math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0)) == (0.5773502691896257, 0.816496580927726)


def test_simulate_echoes_the_float_coin(capsys):
    assert cli.main(["simulate", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["coin_amplitudes"] == [0.5773502691896257, 0.816496580927726]
    assert cli.main(["simulate", "--format", "json", "--coin", "0.6,0.8"]) == 0
    assert json.loads(capsys.readouterr().out)["coin_amplitudes"] == [0.6, 0.8]


VANISHED_SHARED = ["histories", "--define", "a: r=head", "--define", "b: r=head, z=+"]


@pytest.mark.parametrize("dense", [False, True], ids=["exact", "dense"])
def test_a_shared_key_of_a_vanished_chain_is_printed(dense, monkeypatch):
    """a and b share only the key (r=head, z=+), whose chain a mask has zeroed."""
    code, text, _ = _run(VANISHED_SHARED, monkeypatch, dense)
    assert code == 0
    line = "  a vs b: NOT JOINTLY CONSIDERABLE (off-diagonal 0, interference 0, shared outcomes: yes)"
    assert line in text.splitlines()
    code, out, _ = _run(VANISHED_SHARED + ["--format", "json"], monkeypatch, dense)
    assert code == 0
    (pair,) = json.loads(out)["consistency"]["pairs"]
    assert pair["shared_fine_outcomes"] is True and pair["consistent"] is False
