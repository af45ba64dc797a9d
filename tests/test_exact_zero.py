"""Exact zero tests on the exact engine at coins with a head weight below the dense engine's floor.

At a coin of ("1e-7", "1") the head branch weighs about 1e-14, and at
("1e-13", "1") about 1e-26: below `ZERO_WEIGHT_FLOOR`, yet exactly nonzero.
The exact engine's `weight_floor` is a zero test, so the joints, the
conditionals and the beable chain keep those branches; the dense engine
keeps its float floor and equals the oracles of `reference`, which keep
theirs, bit for bit.

Oracles: `born.final_record_marginal` for the chain's final marginal, the
product of `reference.kernel_row` entries along the reference trajectory
(none of its rows reaches a floor), and the zero pattern at (0.6, 0.8),
where no weight is near a floor.  The (head, +, ...) cells are zero at every
coin.
"""

import pytest

import reference
from ewflab import born, cli, facts
from ewflab.bellbohm import REFERENCE_TRAJECTORY, config_weights, exact_chain
from ewflab.exact import DYNAMIC_STAGES, STAGES, ExactProtocol, StageId, Surd, exact_label
from ewflab.protocol import Protocol

EDGE_COINS = [("1e-7", "1"), ("1e-13", "1")]
PLAIN_COIN = ("0.6", "0.8")
#: the paper's coin typed to ten digits: accepted, but normalised only within 1e-9
TEN_DIGIT_COIN = ("0.5773502692", "0.8164965809")
ZERO_FACTS = ("tail-branch-orthogonal-to-ok", "ok-minus-subspace-empty", "coarse-chain-zero")


@pytest.fixture(params=EDGE_COINS, ids=["1e-7", "1e-13"])
def edge(request):
    return ExactProtocol(request.param)


def test_the_chain_total_is_exactly_one(edge):
    assert exact_chain(edge).total_probability == 1


def test_the_chain_has_every_trajectory_a_plain_coin_has(edge):
    table = exact_chain(edge)
    assert len(table.entries) == len(exact_chain(ExactProtocol(PLAIN_COIN)).entries) == 48
    assert all(t.probability != 0 for t in table.entries)


def test_the_chain_final_marginal_is_borns_cell_by_cell(edge):
    chain = exact_chain(edge).final_record_marginal()
    for labels, p in born.final_record_marginal(edge).outcomes:
        assert chain[labels] == p


def test_the_reference_trajectory_is_the_product_of_its_kernel_entries(edge):
    weights = [config_weights(edge.pilot_state_after(s)) for s in STAGES]
    prep1 = STAGES.index(StageId.PREP1)
    configs = REFERENCE_TRAJECTORY[:prep1] + REFERENCE_TRAJECTORY[prep1 - 1 :]  # the preparation epoch restored
    want = 1
    for i, stage in enumerate(DYNAMIC_STAGES, start=1):
        rewritten = edge.stage_unitaries[stage].rewritten_memory_axes
        want = want * reference.kernel_row(configs[i - 1], weights[i - 1], weights[i], rewritten)[configs[i]]
    got = exact_chain(edge).probability_of(REFERENCE_TRAJECTORY)
    assert type(got) is Surd and got != 0 and got == want
    assert exact_label(got) == exact_label(want) != "0"


@pytest.mark.parametrize("policy", list(born.CollapsePolicy), ids=lambda p: p.value)
def test_both_joints_are_zero_exactly_where_a_plain_coin_is(edge, policy):
    joint = born.joint_distribution(edge, policy)
    plain = born.joint_distribution(ExactProtocol(PLAIN_COIN), policy)
    assert [p == 0 for _, p in joint.outcomes] == [p == 0 for _, p in plain.outcomes]
    heads = [p for labels, p in joint.outcomes if labels[:2] == ("head", "-")]
    assert len(heads) == 4 and all(p != 0 for p in heads)


def test_the_two_joints_agree_exactly(edge):
    collapse, marginal = (born.joint_distribution(edge, policy).outcomes for policy in born.CollapsePolicy)
    assert collapse == marginal


def test_conditioning_on_the_head_branch_is_defined(edge):
    given = born.joint_distribution(edge).conditional({"r": "head"})
    assert given.prob(("-", "fail", "fail")) != 0


def test_simulate_prints_no_reachable_head_row_as_zero(capsys):
    assert cli.main(["simulate", "--coin", "1e-7,1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("(head, ")]
    minus = [row for row in rows if row[1] == "-,"]
    assert len(rows) == 8 and len(minus) == 4
    assert all(row[4] != "0" and row[5] != "0" for row in minus)  # probability and exact label


def test_bellbohm_prints_48_trajectories_and_a_nonzero_reference(capsys):
    assert cli.main(["bellbohm", "--coin", "1e-7,1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "exact beable trajectories (48 with positive probability)"
    assert not out.rstrip().endswith("p = 0 (0)")


def _bits(x):
    return x.hex() if isinstance(x, float) else x


@pytest.mark.parametrize("hooks", [{}, {"flip_ok_sign": True}, {"corrupt_preparation": True}],
                         ids=["clean", "flip-ok-sign", "corrupt-preparation"])
@pytest.mark.parametrize("a", [1e-7, 1e-13], ids=["1e-7", "1e-13"])
def test_the_dense_engine_keeps_its_floor_at_edge_coins(a, hooks):
    """The dense joints and trajectory table equal the floored oracles bit for bit, as before."""
    protocol = Protocol((a, 1.0), **hooks)
    total = sum(reference.record_weights(protocol, protocol.pilot_state_after(StageId.OBS2), ("r",)).values())
    marginal = {cell: p * (1 / total) for cell, p in reference.marginal_joint(protocol).items()}
    for got, want in [(born._sequential_joint(protocol), reference.sequential_joint(protocol)),
                      (born._marginal_joint(protocol), marginal)]:
        assert [(k, _bits(p)) for k, p in got.items()] == [(k, _bits(p)) for k, p in want.items()]
    table, want = exact_chain(protocol), reference.exact_chain(protocol)
    assert [(t.configs, _bits(t.probability)) for t in table.entries] == [
        (t.configs, _bits(t.probability)) for t in want.entries]
    assert table.epoch_weights == want.epoch_weights


def test_a_zero_fact_fails_on_a_tiny_but_exactly_nonzero_weight(capsys):
    """At the ten-digit coin P[z=-, w1=ok] is about 4.5e-22, below `FACT_ATOL` yet exactly nonzero, so FR8's
    ok-minus-subspace-empty fails on the exact engine, which tests for zero, and passes on the dense one,
    which keeps `FACT_ATOL`.  FR2's and coarse-chain-zero's weights are exactly zero at every coin, and both
    pass on both engines.  Oracle: the weight itself, `facts._probability` on the exact engine."""
    exact = ExactProtocol(TEN_DIGIT_COIN)
    weight = facts._probability(exact, [("z", "-"), ("w1", "ok")])
    assert type(weight) is Surd and weight != 0 and weight < 1e-21
    for engine, fr8 in ((exact, False), (Protocol(tuple(map(float, TEN_DIGIT_COIN))), True)):
        passed = {r.fact_id: r.passed for r in facts.run_all(engine) if r.fact_id in ZERO_FACTS}
        assert passed == dict.fromkeys(ZERO_FACTS, True) | {"ok-minus-subspace-empty": fr8}, engine
    assert cli.main(["verify", "--coin", ",".join(TEN_DIGIT_COIN)]) == 1
    assert ("[FAIL] FR8 ok-minus-subspace-empty: projection onto the (ok, spin-down) eigenspace vanishes "
            "(weight 4.49e-22)") in capsys.readouterr().out.splitlines()
