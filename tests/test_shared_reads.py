"""What a cold engine's record pipeline computes once: read ratios, read plans and kernel rows.

Both joints read each Born ratio off a pilot state's memo, where the first
reader left it; the sequential joint's reads are derived once per stage
mapping; and a kernel row sums only over the children its stage's config
pilot form gives weight to.  `test_bellbohm` checks every answer against
the bodies in `reference`, which recompute all of it per call.
"""

import math

import pytest

from ewflab import bellbohm, born
from ewflab.bellbohm import CONFIG_AXES, TrajectoryTable, _kernel_children, all_configs, transition_kernel
from ewflab.exact import DYNAMIC_STAGES, STAGES, ExactProtocol, SparseState, StageId, Surd, _basis, _pilot_form
from ewflab.protocol import Protocol, StateVector
from fresh import forget_history_caches
from test_bellbohm import test_shared_ratios_equal_the_per_branch_oracles as oracle_check
from test_cold_engine import ENGINES, HOOK_IDS, HOOKS


@pytest.mark.parametrize("hooks", HOOKS, ids=HOOK_IDS)
def test_a_complex_coin_reads_the_per_branch_oracles_bit_for_bit(hooks):
    """(0.6, 0.8j), which only the dense engine takes: its complex forms give the oracles' bits too."""
    oracle_check(Protocol, hooks, (0.6, 0.8j))


@pytest.mark.parametrize("engine", ENGINES, ids=["dense", "exact"])
def test_a_wrong_marginal_read_is_not_hidden_by_the_shared_ratios(engine, monkeypatch):
    """Reading w1 given z at MEAS4, where W1's record has been rewritten, breaks the no-collapse joint: it
    then differs from the sequential one by 0.1 at the default coin, though the ratios are shared."""
    wrong = (born._MARGINAL_READS[0], (StageId.MEAS4, ("z",), "w1"), born._MARGINAL_READS[2])
    monkeypatch.setattr(born, "_MARGINAL_READS", wrong)
    protocol = engine()
    collapse, marginal = (born.joint_distribution(protocol, policy) for policy in born.CollapsePolicy)
    gap = max(abs(float(p) - float(q)) for (_, p), (_, q) in zip(collapse.outcomes, marginal.outcomes))
    assert gap == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("engine", ENGINES, ids=["dense", "exact"])
def test_both_joints_share_each_read_ratio(engine):
    """The no-collapse joint divides nothing the sequential one has: after both, each coin pilot state's
    memo holds one ratio tuple per read and conditioning labels, 7 in all, and the no-collapse joint's
    second call finds all of them."""
    protocol = engine((math.cos(1.0), math.sin(1.0)))
    born.joint_distribution(protocol, born.CollapsePolicy.SEQUENTIAL_PROJECTION)

    def ratios():
        return {(stage, key): value for stage, state in protocol._pilot_cache.items()
                for key, value in state._marginals.items() if type(key[0]) is tuple}

    held = ratios()
    assert sorted((stage.name, len(key[1])) for stage, key in held) == [
        ("MEAS3", 2), ("MEAS3", 2), ("MEAS4", 2), ("MEAS4", 2), ("OBS0", 2), ("OBS2", 2), ("OBS2", 2)]
    born.joint_distribution(protocol, born.CollapsePolicy.NO_COLLAPSE_MARGINAL)
    after = ratios()
    assert after.keys() == held.keys()
    assert all(after[k] is held[k] for k in held)


@pytest.mark.parametrize("engine", ENGINES, ids=["dense", "exact"])
def test_a_kernel_row_about_an_early_stage_walks_no_later_stage(engine):
    """The support of a stage's rows is read off that stage's form and the one before it, so a row at OBS0
    walks the basis engines to OBS0 only."""
    forget_history_caches()
    transition_kernel(engine(), bellbohm.READY_CONFIG, StageId.OBS0)
    for basis in _basis(engine, False, False):
        assert list(basis._pilot_cache) == [StageId.PREP_MINUS1, StageId.OBS0]


@pytest.mark.parametrize("engine", ENGINES, ids=["dense", "exact"])
@pytest.mark.parametrize("hooks", HOOKS, ids=HOOK_IDS)
def test_kernel_children_are_the_children_the_form_gives_weight_to(engine, hooks):
    """Per stage and config of the form before it: the children, in `_children` order, that the stage's
    config pilot form has a cell for, or None where the stage rewrites no memory.  At the clean setting the
    14 rows an item divides keep 49 of their 108 children."""
    head, tail = _basis(engine, hooks.get("flip_ok_sign", False), hooks.get("corrupt_preparation", False))

    def support(stage):
        return {cell[0] for cell in _pilot_form(head.pilot_state_after(stage), tail.pilot_state_after(stage),
                                                CONFIG_AXES)[-1]}

    kept = total = 0
    for stage in DYNAMIC_STAGES:
        before, after = support(STAGES[STAGES.index(stage) - 1]), support(stage)
        rewritten = head.stage_unitaries[stage].rewritten_memory_axes
        rows = _kernel_children(engine, hooks.get("flip_ok_sign", False), hooks.get("corrupt_preparation", False),
                                stage)
        assert rows.keys() == before
        for m, children in rows.items():
            every = bellbohm._children(m, rewritten)
            assert children == (every and tuple(c for c in every if c in after))
            if every is not None:
                kept, total = kept + len(children), total + len(every)
    if not hooks:
        assert (kept, total) == (49, 108)


def test_dense_trajectories_tied_but_for_an_ulp_keep_their_order():
    """Two trajectories whose probabilities print alike order by key sequence, whichever is the larger
    float; an exact table orders by value."""
    first, second = (0, 1, 1, 10, 20, 30), (0, 2, 2, 11, 21, 31)
    configs = all_configs()

    def order(p, q):
        table = TrajectoryTable(((second, q), (first, p)), ())
        return [tuple(configs.index(c) for c in t.configs) for t in table.sorted_entries()]

    p = 1 / 48
    tie = order(p, p)
    assert tie == sorted([first, second], key=lambda c: [configs[i] for i in c[:2] + c[3:]])
    assert order(math.nextafter(p, 1), p) == tie == order(p, math.nextafter(p, 1))
    assert order(Surd(1, 0, 0, 0, 48), Surd(1, 0, 0, 0, 47)) == [second, first]
    assert order(Surd(1, 0, 0, 0, 47), Surd(1, 0, 0, 0, 48)) == [first, second]


def _ignores_the_coin(engine):
    """An engine class whose initial state is the default coin's, whatever its own coin: every memory ready."""

    class IgnoresTheCoin(engine):
        def initial_state(self):
            return engine(flip_ok_sign=self.flip_ok_sign, corrupt_preparation=self.corrupt_preparation).initial_state()

    return IgnoresTheCoin


@pytest.mark.parametrize("engine, state_class", [(Protocol, StateVector), (ExactProtocol, SparseState)],
                         ids=["dense", "exact"])
def test_an_initial_state_not_linear_in_the_coin_is_refused(engine, state_class):
    """Its basis engines walk, as every memory is ready, but a coin engine's first pilot state is refused
    with one line instead of being (a + b) times the default coin's."""
    protocol = _ignores_the_coin(engine)((0.6, 0.8))
    head, tail = _basis(type(protocol), False, False)
    assert type(head.pilot_state_after(StageId.MEAS4)) is state_class
    assert head.initial_state().components() == tail.initial_state().components()
    with pytest.raises(ValueError, match=r"^IgnoresTheCoin\.initial_state is not linear in the coin[^\n]*$"):
        protocol.pilot_state_after(StageId.OBS0)
    with pytest.raises(ValueError, match="not linear in the coin"):
        born.joint_distribution(protocol)


def test_dividing_by_one_sum_inverts_it_once(monkeypatch):
    """A row divides each weight by one Surd sum: the sum is inverted once, and keeps its inverse."""
    calls = []
    inverse = Surd.inverse
    monkeypatch.setattr(Surd, "inverse", lambda self: calls.append(self) or inverse(self))
    weights = [Surd(1, 1, 0, 0, 4), Surd(3, 0, 0, 1, 8), Surd(1, 0, 0, 0, 2)]
    total = sum(weights)
    ratios = [w / total for w in weights] + [1 / total]
    assert len(calls) == 1
    assert sum(ratios[:3]) == 1 and ratios[3] * total == 1
    assert ratios == [w * inverse(total) for w in weights] + [inverse(total)]

