"""Damage ratios and trigger conditions, computed in exact arithmetic."""

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, strategies as st

from mpfuzz.mempool import (NORMAL_PRICE, PRESET_FAMILIES, build_block,
                            fill_normal, new_pool, policy_preset,
                            probe_declines)
from mpfuzz.oracle import (DEFAULT_EPSILON, DEFAULT_LAMBDA, OracleConfig,
                           OracleVerdict, asym_D, asym_E, chargeable_fees,
                           check_eviction, check_locking, classify_tp_fp,
                           could_lock, evicted_all, format_ratio, total_fees)
from mpfuzz.txmodel import GAS_PER_TX, Transaction, adversarial, benign
from test_properties import BIG, SMALL_PRESETS


def test_defaults_are_exact_fractions():
    assert DEFAULT_EPSILON == Fraction(36, 100)
    assert DEFAULT_LAMBDA == Fraction(46, 100)
    cfg = OracleConfig(epsilon=0.2)
    assert cfg.epsilon == Fraction(1, 5)


@pytest.mark.parametrize("threshold", ["epsilon", "lam"])
@pytest.mark.parametrize("flag", [True, False])
def test_bool_threshold_is_rejected(threshold, flag):
    # True would read as 1, False as 0.
    with pytest.raises(ValueError, match=f"threshold {threshold} "):
        OracleConfig(**{threshold: flag})


def test_format_ratio():
    assert format_ratio(Fraction(1, 8)) == "0.125"
    assert format_ratio(Fraction(0)) == "0"
    assert format_ratio(Fraction(1, 3)).startswith("0.333333333333")


def test_total_and_chargeable_fees():
    txs = [Transaction(benign(i), 1, 1, 3) for i in range(1, 4)]
    assert total_fees(txs) == 9 * GAS_PER_TX
    state = new_pool(policy_preset("geth-legacy-reduced(3)"))
    fill_normal(state, 3)
    assert chargeable_fees(state) == 9 * GAS_PER_TX


def test_future_entries_are_not_chargeable():
    state = new_pool(policy_preset("geth-legacy-reduced(3)"))
    state.admit_mut(Transaction(adversarial(1), 2, 1, 7))
    assert chargeable_fees(state) == 0


def test_asym_e_zero_for_all_future_pool():
    state = new_pool(policy_preset("geth-legacy-reduced(3)"))
    st0, _ = fill_normal(state, 3)
    for i in range(1, 4):
        assert state.admit_mut(Transaction(adversarial(i), 2, 1, 7)).admitted
    assert asym_E(st0, state) == 0
    verdict = check_eviction(st0, state, OracleConfig())
    assert verdict.triggered and verdict.kind == "Eviction"


def test_eviction_not_triggered_when_benign_survive():
    state = new_pool(policy_preset("geth-legacy-reduced(3)"))
    st0, _ = fill_normal(state, 3)
    state.admit_mut(Transaction(adversarial(1), 2, 1, 7))
    verdict = check_eviction(st0, state, OracleConfig())
    assert not verdict.triggered  # an initial resident survived


def test_eviction_threshold_is_strict():
    # Admitted adversarial pendings stay chargeable, so the ratio can
    # exceed 1; the trigger needs strict asym < epsilon.
    state = new_pool(policy_preset("geth-legacy-reduced(6)"))
    st0, _ = fill_normal(state, 6)
    for i in range(1, 3):
        assert state.admit_mut(Transaction(adversarial(i), 1, 1, 6)).admitted
    assert asym_E(st0, state) == Fraction(4, 3)
    v = check_eviction(st0, state, OracleConfig(epsilon=Fraction(4, 3)))
    assert not v.triggered


def test_locking_verdict():
    state = new_pool(policy_preset("reth-fifo-reduced(3)"))
    for i in range(1, 4):
        assert state.admit_mut(Transaction(adversarial(i), 1, 1, 1)).admitted
    probes = [Transaction(benign(i), 1, 1, 3) for i in range(1, 4)]
    for p in probes:
        assert not state.admit_mut(p).admitted
    v = check_locking(state, probes, OracleConfig())
    assert v.triggered and v.kind == "Locking"
    assert asym_D(state, probes) == Fraction(1, 3)


def test_locking_requires_all_probes_declined_by_adversaries():
    state = new_pool(policy_preset("reth-fifo-reduced(3)"))
    fill_normal(state, 3)
    probes = [Transaction(benign(10), 1, 1, 3)]
    v = check_locking(state, probes, OracleConfig())
    assert not v.triggered  # pool is benign, not an adversarial lock


def test_verdict_json_roundtrip():
    v = OracleVerdict(True, "Eviction", Fraction(1, 8), True, True)
    assert OracleVerdict.from_json(v.to_json()).asym == Fraction(1, 8)
    assert OracleVerdict.from_json(v.to_json()) == v


def test_classify_tp_fp():
    hit = OracleVerdict(True, "Eviction", Fraction(0), True, True)
    miss = OracleVerdict(False, "Eviction", Fraction(1), False, True)
    assert classify_tp_fp(hit, hit) == "TruePositive"
    assert classify_tp_fp(hit, miss) == "FalsePositive"


def keyset_damage(st0, end_state):
    """Reference damage condition: no initial resident's key is among the
    end state's, the two key sets that `evicted_all` replaces."""
    initial = {tx.key() for tx in st0}
    surviving = {tx.key() for tx in end_state.txs()}
    return len(st0) > 0 and not (initial & surviving)


# An arrival is adversarial ("adv", sender, nonce, value, price) or lands
# on the i-th initial resident's (sender, nonce) with its own value and
# price ("resident", i, value, price): a replacement while the resident
# stays, and a re-arrival, equal to it or not, once it has left.  Blocks
# execute chain heads, after which a resident's nonce is an executed one.
ORACLE_OPS = st.lists(st.one_of(
    st.tuples(st.just("adv"), st.integers(1, 3), st.integers(1, 3),
              st.integers(1, 3), st.integers(1, 9)),
    st.tuples(st.just("resident"), st.integers(0, 2), st.integers(1, 3),
              st.integers(1, 9)),
    st.tuples(st.just("block"), st.integers(1, 2))), max_size=30)


@BIG
@given(preset=st.sampled_from(SMALL_PRESETS), ops=ORACLE_OPS)
# N1 is replaced at a higher price and the other two residents are
# evicted: N1's slot is occupied, but not by an initial resident, so the
# damage holds although a presence test would say N1 survives.
@example(preset="geth-legacy-reduced(3)",
         ops=[("resident", 0, 1, 5), ("adv", 1, 1, 1, 4),
              ("adv", 2, 1, 1, 4)])
def test_evicted_all_equals_check_eviction(preset, ops):
    state = new_pool(policy_preset(preset))
    st0, _ = fill_normal(state, state.policy.capacity)
    cfg = OracleConfig()
    for op in ops:
        if op[0] == "block":
            build_block(state, op[1] * GAS_PER_TX)
        elif op[0] == "adv":
            _, i, nonce, value, price = op
            state.admit_mut(Transaction(adversarial(i), nonce, value, price))
        else:
            _, i, value, price = op
            resident = st0[i]
            state.admit_mut(Transaction(resident.sender, resident.nonce,
                                        value, price))
        damage = keyset_damage(st0, state)
        assert evicted_all(st0, state) == damage
        assert check_eviction(st0, state, cfg).damage_ok == damage


# A locking pool is built from an empty one.  An arrival comes from an
# adversarial or a benign sender ("adv"/"benign", sender, offset, value,
# price) at a nonce relative to the sender's first gap: offset 0 replaces
# the top of its run (or repeats an executed nonce), 1 extends it, 2 or
# more is a future.  The benign senders are the probe's own first ones.
# A fill admits benign residents as the probe does, and blocks execute
# chain heads, after which a sender's nonce 1 is an executed one.
LOCK_OPS = st.lists(st.one_of(
    *[st.tuples(st.just("adv"), st.integers(1, 3),
                st.sampled_from((-1, 0, 1, 1, 1, 2)),
                st.sampled_from((1, 1, 2, 3)), st.integers(1, 9))] * 4,
    st.tuples(st.just("benign"), st.integers(1, 2),
              st.sampled_from((0, 1, 1, 2)), st.sampled_from((1, 1, 2)),
              st.integers(1, 9)),
    st.tuples(st.just("fill"), st.integers(1, 2)),
    st.tuples(st.just("block"), st.integers(1, 2))), max_size=20)


@BIG
@given(family=st.sampled_from(PRESET_FAMILIES), m=st.integers(3, 6),
       lam=st.integers(1, 30).map(lambda k: Fraction(k, 20)), ops=LOCK_OPS)
# Three adversarial pendings at price 1 fill a pool that never evicts:
# every probe arrival is declined and the lock costs 1/3.
@example(family="reth-fifo", m=3, lam=Fraction(9, 20),
         ops=[("adv", i, 1, 1, 1) for i in (1, 2, 3)])
# B1 is executed and leaves, so the probe's arrival from B1 repeats an
# executed nonce and is declined; the pool holds no benign sender.
@example(family="reth-fifo", m=3, lam=Fraction(9, 20),
         ops=[("benign", 1, 1, 1, 9), ("block", 1), ("adv", 1, 1, 1, 1),
              ("adv", 2, 1, 1, 1), ("adv", 3, 1, 1, 1)])
def test_could_lock_is_sound_against_the_probed_verdict(family, m, lam,
                                                        ops):
    state = new_pool(policy_preset(f"{family}-reduced({m})"))
    cfg = OracleConfig(lam=lam)
    judge = partial(check_locking, cfg=cfg)
    for op in ops:
        if op[0] == "block":
            build_block(state, op[1] * GAS_PER_TX)
        elif op[0] == "fill":
            fill_normal(state, op[1])
        else:
            kind, i, offset, value, price = op
            sender = adversarial(i) if kind == "adv" else benign(i)
            group = state.by_sender.get(sender, {})
            gap = state.world.confirmed_nonce(sender) + 1
            while gap in group:
                gap += 1
            state.admit_mut(Transaction(sender, max(1, gap - 1 + offset),
                                        value, price))
        fees = chargeable_fees(state)
        _, verdict = probe_declines(state, m, judge)
        if not could_lock(state, fees, cfg):
            assert not verdict.triggered
        elif verdict.damage_ok:
            assert verdict.asym == Fraction(
                fees, len(state) * NORMAL_PRICE * GAS_PER_TX)
        if verdict.damage_ok:
            # The verdict triggers at any lambda above its asym, so the
            # gate must pass at the least of them too.
            tight = OracleConfig(lam=verdict.asym + Fraction(1, 10 ** 9))
            _, at_tight = probe_declines(state, m,
                                         partial(check_locking, cfg=tight))
            assert at_tight.triggered and could_lock(state, fees, tight)
