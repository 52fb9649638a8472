"""Damage ratios and trigger conditions, computed in exact arithmetic."""

from fractions import Fraction

from hypothesis import example, given, strategies as st

from mpfuzz.mempool import build_block, fill_normal, new_pool, policy_preset
from mpfuzz.oracle import (DEFAULT_EPSILON, DEFAULT_LAMBDA, OracleConfig,
                           OracleVerdict, asym_D, asym_E, chargeable_fees,
                           check_eviction, check_locking, classify_tp_fp,
                           evicted_all, format_ratio, total_fees)
from mpfuzz.txmodel import GAS_PER_TX, Transaction, adversarial, benign
from test_properties import BIG, SMALL_PRESETS


def test_defaults_are_exact_fractions():
    assert DEFAULT_EPSILON == Fraction(36, 100)
    assert DEFAULT_LAMBDA == Fraction(46, 100)
    cfg = OracleConfig(epsilon=0.2)
    assert cfg.epsilon == Fraction(1, 5)


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
    st0 = fill_normal(state, 3)
    for i in range(1, 4):
        assert state.admit_mut(Transaction(adversarial(i), 2, 1, 7)).admitted
    assert asym_E(st0, state) == 0
    verdict = check_eviction(st0, state, OracleConfig())
    assert verdict.triggered and verdict.kind == "Eviction"


def test_eviction_not_triggered_when_benign_survive():
    state = new_pool(policy_preset("geth-legacy-reduced(3)"))
    st0 = fill_normal(state, 3)
    state.admit_mut(Transaction(adversarial(1), 2, 1, 7))
    verdict = check_eviction(st0, state, OracleConfig())
    assert not verdict.triggered  # an initial resident survived


def test_eviction_threshold_is_strict():
    # Admitted adversarial pendings stay chargeable, so the ratio can
    # exceed 1; the trigger needs strict asym < epsilon.
    state = new_pool(policy_preset("geth-legacy-reduced(6)"))
    st0 = fill_normal(state, 6)
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
    v = OracleVerdict(True, "eviction", Fraction(1, 8), True, True)
    assert OracleVerdict.from_json(v.to_json()).asym == Fraction(1, 8)


def test_classify_tp_fp():
    hit = OracleVerdict(True, "eviction", Fraction(0), True, True)
    miss = OracleVerdict(False, "eviction", Fraction(1), False, True)
    assert classify_tp_fp(hit, hit) == "TruePositive"
    assert classify_tp_fp(hit, miss) == "FalsePositive"


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
    st0 = fill_normal(state, state.policy.capacity)
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
        assert evicted_all(st0, state) == \
            check_eviction(st0, state, cfg).damage_ok
