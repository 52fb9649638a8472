"""Pool admission state machine and policy presets."""

import re

import pytest
from hypothesis import example, given, strategies as st

from mpfuzz.mempool import (PRESET_FAMILIES, DeclineReason, EvictionRule,
                            MempoolPolicy, VULNERABILITY_MATRIX, admit,
                            build_block, fill_normal, new_pool, policy_preset)
from mpfuzz.txmodel import (GAS_PER_TX, Role, Transaction, adversarial,
                            benign, classify, consecutive_chain)
from test_properties import BIG


def full_legacy(m=6):
    state = new_pool(policy_preset(f"geth-legacy-reduced({m})"))
    fill_normal(state, m)
    return state


def test_fill_normal_fills_pending():
    state = full_legacy()
    assert len(state) == 6
    assert state.pending_count == 6
    assert all(t.sender.role is Role.BENIGN for t in state.txs())


def test_eviction_requires_strictly_higher_price():
    state = full_legacy()
    nxt, out = admit(state, Transaction(adversarial(1), 1, 1, 3))
    assert not out.admitted and out.reason is DeclineReason.FULL_NO_VICTIM
    out2 = state.admit_mut(Transaction(adversarial(1), 1, 1, 4))
    assert out2.admitted
    assert len(state) == 6


def test_future_admission_evicts_cheapest_pending():
    state = full_legacy()
    out = state.admit_mut(Transaction(adversarial(1), 2, 1, 10))
    assert out.admitted
    assert sum(1 for t in state.txs() if t.sender.role is Role.BENIGN) == 5


def test_future_quota_declines():
    state = new_pool(policy_preset("geth-1.11-reduced(3,1,2,2)"))
    fill_normal(state, 3)
    out = state.admit_mut(Transaction(adversarial(1), 2, 1, 10))
    assert not out.admitted


def test_replacement_same_nonce_higher_price():
    state = full_legacy()
    s = adversarial(1)
    assert state.admit_mut(Transaction(s, 1, 1, 4)).admitted
    assert not state.admit_mut(Transaction(s, 1, 1, 4)).admitted
    assert state.admit_mut(Transaction(s, 1, 1, 9)).admitted
    assert len(state.resident(s)) == 1
    assert state.resident(s)[0].gas_price == 9


def test_overdraft_declined_on_arrival():
    state = full_legacy()
    out = state.admit_mut(Transaction(adversarial(1), 1, 7, 10))
    assert not out.admitted and out.reason is DeclineReason.OVERDRAFT


def test_latent_guard_preset_declines_latent_arrival():
    state = new_pool(policy_preset("nethermind-legacy-reduced(6)"))
    fill_normal(state, 6)
    s = adversarial(1)
    assert state.admit_mut(Transaction(s, 1, 5, 4)).admitted
    out = state.admit_mut(Transaction(s, 2, 5, 10))
    assert not out.admitted and out.reason is DeclineReason.LATENT_GUARD


def test_sender_limit_decline():
    # geth-legacy-reduced(6): chains capped once length >= 2 and the pool
    # holds more than 5 pending entries.
    state = full_legacy()
    s = adversarial(1)
    assert state.admit_mut(Transaction(s, 1, 1, 4)).admitted
    assert state.admit_mut(Transaction(s, 2, 1, 10)).admitted
    out = state.admit_mut(Transaction(s, 3, 1, 10))
    assert not out.admitted and out.reason is DeclineReason.SENDER_LIMIT


def test_min_price_account_rule_evicts_other_account():
    # The account-min-price rule evicts the max-nonce entry of the
    # cheapest *other* account, so a sender can displace its rival even
    # while holding the pool-wide minimum price itself.
    state = new_pool(policy_preset("nethermind-legacy-reduced(2)"))
    fill_normal(state, 2)
    a, b = adversarial(1), adversarial(2)
    assert state.admit_mut(Transaction(a, 1, 1, 4)).admitted
    assert state.admit_mut(Transaction(b, 1, 1, 5)).admitted
    assert state.admit_mut(Transaction(a, 2, 1, 6)).admitted
    assert {t.sender for t in state.txs()} == {a}


def test_reversal_guard_blocks_cheap_displacement():
    # Victim is the max-nonce entry of the min-price account; the guard
    # declines arrivals not priced strictly above that entry.
    state = new_pool(policy_preset("nethermind-1.18-reduced(2)"))
    fill_normal(state, 2)
    a, b = adversarial(1), adversarial(2)
    assert state.admit_mut(Transaction(a, 1, 1, 4)).admitted
    assert state.admit_mut(Transaction(a, 2, 1, 10)).admitted
    out = state.admit_mut(Transaction(b, 1, 1, 5))
    assert not out.admitted and out.reason is DeclineReason.REVERSAL_GUARD
    # Without the guard the same arrival displaces a's chain tail.
    legacy = new_pool(policy_preset("nethermind-legacy-reduced(2)"))
    fill_normal(legacy, 2)
    assert legacy.admit_mut(Transaction(a, 1, 1, 4)).admitted
    assert legacy.admit_mut(Transaction(a, 2, 1, 10)).admitted
    assert legacy.admit_mut(Transaction(b, 1, 1, 5)).admitted


def test_demote_to_future_on_parent_eviction():
    state = new_pool(policy_preset("geth-legacy-reduced(3)"))
    fill_normal(state, 3)
    a = adversarial(1)
    assert state.admit_mut(Transaction(a, 1, 1, 4)).admitted
    assert state.admit_mut(Transaction(a, 2, 1, 10)).admitted
    assert state.admit_mut(Transaction(adversarial(2), 1, 1, 5)).admitted
    # A later arrival priced above the parent but below the child evicts
    # the parent; the child survives as a future.
    assert state.admit_mut(Transaction(adversarial(3), 1, 1, 5)).admitted
    group = [e for e in state.entries.values() if e.tx.sender == a]
    assert [(e.tx.nonce, e.is_future) for e in group] == [(2, True)]


def test_drop_descendants_policy():
    state = new_pool(policy_preset("besu-legacy-reduced(3)"))
    fill_normal(state, 3)
    a = adversarial(1)
    assert state.admit_mut(Transaction(a, 1, 1, 4)).admitted
    assert state.admit_mut(Transaction(a, 2, 1, 10)).admitted
    assert state.admit_mut(Transaction(adversarial(2), 1, 1, 5)).admitted
    assert state.admit_mut(Transaction(adversarial(3), 1, 1, 5)).admitted
    assert all(e.tx.sender != a for e in state.entries.values())


def test_build_block_takes_highest_price_first():
    state = full_legacy()
    s = adversarial(1)
    state.admit_mut(Transaction(s, 1, 1, 9))
    included = build_block(state, 2 * 21000)
    assert included[0].gas_price == 9
    assert len(included) == 2


def test_clone_is_independent():
    state = full_legacy()
    c = state.clone()
    c.admit_mut(Transaction(adversarial(1), 1, 1, 9))
    assert len(state) == 6
    assert state.canonical() != c.canonical()


def test_preset_names_cover_matrix():
    for name in VULNERABILITY_MATRIX:
        pol = policy_preset(f"{name}-reduced(6)")
        assert pol.capacity == 6


def test_full_scale_preset():
    pol = policy_preset("geth-legacy")
    assert pol.capacity == 6144


def test_unknown_preset_raises():
    with pytest.raises(ValueError):
        policy_preset("no-such-client")


def test_policy_rejects_bad_sizes():
    with pytest.raises(ValueError, match="capacity"):
        policy_preset("geth-legacy-reduced(0)")
    pol = policy_preset("geth-legacy-reduced(6)")
    with pytest.raises(ValueError, match="capacity"):
        MempoolPolicy.from_json(dict(pol.to_json(), capacity=-3))
    for fld in ("future_quota", "sender_limit", "sender_limit_threshold"):
        with pytest.raises(ValueError, match=fld):
            MempoolPolicy.from_json(dict(pol.to_json(), **{fld: -1}))


def test_preset_errors_name_the_preset_as_written():
    for fam in PRESET_FAMILIES:
        name = f"{fam}-reduced(0)"
        with pytest.raises(ValueError, match=re.escape(name)):
            policy_preset(name)
    assert policy_preset(" geth-legacy-reduced(6) ").name == \
        "geth-legacy-reduced(6)"
    assert policy_preset("geth-1.11-reduced(3,1,2,2)").name == \
        "geth-1.11-reduced(3,1,2,2)"
    assert policy_preset("reth-fifo").name == "reth-fifo"


def test_four_argument_reduced_form_is_geth_only():
    geth = ("geth-legacy", "geth-1.11")
    for fam in geth:
        pol = policy_preset(f"{fam}-reduced(6,1,2,3)")
        assert (pol.capacity, pol.future_quota, pol.sender_limit,
                pol.sender_limit_threshold) == (6, 1, 2, 3)
    for fam in set(PRESET_FAMILIES) - set(geth):
        with pytest.raises(ValueError, match="geth"):
            policy_preset(f"{fam}-reduced(6,1,2,3)")


def test_policy_json_roundtrip():
    pol = policy_preset("besu-22.7-reduced(6)")
    assert MempoolPolicy.from_json(pol.to_json()) == pol


# -- indexed admission equals the plain scans and walks -------------------

def scan_victim(state, tx):
    """Reference victim choice: `MempoolState._select_victim` as the linear
    scan over the pool that the victim indexes replace."""
    rule = state.policy.eviction_rule
    if rule is EvictionRule.PRICE_ANY:
        # Future residents go first when both kinds are cheaper.
        for want_future in (True, False):
            cheaper = [e for e in state.entries.values()
                       if e.is_future == want_future
                       and e.tx.gas_price < tx.gas_price]
            if cheaper:
                return min(cheaper, key=lambda e: (e.tx.gas_price, e.seq))
        return None
    if rule is EvictionRule.PRICE_CHILDLESS_ONLY:
        best = None
        for e in state.entries.values():
            if e.tx.gas_price >= tx.gas_price:
                continue
            if e.tx.sender == tx.sender and e.tx.nonce < tx.nonce:
                continue
            group = state.by_sender[e.tx.sender]
            if e.tx.nonce + 1 in group:
                continue
            key = (e.tx.gas_price, e.seq)
            if best is None or key < (best.tx.gas_price, best.seq):
                best = e
        return best
    if rule is EvictionRule.ACCOUNT_MIN_PRICE:
        best_sender = None
        best_key = None
        for sender, group in state.by_sender.items():
            if sender == tx.sender:
                continue
            acct_min = min(e.tx.gas_price for e in group.values())
            if tx.gas_price <= acct_min:
                continue
            first_seq = min(e.seq for e in group.values())
            key = (acct_min, first_seq)
            if best_key is None or key < best_key:
                best_key = key
                best_sender = sender
        if best_sender is None:
            return None
        group = state.by_sender[best_sender]
        return group[max(group.keys())]
    return None


def walk_chain(state, sender):
    """A sender's chain state from its resident list, walked afresh."""
    confirmed = state.world.confirmed_nonce(sender)
    resident = state.resident(sender)
    run = consecutive_chain([t.nonce for t in resident], confirmed)
    value = sum(t.value for t in resident
                if confirmed < t.nonce <= confirmed + run)
    return (confirmed, run, value, len(state.sender_chain_entries(sender)))


SENDERS = (adversarial(1), adversarial(2), adversarial(3), benign(1),
           benign(2))
STRANGER = adversarial(99)


def check_indexes(state, tx):
    for sender, cached in state._chain.items():
        assert cached == walk_chain(state, sender), sender
    assert state._classify(tx)[0] is classify(tx, state.world,
                                              state.resident(tx.sender))
    assert state._chain_state(tx.sender) == walk_chain(state, tx.sender)
    # The victim of this arrival, and of it and a stranger at every price.
    probes = [tx] + [Transaction(s, n, 1, price)
                     for s, n in ((tx.sender, tx.nonce), (STRANGER, 1))
                     for price in range(1, 11)]
    for probe in probes:
        assert state._select_victim(probe) is scan_victim(state, probe)


# An arrival is drawn relative to its sender's chain: a nonce offset of 1
# extends the run, 2 or more leaves a gap, 0 or less replaces a resident
# or repeats an executed nonce.  Blocks execute chain heads; a clone
# continues in place of the pool it copies.
ARRIVAL = st.tuples(st.just("tx"), st.integers(0, len(SENDERS) - 1),
                    st.sampled_from((-1, 0, 1, 1, 1, 2)),
                    st.sampled_from((1, 1, 2, 3)), st.integers(1, 9))
POOL_OPS = st.lists(st.one_of(
    *[ARRIVAL] * 6,
    st.tuples(st.just("block"), st.integers(1, 2)),
    st.tuples(st.just("clone"))), min_size=20, max_size=50)


@BIG
@given(family=st.sampled_from(PRESET_FAMILIES), m=st.integers(3, 6),
       ops=POOL_OPS)
# N2's second transaction evicts N1 and makes N2's first a parent, whose
# record the next eviction pops; once the child is evicted too, the parent
# is the cheapest childless entry again.
@example(family="openethereum", m=3,
         ops=[("tx", 4, 1, 2, 5), ("tx", 0, 1, 1, 7), ("tx", 1, 1, 3, 6),
              ("tx", 2, 1, 1, 4)])
def test_indexed_admission_equals_scans(family, m, ops):
    state = new_pool(policy_preset(f"{family}-reduced({m})"))
    fill_normal(state, m)
    for op in ops:
        if op[0] == "clone":
            state = state.clone()
        elif op[0] == "block":
            build_block(state, op[1] * GAS_PER_TX)
        else:
            _, i, offset, value, price = op
            sender = SENDERS[i]
            confirmed, run, _, _ = walk_chain(state, sender)
            tx = Transaction(sender, max(1, confirmed + run + offset),
                             value, price)
            check_indexes(state, tx)
            state.admit_mut(tx)
    for sender, cached in state._chain.items():
        assert cached == walk_chain(state, sender), sender
