"""Pool admission state machine and policy presets."""

import pytest

from mpfuzz.mempool import (PRESET_FAMILIES, DeclineReason, MempoolPolicy,
                            VULNERABILITY_MATRIX, admit, build_block,
                            fill_normal, new_pool, policy_preset)
from mpfuzz.txmodel import Role, Transaction, adversarial, benign


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
