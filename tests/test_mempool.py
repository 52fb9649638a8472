"""Pool admission state machine and policy presets."""

import io
import json
import re
from dataclasses import replace
from typing import Iterable, List

import pytest
from hypothesis import example, given, strategies as st

import mpfuzz.baselines as baselines
from mpfuzz.baselines import run_baseline
from mpfuzz.fuzzer import run_fuzzer
from mpfuzz.mempool import (NORMAL_PRICE, NORMAL_VALUE, PRESET_FAMILIES,
                            DeclineReason, EvictionRule, MempoolPolicy,
                            MempoolState, TurningRule, VULNERABILITY_MATRIX,
                            build_block, fill_normal, new_pool,
                            policy_preset)
from mpfuzz.oracle import OracleConfig
from mpfuzz.txmodel import (GAS_PER_TX, Role, Transaction, ValidityClass,
                            WorldState, adversarial, benign)
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
    out = state.clone().admit_mut(Transaction(adversarial(1), 1, 1, 3))
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
    assert len(state.by_sender[s]) == 1
    assert state.by_sender[s][1].tx.gas_price == 9


@pytest.mark.parametrize("family,guarded", [("geth-1.11", True),
                                            ("geth-legacy", False)])
def test_overdraft_guard_declines_a_replacement_that_overdrafts_a_child(
        family, guarded):
    # A balance of 6 covers a replaced parent of value 5 and its child of
    # value 1, but not a parent of value 6 and the child.
    s = adversarial(1)
    for value, overdrafts in ((6, True), (5, False)):
        state = new_pool(policy_preset(f"{family}-reduced(6)"))
        assert state.admit_mut(Transaction(s, 1, 1, 4)).admitted
        assert state.admit_mut(Transaction(s, 2, 1, 10)).admitted
        out = state.admit_mut(Transaction(s, 1, value, 11))
        if guarded and overdrafts:
            assert out.kind == "Declined"
            assert out.reason is DeclineReason.OVERDRAFT_GUARD
            assert state.by_sender[s][1].tx.value == 1
        else:
            assert out.kind == "AdmittedReplacing"
            assert state.by_sender[s][1].tx.value == value


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


def test_build_block_writes_only_included_senders():
    state = full_legacy()
    a1, a2, a3 = adversarial(1), adversarial(2), adversarial(3)
    for tx in (Transaction(a1, 1, 1, 9), Transaction(a1, 2, 1, 8),
               Transaction(a2, 1, 1, 7), Transaction(a3, 3, 1, 9)):
        assert state.admit_mut(tx).admitted
    assert state.world.accounts == {}
    included = build_block(state, 3 * GAS_PER_TX)
    assert set(state.world.accounts) == {a1, a2}
    included += build_block(state, 100 * GAS_PER_TX)
    # A3's future transaction is never included, so A3 stays unwritten.
    assert a3 not in {tx.sender for tx in included}
    assert set(state.world.accounts) == {tx.sender for tx in included}


@pytest.mark.parametrize("family", [
    f for f in PRESET_FAMILIES
    if policy_preset(f"{f}-reduced(6)").eviction_rule
    is not EvictionRule.PRICE_ANY])
def test_no_price_any_records_under_other_rules(family):
    # Only PriceAny reads `_heap_pending` and `_heap_future`.  A1's second
    # nonce arrives future and stays so when the first closes the gap.
    # Under AccountMinPrice, A2 evicts A1's top nonce, and turning (here
    # DemoteToFuture, as a config override may set) demotes A1's third to
    # fifth; the blocks that include A1's first promote its second.
    pol = replace(policy_preset(f"{family}-reduced(6)"),
                  turning_rule=TurningRule.DEMOTE_TO_FUTURE)
    state = new_pool(pol)
    a1 = adversarial(1)
    for nonce in (2, 1, 3, 4, 5, 6):
        state.admit_mut(Transaction(a1, nonce, 1, 5))
    state.admit_mut(Transaction(adversarial(2), 1, 1, 9))
    for _ in range(2):
        build_block(state, GAS_PER_TX)
    assert state._heap_pending == [] and state._heap_future == []


def test_fuzzing_clones_no_account(monkeypatch):
    # Searches copy only what they keep: the fuzzer each seed beyond the
    # roots, and B2 nothing, since its frontier holds paths that are
    # replayed on the root.  No copy holds an account.
    clone = MempoolState.clone
    written = []

    def spy(self):
        st = clone(self)
        written.append(len(st.world.accounts))
        return st

    hashes = set()
    state_hash = baselines._state_hash

    def hash_spy(state):
        h = state_hash(state)
        hashes.add(h)
        return h

    monkeypatch.setattr(MempoolState, "clone", spy)
    monkeypatch.setattr(baselines, "_state_hash", hash_spy)
    pol = policy_preset("geth-legacy-reduced(6)")
    log = io.StringIO()
    run_fuzzer(pol, OracleConfig(epsilon=0.2), budget_mutations=3000,
               log_stream=log)
    kept = sum(1 for line in log.getvalue().splitlines()
               if json.loads(line).get("feedback"))
    assert kept > 100 and len(written) == kept
    run_baseline("B2", pol, OracleConfig(epsilon=0.2), budget_mutations=300)
    assert len(hashes) > 100 and len(written) == kept
    assert set(written) == {0}


def test_executed_nonce_is_declined():
    state = full_legacy()
    a1 = adversarial(1)
    state.admit_mut(Transaction(a1, 1, 1, 9))
    assert build_block(state, GAS_PER_TX) == [Transaction(a1, 1, 1, 9)]
    before = state.txs()
    for tx in (Transaction(a1, 1, 1, 12), Transaction(a1, 0, 1, 12)):
        out = state.admit_mut(tx)
        assert not out.admitted and out.reason is DeclineReason.STALE_NONCE
    assert state.txs() == before and state.pending_count == 5
    assert state.admit_mut(Transaction(a1, 2, 1, 12)).admitted


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


# Policy values of the wrong type, or naming no rule; each must be
# rejected with its field's name.
BAD_POLICY_VALUES = [
    ("future_eviction_guard", "false"),
    ("capacity", 6.9),
    ("capacity", True),
    ("sender_limit", "6"),
    ("eviction_rule", "PriceHighest"),
]


@pytest.mark.parametrize("field, value", BAD_POLICY_VALUES)
def test_policy_from_json_rejects_a_value_of_the_wrong_type(field, value):
    pol = policy_preset("geth-legacy-reduced(6)")
    with pytest.raises(ValueError, match=f"field {field}\\b"):
        MempoolPolicy.from_json(dict(pol.to_json(), **{field: value}))


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


def consecutive_chain(resident_nonces: Iterable[int], confirmed: int) -> int:
    """Length of the gap-free run of resident nonces starting at confirmed+1."""
    nonces = set(resident_nonces)
    length = 0
    n = confirmed + 1
    while n in nonces:
        length += 1
        n += 1
    return length


def classify(tx: Transaction, world: WorldState,
             resident: List[Transaction]) -> ValidityClass:
    """Classify an arriving transaction against the sender's resident set.

    `resident` holds the sender's transactions currently in the pool.
    Precedence on overlap: Replacement > Future > Overdraft > LatentOverdraft
    > Pending.  Balance checks cover transferred value only.
    """
    confirmed = world.confirmed_nonce(tx.sender)
    balance = world.balance(tx.sender)
    nonces = [t.nonce for t in resident]
    if tx.nonce in nonces:
        return ValidityClass.REPLACEMENT
    chain_len = consecutive_chain(nonces, confirmed)
    if tx.nonce > confirmed + chain_len + 1:
        return ValidityClass.FUTURE
    if tx.value > balance:
        return ValidityClass.OVERDRAFT
    ancestors = sum(t.value for t in resident
                    if confirmed < t.nonce < tx.nonce
                    and t.nonce <= confirmed + chain_len)
    if tx.value + ancestors > balance:
        return ValidityClass.LATENT_OVERDRAFT
    return ValidityClass.PENDING


def residents(state, sender):
    """The sender's transactions in the pool."""
    return [e.tx for e in state.by_sender.get(sender, {}).values()]


def walk_chain(state, sender):
    """A sender's chain state from its resident list, walked afresh."""
    confirmed = state.world.confirmed_nonce(sender)
    resident = residents(state, sender)
    run = consecutive_chain([t.nonce for t in resident], confirmed)
    value = sum(t.value for t in resident
                if confirmed < t.nonce <= confirmed + run)
    return (confirmed, run, value, len(state.sender_chain_entries(sender)))


SENDERS = (adversarial(1), adversarial(2), adversarial(3), benign(1),
           benign(2))
STRANGER = adversarial(99)


def victim_queries(tx):
    """The victim of this arrival, and of it and a stranger at every
    price."""
    return [tx] + [Transaction(s, n, 1, price)
                   for s, n in ((tx.sender, tx.nonce), (STRANGER, 1))
                   for price in range(1, 11)]


def check_chain_cache(state):
    """Every cached chain state equals a fresh walk."""
    for sender, cached in state._chain.items():
        assert cached == walk_chain(state, sender), sender


def check_indexes(state, tx):
    check_chain_cache(state)
    assert state._classify(tx)[0] is classify(tx, state.world,
                                              residents(state, tx.sender))
    assert state._chain_state(tx.sender) == walk_chain(state, tx.sender)
    for probe in victim_queries(tx):
        assert state._select_victim(probe) is scan_victim(state, probe)


HEAPS = ("_heap_pending", "_heap_future", "_heap_childless", "_heap_acct")


def check_rolled_back(state, ref, tx):
    """`state`, just rolled back to a mark, against `ref`, a clone taken
    at the mark; the chain cache, which a rollback trims rather than
    restores, must hold only fresh walks."""
    assert state.canonical() == ref.canonical()
    assert {k: (e.seq, e.is_future) for k, e in state.entries.items()} == \
        {k: (e.seq, e.is_future) for k, e in ref.entries.items()}
    assert {(s, n): e for s, group in state.by_sender.items()
            for n, e in group.items()} == state.entries
    assert all(state.by_sender.values())
    assert (state.seq, state.future_count, state._benign_auto) == \
        (ref.seq, ref.future_count, ref._benign_auto)
    check_chain_cache(state)
    assert state._acct_key == ref._acct_key
    for heap in HEAPS:
        assert getattr(state, heap) == getattr(ref, heap), heap
    for probe in victim_queries(tx):
        got, want = state._select_victim(probe), ref._select_victim(probe)
        assert (got and (got.tx, got.seq)) == (want and (want.tx, want.seq))


# An arrival is drawn relative to its sender's chain: a nonce offset of 1
# extends the run, 2 or more leaves a gap, 0 or less replaces a resident
# or repeats an executed nonce.  Blocks execute chain heads; a clone
# continues in place of the pool it copies.  Marks nest; a rollback
# returns to the innermost open one, and the rest are rolled back at the
# end.  Blocks and clones only run while no mark is open.
ARRIVAL = st.tuples(st.just("tx"), st.integers(0, len(SENDERS) - 1),
                    st.sampled_from((-1, 0, 1, 1, 1, 2)),
                    st.sampled_from((1, 1, 2, 3)), st.integers(1, 9))
POOL_OPS = st.lists(st.one_of(
    *[ARRIVAL] * 6,
    st.tuples(st.just("block"), st.integers(1, 2)),
    st.tuples(st.just("clone")),
    st.tuples(st.just("fill"), st.integers(1, 3)),
    st.tuples(st.just("mark")), st.tuples(st.just("mark")),
    st.tuples(st.just("rollback"))), min_size=20, max_size=50)


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
    marks = []  # (mark, clone at the mark)
    tx = Transaction(STRANGER, 1, 1, 5)
    for op in ops:
        if op[0] == "mark":
            marks.append((state.mark(), state.clone()))
        elif op[0] == "rollback":
            if marks:
                mark, ref = marks.pop()
                state.rollback(mark)
                check_rolled_back(state, ref, tx)
        elif op[0] == "fill":
            fill_normal(state, op[1])
        elif marks:
            if op[0] == "block":
                with pytest.raises(RuntimeError, match="mark"):
                    build_block(state, op[1] * GAS_PER_TX)
        elif op[0] == "clone":
            state = state.clone()
        elif op[0] == "block":
            build_block(state, op[1] * GAS_PER_TX)
        if op[0] != "tx":
            continue
        _, i, offset, value, price = op
        sender = SENDERS[i]
        confirmed, run, _, _ = walk_chain(state, sender)
        tx = Transaction(sender, max(1, confirmed + run + offset),
                         value, price)
        check_indexes(state, tx)
        stale = tx.nonce <= confirmed and \
            (sender, tx.nonce) not in state.entries
        out = state.admit_mut(tx)
        assert (out.reason is DeclineReason.STALE_NONCE) == stale
    while marks:
        mark, ref = marks.pop()
        state.rollback(mark)
        check_rolled_back(state, ref, tx)
    assert state._undo is None
    check_chain_cache(state)


def test_build_block_raises_under_a_mark():
    state = full_legacy()
    state.admit_mut(Transaction(adversarial(1), 1, 1, 9))
    before = state.canonical()
    outer = state.mark()
    inner = state.mark()
    with pytest.raises(ValueError, match="innermost"):
        state.rollback(outer)
    with pytest.raises(RuntimeError, match="mark"):
        build_block(state, GAS_PER_TX)
    state.rollback(inner)
    with pytest.raises(RuntimeError, match="mark"):
        build_block(state, GAS_PER_TX)
    state.rollback(outer)
    assert state.canonical() == before
    assert build_block(state, GAS_PER_TX) == [Transaction(adversarial(1),
                                                          1, 1, 9)]


# -- fill_normal's decline shortcut equals the admission loop -------------

def plain_fill_normal(state, count):
    """Reference: `fill_normal` as the plain loop that admits every
    arrival.  Returns the arrivals offered and those declined."""
    offered, declined = [], []
    for _ in range(count):
        state._benign_auto += 1
        tx = Transaction(benign(state._benign_auto), nonce=1,
                         value=NORMAL_VALUE, gas_price=NORMAL_PRICE)
        if not state.admit_mut(tx).admitted:
            declined.append(tx)
        offered.append(tx)
    return offered, declined


# Arrivals come from SENDERS and from the next two senders a fill offers
# to ("next", j, ...), so a fill can meet a resident or an executed
# sender; blocks execute chain heads and write their senders' accounts.
FILL_OPS = st.lists(st.one_of(
    ARRIVAL, ARRIVAL,
    st.tuples(st.just("next"), st.integers(1, 2),
              st.sampled_from((1, 1, 2)), st.sampled_from((1, 1, 2, 3)),
              st.integers(1, 9)),
    st.tuples(st.just("block"), st.integers(1, 2))), max_size=20)


def apply_fill_ops(state, m, ops):
    """Admit the arrivals of FILL_OPS and run its blocks; ("next", j)
    arrives from B(m+j)."""
    for op in ops:
        if op[0] == "block":
            build_block(state, op[1] * GAS_PER_TX)
            continue
        _, i, offset, value, price = op
        sender = SENDERS[i] if op[0] == "tx" else benign(m + i)
        confirmed, run, _, _ = walk_chain(state, sender)
        state.admit_mut(Transaction(sender, max(1, confirmed + run + offset),
                                    value, price))


@BIG
@given(family=st.sampled_from(PRESET_FAMILIES), m=st.integers(3, 6),
       ops=FILL_OPS, count=st.integers(1, 12))
# Full at price 3: B(m+1) is declined FullNoVictim, but B(m+2) is
# resident and is declined PriceTooLow as a replacement.
@example(family="geth-legacy", m=3, ops=[("next", 2, 1, 1, 9)], count=2)
# B(m+2) was executed, so its arrival is a stale nonce.
@example(family="geth-legacy", m=3,
         ops=[("next", 2, 1, 1, 9), ("block", 1), ("tx", 0, 1, 1, 3)],
         count=2)
def test_fill_normal_equals_admission_loop(family, m, ops, count):
    state = new_pool(policy_preset(f"{family}-reduced({m})"))
    fill_normal(state, m)
    apply_fill_ops(state, m, ops)
    fast, plain = state.clone(), state.clone()
    assert fill_normal(fast, count) == plain_fill_normal(plain, count)
    assert fast.canonical() == plain.canonical()
    assert (fast.seq, fast.future_count, fast._benign_auto) == \
        (plain.seq, plain.future_count, plain._benign_auto)
    check_chain_cache(fast)


@BIG
@given(family=st.sampled_from(PRESET_FAMILIES), m=st.integers(3, 6),
       prefill=st.integers(0, 6), ops=FILL_OPS, count=st.integers(1, 12))
# The fill's first arrival evicts B5, the only benign resident, and
# stays; the rest are declined.
@example(family="geth-legacy", m=3, prefill=0,
         ops=[("tx", 0, 1, 1, 9), ("tx", 0, 1, 1, 9), ("next", 2, 1, 1, 1)],
         count=3)
def test_fill_normal_keeps_a_benign_sender_once_it_admits(family, m, prefill,
                                                          ops, count):
    # An arrival the fill admits stays until a later arrival of the fill
    # evicts or replaces it, which is then resident itself: the ground of
    # `oracle.could_lock`.
    state = new_pool(policy_preset(f"{family}-reduced({m})"))
    fill_normal(state, min(prefill, m))
    apply_fill_ops(state, m, ops)
    admit_mut = state.admit_mut
    admitted = []

    def holds_benign():
        return any(s.role is Role.BENIGN for s in state.by_sender)

    def observed(tx):
        outcome = admit_mut(tx)
        admitted.append(outcome.admitted)
        assert not any(admitted) or holds_benign()
        return outcome

    state.admit_mut = observed
    fill_normal(state, count)
    assert not any(admitted) or holds_benign()
