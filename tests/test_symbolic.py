"""State abstraction: symbols, ordering, costs, mutation enumeration."""

import pytest
from hypothesis import given, strategies as st

from mpfuzz.mempool import (NORMAL_PRICE, PRESET_FAMILIES, fill_normal,
                            new_pool, policy_preset, probe_declines)
from mpfuzz.oracle import chargeable_fees
from mpfuzz.symbolic import (InfeasibleSymbol, InstantiationContext,
                             PoolSummary, SymbolizedTx,
                             concretize, cost, enumerate_mutations,
                             execute_input, instantiate, opcost, parse_input,
                             ranked_senders, serialize_input,
                             summarize_sender, symbolize_state)
from mpfuzz.txmodel import Role, Transaction, adversarial
from test_properties import BIG, admit_all, relabel


def plain_symbolize_state(state):
    """The whole-pool walk that `symbolize_state` replaced: the reference
    for the per-sender summaries.  Returns the state's (symbol, price)
    slots."""
    n_slots = []
    f_slots = []
    groups = []
    for sender, group in state.by_sender.items():
        balance = state.world.balance(sender)
        if sender.role is Role.BENIGN:
            for nonce in sorted(group):
                e = group[nonce]
                if e.is_future:
                    f_slots.append(("F", e.tx.gas_price, e.seq))
                else:
                    n_slots.append(("N", e.tx.gas_price, e.seq))
            continue
        chain = state.sender_chain_entries(sender)
        chain_nonces = {e.tx.nonce for e in chain}
        for nonce in sorted(group):
            e = group[nonce]
            if nonce not in chain_nonces:
                f_slots.append(("F", e.tx.gas_price, e.seq))
        if chain:
            cum = 0
            syms = []
            for pos, e in enumerate(chain):
                cum += e.tx.value
                if cum > balance:
                    sym = "L"
                elif pos == 0:
                    sym = "P"
                else:
                    sym = "C"
                syms.append((sym, e.tx.gas_price))
            groups.append((chain[0].tx.gas_price, sender.index, syms))
    n_slots.sort(key=lambda t: (t[1], t[2]))
    f_slots.sort(key=lambda t: (t[1], t[2]))
    groups.sort(key=lambda g: (g[0], g[1]))
    slots = []
    slots.extend((s, p) for s, p, _ in n_slots)
    slots.extend((s, p) for s, p, _ in f_slots)
    for _, _, syms in groups:
        slots.extend(syms)
    slots.extend(("E", 0) for _ in range(state.policy.capacity - len(slots)))
    return tuple(slots)


def plain_cost(slots, m):
    """Reference `cost`: the slot loop over the reference's slots."""
    total = 0
    for sym, price in slots:
        if sym == "N":
            total += NORMAL_PRICE
        elif sym == "P":
            total += price
        elif sym == "C":
            total += m + 4
        # F, L, E are never chargeable.
    return total


def plain_opcost(slots, m):
    """Reference `opcost`: the slot loop over the reference's slots."""
    total = 0
    for sym, price in slots:
        if sym == "N":
            total += NORMAL_PRICE
        elif sym == "P":
            total += price
        elif sym == "C":
            total += 1
        # F, L, E stay 0.
    return total


def plain_view(slots):
    """The reference's (key, summed P price)."""
    return ("".join(sym for sym, _ in slots),
            sum(price for sym, price in slots if sym == "P"))


def run(policy_name, text, m=None):
    pol = policy_preset(policy_name)
    fill = m if m is not None else pol.capacity
    return execute_input(pol, parse_input(text), fill_count=fill)


def test_symbol_serialize_parse_roundtrip():
    for text in ("P", "P0 C1 P0 C1 C1", "F F P1 L1 O2 R1 E"):
        seq = parse_input(text)
        assert serialize_input(seq) == text


def test_parse_rejects_unknown_symbols():
    with pytest.raises(ValueError):
        parse_input("Q")


def test_symbolize_full_benign_pool():
    pol = policy_preset("geth-legacy-reduced(6)")
    state = new_pool(pol)
    fill_normal(state, 6)
    assert symbolize_state(state).key == "NNNNNN"


def test_symbolize_orders_groups_by_parent_price():
    # Two adversarial chains plus one benign survivor; groups are listed
    # ascending by parent price, parent before children.
    state, _, _, _ = run("geth-legacy-reduced(6)", "P P0 C2")
    sym = symbolize_state(state)
    assert sym.key == "NNNPCP"


def test_symbolize_marks_latent_child():
    # A child whose cumulative chain value exceeds the balance is latent.
    pol = policy_preset("geth-legacy-reduced(3)")
    state = new_pool(pol)
    a = adversarial(1)
    assert state.admit_mut(Transaction(a, 1, 1, 4)).admitted
    assert state.admit_mut(Transaction(a, 2, 3, 7)).admitted
    assert symbolize_state(state).key == "PLE"


def test_empty_slots_symbolize_as_e_padding():
    pol = policy_preset("geth-legacy-reduced(3)")
    state = new_pool(pol)
    fill_normal(state, 2)
    assert symbolize_state(state).key == "NNE"


def test_cost_and_opcost_examples():
    # Costs count a benign slot at 3, a parent at its price, a child at
    # capacity+4; only the operational cost discounts child slots to 1.
    vectors = {
        "": (9, 9, "NNN"),
        "P": (10, 10, "NNP"),
        "P C1": (14, 8, "NPC"),
        "P P0": (12, 12, "NPP"),
    }
    pol = policy_preset("geth-legacy-reduced(3)")
    for text, (c, oc, key) in vectors.items():
        seq = parse_input(text) if text else ()
        state, _, _, _ = execute_input(pol, seq, fill_count=3)
        sym = symbolize_state(state)
        assert sym.key == key, text
        assert cost(sym) == c, text
        assert opcost(sym) == oc, text


def test_enumeration_order_root():
    pol = policy_preset("geth-legacy-reduced(3)")
    state, ctx, _, _ = execute_input(pol, (), fill_count=3)
    cands = [c.serialize() for c, _ in enumerate_mutations(state, ctx)]
    assert cands == ["P", "F"]


def test_enumeration_order_with_resident_sender():
    state, ctx, _, _ = run("geth-legacy-reduced(3)", "P", m=3)
    cands = [c.serialize() for c, _ in enumerate_mutations(state, ctx)]
    assert cands == ["P0", "P1", "C1", "O1", "F"]


def test_future_pruned_when_quota_full():
    pol = policy_preset("geth-1.11-reduced(3,1,2,2)")
    state, ctx, _, _ = execute_input(pol, parse_input("F"), fill_count=3)
    cands = [c.serialize() for c, _ in enumerate_mutations(state, ctx)]
    assert "F" not in cands


def test_instantiate_infeasible_child_without_parent():
    pol = policy_preset("geth-legacy-reduced(3)")
    state = new_pool(pol)
    fill_normal(state, 3)
    ctx = InstantiationContext(capacity=3, benign_next=4)
    with pytest.raises(InfeasibleSymbol):
        instantiate(SymbolizedTx("C", 1), state, ctx)


def test_instantiate_parent_price_ladder():
    # Consecutive fresh parents take ascending prices starting at 4.
    pol = policy_preset("geth-legacy-reduced(6)")
    state, _, txs, _ = run("geth-legacy-reduced(6)", "P P P")
    assert [t.gas_price for t in txs] == [4, 5, 6]


def test_execute_input_returns_outcomes():
    state, ctx, txs, outcomes = run("geth-legacy-reduced(3)", "P O1", m=3)
    assert outcomes[0].admitted
    assert not outcomes[1].admitted
    assert len(txs) == 2


def test_offsets_do_not_change_symbolization():
    pol = policy_preset("geth-legacy-reduced(6)")
    seq = parse_input("P P0 C1 F")
    s1, _, txs, o1 = execute_input(pol, seq, 6)
    s2, o2 = admit_all(pol, relabel(txs, 6, 40, 7), 6)
    assert symbolize_state(s1).key == symbolize_state(s2).key
    assert [o.kind for o in o1] == [o.kind for o in o2]


def accepted(symtx, state, ctx):
    try:
        instantiate(symtx, state, ctx.copy())
    except InfeasibleSymbol:
        return False
    return True


def accepted_variants(state, ctx):
    """The P, L, C, O and R variants `instantiate` accepts, in the
    documented order: P_0..P_r over the r resident adversarial senders (a
    bare P when there are none), then L, C, O and R by ascending rank.
    Ranks run one past r, where nothing can be accepted."""
    r = sum(1 for s in state.by_sender if s.role is Role.ADVERSARIAL)
    ps = [SymbolizedTx("P")] if r == 0 else \
        [SymbolizedTx("P", k) for k in range(r + 1)]
    out = [c for c in ps if accepted(c, state, ctx)]
    for sym in ("L", "C", "O", "R"):
        out.extend(c for c in (SymbolizedTx(sym, i) for i in range(1, r + 2))
                   if accepted(c, state, ctx))
    return out


@BIG
@given(family=st.sampled_from(PRESET_FAMILIES), m=st.integers(3, 6),
       fill=st.booleans(),
       picks=st.lists(st.integers(0, 2 ** 16), max_size=12))
def test_candidates_are_the_variants_instantiate_accepts(family, m, fill,
                                                         picks):
    # A walk of enumerated mutations from an eviction or a locking root;
    # at each state the candidates other than F are exactly the accepted
    # variants, F comes last when offered, and each candidate carries the
    # transaction `instantiate` builds for it.
    pol = policy_preset(f"{family}-reduced({m})")
    state, ctx, _, _ = execute_input(pol, (), m if fill else 0)
    for pick in picks + [None]:
        pairs = enumerate_mutations(state, ctx)
        for cand, tx in pairs:
            assert tx == instantiate(cand, state, ctx.copy())
        cands = [cand for cand, _ in pairs]
        chain = [c for c in cands if c.symbol != "F"]
        assert chain == accepted_variants(state, ctx)
        assert cands[len(chain):] in ([], [SymbolizedTx("F")])
        # The fuzzer's seed-scoped path: one ranking for every candidate,
        # then the shared context advance.
        ranked = ranked_senders(state)
        for cand in cands:
            reference = ctx.copy()
            advanced = ctx.copy()
            assert concretize(cand, state, ctx, ranked) == \
                instantiate(cand, state, reference)
            advanced.advance(cand)
            assert advanced == reference
        if pick is None or not cands:
            break
        state.admit_mut(instantiate(cands[pick % len(cands)], state, ctx))


@BIG
@given(family=st.sampled_from(PRESET_FAMILIES), m=st.integers(3, 6),
       fill=st.booleans(),
       picks=st.lists(st.integers(0, 2 ** 16), max_size=12))
def test_symbolized_state_equals_the_slot_reference(family, m, fill, picks):
    # A walk of executed mutations from an eviction or a locking root; at
    # each pool the key, the N count and both costs read from the key and
    # the summed parent price equal the slot loops over the reference.
    pol = policy_preset(f"{family}-reduced({m})")
    state, ctx, _, _ = execute_input(pol, (), m if fill else 0)
    for pick in picks + [None]:
        sym = symbolize_state(state)
        slots = plain_symbolize_state(state)
        assert sym.key == plain_view(slots)[0]
        assert sym.count("N") == sum(1 for s, _ in slots if s == "N")
        assert cost(sym) == plain_cost(slots, m)
        assert opcost(sym) == plain_opcost(slots, m)
        cands = enumerate_mutations(state, ctx)
        if pick is None or not cands:
            break
        state.admit_mut(instantiate(cands[pick % len(cands)][0], state, ctx))


def sender_view(state):
    """Per sender: its entries and account key.  The chain cache is left
    out: filling it changes no entry, so `touched_since` does not name
    it."""
    senders = set(state.by_sender) | set(state._acct_key)
    return {s: (sorted((n, e.tx, e.is_future)
                       for n, e in state.by_sender.get(s, {}).items()),
                state._acct_key.get(s))
            for s in senders}


def check_summary(state, mark, summary, view):
    """What the fuzzer reads from `summary`, refreshed for the senders
    touched since `mark`, equals a full re-summary, the plain whole-pool
    walk and the oracle's fee sum; and `touched_since` names every sender
    that differs from `view`, the pool's per-sender view at the mark."""
    touched = state.touched_since(mark)
    now = sender_view(state)
    assert {s for s in set(now) | set(view)
            if now.get(s) != view.get(s)} <= touched
    fresh = {s: summarize_sender(state, s) for s in touched}
    merged = dict(summary.senders)
    merged.update(fresh)
    # A sender with no entry left summarizes to no slots and no fee.
    assert {s: x for s, x in merged.items() if x != (0, 0, None, 0)} == \
        {s: summarize_sender(state, s) for s in state.by_sender}
    changed = summary.state(fresh)
    assert changed == symbolize_state(state)
    assert (changed.key, changed.parent_prices) == \
        plain_view(plain_symbolize_state(state))
    assert summary.fee(fresh) == chargeable_fees(state)


@BIG
@given(family=st.sampled_from(PRESET_FAMILIES), m=st.integers(3, 6),
       fill=st.booleans(),
       steps=st.lists(st.tuples(st.integers(0, 2 ** 16),
                                st.sampled_from(("open", "probe", "close"))),
                      max_size=14))
def test_summaries_refreshed_for_touched_senders_are_exact(family, m, fill,
                                                           steps):
    # A walk of enumerated mutations, each admitted under a new mark with
    # a summary taken at that mark.  A step then goes on from the changed
    # pool, leaving its mark open, after probing it with benign arrivals
    # under a nested mark or without; or it rolls back its own mark and
    # some enclosing ones.  After each admission, probe and rollback,
    # every open mark's summary must read the pool exactly.
    pol = policy_preset(f"{family}-reduced({m})")
    state, ctx, _, _ = execute_input(pol, (), m if fill else 0)
    open_marks = []  # (mark, summary, view and context at the mark)

    def check_all():
        for mark, summary, view, _ in open_marks:
            check_summary(state, mark, summary, view)

    for pick, action in steps:
        cands = enumerate_mutations(state, ctx)
        if not cands:
            break
        cand, _ = cands[pick % len(cands)]
        tx = concretize(cand, state, ctx, ranked_senders(state))
        open_marks.append((state.mark(), PoolSummary(state),
                           sender_view(state), ctx))
        state.admit_mut(tx)
        check_all()
        if action == "probe":
            probe_declines(state, m)
            check_all()
        if action != "close":
            ctx = ctx.copy()
            ctx.advance(cand)
        else:
            for _ in range(1 + pick % len(open_marks)):
                mark, _, _, ctx = open_marks.pop()
                state.rollback(mark)
            check_all()
