"""Symbol-level abstraction over transactions and pool states.

Concrete transactions collapse into a small alphabet: N (benign pending),
F (future), P (adversarial parent), C (chain child), O (overdraft),
L (latent overdraft), R (replacement), E (empty slot).  Fuzzing explores
sequences of symbols instead of raw transactions; this module maps both
directions and prices the states the fuzzer ranks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .mempool import (NORMAL_PRICE, NORMAL_VALUE, MempoolPolicy,
                      MempoolState, PoolEntry, fill_normal, new_pool)
from .txmodel import Address, Role, Transaction, adversarial, benign


class InfeasibleSymbol(ValueError):
    """Raised when a symbol has no concrete instantiation in context."""


@dataclass(frozen=True)
class SymbolizedTx:
    """A symbol plus an optional variant index.

    For C/O/L/R the variant selects the target sender by price rank
    (1-based, highest resident parent price first).  For P it is the
    enumeration index P_0, P_1, ...; a bare P (no resident adversarial
    senders yet) carries no variant.  `instantiate` ignores a P variant,
    so P_0..P_r from one seed instantiate the same transaction and reach
    the same state; that is one source of duplicate exploits.
    """

    symbol: str
    variant: Optional[int] = None

    def serialize(self) -> str:
        if self.variant is None:
            return self.symbol
        return f"{self.symbol}{self.variant}"

    @staticmethod
    def parse(token: str) -> "SymbolizedTx":
        m = re.fullmatch(r"([NFPCOLRE])(\d*)", token.strip())
        if not m:
            raise ValueError(f"bad symbol token: {token!r}")
        sym, idx = m.group(1), m.group(2)
        return SymbolizedTx(sym, int(idx) if idx else None)


def serialize_input(seq: Sequence[SymbolizedTx]) -> str:
    return " ".join(t.serialize() for t in seq)


def parse_input(text: str) -> Tuple[SymbolizedTx, ...]:
    return tuple(SymbolizedTx.parse(tok) for tok in text.split())


@dataclass(frozen=True)
class SymbolizedState:
    """Canonically ordered symbol list with per-slot price annotations.

    Order: N slots, then F slots, then adversarial sender groups sorted
    by parent price ascending (parent first, children in nonce order),
    then E padding.
    """

    slots: Tuple[Tuple[str, int], ...]
    capacity: int

    def key(self) -> str:
        return "".join(s for s, _ in self.slots)

    def serialize(self) -> str:
        return " ".join(s for s, _ in self.slots)

    def count(self, symbol: str) -> int:
        return sum(1 for s, _ in self.slots if s == symbol)


def symbolize_state(state: MempoolState) -> SymbolizedState:
    n_slots: List[Tuple[str, int, int]] = []
    f_slots: List[Tuple[str, int, int]] = []
    groups: List[Tuple[int, int, List[Tuple[str, int]]]] = []
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
            syms: List[Tuple[str, int]] = []
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
    slots: List[Tuple[str, int]] = []
    slots.extend((s, p) for s, p, _ in n_slots)
    slots.extend((s, p) for s, p, _ in f_slots)
    for _, _, syms in groups:
        slots.extend(syms)
    slots.extend(("E", 0) for _ in range(state.policy.capacity - len(slots)))
    return SymbolizedState(tuple(slots), state.policy.capacity)


def cost(st: SymbolizedState) -> int:
    """Gas-price total a full-damage attacker would pay for this state."""
    m = st.capacity
    total = 0
    for sym, price in st.slots:
        if sym == "N":
            total += NORMAL_PRICE
        elif sym == "P":
            total += price
        elif sym in ("C", "R"):
            total += m + 4
        # F, O, L, E are never chargeable.
    return total


def opcost(st: SymbolizedState) -> int:
    """Optimistic cost: turnable children are priced at their floor."""
    m = st.capacity
    total = 0
    for sym, price in st.slots:
        if sym == "N":
            total += NORMAL_PRICE
        elif sym == "P":
            total += price
        elif sym == "C":
            total += 1
        # R drops to 0 optimistically; F, O, L, E stay 0.
    return total


# -- instantiation ---------------------------------------------------------

@dataclass
class InstantiationContext:
    """Replayable counters that make symbol instantiation deterministic.

    `benign_offset` / `adv_offset` relabel fresh sender indices without
    changing any price or value; symbol-level behavior is index-blind.
    """

    capacity: int
    benign_next: int = 1
    adv_next: int = 1
    p_count: int = 0
    benign_offset: int = 0
    adv_offset: int = 0

    def copy(self) -> "InstantiationContext":
        return InstantiationContext(self.capacity, self.benign_next,
                                    self.adv_next, self.p_count,
                                    self.benign_offset, self.adv_offset)


def ranked_senders(state: MempoolState
                   ) -> List[Tuple[Address, List[PoolEntry]]]:
    """Adversarial senders with a resident pending parent, each with its
    pending chain, ranked by descending parent price (ties by sender
    index)."""
    ranked = []
    for sender in state.by_sender:
        if sender.role is not Role.ADVERSARIAL:
            continue
        chain = state.sender_chain_entries(sender)
        if chain:
            ranked.append((-chain[0].tx.gas_price, sender.index, sender,
                           chain))
    ranked.sort(key=lambda t: (t[0], t[1]))
    return [(s, chain) for _, _, s, chain in ranked]


def _concretize(symtx: SymbolizedTx, state: MempoolState,
                ctx: InstantiationContext,
                ranked: List[Tuple[Address, List[PoolEntry]]]
                ) -> Optional[Transaction]:
    """The transaction a P, L, C, O or R symbol concretizes to, or None
    when it has none (always for E).  Reads `ctx` without advancing it;
    `ranked` is `ranked_senders(state)`.

    P is a fresh parent at the next price of the ladder 4..m+3.  L, C, O
    and R aim at the sender of their rank (a bare symbol means rank 1):
    L, C and O append at the sender's next chain nonce, which must be
    free, as a latent overdraft, an affordable child and an overdraft;
    R replaces the sender's nonce 1 when it has another resident.
    """
    m = ctx.capacity
    sym = symtx.symbol
    if sym == "P":
        price = 4 + ctx.p_count
        if price > m + 3:
            return None
        return Transaction(adversarial(ctx.adv_next + ctx.adv_offset), 1, 1,
                           price)
    rank = symtx.variant or 1
    if not 1 <= rank <= len(ranked):
        return None
    sender, chain = ranked[rank - 1]
    if sym == "R":
        group = state.by_sender[sender]
        if 1 not in group or len(group) < 2:
            return None
        return Transaction(sender, 1, m - 1, m + 4)
    nxt = state.world.confirmed_nonce(sender) + len(chain) + 1
    if (sender, nxt) in state.entries:
        return None
    balance = state.world.balance(sender)
    chain_sum = sum(e.tx.value for e in chain)
    if sym == "C":
        value = 1
        if chain_sum + value > balance:
            return None
    elif sym == "L":
        value = m - 1
        if chain_sum + value <= balance or value > balance:
            return None
    elif sym == "O":
        value = m + 1
    else:
        return None
    return Transaction(sender, nxt, value, m + 4)


def instantiate(symtx: SymbolizedTx, state: MempoolState,
                ctx: InstantiationContext) -> Transaction:
    """Concretize a symbol in context; advances ctx counters.

    Raises InfeasibleSymbol when no transaction fits the pattern (for
    example a chain child without a resident parent).
    """
    m = ctx.capacity
    sym = symtx.symbol
    if sym == "N":
        idx = ctx.benign_next + ctx.benign_offset
        ctx.benign_next += 1
        return Transaction(benign(idx), 1, NORMAL_VALUE, NORMAL_PRICE)
    if sym == "F":
        idx = ctx.adv_next + ctx.adv_offset
        ctx.adv_next += 1
        return Transaction(adversarial(idx), m + 1, 1, m + 4)
    tx = _concretize(symtx, state, ctx,
                     [] if sym == "P" else ranked_senders(state))
    if tx is None:
        raise InfeasibleSymbol(f"{symtx.serialize()} has no transaction "
                               f"in this state")
    if sym == "P":
        ctx.adv_next += 1
        ctx.p_count += 1
    return tx


def enumerate_mutations(state: MempoolState,
                        ctx: InstantiationContext) -> List[SymbolizedTx]:
    """Deterministic candidate symbols for the next input position.

    Base order P, L, C, O, R, F; variant indices ascending.  A P, L, C,
    O or R variant is a candidate exactly when `instantiate` accepts it
    here.  P is offered as P_0..P_r when r adversarial senders are
    resident, bare when none are.  Guaranteed declines (F beyond quota or
    against a guarded full pool) are pruned.
    """
    pol = state.policy
    ranked = ranked_senders(state)
    out: List[SymbolizedTx] = []
    if _concretize(SymbolizedTx("P"), state, ctx, ranked) is not None:
        r = sum(1 for s in state.by_sender if s.role is Role.ADVERSARIAL)
        out.extend([SymbolizedTx("P")] if r == 0 else
                   [SymbolizedTx("P", k) for k in range(r + 1)])
    for sym in ("L", "C", "O", "R"):
        for i in range(1, len(ranked) + 1):
            cand = SymbolizedTx(sym, i)
            if _concretize(cand, state, ctx, ranked) is not None:
                out.append(cand)
    future_ok = state.future_count < pol.future_quota
    if future_ok and len(state.entries) >= pol.capacity and \
            pol.future_eviction_guard:
        future_ok = False
    if future_ok:
        out.append(SymbolizedTx("F"))
    return out


def execute_input(policy: MempoolPolicy, seq: Sequence[SymbolizedTx],
                  fill_count: int = 0,
                  benign_offset: int = 0, adv_offset: int = 0):
    """Instantiate and admit a symbol sequence against a fresh pool.

    Returns (state, ctx, txs, outcomes).  The pool is pre-filled with
    `fill_count` benign transactions before the sequence runs.
    """
    state = new_pool(policy)
    fill_normal(state, fill_count)
    ctx = InstantiationContext(capacity=policy.capacity,
                               benign_next=fill_count + 1,
                               benign_offset=benign_offset,
                               adv_offset=adv_offset)
    txs: List[Transaction] = []
    outcomes = []
    for symtx in seq:
        tx = instantiate(symtx, state, ctx)
        out = state.admit_mut(tx)
        txs.append(tx)
        outcomes.append(out)
    return state, ctx, txs, outcomes
