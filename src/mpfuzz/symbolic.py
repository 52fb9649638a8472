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
                      MempoolState, fill_normal, new_pool)
from .txmodel import (Address, Role, Transaction, ValidityClass, WorldState,
                      adversarial, benign, classify)

STATE_SYMBOLS = ("N", "F", "P", "C", "O", "L", "R", "E")


class InfeasibleSymbol(ValueError):
    """Raised when a symbol has no concrete instantiation in context."""


@dataclass(frozen=True)
class SymbolizedTx:
    """A symbol plus an optional variant index.

    For C/O/L/R the variant selects the target sender by price rank
    (1-based, highest resident parent price first).  For P it is the
    enumeration index P_0, P_1, ...; a bare P (no resident adversarial
    senders yet) carries no variant.
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


def symbolize_tx(tx: Transaction, world: WorldState,
                 resident: List[Transaction]) -> str:
    """Symbol of an arriving transaction against the sender's residents."""
    cls = classify(tx, world, resident)
    if tx.sender.role is Role.BENIGN:
        return "F" if cls is ValidityClass.FUTURE else "N"
    if cls is ValidityClass.REPLACEMENT:
        return "R"
    if cls is ValidityClass.FUTURE:
        return "F"
    if cls is ValidityClass.OVERDRAFT:
        return "O"
    if cls is ValidityClass.LATENT_OVERDRAFT:
        return "L"
    lower = [t for t in resident if t.nonce < tx.nonce]
    return "C" if lower else "P"


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


def ranked_senders(state: MempoolState) -> List[Address]:
    """Adversarial senders with a resident pending parent, ranked by
    descending parent price (ties by sender index)."""
    ranked = []
    for sender in state.by_sender:
        if sender.role is not Role.ADVERSARIAL:
            continue
        chain = state.sender_chain_entries(sender)
        if chain:
            ranked.append((-chain[0].tx.gas_price, sender.index, sender))
    ranked.sort(key=lambda t: (t[0], t[1]))
    return [s for _, _, s in ranked]


def _chain_stats(state: MempoolState, sender: Address) -> Tuple[int, int]:
    """(next free chain nonce, cumulative chain value) for a sender."""
    chain = state.sender_chain_entries(sender)
    confirmed = state.world.confirmed_nonce(sender)
    nxt = confirmed + len(chain) + 1
    return nxt, sum(e.tx.value for e in chain)


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
    if sym == "P":
        price = 4 + ctx.p_count
        if price > m + 3:
            raise InfeasibleSymbol("P price range exhausted")
        idx = ctx.adv_next + ctx.adv_offset
        ctx.adv_next += 1
        ctx.p_count += 1
        return Transaction(adversarial(idx), 1, 1, price)
    ranked = ranked_senders(state)
    rank = symtx.variant or 1
    if rank < 1 or rank > len(ranked):
        raise InfeasibleSymbol(f"{symtx.serialize()}: no sender at rank")
    sender = ranked[rank - 1]
    balance = state.world.balance(sender)
    if sym == "R":
        group = state.by_sender.get(sender, {})
        if 1 not in group or len(group) < 2:
            raise InfeasibleSymbol("R needs a resident parent and child")
        return Transaction(sender, 1, m - 1, m + 4)
    nxt, chain_sum = _chain_stats(state, sender)
    if (sender, nxt) in state.entries:
        raise InfeasibleSymbol(f"{sym}: next nonce already resident")
    if sym == "C":
        if chain_sum + 1 > balance:
            raise InfeasibleSymbol("C would arrive latently overdrafting")
        return Transaction(sender, nxt, 1, m + 4)
    if sym == "O":
        return Transaction(sender, nxt, m + 1, m + 4)
    if sym == "L":
        if chain_sum + (m - 1) <= balance or m - 1 > balance:
            raise InfeasibleSymbol("L would not be a latent overdraft")
        return Transaction(sender, nxt, m - 1, m + 4)
    raise InfeasibleSymbol(f"cannot instantiate symbol {sym!r}")


def enumerate_mutations(state: MempoolState,
                        ctx: InstantiationContext) -> List[SymbolizedTx]:
    """Deterministic candidate symbols for the next input position.

    Base order P, L, C, O, R, F; variant indices ascending; guaranteed
    declines (F beyond quota or against a guarded full pool) are pruned.
    """
    pol = state.policy
    m = ctx.capacity
    out: List[SymbolizedTx] = []
    adv_senders = [s for s in state.by_sender
                   if s.role is Role.ADVERSARIAL]
    r = len(adv_senders)
    if 4 + ctx.p_count <= m + 3:
        if r == 0:
            out.append(SymbolizedTx("P"))
        else:
            out.extend(SymbolizedTx("P", k) for k in range(r + 1))
    ranked = ranked_senders(state)
    feasible = {"L": [], "C": [], "O": [], "R": []}
    for i, sender in enumerate(ranked, start=1):
        balance = state.world.balance(sender)
        nxt, chain_sum = _chain_stats(state, sender)
        free = (sender, nxt) not in state.entries
        if free and chain_sum + (m - 1) > balance and m - 1 <= balance:
            feasible["L"].append(i)
        if free and chain_sum + 1 <= balance:
            feasible["C"].append(i)
        if free:
            feasible["O"].append(i)
        group = state.by_sender.get(sender, {})
        if 1 in group and len(group) >= 2:
            feasible["R"].append(i)
    for sym in ("L", "C", "O", "R"):
        out.extend(SymbolizedTx(sym, i) for i in feasible[sym])
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
