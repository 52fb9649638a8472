"""Symbol-level abstraction over transactions and pool states.

Concrete transactions collapse into a small alphabet: N (benign pending),
F (future), P (adversarial parent), C (chain child), O (overdraft),
L (latent overdraft), R (replacement), E (empty slot).  Fuzzing explores
sequences of symbols instead of raw transactions; this module maps both
directions and prices the states the fuzzer ranks.  A pool symbolizes to
a word with one letter per slot and the summed price of its parents:
coverage reads the word, and the ranking its letter counts and that sum.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

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
    so P_0..P_r from one seed instantiate the same transaction.
    `enumerate_mutations` carries each candidate's transaction, and the
    fuzzer judges a repeated transaction once per seed and replays that
    result for the repeats.
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
    """A pool's symbolized state: what the search covers and ranks.

    `key` has one letter per slot.  The state alphabet is N F P C L E:
    `summarize_sender` gives each resident slot one of N, F, P, C and L,
    and `PoolSummary.state` pads with E; the transaction symbols O and R
    never name a slot.  The order is N slots, then F slots, then the
    adversarial sender groups by ascending parent price (ties by sender
    index), each its parent first and children in nonce order, then E
    padding.  `parent_prices` is the summed gas price of the P slots,
    the one price that `cost` and `opcost` read.
    """

    key: str
    parent_prices: int
    capacity: int

    def count(self, symbol: str) -> int:
        return self.key.count(symbol)


class SenderSummary(NamedTuple):
    """What one sender contributes to its pool's symbolized state.

    `n` and `f` count its N and F slots.  `group` is an adversarial
    sender's (parent price, index, word) when it has a pending chain,
    else None; the word is the chain's symbols, P first, and the parent
    price is its first transaction's gas price.  `fee` is the fee of the
    sender's non-L chain prefix, its part of `oracle.chargeable_fees`.
    """

    n: int
    f: int
    group: Optional[Tuple[int, int, str]]
    fee: int


_NO_SLOTS = SenderSummary(0, 0, None, 0)


def summarize_sender(state: MempoolState, sender: Address) -> SenderSummary:
    """The sender's summary; it reads only the sender's entries and its
    world account."""
    group = state.by_sender.get(sender)
    if not group:
        return _NO_SLOTS
    chain = state.sender_chain_entries(sender)
    balance = state.world.balance(sender)
    cum = fee = 0
    word = []
    for pos, e in enumerate(chain):
        cum += e.tx.value
        if cum > balance:
            word.append("L")
        else:
            fee += e.tx.fee()
            word.append("P" if pos == 0 else "C")
    if sender.role is Role.BENIGN:
        f = sum(1 for e in group.values() if e.is_future)
        return SenderSummary(len(group) - f, f, None, fee)
    # Every entry off the pending chain is an F slot.
    return SenderSummary(
        0, len(group) - len(chain),
        (chain[0].tx.gas_price, sender.index, "".join(word))
        if chain else None,
        fee)


def symbolize_state(state: MempoolState) -> SymbolizedState:
    """The pool's symbolized state: the merge of every sender's summary."""
    return PoolSummary(state).state({})


class PoolSummary:
    """The sender summaries of one pool, taken once, and what the pool
    symbolizes to after a change that touched only a few senders.

    A change is given as `fresh`, the summaries of the senders it touched
    taken after it; every other sender keeps its summary.
    """

    def __init__(self, state: MempoolState):
        self.capacity = state.policy.capacity
        self.senders = {s: summarize_sender(state, s)
                        for s in state.by_sender}
        kept = self.senders.values()
        self.n = sum(x.n for x in kept)
        self.f = sum(x.f for x in kept)
        self.fee_sum = sum(x.fee for x in kept)
        # Sorted by (parent price, index); no two groups share an index.
        self.groups = sorted(x.group for x in kept if x.group is not None)

    def state(self, fresh: Dict[Address, SenderSummary]) -> SymbolizedState:
        """`symbolize_state` of the changed pool."""
        n, f, groups = self.n, self.f, self.groups
        gone: Set[int] = set()
        added = []
        for sender, new in fresh.items():
            old = self.senders.get(sender, _NO_SLOTS)
            n += new.n - old.n
            f += new.f - old.f
            if old.group is not None:
                gone.add(old.group[1])
            if new.group is not None:
                added.append(new.group)
        if gone or added:
            groups = sorted([g for g in groups if g[1] not in gone] + added)
        word = "".join(g[2] for g in groups)
        # A group's first slot is its P, or an L when the parent itself
        # overdraws.
        return SymbolizedState(
            "N" * n + "F" * f + word + "E" * (self.capacity - n - f -
                                              len(word)),
            sum(g[0] for g in groups if g[2][0] == "P"), self.capacity)

    def fee(self, fresh: Dict[Address, SenderSummary]) -> int:
        """`oracle.chargeable_fees` of the changed pool."""
        return self.fee_sum + sum(
            new.fee - self.senders.get(sender, _NO_SLOTS).fee
            for sender, new in fresh.items())


def cost(st: SymbolizedState) -> int:
    """Gas-price total a full-damage attacker would pay for this state:
    each N at the benign price, each P at its own price and each C at
    capacity+4.  F, L and E are never chargeable."""
    return NORMAL_PRICE * st.count("N") + st.parent_prices + \
        (st.capacity + 4) * st.count("C")


def opcost(st: SymbolizedState) -> int:
    """Optimistic cost: `cost` with each turnable C at its floor, 1."""
    return NORMAL_PRICE * st.count("N") + st.parent_prices + st.count("C")


# -- instantiation ---------------------------------------------------------

@dataclass
class InstantiationContext:
    """Replayable counters that make symbol instantiation deterministic."""

    capacity: int
    benign_next: int = 1
    adv_next: int = 1
    p_count: int = 0

    def copy(self) -> "InstantiationContext":
        return InstantiationContext(self.capacity, self.benign_next,
                                    self.adv_next, self.p_count)

    def advance(self, symtx: SymbolizedTx) -> None:
        """Move the counters past an instantiation of `symtx`: N takes a
        fresh benign sender, F and P a fresh adversarial one, and P the
        next price of its ladder."""
        sym = symtx.symbol
        if sym == "N":
            self.benign_next += 1
        elif sym in ("F", "P"):
            self.adv_next += 1
            if sym == "P":
                self.p_count += 1


def ranked_senders(state: MempoolState
                   ) -> List[Tuple[Address, List[PoolEntry]]]:
    """Adversarial senders with a resident pending parent, each with its
    pending chain, ranked by descending parent price (ties by sender
    index).  No two senders are equal, so no two chains are compared."""
    ranked = []
    for sender in state.by_sender:
        if sender.role is not Role.ADVERSARIAL:
            continue
        chain = state.sender_chain_entries(sender)
        if chain:
            ranked.append((-chain[0].tx.gas_price, sender, chain))
    ranked.sort()
    return [(s, chain) for _, s, chain in ranked]


def concretize(symtx: SymbolizedTx, state: MempoolState,
               ctx: InstantiationContext,
               ranked: List[Tuple[Address, List[PoolEntry]]]
               ) -> Optional[Transaction]:
    """The transaction a symbol concretizes to, or None when it has none
    (always for E).  Reads `ctx` without advancing it; `ranked` is
    `ranked_senders(state)`, read only by L, C, O and R.

    N is a benign single from a fresh sender and F an adversarial future
    from a fresh sender.  P is a fresh parent at the next price of the
    ladder 4..m+3.  L, C, O and R aim at the sender of their rank (a bare
    symbol means rank 1): L, C and O append at the sender's next chain
    nonce, which must be free, as a latent overdraft, an affordable child
    and an overdraft; R replaces the sender's nonce 1 when it has another
    resident.
    """
    m = ctx.capacity
    sym = symtx.symbol
    if sym == "N":
        return Transaction(benign(ctx.benign_next), 1, NORMAL_VALUE,
                           NORMAL_PRICE)
    if sym == "F":
        return Transaction(adversarial(ctx.adv_next), m + 1, 1, m + 4)
    if sym == "P":
        price = 4 + ctx.p_count
        if price > m + 3:
            return None
        return Transaction(adversarial(ctx.adv_next), 1, 1, price)
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
    tx = concretize(symtx, state, ctx,
                    [] if symtx.symbol in ("N", "F", "P")
                    else ranked_senders(state))
    if tx is None:
        raise InfeasibleSymbol(f"{symtx.serialize()} has no transaction "
                               f"in this state")
    ctx.advance(symtx)
    return tx


def enumerate_mutations(state: MempoolState, ctx: InstantiationContext
                        ) -> List[Tuple[SymbolizedTx, Transaction]]:
    """Deterministic candidates for the next input position, each with
    the transaction it concretizes to here.

    Base order P, L, C, O, R, F; variant indices ascending.  A P, L, C,
    O or R variant is a candidate exactly when `instantiate` accepts it
    here, and its transaction is the one `instantiate` builds.  P is
    offered as P_0..P_r when r adversarial senders are resident, bare
    when none are; every P_k carries the same transaction object, and
    the fuzzer judges it once per seed and replays that result for the
    repeats.  Guaranteed declines (F beyond quota or against a guarded
    full pool) are pruned.
    """
    pol = state.policy
    ranked = ranked_senders(state)
    out: List[Tuple[SymbolizedTx, Transaction]] = []
    p_tx = concretize(SymbolizedTx("P"), state, ctx, ranked)
    if p_tx is not None:
        r = sum(1 for s in state.by_sender if s.role is Role.ADVERSARIAL)
        out.extend([(SymbolizedTx("P"), p_tx)] if r == 0 else
                   [(SymbolizedTx("P", k), p_tx) for k in range(r + 1)])
    for sym in ("L", "C", "O", "R"):
        for i in range(1, len(ranked) + 1):
            cand = SymbolizedTx(sym, i)
            tx = concretize(cand, state, ctx, ranked)
            if tx is not None:
                out.append((cand, tx))
    future_ok = state.future_count < pol.future_quota
    if future_ok and len(state.entries) >= pol.capacity and \
            pol.future_eviction_guard:
        future_ok = False
    if future_ok:
        f = SymbolizedTx("F")
        out.append((f, concretize(f, state, ctx, ranked)))
    return out


def execute_input(policy: MempoolPolicy, seq: Sequence[SymbolizedTx],
                  fill_count: int = 0):
    """Instantiate and admit a symbol sequence against a fresh pool.

    Returns (state, ctx, txs, outcomes).  The pool is pre-filled with
    `fill_count` benign transactions before the sequence runs.
    """
    state = new_pool(policy)
    fill_normal(state, fill_count)
    ctx = InstantiationContext(capacity=policy.capacity,
                               benign_next=fill_count + 1)
    txs: List[Transaction] = []
    outcomes = []
    for symtx in seq:
        tx = instantiate(symtx, state, ctx)
        out = state.admit_mut(tx)
        txs.append(tx)
        outcomes.append(out)
    return state, ctx, txs, outcomes
