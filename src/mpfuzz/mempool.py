"""Deterministic mempool admission policies.

A pool is a bounded set of slots governed by an admission pipeline.  An
arrival is checked, in order, as a replacement, then for a stale nonce,
an overdraft, a future nonce (the future quota, then a slot or a
victim), the latent-overdraft guard and the sender limit; a pending
arrival then takes a free slot or (when full) one the eviction rule
frees, and a turning rule handles descendants orphaned by an eviction.
Policies are behavioral models of deployed clients; presets are validated
by which attack patterns succeed against them, not by code-level fidelity.
"""

from __future__ import annotations

import enum
import heapq
import json
import re
from dataclasses import dataclass, fields, replace
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Set, Tuple, get_type_hints)

from .txmodel import GAS_PER_TX, Address, Transaction, WorldState, benign

NORMAL_PRICE = 3
NORMAL_VALUE = 1


class EvictionRule(enum.Enum):
    PRICE_ANY = "PriceAny"
    PRICE_CHILDLESS_ONLY = "PriceChildlessOnly"
    ACCOUNT_MIN_PRICE = "AccountMinPrice"
    NONE = "None"


class TurningRule(enum.Enum):
    DEMOTE_TO_FUTURE = "DemoteToFuture"
    DROP_DESCENDANTS = "DropDescendants"


class DeclineReason(enum.Enum):
    FULL_NO_VICTIM = "FullNoVictim"
    QUOTA_FUTURE = "QuotaFuture"
    SENDER_LIMIT = "SenderLimit"
    PRICE_TOO_LOW = "PriceTooLow"
    OVERDRAFT_GUARD = "OverdraftGuard"
    REVERSAL_GUARD = "ReversalGuard"
    OVERDRAFT = "Overdraft"
    LATENT_GUARD = "LatentGuard"
    STALE_NONCE = "StaleNonce"


@dataclass(frozen=True)
class MempoolPolicy:
    name: str
    capacity: int
    future_quota: int
    sender_limit: int
    sender_limit_threshold: int
    eviction_rule: EvictionRule
    turning_rule: TurningRule
    replacement_allowed: bool = True
    replacement_overdraft_guard: bool = False
    reversal_guard: bool = False
    future_eviction_guard: bool = False
    latent_admission_guard: bool = False

    def __post_init__(self):
        for name, typ in _POLICY_TYPES.items():
            v = getattr(self, name)
            if type(v) is not typ:
                raise ValueError(f"policy {self.name}: field {name} must be "
                                 f"{typ.__name__}, got {v!r}")
        if self.capacity < 1:
            raise ValueError(f"policy {self.name}: capacity must be at "
                             f"least 1, got {self.capacity}")
        for fld in ("future_quota", "sender_limit", "sender_limit_threshold"):
            if getattr(self, fld) < 0:
                raise ValueError(f"policy {self.name}: {fld} must not be "
                                 f"negative, got {getattr(self, fld)}")

    def to_json(self) -> dict:
        """Every field by name, an enum field as its value."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = v.value if isinstance(v, enum.Enum) else v
        return out

    @staticmethod
    def from_json(obj: dict) -> "MempoolPolicy":
        """The policy of a `to_json` record.  An enum field is read from
        its value; the constructor checks every field's type, so neither
        `true` nor `6.9` is an int, `"false"` is no bool, and a value
        naming no rule stays a string.  A bad value raises ValueError
        naming the field, a missing one KeyError."""
        kwargs = {}
        for name, typ in _POLICY_TYPES.items():
            v = obj[name]
            if issubclass(typ, enum.Enum):
                try:
                    v = typ(v)
                except ValueError:
                    pass
            kwargs[name] = v
        return MempoolPolicy(**kwargs)


# Each policy field's type, which the constructor requires exactly: a
# bool is no int, and a rule's value is no rule.
_POLICY_TYPES: Dict[str, type] = get_type_hints(MempoolPolicy)


@dataclass(slots=True)
class PoolEntry:
    tx: Transaction
    seq: int
    is_future: bool = False


@dataclass
class AdmissionOutcome:
    kind: str  # Admitted | AdmittedReplacing | AdmittedEvicting | Declined
    reason: Optional[DeclineReason] = None

    @property
    def admitted(self) -> bool:
        return self.kind != "Declined"


# A sender's chain state: (confirmed nonce, run length, run value, pending
# prefix length).  The run is the gap-free resident nonces from confirmed+1,
# futures included; the pending prefix is its leading non-future part.
ChainState = Tuple[int, int, int, int]

# Undo records of the journal, each (kind, entry).
_UNDO_INSERT, _UNDO_REMOVE, _UNDO_FLIP = range(3)


class Mark(NamedTuple):
    """A point that `MempoolState.rollback` returns the pool to: the
    length of the undo log, the counters, and copies of the victim heaps
    and of `_acct_key`."""
    undo_len: int
    seq: int
    future_count: int
    benign_auto: int
    heaps: Tuple[list, list, list, list]
    acct_key: Dict[Address, Tuple[int, int]]


class MempoolState:
    """Mutable pool representation; `admit_mut` admits in place.

    `entries` and `by_sender` hold the slots.  Beside them the pool keeps
    indexes so that a full-pool admission never scans the pool: it costs
    O(log m) amortized, plus the victim sender's own entries under
    `AccountMinPrice`.  Only the index of the policy's own eviction rule
    is built.  Each
    victim index is a lazy min-heap: a record that no longer describes a
    candidate stays until it reaches the top, where it is popped.

    - `PriceAny`: `_heap_pending` and `_heap_future` hold a (price, seq,
      sender, nonce) record of every pending and every future entry.
    - `PriceChildlessOnly`: `_heap_childless` holds a (price, seq, sender,
      nonce) record of every childless entry.  An entry is pushed on
      insert when nonce+1 is absent, and a parent again when its child
      leaves, so popping a parent's record while it has a child is safe.
    - `AccountMinPrice`: `_acct_key` maps each resident sender to (min
      price, first seq) over its entries, and `_heap_acct` holds a (min
      price, first seq, sender) record of each sender's current pair.

    Two records that tie on (price, seq) name the same entry or sender, so
    ordering records never compares two senders.

    `_chain` maps some resident senders to their `ChainState`, which
    always equals a fresh walk of the sender's entries.  Appending at the
    top of the run or removing from there updates it in O(1).  A removal
    inside the run, an arrival that closes a gap, or a confirmed-nonce
    move drops it, and the next read walks the chain once.  Turning
    demotes only entries above the pending prefix, which changes none of
    its four figures.  Admission decides from `_chain_state`, and every
    reader of a sender's pending prefix (`sender_chain_entries`, turning)
    takes its length from there.

    `mark()` opens a mark and `rollback(mark)` returns the pool to it;
    marks nest, and the innermost open one is rolled back first.  While a
    mark is open the pool journals only its entries: an undo log records
    every entry inserted or removed and every `is_future` flip from
    turning.  The mark itself holds `seq`, `future_count`, `_benign_auto`
    and a copy of each victim heap and of `_acct_key`.  `_chain` is
    neither journaled nor copied: it is a cache, so a rollback drops the
    cached state of every sender whose entries it restores, and keeps the
    rest, whose entries are as they were.  That covers all an admission
    writes; `build_block`, which also writes the world, refuses to run
    under a mark.
    """

    def __init__(self, policy: MempoolPolicy, world: WorldState):
        self.policy = policy
        self.world = world
        self.entries: Dict[Tuple[Address, int], PoolEntry] = {}
        self.by_sender: Dict[Address, Dict[int, PoolEntry]] = {}
        self.seq = 0
        self.future_count = 0
        self._benign_auto = 0
        self._heap_pending: List[Tuple[int, int, Address, int]] = []
        self._heap_future: List[Tuple[int, int, Address, int]] = []
        self._heap_childless: List[Tuple[int, int, Address, int]] = []
        self._acct_key: Dict[Address, Tuple[int, int]] = {}
        self._heap_acct: List[Tuple[int, int, Address]] = []
        self._chain: Dict[Address, ChainState] = {}
        self._marks: List[Mark] = []
        self._undo: Optional[list] = None

    # -- bookkeeping -----------------------------------------------------

    def clone(self) -> "MempoolState":
        """An independent copy; its chain cache starts empty.  The tests'
        reference copy: the program calls none, and its searches move one
        pool between paths with `walk`."""
        st = MempoolState(self.policy, self.world.copy())
        for k, e in self.entries.items():
            ne = PoolEntry(e.tx, e.seq, e.is_future)
            st.entries[k] = ne
            st.by_sender.setdefault(k[0], {})[k[1]] = ne
        st.seq = self.seq
        st.future_count = self.future_count
        st._benign_auto = self._benign_auto
        # A record names an entry by seq, and the copy keeps every seq, so
        # each record means in the copy what it means here.
        st._heap_pending = self._heap_pending.copy()
        st._heap_future = self._heap_future.copy()
        st._heap_childless = self._heap_childless.copy()
        st._acct_key = self._acct_key.copy()
        st._heap_acct = self._heap_acct.copy()
        return st

    def mark(self) -> Mark:
        """Open a mark: the pool can be rolled back to this point."""
        if self._undo is None:
            self._undo = []
        mark = Mark(len(self._undo), self.seq, self.future_count,
                    self._benign_auto,
                    (self._heap_pending.copy(), self._heap_future.copy(),
                     self._heap_childless.copy(), self._heap_acct.copy()),
                    self._acct_key.copy())
        self._marks.append(mark)
        return mark

    def rollback(self, mark: Mark) -> None:
        """Undo everything since `mark`, the innermost open mark, and
        close it."""
        if not self._marks or self._marks[-1] is not mark:
            raise ValueError("rollback to a mark that is not the innermost "
                             "open one")
        self._marks.pop()
        undo = self._undo
        entries, by_sender, chain = self.entries, self.by_sender, self._chain
        while len(undo) > mark.undo_len:
            kind, e = undo.pop()
            sender, nonce = e.tx.sender, e.tx.nonce
            chain.pop(sender, None)
            if kind == _UNDO_FLIP:
                e.is_future = not e.is_future
            elif kind == _UNDO_INSERT:
                del entries[(sender, nonce)]
                group = by_sender[sender]
                del group[nonce]
                if not group:
                    del by_sender[sender]
            else:
                entries[(sender, nonce)] = e
                by_sender.setdefault(sender, {})[nonce] = e
        self.seq = mark.seq
        self.future_count = mark.future_count
        self._benign_auto = mark.benign_auto
        (self._heap_pending, self._heap_future, self._heap_childless,
         self._heap_acct) = mark.heaps
        self._acct_key = mark.acct_key
        if not self._marks:
            self._undo = None

    def touched_since(self, mark: Mark) -> Set[Address]:
        """The senders named in the undo log since `mark`, an open mark:
        every sender with an entry inserted, removed or flipped since.
        The entries of any other sender are as they were at the mark."""
        return {e.tx.sender for _, e in self._undo[mark.undo_len:]}

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def pending_count(self) -> int:
        return len(self.entries) - self.future_count

    def txs(self) -> List[Transaction]:
        return [e.tx for e in self.entries.values()]

    def sender_chain_entries(self, sender: Address) -> List[PoolEntry]:
        """The sender's pending prefix: its gap-free run of non-future
        entries from confirmed+1, as long as `_chain_state` says."""
        group = self.by_sender.get(sender)
        if not group:
            return []
        confirmed, _, _, prefix = self._chain_state(sender)
        return [group[n] for n in range(confirmed + 1, confirmed + prefix + 1)]

    def _chain_state(self, sender: Address) -> ChainState:
        """The sender's `ChainState`: the cached one, or a walk of its
        entries, cached while the sender has any."""
        state = self._chain.get(sender)
        if state is not None:
            return state
        group = self.by_sender.get(sender, {})
        confirmed = self.world.confirmed_nonce(sender)
        n = confirmed + 1
        value = 0
        prefix = -1
        while n in group:
            e = group[n]
            if prefix < 0 and e.is_future:
                prefix = n - confirmed - 1
            value += e.tx.value
            n += 1
        run = n - confirmed - 1
        state = (confirmed, run, value, run if prefix < 0 else prefix)
        if group:
            self._chain[sender] = state
        return state

    def _insert(self, tx: Transaction, is_future: bool) -> PoolEntry:
        sender, nonce, price = tx.sender, tx.nonce, tx.gas_price
        e = PoolEntry(tx, self.seq, is_future)
        self.seq += 1
        self.entries[(sender, nonce)] = e
        group = self.by_sender.setdefault(sender, {})
        group[nonce] = e
        if is_future:
            self.future_count += 1
        if self._undo is not None:
            self._undo.append((_UNDO_INSERT, e))
        chain = self._chain.get(sender)
        if chain is not None:
            confirmed, run, value, prefix = chain
            if nonce == confirmed + run + 1:
                if nonce + 1 in group:
                    # The arrival closes a gap: the run now reaches past it.
                    del self._chain[sender]
                else:
                    self._chain[sender] = (
                        confirmed, run + 1, value + tx.value,
                        prefix + 1 if prefix == run and not is_future
                        else prefix)
        rule = self.policy.eviction_rule
        if rule is EvictionRule.PRICE_ANY:
            heapq.heappush(self._heap_future if is_future
                           else self._heap_pending,
                           (price, e.seq, sender, nonce))
        elif rule is EvictionRule.PRICE_CHILDLESS_ONLY:
            if nonce + 1 not in group:
                heapq.heappush(self._heap_childless,
                               (price, e.seq, sender, nonce))
        elif rule is EvictionRule.ACCOUNT_MIN_PRICE:
            key = self._acct_key.get(sender)
            # A new entry's seq is the sender's largest, so only a first
            # entry or a lower price moves the pair.
            if key is None or price < key[0]:
                key = (price, e.seq if key is None else key[1])
                self._acct_key[sender] = key
                heapq.heappush(self._heap_acct, (key[0], key[1], sender))
        return e

    def _remove(self, e: PoolEntry) -> None:
        tx = e.tx
        sender, nonce = tx.sender, tx.nonce
        del self.entries[(sender, nonce)]
        group = self.by_sender[sender]
        del group[nonce]
        if not group:
            del self.by_sender[sender]
        if e.is_future:
            self.future_count -= 1
        if self._undo is not None:
            self._undo.append((_UNDO_REMOVE, e))
        chain = self._chain.get(sender)
        if chain is not None:
            confirmed, run, value, prefix = chain
            if not group or confirmed < nonce < confirmed + run:
                del self._chain[sender]
            elif run and nonce == confirmed + run:
                self._chain[sender] = (confirmed, run - 1, value - tx.value,
                                       min(prefix, run - 1))
        rule = self.policy.eviction_rule
        if rule is EvictionRule.PRICE_CHILDLESS_ONLY:
            parent = group.get(nonce - 1)
            if parent is not None:
                heapq.heappush(self._heap_childless,
                               (parent.tx.gas_price, parent.seq, sender,
                                nonce - 1))
        elif rule is EvictionRule.ACCOUNT_MIN_PRICE:
            key = self._acct_key[sender]
            if not group:
                del self._acct_key[sender]
            elif tx.gas_price == key[0] or e.seq == key[1]:
                new = (min(x.tx.gas_price for x in group.values()),
                       min(x.seq for x in group.values()))
                if new != key:
                    self._acct_key[sender] = new
                    heapq.heappush(self._heap_acct, (new[0], new[1], sender))

    # -- admission -------------------------------------------------------

    def overdraws(self, tx: Transaction) -> bool:
        """Whether `tx` alone moves more value than its sender holds.

        `admit_mut` declines every such arrival, whatever its nonce: as
        `StaleNonce` at or below the confirmed nonce, as `PriceTooLow` or
        `Overdraft` when it would replace a resident, and as `Overdraft`
        otherwise.  So offering one changes nothing."""
        return tx.value > self.world.balance(tx.sender)

    def admit_mut(self, tx: Transaction) -> AdmissionOutcome:
        pol = self.policy
        if (tx.sender, tx.nonce) in self.entries:
            return self._admit_replacement(tx)
        confirmed, run, value, prefix = self._chain_state(tx.sender)

        # A nonce already executed can never be included again.
        if tx.nonce <= confirmed:
            return self._decline(DeclineReason.STALE_NONCE)

        # Overdrafting arrivals never enter, whatever their nonce position.
        if self.overdraws(tx):
            return self._decline(DeclineReason.OVERDRAFT)

        if tx.nonce > confirmed + run + 1:
            return self._admit_future(tx)

        # Neither future nor a replacement, and above confirmed: the
        # arrival lands at confirmed+run+1, so the run's value is its
        # ancestors' value.  A latent overdraft is therefore never future.
        if pol.latent_admission_guard and \
                tx.value + value > self.world.balance(tx.sender):
            return self._decline(DeclineReason.LATENT_GUARD)

        if prefix >= pol.sender_limit and \
                self.pending_count > pol.sender_limit_threshold:
            return self._decline(DeclineReason.SENDER_LIMIT)

        if len(self.entries) < pol.capacity:
            self._insert(tx, is_future=False)
            return AdmissionOutcome("Admitted")
        return self._admit_by_eviction(tx, arriving_future=False)

    def _decline(self, reason: DeclineReason) -> AdmissionOutcome:
        return AdmissionOutcome("Declined", reason=reason)

    def _admit_replacement(self, tx: Transaction) -> AdmissionOutcome:
        pol = self.policy
        old = self.entries[(tx.sender, tx.nonce)]
        if not pol.replacement_allowed or tx.gas_price <= old.tx.gas_price:
            return self._decline(DeclineReason.PRICE_TOO_LOW)
        if self.overdraws(tx):
            return self._decline(DeclineReason.OVERDRAFT)
        if pol.replacement_overdraft_guard and \
                self._replacement_turns_latent(tx):
            return self._decline(DeclineReason.OVERDRAFT_GUARD)
        was_future = old.is_future
        self._remove(old)
        self._insert(tx, is_future=was_future)
        # Descendants turned latent by the new value stay resident; latency
        # is re-derived from values, so nothing structural changes here.
        return AdmissionOutcome("AdmittedReplacing")

    def _replacement_turns_latent(self, tx: Transaction) -> bool:
        """Whether some member of the sender's pending chain, other than
        the replaced slot, would overdraft with `tx` in that slot."""
        balance = self.world.balance(tx.sender)
        group = self.by_sender[tx.sender]
        cum = 0
        n = self.world.confirmed_nonce(tx.sender) + 1
        while True:
            if n == tx.nonce:
                val = tx.value
            elif n in group and not group[n].is_future:
                val = group[n].tx.value
                if cum + val > balance:
                    return True
            else:
                return False
            cum += val
            n += 1

    def _admit_future(self, tx: Transaction) -> AdmissionOutcome:
        pol = self.policy
        if self.future_count >= pol.future_quota:
            return self._decline(DeclineReason.QUOTA_FUTURE)
        if len(self.entries) < pol.capacity:
            self._insert(tx, is_future=True)
            return AdmissionOutcome("Admitted")
        if pol.future_eviction_guard:
            return self._decline(DeclineReason.FULL_NO_VICTIM)
        return self._admit_by_eviction(tx, arriving_future=True)

    def _admit_by_eviction(self, tx: Transaction,
                           arriving_future: bool) -> AdmissionOutcome:
        victim = self._select_victim(tx)
        if victim is None:
            return self._decline(DeclineReason.FULL_NO_VICTIM)
        if self.policy.reversal_guard and tx.gas_price <= victim.tx.gas_price:
            return self._decline(DeclineReason.REVERSAL_GUARD)
        self._remove(victim)
        self._insert(tx, is_future=arriving_future)
        if not victim.is_future:
            self._apply_turning(victim.tx.sender)
        return AdmissionOutcome("AdmittedEvicting")

    def _heap_top(self, heap: List[Tuple[int, int, Address, int]],
                  want_future: bool) -> Optional[PoolEntry]:
        """Cheapest live entry of the given kind; discards stale records."""
        while heap:
            price, seq, sender, nonce = heap[0]
            e = self.entries.get((sender, nonce))
            if e is not None and e.seq == seq and e.is_future == want_future:
                return e
            heapq.heappop(heap)
        return None

    def _select_victim(self, tx: Transaction) -> Optional[PoolEntry]:
        rule = self.policy.eviction_rule
        if rule is EvictionRule.PRICE_ANY:
            # Future residents are second-class: they go first when both
            # kinds are cheaper than the arrival.
            e = self._heap_top(self._heap_future, True)
            if e is not None and e.tx.gas_price < tx.gas_price:
                return e
            e = self._heap_top(self._heap_pending, False)
            if e is not None and e.tx.gas_price < tx.gas_price:
                return e
            return None
        if rule is EvictionRule.PRICE_CHILDLESS_ONLY:
            # The cheapest childless entry, skipping the arrival's own
            # ancestors; those are set aside and pushed back afterwards.
            heap = self._heap_childless
            aside = []
            victim = None
            while heap:
                price, seq, sender, nonce = heap[0]
                if price >= tx.gas_price:
                    break
                e = self.entries.get((sender, nonce))
                if e is None or e.seq != seq or \
                        nonce + 1 in self.by_sender[sender]:
                    heapq.heappop(heap)
                elif sender == tx.sender and nonce < tx.nonce:
                    aside.append(heapq.heappop(heap))
                else:
                    victim = e
                    break
            for rec in aside:
                heapq.heappush(heap, rec)
            return victim
        if rule is EvictionRule.ACCOUNT_MIN_PRICE:
            # The sender with the least (min price, first seq) below the
            # arrival's price, other than the arrival's; its top nonce goes.
            heap = self._heap_acct
            own = None
            best = None
            while heap:
                price, seq, sender = heap[0]
                if price >= tx.gas_price:
                    break
                if self._acct_key.get(sender) != (price, seq):
                    heapq.heappop(heap)
                elif sender == tx.sender:
                    own = heapq.heappop(heap)
                else:
                    best = sender
                    break
            if own is not None:
                heapq.heappush(heap, own)
            if best is None:
                return None
            group = self.by_sender[best]
            return group[max(group)]
        return None

    def _apply_turning(self, sender: Address) -> None:
        """Re-derive the sender's chain after a removal; handle orphans."""
        group = self.by_sender.get(sender)
        if not group:
            return
        confirmed, _, _, prefix = self._chain_state(sender)
        n = confirmed + prefix + 1
        orphans = sorted((e for e in group.values()
                          if not e.is_future and e.tx.nonce > n),
                         key=lambda e: e.tx.nonce)
        if self.policy.turning_rule is TurningRule.DROP_DESCENDANTS:
            for e in orphans:
                self._remove(e)
            return
        # DemoteToFuture: demote in nonce order as quota admits, drop the rest.
        for e in orphans:
            if self.future_count < self.policy.future_quota:
                e.is_future = True
                self.future_count += 1
                if self._undo is not None:
                    self._undo.append((_UNDO_FLIP, e))
                if self.policy.eviction_rule is EvictionRule.PRICE_ANY:
                    heapq.heappush(self._heap_future,
                                   (e.tx.gas_price, e.seq, e.tx.sender,
                                    e.tx.nonce))
            else:
                self._remove(e)

    def _promote_reconnected(self, sender: Address) -> None:
        group = self.by_sender.get(sender)
        if not group:
            return
        confirmed = self.world.confirmed_nonce(sender)
        n = confirmed + 1
        while n in group:
            e = group[n]
            if e.is_future:
                e.is_future = False
                self.future_count -= 1
                if self.policy.eviction_rule is EvictionRule.PRICE_ANY:
                    heapq.heappush(self._heap_pending,
                                   (e.tx.gas_price, e.seq, e.tx.sender,
                                    e.tx.nonce))
            n += 1

    # -- block building --------------------------------------------------

    def includable_entries(self) -> List[PoolEntry]:
        """Chain-valid pending prefix per sender: block-includable txs."""
        out: List[PoolEntry] = []
        for sender in self.by_sender:
            balance = self.world.balance(sender)
            cum = 0
            for e in self.sender_chain_entries(sender):
                cum += e.tx.value
                if cum > balance:
                    break
                out.append(e)
        return out

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "policy": self.policy.name,
            "slots": [dict(tx=e.tx.to_json(), future=e.is_future)
                      for e in sorted(self.entries.values(), key=lambda e:
                                      (e.tx.sender, e.tx.nonce))],
        }

    def canonical(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


# -- module-level operations ---------------------------------------------

def new_pool(policy: MempoolPolicy) -> MempoolState:
    return MempoolState(policy, WorldState(default_balance=policy.capacity))


def fill_normal(state: MempoolState, count: int
                ) -> Tuple[List[Transaction], List[Transaction]]:
    """Offer `count` benign single transactions from fresh senders.

    Returns the arrivals offered and, in order, those declined.  Once a
    fresh arrival is declined, each later fresh one is declined without
    being admitted.  That is exact: a decline leaves the entries and the
    world as they were, and admission reads nothing of a sender with no
    resident entry and no written account but its price, value and
    nonce, which all benign arrivals share.  An arrival whose sender has
    either is admitted as usual.
    """
    offered: List[Transaction] = []
    declined: List[Transaction] = []
    shortcut = False
    for _ in range(count):
        state._benign_auto += 1
        tx = Transaction(benign(state._benign_auto), nonce=1,
                         value=NORMAL_VALUE, gas_price=NORMAL_PRICE)
        fresh = tx.sender not in state.by_sender and \
            tx.sender not in state.world.accounts
        if (fresh and shortcut) or not state.admit_mut(tx).admitted:
            declined.append(tx)
            shortcut = fresh
        else:
            shortcut = False
        offered.append(tx)
    return offered, declined


def probe_declines(state: MempoolState, count: int,
                   read: Optional[Callable[[MempoolState, List[Transaction]],
                                           object]] = None
                   ) -> Tuple[List[Transaction], object]:
    """Offer `count` benign arrivals to the pool under a mark.

    Returns the arrivals it declined and, when `read` is given,
    `read(pool, declined)` taken on the probed pool; the pool is then
    rolled back, so `state` ends as it began.
    """
    mark = state.mark()
    try:
        _, declined = fill_normal(state, count)
        return declined, (read(state, declined) if read is not None
                          else None)
    finally:
        state.rollback(mark)


def walk(pool: MempoolState, held: List[Tuple[Transaction, Mark]],
         txs: Sequence[Transaction]) -> None:
    """Move `pool` from the path it stands on to `txs`.

    `held` is the path as (transaction, mark) pairs, each mark opened on
    `pool` just before its transaction was admitted; it starts empty, on
    the pool the search treats as its root, and is updated in place.
    The marks past the common prefix of the two paths are rolled back,
    and each remaining transaction of `txs` is admitted under a new mark.

    The walk is exact: the pool ends as admitting `txs` to the root
    would leave it.  Admission reads only the entries, the counters, the
    victim heaps and `_acct_key`, and a rollback restores each of them
    exactly (a mark copies the heap lists), so the pool after the common
    prefix is the one a fresh walk reaches, and each re-admission does
    what it did the first time.  The chain cache may differ, but it
    always equals a fresh walk, and nothing reads the order of
    `entries`, which a rollback can change.
    """
    common = 0
    for (held_tx, _), tx in zip(held, txs):
        if held_tx != tx:
            break
        common += 1
    while len(held) > common:
        pool.rollback(held.pop()[1])
    for tx in txs[common:]:
        held.append((tx, pool.mark()))
        pool.admit_mut(tx)


def build_block(state: MempoolState, gas_limit: int) -> List[Transaction]:
    """Greedily select executable transactions by descending price.

    Included transactions are executed (balance and confirmed nonce move)
    and leave the pool; everything else stays.  The world is not
    journaled, so this raises under an open mark.
    """
    if state._marks:
        raise RuntimeError("build_block under an open mark")
    included: List[Transaction] = []
    gas = 0
    while gas + GAS_PER_TX <= gas_limit:
        best: Optional[PoolEntry] = None
        for sender in state.by_sender:
            chain = state.sender_chain_entries(sender)
            if not chain:
                continue
            head = chain[0]
            if state.overdraws(head.tx):
                continue
            if best is None or (-head.tx.gas_price, head.seq) < \
                    (-best.tx.gas_price, best.seq):
                best = head
        if best is None:
            break
        tx = best.tx
        state._remove(best)
        acct = state.world.get(tx.sender)
        acct.balance -= tx.value
        acct.confirmed_nonce = tx.nonce
        # The run now starts at the new confirmed nonce.
        state._chain.pop(tx.sender, None)
        state._promote_reconnected(tx.sender)
        included.append(tx)
        gas += GAS_PER_TX
    return included


# -- presets ---------------------------------------------------------------

_GETH_FULL = dict(capacity=6144, future_quota=1024, sender_limit=16,
                  sender_limit_threshold=5120)

# Reduced parameter sets for the geth family, indexed by capacity.
_GETH_REDUCED = {
    3: (1, 2, 2),
    6: (1, 2, 5),
    16: (3, 8, 13),
}


def _geth_reduced_params(m: int) -> Tuple[int, int, int]:
    if m in _GETH_REDUCED:
        return _GETH_REDUCED[m]
    py1 = max(1, m // 6)
    py2 = max(2, m // 2) if m >= 12 else 2
    py3 = max(py2, (5 * m) // 6)
    return (py1, py2, py3)


def _base_preset(family: str, m: Optional[int], name: str) -> MempoolPolicy:
    """The family's policy at capacity `m` (None: full size), labelled
    `name` so that a validation error names the preset as written."""
    if family in ("geth-legacy", "geth-1.11"):
        if m is None:
            m = _GETH_FULL["capacity"]
            py1, py2, py3 = (_GETH_FULL["future_quota"],
                             _GETH_FULL["sender_limit"],
                             _GETH_FULL["sender_limit_threshold"])
        else:
            py1, py2, py3 = _geth_reduced_params(m)
        if family == "geth-legacy":
            return MempoolPolicy(
                name=name, capacity=m, future_quota=m,
                sender_limit=py2, sender_limit_threshold=py3,
                eviction_rule=EvictionRule.PRICE_ANY,
                turning_rule=TurningRule.DEMOTE_TO_FUTURE)
        return MempoolPolicy(
            name=name, capacity=m, future_quota=py1,
            sender_limit=py2, sender_limit_threshold=py3,
            eviction_rule=EvictionRule.PRICE_ANY,
            turning_rule=TurningRule.DEMOTE_TO_FUTURE,
            replacement_overdraft_guard=True,
            future_eviction_guard=True, latent_admission_guard=True)
    if family in ("besu-legacy", "besu-22.7"):
        mm = m if m is not None else 4096
        py2 = 16 if m is None else _geth_reduced_params(mm)[1]
        return MempoolPolicy(
            name=name, capacity=mm, future_quota=mm,
            sender_limit=py2, sender_limit_threshold=0,
            eviction_rule=EvictionRule.PRICE_ANY,
            turning_rule=TurningRule.DROP_DESCENDANTS,
            future_eviction_guard=(family == "besu-22.7"))
    if family in ("nethermind-legacy", "nethermind-1.18"):
        mm = m if m is not None else 2048
        return MempoolPolicy(
            name=name, capacity=mm, future_quota=mm,
            sender_limit=mm, sender_limit_threshold=0,
            eviction_rule=EvictionRule.ACCOUNT_MIN_PRICE,
            turning_rule=TurningRule.DROP_DESCENDANTS,
            latent_admission_guard=True,
            future_eviction_guard=(family == "nethermind-1.18"),
            reversal_guard=(family == "nethermind-1.18"))
    if family == "reth-fifo":
        mm = m if m is not None else 6144
        return MempoolPolicy(
            name=name, capacity=mm, future_quota=mm,
            sender_limit=mm, sender_limit_threshold=0,
            eviction_rule=EvictionRule.NONE,
            turning_rule=TurningRule.DROP_DESCENDANTS,
            replacement_allowed=False)
    if family == "openethereum":
        mm = m if m is not None else 4096
        return MempoolPolicy(
            name=name, capacity=mm, future_quota=0,
            sender_limit=mm, sender_limit_threshold=0,
            eviction_rule=EvictionRule.PRICE_CHILDLESS_ONLY,
            turning_rule=TurningRule.DROP_DESCENDANTS,
            latent_admission_guard=True, future_eviction_guard=True)
    raise ValueError(f"unknown policy preset: {family}")


PRESET_FAMILIES = ("geth-legacy", "geth-1.11", "nethermind-legacy",
                   "nethermind-1.18", "besu-legacy", "besu-22.7",
                   "reth-fifo", "openethereum")

_REDUCED_RE = re.compile(
    r"^(?P<family>.+?)-reduced\((?:m=)?(?P<args>[\d,\s]+)\)$")


def policy_preset(name: str) -> MempoolPolicy:
    """Resolve a preset name, optionally with a -reduced(...) suffix.

    The suffix takes either a single capacity, with remaining parameters
    scaled down, or, for the geth families only, the full
    (m, py1, py2, py3) tuple.
    """
    name = name.strip()
    mobj = _REDUCED_RE.match(name)
    if mobj:
        family = mobj.group("family")
        args = [int(a) for a in mobj.group("args").replace(" ", "").split(",")
                if a]
        if family not in PRESET_FAMILIES:
            raise ValueError(f"unknown policy preset: {family}")
        if len(args) == 1:
            return _base_preset(family, args[0], name)
        if len(args) == 4:
            if family not in ("geth-legacy", "geth-1.11"):
                raise ValueError(f"{name}: only the geth families take "
                                 f"reduced(m, py1, py2, py3)")
            return replace(_base_preset(family, args[0], name),
                           future_quota=args[1], sender_limit=args[2],
                           sender_limit_threshold=args[3])
        raise ValueError(f"bad reduced() arity in preset: {name}")
    if name in PRESET_FAMILIES:
        return _base_preset(name, None, name)
    raise ValueError(f"unknown policy preset: {name}")


# Which attack patterns succeed against which preset.  This is the behavioral
# contract the presets are validated against (full damage with every attack
# transaction admitted as scripted).
VULNERABILITY_MATRIX: Dict[str, frozenset] = {
    "geth-legacy": frozenset({"XT1", "XT2", "XT3", "XT4", "XT5", "XT6"}),
    "geth-1.11": frozenset({"XT5", "XT6"}),
    "besu-legacy": frozenset({"XT1", "XT2", "XT4"}),
    "besu-22.7": frozenset({"XT2", "XT4"}),
    "nethermind-legacy": frozenset({"XT1", "XT4", "XT7"}),
    "nethermind-1.18": frozenset({"XT4"}),
    "reth-fifo": frozenset({"XT8"}),
    "openethereum": frozenset({"XT4", "XT9"}),
}
