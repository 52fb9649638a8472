"""Deterministic mempool admission policies.

A pool is a bounded set of slots governed by an admission pipeline:
classification, replacement, quota checks, then (when full) an eviction
rule, then a turning rule for descendants orphaned by an eviction.
Policies are behavioral models of deployed clients; presets are validated
by which attack patterns succeed against them, not by code-level fidelity.
"""

from __future__ import annotations

import enum
import heapq
import json
import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .txmodel import (GAS_PER_TX, Address, Transaction, ValidityClass,
                      WorldState, benign, classify)

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
        if self.capacity < 1:
            raise ValueError(f"policy {self.name}: capacity must be at "
                             f"least 1, got {self.capacity}")
        for fld in ("future_quota", "sender_limit", "sender_limit_threshold"):
            if getattr(self, fld) < 0:
                raise ValueError(f"policy {self.name}: {fld} must not be "
                                 f"negative, got {getattr(self, fld)}")

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "capacity": self.capacity,
            "future_quota": self.future_quota,
            "sender_limit": self.sender_limit,
            "sender_limit_threshold": self.sender_limit_threshold,
            "eviction_rule": self.eviction_rule.value,
            "turning_rule": self.turning_rule.value,
            "replacement_allowed": self.replacement_allowed,
            "replacement_overdraft_guard": self.replacement_overdraft_guard,
            "reversal_guard": self.reversal_guard,
            "future_eviction_guard": self.future_eviction_guard,
            "latent_admission_guard": self.latent_admission_guard,
        }

    @staticmethod
    def from_json(obj: dict) -> "MempoolPolicy":
        return MempoolPolicy(
            name=obj["name"],
            capacity=int(obj["capacity"]),
            future_quota=int(obj["future_quota"]),
            sender_limit=int(obj["sender_limit"]),
            sender_limit_threshold=int(obj["sender_limit_threshold"]),
            eviction_rule=EvictionRule(obj["eviction_rule"]),
            turning_rule=TurningRule(obj["turning_rule"]),
            replacement_allowed=bool(obj["replacement_allowed"]),
            replacement_overdraft_guard=bool(obj["replacement_overdraft_guard"]),
            reversal_guard=bool(obj["reversal_guard"]),
            future_eviction_guard=bool(obj["future_eviction_guard"]),
            latent_admission_guard=bool(obj["latent_admission_guard"]),
        )


@dataclass
class PoolEntry:
    tx: Transaction
    seq: int
    is_future: bool = False
    via_replacement: bool = False


@dataclass
class AdmissionOutcome:
    kind: str  # Admitted | AdmittedReplacing | AdmittedEvicting | Declined
    reason: Optional[DeclineReason] = None
    evicted: List[Transaction] = field(default_factory=list)
    replaced: Optional[Transaction] = None

    @property
    def admitted(self) -> bool:
        return self.kind != "Declined"


class MempoolState:
    """Mutable pool representation.

    The module-level `admit` keeps the documented pure-transition contract;
    `admit_mut` is the in-place variant used on hot paths.
    """

    def __init__(self, policy: MempoolPolicy, world: WorldState):
        self.policy = policy
        self.world = world
        self.entries: Dict[Tuple[Address, int], PoolEntry] = {}
        self.by_sender: Dict[Address, Dict[int, PoolEntry]] = {}
        self.declined: List[Tuple[Transaction, DeclineReason]] = []
        self.seq = 0
        self.future_count = 0
        self._benign_auto = 0
        # Lazy min-heaps over (price, seq, sender, nonce) for PriceAny
        # victim lookup; stale records are skipped on pop.
        self._heap_pending: List[Tuple[int, int, Address, int]] = []
        self._heap_future: List[Tuple[int, int, Address, int]] = []

    # -- bookkeeping -----------------------------------------------------

    def clone(self) -> "MempoolState":
        st = MempoolState(self.policy, self.world.copy())
        st.entries = {}
        st.by_sender = {}
        for k, e in self.entries.items():
            ne = PoolEntry(e.tx, e.seq, e.is_future, e.via_replacement)
            st.entries[k] = ne
            st.by_sender.setdefault(k[0], {})[k[1]] = ne
        st.declined = list(self.declined)
        st.seq = self.seq
        st.future_count = self.future_count
        st._benign_auto = self._benign_auto
        for e in st.entries.values():
            heap = st._heap_future if e.is_future else st._heap_pending
            heap.append((e.tx.gas_price, e.seq, e.tx.sender, e.tx.nonce))
        heapq.heapify(st._heap_pending)
        heapq.heapify(st._heap_future)
        return st

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def pending_count(self) -> int:
        return len(self.entries) - self.future_count

    def txs(self) -> List[Transaction]:
        return [e.tx for e in self.entries.values()]

    def resident(self, sender: Address) -> List[Transaction]:
        return [e.tx for e in self.by_sender.get(sender, {}).values()]

    def sender_chain_entries(self, sender: Address) -> List[PoolEntry]:
        """Gap-free run of non-future entries starting at confirmed+1."""
        group = self.by_sender.get(sender)
        if not group:
            return []
        confirmed = self.world.confirmed_nonce(sender)
        out = []
        n = confirmed + 1
        while n in group and not group[n].is_future:
            out.append(group[n])
            n += 1
        return out

    def _insert(self, tx: Transaction, is_future: bool,
                via_replacement: bool = False) -> PoolEntry:
        e = PoolEntry(tx, self.seq, is_future, via_replacement)
        self.seq += 1
        self.entries[(tx.sender, tx.nonce)] = e
        self.by_sender.setdefault(tx.sender, {})[tx.nonce] = e
        if is_future:
            self.future_count += 1
            heapq.heappush(self._heap_future,
                           (tx.gas_price, e.seq, tx.sender, tx.nonce))
        else:
            heapq.heappush(self._heap_pending,
                           (tx.gas_price, e.seq, tx.sender, tx.nonce))
        return e

    def _remove(self, e: PoolEntry) -> None:
        key = (e.tx.sender, e.tx.nonce)
        del self.entries[key]
        group = self.by_sender[e.tx.sender]
        del group[e.tx.nonce]
        if not group:
            del self.by_sender[e.tx.sender]
        if e.is_future:
            self.future_count -= 1

    # -- admission -------------------------------------------------------

    def admit_mut(self, tx: Transaction) -> AdmissionOutcome:
        pol = self.policy
        world = self.world
        resident = self.resident(tx.sender)
        cls = classify(tx, world, resident)

        # Overdrafting arrivals never enter, whatever their nonce position.
        if cls is not ValidityClass.REPLACEMENT and \
                tx.value > world.balance(tx.sender):
            return self._decline(tx, DeclineReason.OVERDRAFT)

        if cls is ValidityClass.REPLACEMENT:
            return self._admit_replacement(tx)

        if cls is ValidityClass.LATENT_OVERDRAFT and pol.latent_admission_guard:
            return self._decline(tx, DeclineReason.LATENT_GUARD)

        if cls is ValidityClass.FUTURE:
            return self._admit_future(tx)

        # Pending or latent-overdraft arrival joining the sender's chain.
        chain_count = len(self.sender_chain_entries(tx.sender))
        if chain_count >= pol.sender_limit and \
                self.pending_count > pol.sender_limit_threshold:
            return self._decline(tx, DeclineReason.SENDER_LIMIT)

        if len(self.entries) < pol.capacity:
            self._insert(tx, is_future=False)
            return AdmissionOutcome("Admitted")
        return self._admit_by_eviction(tx, arriving_future=False)

    def _decline(self, tx: Transaction, reason: DeclineReason) -> AdmissionOutcome:
        self.declined.append((tx, reason))
        return AdmissionOutcome("Declined", reason=reason)

    def _admit_replacement(self, tx: Transaction) -> AdmissionOutcome:
        pol = self.policy
        old = self.entries[(tx.sender, tx.nonce)]
        if not pol.replacement_allowed or tx.gas_price <= old.tx.gas_price:
            return self._decline(tx, DeclineReason.PRICE_TOO_LOW)
        if tx.value > self.world.balance(tx.sender):
            return self._decline(tx, DeclineReason.OVERDRAFT)
        if pol.replacement_overdraft_guard and \
                self._replacement_turns_latent(tx, old):
            return self._decline(tx, DeclineReason.OVERDRAFT_GUARD)
        was_future = old.is_future
        self._remove(old)
        self._insert(tx, is_future=was_future, via_replacement=True)
        # Descendants turned latent by the new value stay resident; latency
        # is re-derived from values, so nothing structural changes here.
        return AdmissionOutcome("AdmittedReplacing", replaced=old.tx)

    def _replacement_turns_latent(self, tx: Transaction, old: PoolEntry) -> bool:
        balance = self.world.balance(tx.sender)
        group = self.by_sender.get(tx.sender, {})
        cum = 0
        n = self.world.confirmed_nonce(tx.sender) + 1
        became = False
        while True:
            if n == tx.nonce:
                val = tx.value
                old_val = old.tx.value
            elif n in group and not group[n].is_future:
                val = group[n].tx.value
                old_val = val
            else:
                break
            # Flag descendants that were fine before but overdraft now.
            if n != tx.nonce:
                if cum + val > balance:
                    became = True
                    break
            cum += val
            n += 1
        return became

    def _admit_future(self, tx: Transaction) -> AdmissionOutcome:
        pol = self.policy
        if self.future_count >= pol.future_quota:
            return self._decline(tx, DeclineReason.QUOTA_FUTURE)
        if len(self.entries) < pol.capacity:
            self._insert(tx, is_future=True)
            return AdmissionOutcome("Admitted")
        if pol.future_eviction_guard:
            return self._decline(tx, DeclineReason.FULL_NO_VICTIM)
        return self._admit_by_eviction(tx, arriving_future=True)

    def _admit_by_eviction(self, tx: Transaction,
                           arriving_future: bool) -> AdmissionOutcome:
        pol = self.policy
        if pol.eviction_rule is EvictionRule.NONE:
            return self._decline(tx, DeclineReason.FULL_NO_VICTIM)
        victim = self._select_victim(tx)
        if victim is None:
            return self._decline(tx, DeclineReason.FULL_NO_VICTIM)
        if pol.reversal_guard and tx.gas_price <= victim.tx.gas_price:
            return self._decline(tx, DeclineReason.REVERSAL_GUARD)
        victim_tx = victim.tx
        victim_future = victim.is_future
        self._remove(victim)
        self._insert(tx, is_future=arriving_future)
        dropped: List[Transaction] = []
        if not victim_future:
            dropped = self._apply_turning(victim_tx.sender)
        return AdmissionOutcome("AdmittedEvicting",
                                evicted=[victim_tx] + dropped)

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
            best = None
            for e in self.entries.values():
                if e.tx.gas_price >= tx.gas_price:
                    continue
                if e.tx.sender == tx.sender and e.tx.nonce < tx.nonce:
                    continue
                group = self.by_sender[e.tx.sender]
                if e.tx.nonce + 1 in group:
                    continue
                key = (e.tx.gas_price, e.seq)
                if best is None or key < (best.tx.gas_price, best.seq):
                    best = e
            return best
        if rule is EvictionRule.ACCOUNT_MIN_PRICE:
            best_sender = None
            best_key = None
            for sender, group in self.by_sender.items():
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
            group = self.by_sender[best_sender]
            return group[max(group.keys())]
        return None

    def _apply_turning(self, sender: Address) -> List[Transaction]:
        """Re-derive the sender's chain after a removal; handle orphans."""
        group = self.by_sender.get(sender)
        if not group:
            return []
        confirmed = self.world.confirmed_nonce(sender)
        n = confirmed + 1
        while n in group and not group[n].is_future:
            n += 1
        orphans = sorted((e for e in group.values()
                          if not e.is_future and e.tx.nonce > n),
                         key=lambda e: e.tx.nonce)
        if not orphans:
            return []
        dropped: List[Transaction] = []
        if self.policy.turning_rule is TurningRule.DROP_DESCENDANTS:
            for e in orphans:
                dropped.append(e.tx)
                self._remove(e)
            return dropped
        # DemoteToFuture: demote in nonce order as quota admits, drop the rest.
        for e in orphans:
            if self.future_count < self.policy.future_quota:
                e.is_future = True
                self.future_count += 1
                heapq.heappush(self._heap_future,
                               (e.tx.gas_price, e.seq, e.tx.sender,
                                e.tx.nonce))
            else:
                dropped.append(e.tx)
                self._remove(e)
        return dropped

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
            "slots": [dict(tx=e.tx.to_json(), future=e.is_future,
                           replacement=e.via_replacement)
                      for e in sorted(self.entries.values(),
                                      key=lambda e: (e.tx.sender.role.value,
                                                     e.tx.sender.index,
                                                     e.tx.nonce))],
            "declined": [dict(tx=t.to_json(), reason=r.value)
                         for t, r in self.declined],
        }

    def canonical(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


# -- module-level operations ---------------------------------------------

def new_pool(policy: MempoolPolicy,
             world: Optional[WorldState] = None) -> MempoolState:
    if world is None:
        world = WorldState(default_balance=policy.capacity)
    return MempoolState(policy, world)


def admit(state: MempoolState,
          tx: Transaction) -> Tuple[MempoolState, AdmissionOutcome]:
    """Pure admission transition: returns the successor state unchanged input."""
    nxt = state.clone()
    outcome = nxt.admit_mut(tx)
    return nxt, outcome


def fill_normal(state: MempoolState, count: int) -> List[Transaction]:
    """Admit `count` benign single transactions from fresh senders."""
    out = []
    for _ in range(count):
        state._benign_auto += 1
        tx = Transaction(benign(state._benign_auto), nonce=1,
                         value=NORMAL_VALUE, gas_price=NORMAL_PRICE)
        state.admit_mut(tx)
        out.append(tx)
    return out


def probe_declines(state: MempoolState,
                   count: int) -> Tuple[MempoolState, List[Transaction]]:
    """Offer `count` benign arrivals to a copy of the pool.

    Returns the copy with the arrivals applied and the arrivals it
    declined; `state` itself is untouched.
    """
    probe = state.clone()
    before = len(probe.declined)
    fill_normal(probe, count)
    return probe, [tx for tx, _ in probe.declined[before:]]


def build_block(state: MempoolState, gas_limit: int) -> List[Transaction]:
    """Greedily select executable transactions by descending price.

    Included transactions are executed (balance and confirmed nonce move)
    and leave the pool; everything else stays.
    """
    included: List[Transaction] = []
    gas = 0
    while gas + GAS_PER_TX <= gas_limit:
        best: Optional[PoolEntry] = None
        for sender in state.by_sender:
            chain = state.sender_chain_entries(sender)
            if not chain:
                continue
            head = chain[0]
            if head.tx.value > state.world.balance(sender):
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


def _base_preset(family: str, m: Optional[int]) -> MempoolPolicy:
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
                name="geth-legacy", capacity=m, future_quota=m,
                sender_limit=py2, sender_limit_threshold=py3,
                eviction_rule=EvictionRule.PRICE_ANY,
                turning_rule=TurningRule.DEMOTE_TO_FUTURE)
        return MempoolPolicy(
            name="geth-1.11", capacity=m, future_quota=py1,
            sender_limit=py2, sender_limit_threshold=py3,
            eviction_rule=EvictionRule.PRICE_ANY,
            turning_rule=TurningRule.DEMOTE_TO_FUTURE,
            replacement_overdraft_guard=True,
            future_eviction_guard=True, latent_admission_guard=True)
    if family in ("besu-legacy", "besu-22.7"):
        mm = m if m is not None else 4096
        py2 = 16 if m is None else _geth_reduced_params(mm)[1]
        return MempoolPolicy(
            name=family, capacity=mm, future_quota=mm,
            sender_limit=py2, sender_limit_threshold=0,
            eviction_rule=EvictionRule.PRICE_ANY,
            turning_rule=TurningRule.DROP_DESCENDANTS,
            future_eviction_guard=(family == "besu-22.7"))
    if family in ("nethermind-legacy", "nethermind-1.18"):
        mm = m if m is not None else 2048
        return MempoolPolicy(
            name=family, capacity=mm, future_quota=mm,
            sender_limit=mm, sender_limit_threshold=0,
            eviction_rule=EvictionRule.ACCOUNT_MIN_PRICE,
            turning_rule=TurningRule.DROP_DESCENDANTS,
            latent_admission_guard=True,
            future_eviction_guard=(family == "nethermind-1.18"),
            reversal_guard=(family == "nethermind-1.18"))
    if family == "reth-fifo":
        mm = m if m is not None else 6144
        return MempoolPolicy(
            name="reth-fifo", capacity=mm, future_quota=mm,
            sender_limit=mm, sender_limit_threshold=0,
            eviction_rule=EvictionRule.NONE,
            turning_rule=TurningRule.DROP_DESCENDANTS,
            replacement_allowed=False)
    if family == "openethereum":
        mm = m if m is not None else 4096
        return MempoolPolicy(
            name="openethereum", capacity=mm, future_quota=0,
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
    mobj = _REDUCED_RE.match(name.strip())
    if mobj:
        family = mobj.group("family")
        args = [int(a) for a in mobj.group("args").replace(" ", "").split(",")
                if a]
        if family not in PRESET_FAMILIES:
            raise ValueError(f"unknown policy preset: {family}")
        if len(args) == 1:
            pol = _base_preset(family, args[0])
        elif len(args) == 4:
            if family not in ("geth-legacy", "geth-1.11"):
                raise ValueError(f"{name}: only the geth families take "
                                 f"reduced(m, py1, py2, py3)")
            pol = replace(_base_preset(family, args[0]),
                          future_quota=args[1], sender_limit=args[2],
                          sender_limit_threshold=args[3])
        else:
            raise ValueError(f"bad reduced() arity in preset: {name}")
        return replace(pol, name=name.strip())
    if name.strip() in PRESET_FAMILIES:
        return _base_preset(name.strip(), None)
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
