"""Output checks for the benchmark, computed apart from ``mpfuzz.oracle``.

An exploit is replayed into a fresh pool built by ``mpfuzz.mempool``; its
damage and its asym ratio are then recomputed here with this module's own
arithmetic and compared with the verdict the program reported:

- a resident is includable when it lies on its sender's gap-free pending
  chain and the chain's cumulative value stays within the balance;
- a fee is price x 21000.

Every sender starts with a balance of m (the pool capacity) and nonce 0,
and no replay builds a block, so neither ever changes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from mpfuzz.mempool import MempoolPolicy, MempoolState, new_pool
from mpfuzz.txmodel import Role, Transaction, benign

GAS = 21000
BENIGN_PRICE = 3
BENIGN_VALUE = 1


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's check."""


def fee(tx: Transaction) -> int:
    return tx.gas_price * GAS


def includable(state: MempoolState) -> List[Transaction]:
    balance = state.policy.capacity
    groups = {}
    for (sender, nonce), e in state.entries.items():
        groups.setdefault(sender, {})[nonce] = e
    out = []
    for group in groups.values():
        nonce, cum = 1, 0
        while nonce in group and not group[nonce].is_future:
            cum += group[nonce].tx.value
            if cum > balance:
                break
            out.append(group[nonce].tx)
            nonce += 1
    return out


def benign_txs(first: int, count: int) -> List[Transaction]:
    return [Transaction(benign(i), 1, BENIGN_VALUE, BENIGN_PRICE)
            for i in range(first, first + count)]


def _admit_all(state: MempoolState, txs: Iterable[Transaction]) -> None:
    for tx in txs:
        state.admit_mut(tx)


def replay_eviction(policy: MempoolPolicy, txs: Sequence[Transaction]
                    ) -> Tuple[List[Transaction], MempoolState]:
    """Fill a fresh pool with m benign residents, then admit ``txs``."""
    state = new_pool(policy)
    st0 = benign_txs(1, policy.capacity)
    _admit_all(state, st0)
    _admit_all(state, txs)
    return st0, state


def eviction_asym(st0: Sequence[Transaction], state: MempoolState) -> Fraction:
    """Raises CheckFailed unless every initial resident was evicted."""
    initial = {tx.key() for tx in st0}
    if any(e.tx.key() in initial for e in state.entries.values()):
        raise CheckFailed("an initial resident survives")
    return Fraction(sum(map(fee, includable(state))), sum(map(fee, st0)))


def locking_asym(policy: MempoolPolicy, txs: Sequence[Transaction]) -> Fraction:
    """Admit ``txs`` into an empty pool, follow with m fresh benign probes.

    Raises CheckFailed unless every resident is adversarial and some
    probe was declined.
    """
    state = new_pool(policy)
    _admit_all(state, txs)
    used = [tx.sender.index for tx in txs if tx.sender.role is Role.BENIGN]
    probes = benign_txs(max(used, default=0) + 1, policy.capacity)
    _admit_all(state, probes)
    residents = [e.tx for e in state.entries.values()]
    if not residents or any(tx.sender.role is not Role.ADVERSARIAL
                            for tx in residents):
        raise CheckFailed("a benign transaction occupies the locked pool")
    resident_keys = {tx.key() for tx in residents}
    declined = [p for p in probes if p.key() not in resident_keys]
    if not declined:
        raise CheckFailed("no benign probe was declined")
    per_slot = Fraction(sum(map(fee, includable(state))), len(residents))
    return per_slot / Fraction(sum(map(fee, declined)), len(declined))


def check_exploit(exploit, epsilon: Fraction, lam: Fraction) -> None:
    """Replay an emitted exploit; its asym must match and beat the bound."""
    policy = exploit.mut_config
    if exploit.kind == "Eviction":
        asym = eviction_asym(*replay_eviction(policy, exploit.concrete_txs))
        bound = epsilon
    elif exploit.kind == "Locking":
        asym = locking_asym(policy, exploit.concrete_txs)
        bound = lam
    else:
        raise CheckFailed(f"unknown exploit kind {exploit.kind!r}")
    if not exploit.verdict.triggered:
        raise CheckFailed("emitted exploit carries an untriggered verdict")
    if asym != exploit.verdict.asym:
        raise CheckFailed(f"{exploit.kind} asym {exploit.verdict.asym} "
                          f"reported, {asym} recomputed")
    if not asym < bound:
        raise CheckFailed(f"{exploit.kind} asym {asym} is not below {bound}")


def check_pattern(pattern_kind: str, policy: MempoolPolicy,
                  txs: Sequence[Transaction], verdict) -> None:
    """A pattern that reports success must do its damage at the asym it
    reports.  The asym bound is not required: ``run_pattern`` scores on
    damage alone, and some patterns succeed at a premium at full scale."""
    if pattern_kind == "Eviction":
        asym = eviction_asym(*replay_eviction(policy, txs))
    else:
        asym = locking_asym(policy, txs)
    if asym != verdict.asym:
        raise CheckFailed(f"pattern asym {verdict.asym} reported, "
                          f"{asym} recomputed")
