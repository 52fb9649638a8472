"""Transaction and account model for mempool admission analysis.

Transactions are plain transfers with a fixed gas allowance.  Values and
prices are small integers so that pool-wide fee arithmetic stays exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

GAS_PER_TX = 21000


class Role(enum.Enum):
    BENIGN = "benign"
    ADVERSARIAL = "adversarial"


@dataclass(frozen=True, eq=False, slots=True)
class Address:
    """A sender identity, partitioned into benign and adversarial namespaces.

    Addresses key every pool index, so the hash is computed once.  It is
    ``hash((role, index))``, the value a frozen dataclass would return, so
    caching it moves no dict or set order.
    """

    role: Role
    index: int
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.role, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not Address:
            return NotImplemented
        return self.index == other.index and self.role is other.role

    def short(self) -> str:
        tag = "N" if self.role is Role.BENIGN else "A"
        return f"{tag}{self.index}"

    def to_json(self) -> dict:
        return {"role": self.role.value, "index": self.index}

    @staticmethod
    def from_json(obj: dict) -> "Address":
        return Address(Role(obj["role"]), int(obj["index"]))


def benign(index: int) -> Address:
    return Address(Role.BENIGN, index)


def adversarial(index: int) -> Address:
    return Address(Role.ADVERSARIAL, index)


@dataclass(frozen=True)
class Transaction:
    sender: Address
    nonce: int
    value: int
    gas_price: int

    def fee(self) -> int:
        return self.gas_price * GAS_PER_TX

    def key(self) -> tuple:
        return (self.sender.role.value, self.sender.index, self.nonce,
                self.value, self.gas_price)

    def to_json(self) -> dict:
        return {
            "sender": self.sender.to_json(),
            "nonce": self.nonce,
            "value": self.value,
            "gas_price": self.gas_price,
        }

    @staticmethod
    def from_json(obj: dict) -> "Transaction":
        return Transaction(Address.from_json(obj["sender"]), int(obj["nonce"]),
                           int(obj["value"]), int(obj["gas_price"]))

    def __repr__(self) -> str:
        return (f"Tx({self.sender.short()},n{self.nonce},"
                f"v{self.value},f{self.gas_price})")


class ValidityClass(enum.Enum):
    PENDING = "Pending"
    FUTURE = "Future"
    OVERDRAFT = "Overdraft"
    LATENT_OVERDRAFT = "LatentOverdraft"
    REPLACEMENT = "Replacement"


@dataclass
class AccountState:
    balance: int
    confirmed_nonce: int = 0


class WorldState:
    """Account balances and confirmed nonces.

    The world is sparse: an account that was never written has the default
    balance and confirmed nonce 0, so synthetic senders need no funding
    step.  `balance` and `confirmed_nonce` read it without storing it;
    only `get`, which hands out a mutable account, stores one, and `copy`
    copies only the stored ones.
    """

    def __init__(self, default_balance: int):
        self.default_balance = default_balance
        self.accounts: Dict[Address, AccountState] = {}

    def get(self, addr: Address) -> AccountState:
        acct = self.accounts.get(addr)
        if acct is None:
            acct = AccountState(balance=self.default_balance)
            self.accounts[addr] = acct
        return acct

    def balance(self, addr: Address) -> int:
        acct = self.accounts.get(addr)
        return self.default_balance if acct is None else acct.balance

    def confirmed_nonce(self, addr: Address) -> int:
        acct = self.accounts.get(addr)
        return 0 if acct is None else acct.confirmed_nonce

    def copy(self) -> "WorldState":
        w = WorldState(self.default_balance)
        w.accounts = {a: AccountState(s.balance, s.confirmed_nonce)
                      for a, s in self.accounts.items()}
        return w


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
