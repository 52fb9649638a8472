"""Transaction and account model for mempool admission analysis.

Transactions are plain transfers with a fixed gas allowance.  Values and
prices are small integers so that pool-wide fee arithmetic stays exact.
An address and a transaction are `NamedTuple`s of bools and ints, so
they hash, compare and sort in C, with the same hash in every process.
The collector still tracks them: CPython untracks only exact tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple

GAS_PER_TX = 21000


class Role:
    """A sender's namespace: the bool an `Address` holds."""
    ADVERSARIAL = False
    BENIGN = True


ROLE_NAMES = ("adversarial", "benign")  # a role's JSON name, by role


class Address(NamedTuple):
    """A sender identity, partitioned into benign and adversarial namespaces.

    It is the tuple (role, index), so adversarial senders sort first.
    """

    role: bool
    index: int

    def short(self) -> str:
        tag = "N" if self.role is Role.BENIGN else "A"
        return f"{tag}{self.index}"

    def to_json(self) -> dict:
        return {"role": ROLE_NAMES[self.role], "index": self.index}

    @staticmethod
    def from_json(obj: dict) -> "Address":
        """The address of a `to_json` record; see `Transaction.from_json`
        for what a bad one raises.  The role is one of `ROLE_NAMES`."""
        if obj["role"] not in ROLE_NAMES:
            raise ValueError(f"field role must be adversarial or benign, "
                             f"got {obj['role']!r}")
        return Address(obj["role"] == "benign", typed_field(obj, "index", int))


def typed_field(obj: dict, name: str, typ: type):
    """`obj[name]`, which must already be a `typ`: neither `true` nor
    `2.7` is an int, and `"false"` is no bool."""
    value = obj[name]
    if type(value) is not typ:
        raise ValueError(f"field {name} must be {typ.__name__}, "
                         f"got {value!r}")
    return value


def benign(index: int) -> Address:
    return Address(Role.BENIGN, index)


def adversarial(index: int) -> Address:
    return Address(Role.ADVERSARIAL, index)


class Transaction(NamedTuple):
    """A plain transfer.  Its hash and equality are those of the tuple of
    its fields."""

    sender: Address
    nonce: int
    value: int
    gas_price: int

    def fee(self) -> int:
        return self.gas_price * GAS_PER_TX

    def key(self) -> tuple:
        return (self.sender.role, self.sender.index, self.nonce,
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
        """The transaction of a `to_json` record.  Each integer field must
        already be an int, so neither `true` nor `2.7` nor `"5"` is one;
        a bad value raises ValueError naming the field, a missing one
        KeyError."""
        return Transaction(Address.from_json(obj["sender"]),
                           typed_field(obj, "nonce", int),
                           typed_field(obj, "value", int),
                           typed_field(obj, "gas_price", int))

    def __repr__(self) -> str:
        return (f"Tx({self.sender.short()},n{self.nonce},"
                f"v{self.value},f{self.gas_price})")


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

