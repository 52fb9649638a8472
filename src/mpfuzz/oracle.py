"""Damage/cost oracles for mempool denial-of-service timelines.

Two verdicts: an eviction oracle (benign residents fully displaced at a
fee discount below epsilon) and a locking oracle (arriving benign
transactions declined while the occupying set underpays by lambda).
Ratios are exact rationals; serialization renders them as decimal
strings at full precision.

Search loops ask `evicted_all` first and build `check_eviction`'s verdict
only where damage holds: without damage no eviction verdict triggers, and
damage is rare while the verdict's fee sums are not cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .mempool import MempoolState
from .txmodel import Role, Transaction

DEFAULT_EPSILON = Fraction(36, 100)
DEFAULT_LAMBDA = Fraction(46, 100)


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


@dataclass(frozen=True)
class OracleConfig:
    epsilon: Fraction = DEFAULT_EPSILON
    lam: Fraction = DEFAULT_LAMBDA

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _to_fraction(self.epsilon))
        object.__setattr__(self, "lam", _to_fraction(self.lam))
        if self.epsilon <= 0 or self.lam <= 0:
            raise ValueError(f"oracle thresholds must be positive, got "
                             f"epsilon={self.epsilon}, lambda={self.lam}")

    def to_json(self) -> dict:
        return {"epsilon": str(self.epsilon), "lambda": str(self.lam)}


def format_ratio(r: Fraction, places: int = 12) -> str:
    """Decimal rendering without float round-trip error."""
    sign = "-" if r < 0 else ""
    r = abs(r)
    whole = r.numerator // r.denominator
    rem = r.numerator - whole * r.denominator
    digits = []
    for _ in range(places):
        rem *= 10
        d = rem // r.denominator
        digits.append(str(d))
        rem -= d * r.denominator
    frac = "".join(digits).rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


@dataclass(frozen=True)
class OracleVerdict:
    triggered: bool
    kind: str  # Eviction | Locking
    asym: Fraction
    damage_ok: bool
    cost_ok: bool

    def to_json(self) -> dict:
        return {
            "triggered": self.triggered,
            "kind": self.kind,
            "asym": f"{self.asym.numerator}/{self.asym.denominator}",
            "asym_decimal": format_ratio(self.asym),
            "damage_ok": self.damage_ok,
            "cost_ok": self.cost_ok,
        }

    @staticmethod
    def from_json(obj: dict) -> "OracleVerdict":
        num, den = obj["asym"].split("/")
        return OracleVerdict(bool(obj["triggered"]), obj["kind"],
                             Fraction(int(num), int(den)),
                             bool(obj["damage_ok"]), bool(obj["cost_ok"]))


def total_fees(txs: Iterable[Transaction]) -> int:
    return sum(tx.fee() for tx in txs)


def chargeable_fees(state: MempoolState) -> int:
    """Fees of block-includable residents: the part an attacker pays."""
    return sum(e.tx.fee() for e in state.includable_entries())


def asym_E(st0: Sequence[Transaction], end_state: MempoolState) -> Fraction:
    """Chargeable end-state fees relative to the displaced initial set."""
    denom = total_fees(st0)
    if denom <= 0:
        raise ValueError("initial state carries no fees")
    return Fraction(chargeable_fees(end_state), denom)


def evicted_all(st0: Sequence[Transaction], end_state: MempoolState) -> bool:
    """`check_eviction`'s damage condition without its cost: no initial
    resident survives.  A resident survives only as the very transaction
    at its (sender, nonce) slot, so a replacement there does not count."""
    entries = end_state.entries
    for tx in st0:
        e = entries.get((tx.sender, tx.nonce))
        if e is not None and e.tx == tx:
            return False
    return len(st0) > 0


def check_eviction(st0: Sequence[Transaction], end_state: MempoolState,
                   cfg: OracleConfig) -> OracleVerdict:
    """Full damage: none of the initial residents survive; cost bound:
    the surviving set's chargeable fees stay under epsilon of theirs."""
    initial = {tx.key() for tx in st0}
    surviving = {tx.key() for tx in end_state.txs()}
    damage_ok = len(st0) > 0 and not (initial & surviving)
    asym = asym_E(st0, end_state)
    cost_ok = asym < cfg.epsilon
    return OracleVerdict(damage_ok and cost_ok, "Eviction", asym,
                         damage_ok, cost_ok)


def asym_D(end_state: MempoolState,
           declined: Sequence[Transaction]) -> Fraction:
    """Per-slot chargeable fee of the occupiers relative to the per-tx
    fee of the benign arrivals they decline."""
    stn = end_state.txs()
    if not stn or not declined:
        raise ValueError("locking ratio needs occupiers and declines")
    denom = total_fees(declined)
    if denom <= 0:
        raise ValueError("declined set carries no fees")
    return Fraction(chargeable_fees(end_state), len(stn)) / \
        Fraction(denom, len(declined))


def check_locking(end_state: MempoolState, declined: Sequence[Transaction],
                  cfg: OracleConfig) -> OracleVerdict:
    stn = end_state.txs()
    occupiers_adversarial = bool(stn) and all(
        tx.sender.role is Role.ADVERSARIAL for tx in stn)
    declined_benign = bool(declined) and all(
        tx.sender.role is Role.BENIGN for tx in declined)
    disjoint = not ({tx.sender for tx in stn} &
                    {tx.sender for tx in declined})
    damage_ok = occupiers_adversarial and declined_benign and disjoint
    if not damage_ok:
        return OracleVerdict(False, "Locking", Fraction(0), False, False)
    asym = asym_D(end_state, declined)
    cost_ok = asym < cfg.lam
    return OracleVerdict(cost_ok, "Locking", asym, True, cost_ok)


def classify_tp_fp(short: OracleVerdict, extended: OracleVerdict) -> str:
    """A short exploit is a true positive iff its full-scale extension
    still satisfies both the damage condition and the asym bound."""
    if not short.triggered:
        raise ValueError("classification applies to triggered exploits")
    return "TruePositive" if extended.triggered else "FalsePositive"
