"""Damage/cost oracles for mempool denial-of-service timelines.

Two verdicts: an eviction oracle (benign residents fully displaced at a
fee discount below epsilon) and a locking oracle (arriving benign
transactions declined while the occupying set underpays by lambda).
Ratios are exact rationals; serialization renders them as decimal
strings at full precision.

Search loops build a verdict only where it can trigger, since its fee
sums are not cheap.  For `check_eviction` they ask `evicted_all` first,
and the fuzzer, which keeps the pool's fee sum in its summaries, asks
the cost before that.  For `check_locking` the fuzzer asks `could_lock`
of the unprobed pool, with that fee sum, and runs the benign probe and
the verdict only where it holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .mempool import NORMAL_PRICE, MempoolState
from .txmodel import GAS_PER_TX, Role, Transaction, typed_field

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


def format_ratio(r: Fraction) -> str:
    """Decimal rendering, at most 12 fractional digits, without float
    round-trip error."""
    sign = "-" if r < 0 else ""
    r = abs(r)
    whole = r.numerator // r.denominator
    rem = r.numerator - whole * r.denominator
    digits = []
    for _ in range(12):
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
        """The verdict of a `to_json` record, or ValueError naming the
        field: the flags are JSON booleans, `triggered` is `damage_ok and
        cost_ok`, the kind is Eviction or Locking, the asym is not < 0."""
        if obj["kind"] not in ("Eviction", "Locking"):
            raise ValueError(f"field kind must be Eviction or Locking, "
                             f"got {obj['kind']!r}")
        num, den = obj["asym"].split("/")
        v = OracleVerdict(typed_field(obj, "triggered", bool), obj["kind"],
                          Fraction(int(num), int(den)),
                          typed_field(obj, "damage_ok", bool),
                          typed_field(obj, "cost_ok", bool))
        if v.asym < 0:
            raise ValueError(f"field asym must not be negative, "
                             f"got {obj['asym']!r}")
        if v.triggered != (v.damage_ok and v.cost_ok):
            raise ValueError("field triggered must equal damage_ok and "
                             "cost_ok")
        return v


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
    damage_ok = evicted_all(st0, end_state)
    asym = asym_E(st0, end_state)
    cost_ok = asym < cfg.epsilon
    return OracleVerdict(damage_ok and cost_ok, "Eviction", asym,
                         damage_ok, cost_ok)


def asym_D(end_state: MempoolState,
           declined: Sequence[Transaction]) -> Fraction:
    """Per-slot chargeable fee of the occupiers relative to the per-tx
    fee of the benign arrivals they decline."""
    occupiers = len(end_state)
    if not occupiers or not declined:
        raise ValueError("locking ratio needs occupiers and declines")
    denom = total_fees(declined)
    if denom <= 0:
        raise ValueError("declined set carries no fees")
    return Fraction(chargeable_fees(end_state), occupiers) / \
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


def could_lock(pool: MempoolState, fees: int, cfg: OracleConfig) -> bool:
    """Whether `check_locking` can trigger on `pool` once a benign probe
    (`mempool.probe_declines`) has run on it, asked of the unprobed pool;
    `fees` is its `chargeable_fees`.  It is False only where the verdict
    does not trigger, and where the verdict's damage holds its asym is
    the fraction tested here.

    A probe arrival that is admitted stays resident until a later
    arrival of the probe evicts or replaces it, and that one is then
    resident itself.  So a probe that admits any arrival, as it does
    into an empty pool, ends with a benign occupier, and so does a pool
    that already holds a benign sender, whose entries leave only for an
    admitted arrival: the damage fails.  A probe that declines every
    arrival leaves the entries as they were: the occupiers and their
    chargeable fees are the pool's, and each declined arrival pays
    ``NORMAL_PRICE * GAS_PER_TX``, so `asym_D` is
    ``fees / (len(pool) * NORMAL_PRICE * GAS_PER_TX)``.
    """
    occupiers = len(pool)
    if not occupiers or any(s.role is Role.BENIGN for s in pool.by_sender):
        return False
    return Fraction(fees, occupiers * NORMAL_PRICE * GAS_PER_TX) < cfg.lam


def classify_tp_fp(short: OracleVerdict, extended: OracleVerdict) -> str:
    """A short exploit is a true positive iff its full-scale extension
    still satisfies both the damage condition and the asym bound."""
    if not short.triggered:
        raise ValueError("classification applies to triggered exploits")
    return "TruePositive" if extended.triggered else "FalsePositive"
