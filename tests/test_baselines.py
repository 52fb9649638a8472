"""Reference fuzzers: sanity on a small target with modest budgets."""

import random

import pytest

import mpfuzz.baselines
from mpfuzz.baselines import (B1_TXS_PER_INPUT, BASELINE_KINDS,
                              BaselineResult, run_baseline, run_reference)
from mpfuzz.mempool import fill_normal, new_pool, policy_preset
from mpfuzz.oracle import OracleConfig, check_eviction, evicted_all
from mpfuzz.txmodel import Transaction, adversarial

POL = policy_preset("geth-legacy-reduced(6)")
CFG = OracleConfig(epsilon=0.2)


def plain_b1(policy, cfg, budget, rng_seed, make_tx=Transaction):
    """B1 in its plain form, the oracle of `run_baseline("B1")`: every
    input builds and fills a fresh pool, and every arrival is judged."""
    rng = random.Random(rng_seed)
    m = policy.capacity
    mutations = 0
    while mutations < budget:
        raw = rng.randbytes(8 * B1_TXS_PER_INPUT)
        state = new_pool(policy)
        st0, _ = fill_normal(state, m)
        for i in range(B1_TXS_PER_INPUT):
            if mutations >= budget:
                break
            chunk = raw[8 * i:8 * (i + 1)]
            sender = int.from_bytes(chunk[0:2], "big") % 65536
            nonce = max(1, int.from_bytes(chunk[2:4], "big"))
            value = int.from_bytes(chunk[4:6], "big")
            price = int.from_bytes(chunk[6:8], "big")
            mutations += 1
            state.admit_mut(make_tx(adversarial(sender + 1), nonce, value,
                                    price))
            if evicted_all(st0, state) and \
                    check_eviction(st0, state, cfg).triggered:
                return BaselineResult("B1", True, mutations, mutations)
    return BaselineResult("B1", False, None, mutations)


def folded(sender, nonce, value, price):
    """A B1 arrival folded onto 4 senders, nonces 1-4, values 0-2 and
    prices 1-8.  Random 16-bit fields are almost never admitted (about 5
    of 20,000 on a 6-slot pool), so only folded arrivals move the pool
    within an input and put its rollback to the test."""
    return Transaction(adversarial(sender.index % 4 + 1), nonce % 4 + 1,
                       value % 3, price % 8 + 1)


# (preset, epsilon, arrival, finds), each for 3 seeds within 20,000
# mutations.  Raw arrivals on one slot at epsilon 0.99 find an exploit
# for seeds 0 and 1, at 16,756 and 7,196 mutations, and none for seed 2.
# Folded arrivals find one after 148 to 686 mutations (5 to 22 inputs)
# on the legacy presets, and none on nethermind-1.18, which admits about
# 3,600 of them.
B1_CASES = [
    ("geth-legacy-reduced(6)", 0.2, Transaction, (False, False, False)),
    *[(f"{family}-legacy-reduced(1)", 0.99, Transaction, (True, True, False))
      for family in ("geth", "nethermind", "besu")],
    ("geth-legacy-reduced(6)", 0.2, folded, (True, True, True)),
    ("nethermind-legacy-reduced(6)", 0.2, folded, (True, True, True)),
    ("nethermind-1.18-reduced(6)", 0.99, folded, (False, False, False)),
]


@pytest.mark.parametrize("rng_seed", range(3))
@pytest.mark.parametrize("preset, epsilon, arrival, finds", B1_CASES)
def test_b1_equals_its_plain_form(monkeypatch, preset, epsilon, arrival,
                                  finds, rng_seed):
    pol, cfg = policy_preset(preset), OracleConfig(epsilon=epsilon)
    monkeypatch.setattr(mpfuzz.baselines, "Transaction", arrival)
    res = run_baseline("B1", pol, cfg, budget_mutations=20_000,
                       rng_seed=rng_seed)
    assert res == plain_b1(pol, cfg, 20_000, rng_seed, make_tx=arrival)
    assert res.found == finds[rng_seed]


def test_b1_fills_one_pool_per_run(monkeypatch):
    calls = []

    def spy(state, count):
        calls.append(count)
        return fill_normal(state, count)

    monkeypatch.setattr(mpfuzz.baselines, "fill_normal", spy)
    run_baseline("B1", POL, CFG, budget_mutations=5_000, rng_seed=0)
    assert calls == [POL.capacity]


def test_reference_finds_quickly():
    res = run_reference(POL, CFG, budget_mutations=10_000)
    assert res.found and res.mutations_to_first < 100


def test_b4_finds_within_budget():
    res = run_baseline("B4", POL, CFG, budget_mutations=10_000)
    assert res.found


def test_b3_finds_within_budget():
    res = run_baseline("B3", POL, CFG, budget_mutations=10_000, rng_seed=0)
    assert res.found
    assert res.mutations_to_first > 0


def test_b2_respects_budget_without_finding_small():
    res = run_baseline("B2", POL, CFG, budget_mutations=200, rng_seed=0)
    assert res.mutations_total <= 200


def test_b1_random_bytes_caps_out():
    res = run_baseline("B1", POL, CFG, budget_mutations=5_000, rng_seed=0)
    assert not res.found
    assert res.mutations_total == 5_000


def test_b1_is_seed_sensitive_but_bounded():
    a = run_baseline("B1", POL, CFG, budget_mutations=2_000, rng_seed=1)
    b = run_baseline("B1", POL, CFG, budget_mutations=2_000, rng_seed=1)
    assert a.mutations_total == b.mutations_total == 2_000
    assert a.found == b.found


def test_unknown_kind_raises():
    with pytest.raises(ValueError):
        run_baseline("B9", POL, CFG)


def test_kinds_constant():
    assert BASELINE_KINDS == ("B1", "B2", "B3", "B4")
