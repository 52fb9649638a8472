"""Reference fuzzers: sanity on a small target with modest budgets."""

import heapq
import random

import pytest

import mpfuzz.baselines
from mpfuzz.baselines import (B1_TXS_PER_INPUT, BASELINE_KINDS,
                              CHILDREN_PER_SEED, BaselineResult,
                              _b1_fields, _invalid_count, _state_hash,
                              run_baseline, run_reference)
from mpfuzz.mempool import MempoolState, fill_normal, new_pool, policy_preset
from mpfuzz.oracle import OracleConfig, check_eviction, evicted_all
from mpfuzz.txmodel import Transaction, adversarial
from test_mempool import check_rolled_back

POL = policy_preset("geth-legacy-reduced(6)")
CFG = OracleConfig(epsilon=0.2)


def plain_fields(raw):
    """Each arrival of a B1 input as (sender index, nonce, value, price),
    decoded byte by byte: the oracle of `_b1_fields`."""
    for i in range(0, len(raw), 8):
        sender, nonce, value, price = (
            int.from_bytes(raw[j:j + 2], "big") for j in range(i, i + 8, 2))
        yield sender + 1, max(1, nonce), value, price


def test_b1_decoder_equals_its_plain_form():
    rng = random.Random(0)
    edges = bytes(8) + b"\xff" * 8 + bytes.fromhex("0000000100020003")
    for raw in (edges, *(rng.randbytes(8 * B1_TXS_PER_INPUT)
                         for _ in range(100))):
        assert list(_b1_fields(raw)) == list(plain_fields(raw))
    assert list(_b1_fields(edges)) == [
        (1, 1, 0, 0), (65536, 65535, 65535, 65535), (1, 1, 2, 3)]


def plain_b1(policy, cfg, budget, rng_seed, decode=plain_fields):
    """B1 in its plain form, the oracle of `run_baseline("B1")`: every
    input builds and fills a fresh pool, and every decoded arrival is
    offered and judged."""
    rng = random.Random(rng_seed)
    m = policy.capacity
    mutations = 0
    while mutations < budget:
        raw = rng.randbytes(8 * B1_TXS_PER_INPUT)
        state = new_pool(policy)
        st0, _ = fill_normal(state, m)
        for sender, nonce, value, price in decode(raw):
            if mutations >= budget:
                break
            mutations += 1
            state.admit_mut(Transaction(adversarial(sender), nonce, value,
                                        price))
            if evicted_all(st0, state) and \
                    check_eviction(st0, state, cfg).triggered:
                return BaselineResult("B1", True, mutations, mutations)
    return BaselineResult("B1", False, None, mutations)


def folded_fields(raw):
    """B1 arrivals folded onto 4 senders, nonces 1-4, values 0-2 and
    prices 1-8.  Random 16-bit fields are almost never admitted (about 5
    of 20,000 on a 6-slot pool), so only folded arrivals move the pool
    within an input and put its rollback to the test.  The fold is taken
    on the decoded fields, so B1's overdraft filter sees folded values."""
    for sender, nonce, value, price in plain_fields(raw):
        yield sender % 4 + 1, nonce % 4 + 1, value % 3, price % 8 + 1


# (preset, epsilon, decoder, finds), each for 3 seeds within 20,000
# mutations.  Raw arrivals on one slot at epsilon 0.99 find an exploit
# for seeds 0 and 1, at 16,756 and 7,196 mutations, and none for seed 2.
# Folded arrivals find one after 148 to 686 mutations (5 to 22 inputs)
# on the legacy presets, and none on nethermind-1.18, which admits about
# 3,600 of them.
B1_CASES = [
    ("geth-legacy-reduced(6)", 0.2, plain_fields, (False, False, False)),
    *[(f"{family}-legacy-reduced(1)", 0.99, plain_fields, (True, True, False))
      for family in ("geth", "nethermind", "besu")],
    ("geth-legacy-reduced(6)", 0.2, folded_fields, (True, True, True)),
    ("nethermind-legacy-reduced(6)", 0.2, folded_fields, (True, True, True)),
    ("nethermind-1.18-reduced(6)", 0.99, folded_fields,
     (False, False, False)),
]


@pytest.mark.parametrize("rng_seed", range(3))
@pytest.mark.parametrize("preset, epsilon, decode, finds", B1_CASES)
def test_b1_equals_its_plain_form(monkeypatch, preset, epsilon, decode,
                                  finds, rng_seed):
    pol, cfg = policy_preset(preset), OracleConfig(epsilon=epsilon)
    if decode is not plain_fields:
        monkeypatch.setattr(mpfuzz.baselines, "_b1_fields", decode)
    res = run_baseline("B1", pol, cfg, budget_mutations=20_000,
                       rng_seed=rng_seed)
    assert res == plain_b1(pol, cfg, 20_000, rng_seed, decode=decode)
    assert res.found == finds[rng_seed]


def test_b1_offers_only_arrivals_within_the_balance(monkeypatch):
    # 20,000 mutations are 625 whole inputs, none of which finds.  Only
    # the 6 benign fill arrivals and the B1 arrivals whose value is at
    # most the default balance reach `admit_mut`.
    rng, m = random.Random(0), POL.capacity
    within = sum(value <= m for _ in range(20_000 // B1_TXS_PER_INPUT)
                 for _, _, value, _ in plain_fields(
                     rng.randbytes(8 * B1_TXS_PER_INPUT)))
    assert 0 < within < 20
    offered = []
    admit = MempoolState.admit_mut

    def spy(self, tx):
        offered.append(tx)
        return admit(self, tx)

    monkeypatch.setattr(MempoolState, "admit_mut", spy)
    res = run_baseline("B1", POL, CFG, budget_mutations=20_000, rng_seed=0)
    assert not res.found and res.mutations_total == 20_000
    assert len(offered) == m + within
    assert all(tx.value <= m for tx in offered)


def test_b1_fills_one_pool_per_run(monkeypatch):
    calls = []

    def spy(state, count):
        calls.append(count)
        return fill_normal(state, count)

    monkeypatch.setattr(mpfuzz.baselines, "fill_normal", spy)
    run_baseline("B1", POL, CFG, budget_mutations=5_000, rng_seed=0)
    assert calls == [POL.capacity]


def plain_concrete(kind, policy, cfg, budget, rng_seed, pops=None):
    """B2 or B3 in its plain form, the oracle of `run_baseline`: each
    child new to coverage is cloned into the frontier, and each pop runs
    its children on that clone.  `pops`, if given, receives a clone of
    every popped pool as it was popped."""
    rng = random.Random(rng_seed)
    m = policy.capacity
    root = new_pool(policy)
    st0, _ = fill_normal(root, m)
    covered = {_state_hash(root)}
    mutations = 0
    frontier = []
    while mutations < budget:
        current = heapq.heappop(frontier)[2] if frontier else root
        if pops is not None:
            pops.append(current.clone())
        for _ in range(CHILDREN_PER_SEED[kind]):
            if mutations >= budget:
                break
            tx = Transaction(adversarial(rng.randrange(1, m + 1)),
                             rng.randrange(1, m + 1),
                             rng.randrange(1, m + 1),
                             rng.randrange(1, m + 1))
            mutations += 1
            mark = current.mark()
            if not current.admit_mut(tx).admitted:
                current.rollback(mark)
                continue
            if evicted_all(st0, current) and \
                    check_eviction(st0, current, cfg).triggered:
                return BaselineResult(kind, True, mutations, mutations)
            h = _state_hash(current)
            if h not in covered:
                covered.add(h)
                child = current.clone()
                heapq.heappush(frontier, (
                    -_invalid_count(child) if kind == "B3" else 0,
                    mutations, child))
            current.rollback(mark)
    return BaselineResult(kind, False, None, mutations)


# (preset, epsilon), covering the three eviction rules: geth-legacy
# evicts the cheapest entry of either kind, openethereum the cheapest
# childless entry, and both nethermind presets an account's top nonce.
# Within 30,000 mutations B3 finds on every case and seed, after 321 to
# 21,002 mutations.  B2 finds on openethereum (seed 1, 25,439) and on
# nethermind-1.18 (seeds 1 and 2, 24,337 and 11,902), so deep replayed
# pools are judged triggered as well as not.
CONCRETE_CASES = [
    ("geth-legacy-reduced(6)", 0.2),
    ("openethereum-reduced(6)", 0.99),
    ("nethermind-legacy-reduced(6)", 0.99),
    ("nethermind-1.18-reduced(6)", 0.99),
]


@pytest.mark.parametrize("rng_seed", range(3))
@pytest.mark.parametrize("kind", ("B2", "B3"))
@pytest.mark.parametrize("preset, epsilon", CONCRETE_CASES)
def test_concrete_search_equals_its_plain_form(preset, epsilon, kind,
                                               rng_seed):
    pol, cfg = policy_preset(preset), OracleConfig(epsilon=epsilon)
    assert run_baseline(kind, pol, cfg, budget_mutations=30_000,
                        rng_seed=rng_seed) == \
        plain_concrete(kind, pol, cfg, 30_000, rng_seed)


@pytest.mark.parametrize("kind", ("B2", "B3"))
@pytest.mark.parametrize("preset, epsilon", CONCRETE_CASES)
def test_replayed_pools_equal_the_popped_clones(monkeypatch, preset, epsilon,
                                                kind):
    # The search opens a mark on the bare root at each pop and one for
    # each child; the first child mark of a pop sees the replayed pool.
    pol, cfg = policy_preset(preset), OracleConfig(epsilon=epsilon)
    pops = []
    want = plain_concrete(kind, pol, cfg, 10_000, 0, pops=pops)
    opened = []  # per pop, whether its replayed pool was checked
    mark = MempoolState.mark
    probe = Transaction(adversarial(1), 1, 1, 5)

    def spy(self):
        if not self._marks:
            opened.append(False)
        elif len(self._marks) == 1 and not opened[-1]:
            opened[-1] = True
            check_rolled_back(self, pops[len(opened) - 1], probe)
        return mark(self)

    monkeypatch.setattr(MempoolState, "mark", spy)
    assert run_baseline(kind, pol, cfg, budget_mutations=10_000,
                        rng_seed=0) == want
    assert len(opened) == len(pops) and all(opened)


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
    # One slot at epsilon 0.99: both seeds find, at different counts
    # (16,756 and 7,196 mutations).
    pol = policy_preset("geth-legacy-reduced(1)")
    cfg = OracleConfig(epsilon=0.99)
    c, d = (run_baseline("B1", pol, cfg, budget_mutations=20_000,
                         rng_seed=seed) for seed in (0, 1))
    assert c.found and d.found
    assert c.mutations_to_first != d.mutations_to_first


def test_unknown_kind_raises():
    with pytest.raises(ValueError):
        run_baseline("B9", POL, CFG)


def test_kinds_constant():
    assert BASELINE_KINDS == ("B1", "B2", "B3", "B4")
