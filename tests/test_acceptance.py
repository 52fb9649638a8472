"""End-to-end acceptance checks, one per shipped guarantee.

Each test states its target figure and tolerance inline.  One check is
known not to hold and is kept at full strength anyway rather than being
weakened:

  * ``test_criterion4_asym_xt7_nethermind`` expects a damage ratio of
    0.355 at m=16, i.e. 17 chargeable price units against 16 benign
    residents at price 3.  The XT7 schedule leaves only its chain's
    parent (price 4) chargeable and scores 4/48.  No account-min-price
    displacement schedule written as a function of m has been found that
    scores 17/48, and the repo holds no method text to say how the
    figure was obtained.

The promisingness gain (criterion 6) is checked over a grid of targets
rather than on ``geth-legacy-reduced(6)`` alone.  There every state
added before the first exploit has one benign resident fewer than its
parent, so the gate never rejects one and the gated and ungated searches
tie at 27 mutations; no gate that only filters corpus admissions can
beat that.  The gain shows where the gate does reject states, and it
needs rejected states to stay covered (see the ``fuzzer`` docstring).
"""

import inspect
import statistics
import time
from fractions import Fraction

import pytest

from mpfuzz.baselines import run_baseline, run_reference
from mpfuzz.exploitkit import (XT_PATTERNS, extend, run_pattern,
                               simulate_xt8a, vulnerability_matrix)
from mpfuzz.fuzzer import Seed, run_fuzzer
from mpfuzz.mempool import PRESET_FAMILIES, policy_preset
from mpfuzz.oracle import OracleConfig, classify_tp_fp
from mpfuzz.symbolic import execute_input, parse_input, symbolize_state
from mpfuzz.txmodel import GAS_PER_TX
from test_fuzzer import energy


def seq_text(exploit):
    return " ".join(t.serialize() for t in exploit.symbol_sequence)


# -- 1: minimal eviction exploit on the 3-slot target ----------------------

def test_criterion1_minimal_exploit():
    t0 = time.monotonic()
    res = run_fuzzer(policy_preset("geth-1.11-reduced(3,1,2,2)"),
                     OracleConfig(epsilon=0.0001), budget_mutations=1000)
    elapsed = time.monotonic() - t0
    seqs = {seq_text(e): e for e in res.exploits if e.kind == "Eviction"}
    assert "P C1 P0 C1 C1" in seqs
    hit = seqs["P C1 P0 C1 C1"]
    assert hit.end_state == "FEE"
    assert hit.verdict.asym == 0
    assert res.mutations <= 1000
    assert elapsed < 10.0


# -- 2: exact costs and scheduling energies --------------------------------

def test_criterion2_costs_and_energies():
    from mpfuzz.symbolic import opcost
    pol = policy_preset("geth-1.11-reduced(3,1,2,2)")
    reach = {
        "NNN": "",
        "NNP": "P",
        "NPC": "P C1",
        "NPP": "P P0",
        "PPC": "P P0 C1",
        "PCP": "P C1 P0",
    }
    expected_opcost = {"NNN": 9, "NNP": 10, "NPC": 8, "NPP": 12,
                       "PPC": 10, "PCP": 10}
    expected_energy = {"NNN": Fraction(0), "NNP": Fraction(1, 10),
                       "NPC": Fraction(1, 8), "NPP": Fraction(1, 12),
                       "PPC": Fraction(1, 10), "PCP": Fraction(1, 10)}
    for key, text in reach.items():
        seq = parse_input(text) if text else ()
        state, ctx, _, _ = execute_input(pol, seq, fill_count=3)
        sym = symbolize_state(state)
        assert sym.key == key
        assert opcost(sym) == expected_opcost[key]
        seed = Seed(input=seq, sym_state=sym, ctx=ctx,
                    candidates=("pending",) if key != "NNN" else ())
        assert energy(seed) == expected_energy[key]


# -- 3: both exploit families on the 6-slot legacy target ------------------

def test_criterion3_legacy_exploit_families():
    res = run_fuzzer(policy_preset("geth-legacy-reduced(6)"),
                     OracleConfig(epsilon=0.2), budget_mutations=100_000)
    assert res.mutations <= 100_000
    texts = [seq_text(e) for e in res.exploits]
    all_future = [t for t in texts
                  if t and set(t.split()) == {"F"}]
    latent = [t for t in texts if "L" in t]
    assert all_future, f"no all-future exploit in {texts}"
    assert latent, f"no latent-overdraft exploit in {texts}"


# -- 4: damage ratios of the pattern library at m=16 -----------------------

ASYM_TABLE = [
    ("XT1", "geth-legacy-reduced(16)", 0.0),
    ("XT3", "geth-legacy-reduced(16)", 0.083),
    ("XT6", "geth-legacy-reduced(16)", 0.125),
    ("XT2", "geth-legacy-reduced(16)", 0.167),
    ("XT4", "geth-legacy-reduced(16)", 0.208),
    ("XT8", "reth-fifo-reduced(16)", 0.34),
    ("XT9", "openethereum-reduced(16)", 0.46),
]


@pytest.mark.parametrize("pattern,preset,expected",
                         ASYM_TABLE, ids=[r[0] for r in ASYM_TABLE])
def test_criterion4_asym_table(pattern, preset, expected):
    res = run_pattern(pattern, policy_preset(preset),
                      OracleConfig(epsilon=0.5, lam=0.5))
    assert res.all_admitted, res.reason
    assert float(res.verdict.asym) == pytest.approx(expected, abs=0.01)


def test_criterion4_asym_xt7_nethermind():
    res = run_pattern("XT7", policy_preset("nethermind-legacy-reduced(16)"),
                      OracleConfig(epsilon=0.5, lam=0.5))
    assert res.all_admitted, res.reason
    assert float(res.verdict.asym) == pytest.approx(0.355, abs=0.01)


# -- 5: which client generation falls to which pattern ---------------------

EXPECTED_BITS = {
    "geth-legacy":        "111111000",
    "geth-1.11":          "000011000",
    "besu-legacy":        "110100000",
    "besu-22.7":          "010100000",
    "nethermind-legacy":  "100100100",
    "nethermind-1.18":    "000100000",
    "reth-fifo":          "000000010",
    "openethereum":       "000100001",
}


def test_criterion5_vulnerability_matrix():
    pols = {name: policy_preset(f"{name}-reduced(6)")
            for name in EXPECTED_BITS}
    mat = vulnerability_matrix(pols, OracleConfig(epsilon=0.36, lam=0.46))
    got = {name: "".join("1" if mat[name][p].success else "0"
                         for p in XT_PATTERNS)
           for name in EXPECTED_BITS}
    assert got == EXPECTED_BITS


# -- 6: ablation against the reference fuzzers -----------------------------

ABLATION_CAP = 2_000_000


@pytest.fixture(scope="module")
def ablation():
    pol = policy_preset("geth-legacy-reduced(6)")
    cfg = OracleConfig(epsilon=0.2)
    cap = ABLATION_CAP
    med = {}
    for kind in ("mpfuzz", "B1", "B2", "B3", "B4"):
        vals, founds = [], []
        for seed in range(5):
            if kind == "mpfuzz":
                r = run_reference(pol, cfg, cap, seed)
            else:
                r = run_baseline(kind, pol, cfg, cap, seed)
            founds.append(r.found)
            vals.append(r.mutations_to_first
                        if r.mutations_to_first is not None else cap)
        med[kind] = (statistics.median(vals), all(founds), any(founds))
    return med


@pytest.mark.slow
def test_criterion6_baseline_ordering(ablation):
    med = ablation
    assert not med["B1"][2], "random-bytes baseline should never succeed"
    assert med["B1"][0] == 2_000_000
    for kind in ("mpfuzz", "B2", "B3", "B4"):
        assert med[kind][1], f"{kind} failed to find an exploit"
    assert med["B4"][0] < med["B3"][0] < med["B2"][0]
    assert med["mpfuzz"][0] <= med["B3"][0] / 10
    assert med["mpfuzz"][0] <= med["B4"][0]


# The paper's headline where it reports new bugs: on the patched clients
# mpfuzz finds at these counts, and B2 and B3 find on none of five seeds
# within 100 times as many mutations.
HEADLINE = {"geth-1.11-reduced(6)": 139, "besu-22.7-reduced(6)": 165}


@pytest.mark.parametrize("preset", HEADLINE)
def test_criterion6_headline_on_patched_clients(preset):
    pol = policy_preset(preset)
    cfg = OracleConfig(epsilon=0.2)
    ref = run_reference(pol, cfg, ABLATION_CAP)
    assert ref.mutations_to_first == HEADLINE[preset]
    budget = 100 * ref.mutations_to_first
    for kind in ("B2", "B3"):
        for seed in range(5):
            res = run_baseline(kind, pol, cfg, budget, seed)
            assert not res.found, (kind, seed, res.mutations_to_first)
            assert res.mutations_total == budget


# Every preset family at two reduced sizes and two cost bounds.
GATE_GRID = [(f"{family}-reduced({m})", eps)
             for family in PRESET_FAMILIES
             for m in (6, 8)
             for eps in (0.2, 0.5)]


def test_criterion6_promisingness_strict_gain():
    gated_total = ungated_total = 0
    for preset, eps in GATE_GRID:
        pol = policy_preset(preset)
        cfg = OracleConfig(epsilon=eps)
        gated = run_reference(pol, cfg, ABLATION_CAP)
        ungated = run_baseline("B4", pol, cfg, ABLATION_CAP)
        if not ungated.found:
            continue
        assert gated.found, f"{preset} at {eps}: B4 finds, mpfuzz does not"
        assert gated.mutations_to_first <= ungated.mutations_to_first, \
            (preset, eps, gated.mutations_to_first,
             ungated.mutations_to_first)
        gated_total += gated.mutations_to_first
        ungated_total += ungated.mutations_to_first
    assert gated_total < ungated_total


# -- 7: scaling a short exploit to the full-size pool ----------------------

def test_criterion7_extension_to_full_scale():
    pol6 = policy_preset("geth-legacy-reduced(6)")
    res = run_fuzzer(pol6, OracleConfig(epsilon=0.2), stop_on_first=True)
    all_future = [e for e in res.exploits
                  if set(seq_text(e).split()) == {"F"}]
    if not all_future:
        res = run_fuzzer(pol6, OracleConfig(epsilon=0.2),
                         budget_mutations=100_000)
        all_future = [e for e in res.exploits
                      if set(seq_text(e).split()) == {"F"}]
    short = all_future[0]
    t0 = time.monotonic()
    big = extend(short, policy_preset("geth-legacy"))
    elapsed = time.monotonic() - t0
    assert big.mut_config.capacity == 6144
    assert big.verdict.asym == 0
    assert classify_tp_fp(short.verdict, big.verdict) == "TruePositive"
    assert elapsed < 60.0


# -- 8: fee-floor deflation then cheap locking -----------------------------

def test_criterion8_deflate_then_lock():
    pol = policy_preset("reth-fifo-reduced(6)")
    rep = simulate_xt8a(pol, 6, eviction_blocks=35, lock_price=1,
                        initial_base_price=100.0)
    assert rep.feasible
    target = 100.0 * 0.875 ** 35
    assert abs(rep.base_price_series[35] - target) <= 1e-9 * target
    lock = [r for r in rep.series if r["phase"] == "lock"]
    assert lock
    # benign fee flow dies within three blocks of the lock landing
    assert all(r["benign_fees"] == 0 for r in lock[3:])
    # and the lock keeps blocks essentially full
    full = 6 * GAS_PER_TX
    assert all(r["gas_used"] >= full - 21000 for r in lock[1:])


# -- 9: the generated-case suites exist at the required size ---------------

def test_criterion9_property_suites():
    import tests.test_properties as props
    # The test functions defined there, not every `test_` name it binds.
    suites = [n for n, f in vars(props).items() if n.startswith("test_")
              and inspect.isfunction(f) and f.__module__ == props.__name__]
    assert len(suites) == 6
    assert props.BIG.max_examples >= 1000
