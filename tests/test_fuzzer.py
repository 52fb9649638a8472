"""Search loop: corpus scheduling, feedback, determinism, end to end."""

import dataclasses
import io
import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from mpfuzz.fuzzer import Corpus, Seed, _audit_reexec, run_fuzzer
from mpfuzz.mempool import (PRESET_FAMILIES, AdmissionOutcome,
                            DeclineReason, fill_normal, new_pool,
                            policy_preset, probe_declines, walk)
from mpfuzz.oracle import (OracleConfig, chargeable_fees, check_eviction,
                           check_locking)
from mpfuzz.symbolic import (SymbolizedState, SymbolizedTx, execute_input,
                             opcost, parse_input, symbolize_state)
from mpfuzz.txmodel import Transaction, adversarial
from test_mempool import check_walked

PRESET3 = "geth-1.11-reduced(3,1,2,2)"


def make_seed(text=""):
    pol = policy_preset(PRESET3)
    seq = parse_input(text) if text else ()
    state, ctx, _, _ = execute_input(pol, seq, fill_count=3)
    return Seed(input=seq, sym_state=symbolize_state(state), ctx=ctx)


def test_corpus_rejects_duplicate_state_keys():
    c = Corpus()
    c.add(make_seed())
    with pytest.raises(ValueError):
        c.add(make_seed())


def test_energy_is_inverse_opcost_and_zero_when_exhausted():
    s = make_seed("P")
    s.candidates = ()  # nothing left untried
    assert energy(s) == 0
    s2 = make_seed("P")
    s2.candidates = ("x",)
    assert energy(s2) == Fraction(1, 10)


def test_selection_prefers_max_energy_then_insertion_order():
    c = Corpus()
    a = make_seed("P")        # opcost 10
    a.candidates = ("x",)
    b = make_seed("P C1")     # opcost 8, higher energy
    b.candidates = ("x",)
    c.add(a)
    c.add(b)
    assert c.select() is b


def energy(seed):
    """Scheduling energy b/opcost (b = 1), 0 for a seed with no
    candidates: the ranking that ``Corpus.select`` reproduces with its
    heap."""
    if not seed.candidates:
        return Fraction(0)
    oc = opcost(seed.sym_state)
    if oc == 0:
        return math.inf
    return Fraction(1, oc)


def scan_select(seeds):
    """Reference selection: a linear scan of `seeds`, in the order they
    were added, for the highest energy, the earliest on a tie, skipping
    seeds with no candidates (energy 0)."""
    best, best_energy = None, 0
    for s in seeds:
        e = energy(s)
        if e > best_energy:
            best, best_energy = s, e
    return best


def generated_seed(chain, n_candidates, serial):
    # Each P slot adds its price to opcost and each C slot adds 1; an
    # empty chain has opcost 0.  `serial` E slots make every key distinct
    # without changing opcost.
    key = "".join("P" if p else "C" for p in chain) + "E" * serial
    sym = SymbolizedState(key, sum(p for p in chain if p),
                          capacity=len(key))
    return Seed(input=(), sym_state=sym, ctx=None,
                candidates=tuple(SymbolizedTx("P", k)
                                 for k in range(n_candidates)))


CORPUS_OPS = st.lists(st.one_of(
    st.tuples(st.just("add"),
              st.lists(st.one_of(st.none(), st.integers(4, 7)),
                       max_size=4),
              st.integers(0, 4)),
    st.tuples(st.just("select"))), max_size=40)


@settings(max_examples=300, deadline=None)
@given(CORPUS_OPS)
def test_heap_selection_equals_linear_scan(ops):
    # A selection takes its seed out of the corpus, so the scan runs over
    # the seeds not taken yet.
    corpus = Corpus()
    untaken = []
    for serial, op in enumerate(ops):
        if op[0] == "add":
            seed = generated_seed(op[1], op[2], serial)
            corpus.add(seed)
            untaken.append(seed)
        else:
            expected = scan_select(untaken)
            assert corpus.select() is expected
            untaken = [s for s in untaken if s is not expected]


@pytest.mark.parametrize("preset, mode", [
    ("geth-legacy-reduced(6)", "eviction"),
    ("reth-fifo-reduced(3)", "locking"),
])
def test_exploit_txs_equal_reexecution(preset, mode):
    pol = policy_preset(preset)
    res = run_fuzzer(pol, OracleConfig(epsilon=0.2), modes=(mode,))
    assert res.exploits
    fill = pol.capacity if mode == "eviction" else 0
    for ex in res.exploits:
        _, _, txs, _ = execute_input(pol, ex.symbol_sequence, fill)
        assert ex.concrete_txs == txs


def test_reexec_audit_checks_carried_txs():
    pol = policy_preset(PRESET3)
    seq = parse_input("P C1 P0")
    state, _, txs, outcomes = execute_input(pol, seq, fill_count=3)
    key, fees = symbolize_state(state).key, chargeable_fees(state)
    out = outcomes[-1]
    _audit_reexec(pol, seq, 3, state, tuple(txs), out, key, fees)
    with pytest.raises(AssertionError, match="carried transactions"):
        _audit_reexec(pol, seq, 3, state, tuple(txs[:-1]), out, key, fees)
    with pytest.raises(AssertionError, match="state key"):
        _audit_reexec(pol, seq, 3, state, tuple(txs), out, "E" * len(key),
                      fees)
    with pytest.raises(AssertionError, match="chargeable fees"):
        _audit_reexec(pol, seq, 3, state, tuple(txs), out, key, fees + 1)
    # The last admission's kind and decline reason are checked too.
    with pytest.raises(AssertionError, match="admission outcome"):
        _audit_reexec(pol, seq, 3, state, tuple(txs),
                      AdmissionOutcome("Admitted"), key, fees)
    declined = parse_input("P C1 P0 O1")
    state, _, txs, outcomes = execute_input(pol, declined, fill_count=3)
    assert outcomes[-1].reason is DeclineReason.OVERDRAFT
    _audit_reexec(pol, declined, 3, state, tuple(txs), outcomes[-1], key,
                  fees)
    with pytest.raises(AssertionError, match="admission outcome"):
        _audit_reexec(pol, declined, 3, state, tuple(txs),
                      AdmissionOutcome("Declined",
                                       DeclineReason.FULL_NO_VICTIM),
                      key, fees)


def test_golden_early_trace():
    # The first mutations of the campaign are fully determined: the root
    # expands to NNP, then NNP's candidates run, then NPC is selected.
    buf = io.StringIO()
    run_fuzzer(policy_preset(PRESET3), OracleConfig(epsilon=0.0001),
               log_stream=buf)
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    head = [(l["seed"], l["candidate"], l["state"], l["feedback"])
            for l in lines[:8]]
    assert head == [
        ("NNN", "P", "NNP", True),
        ("NNP", "P0", "NPP", True),
        ("NNP", "P1", "NPP", False),
        ("NNP", "C1", "NPC", True),
        ("NNP", "O1", "NNP", False),
        ("NPC", "P0", "PCP", True),
        ("NPC", "P1", "PCP", False),
        ("NPC", "L1", "NPC", False),
    ]


def test_end_to_end_finds_min_eviction_exploit():
    res = run_fuzzer(policy_preset(PRESET3), OracleConfig(epsilon=0.0001),
                     budget_mutations=1000)
    ev = [e for e in res.exploits if e.kind == "Eviction"]
    assert ev, "no eviction exploit found"
    seqs = [" ".join(t.serialize() for t in e.symbol_sequence) for e in ev]
    assert "P C1 P0 C1 C1" in seqs


def test_run_is_deterministic():
    pol = policy_preset(PRESET3)
    cfg = OracleConfig(epsilon=0.0001)
    a = run_fuzzer(pol, cfg, budget_mutations=500)
    b = run_fuzzer(pol, cfg, budget_mutations=500)
    assert a.mutations == b.mutations
    assert a.states_covered == b.states_covered
    assert [e.to_json() for e in a.exploits] == \
        [e.to_json() for e in b.exploits]


def test_rng_seed_does_not_change_search():
    pol = policy_preset(PRESET3)
    cfg = OracleConfig(epsilon=0.0001)
    a = run_fuzzer(pol, cfg, budget_mutations=500, rng_seed=0)
    b = run_fuzzer(pol, cfg, budget_mutations=500, rng_seed=77)
    assert a.mutations == b.mutations
    assert [" ".join(t.serialize() for t in e.symbol_sequence)
            for e in a.exploits] == \
        [" ".join(t.serialize() for t in e.symbol_sequence)
         for e in b.exploits]


def test_stop_on_first_reports_mutation_count():
    res = run_fuzzer(policy_preset(PRESET3), OracleConfig(epsilon=0.0001),
                     stop_on_first=True)
    assert res.first_exploit_mutations is not None
    assert res.first_exploit_mutations <= res.mutations


def test_reexec_audit_passes():
    res = run_fuzzer(policy_preset(PRESET3), OracleConfig(epsilon=0.0001),
                     budget_mutations=300, reexec_audit=True)
    assert res.mutations > 0


@pytest.mark.parametrize("family", PRESET_FAMILIES)
def test_reexec_audit_passes_both_modes_on_every_family(family):
    # Each mutation's pool, transactions, summarized state key and
    # chargeable fees against a full re-execution of its input.
    res = run_fuzzer(policy_preset(f"{family}-reduced(3)"), OracleConfig(),
                     reexec_audit=True)
    assert set(res.mode_stats) == {"eviction", "locking"}
    assert all(s["stopped_by"] == "corpus_exhausted"
               for s in res.mode_stats.values())


def test_reexec_audit_checks_the_locking_gate(monkeypatch):
    # A gate that skips every pool skips the FIFO lock's too.
    monkeypatch.setattr("mpfuzz.fuzzer.could_lock",
                        lambda pool, fees, cfg: False)
    with pytest.raises(AssertionError, match="locking gate"):
        run_fuzzer(policy_preset("reth-fifo-reduced(3)"), OracleConfig(),
                   modes=("locking",), reexec_audit=True)


def campaign_record(family, reexec_audit):
    """The log text, exploits and `mode_stats` of a two-mode campaign on
    `family` at `reduced(3)`, run to corpus exhaustion."""
    buf = io.StringIO()
    res = run_fuzzer(policy_preset(f"{family}-reduced(3)"), OracleConfig(),
                     log_stream=buf, reexec_audit=reexec_audit)
    assert all(s["stopped_by"] == "corpus_exhausted"
               for s in res.mode_stats.values())
    return (buf.getvalue(), [e.to_json() for e in res.exploits],
            res.mode_stats)


def test_replay_equals_full_judging():
    # Without the audit a repeated transaction replays its first result;
    # with it every repeat is judged in full and checked against that
    # replay.  The records must not differ.
    repeats = 0
    for family in PRESET_FAMILIES:
        replayed = campaign_record(family, reexec_audit=False)
        assert replayed == campaign_record(family, reexec_audit=True)
        # P_1..P_r repeat P_0's transaction.
        cands = [json.loads(line)["candidate"]
                 for line in replayed[0].splitlines()]
        repeats += sum(c[0] == "P" and c not in ("P", "P0") for c in cands)
    assert repeats > 100


def test_reexec_audit_checks_replayed_results(monkeypatch):
    # Each locking verdict is numbered in its asym, so no two judgings
    # build the same one.  Without the audit, two exploits share a number:
    # a repeat replayed its first result.  With the audit, the repeat's
    # full judging differs from that replay and is refused.
    numbers = itertools.count(1)

    def numbered(end_state, declined, cfg):
        return dataclasses.replace(check_locking(end_state, declined, cfg),
                                   asym=Fraction(next(numbers)))

    monkeypatch.setattr("mpfuzz.fuzzer.check_locking", numbered)
    _, exploits, _ = campaign_record(PRESET_FAMILIES[0], reexec_audit=False)
    numbered_asyms = Counter(ex["verdict"]["asym"] for ex in exploits
                             if ex["kind"] == "Locking")
    assert max(numbered_asyms.values()) > 1
    with pytest.raises(AssertionError, match="replayed result"):
        campaign_record(PRESET_FAMILIES[0], reexec_audit=True)


@pytest.mark.parametrize("mode", ("eviction", "locking"))
@pytest.mark.parametrize("family", ("geth-legacy", "openethereum",
                                    "nethermind-legacy", "besu-22.7"))
def test_walked_pools_equal_reexecution(monkeypatch, family, mode):
    # At each selection the search walks its one pool to the seed's path,
    # and that pool must be the one a fresh execution of the seed's input
    # builds.  One preset per eviction rule, and besu-22.7.
    pol = policy_preset(f"{family}-reduced(6)")
    fill = pol.capacity if mode == "eviction" else 0
    selected = []
    select = Corpus.select

    def select_spy(corpus):
        seed = select(corpus)
        if seed is not None:
            selected.append(seed)
        return seed

    checked = []
    probe = Transaction(adversarial(1), 1, 1, 5)

    def walk_spy(pool, held, txs):
        walk(pool, held, txs)
        seed = selected[-1]
        assert txs == seed.txs
        check_walked(pool, execute_input(pol, seed.input, fill)[0], probe)
        checked.append(seed)

    monkeypatch.setattr(Corpus, "select", select_spy)
    monkeypatch.setattr("mpfuzz.fuzzer.walk", walk_spy)
    res = run_fuzzer(pol, OracleConfig(), modes=(mode,))
    assert res.mode_stats[mode]["stopped_by"] == "corpus_exhausted"
    assert len(selected) > 50 and len(checked) == len(selected)


@pytest.mark.parametrize("modes, message", [
    (("evction",), "unknown fuzzing mode 'evction'"),
    (("eviction", "Locking"), "unknown fuzzing mode 'Locking'"),
    (("eviction", "eviction"), "mode 'eviction' asked for twice"),
    (("locking", "eviction", "locking"), "mode 'locking' asked for twice"),
])
def test_fuzzer_rejects_unknown_and_repeated_modes(modes, message):
    with pytest.raises(ValueError, match=message):
        run_fuzzer(policy_preset("geth-legacy-reduced(3)"), OracleConfig(),
                   modes=modes)


def test_locking_mode_finds_fifo_lock():
    res = run_fuzzer(policy_preset("reth-fifo-reduced(3)"), OracleConfig(),
                     modes=("locking",), budget_mutations=2000)
    assert any(e.kind == "Locking" for e in res.exploits)


def test_budget_is_respected():
    res = run_fuzzer(policy_preset("geth-legacy-reduced(6)"),
                     OracleConfig(epsilon=0.2), budget_mutations=50)
    assert res.mutations <= 50


def test_gate_judges_each_state_once(monkeypatch):
    # A state the promisingness gate rejects is covered all the same: no
    # later path re-judges it or admits it as a seed.
    import mpfuzz.fuzzer as fuzzer
    judged = []
    gate = fuzzer.st_promising

    def spy(new_sym, *args):
        judged.append(new_sym.key)
        return gate(new_sym, *args)

    monkeypatch.setattr(fuzzer, "st_promising", spy)
    buf = io.StringIO()
    run_fuzzer(policy_preset("nethermind-1.18-reduced(6)"),
               OracleConfig(epsilon=0.2), modes=("eviction",),
               log_stream=buf)
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    kept = [l["state"] for l in lines if l.get("feedback")]
    assert len(kept) == len(set(kept))
    assert set(judged) - set(kept), "the gate never rejected a state"
    assert len(judged) == len(set(judged))
    first_reached = {}
    for i, l in enumerate(lines):
        if "state" in l:
            first_reached.setdefault(l["state"], i)
    assert all(first_reached[l["state"]] == i
               for i, l in enumerate(lines) if l.get("feedback"))


@pytest.mark.parametrize("size", (3, 6))
def test_declined_mutations_leave_the_seed_state(size):
    # The fuzzer neither symbolizes nor judges a declined mutation.
    # Re-executed in full, each one's state is its seed's and its mode's
    # verdict does not trigger.
    cfg = OracleConfig()
    declines = 0
    for family in PRESET_FAMILIES:
        pol = policy_preset(f"{family}-reduced({size})")
        m = pol.capacity
        buf = io.StringIO()
        run_fuzzer(pol, cfg, log_stream=buf)
        inputs = {}  # (mode, state key) -> input of the seed
        for line in buf.getvalue().splitlines():
            rec = json.loads(line)
            mode, seed = rec["mode"], rec["seed"]
            inputs.setdefault((mode, seed), ())  # the first seed is a root
            new_input = inputs[(mode, seed)] + \
                (SymbolizedTx.parse(rec["candidate"]),)
            if rec.get("feedback"):
                inputs[(mode, rec["state"])] = new_input
            if rec["outcome"] != "Declined":
                continue
            declines += 1
            fill = m if mode == "eviction" else 0
            state, _, _, outcomes = execute_input(pol, new_input, fill)
            assert outcomes[-1].kind == "Declined"
            assert rec["state"] == seed == symbolize_state(state).key
            if mode == "eviction":
                st0, _ = fill_normal(new_pool(pol), m)
                verdict = check_eviction(st0, state, cfg)
            else:
                _, verdict = probe_declines(state, m,
                                            partial(check_locking, cfg=cfg))
            assert not verdict.triggered
    assert declines > 100


def test_mode_stats_count_outcomes_and_say_why_a_mode_stopped(monkeypatch):
    pol = policy_preset(PRESET3)
    cfg = OracleConfig(epsilon=0.0001)
    # Selection takes its seed out of the corpus: no seed comes back.
    selected = []
    select = Corpus.select

    def spy(corpus):
        seed = select(corpus)
        if seed is not None:
            selected.append(seed)
        return seed

    monkeypatch.setattr(Corpus, "select", spy)
    buf = io.StringIO()
    res = run_fuzzer(pol, cfg, log_stream=buf)
    assert len(selected) > 1
    assert len({id(seed) for seed in selected}) == len(selected)
    logged = Counter((rec["mode"], rec["outcome"]) for rec in
                     map(json.loads, buf.getvalue().splitlines()))
    for mode, stats in res.mode_stats.items():
        assert stats["stopped_by"] == "corpus_exhausted"
        assert stats["outcomes"] == {outcome: n for (md, outcome), n
                                     in logged.items() if md == mode}
        assert sum(stats["outcomes"].values()) == stats["mutations"]
    assert set(res.mode_stats["eviction"]["outcomes"]) >= \
        {"Declined", "Exploit", "AdmittedEvicting"}
    short = run_fuzzer(pol, cfg, budget_mutations=20)
    assert list(short.mode_stats) == ["eviction"]
    assert short.mode_stats["eviction"]["stopped_by"] == "mutations"
    timed = run_fuzzer(pol, cfg, budget_seconds=0)
    assert [s["stopped_by"] for s in timed.mode_stats.values()] == \
        ["seconds", "seconds"]
    first = run_fuzzer(pol, cfg, stop_on_first=True)
    assert first.mode_stats["eviction"]["stopped_by"] == "first_exploit"
