"""Property suites: each runs at least a thousand generated cases."""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from mpfuzz.fuzzer import run_fuzzer
from mpfuzz.mempool import (MempoolState, WorldState, new_pool,
                            policy_preset)
from mpfuzz.oracle import OracleConfig, asym_E
from mpfuzz.symbolic import (cost, enumerate_mutations, execute_input,
                             instantiate, opcost, symbolize_state)
from mpfuzz.txmodel import Transaction, adversarial, benign

BIG = settings(max_examples=1000, deadline=None,
               suppress_health_check=[HealthCheck.too_slow,
                                      HealthCheck.filter_too_much])

SMALL_PRESETS = (
    "geth-legacy-reduced(3)",
    "geth-1.11-reduced(3,1,2,2)",
    "besu-legacy-reduced(3)",
    "nethermind-legacy-reduced(3)",
    "reth-fifo-reduced(3)",
    "openethereum-reduced(3)",
)


def drive(policy, choices, fill=True):
    """Map integer draws onto always-feasible symbol mutations."""
    state = new_pool(policy)
    from mpfuzz.mempool import fill_normal
    from mpfuzz.symbolic import InstantiationContext
    count = policy.capacity if fill else 0
    fill_normal(state, count)
    ctx = InstantiationContext(capacity=policy.capacity,
                               benign_next=count + 1)
    seq = []
    for c in choices:
        cands = enumerate_mutations(state, ctx)
        if not cands:
            break
        symtx = cands[c % len(cands)]
        tx = instantiate(symtx, state, ctx)
        state.admit_mut(tx)
        seq.append(symtx)
    return tuple(seq), state


# -- suite 1: abstraction is insensitive to concrete identities ------------

@BIG
@given(preset=st.sampled_from(SMALL_PRESETS),
       choices=st.lists(st.integers(0, 11), max_size=6),
       boff=st.integers(0, 50), aoff=st.integers(0, 50))
def test_symbolization_ignores_identity_offsets(preset, choices, boff, aoff):
    pol = policy_preset(preset)
    seq, base_state = drive(pol, choices)
    s1, _, _, o1 = execute_input(pol, seq, pol.capacity)
    s2, _, _, o2 = execute_input(pol, seq, pol.capacity,
                                 benign_offset=boff, adv_offset=aoff)
    assert symbolize_state(s1).key() == symbolize_state(s2).key() \
        == symbolize_state(base_state).key()
    assert [o.kind for o in o1] == [o.kind for o in o2]


# -- suite 2: admission trichotomy and capacity safety ---------------------

tx_strategy = st.builds(
    Transaction,
    sender=st.one_of(st.integers(1, 3).map(adversarial),
                     st.integers(1, 3).map(benign)),
    nonce=st.integers(1, 4),
    value=st.integers(1, 5),
    gas_price=st.integers(1, 9))


@BIG
@given(preset=st.sampled_from(SMALL_PRESETS),
       txs=st.lists(tx_strategy, max_size=10),
       prefill=st.integers(0, 3))
def test_admission_trichotomy_and_capacity(preset, txs, prefill):
    pol = policy_preset(preset)
    state = new_pool(pol)
    from mpfuzz.mempool import fill_normal
    fill_normal(state, prefill)
    for tx in txs:
        slots = state.to_json()["slots"]
        declined = list(state.declined)
        out = state.admit_mut(tx)
        # exactly one of: admitted (no reason) / declined (with reason)
        assert out.admitted == (out.reason is None)
        assert out.admitted == out.kind.startswith("Admitted")
        assert len(state) <= pol.capacity
        assert state.future_count <= pol.future_quota
        # A decline changes nothing but the decline log, which records it
        # once; benign probes and the XT6 rehearsal rely on this.
        if out.admitted:
            assert state.declined == declined
        else:
            assert state.to_json()["slots"] == slots
            assert state.declined == declined + [(tx, out.reason)]
    # resident nonces are unique per sender
    seen = set()
    for e in state.entries.values():
        key = (e.tx.sender, e.tx.nonce)
        assert key not in seen
        seen.add(key)


# -- suite 3: damage ratio is invariant under uniform price scaling --------

@BIG
@given(txs=st.lists(tx_strategy, max_size=8),
       k=st.integers(1, 7),
       preset=st.sampled_from(SMALL_PRESETS))
def test_asym_scale_invariance(txs, k, preset):
    pol = policy_preset(preset)

    def build(scale):
        state = new_pool(pol)
        st0 = []
        for i in range(1, pol.capacity + 1):
            tx = Transaction(benign(i), 1, 1, 3 * scale)
            state.admit_mut(tx)
            st0.append(tx)
        for tx in txs:
            state.admit_mut(Transaction(tx.sender, tx.nonce, tx.value,
                                        tx.gas_price * scale))
        return st0, state

    st0a, sa = build(1)
    st0b, sb = build(k)
    assert asym_E(st0a, sa) == asym_E(st0b, sb)


# -- suite 4: operational cost never exceeds full cost ---------------------

@BIG
@given(preset=st.sampled_from(SMALL_PRESETS),
       choices=st.lists(st.integers(0, 11), max_size=6),
       fill=st.booleans())
def test_opcost_bounded_by_cost(preset, choices, fill):
    pol = policy_preset(preset)
    _, state = drive(pol, choices, fill=fill)
    sym = symbolize_state(state)
    assert 0 <= opcost(sym) <= cost(sym)


# -- suite 5: campaigns are reproducible bit for bit -----------------------

@BIG
@given(preset=st.sampled_from(SMALL_PRESETS),
       budget=st.integers(1, 60),
       eps=st.sampled_from([0.0001, 0.2, 0.36]),
       seed=st.integers(0, 1000))
def test_run_determinism(preset, budget, eps, seed):
    pol = policy_preset(preset)
    cfg = OracleConfig(epsilon=eps)
    a = run_fuzzer(pol, cfg, budget_mutations=budget, rng_seed=seed)
    b = run_fuzzer(pol, cfg, budget_mutations=budget, rng_seed=seed)
    assert a.mutations == b.mutations
    assert a.states_covered == b.states_covered
    assert [e.to_json() for e in a.exploits] == \
        [e.to_json() for e in b.exploits]
