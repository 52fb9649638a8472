"""Transaction model: addresses, validity classes, chains."""

from mpfuzz.txmodel import (GAS_PER_TX, Address, Role, Transaction,
                            ValidityClass, WorldState, adversarial, benign,
                            classify, consecutive_chain)


def test_address_roles_and_short():
    b = benign(3)
    a = adversarial(3)
    assert b.role is Role.BENIGN and a.role is Role.ADVERSARIAL
    assert b != a
    assert b.short() != a.short()


def test_address_hash_is_the_tuple_hash():
    for role in Role:
        for index in (0, 1, 7, 65536):
            assert hash(Address(role, index)) == hash((role, index))
    assert Address(Role.BENIGN, 3) == benign(3)
    assert {benign(3): 1}[Address(Role.BENIGN, 3)] == 1
    assert benign(3) != adversarial(3)
    assert len({benign(3), adversarial(3), benign(3)}) == 2


def test_transaction_fee_and_key():
    tx = Transaction(benign(1), 1, 2, 5)
    assert tx.fee() == 5 * GAS_PER_TX
    assert tx.key()[2] == 1


def test_transaction_json_roundtrip():
    tx = Transaction(adversarial(7), 4, 9, 12)
    assert Transaction.from_json(tx.to_json()) == tx


def test_world_default_balance():
    w = WorldState(default_balance=6)
    acct = w.get(benign(1))
    assert acct.balance == 6 and acct.confirmed_nonce == 0


def test_world_reads_store_no_account():
    w = WorldState(default_balance=6)
    s = adversarial(1)
    assert w.balance(s) == 6 and w.confirmed_nonce(s) == 0
    classify(Transaction(s, 1, 1, 3), w, [])
    assert w.accounts == {} and w.copy().accounts == {}
    w.get(s).balance = 2
    assert w.balance(s) == 2 and w.copy().accounts[s].balance == 2


def test_classify_pending_future_overdraft():
    w = WorldState(default_balance=6)
    s = adversarial(1)
    assert classify(Transaction(s, 1, 1, 3), w, []) is ValidityClass.PENDING
    assert classify(Transaction(s, 3, 1, 3), w, []) is ValidityClass.FUTURE
    assert classify(Transaction(s, 1, 7, 3), w, []) is ValidityClass.OVERDRAFT


def test_classify_latent_overdraft_needs_chain():
    w = WorldState(default_balance=6)
    s = adversarial(1)
    resident = [Transaction(s, 1, 5, 3)]
    tx = Transaction(s, 2, 5, 3)
    assert classify(tx, w, resident) is ValidityClass.LATENT_OVERDRAFT


def test_classify_replacement_beats_other_classes():
    w = WorldState(default_balance=6)
    s = adversarial(1)
    resident = [Transaction(s, 1, 1, 3)]
    tx = Transaction(s, 1, 1, 5)
    assert classify(tx, w, resident) is ValidityClass.REPLACEMENT


def test_consecutive_chain_stops_at_gap():
    assert consecutive_chain([1, 2, 4], 0) == 2
    assert consecutive_chain([2, 3], 0) == 0
    assert consecutive_chain([3, 4], 2) == 2
