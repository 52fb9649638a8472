"""Transaction model: addresses, validity classes, chains."""

import pytest

from mpfuzz.txmodel import (GAS_PER_TX, Address, Role, Transaction,
                            WorldState, adversarial, benign)
from test_mempool import ValidityClass, classify, consecutive_chain


def test_address_roles_and_short():
    b = benign(3)
    a = adversarial(3)
    assert b.role is Role.BENIGN and a.role is Role.ADVERSARIAL
    assert b != a
    assert b.short() != a.short()


def test_address_hash_is_the_tuple_hash():
    for role in (Role.ADVERSARIAL, Role.BENIGN):
        for index in (0, 1, 7, 65536):
            assert hash(Address(role, index)) == hash((role, index))
    assert Address(Role.BENIGN, 3) == benign(3)
    assert {benign(3): 1}[Address(Role.BENIGN, 3)] == 1
    assert benign(3) != adversarial(3)
    assert len({benign(3), adversarial(3), benign(3)}) == 2


def test_transaction_hash_is_the_tuple_hash():
    # Dict and set orders over transactions follow this hash, so it must
    # stay the hash of the field tuple.
    for sender in (benign(1), adversarial(65536)):
        tx = Transaction(sender, 2, 3, 4)
        assert hash(tx) == hash((sender, 2, 3, 4)) == \
            hash(((sender.role, sender.index), 2, 3, 4))


def test_transaction_fee_and_key():
    tx = Transaction(benign(1), 1, 2, 5)
    assert tx.fee() == 5 * GAS_PER_TX
    assert tx.key()[2] == 1


def test_transaction_json_roundtrip():
    tx = Transaction(adversarial(7), 4, 9, 12)
    assert Transaction.from_json(tx.to_json()) == tx


def test_address_json_keeps_the_role_names():
    assert benign(2).to_json() == {"role": "benign", "index": 2}
    assert adversarial(2).to_json() == {"role": "adversarial", "index": 2}
    for role in ("Benign", "BENIGN", True, 1, None, ["benign"]):
        with pytest.raises(ValueError, match="field role "):
            Address.from_json({"role": role, "index": 2})


# An exploit file's transaction record whose integer fields are a float,
# a bool and a string; each must be refused, not coerced with int().
BAD_TX_RECORD = {"sender": {"role": "benign", "index": 2.7}, "nonce": 1.9,
                 "value": True, "gas_price": "5"}


@pytest.mark.parametrize("field", ["index", "nonce", "value", "gas_price"])
def test_transaction_from_json_rejects_a_value_of_the_wrong_type(field):
    good = Transaction(benign(2), 1, 1, 5).to_json()
    record = dict(good, sender=dict(good["sender"]))
    if field == "index":
        record["sender"]["index"] = BAD_TX_RECORD["sender"]["index"]
    else:
        record[field] = BAD_TX_RECORD[field]
    with pytest.raises(ValueError, match=f"field {field} "):
        Transaction.from_json(record)
    with pytest.raises(ValueError, match="field index "):
        Transaction.from_json(BAD_TX_RECORD)


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
