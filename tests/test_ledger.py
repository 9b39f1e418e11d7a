"""Signing, canonical serialization, block validity, chain linkage."""

import dataclasses
import hashlib

import pytest

from fuzzychain import ledger
from fuzzychain.ledger import (
    GENESIS_PREV_HASH,
    _public_key,
    Block,
    Chain,
    LedgerError,
    Transaction,
    block_hash,
    block_payload,
    block_rejection_reason,
    build_block,
    genesis_block,
    make_block,
    new_keypair,
    sign_transaction,
    transaction_signing_bytes,
    validate_block,
    verify_transaction,
)
from fuzzychain.rng import substream


@pytest.fixture(scope="module")
def wallet():
    return new_keypair(substream(1234, "keys"))


@pytest.fixture(scope="module")
def other_wallet():
    return new_keypair(substream(1234, "keys", 1))


def live_state(generator) -> dict:
    """A PCG64 generator's state as later draws read it: numpy leaves a spent
    buffered half-word in "uinteger" after an even count of 32-bit draws,
    and reads it only while "has_uint32" is set."""
    state = generator.bit_generator.state
    if not state["has_uint32"]:
        state["uinteger"] = None
    return state


class TestKeys:
    def test_two_calls_give_distinct_keys(self):
        rng = substream(9, "keys")
        _, pub1 = new_keypair(rng)
        _, pub2 = new_keypair(rng)
        assert pub1 != pub2

    def test_same_stream_gives_same_key(self):
        _, pub1 = new_keypair(substream(7, "keys"))
        _, pub2 = new_keypair(substream(7, "keys"))
        assert pub1 == pub2

    def test_compressed_point_length(self, wallet):
        _, pub = wallet
        assert len(pub) == 33 and pub[0] in (2, 3)

    def test_other_curves_roundtrip(self):
        priv, pub = new_keypair(substream(5, "keys"), curve="secp256k1")
        tx = sign_transaction(priv, pub, 1.0, 0)
        assert verify_transaction(tx, curve="secp256k1")
        assert not verify_transaction(tx, curve="secp256r1")

    @pytest.mark.parametrize("curve", sorted(ledger.CURVES))
    def test_keys_equal_one_draw_per_word(self, curve):
        # the word-by-word form: one scalar 32-bit draw per word of the scalar
        c = ledger.CURVES[curve]()
        nwords = (c.key_size + 31) // 32 + 2
        for seed in range(25):
            rng, ref = substream(seed, "keys"), substream(seed, "keys")
            for _ in range(4):
                priv, _ = new_keypair(rng, curve)
                raw = 0
                for _ in range(nwords):
                    raw = (raw << 32) | int(ref.integers(0, 2**32))
                value = raw % (2**c.key_size - 3) + 1
                assert priv.private_numbers().private_value == value
                assert live_state(rng) == live_state(ref)
            assert (rng.integers(0, 2**32, size=3).tolist()
                    == ref.integers(0, 2**32, size=3).tolist())

    def test_unknown_curve_rejected(self):
        with pytest.raises(LedgerError, match="unknown curve"):
            new_keypair(substream(5, "keys"), curve="ed25519")


class TestCanonicalBytes:
    def test_unsigned_layout_is_length_prefixed_big_endian(self):
        got = transaction_signing_bytes(b"AB", b"CD", 1.5, 7)
        assert got == (
            b"\x00\x02AB"                      # sender, u16 length prefix
            + b"\x00\x02CD"                    # recipient
            + (1_500_000).to_bytes(8, "big")   # 1.5 as fixed-point micro-units
            + (7).to_bytes(8, "big")           # nonce
        )

    def test_signed_form_appends_signature_field(self):
        tx = Transaction(b"AB", b"CD", 1.5, 7, signature=b"\xde\xad")
        assert tx.signed_bytes == (
            transaction_signing_bytes(b"AB", b"CD", 1.5, 7) + b"\x00\x02\xde\xad"
        )

    def test_negative_amount_rejected(self):
        with pytest.raises(LedgerError, match="non-negative"):
            transaction_signing_bytes(b"A", b"B", -0.5, 0)

    def test_amount_overflow_rejected(self):
        with pytest.raises(LedgerError, match="overflow"):
            transaction_signing_bytes(b"A", b"B", 2.0**70, 0)

    def test_negative_nonce_rejected(self):
        with pytest.raises(LedgerError):
            transaction_signing_bytes(b"A", b"B", 1.0, -1)

    @pytest.mark.parametrize("nonce, message", [
        (-1, "nonce must be non-negative"), (2**64, r"nonce .* below 2\*\*64"),
        (1.5, "nonce .* integral"), ("7", "nonce .* integral")])
    def test_nonce_outside_u64_rejected(self, nonce, message):
        with pytest.raises(LedgerError, match=message):
            transaction_signing_bytes(b"A", b"B", 1.0, nonce)
        assert transaction_signing_bytes(b"A", b"B", 1.0, 2**64 - 1).endswith(b"\xff" * 8)

    def test_block_payload_layout(self):
        prev = b"\xaa" * 32
        got = block_payload(1, 9, prev, ())
        assert got == (1).to_bytes(8, "big") + (9).to_bytes(8, "big") + prev + b"\x00\x00\x00\x00"
        assert block_hash(1, 9, prev, ()) == hashlib.sha256(got).digest()

    def test_bad_prev_hash_length_rejected(self):
        with pytest.raises(LedgerError, match="32 bytes"):
            block_payload(0, 0, b"\x00" * 16, ())


class TestSignatures:
    def test_sign_verify_roundtrip(self, wallet, other_wallet):
        priv, _ = wallet
        _, recipient = other_wallet
        tx = sign_transaction(priv, recipient, 12.25, 3)
        assert verify_transaction(tx)

    def test_signing_is_deterministic(self, wallet):
        priv, pub = wallet
        tx1 = sign_transaction(priv, pub, 2.0, 5)
        tx2 = sign_transaction(priv, pub, 2.0, 5)
        assert tx1.signature == tx2.signature

    def test_tampered_amount_fails(self, wallet):
        priv, pub = wallet
        tx = sign_transaction(priv, pub, 2.0, 5)
        assert not verify_transaction(dataclasses.replace(tx, amount=2.000001))

    def test_wrong_sender_key_fails(self, wallet, other_wallet):
        priv, _ = wallet
        _, other_pub = other_wallet
        tx = sign_transaction(priv, other_pub, 2.0, 5)
        assert not verify_transaction(dataclasses.replace(tx, sender=other_pub))

    def test_truncated_signature_fails_without_crash(self, wallet):
        priv, pub = wallet
        tx = sign_transaction(priv, pub, 2.0, 5)
        assert not verify_transaction(dataclasses.replace(tx, signature=tx.signature[:-4]))

    def test_garbage_signature_and_key_fail_without_crash(self, wallet):
        _, pub = wallet
        assert not verify_transaction(Transaction(pub, pub, 1.0, 0, b"not a signature"))
        assert not verify_transaction(Transaction(b"junk", pub, 1.0, 0, b"\x30\x06"))

    def test_unserializable_nonce_fails_verification(self, wallet):
        priv, pub = wallet
        tx = sign_transaction(priv, pub, 1.0, 0)
        for nonce in (2**64, -1, 1.5):
            assert not verify_transaction(dataclasses.replace(tx, nonce=nonce))

    def test_unserializable_amount_fails_verification(self, wallet):
        _, pub = wallet
        for amount in (-3.0, float("nan"), float("inf")):
            assert not verify_transaction(Transaction(pub, pub, amount, 0, b""))


class TestPublicKeyCache:
    """verify_transaction caches parsed sender keys, never verdicts."""

    def test_warm_cache_still_rejects_tampering(self, wallet):
        priv, pub = wallet
        tx = sign_transaction(priv, pub, 2.0, 5)
        assert verify_transaction(tx)
        assert _public_key.cache_info().currsize >= 1
        assert not verify_transaction(dataclasses.replace(tx, amount=2.000001))
        assert not verify_transaction(dataclasses.replace(tx, signature=tx.signature[:-4]))
        assert verify_transaction(tx)

    @pytest.mark.parametrize("order", [("secp256k1", "secp256r1"), ("secp256r1", "secp256k1")])
    def test_curve_is_part_of_the_key(self, order):
        priv, pub = new_keypair(substream(5, "keys"), curve="secp256k1")
        tx = sign_transaction(priv, pub, 1.0, 0)
        _public_key.cache_clear()
        for _ in range(2):
            verdicts = {curve: verify_transaction(tx, curve=curve) for curve in order}
            assert verdicts == {"secp256k1": True, "secp256r1": False}

    def test_junk_sender_fails_every_time_and_is_not_cached(self, wallet):
        _, pub = wallet
        _public_key.cache_clear()
        junk = Transaction(b"junk", pub, 1.0, 0, b"\x30\x06")
        for _ in range(3):
            assert not verify_transaction(junk)
        assert _public_key.cache_info().currsize == 0

    def test_cache_is_bounded(self):
        bound = _public_key.cache_info().maxsize
        assert bound is not None
        rng = substream(6, "keys")
        for nonce in range(bound + 5):
            priv, pub = new_keypair(rng)
            assert verify_transaction(sign_transaction(priv, pub, 1.0, nonce))
            assert _public_key.cache_info().currsize <= bound
        assert _public_key.cache_info().currsize == bound


class TestSigningBytesCache:
    """A transaction's signing bytes are built once and kept on it."""

    def test_cached_bytes_equal_the_fields_serialization(self, wallet, other_wallet):
        priv, pub = wallet
        _, recipient = other_wallet
        tx = sign_transaction(priv, recipient, 12.25, 3)
        expect = transaction_signing_bytes(pub, recipient, 12.25, 3)
        assert tx.signing_bytes == expect
        assert Transaction(pub, recipient, 12.25, 3).signing_bytes == expect
        assert tx.signed_bytes == expect + len(tx.signature).to_bytes(2, "big") + (
            tx.signature)

    def test_replaced_transaction_builds_its_own_and_fails(self, wallet):
        priv, pub = wallet
        tx = sign_transaction(priv, pub, 2.0, 5)
        assert verify_transaction(tx)
        for field, value in (("amount", 2.000001), ("nonce", 6), ("recipient", b"x" * 33)):
            tampered = dataclasses.replace(tx, **{field: value})
            assert tampered.signing_bytes == transaction_signing_bytes(
                tampered.sender, tampered.recipient, tampered.amount, tampered.nonce)
            assert tampered.signing_bytes != tx.signing_bytes
            assert not verify_transaction(tampered)
            blk = build_block(Chain().tip(), [tampered], clock=1)
            assert "invalid tx" in block_rejection_reason(Chain(), blk)
        assert verify_transaction(tx)

    def test_nonce_outside_u64_is_an_error_or_false(self, wallet):
        priv, pub = wallet
        with pytest.raises(LedgerError, match="nonce"):
            sign_transaction(priv, pub, 1.0, 2**64)
        tx = sign_transaction(priv, pub, 1.0, 0)
        for nonce in (2**64, -1):
            bad = dataclasses.replace(tx, nonce=nonce)
            for _ in range(2):  # an error is not cached
                assert not verify_transaction(bad)
                with pytest.raises(LedgerError, match="nonce"):
                    bad.signed_bytes
            blk = Block(1, 1, Chain().tip().hash, (bad,), bytes(32))
            assert block_rejection_reason(Chain(), blk).startswith("unserializable block")

    def test_one_serialization_per_signed_transaction(self, wallet, monkeypatch):
        calls = []
        original = ledger.transaction_signing_bytes
        monkeypatch.setattr(ledger, "transaction_signing_bytes",
                            lambda *fields: calls.append(1) or original(*fields))
        priv, pub = wallet
        chain = Chain()
        # signing, the block hash, its recomputation and the signature check
        chain.append(build_block(chain.tip(), [sign_transaction(priv, pub, 1.0, 1)], clock=1))
        assert chain.validate_all()
        assert len(calls) == 1


class TestVerdictMemo:
    """Transaction.verified calls verify_transaction once per curve and keeps the verdict."""

    @pytest.fixture
    def verify_calls(self, monkeypatch):
        calls = []
        original = ledger.verify_transaction
        monkeypatch.setattr(ledger, "verify_transaction",
                            lambda tx, curve: calls.append((tx, curve)) or original(tx, curve))
        return calls

    def test_one_call_per_curve(self, wallet, verify_calls):
        priv, pub = wallet
        tx = sign_transaction(priv, pub, 3.5, 9)
        assert tx.verified("secp256r1") and tx.verified("secp256r1")
        assert verify_calls == [(tx, "secp256r1")]
        assert tx.verified("secp256k1") is False and tx.verified("secp256k1") is False
        assert tx.verified("secp256r1")
        assert verify_calls == [(tx, "secp256r1"), (tx, "secp256k1")]

    def test_a_replaced_copy_gets_its_own_verdict(self, wallet, verify_calls):
        priv, pub = wallet
        tx = sign_transaction(priv, pub, 3.5, 9)
        assert tx.verified("secp256r1")
        tampered = dataclasses.replace(tx, amount=3.500001)
        assert tampered.verified("secp256r1") is False
        assert len(verify_calls) == 2 and verify_calls[1][0] is tampered
        assert tx.verified("secp256r1")
        assert len(verify_calls) == 2

    def test_equality_and_hash_ignore_the_verdicts(self, wallet):
        priv, pub = wallet
        tx, twin = sign_transaction(priv, pub, 3.5, 9), sign_transaction(priv, pub, 3.5, 9)
        tx.verified("secp256r1")
        assert "_verdicts" in vars(tx) and "_verdicts" not in vars(twin)
        assert tx == twin and hash(tx) == hash(twin)
        assert "_verdicts" not in repr(tx)

    def test_the_block_check_reads_the_kept_verdict(self, wallet, verify_calls):
        priv, pub = wallet
        tx = sign_transaction(priv, pub, 3.5, 9)
        tx.verified("secp256r1")
        chain = Chain()
        chain.append(build_block(chain.tip(), [tx], clock=1))
        assert chain.validate_all()
        assert verify_calls == [(tx, "secp256r1")]


class TestBlocksAndChain:
    def test_genesis_convention(self):
        g = genesis_block()
        assert g.index == 0
        assert g.timestamp == 0
        assert g.prev_hash == GENESIS_PREV_HASH == bytes(32)
        assert g.hash == block_hash(0, 0, bytes(32), ())

    def test_build_and_append(self, wallet):
        priv, pub = wallet
        chain = Chain()
        tx = sign_transaction(priv, pub, 1.0, 1)
        blk = build_block(chain.tip(), [tx], clock=1)
        assert validate_block(chain, blk)
        chain.append(blk)
        assert chain.height() == 1
        assert chain.tip() is blk
        assert chain.validate_all()

    def test_wrong_prev_hash_rejected_as_linkage(self, wallet):
        priv, pub = wallet
        chain = Chain()
        tx = sign_transaction(priv, pub, 1.0, 1)
        blk = make_block(1, 1, b"\x55" * 32, (tx,))
        reason = block_rejection_reason(chain, blk)
        assert reason is not None and "linkage" in reason
        with pytest.raises(LedgerError, match="linkage"):
            chain.append(blk)
        assert chain.height() == 0

    def test_stale_index_rejected(self, wallet):
        priv, pub = wallet
        chain = Chain()
        blk = build_block(chain.tip(), [sign_transaction(priv, pub, 1.0, 1)], clock=1)
        chain.append(blk)
        again = make_block(1, 2, chain.blocks[0].hash, blk.transactions)
        assert "stale index" in block_rejection_reason(chain, again)

    def test_tampered_tx_inside_block_detected(self, wallet):
        priv, pub = wallet
        chain = Chain()
        tx = sign_transaction(priv, pub, 1.0, 1)
        bad_tx = dataclasses.replace(tx, amount=1.000001)
        blk = build_block(chain.tip(), [bad_tx], clock=1)  # hash covers tampered tx
        reason = block_rejection_reason(chain, blk)
        assert "invalid tx" in reason

    def test_non_finite_amount_block_is_unserializable(self, wallet):
        _, pub = wallet
        chain = Chain()
        for amount in (float("nan"), float("inf")):
            tx = Transaction(pub, pub, amount, 1, b"")
            blk = Block(1, 1, chain.tip().hash, (tx,), bytes(32))
            assert block_rejection_reason(chain, blk).startswith("unserializable block")

    @pytest.mark.parametrize("field, value", [
        ("index", -1), ("index", 2**64), ("timestamp", -1), ("timestamp", 2**64),
        ("timestamp", 1.5)])
    def test_block_field_outside_u64_is_unserializable(self, wallet, field, value):
        priv, pub = wallet
        chain = Chain()
        blk = build_block(chain.tip(), [sign_transaction(priv, pub, 1.0, 1)], clock=1)
        bad = dataclasses.replace(blk, **{field: value})
        assert block_rejection_reason(chain, bad).startswith(f"unserializable block: {field}")
        with pytest.raises(LedgerError, match="unserializable block"):
            chain.append(bad)
        assert chain.height() == 0

    def test_validate_all_detects_tampered_history(self, wallet):
        priv, pub = wallet
        chain = Chain()
        for r in (1, 2):
            chain.append(build_block(chain.tip(), [sign_transaction(priv, pub, 1.0, r)], clock=r))
        assert chain.validate_all()
        first = chain.blocks[1]
        forged = dataclasses.replace(first.transactions[0], amount=2.0)
        chain.blocks[1] = make_block(first.index, first.timestamp, first.prev_hash, (forged,))
        assert not chain.validate_all()  # bad signature, and block 2 no longer links
        chain.blocks[1] = first
        chain.blocks[0] = make_block(0, 5, GENESIS_PREV_HASH, ())
        assert not chain.validate_all()  # foreign genesis

    def test_mutated_stored_hash_detected(self, wallet):
        priv, pub = wallet
        chain = Chain()
        blk = build_block(chain.tip(), [sign_transaction(priv, pub, 1.0, 1)], clock=1)
        flipped = bytes([blk.hash[0] ^ 0x80]) + blk.hash[1:]
        assert "hash mismatch" in block_rejection_reason(
            chain, Block(blk.index, blk.timestamp, blk.prev_hash, blk.transactions, flipped)
        )

    def test_field_mutations_always_change_the_hash(self, wallet):
        priv, pub = wallet
        tx = sign_transaction(priv, pub, 3.5, 9)
        base = make_block(4, 7, b"\x11" * 32, (tx,))
        rng = substream(99, 4)
        seen = {block_payload(4, 7, b"\x11" * 32, (tx,)): base.hash}
        for _ in range(200):
            which = int(rng.integers(0, 4))
            if which == 0:
                mutated = make_block(base.index + int(rng.integers(1, 1000)),
                                     base.timestamp, base.prev_hash, base.transactions)
            elif which == 1:
                mutated = make_block(base.index, base.timestamp + int(rng.integers(1, 1000)),
                                     base.prev_hash, base.transactions)
            elif which == 2:
                i = int(rng.integers(0, 32))
                bit = 1 << int(rng.integers(0, 8))
                prev = bytearray(base.prev_hash)
                prev[i] ^= bit
                mutated = make_block(base.index, base.timestamp, bytes(prev), base.transactions)
            else:
                bumped = dataclasses.replace(tx, nonce=tx.nonce + int(rng.integers(1, 1000)))
                mutated = make_block(base.index, base.timestamp, base.prev_hash, (bumped,))
            assert mutated.hash != base.hash
            # same contents hash the same; distinct contents never collide
            payload = block_payload(mutated.index, mutated.timestamp,
                                    mutated.prev_hash, mutated.transactions)
            if payload in seen:
                assert seen[payload] == mutated.hash
            else:
                assert mutated.hash not in seen.values()
                seen[payload] = mutated.hash

