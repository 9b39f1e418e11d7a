"""Minimal signed ledger: ECDSA transactions in SHA-256 hash-chained blocks.

Serialization is canonical and bit-exact — fields in declaration order,
integers fixed-width big-endian, variable-length byte fields prefixed
with a u16 length — so signatures and block hashes are reproducible
across platforms. Amounts are stake-units encoded as u64 fixed-point
with six decimal places. Timestamps are simulation-clock integers
(round indexes), never wall time.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

from cryptography.exceptions import InvalidSignature, UnsupportedAlgorithm
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import Prehashed

CURVES = {
    "secp256r1": ec.SECP256R1,
    "secp256k1": ec.SECP256K1,
    "secp384r1": ec.SECP384R1,
}
DEFAULT_CURVE = "secp256r1"

GENESIS_PREV_HASH = bytes(32)
AMOUNT_DECIMALS = 6
_AMOUNT_SCALE = 10**AMOUNT_DECIMALS
_MAX_AMOUNT_UNITS = 2**64 - 1
_pack_u64_pair, _pack_u32 = struct.Struct(">QQ").pack, struct.Struct(">I").pack

# ECDSA over a SHA-256 digest computed here; built once, since they hold no state
_SIGN_ALGORITHM = ec.ECDSA(Prehashed(hashes.SHA256()), deterministic_signing=True)
_VERIFY_ALGORITHM = ec.ECDSA(Prehashed(hashes.SHA256()))


class LedgerError(ValueError):
    pass


def _curve(name: str):
    try:
        return CURVES[name]()
    except KeyError:
        raise LedgerError(f"unknown curve {name!r}; pick one of {sorted(CURVES)}") from None


def new_keypair(rng, curve: str = DEFAULT_CURVE):
    """Deterministic keypair from the given random stream.

    The private scalar is assembled from 32-bit draws and reduced into
    the curve's scalar range, so identical seeds yield identical keys.
    Returns (private key object, compressed public key bytes).
    """
    c = _curve(curve)
    nwords = (c.key_size + 31) // 32 + 2  # extra words make reduction bias negligible
    raw = 0
    for _ in range(nwords):
        raw = (raw << 32) | int(rng.integers(0, 2**32))
    value = raw % (2**c.key_size - 3) + 1
    while True:
        try:
            priv = ec.derive_private_key(value, c)
            break
        except ValueError:  # pragma: no cover - scalar above group order, ~2^-32
            value = (value * 2654435761 + 12345) % (2**c.key_size - 3) + 1
    return priv, _sender_bytes(priv)


@lru_cache(maxsize=64)
def _sender_bytes(private_key) -> bytes:
    """Compressed public key bytes of a signing key, cached per key object
    (as _public_key caches parses), since every transaction names its sender."""
    return private_key.public_key().public_bytes(
        serialization.Encoding.X962, serialization.PublicFormat.CompressedPoint
    )


def _amount_units(amount: float) -> int:
    if not math.isfinite(amount):
        raise LedgerError(f"amount must be finite, got {amount}")
    if amount < 0:
        raise LedgerError(f"amount must be non-negative, got {amount}")
    units = round(amount * _AMOUNT_SCALE)
    if units > _MAX_AMOUNT_UNITS:
        raise LedgerError(f"amount {amount} overflows the 64-bit fixed-point range")
    return int(units)


def _u64_error(**fields) -> LedgerError:
    """The error for u64 fields (name=value) that struct.pack(">Q") refused."""
    return LedgerError("; ".join(
        f"{name} must be non-negative, integral and below 2**64, got {value!r}"
        for name, value in fields.items()
        if not (isinstance(value, numbers.Integral) and 0 <= value < 2**64)))


def _bytes_field(b: bytes) -> bytes:
    if len(b) > 0xFFFF:
        raise LedgerError("byte field longer than a u16 length prefix allows")
    return struct.pack(">H", len(b)) + b


@dataclass(frozen=True, init=False)
class Transaction:
    sender: bytes
    recipient: bytes
    amount: float
    nonce: int
    signature: bytes = b""

    def __init__(self, sender: bytes, recipient: bytes, amount: float, nonce: int,
                 signature: bytes = b""):
        # one __dict__ update, not the frozen dataclass's object.__setattr__ per field
        self.__dict__.update(sender=sender, recipient=recipient, amount=amount, nonce=nonce,
                             signature=signature)

    @cached_property
    def signing_bytes(self) -> bytes:
        """transaction_signing_bytes of the fields, built once per transaction;
        sign_transaction seeds it with the bytes it signed. A copy made by
        dataclasses.replace builds its own."""
        return transaction_signing_bytes(self.sender, self.recipient, self.amount, self.nonce)

    @cached_property
    def signed_bytes(self) -> bytes:
        """serialize_transaction's bytes, built once per transaction (and seeded
        by sign_transaction), as signing_bytes is: the block hash and its
        recomputation both read them."""
        return self.signing_bytes + _bytes_field(self.signature)


def transaction_signing_bytes(sender: bytes, recipient: bytes, amount: float, nonce: int) -> bytes:
    """Canonical unsigned serialization — exactly what the sender signs."""
    try:
        return _bytes_field(sender) + _bytes_field(recipient) + _pack_u64_pair(
            _amount_units(amount), nonce)
    except struct.error:  # the other fields are checked before they are packed
        raise _u64_error(nonce=nonce) from None


def serialize_transaction(tx: Transaction) -> bytes:
    """Signed canonical form: unsigned bytes plus the length-prefixed signature."""
    return tx.signed_bytes


def sign_transaction(private_key, recipient: bytes, amount: float, nonce: int) -> Transaction:
    """Build and sign a transaction with the key holder as sender.

    Uses deterministic ECDSA so rerunning a seeded simulation produces
    byte-identical signatures.
    """
    sender = _sender_bytes(private_key)
    payload = transaction_signing_bytes(sender, recipient, amount, nonce)
    digest = hashlib.sha256(payload).digest()
    sig = private_key.sign(digest, _SIGN_ALGORITHM)
    tx = Transaction(sender, recipient, amount, nonce, sig)
    # where the two cached_property values live
    tx.__dict__.update(signing_bytes=payload, signed_bytes=payload + _bytes_field(sig))
    return tx


@lru_cache(maxsize=64)
def _public_key(curve: str, sender: bytes) -> ec.EllipticCurvePublicKey:
    """Parsed sender key. Only successful parses are cached; a malformed
    sender raises on every call."""
    return ec.EllipticCurvePublicKey.from_encoded_point(_curve(curve), sender)


def verify_transaction(tx: Transaction, curve: str = DEFAULT_CURVE) -> bool:
    """True iff the signature verifies under the sender's key.

    Malformed keys or signature bytes count as verification failures,
    never crashes.
    """
    try:
        payload = tx.signing_bytes
    except LedgerError:
        return False
    digest = hashlib.sha256(payload).digest()
    try:
        pub = _public_key(curve, tx.sender)
        pub.verify(tx.signature, digest, _VERIFY_ALGORITHM)
        return True
    except (InvalidSignature, ValueError, TypeError, UnsupportedAlgorithm):
        return False


@dataclass(frozen=True, init=False)
class Block:
    index: int
    timestamp: int
    prev_hash: bytes
    transactions: tuple
    hash: bytes

    def __init__(self, index: int, timestamp: int, prev_hash: bytes, transactions: tuple,
                 hash: bytes):
        # one __dict__ update, as in Transaction
        self.__dict__.update(index=index, timestamp=timestamp, prev_hash=prev_hash,
                             transactions=transactions, hash=hash)


def block_payload(index: int, timestamp: int, prev_hash: bytes, transactions) -> bytes:
    """Canonical block serialization (the preimage of the block hash)."""
    if len(prev_hash) != 32:
        raise LedgerError(f"prev_hash must be 32 bytes, got {len(prev_hash)}")
    try:
        head = _pack_u64_pair(index, timestamp)
    except struct.error:
        raise _u64_error(index=index, timestamp=timestamp) from None
    return b"".join([head, prev_hash, _pack_u32(len(transactions)),
                     *map(serialize_transaction, transactions)])


def block_hash(index: int, timestamp: int, prev_hash: bytes, transactions) -> bytes:
    return hashlib.sha256(block_payload(index, timestamp, prev_hash, transactions)).digest()


def make_block(index: int, timestamp: int, prev_hash: bytes, transactions) -> Block:
    txs = tuple(transactions)
    return Block(index, timestamp, prev_hash, txs,
                 block_hash(index, timestamp, prev_hash, txs))


def genesis_block() -> Block:
    return make_block(0, 0, GENESIS_PREV_HASH, ())


def build_block(parent: Block, transactions, clock: int) -> Block:
    """Next block on top of parent, stamped with the simulation clock."""
    return make_block(parent.index + 1, int(clock), parent.hash, transactions)


def block_rejection_reason(chain: "Chain", block: Block):
    """Why this block cannot extend the chain, or None if it can.

    Checks, in order: hash recomputation, index linkage, parent-hash
    linkage, and every transaction signature under the chain's curve.
    """
    try:
        recomputed = block_hash(block.index, block.timestamp, block.prev_hash, block.transactions)
    except LedgerError as e:
        return f"unserializable block: {e}"
    if recomputed != block.hash:
        return "hash mismatch: stored hash does not recompute from contents"
    tip = chain.tip()
    if block.index != tip.index + 1:
        return f"stale index: expected {tip.index + 1}, got {block.index}"
    if block.prev_hash != tip.hash:
        return "linkage: prev_hash does not match the chain tip"
    for i, tx in enumerate(block.transactions):
        if not verify_transaction(tx, chain.curve):
            return f"invalid tx at position {i}: signature does not verify"
    return None


def validate_block(chain: "Chain", block: Block) -> bool:
    return block_rejection_reason(chain, block) is None


class Chain:
    """Genesis-rooted block list, checked with its own curve. append is the
    checked mutation; the round engine appends blocks it has just validated."""

    def __init__(self, curve: str = DEFAULT_CURVE):
        self.curve = curve
        self.blocks: list[Block] = [genesis_block()]

    def tip(self) -> Block:
        return self.blocks[-1]

    def height(self) -> int:
        """Number of blocks after genesis."""
        return len(self.blocks) - 1

    def append(self, block: Block) -> None:
        reason = block_rejection_reason(self, block)
        if reason is not None:
            raise LedgerError(f"block rejected: {reason}")
        self.blocks.append(block)

    def validate_all(self) -> bool:
        """Replay the whole chain from genesis through block_rejection_reason."""
        if self.blocks[0] != genesis_block():
            return False
        replay = Chain(self.curve)
        for block in self.blocks[1:]:
            if block_rejection_reason(replay, block) is not None:
                return False
            replay.blocks.append(block)
        return True
