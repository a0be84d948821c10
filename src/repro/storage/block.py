"""Blocks and block headers.

Every block-based system model (BitShares, Fabric, Quorum, Sawtooth, Diem)
produces these blocks; Corda is block-free and bypasses this module. A
block commits to its transactions through a Merkle root and to its
predecessor through the parent hash, so chains are tamper evident.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.crypto.hashing import hash_object
from repro.crypto.merkle import MerkleTree
from repro.storage.transaction import Transaction


@dataclasses.dataclass(frozen=True)
class BlockHeader:
    """The hashed part of a block."""

    height: int
    parent_hash: str
    merkle_root: str
    proposer: str
    timestamp: float
    tx_count: int

    def canonical_tuple(self) -> tuple:
        """Stable tuple for content hashing."""
        return (
            self.height,
            self.parent_hash,
            self.merkle_root,
            self.proposer,
            self.timestamp,
            self.tx_count,
        )


class Block:
    """A sealed block: header plus transaction list."""

    __slots__ = ("header", "transactions", "block_hash", "_merkle_ok")

    def __init__(self, header: BlockHeader, transactions: typing.Sequence[Transaction]) -> None:
        if header.tx_count != len(transactions):
            raise ValueError(
                f"header tx_count {header.tx_count} != {len(transactions)} transactions"
            )
        self.header = header
        self.transactions = tuple(transactions)
        self.block_hash = hash_object(header)
        self._merkle_ok: typing.Optional[bool] = None

    @classmethod
    def seal(
        cls,
        height: int,
        parent_hash: str,
        transactions: typing.Sequence[Transaction],
        proposer: str,
        timestamp: float,
        merkle_root: typing.Optional[str] = None,
    ) -> "Block":
        """Build a block over ``transactions``.

        ``merkle_root`` is the root of a tree over exactly these
        transactions when the caller already holds one (a decided
        proposal's shared root); otherwise it is computed here.
        """
        if merkle_root is None:
            merkle_root = MerkleTree(transactions).root
        header = BlockHeader(
            height=height,
            parent_hash=parent_hash,
            merkle_root=merkle_root,
            proposer=proposer,
            timestamp=timestamp,
            tx_count=len(transactions),
        )
        return cls(header, transactions)

    @property
    def height(self) -> int:
        """The block's position in the chain."""
        return self.header.height

    @property
    def is_empty(self) -> bool:
        """Whether the block carries no transactions."""
        return not self.transactions

    @property
    def payload_count(self) -> int:
        """Total payloads across the block's transactions."""
        return sum(len(tx.payloads) for tx in self.transactions)

    @property
    def size_bytes(self) -> int:
        """Wire size: transactions plus a header envelope."""
        return 512 + sum(tx.size_bytes for tx in self.transactions)

    def verify_merkle_root(self) -> bool:
        """Recompute the Merkle root and compare with the header.

        The verdict is memoized: header and transaction tuple are fixed
        at construction, so the re-verification every replica's append
        and every strict ``--check`` chain pass performs collapses to
        one tree build per block object.
        """
        verdict = self._merkle_ok
        if verdict is None:
            verdict = self._merkle_ok = (
                MerkleTree(self.transactions).root == self.header.merkle_root
            )
        return verdict

    def __repr__(self) -> str:
        return (
            f"Block(height={self.height}, txs={len(self.transactions)}, "
            f"hash={self.block_hash[:12]})"
        )
