"""Versioned key-value world state with MVCC validation.

Fabric's execute-order-validate pipeline simulates transactions against a
snapshot, records a read/write set, orders the transaction and only then
validates that every read version is still current (Section 5.4: stale
transactions are *still appended to the chain*, flagged invalid, and never
reach the world state). Order-execute systems (Quorum, Diem, Sawtooth,
BitShares) use the same store but apply writes directly at execution time.
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass
class ReadWriteSet:
    """The reads (with observed versions) and writes of one simulation."""

    reads: typing.Dict[str, int] = dataclasses.field(default_factory=dict)
    writes: typing.Dict[str, object] = dataclasses.field(default_factory=dict)
    deletes: typing.Set[str] = dataclasses.field(default_factory=set)

    def record_read(self, key: str, version: int) -> None:
        """Remember that ``key`` was read at ``version``."""
        if key not in self.reads:
            self.reads[key] = version

    def record_write(self, key: str, value: object) -> None:
        """Remember a pending write."""
        self.writes[key] = value
        self.deletes.discard(key)

    def record_delete(self, key: str) -> None:
        """Remember a pending delete."""
        self.deletes.add(key)
        self.writes.pop(key, None)

    def conflicts_with(self, other: "ReadWriteSet") -> bool:
        """Write-write or read-write overlap with another set."""
        my_writes = set(self.writes) | self.deletes
        their_writes = set(other.writes) | other.deletes
        if my_writes & their_writes:
            return True
        if set(self.reads) & their_writes:
            return True
        if set(other.reads) & my_writes:
            return True
        return False


#: Version number reported for keys that do not exist.
MISSING_VERSION = 0


class WorldState:
    """A key-value store where every key carries a monotonic version.

    A key's version survives its deletion: deleting bumps the version
    into a tombstone, and re-creating the key continues from there. A
    read recorded before a delete therefore never validates against a
    re-created key (the delete/re-create ABA).
    """

    def __init__(self) -> None:
        self._data: typing.Dict[str, typing.Tuple[object, int]] = {}
        #: Version of every deleted key that has not been re-created.
        self._tombstones: typing.Dict[str, int] = {}
        self.commit_count = 0
        self.invalidated_count = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str) -> typing.Optional[object]:
        """Current value of ``key`` (``None`` if absent)."""
        entry = self._data.get(key)
        return entry[0] if entry else None

    def version(self, key: str) -> int:
        """Current version of ``key``: its tombstone's if deleted,
        :data:`MISSING_VERSION` if it never existed."""
        entry = self._data.get(key)
        return entry[1] if entry else self._tombstones.get(key, MISSING_VERSION)

    def get_versioned(self, key: str) -> typing.Tuple[typing.Optional[object], int]:
        """``(value, version)`` for ``key``."""
        entry = self._data.get(key)
        return entry if entry else (None, self._tombstones.get(key, MISSING_VERSION))

    def set(self, key: str, value: object) -> int:
        """Write directly (order-execute path); returns the new version."""
        entry = self._data.get(key)
        new_version = (entry[1] if entry else self._tombstones.pop(key, MISSING_VERSION)) + 1
        self._data[key] = (value, new_version)
        return new_version

    def delete(self, key: str) -> None:
        """Remove ``key`` if present, leaving a tombstone one version on."""
        entry = self._data.pop(key, None)
        if entry:
            self._tombstones[key] = entry[1] + 1

    def keys(self) -> typing.Iterator[str]:
        """Iterate all keys (Corda's vault-scan path iterates these)."""
        return iter(self._data)

    def validate(self, rwset: ReadWriteSet) -> bool:
        """MVCC check: every read version must still be current."""
        data = self._data
        for key, version in rwset.reads.items():
            entry = data.get(key)
            if entry is None:
                if self._tombstones.get(key, MISSING_VERSION) != version:
                    return False
            elif entry[1] != version:
                return False
        return True

    def apply(self, rwset: ReadWriteSet) -> bool:
        """Validate then apply a read/write set (validate phase).

        Returns ``True`` when applied; on stale reads nothing is written
        and ``False`` is returned (the transaction is marked invalid but,
        as in Fabric, remains on the chain).
        """
        if not self.validate(rwset):
            self.invalidated_count += 1
            return False
        data = self._data
        for key, value in rwset.writes.items():
            entry = data.get(key)
            if entry is None:
                data[key] = (value, self._tombstones.pop(key, MISSING_VERSION) + 1)
            else:
                data[key] = (value, entry[1] + 1)
        for key in rwset.deletes:
            self.delete(key)
        self.commit_count += 1
        return True

    def snapshot_versions(self) -> typing.Dict[str, int]:
        """A copy of every key's version (test helper)."""
        return {key: version for key, (__, version) in self._data.items()}
