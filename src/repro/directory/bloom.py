"""The ``bloom`` directory backend: k-hash filter over host slots.

One directory set becomes an ``m``-bit bloom filter (``m`` =
``directory_bits``) instead of the exact S-bit bitmap — membership may
false-positive (the analyzer consults a few extra hosts) but never
false-negative, which is exactly the superset contract the registry
enforces.  Two properties keep the hierarchy's existing machinery
working unchanged:

* **union = OR.**  Level coalescing and control-plane merging OR the
  filter bits, exactly like the exact bitmap.
* **saturation ⇒ exactness.**  A budget of ``m >= n_slots`` (and the
  0 = "auto" default) degenerates to the identity mapping — bit *i* is
  slot *i* — so the filter's bytes are *bit-identical* to the exact
  bitmap and the property suite can pin the two backends together at
  saturating budgets.

Every set carries a shadow exact bitmap (``truth_bytes``) used only to
*measure* the false-positive rate at query time; it is excluded from
``size_bits`` and never consulted by the query paths.
"""

from __future__ import annotations

import math
from typing import Iterator

from ..core.pointer import PointerSet
from .hashing import slot_hashes
from .registry import (
    DirectoryError,
    DirectorySet,
    DirectorySpec,
    register_directory,
)

_BIT_MASKS = [1 << i for i in range(8)]


class BloomDirectorySet:
    """One bloom-filter directory set with a shadow truth bitmap."""

    backend_name = "bloom"

    __slots__ = ("n_slots", "m_bits", "k_hashes", "_bits", "_truth")

    def __init__(self, n_slots: int, bits: int, hashes: int):
        if n_slots <= 0:
            raise DirectoryError("need at least one slot")
        if bits < 0:
            raise DirectoryError("directory_bits must be >= 0")
        self.n_slots = n_slots
        # 0 = saturating budget; >= n_slots degenerates to the exact
        # identity bitmap (see module docstring)
        self.m_bits = n_slots if bits == 0 or bits >= n_slots else bits
        self.k_hashes = max(1, hashes)
        self._bits = bytearray((self.m_bits + 7) // 8)
        self._truth = PointerSet(n_slots)

    # -- geometry ------------------------------------------------------------

    @property
    def _identity(self) -> bool:
        return self.m_bits >= self.n_slots

    def _indexes(self, slot: int) -> tuple[int, ...]:
        if not 0 <= slot < self.n_slots:
            raise IndexError(f"slot {slot} out of range [0, {self.n_slots})")
        if self._identity:
            return (slot,)
        h1, h2 = slot_hashes(slot)
        m = self.m_bits
        return tuple((h1 + i * h2) % m for i in range(self.k_hashes))

    # -- the DirectorySet surface -------------------------------------------

    def set_slot(self, slot: int) -> None:
        for idx in self._indexes(slot):
            self._bits[idx >> 3] |= _BIT_MASKS[idx & 7]
        self._truth.set_slot(slot)

    def test_slot(self, slot: int) -> bool:
        return all(
            self._bits[idx >> 3] & _BIT_MASKS[idx & 7]
            for idx in self._indexes(slot)
        )

    def clear(self) -> None:
        for i in range(len(self._bits)):
            self._bits[i] = 0
        self._truth.clear()

    def iter_slots(self) -> Iterator[int]:
        """The member *superset*, ascending (every slot that tests in)."""
        for slot in range(self.n_slots):
            if self.test_slot(slot):
                yield slot

    def union_into(self, other: "DirectorySet") -> None:
        if type(other) is not type(self):
            raise DirectoryError(
                f"cannot union {self.backend_name!r} into "
                f"{getattr(other, 'backend_name', type(other).__name__)!r}"
            )
        assert isinstance(other, BloomDirectorySet)
        if (
            other.n_slots != self.n_slots
            or other.m_bits != self.m_bits
            or other.k_hashes != self.k_hashes
        ):
            raise DirectoryError("directory sets differ in geometry")
        mine = int.from_bytes(self._bits, "little")
        if mine:
            theirs = int.from_bytes(other._bits, "little")
            merged = mine | theirs
            if merged != theirs:
                other._bits[:] = merged.to_bytes(len(other._bits), "little")
        self._truth.union_into(other._truth)

    def estimate(self) -> int:
        """Standard bloom cardinality estimate, clamped to the universe."""
        if self._identity:
            return self._truth.popcount
        x = int.from_bytes(self._bits, "little").bit_count()
        m, k = self.m_bits, self.k_hashes
        if x >= m:
            return self.n_slots
        est = -(m / k) * math.log(1.0 - x / m)
        return min(self.n_slots, round(est))

    def to_bytes(self) -> bytes:
        return bytes(self._bits)

    def load(self, blob: bytes) -> None:
        if len(blob) != len(self._bits):
            raise DirectoryError(
                f"payload is {len(blob)} bytes, filter needs "
                f"{len(self._bits)}"
            )
        self._bits[:] = blob
        # truth is not serialized (it is measurement-only shadow state);
        # a decoded set answers queries, it does not measure FPR
        self._truth.clear()

    def truth_bytes(self) -> bytes:
        return self._truth.to_bytes()

    @property
    def sketch_params(self) -> tuple[int, int]:
        return (self.m_bits, self.k_hashes)

    @property
    def size_bits(self) -> int:
        return self.m_bits


register_directory(
    DirectorySpec(
        name="bloom",
        summary="k-hash bloom filter; false-positive rate falls as the "
        "bit budget grows, exact at saturation",
        memory_note="`min(directory_bits, S)` filter bits per set "
        "(0 = saturating: `S` bits, bit-identical to `exact`)",
        factory=BloomDirectorySet,
    )
)
