"""The ``exact`` directory backend: the paper's one-bit-per-host bitmap.

This is :class:`~repro.core.pointer.PointerSet` registered behind the
directory interface — the §4.1.1 design, the equivalence reference the
property suite pins every sketch against, and what ``"auto"`` resolves
to unless an override is active.  It ignores the ``directory_bits``
budget: an exact directory always costs S bits per set (one bit per
end-host slot), which is precisely the scaling cliff the sketch
backends exist to trade against.
"""

from __future__ import annotations

from ..core.pointer import PointerSet
from .registry import DirectorySet, DirectorySpec, register_directory


def _exact_factory(n_slots: int, bits: int, hashes: int) -> DirectorySet:
    return PointerSet(n_slots)


register_directory(
    DirectorySpec(
        name="exact",
        summary="one-bit-per-host PointerSet bitmap — the equivalence "
        "reference (zero false positives)",
        memory_note="always `S` bits per set (ignores `directory_bits`)",
        factory=_exact_factory,
    )
)
