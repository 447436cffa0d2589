"""Bit-plane encoding of age maps, shared by the cache domains.

An age map ``{block: age}`` with ages in ``1 .. num_lines`` is held as a
tuple of ``int`` bitsets over a :class:`~repro.ir.memory.BlockUniverse`:
``planes[k - 1]`` is the set of blocks whose age is at most ``k``.  The
planes are nested (each contains the previous one) and the tuple is
*canonical*: its length is the largest age present, so the last plane is
the set of all mapped blocks and differs from the one before it.  Planes
past the end are implicitly equal to the last one; the empty map is
``()``.  Canonical form makes equal maps equal tuples, so "did the join
change anything" is a tuple comparison.

With that encoding the lattice operations are a handful of C-speed
integer operations per age level instead of a dict walk per block:

* pointwise maximum of ages (the must join) is planewise AND;
* pointwise minimum (the may join) is planewise OR;
* ``a`` bounds every age of ``b`` from above iff each plane of ``b``
  is a subset of the matching plane of ``a``;
* ageing every block by one is a shift of the plane list.
"""

from __future__ import annotations

from operator import and_, or_
from typing import Mapping

from repro.ir.memory import BlockUniverse, MemoryBlock

Planes = tuple


def trim(planes) -> Planes:
    """Canonical form: drop trailing planes equal to their predecessor
    (or empty)."""
    end = len(planes)
    while end and planes[end - 1] == (planes[end - 2] if end > 1 else 0):
        end -= 1
    return tuple(planes[:end])


def plane_at(planes: Planes, age: int) -> int:
    """Blocks with age at most ``age`` (``age >= 1``)."""
    if not planes:
        return 0
    return planes[age - 1] if age <= len(planes) else planes[-1]


def age_of(planes: Planes, bit: int) -> int:
    """The age of the block at ``bit``, or 0 when it is unmapped.  The
    planes are nested, so membership is monotone: binary search."""
    if not planes or not planes[-1] & bit:
        return 0
    low, high = 0, len(planes) - 1
    while low < high:
        middle = (low + high) >> 1
        if planes[middle] & bit:
            high = middle
        else:
            low = middle + 1
    return low + 1


def meet(a: Planes, b: Planes) -> Planes:
    """Pointwise maximum of ages over the blocks mapped in both (the
    must join)."""
    if a is b:
        return a
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return ()
    out = list(map(and_, a, b))
    if len(a) > len(b):
        last = b[-1]
        out.extend([plane & last for plane in a[len(b):]])
    return trim(out)


def union(a: Planes, b: Planes) -> Planes:
    """Pointwise minimum of ages over the blocks mapped in either (the
    may join)."""
    if a is b:
        return a
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    out = list(map(or_, a, b))
    if len(a) > len(b):
        last = b[-1]
        out.extend([plane | last for plane in a[len(b):]])
    return trim(out)


def bounds(a: Planes, b: Planes) -> bool:
    """True when every block of ``b`` is in ``a`` with an age no larger:
    each plane of ``b`` is a subset of the matching plane of ``a``."""
    if not b:
        return True
    if not a:
        return False
    size = max(len(a), len(b))
    last_a, last_b = a[-1], b[-1]
    for level in range(size):
        plane_a = a[level] if level < len(a) else last_a
        plane_b = b[level] if level < len(b) else last_b
        if plane_b & ~plane_a:
            return False
    return True


def shift(planes: Planes, num_lines: int) -> Planes:
    """Age every block by one, dropping the ones that pass ``num_lines``."""
    if not planes:
        return ()
    return trim((0,) + planes[: num_lines - 1])


def with_bits(planes: Planes, bits: int) -> Planes:
    """The blocks in ``bits`` set to age 1, every other age unchanged."""
    if not bits:
        return planes
    if not planes:
        return (bits,)
    return trim([plane | bits for plane in planes])


def without_bits(planes: Planes, bits: int) -> Planes:
    """The map with the blocks in ``bits`` removed."""
    if not planes or not planes[-1] & bits:
        return planes
    keep = ~bits
    return trim([plane & keep for plane in planes])


def at_age(planes: Planes, bit: int, age: int) -> Planes:
    """Add the (unmapped) block at ``bit`` with exactly ``age``."""
    out = list(planes) + [planes[-1] if planes else 0] * (age - len(planes))
    for level in range(age - 1, len(out)):
        out[level] |= bit
    return tuple(out)


def age_bits(planes: Planes, bits: int, num_lines: int) -> Planes:
    """The blocks in ``bits`` one older (dropped past ``num_lines``),
    every other age unchanged."""
    if not planes or not planes[-1] & bits:
        return planes
    if len(planes) < num_lines:
        planes = planes + (planes[-1],)
    keep = ~bits
    out = []
    previous = 0
    for plane in planes:
        out.append((plane & keep) | (previous & bits))
        previous = plane
    return trim(out)


def grown(current: Planes, previous: Planes) -> int:
    """Blocks mapped in both whose age in ``current`` exceeds their age in
    ``previous``: members of some plane of ``previous`` that are missing
    from the matching plane of ``current``."""
    out = 0
    for age, plane in enumerate(previous, 1):
        out |= plane & ~plane_at(current, age)
    return out & bits_of(current)


def bits_of(planes: Planes) -> int:
    """Every mapped block."""
    return planes[-1] if planes else 0


def iter_bits(bits: int):
    """Positions of the set bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def from_ages(
    ages: Mapping[MemoryBlock, int], universe: BlockUniverse, num_lines: int
) -> Planes:
    """Planes of ``ages`` over ``universe`` (which must hold every block).
    Ages above ``num_lines`` are dropped, as no state stores them; ages
    below 1 are raised to 1, the youngest position."""
    levels = [0] * num_lines
    index = universe.index
    top = 0
    for block, age in ages.items():
        if age > num_lines:
            continue
        age = max(age, 1)
        levels[age - 1] |= 1 << index[block]
        top = max(top, age)
    for level in range(1, top):
        levels[level] |= levels[level - 1]
    return tuple(levels[:top])


def to_ages(planes: Planes, universe: BlockUniverse) -> dict[MemoryBlock, int]:
    """The age map of ``planes``, youngest first."""
    ages: dict[MemoryBlock, int] = {}
    blocks = universe.blocks
    previous = 0
    for age, plane in enumerate(planes, 1):
        for position in iter_bits(plane & ~previous):
            ages[blocks[position]] = age
        previous = plane
    return ages


def shared(planes: Planes, memo: dict) -> Planes:
    """``planes`` with every plane, and the tuple itself, replaced by the
    first equal object ``memo`` has seen (hash-consing)."""
    found = memo.get(planes)
    if found is None:
        found = tuple([memo.setdefault(plane, plane) for plane in planes])
        memo[found] = found
    return found


def rehome(
    planes_list: list[Planes], source: BlockUniverse, target: BlockUniverse
) -> tuple[BlockUniverse, list[Planes]]:
    """Re-pack ``planes_list`` (all over ``source``) into ``target``.

    Returns the universe the result is over: ``target`` itself when it
    holds every block the planes use (blocks of ``source`` no plane
    mentions need not exist there), else ``target`` extended by the
    missing ones.  Re-packing is free when ``source`` is a prefix of the
    result, since appending blocks keeps every bit position.
    """
    used = 0
    for planes in planes_list:
        used |= bits_of(planes)
    if not source.same_as(target):
        target = target.extended(
            [source.blocks[position] for position in iter_bits(used)]
        )
    size = len(source.blocks)
    if source is target or (
        len(target.blocks) >= size and target.key[:size] == source.key
    ):
        return target, planes_list
    index = target.index
    positions = {
        position: index[source.blocks[position]] for position in iter_bits(used)
    }
    repacked = []
    for planes in planes_list:
        out = []
        for plane in planes:
            packed = 0
            for position in iter_bits(plane):
                packed |= 1 << positions[position]
            out.append(packed)
        repacked.append(tuple(out))
    return target, repacked
