"""Identifier namespaces for knowledge graphs.

Resource-discovery algorithms must treat machine identifiers as opaque —
comparable, hashable, but not assumed dense in ``[0, n)`` and certainly not
usable to *guess* addresses.  To keep the shipped algorithms honest, every
generator can emit graphs under two namespaces:

* ``"dense"`` — ids ``0 .. n-1`` (convenient for debugging);
* ``"random"`` — distinct pseudorandom 48-bit labels (deterministic in the
  seed), which instantly breaks any accidental reliance on density.

Tests run the full algorithm suite under both namespaces.

The module also provides the **ring metric** over the identifier space:
both namespaces embed into the ring of integers modulo ``2**RING_BITS``,
and structured-overlay algorithms (``chord_discover``) navigate that ring
via :func:`ring_distance`, :func:`ring_successor`, :func:`ring_nearest`,
and :func:`finger_targets`.  Every helper is deterministic — ties break
the same way on every backend — because overlay routing decisions feed
directly into cross-backend digest comparisons.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..sim.rng import derive_rng

ID_SPACES = ("dense", "random")

#: Width of the identifier ring.  Random-namespace labels are drawn from
#: exactly this many bits, and dense ids ``0..n-1`` embed trivially, so a
#: single modulus serves both namespaces.
RING_BITS = 48

#: Size of the identifier ring, ``2**RING_BITS``.
RING_MODULUS = 1 << RING_BITS

_RANDOM_ID_BITS = RING_BITS


def make_id_mapping(count: int, id_space: str, seed: int) -> Dict[int, int]:
    """Map dense ids ``0..count-1`` into the requested namespace."""
    if id_space == "dense":
        return {index: index for index in range(count)}
    if id_space == "random":
        rng = derive_rng(seed, "idspace", count)
        labels: set[int] = set()
        while len(labels) < count:
            labels.add(rng.getrandbits(_RANDOM_ID_BITS))
        ordered = sorted(labels)
        rng.shuffle(ordered)
        return {index: label for index, label in enumerate(ordered)}
    raise ValueError(f"unknown id space {id_space!r}; expected one of {ID_SPACES}")


def ring_distance(a: int, b: int) -> int:
    """Clockwise distance from *a* to *b* on the identifier ring.

    ``ring_distance(a, a) == 0``; the metric is asymmetric by design
    (Chord's successor relation walks clockwise only).
    """
    return (b - a) % RING_MODULUS


def ring_successor(target: int, candidates: Sequence[int]) -> Optional[int]:
    """First candidate at or clockwise-after *target*; ``None`` if empty.

    *candidates* must be sorted ascending (the caller typically maintains
    one sorted view and queries it many times — this keeps each lookup at
    ``O(log n)`` via bisect).  Wraps around: a target past the largest
    candidate resolves to the smallest.
    """
    if not candidates:
        return None
    position = bisect_left(candidates, target % RING_MODULUS)
    if position == len(candidates):
        return candidates[0]
    return candidates[position]


def ring_nearest(target: int, candidates: Sequence[int]) -> Optional[int]:
    """Candidate minimizing symmetric ring distance to *target*.

    *candidates* must be sorted ascending.  On an exact tie (successor
    and predecessor equidistant from the target) the **successor** wins —
    clockwise is the deterministic tie-break everywhere in this module.
    """
    successor = ring_successor(target, candidates)
    if successor is None:
        return None
    position = bisect_left(candidates, target % RING_MODULUS)
    predecessor = candidates[position - 1] if candidates else None
    forward = ring_distance(target, successor)
    backward = ring_distance(predecessor, target)
    if backward < forward:
        return predecessor
    return successor


def finger_targets(origin: int, bits: int = RING_BITS) -> Tuple[int, ...]:
    """Chord finger targets ``(origin + 2**k) mod RING_MODULUS``, k < bits."""
    return tuple((origin + (1 << k)) % RING_MODULUS for k in range(bits))


def densify(node_ids: Sequence[int]) -> Dict[int, int]:
    """Inverse helper: map arbitrary ids onto ``0..n-1`` preserving order."""
    return {node: index for index, node in enumerate(sorted(node_ids))}


def dense_index(node_ids: Iterable[int]) -> Tuple[Tuple[int, ...], Dict[int, int]]:
    """Sorted id tuple plus its id → dense-index inverse, in one pass.

    The simulator's fast store needs both directions of the remap:
    ``ordered[i]`` recovers the opaque id sitting at bit ``i`` of a
    knowledge bitmask, and ``index[id]`` finds an id's bit.  Index ``i``
    of the returned tuple always equals ``densify(node_ids)[ordered[i]]``.

    Duplicate ids are rejected: two nodes sharing a bit would silently
    merge their knowledge in every bitmask representation, so a collision
    is always caller error (mapping inputs deduplicate by construction,
    but sequences from recordings or hand-built graphs may not).
    """
    ordered = tuple(sorted(node_ids))
    index = {node: position for position, node in enumerate(ordered)}
    if len(index) != len(ordered):
        seen: set[int] = set()
        duplicates = sorted(
            {node for node in ordered if node in seen or seen.add(node)}
        )
        raise ValueError(
            f"duplicate node ids in dense index: {duplicates[:5]}"
        )
    return ordered, index
