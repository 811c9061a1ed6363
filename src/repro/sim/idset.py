"""Id-set values: immutable sets of machine ids held as one int.

The simulator numbers a run's machines ``0 .. n-1`` in ascending id
order (:func:`repro.graphs.idspace.dense_index`).  An :class:`IdUniverse`
holds that numbering, and an :class:`IdSet` over it is one n-bit int,
bit ``i`` set iff the set holds ``node_ids[i]``.  The value is what a
protocol hands the engine as a payload: its ``len`` is the popcount, it
iterates its ids in ascending order, and ``-`` with any set of ids
returns another value.  The mask store proves a value legal with one
subset test and learns it with one ``OR``; the set store walks its ids
one by one (docs/PERF.md §4).

The universe is also the one converter between ids and bits: the mask
store's rows and payload masks go through :meth:`IdUniverse.bits_of` and
:meth:`IdUniverse.ids_of`.  Both take a numpy route for large inputs.
"""

from __future__ import annotations

from collections.abc import Iterable
from collections.abc import Set as AbstractSet
from operator import itemgetter
from typing import Any, Collection, Dict, FrozenSet, Iterator, Optional, Sequence

import numpy as np

#: Payloads with ``len(ids) * n`` up to this many bits become masks by
#: OR-ing one shifted bit per id (each allocates one n-bit int); larger
#: ones take one numpy scatter and ``np.packbits``, whose fixed cost of a
#: few microseconds only pays off past it.
_SHIFT_PAYLOAD_BITS = 1 << 16

#: A mask of at most this many bits is iterated by peeling its bits one
#: by one; a larger one goes through one ``np.unpackbits`` and a gather,
#: whose fixed cost (~7 µs at n = 2048) only pays off past it.
_PEEL_BITS = 32

#: Collections that are never a value or a row, tested (after ``IdSet``
#: itself, the common payload) before looking for a ``universe`` attribute.
_PLAIN_COLLECTIONS = (tuple, list, set, frozenset)


class IdUniverse:
    """One run's machine ids in dense order: ``node_ids[i]`` is bit ``i``
    of every value over it.

    Args:
        node_ids: The machine ids, ascending.
        index: ``{machine id: dense index}``; built from *node_ids* when
            omitted.
    """

    __slots__ = ("node_ids", "index", "n", "nbytes", "_id_array", "_twin")

    def __init__(
        self, node_ids: Sequence[int], index: Optional[Dict[int, int]] = None
    ) -> None:
        self.node_ids = tuple(node_ids)
        self.index = (
            index if index is not None else {node: i for i, node in enumerate(self.node_ids)}
        )
        self.n = len(self.node_ids)
        self.nbytes = (self.n + 7) >> 3
        #: ``node_ids`` as a numpy object array, for gathering a mask's ids.
        self._id_array = np.array(self.node_ids, dtype=object)
        #: The last other universe found to number the same ids.
        self._twin: Optional[IdUniverse] = None

    def same_ids(self, other: "IdUniverse") -> bool:
        """Whether bit ``i`` names the same machine in *other* as here.

        Two engines built over the same ids number them alike, so a value
        made by one reads as bits in the other (a recorded schedule
        replayed on a fresh engine); the last such universe is remembered.
        """
        if other is self or other is self._twin:
            return True
        if other.node_ids != self.node_ids:
            return False
        self._twin = other
        return True

    def value(self, ids: Collection[int]) -> "IdSet":
        """The value holding *ids*; ``KeyError`` if one names no machine."""
        return IdSet(self, self.bits_of(ids))

    def bits_of(self, ids: Collection[int]) -> int:
        """The mask of *ids*; raises ``KeyError`` (or ``TypeError``) when
        an id names no machine.

        A value or a mask-store row over the same ids is read as its
        bits.  Anything else is looked up id by id, by exact key: only an
        id equal to a machine's id names it.  Duplicates are allowed.
        """
        kind = type(ids)
        if kind is IdSet or kind not in _PLAIN_COLLECTIONS:
            universe = getattr(ids, "universe", None)
            if universe is self or (universe is not None and self.same_ids(universe)):
                return ids.bits  # type: ignore[attr-defined]
        index = self.index
        count = len(ids)
        if count * self.n <= _SHIFT_PAYLOAD_BITS:
            bits = 0
            for node in ids:
                bits |= 1 << index[node]
            return bits
        dense = itemgetter(*ids)(index)
        flags = np.zeros(self.n, dtype=bool)
        flags[np.fromiter(dense if count > 1 else (dense,), dtype=np.intp, count=count)] = True
        return int.from_bytes(np.packbits(flags, bitorder="little"), "little")

    def ids_of(self, bits: int, count: int = -1) -> Sequence[int]:
        """The ids of *bits* (``count`` of them, if known), ascending.

        They are ``node_ids``' own int objects: a full mask returns
        ``node_ids`` itself, a mask of at most ``_PEEL_BITS`` bits peels
        them, any other takes one ``np.unpackbits`` and a gather.
        """
        if count < 0:
            count = bits.bit_count()
        node_ids = self.node_ids
        if count == self.n:
            return node_ids
        if count <= _PEEL_BITS:
            ids = []
            while bits:
                top = bits.bit_length() - 1
                ids.append(node_ids[top])
                bits ^= 1 << top
            ids.reverse()
            return ids
        row = np.frombuffer(bits.to_bytes(self.nbytes, "little"), dtype=np.uint8)
        flags = np.unpackbits(row, count=self.n, bitorder="little")
        return self._id_array[flags.view(bool)].tolist()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


class IdSet(AbstractSet):
    """An immutable set of machine ids: one n-bit int over a universe.

    ``len`` is the popcount and iteration runs in ascending id order.
    ``value - other`` returns a value for any iterable *other* (ids that
    name no machine are ignored); the ``Set`` mixins' other results are
    frozensets.  A value equals any set holding the same ids, whichever
    side of ``==`` it is on, and hashes like the equal frozenset.
    """

    __slots__ = ("universe", "bits")

    def __init__(self, universe: IdUniverse, bits: int) -> None:
        self.universe = universe
        self.bits = bits

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, node: object) -> bool:
        bit = self.universe.index.get(node)  # type: ignore[call-overload]
        return bit is not None and self.bits >> bit & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.universe.ids_of(self.bits))

    @classmethod
    def _from_iterable(cls, iterable: Iterable[Any]) -> FrozenSet[Any]:
        return frozenset(iterable)

    def __sub__(self, other: Any) -> "IdSet":
        universe = self.universe
        if type(other) is IdSet and universe.same_ids(other.universe):
            drop = other.bits
        elif isinstance(other, _PLAIN_COLLECTIONS) or isinstance(other, Iterable):
            index = universe.index
            drop = universe.bits_of([node for node in other if node in index])
        else:
            return NotImplemented
        return IdSet(universe, self.bits & ~drop)

    def __eq__(self, other: object) -> bool:
        if type(other) is IdSet and self.universe.same_ids(other.universe):
            return self.bits == other.bits
        return AbstractSet.__eq__(self, other)

    __hash__ = AbstractSet._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"
