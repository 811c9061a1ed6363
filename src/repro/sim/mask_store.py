"""The mask store: one Python-int bitmask per machine (``backend="fast"``).

Machine ids are remapped onto ``[0, n)``
(:func:`repro.graphs.idspace.dense_index`, held as the run's
:class:`~repro.sim.idset.IdUniverse`) and each machine's knowledge is an
n-bit integer, bit ``j`` set iff it knows ``node_ids[j]``.  The masks
are the only copy of what each machine knows: its protocol node reads
its mask through a :class:`MaskRow` view, and the goals are read from
them with word-parallel operations when the engine asks — a subset
test per holder for closure, a running AND for the weak goal.

Delivery learning is bounded by the **candidate mask**
``(mask[sender] | sender_bit) & ~mask[recipient]``: legal traffic only
carries ids its sender knows, so the candidate mask upper-bounds what a
delivery can teach, and a zero candidate mask proves in a few word
operations that it teaches nothing.  Every payload takes one route:
:meth:`IdUniverse.bits_of` reads an :class:`~repro.sim.idset.IdSet`
value over the run's ids as its bits and converts any other payload,
the legality guard proves that mask with one subset test against the
sender's, and delivery learns ``(mask | sender_bit) & candidate``.  See
docs/PERF.md §§1–4.
"""

from __future__ import annotations

import hashlib
from collections.abc import Set as AbstractSet
from typing import Collection, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set

from .errors import EngineStateError
from .idset import IdUniverse
from .messages import Message
from .node import ProtocolNode
from .store import KnowledgeStore

#: Set types ``MaskRow`` combines with, checked before the slower ABC test.
_BUILTIN_SETS = (set, frozenset)


class MaskRow(AbstractSet):
    """One machine's knowledge, read from its mask: a read-only set view.

    Membership is a bit test through the dense index and the size is
    the store's per-row count.  Iteration runs in ascending id order
    through ``node_ids`` (:meth:`IdUniverse.ids_of`), so it shares their
    int objects.  ``IdUniverse.value`` reads the row's current mask as a
    value, with no copy.  ``-``, ``&`` and
    ``|`` with another set return a plain ``set`` built by C-level set
    operations over the ids, not the ``Set`` mixins' generators; the
    mixins' other results are plain sets too.
    """

    __slots__ = ("_store", "_idx")

    def __init__(self, store: "MaskStore", idx: int) -> None:
        self._store = store
        self._idx = idx

    def __contains__(self, node: object) -> bool:
        store = self._store
        bit = store.index.get(node)
        return bit is not None and store.masks[self._idx] >> bit & 1 == 1

    def __len__(self) -> int:
        return self._store._sizes[self._idx]

    @property
    def universe(self) -> IdUniverse:
        """The dense index the row's bits are over."""
        return self._store.universe

    @property
    def bits(self) -> int:
        """The row's current mask: what ``IdUniverse.value`` reads."""
        return self._store.masks[self._idx]

    def _ids(self) -> Sequence[int]:
        store = self._store
        idx = self._idx
        return store.universe.ids_of(store.masks[idx], store._sizes[idx])

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids())

    @classmethod
    def _from_iterable(cls, iterable: Iterable[int]) -> Set[int]:
        return set(iterable)

    def _combine(self, other, update):
        if type(other) not in _BUILTIN_SETS and not isinstance(other, AbstractSet):
            return NotImplemented
        result = set(self._ids())
        update(result, other)
        return result

    def __sub__(self, other):
        return self._combine(other, set.difference_update)

    def __and__(self, other):
        return self._combine(other, set.intersection_update)

    def __or__(self, other):
        return self._combine(other, set.update)

    __rand__ = __and__
    __ror__ = __or__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self._ids())!r})"


class MaskStore(KnowledgeStore):
    """Bitmask ground truth with candidate-mask learning."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._full = (1 << self.n) - 1
        self.masks = [self.mask_of(self.rows[node]) for node in self.node_ids]
        self._sizes = [mask.bit_count() for mask in self.masks]
        self.rows = {node: MaskRow(self, idx) for idx, node in enumerate(self.node_ids)}

    def mask_of(self, ids: Collection[int]) -> Optional[int]:
        """The dense bitmask of *ids*, or ``None`` when some id names no
        simulated machine (or cannot be read as one); see
        :meth:`IdUniverse.bits_of`."""
        try:
            return self.universe.bits_of(ids)
        except (KeyError, TypeError):
            return None

    def check(self, node: int, outbox: Sequence[Message]) -> None:
        """Whole-outbox legality guard.

        A message passes when its recipient's bit and its payload's mask
        (:meth:`mask_of`: a value over this run's ids is its bits, any
        other payload is converted) lie inside the sender's mask, one
        subset test.  When a check fails, or a payload cannot be
        converted, the reference scan decides, raising the exact
        :class:`~repro.sim.errors.ProtocolViolation`.
        """
        index = self.index
        mask_of = self.mask_of
        known = self.masks[index[node]]
        flagged = False
        for message in outbox:
            ri = index.get(message.recipient)
            if ri is None or not known >> ri & 1:
                flagged = True
                break
            mask = mask_of(message.ids)
            if mask is None:
                break
            if mask & ~known:
                flagged = True
                break
        else:
            return
        self.scan(node, outbox)
        if flagged:
            raise EngineStateError(  # pragma: no cover - defensive
                f"legality mask guard flagged node {node} but the "
                "reference scan found no violation"
            )

    def learn(
        self, messages: Sequence[Message], nodes: Mapping[int, ProtocolNode]
    ) -> Dict[int, List[Message]]:
        inboxes: Dict[int, List[Message]] = {}
        index = self.index
        masks = self.masks
        full = self._full
        mask_of = self.mask_of
        for message in messages:
            recipient = message.recipient
            bucket = inboxes.get(recipient)
            if bucket is None:
                inboxes[recipient] = [message]
            else:
                bucket.append(message)
            nodes[recipient].absorb(message)
            # Learn, bounded by the candidate mask: everything this
            # delivery could teach is something the sender knows (it is
            # the sender, or legally carried) that the recipient does
            # not.  Knowledge is monotone, so the sender's *current* mask
            # still upper-bounds ids it sent earlier (jitter) or before
            # crashing.
            ri = index[recipient]
            kmr = masks[ri]
            if kmr != full:
                si = index[message.sender]
                sbit = 1 << si
                cand = (masks[si] | sbit) & ~kmr
                if cand:
                    ids = message.ids
                    mask = mask_of(ids)
                    if mask is None:
                        # Ids naming no machine (only possible with
                        # enforcement off) are skipped.
                        mask = mask_of([target for target in ids if target in index])
                    add = (mask | sbit) & cand
                    if add:
                        self._apply(ri, add)
        return inboxes

    def _apply(self, idx: int, add: int) -> None:
        """Fold a non-zero mask of new machines into machine *idx*'s mask."""
        new = self.masks[idx] | add
        self.masks[idx] = new
        self._sizes[idx] = new.bit_count()

    def digest(self) -> str:
        digest = hashlib.sha256()
        nbytes = self.universe.nbytes
        for mask in self.masks:
            digest.update(mask.to_bytes(nbytes, "little"))
        return digest.hexdigest()

    def closed(self, nodes: Collection[int]) -> bool:
        want = self.mask_of(nodes)
        masks = self.masks
        index = self.index
        for node in nodes:
            if masks[index[node]] & want != want:
                return False
        return True

    def weak_leader(self) -> Optional[int]:
        # Bit j survives the AND of all masks iff everyone knows machine
        # j; the lowest surviving bit of a complete machine is the first
        # qualifying one.
        common = self._full
        for mask in self.masks:
            common &= mask
            if not common:
                return None
        n = self.n
        sizes = self._sizes
        while common:
            low = common & -common
            idx = low.bit_length() - 1
            if sizes[idx] == n:
                return self.node_ids[idx]
            common ^= low
        return None

    def inject(self, node: int, ids: Collection[int]) -> None:
        idx = self.index[node]
        add = self.mask_of(ids) & ~self.masks[idx]
        if add:
            self._apply(idx, add)
