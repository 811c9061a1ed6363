"""The mask store: one Python-int bitmask per machine (``backend="fast"``).

Machine ids are remapped onto ``[0, n)``
(:func:`repro.graphs.idspace.dense_index`) and each machine's knowledge
is an n-bit integer, bit ``j`` set iff it knows ``node_ids[j]``.  The
masks carry all the counting work — completion via popcount, the weak
goal via a word-parallel running AND, alive coverage via masked
popcounts — and are the only copy of what each machine knows: its
protocol node reads its mask through a :class:`MaskRow` view.

Delivery learning is bounded by the **candidate mask**
``(mask[sender] | sender_bit) & ~mask[recipient]``: legal traffic only
carries ids its sender knows, so the candidate mask upper-bounds what a
delivery can teach, and a zero candidate mask proves in a few word
operations that it teaches nothing.  The legality guard turns payloads
into masks and keeps them until their messages have arrived, so
delivery usually learns with one ``AND``.  See docs/PERF.md §§2–4.

numpy is a declared runtime dependency, but the simulator core must stay
importable without it, and the set store runs without it.  This module
therefore guards the import: :func:`numpy_available` reports whether the
mask store can run, and :func:`require_numpy` raises one clear,
actionable error when it is built without it.
"""

from __future__ import annotations

import hashlib
from collections import deque
from collections.abc import Set as AbstractSet
from operator import itemgetter
from typing import (
    Collection,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .errors import EngineStateError
from .messages import Message
from .node import ProtocolNode
from .store import KnowledgeStore

try:  # pragma: no cover - exercised via numpy_available() either way
    import numpy as np
except ImportError:  # pragma: no cover - numpy is baked into the image
    np = None  # type: ignore[assignment]

#: Largest n for which the store keeps a per-id power-of-two table
#: (``{id: 1 << bit}``).  The table costs Θ(n²/8) bytes (32 MiB at the
#: cutoff); beyond it every payload takes the numpy route.
_POW2_TABLE_MAX_N = 1 << 14

#: Payloads with ``len(ids) * n`` up to this many bits become masks by
#: summing power-of-two table entries (each addition allocates one n-bit
#: int); larger ones take one numpy scatter and ``np.packbits``, whose
#: fixed cost of a few microseconds only pays off past it.
_SUM_PAYLOAD_BITS = 1 << 16

#: A row of at most this many bits is iterated by peeling its bits one
#: by one; a larger one goes through one ``np.unpackbits`` and a gather,
#: whose fixed cost (~7 µs at n = 2048) only pays off past it.
_PEEL_BITS = 32

#: A sender missing at most this many machines has its payloads checked
#: with set probes against the ids it may not name, not converted.
_ABSENT_MAX = 64

#: Set types ``MaskRow`` combines with, checked before the slower ABC test.
_BUILTIN_SETS = (set, frozenset)


def numpy_available() -> bool:
    """Whether the mask store can run in this interpreter."""
    return np is not None


def require_numpy() -> None:
    """Raise a clear error when the mask store is built without numpy."""
    if np is None:
        raise ImportError(
            "the 'fast' engine backend requires numpy, which is a "
            "declared dependency of this package but is not importable "
            "in this environment; install it (pip install numpy) or "
            "select backend='legacy' instead"
        )


class MaskRow(AbstractSet):
    """One machine's knowledge, read from its mask: a read-only set view.

    Membership is a bit test through the dense index and the size is
    the store's per-row count.  Iteration runs in ascending id order
    through ``node_ids``, so it shares their int objects: a complete row
    iterates ``node_ids`` itself, a row of at most ``_PEEL_BITS`` bits
    peels them, any other takes one ``np.unpackbits``.  ``-``, ``&`` and
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

    def _ids(self) -> Sequence[int]:
        store = self._store
        idx = self._idx
        size = store._sizes[idx]
        node_ids = store.node_ids
        if size == store.n:
            return node_ids
        mask = store.masks[idx]
        if size <= _PEEL_BITS:
            ids = []
            while mask:
                bit = mask.bit_length() - 1
                ids.append(node_ids[bit])
                mask ^= 1 << bit
            ids.reverse()
            return ids
        row = np.frombuffer(mask.to_bytes(store._nbytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(row, count=store.n, bitorder="little")
        return store._id_array[bits.view(bool)].tolist()

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
        require_numpy()
        super().__init__(*args, **kwargs)
        n = self.n
        self._nbytes = (n + 7) >> 3
        self._full = (1 << n) - 1
        self._pow2: Optional[Dict[int, int]] = None
        if n <= _POW2_TABLE_MAX_N:
            self._pow2 = {node: 1 << bit for node, bit in self.index.items()}
        # ``{id(ids): (ids, mask)}`` for the payloads of the messages in
        # flight: filled by the legality guard, read by delivery.  Holding
        # each payload keeps its id() valid.  The keys memoized in each
        # round form one generation; a generation is dropped once every
        # message sent in its round has been delivered, i.e. after as
        # many rounds as the longest delivery delay.
        self._memo: Dict[int, Tuple[Collection[int], int]] = {}
        self._memo_keys: List[int] = []
        self._memo_generations: Deque[List[int]] = deque()
        self.masks = [self.mask_of(self.rows[node]) for node in self.node_ids]
        self._sizes = [mask.bit_count() for mask in self.masks]
        self._complete_mask = 0
        for idx, size in enumerate(self._sizes):
            if size == n:
                self.complete_count += 1
                self._complete_mask |= 1 << idx
        #: ``node_ids`` as a numpy object array, for gathering a row's ids.
        self._id_array = np.array(self.node_ids, dtype=object)
        self.rows = {node: MaskRow(self, idx) for idx, node in enumerate(self.node_ids)}
        self.rebuild_alive()

    def mask_of(self, ids: Collection[int]) -> Optional[int]:
        """The dense bitmask of *ids*, or ``None`` when some id names no
        simulated machine (or cannot be read as one).

        Duplicates are allowed.  Every id is looked up by exact key, as
        the reference scan's set probes do, so only an id equal to a
        machine's id names it.  Small payloads sum power-of-two table
        entries; a sum whose popcount falls short of ``len(ids)`` has
        carried over a duplicate and is redone over the distinct ids.
        Large payloads go through the dense index in one ``itemgetter``
        call, then one numpy scatter and ``np.packbits``.
        """
        count = len(ids)
        pow2 = self._pow2
        try:
            if pow2 is not None and count * self.n <= _SUM_PAYLOAD_BITS:
                mask = sum(map(pow2.__getitem__, ids))
                if mask.bit_count() != count:
                    mask = sum(map(pow2.__getitem__, set(ids)))
                return mask
            if not count:
                return 0
            dense = itemgetter(*ids)(self.index)
        except (KeyError, TypeError):
            return None
        bits = np.fromiter(dense if count > 1 else (dense,), dtype=np.intp, count=count)
        flags = np.zeros(self.n, dtype=bool)
        flags[bits] = True
        return int.from_bytes(np.packbits(flags, bitorder="little"), "little")

    def check(self, node: int, outbox: Sequence[Message]) -> None:
        """Whole-outbox legality guard.

        A message passes when its recipient's bit and its payload lie
        inside the sender's mask.  A sender missing at most
        ``_ABSENT_MAX`` machines has its payloads decided by two C-level
        set probes: every id names a machine, and none names one the
        sender does not know.  Such a payload is converted to a mask only
        when delivery would otherwise translate it, that is when the
        recipient may learn more than a quarter of it.  Any other
        sender's payloads are converted (:meth:`mask_of`) once each and
        memoized until every message sent with them has arrived, for
        delivery to reuse.  When a check fails, or a payload cannot be
        converted, the reference scan decides, raising the exact
        :class:`~repro.sim.errors.ProtocolViolation`.
        """
        index = self.index
        pow2 = self._pow2
        memo = self._memo
        masks = self.masks
        known = masks[index[node]]
        missing = self._full ^ known
        absent: Optional[Set[int]] = None
        if missing.bit_count() <= _ABSENT_MAX:
            id_set = self.id_set
            node_ids = self.node_ids
            absent = set()
            while missing:
                low = missing & -missing
                absent.add(node_ids[low.bit_length() - 1])
                missing ^= low
        flagged = False
        for message in outbox:
            recipient = message.recipient
            if pow2 is not None:
                rbit = pow2.get(recipient)
            else:
                ri = index.get(recipient)
                rbit = None if ri is None else 1 << ri
            if rbit is None or not rbit & known:
                flagged = True
                break
            ids = message.ids
            if absent is not None:
                if not id_set.issuperset(ids) or (absent and not absent.isdisjoint(ids)):
                    flagged = True
                    break
                # Mirror delivery's choice between enumerating the
                # candidate bits and translating the payload.
                cand = known & ~masks[rbit.bit_length() - 1]
                if not cand or (type(ids) is frozenset and cand.bit_count() * 4 <= len(ids)):
                    continue
            entry = memo.get(id(ids))
            if entry is not None:
                mask = entry[1]
            else:
                mask = self.mask_of(ids)
                if mask is None:
                    break
                memo[id(ids)] = (ids, mask)
                self._memo_keys.append(id(ids))
            if mask | known != known:
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
        node_ids = self.node_ids
        pow2 = self._pow2
        full = self._full
        memo = self._memo
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
                sender = message.sender
                si = index[sender]
                sbit = pow2[sender] if pow2 is not None else 1 << si
                cand = (masks[si] | sbit) & ~kmr
                if cand:
                    ids = message.ids
                    checked = memo.get(id(ids)) if memo else None
                    if checked is not None:
                        # The legality guard converted this payload when
                        # the message was sent.
                        add = (checked[1] | sbit) & cand
                    elif type(ids) is frozenset and cand.bit_count() * 4 <= len(ids):
                        # Few candidates, big message: enumerate the
                        # candidate bits and probe them against the
                        # message instead of scanning every pointer.
                        add = cand & sbit  # the sender is always learned
                        m = cand ^ add
                        while m:
                            low = m & -m
                            if node_ids[low.bit_length() - 1] in ids:
                                add |= low
                            m ^= low
                    else:
                        # Translate the message once and intersect with
                        # the candidates.  Ids naming no machine (only
                        # possible with enforcement off) are skipped.
                        mask = self.mask_of(ids)
                        if mask is None:
                            mask = self.mask_of([target for target in ids if target in index])
                        add = (mask | sbit) & cand
                    if add:
                        self._apply(recipient, ri, add)
        self._age_memo()
        return inboxes

    def _age_memo(self) -> None:
        """Close this round's memo generation and drop the oldest one
        once no message that carried its payloads can still be in flight."""
        generations = self._memo_generations
        generations.append(self._memo_keys)
        self._memo_keys = []
        if len(generations) >= self.max_delay:
            memo = self._memo
            for key in generations.popleft():
                del memo[key]

    def _apply(self, recipient: int, idx: int, add: int) -> None:
        """Fold a non-zero mask of new machines into a recipient's mask
        and maintain every derived counter with word-parallel operations."""
        old = self.masks[idx]
        new = old | add
        self.masks[idx] = new
        size = new.bit_count()
        old_size = self._sizes[idx]
        self._sizes[idx] = size
        if size == self.n and old_size < self.n:
            self.complete_count += 1
            self._complete_mask |= 1 << idx
        if recipient in self.alive:
            if self._alive_mask == self._full:
                alive_gain = size - old_size
            else:
                alive_gain = (add & ~old & self._alive_mask).bit_count()
            if alive_gain:
                self._credit_alive(recipient, alive_gain)

    def digest(self) -> str:
        digest = hashlib.sha256()
        nbytes = self._nbytes
        for mask in self.masks:
            digest.update(mask.to_bytes(nbytes, "little"))
        return digest.hexdigest()

    def weak_leader(self) -> Optional[int]:
        # Bit j survives the AND of all masks iff everyone knows machine
        # j; intersecting with the complete-machine mask and taking the
        # lowest surviving bit yields the first qualifying machine.
        common = self._complete_mask
        for mask in self.masks:
            common &= mask
            if not common:
                return None
        return self.node_ids[(common & -common).bit_length() - 1]

    def rebuild_alive(self) -> None:
        alive_mask = self.mask_of(self.alive)
        self._alive_mask = alive_mask
        masks = self.masks
        index = self.index
        self.alive_known = {
            node: (masks[index[node]] & alive_mask).bit_count() for node in self.alive
        }
        self._count_alive_complete()

    def inject(self, node: int, ids: Collection[int]) -> None:
        idx = self.index[node]
        add = self.mask_of(ids) & ~self.masks[idx]
        if add:
            self._apply(node, idx, add)
