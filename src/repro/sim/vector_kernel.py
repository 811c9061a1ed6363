"""Bit-packed numpy knowledge state: the packed store (``backend="vector"``).

The mask store (:mod:`repro.sim.mask_store`, ``backend="fast"``) keeps
each machine's ground-truth knowledge as an arbitrary-precision Python
integer.  That representation tops out around n = 4096: every mask
operation allocates a fresh ``n``-bit int, and delivery performs
several of them *per message* in interpreted code.  This module replaces
the per-node ints with one bit-packed numpy matrix

    ``K`` — ``uint8``, shape ``(n, ceil(n/8))``, C-contiguous

where bit ``j`` of row ``i`` (byte ``j >> 3``, bit ``j & 7`` — the same
little-endian layout the engine's :meth:`knowledge_digest` has always
hashed) means *machine i knows machine j*.  A whole round of pointer
delivery then becomes a handful of batched row-wise operations:

* the **complete-recipient skip** is one boolean gather over the
  per-message recipient indices;
* the **candidate screen** — "can this delivery teach anything at all?"
  — gathers the sender and recipient rows of every surviving message
  into chunked sub-matrices and evaluates
  ``((K[s] | bit(s)) & ~K[r]).any()`` for thousands of messages per
  numpy call;
* only messages that pass both screens pay the protocol-boundary cost of
  translating their carried identifier collection into a packed row
  (``np.packbits`` over a reusable scratch bit vector), and the learning
  itself is a row ``OR``.

Derived counters (per-row popcounts via ``np.bitwise_count``, the
complete set as both a boolean vector and a packed row) are maintained
incrementally from the per-round deltas, so goal predicates stay O(1).
:class:`VectorState` is itself a
:class:`~repro.sim.store.KnowledgeStore`: the engine's one round loop
drives it like the other two stores.

The matrix costs ``n * ceil(n/8)`` bytes — 8 MB at n = 8192, 1.25 GB at
n = 10^5, 125 GB at n = 10^6 (the last is out of reach for one box with
ordinary memory; see docs/PERF.md for the measured footprint column).

numpy is a declared runtime dependency, but the simulator core must stay
importable without it, and the legacy backend runs without it.  This
module therefore guards the import: :func:`vector_available` reports
whether the backend can run, and :func:`require_numpy` raises one clear,
actionable error when the vector (or the fast) backend is built without
it.
"""

from __future__ import annotations

import hashlib
from typing import Collection, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import EngineStateError
from .messages import Message
from .node import ProtocolNode
from .store import KnowledgeStore, RowView

try:  # pragma: no cover - exercised via vector_available() either way
    import numpy as np
except ImportError:  # pragma: no cover - numpy is baked into the image
    np = None  # type: ignore[assignment]

#: Target bytes per gathered sub-matrix in the chunked candidate screen.
#: 32 MB keeps three live chunk temporaries comfortably inside any
#: reasonable cache-of-last-resort without bounding throughput.
_CHUNK_BYTES = 32 << 20

#: numpy < 2.0 lacks ``np.bitwise_count``; fall back to a uint8 popcount
#: lookup table (one extra gather, same semantics).
if np is not None and hasattr(np, "bitwise_count"):
    def _popcount_rows(rows: "np.ndarray") -> "np.ndarray":
        """Per-row popcounts of a 2-D packed matrix (1-D gets summed)."""
        return np.bitwise_count(rows).sum(axis=-1, dtype=np.int64)
elif np is not None:  # pragma: no cover - numpy >= 2.0 in the image
    _POPCOUNT_TABLE = np.array(
        [bin(value).count("1") for value in range(256)], dtype=np.uint8
    )

    def _popcount_rows(rows: "np.ndarray") -> "np.ndarray":
        return _POPCOUNT_TABLE[rows].sum(axis=-1, dtype=np.int64)


def vector_available() -> bool:
    """Whether the vector backend can run in this interpreter."""
    return np is not None


def require_numpy(backend: str = "vector") -> None:
    """Raise a clear error when a numpy-backed engine backend (``fast``
    or ``vector``) is requested but numpy is missing."""
    if np is None:
        raise ImportError(
            f"the {backend!r} engine backend requires numpy, which is a "
            "declared dependency of this package but is not importable "
            "in this environment; install it (pip install numpy) or "
            "select backend='legacy' instead"
        )


class PackedRow(RowView):
    """One machine's knowledge, read from its packed row: a bit test on
    ``K``, the size by popcount, and iteration by one ``np.unpackbits``
    (or over ``node_ids`` itself for a complete row)."""

    __slots__ = ()

    def __contains__(self, node: object) -> bool:
        store = self._store
        bit = store.index.get(node)
        return bit is not None and int(store.K[self._idx, bit >> 3]) >> (bit & 7) & 1 == 1

    def __len__(self) -> int:
        return int(_popcount_rows(self._store.K[self._idx]))

    def _ids(self) -> Sequence[int]:
        store = self._store
        if store.complete[self._idx]:
            return store.node_ids
        bits = np.unpackbits(store.K[self._idx], count=store.n, bitorder="little")
        return store._id_array[bits.view(bool)].tolist()


class VectorState(KnowledgeStore):
    """The packed store: bit-packed ground truth (``backend="vector"``).

    Owns the knowledge matrix and its derived counters.  All mutating
    entry points preserve two invariants the digest and the differential
    runner rely on:

    * padding bits past ``n`` in the last byte of every row are zero
      (every OR-ed operand is derived from clean rows or from
      ``np.packbits`` over exactly ``n`` bits);
    * ``sizes``/``complete``/``complete_row`` equal the values a full
      recount would produce (updates are delta-exact, see
      :meth:`_apply_deltas`).

    Its rows are :class:`PackedRow` views over ``K``.
    """

    def __init__(self, *args, **kwargs) -> None:
        require_numpy()
        super().__init__(*args, **kwargs)
        n = self.n
        self.nbytes = (n + 7) >> 3
        self.K = np.zeros((n, self.nbytes), dtype=np.uint8)
        self.sizes = np.zeros(n, dtype=np.int64)
        self.complete = np.zeros(n, dtype=bool)
        self.complete_row = np.zeros(self.nbytes, dtype=np.uint8)
        #: Dense index ``i`` lives in byte ``byte_of[i]`` at bit value
        #: ``bitval_of[i]`` of its row.
        indices = np.arange(n, dtype=np.intp)
        self.byte_of = (indices >> 3).astype(np.intp)
        self.bitval_of = (
            np.uint8(1) << (indices & 7).astype(np.uint8)
        ).astype(np.uint8)
        self._scratch_bits = np.zeros(self.nbytes * 8, dtype=bool)
        self._chunk_rows = max(1, _CHUNK_BYTES // max(1, self.nbytes))
        index = self.index
        for node in self.node_ids:
            self.seed_row(index[node], [index[target] for target in self.rows[node]])
        self.complete_count = int(self.complete.sum())
        #: ``node_ids`` as a numpy object array, for gathering a row's ids.
        self._id_array = np.array(self.node_ids, dtype=object)
        self.rows = {node: PackedRow(self, index[node]) for node in self.node_ids}
        self.rebuild_alive()

    # -- construction helpers -----------------------------------------------------

    def seed_row(self, row_index: int, dense_ids: Collection[int]) -> None:
        """Set the initial bits of one row and its derived counters;
        *dense_ids* must be duplicate-free and include the row's own."""
        row = self.K[row_index]
        for bit in dense_ids:
            row[bit >> 3] |= 1 << (bit & 7)
        size = int(_popcount_rows(row))
        self.sizes[row_index] = size
        if size == self.n:
            self.mark_complete(row_index)

    def mark_complete(self, row_index: int) -> None:
        self.complete[row_index] = True
        self.complete_row[self.byte_of[row_index]] |= self.bitval_of[row_index]

    # -- packing at the protocol boundary -----------------------------------------

    def pack_indices(self, dense_ids: Sequence[int]) -> "np.ndarray":
        """Translate dense indices into a freshly-allocated packed row.

        This is the O(|ids|) protocol-boundary cost the candidate screen
        exists to avoid: only messages proven able to teach pay it.  The
        scratch bit vector is reused across calls (set, pack, unset).
        """
        bits = self._scratch_bits
        if dense_ids:
            arr = np.fromiter(dense_ids, dtype=np.intp, count=len(dense_ids))
            bits[arr] = True
            packed = np.packbits(bits[: self.nbytes * 8], bitorder="little")
            bits[arr] = False
        else:
            packed = np.zeros(self.nbytes, dtype=np.uint8)
        return packed

    def _pack_message(
        self,
        ids: Collection[int],
        sender_index: int,
        cache: Dict[int, Tuple[Collection[int], "np.ndarray"]],
    ) -> "np.ndarray":
        """Packed row of a message's carried ids plus its sender bit.

        Duplicates collapse (bits are idempotent) and, with legality
        enforcement off, ids naming no simulated machine are skipped.
        *cache* memoizes the ids-only row by the identity of the payload
        within one delivery batch: protocols routinely send one snapshot
        to many recipients, making the O(|ids|) translation a
        once-per-batch cost.  The cache holds each payload, so its
        ``id()`` stays valid while the batch lasts.
        """
        entry = cache.get(id(ids))
        if entry is None:
            get = self.index.get
            packed = self.pack_indices(
                [bit for bit in map(get, ids) if bit is not None]
            )
            cache[id(ids)] = (ids, packed)
        else:
            packed = entry[1]
        with_sender = packed.copy()
        with_sender[self.byte_of[sender_index]] |= self.bitval_of[sender_index]
        return with_sender

    # -- the batched screen -------------------------------------------------------

    def screen(
        self, senders: "np.ndarray", recipients: "np.ndarray"
    ) -> "np.ndarray":
        """Boolean verdict per message: *can this delivery teach?*

        Stage 1 drops messages to complete recipients with one gather.
        Stage 2 evaluates the candidate mask
        ``(K[sender] | bit(sender)) & ~K[recipient]`` row-wise over the
        survivors, in chunks bounded to ``_CHUNK_BYTES`` of temporaries.
        A ``True`` verdict is an upper bound (the message may still
        carry none of the candidate ids); a ``False`` verdict is exact —
        for legal traffic the delivery provably teaches nothing.
        """
        teaches = np.zeros(len(senders), dtype=bool)
        survivors = np.nonzero(~self.complete[recipients])[0]
        if survivors.size == 0:
            return teaches
        K = self.K
        chunk = self._chunk_rows
        for start in range(0, survivors.size, chunk):
            sel = survivors[start : start + chunk]
            chunk_senders = senders[sel]
            cand = K[chunk_senders]  # copy: c x nbytes
            cand[
                np.arange(len(sel), dtype=np.intp),
                self.byte_of[chunk_senders],
            ] |= self.bitval_of[chunk_senders]
            recipient_rows = np.invert(K[recipients[sel]])
            np.bitwise_and(cand, recipient_rows, out=cand)
            teaches[sel] = cand.any(axis=1)
        return teaches

    def message_add(
        self, sender_index: int, recipient_index: int, packed_ids: "np.ndarray"
    ) -> Optional["np.ndarray"]:
        """The exact learning row of one teaching delivery, or ``None``.

        *packed_ids* is the message's carried-identifier row **with the
        sender's bit already set** (the sender is always learned).  The
        result is ``(ids | bit(sender)) & (K[sender] | bit(sender)) &
        ~K[recipient]`` — the mask store's candidate-mask learning rule,
        under which identifiers the sender does not know are never
        taught (the documented ``enforce_legality=False`` contract; with
        enforcement on such traffic already raised)."""
        sender_row = self.K[sender_index].copy()
        sender_row[self.byte_of[sender_index]] |= self.bitval_of[sender_index]
        np.bitwise_and(sender_row, packed_ids, out=sender_row)
        recipient_inverse = np.invert(self.K[recipient_index])
        np.bitwise_and(sender_row, recipient_inverse, out=sender_row)
        if not sender_row.any():
            return None
        return sender_row

    # -- the store operations -----------------------------------------------------

    def check(self, node: int, outbox: Sequence[Message]) -> None:
        """Whole-outbox legality guard: a bit test on the sender's row
        per recipient, and each payload packed (:meth:`_pack_message`,
        once per payload object) and tested against the row.  On any
        suspected violation the reference scan re-runs to raise the exact
        :class:`~repro.sim.errors.ProtocolViolation`."""
        index = self.index
        sender_index = index[node]
        row = self.K[sender_index]
        unknown = np.invert(row)
        id_set = self.id_set
        cache: Dict[int, Tuple[Collection[int], "np.ndarray"]] = {}
        for message in outbox:
            ri = index.get(message.recipient)
            ids = message.ids
            if (
                ri is None
                or not int(row[ri >> 3]) >> (ri & 7) & 1
                or not id_set.issuperset(ids)
                or (self._pack_message(ids, sender_index, cache) & unknown).any()
            ):
                self.scan(node, outbox)
                raise EngineStateError(  # pragma: no cover - defensive
                    f"legality fast path flagged node {node} but the "
                    "reference scan found no violation"
                )

    def learn(
        self, messages: Sequence[Message], nodes: Mapping[int, ProtocolNode]
    ) -> Dict[int, List[Message]]:
        """One boolean gather and one chunked matrix screen decide which
        deliveries can teach; only those pay the packbits translation and
        a row ``OR``.

        Per-message learning follows the mask store's candidate rule
        against the *current* rows, applied in delivery order, so the two
        stay digest-identical round by round.  The screen itself reads
        the rows as of the start of the batch, which is exact because
        knowledge is monotone and a message carries what its sender knew
        when it was built."""
        inboxes: Dict[int, List[Message]] = {}
        if not messages:
            return inboxes
        index = self.index
        count = len(messages)
        senders = np.fromiter(
            (index[message.sender] for message in messages), dtype=np.intp, count=count
        )
        recipients = np.fromiter(
            (index[message.recipient] for message in messages), dtype=np.intp, count=count
        )
        teaches = self.screen(senders, recipients).tolist()
        sender_list = senders.tolist()
        recipient_list = recipients.tolist()
        pack_cache: Dict[int, Tuple[Collection[int], "np.ndarray"]] = {}
        # ``{row_index: pre-batch row copy}`` for the delta pass.
        old_rows: Dict[int, "np.ndarray"] = {}
        for pos, message in enumerate(messages):
            recipient = message.recipient
            bucket = inboxes.get(recipient)
            if bucket is None:
                inboxes[recipient] = [message]
            else:
                bucket.append(message)
            nodes[recipient].absorb(message)
            if teaches[pos]:
                si = sender_list[pos]
                ri = recipient_list[pos]
                add = self.message_add(si, ri, self._pack_message(message.ids, si, pack_cache))
                if add is not None:
                    if ri not in old_rows:
                        old_rows[ri] = self.K[ri].copy()
                    self.K[ri] |= add
        if old_rows:
            self._apply_deltas(old_rows)
        return inboxes

    def _apply_deltas(self, old_rows: Mapping[int, "np.ndarray"]) -> None:
        """Fold changed rows into the derived counters.

        *old_rows* maps each changed row index to a copy of its earlier
        value; knowledge is monotone, so ``new & ~old`` is exactly what
        was learned since, from which every counter follows."""
        node_ids = self.node_ids
        alive = self.alive
        alive_row = self._alive_row
        for row_index, old_row in old_rows.items():
            delta = self.K[row_index] & ~old_row
            gained = int(_popcount_rows(delta))
            if gained == 0:
                continue
            size = int(self.sizes[row_index]) + gained
            self.sizes[row_index] = size
            if size == self.n:
                # A row that just gained bits cannot have been complete
                # before, so reaching completeness here is a transition.
                self.mark_complete(row_index)
                self.complete_count += 1
            node = node_ids[row_index]
            if node in alive:
                if alive_row is not None:
                    gained = int(_popcount_rows(delta & alive_row))
                if gained:
                    self._credit_alive(node, gained)

    def digest(self) -> str:
        # The matrix *is* the canonical byte string: C-contiguous packed
        # rows in dense (sorted-id) order, hashed through the buffer
        # protocol without materializing intermediate bytes.
        return hashlib.sha256(self.K).hexdigest()

    def weak_leader(self) -> Optional[int]:
        # Bit j of the AND of all rows survives iff everyone knows j.
        common = np.bitwise_and.reduce(self.K, axis=0)
        np.bitwise_and(common, self.complete_row, out=common)
        nonzero = np.nonzero(common)[0]
        if nonzero.size == 0:
            return None
        byte = int(nonzero[0])
        value = int(common[byte])
        return self.node_ids[(byte << 3) + (value & -value).bit_length() - 1]

    def rebuild_alive(self) -> None:
        alive = self.alive
        node_ids = self.node_ids
        if len(alive) == self.n:
            # Everyone alive: coverage is plain knowledge size, and the
            # delta pass reuses its popcounts (``_alive_row is None``).
            self._alive_row = None
            self.alive_known = dict(zip(node_ids, self.sizes.tolist()))
        else:
            dense_alive = sorted(self.index[node] for node in alive)
            self._alive_row = alive_row = self.pack_indices(dense_alive)
            counts = np.zeros(len(dense_alive), dtype=np.int64)
            rows = np.asarray(dense_alive, dtype=np.intp)
            chunk = self._chunk_rows
            for start in range(0, len(rows), chunk):
                sel = rows[start : start + chunk]
                counts[start : start + len(sel)] = _popcount_rows(self.K[sel] & alive_row)
            self.alive_known = {
                node_ids[idx]: count for idx, count in zip(dense_alive, counts.tolist())
            }
        self._count_alive_complete()

    def inject(self, node: int, ids: Collection[int]) -> None:
        index = self.index
        row_index = index[node]
        old_row = self.K[row_index].copy()
        self.K[row_index] |= self.pack_indices([index[target] for target in ids])
        self._apply_deltas({row_index: old_row})

    def _load_near_complete(
        self, groups: List[Tuple[Collection[int], Sequence[int]]]
    ) -> None:
        n = self.n
        index = self.index
        full_row = np.full(self.nbytes, 0xFF, dtype=np.uint8)
        if n & 7:
            full_row[-1] = (1 << (n & 7)) - 1  # padding bits stay zero
        self.K[:] = full_row
        self.sizes[:] = n
        self.complete[:] = True
        self.complete_row[:] = full_row
        for ids, nodes in groups:
            bits = np.fromiter((index[m] for m in ids), dtype=np.intp)
            cleared = full_row.copy()
            np.bitwise_and.at(cleared, self.byte_of[bits], ~self.bitval_of[bits])
            rows = np.fromiter((index[node] for node in nodes), dtype=np.intp)
            self.K[rows] = cleared
            self.sizes[rows] = n - bits.size
            self.complete[rows] = False
            np.bitwise_and.at(
                self.complete_row, self.byte_of[rows], ~self.bitval_of[rows]
            )
