"""Bit-packed numpy knowledge state: the ``vector`` engine backend's core.

The dense fast path (:mod:`repro.sim.engine`, ``backend="fast"``) stores
each machine's ground-truth knowledge as an arbitrary-precision Python
integer.  That representation tops out around n = 4096: every mask
operation allocates a fresh ``n``-bit int, and the round loop performs
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

from typing import Collection, Dict, List, Mapping, Optional, Sequence, Tuple

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


class VectorState:
    """The bit-packed ground-truth knowledge of one simulation run.

    Owns the knowledge matrix and its derived counters; the engine's
    ``backend="vector"`` round body drives it.  All mutating entry
    points preserve two invariants the digest and the differential
    runner rely on:

    * padding bits past ``n`` in the last byte of every row are zero
      (every OR-ed operand is derived from clean rows or from
      ``np.packbits`` over exactly ``n`` bits);
    * ``sizes``/``complete``/``complete_row`` equal the values a full
      recount would produce (updates are delta-exact, see
      :meth:`apply_delta`).
    """

    def __init__(self, n: int) -> None:
        require_numpy()
        self.n = n
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

    # -- construction helpers -----------------------------------------------------

    def seed_row(self, row_index: int, dense_ids: Collection[int]) -> None:
        """Set the initial bits of one row and its derived counters.

        Only called at engine construction (and by the bench-only state
        injection in :mod:`repro.bench.steady`); *dense_ids* must be
        duplicate-free dense indices including the node's own.
        """
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

    # -- the batched screens ------------------------------------------------------

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
        ~K[recipient]`` — intersecting with the sender's knowledge
        mirrors the fast path's candidate-mask learning rule, under
        which identifiers the sender does not know are never taught
        (the documented ``enforce_legality=False`` contract; with
        enforcement on such traffic already raised)."""
        sender_row = self.K[sender_index].copy()
        sender_row[self.byte_of[sender_index]] |= self.bitval_of[sender_index]
        np.bitwise_and(sender_row, packed_ids, out=sender_row)
        recipient_inverse = np.invert(self.K[recipient_index])
        np.bitwise_and(sender_row, recipient_inverse, out=sender_row)
        if not sender_row.any():
            return None
        return sender_row

    # -- learning -----------------------------------------------------------------

    def or_into(self, row_index: int, add: "np.ndarray") -> None:
        self.K[row_index] |= add

    def apply_delta(self, row_index: int, old_row: "np.ndarray") -> int:
        """Fold one changed row's delta into the derived counters.

        Returns the number of newly-learned machines.  ``old_row`` is
        the row's value at the start of the round; knowledge is
        monotone, so ``new & ~old`` is exactly what the round taught."""
        delta = self.K[row_index] & ~old_row
        gained = int(_popcount_rows(delta))
        if gained == 0:
            return 0
        size = int(self.sizes[row_index]) + gained
        self.sizes[row_index] = size
        if size == self.n:
            self.mark_complete(row_index)
        return gained

    def delta_alive_gain(
        self, row_index: int, old_row: "np.ndarray", alive_row: "np.ndarray"
    ) -> int:
        """Newly-learned machines that are currently alive."""
        delta = (self.K[row_index] & ~old_row) & alive_row
        return int(_popcount_rows(delta))

    # -- whole-matrix queries -----------------------------------------------------

    def masked_popcounts(
        self, row_indices: "np.ndarray", mask_row: "np.ndarray"
    ) -> "np.ndarray":
        """``popcount(K[i] & mask_row)`` for each requested row, chunked."""
        out = np.zeros(len(row_indices), dtype=np.int64)
        chunk = self._chunk_rows
        for start in range(0, len(row_indices), chunk):
            sel = row_indices[start : start + chunk]
            out[start : start + len(sel)] = _popcount_rows(self.K[sel] & mask_row)
        return out

    def common_knowledge_row(self) -> "np.ndarray":
        """AND of every row: bit ``j`` set iff *everyone* knows ``j``.

        O(n * nbytes) — only ever evaluated once a complete node exists
        (the weak-goal early-out), mirroring the fast path's scan."""
        return np.bitwise_and.reduce(self.K, axis=0)

    def first_set_bit(self, row: "np.ndarray") -> Optional[int]:
        """Lowest set bit index of a packed row, or ``None``."""
        nonzero = np.nonzero(row)[0]
        if nonzero.size == 0:
            return None
        byte = int(nonzero[0])
        value = int(row[byte])
        return (byte << 3) + (value & -value).bit_length() - 1

    def row_new_bits(
        self, row_index: int, cached_row: "np.ndarray"
    ) -> "np.ndarray":
        """Dense indices set in the row but not in *cached_row* (for the
        lazy knowledge-set synchronization)."""
        fresh = self.K[row_index] & ~cached_row
        return np.nonzero(
            np.unpackbits(fresh, bitorder="little")[: self.n]
        )[0]

    def digest_view(self) -> "np.ndarray":
        """The matrix itself — C-contiguous, so hashlib consumes it
        through the buffer protocol without a byte-string round trip."""
        return self.K


def pack_message_ids(
    ids: Collection[int],
    sender: int,
    index: Mapping[int, int],
    state: VectorState,
    cache: Dict[int, Tuple[Collection[int], "np.ndarray"]],
) -> "np.ndarray":
    """Packed row of a message's carried ids plus its sender bit.

    Tolerates dirty protocol input exactly like the fast path's
    ``_mask_from_message_ids``: duplicates collapse (bits are
    idempotent) and, with legality enforcement off, identifiers naming
    no simulated machine are silently skipped.

    *cache* memoizes the ids-only packed row by the identity of the
    carried collection within one delivery batch — protocols routinely
    send one snapshot to many recipients (and the synthetic steady-state
    kernel sends one shared frozenset to everyone), making the O(|ids|)
    translation a once-per-round cost instead of once-per-message.  The
    cache holds a reference to the collection, so ``id()`` stays valid
    for its lifetime; callers drop the cache when the batch ends.
    """
    key = id(ids)
    entry = cache.get(key)
    if entry is None:
        dense: List[int] = []
        get = index.get
        for target in ids:
            bit = get(target)
            if bit is not None:
                dense.append(bit)
        packed = state.pack_indices(dense)
        cache[key] = (ids, packed)
    else:
        packed = entry[1]
    with_sender = packed.copy()
    with_sender[state.byte_of[sender]] |= state.bitval_of[sender]
    return with_sender
