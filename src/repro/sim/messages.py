"""Message representation for the synchronous discovery model.

A message carries a *kind* tag, a collection of machine identifiers
(``ids`` — the "pointers" of the resource-discovery literature), and an
optional constant-size payload (``data``).  The accounting rules follow the
model in DESIGN.md section 1:

* ``pointer_count`` is ``len(ids)``; the harness sums this into the run's
  pointer complexity.
* ``data`` must be O(1) machine words of bookkeeping (sizes, coin flips,
  step tags).  It must **never** smuggle machine identifiers: the engine's
  learning rule only teaches the recipient the ``ids`` and the sender, so an
  identifier hidden in ``data`` would be unlearnable anyway — and the
  legality check would reject a later send to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Collection, Dict, Iterable, Tuple


@dataclass(frozen=True, slots=True)
class Message:
    """A single message in flight between two machines.

    Attributes:
        kind: Protocol-defined tag, e.g. ``"invite"`` or ``"report"``.
        sender: Identifier of the sending machine.
        recipient: Identifier of the receiving machine.
        ids: Machine identifiers carried by this message.  The recipient
            learns every one of them upon delivery.  The message keeps
            what its sender knew when it was built: a ``set`` payload is
            stored as a ``frozenset`` copy and any other payload that is
            not already a ``frozenset`` or ``tuple`` as a ``tuple`` copy,
            so a sender that later changes the collection it passed
            changes nothing in flight.
        data: O(1)-word bookkeeping payload (may be ``None``).
    """

    kind: str
    sender: int
    recipient: int
    ids: Collection[int] = field(default=())
    data: Any = None

    def __post_init__(self) -> None:
        ids = self.ids
        if not isinstance(ids, (frozenset, tuple)):
            frozen = frozenset(ids) if isinstance(ids, set) else tuple(ids)
            object.__setattr__(self, "ids", frozen)

    @property
    def pointer_count(self) -> int:
        """Number of machine identifiers this message carries."""
        return len(self.ids)

    def __repr__(self) -> str:  # compact repr keeps traces readable
        return (
            f"Message({self.kind!r}, {self.sender}->{self.recipient}, "
            f"|ids|={len(self.ids)}, data={self.data!r})"
        )


# Number of header words charged per message when converting to bits:
# kind tag, sender, recipient, and the O(1) data payload.
MESSAGE_HEADER_WORDS = 4


def tally_by_kind(
    messages: Iterable[Message],
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """One-pass per-kind message and pointer tallies for batch accounting.

    Mirrors the accounting of per-message ``record_send`` calls exactly:
    every message creates an entry in *both* tallies (a message carrying
    zero pointers still appears in the pointer tally with count 0), so
    feeding the result to :meth:`MetricsCollector.record_batch` yields
    counters identical to the per-message path.
    """
    messages_by_kind: Dict[str, int] = {}
    pointers_by_kind: Dict[str, int] = {}
    mget = messages_by_kind.get
    pget = pointers_by_kind.get
    for message in messages:
        kind = message.kind
        messages_by_kind[kind] = mget(kind, 0) + 1
        pointers_by_kind[kind] = pget(kind, 0) + len(message.ids)
    return messages_by_kind, pointers_by_kind


def message_bits(message: Message, id_bits: int) -> int:
    """Size of *message* in bits under an ``id_bits``-bit identifier space.

    Pointer words dominate asymptotically; headers are charged at
    :data:`MESSAGE_HEADER_WORDS` words of the same width, which matches the
    convention used for bit complexity in the resource-discovery literature.
    """
    return (message.pointer_count + MESSAGE_HEADER_WORDS) * id_bits
