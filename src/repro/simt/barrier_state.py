"""Warp convergence-barrier state (Volta BSSY / BSYNC / BREAK semantics).

Each warp owns a :class:`BarrierFile` mapping barrier names to
:class:`ConvergenceBarrier` records. Every op takes a *lane mask* (bit
``i`` is lane ``i``), so a whole issued group joins, parks, withdraws or
is released in one call. Semantics (Section 2 of the paper):

* ``join`` (BSSY): the lanes become members. Re-joining is idempotent.
* ``park`` (BSYNC): the member lanes wait; non-members pass through. A
  *hard* wait releases the full membership when every member is parked.
* ``park`` with a threshold (``bsync.soft``, Section 4.6): the parked pool
  releases as soon as it reaches the threshold, or when the whole
  membership is parked (threshold unsatisfiable by more arrivals).
* ``withdraw`` (BREAK): removes lanes from the membership; removal can
  complete a release for the remaining parked members.
* thread exit withdraws from every barrier (hardware drains exited lanes).

Releases *clear the released lanes' membership*: a thread that expects to
wait again must re-join (the paper's ``RejoinBarrier``).

A barrier's release condition reads only its own two masks and the soft
thresholds of its own parked lanes, so one barrier's release can never
make another releasable. ``members`` / ``parked`` are lane-set views for
observability and tests.
"""

from __future__ import annotations

from repro.errors import SimulationError

#: Sentinel threshold meaning "wait for all members" (hard barrier).
ALL_MEMBERS = None


def _byte_lanes(base):
    """Per byte value, the ascending lanes ``base + i`` of its set bits
    ``i``, built by doubling the table once per bit."""
    table = [()]
    for lane in range(base, base + 8):
        table += [lanes + (lane,) for lanes in table]
    return tuple(table)


#: _BYTE_LANES[k][byte]: the lanes whose bits are set in ``byte`` when it
#: is byte ``k`` of a 32-lane mask.
_BYTE_LANES = tuple(_byte_lanes(8 * k) for k in range(4))


def lanes_of(mask):
    """The lane ids (0..31) whose bits are set in ``mask``, ascending."""
    lanes = []
    for table in _BYTE_LANES:
        if not mask:
            break
        lanes += table[mask & 255]
        mask >>= 8
    return lanes


class ConvergenceBarrier:
    """Membership and parked lane bitmasks for one named barrier."""

    __slots__ = ("name", "members_mask", "parked_mask", "thresholds")

    def __init__(self, name):
        self.name = name
        self.members_mask = 0     # lanes that joined and have not cleared
        self.parked_mask = 0      # subset of members currently waiting
        self.thresholds = {}      # parked soft lane -> its threshold

    @property
    def members(self):
        return set(lanes_of(self.members_mask))

    @property
    def parked(self):
        return set(lanes_of(self.parked_mask))

    def join(self, mask):
        self.members_mask |= mask

    def park(self, mask, threshold=ALL_MEMBERS):
        """Park the members among ``mask``; returns the parked mask.
        Waiting on a barrier you are not part of is a no-op in hardware,
        so the other lanes pass through."""
        mask &= self.members_mask
        if mask:
            self.parked_mask |= mask
            thresholds = self.thresholds
            if thresholds:
                self._drop_soft(mask)
            if threshold is not ALL_MEMBERS:
                for lane in lanes_of(mask):
                    thresholds[lane] = threshold
        return mask

    def withdraw(self, mask):
        self.members_mask &= ~mask
        self.parked_mask &= ~mask
        if self.thresholds:
            self._drop_soft(mask)

    def releasable(self):
        """The mask of lanes to release now, or 0."""
        parked = self.parked_mask
        if not parked:
            return 0
        if parked == self.members_mask:
            return parked
        # Hard waits only (the overwhelmingly common case): an incomplete
        # parked set cannot release.
        thresholds = self.thresholds
        if thresholds and parked.bit_count() >= min(thresholds.values()):
            return parked
        return 0

    def release(self, mask):
        """Clear ``mask`` out of the barrier (its lanes proceed past their
        wait); every lane of it must be parked."""
        stray = mask & ~self.parked_mask
        if stray:
            raise SimulationError(
                f"releasing lanes {lanes_of(stray)} not parked on barrier "
                f"{self.name}"
            )
        self.members_mask &= ~mask
        self.parked_mask &= ~mask
        if self.thresholds:
            self._drop_soft(mask)

    def _drop_soft(self, mask):
        thresholds = self.thresholds
        for lane in list(thresholds):
            if (mask >> lane) & 1:
                del thresholds[lane]

    @property
    def arrived_count(self):
        """arrivedThreads() of Figure 6: members that have joined."""
        return self.members_mask.bit_count()

    def __repr__(self):
        return (
            f"<Barrier {self.name} members={sorted(self.members)} "
            f"parked={sorted(self.parked)}>"
        )


class BarrierFile:
    """All convergence barriers of one warp, created on first use."""

    def __init__(self):
        self._barriers = {}

    def get(self, name):
        barrier = self._barriers.get(name)
        if barrier is None:
            barrier = ConvergenceBarrier(name)
            self._barriers[name] = barrier
        return barrier

    def withdraw_from_all(self, mask):
        """Remove exiting lanes from every barrier; returns the barriers
        they were in, in file order (only these can have become
        releasable)."""
        touched = []
        for barrier in self._barriers.values():
            if barrier.members_mask & mask:
                barrier.withdraw(mask)
                touched.append(barrier)
        return touched

    def in_file_order(self, barriers):
        """The records of ``barriers`` (a collection of this file's
        records) in file order."""
        return [b for b in self._barriers.values() if b in barriers]

    def barriers(self):
        return list(self._barriers.values())

    def barriers_dict(self):
        """The live name -> barrier mapping (read-only use)."""
        return self._barriers

    def __contains__(self, name):
        return name in self._barriers
