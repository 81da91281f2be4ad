"""The cycle-set model of dynamic skyscraper broadcasting, as an oracle.

Per stream ``g`` (width ``W``, first segment ``f``), the set of marked
cycle starts.  A client arriving during slot ``a`` marks the cycle starting
at ``((a + f) // W) * W`` on every stream; during a slot, a stream carries
segment ``f + (slot - start)`` iff the cycle containing the slot is marked.
:class:`repro.protocols.dsb.DynamicSkyscraperProtocol` must match it.
"""


class ReferenceDSB:
    """Marked skyscraper cycles, one set of starts per stream."""

    def __init__(self, widths):
        self.widths = list(widths)
        self.firsts = [1 + sum(self.widths[:g]) for g in range(len(self.widths))]
        self.marked = [set() for _ in self.widths]

    def handle_request(self, slot):
        for marked, width, first in zip(self.marked, self.widths, self.firsts):
            marked.add((slot + first) // width * width)

    def release_before(self, slot):
        """Drop cycles that ended before ``slot``."""
        for marked, width in zip(self.marked, self.widths):
            marked.difference_update([s for s in marked if s + width <= slot])

    def slot_instances(self, slot):
        """Segments transmitted during ``slot``, in stream order."""
        return [
            first + slot % width
            for marked, width, first in zip(self.marked, self.widths, self.firsts)
            if slot // width * width in marked
        ]
