"""slots-lint fixture, first of two modules that both define ``_Entry``
(never imported, only parsed)."""

from enum import IntEnum


class Level(IntEnum):
    """An enum: members are class attributes, no slots needed."""

    LOW = 1


class _Entry:
    """Its own slots must resolve, whatever the other module defines."""

    __slots__ = ("last_addr", "stride")

    def __init__(self):
        self.last_addr = -1
        self.stride = 0


class Base:
    __slots__ = ("shared",)

    def __init__(self):
        self.shared = 0
