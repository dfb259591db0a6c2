"""slots-lint fixture, second of two modules that both define ``_Entry``
(never imported, only parsed)."""

from slots_twin_a import Base


class _Entry:
    __slots__ = ("counter",)

    def __init__(self):
        self.counter = 0


class Tagged(_Entry):
    """Resolves to this module's ``_Entry``: ``stride`` is not a slot."""

    __slots__ = ("tag",)

    def __init__(self):
        super().__init__()
        self.counter = 1
        self.tag = 2
        self.stride = 3


class Derived(Base):
    """Resolves to the imported ``Base``: ``shared`` is a slot."""

    __slots__ = ()

    def __init__(self):
        super().__init__()
        self.shared = 1
