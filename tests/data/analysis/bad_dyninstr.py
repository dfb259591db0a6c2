"""DynInstr half of the known-bad engine-parity fixture (parsed only).

``mystery`` has no entry in the fixture's C ``View_getset`` table
(``bad_cext_engine.c``) — the slot would silently read as garbage
through the compiled engine's view type.
"""


class DynInstr:
    __slots__ = ("seq", "mystery")
