"""Known-bad fixture for hook-elision-lint (never imported, only parsed).

``on_fetch`` is a no-op default with no marker (every policy would pay
the per-instruction call); ``on_load_complete`` is marked as a default
but its body does real work (the engines would elide a live call);
``_share_gate`` sits on ``can_dispatch``, which the class does not
define.
"""


class FetchPolicy:
    def on_fetch(self, di, ts):
        """Called for every fetched instruction."""

    def on_load_complete(self, di, ts):
        """Does real work despite the marker below."""
        ts.counter += 1


FetchPolicy.on_load_complete._is_default_hook = True
FetchPolicy.can_dispatch._share_gate = True
