"""Known-bad fixture for hook-elision-lint (never imported, only parsed).

``on_fetch`` is a no-op default with no marker (every policy would pay
the per-instruction call); ``on_load_complete`` is marked as a default
but its body does real work (the engines would elide a live call);
``_is_base_impl`` sits on ``fetch_order``, which the class does not
define.
"""


class FetchPolicy:
    def on_fetch(self, di, ts):
        """Called for every fetched instruction."""

    def on_load_complete(self, di, ts):
        """Does real work despite the marker below."""
        ts.counter += 1


FetchPolicy.on_load_complete._is_default_hook = True
FetchPolicy.fetch_order._is_base_impl = True
