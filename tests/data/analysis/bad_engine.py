"""Known-bad engine fixture for hook-elision-lint (parsed only).

Probes ``_is_default_hook`` on a method no base class ever marks — the
elision can never fire, so the probe is dead weight on every init.
"""


class Core:
    def __init__(self, policy):
        cls = type(policy)
        self._hook = (
            None if getattr(cls.on_never, "_is_default_hook", False)
            else policy.on_never)
