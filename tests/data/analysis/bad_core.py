"""Object-engine half of the known-bad engine-parity fixture (parsed only).

The commit method invokes ``on_ll_detect`` and ``can_dispatch``; the
cext twin (bad_cext_engine.c) spells only the ``can_dispatch`` elision
slot, so the ``on_ll_detect`` call site is lost.
"""


class SMTCore:
    def _commit(self, ts):
        self.policy.on_ll_detect(None, ts)
        self._policy_can_dispatch(ts)
