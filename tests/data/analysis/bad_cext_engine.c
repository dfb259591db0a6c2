/* cext half of the known-bad engine-parity fixture (scanned as text).
 *
 * Its offset table spells the can_dispatch elision slot, but no
 * on_ll_detect intern: the hook bad_core.py calls is never reached.
 * Its view getset table covers `seq` but not `mystery`.
 */
static const char *SPECS[] = {"_policy_can_dispatch"};

static PyGetSetDef View_getset[] = {
    VICOL("seq", C_SEQ),
    {NULL, NULL, NULL, NULL, NULL},
};
