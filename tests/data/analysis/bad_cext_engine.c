/* cext half of the known-bad engine-parity fixture (scanned as text).
 *
 * Its offset table spells the can_dispatch elision slot, but no
 * on_ll_detect intern: the hook bad_core.py calls is never reached.
 */
static const char *SPECS[] = {"_policy_can_dispatch"};
