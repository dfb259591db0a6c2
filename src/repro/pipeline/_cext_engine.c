/* _cext_engine: the compiled `cext` engine backend's fused run loop.
 *
 * The object engine's stage loop (repro/pipeline/core.py: _run_until,
 * the inline event drains, _commit, _issue, _dispatch, _fetch_thread),
 * stage for stage, over one native Arena per core (the contract is in
 * repro/pipeline/soa.py): int64 instruction columns, the free list, the
 * ready heaps, the three event wheels and each thread's front-end
 * queue, window and rename map live in C memory, so no arena access
 * boxes, unboxes or allocates.  ThreadState, core, stats and Instr
 * slots stay Python objects, read and written through the C API.
 * Policy hooks re-enter Python mid-stage through SoAView (a C type
 * reading the arena) and may call flush_thread, which runs here too; a
 * fetch may grow the arena.  Every column pointer is therefore re-read
 * from the arena after any call that can do either.  The fast-forward
 * target, LLSR.commit_zeros, TLB/L1 hits of the memory hierarchy and the
 * iteration-varying slots of SyntheticTrace are computed here too, on
 * those objects' slots; their Python bodies remain the reference
 * (tests/test_cext_paths.py).  The golden matrix pins the backend
 * bit-exact with the object engine; engine-parity-lint checks that the
 * policy hook call sites here match core.py's set and that SoAView's
 * getset table covers every DynInstr field.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <string.h>

#define CEXT_API_VERSION 1

/* Flag bits: must mirror repro/pipeline/dyninstr.py (verified in setup). */
#define F_IN_IQ (1 << 0)
#define F_IQ_FP (1 << 1)
#define F_ISSUED (1 << 2)
#define F_COMPLETED (1 << 3)
#define F_HAS_DEST (1 << 4)
#define F_DEST_FP (1 << 5)
#define F_SQUASHED (1 << 6)
#define F_IS_LOAD (1 << 7)
#define F_IS_STORE (1 << 8)
#define F_IS_BRANCH (1 << 9)
#define F_IS_LL (1 << 10)
#define F_INV (1 << 11)
#define F_LL_DEP (1 << 12)
#define F_RETIRED (1 << 13)
#define F_IN_DETECTS (1 << 14)
#define F_FREED (1 << 15)

#define F_MEM (F_IS_LOAD | F_IS_STORE)
#define F_DEAD_OR_DONE (F_SQUASHED | F_ISSUED | F_COMPLETED)
#define F_NO_WAKE (F_SQUASHED | F_ISSUED)
#define F_RETIRED_FREED (F_RETIRED | F_FREED)

#define SLOT_SHIFT 20
#define SLOT_MASK ((1LL << SLOT_SHIFT) - 1)

#define SMALL_INT_LIMIT 65536
#define MAX_THREADS 256
#define MAX_SRCS 64

/* ------------------------------------------------------------------ */
/* resolved member offsets                                             */
/* ------------------------------------------------------------------ */

typedef struct {
    /* core */
    Py_ssize_t cycle, gseq;
    Py_ssize_t arena, wb_used;
    Py_ssize_t threads, policy, stats;
    Py_ssize_t policy_fetch_order, policy_fetch_pending,
        policy_can_dispatch, policy_on_fetch, policy_on_fetch_load,
        policy_on_load_complete, policy_on_resource_stall;
    Py_ssize_t hierarchy, hier_load, hier_ifetch, hier_store;
    Py_ssize_t gshare, btb;
    Py_ssize_t n_threads, full_mask, fe_mask, heads_mask;
    Py_ssize_t rotations, rot_cache, fetch_candidates;
    Py_ssize_t fetch_wake, dispatch_wake, stall_latch_until,
        stall_latch_epoch, release_epoch;
    Py_ssize_t committed_watermark, commit_pending, measure_start;
    Py_ssize_t fetch_width, fetch_max_threads, fast_forward,
        fetch_order_is_base, fe_capacity, frontend_depth, decode_width,
        commit_width, line_shift;
    Py_ssize_t rob_size, lsq_size, int_iq_size, fp_iq_size,
        int_rename_regs, fp_rename_regs, wb_entries;
    Py_ssize_t rob_used, lsq_used, iq_used, fq_used, int_regs_used,
        fp_regs_used;
    Py_ssize_t num_int_alu, num_ldst, num_fp;
    Py_ssize_t track_ll_dep;
    Py_ssize_t cext_olc_cleanup_only, cext_ll_detect_is_base;
    /* ThreadState */
    Py_ssize_t ts_tid, ts_tid_bit, ts_icount, ts_rob_count, ts_lsq_count,
        ts_iq_count, ts_fq_count, ts_int_regs, ts_fp_regs;
    Py_ssize_t ts_fetch_blocked_until, ts_waiting_branch,
        ts_branch_wait_since, ts_allowed_end, ts_ll_owners,
        ts_policy_data;
    Py_ssize_t ts_last_ifetch_line, ts_outstanding_misses;
    Py_ssize_t ts_stats, ts_commit_cycles;
    Py_ssize_t ts_fe_queue, ts_window, ts_rename_map;
    Py_ssize_t ts_fetch_index, ts_head_ready, ts_dispatch_blocked_head,
        ts_dispatch_blocked_epoch, ts_dispatch_wait_until;
    Py_ssize_t ts_trace_get, ts_lll_predict, ts_pc_origin,
        ts_llsr_commit, ts_llsr_commit_zeros, ts_trace_static,
        ts_trace_body_len, ts_llsr_zeros, ts_trace_flags, ts_lll_pred;
    Py_ssize_t ts_trace, ts_llsr, ts_policy_stalled_flag;
    /* ThreadStats */
    Py_ssize_t st_fetched, st_committed, st_squashed, st_flushes,
        st_loads_executed, st_ll_loads,
        st_branch_stall_cycles, st_lll_pred_loads, st_lll_pred_correct,
        st_lll_pred_miss_actual, st_lll_pred_miss_correct;
    /* CoreStats */
    Py_ssize_t cs_resource_stall_cycles;
    /* Instr */
    Py_ssize_t in_pc, in_dest, in_srcs, in_addr, in_taken, in_has_dest,
        in_dest_fp, in_is_load, in_is_store, in_is_branch, in_op_i,
        in_fp_queue, in_latency;
    /* AccessResult */
    Py_ssize_t ar_complete_cycle, ar_detect_cycle, ar_level,
        ar_long_latency, ar_trigger, ar_fill_line;
    /* LLSR */
    Py_ssize_t ll_length, ll_bits, ll_pcs, ll_head, ll_filled, ll_total,
        ll_last_one_total, ll_on_measure, ll_measured;
    /* MemoryHierarchy */
    Py_ssize_t mh_pending, mh_l1i, mh_l1d, mh_itlb, mh_dtlb, mh_prefetcher,
        mh_demand_loads, mh_l1_latency, mh_l2_latency;
    /* Cache */
    Py_ssize_t ca_sets, ca_num_sets, ca_line_shift, ca_hits;
    /* TLB */
    Py_ssize_t tl_entries, tl_page_shift, tl_hits;
    /* StreamBufferPrefetcher */
    Py_ssize_t pf_stride_predictor;
    /* StridePredictor and its table entries */
    Py_ssize_t sp_table, sp_entries, sp_max_conf;
    Py_ssize_t se_last_addr, se_stride, se_confidence;
    /* SyntheticTrace */
    Py_ssize_t tr_dyn;
} Offsets;

typedef struct {
    int ready;
    Offsets off;
    PyObject *limit_exc;    /* SimulationLimitExceeded */
    PyObject *deadlock_exc; /* SimulationDeadlock */
    PyObject *l1_level;     /* ServiceLevel.L1 (identity compare) */
    /* exact types the in-C paths apply to (anything else calls Python) */
    PyTypeObject *core_type, *hier_type, *cache_type, *tlb_type,
        *prefetcher_type, *stride_type, *llsr_type, *trace_type,
        *instr_type, *ts_type;
    PyObject *stride_entry_cls;   /* stride_predictor._Entry */
    /* every Instr slot offset, for cloning a trace prototype */
    Py_ssize_t instr_offs[32];
    int n_instr_offs;
    PyObject *small_ints[SMALL_INT_LIMIT];
    PyObject *neg_one;
    /* interned strings for the non-slot attribute calls */
    PyObject *s_update, *s_lookup, *s_insert, *s_train, *s_on_ll_detect,
        *s_sync_policy_stall, *s_observe, *s_cancel_fill, *s_clear_owner;
} Globals;

static Globals g;

#define OFF (g.off)

/* ------------------------------------------------------------------ */
/* small helpers                                                       */
/* ------------------------------------------------------------------ */

static inline PyObject *SLOT(PyObject *o, Py_ssize_t off)
{
    return *(PyObject **)((char *)o + off);
}

/* Store a new reference into a slot, releasing the old value. */
static inline void slot_store(PyObject *o, Py_ssize_t off, PyObject *v)
{
    PyObject **p = (PyObject **)((char *)o + off);
    PyObject *old = *p;
    *p = v;
    Py_XDECREF(old);
}

static inline PyObject *box_ll(long long v)
{
    if (v >= 0 && v < SMALL_INT_LIMIT) {
        PyObject *o = g.small_ints[v];
        Py_INCREF(o);
        return o;
    }
    if (v == -1) {
        Py_INCREF(g.neg_one);
        return g.neg_one;
    }
    return PyLong_FromLongLong(v);
}

/* Unbox an int we created ourselves (never fails on real ints). */
static inline long long ll_of(PyObject *o)
{
    return PyLong_AsLongLong(o);
}

static inline long long slot_ll(PyObject *o, Py_ssize_t off)
{
    return ll_of(SLOT(o, off));
}

static inline int slot_store_ll(PyObject *o, Py_ssize_t off, long long v)
{
    PyObject *b = box_ll(v);
    if (b == NULL)
        return -1;
    slot_store(o, off, b);
    return 0;
}

static inline void slot_store_bool(PyObject *o, Py_ssize_t off, int v)
{
    PyObject *b = v ? Py_True : Py_False;
    Py_INCREF(b);
    slot_store(o, off, b);
}

static inline int slot_true(PyObject *o, Py_ssize_t off)
{
    return SLOT(o, off) == Py_True;
}

/* list cell store (new reference is stolen after releasing the old). */
static inline void lset(PyObject *l, Py_ssize_t i, PyObject *v)
{
    PyObject *old = PyList_GET_ITEM(l, i);
    PyList_SET_ITEM(l, i, v);
    Py_XDECREF(old);
}

static inline int stat_add(PyObject *obj, Py_ssize_t off, long long d)
{
    return slot_store_ll(obj, off, slot_ll(obj, off) + d);
}

/* Generic sequence item (tuple or list) without a new reference. */
static inline PyObject *seq_item(PyObject *seq, Py_ssize_t i)
{
    if (PyTuple_CheckExact(seq))
        return PyTuple_GET_ITEM(seq, i);
    return PyList_GET_ITEM(seq, i);
}

static inline Py_ssize_t seq_size(PyObject *seq)
{
    if (PyTuple_CheckExact(seq))
        return PyTuple_GET_SIZE(seq);
    return PyList_GET_SIZE(seq);
}


static PyObject *call_method(PyObject *obj, PyObject *name,
                             PyObject *const *args, Py_ssize_t n)
{
    PyObject *stack[6];
    stack[0] = obj;
    for (Py_ssize_t i = 0; i < n; i++)
        stack[i + 1] = args[i];
    return PyObject_VectorcallMethod(name, stack, (size_t)(n + 1), NULL);
}

/* ------------------------------------------------------------------ */
/* checked ints (the in-C paths take the Python path when these fail)  */
/* ------------------------------------------------------------------ */

/* Values at most this large leave room to add two of them without
 * leaving a long long. */
#define SAFE_MAX (1LL << 62)

/* *out = `v` when it is an int that fits a long long; else 0 (with no
 * error set). */
static inline int obj_fits(PyObject *v, long long *out)
{
    if (v == NULL || !PyLong_Check(v))
        return 0;
    int overflow = 0;
    long long x = PyLong_AsLongLongAndOverflow(v, &overflow);
    if (overflow || (x == -1 && PyErr_Occurred())) {
        PyErr_Clear();
        return 0;
    }
    *out = x;
    return 1;
}

/* obj_fits on slot `off` of `o` (0 when the slot is unset). */
static inline int slot_fits(PyObject *o, Py_ssize_t off, long long *out)
{
    return obj_fits(SLOT(o, off), out);
}

/* Python's floor modulo for b > 0. */
static inline long long py_mod(long long a, long long b)
{
    long long r = a % b;
    return r < 0 ? r + b : r;
}

/* ------------------------------------------------------------------ */
/* LLSR.commit_zeros over the register's slots                         */
/* ------------------------------------------------------------------ */

/* repro.predictors.llsr.LLSR.commit_zeros, transliterated: k zero-bit
 * commits, firing on_measure for every 1 that exits the head, in order.
 * Returns 1 when done, 0 when the register's state is not what the
 * Python class builds (nothing touched: the caller runs the Python
 * method), -1 on error. */
static int llsr_zeros_c(PyObject *llsr, long long k)
{
    long long length, filled, total, last_one, head;
    if (!slot_fits(llsr, OFF.ll_length, &length)
        || !slot_fits(llsr, OFF.ll_filled, &filled)
        || !slot_fits(llsr, OFF.ll_total, &total)
        || !slot_fits(llsr, OFF.ll_last_one_total, &last_one)
        || !slot_fits(llsr, OFF.ll_head, &head))
        return 0;
    PyObject *bits = SLOT(llsr, OFF.ll_bits);
    PyObject *pcs = SLOT(llsr, OFF.ll_pcs);
    PyObject *measured = SLOT(llsr, OFF.ll_measured);
    PyObject *on_measure = SLOT(llsr, OFF.ll_on_measure);
    if (length < 2 || length >= SAFE_MAX || k < 0 || k >= SAFE_MAX
        || filled < 0 || filled > length || total < 0 || total >= SAFE_MAX
        || last_one < 0 || last_one >= SAFE_MAX
        || head < 0 || head >= length
        || bits == NULL || !PyList_CheckExact(bits)
        || PyList_GET_SIZE(bits) != length
        || pcs == NULL || !PyList_CheckExact(pcs)
        || PyList_GET_SIZE(pcs) != length
        || measured == NULL || !PyList_CheckExact(measured)
        || on_measure == NULL)
        return 0;
    if (filled < length) {
        long long take = length - filled;
        if (take > k)
            take = k;
        if (slot_store_ll(llsr, OFF.ll_filled, filled + take) < 0
            || slot_store_ll(llsr, OFF.ll_total, total + take) < 0)
            return -1;
        total += take;
        k -= take;
        if (!k)
            return 1;
    }
    if (last_one + length <= total) {
        /* no 1 left in the live window: a head/total bump */
        if (slot_store_ll(llsr, OFF.ll_total, total + k) < 0
            || slot_store_ll(llsr, OFF.ll_head, (head + k) % length) < 0)
            return -1;
        return 1;
    }
    long long live = last_one + length - total;
    long long tail = k > live ? k - live : 0;
    k -= tail;
    /* the hook may rebind the register's attributes: hold what the
     * Python body holds as locals */
    Py_INCREF(bits);
    Py_INCREF(pcs);
    Py_INCREF(measured);
    Py_INCREF(on_measure);
    int rc = -1;
    for (long long i = 0; i < k; i++) {
        total += 1;
        if (head >= PyList_GET_SIZE(bits) || head >= PyList_GET_SIZE(pcs)) {
            PyErr_SetString(PyExc_IndexError, "LLSR ring resized");
            goto done;
        }
        int set = PyObject_IsTrue(PyList_GET_ITEM(bits, head));
        if (set < 0)
            goto done;
        if (set) {
            PyObject *head_pc = PyList_GET_ITEM(pcs, head);
            Py_INCREF(head_pc);
            Py_INCREF(g.small_ints[0]);
            lset(bits, head, g.small_ints[0]);
            Py_INCREF(g.neg_one);
            lset(pcs, head, g.neg_one);
            long long distance = last_one - total + length;
            if (distance < 0)
                distance = 0;
            PyObject *d = box_ll(distance);
            if (d == NULL) {
                Py_DECREF(head_pc);
                goto done;
            }
            PyObject *pair = PyTuple_Pack(2, head_pc, d);
            int bad = pair == NULL || PyList_Append(measured, pair) < 0;
            Py_XDECREF(pair);
            if (!bad && on_measure != Py_None) {
                PyObject *margs[2] = {head_pc, d};
                PyObject *r = PyObject_Vectorcall(on_measure, margs, 2,
                                                  NULL);
                if (r == NULL)
                    bad = 1;
                Py_XDECREF(r);
            }
            Py_DECREF(d);
            Py_DECREF(head_pc);
            if (bad)
                goto done;
        }
        head += 1;
        if (head == length)
            head = 0;
    }
    if (tail) {
        head = (head + tail) % length;
        total += tail;
    }
    if (slot_store_ll(llsr, OFF.ll_head, head) < 0
        || slot_store_ll(llsr, OFF.ll_total, total) < 0)
        goto done;
    rc = 1;
done:
    Py_DECREF(bits);
    Py_DECREF(pcs);
    Py_DECREF(measured);
    Py_DECREF(on_measure);
    return rc;
}

/* Shift ts's k staged zero commits into its LLSR, clearing the stage:
 * in C on an exact LLSR, else ts.llsr_commit_zeros(k). */
static int llsr_commit_zeros(PyObject *ts, long long k)
{
    if (k == 0)
        return 0;
    if (slot_store_ll(ts, OFF.ts_llsr_zeros, 0) < 0)
        return -1;
    PyObject *llsr = SLOT(ts, OFF.ts_llsr);
    if (llsr != NULL && Py_TYPE(llsr) == g.llsr_type) {
        int rc = llsr_zeros_c(llsr, k);
        if (rc != 0)
            return rc < 0 ? -1 : 0;
    }
    PyObject *kb = box_ll(k);
    if (kb == NULL)
        return -1;
    PyObject *r = PyObject_CallOneArg(SLOT(ts, OFF.ts_llsr_commit_zeros),
                                      kb);
    Py_DECREF(kb);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* ------------------------------------------------------------------ */
/* the L1/TLB-hit path of MemoryHierarchy                              */
/* ------------------------------------------------------------------ */

/* The hierarchy's parts, resolved once per run.  `ok` is set only for an
 * exact MemoryHierarchy built from exact Cache/TLB/prefetcher parts;
 * anything else (an injected subclass, a stub) keeps the Python path.
 * References are owned, so a hook rebinding a part cannot free them. */
typedef struct {
    int ok;
    PyObject *hier, *pending, *l1i, *l1d, *itlb, *dtlb;
    PyObject *l1i_sets, *l1d_sets, *itlb_entries, *dtlb_entries;
    PyObject *stride;         /* StridePredictor, NULL without prefetcher */
    PyObject *stride_table;
    long long l1i_nsets, l1i_shift, l1d_nsets, l1d_shift;
    long long itlb_shift, dtlb_shift, l1_latency, l2_latency;
    long long stride_entries, stride_max_conf;
} MemFast;

static void mem_fast_clear(MemFast *m)
{
    Py_CLEAR(m->hier);
    Py_CLEAR(m->pending);
    Py_CLEAR(m->l1i);
    Py_CLEAR(m->l1d);
    Py_CLEAR(m->itlb);
    Py_CLEAR(m->dtlb);
    Py_CLEAR(m->l1i_sets);
    Py_CLEAR(m->l1d_sets);
    Py_CLEAR(m->itlb_entries);
    Py_CLEAR(m->dtlb_entries);
    Py_CLEAR(m->stride);
    Py_CLEAR(m->stride_table);
    m->ok = 0;
}

/* An owned reference to slot `off` of `o` if it is set and exactly of
 * `type`, else NULL. */
static PyObject *part_of(PyObject *o, Py_ssize_t off, PyTypeObject *type)
{
    PyObject *v = SLOT(o, off);
    if (v == NULL || Py_TYPE(v) != type)
        return NULL;
    Py_INCREF(v);
    return v;
}

static void mem_fast_init(MemFast *m, PyObject *hier)
{
    memset(m, 0, sizeof(*m));
    if (hier == NULL || Py_TYPE(hier) != g.hier_type)
        return;
    Py_INCREF(hier);
    m->hier = hier;
    m->pending = part_of(hier, OFF.mh_pending, &PyDict_Type);
    m->l1i = part_of(hier, OFF.mh_l1i, g.cache_type);
    m->l1d = part_of(hier, OFF.mh_l1d, g.cache_type);
    m->itlb = part_of(hier, OFF.mh_itlb, g.tlb_type);
    m->dtlb = part_of(hier, OFF.mh_dtlb, g.tlb_type);
    if (m->pending == NULL || m->l1i == NULL || m->l1d == NULL
        || m->itlb == NULL || m->dtlb == NULL)
        goto off;
    m->l1i_sets = part_of(m->l1i, OFF.ca_sets, &PyList_Type);
    m->l1d_sets = part_of(m->l1d, OFF.ca_sets, &PyList_Type);
    m->itlb_entries = part_of(m->itlb, OFF.tl_entries, &PyDict_Type);
    m->dtlb_entries = part_of(m->dtlb, OFF.tl_entries, &PyDict_Type);
    if (m->l1i_sets == NULL || m->l1d_sets == NULL
        || m->itlb_entries == NULL || m->dtlb_entries == NULL)
        goto off;
    if (!slot_fits(m->l1i, OFF.ca_num_sets, &m->l1i_nsets)
        || !slot_fits(m->l1i, OFF.ca_line_shift, &m->l1i_shift)
        || !slot_fits(m->l1d, OFF.ca_num_sets, &m->l1d_nsets)
        || !slot_fits(m->l1d, OFF.ca_line_shift, &m->l1d_shift)
        || !slot_fits(m->itlb, OFF.tl_page_shift, &m->itlb_shift)
        || !slot_fits(m->dtlb, OFF.tl_page_shift, &m->dtlb_shift)
        || !slot_fits(hier, OFF.mh_l1_latency, &m->l1_latency)
        || !slot_fits(hier, OFF.mh_l2_latency, &m->l2_latency))
        goto off;
    if (m->l1i_nsets <= 0 || m->l1d_nsets <= 0
        || m->l1i_nsets != PyList_GET_SIZE(m->l1i_sets)
        || m->l1d_nsets != PyList_GET_SIZE(m->l1d_sets)
        || m->l1i_shift < 0 || m->l1i_shift > 62
        || m->l1d_shift < 0 || m->l1d_shift > 62
        || m->itlb_shift < 0 || m->itlb_shift > 62
        || m->dtlb_shift < 0 || m->dtlb_shift > 62
        || m->l1_latency < 0 || m->l1_latency >= SAFE_MAX
        || m->l2_latency < 0 || m->l2_latency >= SAFE_MAX)
        goto off;
    PyObject *pf = SLOT(hier, OFF.mh_prefetcher);
    if (pf == NULL)
        goto off;
    if (pf != Py_None) {
        if (Py_TYPE(pf) != g.prefetcher_type)
            goto off;
        m->stride = part_of(pf, OFF.pf_stride_predictor, g.stride_type);
        if (m->stride == NULL)
            goto off;
        m->stride_table = part_of(m->stride, OFF.sp_table, &PyDict_Type);
        if (m->stride_table == NULL
            || !slot_fits(m->stride, OFF.sp_entries, &m->stride_entries)
            || !slot_fits(m->stride, OFF.sp_max_conf,
                          &m->stride_max_conf)
            || m->stride_entries <= 0)
            goto off;
    }
    m->ok = 1;
    return;
off:
    mem_fast_clear(m);
}

/* StridePredictor.observe(pc, addr), transliterated; the Python method
 * (at the same point of the access) when a value does not fit. */
static int stride_observe(MemFast *m, PyObject *pc_obj, PyObject *addr_obj,
                          long long addr)
{
    long long pc;
    if (!obj_fits(pc_obj, &pc))
        goto python;
    PyObject *key = box_ll(py_mod(pc, m->stride_entries));
    if (key == NULL)
        return -1;
    PyObject *e = PyDict_GetItemWithError(m->stride_table, key);
    if (e == NULL) {
        if (PyErr_Occurred()) {
            Py_DECREF(key);
            return -1;
        }
        e = PyObject_CallNoArgs(g.stride_entry_cls);
        if (e == NULL || PyDict_SetItem(m->stride_table, key, e) < 0) {
            Py_XDECREF(e);
            Py_DECREF(key);
            return -1;
        }
    } else {
        Py_INCREF(e);
    }
    Py_DECREF(key);
    long long last, stride, conf;
    if ((PyObject *)Py_TYPE(e) != g.stride_entry_cls
        || !slot_fits(e, OFF.se_last_addr, &last)
        || !slot_fits(e, OFF.se_stride, &stride)
        || !slot_fits(e, OFF.se_confidence, &conf)
        || last >= SAFE_MAX || last < -SAFE_MAX) {
        Py_DECREF(e);
        goto python;
    }
    int rc = 0;
    if (last >= 0) {
        long long delta = addr - last;
        if (delta == stride) {
            if (conf < m->stride_max_conf)
                rc = slot_store_ll(e, OFF.se_confidence, conf + 1);
        } else if (conf > 0) {
            rc = slot_store_ll(e, OFF.se_confidence, conf - 1);
        } else {
            rc = slot_store_ll(e, OFF.se_stride, delta);
        }
    }
    if (rc == 0) {
        Py_INCREF(addr_obj);
        slot_store(e, OFF.se_last_addr, addr_obj);
    }
    Py_DECREF(e);
    return rc;
python:;
    PyObject *args[2] = {pc_obj, addr_obj};
    PyObject *r = call_method(m->stride, g.s_observe, args, 2);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Move `key` to the most-recent end of an LRU dict (del + reinsert). */
static int lru_refresh(PyObject *d, PyObject *key)
{
    if (PyDict_DelItem(d, key) < 0)
        return -1;
    return PyDict_SetItem(d, key, g.small_ints[0]);
}

/* The hit path of MemoryHierarchy.load (demand) / store (!demand) at
 * `cycle`: the page is in the D-TLB, the line has no live fill, and the
 * line is in its L1D set.  All three are checked before any side
 * effect; only then are Python's effects applied, in Python's order.
 * Returns 1 with *done and *detect set (the completion and the L2-miss
 * detection cycle; the level is L1 and nothing is long-latency), 0 when
 * the access is not such a hit (nothing touched: call the Python
 * method), -1 on error. */
static int mem_fast_data(MemFast *m, PyObject *pc_obj, PyObject *addr_obj,
                         long long cycle, int demand, long long *done,
                         long long *detect)
{
    long long addr;
    if (!m->ok || !obj_fits(addr_obj, &addr) || addr < 0
        || cycle < 0 || cycle >= SAFE_MAX)
        return 0;
    PyObject *page = box_ll(addr >> m->dtlb_shift);
    if (page == NULL)
        return -1;
    PyObject *line = NULL;
    int rc = PyDict_Contains(m->dtlb_entries, page);
    if (rc <= 0)
        goto out;
    line = box_ll(addr >> m->l1d_shift);
    if (line == NULL) {
        rc = -1;
        goto out;
    }
    PyObject *pend = PyDict_GetItemWithError(m->pending, line);
    if (pend == NULL && PyErr_Occurred()) {
        rc = -1;
        goto out;
    }
    if (pend != NULL) {
        long long ready;
        if (!PyTuple_CheckExact(pend) || PyTuple_GET_SIZE(pend) < 1
            || !obj_fits(PyTuple_GET_ITEM(pend, 0), &ready)
            || ready > cycle) {
            rc = 0;            /* a live fill (or an unexpected entry) */
            goto out;
        }
    }
    Py_ssize_t si = (Py_ssize_t)((addr >> m->l1d_shift) % m->l1d_nsets);
    if (si >= PyList_GET_SIZE(m->l1d_sets)) {
        rc = 0;
        goto out;
    }
    PyObject *set = PyList_GET_ITEM(m->l1d_sets, si);
    if (!PyDict_CheckExact(set)) {
        rc = 0;
        goto out;
    }
    rc = PyDict_Contains(set, line);
    if (rc <= 0)
        goto out;
    Py_INCREF(set);
    /* a hit: the side effects of load/store -> _data_access, in order */
    rc = -1;
    if ((demand && stat_add(m->hier, OFF.mh_demand_loads, 1) < 0)
        || lru_refresh(m->dtlb_entries, page) < 0
        || stat_add(m->dtlb, OFF.tl_hits, 1) < 0
        || (demand && m->stride != NULL
            && stride_observe(m, pc_obj, addr_obj, addr) < 0)
        || (pend != NULL && PyDict_DelItem(m->pending, line) < 0)
        || lru_refresh(set, line) < 0
        || stat_add(m->l1d, OFF.ca_hits, 1) < 0) {
        Py_DECREF(set);
        goto out;
    }
    Py_DECREF(set);
    *done = cycle + m->l1_latency;
    *detect = cycle + m->l2_latency + 3;
    rc = 1;
out:
    Py_DECREF(page);
    Py_XDECREF(line);
    return rc;
}

/* The hit path of MemoryHierarchy.ifetch: the page is in the I-TLB and
 * the line either has a live fill (whose ready cycle is the answer, as
 * in Python) or is in its L1I set.  Same contract as mem_fast_data. */
static int mem_fast_ifetch(MemFast *m, long long addr, long long cycle,
                           long long *done)
{
    if (!m->ok || addr < 0 || cycle < 0 || cycle >= SAFE_MAX)
        return 0;
    PyObject *page = box_ll(addr >> m->itlb_shift);
    if (page == NULL)
        return -1;
    PyObject *line = NULL;
    PyObject *set = NULL;
    int rc = PyDict_Contains(m->itlb_entries, page);
    if (rc <= 0)
        goto out;
    line = box_ll(addr >> m->l1i_shift);
    if (line == NULL) {
        rc = -1;
        goto out;
    }
    PyObject *pend = PyDict_GetItemWithError(m->pending, line);
    if (pend == NULL && PyErr_Occurred()) {
        rc = -1;
        goto out;
    }
    long long ready = 0;
    int live = 0;
    if (pend != NULL) {
        if (!PyTuple_CheckExact(pend) || PyTuple_GET_SIZE(pend) < 1
            || !obj_fits(PyTuple_GET_ITEM(pend, 0), &ready)) {
            rc = 0;
            goto out;
        }
        live = ready > cycle;
    }
    if (!live) {
        Py_ssize_t si = (Py_ssize_t)((addr >> m->l1i_shift)
                                     % m->l1i_nsets);
        if (si >= PyList_GET_SIZE(m->l1i_sets)) {
            rc = 0;
            goto out;
        }
        set = PyList_GET_ITEM(m->l1i_sets, si);
        if (!PyDict_CheckExact(set)) {
            set = NULL;
            rc = 0;
            goto out;
        }
        Py_INCREF(set);
        rc = PyDict_Contains(set, line);
        if (rc <= 0)
            goto out;
    }
    rc = -1;
    if (lru_refresh(m->itlb_entries, page) < 0
        || stat_add(m->itlb, OFF.tl_hits, 1) < 0)
        goto out;
    if (live) {
        *done = ready;
    } else {
        if (lru_refresh(set, line) < 0
            || stat_add(m->l1i, OFF.ca_hits, 1) < 0)
            goto out;
        *done = cycle;
    }
    rc = 1;
out:
    Py_DECREF(page);
    Py_XDECREF(line);
    Py_XDECREF(set);
    return rc;
}

/* ------------------------------------------------------------------ */
/* the iteration-varying slots of SyntheticTrace                       */
/* ------------------------------------------------------------------ */

/* SlotKind values: must mirror repro/workloads/spec.py (verified in
 * setup). */
#define SK_STREAM_LOAD 1
#define SK_CHASE_LOAD 2
#define SK_BURST_LOAD 3
#define SK_RANDOM_LOAD 4
#define SK_HOT_LOAD 5
#define SK_STORE 6
#define SK_STREAM_STORE 7
#define SK_COND_BRANCH 10

#define CHASE_WALK_MULT 2654435761LL

/* repro.util.hashing.mix64 over three keys, in uint64_t. */
static inline uint64_t mix64_3(uint64_t a, uint64_t b, uint64_t c)
{
    uint64_t keys[3] = {a, b, c};
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < 3; i++) {
        h += keys[i];
        h ^= h >> 30;
        h *= 0xBF58476D1CE4E5B9ULL;
        h ^= h >> 27;
        h *= 0x94D049BB133111EBULL;
        h ^= h >> 31;
    }
    return h;
}

/* Read `n` long long parameters of a slot tuple starting at `first`. */
static int dyn_params(PyObject *t, Py_ssize_t first, int n, long long *out)
{
    if (PyTuple_GET_SIZE(t) < first + n)
        return 0;
    for (int i = 0; i < n; i++)
        if (!obj_fits(PyTuple_GET_ITEM(t, first + i), &out[i]))
            return 0;
    return 1;
}

/* A clone of prototype `proto` with `addr` and `taken` replaced (the
 * trace module's _from_proto).  Returns a new reference or NULL. */
static PyObject *clone_instr(PyObject *proto, PyObject *addr,
                             PyObject *taken)
{
    PyTypeObject *tp = g.instr_type;
    PyObject *ins = tp->tp_alloc(tp, 0);
    if (ins == NULL)
        return NULL;
    for (int i = 0; i < g.n_instr_offs; i++) {
        Py_ssize_t off = g.instr_offs[i];
        PyObject *v = off == OFF.in_addr ? addr
            : off == OFF.in_taken ? taken : SLOT(proto, off);
        Py_XINCREF(v);
        *(PyObject **)((char *)ins + off) = v;
    }
    return ins;
}

/* mix64(spec[3], spec[4], iteration): the (seed, local_pc) hash that
 * random, burst and branch slots share; 0 when a key is not an int. */
static int slot_hash(PyObject *spec, long long iteration, uint64_t *out)
{
    PyObject *seed = PyTuple_GET_ITEM(spec, 3);
    PyObject *pc = PyTuple_GET_ITEM(spec, 4);
    if (!PyLong_Check(seed) || !PyLong_Check(pc))
        return 0;
    *out = mix64_3(PyLong_AsUnsignedLongLongMask(seed),
                   PyLong_AsUnsignedLongLongMask(pc), (uint64_t)iteration);
    return 1;
}

/* SyntheticTrace.get(index) for an iteration-varying slot, from the
 * slot's entry in the trace's ``_dyn`` (see SyntheticTrace._dyn_params
 * for the layouts).  Every intermediate value is checked to fit 64
 * bits.  Returns 1 with *out a new reference, 0 when the slot cannot be
 * computed here (call get), or -1 on error. */
static int trace_dyn(PyObject *spec, long long iteration, PyObject **out)
{
    long long kind, p[5], addr, off;
    uint64_t h;
    if (!PyTuple_CheckExact(spec) || PyTuple_GET_SIZE(spec) < 5
        || iteration < 0 || !obj_fits(PyTuple_GET_ITEM(spec, 0), &kind)
        || Py_TYPE(PyTuple_GET_ITEM(spec, 1)) != g.instr_type)
        return 0;
    PyObject *proto = PyTuple_GET_ITEM(spec, 1);
    PyObject *taken = Py_False;
    PyObject *addr_obj = NULL;      /* owned */
    switch (kind) {
    case SK_STREAM_LOAD:
    case SK_STREAM_STORE:
        /* base + (iteration * stride) % footprint */
        if (!dyn_params(spec, 2, 3, p) || p[2] <= 0
            || __builtin_mul_overflow(iteration, p[1], &off)
            || __builtin_add_overflow(p[0], py_mod(off, p[2]), &addr))
            return 0;
        break;
    case SK_HOT_LOAD:
    case SK_STORE:
        /* base + ((local_pc * 811 + iteration) % lines) * line */
        if (!dyn_params(spec, 2, 4, p) || p[2] <= 0
            || __builtin_add_overflow(p[1], iteration, &off)
            || __builtin_mul_overflow(py_mod(off, p[2]), p[3], &off)
            || __builtin_add_overflow(p[0], off, &addr))
            return 0;
        break;
    case SK_CHASE_LOAD:
        /* base + (((iteration // every) * 2654435761 + index) % lines)
         *        * line */
        if (!dyn_params(spec, 2, 5, p) || p[1] <= 0 || p[3] <= 0
            || __builtin_mul_overflow(iteration / p[1], CHASE_WALK_MULT,
                                      &off)
            || __builtin_add_overflow(off, p[2], &off)
            || __builtin_mul_overflow(py_mod(off, p[3]), p[4], &off)
            || __builtin_add_overflow(p[0], off, &addr))
            return 0;
        break;
    case SK_BURST_LOAD:
        /* the random-line address on every `every`-th iteration, the
         * fixed hot address spec[8] on the others */
        if (PyTuple_GET_SIZE(spec) != 9
            || !obj_fits(PyTuple_GET_ITEM(spec, 7), &p[4]) || p[4] <= 0)
            return 0;
        if (iteration % p[4] != 0) {
            addr_obj = PyTuple_GET_ITEM(spec, 8);
            Py_INCREF(addr_obj);
            break;
        }
        /* fall through */
    case SK_RANDOM_LOAD:
        /* base + (mix64(seed, local_pc, iteration) % lines) * line */
        if (!obj_fits(PyTuple_GET_ITEM(spec, 2), &p[0])
            || !dyn_params(spec, 5, 2, &p[2]) || p[2] <= 0
            || !slot_hash(spec, iteration, &h)
            || __builtin_mul_overflow((long long)(h % (uint64_t)p[2]),
                                      p[3], &off)
            || __builtin_add_overflow(p[0], off, &addr))
            return 0;
        break;
    case SK_COND_BRANCH: {
        /* uniform_double(seed, local_pc, iteration) < taken_prob */
        PyObject *prob = PyTuple_GET_ITEM(spec, 2);
        if (!PyFloat_CheckExact(prob) || !slot_hash(spec, iteration, &h))
            return 0;
        taken = (double)h / 18446744073709551616.0 < PyFloat_AS_DOUBLE(prob)
            ? Py_True : Py_False;
        addr_obj = Py_None;
        Py_INCREF(addr_obj);
        break;
    }
    default:
        return 0;
    }
    if (addr_obj == NULL && (addr_obj = PyLong_FromLongLong(addr)) == NULL)
        return -1;
    *out = clone_instr(proto, addr_obj, taken);
    Py_DECREF(addr_obj);
    return *out == NULL ? -1 : 1;
}


/* ------------------------------------------------------------------ */
/* the slot arena: native memory for everything that holds slots      */
/* ------------------------------------------------------------------ */

/* A growable int64 vector: the free list, the heaps (entries of `w`
 * int64s, compared lexicographically), the wheels' entry pools and the
 * per-slot waiter and long-latency-parent lists. */
typedef struct {
    int64_t *v;
    int32_t n, cap;
} IVec;

static int ivec_reserve(IVec *x, Py_ssize_t need)
{
    if (need <= x->cap)
        return 0;
    Py_ssize_t cap = x->cap ? x->cap : 4;
    while (cap < need)
        cap *= 2;
    int64_t *v = cap > INT32_MAX ? NULL
        : PyMem_Realloc(x->v, (size_t)cap * sizeof(int64_t));
    if (v == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    x->v = v;
    x->cap = (int32_t)cap;
    return 0;
}

static inline int ivec_push(IVec *x, int64_t e)
{
    if (x->n == x->cap && ivec_reserve(x, x->n + 1) < 0)
        return -1;
    x->v[x->n++] = e;
    return 0;
}

/* Heap entries are unique packed stamps, cycle marks or (cycle, packed)
 * pairs: the order is strict and total, so this heap pops exactly what
 * heapq would. */
static inline int ent_lt(const int64_t *a, const int64_t *b, int w)
{
    return a[0] != b[0] ? a[0] < b[0] : (w == 2 && a[1] < b[1]);
}

static int heap_push(IVec *h, int64_t k, int64_t p, int w)
{
    if (ivec_reserve(h, h->n + w) < 0)
        return -1;
    int64_t e[2] = {k, p};
    Py_ssize_t pos = h->n / w;
    h->n += w;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!ent_lt(e, h->v + parent * w, w))
            break;
        memcpy(h->v + pos * w, h->v + parent * w, w * sizeof(int64_t));
        pos = parent;
    }
    memcpy(h->v + pos * w, e, w * sizeof(int64_t));
    return 0;
}

/* Pop the minimum of a non-empty heap into out[0..w). */
static void heap_pop(IVec *h, int64_t *out, int w)
{
    int64_t last[2];
    memcpy(out, h->v, w * sizeof(int64_t));
    h->n -= w;
    Py_ssize_t n = h->n / w, pos = 0;
    memcpy(last, h->v + n * w, w * sizeof(int64_t));
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && ent_lt(h->v + (child + 1) * w, h->v + child * w,
                                    w))
            child++;
        if (!ent_lt(h->v + child * w, last, w))
            break;
        memcpy(h->v + pos * w, h->v + child * w, w * sizeof(int64_t));
        pos = child;
    }
    if (n)
        memcpy(h->v + pos * w, last, w * sizeof(int64_t));
}

/* A thread's front-end queue or window (a ring of slots) or its rename
 * map (64 slots, -1 = no in-flight producer).  Python sees a read-only
 * sequence of ints: `len(ts.fe_queue)` is what the base fetch_order
 * reads. */
typedef struct {
    PyObject_HEAD
    int64_t *v;
    Py_ssize_t head, n, cap;    /* cap is a power of two */
} SlotSeq;

static PyTypeObject SlotSeq_Type;

#define SQ_AT(q, i) ((q)->v[((q)->head + (i)) & ((q)->cap - 1)])

static inline int64_t sq_pop_front(SlotSeq *q)
{
    int64_t s = q->v[q->head];
    q->head = (q->head + 1) & (q->cap - 1);
    q->n--;
    return s;
}

static int sq_push(SlotSeq *q, int64_t s)
{
    if (q->n == q->cap) {
        int64_t *v = PyMem_Malloc(2 * (size_t)q->cap * sizeof(int64_t));
        if (v == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < q->n; i++)
            v[i] = SQ_AT(q, i);
        PyMem_Free(q->v);
        q->v = v;
        q->head = 0;
        q->cap *= 2;
    }
    SQ_AT(q, q->n) = s;
    q->n++;
    return 0;
}

static SlotSeq *sq_new(Py_ssize_t cap, Py_ssize_t n)
{
    SlotSeq *q = PyObject_New(SlotSeq, &SlotSeq_Type);
    if (q == NULL)
        return NULL;
    q->v = PyMem_Malloc((size_t)cap * sizeof(int64_t));
    q->head = 0;
    q->n = n;
    q->cap = cap;
    if (q->v == NULL) {
        Py_DECREF(q);
        return (SlotSeq *)PyErr_NoMemory();
    }
    for (Py_ssize_t i = 0; i < n; i++)
        q->v[i] = -1;
    return q;
}

static void sq_dealloc(PyObject *self)
{
    PyMem_Free(((SlotSeq *)self)->v);
    PyObject_Free(self);
}

static Py_ssize_t sq_length(PyObject *self)
{
    return ((SlotSeq *)self)->n;
}

static PyObject *sq_item(PyObject *self, Py_ssize_t i)
{
    SlotSeq *q = (SlotSeq *)self;
    if (i < 0 || i >= q->n) {
        PyErr_SetString(PyExc_IndexError, "slot sequence index out of range");
        return NULL;
    }
    return PyLong_FromLongLong(SQ_AT(q, i));
}

static PySequenceMethods sq_as_sequence = {
    .sq_length = sq_length,
    .sq_item = sq_item,
};

static PyTypeObject SlotSeq_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.pipeline._cext_engine.SlotSeq",
    .tp_doc = "A thread's slot queue or rename map in the arena.",
    .tp_basicsize = sizeof(SlotSeq),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_dealloc = sq_dealloc,
    .tp_as_sequence = &sq_as_sequence,
};

/* The per-instruction columns.  Integer columns are int64 arrays; the
 * object columns hold owned references, NULL meaning None. */
enum { C_THREAD, C_SEQ, C_GSEQ, C_PENDING, C_FE_READY, C_FLAGS, C_REFS,
       C_WAITER0, C_OLD_MAP, N_ICOLS };
enum { O_INSTR, O_PRED_LL, O_FILL_LINE, O_LEVEL, O_VIEW, N_OCOLS };

static const char *const ICOL_NAMES[N_ICOLS] = {
    "thread", "seq", "gseq", "pending", "fe_ready", "flags", "refs",
    "waiter0", "old_map"};
/* A never-used slot's value; gseq -1 matches no packed stamp (its gseq
 * is >= 1). */
static const int64_t ICOL_INIT[N_ICOLS] = {0, 0, -1, 0, 0, F_FREED, 0, -1,
                                           -1};
static const char *const OCOL_NAMES[N_OCOLS] = {
    "instr", "predicted_ll", "fill_line", "level", "views"};

/* An event wheel: per-cycle buckets of packed stamps, each a chain
 * through one shared pool of (packed, next) entries (a free chain
 * recycles them), the int heap of armed bucket cycles and the (cycle,
 * packed) heap past the horizon. */
typedef struct {
    int32_t *head;      /* per bucket: first pool entry, -1 = empty */
    IVec pool;
    int64_t free_ent;   /* first free pool entry, -1 = none */
    IVec marks, over;
} Wheel;

typedef struct {
    PyObject_HEAD
    Py_ssize_t cap;
    union {
        int64_t *ic[N_ICOLS];
        struct {
            int64_t *thread, *seq, *gseq, *pending, *fe_ready, *flags,
                *refs, *waiter0, *old_map;
        };
    };
    union {
        PyObject **oc[N_OCOLS];
        struct {
            PyObject **instr, **pred_ll, **fill_line, **level, **views;
        };
    };
    IVec *waiters, *parents;    /* per slot; empty = None */
    IVec free;                  /* stack: the next allocation is on top */
    IVec ready[3];              /* by FuClass: int, ld/st, fp */
    unsigned char op_class[256];
    Py_ssize_t n_ops;
    Py_ssize_t wheel;           /* wheel size, a power of two */
    Wheel ev, dt;
    IVec due;                   /* the bucket being drained, age-sorted */
    int64_t *wb_cnt;            /* write-buffer drains per cycle bucket */
    IVec wb_marks, wb_over;
    Py_ssize_t n_threads;
    PyObject **queues;          /* per thread: fe_queue, window, rename_map */
} Arena;

typedef struct {
    PyObject_HEAD
    Arena *arena;
    Py_ssize_t slot;
    int64_t gseq;
} View;

static PyTypeObject Arena_Type, View_Type;

/* Whether packed stamp p (>= 0) still denotes its slot's occupant: the
 * generation check that defuses stale heap, wheel and waiter entries. */
static inline int current(Arena *A, int64_t p)
{
    Py_ssize_t s = (Py_ssize_t)(p & SLOT_MASK);
    return s < A->cap && A->gseq[s] == p >> SLOT_SHIFT;
}

/* Store a new reference (or NULL for None) into an object column. */
static inline void ocol_set(PyObject **col, Py_ssize_t s, PyObject *v)
{
    PyObject *old = col[s];
    if (v == Py_None)
        v = NULL;
    Py_XINCREF(v);
    col[s] = v;
    Py_XDECREF(old);
}

/* Grow every column from `from` to `to` slots, new slots free. */
static int arena_resize(Arena *A, Py_ssize_t from, Py_ssize_t to)
{
    for (int k = 0; k < N_ICOLS; k++) {
        int64_t *v = PyMem_Realloc(A->ic[k], (size_t)to * sizeof(int64_t));
        if (v == NULL)
            goto nomem;
        A->ic[k] = v;
        for (Py_ssize_t s = from; s < to; s++)
            v[s] = ICOL_INIT[k];
    }
    for (int k = 0; k < N_OCOLS; k++) {
        PyObject **v = PyMem_Realloc(A->oc[k], (size_t)to * sizeof(*v));
        if (v == NULL)
            goto nomem;
        A->oc[k] = v;
        memset(v + from, 0, (size_t)(to - from) * sizeof(*v));
    }
    IVec **lists[2] = {&A->waiters, &A->parents};
    for (int k = 0; k < 2; k++) {
        IVec *v = PyMem_Realloc(*lists[k], (size_t)to * sizeof(IVec));
        if (v == NULL)
            goto nomem;
        *lists[k] = v;
        memset(v + from, 0, (size_t)(to - from) * sizeof(IVec));
    }
    if (ivec_reserve(&A->free, A->free.n + (to - from)) < 0)
        return -1;
    for (Py_ssize_t s = to - 1; s >= from; s--)
        A->free.v[A->free.n++] = s;
    A->cap = to;
    return 0;
nomem:
    PyErr_NoMemory();
    return -1;
}

/* Double the arena (cold): the allocation path calls it on an empty
 * free list. */
static int arena_grow(Arena *A)
{
    if (A->cap * 2 > (1 << SLOT_SHIFT)) {
        PyErr_Format(PyExc_RuntimeError,
                     "SoA arena cannot grow past %d slots", 1 << SLOT_SHIFT);
        return -1;
    }
    return arena_resize(A, A->cap, A->cap * 2);
}

/* Return slot s to the free list, pristine (see soa.py): the allocation
 * path writes only the columns that vary per fetch. */
static int arena_free(Arena *A, Py_ssize_t s, int64_t fl)
{
    A->pending[s] = 0;
    A->waiter0[s] = -1;
    A->waiters[s].n = 0;
    A->old_map[s] = -1;
    ocol_set(A->fill_line, s, NULL);
    ocol_set(A->views, s, NULL);
    A->flags[s] = fl | F_FREED;
    return ivec_push(&A->free, s);
}

/* The (cached, generation-stamped) view of slot s; a new reference. */
static PyObject *ensure_view(Arena *A, Py_ssize_t s)
{
    PyObject *v = A->views[s];
    if (v == NULL) {
        View *nv = PyObject_GC_New(View, &View_Type);
        if (nv == NULL)
            return NULL;
        Py_INCREF(A);
        nv->arena = A;
        nv->slot = s;
        nv->gseq = A->gseq[s];
        PyObject_GC_Track(nv);
        A->views[s] = v = (PyObject *)nv;
    }
    Py_INCREF(v);
    return v;
}

/* 1 when slot s's view is one of ts's fetch-gating owners (a policy
 * still holds it), 0 when not, -1 on error. */
static int owned(Arena *A, Py_ssize_t s, PyObject *ts)
{
    PyObject *v = A->views[s];
    return v == NULL ? 0 : PyDict_Contains(SLOT(ts, OFF.ts_ll_owners), v);
}

/* Thread ts's queue at slot `off`: one of the arena's SlotSeqs, or NULL
 * with an error when Python rebound it. */
static SlotSeq *seq_of(PyObject *ts, Py_ssize_t off)
{
    PyObject *q = SLOT(ts, off);
    if (q == NULL || !Py_IS_TYPE(q, &SlotSeq_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "a cext thread's queues must stay the arena's");
        return NULL;
    }
    return (SlotSeq *)q;
}

static PyObject *Arena_new(PyTypeObject *type, PyObject *args,
                           PyObject *kwds)
{
    Py_ssize_t wheel;
    PyObject *threads, *ops;
    if (kwds != NULL && PyDict_GET_SIZE(kwds)) {
        PyErr_SetString(PyExc_TypeError, "Arena takes no keywords");
        return NULL;
    }
    if (!g.ready || !PyArg_ParseTuple(args, "O!nO:Arena", &PyTuple_Type,
                                      &threads, &wheel, &ops))
        return NULL;
    PyObject *fast = PySequence_Fast(ops, "op classes");
    if (fast == NULL)
        return NULL;
    Arena *A = NULL;
    Py_ssize_t n_ops = PySequence_Fast_GET_SIZE(fast);
    Py_ssize_t n_threads = PyTuple_GET_SIZE(threads);
    int bad = n_threads < 1 || n_threads > MAX_THREADS || wheel < 2
        || (wheel & (wheel - 1)) || n_ops > 256;
    for (Py_ssize_t i = 0; i < n_threads && !bad; i++)
        bad = !PyObject_TypeCheck(PyTuple_GET_ITEM(threads, i), g.ts_type);
    if (bad) {
        PyErr_SetString(PyExc_ValueError, "Arena(threads, wheel, ops)");
        goto done;
    }
    A = (Arena *)type->tp_alloc(type, 0);
    if (A == NULL)
        goto done;
    A->n_ops = n_ops;
    for (Py_ssize_t i = 0; i < n_ops; i++) {
        long k = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, i));
        if (k < 0 || k > 2) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "op class out of range");
            goto fail;
        }
        A->op_class[i] = (unsigned char)k;
    }
    A->wheel = wheel;
    A->ev.head = PyMem_Malloc((size_t)wheel * sizeof(int32_t));
    A->dt.head = PyMem_Malloc((size_t)wheel * sizeof(int32_t));
    A->wb_cnt = PyMem_Calloc((size_t)wheel, sizeof(int64_t));
    A->queues = PyMem_Calloc(3 * (size_t)n_threads, sizeof(PyObject *));
    if (A->ev.head == NULL || A->dt.head == NULL || A->wb_cnt == NULL
        || A->queues == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    memset(A->ev.head, 0xff, (size_t)wheel * sizeof(int32_t));
    memset(A->dt.head, 0xff, (size_t)wheel * sizeof(int32_t));
    A->ev.free_ent = A->dt.free_ent = -1;
    A->n_threads = n_threads;
    /* each thread's fe_queue, window and rename_map become the arena's */
    static const Py_ssize_t *qoffs[3] = {
        &OFF.ts_fe_queue, &OFF.ts_window, &OFF.ts_rename_map};
    for (Py_ssize_t i = 0; i < 3 * n_threads; i++) {
        PyObject *q = (PyObject *)(i % 3 == 2 ? sq_new(64, 64)
                                              : sq_new(16, 0));
        if ((A->queues[i] = q) == NULL)
            goto fail;
        Py_INCREF(q);
        slot_store(PyTuple_GET_ITEM(threads, i / 3), *qoffs[i % 3], q);
    }
    if (arena_resize(A, 0, 2048) < 0)
        goto fail;
    goto done;
fail:
    Py_CLEAR(A);
done:
    Py_DECREF(fast);
    return (PyObject *)A;
}

static int Arena_traverse(PyObject *self, visitproc visit, void *arg)
{
    Arena *A = (Arena *)self;
    for (int k = 0; k < N_OCOLS; k++)
        for (Py_ssize_t s = 0; s < A->cap; s++)
            Py_VISIT(A->oc[k][s]);
    return 0;
}

static int Arena_clear(PyObject *self)
{
    Arena *A = (Arena *)self;
    for (int k = 0; k < N_OCOLS; k++)
        for (Py_ssize_t s = 0; s < A->cap; s++)
            Py_CLEAR(A->oc[k][s]);
    return 0;
}

static void Arena_dealloc(PyObject *self)
{
    Arena *A = (Arena *)self;
    PyObject_GC_UnTrack(self);
    Arena_clear(self);
    for (int k = 0; k < N_ICOLS; k++)
        PyMem_Free(A->ic[k]);
    for (int k = 0; k < N_OCOLS; k++)
        PyMem_Free(A->oc[k]);
    for (Py_ssize_t s = 0; s < A->cap; s++) {
        PyMem_Free(A->waiters[s].v);
        PyMem_Free(A->parents[s].v);
    }
    PyMem_Free(A->waiters);
    PyMem_Free(A->parents);
    IVec *vecs[13] = {&A->free, &A->ready[0], &A->ready[1], &A->ready[2],
                      &A->ev.pool, &A->ev.marks, &A->ev.over, &A->dt.pool,
                      &A->dt.marks, &A->dt.over, &A->due, &A->wb_marks,
                      &A->wb_over};
    for (int k = 0; k < 13; k++)
        PyMem_Free(vecs[k]->v);
    PyMem_Free(A->ev.head);
    PyMem_Free(A->dt.head);
    PyMem_Free(A->wb_cnt);
    for (Py_ssize_t i = 0; A->queues && i < 3 * A->n_threads; i++)
        Py_XDECREF(A->queues[i]);
    PyMem_Free(A->queues);
    Py_TYPE(self)->tp_free(self);
}

/* ------------------------------------------------------------------ */
/* run context (the fused loop's hoisted locals)                       */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject *core;
    Arena *A;               /* owned */
    /* hoisted, identity-stable objects (borrowed from slots) */
    PyObject *threads;
    PyObject *fetch_candidates;
    PyObject *on_ll_detect; /* owned: policy.on_ll_detect bound method */
    int olc_cleanup_only, ll_detect_is_base;
    /* immutable config scalars */
    long long mask, fetch_width, fetch_max_threads, fe_capacity,
        frontend_depth, decode_width, commit_width, wb_entries, line_shift,
        n_threads, full_mask, rob_size, lsq_size, int_iq_size, fp_iq_size,
        int_rename_regs, fp_rename_regs, num_int_alu, num_ldst, num_fp;
    int fast_forward, fetch_order_is_base, can_fetch_one, track_dep;
    MemFast mf;             /* the hierarchy's L1/TLB-hit path */
} Ctx;


/* ------------------------------------------------------------------ */
/* event-wheel pushes (issue/commit helpers)                           */
/* ------------------------------------------------------------------ */

/* Push `packed` due at `when`: into its bucket (arming the mark heap
 * when the bucket was empty) within the horizon, else the spill heap. */
static int wheel_push(Wheel *w, long long mask, long long cycle,
                      long long when, int64_t packed)
{
    if (when - cycle > mask)
        return heap_push(&w->over, when, packed, 2);
    int64_t e = w->free_ent;
    if (e >= 0) {
        w->free_ent = w->pool.v[2 * e + 1];
    } else {
        if (ivec_reserve(&w->pool, (Py_ssize_t)w->pool.n + 2) < 0)
            return -1;
        e = w->pool.n / 2;
        w->pool.n += 2;
    }
    int32_t *head = &w->head[when & mask];
    int was_empty = *head < 0;
    w->pool.v[2 * e] = packed;
    w->pool.v[2 * e + 1] = *head;
    *head = (int32_t)e;
    return was_empty ? heap_push(&w->marks, when, 0, 1) : 0;
}

/* SMTCore._schedule_wb_drain, transliterated (commit's store path). */
static int schedule_wb_drain(Ctx *c, long long when, long long cycle)
{
    Arena *A = c->A;
    if (when <= cycle)
        when = cycle + 1;
    if (when - cycle <= c->mask) {
        int64_t *cnt = &A->wb_cnt[when & c->mask];
        if (*cnt == 0 && heap_push(&A->wb_marks, when, 0, 1) < 0)
            return -1;
        *cnt += 1;
    } else if (heap_push(&A->wb_over, when, 0, 1) < 0) {
        return -1;
    }
    return stat_add(c->core, OFF.wb_used, 1);
}

/* ------------------------------------------------------------------ */
/* stage: event drains (the two inline wheel drains of the fused loop) */
/* ------------------------------------------------------------------ */

static int cmp_i64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* The entries due at `cycle` (its bucket, emptied, and the due spills)
 * in `due`, in age order, with the due marks dropped; NULL when nothing
 * is due. */
static IVec *wheel_due(Wheel *w, IVec *due, long long mask, long long cycle,
                       int *err)
{
    int32_t *head = &w->head[cycle & mask];
    if (*head < 0 && (w->over.n == 0 || w->over.v[0] > cycle))
        return NULL;
    due->n = 0;
    for (int64_t e = *head; e >= 0; e = *head) {
        if (ivec_push(due, w->pool.v[2 * e]) < 0)
            goto fail;
        *head = (int32_t)w->pool.v[2 * e + 1];
        w->pool.v[2 * e + 1] = w->free_ent;
        w->free_ent = e;
    }
    int64_t e[2];
    while (w->over.n && w->over.v[0] <= cycle) {
        heap_pop(&w->over, e, 2);
        if (ivec_push(due, e[1]) < 0)
            goto fail;
    }
    while (w->marks.n && w->marks.v[0] <= cycle)
        heap_pop(&w->marks, e, 1);
    if (due->n > 1)     /* packed stamps sort in age order */
        qsort(due->v, (size_t)due->n, sizeof(int64_t), cmp_i64);
    return due;
fail:
    *err = 1;
    return NULL;
}

/* One completion's wake-up of waiter `w` (a packed stamp). */
static int wake(Arena *A, int64_t w)
{
    Py_ssize_t ws = (Py_ssize_t)(w & SLOT_MASK);
    if (!current(A, w))
        return 0;
    int64_t wfl = A->flags[ws];
    if (wfl & F_FREED)
        return 0;
    if (--A->pending[ws] == 0 && !(wfl & F_NO_WAKE) && (wfl & F_IN_IQ)) {
        long long op = slot_ll(A->instr[ws], OFF.in_op_i);
        return heap_push(&A->ready[A->op_class[op]], w, 0, 1);
    }
    return 0;
}

/* Free a squashed or retired slot whose last engine reference just
 * drained, unless a policy still owns its view. */
static int free_unowned(Arena *A, Py_ssize_t s, int64_t fl, PyObject *ts)
{
    int owner = owned(A, s, ts);
    if (owner < 0)
        return -1;
    return owner ? 0 : arena_free(A, s, fl);
}

/* hook(view of s, ts): the per-instruction policy hooks. */
static int call_hook(Arena *A, PyObject *hook, Py_ssize_t s, PyObject *ts)
{
    PyObject *v = ensure_view(A, s);
    if (v == NULL)
        return -1;
    PyObject *hargs[2] = {v, ts};
    PyObject *r = PyObject_Vectorcall(hook, hargs, 2, NULL);
    Py_DECREF(v);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

static int stage_drain(Ctx *c, long long cycle)
{
    PyObject *core = c->core;
    Arena *A = c->A;
    PyObject *on_load_complete = SLOT(core, OFF.policy_on_load_complete);
    int err = 0;
    IVec *b = wheel_due(&A->ev, &A->due, c->mask, cycle, &err);
    if (err)
        return -1;
    for (Py_ssize_t bi = 0; b != NULL && bi < b->n; bi++) {
        int64_t packed = b->v[bi];
        Py_ssize_t s = (Py_ssize_t)(packed & SLOT_MASK);
        if (!current(A, packed))
            continue; /* slot reclaimed and refetched */
        int64_t fl = A->flags[s];
        PyObject *ts = PyTuple_GET_ITEM(c->threads, A->thread[s]);
        if ((fl & F_IS_LOAD) && A->pending[s] == -1) {
            if (stat_add(ts, OFF.ts_outstanding_misses, -1) < 0)
                return -1;
            A->pending[s] = 0;
        }
        if (fl & F_SQUASHED) {
            if (!(fl & (F_FREED | F_IN_DETECTS)) && A->refs[s] == 0
                && A->pending[s] == 0 && free_unowned(A, s, fl, ts) < 0)
                return -1;
            continue;
        }
        A->flags[s] = fl |= F_COMPLETED;
        SlotSeq *window = seq_of(ts, OFF.ts_window);
        if (window == NULL)
            return -1;
        if (window->n > 0 && SQ_AT(window, 0) == s) {
            slot_store_bool(ts, OFF.ts_head_ready, 1);
            if (slot_store_ll(core, OFF.heads_mask,
                              slot_ll(core, OFF.heads_mask)
                              | slot_ll(ts, OFF.ts_tid_bit)) < 0)
                return -1;
            slot_store_bool(core, OFF.commit_pending, 1);
        }
        int64_t w0 = A->waiter0[s];
        if (w0 >= 0) {
            A->waiter0[s] = -1;
            if (wake(A, w0) < 0)
                return -1;
            IVec *wl = &A->waiters[s];
            for (Py_ssize_t wi = 0; wi < wl->n; wi++)
                if (wake(A, wl->v[wi]) < 0)
                    return -1;
            wl->n = 0;
        }
        if ((fl & F_IS_BRANCH)) {
            PyObject *wb = SLOT(ts, OFF.ts_waiting_branch);
            if (wb != Py_None && ll_of(wb) == s) {
                Py_INCREF(Py_None);
                slot_store(ts, OFF.ts_waiting_branch, Py_None);
                PyObject *st = SLOT(ts, OFF.ts_stats);
                if (stat_add(st, OFF.st_branch_stall_cycles,
                             cycle - slot_ll(
                                 ts, OFF.ts_branch_wait_since)) < 0)
                    return -1;
                if ((slot_ll(ts, OFF.ts_fetch_blocked_until) < cycle + 1
                     && slot_store_ll(ts, OFF.ts_fetch_blocked_until,
                                      cycle + 1) < 0)
                    || slot_store_ll(core, OFF.fetch_wake, 0) < 0)
                    return -1;
            }
        }
        if ((fl & F_IS_LOAD) && on_load_complete != Py_None
            && (A->views[s] != NULL || !c->olc_cleanup_only)
            && call_hook(A, on_load_complete, s, ts) < 0)
            return -1;
    }
    /* detection wheel */
    b = wheel_due(&A->dt, &A->due, c->mask, cycle, &err);
    if (err)
        return -1;
    for (Py_ssize_t bi = 0; b != NULL && bi < b->n; bi++) {
        /* F_IN_DETECTS pins the slot: no generation check. */
        Py_ssize_t s = (Py_ssize_t)(b->v[bi] & SLOT_MASK);
        int64_t fl = A->flags[s] &= ~F_IN_DETECTS;
        PyObject *ts = PyTuple_GET_ITEM(c->threads, A->thread[s]);
        if (fl & (F_SQUASHED | F_COMPLETED)) {
            if ((fl & (F_SQUASHED | F_RETIRED)) && !(fl & F_FREED)
                && A->refs[s] == 0 && A->pending[s] != -1
                && free_unowned(A, s, fl, ts) < 0)
                return -1;
            continue;
        }
        if (!c->ll_detect_is_base
            && call_hook(A, c->on_ll_detect, s, ts) < 0)
            return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* stage: commit                                                       */
/* ------------------------------------------------------------------ */

/* hierarchy.load (demand) or .store of instr at `when`, the L1/TLB hit
 * path in C: sets *done (and, on a hit, *detect); *result is the
 * AccessResult when Python ran (a new reference), else NULL. */
static int data_access(Ctx *c, PyObject *ts, PyObject *instr, long long when,
                       int demand, long long *done, long long *detect,
                       PyObject **result)
{
    *result = NULL;
    int hit = mem_fast_data(&c->mf, SLOT(instr, OFF.in_pc),
                            SLOT(instr, OFF.in_addr), when, demand, done,
                            detect);
    if (hit)
        return hit < 0 ? -1 : 0;
    PyObject *when_obj = box_ll(when);
    if (when_obj == NULL)
        return -1;
    PyObject *args[4] = {SLOT(ts, OFF.ts_tid), SLOT(instr, OFF.in_pc),
                         SLOT(instr, OFF.in_addr), when_obj};
    *result = PyObject_Vectorcall(
        SLOT(c->core, demand ? OFF.hier_load : OFF.hier_store), args, 4,
        NULL);
    Py_DECREF(when_obj);
    if (*result == NULL)
        return -1;
    *done = slot_ll(*result, OFF.ar_complete_cycle);
    return 0;
}

/* Drop one reference to slot p at retire time (the parents / old_map
 * decrement paths of commit); free it if that was the last. */
static int commit_unref(Ctx *c, Py_ssize_t p, PyObject *ts)
{
    Arena *A = c->A;
    if (--A->refs[p])
        return 0;
    int64_t pfl = A->flags[p];
    if (!(pfl & F_RETIRED) || (pfl & (F_IN_DETECTS | F_FREED)))
        return 0;
    return free_unowned(A, p, pfl, ts);
}

/* The rotation order of `threads` starting at `rot`, filtered through
 * `mask` via the core's lazily built cache (borrowed). */
static PyObject *rotation(Ctx *c, Py_ssize_t rot, long long mask, int full)
{
    PyObject *rot_cache = SLOT(c->core, OFF.rot_cache);
    PyObject *rotations = SLOT(c->core, OFF.rotations);
    if (rot_cache == Py_None || full)
        return seq_item(rotations, rot);
    Py_ssize_t key = (Py_ssize_t)(mask * c->n_threads) + rot;
    PyObject *order = PyList_GET_ITEM(rot_cache, key);
    if (order != Py_None)
        return order;
    PyObject *all = seq_item(rotations, rot);
    Py_ssize_t rn = seq_size(all);
    PyObject *lst = PyList_New(0);
    if (lst == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < rn; i++) {
        PyObject *ts = seq_item(all, i);
        if (((mask >> slot_ll(ts, OFF.ts_tid)) & 1)
            && PyList_Append(lst, ts) < 0) {
            Py_DECREF(lst);
            return NULL;
        }
    }
    PyObject *tup = PyList_AsTuple(lst);
    Py_DECREF(lst);
    if (tup != NULL)
        lset(rot_cache, key, tup);      /* the cache owns it now */
    return tup;
}

static int stage_commit(Ctx *c, long long cycle)
{
    PyObject *core = c->core;
    Arena *A = c->A;
    long long n = c->n_threads;
    long long budget = c->commit_width;
    long long heads_mask = slot_ll(core, OFF.heads_mask);
    PyObject *order = n == 1 ? c->threads
        : rotation(c, (Py_ssize_t)(cycle % n), heads_mask, 0);
    if (order == NULL)
        return -1;
    long long rob_used = slot_ll(core, OFF.rob_used);
    long long lsq_used = slot_ll(core, OFF.lsq_used);
    long long int_regs_used = slot_ll(core, OFF.int_regs_used);
    long long fp_regs_used = slot_ll(core, OFF.fp_regs_used);
    long long watermark = slot_ll(core, OFF.committed_watermark);
    long long measure_start = slot_ll(core, OFF.measure_start);
    Py_ssize_t order_n = seq_size(order);
    while (budget > 0) {
        int progress = 0;
        for (Py_ssize_t oi = 0; oi < order_n; oi++) {
            PyObject *ts = seq_item(order, oi);
            if (budget == 0)
                break;
            if (!slot_true(ts, OFF.ts_head_ready))
                continue;
            SlotSeq *window = seq_of(ts, OFF.ts_window);
            if (window == NULL)
                return -1;
            Py_ssize_t s = (Py_ssize_t)SQ_AT(window, 0);
            int64_t fl = A->flags[s];
            PyObject *instr = A->instr[s];
            if (fl & F_IS_STORE) {
                if (slot_ll(core, OFF.wb_used) >= c->wb_entries)
                    continue;
                long long when, detect;
                PyObject *result;
                if (data_access(c, ts, instr, cycle, 0, &when, &detect,
                                &result) < 0)
                    return -1;
                Py_XDECREF(result);
                if (schedule_wb_drain(c, when, cycle) < 0)
                    return -1;
            }
            sq_pop_front(window);
            if (!window->n || !(A->flags[SQ_AT(window, 0)] & F_COMPLETED)) {
                slot_store_bool(ts, OFF.ts_head_ready, 0);
                heads_mask &= ~slot_ll(ts, OFF.ts_tid_bit);
            }
            rob_used -= 1;
            if (stat_add(ts, OFF.ts_rob_count, -1) < 0)
                return -1;
            PyObject *st = SLOT(ts, OFF.ts_stats);
            long long committed = slot_ll(st, OFF.st_committed) + 1;
            if (slot_store_ll(st, OFF.st_committed, committed) < 0)
                return -1;
            if (committed > watermark)
                watermark = committed;
            PyObject *cc = SLOT(ts, OFF.ts_commit_cycles);
            if (cc != Py_None) {
                PyObject *b = box_ll(cycle - measure_start);
                if (b == NULL)
                    return -1;
                int rc = PyList_Append(cc, b);
                Py_DECREF(b);
                if (rc < 0)
                    return -1;
            }
            if (fl & F_MEM) {
                if (stat_add(ts, OFF.ts_lsq_count, -1) < 0)
                    return -1;
                lsq_used -= 1;
            }
            if (fl & F_HAS_DEST) {
                int fp = (fl & F_DEST_FP) != 0;
                if (stat_add(ts, fp ? OFF.ts_fp_regs : OFF.ts_int_regs,
                             -1) < 0)
                    return -1;
                *(fp ? &fp_regs_used : &int_regs_used) -= 1;
            }
            int dependent = 0;
            Py_ssize_t pn = A->parents[s].n;
            if (pn) {
                int64_t parents[MAX_SRCS];
                memcpy(parents, A->parents[s].v, pn * sizeof(int64_t));
                A->parents[s].n = 0;
                for (Py_ssize_t i = 0; i < pn && !dependent; i++)
                    dependent = (A->flags[parents[i]]
                                 & (F_IS_LL | F_LL_DEP)) != 0;
                if (dependent)
                    A->flags[s] = fl |= F_LL_DEP;
                for (Py_ssize_t i = 0; i < pn; i++)
                    if (commit_unref(c, parents[i], ts) < 0)
                        return -1;
            }
            /* F_IS_LL implies F_IS_LOAD (set only in the issue load
             * body), matching the object engine's two-flag test. */
            if (fl & F_IS_LL) {
                if (llsr_commit_zeros(ts, slot_ll(ts, OFF.ts_llsr_zeros))
                    < 0)
                    return -1;
                PyObject *args[3] = {Py_True, SLOT(instr, OFF.in_pc),
                                     dependent ? Py_True : Py_False};
                PyObject *r = PyObject_Vectorcall(
                    SLOT(ts, OFF.ts_llsr_commit), args, 3, NULL);
                if (r == NULL)
                    return -1;
                Py_DECREF(r);
            } else if (stat_add(ts, OFF.ts_llsr_zeros, 1) < 0) {
                return -1;
            }
            int64_t old = A->old_map[s];
            if (old >= 0) {
                A->old_map[s] = -1;
                if (commit_unref(c, old, ts) < 0)
                    return -1;
            }
            fl |= F_RETIRED;
            int owner = 0;
            if (A->refs[s] == 0 && !(fl & F_IN_DETECTS)
                && (owner = owned(A, s, ts)) == 0) {
                if (arena_free(A, s, fl) < 0)
                    return -1;
            } else if (owner < 0) {
                return -1;
            } else {
                A->flags[s] = fl;
            }
            budget -= 1;
            progress = 1;
        }
        if (!progress)
            break;
    }
    if (budget < c->commit_width) {   /* at least one retire happened */
        for (Py_ssize_t oi = 0; oi < order_n; oi++) {
            PyObject *ts = seq_item(order, oi);
            if (llsr_commit_zeros(ts, slot_ll(ts, OFF.ts_llsr_zeros)) < 0)
                return -1;
        }
        if (slot_store_ll(core, OFF.committed_watermark, watermark) < 0
            || stat_add(core, OFF.release_epoch, 1) < 0
            || slot_store_ll(core, OFF.rob_used, rob_used) < 0
            || slot_store_ll(core, OFF.lsq_used, lsq_used) < 0
            || slot_store_ll(core, OFF.int_regs_used, int_regs_used) < 0
            || slot_store_ll(core, OFF.fp_regs_used, fp_regs_used) < 0
            || slot_store_ll(core, OFF.heads_mask, heads_mask) < 0)
            return -1;
    }
    slot_store_bool(core, OFF.commit_pending, heads_mask != 0);
    return 0;
}

/* ------------------------------------------------------------------ */
/* stage: issue (with _execute's two branches inlined)                */
/* ------------------------------------------------------------------ */

/* Pop the oldest live, unissued entry of `queue` and take it out of
 * its issue queue; returns its slot, or -1 once the queue runs dry
 * (-2 on error). */
static Py_ssize_t issue_pop(Ctx *c, IVec *queue, int64_t *packed,
                            int64_t *flp, PyObject **tsp)
{
    Arena *A = c->A;
    while (queue->n > 0) {
        heap_pop(queue, packed, 1);
        Py_ssize_t s = (Py_ssize_t)(*packed & SLOT_MASK);
        if (!current(A, *packed))
            continue;
        int64_t fl = A->flags[s];
        if (fl & F_DEAD_OR_DONE)
            continue;
        PyObject *ts = PyTuple_GET_ITEM(c->threads, A->thread[s]);
        if (fl & F_IN_IQ) {
            int fp = (fl & F_IQ_FP) != 0;
            if (stat_add(ts, fp ? OFF.ts_fq_count : OFF.ts_iq_count, -1) < 0
                || stat_add(c->core, fp ? OFF.fq_used : OFF.iq_used, -1) < 0
                || stat_add(ts, OFF.ts_icount, -1) < 0)
                return -2;
            fl &= ~F_IN_IQ;
        }
        *flp = fl | F_ISSUED;
        *tsp = ts;
        return s;
    }
    return -1;
}

/* The int/fp queues share one body: dequeue bookkeeping plus a fixed
 * cycle+latency completion (always in-horizon: latency <= 4). */
static int issue_simple_queue(Ctx *c, IVec *queue, long long slots,
                              long long cycle, int *issued)
{
    Arena *A = c->A;
    for (; slots > 0; slots--) {
        int64_t packed, fl;
        PyObject *ts;
        Py_ssize_t s = issue_pop(c, queue, &packed, &fl, &ts);
        if (s < 0)
            return s == -1 ? 0 : -1;
        A->flags[s] = fl;
        if (wheel_push(&A->ev, c->mask, cycle,
                       cycle + slot_ll(A->instr[s], OFF.in_latency),
                       packed) < 0)
            return -1;
        *issued = 1;
    }
    return 0;
}

/* _execute's load body, columnized: an L1/TLB hit is resolved in C,
 * anything else by hierarchy.load. */
static int issue_load(Ctx *c, Py_ssize_t s, int64_t packed, int64_t fl,
                      PyObject *ts, long long cycle)
{
    Arena *A = c->A;
    PyObject *instr = A->instr[s];
    long long when = cycle + slot_ll(instr, OFF.in_latency);
    long long completion, detect = 0;
    PyObject *result;
    int is_ll = 0, trigger = 0, rc = -1;
    PyObject *level = g.l1_level, *fill = Py_None;
    if (data_access(c, ts, instr, when, 1, &completion, &detect, &result)
        < 0)
        return -1;
    if (result != NULL) {
        is_ll = PyObject_IsTrue(SLOT(result, OFF.ar_long_latency));
        trigger = PyObject_IsTrue(SLOT(result, OFF.ar_trigger));
        detect = slot_ll(result, OFF.ar_detect_cycle);
        level = SLOT(result, OFF.ar_level);
        fill = SLOT(result, OFF.ar_fill_line);
    }
    if (is_ll)
        fl |= F_IS_LL;
    ocol_set(A->level, s, level);
    PyObject *stats = SLOT(ts, OFF.ts_stats);
    if (stat_add(stats, OFF.st_loads_executed, 1) < 0)
        goto out;
    PyObject *targs[2] = {SLOT(instr, OFF.in_pc), is_ll ? Py_True : Py_False};
    PyObject *r = call_method(SLOT(ts, OFF.ts_lll_pred), g.s_train, targs, 2);
    if (r == NULL)
        goto out;
    Py_DECREF(r);
    PyObject *predicted = A->pred_ll[s];
    if (predicted != NULL) {
        int pred = PyObject_IsTrue(predicted);
        if (stat_add(stats, OFF.st_lll_pred_loads, 1) < 0
            || (pred == is_ll
                && stat_add(stats, OFF.st_lll_pred_correct, 1) < 0)
            || (is_ll && stat_add(stats, OFF.st_lll_pred_miss_actual, 1) < 0)
            || (is_ll && pred
                && stat_add(stats, OFF.st_lll_pred_miss_correct, 1) < 0))
            goto out;
    }
    if (is_ll && stat_add(stats, OFF.st_ll_loads, 1) < 0)
        goto out;
    if (trigger) {
        fl |= F_IN_DETECTS;
        if (detect <= cycle)
            detect = cycle + 1;
        if (wheel_push(&A->dt, c->mask, cycle, detect, packed) < 0)
            goto out;
    }
    ocol_set(A->fill_line, s, fill);
    if (level != g.l1_level) {
        if (stat_add(ts, OFF.ts_outstanding_misses, 1) < 0)
            goto out;
        A->pending[s] = -1;
    }
    A->flags[s] = fl;
    rc = wheel_push(&A->ev, c->mask, cycle, completion, packed);
out:
    Py_XDECREF(result);
    return rc;
}

static int stage_issue(Ctx *c, long long cycle)
{
    Arena *A = c->A;
    int issued = 0;
    if (issue_simple_queue(c, &A->ready[0], c->num_int_alu, cycle,
                           &issued) < 0)
        return -1;
    for (long long slots = c->num_ldst; slots > 0; slots--) {
        int64_t packed, fl;
        PyObject *ts;
        Py_ssize_t s = issue_pop(c, &A->ready[1], &packed, &fl, &ts);
        if (s == -1)
            break;
        if (s < 0)
            return -1;
        if (fl & F_IS_LOAD) {
            if (issue_load(c, s, packed, fl, ts, cycle) < 0)
                return -1;
        } else {
            /* stores: address generation only; memory access happens
             * at commit via the write buffer */
            A->flags[s] = fl;
            if (wheel_push(&A->ev, c->mask, cycle,
                           cycle + slot_ll(A->instr[s], OFF.in_latency),
                           packed) < 0)
                return -1;
        }
        issued = 1;
    }
    if (issue_simple_queue(c, &A->ready[2], c->num_fp, cycle, &issued) < 0)
        return -1;
    if (issued && stat_add(c->core, OFF.release_epoch, 1) < 0)
        return -1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* stage: dispatch (rename + resource allocation)                      */
/* ------------------------------------------------------------------ */

/* The earliest value past `cycle` of ThreadState slot `off` over all
 * threads (SMTCore._compute_fetch_wake and the dispatch wake latches). */
static long long wake_after(Ctx *c, long long cycle, Py_ssize_t off)
{
    long long wake = cycle + (1LL << 30);
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(c->threads); i++) {
        long long wu = slot_ll(PyTuple_GET_ITEM(c->threads, i), off);
        if (cycle < wu && wu < wake)
            wake = wu;
    }
    return wake;
}

static int store_thread_counts(PyObject *ts, const long long *tl)
{
    static const Py_ssize_t *offs[6] = {
        &OFF.ts_rob_count, &OFF.ts_lsq_count, &OFF.ts_iq_count,
        &OFF.ts_fq_count, &OFF.ts_int_regs, &OFF.ts_fp_regs};
    for (int i = 0; i < 6; i++)
        if (slot_store_ll(ts, *offs[i], tl[i]) < 0)
            return -1;
    return 0;
}

static int stage_dispatch(Ctx *c, long long cycle, PyObject *cycle_obj)
{
    PyObject *core = c->core;
    Arena *A = c->A;
    long long budget = c->decode_width;
    int any_ready = 0;
    int blocked_by_resource = 0;
    long long dispatched = 0;
    long long n = c->n_threads;
    long long release_epoch = slot_ll(core, OFF.release_epoch);
    PyObject *order = c->threads;
    if (n > 1) {
        long long fe_mask = slot_ll(core, OFF.fe_mask);
        order = rotation(c, (Py_ssize_t)((cycle + 1) % n), fe_mask,
                         fe_mask == c->full_mask);
        if (order == NULL)
            return -1;
    }
    /* lazily hoisted used counters */
    int hoisted = 0;
    long long rob_used = 0, lsq_used = 0, iq_used = 0, fq_used = 0,
        int_regs_used = 0, fp_regs_used = 0;
    int gates_free = 0;
    PyObject *can_dispatch = NULL;   /* borrowed; Py_None means allow-all */
    Py_ssize_t order_n = seq_size(order);
    for (Py_ssize_t oi = 0; oi < order_n; oi++) {
        PyObject *ts = seq_item(order, oi);
        if (budget == 0)
            break;
        if (cycle < slot_ll(ts, OFF.ts_dispatch_wait_until))
            continue;   /* head not through the front end yet */
        SlotSeq *fe = seq_of(ts, OFF.ts_fe_queue);
        SlotSeq *window = seq_of(ts, OFF.ts_window);
        SlotSeq *rename_map = seq_of(ts, OFF.ts_rename_map);
        if (fe == NULL || window == NULL || rename_map == NULL)
            return -1;
        if (fe->n == 0)
            continue;
        Py_ssize_t head = (Py_ssize_t)SQ_AT(fe, 0);
        /* The latch holds a bare slot: within one release epoch the
         * head cannot change, so a slot match is an instruction match. */
        PyObject *dbh = SLOT(ts, OFF.ts_dispatch_blocked_head);
        if (dbh != Py_None && ll_of(dbh) == head) {
            if (slot_ll(ts, OFF.ts_dispatch_blocked_epoch)
                    == release_epoch) {
                any_ready = 1;
                blocked_by_resource = 1;
                continue;
            }
            Py_INCREF(Py_None);
            slot_store(ts, OFF.ts_dispatch_blocked_head, Py_None);
        }
        if (A->fe_ready[head] > cycle) {
            if (slot_store_ll(ts, OFF.ts_dispatch_wait_until,
                              A->fe_ready[head]) < 0)
                return -1;
            continue;
        }
        if (!hoisted) {
            hoisted = 1;
            rob_used = slot_ll(core, OFF.rob_used);
            lsq_used = slot_ll(core, OFF.lsq_used);
            iq_used = slot_ll(core, OFF.iq_used);
            fq_used = slot_ll(core, OFF.fq_used);
            int_regs_used = slot_ll(core, OFF.int_regs_used);
            fp_regs_used = slot_ll(core, OFF.fp_regs_used);
            can_dispatch = SLOT(core, OFF.policy_can_dispatch);
            gates_free =
                c->rob_size - rob_used >= budget
                && c->lsq_size - lsq_used >= budget
                && c->int_iq_size - iq_used >= budget
                && c->fp_iq_size - fq_used >= budget
                && c->int_rename_regs - int_regs_used >= budget
                && c->fp_rename_regs - fp_regs_used >= budget;
        }
        int fe_was_full = fe->n >= c->fe_capacity;
        /* rob, lsq, iq, fq, int regs, fp regs of this thread */
        long long tl[6] = {
            slot_ll(ts, OFF.ts_rob_count), slot_ll(ts, OFF.ts_lsq_count),
            slot_ll(ts, OFF.ts_iq_count), slot_ll(ts, OFF.ts_fq_count),
            slot_ll(ts, OFF.ts_int_regs), slot_ll(ts, OFF.ts_fp_regs)};
        int tl_dirty = 0;
        while (budget > 0 && fe->n > 0) {
            Py_ssize_t s = (Py_ssize_t)SQ_AT(fe, 0);
            if (A->fe_ready[s] > cycle) {
                if (slot_store_ll(ts, OFF.ts_dispatch_wait_until,
                                  A->fe_ready[s]) < 0)
                    return -1;
                break;
            }
            any_ready = 1;
            PyObject *instr = A->instr[s];
            int64_t fl = A->flags[s];
            int64_t is_mem = fl & F_MEM;
            int fp_queue = SLOT(instr, OFF.in_fp_queue) == Py_True;
            if (!gates_free) {
                int blocked =
                    rob_used >= c->rob_size
                    || (is_mem && lsq_used >= c->lsq_size)
                    || (fp_queue ? fq_used >= c->fp_iq_size
                                 : iq_used >= c->int_iq_size)
                    || ((fl & F_HAS_DEST)
                        && ((fl & F_DEST_FP)
                                ? fp_regs_used >= c->fp_rename_regs
                                : int_regs_used >= c->int_rename_regs));
                if (blocked) {
                    if (slot_store_ll(ts, OFF.ts_dispatch_blocked_head,
                                      s) < 0
                        || slot_store_ll(
                               ts, OFF.ts_dispatch_blocked_epoch,
                               release_epoch) < 0)
                        return -1;
                    blocked_by_resource = 1;
                    break;
                }
            }
            if (can_dispatch != Py_None) {
                if (tl_dirty) {
                    tl_dirty = 0;
                    if (store_thread_counts(ts, tl) < 0)
                        return -1;
                }
                PyObject *v = ensure_view(A, s);
                if (v == NULL)
                    return -1;
                PyObject *cargs[2] = {ts, v};
                PyObject *r = PyObject_Vectorcall(can_dispatch, cargs,
                                                  2, NULL);
                Py_DECREF(v);
                if (r == NULL)
                    return -1;
                int ok = PyObject_IsTrue(r);
                Py_DECREF(r);
                if (ok < 0)
                    return -1;
                if (!ok)
                    break;   /* policy cap, not a resource stall */
            }
            /* all checks passed: allocate and rename */
            rob_used += 1;
            tl[0] += 1;
            tl_dirty = 1;
            if (is_mem) {
                lsq_used += 1;
                tl[1] += 1;
            }
            if (fp_queue) {
                fq_used += 1;
                tl[3] += 1;
                fl |= F_IN_IQ | F_IQ_FP;
            } else {
                iq_used += 1;
                tl[2] += 1;
                fl |= F_IN_IQ;
            }
            int64_t packed = (A->gseq[s] << SLOT_SHIFT) | s;
            long long pending = 0;
            int64_t parents[MAX_SRCS];
            int pn = 0;
            PyObject *srcs = SLOT(instr, OFF.in_srcs);
            Py_ssize_t nsrc = PyTuple_GET_SIZE(srcs);
            for (Py_ssize_t i = 0; i < nsrc; i++) {
                int64_t prod = rename_map->v[ll_of(PyTuple_GET_ITEM(srcs,
                                                                    i))];
                if (prod < 0)
                    continue;
                int64_t pfl = A->flags[prod];
                if (c->track_dep
                    && ((pfl & (F_IS_LOAD | F_LL_DEP))
                        || A->parents[prod].n)) {
                    if (pn >= MAX_SRCS) {
                        PyErr_SetString(PyExc_RuntimeError,
                                        "too many source operands");
                        return -1;
                    }
                    parents[pn++] = prod;
                    A->refs[prod] += 1;
                }
                if (!(pfl & F_COMPLETED)) {
                    pending += 1;
                    if (A->waiter0[prod] < 0)
                        A->waiter0[prod] = packed;
                    else if (ivec_push(&A->waiters[prod], packed) < 0)
                        return -1;
                }
            }
            if (pending)
                A->pending[s] = pending;
            if (pn) {
                IVec *pv = &A->parents[s];
                if (ivec_reserve(pv, pn) < 0)
                    return -1;
                memcpy(pv->v, parents, pn * sizeof(int64_t));
                pv->n = pn;
            }
            if (fl & F_HAS_DEST) {
                long long dest = slot_ll(instr, OFF.in_dest);
                A->old_map[s] = rename_map->v[dest];
                rename_map->v[dest] = s;
                /* rename-current ref; the old entry's ref transfers to
                 * the old_map slot */
                A->refs[s] += 1;
                if (fl & F_DEST_FP) {
                    fp_regs_used += 1;
                    tl[5] += 1;
                } else {
                    int_regs_used += 1;
                    tl[4] += 1;
                }
            }
            A->flags[s] = fl;
            if (sq_push(window, s) < 0)
                return -1;
            if (!pending) {
                long long op = slot_ll(instr, OFF.in_op_i);
                if (heap_push(&A->ready[A->op_class[op]], packed, 0, 1) < 0)
                    return -1;
            }
            sq_pop_front(fe);
            budget -= 1;
            dispatched += 1;
        }
        if (tl_dirty && store_thread_counts(ts, tl) < 0)
            return -1;
        if (fe_was_full && fe->n < c->fe_capacity
            && slot_store_ll(core, OFF.fetch_wake, 0) < 0)
            return -1;
        if (fe->n == 0
            && slot_store_ll(core, OFF.fe_mask,
                             slot_ll(core, OFF.fe_mask)
                                 & ~slot_ll(ts, OFF.ts_tid_bit)) < 0)
            return -1;
    }
    if (dispatched) {
        if (slot_store_ll(core, OFF.rob_used, rob_used) < 0
            || slot_store_ll(core, OFF.lsq_used, lsq_used) < 0
            || slot_store_ll(core, OFF.iq_used, iq_used) < 0
            || slot_store_ll(core, OFF.fq_used, fq_used) < 0
            || slot_store_ll(core, OFF.int_regs_used, int_regs_used) < 0
            || slot_store_ll(core, OFF.fp_regs_used, fp_regs_used) < 0)
            return -1;
    } else if (!any_ready
               && SLOT(core, OFF.policy_can_dispatch) == Py_None) {
        if (slot_store_ll(core, OFF.dispatch_wake, wake_after(
                              c, cycle, OFF.ts_dispatch_wait_until)) < 0)
            return -1;
    }
    if (any_ready && dispatched == 0 && blocked_by_resource) {
        if (stat_add(SLOT(core, OFF.stats),
                     OFF.cs_resource_stall_cycles, 1) < 0)
            return -1;
        PyObject *ors = SLOT(core, OFF.policy_on_resource_stall);
        if (ors != Py_None) {   /* None: marked no-op hook */
            PyObject *r = PyObject_CallOneArg(ors, cycle_obj);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
        } else if (SLOT(core, OFF.policy_can_dispatch) == Py_None) {
            if (slot_store_ll(core, OFF.stall_latch_until, wake_after(
                                  c, cycle, OFF.ts_dispatch_wait_until)) < 0
                || slot_store_ll(core, OFF.stall_latch_epoch,
                                 release_epoch) < 0)
                return -1;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* stage: fetch (one thread's burst)                                   */
/* ------------------------------------------------------------------ */

/* repro.pipeline.dyninstr.instr_flags, transliterated. */
static long long instr_flags_c(PyObject *instr)
{
    long long flags = 0;
    if (SLOT(instr, OFF.in_has_dest) == Py_True)
        flags |= F_HAS_DEST;
    if (SLOT(instr, OFF.in_dest_fp) == Py_True)
        flags |= F_DEST_FP;
    if (SLOT(instr, OFF.in_is_load) == Py_True)
        flags |= F_IS_LOAD;
    else if (SLOT(instr, OFF.in_is_store) == Py_True)
        flags |= F_IS_STORE;
    else if (SLOT(instr, OFF.in_is_branch) == Py_True)
        flags |= F_IS_BRANCH;
    return flags;
}

/* One thread's fetch burst (SMTCore._fetch_thread over the arena);
 * returns the fetch count, or -1 on error. */
static long long fetch_thread_c(Ctx *c, PyObject *ts, long long budget,
                                long long cycle, PyObject *cycle_obj,
                                int ignore_stall)
{
    PyObject *core = c->core;
    Arena *A = c->A;
    PyObject *trace_get = SLOT(ts, OFF.ts_trace_get);
    PyObject *trace_static = SLOT(ts, OFF.ts_trace_static);
    PyObject *trace_flags = SLOT(ts, OFF.ts_trace_flags);
    long long body_len = slot_ll(ts, OFF.ts_trace_body_len);
    /* an exact SyntheticTrace's iteration-varying slots are built here
     * from its precomputed parameters; other traces keep calling get */
    PyObject *trace = SLOT(ts, OFF.ts_trace);
    PyObject *dyn = NULL;
    if (trace_static != Py_None && trace != NULL
        && Py_TYPE(trace) == g.trace_type) {
        dyn = SLOT(trace, OFF.tr_dyn);
        if (dyn != NULL && (!PyList_CheckExact(dyn)
                            || PyList_GET_SIZE(dyn) != body_len))
            dyn = NULL;
    }
    long long pc_origin = slot_ll(ts, OFF.ts_pc_origin);
    PyObject *on_fetch = SLOT(core, OFF.policy_on_fetch);
    PyObject *on_fetch_load = SLOT(core, OFF.policy_on_fetch_load);
    SlotSeq *fe_queue = seq_of(ts, OFF.ts_fe_queue);
    if (fe_queue == NULL)
        return -1;
    long long fe_ready = cycle + c->frontend_depth;
    long long tid = slot_ll(ts, OFF.ts_tid);
    long long gseq = slot_ll(core, OFF.gseq);
    PyObject *ae = SLOT(ts, OFF.ts_allowed_end);
    int has_allowed = ae != Py_None;
    long long allowed_end = has_allowed ? ll_of(ae) : 0;
    long long count = 0;
    int fe_was_empty = fe_queue->n == 0;
    long long limit = c->fe_capacity - fe_queue->n;
    if (budget < limit)
        limit = budget;
    while (count < limit) {
        long long fetch_index = slot_ll(ts, OFF.ts_fetch_index);
        if (!ignore_stall && has_allowed && fetch_index > allowed_end)
            break;
        PyObject *instr = Py_None;
        PyObject *instr_ref = NULL;   /* owned when built or fetched */
        long long flags = 0;
        Py_ssize_t i = 0;
        int built = 0;
        if (trace_static != Py_None) {
            i = (Py_ssize_t)(fetch_index % body_len);
            instr = PyList_GET_ITEM(trace_static, i);
            if (instr != Py_None)
                flags = ll_of(PyList_GET_ITEM(trace_flags, i));
            else if (dyn != NULL && (built = trace_dyn(
                         PyList_GET_ITEM(dyn, i), fetch_index / body_len,
                         &instr_ref)) < 0)
                return -1;
        }
        if (instr == Py_None) {
            if (!built) {
                PyObject *fi = box_ll(fetch_index);
                if (fi == NULL)
                    return -1;
                instr_ref = PyObject_CallOneArg(trace_get, fi);
                Py_DECREF(fi);
                if (instr_ref == NULL)
                    return -1;
            }
            instr = instr_ref;
            flags = instr_flags_c(instr);
        }
        long long pc_addr = pc_origin + slot_ll(instr, OFF.in_pc) * 4;
        long long line = pc_addr >> c->line_shift;
        if (line != slot_ll(ts, OFF.ts_last_ifetch_line)) {
            long long done;
            int hit = mem_fast_ifetch(&c->mf, pc_addr, cycle, &done);
            if (hit < 0)
                goto fail_instr;
            if (!hit) {
                PyObject *pa = box_ll(pc_addr);
                if (pa == NULL)
                    goto fail_instr;
                PyObject *iargs[3] = {SLOT(ts, OFF.ts_tid), pa,
                                      cycle_obj};
                PyObject *done_obj = PyObject_Vectorcall(
                    SLOT(core, OFF.hier_ifetch), iargs, 3, NULL);
                Py_DECREF(pa);
                if (done_obj == NULL)
                    goto fail_instr;
                done = ll_of(done_obj);
                Py_DECREF(done_obj);
            }
            if (slot_store_ll(ts, OFF.ts_last_ifetch_line, line) < 0)
                goto fail_instr;
            if (done > cycle) {
                if (slot_store_ll(ts, OFF.ts_fetch_blocked_until,
                                  done) < 0)
                    goto fail_instr;
                Py_XDECREF(instr_ref);
                break;
            }
        }
        gseq += 1;
        if (A->free.n == 0 && arena_grow(A) < 0)
            goto fail_instr;
        /* the popped slot is pristine: only the varying columns are
         * written (see the arena contract in soa.py) */
        Py_ssize_t s = (Py_ssize_t)A->free.v[--A->free.n];
        ocol_set(A->instr, s, instr);
        Py_XDECREF(instr_ref);
        A->thread[s] = tid;
        A->seq[s] = fetch_index;
        A->gseq[s] = gseq;
        A->fe_ready[s] = fe_ready;
        A->flags[s] = flags;
        if (sq_push(fe_queue, s) < 0
            || slot_store_ll(ts, OFF.ts_fetch_index, fetch_index + 1) < 0
            || stat_add(ts, OFF.ts_icount, 1) < 0)
            return -1;
        count += 1;
        /* instr stays alive in the arena's column from here on */
        if (flags & F_IS_LOAD) {
            PyObject *p = PyObject_CallOneArg(
                SLOT(ts, OFF.ts_lll_predict), SLOT(instr, OFF.in_pc));
            if (p == NULL)
                return -1;
            ocol_set(A->pred_ll, s, p);
            Py_DECREF(p);
            if (on_fetch_load != Py_None) {
                if (call_hook(A, on_fetch_load, s, ts) < 0)
                    return -1;
                ae = SLOT(ts, OFF.ts_allowed_end);   /* hook may update */
                has_allowed = ae != Py_None;
                allowed_end = has_allowed ? ll_of(ae) : 0;
            }
        }
        if (flags & F_IS_BRANCH) {
            PyObject *taken_obj = SLOT(instr, OFF.in_taken);
            int taken = taken_obj == Py_True;
            PyObject *gargs[3] = {SLOT(instr, OFF.in_pc), taken_obj,
                                  SLOT(ts, OFF.ts_tid)};
            PyObject *pr = call_method(SLOT(core, OFF.gshare),
                                       g.s_update, gargs, 3);
            if (pr == NULL)
                return -1;
            int prediction = PyObject_IsTrue(pr);
            Py_DECREF(pr);
            if (prediction < 0)
                return -1;
            int target_known = 1;
            if (taken) {
                PyObject *largs[1] = {SLOT(instr, OFF.in_pc)};
                PyObject *r = call_method(SLOT(core, OFF.btb),
                                          g.s_lookup, largs, 1);
                if (r == NULL)
                    return -1;
                target_known = PyObject_IsTrue(r);
                Py_DECREF(r);
                if (target_known < 0)
                    return -1;
                r = call_method(SLOT(core, OFF.btb), g.s_insert, largs, 1);
                if (r == NULL)
                    return -1;
                Py_DECREF(r);
            }
            if (prediction != taken || !target_known) {
                if (slot_store_ll(ts, OFF.ts_waiting_branch, s) < 0
                    || slot_store_ll(ts, OFF.ts_branch_wait_since,
                                     cycle) < 0
                    || (on_fetch != Py_None
                        && call_hook(A, on_fetch, s, ts) < 0))
                    return -1;
                break;
            }
            if (on_fetch != Py_None
                && call_hook(A, on_fetch, s, ts) < 0)
                return -1;
            if (taken)
                break;   /* a correctly-predicted taken branch ends it */
        } else if (on_fetch != Py_None
                   && call_hook(A, on_fetch, s, ts) < 0) {
            return -1;
        }
        if (on_fetch != Py_None) {
            ae = SLOT(ts, OFF.ts_allowed_end);   /* hook may update */
            has_allowed = ae != Py_None;
            allowed_end = has_allowed ? ll_of(ae) : 0;
        }
        continue;
    fail_instr:
        Py_XDECREF(instr_ref);
        return -1;
    }
    if (slot_store_ll(core, OFF.gseq, gseq) < 0)
        return -1;
    if (count) {
        if (stat_add(SLOT(ts, OFF.ts_stats), OFF.st_fetched, count) < 0)
            return -1;
        if (fe_was_empty) {
            if (slot_store_ll(core, OFF.dispatch_wake, 0) < 0
                || slot_store_ll(core, OFF.stall_latch_until, 0) < 0
                || slot_store_ll(core, OFF.fe_mask,
                                 slot_ll(core, OFF.fe_mask)
                                     | (1LL << tid)) < 0)
                return -1;
        }
    }
    /* ThreadState._sync_policy_stall acts only when the stall predicate
     * (fetch_index > allowed_end) differs from policy_stalled_flag: call
     * it only then */
    PyObject *ae_now = SLOT(ts, OFF.ts_allowed_end);
    long long ae_v, fi;
    int flip = 1;
    if (ae_now == Py_None)
        flip = slot_true(ts, OFF.ts_policy_stalled_flag);
    else if (obj_fits(ae_now, &ae_v)
             && slot_fits(ts, OFF.ts_fetch_index, &fi))
        flip = (fi > ae_v) != slot_true(ts, OFF.ts_policy_stalled_flag);
    if (flip) {
        PyObject *sargs[1] = {cycle_obj};
        PyObject *r = call_method(ts, g.s_sync_policy_stall, sargs, 1);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    return count;
}

/* ------------------------------------------------------------------ */
/* the fused run loop (SMTCore._run_until's while True body)          */
/* ------------------------------------------------------------------ */

/* SMTCore._next_cycle over the arena: the earliest future cycle at
 * which anything can happen, once the loop has established that nothing
 * can fetch or issue at cycle + 1.  Raises SimulationDeadlock when no
 * future event exists. */
static int next_cycle_c(Ctx *c, long long cycle, long long *out)
{
    Arena *A = c->A;
    long long nxt = cycle + 1;
    long long target = 0;
    int have = 0;
#define CANDIDATE(v) do {              \
        long long v_ = (v);               \
        if (!have || v_ < target)         \
            target = v_;                  \
        have = 1;                         \
    } while (0)
    int wb_full = slot_ll(c->core, OFF.wb_used) >= c->wb_entries;
    Py_ssize_t nt = PyTuple_GET_SIZE(c->threads);
    for (Py_ssize_t i = 0; i < nt; i++) {
        PyObject *ts = PyTuple_GET_ITEM(c->threads, i);
        SlotSeq *window = seq_of(ts, OFF.ts_window);
        SlotSeq *fe = seq_of(ts, OFF.ts_fe_queue);
        if (window == NULL || fe == NULL)
            return -1;
        /* a retirable ROB head (SMTCore._head_retirable) */
        if (window->n > 0) {
            int64_t fl = A->flags[SQ_AT(window, 0)];
            if ((fl & F_COMPLETED) && (!(fl & F_IS_STORE) || !wb_full)) {
                *out = nxt;
                return 0;
            }
        }
        if (fe->n > 0) {
            long long head_ready = A->fe_ready[SQ_AT(fe, 0)];
            if (head_ready <= nxt) {
                *out = nxt;
                return 0;
            }
            CANDIDATE(head_ready);
        }
        long long blocked = slot_ll(ts, OFF.ts_fetch_blocked_until);
        if (blocked > nxt)
            CANDIDATE(blocked);
    }
    IVec *heaps[6] = {&A->ev.marks, &A->ev.over, &A->dt.marks, &A->dt.over,
                      &A->wb_marks, &A->wb_over};
    for (int i = 0; i < 6; i++)
        if (heaps[i]->n > 0)
            CANDIDATE(heaps[i]->v[0]);
#undef CANDIDATE
    if (!have) {
        PyErr_Format(g.deadlock_exc,
                     "no future events at cycle %lld; pipeline is wedged",
                     cycle);
        return -1;
    }
    *out = target <= nxt ? nxt : target;
    return 0;
}

/* The ``policy_fetch_order(cycle)`` fetch path (shared by the base
 * engine's empty-candidates fallback and non-base policies). */
static int fetch_via_policy_order(Ctx *c, long long cycle,
                                  PyObject *cycle_obj,
                                  int base_fallback_wake)
{
    PyObject *order = PyObject_CallOneArg(
        SLOT(c->core, OFF.policy_fetch_order), cycle_obj);
    if (order == NULL)
        return -1;
    int truthy = PyObject_IsTrue(order);
    if (truthy < 0) {
        Py_DECREF(order);
        return -1;
    }
    if (truthy) {
        PyObject *fast = PySequence_Fast(order, "fetch order");
        if (fast == NULL) {
            Py_DECREF(order);
            return -1;
        }
        Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
        long long budget = c->fetch_width;
        long long remaining_threads = c->fetch_max_threads;
        for (Py_ssize_t i = 0; i < n; i++) {
            if (remaining_threads == 0 || budget == 0)
                break;
            remaining_threads -= 1;
            PyObject *pair = PySequence_Fast_GET_ITEM(fast, i);
            PyObject *ts = seq_item(pair, 0);
            int ignore_stall = PyObject_IsTrue(seq_item(pair, 1));
            if (ignore_stall < 0)
                goto fail;
            long long cnt = fetch_thread_c(c, ts, budget, cycle, cycle_obj,
                                           ignore_stall);
            if (cnt < 0)
                goto fail;
            budget -= cnt;
            continue;
        fail:
            Py_DECREF(fast);
            Py_DECREF(order);
            return -1;
        }
        Py_DECREF(fast);
    } else if (base_fallback_wake
               && slot_store_ll(c->core, OFF.fetch_wake, wake_after(
                       c, cycle, OFF.ts_fetch_blocked_until)) < 0) {
        Py_DECREF(order);
        return -1;
    }
    Py_DECREF(order);
    return 0;
}

/* Whether ts could fetch at `cycle` (SMTCore.fetchable): 1, 0, or -1. */
static int fetchable(Ctx *c, PyObject *ts, long long cycle)
{
    if (slot_ll(ts, OFF.ts_fetch_blocked_until) > cycle
        || SLOT(ts, OFF.ts_waiting_branch) != Py_None)
        return 0;
    SlotSeq *fe = seq_of(ts, OFF.ts_fe_queue);
    return fe == NULL ? -1 : fe->n < c->fe_capacity;
}

/* The fetch-selection block of the fused loop. */
static int run_fetch_select(Ctx *c, long long cycle, PyObject *cycle_obj)
{
    if (!c->fetch_order_is_base)
        return fetch_via_policy_order(c, cycle, cycle_obj, 0);
    PyObject *candidates = c->fetch_candidates;
    if (PyList_GET_SIZE(candidates) == 0)
        return fetch_via_policy_order(c, cycle, cycle_obj, 1);
    PyObject *first = NULL;
    PyObject *rest[MAX_THREADS];
    long long rest_icount[MAX_THREADS];
    int rn = 0;
    Py_ssize_t cn = PyList_GET_SIZE(candidates);
    for (Py_ssize_t i = 0; i < cn && rn < MAX_THREADS; i++) {
        PyObject *ts = PyList_GET_ITEM(candidates, i);
        int ok = fetchable(c, ts, cycle);
        if (ok < 0)
            return -1;
        if (ok) {
            if (first == NULL) {
                first = ts;
            } else if (rn == 0) {
                rest[rn++] = first;
                rest[rn++] = ts;
            } else {
                rest[rn++] = ts;
            }
        }
    }
    if (rn == 0) {
        if (first == NULL)
            return slot_store_ll(c->core, OFF.fetch_wake, wake_after(
                                     c, cycle, OFF.ts_fetch_blocked_until));
        if (c->can_fetch_one
            && fetch_thread_c(c, first, c->fetch_width, cycle, cycle_obj,
                              0) < 0)
            return -1;
        return 0;
    }
    /* stable icount sort (matches list.sort(key=_by_icount)) */
    for (int i = 0; i < rn; i++)
        rest_icount[i] = slot_ll(rest[i], OFF.ts_icount);
    for (int i = 1; i < rn; i++) {
        PyObject *ts = rest[i];
        long long ic = rest_icount[i];
        int j = i - 1;
        while (j >= 0 && rest_icount[j] > ic) {
            rest[j + 1] = rest[j];
            rest_icount[j + 1] = rest_icount[j];
            j--;
        }
        rest[j + 1] = ts;
        rest_icount[j + 1] = ic;
    }
    long long budget = c->fetch_width;
    long long remaining_threads = c->fetch_max_threads;
    for (int i = 0; i < rn; i++) {
        if (remaining_threads == 0 || budget == 0)
            break;
        remaining_threads -= 1;
        long long cnt = fetch_thread_c(c, rest[i], budget, cycle,
                                       cycle_obj, 0);
        if (cnt < 0)
            return -1;
        budget -= cnt;
    }
    return 0;
}

/* The core's arena (a new reference), its thread queues checked. */
static Arena *arena_of(PyObject *core)
{
    PyObject *a = SLOT(core, OFF.arena);
    PyObject *threads = SLOT(core, OFF.threads);
    if (a == NULL || !Py_IS_TYPE(a, &Arena_Type) || threads == NULL
        || !PyTuple_Check(threads)
        || PyTuple_GET_SIZE(threads) != ((Arena *)a)->n_threads) {
        PyErr_SetString(PyExc_TypeError, "the core has no usable arena");
        return NULL;
    }
    Arena *A = (Arena *)a;
    for (Py_ssize_t i = 0; i < A->n_threads; i++) {
        PyObject *ts = PyTuple_GET_ITEM(threads, i);
        if (SLOT(ts, OFF.ts_fe_queue) != A->queues[3 * i]
            || SLOT(ts, OFF.ts_window) != A->queues[3 * i + 1]
            || SLOT(ts, OFF.ts_rename_map) != A->queues[3 * i + 2]) {
            PyErr_SetString(PyExc_TypeError,
                            "a cext thread's queues must stay the arena's");
            return NULL;
        }
    }
    Py_INCREF(A);
    return A;
}

static int ctx_init(Ctx *c, PyObject *core)
{
    memset(c, 0, sizeof(*c));
    c->core = core;
    if ((c->A = arena_of(core)) == NULL)
        return -1;
    c->threads = SLOT(core, OFF.threads);
    c->fetch_candidates = SLOT(core, OFF.fetch_candidates);
    c->on_ll_detect = PyObject_GetAttr(SLOT(core, OFF.policy),
                                       g.s_on_ll_detect);
    if (c->on_ll_detect == NULL)
        return -1;
    c->olc_cleanup_only = slot_true(core, OFF.cext_olc_cleanup_only);
    c->ll_detect_is_base = slot_true(core, OFF.cext_ll_detect_is_base);
    c->mask = c->A->wheel - 1;
    c->fetch_width = slot_ll(core, OFF.fetch_width);
    c->fetch_max_threads = slot_ll(core, OFF.fetch_max_threads);
    c->fe_capacity = slot_ll(core, OFF.fe_capacity);
    c->frontend_depth = slot_ll(core, OFF.frontend_depth);
    c->decode_width = slot_ll(core, OFF.decode_width);
    c->commit_width = slot_ll(core, OFF.commit_width);
    c->wb_entries = slot_ll(core, OFF.wb_entries);
    c->line_shift = slot_ll(core, OFF.line_shift);
    c->n_threads = slot_ll(core, OFF.n_threads);
    c->full_mask = slot_ll(core, OFF.full_mask);
    c->rob_size = slot_ll(core, OFF.rob_size);
    c->lsq_size = slot_ll(core, OFF.lsq_size);
    c->int_iq_size = slot_ll(core, OFF.int_iq_size);
    c->fp_iq_size = slot_ll(core, OFF.fp_iq_size);
    c->int_rename_regs = slot_ll(core, OFF.int_rename_regs);
    c->fp_rename_regs = slot_ll(core, OFF.fp_rename_regs);
    c->num_int_alu = slot_ll(core, OFF.num_int_alu);
    c->num_ldst = slot_ll(core, OFF.num_ldst);
    c->num_fp = slot_ll(core, OFF.num_fp);
    c->fast_forward = slot_true(core, OFF.fast_forward);
    c->fetch_order_is_base = slot_true(core, OFF.fetch_order_is_base);
    c->can_fetch_one =
        c->fetch_max_threads >= 1 && c->fetch_width >= 1;
    c->track_dep = slot_true(core, OFF.track_ll_dep);
    mem_fast_init(&c->mf, SLOT(core, OFF.hierarchy));
    return 0;
}

static void ctx_clear(Ctx *c)
{
    Py_CLEAR(c->on_ll_detect);
    Py_CLEAR(c->A);
    mem_fast_clear(&c->mf);
}

/* The entry points' guard: setup() has run and `want` arguments came. */
static int check_args(Py_ssize_t nargs, Py_ssize_t want, const char *sig)
{
    if (!g.ready) {
        PyErr_SetString(PyExc_RuntimeError,
                        "_cext_engine.setup() has not run");
        return -1;
    }
    if (nargs != want) {
        PyErr_SetString(PyExc_TypeError, sig);
        return -1;
    }
    return 0;
}

static PyObject *run_until(PyObject *self, PyObject *const *args,
                           Py_ssize_t nargs)
{
    (void)self;
    if (check_args(nargs, 3, "run_until(core, max_commits, limit)") < 0)
        return NULL;
    PyObject *core = args[0];
    long long max_commits = PyLong_AsLongLong(args[1]);
    long long limit = PyLong_AsLongLong(args[2]);
    if (PyErr_Occurred())
        return NULL;
    Ctx ctx;
    Ctx *c = &ctx;
    if (ctx_init(c, core) < 0)
        goto fail;
    Arena *A = c->A;
    unsigned long loop_n = 0;
    for (;;) {
        if (((++loop_n) & 0xFFF) == 0 && PyErr_CheckSignals() < 0)
            goto fail;
        long long cycle = slot_ll(core, OFF.cycle);
        PyObject *cycle_obj = SLOT(core, OFF.cycle);
        Py_INCREF(cycle_obj);
        /* completion + detection drains */
        if (stage_drain(c, cycle) < 0)
            goto fail_cycle;
        /* write-buffer drain */
        {
            int64_t *cnt = &A->wb_cnt[cycle & c->mask];
            int64_t e;
            if (*cnt) {
                long long wcnt = *cnt;
                *cnt = 0;
                if (stat_add(core, OFF.wb_used, -wcnt) < 0)
                    goto fail_cycle;
                while (A->wb_marks.n && A->wb_marks.v[0] <= cycle)
                    heap_pop(&A->wb_marks, &e, 1);
            }
            while (A->wb_over.n && A->wb_over.v[0] <= cycle) {
                heap_pop(&A->wb_over, &e, 1);
                if (stat_add(core, OFF.wb_used, -1) < 0)
                    goto fail_cycle;
            }
        }
        /* commit */
        if (SLOT(core, OFF.commit_pending) == Py_True
            && stage_commit(c, cycle) < 0)
            goto fail_cycle;
        /* issue */
        if ((A->ready[0].n || A->ready[1].n || A->ready[2].n)
            && stage_issue(c, cycle) < 0)
            goto fail_cycle;
        /* dispatch */
        if (cycle >= slot_ll(core, OFF.dispatch_wake)) {
            if (cycle < slot_ll(core, OFF.stall_latch_until)
                && slot_ll(core, OFF.stall_latch_epoch)
                       == slot_ll(core, OFF.release_epoch)) {
                if (stat_add(SLOT(core, OFF.stats),
                             OFF.cs_resource_stall_cycles, 1) < 0)
                    goto fail_cycle;
            } else if (stage_dispatch(c, cycle, cycle_obj) < 0) {
                goto fail_cycle;
            }
        }
        /* fetch */
        if (cycle >= slot_ll(core, OFF.fetch_wake)
            && run_fetch_select(c, cycle, cycle_obj) < 0)
            goto fail_cycle;
        /* cycle advance / fast-forward */
        {
            /* one cycle on, unless provably nothing can fetch or issue
             * at cycle + 1: then to the next event */
            long long nxt = cycle + 1;
            int step = !c->fast_forward || A->ready[0].n || A->ready[1].n
                || A->ready[2].n;
            if (!step && nxt >= slot_ll(core, OFF.fetch_wake)) {
                if (c->fetch_order_is_base) {
                    PyObject *probe =
                        PyList_GET_SIZE(c->fetch_candidates) > 0
                            ? c->fetch_candidates : c->threads;
                    for (Py_ssize_t i = 0; i < seq_size(probe) && !step; i++)
                        if ((step = fetchable(c, seq_item(probe, i), nxt))
                            < 0)
                            goto fail_cycle;
                } else {
                    PyObject *nxt_obj = box_ll(nxt);
                    PyObject *r = nxt_obj == NULL ? NULL
                        : PyObject_CallOneArg(
                            SLOT(core, OFF.policy_fetch_pending), nxt_obj);
                    Py_XDECREF(nxt_obj);
                    step = r == NULL ? -1 : PyObject_IsTrue(r);
                    Py_XDECREF(r);
                    if (step < 0)
                        goto fail_cycle;
                }
            }
            if ((!step && next_cycle_c(c, cycle, &nxt) < 0)
                || slot_store_ll(core, OFF.cycle, nxt) < 0)
                goto fail_cycle;
            Py_DECREF(cycle_obj);
            if (slot_ll(core, OFF.committed_watermark) >= max_commits) {
                ctx_clear(c);
                Py_RETURN_NONE;
            }
            if (nxt >= limit) {
                PyErr_Format(g.limit_exc,
                             "exceeded %lld cycles without reaching "
                             "%lld commits", limit, max_commits);
                goto fail;
            }
        }
        continue;
    fail_cycle:
        Py_DECREF(cycle_obj);
        goto fail;
    }
fail:
    ctx_clear(c);
    return NULL;
}


/* ------------------------------------------------------------------ */
/* SoAView: the per-slot proxy policies and hooks see                  */
/* ------------------------------------------------------------------ */

/* A view reads and writes its slot through the arena.  Once the slot
 * is reclaimed and refetched its stamp no longer matches and the view
 * is dead: flags then read as the squashed tombstone (squashed True,
 * every other flag False), which is what a policy that kept a record
 * past a flush observes on the object engine; other fields of a dead
 * view are unspecified. */
static int view_live(View *v)
{
    return v->arena != NULL && v->arena->gseq[v->slot] == v->gseq;
}

static Arena *view_arena(PyObject *self)
{
    Arena *A = ((View *)self)->arena;
    if (A == NULL)
        PyErr_SetString(PyExc_RuntimeError, "view of a cleared arena");
    return A;
}

static PyObject *view_get_flag(PyObject *self, void *bit)
{
    View *v = (View *)self;
    if (!view_live(v))
        return PyBool_FromLong((intptr_t)bit == F_SQUASHED);
    return PyBool_FromLong((v->arena->flags[v->slot] & (intptr_t)bit) != 0);
}

/* The arena a setter writes to, or NULL with an error set. */
static Arena *view_target(PyObject *self, PyObject *value)
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete a field");
        return NULL;
    }
    return view_arena(self);
}

static int view_set_flag(PyObject *self, PyObject *value, void *bit)
{
    Arena *A = view_target(self, value);
    int on = A == NULL ? -1 : PyObject_IsTrue(value);
    if (on < 0)
        return -1;
    int64_t *fl = &A->flags[((View *)self)->slot];
    *fl = on ? *fl | (intptr_t)bit : *fl & ~(int64_t)(intptr_t)bit;
    return 0;
}

static PyObject *view_get_icol(PyObject *self, void *col)
{
    Arena *A = view_arena(self);
    return A == NULL ? NULL : PyLong_FromLongLong(
        A->ic[(intptr_t)col][((View *)self)->slot]);
}

static int view_set_icol(PyObject *self, PyObject *value, void *col)
{
    Arena *A = view_target(self, value);
    long long x = A == NULL ? -1 : PyLong_AsLongLong(value);
    if (x == -1 && PyErr_Occurred())
        return -1;
    A->ic[(intptr_t)col][((View *)self)->slot] = x;
    return 0;
}

static PyObject *view_get_ocol(PyObject *self, void *col)
{
    Arena *A = view_arena(self);
    if (A == NULL)
        return NULL;
    PyObject *o = A->oc[(intptr_t)col][((View *)self)->slot];
    o = o == NULL ? Py_None : o;
    Py_INCREF(o);
    return o;
}

static int view_set_ocol(PyObject *self, PyObject *value, void *col)
{
    Arena *A = view_target(self, value);
    if (A == NULL)
        return -1;
    ocol_set(A->oc[(intptr_t)col], ((View *)self)->slot, value);
    return 0;
}

/* The live view of the slot packed stamp `p` denotes, or None. */
static PyObject *view_of_packed(Arena *A, int64_t p)
{
    Py_ssize_t s = (Py_ssize_t)(p & SLOT_MASK);
    if (p < 0 || !current(A, p))
        Py_RETURN_NONE;      /* stale: the slot was reclaimed */
    return ensure_view(A, s);
}

static PyObject *view_get_waiter0(PyObject *self, void *closure)
{
    (void)closure;
    Arena *A = view_arena(self);
    return A == NULL ? NULL
        : view_of_packed(A, A->waiter0[((View *)self)->slot]);
}

/* `waiters` (live ones, as a list) or `ll_parents` (as a tuple). */
static PyObject *view_get_list(PyObject *self, void *parents)
{
    Arena *A = view_arena(self);
    if (A == NULL)
        return NULL;
    IVec *x = parents ? &A->parents[((View *)self)->slot]
                      : &A->waiters[((View *)self)->slot];
    if (x->n == 0)
        Py_RETURN_NONE;
    PyObject *out = PyList_New(0);
    for (Py_ssize_t i = 0; out != NULL && i < x->n; i++) {
        PyObject *v = parents ? ensure_view(A, (Py_ssize_t)x->v[i])
                              : view_of_packed(A, x->v[i]);
        if (v == NULL || (v != Py_None && PyList_Append(out, v) < 0))
            Py_CLEAR(out);
        Py_XDECREF(v);
    }
    if (out != NULL && parents)
        Py_SETREF(out, PyList_AsTuple(out));
    return out;
}

static PyObject *view_get_old_map(PyObject *self, void *closure)
{
    (void)closure;
    Arena *A = view_arena(self);
    if (A == NULL)
        return NULL;
    int64_t s = A->old_map[((View *)self)->slot];
    if (s < 0)
        Py_RETURN_NONE;
    return ensure_view(A, (Py_ssize_t)s);
}

static PyObject *view_get_slot(PyObject *self, void *closure)
{
    (void)closure;
    return PyLong_FromSsize_t(((View *)self)->slot);
}

static PyObject *view_get_live(PyObject *self, void *closure)
{
    (void)closure;
    return PyBool_FromLong(view_live((View *)self));
}

#define VFLAG(name, bit) \
    {name, view_get_flag, view_set_flag, NULL, (void *)(intptr_t)(bit)}
#define VICOL(name, col) \
    {name, view_get_icol, view_set_icol, NULL, (void *)(intptr_t)(col)}
#define VOCOL(name, col) \
    {name, view_get_ocol, view_set_ocol, NULL, (void *)(intptr_t)(col)}
#define VLINK(name, get, arg) {name, get, NULL, NULL, (void *)(arg)}

/* Every DynInstr field (engine-parity-lint checks the coverage). */
static PyGetSetDef View_getset[] = {
    VOCOL("instr", O_INSTR), VICOL("thread", C_THREAD),
    VICOL("seq", C_SEQ), VICOL("gseq", C_GSEQ),
    VICOL("pending", C_PENDING), VICOL("fe_ready", C_FE_READY),
    VICOL("refs", C_REFS), VOCOL("predicted_ll", O_PRED_LL),
    VOCOL("fill_line", O_FILL_LINE), VOCOL("level", O_LEVEL),
    VFLAG("in_iq", F_IN_IQ), VFLAG("iq_is_fp", F_IQ_FP),
    VFLAG("issued", F_ISSUED), VFLAG("completed", F_COMPLETED),
    VFLAG("has_dest", F_HAS_DEST), VFLAG("dest_fp", F_DEST_FP),
    VFLAG("squashed", F_SQUASHED), VFLAG("is_load", F_IS_LOAD),
    VFLAG("is_store", F_IS_STORE), VFLAG("is_branch", F_IS_BRANCH),
    VFLAG("is_ll", F_IS_LL), VFLAG("inv", F_INV),
    VFLAG("ll_dep", F_LL_DEP), VFLAG("retired", F_RETIRED),
    VFLAG("in_detects", F_IN_DETECTS),
    VLINK("waiter0", view_get_waiter0, 0),
    VLINK("waiters", view_get_list, 0),
    VLINK("old_map", view_get_old_map, 0),
    VLINK("ll_parents", view_get_list, 1),
    VLINK("slot", view_get_slot, 0), VLINK("live", view_get_live, 0),
    {NULL, NULL, NULL, NULL, NULL},
};

static PyObject *view_repr(PyObject *self)
{
    View *v = (View *)self;
    if (!view_live(v))
        return PyUnicode_FromFormat("<SoAView s%zd dead>", v->slot);
    int64_t fl = v->arena->flags[v->slot];
    return PyUnicode_FromFormat(
        "<SoAView s%zd t%lld #%lld %s%s%s%s%s>", v->slot,
        (long long)v->arena->thread[v->slot],
        (long long)v->arena->seq[v->slot], fl & F_IN_IQ ? "Q" : "",
        fl & F_ISSUED ? "I" : "", fl & F_COMPLETED ? "C" : "",
        fl & F_SQUASHED ? "X" : "", fl & F_IS_LL ? "L" : "");
}

static int view_traverse(PyObject *self, visitproc visit, void *arg)
{
    Py_VISIT(((View *)self)->arena);
    return 0;
}

static int view_clear(PyObject *self)
{
    Py_CLEAR(((View *)self)->arena);
    return 0;
}

static void view_dealloc(PyObject *self)
{
    PyObject_GC_UnTrack(self);
    view_clear(self);
    PyObject_GC_Del(self);
}

static PyTypeObject View_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.pipeline._cext_engine.SoAView",
    .tp_doc = "One arena slot presented as a DynInstr (created lazily, at "
              "most one per dynamic instruction).",
    .tp_basicsize = sizeof(View),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_dealloc = view_dealloc,
    .tp_traverse = view_traverse,
    .tp_clear = view_clear,
    .tp_repr = view_repr,
    .tp_getset = View_getset,
};

/* ------------------------------------------------------------------ */
/* the arena's Python surface: views, flush, checks, state            */
/* ------------------------------------------------------------------ */

static PyObject *Arena_view(PyObject *self, PyObject *arg)
{
    Arena *A = (Arena *)self;
    Py_ssize_t s = PyLong_AsSsize_t(arg);
    if (s == -1 && PyErr_Occurred())
        return NULL;
    if (s < 0 || s >= A->cap) {
        PyErr_SetString(PyExc_IndexError, "slot out of range");
        return NULL;
    }
    return ensure_view(A, s);
}

/* Whether `core` runs on arena A (and `ts`, unless NULL, is one of its
 * threads); 0 with an error set when not. */
static int owns(Arena *A, PyObject *core, PyObject *ts)
{
    Arena *own = arena_of(core);
    Py_XDECREF(own);
    if (own == NULL)
        return 0;
    PyObject *threads = SLOT(core, OFF.threads);
    int mine = own == A && ts == NULL;
    for (Py_ssize_t i = 0; own == A && i < PyTuple_GET_SIZE(threads); i++)
        mine |= PyTuple_GET_ITEM(threads, i) == ts;
    if (!mine)
        PyErr_SetString(PyExc_ValueError, "not this arena's core or thread");
    return mine;
}

/* flush(core, ts, after_seq, cancel_fills) -> squashed: SMTCore.
 * flush_thread over the arena.  Squashed slots are reclaimed here
 * unless a queued event (the completion of a counted miss, a pending
 * detection) or a policy ownership still needs them; those free at
 * their drains. */
static PyObject *Arena_flush(PyObject *self, PyObject *const *args,
                             Py_ssize_t nargs)
{
    Arena *A = (Arena *)self;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "flush(core, ts, after_seq, cancel_fills)");
        return NULL;
    }
    PyObject *core = args[0], *ts = args[1];
    long long after_seq = PyLong_AsLongLong(args[2]);
    int cancel = PyObject_IsTrue(args[3]);
    if ((after_seq == -1 && PyErr_Occurred()) || cancel < 0
        || !owns(A, core, ts))
        return NULL;
    SlotSeq *fe = seq_of(ts, OFF.ts_fe_queue);
    SlotSeq *window = seq_of(ts, OFF.ts_window);
    SlotSeq *rename_map = seq_of(ts, OFF.ts_rename_map);
    if (fe == NULL || window == NULL || rename_map == NULL)
        return NULL;
    long long squashed = 0, icount_delta = 0;
    while (fe->n && A->seq[SQ_AT(fe, fe->n - 1)] > after_seq) {
        /* never dispatched: still pristine but for a possible view, and
         * only a policy's fetch-gating ownership can still reach it */
        Py_ssize_t s = (Py_ssize_t)SQ_AT(fe, fe->n - 1);
        fe->n--;
        icount_delta++;
        squashed++;
        A->flags[s] |= F_SQUASHED;
        if (free_unowned(A, s, A->flags[s], ts) < 0)
            return NULL;
    }
    PyObject *cycle_obj = SLOT(core, OFF.cycle);
    long long cycle = ll_of(cycle_obj);
    /* rob, lsq, iq, fq, int regs, fp regs released */
    long long d[6] = {0, 0, 0, 0, 0, 0};
    while (window->n && A->seq[SQ_AT(window, window->n - 1)] > after_seq) {
        Py_ssize_t s = (Py_ssize_t)SQ_AT(window, window->n - 1);
        window->n--;
        int64_t fl = A->flags[s] | F_SQUASHED;
        squashed++;
        PyObject *fill = A->fill_line[s];
        if (cancel && fill != NULL && !(fl & F_COMPLETED)) {
            PyObject *cargs[3] = {fill, SLOT(A->instr[s], OFF.in_addr),
                                  cycle_obj};
            Py_INCREF(fill);
            PyObject *r = call_method(SLOT(core, OFF.hierarchy),
                                      g.s_cancel_fill, cargs, 3);
            Py_DECREF(fill);
            if (r == NULL)
                return NULL;
            Py_DECREF(r);
        }
        d[0]++;
        if (fl & F_MEM)
            d[1]++;
        if (fl & F_IN_IQ) {
            fl &= ~F_IN_IQ;
            icount_delta++;
            d[fl & F_IQ_FP ? 3 : 2]++;
        }
        if (fl & F_HAS_DEST) {
            /* undo the rename: the old mapping becomes current again;
             * the squashed slot drops its own current-entry ref */
            rename_map->v[slot_ll(A->instr[s], OFF.in_dest)] = A->old_map[s];
            A->refs[s]--;
            d[fl & F_DEST_FP ? 5 : 4]++;
        }
        Py_ssize_t pn = A->parents[s].n;
        int64_t parents[MAX_SRCS];
        if (pn)
            memcpy(parents, A->parents[s].v, pn * sizeof(int64_t));
        A->parents[s].n = 0;
        for (Py_ssize_t i = 0; i < pn; i++) {
            Py_ssize_t p = (Py_ssize_t)parents[i];
            int64_t pfl = A->flags[p];
            if (!--A->refs[p] && (pfl & F_RETIRED)
                && !(pfl & (F_IN_DETECTS | F_FREED))
                && free_unowned(A, p, pfl, ts) < 0)
                return NULL;
        }
        int owner = owned(A, s, ts);
        if (owner < 0)
            return NULL;
        if (owner) {
            PyObject *oargs[2] = {A->views[s], cycle_obj};
            PyObject *r = call_method(ts, g.s_clear_owner, oargs, 2);
            if (r == NULL)
                return NULL;
            Py_DECREF(r);
        }
        /* a live producer may still hold this slot's waiter
         * registration: the drains defuse it on F_FREED */
        if (!A->refs[s] && A->pending[s] != -1
            && !(fl & (F_IN_DETECTS | F_FREED))) {
            if (arena_free(A, s, fl) < 0)
                return NULL;
        } else {
            A->flags[s] = fl;
        }
    }
    static const Py_ssize_t *ts_offs[6] = {
        &OFF.ts_rob_count, &OFF.ts_lsq_count, &OFF.ts_iq_count,
        &OFF.ts_fq_count, &OFF.ts_int_regs, &OFF.ts_fp_regs};
    static const Py_ssize_t *core_offs[6] = {
        &OFF.rob_used, &OFF.lsq_used, &OFF.iq_used, &OFF.fq_used,
        &OFF.int_regs_used, &OFF.fp_regs_used};
    for (int i = 0; i < 6; i++)
        if (d[i] && (stat_add(ts, *ts_offs[i], -d[i]) < 0
                     || stat_add(core, *core_offs[i], -d[i]) < 0))
            return NULL;
    if (icount_delta && stat_add(ts, OFF.ts_icount, -icount_delta) < 0)
        return NULL;
    PyObject *st = SLOT(ts, OFF.ts_stats);
    PyObject *wb = SLOT(ts, OFF.ts_waiting_branch);
    if (wb != Py_None && (A->flags[ll_of(wb)] & F_SQUASHED)) {
        Py_INCREF(Py_None);
        slot_store(ts, OFF.ts_waiting_branch, Py_None);
        if (stat_add(st, OFF.st_branch_stall_cycles,
                     cycle - slot_ll(ts, OFF.ts_branch_wait_since)) < 0)
            return NULL;
    }
    long long bit = slot_ll(ts, OFF.ts_tid_bit);
    int head = window->n && (A->flags[SQ_AT(window, 0)] & F_COMPLETED);
    slot_store_bool(ts, OFF.ts_head_ready, head);
    long long heads = slot_ll(core, OFF.heads_mask);
    long long fem = slot_ll(core, OFF.fe_mask);
    if (slot_store_ll(ts, OFF.ts_fetch_index, after_seq + 1) < 0
        || slot_store_ll(ts, OFF.ts_last_ifetch_line, -1) < 0
        || slot_store_ll(core, OFF.heads_mask,
                         head ? heads | bit : heads & ~bit) < 0
        || slot_store_ll(core, OFF.fe_mask,
                         fe->n ? fem | bit : fem & ~bit) < 0
        || stat_add(st, OFF.st_squashed, squashed) < 0
        || stat_add(st, OFF.st_flushes, 1) < 0
        || stat_add(core, OFF.release_epoch, 1) < 0
        || slot_store_ll(core, OFF.fetch_wake, 0) < 0
        || slot_store_ll(core, OFF.dispatch_wake, 0) < 0
        || slot_store_ll(core, OFF.stall_latch_until, 0) < 0)
        return NULL;
    PyObject *sargs[1] = {cycle_obj};
    PyObject *r = call_method(ts, g.s_sync_policy_stall, sargs, 1);
    if (r == NULL)
        return NULL;
    Py_DECREF(r);
    return PyLong_FromLongLong(squashed);
}

/* The reachability scan of check(): mark slot s (and queue it). */
static void reach(Arena *A, unsigned char *live, IVec *pend, int64_t s)
{
    if (s >= 0 && s < A->cap && !live[s]) {
        live[s] = 1;
        pend->v[pend->n++] = s;    /* capacity: one entry per slot */
    }
}

/* A packed stamp reaches its slot while the stamp is current. */
static void reach_packed(Arena *A, unsigned char *live, IVec *pend,
                         int64_t p)
{
    if (p >= 0 && current(A, p))
        reach(A, live, pend, p & SLOT_MASK);
}

/* Every SoAView reachable from `o` through plain containers, bounded
 * at depth 4 (policy-held views: ll_owners, policy_data). */
static int reach_views(Arena *A, unsigned char *live, IVec *pend,
                       PyObject *o, int depth)
{
    if (Py_IS_TYPE(o, &View_Type)) {
        reach(A, live, pend, ((View *)o)->slot);
        return 0;
    }
    if (depth >= 4)
        return 0;
    if (PyDict_Check(o)) {
        Py_ssize_t pos = 0;
        PyObject *k, *v;
        while (PyDict_Next(o, &pos, &k, &v))
            if (reach_views(A, live, pend, k, depth + 1) < 0
                || reach_views(A, live, pend, v, depth + 1) < 0)
                return -1;
    } else if (PyList_Check(o) || PyTuple_Check(o) || PyAnySet_Check(o)) {
        PyObject *it = PyObject_GetIter(o), *x;
        if (it == NULL)
            return -1;
        while ((x = PyIter_Next(it)) != NULL) {
            int rc = reach_views(A, live, pend, x, depth + 1);
            Py_DECREF(x);
            if (rc < 0)
                break;
        }
        Py_DECREF(it);
        if (PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* The pristine-slot contract the allocation path relies on: the first
 * dirty column of free slot s, or NULL (value/expected via out). */
static const char *dirty_column(Arena *A, Py_ssize_t s, long long *value,
                                long long *expected)
{
    static const int cols[4] = {C_PENDING, C_REFS, C_WAITER0, C_OLD_MAP};
    for (int i = 0; i < 4; i++) {
        *expected = ICOL_INIT[cols[i]];
        if ((*value = A->ic[cols[i]][s]) != *expected)
            return ICOL_NAMES[cols[i]];
    }
    *expected = 0;
    if ((*value = A->waiters[s].n))
        return "waiters";
    if ((*value = A->parents[s].n))
        return "ll_parents";
    *value = 1;
    if (A->fill_line[s] != NULL)
        return "fill_line";
    if (A->views[s] != NULL)
        return "views";
    return NULL;
}

/* check(core) -> str | None: the sanitizer's arena check at a
 * measurement boundary (see sanitize.py): wheel monotonicity, the free
 * list (no duplicate, every entry F_FREED and pristine, every F_FREED
 * slot on it) and the leak scan from the live roots. */
static PyObject *Arena_check(PyObject *self, PyObject *core)
{
    Arena *A = (Arena *)self;
    if (!owns(A, core, NULL))
        return NULL;
    long long cycle = slot_ll(core, OFF.cycle);
    IVec *marks[3] = {&A->ev.marks, &A->dt.marks, &A->wb_marks};
    IVec *over[3] = {&A->ev.over, &A->dt.over, &A->wb_over};
    static const char *names[3] = {"ev", "dt", "wb"};
    for (int i = 0; i < 3; i++) {
        if (marks[i]->n && marks[i]->v[0] < cycle)
            return PyUnicode_FromFormat(
                "event wheel non-monotonic: %s_marks[0]=%lld is before "
                "cycle %lld (skipped bucket)", names[i],
                (long long)marks[i]->v[0], cycle);
        if (over[i]->n && over[i]->v[0] < cycle)
            return PyUnicode_FromFormat(
                "event wheel non-monotonic: %s_over head due at %lld is "
                "before cycle %lld", names[i], (long long)over[i]->v[0],
                cycle);
    }
    PyObject *msg = NULL;
    unsigned char *on_free = PyMem_Calloc((size_t)A->cap, 2);
    IVec pend = {PyMem_Malloc((size_t)A->cap * sizeof(int64_t)), 0, A->cap};
    if (on_free == NULL || pend.v == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    unsigned char *live = on_free + A->cap;
    for (Py_ssize_t i = 0; i < A->free.n; i++) {
        int64_t s = A->free.v[i];
        if (s < 0 || s >= A->cap || on_free[s]) {
            msg = PyUnicode_FromFormat(
                "double free: slot %lld is on the arena free list twice "
                "(cycle %lld)", (long long)s, cycle);
            goto done;
        }
        on_free[s] = 1;
    }
    for (Py_ssize_t i = 0; i < A->free.n; i++) {
        Py_ssize_t s = (Py_ssize_t)A->free.v[i];
        long long value, expected;
        const char *col;
        if (!(A->flags[s] & F_FREED)) {
            msg = PyUnicode_FromFormat(
                "boundary at cycle %lld: slot %zd is on the free list "
                "without F_FREED", cycle, s);
            goto done;
        }
        if ((col = dirty_column(A, s, &value, &expected)) != NULL) {
            msg = PyUnicode_FromFormat(
                "boundary at cycle %lld: freed slot %zd is not pristine: "
                "%s[%zd] == %lld (expected %lld)", cycle, s, col, s, value,
                expected);
            goto done;
        }
    }
    /* the live roots: thread queues, rename maps, waiting branches,
     * policy-held views, queued events and ready entries */
    PyObject *threads = SLOT(core, OFF.threads);
    for (Py_ssize_t t = 0; t < A->n_threads; t++) {
        PyObject *ts = PyTuple_GET_ITEM(threads, t);
        for (int k = 0; k < 3; k++) {
            SlotSeq *q = (SlotSeq *)A->queues[3 * t + k];
            for (Py_ssize_t i = 0; i < q->n; i++)
                reach(A, live, &pend, SQ_AT(q, i));
        }
        PyObject *wb = SLOT(ts, OFF.ts_waiting_branch);
        if (wb != Py_None)
            reach(A, live, &pend, ll_of(wb));
        if (reach_views(A, live, &pend, SLOT(ts, OFF.ts_ll_owners), 0) < 0
            || reach_views(A, live, &pend, SLOT(ts, OFF.ts_policy_data),
                           0) < 0)
            goto done;
    }
    for (Py_ssize_t b = 0; b < A->wheel; b++)
        for (int k = 0; k < 2; k++) {
            Wheel *w = k ? &A->dt : &A->ev;
            for (int64_t e = w->head[b]; e >= 0; e = w->pool.v[2 * e + 1])
                reach_packed(A, live, &pend, w->pool.v[2 * e]);
        }
    for (int k = 0; k < 2; k++)
        for (Py_ssize_t i = 1; i < over[k]->n; i += 2)
            reach_packed(A, live, &pend, over[k]->v[i]);
    for (int k = 0; k < 3; k++)
        for (Py_ssize_t i = 0; i < A->ready[k].n; i++)
            reach_packed(A, live, &pend, A->ready[k].v[i]);
    /* ... and everything they reach */
    while (pend.n) {
        Py_ssize_t s = (Py_ssize_t)pend.v[--pend.n];
        reach(A, live, &pend, A->old_map[s]);
        reach_packed(A, live, &pend, A->waiter0[s]);
        for (Py_ssize_t i = 0; i < A->waiters[s].n; i++)
            reach_packed(A, live, &pend, A->waiters[s].v[i]);
        for (Py_ssize_t i = 0; i < A->parents[s].n; i++)
            reach(A, live, &pend, A->parents[s].v[i]);
    }
    for (Py_ssize_t s = 0; s < A->cap; s++) {
        if ((A->flags[s] & F_FREED) && !on_free[s]) {
            msg = PyUnicode_FromFormat(
                "boundary at cycle %lld: slot %zd has F_FREED but is not "
                "on the free list (lost to the allocator)", cycle, s);
            goto done;
        }
        if (!(A->flags[s] & F_FREED) && !live[s]) {
            msg = PyUnicode_FromFormat(
                "boundary at cycle %lld: leak: slot %zd (t%lld#%lld) is "
                "neither freed nor reachable from any live root", cycle, s,
                (long long)A->thread[s], (long long)A->seq[s]);
            goto done;
        }
    }
    msg = Py_None;
    Py_INCREF(msg);
done:
    PyMem_Free(on_free);
    PyMem_Free(pend.v);
    return msg;
}

/* arena[name] / arena[name] = values: the arena's state as Python
 * lists, for tests and diagnostics: a column, waiters, ll_parents, the
 * free list or a ready or mark heap. */
typedef struct {
    int kind;       /* 0 int column, 1 object column, 2 per-slot lists,
                     * 3 int vector */
    int idx;
    IVec *vec;
} Field;

static int arena_field(Arena *A, PyObject *key, Field *f)
{
    const char *name = PyUnicode_Check(key) ? PyUnicode_AsUTF8(key) : NULL;
    memset(f, 0, sizeof(*f));
    for (int k = 0; name != NULL && k < N_ICOLS; k++)
        if (!strcmp(name, ICOL_NAMES[k])) {
            f->idx = k;
            return 0;
        }
    for (int k = 0; name != NULL && k < N_OCOLS; k++)
        if (!strcmp(name, OCOL_NAMES[k])) {
            f->kind = 1;
            f->idx = k;
            return 0;
        }
    struct { const char *name; int kind, idx; IVec *vec; } named[] = {
        {"waiters", 2, 0, NULL}, {"ll_parents", 2, 1, NULL},
        {"free", 3, 0, &A->free}, {"ready_int", 3, 0, &A->ready[0]},
        {"ready_ldst", 3, 0, &A->ready[1]},
        {"ready_fp", 3, 0, &A->ready[2]},
        {"ev_marks", 3, 0, &A->ev.marks}, {"dt_marks", 3, 0, &A->dt.marks},
        {"wb_marks", 3, 0, &A->wb_marks}, {"wb_over", 3, 0, &A->wb_over},
    };
    for (size_t k = 0; name != NULL && k < sizeof(named) / sizeof(*named);
         k++)
        if (!strcmp(name, named[k].name)) {
            f->kind = named[k].kind;
            f->idx = named[k].idx;
            f->vec = named[k].vec;
            return 0;
        }
    PyErr_SetObject(PyExc_KeyError, key);
    return -1;
}

static PyObject *ivec_list(const int64_t *v, Py_ssize_t n)
{
    PyObject *out = PyList_New(n);
    for (Py_ssize_t i = 0; out != NULL && i < n; i++) {
        PyObject *x = PyLong_FromLongLong(v[i]);
        if (x == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, x);
    }
    return out;
}

static PyObject *Arena_getitem(PyObject *self, PyObject *key)
{
    Arena *A = (Arena *)self;
    Field f;
    if (arena_field(A, key, &f) < 0)
        return NULL;
    if (f.kind == 0 || f.kind == 3)
        return f.kind ? ivec_list(f.vec->v, f.vec->n)
                      : ivec_list(A->ic[f.idx], A->cap);
    PyObject *out = PyList_New(A->cap);
    for (Py_ssize_t i = 0; out != NULL && i < A->cap; i++) {
        PyObject *x;
        if (f.kind == 1) {
            x = A->oc[f.idx][i] ? A->oc[f.idx][i] : Py_None;
            Py_INCREF(x);
        } else {
            IVec *l = f.idx ? &A->parents[i] : &A->waiters[i];
            if (l->n == 0) {
                x = Py_None;
                Py_INCREF(x);
            } else {
                x = ivec_list(l->v, l->n);
                if (x != NULL && f.idx)
                    Py_SETREF(x, PyList_AsTuple(x));
            }
        }
        if (x == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, x);
    }
    return out;
}

/* Plant an int column (a list of one value per slot) or an int vector
 * (the free list, a ready or mark heap: any list of ints, in heap order
 * for a heap).  Nothing is written unless every value is valid. */
static int Arena_setitem(PyObject *self, PyObject *key, PyObject *value)
{
    Arena *A = (Arena *)self;
    Field f;
    if (arena_field(A, key, &f) < 0)
        return -1;
    Py_ssize_t n = value != NULL && PyList_Check(value)
        ? PyList_GET_SIZE(value) : -1;
    if ((f.kind != 0 && f.kind != 3) || n < 0
        || (f.kind == 0 && n != A->cap)) {
        PyErr_Format(PyExc_TypeError, "cannot assign %R like that", key);
        return -1;
    }
    int64_t *vals = PyMem_Malloc((size_t)(n + 1) * sizeof(int64_t));
    if (vals == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    int rc = 0;
    for (Py_ssize_t i = 0; i < n && rc == 0; i++) {
        vals[i] = PyLong_AsLongLong(PyList_GET_ITEM(value, i));
        if (vals[i] == -1 && PyErr_Occurred())
            rc = -1;
        else if (f.vec == &A->free && (vals[i] < 0 || vals[i] >= A->cap)) {
            PyErr_SetString(PyExc_ValueError, "free slot out of range");
            rc = -1;
        }
    }
    if (rc == 0 && f.kind == 3)
        rc = ivec_reserve(f.vec, n);
    if (rc == 0 && n)
        memcpy(f.kind == 0 ? A->ic[f.idx] : f.vec->v, vals,
               (size_t)n * sizeof(int64_t));
    if (rc == 0 && f.kind == 3)
        f.vec->n = n;
    PyMem_Free(vals);
    return rc;
}

static PyMappingMethods Arena_as_mapping = {
    .mp_subscript = Arena_getitem,
    .mp_ass_subscript = Arena_setitem,
};

static PyMethodDef Arena_methods[] = {
    {"view", Arena_view, METH_O,
     "view(slot) -> the slot's cached SoAView."},
    {"flush", (PyCFunction)(void (*)(void))Arena_flush, METH_FASTCALL,
     "flush(core, ts, after_seq, cancel_fills) -> squashed count."},
    {"check", Arena_check, METH_O,
     "check(core) -> the first arena invariant violated, or None."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject Arena_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.pipeline._cext_engine.Arena",
    .tp_doc = "Arena(threads, wheel, op_classes): a cext core's slot "
              "state in native memory; it takes over each thread's "
              "fe_queue, window and rename_map.",
    .tp_basicsize = sizeof(Arena),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = Arena_new,
    .tp_dealloc = Arena_dealloc,
    .tp_traverse = Arena_traverse,
    .tp_clear = Arena_clear,
    .tp_as_mapping = &Arena_as_mapping,
    .tp_methods = Arena_methods,
};

/* ------------------------------------------------------------------ */
/* setup: resolve slot offsets from the classes the driver passes in   */
/* ------------------------------------------------------------------ */

struct OffSpec {
    const char *cls;
    const char *name;
    size_t field;
};

#define O(cls, name, field) {cls, name, offsetof(Offsets, field)}

static const struct OffSpec SPECS[] = {
    O("core", "cycle", cycle), O("core", "_gseq", gseq),
    O("core", "_arena", arena), O("core", "_wb_used", wb_used),
    O("core", "threads", threads), O("core", "policy", policy),
    O("core", "stats", stats),
    O("core", "_policy_fetch_order", policy_fetch_order),
    O("core", "_policy_fetch_pending", policy_fetch_pending),
    O("core", "_policy_can_dispatch", policy_can_dispatch),
    O("core", "_policy_on_fetch", policy_on_fetch),
    O("core", "_policy_on_fetch_load", policy_on_fetch_load),
    O("core", "_policy_on_load_complete", policy_on_load_complete),
    O("core", "_policy_on_resource_stall", policy_on_resource_stall),
    O("core", "hierarchy", hierarchy),
    O("core", "_hier_load", hier_load), O("core", "_hier_ifetch", hier_ifetch),
    O("core", "_hier_store", hier_store),
    O("core", "gshare", gshare), O("core", "btb", btb),
    O("core", "_n_threads", n_threads), O("core", "_full_mask", full_mask),
    O("core", "_fe_mask", fe_mask), O("core", "_heads_mask", heads_mask),
    O("core", "_rotations", rotations), O("core", "_rot_cache", rot_cache),
    O("core", "_fetch_candidates", fetch_candidates),
    O("core", "_fetch_wake", fetch_wake),
    O("core", "_dispatch_wake", dispatch_wake),
    O("core", "_stall_latch_until", stall_latch_until),
    O("core", "_stall_latch_epoch", stall_latch_epoch),
    O("core", "_release_epoch", release_epoch),
    O("core", "_committed_watermark", committed_watermark),
    O("core", "_commit_pending", commit_pending),
    O("core", "_measure_start", measure_start),
    O("core", "_fetch_width", fetch_width),
    O("core", "_fetch_max_threads", fetch_max_threads),
    O("core", "_fast_forward", fast_forward),
    O("core", "_fetch_order_is_base", fetch_order_is_base),
    O("core", "_fe_capacity", fe_capacity),
    O("core", "_frontend_depth", frontend_depth),
    O("core", "_decode_width", decode_width),
    O("core", "_commit_width", commit_width),
    O("core", "_line_shift", line_shift),
    O("core", "_rob_size", rob_size), O("core", "_lsq_size", lsq_size),
    O("core", "_int_iq_size", int_iq_size),
    O("core", "_fp_iq_size", fp_iq_size),
    O("core", "_int_rename_regs", int_rename_regs),
    O("core", "_fp_rename_regs", fp_rename_regs),
    O("core", "_wb_entries", wb_entries),
    O("core", "rob_used", rob_used), O("core", "lsq_used", lsq_used),
    O("core", "iq_used", iq_used), O("core", "fq_used", fq_used),
    O("core", "int_regs_used", int_regs_used),
    O("core", "fp_regs_used", fp_regs_used),
    O("core", "_num_int_alu", num_int_alu), O("core", "_num_ldst", num_ldst),
    O("core", "_num_fp", num_fp),
    O("core", "_track_ll_dep", track_ll_dep),
    O("core", "_cext_olc_cleanup_only", cext_olc_cleanup_only),
    O("core", "_cext_ll_detect_is_base", cext_ll_detect_is_base),
    O("ts", "tid", ts_tid), O("ts", "tid_bit", ts_tid_bit),
    O("ts", "icount", ts_icount), O("ts", "rob_count", ts_rob_count),
    O("ts", "lsq_count", ts_lsq_count), O("ts", "iq_count", ts_iq_count),
    O("ts", "fq_count", ts_fq_count), O("ts", "int_regs", ts_int_regs),
    O("ts", "fp_regs", ts_fp_regs),
    O("ts", "fetch_blocked_until", ts_fetch_blocked_until),
    O("ts", "waiting_branch", ts_waiting_branch),
    O("ts", "branch_wait_since", ts_branch_wait_since),
    O("ts", "allowed_end", ts_allowed_end),
    O("ts", "ll_owners", ts_ll_owners),
    O("ts", "policy_data", ts_policy_data),
    O("ts", "last_ifetch_line", ts_last_ifetch_line),
    O("ts", "outstanding_misses", ts_outstanding_misses),
    O("ts", "stats", ts_stats), O("ts", "commit_cycles", ts_commit_cycles),
    O("ts", "fe_queue", ts_fe_queue), O("ts", "window", ts_window),
    O("ts", "rename_map", ts_rename_map),
    O("ts", "fetch_index", ts_fetch_index),
    O("ts", "head_ready", ts_head_ready),
    O("ts", "dispatch_blocked_head", ts_dispatch_blocked_head),
    O("ts", "dispatch_blocked_epoch", ts_dispatch_blocked_epoch),
    O("ts", "dispatch_wait_until", ts_dispatch_wait_until),
    O("ts", "trace_get", ts_trace_get),
    O("ts", "lll_predict", ts_lll_predict),
    O("ts", "pc_origin", ts_pc_origin),
    O("ts", "llsr_commit", ts_llsr_commit),
    O("ts", "llsr_commit_zeros", ts_llsr_commit_zeros),
    O("ts", "trace_static", ts_trace_static),
    O("ts", "trace_body_len", ts_trace_body_len),
    O("ts", "llsr_zeros", ts_llsr_zeros),
    O("ts", "trace_flags", ts_trace_flags),
    O("ts", "lll_pred", ts_lll_pred),
    O("ts", "trace", ts_trace), O("ts", "llsr", ts_llsr),
    O("ts", "policy_stalled_flag", ts_policy_stalled_flag),
    O("stats", "fetched", st_fetched), O("stats", "committed", st_committed),
    O("stats", "squashed", st_squashed), O("stats", "flushes", st_flushes),
    O("stats", "loads_executed", st_loads_executed),
    O("stats", "ll_loads", st_ll_loads),
    O("stats", "branch_stall_cycles", st_branch_stall_cycles),
    O("stats", "lll_pred_loads", st_lll_pred_loads),
    O("stats", "lll_pred_correct", st_lll_pred_correct),
    O("stats", "lll_pred_miss_actual", st_lll_pred_miss_actual),
    O("stats", "lll_pred_miss_correct", st_lll_pred_miss_correct),
    O("core_stats", "resource_stall_cycles", cs_resource_stall_cycles),
    O("instr", "pc", in_pc), O("instr", "dest", in_dest),
    O("instr", "srcs", in_srcs), O("instr", "addr", in_addr),
    O("instr", "taken", in_taken), O("instr", "has_dest", in_has_dest),
    O("instr", "dest_fp", in_dest_fp), O("instr", "is_load", in_is_load),
    O("instr", "is_store", in_is_store),
    O("instr", "is_branch", in_is_branch),
    O("instr", "op_i", in_op_i), O("instr", "fp_queue", in_fp_queue),
    O("instr", "latency", in_latency),
    O("result", "complete_cycle", ar_complete_cycle),
    O("result", "detect_cycle", ar_detect_cycle),
    O("result", "level", ar_level),
    O("result", "long_latency", ar_long_latency),
    O("result", "trigger", ar_trigger),
    O("result", "fill_line", ar_fill_line),
    O("llsr", "length", ll_length), O("llsr", "_bits", ll_bits),
    O("llsr", "_pcs", ll_pcs), O("llsr", "_head", ll_head),
    O("llsr", "_filled", ll_filled), O("llsr", "_total", ll_total),
    O("llsr", "_last_one_total", ll_last_one_total),
    O("llsr", "_on_measure", ll_on_measure),
    O("llsr", "measured", ll_measured),
    O("hier", "_pending", mh_pending), O("hier", "l1i", mh_l1i),
    O("hier", "l1d", mh_l1d), O("hier", "itlb", mh_itlb),
    O("hier", "dtlb", mh_dtlb), O("hier", "prefetcher", mh_prefetcher),
    O("hier", "demand_loads", mh_demand_loads),
    O("hier", "_l1_latency", mh_l1_latency),
    O("hier", "_l2_latency", mh_l2_latency),
    O("cache", "_sets", ca_sets), O("cache", "_num_sets", ca_num_sets),
    O("cache", "_line_shift", ca_line_shift), O("cache", "hits", ca_hits),
    O("tlb", "_entries", tl_entries), O("tlb", "_page_shift", tl_page_shift),
    O("tlb", "hits", tl_hits),
    O("prefetcher", "stride_predictor", pf_stride_predictor),
    O("stride", "_table", sp_table), O("stride", "_entries", sp_entries),
    O("stride", "_max_conf", sp_max_conf),
    O("stride_entry", "last_addr", se_last_addr),
    O("stride_entry", "stride", se_stride),
    O("stride_entry", "confidence", se_confidence),
    O("trace", "_dyn", tr_dyn),
};

#undef O

typedef struct {
    const char *name;
    long long value;
} ConstSpec;

/* Flag constants double-checked against the Python source of truth. */
static const ConstSpec FLAG_SPECS[] = {
    {"F_IN_IQ", F_IN_IQ}, {"F_IQ_FP", F_IQ_FP}, {"F_ISSUED", F_ISSUED},
    {"F_COMPLETED", F_COMPLETED}, {"F_HAS_DEST", F_HAS_DEST},
    {"F_DEST_FP", F_DEST_FP}, {"F_SQUASHED", F_SQUASHED},
    {"F_IS_LOAD", F_IS_LOAD}, {"F_IS_STORE", F_IS_STORE},
    {"F_IS_BRANCH", F_IS_BRANCH}, {"F_IS_LL", F_IS_LL},
    {"F_INV", F_INV}, {"F_LL_DEP", F_LL_DEP}, {"F_RETIRED", F_RETIRED},
    {"F_IN_DETECTS", F_IN_DETECTS}, {"F_FREED", F_FREED},
    {"SLOT_SHIFT", SLOT_SHIFT},
};

/* SlotKind values double-checked the same way. */
static const ConstSpec KIND_SPECS[] = {
    {"STREAM_LOAD", SK_STREAM_LOAD}, {"CHASE_LOAD", SK_CHASE_LOAD},
    {"BURST_LOAD", SK_BURST_LOAD}, {"RANDOM_LOAD", SK_RANDOM_LOAD},
    {"HOT_LOAD", SK_HOT_LOAD}, {"STORE", SK_STORE},
    {"STREAM_STORE", SK_STREAM_STORE}, {"COND_BRANCH", SK_COND_BRANCH},
};

/* Check ns[table_name] (name -> int) against the C copies. */
static int check_constants(PyObject *ns, const char *table_name,
                           const ConstSpec *specs, size_t n)
{
    PyObject *table = PyDict_GetItemString(ns, table_name);
    if (table == NULL || !PyDict_Check(table)) {
        PyErr_Format(PyExc_KeyError, "setup(): missing %s dict",
                     table_name);
        return -1;
    }
    for (size_t i = 0; i < n; i++) {
        PyObject *v = PyDict_GetItemString(table, specs[i].name);
        if (v == NULL) {
            PyErr_Format(PyExc_KeyError, "setup(): missing %s %s",
                         table_name, specs[i].name);
            return -1;
        }
        if (PyLong_AsLongLong(v) != specs[i].value) {
            PyErr_Format(PyExc_ValueError,
                         "setup(): %s %s drifted from the C copy",
                         table_name, specs[i].name);
            return -1;
        }
    }
    return 0;
}

/* A strong reference to the type stored under `key`, or NULL + error. */
static PyTypeObject *type_of(PyObject *ns, const char *key)
{
    PyObject *t = PyDict_GetItemString(ns, key);
    if (t == NULL || !PyType_Check(t)) {
        PyErr_Format(PyExc_KeyError, "setup(): missing class %s", key);
        return NULL;
    }
    Py_INCREF(t);
    return (PyTypeObject *)t;
}

static PyObject *intern_or_null(const char *s)
{
    return PyUnicode_InternFromString(s);
}

static PyObject *setup(PyObject *self, PyObject *ns)
{
    (void)self;
    if (!PyDict_Check(ns)) {
        PyErr_SetString(PyExc_TypeError, "setup() expects a dict");
        return NULL;
    }
    /* slot offsets via member descriptors */
    size_t n_specs = sizeof(SPECS) / sizeof(SPECS[0]);
    for (size_t i = 0; i < n_specs; i++) {
        PyObject *cls = PyDict_GetItemString(ns, SPECS[i].cls);
        if (cls == NULL) {
            PyErr_Format(PyExc_KeyError, "setup(): missing class %s",
                         SPECS[i].cls);
            return NULL;
        }
        PyObject *descr = PyObject_GetAttrString(cls, SPECS[i].name);
        if (descr == NULL)
            return NULL;
        if (!PyObject_TypeCheck(descr, &PyMemberDescr_Type)) {
            Py_DECREF(descr);
            PyErr_Format(PyExc_TypeError,
                         "%s.%s is not a slot member descriptor",
                         SPECS[i].cls, SPECS[i].name);
            return NULL;
        }
        Py_ssize_t off =
            ((PyMemberDescrObject *)descr)->d_member->offset;
        Py_DECREF(descr);
        *(Py_ssize_t *)((char *)&g.off + SPECS[i].field) = off;
    }
    /* flag-word and slot-kind constants: fail loudly if the Python side
     * drifts */
    if (check_constants(ns, "flags", FLAG_SPECS,
                        sizeof(FLAG_SPECS) / sizeof(FLAG_SPECS[0])) < 0
        || check_constants(ns, "slot_kinds", KIND_SPECS,
                           sizeof(KIND_SPECS) / sizeof(KIND_SPECS[0])) < 0)
        return NULL;
    PyObject *limit_exc = PyDict_GetItemString(ns, "limit_exc");
    PyObject *deadlock_exc = PyDict_GetItemString(ns, "deadlock_exc");
    PyObject *l1_level = PyDict_GetItemString(ns, "l1_level");
    PyObject *entry_cls = PyDict_GetItemString(ns, "stride_entry");
    if (limit_exc == NULL || deadlock_exc == NULL || l1_level == NULL
        || entry_cls == NULL) {
        PyErr_SetString(PyExc_KeyError,
                        "setup(): missing limit_exc/deadlock_exc/l1_level/"
                        "stride_entry");
        return NULL;
    }
    Py_INCREF(limit_exc);
    Py_XSETREF(g.limit_exc, limit_exc);
    Py_INCREF(deadlock_exc);
    Py_XSETREF(g.deadlock_exc, deadlock_exc);
    Py_INCREF(l1_level);
    Py_XSETREF(g.l1_level, l1_level);
    Py_INCREF(entry_cls);
    Py_XSETREF(g.stride_entry_cls, entry_cls);
    /* the exact types the in-C paths apply to */
    {
        static const char *keys[10] = {"core", "hier", "cache", "tlb",
                                       "prefetcher", "stride", "llsr",
                                       "trace", "instr", "ts"};
        PyTypeObject **dst[10] = {&g.core_type, &g.hier_type, &g.cache_type,
                                  &g.tlb_type, &g.prefetcher_type,
                                  &g.stride_type, &g.llsr_type,
                                  &g.trace_type, &g.instr_type, &g.ts_type};
        for (int i = 0; i < 10; i++) {
            PyTypeObject *t = type_of(ns, keys[i]);
            if (t == NULL)
                return NULL;
            Py_XSETREF(*dst[i], t);
        }
    }
    /* every Instr slot, for cloning trace prototypes */
    {
        PyObject *names = PyObject_GetAttrString((PyObject *)g.instr_type,
                                                 "__slots__");
        if (names == NULL)
            return NULL;
        PyObject *fast = PySequence_Fast(names, "Instr.__slots__");
        Py_DECREF(names);
        if (fast == NULL)
            return NULL;
        Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
        if (n > (Py_ssize_t)(sizeof(g.instr_offs) / sizeof(g.instr_offs[0]))
            || g.instr_type->tp_dictoffset != 0) {
            Py_DECREF(fast);
            PyErr_SetString(PyExc_TypeError,
                            "setup(): Instr must be a plain slotted class");
            return NULL;
        }
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *descr = PyObject_GetAttr(
                (PyObject *)g.instr_type, PySequence_Fast_GET_ITEM(fast, i));
            if (descr == NULL || !PyObject_TypeCheck(descr,
                                                     &PyMemberDescr_Type)) {
                Py_XDECREF(descr);
                Py_DECREF(fast);
                if (!PyErr_Occurred())
                    PyErr_SetString(PyExc_TypeError,
                                    "setup(): Instr slot is not a member");
                return NULL;
            }
            g.instr_offs[i] =
                ((PyMemberDescrObject *)descr)->d_member->offset;
            Py_DECREF(descr);
        }
        g.n_instr_offs = (int)n;
        Py_DECREF(fast);
    }
    /* small-int table + interned method names (idempotent) */
    if (g.small_ints[0] == NULL) {
        for (long long i = 0; i < SMALL_INT_LIMIT; i++) {
            g.small_ints[i] = PyLong_FromLongLong(i);
            if (g.small_ints[i] == NULL)
                return NULL;
        }
        g.neg_one = PyLong_FromLong(-1);
        if (g.neg_one == NULL)
            return NULL;
        if ((g.s_update = intern_or_null("update")) == NULL
            || (g.s_lookup = intern_or_null("lookup")) == NULL
            || (g.s_insert = intern_or_null("insert")) == NULL
            || (g.s_train = intern_or_null("train")) == NULL
            || (g.s_on_ll_detect =
                    intern_or_null("on_ll_detect")) == NULL
            || (g.s_cancel_fill = intern_or_null("cancel_fill")) == NULL
            || (g.s_clear_owner = intern_or_null("clear_owner")) == NULL
            || (g.s_sync_policy_stall =
                    intern_or_null("_sync_policy_stall")) == NULL
            || (g.s_observe = intern_or_null("observe")) == NULL)
            return NULL;
    }
    g.ready = 1;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* module definition                                                   */
/* ------------------------------------------------------------------ */

/* ------------------------------------------------------------------ */
/* the in-C paths one at a time, for the equivalence tests             */
/* ------------------------------------------------------------------ */

/* _next_cycle(core, cycle) -> int: the fast-forward target as run_until
 * computes it for a CextCore; raises SimulationDeadlock as
 * SMTCore._next_cycle does. */
static PyObject *t_next_cycle(PyObject *self, PyObject *const *args,
                              Py_ssize_t nargs)
{
    (void)self;
    if (check_args(nargs, 2, "_next_cycle(core, cycle)") < 0)
        return NULL;
    if (!PyObject_TypeCheck(args[0], g.core_type)) {
        PyErr_SetString(PyExc_TypeError, "_next_cycle needs a CextCore");
        return NULL;
    }
    long long cycle = PyLong_AsLongLong(args[1]);
    if (cycle == -1 && PyErr_Occurred())
        return NULL;
    Ctx ctx;
    if (ctx_init(&ctx, args[0]) < 0)
        return NULL;
    long long nxt;
    int rc = next_cycle_c(&ctx, cycle, &nxt);
    ctx_clear(&ctx);
    return rc < 0 ? NULL : PyLong_FromLongLong(nxt);
}

/* _llsr_commit_zeros(llsr, k) -> bool: LLSR.commit_zeros as the commit
 * stage runs it; True when C did the work. */
static PyObject *t_llsr_commit_zeros(PyObject *self, PyObject *const *args,
                                     Py_ssize_t nargs)
{
    (void)self;
    if (check_args(nargs, 2, "_llsr_commit_zeros(llsr, k)") < 0)
        return NULL;
    long long k = PyLong_AsLongLong(args[1]);
    if (k == -1 && PyErr_Occurred())
        return NULL;
    int rc = 0;
    if (Py_TYPE(args[0]) == g.llsr_type)
        rc = llsr_zeros_c(args[0], k);
    if (rc < 0)
        return NULL;
    if (rc)
        Py_RETURN_TRUE;
    PyObject *r = PyObject_CallMethod(args[0], "commit_zeros", "L", k);
    if (r == NULL)
        return NULL;
    Py_DECREF(r);
    Py_RETURN_FALSE;
}

/* _trace_dyn(trace, index) -> Instr | None: the fetch stage's in-C build
 * of an iteration-varying slot; None where the stage calls get. */
static PyObject *t_trace_dyn(PyObject *self, PyObject *const *args,
                             Py_ssize_t nargs)
{
    (void)self;
    if (check_args(nargs, 2, "_trace_dyn(trace, index)") < 0)
        return NULL;
    PyObject *trace = args[0];
    long long index = PyLong_AsLongLong(args[1]);
    if (index == -1 && PyErr_Occurred())
        return NULL;
    if (Py_TYPE(trace) != g.trace_type || index < 0)
        Py_RETURN_NONE;
    PyObject *dyn = SLOT(trace, OFF.tr_dyn);
    if (dyn == NULL || !PyList_CheckExact(dyn)
        || PyList_GET_SIZE(dyn) == 0)
        Py_RETURN_NONE;
    long long body_len = PyList_GET_SIZE(dyn);
    PyObject *out = NULL;
    int rc = trace_dyn(PyList_GET_ITEM(dyn, index % body_len),
                       index / body_len, &out);
    if (rc < 0)
        return NULL;
    if (rc == 0)
        Py_RETURN_NONE;
    return out;
}

/* _mem_data(hier, demand, thread, pc, addr, cycle) -> (complete_cycle,
 * detect_cycle, level, tlb_miss, long_latency, trigger, fill_line,
 * in_c): hierarchy.load (demand) or .store as the issue and commit
 * stages run them, the hit path in C and everything else in Python. */
static PyObject *t_mem_data(PyObject *self, PyObject *const *args,
                            Py_ssize_t nargs)
{
    (void)self;
    if (check_args(nargs, 6,
                   "_mem_data(hier, demand, thread, pc, addr, cycle)") < 0)
        return NULL;
    int demand = PyObject_IsTrue(args[1]);
    long long cycle = PyLong_AsLongLong(args[5]);
    if (demand < 0 || (cycle == -1 && PyErr_Occurred()))
        return NULL;
    MemFast m;
    mem_fast_init(&m, args[0]);
    long long done = 0, detect = 0;
    int hit = mem_fast_data(&m, args[3], args[4], cycle, demand, &done,
                            &detect);
    mem_fast_clear(&m);
    if (hit < 0)
        return NULL;
    if (hit)
        return Py_BuildValue("LLOOOOOO", done, detect, g.l1_level,
                             Py_False, Py_False, Py_False, Py_None,
                             Py_True);
    PyObject *r = PyObject_CallMethod(args[0], demand ? "load" : "store",
                                      "OOOO", args[2], args[3], args[4],
                                      args[5]);
    if (r == NULL)
        return NULL;
    PyObject *out = Py_BuildValue(
        "OOONOOOO", SLOT(r, OFF.ar_complete_cycle),
        SLOT(r, OFF.ar_detect_cycle), SLOT(r, OFF.ar_level),
        PyObject_GetAttrString(r, "tlb_miss"),
        SLOT(r, OFF.ar_long_latency), SLOT(r, OFF.ar_trigger),
        SLOT(r, OFF.ar_fill_line), Py_False);
    Py_DECREF(r);
    return out;
}

/* _mem_ifetch(hier, thread, addr, cycle) -> (done, in_c): hierarchy.
 * ifetch as the fetch stage runs it. */
static PyObject *t_mem_ifetch(PyObject *self, PyObject *const *args,
                              Py_ssize_t nargs)
{
    (void)self;
    if (check_args(nargs, 4, "_mem_ifetch(hier, thread, addr, cycle)") < 0)
        return NULL;
    long long addr = PyLong_AsLongLong(args[2]);
    long long cycle = PyLong_AsLongLong(args[3]);
    if (PyErr_Occurred())
        return NULL;
    MemFast m;
    mem_fast_init(&m, args[0]);
    long long done = 0;
    int hit = mem_fast_ifetch(&m, addr, cycle, &done);
    mem_fast_clear(&m);
    if (hit < 0)
        return NULL;
    if (hit)
        return Py_BuildValue("LO", done, Py_True);
    PyObject *r = PyObject_CallMethod(args[0], "ifetch", "OOO", args[1],
                                      args[2], args[3]);
    if (r == NULL)
        return NULL;
    PyObject *out = Py_BuildValue("NO", r, Py_False);
    return out;
}

static PyMethodDef cext_methods[] = {
    {"setup", setup, METH_O,
     "Resolve slot offsets and constants from the driver's class table."},
    {"run_until", (PyCFunction)(void (*)(void))run_until, METH_FASTCALL,
     "run_until(core, max_commits, limit) -> None"},
    {"_next_cycle", (PyCFunction)(void (*)(void))t_next_cycle,
     METH_FASTCALL, "Test hook: run_until's fast-forward target."},
    {"_llsr_commit_zeros",
     (PyCFunction)(void (*)(void))t_llsr_commit_zeros, METH_FASTCALL,
     "Test hook: the commit stage's LLSR.commit_zeros."},
    {"_trace_dyn", (PyCFunction)(void (*)(void))t_trace_dyn, METH_FASTCALL,
     "Test hook: the fetch stage's build of a varying trace slot."},
    {"_mem_data", (PyCFunction)(void (*)(void))t_mem_data, METH_FASTCALL,
     "Test hook: the issue/commit stages' hierarchy load/store."},
    {"_mem_ifetch", (PyCFunction)(void (*)(void))t_mem_ifetch,
     METH_FASTCALL, "Test hook: the fetch stage's hierarchy ifetch."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef cext_module = {
    PyModuleDef_HEAD_INIT,
    "repro.pipeline._cext_engine",
    "Compiled stage loop of the cext engine (see cext.py).",
    -1,
    cext_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__cext_engine(void)
{
    if (PyType_Ready(&SlotSeq_Type) < 0 || PyType_Ready(&View_Type) < 0
        || PyType_Ready(&Arena_Type) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&cext_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddIntConstant(m, "API_VERSION", CEXT_API_VERSION) < 0
        || PyModule_AddObjectRef(m, "Arena", (PyObject *)&Arena_Type) < 0
        || PyModule_AddObjectRef(m, "SoAView", (PyObject *)&View_Type) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
