/* _cext_engine: the compiled `cext` engine backend's fused run loop.
 *
 * The object engine's stage loop (repro/pipeline/core.py: _run_until
 * and its event drains with _complete, _commit with _commit_one, _issue
 * with _execute, _dispatch with _try_dispatch, the base policy's
 * fetch_order/fetch_pending, _fetch_thread), stage for stage and with
 * each per-instruction body fused into its stage, over one native Arena
 * per core (the contract is in the module docstring of
 * repro/pipeline/cext.py): int64 instruction columns, the free list, the
 * ready heaps, the three event wheels, each thread's front-end queue,
 * window and rename map and its static trace body live in C memory, so
 * no arena access boxes, unboxes or allocates.  So do the core's and
 * each thread's per-cycle integers (the cycle, the resource counters,
 * the wake latches, icount, the fetch index, ...): an int64 block each
 * object owns, which Python reads and writes through IntField
 * descriptors by the same attribute names.  The stats dataclasses and
 * the other ThreadState and core slots stay Python objects, read and
 * written through the C API.
 * Policy hooks re-enter Python mid-stage through SoAView (a C type
 * reading the arena) and may call flush_thread, which runs here too; a
 * fetch may grow the arena.  Every column pointer is therefore re-read
 * from the arena after any call that can do either.  The fast-forward
 * target, the base policy's fetch order (ICOUNT and COT) and the
 * iteration-varying slots of SyntheticTrace are computed here too;
 * their Python bodies remain the reference (tests/test_cext_paths.py).
 * The memory hierarchy, gshare, the BTB and each thread's LLSR and
 * load, MLP-distance and binary-MLP predictors are native types below,
 * of every kind and size their Python classes take, each held to its
 * class by a differential test (tests/test_native_*.py,
 * test_cext_paths.py).  The loop runs no other model: run_until takes
 * them once per run (a part reassigned mid-run is not followed) and,
 * like flush for the hierarchy, raises TypeError for any other object.
 * An LLSR whose on_measure is its thread's own _train_mlp trains the
 * MLP predictors in C; the loop calls any other callable.  The
 * golden matrix pins the backend bit-exact with the object engine;
 * engine-parity-lint checks that the policy hook call sites here match
 * core.py's set and that SoAView's getset table covers every DynInstr
 * field.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <string.h>

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
#define F_TAKEN (1 << 16)
#define F_FP_QUEUE (1 << 17)

#define F_MEM (F_IS_LOAD | F_IS_STORE)
#define F_DEAD_OR_DONE (F_SQUASHED | F_ISSUED | F_COMPLETED)
#define F_NO_WAKE (F_SQUASHED | F_ISSUED)
#define F_RETIRED_FREED (F_RETIRED | F_FREED)

#define SLOT_SHIFT 20
#define SLOT_MASK ((1LL << SLOT_SHIFT) - 1)

/* ServiceLevel values: must mirror repro/memory/hierarchy.py (verified
 * in setup). */
enum { LV_L1 = 1, LV_STREAM, LV_MERGE, LV_L2, LV_L3, LV_MEM, N_LEVELS };

#define SMALL_INT_LIMIT 65536
/* one bit per thread below the sign of the int64 thread masks */
#define MAX_THREADS 63
#define MAX_SRCS 64

/* ------------------------------------------------------------------ */
/* resolved member offsets                                             */
/* ------------------------------------------------------------------ */

typedef struct {
    /* core */
    Py_ssize_t ints, arena;
    Py_ssize_t threads, policy, stats;
    Py_ssize_t policy_fetch_order, policy_fetch_pending,
        policy_can_dispatch, policy_on_fetch, policy_on_fetch_load,
        policy_on_load_complete, policy_on_resource_stall;
    Py_ssize_t hierarchy, gshare, btb;
    Py_ssize_t full_mask, fetch_candidates;
    Py_ssize_t fetch_width, fetch_max_threads, fast_forward,
        fetch_order_is_base, fe_capacity, frontend_depth, decode_width,
        commit_width, line_shift;
    Py_ssize_t rob_size, lsq_size, int_iq_size, fp_iq_size,
        int_rename_regs, fp_rename_regs, wb_entries;
    Py_ssize_t num_int_alu, num_ldst, num_fp;
    Py_ssize_t track_ll_dep;
    Py_ssize_t cext_olc_cleanup_only, cext_ll_detect_is_base, partition;
    /* ThreadState */
    Py_ssize_t ts_ints, ts_waiting_branch, ts_branch_wait_since,
        ts_allowed_end, ts_ll_owners, ts_policy_data;
    Py_ssize_t ts_stats, ts_commit_cycles;
    Py_ssize_t ts_fe_queue, ts_window, ts_rename_map;
    Py_ssize_t ts_dispatch_blocked_head;
    Py_ssize_t ts_trace_get, ts_pc_origin, ts_trace_static,
        ts_trace_body_len, ts_lll_pred;
    Py_ssize_t ts_trace, ts_llsr, ts_policy_stalled_flag, ts_stall_start,
        ts_mlp_pred, ts_binary_mlp;
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
    /* SyntheticTrace */
    Py_ssize_t tr_dyn;
    /* FetchPolicy: a partition's data */
    Py_ssize_t pol_limit_rows, pol_slow_weights;
} Offsets;

typedef struct {
    int ready;
    Offsets off;
    PyObject *limit_exc;    /* SimulationLimitExceeded */
    PyObject *deadlock_exc; /* SimulationDeadlock */
    PyObject *levels[N_LEVELS];   /* ServiceLevel members by value */
    PyObject *result_cls;   /* AccessResult */
    PyObject *mlp_fn;       /* hierarchy.mlp_from_intervals */
    /* exact types the in-C paths apply to (anything else calls Python),
     * and FetchPolicy, the owner of the partition slots */
    PyTypeObject *core_type, *trace_type, *instr_type, *ts_type,
        *policy_type;
    /* every Instr slot offset, for cloning a trace prototype */
    Py_ssize_t instr_offs[32];
    int n_instr_offs;
    PyObject *small_ints[SMALL_INT_LIMIT];
    PyObject *neg_one;
    /* interned strings for the non-slot attribute calls */
    PyObject *s_on_ll_detect, *s_sync_policy_stall,
        *s_clear_owner, *s_train_mlp;
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

static inline int slot_true(PyObject *o, Py_ssize_t off)
{
    return SLOT(o, off) == Py_True;
}

static inline int stat_add(PyObject *obj, Py_ssize_t off, long long d)
{
    return slot_store_ll(obj, off, slot_ll(obj, off) + d);
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

/* Python's floor modulo for b > 0. */
static inline long long py_mod(long long a, long long b)
{
    long long r = a % b;
    return r < 0 ? r + b : r;
}

/* A Python int argument as int64 (TypeError / OverflowError). */
static inline int int64_arg(PyObject *o, int64_t *out)
{
    long long v = PyLong_AsLongLong(o);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

/* ------------------------------------------------------------------ */
/* the core's and its threads' per-cycle ints                          */
/* ------------------------------------------------------------------ */

/* The integers the stages read and write every cycle are int64 fields
 * of a native block (Ints) that the core, and each of its threads, owns
 * in its `_ints` slot, so they outlive the arena (detach()).  The C code
 * uses them in place; Python reads and writes each through an IntField
 * descriptor that setup() installs on CextCore and CextThreadState
 * under the field's name, so `core.cycle` and `ts.icount` read as
 * before.  Writing a non-int raises TypeError, an int outside int64
 * OverflowError. */
enum { CV_CYCLE, CV_GSEQ, CV_WB_USED, CV_ROB_USED, CV_LSQ_USED, CV_IQ_USED,
       CV_FQ_USED, CV_INT_REGS_USED, CV_FP_REGS_USED, CV_FE_MASK,
       CV_HEADS_MASK, CV_FETCH_WAKE, CV_DISPATCH_WAKE, CV_STALL_LATCH_UNTIL,
       CV_STALL_LATCH_EPOCH, CV_RELEASE_EPOCH, CV_COMMITTED_WATERMARK,
       CV_COMMIT_PENDING, CV_MEASURE_START, N_CV };
static const char *const CV_NAMES[N_CV] = {
    "cycle", "_gseq", "_wb_used", "rob_used", "lsq_used", "iq_used",
    "fq_used", "int_regs_used", "fp_regs_used", "_fe_mask", "_heads_mask",
    "_fetch_wake", "_dispatch_wake", "_stall_latch_until",
    "_stall_latch_epoch", "_release_epoch", "_committed_watermark",
    "_commit_pending", "_measure_start"};
/* a thread's: its six resource counts in the order of the core's */
enum { TV_ROB, TV_LSQ, TV_IQ, TV_FQ, TV_INT_REGS, TV_FP_REGS, TV_ICOUNT,
       TV_FETCH_INDEX, TV_FETCH_BLOCKED_UNTIL, TV_DISPATCH_WAIT_UNTIL,
       TV_DISPATCH_BLOCKED_EPOCH, TV_LAST_IFETCH_LINE, TV_HEAD_READY,
       TV_OUTSTANDING_MISSES, N_TV };
static const char *const TV_NAMES[N_TV] = {
    "rob_count", "lsq_count", "iq_count", "fq_count", "int_regs", "fp_regs",
    "icount", "fetch_index", "fetch_blocked_until", "dispatch_wait_until",
    "dispatch_blocked_epoch", "last_ifetch_line", "head_ready",
    "outstanding_misses"};
#define N_INTS ((int)N_CV > (int)N_TV ? (int)N_CV : (int)N_TV)

typedef struct {
    PyObject_HEAD
    int64_t v[N_INTS];
} Ints;

static PyTypeObject Ints_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.pipeline._cext_engine.Ints",
    .tp_doc = "The int64 fields a cext core or thread owns (IntField).",
    .tp_basicsize = sizeof(Ints),
    .tp_flags = Py_TPFLAGS_DEFAULT,
};

/* The fields in `obj`'s `_ints` slot at `off`; NULL and TypeError when
 * it holds no block. */
static int64_t *ints_at(PyObject *obj, Py_ssize_t off)
{
    PyObject *b = SLOT(obj, off);
    if (b != NULL && Py_IS_TYPE(b, &Ints_Type))
        return ((Ints *)b)->v;
    PyErr_SetString(PyExc_TypeError,
                    "a cext core and its threads keep their ints in the "
                    "engine's blocks");
    return NULL;
}

typedef struct {
    PyObject_HEAD
    PyTypeObject *owner;    /* the class it is installed on */
    Py_ssize_t off;         /* the owner's `_ints` slot */
    int index;
    PyObject *name;
} IntField;

/* The block of `obj` for F, made zeroed on the first write (`make`). */
static int64_t *field_ints(IntField *F, PyObject *obj, int make)
{
    if (!PyObject_TypeCheck(obj, F->owner)) {
        PyErr_Format(PyExc_TypeError, "'%U' of '%s' objects does not apply "
                     "to a '%s' object", F->name, F->owner->tp_name,
                     Py_TYPE(obj)->tp_name);
        return NULL;
    }
    if (SLOT(obj, F->off) == NULL && make) {
        Ints *b = PyObject_New(Ints, &Ints_Type);
        if (b == NULL)
            return NULL;
        memset(b->v, 0, sizeof(b->v));
        slot_store(obj, F->off, (PyObject *)b);
    }
    if (SLOT(obj, F->off) == NULL) {
        PyErr_SetObject(PyExc_AttributeError, F->name);
        return NULL;
    }
    return ints_at(obj, F->off);
}

static PyObject *field_get(PyObject *self, PyObject *obj,
                           PyObject *Py_UNUSED(type))
{
    IntField *F = (IntField *)self;
    if (obj == NULL)
        return Py_NewRef(self);
    int64_t *v = field_ints(F, obj, 0);
    return v == NULL ? NULL : box_ll(v[F->index]);
}

static int field_set(PyObject *self, PyObject *obj, PyObject *value)
{
    IntField *F = (IntField *)self;
    long long x;
    if (value == NULL) {
        PyErr_Format(PyExc_AttributeError, "cannot delete '%U'", F->name);
        return -1;
    }
    if (!PyLong_Check(value)) {
        PyErr_Format(PyExc_TypeError, "'%U' must be an int, not '%s'",
                     F->name, Py_TYPE(value)->tp_name);
        return -1;
    }
    if ((x = PyLong_AsLongLong(value)) == -1 && PyErr_Occurred())
        return -1;
    int64_t *v = field_ints(F, obj, 1);
    if (v == NULL)
        return -1;
    v[F->index] = x;
    return 0;
}

static void field_dealloc(PyObject *self)
{
    IntField *F = (IntField *)self;
    Py_XDECREF(F->owner);
    Py_XDECREF(F->name);
    PyObject_Free(self);
}

static PyTypeObject IntField_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.pipeline._cext_engine.IntField",
    .tp_doc = "An int64 field of a cext core's or thread's block, as an "
              "attribute.",
    .tp_basicsize = sizeof(IntField),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_dealloc = field_dealloc,
    .tp_descr_get = field_get,
    .tp_descr_set = field_set,
};

/* Install an IntField on `cls` for each of its block's `n` `names`. */
static int install_fields(PyObject *cls, Py_ssize_t off,
                          const char *const *names, int n)
{
    for (int i = 0; i < n; i++) {
        IntField *F = PyObject_New(IntField, &IntField_Type);
        if (F == NULL)
            return -1;
        F->owner = (PyTypeObject *)Py_NewRef(cls);
        F->off = off;
        F->index = i;
        F->name = PyUnicode_InternFromString(names[i]);
        int rc = F->name == NULL ? -1
            : PyObject_SetAttr(cls, F->name, (PyObject *)F);
        Py_DECREF(F);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* the front end's predictors as native state                          */
/* ------------------------------------------------------------------ */

/* repro.predictors' MissPatternPredictor, LastValuePredictor,
 * TwoBitMissPredictor, MLPDistancePredictor and BinaryMLPPredictor and
 * repro.branch's GShare and BTB: each keeps its Python class's
 * constructor, methods, defaults, counters and return values over a
 * table in C memory.  The load predictors' and the MLP distance's
 * tables are int64, so they hold every size and value their classes
 * accept within int64 (OverflowError outside).  A Python table is a
 * dict that gains an entry on first training, and a zeroed native table
 * is a fresh one.  Indexes are Python's floor modulo.  state() returns
 * the trained entries for the differential test
 * (tests/test_native_predictors.py). */

static PyObject *value_error(const char *msg)
{
    PyErr_SetString(PyExc_ValueError, msg);
    return NULL;
}

/* An int64 counter of a native object, read and assigned from Python. */
static PyObject *get_i64(PyObject *self, void *off)
{
    return PyLong_FromLongLong(*(int64_t *)((char *)self + (size_t)off));
}

static int set_i64(PyObject *self, PyObject *value, void *off)
{
    int64_t v;
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete a counter");
        return -1;
    }
    if (int64_arg(value, &v) < 0)
        return -1;
    *(int64_t *)((char *)self + (size_t)off) = v;
    return 0;
}

/* An object member of a native object (None once cleared). */
static PyObject *get_obj(PyObject *self, void *off)
{
    PyObject *v = *(PyObject **)((char *)self + (size_t)off);
    return Py_NewRef(v != NULL ? v : Py_None);
}

#define I64_FIELD(type, name, doc) \
    {#name, get_i64, set_i64, doc, (void *)offsetof(type, name)}

/* {index: value} over the trained entries, value built by `item`. */
static PyObject *trained_dict(PyObject *self, int64_t n,
                              PyObject *(*item)(PyObject *, int64_t))
{
    PyObject *d = PyDict_New();
    for (int64_t i = 0; d != NULL && i < n; i++) {
        PyObject *v = item(self, i);
        if (v == Py_None) {
            Py_DECREF(v);
            continue;
        }
        PyObject *k = v == NULL ? NULL : PyLong_FromLongLong(i);
        if (k == NULL || PyDict_SetItem(d, k, v) < 0)
            Py_CLEAR(d);
        Py_XDECREF(k);
        Py_XDECREF(v);
    }
    return d;
}

static void pred_dealloc_tables(PyObject *self, void **tables, int n)
{
    for (int i = 0; i < n; i++)
        PyMem_Free(tables[i]);
    Py_TYPE(self)->tp_free(self);
}

/* --- the long-latency load predictors ------------------------------ */

/* MissPatternPredictor, LastValuePredictor and TwoBitMissPredictor: one
 * struct, one predict/train pair switching on the kind.  `value` is the
 * miss pattern's period + 1 (0: a fresh entry's period -1), the last
 * outcome or the two-bit counter; `since`, the miss pattern's hits
 * since its last miss, saturates at max_count (INT64_MAX, which no run
 * reaches, for counter_bits of 63 or more). */
enum { LLL_MISS_PATTERN, LLL_LAST_VALUE, LLL_TWO_BIT, N_LLL };

typedef struct {
    PyObject_HEAD
    int kind;
    int64_t entries, max_count, lookups, predicted_ll;
    int64_t *value, *since;
} LoadPred;

static PyTypeObject LoadPred_Types[N_LLL];

static int loadpred_predict(LoadPred *P, int64_t pc)
{
    int64_t i = py_mod(pc, P->entries);
    int64_t v = P->value[i];
    int predicted;
    P->lookups += 1;
    if (P->kind == LLL_MISS_PATTERN)
        /* untrained, or a saturated period: no prediction */
        predicted = v != 0 && v - 1 < P->max_count && P->since[i] == v - 1;
    else
        predicted = P->kind == LLL_LAST_VALUE ? v != 0 : v >= 2;
    P->predicted_ll += predicted;
    return predicted;
}

static void loadpred_train(LoadPred *P, int64_t pc, int long_latency)
{
    int64_t i = py_mod(pc, P->entries);
    int64_t *v = &P->value[i];
    switch (P->kind) {
    case LLL_MISS_PATTERN:
        if (long_latency) {
            *v = P->since[i] + 1;
            P->since[i] = 0;
        } else if (P->since[i] < P->max_count) {
            P->since[i] += 1;
        }
        break;
    case LLL_LAST_VALUE:
        *v = long_latency;
        break;
    default:                /* a counter saturating at 0 and 3 */
        if (long_latency ? *v < 3 : *v > 0)
            *v += long_latency ? 1 : -1;
    }
}

/* The kind is the type's place in LoadPred_Types; counter_bits sizes
 * the miss pattern's counters, and the other kinds ignore it, as their
 * classes do. */
static PyObject *LoadPred_new(PyTypeObject *type, PyObject *args,
                              PyObject *kwds)
{
    static char *kwlist[] = {"entries", "counter_bits", NULL};
    long long entries = 2048, bits = 6;
    PyObject *bits_arg = NULL;
    int kind = (int)(type - LoadPred_Types);
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|LO", kwlist, &entries,
                                     &bits_arg))
        return NULL;
    if (entries <= 0)
        return value_error("entries must be positive");
    if (kind == LLL_MISS_PATTERN && bits_arg != NULL
        && (bits = PyLong_AsLongLong(bits_arg)) == -1 && PyErr_Occurred())
        return NULL;
    if (bits < 0)
        return value_error("negative shift count");
    LoadPred *P = (LoadPred *)type->tp_alloc(type, 0);
    if (P == NULL)
        return NULL;
    P->kind = kind;
    P->entries = entries;
    P->max_count = bits < 63 ? (1LL << bits) - 1 : INT64_MAX;
    P->value = PyMem_Calloc((size_t)entries, sizeof(int64_t));
    P->since = PyMem_Calloc((size_t)entries, sizeof(int64_t));
    if (P->value == NULL || P->since == NULL) {
        Py_DECREF(P);
        return PyErr_NoMemory();
    }
    return (PyObject *)P;
}

static void LoadPred_dealloc(PyObject *self)
{
    LoadPred *P = (LoadPred *)self;
    void *tables[2] = {P->value, P->since};
    pred_dealloc_tables(self, tables, 2);
}

/* predict(pc) -> bool: will this load be long-latency? */
static PyObject *LoadPred_predict(PyObject *self, PyObject *args,
                                  PyObject *kwds)
{
    static char *kwlist[] = {"pc", NULL};
    long long pc;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "L:predict", kwlist, &pc))
        return NULL;
    return PyBool_FromLong(loadpred_predict((LoadPred *)self, pc));
}

/* train(pc, long_latency) */
static PyObject *LoadPred_train(PyObject *self, PyObject *args,
                                PyObject *kwds)
{
    static char *kwlist[] = {"pc", "long_latency", NULL};
    long long pc;
    int ll;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "Lp:train", kwlist, &pc,
                                     &ll))
        return NULL;
    loadpred_train((LoadPred *)self, pc, ll);
    Py_RETURN_NONE;
}

static PyObject *loadpred_item(PyObject *self, int64_t i)
{
    LoadPred *P = (LoadPred *)self;
    int64_t v = P->value[i];
    if (P->kind == LLL_MISS_PATTERN && (v != 0 || P->since[i] != 0))
        return Py_BuildValue("(LL)", (long long)v - 1,
                             (long long)P->since[i]);
    if (P->kind == LLL_MISS_PATTERN || v == 0)
        return Py_NewRef(Py_None);
    return P->kind == LLL_LAST_VALUE ? Py_NewRef(Py_True) : box_ll(v);
}

static PyObject *LoadPred_state(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    return trained_dict(self, ((LoadPred *)self)->entries, loadpred_item);
}

static PyMethodDef LoadPred_methods[] = {
    {"predict", (PyCFunction)(void (*)(void))LoadPred_predict,
     METH_VARARGS | METH_KEYWORDS,
     "predict(pc) -> bool: will this load be long-latency?"},
    {"train", (PyCFunction)(void (*)(void))LoadPred_train,
     METH_VARARGS | METH_KEYWORDS,
     "train(pc, long_latency): the load's observed outcome."},
    {"state", LoadPred_state, METH_NOARGS,
     "state() -> {index: entry} of the entries unlike a fresh one: "
     "(period, since), True or the counter."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef LoadPred_getset[] = {
    I64_FIELD(LoadPred, lookups, "Front-end queries."),
    I64_FIELD(LoadPred, predicted_ll, "Queries predicted long-latency."),
    {NULL, NULL, NULL, NULL, NULL},
};

#define LOAD_PRED_TYPE(name, args) {                                    \
    PyVarObject_HEAD_INIT(NULL, 0)                                      \
    .tp_name = "repro.pipeline._cext_engine." name,                     \
    .tp_doc = name "(" args ") as a native table.",                     \
    .tp_basicsize = sizeof(LoadPred),                                   \
    .tp_flags = Py_TPFLAGS_DEFAULT,                                     \
    .tp_new = LoadPred_new,                                             \
    .tp_dealloc = LoadPred_dealloc,                                     \
    .tp_methods = LoadPred_methods,                                     \
    .tp_getset = LoadPred_getset,                                       \
}

static PyTypeObject LoadPred_Types[N_LLL] = {
    LOAD_PRED_TYPE("MissPatternPredictor", "entries=2048, counter_bits=6"),
    LOAD_PRED_TYPE("LastValuePredictor", "entries=2048, counter_bits=1"),
    LOAD_PRED_TYPE("TwoBitMissPredictor", "entries=2048, counter_bits=2"),
};

/* --- MLPDistancePredictor ------------------------------------------ */

typedef struct {
    PyObject_HEAD
    int64_t entries, max_distance;
    int64_t true_pos, true_neg, false_pos, false_neg, far_enough, too_short,
        lookups;
    int64_t *trained;       /* 1 where the Python dict has an entry */
    int64_t *distance;
} MLPDist;

static PyTypeObject MLPDist_Type;

/* Insert a measured distance, scoring the stored one (0 when
 * untrained) against it. */
static void mlpdist_train(MLPDist *P, int64_t pc, int64_t distance)
{
    if (distance > P->max_distance)
        distance = P->max_distance;
    int64_t i = py_mod(pc, P->entries);
    int64_t predicted = P->trained[i] ? P->distance[i] : 0;
    if (predicted > 0) {
        if (distance > 0)
            P->true_pos += 1;
        else
            P->false_pos += 1;
    } else if (distance > 0) {
        P->false_neg += 1;
    } else {
        P->true_neg += 1;
    }
    if (predicted >= distance)
        P->far_enough += 1;
    else
        P->too_short += 1;
    P->trained[i] = 1;
    P->distance[i] = distance;
}

static PyObject *MLPDist_new(PyTypeObject *type, PyObject *args,
                             PyObject *kwds)
{
    long long entries = 2048, max_distance = 127;
    static char *kwlist[] = {"entries", "max_distance", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|LL:MLPDistancePredictor",
                                     kwlist, &entries, &max_distance))
        return NULL;
    if (entries <= 0)
        return value_error("entries must be positive");
    if (max_distance <= 0)
        return value_error("max_distance must be positive");
    MLPDist *P = (MLPDist *)type->tp_alloc(type, 0);
    if (P == NULL)
        return NULL;
    P->entries = entries;
    P->max_distance = max_distance;
    P->trained = PyMem_Calloc((size_t)entries, sizeof(int64_t));
    P->distance = PyMem_Calloc((size_t)entries, sizeof(int64_t));
    if (P->trained == NULL || P->distance == NULL) {
        Py_DECREF(P);
        return PyErr_NoMemory();
    }
    return (PyObject *)P;
}

static void MLPDist_dealloc(PyObject *self)
{
    MLPDist *P = (MLPDist *)self;
    void *tables[2] = {P->trained, P->distance};
    pred_dealloc_tables(self, tables, 2);
}

/* predict(pc, default=0) -> the stored distance, or `default` */
static PyObject *MLPDist_predict(PyObject *self, PyObject *args,
                                 PyObject *kwds)
{
    static char *kwlist[] = {"pc", "default", NULL};
    long long pc;
    PyObject *dflt = NULL;
    MLPDist *P = (MLPDist *)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "L|O:predict", kwlist, &pc,
                                     &dflt))
        return NULL;
    P->lookups += 1;
    int64_t i = py_mod(pc, P->entries);
    if (P->trained[i])
        return box_ll(P->distance[i]);
    return dflt != NULL ? Py_NewRef(dflt) : box_ll(0);
}

/* train(pc, distance) */
static PyObject *MLPDist_train(PyObject *self, PyObject *args,
                               PyObject *kwds)
{
    static char *kwlist[] = {"pc", "distance", NULL};
    long long pc, distance;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "LL:train", kwlist, &pc,
                                     &distance))
        return NULL;
    mlpdist_train((MLPDist *)self, pc, distance);
    Py_RETURN_NONE;
}

static int64_t mlpdist_updates(const MLPDist *P)
{
    return P->true_pos + P->true_neg + P->false_pos + P->false_neg;
}

static PyObject *MLPDist_updates(PyObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(mlpdist_updates((MLPDist *)self));
}

static PyObject *MLPDist_binary_accuracy(PyObject *self,
                                         void *Py_UNUSED(closure))
{
    MLPDist *P = (MLPDist *)self;
    int64_t total = mlpdist_updates(P);
    return PyFloat_FromDouble(
        total ? (double)(P->true_pos + P->true_neg) / (double)total : 1.0);
}

static PyObject *MLPDist_distance_accuracy(PyObject *self,
                                           void *Py_UNUSED(closure))
{
    MLPDist *P = (MLPDist *)self;
    int64_t total = P->far_enough + P->too_short;
    return PyFloat_FromDouble(
        total ? (double)P->far_enough / (double)total : 1.0);
}

/* classification_fractions() -> the TP/TN/FP/FN fractions (Figure 7) */
static PyObject *MLPDist_fractions(PyObject *self,
                                   PyObject *Py_UNUSED(ignored))
{
    MLPDist *P = (MLPDist *)self;
    int64_t updates = mlpdist_updates(P);
    double total = (double)(updates ? updates : 1);
    return Py_BuildValue("{sdsdsdsd}",
                         "true_pos", (double)P->true_pos / total,
                         "true_neg", (double)P->true_neg / total,
                         "false_pos", (double)P->false_pos / total,
                         "false_neg", (double)P->false_neg / total);
}

static PyObject *mlpdist_item(PyObject *self, int64_t i)
{
    MLPDist *P = (MLPDist *)self;
    return P->trained[i] ? box_ll(P->distance[i]) : Py_NewRef(Py_None);
}

static PyObject *MLPDist_state(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    return trained_dict(self, ((MLPDist *)self)->entries, mlpdist_item);
}

static PyMethodDef MLPDist_methods[] = {
    {"predict", (PyCFunction)(void (*)(void))MLPDist_predict,
     METH_VARARGS | METH_KEYWORDS,
     "predict(pc, default=0) -> the predicted MLP distance."},
    {"train", (PyCFunction)(void (*)(void))MLPDist_train,
     METH_VARARGS | METH_KEYWORDS,
     "train(pc, distance): insert a measured MLP distance."},
    {"classification_fractions", MLPDist_fractions, METH_NOARGS,
     "classification_fractions() -> TP/TN/FP/FN fractions (Figure 7)."},
    {"state", MLPDist_state, METH_NOARGS,
     "state() -> {index: distance} of the trained entries."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef MLPDist_getset[] = {
    I64_FIELD(MLPDist, true_pos, "Figure 7: MLP predicted and measured."),
    I64_FIELD(MLPDist, true_neg, "Figure 7: neither."),
    I64_FIELD(MLPDist, false_pos, "Figure 7: predicted, not measured."),
    I64_FIELD(MLPDist, false_neg, "Figure 7: measured, not predicted."),
    I64_FIELD(MLPDist, far_enough, "Figure 8: prediction >= measured."),
    I64_FIELD(MLPDist, too_short, "Figure 8: prediction < measured."),
    I64_FIELD(MLPDist, lookups, "predict() calls."),
    {"updates", MLPDist_updates, NULL, "Training updates.", NULL},
    {"binary_accuracy", MLPDist_binary_accuracy, NULL,
     "Figure 7's accuracy (1.0 before any update).", NULL},
    {"distance_accuracy", MLPDist_distance_accuracy, NULL,
     "Figure 8's accuracy (1.0 before any update).", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject MLPDist_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.pipeline._cext_engine.MLPDistancePredictor",
    .tp_doc = "MLPDistancePredictor(entries=2048, max_distance=127) as a "
              "native table.",
    .tp_basicsize = sizeof(MLPDist),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = MLPDist_new,
    .tp_dealloc = MLPDist_dealloc,
    .tp_methods = MLPDist_methods,
    .tp_getset = MLPDist_getset,
};

/* --- BinaryMLPPredictor -------------------------------------------- */

typedef struct {
    PyObject_HEAD
    int64_t entries, lookups;
    uint8_t *table;         /* 0: untrained, 1: no MLP, 2: MLP */
} BinMLP;

static PyTypeObject BinMLP_Type;

static inline void binmlp_train(BinMLP *P, int64_t pc, int64_t distance)
{
    P->table[py_mod(pc, P->entries)] = distance > 0 ? 2 : 1;
}

static PyObject *BinMLP_new(PyTypeObject *type, PyObject *args,
                            PyObject *kwds)
{
    long long entries = 2048;
    static char *kwlist[] = {"entries", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|L:BinaryMLPPredictor",
                                     kwlist, &entries))
        return NULL;
    if (entries <= 0)
        return value_error("entries must be positive");
    BinMLP *P = (BinMLP *)type->tp_alloc(type, 0);
    if (P == NULL)
        return NULL;
    P->entries = entries;
    P->table = PyMem_Calloc((size_t)entries, sizeof(uint8_t));
    if (P->table == NULL) {
        Py_DECREF(P);
        return PyErr_NoMemory();
    }
    return (PyObject *)P;
}

static void BinMLP_dealloc(PyObject *self)
{
    void *tables[1] = {((BinMLP *)self)->table};
    pred_dealloc_tables(self, tables, 1);
}

/* predict(pc) -> bool: MLP expected (True when untrained) */
static PyObject *BinMLP_predict(PyObject *self, PyObject *args,
                                PyObject *kwds)
{
    static char *kwlist[] = {"pc", NULL};
    long long pc;
    BinMLP *P = (BinMLP *)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "L:predict", kwlist, &pc))
        return NULL;
    P->lookups += 1;
    return PyBool_FromLong(P->table[py_mod(pc, P->entries)] != 1);
}

/* train(pc, distance) */
static PyObject *BinMLP_train(PyObject *self, PyObject *args,
                              PyObject *kwds)
{
    static char *kwlist[] = {"pc", "distance", NULL};
    long long pc, distance;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "LL:train", kwlist, &pc,
                                     &distance))
        return NULL;
    binmlp_train((BinMLP *)self, pc, distance);
    Py_RETURN_NONE;
}

static PyObject *binmlp_item(PyObject *self, int64_t i)
{
    uint8_t v = ((BinMLP *)self)->table[i];
    return Py_NewRef(v == 0 ? Py_None : v == 2 ? Py_True : Py_False);
}

static PyObject *BinMLP_state(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    return trained_dict(self, ((BinMLP *)self)->entries, binmlp_item);
}

static PyMethodDef BinMLP_methods[] = {
    {"predict", (PyCFunction)(void (*)(void))BinMLP_predict,
     METH_VARARGS | METH_KEYWORDS,
     "predict(pc) -> bool: MLP expected for this long-latency load."},
    {"train", (PyCFunction)(void (*)(void))BinMLP_train,
     METH_VARARGS | METH_KEYWORDS,
     "train(pc, distance): MLP seen when distance > 0."},
    {"state", BinMLP_state, METH_NOARGS,
     "state() -> {index: bool} of the trained entries."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef BinMLP_getset[] = {
    I64_FIELD(BinMLP, lookups, "predict() calls."),
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject BinMLP_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.pipeline._cext_engine.BinaryMLPPredictor",
    .tp_doc = "BinaryMLPPredictor(entries=2048) as a native table.",
    .tp_basicsize = sizeof(BinMLP),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = BinMLP_new,
    .tp_dealloc = BinMLP_dealloc,
    .tp_methods = BinMLP_methods,
    .tp_getset = BinMLP_getset,
};

/* --- GShare -------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    int64_t entries, n_threads, predictions, mispredictions;
    uint8_t *table;         /* 2-bit counters, shared */
    int64_t *history;       /* one global history per thread */
} GShareN;

static PyTypeObject GShare_Type;

/* `thread` as a Python list index into the histories. */
static int gshare_thread(GShareN *G, int64_t thread, int64_t *t)
{
    if (thread < 0)
        thread += G->n_threads;
    if (thread < 0 || thread >= G->n_threads) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    *t = thread;
    return 0;
}

/* update(pc, taken, t) with bool(taken) == truth and int(taken) == tv;
 * returns the prediction (the caller scores it). */
static int gshare_step(GShareN *G, int64_t pc, int truth, int64_t tv,
                       int64_t t)
{
    int64_t mask = G->entries - 1;
    int64_t history = G->history[t];
    int64_t i = (pc ^ history) & mask;
    int counter = G->table[i];
    if (truth) {
        if (counter < 3)
            G->table[i] = (uint8_t)(counter + 1);
    } else if (counter > 0) {
        G->table[i] = (uint8_t)(counter - 1);
    }
    G->history[t] = (int64_t)(((uint64_t)history << 1) | (uint64_t)tv)
        & mask;
    G->predictions += 1;
    return counter >= 2;
}

/* The fetch stage's update: a bool outcome from thread t. */
static int gshare_update(GShareN *G, int64_t pc, int taken, int64_t thread,
                         int *prediction)
{
    int64_t t;
    if (gshare_thread(G, thread, &t) < 0)
        return -1;
    *prediction = gshare_step(G, pc, taken, taken, t);
    if (*prediction != taken)
        G->mispredictions += 1;
    return 0;
}

static PyObject *GShare_new(PyTypeObject *type, PyObject *args,
                            PyObject *kwds)
{
    long long entries = 2048, n_threads = 1;
    static char *kwlist[] = {"entries", "num_threads", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|LL:GShare", kwlist,
                                     &entries, &n_threads))
        return NULL;
    if (entries <= 0 || (entries & (entries - 1)))
        return value_error("gshare entries must be a positive power of two");
    if (n_threads < 1)
        return value_error("need at least one thread");
    GShareN *G = (GShareN *)type->tp_alloc(type, 0);
    if (G == NULL)
        return NULL;
    G->entries = entries;
    G->n_threads = n_threads;
    G->table = PyMem_Malloc((size_t)entries);
    G->history = PyMem_Calloc((size_t)n_threads, sizeof(int64_t));
    if (G->table == NULL || G->history == NULL) {
        Py_DECREF(G);
        return PyErr_NoMemory();
    }
    memset(G->table, 2, (size_t)entries);      /* weakly taken */
    return (PyObject *)G;
}

static void GShare_dealloc(PyObject *self)
{
    GShareN *G = (GShareN *)self;
    void *tables[2] = {G->table, G->history};
    pred_dealloc_tables(self, tables, 2);
}

/* predict(pc, thread=0) -> bool */
static PyObject *GShare_predict(PyObject *self, PyObject *args,
                                PyObject *kwds)
{
    static char *kwlist[] = {"pc", "thread", NULL};
    long long pc, thread = 0;
    int64_t t;
    GShareN *G = (GShareN *)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "L|L:predict", kwlist, &pc,
                                     &thread)
        || gshare_thread(G, thread, &t) < 0)
        return NULL;
    return PyBool_FromLong(
        G->table[(pc ^ G->history[t]) & (G->entries - 1)] >= 2);
}

/* update(pc, taken, thread=0) -> the prediction, as GShare.update:
 * `taken` trains by truth value and enters the history as int(taken). */
static PyObject *GShare_update_py(PyObject *self, PyObject *args,
                                  PyObject *kwds)
{
    static char *kwlist[] = {"pc", "taken", "thread", NULL};
    long long pc, thread = 0;
    int64_t t, tv;
    PyObject *taken;
    GShareN *G = (GShareN *)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "LO|L:update", kwlist, &pc,
                                     &taken, &thread)
        || gshare_thread(G, thread, &t) < 0)
        return NULL;
    int truth = PyObject_IsTrue(taken);
    if (truth < 0)
        return NULL;
    PyObject *as_int = PyNumber_Long(taken);
    int rc = as_int == NULL ? -1 : int64_arg(as_int, &tv);
    Py_XDECREF(as_int);
    if (rc < 0)
        return NULL;
    PyObject *prediction = PyBool_FromLong(gshare_step(G, pc, truth, tv, t));
    int wrong = PyObject_RichCompareBool(prediction, taken, Py_NE);
    if (wrong < 0)
        Py_CLEAR(prediction);
    else if (wrong)
        G->mispredictions += 1;
    return prediction;
}

static PyObject *GShare_accuracy(PyObject *self, void *Py_UNUSED(closure))
{
    GShareN *G = (GShareN *)self;
    if (!G->predictions)
        return PyFloat_FromDouble(1.0);
    return PyFloat_FromDouble(
        1.0 - (double)G->mispredictions / (double)G->predictions);
}

static PyObject *GShare_state(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    GShareN *G = (GShareN *)self;
    PyObject *table = PyList_New((Py_ssize_t)G->entries);
    PyObject *history = PyList_New((Py_ssize_t)G->n_threads);
    PyObject *out = NULL;
    if (table == NULL || history == NULL)
        goto done;
    for (int64_t i = 0; i < G->entries; i++)
        PyList_SET_ITEM(table, i, box_ll(G->table[i]));
    for (int64_t i = 0; i < G->n_threads; i++) {
        PyObject *h = PyLong_FromLongLong(G->history[i]);
        if (h == NULL)
            goto done;
        PyList_SET_ITEM(history, i, h);
    }
    out = Py_BuildValue("{sOsO}", "table", table, "history", history);
done:
    Py_XDECREF(table);
    Py_XDECREF(history);
    return out;
}

static PyMethodDef GShare_methods[] = {
    {"predict", (PyCFunction)(void (*)(void))GShare_predict,
     METH_VARARGS | METH_KEYWORDS, "predict(pc, thread=0) -> bool."},
    {"update", (PyCFunction)(void (*)(void))GShare_update_py,
     METH_VARARGS | METH_KEYWORDS,
     "update(pc, taken, thread=0) -> the prediction; trains."},
    {"state", GShare_state, METH_NOARGS,
     "state() -> {'table': counters, 'history': per-thread histories}."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef GShare_getset[] = {
    I64_FIELD(GShareN, predictions, "Branches predicted."),
    I64_FIELD(GShareN, mispredictions, "Branches mispredicted."),
    {"accuracy", GShare_accuracy, NULL,
     "1 - mispredictions / predictions (1.0 before any).", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject GShare_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.pipeline._cext_engine.GShare",
    .tp_doc = "GShare(entries=2048, num_threads=1) as a native table.",
    .tp_basicsize = sizeof(GShareN),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = GShare_new,
    .tp_dealloc = GShare_dealloc,
    .tp_methods = GShare_methods,
    .tp_getset = GShare_getset,
};

/* --- BTB ----------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    int64_t num_sets, assoc, hits, misses;
    int64_t *pcs;           /* set s at pcs[s * assoc], least recent first */
    int64_t *count;         /* entries per set */
} BTBN;

static PyTypeObject BTB_Type;

/* The way holding pc in its set (*w, *n), or -1. */
static int64_t btb_find(BTBN *B, int64_t pc, int64_t **w, int64_t **n)
{
    int64_t s = py_mod(pc, B->num_sets);
    *w = B->pcs + s * B->assoc;
    *n = B->count + s;
    for (int64_t j = 0; j < **n; j++)
        if ((*w)[j] == pc)
            return j;
    return -1;
}

/* Move way j of a set of n entries to the most recent end. */
static void btb_touch(int64_t *w, int64_t n, int64_t j)
{
    int64_t pc = w[j];
    memmove(w + j, w + j + 1, (size_t)(n - j - 1) * sizeof(int64_t));
    w[n - 1] = pc;
}

/* lookup(pc) (1 on a hit, which becomes most recent), then, when
 * `insert`, insert(pc) (a miss evicts the least recent of a full set). */
static int btb_access(BTBN *B, int64_t pc, int lookup, int insert)
{
    int64_t *w, *n;
    int64_t j = btb_find(B, pc, &w, &n);
    if (j >= 0) {
        btb_touch(w, *n, j);
        if (lookup)
            B->hits += 1;
        return 1;
    }
    if (lookup)
        B->misses += 1;
    if (insert) {
        if (*n >= B->assoc) {
            btb_touch(w, *n, 0);
            w[*n - 1] = pc;
        } else {
            w[(*n)++] = pc;
        }
    }
    return 0;
}

static PyObject *BTB_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    long long entries = 256, assoc = 4;
    static char *kwlist[] = {"entries", "assoc", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|LL:BTB", kwlist, &entries,
                                     &assoc))
        return NULL;
    if (assoc == 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "integer modulo by zero");
        return NULL;
    }
    if (assoc > 0 && entries % assoc)
        return value_error("entries must divide evenly into ways");
    if (assoc < 1 || entries < assoc)
        return value_error("the native BTB needs a set of at least one way");
    BTBN *B = (BTBN *)type->tp_alloc(type, 0);
    if (B == NULL)
        return NULL;
    B->num_sets = entries / assoc;
    B->assoc = assoc;
    B->pcs = PyMem_Calloc((size_t)entries, sizeof(int64_t));
    B->count = PyMem_Calloc((size_t)B->num_sets, sizeof(int64_t));
    if (B->pcs == NULL || B->count == NULL) {
        Py_DECREF(B);
        return PyErr_NoMemory();
    }
    return (PyObject *)B;
}

static void BTB_dealloc(PyObject *self)
{
    BTBN *B = (BTBN *)self;
    void *tables[2] = {B->pcs, B->count};
    pred_dealloc_tables(self, tables, 2);
}

static char *btb_kwlist[] = {"pc", NULL};

/* lookup(pc) -> bool: the branch has an entry (target known) */
static PyObject *BTB_lookup(PyObject *self, PyObject *args, PyObject *kwds)
{
    long long pc;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "L:lookup", btb_kwlist, &pc))
        return NULL;
    return PyBool_FromLong(btb_access((BTBN *)self, pc, 1, 0));
}

/* insert(pc) */
static PyObject *BTB_insert(PyObject *self, PyObject *args, PyObject *kwds)
{
    long long pc;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "L:insert", btb_kwlist, &pc))
        return NULL;
    btb_access((BTBN *)self, pc, 0, 1);
    Py_RETURN_NONE;
}

static PyObject *BTB_state(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    BTBN *B = (BTBN *)self;
    PyObject *sets = PyList_New((Py_ssize_t)B->num_sets);
    for (int64_t s = 0; sets != NULL && s < B->num_sets; s++) {
        PyObject *set = PyList_New((Py_ssize_t)B->count[s]);
        for (int64_t j = 0; set != NULL && j < B->count[s]; j++) {
            PyObject *pc = PyLong_FromLongLong(B->pcs[s * B->assoc + j]);
            if (pc == NULL)
                Py_CLEAR(set);
            else
                PyList_SET_ITEM(set, j, pc);
        }
        if (set == NULL)
            Py_CLEAR(sets);
        else
            PyList_SET_ITEM(sets, s, set);
    }
    return sets;
}

static PyMethodDef BTB_methods[] = {
    {"lookup", (PyCFunction)(void (*)(void))BTB_lookup,
     METH_VARARGS | METH_KEYWORDS,
     "lookup(pc) -> bool: a hit becomes the set's most recent entry."},
    {"insert", (PyCFunction)(void (*)(void))BTB_insert,
     METH_VARARGS | METH_KEYWORDS,
     "insert(pc): most recent; a full set evicts its least recent."},
    {"state", BTB_state, METH_NOARGS,
     "state() -> per set, its PCs from least to most recent."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef BTB_getset[] = {
    I64_FIELD(BTBN, hits, "Lookups that hit."),
    I64_FIELD(BTBN, misses, "Lookups that missed."),
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject BTB_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.pipeline._cext_engine.BTB",
    .tp_doc = "BTB(entries=256, assoc=4) as a native table, each set in "
              "recency order.",
    .tp_basicsize = sizeof(BTBN),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = BTB_new,
    .tp_dealloc = BTB_dealloc,
    .tp_methods = BTB_methods,
    .tp_getset = BTB_getset,
};

/* --- LLSR ---------------------------------------------------------- */

/* repro.predictors.llsr.LLSR: the same ring of bits and PCs, head, fill
 * count, commit count and watermark (the commit index of the most recent
 * 1; the distance algebra is in that module's docstring), in C arrays.
 * measured stays a list of (pc, distance) pairs (reset_measurement
 * assigns a new one) and on_measure any callable or None.  PCs are int64
 * (OverflowError outside, as the other native types), commit_zeros
 * refuses k < 0, and a callback that raises leaves the register as it
 * stood after the commit that measured. */
typedef struct {
    PyObject_HEAD
    int64_t length, head, filled, total, last_one, suppressed;
    char exclude_dependent;
    uint8_t *bits;
    int64_t *pcs;           /* the load's pc beside a 1 bit */
    PyObject *on_measure;   /* the constructor's callable, or None */
    PyObject *measured;     /* list of (pc, distance) */
} LLSRN;

static PyTypeObject LLSR_Type;

/* The MLP predictors a measurement trains in C: both set when
 * on_measure is the owning thread's own ThreadState._train_mlp (the run
 * loop decides once per run, see take_parts); else both NULL and
 * on_measure is called. */
typedef struct {
    MLPDist *dist;
    BinMLP *bin;
} Trainer;

static const Trainer NO_TRAINER = {NULL, NULL};

/* A 1 left the head at `distance`: log (pc, distance) in measured, then
 * train T's predictors or call on_measure. */
static int llsr_measure(LLSRN *L, const Trainer *T, int64_t pc,
                        int64_t distance)
{
    if (distance < 0)
        distance = 0;
    PyObject *p = box_ll(pc), *d = box_ll(distance);
    PyObject *pair = p == NULL || d == NULL ? NULL : PyTuple_Pack(2, p, d);
    int bad = pair == NULL
        || (L->measured != NULL && PyList_Append(L->measured, pair) < 0);
    Py_XDECREF(pair);
    if (!bad && T->dist != NULL) {
        mlpdist_train(T->dist, pc, distance);
        binmlp_train(T->bin, pc, distance);
    } else if (!bad && L->on_measure != NULL && L->on_measure != Py_None) {
        PyObject *f = Py_NewRef(L->on_measure);
        PyObject *args[2] = {p, d};
        PyObject *r = PyObject_Vectorcall(f, args, 2, NULL);
        bad = r == NULL;
        Py_XDECREF(r);
        Py_DECREF(f);
    }
    Py_XDECREF(p);
    Py_XDECREF(d);
    return bad ? -1 : 0;
}

/* Room for k more commits in the commit count. */
static int llsr_room(const LLSRN *L, int64_t k)
{
    if (k <= INT64_MAX - L->total)
        return 0;
    PyErr_SetString(PyExc_OverflowError, "LLSR commit count past int64");
    return -1;
}

/* LLSR.commit: shift one commit in (a 1 when `insert`, unless it is
 * `dependent` and those are excluded); *distance is the distance
 * measured for the 1 that left the head, or -1. */
static int llsr_commit(LLSRN *L, int insert, int64_t pc, int dependent,
                       const Trainer *T, int64_t *distance)
{
    *distance = -1;
    if (llsr_room(L, 1) < 0)
        return -1;
    if (insert && dependent && L->exclude_dependent) {
        insert = 0;
        L->suppressed += 1;
    }
    int64_t total = ++L->total;
    if (insert)
        L->last_one = total;
    if (L->filled < L->length) {
        L->bits[L->filled] = (uint8_t)insert;
        L->pcs[L->filled++] = pc;
        return 0;
    }
    int64_t head = L->head;
    int head_bit = L->bits[head];
    int64_t head_pc = L->pcs[head];
    L->bits[head] = (uint8_t)insert;
    L->pcs[head] = pc;
    L->head = head + 1 < L->length ? head + 1 : 0;
    if (!head_bit)
        return 0;
    *distance = L->last_one - total + L->length;
    if (*distance < 0)
        *distance = 0;
    return llsr_measure(L, T, head_pc, *distance);
}

/* LLSR.commit_zeros: k commits of 0 bits, measuring every 1 that leaves
 * the head, in order.  Only the commits while the window still holds a
 * 1 are shifted one by one; the rest is a head and count bump. */
static int llsr_zeros(LLSRN *L, int64_t k, const Trainer *T)
{
    if (llsr_room(L, k) < 0)
        return -1;
    int64_t length = L->length;
    if (L->filled < length) {   /* zeros land on pristine slots */
        int64_t take = length - L->filled < k ? length - L->filled : k;
        L->filled += take;
        L->total += take;
        k -= take;
    }
    for (int64_t live = length - (L->total - L->last_one);
         k > 0 && live > 0; k--, live--) {
        int64_t head = L->head;
        L->total += 1;
        L->head = head + 1 < length ? head + 1 : 0;
        if (L->bits[head]) {
            L->bits[head] = 0;
            if (llsr_measure(L, T, L->pcs[head],
                             L->last_one - L->total + length) < 0)
                return -1;
        }
    }
    if (k > 0) {
        L->total += k;
        L->head = (L->head + k % length) % length;
    }
    return 0;
}

static PyObject *LLSR_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    long long length;
    PyObject *on_measure = Py_None;
    int exclude = 0;
    static char *kwlist[] = {"length", "on_measure", "exclude_dependent",
                             NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "L|Op:LLSR", kwlist,
                                     &length, &on_measure, &exclude))
        return NULL;
    if (length < 2)
        return value_error("LLSR needs at least two entries");
    LLSRN *L = (LLSRN *)type->tp_alloc(type, 0);
    if (L == NULL)
        return NULL;
    L->length = length;
    L->exclude_dependent = (char)exclude;
    L->on_measure = Py_NewRef(on_measure);
    L->bits = PyMem_Calloc((size_t)length, sizeof(uint8_t));
    L->pcs = PyMem_Calloc((size_t)length, sizeof(int64_t));
    if (L->bits == NULL || L->pcs == NULL
        || (L->measured = PyList_New(0)) == NULL) {
        Py_DECREF(L);
        return PyErr_Occurred() ? NULL : PyErr_NoMemory();
    }
    return (PyObject *)L;
}

static int LLSR_traverse(PyObject *self, visitproc visit, void *arg)
{
    LLSRN *L = (LLSRN *)self;
    Py_VISIT(L->on_measure);
    Py_VISIT(L->measured);
    return 0;
}

static int LLSR_clear(PyObject *self)
{
    LLSRN *L = (LLSRN *)self;
    Py_CLEAR(L->on_measure);
    Py_CLEAR(L->measured);
    return 0;
}

static void LLSR_dealloc(PyObject *self)
{
    LLSRN *L = (LLSRN *)self;
    PyObject_GC_UnTrack(self);
    LLSR_clear(self);
    PyMem_Free(L->bits);
    PyMem_Free(L->pcs);
    Py_TYPE(self)->tp_free(self);
}

/* commit(is_long_latency_load, pc=-1, dependent=False) -> the distance
 * measured for the 1 that left the head, or None */
static PyObject *LLSR_commit(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"is_long_latency_load", "pc", "dependent",
                             NULL};
    int insert, dependent = 0;
    long long pc = -1;
    int64_t distance;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "p|Lp:commit", kwlist,
                                     &insert, &pc, &dependent)
        || llsr_commit((LLSRN *)self, insert, pc, dependent, &NO_TRAINER,
                       &distance) < 0)
        return NULL;
    if (distance < 0)
        Py_RETURN_NONE;
    return box_ll(distance);
}

/* commit_zeros(k) */
static PyObject *LLSR_commit_zeros(PyObject *self, PyObject *args,
                                   PyObject *kwds)
{
    static char *kwlist[] = {"k", NULL};
    long long k;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "L:commit_zeros", kwlist,
                                     &k))
        return NULL;
    if (k < 0)
        return value_error("commit_zeros needs k >= 0");
    if (llsr_zeros((LLSRN *)self, k, &NO_TRAINER) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* state() -> the ring in slot order (a pc of -1 beside a 0 bit), with
 * its head, fill count, commit count and watermark */
static PyObject *LLSR_state(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    LLSRN *L = (LLSRN *)self;
    PyObject *bits = PyList_New((Py_ssize_t)L->length);
    PyObject *pcs = PyList_New((Py_ssize_t)L->length);
    PyObject *out = NULL;
    for (int64_t i = 0; bits != NULL && pcs != NULL && i < L->length; i++) {
        PyList_SET_ITEM(bits, i, box_ll(L->bits[i]));
        PyList_SET_ITEM(pcs, i, box_ll(L->bits[i] ? L->pcs[i] : -1));
    }
    if (bits != NULL && pcs != NULL && !PyErr_Occurred())
        out = Py_BuildValue("{sOsOsLsLsLsL}", "bits", bits, "pcs", pcs,
                            "head", (long long)L->head,
                            "filled", (long long)L->filled,
                            "total", (long long)L->total,
                            "last_one", (long long)L->last_one);
    Py_XDECREF(bits);
    Py_XDECREF(pcs);
    return out;
}

static int LLSR_set_measured(PyObject *self, PyObject *value,
                             void *Py_UNUSED(closure))
{
    if (value == NULL || !PyList_Check(value)) {
        PyErr_SetString(PyExc_TypeError, "measured must be a list");
        return -1;
    }
    Py_XSETREF(((LLSRN *)self)->measured, Py_NewRef(value));
    return 0;
}

static PyMethodDef LLSR_methods[] = {
    {"commit", (PyCFunction)(void (*)(void))LLSR_commit,
     METH_VARARGS | METH_KEYWORDS,
     "commit(is_long_latency_load, pc=-1, dependent=False) -> the MLP "
     "distance measured this commit, or None."},
    {"commit_zeros", (PyCFunction)(void (*)(void))LLSR_commit_zeros,
     METH_VARARGS | METH_KEYWORDS,
     "commit_zeros(k): k commits of non-long-latency instructions."},
    {"state", LLSR_state, METH_NOARGS,
     "state() -> {'bits', 'pcs', 'head', 'filled', 'total', 'last_one'}."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef LLSR_getset[] = {
    {"length", get_i64, NULL, "Entries.",
     (void *)offsetof(LLSRN, length)},
    {"occupancy", get_i64, NULL, "Entries shifted in while filling.",
     (void *)offsetof(LLSRN, filled)},
    I64_FIELD(LLSRN, suppressed,
              "Long-latency loads demoted to 0 bits as dependent."),
    {"measured", get_obj, LLSR_set_measured,
     "(pc, distance) per measurement.", (void *)offsetof(LLSRN, measured)},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef LLSR_members[] = {
    {"exclude_dependent", T_BOOL, offsetof(LLSRN, exclude_dependent), 0,
     "Demote dependent long-latency loads to 0 bits."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject LLSR_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.pipeline._cext_engine.LLSR",
    .tp_doc = "LLSR(length, on_measure=None, exclude_dependent=False) as "
              "native state; a cext thread's register.",
    .tp_basicsize = sizeof(LLSRN),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = LLSR_new,
    .tp_dealloc = LLSR_dealloc,
    .tp_traverse = LLSR_traverse,
    .tp_clear = LLSR_clear,
    .tp_methods = LLSR_methods,
    .tp_members = LLSR_members,
    .tp_getset = LLSR_getset,
};

#undef I64_FIELD

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

/* A trace body position's row, read once per core (see Body): the
 * fields a fetch copies into the arena's columns (see there; the
 * flags template holds the Instr's class bits, F_TAKEN and
 * F_FP_QUEUE), the position's kind and, for an iteration-varying
 * position of an exact SyntheticTrace, its _dyn entry's terms.  Up to
 * seven source registers (each below 64, the rename map's size) are
 * packed as count | reg_i << 8 (i + 1); -1 (more) leaves them to the
 * Instr. */
enum { B_PC, B_FLAGS, B_OP, B_LAT, B_DEST, B_SRCS, B_ADDR, B_KIND, B_T,
       N_B = B_T + 7 };
/* B_KIND: BK_STATIC, every fetch of the position is its static Instr;
 * a SlotKind (> 0), the terms give each fetch's address and direction;
 * BK_GET, every fetch calls get. */
enum { BK_GET = -1, BK_STATIC = 0 };

/* Per SlotKind, its _dyn entry's terms (see SyntheticTrace._dyn_params):
 * their count, and bit i of `keys`: term i is a hash key (the seed or
 * local pc), of `pos`: it must be positive (a modulus or a period). */
static const struct { int n, keys, pos; } DYN_TERMS[SK_COND_BRANCH + 1] = {
    [SK_STREAM_LOAD] = {3, 0, 4}, [SK_STREAM_STORE] = {3, 0, 4},
    [SK_HOT_LOAD] = {4, 0, 4}, [SK_STORE] = {4, 0, 4},
    [SK_CHASE_LOAD] = {5, 0, 2 | 8}, [SK_RANDOM_LOAD] = {5, 2 | 4, 8},
    [SK_BURST_LOAD] = {7, 2 | 4, 8 | 32}, [SK_COND_BRANCH] = {3, 2 | 4, 0},
};

/* Parse the _dyn entry `spec` into row r's terms: spec[2:] as int64,
 * the hash keys as their low 64 bits and a branch's probability as a
 * double's bits.  Returns the slot kind, or BK_GET where a term does
 * not fit (get then builds every fetch of the position). */
static int64_t dyn_row(PyObject *spec, int64_t *r)
{
    long long kind, x;
    if (!PyTuple_CheckExact(spec) || PyTuple_GET_SIZE(spec) < 2
        || !obj_fits(PyTuple_GET_ITEM(spec, 0), &kind) || kind < 1
        || kind > SK_COND_BRANCH || DYN_TERMS[kind].n == 0
        || PyTuple_GET_SIZE(spec) != 2 + DYN_TERMS[kind].n
        || Py_TYPE(PyTuple_GET_ITEM(spec, 1)) != g.instr_type)
        return BK_GET;
    for (int i = 0; i < DYN_TERMS[kind].n; i++) {
        PyObject *v = PyTuple_GET_ITEM(spec, 2 + i);
        if (kind == SK_COND_BRANCH && i == 0) {
            if (!PyFloat_CheckExact(v))
                return BK_GET;
            double prob = PyFloat_AS_DOUBLE(v);
            memcpy(&r[B_T], &prob, sizeof(prob));
        } else if ((DYN_TERMS[kind].keys >> i) & 1) {
            if (!PyLong_Check(v))
                return BK_GET;
            r[B_T + i] = (int64_t)PyLong_AsUnsignedLongLongMask(v);
        } else if (!obj_fits(v, &x)
                   || (((DYN_TERMS[kind].pos >> i) & 1) && x <= 0)) {
            return BK_GET;
        } else {
            r[B_T + i] = x;
        }
    }
    return kind;
}

/* A fetch of iteration `it` of row r's position: its flags and address
 * (0 for an instruction that is neither a load nor a store), computed
 * as SyntheticTrace.get computes them for a varying position.  Returns
 * 0 where the fetch must call get instead: a BK_GET row, a negative
 * iteration (a flush rewound the index below 0) or an intermediate
 * value outside 64 bits. */
static inline int row_eval(const int64_t *r, long long it, int64_t *addr,
                           int64_t *flags)
{
    const int64_t *p = &r[B_T];
    long long off;
    if (r[B_KIND] == BK_GET || (r[B_KIND] != BK_STATIC && it < 0))
        return 0;
    *flags = r[B_FLAGS];
    *addr = r[B_ADDR];
    switch (r[B_KIND]) {
    case BK_STATIC:
        return 1;
    case SK_STREAM_LOAD:
    case SK_STREAM_STORE:
        /* base + (iteration * stride) % footprint */
        return !__builtin_mul_overflow(it, p[1], &off)
            && !__builtin_add_overflow(p[0], py_mod(off, p[2]), addr);
    case SK_HOT_LOAD:
    case SK_STORE:
        /* base + ((local_pc * 811 + iteration) % lines) * line */
        return !__builtin_add_overflow(p[1], it, &off)
            && !__builtin_mul_overflow(py_mod(off, p[2]), p[3], &off)
            && !__builtin_add_overflow(p[0], off, addr);
    case SK_CHASE_LOAD:
        /* base + (((iteration // every) * 2654435761 + index) % lines)
         *        * line */
        return !__builtin_mul_overflow(it / p[1], CHASE_WALK_MULT, &off)
            && !__builtin_add_overflow(off, p[2], &off)
            && !__builtin_mul_overflow(py_mod(off, p[3]), p[4], &off)
            && !__builtin_add_overflow(p[0], off, addr);
    case SK_BURST_LOAD:
        /* the random-line address on every `every`-th iteration, the
         * fixed hot address on the others */
        if (it % p[5] != 0) {
            *addr = p[6];
            return 1;
        }
        /* fall through */
    case SK_RANDOM_LOAD: {
        /* base + (mix64(seed, local_pc, iteration) % lines) * line */
        uint64_t h = mix64_3((uint64_t)p[1], (uint64_t)p[2],
                             (uint64_t)it);
        return !__builtin_mul_overflow((long long)(h % (uint64_t)p[3]),
                                       p[4], &off)
            && !__builtin_add_overflow(p[0], off, addr);
    }
    case SK_COND_BRANCH: {
        /* uniform_double(seed, local_pc, iteration) < taken_prob */
        double prob;
        memcpy(&prob, &p[0], sizeof(prob));
        if ((double)mix64_3((uint64_t)p[1], (uint64_t)p[2], (uint64_t)it)
                / 18446744073709551616.0 < prob)
            *flags |= F_TAKEN;
        return 1;
    }
    default:
        return 0;
    }
}

/* The source registers of `instr` into regs: their count, or -1 with
 * an error for more than MAX_SRCS or one outside the rename map. */
static Py_ssize_t instr_srcs(PyObject *instr, int64_t *regs)
{
    PyObject *srcs = SLOT(instr, OFF.in_srcs);
    Py_ssize_t n = PyTuple_GET_SIZE(srcs);
    if (n > MAX_SRCS) {
        PyErr_SetString(PyExc_RuntimeError, "too many source operands");
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        long long r = PyLong_AsLongLong(PyTuple_GET_ITEM(srcs, i));
        if (r < 0 || r >= 64) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_IndexError, "source register %lld is "
                             "outside the rename map", r);
            return -1;
        }
        regs[i] = r;
    }
    return n;
}

/* Row r from `instr`: with_addr, its address too, which a load or store
 * must carry as an int that fits int64 (a prototype's is None). */
static int instr_row(PyObject *instr, int64_t *row, int with_addr)
{
    int64_t flags = 0;
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
    /* Instr stores bools: Instr.__init__ takes bool(taken) */
    if (SLOT(instr, OFF.in_taken) == Py_True)
        flags |= F_TAKEN;
    if (SLOT(instr, OFF.in_fp_queue) == Py_True)
        flags |= F_FP_QUEUE;
    row[B_FLAGS] = flags;
    row[B_ADDR] = 0;
    if (with_addr && (flags & F_MEM)
        && int64_arg(SLOT(instr, OFF.in_addr), &row[B_ADDR]) < 0)
        return -1;
    row[B_PC] = PyLong_AsLongLong(SLOT(instr, OFF.in_pc));
    row[B_OP] = PyLong_AsLongLong(SLOT(instr, OFF.in_op_i));
    row[B_LAT] = PyLong_AsLongLong(SLOT(instr, OFF.in_latency));
    row[B_DEST] = flags & F_HAS_DEST
        ? PyLong_AsLongLong(SLOT(instr, OFF.in_dest)) : -1;
    if ((flags & F_HAS_DEST) && (row[B_DEST] < 0 || row[B_DEST] >= 64)
        && !PyErr_Occurred())
        PyErr_Format(PyExc_IndexError, "destination register %lld is "
                     "outside the rename map", (long long)row[B_DEST]);
    int64_t regs[MAX_SRCS];
    Py_ssize_t n = PyErr_Occurred() ? -1 : instr_srcs(instr, regs);
    if (n < 0)
        return -1;
    row[B_SRCS] = n <= 7 ? n : -1;
    for (Py_ssize_t i = 0; i < n && n <= 7; i++)
        row[B_SRCS] |= regs[i] << (8 * i + 8);
    return 0;
}

/* get(index): the instruction a trace's get returns; a new reference,
 * or NULL with an error (TypeError for anything but an Instr). */
static PyObject *call_get(PyObject *get, long long index)
{
    PyObject *fi = box_ll(index);
    if (fi == NULL)
        return NULL;
    PyObject *instr = PyObject_CallOneArg(get, fi);
    Py_DECREF(fi);
    if (instr != NULL && !PyObject_TypeCheck(instr, g.instr_type)) {
        PyErr_Format(PyExc_TypeError, "a trace's get returned %.100s, "
                     "not an Instr", Py_TYPE(instr)->tp_name);
        Py_CLEAR(instr);
    }
    return instr;
}

/* The Instr a varying position's fetch stands for: a clone of its
 * prototype with the fetch's address (None unless a load or store) and
 * direction (the trace module's _from_proto).  A new reference. */
static PyObject *clone_instr(PyObject *proto, int64_t flags, int64_t addr)
{
    PyObject *addr_obj = flags & F_MEM ? PyLong_FromLongLong(addr)
                                       : Py_NewRef(Py_None);
    if (addr_obj == NULL)
        return NULL;
    PyTypeObject *tp = g.instr_type;
    PyObject *ins = tp->tp_alloc(tp, 0);
    for (int i = 0; ins != NULL && i < g.n_instr_offs; i++) {
        Py_ssize_t off = g.instr_offs[i];
        PyObject *v = off == OFF.in_addr ? addr_obj
            : off == OFF.in_taken ? (flags & F_TAKEN ? Py_True : Py_False)
            : SLOT(proto, off);
        Py_XINCREF(v);
        *(PyObject **)((char *)ins + off) = v;
    }
    Py_DECREF(addr_obj);
    return ins;
}


/* ------------------------------------------------------------------ */
/* the slot arena: native memory for everything that holds slots      */
/* ------------------------------------------------------------------ */

/* A growable int64 vector: the free list, the heaps (entries of `w`
 * int64s, compared lexicographically, in the flat heap order heapq
 * keeps; heap_push and heap_pop are inlined at each call site for its
 * constant `w`), the wheels' entry pools and the per-slot waiter and
 * long-latency-parent lists. */
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

/* A Python list of n int64s. */
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

/* Heap entries are unique packed stamps, cycle marks or (cycle, packed)
 * pairs: the order is strict and total, so this heap pops exactly what
 * heapq would.  Every call site passes a constant width, and the push
 * and pop are inlined into it, so each compiles for its own width: no
 * division by `w`, no copy loops, and a call to ivec_reserve only to
 * grow. */
#if defined(__GNUC__) || defined(__clang__)
#define ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE inline
#endif

static ALWAYS_INLINE int ent_lt(const int64_t *a, const int64_t *b, int w)
{
    return a[0] != b[0] ? a[0] < b[0] : (w == 2 && a[1] < b[1]);
}

static ALWAYS_INLINE int heap_push(IVec *h, int64_t k, int64_t p, int w)
{
    if (h->n + w > h->cap && ivec_reserve(h, h->n + w) < 0)
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
static ALWAYS_INLINE void heap_pop(IVec *h, int64_t *out, int w)
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

/* ------------------------------------------------------------------ */
/* the native memory model (MemoryHierarchy as C state)                */
/* ------------------------------------------------------------------ */

/* repro.memory.hierarchy.MemoryHierarchy, transliterated: the four
 * caches, the two TLBs, the pending-fill table, the MSHR fill heap, the
 * stream buffers and their stride table are C memory, so an access
 * boxes nothing, edits no dict and allocates nothing (a long-latency
 * load's `ll_intervals` tuple aside).  The Python class stays the
 * object engine's model and the reference tests/test_native_hierarchy.py
 * holds this one to, state for state.  Values follow Python's integer
 * semantics (`>>`, `//` and `%` floor); a value outside int64 raises
 * OverflowError instead of wrapping. */

/* StridePredictor's max_confidence as the prefetcher builds it. */
#define STRIDE_MAX_CONF 3

static int overflow(void)
{
    PyErr_SetString(PyExc_OverflowError,
                    "memory model value does not fit in int64");
    return -1;
}

#define ADD_OR_FAIL(a, b, out) \
    do { if (__builtin_add_overflow((a), (b), (out))) return overflow(); } \
    while (0)
#define SUB_OR_FAIL(a, b, out) \
    do { if (__builtin_sub_overflow((a), (b), (out))) return overflow(); } \
    while (0)
#define MUL_OR_FAIL(a, b, out) \
    do { if (__builtin_mul_overflow((a), (b), (out))) return overflow(); } \
    while (0)

static inline int64_t max64(int64_t a, int64_t b)
{
    return a > b ? a : b;
}

/* Python's `v >> s` (floors on negative v). */
static inline int64_t shr(int64_t v, int s)
{
    return v >= 0 ? v >> s : ~(~v >> s);
}

/* Python's `a // b` for b > 0. */
static inline int64_t floordiv(int64_t a, int64_t b)
{
    int64_t q = a / b;
    return (a % b != 0 && a < 0) ? q - 1 : q;
}

/* An int64 -> int64 hash map: open addressing, linear probing, deletion
 * by backward shift (no tombstones), doubling past half load. */
typedef struct {
    int64_t *key, *val;
    uint8_t *used;
    int64_t mask;       /* capacity - 1, capacity a power of two >= 8 */
    int64_t n;
    int shift;          /* 64 - log2(capacity) */
} Map;

static inline int64_t map_home(const Map *m, int64_t k)
{
    return (int64_t)(((uint64_t)k * 0x9E3779B97F4A7C15ULL) >> m->shift);
}

static int map_init(Map *m, int64_t cap)
{
    int bits = 3;
    while (((int64_t)1 << bits) < cap)
        bits++;
    cap = (int64_t)1 << bits;
    m->key = PyMem_Malloc((size_t)cap * sizeof(int64_t));
    m->val = PyMem_Malloc((size_t)cap * sizeof(int64_t));
    m->used = PyMem_Calloc((size_t)cap, 1);
    if (m->key == NULL || m->val == NULL || m->used == NULL) {
        PyMem_Free(m->key);
        PyMem_Free(m->val);
        PyMem_Free(m->used);
        m->key = m->val = NULL;
        m->used = NULL;
        PyErr_NoMemory();
        return -1;
    }
    m->mask = cap - 1;
    m->n = 0;
    m->shift = 64 - bits;
    return 0;
}

static void map_free(Map *m)
{
    PyMem_Free(m->key);
    PyMem_Free(m->val);
    PyMem_Free(m->used);
}

/* The slot holding key k, or -1. */
static inline int64_t map_find(const Map *m, int64_t k)
{
    for (int64_t i = map_home(m, k);; i = (i + 1) & m->mask) {
        if (!m->used[i])
            return -1;
        if (m->key[i] == k)
            return i;
    }
}

static int map_put(Map *m, int64_t k, int64_t v);

static int map_grow(Map *m)
{
    Map old = *m;
    if (map_init(m, 2 * (old.mask + 1)) < 0) {
        *m = old;
        return -1;
    }
    for (int64_t i = 0; i <= old.mask; i++)
        if (old.used[i])
            map_put(m, old.key[i], old.val[i]);
    map_free(&old);
    return 0;
}

/* m[k] = v (insert or overwrite). */
static int map_put(Map *m, int64_t k, int64_t v)
{
    int64_t i = map_home(m, k);
    for (; m->used[i]; i = (i + 1) & m->mask)
        if (m->key[i] == k) {
            m->val[i] = v;
            return 0;
        }
    if (2 * (m->n + 1) > m->mask + 1) {
        if (map_grow(m) < 0)
            return -1;
        return map_put(m, k, v);
    }
    m->used[i] = 1;
    m->key[i] = k;
    m->val[i] = v;
    m->n++;
    return 0;
}

/* Delete the entry in slot i, shifting later entries of its probe run
 * back so every key stays reachable from its home slot. */
static void map_del(Map *m, int64_t i)
{
    for (int64_t j = i;;) {
        j = (j + 1) & m->mask;
        if (!m->used[j])
            break;
        int64_t home = map_home(m, m->key[j]);
        if (((j - home) & m->mask) >= ((j - i) & m->mask)) {
            m->key[i] = m->key[j];
            m->val[i] = m->val[j];
            i = j;
        }
    }
    m->used[i] = 0;
    m->n--;
}

/* One cache level (Cache): each set's lines in recency order, least
 * recent first, so a hit moves its line to the end and a fill into a
 * full set evicts the first. */
typedef struct {
    int64_t *tag;           /* num_sets * assoc */
    int32_t *cnt;           /* lines held per set */
    int64_t num_sets, assoc, set_mask;  /* set_mask -1: num_sets not 2^k */
    int shift;
    int64_t hits, misses;
} MCache;

static inline int64_t set_of(const MCache *c, int64_t line)
{
    /* for a power-of-two modulus `&` is Python's floor `%`, negatives
     * included */
    return c->set_mask >= 0 ? (line & c->set_mask) : py_mod(line, c->num_sets);
}

/* The way of `line` in its set (and the set), or -1. */
static inline int32_t cache_find(const MCache *c, int64_t line, int64_t *s)
{
    *s = set_of(c, line);
    const int64_t *set = c->tag + *s * c->assoc;
    for (int32_t w = c->cnt[*s] - 1; w >= 0; w--)
        if (set[w] == line)
            return w;
    return -1;
}

/* Move way w of set s to the most-recent end. */
static inline void to_mru(MCache *c, int64_t s, int32_t w)
{
    int64_t *set = c->tag + s * c->assoc;
    int32_t n = c->cnt[s];
    int64_t line = set[w];
    memmove(set + w, set + w + 1, (size_t)(n - 1 - w) * sizeof(int64_t));
    set[n - 1] = line;
}

/* Cache.lookup: 1 on a hit (refreshed), 0 on a miss. */
static inline int cache_lookup(MCache *c, int64_t addr)
{
    int64_t s;
    int32_t w = cache_find(c, shr(addr, c->shift), &s);
    if (w < 0) {
        c->misses++;
        return 0;
    }
    to_mru(c, s, w);
    c->hits++;
    return 1;
}

/* Cache.touch: refresh recency if present. */
static inline void cache_touch(MCache *c, int64_t addr)
{
    int64_t s;
    int32_t w = cache_find(c, shr(addr, c->shift), &s);
    if (w >= 0)
        to_mru(c, s, w);
}

/* Cache.install: refresh a present line, else fill, evicting the LRU
 * line of a full set. */
static void cache_install(MCache *c, int64_t addr)
{
    int64_t s, line = shr(addr, c->shift);
    int32_t w = cache_find(c, line, &s);
    if (w >= 0) {
        to_mru(c, s, w);
        return;
    }
    int64_t *set = c->tag + s * c->assoc;
    int32_t n = c->cnt[s];
    if (n >= c->assoc) {
        memmove(set, set + 1, (size_t)(n - 1) * sizeof(int64_t));
        set[n - 1] = line;
    } else {
        set[n] = line;
        c->cnt[s] = n + 1;
    }
}

/* Cache.invalidate: drop the line, the others keep their order. */
static void cache_invalidate(MCache *c, int64_t addr)
{
    int64_t s;
    int32_t w = cache_find(c, shr(addr, c->shift), &s);
    if (w >= 0) {
        int64_t *set = c->tag + s * c->assoc;
        memmove(set + w, set + w + 1,
                (size_t)(c->cnt[s] - 1 - w) * sizeof(int64_t));
        c->cnt[s]--;
    }
}

/* A fully associative TLB: a recency list over `cap` nodes (head least
 * recent) with a page -> node index, so a lookup never scans. */
typedef struct {
    Map index;
    int64_t *page;
    int32_t *prev, *next;
    int32_t head, tail, n, cap;
    int shift;
    int64_t hits, misses;
} MTlb;

static inline void tlb_unlink(MTlb *t, int32_t i)
{
    if (t->prev[i] >= 0)
        t->next[t->prev[i]] = t->next[i];
    else
        t->head = t->next[i];
    if (t->next[i] >= 0)
        t->prev[t->next[i]] = t->prev[i];
    else
        t->tail = t->prev[i];
}

static inline void tlb_append(MTlb *t, int32_t i)
{
    t->prev[i] = t->tail;
    t->next[i] = -1;
    if (t->tail >= 0)
        t->next[t->tail] = i;
    else
        t->head = i;
    t->tail = i;
}

/* TLB.lookup: 1 on a hit (refreshed); 0 on a miss, which fills the page
 * (evicting the least recent one when full); -1 on error. */
static int tlb_lookup(MTlb *t, int64_t addr)
{
    int64_t page = shr(addr, t->shift);
    int64_t k = map_find(&t->index, page);
    if (k >= 0) {
        int32_t i = (int32_t)t->index.val[k];
        if (i != t->tail) {
            tlb_unlink(t, i);
            tlb_append(t, i);
        }
        t->hits++;
        return 1;
    }
    t->misses++;
    int32_t i;
    if (t->n >= t->cap) {
        i = t->head;
        int64_t victim = map_find(&t->index, t->page[i]);
        if (victim >= 0)    /* always, unless a test planted a defect */
            map_del(&t->index, victim);
        tlb_unlink(t, i);
    } else {
        i = t->n++;
    }
    t->page[i] = page;
    tlb_append(t, i);
    return map_put(&t->index, page, i) < 0 ? -1 : 0;
}

/* One stream buffer: its lines (and their fill-ready cycles) in
 * insertion order. */
typedef struct {
    int64_t *line, *ready;
    int64_t n;
    int64_t next_addr, stride, last_used, hits_since_alloc, alloc_cycle;
    int valid;
} SBuf;

/* A stride-table entry (stride_predictor._Entry) and its table index;
 * like the Python table, only the indices observe has seen have one. */
typedef struct {
    int64_t idx, last_addr, stride, confidence;
} StrideEnt;

enum { C_L1I, C_L1D, C_L2, C_L3, N_CACHES };
static const char *const CACHE_NAMES[N_CACHES] = {"l1i", "l1d", "l2", "l3"};

typedef struct {
    PyObject_HEAD
    PyObject *cfg;
    PyObject *ll_intervals;     /* list of (start, end) */
    PyObject *ll_per_thread;    /* dict: thread -> long-latency loads */
    int64_t demand_loads, merged_loads, prefetch_covered;
    int64_t l1_lat, l2_lat, l3_lat, mem_lat, tlb_pen, mshr;
    int serialize;
    MCache c[N_CACHES];
    MTlb itlb, dtlb;
    Map pending;                /* line -> data-ready cycle */
    IVec fills;                 /* heap of outstanding demand-fill ends */
    int64_t last_ll_end;
    /* StreamBufferPrefetcher (pf_on) and its StridePredictor */
    int pf_on, pf_shift;
    SBuf *bufs;
    int64_t n_bufs, buf_entries;
    Map stride_index;           /* table index -> its entry in `stride` */
    StrideEnt *stride;          /* the entries, in creation order */
    int64_t stride_n, stride_cap, stride_entries, threshold;
    int64_t pf_hits, pf_lookups, pf_allocs, pf_issued;
} Mem;

/* The outcome of one data access (AccessResult's fields). */
typedef struct {
    int64_t done, detect, fill_line;
    int level, tlb_miss, ll, trigger, has_fill;
} MemResult;

/* StridePredictor.observe (its _entry creates a missing entry). */
static int stride_observe(Mem *M, int64_t pc, int64_t addr)
{
    int64_t idx = py_mod(pc, M->stride_entries);
    int64_t k = map_find(&M->stride_index, idx);
    StrideEnt *e;
    if (k >= 0) {
        e = &M->stride[M->stride_index.val[k]];
    } else {
        if (M->stride_n == M->stride_cap) {
            int64_t cap = M->stride_cap ? 2 * M->stride_cap : 16;
            StrideEnt *v = PyMem_Realloc(M->stride,
                                         (size_t)cap * sizeof(StrideEnt));
            if (v == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            M->stride = v;
            M->stride_cap = cap;
        }
        if (map_put(&M->stride_index, idx, M->stride_n) < 0)
            return -1;
        e = &M->stride[M->stride_n++];
        *e = (StrideEnt){idx, -1, 0, 0};
    }
    if (e->last_addr >= 0) {
        int64_t stride;
        SUB_OR_FAIL(addr, e->last_addr, &stride);
        if (stride == e->stride) {
            if (e->confidence < STRIDE_MAX_CONF)
                e->confidence++;
        } else if (e->confidence > 0) {
            e->confidence--;
        } else {
            e->stride = stride;
        }
    }
    e->last_addr = addr;
    return 0;
}

/* StreamBufferPrefetcher._top_up: prefetch until the buffer is full,
 * skipping (but stepping past) lines it already holds. */
static int sbuf_top_up(Mem *M, SBuf *B, int64_t cycle)
{
    while (B->n < M->buf_entries) {
        int64_t line = shr(B->next_addr, M->pf_shift), step, i = 0;
        while (i < B->n && B->line[i] != line)
            i++;
        if (i == B->n) {
            ADD_OR_FAIL(cycle, M->mem_lat, &B->ready[B->n]);
            B->line[B->n++] = line;
            M->pf_issued++;
        }
        MUL_OR_FAIL(B->stride, (int64_t)1 << M->pf_shift, &step);
        ADD_OR_FAIL(B->next_addr, step, &B->next_addr);
    }
    return 0;
}

/* StreamBufferPrefetcher._maybe_allocate: a confident stride claims the
 * first invalid buffer, else the least useful dead one (if any). */
static int sbuf_allocate(Mem *M, int64_t pc, int64_t addr, int64_t cycle)
{
    int64_t k = map_find(&M->stride_index, py_mod(pc, M->stride_entries));
    if (k < 0)
        return 0;   /* confident_stride never creates an entry */
    const StrideEnt *e = &M->stride[M->stride_index.val[k]];
    if (e->confidence < M->threshold || e->stride == 0)
        return 0;
    int64_t stride = e->stride, line_size = (int64_t)1 << M->pf_shift;
    int64_t line_stride = stride > 0 ? 1 : -1, t, grace;
    if (stride > line_size) {
        ADD_OR_FAIL(stride, line_size - 1, &t);
        line_stride = floordiv(t, line_size);
    } else if (stride < -line_size) {
        SUB_OR_FAIL(stride, line_size - 1, &t);
        line_stride = floordiv(t, line_size);
    }
    MUL_OR_FAIL(16, M->mem_lat, &grace);
    SBuf *victim = NULL;
    for (int64_t b = 0; b < M->n_bufs && victim == NULL; b++)
        if (!M->bufs[b].valid)
            victim = &M->bufs[b];
    if (victim == NULL) {
        for (int64_t b = 0; b < M->n_bufs; b++) {
            SBuf *B = &M->bufs[b];
            int64_t since_alloc, since_used;
            SUB_OR_FAIL(cycle, B->alloc_cycle, &since_alloc);
            SUB_OR_FAIL(cycle, B->last_used, &since_used);
            if (!((B->hits_since_alloc == 0 && since_alloc >= grace)
                  || since_used >= grace))
                continue;
            /* min by (hits_since_alloc, last_used); the first wins ties */
            if (victim == NULL
                || B->hits_since_alloc < victim->hits_since_alloc
                || (B->hits_since_alloc == victim->hits_since_alloc
                    && B->last_used < victim->last_used))
                victim = B;
        }
        if (victim == NULL)
            return 0;
    }
    int64_t next;
    MUL_OR_FAIL(line_stride, line_size, &t);
    ADD_OR_FAIL(addr, t, &next);
    victim->valid = 1;
    victim->alloc_cycle = cycle;
    victim->n = 0;
    victim->stride = line_stride;
    victim->last_used = cycle;
    victim->hits_since_alloc = 0;
    victim->next_addr = next;
    M->pf_allocs++;
    return sbuf_top_up(M, victim, cycle);
}

/* StreamBufferPrefetcher.demand_miss: 1 with *ready when a buffer holds
 * the line (consumed and topped up), 0 when none does (a stream may be
 * allocated), -1 on error. */
static int sbuf_demand_miss(Mem *M, int64_t pc, int64_t addr, int64_t cycle,
                            int64_t *ready)
{
    M->pf_lookups++;
    int64_t line = shr(addr, M->pf_shift);
    for (int64_t b = 0; b < M->n_bufs; b++) {
        SBuf *B = &M->bufs[b];
        int64_t i = 0;
        if (!B->valid)
            continue;
        while (i < B->n && B->line[i] != line)
            i++;
        if (i == B->n)
            continue;
        *ready = max64(B->ready[i], cycle);
        B->last_used = cycle;
        B->hits_since_alloc++;
        M->pf_hits++;
        /* _consume: retire the line and its stale predecessors */
        int64_t k = 0;
        for (i = 0; i < B->n; i++)
            if (B->stride >= 0 ? B->line[i] > line : B->line[i] < line) {
                B->line[k] = B->line[i];
                B->ready[k++] = B->ready[i];
            }
        B->n = k;
        return sbuf_top_up(M, B, cycle) < 0 ? -1 : 1;
    }
    return sbuf_allocate(M, pc, addr, cycle);
}

/* `done` for a long-latency outcome: serialized behind the last one
 * when the config asks, and recorded as the new last end. */
static inline int64_t ll_end(Mem *M, int64_t done)
{
    if (M->serialize)
        done = max64(done, M->last_ll_end);
    M->last_ll_end = max64(M->last_ll_end, done);
    return done;
}

/* MemoryHierarchy._mshr_admit: bound concurrent demand fills. */
static int mshr_admit(Mem *M, int64_t *start)
{
    int64_t e;
    while (M->fills.n && M->fills.v[0] <= *start)
        heap_pop(&M->fills, &e, 1);
    if (M->fills.n >= M->mshr) {
        if (M->fills.n == 0) {
            PyErr_SetString(PyExc_IndexError, "index out of range");
            return -1;
        }
        heap_pop(&M->fills, &e, 1);
        *start = max64(*start, e);
    }
    return 0;
}

/* MemoryHierarchy._data_access into *r. */
static int mem_data_access(Mem *M, int64_t pc, int64_t addr, int64_t cycle,
                           int tlb_miss, int demand, MemResult *r)
{
    int64_t start, detect, done, t;
    ADD_OR_FAIL(cycle, tlb_miss ? M->tlb_pen : 0, &start);
    ADD_OR_FAIL(cycle, M->l2_lat, &t);
    ADD_OR_FAIL(t, 3, &detect);
    int64_t line = shr(addr, M->c[C_L1D].shift);
    r->detect = detect;
    r->tlb_miss = tlb_miss;
    r->has_fill = 0;
    int64_t k = map_find(&M->pending, line);
    if (k >= 0) {
        int64_t ready = M->pending.val[k];
        if (ready > start) {
            /* a delayed hit merges into the in-flight fill */
            M->merged_loads++;
            ADD_OR_FAIL(start, M->l1_lat, &t);
            done = max64(ready, t);
            if (tlb_miss)
                done = ll_end(M, done);
            SUB_OR_FAIL(done, detect, &t);
            r->done = done;
            r->level = LV_MERGE;
            r->ll = tlb_miss;
            r->trigger = tlb_miss || t >= M->l3_lat;
            return 0;
        }
        map_del(&M->pending, k);
    }
    if (cache_lookup(&M->c[C_L1D], addr)) {
        ADD_OR_FAIL(start, M->l1_lat, &done);
        if (tlb_miss) {
            if (M->serialize)
                ADD_OR_FAIL(max64(done, M->last_ll_end), M->l1_lat, &done);
            M->last_ll_end = max64(M->last_ll_end, done);
        }
        r->level = LV_L1;
        r->ll = tlb_miss;
        goto out;
    }
    if (M->pf_on && demand) {
        int64_t ready = 0, remaining;
        int hit = sbuf_demand_miss(M, pc, addr, start, &ready);
        if (hit < 0)
            return -1;
        if (hit) {
            SUB_OR_FAIL(ready, start, &remaining);
            remaining = max64(remaining, 0);
            ADD_OR_FAIL(start, M->l1_lat, &t);
            ADD_OR_FAIL(t, remaining, &done);
            cache_install(&M->c[C_L1D], addr);
            /* a prefetch still mostly in flight did not hide the
             * memory latency */
            r->ll = tlb_miss || remaining >= M->l3_lat;
            if (remaining < M->l3_lat)
                M->prefetch_covered++;
            if (r->ll)
                done = ll_end(M, done);
            r->level = LV_STREAM;
            goto out;
        }
    }
    if (cache_lookup(&M->c[C_L2], addr)) {
        cache_install(&M->c[C_L1D], addr);
        cache_touch(&M->c[C_L3], addr);
        ADD_OR_FAIL(start, M->l2_lat, &done);
        r->level = LV_L2;
    } else if (cache_lookup(&M->c[C_L3], addr)) {
        cache_install(&M->c[C_L1D], addr);
        cache_install(&M->c[C_L2], addr);
        ADD_OR_FAIL(start, M->l3_lat, &done);
        r->level = LV_L3;
    } else {
        /* a miss all the way to DRAM */
        int64_t fill_start = start;
        if (demand) {
            if (mshr_admit(M, &fill_start) < 0)
                return -1;
            if (M->serialize)
                fill_start = max64(fill_start, M->last_ll_end);
        }
        ADD_OR_FAIL(fill_start, M->mem_lat, &done);
        if (demand) {
            if (heap_push(&M->fills, done, 0, 1) < 0)
                return -1;
            M->last_ll_end = max64(M->last_ll_end, done);
        }
        for (int i = C_L1D; i <= C_L3; i++)
            cache_install(&M->c[i], addr);
        if (map_put(&M->pending, line, done) < 0)
            return -1;
        r->done = done;
        r->level = LV_MEM;
        r->ll = r->trigger = r->has_fill = demand;
        r->fill_line = line;
        return 0;
    }
    if (tlb_miss)
        done = ll_end(M, done);
    r->ll = tlb_miss;
out:
    r->done = done;
    r->trigger = r->ll;
    return 0;
}

/* MemoryHierarchy.load (demand) / .store into *r; `thread` keys
 * ll_loads_per_thread. */
static int mem_access(Mem *M, PyObject *thread, int64_t pc, int64_t addr,
                      int64_t cycle, int demand, MemResult *r)
{
    if (demand)
        M->demand_loads++;
    int hit = tlb_lookup(&M->dtlb, addr);
    if (hit < 0 || (demand && M->pf_on && stride_observe(M, pc, addr) < 0)
        || mem_data_access(M, pc, addr, cycle, !hit, demand, r) < 0)
        return -1;
    if (!demand || !r->ll)
        return 0;
    /* a long-latency load: counted per thread, its interval kept */
    if (M->ll_intervals == NULL || M->ll_per_thread == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "memory model was cleared");
        return -1;
    }
    PyObject *old = PyDict_GetItemWithError(M->ll_per_thread, thread);
    if (old == NULL && PyErr_Occurred())
        return -1;
    PyObject *count = old == NULL ? box_ll(1)
        : PyNumber_Add(old, g.small_ints[1]);
    if (count == NULL)
        return -1;
    int rc = PyDict_SetItem(M->ll_per_thread, thread, count);
    Py_DECREF(count);
    if (rc < 0)
        return -1;
    PyObject *a = box_ll(cycle), *b = box_ll(r->done);
    PyObject *pair = a && b ? PyTuple_Pack(2, a, b) : NULL;
    Py_XDECREF(a);
    Py_XDECREF(b);
    rc = pair == NULL ? -1 : PyList_Append(M->ll_intervals, pair);
    Py_XDECREF(pair);
    return rc;
}

/* MemoryHierarchy.ifetch into *done. */
static int mem_ifetch(Mem *M, int64_t addr, int64_t cycle, int64_t *done)
{
    int hit = tlb_lookup(&M->itlb, addr);
    if (hit < 0)
        return -1;
    int64_t start, line = shr(addr, M->c[C_L1I].shift);
    ADD_OR_FAIL(cycle, hit ? 0 : M->tlb_pen, &start);
    int64_t k = map_find(&M->pending, line);
    if (k >= 0 && M->pending.val[k] > start) {
        *done = M->pending.val[k];
        return 0;
    }
    if (cache_lookup(&M->c[C_L1I], addr)) {
        *done = start;   /* overlapped with the fetch stage itself */
        return 0;
    }
    if (cache_lookup(&M->c[C_L2], addr)) {
        cache_install(&M->c[C_L1I], addr);
        ADD_OR_FAIL(start, M->l2_lat, done);
        return 0;
    }
    if (cache_lookup(&M->c[C_L3], addr)) {
        cache_install(&M->c[C_L1I], addr);
        cache_install(&M->c[C_L2], addr);
        ADD_OR_FAIL(start, M->l3_lat, done);
        return 0;
    }
    ADD_OR_FAIL(start, M->mem_lat, done);
    cache_install(&M->c[C_L1I], addr);
    cache_install(&M->c[C_L2], addr);
    cache_install(&M->c[C_L3], addr);
    return map_put(&M->pending, line, *done);
}

/* MemoryHierarchy.cancel_fill: 1 when a live fill was cancelled. */
static int mem_cancel_fill(Mem *M, int64_t line, int64_t addr, int64_t cycle)
{
    int64_t k = map_find(&M->pending, line);
    if (k < 0 || M->pending.val[k] <= cycle)
        return 0;
    map_del(&M->pending, k);
    for (int i = C_L1D; i <= C_L3; i++)
        cache_invalidate(&M->c[i], addr);
    return 1;
}

/* --- the Python face: construction, the methods, state and check --- */

/* getattr(o, name) as int64. */
static int attr_int(PyObject *o, const char *name, int64_t *out)
{
    PyObject *v = PyObject_GetAttrString(o, name);
    if (v == NULL)
        return -1;
    int rc = int64_arg(v, out);
    Py_DECREF(v);
    return rc;
}

/* log2 of `v`, or -1 with the ValueError the Python part raises. */
static int pow2_shift(int64_t v, const char *what)
{
    if (v <= 0 || (v & (v - 1))) {
        PyErr_Format(PyExc_ValueError, "%s must be a power of two", what);
        return -1;
    }
    int s = 0;
    while (((int64_t)1 << s) < v)
        s++;
    return s;
}

static int cache_init(MCache *c, PyObject *cfg, const char *name)
{
    PyObject *cc = PyObject_GetAttrString(cfg, name);
    int64_t line_size, cells;
    int rc = cc == NULL || attr_int(cc, "num_sets", &c->num_sets) < 0
        || attr_int(cc, "assoc", &c->assoc) < 0
        || attr_int(cc, "line_size", &line_size) < 0 ? -1 : 0;
    Py_XDECREF(cc);
    if (rc < 0 || (c->shift = pow2_shift(line_size, "line size")) < 0)
        return -1;
    if (c->num_sets <= 0 || c->assoc <= 0 || c->assoc > INT32_MAX
        || __builtin_mul_overflow(c->num_sets, c->assoc, &cells)) {
        PyErr_Format(PyExc_ValueError, "%s geometry out of range", name);
        return -1;
    }
    c->set_mask = (c->num_sets & (c->num_sets - 1)) ? -1 : c->num_sets - 1;
    c->tag = PyMem_Calloc((size_t)cells, sizeof(int64_t));
    c->cnt = PyMem_Calloc((size_t)c->num_sets, sizeof(int32_t));
    if (c->tag == NULL || c->cnt == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static int tlb_init(MTlb *t, PyObject *cfg, const char *name)
{
    PyObject *tc = PyObject_GetAttrString(cfg, name);
    int64_t entries, page_size;
    int rc = tc == NULL || attr_int(tc, "entries", &entries) < 0
        || attr_int(tc, "page_size", &page_size) < 0 ? -1 : 0;
    Py_XDECREF(tc);
    t->head = t->tail = -1;
    if (rc < 0 || (t->shift = pow2_shift(page_size, "page size")) < 0)
        return -1;
    if (entries <= 0 || entries > INT32_MAX / 4) {
        PyErr_Format(PyExc_ValueError, "%s entries out of range", name);
        return -1;
    }
    t->cap = (int32_t)entries;
    t->page = PyMem_Malloc((size_t)entries * sizeof(int64_t));
    t->prev = PyMem_Malloc((size_t)entries * sizeof(int32_t));
    t->next = PyMem_Malloc((size_t)entries * sizeof(int32_t));
    if (t->page == NULL || t->prev == NULL || t->next == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return map_init(&t->index, 2 * entries);
}

static int prefetcher_init(Mem *M, PyObject *cfg)
{
    PyObject *pf = PyObject_GetAttrString(cfg, "prefetcher");
    PyObject *on = pf == NULL ? NULL : PyObject_GetAttrString(pf, "enabled");
    int rc = -1;
    if (on == NULL || (M->pf_on = PyObject_IsTrue(on)) < 0)
        goto done;
    rc = 0;
    if (!M->pf_on)
        goto done;
    rc = -1;
    int64_t n_bufs, entries;
    if (attr_int(pf, "num_buffers", &n_bufs) < 0
        || attr_int(pf, "buffer_entries", &entries) < 0
        || attr_int(pf, "stride_table_entries", &M->stride_entries) < 0
        || attr_int(pf, "confidence_threshold", &M->threshold) < 0)
        goto done;
    if (M->stride_entries <= 0) {
        PyErr_SetString(PyExc_ValueError, "entries must be positive");
        goto done;
    }
    M->pf_shift = M->c[C_L1D].shift;   /* cfg.line_size is the L1D's */
    M->buf_entries = entries > 0 ? entries : 0;
    if (map_init(&M->stride_index, 64) < 0)
        goto done;
    M->bufs = PyMem_Calloc(n_bufs > 0 ? (size_t)n_bufs : 1, sizeof(SBuf));
    if (M->bufs == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (; M->n_bufs < n_bufs; M->n_bufs++) {
        SBuf *B = &M->bufs[M->n_bufs];
        B->line = PyMem_Malloc((size_t)(M->buf_entries + 1) * sizeof(int64_t));
        B->ready = PyMem_Malloc((size_t)(M->buf_entries + 1)
                                * sizeof(int64_t));
        B->last_used = B->alloc_cycle = -1;
        if (B->line == NULL || B->ready == NULL) {
            M->n_bufs++;
            PyErr_NoMemory();
            goto done;
        }
    }
    rc = 0;
done:
    Py_XDECREF(on);
    Py_XDECREF(pf);
    return rc;
}

static void Mem_dealloc(PyObject *self)
{
    Mem *M = (Mem *)self;
    PyObject_GC_UnTrack(self);
    Py_CLEAR(M->cfg);
    Py_CLEAR(M->ll_intervals);
    Py_CLEAR(M->ll_per_thread);
    for (int i = 0; i < N_CACHES; i++) {
        PyMem_Free(M->c[i].tag);
        PyMem_Free(M->c[i].cnt);
    }
    MTlb *tlbs[2] = {&M->itlb, &M->dtlb};
    for (int i = 0; i < 2; i++) {
        PyMem_Free(tlbs[i]->page);
        PyMem_Free(tlbs[i]->prev);
        PyMem_Free(tlbs[i]->next);
        map_free(&tlbs[i]->index);
    }
    map_free(&M->pending);
    PyMem_Free(M->fills.v);
    for (int64_t b = 0; b < M->n_bufs; b++) {
        PyMem_Free(M->bufs[b].line);
        PyMem_Free(M->bufs[b].ready);
    }
    PyMem_Free(M->bufs);
    map_free(&M->stride_index);
    PyMem_Free(M->stride);
    Py_TYPE(self)->tp_free(self);
}

/* Hierarchy(cfg): a MemoryHierarchy(cfg) in native memory. */
static PyObject *Mem_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *cfg;
    static char *kwlist[] = {"cfg", NULL};
    if (!g.ready) {
        PyErr_SetString(PyExc_RuntimeError,
                        "_cext_engine.setup() has not run");
        return NULL;
    }
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:Hierarchy", kwlist,
                                     &cfg))
        return NULL;
    Mem *M = (Mem *)type->tp_alloc(type, 0);
    if (M == NULL)
        return NULL;
    Py_INCREF(cfg);
    M->cfg = cfg;
    PyObject *serialize = NULL;
    for (int i = 0; i < N_CACHES; i++)
        if (cache_init(&M->c[i], cfg, CACHE_NAMES[i]) < 0)
            goto fail;
    if (tlb_init(&M->itlb, cfg, "itlb") < 0
        || tlb_init(&M->dtlb, cfg, "dtlb") < 0
        || prefetcher_init(M, cfg) < 0
        || attr_int(cfg, "l1_latency", &M->l1_lat) < 0
        || attr_int(cfg, "l2_latency", &M->l2_lat) < 0
        || attr_int(cfg, "l3_latency", &M->l3_lat) < 0
        || attr_int(cfg, "mem_latency", &M->mem_lat) < 0
        || attr_int(cfg, "tlb_miss_penalty", &M->tlb_pen) < 0
        || attr_int(cfg, "mshr_entries", &M->mshr) < 0
        || (serialize = PyObject_GetAttrString(
                cfg, "serialize_long_latency")) == NULL
        || (M->serialize = PyObject_IsTrue(serialize)) < 0
        || map_init(&M->pending, 64) < 0
        || (M->ll_intervals = PyList_New(0)) == NULL
        || (M->ll_per_thread = PyDict_New()) == NULL)
        goto fail;
    Py_DECREF(serialize);
    return (PyObject *)M;
fail:
    Py_XDECREF(serialize);
    Py_DECREF(M);
    return NULL;
}

static int Mem_traverse(PyObject *self, visitproc visit, void *arg)
{
    Mem *M = (Mem *)self;
    Py_VISIT(M->cfg);
    Py_VISIT(M->ll_intervals);
    Py_VISIT(M->ll_per_thread);
    return 0;
}

static int Mem_clear(PyObject *self)
{
    Mem *M = (Mem *)self;
    Py_CLEAR(M->cfg);
    Py_CLEAR(M->ll_intervals);
    Py_CLEAR(M->ll_per_thread);
    return 0;
}

/* The AccessResult of *r. */
static PyObject *access_result(const MemResult *r)
{
    PyObject *done = PyLong_FromLongLong(r->done);
    PyObject *detect = PyLong_FromLongLong(r->detect);
    PyObject *fill = r->has_fill ? PyLong_FromLongLong(r->fill_line)
                                 : Py_NewRef(Py_None);
    PyObject *out = NULL;
    if (done != NULL && detect != NULL && fill != NULL) {
        PyObject *args[7] = {done, detect, g.levels[r->level],
                             r->tlb_miss ? Py_True : Py_False,
                             r->ll ? Py_True : Py_False,
                             r->trigger ? Py_True : Py_False, fill};
        out = PyObject_Vectorcall(g.result_cls, args, 7, NULL);
    }
    Py_XDECREF(done);
    Py_XDECREF(detect);
    Py_XDECREF(fill);
    return out;
}

/* load/store(thread, pc, addr, cycle) -> AccessResult. */
static PyObject *mem_access_py(PyObject *self, PyObject *const *args,
                               Py_ssize_t nargs, int demand)
{
    int64_t pc, addr, cycle;
    MemResult r;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, demand
                        ? "load(thread, pc, addr, cycle)"
                        : "store(thread, pc, addr, cycle)");
        return NULL;
    }
    if (int64_arg(args[1], &pc) < 0 || int64_arg(args[2], &addr) < 0
        || int64_arg(args[3], &cycle) < 0
        || mem_access((Mem *)self, args[0], pc, addr, cycle, demand, &r) < 0)
        return NULL;
    return access_result(&r);
}

static PyObject *Mem_load(PyObject *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    return mem_access_py(self, args, nargs, 1);
}

static PyObject *Mem_store(PyObject *self, PyObject *const *args,
                           Py_ssize_t nargs)
{
    return mem_access_py(self, args, nargs, 0);
}

/* ifetch(thread, addr, cycle) -> completion cycle. */
static PyObject *Mem_ifetch(PyObject *self, PyObject *const *args,
                            Py_ssize_t nargs)
{
    int64_t addr, cycle, done;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "ifetch(thread, addr, cycle)");
        return NULL;
    }
    if (int64_arg(args[1], &addr) < 0 || int64_arg(args[2], &cycle) < 0
        || mem_ifetch((Mem *)self, addr, cycle, &done) < 0)
        return NULL;
    return PyLong_FromLongLong(done);
}

/* cancel_fill(line, addr, cycle) -> bool. */
static PyObject *Mem_cancel_fill(PyObject *self, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    int64_t line, addr, cycle;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "cancel_fill(line, addr, cycle)");
        return NULL;
    }
    if (int64_arg(args[0], &line) < 0 || int64_arg(args[1], &addr) < 0
        || int64_arg(args[2], &cycle) < 0)
        return NULL;
    return PyBool_FromLong(mem_cancel_fill((Mem *)self, line, addr, cycle));
}

static PyObject *Mem_mlp(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *l = ((Mem *)self)->ll_intervals;    /* NULL once cleared */
    return PyObject_CallOneArg(g.mlp_fn, l != NULL ? l : Py_None);
}

/* A new dict from `n` (key, value) int64 pairs taken by `get`. */
static PyObject *pairs_dict(const int64_t *k, const int64_t *v,
                            const uint8_t *used, int64_t n)
{
    PyObject *d = PyDict_New();
    for (int64_t i = 0; d != NULL && i < n; i++) {
        if (used != NULL && !used[i])
            continue;
        PyObject *a = PyLong_FromLongLong(k[i]);
        PyObject *b = PyLong_FromLongLong(v[i]);
        if (a == NULL || b == NULL || PyDict_SetItem(d, a, b) < 0)
            Py_CLEAR(d);
        Py_XDECREF(a);
        Py_XDECREF(b);
    }
    return d;
}

static PyObject *cache_state(const MCache *c)
{
    PyObject *sets = PyList_New((Py_ssize_t)c->num_sets);
    for (int64_t s = 0; sets != NULL && s < c->num_sets; s++) {
        PyObject *lines = ivec_list(c->tag + s * c->assoc, c->cnt[s]);
        if (lines == NULL)
            Py_CLEAR(sets);
        else
            PyList_SET_ITEM(sets, (Py_ssize_t)s, lines);
    }
    return sets == NULL ? NULL
        : Py_BuildValue("(NLL)", sets, (long long)c->hits,
                        (long long)c->misses);
}

static PyObject *tlb_state(const MTlb *t)
{
    int64_t *pages = PyMem_Malloc(((size_t)t->n + 1) * sizeof(int64_t));
    if (pages == NULL)
        return PyErr_NoMemory();
    int64_t k = 0;
    for (int32_t i = t->head; i >= 0 && k < t->n; i = t->next[i])
        pages[k++] = t->page[i];
    PyObject *lst = ivec_list(pages, k);
    PyMem_Free(pages);
    return lst == NULL ? NULL
        : Py_BuildValue("(NLL)", lst, (long long)t->hits,
                        (long long)t->misses);
}

static PyObject *prefetcher_state(const Mem *M)
{
    if (!M->pf_on)
        Py_RETURN_NONE;
    PyObject *stride = PyDict_New();
    for (int64_t i = 0; stride != NULL && i < M->stride_n; i++) {
        const StrideEnt *e = &M->stride[i];
        PyObject *k = PyLong_FromLongLong(e->idx);
        PyObject *v = Py_BuildValue("(LLL)", (long long)e->last_addr,
                                    (long long)e->stride,
                                    (long long)e->confidence);
        if (k == NULL || v == NULL || PyDict_SetItem(stride, k, v) < 0)
            Py_CLEAR(stride);
        Py_XDECREF(k);
        Py_XDECREF(v);
    }
    PyObject *bufs = stride == NULL ? NULL : PyList_New((Py_ssize_t)M->n_bufs);
    for (int64_t b = 0; bufs != NULL && b < M->n_bufs; b++) {
        const SBuf *B = &M->bufs[b];
        PyObject *entries = pairs_dict(B->line, B->ready, NULL, B->n);
        PyObject *item = entries == NULL ? NULL : Py_BuildValue(
            "(NLLLNLL)", entries, (long long)B->next_addr,
            (long long)B->stride, (long long)B->last_used,
            PyBool_FromLong(B->valid), (long long)B->hits_since_alloc,
            (long long)B->alloc_cycle);
        if (item == NULL)
            Py_CLEAR(bufs);
        else
            PyList_SET_ITEM(bufs, (Py_ssize_t)b, item);
    }
    if (bufs == NULL) {
        Py_XDECREF(stride);
        return NULL;
    }
    return Py_BuildValue("{sNsNsLsLsLsL}", "stride", stride, "buffers", bufs,
                         "hits", (long long)M->pf_hits,
                         "lookups", (long long)M->pf_lookups,
                         "allocations", (long long)M->pf_allocs,
                         "prefetches_issued", (long long)M->pf_issued);
}

/* state() -> dict: the canonical state the differential test compares
 * with a MemoryHierarchy's: each cache's sets and each TLB's pages in
 * recency order (least recent first) with their hit and miss counts,
 * the pending table as {line: ready}, the fill heap sorted, the
 * measurement counters and the prefetcher's stride table, buffers and
 * counts (None when it is off). */
static PyObject *Mem_state(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    Mem *M = (Mem *)self;
    PyObject *fills = ivec_list(M->fills.v, M->fills.n);
    if (fills == NULL || PyList_Sort(fills) < 0) {
        Py_XDECREF(fills);
        return NULL;
    }
    PyObject *intervals = PySequence_List(M->ll_intervals);
    PyObject *per_thread = PyDict_Copy(M->ll_per_thread);
    return Py_BuildValue(
        "{sNsNsNsNsNsNsNsNsLsNsNsLsLsLsN}",
        "l1i", cache_state(&M->c[C_L1I]), "l1d", cache_state(&M->c[C_L1D]),
        "l2", cache_state(&M->c[C_L2]), "l3", cache_state(&M->c[C_L3]),
        "itlb", tlb_state(&M->itlb), "dtlb", tlb_state(&M->dtlb),
        "pending", pairs_dict(M->pending.key, M->pending.val,
                              M->pending.used, M->pending.mask + 1),
        "fill_ends", fills, "last_ll_end", (long long)M->last_ll_end,
        "ll_intervals", intervals, "ll_loads_per_thread", per_thread,
        "demand_loads", (long long)M->demand_loads,
        "merged_loads", (long long)M->merged_loads,
        "prefetch_covered", (long long)M->prefetch_covered,
        "prefetcher", prefetcher_state(M));
}

/* The first violated invariant of a hash map's index, or NULL. */
static const char *map_check(const Map *m, int64_t *bad)
{
    int64_t n = 0;
    for (int64_t i = 0; i <= m->mask; i++) {
        if (!m->used[i])
            continue;
        n++;
        if (map_find(m, m->key[i]) != i) {
            *bad = m->key[i];
            return "cannot be found by its key";
        }
    }
    *bad = n;
    return n != m->n || 2 * n > m->mask + 1 ? "count is off" : NULL;
}

/* check() -> str | None: the sanitizer's check of the model (see
 * sanitize.py): set and TLB capacities, no duplicate tag, every index
 * agreeing with its entries, the fill heap and the stream buffers. */
static PyObject *Mem_check(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    Mem *M = (Mem *)self;
    int64_t bad;
    const char *why;
    for (int i = 0; i < N_CACHES; i++) {
        const MCache *c = &M->c[i];
        for (int64_t s = 0; s < c->num_sets; s++) {
            const int64_t *set = c->tag + s * c->assoc;
            int32_t n = c->cnt[s];
            const char *name = CACHE_NAMES[i];
            if (n < 0 || n > c->assoc)
                return PyUnicode_FromFormat(
                    "%s set %lld holds %d lines (assoc %lld)", name,
                    (long long)s, n, (long long)c->assoc);
            for (int32_t w = 0; w < n; w++) {
                if (set_of(c, set[w]) != s)
                    return PyUnicode_FromFormat(
                        "%s set %lld holds line %lld of set %lld", name,
                        (long long)s, (long long)set[w],
                        (long long)set_of(c, set[w]));
                for (int32_t v = 0; v < w; v++)
                    if (set[v] == set[w])
                        return PyUnicode_FromFormat(
                            "%s set %lld holds line %lld twice", name,
                            (long long)s, (long long)set[w]);
            }
        }
    }
    const MTlb *tlbs[2] = {&M->itlb, &M->dtlb};
    static const char *tnames[2] = {"itlb", "dtlb"};
    for (int k = 0; k < 2; k++) {
        const MTlb *t = tlbs[k];
        if (t->n < 0 || t->n > t->cap)
            return PyUnicode_FromFormat("%s holds %d pages (entries %d)",
                                        tnames[k], t->n, t->cap);
        int32_t seen = 0, last = -1;
        for (int32_t i = t->head; i >= 0 && seen <= t->n; i = t->next[i]) {
            int64_t e = map_find(&t->index, t->page[i]);
            if (i >= t->n || t->prev[i] != last || e < 0
                || t->index.val[e] != i)
                return PyUnicode_FromFormat(
                    "%s index disagrees with its entry %d (page %lld)",
                    tnames[k], i, (long long)t->page[i]);
            last = i;
            seen++;
        }
        if (seen != t->n || last != t->tail || t->index.n != t->n)
            return PyUnicode_FromFormat(
                "%s recency list holds %d of its %d pages", tnames[k], seen,
                t->n);
        if ((why = map_check(&t->index, &bad)) != NULL)
            return PyUnicode_FromFormat("%s index: page %lld %s",
                                        tnames[k], (long long)bad, why);
    }
    if ((why = map_check(&M->pending, &bad)) != NULL)
        return PyUnicode_FromFormat("pending table: line %lld %s",
                                    (long long)bad, why);
    if (M->pf_on && (why = map_check(&M->stride_index, &bad)) != NULL)
        return PyUnicode_FromFormat("stride table: index %lld %s",
                                    (long long)bad, why);
    for (int64_t i = 0; M->pf_on && i < M->stride_n; i++) {
        int64_t k = map_find(&M->stride_index, M->stride[i].idx);
        if (k < 0 || M->stride_index.val[k] != i
            || M->stride[i].idx != py_mod(M->stride[i].idx, M->stride_entries))
            return PyUnicode_FromFormat(
                "stride table: entry %lld (index %lld) is not found by its "
                "index", (long long)i, (long long)M->stride[i].idx);
    }
    if (M->fills.n > (M->mshr > 0 ? M->mshr : 0))
        return PyUnicode_FromFormat("fill heap holds %d ends (mshr_entries "
                                    "%lld)", M->fills.n, (long long)M->mshr);
    for (int32_t i = 1; i < M->fills.n; i++)
        if (M->fills.v[(i - 1) / 2] > M->fills.v[i])
            return PyUnicode_FromFormat("fill heap order broken at %d", i);
    for (int64_t b = 0; b < M->n_bufs; b++) {
        const SBuf *B = &M->bufs[b];
        if (B->n < 0 || B->n > M->buf_entries || (!B->valid && B->n))
            return PyUnicode_FromFormat(
                "stream buffer %lld holds %lld lines (buffer_entries %lld)",
                (long long)b, (long long)B->n, (long long)M->buf_entries);
        for (int64_t i = 0; i < B->n; i++)
            for (int64_t j = 0; j < i; j++)
                if (B->line[j] == B->line[i])
                    return PyUnicode_FromFormat(
                        "stream buffer %lld holds line %lld twice",
                        (long long)b, (long long)B->line[i]);
    }
    Py_RETURN_NONE;
}

/* _plant(part, index, values): test-only raw writes that bypass every
 * update rule, for the sanitizer tests: a cache set's lines (`part` a
 * cache name, `index` the set), a TLB's pages in recency order (as many
 * as it holds; its index is left as it was) or the fill heap's array
 * (`index` ignored).  Nothing is written unless every value is valid. */
static PyObject *Mem_plant(PyObject *self, PyObject *const *args,
                           Py_ssize_t nargs)
{
    Mem *M = (Mem *)self;
    const char *part = nargs == 3 && PyUnicode_Check(args[0])
        ? PyUnicode_AsUTF8(args[0]) : NULL;
    Py_ssize_t n = nargs == 3 && PyList_Check(args[2])
        ? PyList_GET_SIZE(args[2]) : -1;
    if (part == NULL || n < 0) {
        PyErr_SetString(PyExc_TypeError, "_plant(part, index, values)");
        return NULL;
    }
    int64_t *vals = PyMem_Malloc(((size_t)n + 1) * sizeof(int64_t));
    if (vals == NULL)
        return PyErr_NoMemory();
    PyObject *out = NULL;
    for (Py_ssize_t i = 0; i < n; i++)
        if (int64_arg(PyList_GET_ITEM(args[2], i), &vals[i]) < 0)
            goto done;
    for (int i = 0; i < N_CACHES; i++) {
        MCache *c = &M->c[i];
        int64_t s;
        if (strcmp(part, CACHE_NAMES[i]))
            continue;
        if (int64_arg(args[1], &s) < 0)
            goto done;
        if (s < 0 || s >= c->num_sets || n > c->assoc) {
            PyErr_SetString(PyExc_ValueError,
                            "no such set, or too many lines");
            goto done;
        }
        memcpy(c->tag + s * c->assoc, vals, (size_t)n * sizeof(int64_t));
        c->cnt[s] = (int32_t)n;
        goto planted;
    }
    if (!strcmp(part, "itlb") || !strcmp(part, "dtlb")) {
        MTlb *t = part[0] == 'i' ? &M->itlb : &M->dtlb;
        if (n != t->n) {
            PyErr_SetString(PyExc_ValueError, "give one page per entry");
            goto done;
        }
        Py_ssize_t k = 0;
        for (int32_t i = t->head; i >= 0 && k < n; i = t->next[i])
            t->page[i] = vals[k++];
        goto planted;
    }
    if (!strcmp(part, "fill_ends")) {
        if (ivec_reserve(&M->fills, n) < 0)
            goto done;
        memcpy(M->fills.v, vals, (size_t)n * sizeof(int64_t));
        M->fills.n = (int32_t)n;
        goto planted;
    }
    PyErr_Format(PyExc_KeyError, "%s", part);
    goto done;
planted:
    out = Py_NewRef(Py_None);
done:
    PyMem_Free(vals);
    return out;
}

/* ll_intervals takes a list, ll_loads_per_thread a dict. */
static int Mem_set_obj(PyObject *self, PyObject *value, void *off)
{
    int is_list = (size_t)off == offsetof(Mem, ll_intervals);
    if (value == NULL || (is_list ? !PyList_Check(value)
                                  : !PyDict_Check(value))) {
        PyErr_SetString(PyExc_TypeError, is_list
                        ? "ll_intervals must be a list"
                        : "ll_loads_per_thread must be a dict");
        return -1;
    }
    Py_INCREF(value);
    Py_XSETREF(*(PyObject **)((char *)self + (size_t)off), value);
    return 0;
}

static PyObject *Mem_get_ll_count(PyObject *self, void *Py_UNUSED(closure))
{
    PyObject *l = ((Mem *)self)->ll_intervals;
    return PyLong_FromSsize_t(l != NULL ? PyList_GET_SIZE(l) : 0);
}

#define MEM_INT(name) {#name, get_i64, set_i64, NULL, \
                       (void *)offsetof(Mem, name)}

static PyGetSetDef Mem_getset[] = {
    {"cfg", get_obj, NULL, "The MemoryConfig.",
     (void *)offsetof(Mem, cfg)},
    {"ll_intervals", get_obj, Mem_set_obj,
     "(start, end) per long-latency load.",
     (void *)offsetof(Mem, ll_intervals)},
    {"ll_loads_per_thread", get_obj, Mem_set_obj,
     "Long-latency loads per thread.",
     (void *)offsetof(Mem, ll_per_thread)},
    MEM_INT(demand_loads), MEM_INT(merged_loads), MEM_INT(prefetch_covered),
    {"ll_load_count", Mem_get_ll_count, NULL, "len(ll_intervals).", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

#undef MEM_INT

static PyMethodDef Mem_methods[] = {
    {"load", (PyCFunction)(void (*)(void))Mem_load, METH_FASTCALL,
     "load(thread, pc, addr, cycle) -> AccessResult (a demand load)."},
    {"store", (PyCFunction)(void (*)(void))Mem_store, METH_FASTCALL,
     "store(thread, pc, addr, cycle) -> AccessResult (a store drain)."},
    {"ifetch", (PyCFunction)(void (*)(void))Mem_ifetch, METH_FASTCALL,
     "ifetch(thread, addr, cycle) -> completion cycle."},
    {"cancel_fill", (PyCFunction)(void (*)(void))Mem_cancel_fill,
     METH_FASTCALL, "cancel_fill(line, addr, cycle) -> bool."},
    {"mlp", Mem_mlp, METH_NOARGS, "mlp() -> Chou et al. MLP."},
    {"state", Mem_state, METH_NOARGS, "state() -> the canonical state."},
    {"check", Mem_check, METH_NOARGS,
     "check() -> the first invariant violated, or None."},
    {"_plant", (PyCFunction)(void (*)(void))Mem_plant, METH_FASTCALL,
     "Test hook: _plant(part, index, values) writes raw state."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject Mem_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.pipeline._cext_engine.Hierarchy",
    .tp_doc = "Hierarchy(cfg): MemoryHierarchy(cfg) as native state, with "
              "the same methods; a cext core's model.",
    .tp_basicsize = sizeof(Mem),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = Mem_new,
    .tp_dealloc = Mem_dealloc,
    .tp_traverse = Mem_traverse,
    .tp_clear = Mem_clear,
    .tp_methods = Mem_methods,
    .tp_getset = Mem_getset,
};

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
 * object columns hold owned references, NULL meaning None.  A fetch
 * copies its instruction's pc, op, latency, dest (-1 without one),
 * source registers (see the Body rows) and address (0 unless a load or
 * store) into the last six and its direction and FP-queue bit into
 * the flags, so no stage reads an Instr: SoAView.instr builds one when
 * a policy asks (see slot_instr). */
enum { C_THREAD, C_SEQ, C_GSEQ, C_PENDING, C_FE_READY, C_FLAGS, C_REFS,
       C_WAITER0, C_OLD_MAP, C_PC, C_OP, C_LAT, C_DEST, C_SRCS, C_ADDR,
       N_ICOLS };
enum { O_PRED_LL, O_FILL_LINE, O_LEVEL, O_VIEW, N_OCOLS };

static const char *const ICOL_NAMES[N_ICOLS] = {
    "thread", "seq", "gseq", "pending", "fe_ready", "flags", "refs",
    "waiter0", "old_map", "pc", "op", "latency", "dest", "srcs", "addr"};
/* A never-used slot's value; gseq -1 matches no packed stamp (its gseq
 * is >= 1). */
static const int64_t ICOL_INIT[N_ICOLS] = {0, 0, -1, 0, 0, F_FREED, 0, -1,
                                           -1, 0, 0, 0, -1, 0, 0};
static const char *const OCOL_NAMES[N_OCOLS] = {
    "predicted_ll", "fill_line", "level", "views"};

/* A thread's trace, read once per core: its get and, when it has a
 * body (trace_static), each position's Instr and row.  The Instr is
 * the static one every fetch of the position shares, the prototype of
 * a varying position of an exact SyntheticTrace (its row holds the
 * position's parsed _dyn entry), or None where every fetch calls get
 * (a varying position of any other trace). */
typedef struct {
    Py_ssize_t n;           /* trace_body_len; 0: every fetch calls get */
    PyObject *instr;        /* owned: per position, a tuple of n */
    PyObject *get;          /* owned: the thread's trace_get */
    int64_t *v;             /* n rows of N_B */
} Body;

static void body_clear(Body *B)
{
    Py_CLEAR(B->instr);
    Py_CLEAR(B->get);
    PyMem_Free(B->v);
    B->v = NULL;
    B->n = 0;
}

/* Body B of a thread whose ThreadState holds trace_static `st`,
 * trace_body_len `n_obj`, `trace` and trace_get `get`. */
static int body_init(Body *B, PyObject *st, PyObject *n_obj, PyObject *trace,
                     PyObject *get)
{
    if (get == NULL || !PyCallable_Check(get)) {
        PyErr_SetString(PyExc_TypeError, "trace_get must be callable");
        return -1;
    }
    B->get = Py_NewRef(get);
    if (st == NULL || st == Py_None)
        return 0;
    long long n = PyLong_AsLongLong(n_obj);
    if (n == -1 && PyErr_Occurred())
        return -1;
    if (!PyList_Check(st) || n < 1 || PyList_GET_SIZE(st) != n) {
        PyErr_SetString(PyExc_ValueError, "trace_static must be a list of "
                        "trace_body_len instructions");
        return -1;
    }
    PyObject *dyn = trace != NULL && Py_TYPE(trace) == g.trace_type
        ? SLOT(trace, OFF.tr_dyn) : NULL;
    if (dyn != NULL && !(PyList_CheckExact(dyn)
                         && PyList_GET_SIZE(dyn) == n))
        dyn = NULL;
    if ((B->instr = PyTuple_New((Py_ssize_t)n)) == NULL)
        return -1;
    if ((B->v = PyMem_Malloc((size_t)n * N_B * sizeof(int64_t))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    B->n = (Py_ssize_t)n;
    for (Py_ssize_t i = 0; i < B->n; i++) {
        int64_t *r = &B->v[i * N_B];
        PyObject *instr = PyList_GET_ITEM(st, i);
        int64_t kind = BK_STATIC;
        if (instr == Py_None) {
            PyObject *spec = dyn == NULL ? NULL : PyList_GET_ITEM(dyn, i);
            kind = spec == NULL ? BK_GET : dyn_row(spec, r);
            if (kind != BK_GET)
                instr = PyTuple_GET_ITEM(spec, 1);  /* the prototype */
        }
        PyTuple_SET_ITEM(B->instr, i, Py_NewRef(instr));
        r[B_KIND] = BK_GET;
        if (instr == Py_None)
            continue;
        if (!PyObject_TypeCheck(instr, g.instr_type)) {
            PyErr_SetString(PyExc_TypeError, "a trace body holds a non-Instr");
            return -1;
        }
        if (instr_row(instr, r, kind == BK_STATIC) < 0)
            return -1;
        r[B_KIND] = kind;
    }
    return 0;
}

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
                *refs, *waiter0, *old_map, *pc, *op, *lat, *dest, *srcs,
                *addr;
        };
    };
    union {
        PyObject **oc[N_OCOLS];
        struct {
            PyObject **pred_ll, **fill_line, **level, **views;
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
    Body *body;                 /* per thread: its trace body */
} Arena;

typedef struct {
    PyObject_HEAD
    Arena *arena;
    Py_ssize_t slot;
    int64_t gseq;
    PyObject *instr;    /* owned: built on the first read, or NULL */
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

/* Return slot s to the free list, pristine (see cext.py): the allocation
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
        nv->instr = NULL;
        PyObject_GC_Track(nv);
        A->views[s] = v = (PyObject *)nv;
    }
    Py_INCREF(v);
    return v;
}

/* The Instr of slot s's occupant, as its trace's get returns it: the
 * body's shared static Instr, a clone of a varying position's
 * prototype with the slot's address and direction, or get(seq) itself
 * for a position (or a trace) without either.  A new reference. */
static PyObject *slot_instr(Arena *A, Py_ssize_t s)
{
    int64_t t = A->thread[s], seq = A->seq[s];
    if (t < 0 || t >= A->n_threads) {
        PyErr_SetString(PyExc_RuntimeError, "slot of no thread");
        return NULL;
    }
    const Body *B = &A->body[t];
    if (B->n) {
        Py_ssize_t i = (Py_ssize_t)py_mod(seq, B->n);
        PyObject *instr = PyTuple_GET_ITEM(B->instr, i);
        int64_t kind = B->v[i * N_B + B_KIND];
        if (kind == BK_STATIC)
            return Py_NewRef(instr);
        if (kind != BK_GET)
            return clone_instr(instr, A->flags[s], A->addr[s]);
    }
    return call_get(B->get, seq);
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
    A->body = PyMem_Calloc((size_t)n_threads, sizeof(Body));
    if (A->ev.head == NULL || A->dt.head == NULL || A->wb_cnt == NULL
        || A->queues == NULL || A->body == NULL) {
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
    for (Py_ssize_t i = 0; i < n_threads; i++) {
        PyObject *ts = PyTuple_GET_ITEM(threads, i);
        if (body_init(&A->body[i], SLOT(ts, OFF.ts_trace_static),
                      SLOT(ts, OFF.ts_trace_body_len), SLOT(ts, OFF.ts_trace),
                      SLOT(ts, OFF.ts_trace_get)) < 0)
            goto fail;
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
    for (Py_ssize_t i = 0; A->body && i < A->n_threads; i++)
        body_clear(&A->body[i]);
    PyMem_Free(A->body);
    Py_TYPE(self)->tp_free(self);
}

/* ------------------------------------------------------------------ */
/* run context (the fused loop's hoisted locals)                       */
/* ------------------------------------------------------------------ */

/* A thread's LLSR as the commit stage shifts it. */
typedef struct {
    LLSRN *llsr;            /* owned: the thread's llsr */
    Trainer train;          /* owned: see take_parts */
    int64_t zeros;          /* retires not yet shifted in (0 between
                             * commit stages) */
} RunLLSR;

/* A thread as the run sees it: core.threads[t], whose tid is t. */
typedef struct {
    PyObject *ts;           /* borrowed from core.threads */
    PyObject *ints;         /* owned: the thread's Ints */
    int64_t *v;             /* ... and its fields */
    LoadPred *lll;          /* owned: the thread's lll_pred */
    RunLLSR llsr;
    long long pc_origin;
} Thr;

typedef struct {
    PyObject *core;
    Arena *A;               /* owned */
    PyObject *ints;         /* owned: the core's Ints */
    int64_t *cv;            /* ... and its fields */
    PyObject *cycle_obj;    /* owned: the cycle boxed for Python calls */
    /* hoisted, identity-stable objects (borrowed from slots) */
    PyObject *fetch_candidates;
    PyObject *on_ll_detect; /* owned: policy.on_ll_detect bound method */
    PyObject *part;         /* owned: the policy whose dispatch partition
                             * the loop applies, else NULL */
    int part_rows;          /* its form: limit_rows (1), slow_weights (0) */
    int olc_cleanup_only, ll_detect_is_base;
    /* immutable config scalars */
    long long mask, fetch_width, fetch_max_threads, fe_capacity,
        frontend_depth, decode_width, commit_width, wb_entries, line_shift,
        full_mask, rob_size, lsq_size, int_iq_size, fp_iq_size,
        int_rename_regs, fp_rename_regs, num_int_alu, num_ldst, num_fp;
    int fast_forward, fetch_order_is_base, track_dep;
    /* owned: the core's parts, taken once per run (see native_part) */
    Mem *mem;
    GShareN *gshare;
    BTBN *btb;
    Py_ssize_t n;           /* threads taken into thr, in tid order */
    Thr thr[MAX_THREADS];
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
    c->cv[CV_WB_USED] += 1;
    return 0;
}

/* The loop's cycle boxed for a Python call: once per cycle, borrowed. */
static PyObject *cycle_arg(Ctx *c, long long cycle)
{
    if (c->cycle_obj == NULL)
        c->cycle_obj = box_ll(cycle);
    return c->cycle_obj;
}

/* ------------------------------------------------------------------ */
/* stage: event drains (the two inline wheel drains of the fused loop) */
/* ------------------------------------------------------------------ */

/* The entries due at `cycle` (its bucket, emptied, and the due spills)
 * in `due`, in age order, with the due marks dropped; NULL when nothing
 * is due.  The walk yields the bucket in reverse push order; reversed,
 * it is near age order, and an insertion sort finishes it (the packed
 * stamps are unique). */
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
    int64_t *v = due->v;
    for (Py_ssize_t i = 0, j = due->n - 1; i < j; i++, j--) {
        int64_t x = v[i];
        v[i] = v[j];
        v[j] = x;
    }
    int64_t e[2];
    while (w->over.n && w->over.v[0] <= cycle) {
        heap_pop(&w->over, e, 2);
        if (ivec_push(due, e[1]) < 0)
            goto fail;
    }
    while (w->marks.n && w->marks.v[0] <= cycle)
        heap_pop(&w->marks, e, 1);
    v = due->v;
    for (Py_ssize_t i = 1; i < due->n; i++) {
        int64_t x = v[i];
        Py_ssize_t j = i;
        for (; j > 0 && v[j - 1] > x; j--)
            v[j] = v[j - 1];
        v[j] = x;
    }
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
    if (--A->pending[ws] == 0 && !(wfl & F_NO_WAKE) && (wfl & F_IN_IQ))
        return heap_push(&A->ready[A->op_class[A->op[ws]]], w, 0, 1);
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
        Py_ssize_t t = (Py_ssize_t)A->thread[s];
        PyObject *ts = c->thr[t].ts;
        int64_t *tv = c->thr[t].v;
        if ((fl & F_IS_LOAD) && A->pending[s] == -1) {
            tv[TV_OUTSTANDING_MISSES] -= 1;
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
            tv[TV_HEAD_READY] = 1;
            c->cv[CV_HEADS_MASK] |= 1LL << t;
            c->cv[CV_COMMIT_PENDING] = 1;
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
                if (tv[TV_FETCH_BLOCKED_UNTIL] < cycle + 1)
                    tv[TV_FETCH_BLOCKED_UNTIL] = cycle + 1;
                c->cv[CV_FETCH_WAKE] = 0;
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
        PyObject *ts = c->thr[A->thread[s]].ts;
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

/* hierarchy.load (demand) or .store of slot s (thread t) at `when`,
 * into *r. */
static int data_access(Ctx *c, Py_ssize_t t, Py_ssize_t s, long long when,
                       int demand, MemResult *r)
{
    return mem_access(c->mem, g.small_ints[t], c->A->pc[s], c->A->addr[s],
                      when, demand, r);
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

/* The threads of `mask` (-1: all) in rotation order from `start`, into
 * `order`: SMTCore's rotation order filtered as its rotation cache
 * holds it.  Returns their count. */
static Py_ssize_t rotation(Ctx *c, long long start, long long mask,
                           Py_ssize_t *order)
{
    Py_ssize_t k = 0;
    for (Py_ssize_t i = 0; i < c->n; i++) {
        Py_ssize_t t = (Py_ssize_t)((start + i) % c->n);
        if ((mask >> t) & 1)
            order[k++] = t;
    }
    return k;
}

/* Shift the run of non-long-latency retires staged for t into its
 * register at once: before its next long-latency retire, and at the end
 * of the commit pass. */
static int llsr_flush(RunLLSR *t)
{
    int64_t k = t->zeros;
    t->zeros = 0;
    return k ? llsr_zeros(t->llsr, k, &t->train) : 0;
}

static int stage_commit(Ctx *c, long long cycle)
{
    Arena *A = c->A;
    int64_t *cv = c->cv;
    long long budget = c->commit_width;
    Py_ssize_t order[MAX_THREADS];
    Py_ssize_t order_n = rotation(c, cycle % c->n, cv[CV_HEADS_MASK], order);
    /* each thread's stats.committed, read at its first retire here */
    long long committed[MAX_THREADS];
    for (Py_ssize_t oi = 0; oi < order_n; oi++)
        committed[oi] = -1;
    while (budget > 0) {
        int progress = 0;
        for (Py_ssize_t oi = 0; oi < order_n && budget > 0; oi++) {
            Py_ssize_t t = order[oi];
            PyObject *ts = c->thr[t].ts;
            int64_t *tv = c->thr[t].v;
            if (!tv[TV_HEAD_READY])
                continue;
            SlotSeq *window = seq_of(ts, OFF.ts_window);
            if (window == NULL)
                return -1;
            Py_ssize_t s = (Py_ssize_t)SQ_AT(window, 0);
            int64_t fl = A->flags[s];
            if (fl & F_IS_STORE) {
                if (cv[CV_WB_USED] >= c->wb_entries)
                    continue;
                MemResult r;
                if (data_access(c, t, s, cycle, 0, &r) < 0
                    || schedule_wb_drain(c, r.done, cycle) < 0)
                    return -1;
            }
            sq_pop_front(window);
            if (!window->n || !(A->flags[SQ_AT(window, 0)] & F_COMPLETED)) {
                tv[TV_HEAD_READY] = 0;
                cv[CV_HEADS_MASK] &= ~(1LL << t);
            }
            cv[CV_ROB_USED] -= 1;
            tv[TV_ROB] -= 1;
            PyObject *st = SLOT(ts, OFF.ts_stats);
            if (committed[oi] < 0
                && (committed[oi] = slot_ll(st, OFF.st_committed)) == -1
                && PyErr_Occurred())
                return -1;
            if (slot_store_ll(st, OFF.st_committed, ++committed[oi]) < 0)
                return -1;
            if (committed[oi] > cv[CV_COMMITTED_WATERMARK])
                cv[CV_COMMITTED_WATERMARK] = committed[oi];
            PyObject *cc = SLOT(ts, OFF.ts_commit_cycles);
            if (cc != Py_None) {
                PyObject *b = box_ll(cycle - cv[CV_MEASURE_START]);
                if (b == NULL)
                    return -1;
                int rc = PyList_Append(cc, b);
                Py_DECREF(b);
                if (rc < 0)
                    return -1;
            }
            if (fl & F_MEM) {
                tv[TV_LSQ] -= 1;
                cv[CV_LSQ_USED] -= 1;
            }
            if (fl & F_HAS_DEST) {
                int fp = (fl & F_DEST_FP) != 0;
                tv[fp ? TV_FP_REGS : TV_INT_REGS] -= 1;
                cv[fp ? CV_FP_REGS_USED : CV_INT_REGS_USED] -= 1;
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
            RunLLSR *L = &c->thr[t].llsr;
            if (fl & F_IS_LL) {
                int64_t distance;
                if (llsr_flush(L) < 0
                    || llsr_commit(L->llsr, 1, A->pc[s], dependent,
                                   &L->train, &distance) < 0)
                    return -1;
            } else {
                L->zeros += 1;
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
        for (Py_ssize_t oi = 0; oi < order_n; oi++)
            if (llsr_flush(&c->thr[order[oi]].llsr) < 0)
                return -1;
        cv[CV_RELEASE_EPOCH] += 1;
    }
    cv[CV_COMMIT_PENDING] = cv[CV_HEADS_MASK] != 0;
    return 0;
}

/* ------------------------------------------------------------------ */
/* stage: issue (_issue, with both branches of _execute fused in)     */
/* ------------------------------------------------------------------ */

/* Pop the oldest live, unissued entry of `queue` and take it out of
 * its issue queue; returns its slot, or -1 once the queue runs dry. */
static Py_ssize_t issue_pop(Ctx *c, IVec *queue, int64_t *packed,
                            int64_t *flp)
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
        if (fl & F_IN_IQ) {
            int64_t *tv = c->thr[A->thread[s]].v;
            int fp = (fl & F_IQ_FP) != 0;
            tv[fp ? TV_FQ : TV_IQ] -= 1;
            c->cv[fp ? CV_FQ_USED : CV_IQ_USED] -= 1;
            tv[TV_ICOUNT] -= 1;
            fl &= ~F_IN_IQ;
        }
        *flp = fl | F_ISSUED;
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
        Py_ssize_t s = issue_pop(c, queue, &packed, &fl);
        if (s < 0)
            return 0;
        A->flags[s] = fl;
        if (wheel_push(&A->ev, c->mask, cycle, cycle + A->lat[s],
                       packed) < 0)
            return -1;
        *issued = 1;
    }
    return 0;
}

/* _execute's load body, columnized. */
static int issue_load(Ctx *c, Py_ssize_t s, int64_t packed, int64_t fl,
                      long long cycle)
{
    Arena *A = c->A;
    Py_ssize_t t = (Py_ssize_t)A->thread[s];
    PyObject *ts = c->thr[t].ts;
    MemResult mr;
    PyObject *fill = Py_None, *fill_box = NULL;
    int rc = -1;
    if (data_access(c, t, s, cycle + A->lat[s], 1, &mr) < 0)
        return -1;
    int is_ll = mr.ll;
    long long detect = mr.detect;
    PyObject *level = g.levels[mr.level];
    /* boxed only for a demand miss to memory (a cancellable fill) */
    if (mr.has_fill && (fill = fill_box = box_ll(mr.fill_line)) == NULL)
        return -1;
    if (is_ll)
        fl |= F_IS_LL;
    ocol_set(A->level, s, level);
    PyObject *stats = SLOT(ts, OFF.ts_stats);
    if (stat_add(stats, OFF.st_loads_executed, 1) < 0)
        goto out;
    loadpred_train(c->thr[t].lll, A->pc[s], is_ll);
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
    if (mr.trigger) {
        fl |= F_IN_DETECTS;
        if (detect <= cycle)
            detect = cycle + 1;
        if (wheel_push(&A->dt, c->mask, cycle, detect, packed) < 0)
            goto out;
    }
    ocol_set(A->fill_line, s, fill);
    if (level != g.levels[LV_L1]) {
        c->thr[t].v[TV_OUTSTANDING_MISSES] += 1;
        A->pending[s] = -1;
    }
    A->flags[s] = fl;
    rc = wheel_push(&A->ev, c->mask, cycle, mr.done, packed);
out:
    Py_XDECREF(fill_box);
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
        Py_ssize_t s = issue_pop(c, &A->ready[1], &packed, &fl);
        if (s < 0)
            break;
        if (fl & F_IS_LOAD) {
            if (issue_load(c, s, packed, fl, cycle) < 0)
                return -1;
        } else {
            /* stores: address generation only; memory access happens
             * at commit via the write buffer */
            A->flags[s] = fl;
            if (wheel_push(&A->ev, c->mask, cycle, cycle + A->lat[s],
                           packed) < 0)
                return -1;
        }
        issued = 1;
    }
    if (issue_simple_queue(c, &A->ready[2], c->num_fp, cycle, &issued) < 0)
        return -1;
    c->cv[CV_RELEASE_EPOCH] += issued;
    return 0;
}

/* ------------------------------------------------------------------ */
/* stage: dispatch (rename + resource allocation)                      */
/* ------------------------------------------------------------------ */

/* The earliest value past `cycle` of thread field `f` over all threads
 * (SMTCore._compute_fetch_wake and the dispatch wake latches). */
static long long wake_after(Ctx *c, long long cycle, int f)
{
    long long wake = cycle + (1LL << 30);
    for (Py_ssize_t t = 0; t < c->n; t++) {
        long long wu = c->thr[t].v[f];
        if (cycle < wu && wu < wake)
            wake = wu;
    }
    return wake;
}

/* `x`, a limit or a weight, as a double: 1, or 0 when it is neither an
 * int nor a float, or -1 on error. */
static int number_of(PyObject *x, double *out)
{
    if (PyFloat_Check(x))
        *out = PyFloat_AS_DOUBLE(x);
    else if (!PyLong_Check(x))
        return 0;
    else if ((*out = PyLong_AsDouble(x)) == -1.0 && PyErr_Occurred())
        return -1;
    return 1;
}

/* The partition's verdict on thread t's head, whose flags are fl: 1 to
 * dispatch, 0 when the thread is at its limit of a buffer the
 * instruction needs (count >= limit), -1 on error.  The limits, in TV
 * order, as SMTCore.partition_limits makes them: the thread's row of
 * policy.limit_rows, or DCRA's share (own / total) of every size, where
 * a thread with a miss in flight weighs its entry of
 * policy.slow_weights and any other 1.0.  The data is read from its
 * slot at every evaluation, so a hook's write in place or a new list
 * is followed. */
static int partition_allows(Ctx *c, Py_ssize_t t, int64_t fl)
{
    double lim[6];
    PyObject *data = SLOT(c->part, c->part_rows ? OFF.pol_limit_rows
                                                : OFF.pol_slow_weights);
    if (data == NULL || !PyList_CheckExact(data)
        || PyList_GET_SIZE(data) != c->n) {
        PyErr_Format(PyExc_TypeError, "policy.%s must be a list of one %s "
                     "per thread (%zd), not %R",
                     c->part_rows ? "limit_rows" : "slow_weights",
                     c->part_rows ? "row" : "weight", c->n,
                     data != NULL ? data : Py_None);
        return -1;
    }
    if (c->part_rows) {
        PyObject *row = PyList_GET_ITEM(data, t);
        int ok = (PyTuple_CheckExact(row) || PyList_CheckExact(row))
            && PySequence_Fast_GET_SIZE(row) == 6;
        for (int i = 0; ok > 0 && i < 6; i++)
            ok = number_of(PySequence_Fast_GET_ITEM(row, i), &lim[i]);
        if (ok == 0)
            PyErr_Format(PyExc_TypeError, "policy.limit_rows[%zd] must be "
                         "a tuple of six ints or floats, not %R", t, row);
        if (ok <= 0)
            return -1;
    } else {
        double total = 0.0, own = 0.0;
        for (Py_ssize_t u = 0; u < c->n; u++) {
            double w = 1.0;
            PyObject *x = PyList_GET_ITEM(data, u);
            int ok = c->thr[u].v[TV_OUTSTANDING_MISSES] <= 0
                || number_of(x, &w);
            if (ok == 0)
                PyErr_Format(PyExc_TypeError, "policy.slow_weights[%zd] "
                             "must be an int or a float, not %R", u,
                             (PyObject *)Py_TYPE(x));
            if (ok <= 0)
                return -1;
            total += w;
            if (u == t)
                own = w;
        }
        if (total == 0.0) {
            PyErr_SetString(PyExc_ZeroDivisionError,
                            "float division by zero");
            return -1;
        }
        const long long sizes[6] = {c->rob_size, c->lsq_size,
                                    c->int_iq_size, c->fp_iq_size,
                                    c->int_rename_regs, c->fp_rename_regs};
        for (int i = 0; i < 6; i++)
            lim[i] = (double)sizes[i] * (own / total);
    }
    const int64_t *tv = c->thr[t].v;
    return !((double)tv[TV_ROB] >= lim[TV_ROB]
             || ((fl & F_MEM) && (double)tv[TV_LSQ] >= lim[TV_LSQ])
             || ((fl & F_FP_QUEUE) ? (double)tv[TV_FQ] >= lim[TV_FQ]
                                   : (double)tv[TV_IQ] >= lim[TV_IQ])
             || ((fl & F_HAS_DEST)
                 && ((fl & F_DEST_FP)
                         ? (double)tv[TV_FP_REGS] >= lim[TV_FP_REGS]
                         : (double)tv[TV_INT_REGS] >= lim[TV_INT_REGS])));
}

/* No dispatch cap (a can_dispatch override or a partition): the
 * dispatch latches may replay a verdict. */
static inline int uncapped(Ctx *c)
{
    return !c->part && SLOT(c->core, OFF.policy_can_dispatch) == Py_None;
}

/* The policy's can_dispatch(ts, view of slot s), called: 1, 0 or -1. */
static int call_can_dispatch(Arena *A, PyObject *can_dispatch, PyObject *ts,
                             Py_ssize_t s)
{
    PyObject *v = ensure_view(A, s);
    if (v == NULL)
        return -1;
    PyObject *cargs[2] = {ts, v};
    PyObject *r = PyObject_Vectorcall(can_dispatch, cargs, 2, NULL);
    Py_DECREF(v);
    if (r == NULL)
        return -1;
    int ok = PyObject_IsTrue(r);
    Py_DECREF(r);
    return ok;
}

static int stage_dispatch(Ctx *c, long long cycle)
{
    PyObject *core = c->core;
    Arena *A = c->A;
    int64_t *cv = c->cv;
    long long budget = c->decode_width;
    int any_ready = 0;
    int blocked_by_resource = 0;
    long long dispatched = 0;
    long long release_epoch = cv[CV_RELEASE_EPOCH];
    long long fe_mask = cv[CV_FE_MASK];
    Py_ssize_t order[MAX_THREADS];
    Py_ssize_t order_n = rotation(c, cycle + 1, fe_mask == c->full_mask
                                  ? -1 : fe_mask, order);
    for (Py_ssize_t oi = 0; oi < order_n && budget > 0; oi++) {
        Py_ssize_t t = order[oi];
        PyObject *ts = c->thr[t].ts;
        int64_t *tv = c->thr[t].v;
        if (cycle < tv[TV_DISPATCH_WAIT_UNTIL])
            continue;   /* head not through the front end yet */
        SlotSeq *fe = seq_of(ts, OFF.ts_fe_queue);
        SlotSeq *window = seq_of(ts, OFF.ts_window);
        SlotSeq *rename_map = seq_of(ts, OFF.ts_rename_map);
        if (fe == NULL || window == NULL || rename_map == NULL)
            return -1;
        if (fe->n == 0)
            continue;
        /* The latch holds a bare slot: within one release epoch the
         * head cannot change, so a slot match is an instruction match. */
        PyObject *dbh = SLOT(ts, OFF.ts_dispatch_blocked_head);
        if (dbh != Py_None && ll_of(dbh) == SQ_AT(fe, 0)) {
            if (tv[TV_DISPATCH_BLOCKED_EPOCH] == release_epoch) {
                any_ready = 1;
                blocked_by_resource = 1;
                continue;
            }
            Py_INCREF(Py_None);
            slot_store(ts, OFF.ts_dispatch_blocked_head, Py_None);
        }
        int fe_was_full = fe->n >= c->fe_capacity;
        while (budget > 0 && fe->n > 0) {
            Py_ssize_t s = (Py_ssize_t)SQ_AT(fe, 0);
            if (A->fe_ready[s] > cycle) {
                tv[TV_DISPATCH_WAIT_UNTIL] = A->fe_ready[s];
                break;
            }
            any_ready = 1;
            int64_t fl = A->flags[s];
            int64_t is_mem = fl & F_MEM;
            int fp_queue = (fl & F_FP_QUEUE) != 0;
            if (cv[CV_ROB_USED] >= c->rob_size
                || (is_mem && cv[CV_LSQ_USED] >= c->lsq_size)
                || (fp_queue ? cv[CV_FQ_USED] >= c->fp_iq_size
                             : cv[CV_IQ_USED] >= c->int_iq_size)
                || ((fl & F_HAS_DEST)
                    && ((fl & F_DEST_FP)
                            ? cv[CV_FP_REGS_USED] >= c->fp_rename_regs
                            : cv[CV_INT_REGS_USED] >= c->int_rename_regs))) {
                if (slot_store_ll(ts, OFF.ts_dispatch_blocked_head, s) < 0)
                    return -1;
                tv[TV_DISPATCH_BLOCKED_EPOCH] = release_epoch;
                blocked_by_resource = 1;
                break;
            }
            /* the policy's caps, not resource stalls: its hook (None:
             * allow-all), then its partition */
            PyObject *can_dispatch = SLOT(core, OFF.policy_can_dispatch);
            int ok = can_dispatch == Py_None ? 1
                : call_can_dispatch(A, can_dispatch, ts, s);
            if (ok > 0 && c->part != NULL)
                ok = partition_allows(c, t, fl);
            if (ok < 0)
                return -1;
            if (!ok)
                break;
            /* all checks passed: allocate and rename */
            cv[CV_ROB_USED] += 1;
            tv[TV_ROB] += 1;
            if (is_mem) {
                cv[CV_LSQ_USED] += 1;
                tv[TV_LSQ] += 1;
            }
            cv[fp_queue ? CV_FQ_USED : CV_IQ_USED] += 1;
            tv[fp_queue ? TV_FQ : TV_IQ] += 1;
            fl |= fp_queue ? F_IN_IQ | F_IQ_FP : F_IN_IQ;
            int64_t packed = (A->gseq[s] << SLOT_SHIFT) | s;
            long long pending = 0;
            int64_t parents[MAX_SRCS];
            int pn = 0;
            int64_t sp = A->srcs[s];
            int64_t regs[MAX_SRCS];
            Py_ssize_t nsrc = sp & 0xff;
            if (sp < 0) {   /* more than seven: read from the Instr */
                PyObject *instr = slot_instr(A, s);
                nsrc = instr == NULL ? -1 : instr_srcs(instr, regs);
                Py_XDECREF(instr);
                if (nsrc < 0)
                    return -1;
            }
            for (Py_ssize_t i = 0; i < nsrc; i++) {
                int64_t prod = rename_map->v[
                    sp >= 0 ? (sp >> (8 * i + 8)) & 0xff : regs[i]];
                if (prod < 0)
                    continue;
                int64_t pfl = A->flags[prod];
                if (c->track_dep
                    && ((pfl & (F_IS_LOAD | F_LL_DEP))
                        || A->parents[prod].n)) {
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
                int64_t dest = A->dest[s];
                A->old_map[s] = rename_map->v[dest];
                rename_map->v[dest] = s;
                /* rename-current ref; the old entry's ref transfers to
                 * the old_map slot */
                A->refs[s] += 1;
                int fp = (fl & F_DEST_FP) != 0;
                cv[fp ? CV_FP_REGS_USED : CV_INT_REGS_USED] += 1;
                tv[fp ? TV_FP_REGS : TV_INT_REGS] += 1;
            }
            A->flags[s] = fl;
            if (sq_push(window, s) < 0
                || (!pending && heap_push(&A->ready[A->op_class[A->op[s]]],
                                          packed, 0, 1) < 0))
                return -1;
            sq_pop_front(fe);
            budget -= 1;
            dispatched += 1;
        }
        if (fe_was_full && fe->n < c->fe_capacity)
            cv[CV_FETCH_WAKE] = 0;
        if (fe->n == 0)
            cv[CV_FE_MASK] &= ~(1LL << t);
    }
    if (!any_ready && uncapped(c))
        cv[CV_DISPATCH_WAKE] = wake_after(c, cycle, TV_DISPATCH_WAIT_UNTIL);
    if (any_ready && dispatched == 0 && blocked_by_resource) {
        if (stat_add(SLOT(core, OFF.stats),
                     OFF.cs_resource_stall_cycles, 1) < 0)
            return -1;
        PyObject *ors = SLOT(core, OFF.policy_on_resource_stall);
        if (ors != Py_None) {   /* None: marked no-op hook */
            PyObject *cy = cycle_arg(c, cycle);
            PyObject *r = cy == NULL ? NULL : PyObject_CallOneArg(ors, cy);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
        } else if (uncapped(c)) {
            cv[CV_STALL_LATCH_UNTIL] = wake_after(c, cycle,
                                                  TV_DISPATCH_WAIT_UNTIL);
            cv[CV_STALL_LATCH_EPOCH] = release_epoch;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* stage: fetch (one thread's burst)                                   */
/* ------------------------------------------------------------------ */

/* ts.allowed_end into *has / *end (re-read after a hook). */
static inline void read_allowed_end(PyObject *ts, int *has, long long *end)
{
    PyObject *ae = SLOT(ts, OFF.ts_allowed_end);
    *has = ae != Py_None;
    *end = *has ? ll_of(ae) : 0;
}

/* One thread's fetch burst (SMTCore._fetch_thread over the arena);
 * returns the fetch count, or -1 on error.  The I-side access, gshare
 * and the BTB run on the run's native parts; the load predictor runs in
 * C when it is native (else its predict is called).  The thread's fetch
 * index, icount and I-fetch line are its native fields, so a hook that
 * flushes mid-burst (or writes them) is seen at once.  An instruction
 * is its trace body's row (a varying position's address and direction
 * computed from it) or, where the body has none, the row of the Instr
 * get returns; the fetch keeps no Instr. */
static long long fetch_thread_c(Ctx *c, Py_ssize_t t, long long budget,
                                long long cycle, int ignore_stall)
{
    PyObject *core = c->core;
    Arena *A = c->A;
    PyObject *ts = c->thr[t].ts;
    int64_t *tv = c->thr[t].v;
    const Body *B = &A->body[t];
    PyObject *on_fetch = SLOT(core, OFF.policy_on_fetch);
    PyObject *on_fetch_load = SLOT(core, OFF.policy_on_fetch_load);
    SlotSeq *fe_queue = seq_of(ts, OFF.ts_fe_queue);
    if (fe_queue == NULL)
        return -1;
    long long fe_ready = cycle + c->frontend_depth;
    long long gseq = c->cv[CV_GSEQ];
    int has_allowed;
    long long allowed_end;
    read_allowed_end(ts, &has_allowed, &allowed_end);
    long long count = 0;
    long long limit = c->fe_capacity - fe_queue->n;
    if (budget < limit)
        limit = budget;
    int64_t built[N_B];         /* the row of an Instr get returned */
    while (count < limit) {
        long long fetch_index = tv[TV_FETCH_INDEX];
        if (!ignore_stall && has_allowed && fetch_index > allowed_end)
            break;
        const int64_t *row = NULL;
        int64_t addr, flags;
        /* floor modulo and division: a flush may rewind the index
         * below 0 */
        if (B->n) {
            const int64_t *r = &B->v[py_mod(fetch_index, B->n) * N_B];
            if (row_eval(r, floordiv(fetch_index, B->n), &addr, &flags))
                row = r;
        }
        if (row == NULL) {
            PyObject *instr = call_get(B->get, fetch_index);
            int rc = instr == NULL ? -1 : instr_row(instr, built, 1);
            Py_XDECREF(instr);
            if (rc < 0)
                return -1;
            row = built;
            addr = built[B_ADDR];
            flags = built[B_FLAGS];
        }
        long long pc = row[B_PC];
        long long pc_addr = c->thr[t].pc_origin + pc * 4;
        long long line = pc_addr >> c->line_shift;
        if (line != tv[TV_LAST_IFETCH_LINE]) {
            int64_t done;
            if (mem_ifetch(c->mem, pc_addr, cycle, &done) < 0)
                return -1;
            tv[TV_LAST_IFETCH_LINE] = line;
            if (done > cycle) {
                tv[TV_FETCH_BLOCKED_UNTIL] = done;
                break;
            }
        }
        gseq += 1;
        if (A->free.n == 0 && arena_grow(A) < 0)
            return -1;
        /* the popped slot is pristine: only the varying columns are
         * written (see the arena contract in cext.py) */
        Py_ssize_t s = (Py_ssize_t)A->free.v[--A->free.n];
        A->thread[s] = t;
        A->seq[s] = fetch_index;
        A->gseq[s] = gseq;
        A->fe_ready[s] = fe_ready;
        A->flags[s] = flags;
        A->pc[s] = pc;
        A->op[s] = row[B_OP];
        A->lat[s] = row[B_LAT];
        A->dest[s] = row[B_DEST];
        A->srcs[s] = row[B_SRCS];
        A->addr[s] = addr;
        if (sq_push(fe_queue, s) < 0)
            return -1;
        tv[TV_FETCH_INDEX] = fetch_index + 1;
        tv[TV_ICOUNT] += 1;
        count += 1;
        if (flags & F_IS_LOAD) {
            ocol_set(A->pred_ll, s, loadpred_predict(c->thr[t].lll, pc)
                                        ? Py_True : Py_False);
            if (on_fetch_load != Py_None) {
                if (call_hook(A, on_fetch_load, s, ts) < 0)
                    return -1;
                read_allowed_end(ts, &has_allowed, &allowed_end);
            }
        }
        if (flags & F_IS_BRANCH) {
            int taken = (flags & F_TAKEN) != 0;
            int prediction;
            if (gshare_update(c->gshare, pc, taken, t, &prediction) < 0)
                return -1;
            /* a taken branch looks its target up, then installs it */
            int target_known = !taken || btb_access(c->btb, pc, 1, 1);
            if (prediction != taken || !target_known) {
                if (slot_store_ll(ts, OFF.ts_waiting_branch, s) < 0
                    || slot_store_ll(ts, OFF.ts_branch_wait_since,
                                     cycle) < 0
                    || (on_fetch != Py_None
                        && call_hook(A, on_fetch, s, ts) < 0))
                    return -1;
                break;
            }
            if (on_fetch != Py_None && call_hook(A, on_fetch, s, ts) < 0)
                return -1;
            if (taken)
                break;   /* a correctly-predicted taken branch ends it */
        } else if (on_fetch != Py_None
                   && call_hook(A, on_fetch, s, ts) < 0) {
            return -1;
        }
        if (on_fetch != Py_None)
            read_allowed_end(ts, &has_allowed, &allowed_end);
    }
    c->cv[CV_GSEQ] = gseq;
    if (count) {
        if (stat_add(SLOT(ts, OFF.ts_stats), OFF.st_fetched, count) < 0)
            return -1;
        /* a fresh head where dispatch saw nothing: the queue was empty
         * when the burst began, or a flush from a hook emptied it (and
         * cleared the bit) mid-burst */
        if (fe_queue->n && !((c->cv[CV_FE_MASK] >> t) & 1)) {
            c->cv[CV_DISPATCH_WAKE] = c->cv[CV_STALL_LATCH_UNTIL] = 0;
            c->cv[CV_FE_MASK] |= 1LL << t;
        }
    }
    /* ThreadState._sync_policy_stall acts only when the stall predicate
     * (fetch_index > allowed_end) differs from policy_stalled_flag: call
     * it only then */
    PyObject *ae_now = SLOT(ts, OFF.ts_allowed_end);
    long long ae_v;
    int flip = 1;
    if (ae_now == Py_None)
        flip = slot_true(ts, OFF.ts_policy_stalled_flag);
    else if (obj_fits(ae_now, &ae_v))
        flip = (tv[TV_FETCH_INDEX] > ae_v)
            != slot_true(ts, OFF.ts_policy_stalled_flag);
    if (flip) {
        PyObject *sargs[1] = {cycle_arg(c, cycle)};
        PyObject *r = sargs[0] == NULL ? NULL
            : call_method(ts, g.s_sync_policy_stall, sargs, 1);
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
    int wb_full = c->cv[CV_WB_USED] >= c->wb_entries;
    for (Py_ssize_t t = 0; t < c->n; t++) {
        PyObject *ts = c->thr[t].ts;
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
        long long blocked = c->thr[t].v[TV_FETCH_BLOCKED_UNTIL];
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

/* `a, b = pair` as Python unpacks it: the pair as a list or tuple of
 * two, whose items stay borrowed from it; NULL with the error set. */
static PyObject *unpack2(PyObject *pair)
{
    PyObject *seq = PySequence_Fast(pair, "cannot unpack a non-iterable "
                                          "fetch-order pair");
    Py_ssize_t n = seq == NULL ? 2 : PySequence_Fast_GET_SIZE(seq);
    if (n > 2)
        PyErr_SetString(PyExc_ValueError,
                        "too many values to unpack (expected 2)");
    else if (n < 2)
        PyErr_Format(PyExc_ValueError,
                     "not enough values to unpack (expected 2, got %zd)", n);
    if (n != 2)
        Py_CLEAR(seq);
    return seq;
}

/* The index of `ts` in core.threads: -1 and a TypeError naming `who`
 * when it is none of them. */
static Py_ssize_t thread_of(Ctx *c, PyObject *ts, const char *who)
{
    for (Py_ssize_t t = 0; t < c->n; t++)
        if (c->thr[t].ts == ts)
            return t;
    PyErr_Format(PyExc_TypeError, "%s gave a %.200s that is not one of "
                 "the core's threads", who, Py_TYPE(ts)->tp_name);
    return -1;
}

/* The fetch path of a policy with its own ``fetch_order(cycle)``: the
 * run loop's ``for ts, ignore_stall in order`` over what it returns. */
static int fetch_via_policy_order(Ctx *c, long long cycle)
{
    PyObject *cy = cycle_arg(c, cycle);
    PyObject *order = cy == NULL ? NULL : PyObject_CallOneArg(
        SLOT(c->core, OFF.policy_fetch_order), cy);
    if (order == NULL)
        return -1;
    int rc = -1;
    PyObject *it = NULL, *pair;
    int truthy = PyObject_IsTrue(order);
    if (truthy <= 0) {
        rc = truthy;
        goto done;
    }
    if ((it = PyObject_GetIter(order)) == NULL)
        goto done;
    long long budget = c->fetch_width;
    long long remaining_threads = c->fetch_max_threads;
    while ((pair = PyIter_Next(it)) != NULL) {
        PyObject *seq = unpack2(pair);
        Py_DECREF(pair);
        if (seq == NULL)
            goto done;
        long long cnt = 0;
        int stop = remaining_threads == 0 || budget == 0;
        if (!stop) {
            remaining_threads -= 1;
            int ignore_stall = PyObject_IsTrue(
                PySequence_Fast_GET_ITEM(seq, 1));
            Py_ssize_t t = ignore_stall < 0 ? -1 : thread_of(
                c, PySequence_Fast_GET_ITEM(seq, 0), "fetch_order");
            cnt = t < 0 ? -1
                : fetch_thread_c(c, t, budget, cycle, ignore_stall);
        }
        Py_DECREF(seq);
        if (cnt < 0)
            goto done;
        if (stop)
            break;
        budget -= cnt;
    }
    if (!PyErr_Occurred())
        rc = 0;
done:
    Py_XDECREF(it);
    Py_DECREF(order);
    return rc;
}

/* Whether thread t could fetch at `cycle` (SMTCore.fetchable): 1, 0,
 * or -1. */
static int fetchable(Ctx *c, Py_ssize_t t, long long cycle)
{
    PyObject *ts = c->thr[t].ts;
    if (c->thr[t].v[TV_FETCH_BLOCKED_UNTIL] > cycle
        || SLOT(ts, OFF.ts_waiting_branch) != Py_None)
        return 0;
    SlotSeq *fe = seq_of(ts, OFF.ts_fe_queue);
    return fe == NULL ? -1 : fe->n < c->fe_capacity;
}

/* The threads the base policy may fetch from: the fetch candidates in
 * order, or every thread when there are none (COT), into `order`;
 * returns their count, -1 on error. */
static Py_ssize_t candidates(Ctx *c, Py_ssize_t *order)
{
    PyObject *cand = c->fetch_candidates;
    Py_ssize_t n = PyList_GET_SIZE(cand);
    if (n == 0)
        return rotation(c, 0, -1, order);
    for (Py_ssize_t i = 0; i < n && i < MAX_THREADS; i++)
        if ((order[i] = thread_of(c, PyList_GET_ITEM(cand, i),
                                  "_fetch_candidates")) < 0)
            return -1;
    return n < MAX_THREADS ? n : MAX_THREADS;
}

/* The fetch-selection block of the fused loop: the base policy's
 * ICOUNT order over the fetch candidates, or COT when there are none
 * (every thread is policy-stalled): then the fetchable thread that
 * stalled first (the first in tid order on a tie) fetches past its
 * stall.  Both are the fetchable threads stably sorted by a key, as
 * list.sort(key=...) orders them: icount, or stall_start. */
static int run_fetch_select(Ctx *c, long long cycle)
{
    if (!c->fetch_order_is_base)
        return fetch_via_policy_order(c, cycle);
    Py_ssize_t order[MAX_THREADS], rest[MAX_THREADS];
    long long key[MAX_THREADS];
    Py_ssize_t cn = candidates(c, order);
    int cot = PyList_GET_SIZE(c->fetch_candidates) == 0;
    int rn = 0;
    for (Py_ssize_t i = 0; i < cn; i++) {
        Py_ssize_t t = order[i];
        int ok = fetchable(c, t, cycle);
        if (ok < 0)
            return -1;
        if (!ok)
            continue;
        long long k = cot ? slot_ll(c->thr[t].ts, OFF.ts_stall_start)
                          : c->thr[t].v[TV_ICOUNT];
        int j = rn++ - 1;
        for (; j >= 0 && key[j] > k; j--) {
            rest[j + 1] = rest[j];
            key[j + 1] = key[j];
        }
        rest[j + 1] = t;
        key[j + 1] = k;
    }
    if (cn < 0 || PyErr_Occurred())
        return -1;
    if (rn == 0) {
        c->cv[CV_FETCH_WAKE] = wake_after(c, cycle, TV_FETCH_BLOCKED_UNTIL);
        return 0;
    }
    long long budget = c->fetch_width;
    long long remaining_threads = c->fetch_max_threads;
    for (int i = 0; i < (cot ? 1 : rn); i++) {
        if (remaining_threads == 0 || budget == 0)
            break;
        remaining_threads -= 1;
        long long cnt = fetch_thread_c(c, rest[i], budget, cycle, cot);
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

/* The part `name` in slot `off` of `obj` (borrowed) when its type is one
 * of the engine's n `types`, the models the loop runs; else NULL and a
 * TypeError.  `obj` is the core, or its thread `tid` when tid >= 0. */
static PyObject *native_part(PyObject *obj, Py_ssize_t off,
                             PyTypeObject *types, int n, Py_ssize_t tid,
                             const char *name)
{
    PyObject *part = SLOT(obj, off);
    for (int i = 0; part != NULL && i < n; i++)
        if (Py_IS_TYPE(part, &types[i]))
            return part;
    PyObject *who = tid < 0
        ? PyUnicode_FromFormat("core.%s", name)
        : PyUnicode_FromFormat("core.threads[%zd].%s", tid, name);
    if (who != NULL)
        PyErr_Format(PyExc_TypeError,
                     "%U must be the cext engine's %s, not %R; run other "
                     "models on backend 'object'", who,
                     n == 1 ? strrchr(types->tp_name, '.') + 1
                            : "load predictor",
                     part == NULL ? Py_None : (PyObject *)Py_TYPE(part));
    Py_XDECREF(who);
    return NULL;
}

/* Take thread tid's predictors and LLSR for the run (once: a part
 * reassigned mid-run is not followed).  The LLSR's measurements train
 * the MLP predictors in C when its on_measure is the thread's own
 * ThreadState._train_mlp; else they call it. */
static int take_parts(Thr *T, Py_ssize_t tid)
{
    PyObject *ts = T->ts, *llsr, *lll, *dist, *bin, *own;
    if (!(llsr = native_part(ts, OFF.ts_llsr, &LLSR_Type, 1, tid, "llsr"))
        || !(lll = native_part(ts, OFF.ts_lll_pred, LoadPred_Types, N_LLL,
                               tid, "lll_pred"))
        || !(dist = native_part(ts, OFF.ts_mlp_pred, &MLPDist_Type, 1, tid,
                                "mlp_pred"))
        || !(bin = native_part(ts, OFF.ts_binary_mlp, &BinMLP_Type, 1, tid,
                               "binary_mlp"))
        || !(own = PyObject_GetAttr((PyObject *)g.ts_type, g.s_train_mlp)))
        return -1;
    T->lll = (LoadPred *)Py_NewRef(lll);
    T->llsr.llsr = (LLSRN *)Py_NewRef(llsr);
    PyObject *f = T->llsr.llsr->on_measure;
    if (f != NULL && PyMethod_Check(f) && PyMethod_GET_SELF(f) == ts
        && PyMethod_GET_FUNCTION(f) == own) {
        T->llsr.train.dist = (MLPDist *)Py_NewRef(dist);
        T->llsr.train.bin = (BinMLP *)Py_NewRef(bin);
    }
    Py_DECREF(own);
    return 0;
}

static void ctx_clear(Ctx *c)
{
    Py_CLEAR(c->on_ll_detect);
    Py_CLEAR(c->part);
    Py_CLEAR(c->A);
    Py_CLEAR(c->ints);
    Py_CLEAR(c->cycle_obj);
    Py_CLEAR(c->mem);
    Py_CLEAR(c->gshare);
    Py_CLEAR(c->btb);
    for (Py_ssize_t t = 0; t < c->n; t++) {
        Thr *T = &c->thr[t];
        Py_CLEAR(T->ints);
        Py_CLEAR(T->lll);
        Py_CLEAR(T->llsr.llsr);
        Py_CLEAR(T->llsr.train.dist);
        Py_CLEAR(T->llsr.train.bin);
    }
    c->n = 0;
}

static int ctx_init(Ctx *c, PyObject *core)
{
    memset(c, 0, offsetof(Ctx, thr));
    c->core = core;
    if ((c->A = arena_of(core)) == NULL
        || (c->cv = ints_at(core, OFF.ints)) == NULL)
        goto fail;
    c->ints = Py_NewRef(SLOT(core, OFF.ints));
    PyObject *mem = native_part(core, OFF.hierarchy, &Mem_Type, 1, -1,
                                "hierarchy");
    PyObject *gshare = mem == NULL ? NULL
        : native_part(core, OFF.gshare, &GShare_Type, 1, -1, "gshare");
    PyObject *btb = gshare == NULL ? NULL
        : native_part(core, OFF.btb, &BTB_Type, 1, -1, "btb");
    if (btb == NULL)
        goto fail;
    c->mem = (Mem *)Py_NewRef(mem);
    c->gshare = (GShareN *)Py_NewRef(gshare);
    c->btb = (BTBN *)Py_NewRef(btb);
    /* arena_of checked: a tuple of at most MAX_THREADS of the arena's
     * threads */
    PyObject *threads = SLOT(core, OFF.threads);
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(threads); i++) {
        PyObject *ts = PyTuple_GET_ITEM(threads, i);
        int64_t *v = ints_at(ts, OFF.ts_ints);
        if (v == NULL)
            goto fail;
        Thr *T = &c->thr[c->n++];
        memset(T, 0, sizeof(*T));
        T->ts = ts;
        T->ints = Py_NewRef(SLOT(ts, OFF.ts_ints));
        T->v = v;
        if (take_parts(T, i) < 0)
            goto fail;
        T->pc_origin = slot_ll(ts, OFF.ts_pc_origin);
    }
    c->fetch_candidates = SLOT(core, OFF.fetch_candidates);
    c->on_ll_detect = PyObject_GetAttr(SLOT(core, OFF.policy),
                                       g.s_on_ll_detect);
    if (c->on_ll_detect == NULL)
        goto fail;
    c->olc_cleanup_only = slot_true(core, OFF.cext_olc_cleanup_only);
    c->ll_detect_is_base = slot_true(core, OFF.cext_ll_detect_is_base);
    /* a partition's data sits in FetchPolicy's slots (SMTCore checked
     * the form: "rows" or "weights") */
    PyObject *form = SLOT(core, OFF.partition);
    if (form != Py_None) {
        c->part = Py_NewRef(SLOT(core, OFF.policy));
        c->part_rows = PyUnicode_CompareWithASCIIString(form, "rows") == 0;
        if (!PyObject_TypeCheck(c->part, g.policy_type)) {
            PyErr_SetString(PyExc_TypeError, "a policy with a dispatch "
                            "partition must be a FetchPolicy");
            goto fail;
        }
    }
    c->mask = c->A->wheel - 1;
    c->fetch_width = slot_ll(core, OFF.fetch_width);
    c->fetch_max_threads = slot_ll(core, OFF.fetch_max_threads);
    c->fe_capacity = slot_ll(core, OFF.fe_capacity);
    c->frontend_depth = slot_ll(core, OFF.frontend_depth);
    c->decode_width = slot_ll(core, OFF.decode_width);
    c->commit_width = slot_ll(core, OFF.commit_width);
    c->wb_entries = slot_ll(core, OFF.wb_entries);
    c->line_shift = slot_ll(core, OFF.line_shift);
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
    c->track_dep = slot_true(core, OFF.track_ll_dep);
    if (!PyErr_Occurred())
        return 0;
fail:   /* the context owns nothing after a failed init */
    ctx_clear(c);
    return -1;
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
        return NULL;
    Arena *A = c->A;
    int64_t *cv = c->cv;
    unsigned long loop_n = 0;
    for (;;) {
        if (((++loop_n) & 0xFFF) == 0 && PyErr_CheckSignals() < 0)
            goto fail;
        long long cycle = cv[CV_CYCLE];
        /* completion + detection drains */
        if (stage_drain(c, cycle) < 0)
            goto fail;
        /* write-buffer drain */
        {
            int64_t *cnt = &A->wb_cnt[cycle & c->mask];
            int64_t e;
            if (*cnt) {
                cv[CV_WB_USED] -= *cnt;
                *cnt = 0;
                while (A->wb_marks.n && A->wb_marks.v[0] <= cycle)
                    heap_pop(&A->wb_marks, &e, 1);
            }
            while (A->wb_over.n && A->wb_over.v[0] <= cycle) {
                heap_pop(&A->wb_over, &e, 1);
                cv[CV_WB_USED] -= 1;
            }
        }
        /* commit */
        if (cv[CV_COMMIT_PENDING] && stage_commit(c, cycle) < 0)
            goto fail;
        /* issue */
        if ((A->ready[0].n || A->ready[1].n || A->ready[2].n)
            && stage_issue(c, cycle) < 0)
            goto fail;
        /* dispatch */
        if (cycle >= cv[CV_DISPATCH_WAKE]) {
            if (cycle < cv[CV_STALL_LATCH_UNTIL]
                && cv[CV_STALL_LATCH_EPOCH] == cv[CV_RELEASE_EPOCH]) {
                if (stat_add(SLOT(core, OFF.stats),
                             OFF.cs_resource_stall_cycles, 1) < 0)
                    goto fail;
            } else if (stage_dispatch(c, cycle) < 0) {
                goto fail;
            }
        }
        /* fetch */
        if (cycle >= cv[CV_FETCH_WAKE] && run_fetch_select(c, cycle) < 0)
            goto fail;
        Py_CLEAR(c->cycle_obj);
        /* cycle advance / fast-forward: one cycle on, unless provably
         * nothing can fetch or issue at cycle + 1: then to the next
         * event */
        long long nxt = cycle + 1;
        int step = !c->fast_forward || A->ready[0].n || A->ready[1].n
            || A->ready[2].n;
        if (!step && nxt >= cv[CV_FETCH_WAKE]) {
            if (c->fetch_order_is_base) {
                Py_ssize_t order[MAX_THREADS];
                Py_ssize_t cn = candidates(c, order);
                if (cn < 0)
                    goto fail;
                for (Py_ssize_t i = 0; i < cn && !step; i++)
                    if ((step = fetchable(c, order[i], nxt)) < 0)
                        goto fail;
            } else {
                PyObject *nxt_obj = box_ll(nxt);
                PyObject *r = nxt_obj == NULL ? NULL
                    : PyObject_CallOneArg(
                        SLOT(core, OFF.policy_fetch_pending), nxt_obj);
                Py_XDECREF(nxt_obj);
                step = r == NULL ? -1 : PyObject_IsTrue(r);
                Py_XDECREF(r);
                if (step < 0)
                    goto fail;
            }
        }
        if (!step && next_cycle_c(c, cycle, &nxt) < 0)
            goto fail;
        cv[CV_CYCLE] = nxt;
        if (cv[CV_COMMITTED_WATERMARK] >= max_commits) {
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

/* `instr`: built from the slot on the first read (see slot_instr) and
 * kept, so every read returns the same object. */
static PyObject *view_get_instr(PyObject *self, void *closure)
{
    (void)closure;
    View *v = (View *)self;
    if (v->instr == NULL) {
        Arena *A = view_arena(self);
        if (A == NULL || (v->instr = slot_instr(A, v->slot)) == NULL)
            return NULL;
    }
    return Py_NewRef(v->instr);
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

/* Every DynInstr field (engine-parity-lint checks the coverage), and
   no more: the refs column and the F_RETIRED/F_IN_DETECTS bits serve
   the free list only, so a policy sees the same record on both
   engines. */
static PyGetSetDef View_getset[] = {
    VLINK("instr", view_get_instr, 0), VICOL("thread", C_THREAD),
    VICOL("seq", C_SEQ), VICOL("gseq", C_GSEQ),
    VICOL("pending", C_PENDING), VICOL("fe_ready", C_FE_READY),
    VOCOL("predicted_ll", O_PRED_LL),
    VOCOL("fill_line", O_FILL_LINE), VOCOL("level", O_LEVEL),
    VFLAG("in_iq", F_IN_IQ), VFLAG("iq_is_fp", F_IQ_FP),
    VFLAG("issued", F_ISSUED), VFLAG("completed", F_COMPLETED),
    VFLAG("has_dest", F_HAS_DEST), VFLAG("dest_fp", F_DEST_FP),
    VFLAG("squashed", F_SQUASHED), VFLAG("is_load", F_IS_LOAD),
    VFLAG("is_store", F_IS_STORE), VFLAG("is_branch", F_IS_BRANCH),
    VFLAG("is_ll", F_IS_LL), VFLAG("inv", F_INV),
    VFLAG("ll_dep", F_LL_DEP),
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
    Py_VISIT(((View *)self)->instr);
    return 0;
}

static int view_clear(PyObject *self)
{
    Py_CLEAR(((View *)self)->arena);
    Py_CLEAR(((View *)self)->instr);
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

/* release(): drop every object column of a finished core's arena.  A
 * slot's view references the arena and the arena its views, so without
 * this a core that ends with views alive (any policy hook received one)
 * waits for the cyclic collector.  Views read the dropped columns as
 * None afterwards; CextCore.detach also unhooks the arena from its core,
 * so the loop never runs on it again. */
static PyObject *Arena_release(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    Arena_clear(self);
    Py_RETURN_NONE;
}

/* Whether `core` runs on arena A and `ts`, unless NULL, is one of its
 * threads: ts's index (0 for NULL), or -1 with an error set. */
static Py_ssize_t owns(Arena *A, PyObject *core, PyObject *ts)
{
    Arena *own = arena_of(core);
    Py_XDECREF(own);
    if (own == NULL)
        return -1;
    PyObject *threads = SLOT(core, OFF.threads);
    for (Py_ssize_t i = 0; own == A && i < PyTuple_GET_SIZE(threads); i++)
        if (ts == NULL || PyTuple_GET_ITEM(threads, i) == ts)
            return i;
    PyErr_SetString(PyExc_ValueError, "not this arena's core or thread");
    return -1;
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
    Py_ssize_t t;
    if ((after_seq == -1 && PyErr_Occurred()) || cancel < 0
        || (t = owns(A, core, ts)) < 0
        || native_part(core, OFF.hierarchy, &Mem_Type, 1, -1,
                       "hierarchy") == NULL)
        return NULL;
    SlotSeq *fe = seq_of(ts, OFF.ts_fe_queue);
    SlotSeq *window = seq_of(ts, OFF.ts_window);
    SlotSeq *rename_map = seq_of(ts, OFF.ts_rename_map);
    int64_t *cv = ints_at(core, OFF.ints), *tv = ints_at(ts, OFF.ts_ints);
    if (fe == NULL || window == NULL || rename_map == NULL || cv == NULL
        || tv == NULL)
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
    long long cycle = cv[CV_CYCLE];
    /* cv's and tv's owners, held across the Python calls below */
    PyObject *ints[2] = {Py_NewRef(SLOT(core, OFF.ints)),
                         Py_NewRef(SLOT(ts, OFF.ts_ints))};
    PyObject *cycle_obj = box_ll(cycle);
    if (cycle_obj == NULL)
        goto fail;
    /* rob, lsq, iq, fq, int regs, fp regs released */
    long long d[6] = {0, 0, 0, 0, 0, 0};
    while (window->n && A->seq[SQ_AT(window, window->n - 1)] > after_seq) {
        Py_ssize_t s = (Py_ssize_t)SQ_AT(window, window->n - 1);
        window->n--;
        int64_t fl = A->flags[s] | F_SQUASHED;
        squashed++;
        PyObject *fill = A->fill_line[s];
        if (cancel && fill != NULL && !(fl & F_COMPLETED)) {
            /* read per use: an earlier clear_owner ran Python */
            PyObject *mem = native_part(core, OFF.hierarchy, &Mem_Type, 1,
                                        -1, "hierarchy");
            int64_t line;
            if (mem == NULL || int64_arg(fill, &line) < 0)
                goto fail;
            mem_cancel_fill((Mem *)mem, line, A->addr[s], cycle);
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
            rename_map->v[A->dest[s]] = A->old_map[s];
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
                goto fail;
        }
        int owner = owned(A, s, ts);
        if (owner < 0)
            goto fail;
        if (owner) {
            PyObject *oargs[2] = {A->views[s], cycle_obj};
            PyObject *r = call_method(ts, g.s_clear_owner, oargs, 2);
            if (r == NULL)
                goto fail;
            Py_DECREF(r);
        }
        /* a live producer may still hold this slot's waiter
         * registration: the drains defuse it on F_FREED */
        if (!A->refs[s] && A->pending[s] != -1
            && !(fl & (F_IN_DETECTS | F_FREED))) {
            if (arena_free(A, s, fl) < 0)
                goto fail;
        } else {
            A->flags[s] = fl;
        }
    }
    for (int i = 0; i < 6; i++) {
        cv[CV_ROB_USED + i] -= d[i];
        tv[TV_ROB + i] -= d[i];
    }
    tv[TV_ICOUNT] -= icount_delta;
    PyObject *st = SLOT(ts, OFF.ts_stats);
    PyObject *wb = SLOT(ts, OFF.ts_waiting_branch);
    if (wb != Py_None && (A->flags[ll_of(wb)] & F_SQUASHED)) {
        Py_INCREF(Py_None);
        slot_store(ts, OFF.ts_waiting_branch, Py_None);
        if (stat_add(st, OFF.st_branch_stall_cycles,
                     cycle - slot_ll(ts, OFF.ts_branch_wait_since)) < 0)
            goto fail;
    }
    long long bit = 1LL << t;
    int head = window->n && (A->flags[SQ_AT(window, 0)] & F_COMPLETED);
    tv[TV_HEAD_READY] = head;
    tv[TV_FETCH_INDEX] = after_seq + 1;
    tv[TV_LAST_IFETCH_LINE] = -1;
    cv[CV_HEADS_MASK] = head ? cv[CV_HEADS_MASK] | bit
                             : cv[CV_HEADS_MASK] & ~bit;
    cv[CV_FE_MASK] = fe->n ? cv[CV_FE_MASK] | bit : cv[CV_FE_MASK] & ~bit;
    cv[CV_RELEASE_EPOCH] += 1;
    cv[CV_FETCH_WAKE] = cv[CV_DISPATCH_WAKE] = cv[CV_STALL_LATCH_UNTIL] = 0;
    if (stat_add(st, OFF.st_squashed, squashed) < 0
        || stat_add(st, OFF.st_flushes, 1) < 0)
        goto fail;
    PyObject *sargs[1] = {cycle_obj};
    PyObject *r = call_method(ts, g.s_sync_policy_stall, sargs, 1);
    if (r == NULL)
        goto fail;
    Py_DECREF(r);
    Py_DECREF(cycle_obj);
    Py_DECREF(ints[0]);
    Py_DECREF(ints[1]);
    return PyLong_FromLongLong(squashed);
fail:
    Py_XDECREF(cycle_obj);
    Py_DECREF(ints[0]);
    Py_DECREF(ints[1]);
    return NULL;
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
 * measurement boundary (see sanitize.py): every ready queue's and
 * wheel's heap in heap order, wheel monotonicity, the free list (no
 * duplicate, every entry F_FREED and pristine, every F_FREED slot on
 * it) and the leak scan from the live roots. */
static PyObject *Arena_check(PyObject *self, PyObject *core)
{
    Arena *A = (Arena *)self;
    if (owns(A, core, NULL) < 0)
        return NULL;
    int64_t *cv = ints_at(core, OFF.ints);
    if (cv == NULL)
        return NULL;
    long long cycle = cv[CV_CYCLE];
    const struct { const char *name; const IVec *h; int w; } heaps[] = {
        {"ready_int", &A->ready[0], 1}, {"ready_ldst", &A->ready[1], 1},
        {"ready_fp", &A->ready[2], 1}, {"ev_marks", &A->ev.marks, 1},
        {"ev_over", &A->ev.over, 2}, {"dt_marks", &A->dt.marks, 1},
        {"dt_over", &A->dt.over, 2}, {"wb_marks", &A->wb_marks, 1},
        {"wb_over", &A->wb_over, 1}};
    for (size_t k = 0; k < sizeof(heaps) / sizeof(*heaps); k++) {
        const IVec *h = heaps[k].h;
        int w = heaps[k].w;
        if (h->n % w)
            return PyUnicode_FromFormat("heap %s holds %d int64s, not "
                                        "whole entries of %d", heaps[k].name,
                                        h->n, w);
        for (Py_ssize_t i = 1; i < h->n / w; i++)
            if (ent_lt(h->v + i * w, h->v + (i - 1) / 2 * w, w))
                return PyUnicode_FromFormat(
                    "heap order broken: %s[%zd]=%lld sorts before its "
                    "parent %s[%zd]=%lld", heaps[k].name, i * w,
                    (long long)h->v[i * w], heaps[k].name, (i - 1) / 2 * w,
                    (long long)h->v[(i - 1) / 2 * w]);
    }
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
    {"release", Arena_release, METH_NOARGS,
     "release() -> drop the object columns of a finished core's arena."},
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
    O("core", "_ints", ints), O("core", "_arena", arena),
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
    O("core", "gshare", gshare), O("core", "btb", btb),
    O("core", "_full_mask", full_mask),
    O("core", "_fetch_candidates", fetch_candidates),
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
    O("core", "_num_int_alu", num_int_alu), O("core", "_num_ldst", num_ldst),
    O("core", "_num_fp", num_fp),
    O("core", "_track_ll_dep", track_ll_dep),
    O("core", "_cext_olc_cleanup_only", cext_olc_cleanup_only),
    O("core", "_cext_ll_detect_is_base", cext_ll_detect_is_base),
    O("core", "_partition", partition),
    O("ts", "_ints", ts_ints),
    O("ts", "waiting_branch", ts_waiting_branch),
    O("ts", "branch_wait_since", ts_branch_wait_since),
    O("ts", "allowed_end", ts_allowed_end),
    O("ts", "ll_owners", ts_ll_owners),
    O("ts", "policy_data", ts_policy_data),
    O("ts", "stats", ts_stats), O("ts", "commit_cycles", ts_commit_cycles),
    O("ts", "fe_queue", ts_fe_queue), O("ts", "window", ts_window),
    O("ts", "rename_map", ts_rename_map),
    O("ts", "dispatch_blocked_head", ts_dispatch_blocked_head),
    O("ts", "trace_get", ts_trace_get),
    O("ts", "pc_origin", ts_pc_origin),
    O("ts", "trace_static", ts_trace_static),
    O("ts", "trace_body_len", ts_trace_body_len),
    O("ts", "lll_pred", ts_lll_pred),
    O("ts", "trace", ts_trace), O("ts", "llsr", ts_llsr),
    O("ts", "policy_stalled_flag", ts_policy_stalled_flag),
    O("ts", "stall_start", ts_stall_start),
    O("ts", "mlp_pred", ts_mlp_pred), O("ts", "binary_mlp", ts_binary_mlp),
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
    O("trace", "_dyn", tr_dyn),
    O("policy", "limit_rows", pol_limit_rows),
    O("policy", "slow_weights", pol_slow_weights),
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
    {"F_TAKEN", F_TAKEN}, {"F_FP_QUEUE", F_FP_QUEUE},
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
    if (install_fields(PyDict_GetItemString(ns, "core"), OFF.ints, CV_NAMES,
                       N_CV) < 0
        || install_fields(PyDict_GetItemString(ns, "ts"), OFF.ts_ints,
                          TV_NAMES, N_TV) < 0)
        return NULL;
    /* flag-word and slot-kind constants: fail loudly if the Python side
     * drifts */
    if (check_constants(ns, "flags", FLAG_SPECS,
                        sizeof(FLAG_SPECS) / sizeof(FLAG_SPECS[0])) < 0
        || check_constants(ns, "slot_kinds", KIND_SPECS,
                           sizeof(KIND_SPECS) / sizeof(KIND_SPECS[0])) < 0)
        return NULL;
    PyObject *limit_exc = PyDict_GetItemString(ns, "limit_exc");
    PyObject *deadlock_exc = PyDict_GetItemString(ns, "deadlock_exc");
    PyObject *result_cls = PyDict_GetItemString(ns, "result");
    PyObject *mlp_fn = PyDict_GetItemString(ns, "mlp_from_intervals");
    PyObject *levels = PyDict_GetItemString(ns, "levels");
    if (limit_exc == NULL || deadlock_exc == NULL || result_cls == NULL
        || mlp_fn == NULL || levels == NULL || !PyTuple_Check(levels)
        || PyTuple_GET_SIZE(levels) != N_LEVELS - 1) {
        PyErr_SetString(PyExc_KeyError,
                        "setup(): missing limit_exc/deadlock_exc/result/"
                        "mlp_from_intervals/levels");
        return NULL;
    }
    /* levels: the ServiceLevel members in value order */
    for (int i = 1; i < N_LEVELS; i++) {
        PyObject *lv = PyTuple_GET_ITEM(levels, i - 1);
        if (PyLong_AsLong(lv) != i) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError,
                                "setup(): ServiceLevel drifted from the C "
                                "copy");
            return NULL;
        }
        Py_INCREF(lv);
        Py_XSETREF(g.levels[i], lv);
    }
    Py_INCREF(limit_exc);
    Py_XSETREF(g.limit_exc, limit_exc);
    Py_INCREF(deadlock_exc);
    Py_XSETREF(g.deadlock_exc, deadlock_exc);
    Py_INCREF(result_cls);
    Py_XSETREF(g.result_cls, result_cls);
    Py_INCREF(mlp_fn);
    Py_XSETREF(g.mlp_fn, mlp_fn);
    /* the exact types the in-C paths apply to, and FetchPolicy, whose
     * instances (subclasses too) own the partition slots */
    {
        static const char *keys[5] = {"core", "trace", "instr", "ts",
                                      "policy"};
        PyTypeObject **dst[5] = {&g.core_type, &g.trace_type, &g.instr_type,
                                 &g.ts_type, &g.policy_type};
        for (int i = 0; i < 5; i++) {
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
        if ((g.s_on_ll_detect = intern_or_null("on_ll_detect")) == NULL
            || (g.s_clear_owner = intern_or_null("clear_owner")) == NULL
            || (g.s_train_mlp = intern_or_null("_train_mlp")) == NULL
            || (g.s_sync_policy_stall =
                    intern_or_null("_sync_policy_stall")) == NULL)
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

/* _trace_dyn(trace, index) -> Instr | None: the Instr the compiled
 * engine stands for a varying position's fetch with: the trace read
 * into a Body as each core reads it, the fetch's row_eval and the
 * clone a view's instr makes of the result; None where the fetch calls
 * get or the position is static. */
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
    PyObject *st = PyObject_GetAttrString(trace, "_static");
    PyObject *n = st ? PyObject_GetAttrString(trace, "body_len") : NULL;
    PyObject *get = n ? PyObject_GetAttrString(trace, "get") : NULL;
    Body B = {0};
    PyObject *out = NULL;
    if (get != NULL && body_init(&B, st, n, trace, get) == 0) {
        Py_ssize_t i = B.n ? (Py_ssize_t)py_mod(index, B.n) : 0;
        int64_t addr, flags;
        if (B.n && B.v[i * N_B + B_KIND] > BK_STATIC
            && row_eval(&B.v[i * N_B], floordiv(index, B.n), &addr, &flags))
            out = clone_instr(PyTuple_GET_ITEM(B.instr, i), flags, addr);
        else
            out = Py_NewRef(Py_None);
    }
    body_clear(&B);
    Py_XDECREF(st);
    Py_XDECREF(n);
    Py_XDECREF(get);
    return out;
}

static PyMethodDef cext_methods[] = {
    {"setup", setup, METH_O,
     "Resolve slot offsets and constants from the driver's class table."},
    {"run_until", (PyCFunction)(void (*)(void))run_until, METH_FASTCALL,
     "run_until(core, max_commits, limit) -> None"},
    {"_next_cycle", (PyCFunction)(void (*)(void))t_next_cycle,
     METH_FASTCALL, "Test hook: run_until's fast-forward target."},
    {"_trace_dyn", (PyCFunction)(void (*)(void))t_trace_dyn, METH_FASTCALL,
     "Test hook: the fetch stage's build of a varying trace slot."},
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
        || PyType_Ready(&Ints_Type) < 0 || PyType_Ready(&IntField_Type) < 0
        || PyType_Ready(&Arena_Type) < 0 || PyType_Ready(&Mem_Type) < 0
        || PyType_Ready(&MLPDist_Type) < 0
        || PyType_Ready(&BinMLP_Type) < 0 || PyType_Ready(&GShare_Type) < 0
        || PyType_Ready(&BTB_Type) < 0 || PyType_Ready(&LLSR_Type) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&cext_module);
    if (m == NULL)
        return NULL;
    for (PyTypeObject *t = LoadPred_Types; t < LoadPred_Types + N_LLL; t++)
        if (PyType_Ready(t) < 0 || PyModule_AddObjectRef(
                m, strrchr(t->tp_name, '.') + 1, (PyObject *)t) < 0) {
            Py_DECREF(m);
            return NULL;
        }
    if (PyModule_AddIntConstant(m, "MAX_THREADS", MAX_THREADS) < 0
        || PyModule_AddObjectRef(m, "Arena", (PyObject *)&Arena_Type) < 0
        || PyModule_AddObjectRef(m, "SoAView", (PyObject *)&View_Type) < 0
        || PyModule_AddObjectRef(m, "Hierarchy", (PyObject *)&Mem_Type) < 0
        || PyModule_AddObjectRef(m, "MLPDistancePredictor",
                                 (PyObject *)&MLPDist_Type) < 0
        || PyModule_AddObjectRef(m, "BinaryMLPPredictor",
                                 (PyObject *)&BinMLP_Type) < 0
        || PyModule_AddObjectRef(m, "GShare", (PyObject *)&GShare_Type) < 0
        || PyModule_AddObjectRef(m, "BTB", (PyObject *)&BTB_Type) < 0
        || PyModule_AddObjectRef(m, "LLSR", (PyObject *)&LLSR_Type) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
