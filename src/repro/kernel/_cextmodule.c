/* Compiled booking-loop engine for the flat scheduling kernel.
 *
 * A hand-written CPython extension (no Cython/mypyc dependency): the
 * hot sequential path of the flat construction kernel — gap search,
 * trial/commit/undo booking primitives, the trial_est/commit_est of
 * all five flat bookers (one-port with its per-edge send-feasibility
 * seed memo, macro-dataflow, uni-port, no-overlap, and routed over a
 * CSR route table), the all-processor candidate sweep with its
 * maxpf/frontier/in-trial pruning, and the list-scheduling loop of
 * SchedulerState.run_list (ILHA's chunked Step 1 included) —
 * transliterated from kernel/builder.py, models/one_port.py,
 * models/variants.py, models/macro_dataflow.py, models/routing.py and
 * heuristics/base.py.  The engine also logs placements and transfer
 * hops in commit order and builds the Schedule's records from those
 * logs (materialize).
 *
 * Bit-identity contract: every float computation below performs the
 * SAME IEEE-754 double operations in the SAME order as the Python
 * source it mirrors (CPython floats are C doubles), so schedules are
 * bit-identical to the python backend.  When editing,
 * change the Python reference first, then mirror it here — never
 * "optimize" an expression into a different association.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <string.h>
#include <time.h>

/* Exception types injected from repro.core.exceptions at import time
 * (cext_backend calls _set_exceptions); RuntimeError until then. */
static PyObject *SchedulingErr = NULL;
static PyObject *TimelineErr = NULL;
static PyObject *PlatformErr = NULL;

/* Schedule record types (TaskPlacement, CommEvent: tuple subclasses)
 * injected the same way; materialize() needs them. */
static PyTypeObject *PlacementType = NULL;
static PyTypeObject *CommEventType = NULL;

#define SCHED_ERR (SchedulingErr ? SchedulingErr : PyExc_RuntimeError)
#define TIMELINE_ERR (TimelineErr ? TimelineErr : PyExc_RuntimeError)
#define PLATFORM_ERR (PlatformErr ? PlatformErr : PyExc_RuntimeError)

/* guard_tol(a, b) from core/tolerance.py: GUARD_FACTOR * (TIME_EPS *
 * scale) with scale = max(1, |a|, |b|) — same operation order. */
static inline double
guard_tol2(double a, double b)
{
    double scale = 1.0;
    double v = fabs(a);
    if (v > scale) scale = v;
    v = fabs(b);
    if (v > scale) scale = v;
    return 1e-3 * (1e-6 * scale);
}

/* bisect.bisect_right over a sorted double array. */
static inline Py_ssize_t
bisect_right_d(const double *a, Py_ssize_t n, double x)
{
    Py_ssize_t lo = 0, hi = n;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) >> 1;
        if (x < a[mid]) hi = mid; else lo = mid + 1;
    }
    return lo;
}

/* ------------------------------------------------------------------ */
/* growable interval rows                                             */
/* ------------------------------------------------------------------ */

typedef struct {
    double *s;
    double *e;
    Py_ssize_t len;
    Py_ssize_t cap;
} Row;

/* tentative layer: a Row plus its generation stamp */
typedef struct {
    double *s;
    double *e;
    Py_ssize_t len;
    Py_ssize_t cap;
    long long gen;
} TRow;

static int
row_reserve(double **s, double **e, Py_ssize_t len, Py_ssize_t *cap)
{
    if (len < *cap)
        return 0;
    Py_ssize_t nc = *cap ? *cap * 2 : 8;
    double *ns = PyMem_Realloc(*s, (size_t)nc * sizeof(double));
    if (ns == NULL) { PyErr_NoMemory(); return -1; }
    *s = ns;
    double *ne = PyMem_Realloc(*e, (size_t)nc * sizeof(double));
    if (ne == NULL) { PyErr_NoMemory(); return -1; }
    *e = ne;
    *cap = nc;
    return 0;
}

static int
row_insert(Row *r, Py_ssize_t pos, double start, double end)
{
    if (row_reserve(&r->s, &r->e, r->len, &r->cap) < 0)
        return -1;
    memmove(r->s + pos + 1, r->s + pos, (size_t)(r->len - pos) * sizeof(double));
    memmove(r->e + pos + 1, r->e + pos, (size_t)(r->len - pos) * sizeof(double));
    r->s[pos] = start;
    r->e[pos] = end;
    r->len++;
    return 0;
}

static int
trow_insert(TRow *t, Py_ssize_t pos, double start, double end)
{
    if (row_reserve(&t->s, &t->e, t->len, &t->cap) < 0)
        return -1;
    memmove(t->s + pos + 1, t->s + pos, (size_t)(t->len - pos) * sizeof(double));
    memmove(t->e + pos + 1, t->e + pos, (size_t)(t->len - pos) * sizeof(double));
    t->s[pos] = start;
    t->e[pos] = end;
    t->len++;
    return 0;
}

/* row_next_fit from kernel/builder.py: earliest t >= ready with
 * [t, t + duration) free in one sorted interval layer. */
static double
row_next_fit_c(const double *cs, const double *ce, Py_ssize_t n,
               double ready, double duration)
{
    if (duration == 0.0)
        return ready;
    if (n == 0 || ce[n - 1] <= ready)
        return ready;
    double t = ready;
    Py_ssize_t i = bisect_right_d(cs, n, t) - 1;
    if (i >= 0 && ce[i] > t)
        t = ce[i];
    i += 1;
    double lim = t + duration;
    while (i < n && cs[i] < lim) {
        if (ce[i] > t) {
            t = ce[i];
            lim = t + duration;
        }
        i++;
    }
    return t;
}

/* ------------------------------------------------------------------ */
/* Statics: immutable marshaled view of KernelStatics                 */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    Py_ssize_t n;          /* tasks */
    Py_ssize_t m;          /* edges */
    Py_ssize_t p;          /* processors */
    double *exec_;         /* n*p row-major */
    double *edata;         /* m */
    Py_ssize_t *esrc;      /* m */
    Py_ssize_t *pred_ptr;  /* n+1 */
    Py_ssize_t *pred_eix;  /* m */
    /* derived from the pred CSR: consumer of each edge, and per task
     * the consumers of its outgoing edges (run_list's release lists) */
    Py_ssize_t *edst;      /* m */
    Py_ssize_t *succ_ptr;  /* n+1 */
    Py_ssize_t *succ_t;    /* m */
    double *links;         /* p*p row-major */
    int all_links_finite;
} StaticsObject;

static int
fill_doubles(PyObject *seq, double *out, Py_ssize_t want, const char *name)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence");
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    if (n != want) {
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "%s: expected %zd items, got %zd",
                     name, want, n);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        double v = PyFloat_AsDouble(items[i]);
        if (v == -1.0 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        out[i] = v;
    }
    Py_DECREF(fast);
    return 0;
}

static int
fill_ssizes(PyObject *seq, Py_ssize_t *out, Py_ssize_t want, const char *name)
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence");
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    if (n != want) {
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "%s: expected %zd items, got %zd",
                     name, want, n);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t v = PyNumber_AsSsize_t(items[i], PyExc_OverflowError);
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        out[i] = v;
    }
    Py_DECREF(fast);
    return 0;
}

static void
Statics_dealloc(StaticsObject *self)
{
    PyMem_Free(self->exec_);
    PyMem_Free(self->edata);
    PyMem_Free(self->esrc);
    PyMem_Free(self->pred_ptr);
    PyMem_Free(self->pred_eix);
    PyMem_Free(self->edst);
    PyMem_Free(self->succ_ptr);
    PyMem_Free(self->succ_t);
    PyMem_Free(self->links);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Statics_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    Py_ssize_t n, m, p;
    PyObject *exec_o, *edata_o, *esrc_o, *pptr_o, *peix_o, *links_o;
    int finite;
    if (!PyArg_ParseTuple(args, "nnnOOOOOOp:Statics", &n, &m, &p, &exec_o,
                          &edata_o, &esrc_o, &pptr_o, &peix_o, &links_o,
                          &finite))
        return NULL;
    if (n < 0 || m < 0 || p < 1) {
        PyErr_SetString(PyExc_ValueError, "bad statics dimensions");
        return NULL;
    }
    StaticsObject *self = (StaticsObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->n = n;
    self->m = m;
    self->p = p;
    self->all_links_finite = finite;
    Py_ssize_t np_cells = n * p;
    self->exec_ = PyMem_Malloc((size_t)(np_cells ? np_cells : 1) * sizeof(double));
    self->edata = PyMem_Malloc((size_t)(m ? m : 1) * sizeof(double));
    self->esrc = PyMem_Malloc((size_t)(m ? m : 1) * sizeof(Py_ssize_t));
    self->pred_ptr = PyMem_Malloc((size_t)(n + 1) * sizeof(Py_ssize_t));
    self->pred_eix = PyMem_Malloc((size_t)(m ? m : 1) * sizeof(Py_ssize_t));
    self->edst = PyMem_Malloc((size_t)(m ? m : 1) * sizeof(Py_ssize_t));
    self->succ_ptr = PyMem_Calloc((size_t)(n + 1), sizeof(Py_ssize_t));
    self->succ_t = PyMem_Malloc((size_t)(m ? m : 1) * sizeof(Py_ssize_t));
    self->links = PyMem_Malloc((size_t)(p * p) * sizeof(double));
    if (!self->exec_ || !self->edata || !self->esrc || !self->pred_ptr ||
        !self->pred_eix || !self->edst || !self->succ_ptr || !self->succ_t ||
        !self->links) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    if (fill_doubles(exec_o, self->exec_, n * p, "exec") < 0 ||
        fill_doubles(edata_o, self->edata, m, "edata") < 0 ||
        fill_ssizes(esrc_o, self->esrc, m, "esrc") < 0 ||
        fill_ssizes(pptr_o, self->pred_ptr, n + 1, "pred_ptr") < 0 ||
        fill_ssizes(peix_o, self->pred_eix, m, "pred_eix") < 0 ||
        fill_doubles(links_o, self->links, p * p, "links") < 0) {
        Py_DECREF(self);
        return NULL;
    }
    /* bounds-check the index arrays once so the hot loops need not */
    for (Py_ssize_t e = 0; e < m; e++) {
        if (self->esrc[e] < 0 || self->esrc[e] >= n) {
            Py_DECREF(self);
            PyErr_SetString(PyExc_ValueError, "esrc out of range");
            return NULL;
        }
    }
    for (Py_ssize_t i = 0; i <= n; i++) {
        if (self->pred_ptr[i] < 0 || self->pred_ptr[i] > m ||
            (i && self->pred_ptr[i] < self->pred_ptr[i - 1])) {
            Py_DECREF(self);
            PyErr_SetString(PyExc_ValueError, "pred_ptr not monotone");
            return NULL;
        }
    }
    for (Py_ssize_t k = 0; k < m; k++) {
        if (self->pred_eix[k] < 0 || self->pred_eix[k] >= m) {
            Py_DECREF(self);
            PyErr_SetString(PyExc_ValueError, "pred_eix out of range");
            return NULL;
        }
    }
    /* pred_eix must list every edge exactly once (a permutation) */
    int perm = self->pred_ptr[0] == 0 && self->pred_ptr[n] == m;
    for (Py_ssize_t e = 0; e < m; e++)
        self->edst[e] = -1;
    for (Py_ssize_t k = 0; perm && k < m; k++) {
        if (self->edst[self->pred_eix[k]] >= 0)
            perm = 0;
        self->edst[self->pred_eix[k]] = 0;
    }
    if (!perm) {
        Py_DECREF(self);
        PyErr_SetString(PyExc_ValueError, "pred_eix is not a permutation");
        return NULL;
    }
    /* successor CSR: count out-degrees, prefix-sum, then fill */
    for (Py_ssize_t e = 0; e < m; e++)
        self->succ_ptr[self->esrc[e] + 1]++;
    for (Py_ssize_t i = 0; i < n; i++)
        self->succ_ptr[i + 1] += self->succ_ptr[i];
    for (Py_ssize_t ti = 0; ti < n; ti++) {
        for (Py_ssize_t k = self->pred_ptr[ti]; k < self->pred_ptr[ti + 1]; k++) {
            Py_ssize_t e = self->pred_eix[k];
            Py_ssize_t u = self->esrc[e];
            self->edst[e] = ti;
            /* the fill cursor borrows succ_ptr[u]; restored below */
            self->succ_t[self->succ_ptr[u]++] = ti;
        }
    }
    for (Py_ssize_t i = n; i > 0; i--)
        self->succ_ptr[i] = self->succ_ptr[i - 1];
    self->succ_ptr[0] = 0;
    return (PyObject *)self;
}

static PyMemberDef Statics_members[] = {
    {"num_tasks", T_PYSSIZET, offsetof(StaticsObject, n), READONLY, NULL},
    {"num_edges", T_PYSSIZET, offsetof(StaticsObject, m), READONLY, NULL},
    {"num_procs", T_PYSSIZET, offsetof(StaticsObject, p), READONLY, NULL},
    {NULL}
};

static PyTypeObject Statics_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.kernel._cext.Statics",
    .tp_basicsize = sizeof(StaticsObject),
    .tp_dealloc = (destructor)Statics_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Immutable flat statics marshaled from KernelStatics.",
    .tp_members = Statics_members,
    .tp_new = Statics_new,
};

/* ------------------------------------------------------------------ */
/* Engine: mutable booking state of one scheduling run                */
/* ------------------------------------------------------------------ */

/* model codes (mapped from model types by state_cext._model_code) */
#define MODEL_MACRO 0
#define MODEL_ONE_PORT 1
#define MODEL_UNI_PORT 2
#define MODEL_NO_OVERLAP 3
#define MODEL_ROUTED 4

/* one resolved parent row: (finish, parent_ix, edge_ix, parent_proc) */
typedef struct {
    double fin;
    Py_ssize_t pi;
    Py_ssize_t e;
    Py_ssize_t pp;
} PRow;

typedef struct {
    Py_ssize_t r;
    Py_ssize_t pos;
} UndoRec;

/* one transfer hop: edge e from q to r, [t, t + dur), hop index */
typedef struct {
    Py_ssize_t e;
    Py_ssize_t q;
    Py_ssize_t r;
    Py_ssize_t hop;
    double t;
    double dur;
} EvRec;

typedef struct {
    PyObject_HEAD
    StaticsObject *st;
    int model;
    Py_ssize_t num_rows;
    Py_ssize_t send0;      /* one-port / no-overlap / routed */
    Py_ssize_t recv0;
    Py_ssize_t port0;      /* uni-port */
    /* routed: the route q -> r is route_nodes[route_ptr[q*p + r] ..
     * route_ptr[q*p + r + 1]); both arrays live in the immutable bytes
     * object ``routes``, shared by copies */
    PyObject *routes;
    const Py_ssize_t *route_ptr;
    const Py_ssize_t *route_nodes;
    Row *rows;
    TRow *tent;
    double *last_e;        /* per-row frontier */
    long long *row_ver;    /* per-row mutation epoch */
    long long gen;
    long long commit_count;
    /* undo journal (FlatBuilder.log); active while mark_depth > 0 */
    UndoRec *log;
    Py_ssize_t log_len, log_cap;
    Py_ssize_t mark_depth;
    /* commit-ordered placement log: the order of Schedule.placements,
     * truncated by rollback (so it also lists the tasks a rollback
     * unplaces) */
    Py_ssize_t *plog;
    Py_ssize_t plog_len, plog_cap;
    /* placements */
    Py_ssize_t *proc_a;    /* n, -1 = unplaced */
    double *start_a;
    double *finish_a;
    /* one-port per-edge seed memo: (send-row version, source proc,
     * ready, seed); ver < 0 = empty entry */
    long long *seed_ver;
    Py_ssize_t *seed_src;
    double *seed_ready;
    double *seed_t;
    /* scratch */
    PRow *par;
    Py_ssize_t par_cap;
    /* commit-ordered transfer-event log (Schedule.comm_events),
     * truncated by rollback */
    EvRec *ev;
    Py_ssize_t ev_len, ev_cap;
    unsigned char *touched;  /* num_rows, rollback scratch */
    /* obs counters (drained by the Python wrapper when stats are on) */
    long long c_candidates;
    long long c_prune_maxpf;
    long long c_prune_frontier;
    long long c_prune_abort;
    long long c_seed_hit;
    long long c_seed_miss;
    long long c_commits;
    long long c_rollbacks;
    long long c_rollback_entries;
    /* drain_counters() snapshot, in the order of counter_names[] */
    long long c_snap[9];
} EngineObject;

static void
Engine_dealloc(EngineObject *self)
{
    if (self->rows) {
        for (Py_ssize_t r = 0; r < self->num_rows; r++) {
            PyMem_Free(self->rows[r].s);
            PyMem_Free(self->rows[r].e);
        }
        PyMem_Free(self->rows);
    }
    if (self->tent) {
        for (Py_ssize_t r = 0; r < self->num_rows; r++) {
            PyMem_Free(self->tent[r].s);
            PyMem_Free(self->tent[r].e);
        }
        PyMem_Free(self->tent);
    }
    PyMem_Free(self->last_e);
    PyMem_Free(self->row_ver);
    PyMem_Free(self->log);
    PyMem_Free(self->plog);
    PyMem_Free(self->proc_a);
    PyMem_Free(self->start_a);
    PyMem_Free(self->finish_a);
    PyMem_Free(self->seed_ver);
    PyMem_Free(self->seed_src);
    PyMem_Free(self->seed_ready);
    PyMem_Free(self->seed_t);
    PyMem_Free(self->par);
    PyMem_Free(self->ev);
    PyMem_Free(self->touched);
    Py_XDECREF(self->routes);
    Py_XDECREF(self->st);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* allocate the per-row / per-task / per-edge arrays of a blank engine */
static int
engine_alloc(EngineObject *self, StaticsObject *st, int model)
{
    Py_ssize_t p = st->p;
    Py_ssize_t nrows = p;
    self->send0 = self->recv0 = self->port0 = -1;
    switch (model) {
    case MODEL_MACRO:
        break;
    case MODEL_ONE_PORT:
    case MODEL_NO_OVERLAP:
    case MODEL_ROUTED:
        self->send0 = nrows; nrows += p;
        self->recv0 = nrows; nrows += p;
        break;
    case MODEL_UNI_PORT:
        self->port0 = nrows; nrows += p;
        break;
    default:
        PyErr_Format(PyExc_ValueError, "unknown model code %d", model);
        return -1;
    }
    self->model = model;
    self->num_rows = nrows;
    self->rows = PyMem_Calloc((size_t)nrows, sizeof(Row));
    self->tent = PyMem_Calloc((size_t)nrows, sizeof(TRow));
    self->last_e = PyMem_Calloc((size_t)nrows, sizeof(double));
    self->row_ver = PyMem_Calloc((size_t)nrows, sizeof(long long));
    self->touched = PyMem_Calloc((size_t)nrows, 1);
    Py_ssize_t n = st->n ? st->n : 1;
    self->proc_a = PyMem_Malloc((size_t)n * sizeof(Py_ssize_t));
    self->start_a = PyMem_Calloc((size_t)n, sizeof(double));
    self->finish_a = PyMem_Calloc((size_t)n, sizeof(double));
    Py_ssize_t m = st->m ? st->m : 1;
    self->seed_ver = PyMem_Malloc((size_t)m * sizeof(long long));
    self->seed_src = PyMem_Calloc((size_t)m, sizeof(Py_ssize_t));
    self->seed_ready = PyMem_Calloc((size_t)m, sizeof(double));
    self->seed_t = PyMem_Calloc((size_t)m, sizeof(double));
    if (!self->rows || !self->tent || !self->last_e || !self->row_ver ||
        !self->touched || !self->proc_a || !self->start_a ||
        !self->finish_a || !self->seed_ver || !self->seed_src ||
        !self->seed_ready || !self->seed_t) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < st->n; i++)
        self->proc_a[i] = -1;
    for (Py_ssize_t e = 0; e < st->m; e++)
        self->seed_ver[e] = -1;
    self->gen = 1;
    self->commit_count = 0;
    self->mark_depth = 0;
    self->log_len = 0;
    self->plog_len = 0;
    self->ev_len = 0;
    Py_INCREF(st);
    self->st = st;
    return 0;
}

/* The routed model's route table as one bytes object holding
 * route_ptr[p*p + 1] then route_nodes[]; every route q -> r must run
 * from q to r over valid processors. */
static PyObject *
pack_routes(Py_ssize_t p, PyObject *ptr_o, PyObject *nodes_o)
{
    Py_ssize_t cells = p * p + 1;
    Py_ssize_t nn = PySequence_Size(nodes_o);
    if (nn < 0)
        return NULL;
    PyObject *buf = PyBytes_FromStringAndSize(
        NULL, (cells + nn) * (Py_ssize_t)sizeof(Py_ssize_t));
    if (buf == NULL)
        return NULL;
    Py_ssize_t *ptr = (Py_ssize_t *)PyBytes_AS_STRING(buf);
    Py_ssize_t *nodes = ptr + cells;
    if (fill_ssizes(ptr_o, ptr, cells, "route_ptr") < 0 ||
        fill_ssizes(nodes_o, nodes, nn, "route_nodes") < 0) {
        Py_DECREF(buf);
        return NULL;
    }
    int ok = ptr[0] == 0 && ptr[cells - 1] == nn;
    for (Py_ssize_t k = 0; ok && k < cells - 1; k++) {
        Py_ssize_t lo = ptr[k], hi = ptr[k + 1];
        ok = lo < hi && hi <= nn && nodes[lo] == k / p && nodes[hi - 1] == k % p;
        for (Py_ssize_t i = lo; ok && i < hi; i++)
            ok = nodes[i] >= 0 && nodes[i] < p;
    }
    if (!ok) {
        Py_DECREF(buf);
        PyErr_SetString(PyExc_ValueError, "malformed route table");
        return NULL;
    }
    return buf;
}

/* Engine(statics, model[, route_ptr, route_nodes]): the route table is
 * required for MODEL_ROUTED and refused otherwise. */
static PyObject *
Engine_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *st_o, *ptr_o = Py_None, *nodes_o = Py_None;
    int model;
    if (!PyArg_ParseTuple(args, "O!i|OO:Engine", &Statics_Type, &st_o, &model,
                          &ptr_o, &nodes_o))
        return NULL;
    int routed = model == MODEL_ROUTED;
    if (routed != (ptr_o != Py_None) || routed != (nodes_o != Py_None)) {
        PyErr_SetString(PyExc_ValueError,
                        "a route table is required for, and only for, the "
                        "routed model");
        return NULL;
    }
    EngineObject *self = (EngineObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    if (engine_alloc(self, (StaticsObject *)st_o, model) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    if (routed) {
        Py_ssize_t p = self->st->p;
        self->routes = pack_routes(p, ptr_o, nodes_o);
        if (self->routes == NULL) {
            Py_DECREF(self);
            return NULL;
        }
        self->route_ptr = (const Py_ssize_t *)PyBytes_AS_STRING(self->routes);
        self->route_nodes = self->route_ptr + p * p + 1;
    }
    return (PyObject *)self;
}

/* ------------------------------------------------------------------ */
/* committed / tentative booking primitives                           */
/* ------------------------------------------------------------------ */

static int
log_append(EngineObject *eg, Py_ssize_t r, Py_ssize_t pos)
{
    if (eg->log_len >= eg->log_cap) {
        Py_ssize_t nc = eg->log_cap ? eg->log_cap * 2 : 64;
        UndoRec *nl = PyMem_Realloc(eg->log, (size_t)nc * sizeof(UndoRec));
        if (nl == NULL) { PyErr_NoMemory(); return -1; }
        eg->log = nl;
        eg->log_cap = nc;
    }
    eg->log[eg->log_len].r = r;
    eg->log[eg->log_len].pos = pos;
    eg->log_len++;
    return 0;
}

/* FlatBuilder.book: commit [start, end) on row r with overlap guards */
static int
book_c(EngineObject *eg, Py_ssize_t r, double start, double end)
{
    if (end == start)
        return 0;
    Row *row = &eg->rows[r];
    Py_ssize_t pos = bisect_right_d(row->s, row->len, start);
    if (pos && row->e[pos - 1] > start) {
        if (row->e[pos - 1] > start + guard_tol2(start, row->e[pos - 1])) {
            char buf[160];
            snprintf(buf, sizeof(buf),
                     "row %zd: reservation [%.17g, %.17g) overlaps "
                     "[%.17g, %.17g)", r, start, end,
                     row->s[pos - 1], row->e[pos - 1]);
            PyErr_SetString(TIMELINE_ERR, buf);
            return -1;
        }
    }
    if (pos < row->len && row->s[pos] < end) {
        if (row->s[pos] < end - guard_tol2(end, row->s[pos])) {
            char buf[160];
            snprintf(buf, sizeof(buf),
                     "row %zd: reservation [%.17g, %.17g) overlaps "
                     "[%.17g, %.17g)", r, start, end,
                     row->s[pos], row->e[pos]);
            PyErr_SetString(TIMELINE_ERR, buf);
            return -1;
        }
    }
    if (row_insert(row, pos, start, end) < 0)
        return -1;
    eg->last_e[r] = row->e[row->len - 1];
    eg->row_ver[r] += 1;
    eg->commit_count += 1;
    if (eg->mark_depth > 0 && log_append(eg, r, pos) < 0)
        return -1;
    return 0;
}

/* FlatBuilder.book_tentative (truncates a stale layer first) */
static int
book_tent_c(EngineObject *eg, Py_ssize_t r, double start, double end)
{
    if (end == start)
        return 0;
    TRow *tv = &eg->tent[r];
    if (tv->gen != eg->gen) {
        tv->len = 0;
        tv->gen = eg->gen;
    }
    Py_ssize_t pos = bisect_right_d(tv->s, tv->len, start);
    return trow_insert(tv, pos, start, end);
}

/* append one transfer hop to the commit-ordered event log */
static int
ev_append(EngineObject *eg, Py_ssize_t e, Py_ssize_t q, Py_ssize_t r,
          double t, double dur, Py_ssize_t hop)
{
    if (eg->ev_len >= eg->ev_cap) {
        Py_ssize_t nc = eg->ev_cap ? eg->ev_cap * 2 : 16;
        EvRec *ne = PyMem_Realloc(eg->ev, (size_t)nc * sizeof(EvRec));
        if (ne == NULL) { PyErr_NoMemory(); return -1; }
        eg->ev = ne;
        eg->ev_cap = nc;
    }
    eg->ev[eg->ev_len].e = e;
    eg->ev[eg->ev_len].q = q;
    eg->ev[eg->ev_len].r = r;
    eg->ev[eg->ev_len].hop = hop;
    eg->ev[eg->ev_len].t = t;
    eg->ev[eg->ev_len].dur = dur;
    eg->ev_len++;
    return 0;
}

/* FlatBuilder.next_fit_layered: committed + live tentative layer */
static double
next_fit_layered_c(EngineObject *eg, Py_ssize_t r, double ready,
                   double duration)
{
    if (duration == 0.0)
        return ready;
    Row *c = &eg->rows[r];
    TRow *tv = &eg->tent[r];
    const double *ts, *te;
    Py_ssize_t tn;
    if (tv->gen != eg->gen) {
        ts = te = NULL;
        tn = 0;
    } else {
        ts = tv->s;
        te = tv->e;
        tn = tv->len;
    }
    double t = ready;
    for (;;) {
        double t1 = row_next_fit_c(c->s, c->e, c->len, t, duration);
        double t2 = row_next_fit_c(ts, te, tn, t1, duration);
        if (t2 == t1)
            return t1;
        t = t2;
    }
}

/* FlatBuilder.joint_next_fit over a small fixed row set */
static double
joint_next_fit_c(EngineObject *eg, const Py_ssize_t *rows, int nrows,
                 double ready, double duration)
{
    double t = ready;
    for (;;) {
        int moved = 0;
        for (int k = 0; k < nrows; k++) {
            double t2 = next_fit_layered_c(eg, rows[k], t, duration);
            if (t2 != t) {
                t = t2;
                moved = 1;
            }
        }
        if (!moved)
            return t;
    }
}

/* ------------------------------------------------------------------ */
/* parents resolution (SchedulerState._parents)                       */
/* ------------------------------------------------------------------ */

static int
cmp_prow(const void *a, const void *b)
{
    const PRow *x = (const PRow *)a;
    const PRow *y = (const PRow *)b;
    if (x->fin < y->fin) return -1;
    if (x->fin > y->fin) return 1;
    if (x->pi != y->pi) return x->pi < y->pi ? -1 : 1;
    if (x->e != y->e) return x->e < y->e ? -1 : 1;
    return 0;
}

/* Resolve ti's parent rows into eg->par, sorted by (finish, parent).
 * Returns the row count, or -1 with an exception set. */
static Py_ssize_t
resolve_parents(EngineObject *eg, Py_ssize_t ti)
{
    StaticsObject *st = eg->st;
    Py_ssize_t lo = st->pred_ptr[ti], hi = st->pred_ptr[ti + 1];
    Py_ssize_t count = hi - lo;
    if (count > eg->par_cap) {
        Py_ssize_t nc = count < 16 ? 16 : count;
        PRow *np_ = PyMem_Realloc(eg->par, (size_t)nc * sizeof(PRow));
        if (np_ == NULL) { PyErr_NoMemory(); return -1; }
        eg->par = np_;
        eg->par_cap = nc;
    }
    for (Py_ssize_t k = 0; k < count; k++) {
        Py_ssize_t e = st->pred_eix[lo + k];
        Py_ssize_t pi = st->esrc[e];
        Py_ssize_t pp = eg->proc_a[pi];
        if (pp < 0) {
            PyErr_Format(SCHED_ERR,
                         "task #%zd evaluated before its parent #%zd was "
                         "scheduled", ti, pi);
            return -1;
        }
        eg->par[k].fin = eg->finish_a[pi];
        eg->par[k].pi = pi;
        eg->par[k].e = e;
        eg->par[k].pp = pp;
    }
    if (count > 1)
        qsort(eg->par, (size_t)count, sizeof(PRow), cmp_prow);
    return count;
}

/* ------------------------------------------------------------------ */
/* model bookers: trial_est                                           */
/* ------------------------------------------------------------------ */

/* MacroDataflowFlatBooker.trial_est: pure arithmetic, no resources */
static double
macro_trial_est(EngineObject *eg, const PRow *par, Py_ssize_t np_,
                Py_ssize_t proc, int *err)
{
    StaticsObject *st = eg->st;
    int check = !st->all_links_finite;
    double est = 0.0;
    for (Py_ssize_t j = 0; j < np_; j++) {
        double arr;
        if (par[j].pp == proc) {
            arr = par[j].fin;
        } else {
            double cost = st->links[par[j].pp * st->p + proc];
            if (check && !isfinite(cost)) {
                PyErr_Format(PLATFORM_ERR, "no direct link from P%zd to P%zd",
                             par[j].pp, proc);
                *err = 1;
                return 0.0;
            }
            arr = par[j].fin + st->edata[par[j].e] * cost;
        }
        if (arr > est)
            est = arr;
    }
    return est;
}

/* _JointRowsFlatBooker.trial_est (uni-port / no-overlap row sets) */
static int
joint_rows_for(EngineObject *eg, Py_ssize_t q, Py_ssize_t r,
               Py_ssize_t *rows)
{
    if (eg->model == MODEL_UNI_PORT) {
        rows[0] = eg->port0 + q;
        rows[1] = eg->port0 + r;
        return 2;
    }
    /* no-overlap: send/recv ports plus both endpoints' compute rows */
    rows[0] = eg->send0 + q;
    rows[1] = eg->recv0 + r;
    rows[2] = q;
    rows[3] = r;
    return 4;
}

static double
joint_trial_est(EngineObject *eg, const PRow *par, Py_ssize_t np_,
                Py_ssize_t proc, int *err)
{
    StaticsObject *st = eg->st;
    int check = !st->all_links_finite;
    double est = 0.0;
    for (Py_ssize_t j = 0; j < np_; j++) {
        double arr;
        Py_ssize_t pp = par[j].pp;
        if (pp == proc) {
            arr = par[j].fin;
        } else {
            double cost = st->links[pp * st->p + proc];
            if (check && !isfinite(cost)) {
                PyErr_Format(PLATFORM_ERR, "no direct link from P%zd to P%zd",
                             pp, proc);
                *err = 1;
                return 0.0;
            }
            double dur = st->edata[par[j].e] * cost;
            if (dur == 0.0) {
                arr = par[j].fin;
            } else {
                Py_ssize_t rows[4];
                int nrows = joint_rows_for(eg, pp, proc, rows);
                double start = joint_next_fit_c(eg, rows, nrows,
                                                par[j].fin, dur);
                double end = start + dur;
                for (int k = 0; k < nrows; k++) {
                    if (book_tent_c(eg, rows[k], start, end) < 0) {
                        *err = 1;
                        return 0.0;
                    }
                }
                arr = end;
            }
        }
        if (arr > est)
            est = arr;
    }
    return est;
}

/* OnePortFlatBooker.trial_est: 4-layer fixed point with scan cursors
 * and the per-edge send-feasibility seed memo.  A faithful
 * transliteration — see models/one_port.py for the commentary. */
static double
oneport_trial_est(EngineObject *eg, const PRow *par, Py_ssize_t np_,
                  Py_ssize_t proc, double cutoff, double duration, int *err)
{
    StaticsObject *st = eg->st;
    long long gen = eg->gen;
    int check = !st->all_links_finite;
    Py_ssize_t rr = eg->recv0 + proc;
    Row *rrow = &eg->rows[rr];
    TRow *rtv = NULL;  /* recv tentative layer, live after first booking */
    Py_ssize_t last_remote = -1;
    for (Py_ssize_t j = np_ - 1; j >= 0; j--) {
        if (par[j].pp != proc) {
            last_remote = j;
            break;
        }
    }
    double est = 0.0;
    for (Py_ssize_t j = 0; j < np_; j++) {
        double pfinish = par[j].fin;
        Py_ssize_t e = par[j].e;
        Py_ssize_t pproc = par[j].pp;
        if (pproc == proc) {
            if (pfinish > est)
                est = pfinish;
            continue;
        }
        double cost = st->links[pproc * st->p + proc];
        if (check && !isfinite(cost)) {
            PyErr_Format(PLATFORM_ERR, "no direct link from P%zd to P%zd",
                         pproc, proc);
            *err = 1;
            return 0.0;
        }
        double dur = st->edata[e] * cost;
        if (dur == 0.0) {
            if (pfinish > est)
                est = pfinish;
            continue;
        }
        Py_ssize_t rs = eg->send0 + pproc;
        Row *srow = &eg->rows[rs];
        TRow *stv = (eg->tent[rs].gen == gen) ? &eg->tent[rs] : NULL;
        Py_ssize_t si = -1, xi = -1, ri = -1, yi = -1;
        long long ver = eg->row_ver[rs];
        double t;
        if (eg->seed_ver[e] == ver && eg->seed_src[e] == pproc &&
            eg->seed_ready[e] == pfinish) {
            eg->c_seed_hit++;
            t = eg->seed_t[e];
        } else {
            eg->c_seed_miss++;
            t = pfinish;
            if (srow->len && srow->e[srow->len - 1] > t) {
                si = bisect_right_d(srow->s, srow->len, t) - 1;
                if (si >= 0 && srow->e[si] > t)
                    t = srow->e[si];
                si += 1;
                Py_ssize_t n = srow->len;
                double lim = t + dur;
                while (si < n && srow->s[si] < lim) {
                    if (srow->e[si] > t) {
                        t = srow->e[si];
                        lim = t + dur;
                    }
                    si++;
                }
            }
            eg->seed_ver[e] = ver;
            eg->seed_src[e] = pproc;
            eg->seed_ready[e] = pfinish;
            eg->seed_t[e] = t;
        }
        for (;;) {
            int moved = 0;
            /* send committed */
            if (srow->len && srow->e[srow->len - 1] > t) {
                if (si < 0) {
                    si = bisect_right_d(srow->s, srow->len, t) - 1;
                    if (si >= 0 && srow->e[si] > t) {
                        t = srow->e[si];
                        moved = 1;
                    }
                    si += 1;
                }
                Py_ssize_t n = srow->len;
                double lim = t + dur;
                while (si < n && srow->s[si] < lim) {
                    if (srow->e[si] > t) {
                        t = srow->e[si];
                        lim = t + dur;
                        moved = 1;
                    }
                    si++;
                }
            }
            /* send tentative (same-source siblings booked this trial) */
            if (stv && stv->len && stv->e[stv->len - 1] > t) {
                if (xi < 0) {
                    xi = bisect_right_d(stv->s, stv->len, t) - 1;
                    if (xi >= 0 && stv->e[xi] > t) {
                        t = stv->e[xi];
                        moved = 1;
                    }
                    xi += 1;
                }
                Py_ssize_t n = stv->len;
                double lim = t + dur;
                while (xi < n && stv->s[xi] < lim) {
                    if (stv->e[xi] > t) {
                        t = stv->e[xi];
                        lim = t + dur;
                        moved = 1;
                    }
                    xi++;
                }
            }
            /* recv committed */
            if (rrow->len && rrow->e[rrow->len - 1] > t) {
                if (ri < 0) {
                    ri = bisect_right_d(rrow->s, rrow->len, t) - 1;
                    if (ri >= 0 && rrow->e[ri] > t) {
                        t = rrow->e[ri];
                        moved = 1;
                    }
                    ri += 1;
                }
                Py_ssize_t n = rrow->len;
                double lim = t + dur;
                while (ri < n && rrow->s[ri] < lim) {
                    if (rrow->e[ri] > t) {
                        t = rrow->e[ri];
                        lim = t + dur;
                        moved = 1;
                    }
                    ri++;
                }
            }
            /* recv tentative (other messages booked this trial) */
            if (rtv && rtv->len && rtv->e[rtv->len - 1] > t) {
                if (yi < 0) {
                    yi = bisect_right_d(rtv->s, rtv->len, t) - 1;
                    if (yi >= 0 && rtv->e[yi] > t) {
                        t = rtv->e[yi];
                        moved = 1;
                    }
                    yi += 1;
                }
                Py_ssize_t n = rtv->len;
                double lim = t + dur;
                while (yi < n && rtv->s[yi] < lim) {
                    if (rtv->e[yi] > t) {
                        t = rtv->e[yi];
                        lim = t + dur;
                        moved = 1;
                    }
                    yi++;
                }
            }
            if (!moved)
                break;
        }
        double end = t + dur;
        if (j < last_remote) {
            /* book tentatively on both rows (truncating stale layers) */
            if (stv == NULL) {
                stv = &eg->tent[rs];
                stv->len = 0;
                stv->gen = gen;
            }
            Py_ssize_t i = bisect_right_d(stv->s, stv->len, t);
            if (trow_insert(stv, i, t, end) < 0) {
                *err = 1;
                return 0.0;
            }
            if (rtv == NULL) {
                rtv = &eg->tent[rr];
                if (rtv->gen != gen) {
                    rtv->len = 0;
                    rtv->gen = gen;
                }
            }
            i = bisect_right_d(rtv->s, rtv->len, t);
            if (trow_insert(rtv, i, t, end) < 0) {
                *err = 1;
                return 0.0;
            }
        }
        if (end > est) {
            est = end;
            if (est + duration > cutoff)
                return est;  /* partial: candidate provably loses */
        }
    }
    return est;
}

/* RoutedFlatBooker._ship: edge e's hops along the route q -> r, leaving
 * at t; each hop takes the joint send/recv window (both layers) at or
 * after the previous hop's arrival.  commit = 0 books tentatively;
 * commit = 1 books the committed rows and logs one event per hop.
 * Returns the arrival time (*err set on failure). */
static double
routed_ship(EngineObject *eg, Py_ssize_t e, Py_ssize_t q, Py_ssize_t r,
            double t, int commit, int *err)
{
    StaticsObject *st = eg->st;
    Py_ssize_t p = st->p;
    Py_ssize_t lo = eg->route_ptr[q * p + r], hi = eg->route_ptr[q * p + r + 1];
    const Py_ssize_t *route = eg->route_nodes + lo;
    double data = st->edata[e];
    for (Py_ssize_t hop = 0; hop < hi - lo - 1; hop++) {
        Py_ssize_t a = route[hop], c = route[hop + 1];
        double dur = data * st->links[a * p + c];
        Py_ssize_t rows[2] = {eg->send0 + a, eg->recv0 + c};
        double start = joint_next_fit_c(eg, rows, 2, t, dur);
        t = start + dur;
        int failed = commit
            ? (book_c(eg, rows[0], start, t) < 0 ||
               book_c(eg, rows[1], start, t) < 0 ||
               ev_append(eg, e, a, c, start, dur, hop) < 0)
            : (book_tent_c(eg, rows[0], start, t) < 0 ||
               book_tent_c(eg, rows[1], start, t) < 0);
        if (failed) {
            *err = 1;
            return 0.0;
        }
    }
    return t;
}

/* RoutedFlatBooker.trial_est (commit = 0, with the cutoff abort) and
 * commit_est (commit = 1, cutoff = inf) */
static double
routed_est(EngineObject *eg, const PRow *par, Py_ssize_t np_, Py_ssize_t proc,
           double cutoff, double duration, int commit, int *err)
{
    double est = 0.0;
    for (Py_ssize_t j = 0; j < np_; j++) {
        double arr = par[j].fin;
        if (par[j].pp != proc) {
            arr = routed_ship(eg, par[j].e, par[j].pp, proc, arr, commit, err);
            if (*err)
                return 0.0;
        }
        if (arr > est) {
            est = arr;
            if (est + duration > cutoff)
                return est;  /* partial: candidate provably loses */
        }
    }
    return est;
}

static double
trial_est_dispatch(EngineObject *eg, const PRow *par, Py_ssize_t np_,
                   Py_ssize_t proc, double cutoff, double duration, int *err)
{
    switch (eg->model) {
    case MODEL_ONE_PORT:
        return oneport_trial_est(eg, par, np_, proc, cutoff, duration, err);
    case MODEL_ROUTED:
        return routed_est(eg, par, np_, proc, cutoff, duration, 0, err);
    case MODEL_MACRO:
        return macro_trial_est(eg, par, np_, proc, err);
    default:
        return joint_trial_est(eg, par, np_, proc, err);
    }
}

/* ------------------------------------------------------------------ */
/* model bookers: commit_est                                          */
/* ------------------------------------------------------------------ */

static double
macro_commit_est(EngineObject *eg, const PRow *par, Py_ssize_t np_,
                 Py_ssize_t proc, int *err)
{
    StaticsObject *st = eg->st;
    int check = !st->all_links_finite;
    double est = 0.0;
    for (Py_ssize_t j = 0; j < np_; j++) {
        double arr;
        if (par[j].pp == proc) {
            arr = par[j].fin;
        } else {
            double cost = st->links[par[j].pp * st->p + proc];
            if (check && !isfinite(cost)) {
                PyErr_Format(PLATFORM_ERR, "no direct link from P%zd to P%zd",
                             par[j].pp, proc);
                *err = 1;
                return 0.0;
            }
            double dur = st->edata[par[j].e] * cost;
            if (ev_append(eg, par[j].e, par[j].pp, proc, par[j].fin, dur,
                          0) < 0) {
                *err = 1;
                return 0.0;
            }
            arr = par[j].fin + dur;
        }
        if (arr > est)
            est = arr;
    }
    return est;
}

static double
joint_commit_est(EngineObject *eg, const PRow *par, Py_ssize_t np_,
                 Py_ssize_t proc, int *err)
{
    StaticsObject *st = eg->st;
    int check = !st->all_links_finite;
    double est = 0.0;
    for (Py_ssize_t j = 0; j < np_; j++) {
        double arr;
        Py_ssize_t pp = par[j].pp;
        if (pp == proc) {
            arr = par[j].fin;
        } else {
            double cost = st->links[pp * st->p + proc];
            if (check && !isfinite(cost)) {
                PyErr_Format(PLATFORM_ERR, "no direct link from P%zd to P%zd",
                             pp, proc);
                *err = 1;
                return 0.0;
            }
            double dur = st->edata[par[j].e] * cost;
            if (dur == 0.0) {
                if (ev_append(eg, par[j].e, pp, proc, par[j].fin, 0.0,
                              0) < 0) {
                    *err = 1;
                    return 0.0;
                }
                arr = par[j].fin;
            } else {
                Py_ssize_t rows[4];
                int nrows = joint_rows_for(eg, pp, proc, rows);
                double start = joint_next_fit_c(eg, rows, nrows,
                                                par[j].fin, dur);
                double end = start + dur;
                for (int k = 0; k < nrows; k++) {
                    if (book_c(eg, rows[k], start, end) < 0) {
                        *err = 1;
                        return 0.0;
                    }
                }
                if (ev_append(eg, par[j].e, pp, proc, start, dur, 0) < 0) {
                    *err = 1;
                    return 0.0;
                }
                arr = end;
            }
        }
        if (arr > est)
            est = arr;
    }
    return est;
}

/* OnePortFlatBooker.commit_est: committed layers only, re-bisecting
 * two-layer fixed point (no cursors — mirrors the Python source). */
static double
oneport_commit_est(EngineObject *eg, const PRow *par, Py_ssize_t np_,
                   Py_ssize_t proc, int *err)
{
    StaticsObject *st = eg->st;
    int check = !st->all_links_finite;
    Py_ssize_t rr = eg->recv0 + proc;
    double est = 0.0;
    for (Py_ssize_t j = 0; j < np_; j++) {
        double pfinish = par[j].fin;
        Py_ssize_t e = par[j].e;
        Py_ssize_t pproc = par[j].pp;
        if (pproc == proc) {
            if (pfinish > est)
                est = pfinish;
            continue;
        }
        double cost = st->links[pproc * st->p + proc];
        if (check && !isfinite(cost)) {
            PyErr_Format(PLATFORM_ERR, "no direct link from P%zd to P%zd",
                         pproc, proc);
            *err = 1;
            return 0.0;
        }
        double dur = st->edata[e] * cost;
        if (dur == 0.0) {
            if (ev_append(eg, e, pproc, proc, pfinish, 0.0, 0) < 0) {
                *err = 1;
                return 0.0;
            }
            if (pfinish > est)
                est = pfinish;
            continue;
        }
        Py_ssize_t rs = eg->send0 + pproc;
        Row *srow = &eg->rows[rs];
        Row *rrow = &eg->rows[rr];
        double t = pfinish;
        for (;;) {
            int moved = 0;
            if (srow->len && srow->e[srow->len - 1] > t) {
                Py_ssize_t i = bisect_right_d(srow->s, srow->len, t) - 1;
                if (i >= 0 && srow->e[i] > t) {
                    t = srow->e[i];
                    moved = 1;
                }
                i += 1;
                Py_ssize_t n = srow->len;
                double lim = t + dur;
                while (i < n && srow->s[i] < lim) {
                    if (srow->e[i] > t) {
                        t = srow->e[i];
                        lim = t + dur;
                        moved = 1;
                    }
                    i++;
                }
            }
            if (rrow->len && rrow->e[rrow->len - 1] > t) {
                Py_ssize_t i = bisect_right_d(rrow->s, rrow->len, t) - 1;
                if (i >= 0 && rrow->e[i] > t) {
                    t = rrow->e[i];
                    moved = 1;
                }
                i += 1;
                Py_ssize_t n = rrow->len;
                double lim = t + dur;
                while (i < n && rrow->s[i] < lim) {
                    if (rrow->e[i] > t) {
                        t = rrow->e[i];
                        lim = t + dur;
                        moved = 1;
                    }
                    i++;
                }
            }
            if (!moved)
                break;
        }
        double end = t + dur;
        if (book_c(eg, rs, t, end) < 0 || book_c(eg, rr, t, end) < 0) {
            *err = 1;
            return 0.0;
        }
        if (ev_append(eg, e, pproc, proc, t, dur, 0) < 0) {
            *err = 1;
            return 0.0;
        }
        if (end > est)
            est = end;
    }
    return est;
}

static double
commit_est_dispatch(EngineObject *eg, const PRow *par, Py_ssize_t np_,
                    Py_ssize_t proc, int *err)
{
    switch (eg->model) {
    case MODEL_ROUTED:
        return routed_est(eg, par, np_, proc, Py_HUGE_VAL, 0.0, 1, err);
    case MODEL_ONE_PORT:
        return oneport_commit_est(eg, par, np_, proc, err);
    case MODEL_MACRO:
        return macro_commit_est(eg, par, np_, proc, err);
    default:
        return joint_commit_est(eg, par, np_, proc, err);
    }
}

/* ------------------------------------------------------------------ */
/* Engine methods (the Python-visible surface)                        */
/* ------------------------------------------------------------------ */

static int
check_ti(EngineObject *eg, Py_ssize_t ti)
{
    if (ti < 0 || ti >= eg->st->n) {
        PyErr_Format(PyExc_IndexError, "task index %zd out of range", ti);
        return -1;
    }
    return 0;
}

static int
check_proc(EngineObject *eg, Py_ssize_t proc)
{
    if (proc < 0 || proc >= eg->st->p) {
        PyErr_Format(PyExc_IndexError, "processor %zd out of range", proc);
        return -1;
    }
    return 0;
}

/* Parse a procs argument: None = all processors (returns NULL with
 * *count = p); otherwise a malloc'd validated index array. */
static Py_ssize_t *
parse_procs(EngineObject *eg, PyObject *procs_o, Py_ssize_t *count, int *err)
{
    *err = 0;
    if (procs_o == Py_None) {
        *count = eg->st->p;
        return NULL;
    }
    PyObject *fast = PySequence_Fast(procs_o, "procs must be a sequence");
    if (fast == NULL) {
        *err = 1;
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    Py_ssize_t *out = PyMem_Malloc((size_t)(n ? n : 1) * sizeof(Py_ssize_t));
    if (out == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        *err = 1;
        return NULL;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t v = PyNumber_AsSsize_t(items[i], PyExc_OverflowError);
        if ((v == -1 && PyErr_Occurred()) || v < 0 || v >= eg->st->p) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_IndexError, "processor %zd out of range", v);
            Py_DECREF(fast);
            PyMem_Free(out);
            *err = 1;
            return NULL;
        }
        out[i] = v;
    }
    Py_DECREF(fast);
    *count = n;
    return out;
}

/* SchedulerState.best_candidate: min-EFT sweep with maxpf / frontier /
 * in-trial-abort pruning, strict (finish, start, proc) tie-break over
 * procs[0..nprocs) (NULL = every processor).  *bp = -1 when no
 * candidate exists; returns -1 with an exception set on error. */
static int
best_candidate_c(EngineObject *eg, Py_ssize_t ti, int use_insertion,
                 const Py_ssize_t *procs, Py_ssize_t nprocs,
                 Py_ssize_t *bp_out, double *bs_out, double *bf_out)
{
    Py_ssize_t np_ = resolve_parents(eg, ti);
    if (np_ < 0)
        return -1;
    StaticsObject *st = eg->st;
    const double *exec_row = st->exec_ + ti * st->p;
    int prunable = st->all_links_finite;
    const PRow *par = eg->par;
    double maxpf = np_ ? par[np_ - 1].fin : 0.0;
    double inf = Py_HUGE_VAL;
    double bf = inf, bs = inf;
    Py_ssize_t bp = -1;
    for (Py_ssize_t k = 0; k < nprocs; k++) {
        Py_ssize_t proc = procs ? procs[k] : k;
        double duration = exec_row[proc];
        if (prunable && maxpf + duration > bf) {
            eg->c_prune_maxpf++;
            continue;
        }
        Row *crow = &eg->rows[proc];
        double last = crow->len ? crow->e[crow->len - 1] : 0.0;
        if (prunable && !use_insertion && last + duration > bf) {
            eg->c_prune_frontier++;
            continue;
        }
        eg->gen += 1;  /* begin_trial */
        eg->c_candidates++;
        int err = 0;
        double est = trial_est_dispatch(eg, par, np_, proc,
                                        prunable ? bf : inf, duration, &err);
        if (err)
            return -1;
        if (prunable && est + duration > bf) {
            eg->c_prune_abort++;
            continue;
        }
        double start;
        if (use_insertion)
            start = row_next_fit_c(crow->s, crow->e, crow->len, est, duration);
        else
            start = est >= last ? est : last;
        double finish = start + duration;
        if (finish < bf ||
            (finish == bf && (start < bs || (start == bs && proc < bp)))) {
            bf = finish;
            bs = start;
            bp = proc;
        }
    }
    *bp_out = bp;
    *bs_out = bs;
    *bf_out = bf;
    return 0;
}

/* Returns (proc, start, finish) or None when no candidate exists. */
static PyObject *
Engine_best_candidate(EngineObject *eg, PyObject *args)
{
    Py_ssize_t ti;
    int use_insertion;
    PyObject *procs_o;
    if (!PyArg_ParseTuple(args, "npO:best_candidate", &ti, &use_insertion,
                          &procs_o))
        return NULL;
    if (check_ti(eg, ti) < 0)
        return NULL;
    int perr = 0;
    Py_ssize_t nprocs;
    Py_ssize_t *procs = parse_procs(eg, procs_o, &nprocs, &perr);
    if (perr)
        return NULL;
    Py_ssize_t bp;
    double bs, bf;
    int rc = best_candidate_c(eg, ti, use_insertion, procs, nprocs, &bp, &bs,
                              &bf);
    PyMem_Free(procs);
    if (rc < 0)
        return NULL;
    if (bp < 0)
        Py_RETURN_NONE;
    return Py_BuildValue("(ndd)", bp, bs, bf);
}

/* one candidate: begin_trial + trial_est + compute slot */
static int
eval_one_c(EngineObject *eg, Py_ssize_t ti, Py_ssize_t proc,
           int use_insertion, const PRow *par, Py_ssize_t np_,
           double *start_out, double *finish_out)
{
    eg->gen += 1;  /* begin_trial */
    eg->c_candidates++;
    int err = 0;
    double est = trial_est_dispatch(eg, par, np_, proc, Py_HUGE_VAL, 0.0,
                                    &err);
    if (err)
        return -1;
    double duration = eg->st->exec_[ti * eg->st->p + proc];
    Row *crow = &eg->rows[proc];
    double start;
    if (use_insertion) {
        start = row_next_fit_c(crow->s, crow->e, crow->len, est, duration);
    } else {
        double last = crow->len ? crow->e[crow->len - 1] : 0.0;
        start = est >= last ? est : last;
    }
    *start_out = start;
    *finish_out = start + duration;
    return 0;
}

static PyObject *
Engine_evaluate_all(EngineObject *eg, PyObject *args)
{
    Py_ssize_t ti;
    int use_insertion;
    PyObject *procs_o;
    if (!PyArg_ParseTuple(args, "npO:evaluate_all", &ti, &use_insertion,
                          &procs_o))
        return NULL;
    if (check_ti(eg, ti) < 0)
        return NULL;
    Py_ssize_t np_ = resolve_parents(eg, ti);
    if (np_ < 0)
        return NULL;
    int perr = 0;
    Py_ssize_t nprocs;
    Py_ssize_t *procs = parse_procs(eg, procs_o, &nprocs, &perr);
    if (perr)
        return NULL;
    PyObject *out = PyList_New(nprocs);
    if (out == NULL) {
        PyMem_Free(procs);
        return NULL;
    }
    for (Py_ssize_t k = 0; k < nprocs; k++) {
        Py_ssize_t proc = procs ? procs[k] : k;
        double start, finish;
        if (eval_one_c(eg, ti, proc, use_insertion, eg->par, np_, &start,
                       &finish) < 0) {
            PyMem_Free(procs);
            Py_DECREF(out);
            return NULL;
        }
        PyObject *t = Py_BuildValue("(ndd)", proc, start, finish);
        if (t == NULL) {
            PyMem_Free(procs);
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, k, t);
    }
    PyMem_Free(procs);
    return out;
}

static PyObject *
Engine_evaluate_one(EngineObject *eg, PyObject *args)
{
    Py_ssize_t ti, proc;
    int use_insertion;
    if (!PyArg_ParseTuple(args, "nnp:evaluate_one", &ti, &proc,
                          &use_insertion))
        return NULL;
    if (check_ti(eg, ti) < 0 || check_proc(eg, proc) < 0)
        return NULL;
    Py_ssize_t np_ = resolve_parents(eg, ti);
    if (np_ < 0)
        return NULL;
    double start, finish;
    if (eval_one_c(eg, ti, proc, use_insertion, eg->par, np_, &start,
                   &finish) < 0)
        return NULL;
    return Py_BuildValue("(dd)", start, finish);
}

/* evaluate with explicit (pfinish, pi, e, pproc) rows, order preserved
 * (SchedulerState.evaluate with a hypothetical ``parents`` list) */
static PyObject *
Engine_evaluate_with_parents(EngineObject *eg, PyObject *args)
{
    Py_ssize_t ti, proc;
    int use_insertion;
    PyObject *rows_o;
    if (!PyArg_ParseTuple(args, "nnpO:evaluate_with_parents", &ti, &proc,
                          &use_insertion, &rows_o))
        return NULL;
    if (check_ti(eg, ti) < 0 || check_proc(eg, proc) < 0)
        return NULL;
    PyObject *fast = PySequence_Fast(rows_o, "parents must be a sequence");
    if (fast == NULL)
        return NULL;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(fast);
    if (count > eg->par_cap) {
        Py_ssize_t nc = count < 16 ? 16 : count;
        PRow *np_ = PyMem_Realloc(eg->par, (size_t)nc * sizeof(PRow));
        if (np_ == NULL) {
            Py_DECREF(fast);
            return PyErr_NoMemory();
        }
        eg->par = np_;
        eg->par_cap = nc;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t k = 0; k < count; k++) {
        double fin;
        Py_ssize_t pi, e, pp;
        if (!PyArg_ParseTuple(items[k], "dnnn", &fin, &pi, &e, &pp)) {
            Py_DECREF(fast);
            return NULL;
        }
        if (e < 0 || e >= eg->st->m || pp < 0 || pp >= eg->st->p) {
            Py_DECREF(fast);
            PyErr_SetString(PyExc_IndexError, "parent row out of range");
            return NULL;
        }
        eg->par[k].fin = fin;
        eg->par[k].pi = pi;
        eg->par[k].e = e;
        eg->par[k].pp = pp;
    }
    Py_DECREF(fast);
    double start, finish;
    if (eval_one_c(eg, ti, proc, use_insertion, eg->par, count, &start,
                   &finish) < 0)
        return NULL;
    return Py_BuildValue("(dd)", start, finish);
}

static int
plog_append(EngineObject *eg, Py_ssize_t ti)
{
    if (eg->plog_len >= eg->plog_cap) {
        Py_ssize_t nc = eg->plog_cap ? eg->plog_cap * 2 : 64;
        Py_ssize_t *np_ = PyMem_Realloc(eg->plog,
                                        (size_t)nc * sizeof(Py_ssize_t));
        if (np_ == NULL) { PyErr_NoMemory(); return -1; }
        eg->plog = np_;
        eg->plog_cap = nc;
    }
    eg->plog[eg->plog_len++] = ti;
    return 0;
}

/* _commit_comms + _place, fused: books ports and the compute window,
 * records the placement and appends the transfer events to the log.
 * With sched_ins < 0 the compute window is *start / *finish (commit of
 * an evaluated candidate); otherwise it is derived from the committed
 * EST with or without insertion and written back (schedule_on). */
static int
commit_c(EngineObject *eg, Py_ssize_t ti, Py_ssize_t proc, int sched_ins,
         double *start, double *finish)
{
    if (eg->proc_a[ti] >= 0) {
        PyErr_Format(SCHED_ERR, "task #%zd placed twice", ti);
        return -1;
    }
    Py_ssize_t np_ = resolve_parents(eg, ti);
    if (np_ < 0)
        return -1;
    eg->gen += 1;  /* stale any tentative data */
    int err = 0;
    double est = commit_est_dispatch(eg, eg->par, np_, proc, &err);
    if (err)
        return -1;
    if (sched_ins >= 0) {
        double duration = eg->st->exec_[ti * eg->st->p + proc];
        Row *crow = &eg->rows[proc];
        if (sched_ins) {
            *start = row_next_fit_c(crow->s, crow->e, crow->len, est,
                                    duration);
        } else {
            double last = crow->len ? crow->e[crow->len - 1] : 0.0;
            *start = est >= last ? est : last;
        }
        *finish = *start + duration;
    }
    eg->c_commits++;
    if (book_c(eg, proc, *start, *finish) < 0)
        return -1;
    eg->proc_a[ti] = proc;
    eg->start_a[ti] = *start;
    eg->finish_a[ti] = *finish;
    return plog_append(eg, ti);
}

static PyObject *
Engine_commit(EngineObject *eg, PyObject *args)
{
    Py_ssize_t ti, proc;
    double start, finish;
    if (!PyArg_ParseTuple(args, "nndd:commit", &ti, &proc, &start, &finish))
        return NULL;
    if (check_ti(eg, ti) < 0 || check_proc(eg, proc) < 0)
        return NULL;
    if (commit_c(eg, ti, proc, -1, &start, &finish) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* SchedulerState.schedule_on: evaluate-and-commit on a fixed processor.
 * Returns (start, finish). */
static PyObject *
Engine_schedule_on(EngineObject *eg, PyObject *args)
{
    Py_ssize_t ti, proc;
    int use_insertion;
    if (!PyArg_ParseTuple(args, "nnp:schedule_on", &ti, &proc,
                          &use_insertion))
        return NULL;
    if (check_ti(eg, ti) < 0 || check_proc(eg, proc) < 0)
        return NULL;
    double start, finish;
    if (commit_c(eg, ti, proc, use_insertion, &start, &finish) < 0)
        return NULL;
    return Py_BuildValue("(dd)", start, finish);
}

/* ------------------------------------------------------------------ */
/* run_list: the whole list-scheduling loop (SchedulerState.run_list)  */
/* ------------------------------------------------------------------ */

static double
now_s(void)
{
    struct timespec ts;
#ifdef CLOCK_MONOTONIC
    clock_gettime(CLOCK_MONOTONIC, &ts);
#else
    timespec_get(&ts, TIME_UTC);
#endif
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* binary min-heap of ranks */
static void
heap_push(Py_ssize_t *h, Py_ssize_t *len, Py_ssize_t v)
{
    Py_ssize_t i = (*len)++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (h[parent] <= v)
            break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = v;
}

static Py_ssize_t
heap_pop(Py_ssize_t *h, Py_ssize_t *len)
{
    Py_ssize_t top = h[0];
    Py_ssize_t v = h[--(*len)];
    Py_ssize_t n = *len, i = 0;
    for (;;) {
        Py_ssize_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && h[c + 1] < h[c])
            c++;
        if (v <= h[c])
            break;
        h[i] = h[c];
        i = c;
    }
    if (n)
        h[i] = v;
    return top;
}

/* the processor hosting every parent of ti, or -1 (no parents, or
 * parents on several processors) — ILHA's zero-communication test */
static Py_ssize_t
sole_parent_proc(EngineObject *eg, Py_ssize_t ti)
{
    StaticsObject *st = eg->st;
    Py_ssize_t lo = st->pred_ptr[ti], hi = st->pred_ptr[ti + 1];
    Py_ssize_t proc = -1;
    for (Py_ssize_t k = lo; k < hi; k++) {
        Py_ssize_t pp = eg->proc_a[st->esrc[st->pred_eix[k]]];
        if (k > lo && pp != proc)
            return -1;
        proc = pp;
    }
    return proc;
}

/* run_list(rank, insertion, timed, chunk=1, limits=None): the list
 * scheduling loop of SchedulerState.run_list.  Tasks leave the ready
 * heap (keyed by rank, a permutation of 0..n-1) chunk at a time.  With
 * limits (ILHA's count budgets: limits[(k - 1) * p + q] for a chunk of
 * k tasks) a chunk task whose parents all sit on one processor q goes
 * there while q's budget lasts (step 1); every other task commits its
 * min-EFT candidate over all processors (step 2, HEFT for chunk 1).
 * Children are released once the whole chunk is placed.  Returns
 * (sweep_s, sweeps, commit_s, commits) when timed, else None. */
static PyObject *
Engine_run_list(EngineObject *eg, PyObject *args)
{
    PyObject *rank_o, *limits_o = Py_None;
    int use_insertion, timed;
    Py_ssize_t chunk = 1;
    if (!PyArg_ParseTuple(args, "Opp|nO:run_list", &rank_o, &use_insertion,
                          &timed, &chunk, &limits_o))
        return NULL;
    StaticsObject *st = eg->st;
    Py_ssize_t n = st->n, p = st->p;
    if (chunk < 1) {
        PyErr_SetString(PyExc_ValueError, "chunk must be >= 1");
        return NULL;
    }
    Py_ssize_t cells = n ? n : 1;
    Py_ssize_t *rank = PyMem_Malloc((size_t)cells * sizeof(Py_ssize_t));
    Py_ssize_t *order = PyMem_Malloc((size_t)cells * sizeof(Py_ssize_t));
    Py_ssize_t *remaining = PyMem_Malloc((size_t)cells * sizeof(Py_ssize_t));
    Py_ssize_t *heap = PyMem_Malloc((size_t)cells * sizeof(Py_ssize_t));
    Py_ssize_t *batch = PyMem_Malloc((size_t)(2 * chunk) * sizeof(Py_ssize_t));
    Py_ssize_t *used = PyMem_Malloc((size_t)p * sizeof(Py_ssize_t));
    Py_ssize_t *limits = NULL;
    PyObject *res = NULL;
    double sweep_s = 0.0, commit_s = 0.0;
    Py_ssize_t sweeps = 0, commits = 0;
    if (!rank || !order || !remaining || !heap || !batch || !used) {
        PyErr_NoMemory();
        goto done;
    }
    if (limits_o != Py_None) {
        limits = PyMem_Malloc((size_t)(chunk * p) * sizeof(Py_ssize_t));
        if (limits == NULL) {
            PyErr_NoMemory();
            goto done;
        }
        if (fill_ssizes(limits_o, limits, chunk * p, "limits") < 0)
            goto done;
    }
    if (fill_ssizes(rank_o, rank, n, "rank") < 0)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++)
        order[i] = -1;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (rank[i] < 0 || rank[i] >= n || order[rank[i]] >= 0) {
            PyErr_SetString(PyExc_ValueError,
                            "rank is not a permutation of the tasks");
            goto done;
        }
        order[rank[i]] = i;
    }
    Py_ssize_t hlen = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        remaining[i] = st->pred_ptr[i + 1] - st->pred_ptr[i];
        if (!remaining[i])
            heap_push(heap, &hlen, rank[i]);
    }
    Py_ssize_t *rest = batch + chunk;
    while (hlen) {
        Py_ssize_t k = 0, nrest = 0;
        while (hlen && k < chunk)
            batch[k++] = order[heap_pop(heap, &hlen)];
        if (limits) {  /* step 1: zero-communication placements */
            const Py_ssize_t *lim = limits + (k - 1) * p;
            memset(used, 0, (size_t)p * sizeof(Py_ssize_t));
            for (Py_ssize_t j = 0; j < k; j++) {
                Py_ssize_t ti = batch[j];
                Py_ssize_t q = sole_parent_proc(eg, ti);
                if (q < 0 || used[q] >= lim[q]) {
                    rest[nrest++] = ti;
                    continue;
                }
                double t0 = timed ? now_s() : 0.0;
                double start, finish;
                if (commit_c(eg, ti, q, use_insertion, &start, &finish) < 0)
                    goto done;
                if (timed) {
                    commit_s += now_s() - t0;
                    commits++;
                }
                used[q]++;
            }
        } else {
            memcpy(rest, batch, (size_t)k * sizeof(Py_ssize_t));
            nrest = k;
        }
        for (Py_ssize_t j = 0; j < nrest; j++) {  /* step 2: min EFT */
            Py_ssize_t ti = rest[j];
            double t0 = timed ? now_s() : 0.0;
            Py_ssize_t bp;
            double bs, bf;
            if (best_candidate_c(eg, ti, use_insertion, NULL, p, &bp, &bs,
                                 &bf) < 0)
                goto done;
            double t1 = timed ? now_s() : 0.0;
            if (commit_c(eg, ti, bp, -1, &bs, &bf) < 0)
                goto done;
            if (timed) {
                sweep_s += t1 - t0;
                commit_s += now_s() - t1;
                sweeps++;
                commits++;
            }
        }
        for (Py_ssize_t j = 0; j < k; j++) {
            Py_ssize_t ti = batch[j];
            for (Py_ssize_t e = st->succ_ptr[ti]; e < st->succ_ptr[ti + 1]; e++) {
                Py_ssize_t c = st->succ_t[e];
                if (--remaining[c] == 0)
                    heap_push(heap, &hlen, rank[c]);
            }
        }
    }
    if (timed) {
        res = Py_BuildValue("(dndn)", sweep_s, sweeps, commit_s, commits);
    } else {
        Py_INCREF(Py_None);
        res = Py_None;
    }
done:
    PyMem_Free(rank);
    PyMem_Free(order);
    PyMem_Free(remaining);
    PyMem_Free(heap);
    PyMem_Free(batch);
    PyMem_Free(used);
    PyMem_Free(limits);
    return res;
}

/* a tuple-subclass record (TaskPlacement / CommEvent) from new refs;
 * steals every item, even on failure */
static PyObject *
make_record(PyTypeObject *type, PyObject **items, Py_ssize_t count)
{
    PyObject *rec = NULL;
    for (Py_ssize_t i = 0; i < count; i++) {
        if (items[i] == NULL)
            goto fail;
    }
    rec = type->tp_alloc(type, count);
    if (rec == NULL)
        goto fail;
    for (Py_ssize_t i = 0; i < count; i++)
        PyTuple_SET_ITEM(rec, i, items[i]);
    return rec;
fail:
    for (Py_ssize_t i = 0; i < count; i++)
        Py_XDECREF(items[i]);
    return NULL;
}

/* materialize(tasks, placements, events, pcursor, ecursor): append the
 * placements logged since pcursor to the placements dict and the
 * transfer events logged since ecursor to the events list, as the
 * records Schedule.place / Schedule.record_comm would have built. */
static PyObject *
Engine_materialize(EngineObject *eg, PyObject *args)
{
    PyObject *tasks, *placements, *events;
    Py_ssize_t pcursor, ecursor;
    if (!PyArg_ParseTuple(args, "O!O!O!nn:materialize", &PyList_Type, &tasks,
                          &PyDict_Type, &placements, &PyList_Type, &events,
                          &pcursor, &ecursor))
        return NULL;
    StaticsObject *st = eg->st;
    if (PlacementType == NULL || CommEventType == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "record types not installed");
        return NULL;
    }
    if (PyList_GET_SIZE(tasks) != st->n || pcursor < 0 ||
        pcursor > eg->plog_len || ecursor < 0 || ecursor > eg->ev_len) {
        PyErr_SetString(PyExc_ValueError, "bad materialize arguments");
        return NULL;
    }
    for (Py_ssize_t k = pcursor; k < eg->plog_len; k++) {
        Py_ssize_t ti = eg->plog[k];
        PyObject *task = PyList_GET_ITEM(tasks, ti);
        PyObject *items[4];
        Py_INCREF(task);
        items[0] = task;
        items[1] = PyLong_FromSsize_t(eg->proc_a[ti]);
        items[2] = PyFloat_FromDouble(eg->start_a[ti]);
        items[3] = PyFloat_FromDouble(eg->finish_a[ti]);
        PyObject *rec = make_record(PlacementType, items, 4);
        if (rec == NULL)
            return NULL;
        int rc = PyDict_SetItem(placements, task, rec);
        Py_DECREF(rec);
        if (rc < 0)
            return NULL;
    }
    for (Py_ssize_t k = ecursor; k < eg->ev_len; k++) {
        const EvRec *ev = &eg->ev[k];
        Py_ssize_t dst = st->edst[ev->e];
        PyObject *items[8];
        items[0] = PyList_GET_ITEM(tasks, st->esrc[ev->e]);
        Py_INCREF(items[0]);
        items[1] = PyList_GET_ITEM(tasks, dst);
        Py_INCREF(items[1]);
        items[2] = PyLong_FromSsize_t(ev->q);
        items[3] = PyLong_FromSsize_t(ev->r);
        items[4] = PyFloat_FromDouble(ev->t);
        items[5] = PyFloat_FromDouble(ev->t + ev->dur);
        items[6] = PyFloat_FromDouble(st->edata[ev->e]);
        items[7] = PyLong_FromSsize_t(ev->hop);
        PyObject *rec = make_record(CommEventType, items, 8);
        if (rec == NULL)
            return NULL;
        int rc = PyList_Append(events, rec);
        Py_DECREF(rec);
        if (rc < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* journal / copy / introspection                                     */
/* ------------------------------------------------------------------ */

/* Returns the (journal, placement-log, event-log) cursors to roll back
 * to. */
static PyObject *
Engine_mark(EngineObject *eg, PyObject *Py_UNUSED(ignored))
{
    if (eg->mark_depth == 0)
        eg->log_len = 0;  /* builder.mark: log = [] when None */
    eg->mark_depth += 1;
    return Py_BuildValue("(nnn)", eg->log_len, eg->plog_len, eg->ev_len);
}

/* FlatBuilder.rollback + SchedulerState.restore: undoes the bookings,
 * placements and transfer events logged after the mark.  Returns
 * (entries_undone, [task_ix...]) with tasks in undo order. */
static PyObject *
Engine_rollback(EngineObject *eg, PyObject *args)
{
    Py_ssize_t cursor, pcursor, ecursor;
    if (!PyArg_ParseTuple(args, "nnn:rollback", &cursor, &pcursor, &ecursor))
        return NULL;
    if (eg->mark_depth == 0) {
        PyErr_SetString(TIMELINE_ERR, "rollback without an active mark");
        return NULL;
    }
    if (cursor < 0 || cursor > eg->log_len || pcursor < 0 ||
        pcursor > eg->plog_len || ecursor < 0 || ecursor > eg->ev_len) {
        PyErr_SetString(PyExc_ValueError, "bad rollback cursor");
        return NULL;
    }
    Py_ssize_t entries = eg->log_len - cursor;
    eg->c_rollbacks++;
    eg->c_rollback_entries += entries;
    memset(eg->touched, 0, (size_t)eg->num_rows);
    for (Py_ssize_t i = eg->log_len - 1; i >= cursor; i--) {
        Py_ssize_t r = eg->log[i].r;
        Py_ssize_t pos = eg->log[i].pos;
        Row *row = &eg->rows[r];
        memmove(row->s + pos, row->s + pos + 1,
                (size_t)(row->len - pos - 1) * sizeof(double));
        memmove(row->e + pos, row->e + pos + 1,
                (size_t)(row->len - pos - 1) * sizeof(double));
        row->len--;
        eg->touched[r] = 1;
    }
    for (Py_ssize_t r = 0; r < eg->num_rows; r++) {
        if (eg->touched[r]) {
            Row *row = &eg->rows[r];
            eg->last_e[r] = row->len ? row->e[row->len - 1] : 0.0;
            eg->row_ver[r] += 1;
        }
    }
    eg->log_len = cursor;
    eg->mark_depth -= 1;
    eg->gen += 1;
    eg->commit_count += 1;
    PyObject *undone = PyList_New(eg->plog_len - pcursor);
    if (undone == NULL)
        return NULL;
    Py_ssize_t idx = 0;
    for (Py_ssize_t i = eg->plog_len - 1; i >= pcursor; i--) {
        Py_ssize_t ti = eg->plog[i];
        eg->proc_a[ti] = -1;
        PyObject *v = PyLong_FromSsize_t(ti);
        if (v == NULL) {
            Py_DECREF(undone);
            return NULL;
        }
        PyList_SET_ITEM(undone, idx++, v);
    }
    eg->plog_len = pcursor;
    eg->ev_len = ecursor;
    return Py_BuildValue("(nN)", entries, undone);
}

/* independent deep copy of committed state and the placement / event
 * logs (FlatBuilder.copy + booker.rebind semantics: fresh tentative
 * layers, fresh seed memo, no journal, counters zeroed) */
static PyObject *
Engine_copy(EngineObject *eg, PyObject *Py_UNUSED(ignored))
{
    EngineObject *dup =
        (EngineObject *)Py_TYPE(eg)->tp_alloc(Py_TYPE(eg), 0);
    if (dup == NULL)
        return NULL;
    if (engine_alloc(dup, eg->st, eg->model) < 0) {
        Py_DECREF(dup);
        return NULL;
    }
    Py_XINCREF(eg->routes);
    dup->routes = eg->routes;
    dup->route_ptr = eg->route_ptr;
    dup->route_nodes = eg->route_nodes;
    for (Py_ssize_t r = 0; r < eg->num_rows; r++) {
        Row *src = &eg->rows[r];
        Row *dst = &dup->rows[r];
        if (src->len) {
            dst->s = PyMem_Malloc((size_t)src->len * sizeof(double));
            dst->e = PyMem_Malloc((size_t)src->len * sizeof(double));
            if (dst->s == NULL || dst->e == NULL) {
                Py_DECREF(dup);
                return PyErr_NoMemory();
            }
            memcpy(dst->s, src->s, (size_t)src->len * sizeof(double));
            memcpy(dst->e, src->e, (size_t)src->len * sizeof(double));
            dst->len = dst->cap = src->len;
        }
        dup->last_e[r] = eg->last_e[r];
        dup->row_ver[r] = eg->row_ver[r];
    }
    memcpy(dup->proc_a, eg->proc_a, (size_t)eg->st->n * sizeof(Py_ssize_t));
    memcpy(dup->start_a, eg->start_a, (size_t)eg->st->n * sizeof(double));
    memcpy(dup->finish_a, eg->finish_a, (size_t)eg->st->n * sizeof(double));
    if (eg->plog_len) {
        dup->plog = PyMem_Malloc((size_t)eg->plog_len * sizeof(Py_ssize_t));
        if (dup->plog == NULL) {
            Py_DECREF(dup);
            return PyErr_NoMemory();
        }
        memcpy(dup->plog, eg->plog, (size_t)eg->plog_len * sizeof(Py_ssize_t));
        dup->plog_len = dup->plog_cap = eg->plog_len;
    }
    if (eg->ev_len) {
        dup->ev = PyMem_Malloc((size_t)eg->ev_len * sizeof(EvRec));
        if (dup->ev == NULL) {
            Py_DECREF(dup);
            return PyErr_NoMemory();
        }
        memcpy(dup->ev, eg->ev, (size_t)eg->ev_len * sizeof(EvRec));
        dup->ev_len = dup->ev_cap = eg->ev_len;
    }
    return (PyObject *)dup;
}

static PyObject *
Engine_committed(EngineObject *eg, PyObject *args)
{
    Py_ssize_t r;
    if (!PyArg_ParseTuple(args, "n:committed", &r))
        return NULL;
    if (r < 0 || r >= eg->num_rows) {
        PyErr_Format(PyExc_IndexError, "row %zd out of range", r);
        return NULL;
    }
    Row *row = &eg->rows[r];
    PyObject *out = PyList_New(row->len);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < row->len; i++) {
        PyObject *t = Py_BuildValue("(dd)", row->s[i], row->e[i]);
        if (t == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, t);
    }
    return out;
}

static PyObject *
Engine_row_len(EngineObject *eg, PyObject *args)
{
    Py_ssize_t r;
    if (!PyArg_ParseTuple(args, "n:row_len", &r))
        return NULL;
    if (r < 0 || r >= eg->num_rows) {
        PyErr_Format(PyExc_IndexError, "row %zd out of range", r);
        return NULL;
    }
    return PyLong_FromSsize_t(eg->rows[r].len);
}

static PyObject *
Engine_last_end(EngineObject *eg, PyObject *args)
{
    Py_ssize_t r;
    if (!PyArg_ParseTuple(args, "n:last_end", &r))
        return NULL;
    if (r < 0 || r >= eg->num_rows) {
        PyErr_Format(PyExc_IndexError, "row %zd out of range", r);
        return NULL;
    }
    Row *row = &eg->rows[r];
    return PyFloat_FromDouble(row->len ? row->e[row->len - 1] : 0.0);
}

static PyObject *
Engine_next_fit(EngineObject *eg, PyObject *args)
{
    Py_ssize_t r;
    double ready, duration;
    if (!PyArg_ParseTuple(args, "ndd:next_fit", &r, &ready, &duration))
        return NULL;
    if (r < 0 || r >= eg->num_rows) {
        PyErr_Format(PyExc_IndexError, "row %zd out of range", r);
        return NULL;
    }
    Row *row = &eg->rows[r];
    return PyFloat_FromDouble(
        row_next_fit_c(row->s, row->e, row->len, ready, duration));
}

static PyObject *
Engine_book(EngineObject *eg, PyObject *args)
{
    Py_ssize_t r;
    double start, end;
    if (!PyArg_ParseTuple(args, "ndd:book", &r, &start, &end))
        return NULL;
    if (r < 0 || r >= eg->num_rows) {
        PyErr_Format(PyExc_IndexError, "row %zd out of range", r);
        return NULL;
    }
    if (book_c(eg, r, start, end) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_fingerprint(EngineObject *eg, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyTuple_New(eg->num_rows);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t r = 0; r < eg->num_rows; r++) {
        Row *row = &eg->rows[r];
        PyObject *rt = PyTuple_New(row->len);
        if (rt == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        for (Py_ssize_t i = 0; i < row->len; i++) {
            PyObject *iv = Py_BuildValue("(dd)", row->s[i], row->e[i]);
            if (iv == NULL) {
                Py_DECREF(rt);
                Py_DECREF(out);
                return NULL;
            }
            PyTuple_SET_ITEM(rt, i, iv);
        }
        PyTuple_SET_ITEM(out, r, rt);
    }
    return out;
}

static PyObject *
Engine_parents(EngineObject *eg, PyObject *args)
{
    Py_ssize_t ti;
    if (!PyArg_ParseTuple(args, "n:parents", &ti))
        return NULL;
    if (check_ti(eg, ti) < 0)
        return NULL;
    Py_ssize_t np_ = resolve_parents(eg, ti);
    if (np_ < 0)
        return NULL;
    PyObject *out = PyList_New(np_);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t k = 0; k < np_; k++) {
        PyObject *t = Py_BuildValue("(dnnn)", eg->par[k].fin, eg->par[k].pi,
                                    eg->par[k].e, eg->par[k].pp);
        if (t == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, k, t);
    }
    return out;
}

/* catalog names for drain_counters, matching the struct field order */
static const char *const counter_names[9] = {
    "builder.candidates", "builder.prune.maxpf", "builder.prune.frontier",
    "builder.prune.abort", "oneport.seed.hit", "oneport.seed.miss",
    "builder.commits", "builder.rollbacks", "builder.rollback_entries",
};

/* deltas since the last drain, as a dict of only the counters that
 * moved (None when nothing did) — cheap enough to call per commit */
static PyObject *
Engine_drain_counters(EngineObject *eg, PyObject *Py_UNUSED(ignored))
{
    long long cur[9] = {
        eg->c_candidates, eg->c_prune_maxpf, eg->c_prune_frontier,
        eg->c_prune_abort, eg->c_seed_hit, eg->c_seed_miss,
        eg->c_commits, eg->c_rollbacks, eg->c_rollback_entries,
    };
    PyObject *out = NULL;
    for (int i = 0; i < 9; i++) {
        long long d = cur[i] - eg->c_snap[i];
        if (d == 0)
            continue;
        if (out == NULL && (out = PyDict_New()) == NULL)
            return NULL;
        PyObject *v = PyLong_FromLongLong(d);
        if (v == NULL || PyDict_SetItemString(out, counter_names[i], v) < 0) {
            Py_XDECREF(v);
            Py_DECREF(out);
            return NULL;
        }
        Py_DECREF(v);
        eg->c_snap[i] = cur[i];
    }
    if (out == NULL)
        Py_RETURN_NONE;
    return out;
}

static PyMethodDef Engine_methods[] = {
    {"best_candidate", (PyCFunction)Engine_best_candidate, METH_VARARGS, NULL},
    {"evaluate_all", (PyCFunction)Engine_evaluate_all, METH_VARARGS, NULL},
    {"evaluate_one", (PyCFunction)Engine_evaluate_one, METH_VARARGS, NULL},
    {"evaluate_with_parents", (PyCFunction)Engine_evaluate_with_parents,
     METH_VARARGS, NULL},
    {"commit", (PyCFunction)Engine_commit, METH_VARARGS, NULL},
    {"schedule_on", (PyCFunction)Engine_schedule_on, METH_VARARGS, NULL},
    {"run_list", (PyCFunction)Engine_run_list, METH_VARARGS, NULL},
    {"materialize", (PyCFunction)Engine_materialize, METH_VARARGS, NULL},
    {"mark", (PyCFunction)Engine_mark, METH_NOARGS, NULL},
    {"rollback", (PyCFunction)Engine_rollback, METH_VARARGS, NULL},
    {"copy", (PyCFunction)Engine_copy, METH_NOARGS, NULL},
    {"committed", (PyCFunction)Engine_committed, METH_VARARGS, NULL},
    {"row_len", (PyCFunction)Engine_row_len, METH_VARARGS, NULL},
    {"last_end", (PyCFunction)Engine_last_end, METH_VARARGS, NULL},
    {"next_fit", (PyCFunction)Engine_next_fit, METH_VARARGS, NULL},
    {"book", (PyCFunction)Engine_book, METH_VARARGS, NULL},
    {"fingerprint", (PyCFunction)Engine_fingerprint, METH_NOARGS, NULL},
    {"parents", (PyCFunction)Engine_parents, METH_VARARGS, NULL},
    {"drain_counters", (PyCFunction)Engine_drain_counters, METH_NOARGS,
     NULL},
    {NULL}
};

static PyMemberDef Engine_members[] = {
    {"gen", T_LONGLONG, offsetof(EngineObject, gen), READONLY, NULL},
    {"commit_count", T_LONGLONG, offsetof(EngineObject, commit_count),
     READONLY, NULL},
    {"num_rows", T_PYSSIZET, offsetof(EngineObject, num_rows), READONLY,
     NULL},
    {"model", T_INT, offsetof(EngineObject, model), READONLY, NULL},
    {"num_placed", T_PYSSIZET, offsetof(EngineObject, plog_len), READONLY,
     NULL},
    {"num_events", T_PYSSIZET, offsetof(EngineObject, ev_len), READONLY,
     NULL},
    {NULL}
};

static PyTypeObject Engine_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.kernel._cext.Engine",
    .tp_basicsize = sizeof(EngineObject),
    .tp_dealloc = (destructor)Engine_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Compiled booking engine for one scheduling run.",
    .tp_methods = Engine_methods,
    .tp_members = Engine_members,
    .tp_new = Engine_new,
};

/* ------------------------------------------------------------------ */
/* module                                                             */
/* ------------------------------------------------------------------ */

static PyObject *
cext_set_exceptions(PyObject *Py_UNUSED(mod), PyObject *args)
{
    PyObject *sched, *timeline, *platform;
    if (!PyArg_ParseTuple(args, "OOO:_set_exceptions", &sched, &timeline,
                          &platform))
        return NULL;
    Py_INCREF(sched);
    Py_XSETREF(SchedulingErr, sched);
    Py_INCREF(timeline);
    Py_XSETREF(TimelineErr, timeline);
    Py_INCREF(platform);
    Py_XSETREF(PlatformErr, platform);
    Py_RETURN_NONE;
}

static PyObject *
cext_set_record_types(PyObject *Py_UNUSED(mod), PyObject *args)
{
    PyObject *placement, *event;
    if (!PyArg_ParseTuple(args, "O!O!:_set_record_types", &PyType_Type,
                          &placement, &PyType_Type, &event))
        return NULL;
    if (!PyType_IsSubtype((PyTypeObject *)placement, &PyTuple_Type) ||
        !PyType_IsSubtype((PyTypeObject *)event, &PyTuple_Type)) {
        PyErr_SetString(PyExc_TypeError, "record types must subclass tuple");
        return NULL;
    }
    Py_INCREF(placement);
    Py_XSETREF(PlacementType, (PyTypeObject *)placement);
    Py_INCREF(event);
    Py_XSETREF(CommEventType, (PyTypeObject *)event);
    Py_RETURN_NONE;
}

static PyObject *
cext_build_info(PyObject *Py_UNUSED(mod), PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue(
        "{s:s,s:s,s:s}",
        "compiler",
#if defined(__clang_version__)
        "clang " __clang_version__,
#elif defined(__VERSION__)
        "gcc " __VERSION__,
#else
        "unknown",
#endif
        "built", __DATE__ " " __TIME__,
        "python", PY_VERSION);
}

static PyMethodDef cext_methods[] = {
    {"_set_exceptions", cext_set_exceptions, METH_VARARGS,
     "Install the repro exception types used by the engine."},
    {"_set_record_types", cext_set_record_types, METH_VARARGS,
     "Install the Schedule record types materialize() builds."},
    {"build_info", cext_build_info, METH_NOARGS,
     "Compiler / build provenance of this extension."},
    {NULL}
};

static struct PyModuleDef cext_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.kernel._cext",
    .m_doc = "Compiled booking-loop engine (see module source).",
    .m_size = -1,
    .m_methods = cext_methods,
};

PyMODINIT_FUNC
PyInit__cext(void)
{
    if (PyType_Ready(&Statics_Type) < 0 || PyType_Ready(&Engine_Type) < 0)
        return NULL;
    PyObject *mod = PyModule_Create(&cext_module);
    if (mod == NULL)
        return NULL;
    Py_INCREF(&Statics_Type);
    if (PyModule_AddObject(mod, "Statics", (PyObject *)&Statics_Type) < 0) {
        Py_DECREF(&Statics_Type);
        Py_DECREF(mod);
        return NULL;
    }
    Py_INCREF(&Engine_Type);
    if (PyModule_AddObject(mod, "Engine", (PyObject *)&Engine_Type) < 0) {
        Py_DECREF(&Engine_Type);
        Py_DECREF(mod);
        return NULL;
    }
    if (PyModule_AddIntConstant(mod, "MODEL_MACRO", MODEL_MACRO) < 0 ||
        PyModule_AddIntConstant(mod, "MODEL_ONE_PORT", MODEL_ONE_PORT) < 0 ||
        PyModule_AddIntConstant(mod, "MODEL_UNI_PORT", MODEL_UNI_PORT) < 0 ||
        PyModule_AddIntConstant(mod, "MODEL_NO_OVERLAP",
                                MODEL_NO_OVERLAP) < 0 ||
        PyModule_AddIntConstant(mod, "MODEL_ROUTED", MODEL_ROUTED) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
