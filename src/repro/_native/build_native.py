"""cffi builder for :mod:`repro._native` — the compiled similarity kernels.

The C source below implements the simulator's hottest inner loops — pool
similarity scoring (Vicinity merges, BEEP's dislike orientation), the
fused merge score+trim selection, and the dislike-target argmax — over the
packed sorted ``uint64`` snapshot arrays that
:class:`repro.core.profiles.FrozenProfile` and
:class:`repro.core.profiles.PackedView` already maintain.

Marshaling strategy
-------------------
A naive native kernel loses its C win to per-call marshaling: rebuilding
concatenated pool arrays in numpy costs more than the scoring it replaces
at the protocols' pool sizes (30–70 candidates).  These kernels instead
walk the Python objects *inside C* — the extension is compiled against
the full CPython API (not the limited ABI), and because cffi releases
the GIL around API-mode calls, every object-walking kernel re-acquires
it with ``PyGILState_Ensure`` before touching any ``PyObject``:

* each packed profile caches a ``_nd`` descriptor tuple
  ``(is_binary, liked_ptr, n_liked, rated_ptr, n_rated, scores_ptr,
  norm)`` pointing straight into its (immutable, owner-kept-alive) numpy
  arrays;
* a kernel call receives the owner and the candidate *list/entries*
  object itself and extracts descriptors with ``PyList_GET_ITEM`` /
  ``PyObject_GetAttr`` — ~0.2 µs per candidate instead of several numpy
  array constructions per call (the caller holds references to every
  object involved for the whole call, so the borrowed ``id()`` pointers
  stay valid);
* anything unexpected (missing descriptor, non-binary profile where the
  metric's binary fast path is required, out-of-``int64`` ids) makes the
  kernel return ``-1`` with the Python error state cleared, and the
  caller falls back to the set-algebra / scalar tier.

Bitwise-equivalence discipline
------------------------------
Every kernel reproduces the scalar Python metrics *bit for bit*:

* set intersections are exact integer counts (merge walks over sorted
  arrays — the same sets Python's ``len(a & b)`` measures);
* weighted sums accumulate in ascending packed-id order, the canonical
  order of the scalar general path —
  identical addition order means identical IEEE-754 partial sums (a
  binary chooser's explicit dislikes contribute exactly-zero terms,
  which cannot change any partial sum);
* divisions, multiplications and ``sqrt`` are single correctly-rounded
  IEEE-754 operations in both languages, applied in the same expression
  shape, and the zero-score guards mirror the Python guards exactly;
* the fused merge selection orders by descending
  ``(score, timestamp, -node_id)`` — node ids are unique, so the total
  order is deterministic and ``qsort``'s instability is unobservable.

The build is optional everywhere: ``setup.py`` wires it up only when cffi
is importable, and :func:`build_inplace` compiles the extension next to the
package for ``PYTHONPATH=src`` trees.  Without a C toolchain the pure-Python
tier keeps working (see :mod:`repro._native`).  This module imports cffi
only to build, so the loader can read :func:`source_digest` without it.

Build stamp
-----------
Every build compiles in a stamp, ``STAMP_PREFIX`` followed by
:func:`source_digest` — a sha256 over ``CDEF``, ``C_SOURCE`` and the
compile/link flags.  :func:`repro._native.load` reads it from the shared
object's bytes *before* importing it (CPython cannot reload an imported
extension) and treats a missing or different stamp as a stale build.

Build it in place with::

    PYTHONPATH=src python -m repro._native.build_native
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.core.gates import env_flag

#: C declarations shared with the Python side.
CDEF = """
int64_t whatsup_score_profiles(uintptr_t owner_obj, uintptr_t profiles_list,
    int code, double *out);

int64_t whatsup_merge_rank(uintptr_t owner_obj, uintptr_t entries_list,
    int code, int64_t capacity, int64_t *keep_out);

int64_t whatsup_item_argmax(uintptr_t item_obj, uintptr_t profiles_list,
    int code, int64_t *tied_out);

int64_t whatsup_rank_topk(const double *scores, const int64_t *ts,
    const int64_t *nids, int64_t k, int64_t capacity, int64_t *out);


int64_t whatsup_state_oldest(uintptr_t cols_addr, int64_t stride, int64_t n);

int64_t whatsup_state_find(uintptr_t cols_addr, int64_t stride, int64_t n,
    int64_t nid);

int64_t whatsup_state_upsert(uintptr_t cols_addr, int64_t stride,
    uintptr_t pobj_addr, int64_t n, int64_t alloc, const int64_t *inc,
    int64_t inc_stride, int64_t inc_n, uintptr_t entries_obj, int64_t owner);

int64_t whatsup_state_select(uintptr_t cols_addr, int64_t stride,
    uintptr_t pobj_addr, int64_t n, const int64_t *sel, int64_t k);

int64_t whatsup_state_trim_drop(uintptr_t cols_addr, int64_t stride,
    uintptr_t pobj_addr, int64_t n, const int64_t *drop, int64_t k_drop);

int64_t whatsup_state_ship(uintptr_t cols_addr, int64_t stride,
    int64_t *sel, int64_t k, int64_t excl_slot, int64_t own_id,
    int64_t own_ts, int64_t own_wire, int64_t *out);
"""

# Metric/orientation codes for the object-walking kernels (mirrored by
# repro.core.similarity._native_pool_code — keep the two in sync):
#   0 = wup, owner is the chooser n          (binary owner + pool)
#   1 = wup, owner is the candidate side c   (binary owner + pool)
#   2 = cosine                               (binary owner + pool)
#   3 = jaccard    4 = overlap               (liked sets; any profiles)
#   5 = wup, real-valued owner as candidate side c vs binary chooser pool
#   6 = cosine, real-valued owner as candidate side c vs binary chooser pool

C_SOURCE = r"""
#include <stdint.h>
#include <math.h>
#include <stdlib.h>

/* Python.h is already included by the cffi-generated preamble. */

/* One packed profile, decoded from its cached `_nd` descriptor tuple:
 * (is_binary, liked_ptr, n_liked, rated_ptr, n_rated, scores_ptr, norm).
 * The pointers alias the profile's memoised numpy arrays, which stay
 * alive as long as the profile object does. */
typedef struct {
    int       is_binary;
    const uint64_t *liked;  int64_t n_liked;
    const uint64_t *rated;  int64_t n_rated;
    const double   *scores;             /* aligned with `rated` */
    double    norm;
} prof_desc;

static PyObject *s_nd = NULL;       /* interned "_nd" */
static PyObject *s_packed = NULL;   /* interned "packed" */
static PyObject *s_pack = NULL;     /* interned "_pack" */

static int intern_names(void)
{
    if (s_nd != NULL) return 0;
    s_nd = PyUnicode_InternFromString("_nd");
    s_packed = PyUnicode_InternFromString("packed");
    s_pack = PyUnicode_InternFromString("_pack");
    if (s_nd == NULL || s_packed == NULL || s_pack == NULL) {
        PyErr_Clear();
        return -1;
    }
    return 0;
}

/* Decode one `_nd` tuple into *out.  Returns 0, or -1 on shape mismatch. */
static int parse_nd(PyObject *nd, prof_desc *out)
{
    unsigned long long v;
    double norm;
    if (!PyTuple_Check(nd) || PyTuple_GET_SIZE(nd) != 7) return -1;
    out->is_binary = (int)PyLong_AsLong(PyTuple_GET_ITEM(nd, 0));
    v = PyLong_AsUnsignedLongLong(PyTuple_GET_ITEM(nd, 1));
    out->liked = (const uint64_t *)(uintptr_t)v;
    out->n_liked = (int64_t)PyLong_AsLongLong(PyTuple_GET_ITEM(nd, 2));
    v = PyLong_AsUnsignedLongLong(PyTuple_GET_ITEM(nd, 3));
    out->rated = (const uint64_t *)(uintptr_t)v;
    out->n_rated = (int64_t)PyLong_AsLongLong(PyTuple_GET_ITEM(nd, 4));
    v = PyLong_AsUnsignedLongLong(PyTuple_GET_ITEM(nd, 5));
    out->scores = (const double *)(uintptr_t)v;
    norm = PyFloat_AsDouble(PyTuple_GET_ITEM(nd, 6));
    out->norm = norm;
    if (PyErr_Occurred()) { PyErr_Clear(); return -1; }
    return 0;
}

/* Read `holder._nd` (filling it via `holder._pack()` when still None)
 * and decode it into *out.  Returns 0 on success, -2 when the holder has
 * no `_nd` attribute at all, -1 on any other failure. */
static int resolve_nd_from(PyObject *holder, prof_desc *out)
{
    PyObject *nd = PyObject_GetAttr(holder, s_nd);
    if (nd == NULL) { PyErr_Clear(); return -2; }
    if (nd == Py_None) {
        PyObject *r;
        Py_DECREF(nd);
        r = PyObject_CallMethodNoArgs(holder, s_pack);
        if (r == NULL) { PyErr_Clear(); return -1; }
        Py_DECREF(r);
        nd = PyObject_GetAttr(holder, s_nd);
        if (nd == NULL) { PyErr_Clear(); return -1; }
        if (nd == Py_None) { Py_DECREF(nd); return -1; }
    }
    if (parse_nd(nd, out) < 0) { Py_DECREF(nd); return -1; }
    Py_DECREF(nd);
    return 0;
}

/* Resolve a profile-like object to its packed descriptor.  Handles the
 * shapes the dispatch can see: FrozenProfile / PackedView (lazy `_nd`,
 * filled by their `_pack()`), and mutable Profile (no `_nd`; `packed()`
 * returns a memoised PackedView). */
static int resolve_profile(PyObject *obj, prof_desc *out)
{
    PyObject *packed;
    int rc = resolve_nd_from(obj, out);
    if (rc != -2) return rc;
    packed = PyObject_CallMethodNoArgs(obj, s_packed);
    if (packed == NULL) { PyErr_Clear(); return -1; }
    rc = resolve_nd_from(packed, out);
    /* the PackedView is memoised on the profile, which outlives the
     * call, so dropping our reference keeps the arrays alive */
    Py_DECREF(packed);
    return rc == 0 ? 0 : -1;
}

/* |a ∩ b| for ascending-sorted uint64 arrays (merge walk). */
static int64_t isect_count(const uint64_t *a, int64_t na,
                           const uint64_t *b, int64_t nb)
{
    int64_t i = 0, j = 0, c = 0;
    while (i < na && j < nb) {
        uint64_t x = a[i], y = b[j];
        if (x == y)      { c++; i++; j++; }
        else if (x < y)  { i++; }
        else             { j++; }
    }
    return c;
}

/* Does `code` require every pool candidate to be flagged binary?  The
 * liked-set metrics (jaccard/overlap) read liked ids only, which every
 * packed profile exposes; all other codes use binary fast-path algebra. */
static int needs_binary_pool(int code)
{
    return code != 3 && code != 4;
}

/* Score one candidate against the owner under `code` (see the code table
 * in build_native.py).  Mirrors the scalar metrics bit for bit. */
static double score_pair(int code, const prof_desc *o, const prof_desc *c)
{
    int64_t common, sub;
    switch (code) {
    case 0:                         /* wup, owner = chooser n */
        if (c->norm == 0.0 || o->n_liked == 0) return 0.0;
        common = isect_count(o->liked, o->n_liked, c->liked, c->n_liked);
        if (common == 0) return 0.0;
        sub = isect_count(o->liked, o->n_liked, c->rated, c->n_rated);
        return (double)common / (sqrt((double)sub) * c->norm);
    case 1:                         /* wup, owner = candidate side c */
        if (o->norm == 0.0 || c->n_liked == 0) return 0.0;
        common = isect_count(c->liked, c->n_liked, o->liked, o->n_liked);
        if (common == 0) return 0.0;
        sub = isect_count(c->liked, c->n_liked, o->rated, o->n_rated);
        return (double)common / (sqrt((double)sub) * o->norm);
    case 2:                         /* cosine, binary fast path */
        if (o->norm == 0.0 || c->norm == 0.0) return 0.0;
        common = isect_count(o->liked, o->n_liked, c->liked, c->n_liked);
        if (common == 0) return 0.0;
        return (double)common / (o->norm * c->norm);
    case 3: {                       /* jaccard over liked sets */
        if (o->n_liked == 0 || c->n_liked == 0) return 0.0;
        common = isect_count(o->liked, o->n_liked, c->liked, c->n_liked);
        if (common == 0) return 0.0;
        return (double)common / (double)(o->n_liked + c->n_liked - common);
    }
    case 4: {                       /* overlap over liked sets */
        int64_t m;
        if (o->n_liked == 0 || c->n_liked == 0) return 0.0;
        common = isect_count(o->liked, o->n_liked, c->liked, c->n_liked);
        if (common == 0) return 0.0;
        m = o->n_liked < c->n_liked ? o->n_liked : c->n_liked;
        return (double)common / (double)m;
    }
    case 5: case 6: {               /* real-valued owner as candidate side */
        /* chooser = binary candidate c, candidate side = the owner item
         * profile: accumulate the owner's scores over L_c ∩ R_owner in
         * ascending packed-id order (the canonical summation order). */
        int64_t a = 0, b = 0;
        double dot = 0.0;
        if (o->norm == 0.0 || o->n_rated == 0) return 0.0;
        common = 0;
        while (a < c->n_liked && b < o->n_rated) {
            uint64_t x = c->liked[a], y = o->rated[b];
            if (x == y)      { dot += o->scores[b]; common++; a++; b++; }
            else if (x < y)  { a++; }
            else             { b++; }
        }
        if (code == 5) {            /* wup: dot/(sqrt(|common|)*norm_owner) */
            if (common == 0 || dot == 0.0) return 0.0;
            return dot / (sqrt((double)common) * o->norm);
        }
        /* cosine: dot/(norm_chooser*norm_owner) */
        if (dot == 0.0 || c->norm == 0.0) return 0.0;
        return dot / (c->norm * o->norm);
    }
    default:
        return 0.0;
    }
}

/* Validate owner/code compatibility (binary fast paths need a binary
 * owner except the item-side codes 5/6 and the liked-set metrics). */
static int owner_ok(int code, const prof_desc *o)
{
    if (code == 0 || code == 1 || code == 2) return o->is_binary;
    return 1;
}

/* Score a whole candidate pool (a Python list of profile-likes) against
 * one owner.  Fills out[] aligned with the list; returns k, or -1 when
 * any object cannot take the native path (caller falls back). */
int64_t whatsup_score_profiles(uintptr_t owner_obj, uintptr_t profiles_list,
    int code, double *out)
{
    /* cffi calls C with the GIL released; the object walk needs it back */
    PyGILState_STATE gil = PyGILState_Ensure();
    PyObject *owner = (PyObject *)owner_obj;
    PyObject *list = (PyObject *)profiles_list;
    prof_desc o, c;
    Py_ssize_t k, i;
    int binary_pool;
    int64_t rc = -1;
    if (intern_names() < 0) goto done;
    if (!PyList_Check(list)) goto done;
    if (resolve_profile(owner, &o) < 0) goto done;
    if (!owner_ok(code, &o)) goto done;
    binary_pool = needs_binary_pool(code);
    k = PyList_GET_SIZE(list);
    for (i = 0; i < k; i++) {
        if (resolve_profile(PyList_GET_ITEM(list, i), &c) < 0) goto done;
        if (binary_pool && !c.is_binary) goto done;
        out[i] = score_pair(code, &o, &c);
    }
    rc = (int64_t)k;
done:
    PyGILState_Release(gil);
    return rc;
}

/* ---- fused merge scoring + ranked trim ------------------------------- */

typedef struct {
    double  s;
    int64_t ts;
    int64_t nid;
    int64_t idx;
} whatsup_row;

/* Descending (score, timestamp, -node_id): the exact total order of
 * View.trim_ranked_aligned's tuple sort. */
static int row_cmp(const void *pa, const void *pb)
{
    const whatsup_row *a = (const whatsup_row *)pa;
    const whatsup_row *b = (const whatsup_row *)pb;
    if (a->s != b->s)     return a->s < b->s ? 1 : -1;
    if (a->ts != b->ts)   return a->ts < b->ts ? 1 : -1;
    if (a->nid != b->nid) return a->nid < b->nid ? -1 : 1;
    return 0;
}

/* The Vicinity merge inner loop in one call: score every view entry
 * (a list of ViewEntry namedtuples: [0]=node_id, [2]=profile,
 * [3]=timestamp) against the owner profile, then select the top
 * `capacity` in descending (score, timestamp, -node_id) order.  Writes
 * the kept entry indices, best first, to keep_out and returns how many —
 * or -1 when any entry cannot take the native path. */
int64_t whatsup_merge_rank(uintptr_t owner_obj, uintptr_t entries_list,
    int code, int64_t capacity, int64_t *keep_out)
{
    PyGILState_STATE gil = PyGILState_Ensure();
    PyObject *owner = (PyObject *)owner_obj;
    PyObject *list = (PyObject *)entries_list;
    prof_desc o, c;
    whatsup_row *rows = NULL;
    Py_ssize_t k, i;
    int64_t kept, rc = -1;
    int binary_pool;
    if (intern_names() < 0) goto done;
    if (!PyList_Check(list) || capacity <= 0) goto done;
    if (resolve_profile(owner, &o) < 0) goto done;
    if (!owner_ok(code, &o)) goto done;
    binary_pool = needs_binary_pool(code);
    k = PyList_GET_SIZE(list);
    if (k == 0) { rc = 0; goto done; }
    rows = (whatsup_row *)malloc((size_t)k * sizeof(whatsup_row));
    if (rows == NULL) goto done;
    for (i = 0; i < k; i++) {
        PyObject *entry = PyList_GET_ITEM(list, i);
        if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) < 4)
            goto done;
        if (resolve_profile(PyTuple_GET_ITEM(entry, 2), &c) < 0)
            goto done;
        if (binary_pool && !c.is_binary) goto done;
        rows[i].s = score_pair(code, &o, &c);
        rows[i].nid = (int64_t)PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 0));
        rows[i].ts = (int64_t)PyLong_AsLongLong(PyTuple_GET_ITEM(entry, 3));
        if (PyErr_Occurred()) { PyErr_Clear(); goto done; }
        rows[i].idx = (int64_t)i;
    }
    qsort(rows, (size_t)k, sizeof(whatsup_row), row_cmp);
    kept = capacity < (int64_t)k ? capacity : (int64_t)k;
    for (i = 0; i < kept; i++) keep_out[i] = rows[i].idx;
    rc = kept;
done:
    free(rows);
    PyGILState_Release(gil);
    return rc;
}

/* ---- fused dislike orientation + argmax ------------------------------ */

/* BEEP's dislike-target selection for the paper's fanout of 1: score one
 * item profile against the chooser pool (codes 5/6) and collect the
 * indices tied for the maximum, ascending — the same tie set
 * `flatnonzero(scores == scores.max())` yields, so the caller's uniform
 * tie-break consumes identical RNG draws.  Returns the tie count, or -1
 * when the pool cannot take the native path. */
int64_t whatsup_item_argmax(uintptr_t item_obj, uintptr_t profiles_list,
    int code, int64_t *tied_out)
{
    PyGILState_STATE gil = PyGILState_Ensure();
    PyObject *item = (PyObject *)item_obj;
    PyObject *list = (PyObject *)profiles_list;
    prof_desc o, c;
    double *scores = NULL;
    double best;
    Py_ssize_t k, i;
    int64_t n = 0, rc = -1;
    if (intern_names() < 0) goto done;
    if (!PyList_Check(list)) goto done;
    k = PyList_GET_SIZE(list);
    if (k == 0) { rc = 0; goto done; }
    if (resolve_profile(item, &o) < 0) goto done;
    scores = (double *)malloc((size_t)k * sizeof(double));
    if (scores == NULL) goto done;
    for (i = 0; i < k; i++) {
        if (resolve_profile(PyList_GET_ITEM(list, i), &c) < 0 ||
            !c.is_binary)
            goto done;
        scores[i] = score_pair(code, &o, &c);
    }
    best = scores[0];
    for (i = 1; i < k; i++)
        if (scores[i] > best) best = scores[i];
    for (i = 0; i < k; i++)
        if (scores[i] == best) tied_out[n++] = (int64_t)i;
    rc = n;
done:
    free(scores);
    PyGILState_Release(gil);
    return rc;
}

/* ---- array-based selection kernel ------------------------------------ */

/* Ranked-trim selection from precomputed aligned arrays (the scores=
 * form of View.trim_ranked): top-`capacity` indices in descending
 * (score, timestamp, -node_id) order. */
int64_t whatsup_rank_topk(const double *scores, const int64_t *ts,
    const int64_t *nids, int64_t k, int64_t capacity, int64_t *out)
{
    whatsup_row *rows;
    int64_t i, kept;
    if (k <= 0 || capacity <= 0) return 0;
    rows = (whatsup_row *)malloc((size_t)k * sizeof(whatsup_row));
    if (rows == NULL) return -1;
    for (i = 0; i < k; i++) {
        rows[i].s = scores[i];
        rows[i].ts = ts[i];
        rows[i].nid = nids[i];
        rows[i].idx = i;
    }
    qsort(rows, (size_t)k, sizeof(whatsup_row), row_cmp);
    kept = capacity < k ? capacity : k;
    for (i = 0; i < kept; i++) out[i] = rows[i].idx;
    free(rows);
    return kept;
}

/* ---- array-state plane kernels (ArrayView bookkeeping) --------------- */

/* These kernels operate on the ArrayView state plane: a (3, alloc) int64
 * column block laid out [ids | ts | wire] (row pointers derived from the
 * base address and the allocation stride) plus an aligned numpy *object*
 * array holding the ViewEntry payload references.  Addresses are cached
 * on the view and passed as plain integers — no per-call buffer
 * marshaling, no per-entry field walks.  Kernels that move payload
 * references hold the GIL (cffi releases it around calls) and keep the
 * object column's every-slot-owns-a-reference invariant intact. */

typedef struct { int64_t *ids; int64_t *ts; int64_t *wire; } state_cols;

static state_cols cols_at(uintptr_t addr, int64_t stride)
{
    state_cols c;
    c.ids = (int64_t *)addr;
    c.ts = c.ids + stride;
    c.wire = c.ids + 2 * stride;
    return c;
}

/* Slot of the entry with the smallest (timestamp, node_id) key — the
 * gossip tail peer selection.  Returns -1 when the view is empty. */
int64_t whatsup_state_oldest(uintptr_t cols_addr, int64_t stride, int64_t n)
{
    state_cols c = cols_at(cols_addr, stride);
    int64_t i, best = 0;
    if (n <= 0) return -1;
    for (i = 1; i < n; i++) {
        if (c.ts[i] < c.ts[best] ||
            (c.ts[i] == c.ts[best] && c.ids[i] < c.ids[best]))
            best = i;
    }
    return best;
}

/* Slot holding node id `nid`, or -1 — the columnar sibling of a dict
 * lookup, used by shipment exclusion. */
int64_t whatsup_state_find(uintptr_t cols_addr, int64_t stride, int64_t n,
    int64_t nid)
{
    const int64_t *ids = (const int64_t *)cols_addr;
    int64_t i;
    (void)stride;
    for (i = 0; i < n; i++)
        if (ids[i] == nid) return i;
    return -1;
}

/* Sequential freshest-wins merge of a columnar shipment — the gossip
 * upsert_all inner loop.  Incoming rows (columns at inc_addr with their
 * own stride, payload references in the aligned entries tuple/list) are
 * processed in order, so in-batch duplicates resolve exactly as the
 * sequential Python loop does: rows for `owner` are skipped, a row
 * matching a stored id replaces it in place when its timestamp is >=,
 * and new ids append.  Payload references move with proper refcounting.
 * Returns (new_n << 32) | applied_count, or -1 when the entries object
 * has an unexpected shape or an append would overrun `alloc` (callers
 * reserve first, so the overrun is a programming error; the caller
 * raises rather than falling back on a half-applied merge). */
int64_t whatsup_state_upsert(uintptr_t cols_addr, int64_t stride,
    uintptr_t pobj_addr, int64_t n, int64_t alloc, const int64_t *inc_base,
    int64_t inc_stride, int64_t inc_n, uintptr_t entries_obj, int64_t owner)
{
    PyGILState_STATE gil = PyGILState_Ensure();
    state_cols own = cols_at(cols_addr, stride);
    state_cols inc = cols_at((uintptr_t)inc_base, inc_stride);
    PyObject **pobj = (PyObject **)pobj_addr;
    PyObject *seq = (PyObject *)entries_obj;
    int64_t i, j, applied = 0, rc = -1;
    int is_tuple;
    if (PyTuple_Check(seq)) is_tuple = 1;
    else if (PyList_Check(seq)) is_tuple = 0;
    else goto done;
    /* a mispaired entries/cols argument must fail as a Python-level
     * error, not an out-of-bounds read */
    if ((is_tuple ? PyTuple_GET_SIZE(seq) : PyList_GET_SIZE(seq)) < inc_n)
        goto done;
    for (i = 0; i < inc_n; i++) {
        int64_t nid = inc.ids[i];
        PyObject *e, *old;
        if (nid == owner) continue;
        for (j = 0; j < n; j++)
            if (own.ids[j] == nid) break;
        if (j < n) {
            if (inc.ts[i] < own.ts[j]) continue;  /* stale: keep ours */
        } else {
            if (n >= alloc) goto done;
            own.ids[n] = nid;
            j = n;
            n++;
        }
        own.ts[j] = inc.ts[i];
        own.wire[j] = inc.wire[i];
        e = is_tuple ? PyTuple_GET_ITEM(seq, i) : PyList_GET_ITEM(seq, i);
        old = pobj[j];
        Py_INCREF(e);
        pobj[j] = e;
        Py_XDECREF(old);
        applied++;
    }
    rc = (n << 32) | applied;
done:
    PyGILState_Release(gil);
    return rc;
}

/* Keep exactly the slots listed in sel (k int64 indices, any order) —
 * the shared backend of compaction (ascending sel: evictions, random
 * trims) and ranked reordering (rank-order sel: merge trims).  Gathers
 * through scratch buffers so overlapping moves are safe, releases the
 * dropped payload references and None-fills the vacated tail slots.
 * Returns k, or -1 on allocation failure (caller falls back to numpy). */
int64_t whatsup_state_select(uintptr_t cols_addr, int64_t stride,
    uintptr_t pobj_addr, int64_t n, const int64_t *sel, int64_t k)
{
    PyGILState_STATE gil = PyGILState_Ensure();
    state_cols c = cols_at(cols_addr, stride);
    PyObject **pobj = (PyObject **)pobj_addr;
    int64_t *itmp = NULL;
    PyObject **otmp = NULL;
    int64_t i, rc = -1;
    if (k > 0) {
        itmp = (int64_t *)malloc((size_t)k * 3 * sizeof(int64_t));
        otmp = (PyObject **)malloc((size_t)k * sizeof(PyObject *));
        if (itmp == NULL || otmp == NULL) goto done;
    }
    for (i = 0; i < k; i++) {
        int64_t s = sel[i];
        itmp[i] = c.ids[s];
        itmp[k + i] = c.ts[s];
        itmp[2 * k + i] = c.wire[s];
        otmp[i] = pobj[s];
        Py_INCREF(otmp[i]);
    }
    for (i = 0; i < n; i++) {
        PyObject *old = pobj[i];
        pobj[i] = NULL;
        Py_XDECREF(old);
    }
    for (i = 0; i < k; i++) {
        c.ids[i] = itmp[i];
        c.ts[i] = itmp[k + i];
        c.wire[i] = itmp[2 * k + i];
        pobj[i] = otmp[i];          /* scratch reference transferred */
    }
    for (i = k; i < n; i++) {
        Py_INCREF(Py_None);
        pobj[i] = Py_None;
    }
    rc = k;
done:
    free(itmp);
    free(otmp);
    PyGILState_Release(gil);
    return rc;
}

/* Random-trim compaction: drop the k_drop slots listed in `drop`, keep
 * everything else in order.  One forward in-place pass — dropped payload
 * references are released, kept ones move with their columns, vacated
 * tail slots are None-filled.  Returns the new row count, or -1 on
 * allocation failure (caller falls back to the numpy gather). */
int64_t whatsup_state_trim_drop(uintptr_t cols_addr, int64_t stride,
    uintptr_t pobj_addr, int64_t n, const int64_t *drop, int64_t k_drop)
{
    PyGILState_STATE gil = PyGILState_Ensure();
    state_cols c = cols_at(cols_addr, stride);
    PyObject **pobj = (PyObject **)pobj_addr;
    char *mark;
    int64_t i, w = 0, rc = -1;
    mark = (char *)calloc((size_t)(n > 0 ? n : 1), 1);
    if (mark == NULL) goto done;
    for (i = 0; i < k_drop; i++) mark[drop[i]] = 1;
    for (i = 0; i < n; i++) {
        if (mark[i]) {
            PyObject *old = pobj[i];
            pobj[i] = NULL;
            Py_XDECREF(old);
        } else {
            c.ids[w] = c.ids[i];
            c.ts[w] = c.ts[i];
            c.wire[w] = c.wire[i];
            pobj[w] = pobj[i];     /* reference moves forward */
            w++;
        }
    }
    for (i = w; i < n; i++) {
        /* these slots' references moved forward or were dropped */
        Py_INCREF(Py_None);
        pobj[i] = Py_None;
    }
    rc = w;
done:
    free(mark);
    PyGILState_Release(gil);
    return rc;
}

/* Assemble a shipment column block: the own-descriptor row followed by k
 * gathered rows, written to `out` (a (3, k+1) block, stride k+1).  With
 * sel != NULL the gathered slots are sel[j] (candidate indices, bumped
 * past excl_slot in place so the caller can reuse them for the payload
 * gather); with sel == NULL every slot except excl_slot ships, in order.
 * Returns the summed wire size of the block, or -1 when any descriptor
 * is unmemoised (the caller prices the message by walking instead). */
int64_t whatsup_state_ship(uintptr_t cols_addr, int64_t stride,
    int64_t *sel, int64_t k, int64_t excl_slot, int64_t own_id,
    int64_t own_ts, int64_t own_wire, int64_t *out)
{
    state_cols c = cols_at(cols_addr, stride);
    int64_t *out_ids = out, *out_ts = out + (k + 1),
            *out_wire = out + 2 * (k + 1);
    int64_t j, total = own_wire, s;
    int bad = own_wire < 0;
    out_ids[0] = own_id;
    out_ts[0] = own_ts;
    out_wire[0] = own_wire;
    if (sel != NULL) {
        for (j = 0; j < k; j++) {
            s = sel[j];
            if (excl_slot >= 0 && s >= excl_slot) s++;
            sel[j] = s;            /* caller reuses for the payload gather */
            out_ids[j + 1] = c.ids[s];
            out_ts[j + 1] = c.ts[s];
            out_wire[j + 1] = c.wire[s];
            if (c.wire[s] < 0) bad = 1; else total += c.wire[s];
        }
    } else {
        int64_t w = 1;
        int64_t n = k + (excl_slot >= 0 ? 1 : 0);
        for (s = 0; s < n; s++) {
            if (s == excl_slot) continue;
            out_ids[w] = c.ids[s];
            out_ts[w] = c.ts[s];
            out_wire[w] = c.wire[s];
            if (c.wire[s] < 0) bad = 1; else total += c.wire[s];
            w++;
        }
    }
    return bad ? -1 : total;
}
"""

# REPRO_NATIVE_SANITIZE=1 rebuilds the extension under ASan/UBSan for the
# CI sanitizer leg (and local triage): -fno-sanitize-recover turns every
# report into a hard abort, -O1/-g keep the stack traces honest.  The
# sanitized object is a debugging artifact — the perf flags stay -O2 on
# the normal path.
_sanitize_enabled = env_flag("REPRO_NATIVE_SANITIZE", default=False)
if _sanitize_enabled:
    _compile_args = [
        "-O1",
        "-g",
        "-fno-omit-frame-pointer",
        "-fsanitize=address,undefined",
        "-fno-sanitize-recover=all",
    ]
    _link_args = ["-fsanitize=address,undefined"]
else:
    _compile_args = ["-O2"]
    _link_args = []

#: the compiled-in stamp is this prefix followed by :func:`source_digest`
STAMP_PREFIX = "repro-native-stamp:"


def source_digest() -> str:
    """sha256 (hex) of everything a build compiles: sources and flags."""
    h = hashlib.sha256()
    for part in (CDEF, C_SOURCE, *_compile_args, "--link", *_link_args):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def ffibuilder():
    """The configured cffi builder (``setup.py``'s ``cffi_modules`` hook
    accepts a callable)."""
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    ffi.set_source(
        "repro._native._kernels",
        # "used": only the loader reads the stamp, from the file
        C_SOURCE
        + "\n__attribute__((used)) const char whatsup_build_stamp[] = "
        + f'"{STAMP_PREFIX}{source_digest()}";\n',
        extra_compile_args=_compile_args,
        extra_link_args=_link_args,
        # the kernels use fast CPython internals (PyList_GET_ITEM & co.), so
        # the stable-ABI subset is off the table; the extension is rebuilt
        # per interpreter anyway.  _CFFI_NO_LIMITED_API stops the generated
        # preamble from defining Py_LIMITED_API, py_limited_api=False keeps
        # setuptools from tagging the wheel abi3.
        define_macros=[("_CFFI_NO_LIMITED_API", None)],
        py_limited_api=False,
    )
    return ffi


def build_inplace(verbose: bool = False) -> str | None:
    """Compile the extension next to the installed/checked-out package.

    Returns the path to the built shared object, or ``None`` when the build
    fails (no cffi, no C toolchain, read-only tree, ...) — callers treat
    that as "native kernels unavailable" and stay on the Python tiers.
    """
    target_dir = Path(__file__).resolve().parent.parent.parent
    try:
        return ffibuilder().compile(tmpdir=str(target_dir), verbose=verbose)
    except Exception:  # pragma: no cover - toolchain-dependent
        return None


if __name__ == "__main__":
    so = build_inplace(verbose=True)
    if so is None:
        raise SystemExit("native kernel build failed (missing C toolchain?)")
    print(f"built {so}")
