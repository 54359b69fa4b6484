/* Compiled GF(2) kernel: the per-candidate half of matroidsplit._kernel.pure.
 *
 * The functions compiled here are listed in matroidsplit._kernel's
 * docstring; each returns exactly what its namesake in pure.py returns, and
 * pure.py documents them and stays the reference.  Rows, masks and vectors
 * are ints in [0, 2^64): others raise OverflowError or TypeError, never
 * wrap, except canonical-form columns, which raise ValueError as pure does,
 * and the ranks, loop counts and class sizes of wants: a want with a size
 * outside [0, 2^64) or a loop count of any size that fits no minor reads as
 * absent, as in pure, and a rank of any size outside 0..2 raises ValueError
 * in the profile decisions, as in pure.  Where pure would go past a word
 * (n_cols > 64 in nullspace_basis, profile_present and find_minors) or take
 * canonical forms for r > 6, ValueError is raised.  Distinct low bits bound
 * a reduced basis by 64 rows, so only bases and column lists use 64-entry
 * arrays; buffers that a caller's row count indexes are allocated to size.
 *
 * Build: python setup.py build_ext --inplace
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;

#define LOW(v) ((v) & (~(v) + 1))
#define BIT(j) ((u64)1 << (j))
/* A span bitmap over GF(2)^r has 2^r bits and must fit in one word. */
#define GL_MAX_RANK 6
#define SPAN_LIMIT 20 /* space_min_supports spans at most 2^SPAN_LIMIT vectors */

enum { KIND_SIMPLE_RANK3 = 1, KIND_PROFILE = 2, KIND_CANONICAL = 3 };

/* -- conversions ----------------------------------------------------------- */

static int to_u64(PyObject *obj, u64 *out)
{
    *out = PyLong_AsUnsignedLongLong(obj);
    return (*out == (u64)-1 && PyErr_Occurred()) ? -1 : 0;
}

/* A class size of a profile want.  want_fits reads a size outside 1..64
 * as fitting no minor, so a size that no u64 holds, negative or past 2^64,
 * is stored as 0 and its want reads as absent, as pure reads it. */
static int to_size(PyObject *obj, u64 *out)
{
    int over;
    long long v = PyLong_AsLongLongAndOverflow(obj, &over);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = over || v < 0 ? 0 : (u64)v;
    return 0;
}

/* A rank or loop count of a want, or a contract or delete size, an int of
 * any size, clamped to [-2^62, 2^62] so that adding 64 class sizes to it
 * cannot overflow.  Every caller accepts far smaller values only, so a
 * clamped count is refused or read as absent just as its own value would be. */
static int to_count(PyObject *obj, long long *out)
{
    const long long cap = (long long)1 << 62;
    int over;
    long long v = PyLong_AsLongLongAndOverflow(obj, &over);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = over > 0 || v > cap ? cap : over < 0 || v < -cap ? -cap : v;
    return 0;
}

/* Copy a sequence of ints, each through conv, into a new PyMem buffer;
 * *len gets its length. */
static u64 *load_as(PyObject *seq, Py_ssize_t *len, int (*conv)(PyObject *, u64 *))
{
    PyObject *fast = PySequence_Fast(seq, "expected a sequence of ints");
    if (fast == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    u64 *buf = PyMem_Malloc((n ? n : 1) * sizeof(u64));
    if (buf == NULL)
        PyErr_NoMemory();
    for (Py_ssize_t i = 0; buf != NULL && i < n; i++)
        if (conv(PySequence_Fast_GET_ITEM(fast, i), &buf[i]) < 0) {
            PyMem_Free(buf);
            buf = NULL;
        }
    Py_DECREF(fast);
    *len = n;
    return buf;
}

static u64 *load(PyObject *seq, Py_ssize_t *len)
{
    return load_as(seq, len, to_u64);
}

static PyObject *tuple_u64(const u64 *v, Py_ssize_t n)
{
    PyObject *t = PyTuple_New(n);
    for (Py_ssize_t i = 0; t != NULL && i < n; i++) {
        PyObject *x = PyLong_FromUnsignedLongLong(v[i]);
        if (x == NULL)
            Py_CLEAR(t);
        else
            PyTuple_SET_ITEM(t, i, x);
    }
    return t;
}

static int check_nargs(Py_ssize_t nargs, Py_ssize_t want, const char *name)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                 name, want, nargs);
    return -1;
}

/* A column count; counts past 64 address only zero bits, so they clamp. */
static int n_cols_arg(PyObject *obj, int *out)
{
    long v = PyLong_AsLong(obj);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v < 0 ? 0 : v > 64 ? 64 : (int)v;
    return 0;
}

/* -- elimination ------------------------------------------------------------- */

static int rank_c(const u64 *rows, Py_ssize_t n, u64 mask)
{
    u64 basis[64];
    int nb = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        u64 row = rows[i] & mask;
        for (int b = 0; b < nb; b++)
            if (row & LOW(basis[b]))
                row ^= basis[b];
        if (row)
            basis[nb++] = row;
    }
    return nb;
}

/* Reduced echelon rows of rows[0..n) into out, ordered by pivot (low bit). */
static int rref_c(const u64 *rows, Py_ssize_t n, u64 *out)
{
    int nb = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        u64 row = rows[i];
        for (int b = 0; b < nb; b++)
            if (row & LOW(out[b]))
                row ^= out[b];
        if (!row)
            continue;
        for (int b = 0; b < nb; b++)
            if (out[b] & LOW(row))
                out[b] ^= row;
        out[nb++] = row;
    }
    for (int i = 1; i < nb; i++) {
        u64 key = out[i];
        int j = i;
        for (; j > 0 && LOW(out[j - 1]) > LOW(key); j--)
            out[j] = out[j - 1];
        out[j] = key;
    }
    return nb;
}

/* Keep the columns below n_cols that are not in dmask, compacted in order. */
static void delete_c(u64 *rows, Py_ssize_t n, int n_cols, u64 dmask)
{
    int keep[64], nk = 0;
    for (int j = 0; j < n_cols; j++)
        if (!(dmask >> j & 1))
            keep[nk++] = j;
    for (Py_ssize_t i = 0; i < n; i++) {
        u64 packed = 0;
        for (int j = 0; j < nk; j++)
            packed |= (rows[i] >> keep[j] & 1) << j;
        rows[i] = packed;
    }
}

/* pure._pivot_out in place; returns the number of rows left. */
static Py_ssize_t pivot_out_c(u64 *rows, Py_ssize_t n, int n_cols, u64 cmask)
{
    for (int c = 0; c < n_cols; c++) {
        if (!(cmask >> c & 1))
            continue;
        Py_ssize_t p = 0;
        while (p < n && !(rows[p] >> c & 1))
            p++;
        if (p == n)
            continue;
        u64 pv = rows[p];
        for (Py_ssize_t i = 0; i < n; i++)
            if (rows[i] >> c & 1)
                rows[i] ^= pv;
        memmove(rows + p, rows + p + 1, (n - p - 1) * sizeof(u64));
        n--;
    }
    return n;
}

/* -- canonical forms ---------------------------------------------------------
 * The least sorted image of a column multiset under GL(r, 2) is the least
 * image under the maps that send an ordered basis of the columns' span,
 * chosen among the columns, to 1, 2, 4, ...; the docstring of pure._gl_walk
 * proves it.
 * gl_dfs picks basis vector i among the distinct columns outside the span
 * so far (span is a bitmap), and tab[v] is the image of every v in that
 * span.  img[0..h) holds the sorted images of the columns in the span, all
 * below 2^i; those of the columns the next vector brings in lie in
 * [2^i, 2^(i+1)), so they are sorted onto the end of img.  Every image
 * below a node starts with img[0..h) followed by an entry of at least 2^i,
 * so the node is cut when those sort strictly above the bound (ref, or
 * best once it is kept); equal prefixes go on.  At a full leaf, h = k, a
 * walk either keeps the image in best when it sorts lower, or stops at the
 * first image sorting below ref and notes whether some image equals ref;
 * equal is set only there.  Columns must lie below 2^r, r <= GL_MAX_RANK.
 */

typedef struct {
    int equal;
    Py_ssize_t k;
    const u64 *cols, *ref;
    u64 *img, *best;
    unsigned char tab[BIT(GL_MAX_RANK)];
} glwalk;

static int cmp_u64s(const u64 *a, const u64 *b, Py_ssize_t k)
{
    for (Py_ssize_t i = 0; i < k; i++)
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    return 0;
}

static void sort_small(u64 *v, Py_ssize_t k)
{
    for (Py_ssize_t i = 1; i < k; i++) {
        u64 key = v[i];
        Py_ssize_t j = i;
        for (; j > 0 && v[j - 1] > key; j--)
            v[j] = v[j - 1];
        v[j] = key;
    }
}

static int gl_dfs(glwalk *w, int i, u64 span, Py_ssize_t h)
{
    u64 *img = w->img;
    const u64 *bound = w->best != NULL ? w->best : w->ref;
    int c = cmp_u64s(img, bound, h);
    if (h == w->k) {
        if (w->best != NULL) {
            if (c < 0)
                memcpy(w->best, img, h * sizeof(u64));
            return 0;
        }
        w->equal |= c == 0;
        return c < 0;
    }
    if (c > 0 || (c == 0 && bound[h] < BIT(i)))
        return 0;
    u64 tried = span;
    for (Py_ssize_t j = 0; j < w->k; j++) {
        int cand = (int)w->cols[j];
        if (tried >> cand & 1)
            continue;
        tried |= BIT(cand);
        u64 grown = span;
        for (u64 s = span; s; s &= s - 1) {
            int v = __builtin_ctzll(s);
            w->tab[v ^ cand] = w->tab[v] | 1 << i;
            grown |= BIT(v ^ cand);
        }
        Py_ssize_t m = h;
        for (Py_ssize_t q = 0; q < w->k; q++)
            if ((grown & ~span) >> w->cols[q] & 1)
                img[m++] = w->tab[w->cols[q]];
        sort_small(img + h, m - h);
        if (gl_dfs(w, i + 1, grown, m))
            return 1;
    }
    return 0;
}

/* gl_dfs from the empty basis: the span is {0}, the zero columns' image. */
static int gl_walk(glwalk *w)
{
    Py_ssize_t h = 0;
    for (Py_ssize_t j = 0; j < w->k; j++)
        if (w->cols[j] == 0)
            w->img[h++] = 0;
    return gl_dfs(w, 0, 1, h);
}

static int gl_rank_ok(long long r)
{
    if (0 <= r && r <= GL_MAX_RANK)
        return 1;
    PyErr_Format(PyExc_ValueError, "canonical forms need 0 <= r <= %d", GL_MAX_RANK);
    return 0;
}

/* -- minor matchers -----------------------------------------------------------
 * want holds the profile's sorted class sizes or the canonical key.
 */

typedef struct {
    int kind;
    long long rank, loops;
    Py_ssize_t len;
    u64 *want;
} matcher;

/* Contract cmask, delete dmask and test the minor. */
static int match(const matcher *m, const u64 *basis, int nb, int n_cols,
                 u64 cmask, u64 dmask)
{
    u64 rows[64], cols[64], sizes[64], seen[64];
    memcpy(rows, basis, nb * sizeof(u64));
    int mn = (int)pivot_out_c(rows, nb, n_cols, cmask);
    delete_c(rows, mn, n_cols, cmask | dmask);
    int mc = n_cols - __builtin_popcountll(cmask | dmask);
    if (m->kind == KIND_CANONICAL) {
        u64 red[64];
        mn = rref_c(rows, mn, red);
        memcpy(rows, red, mn * sizeof(u64));
    }
    for (int j = 0; j < mc; j++) {
        cols[j] = 0;
        for (int i = 0; i < mn; i++)
            cols[j] |= (rows[i] >> j & 1) << i;
    }
    if (m->kind == KIND_SIMPLE_RANK3) {
        for (int j = 0; j < mc; j++) {
            if (cols[j] == 0)
                return 0;
            for (int i = 0; i < j; i++)
                if (cols[i] == cols[j])
                    return 0;
        }
        return rank_c(rows, mn, ~(u64)0) == 3;
    }
    if (m->kind == KIND_CANONICAL) {
        u64 img[64];
        glwalk w = {.k = mc, .cols = cols, .ref = m->want, .img = img};
        return mn == m->rank && mc == m->len && !gl_walk(&w) && w.equal;
    }
    int loops = 0, ns = 0;
    for (int j = 0; j < mc; j++) {
        int s = 0;
        if (cols[j] == 0) {
            loops++;
            continue;
        }
        while (s < ns && seen[s] != cols[j])
            s++;
        if (s == ns) {
            seen[ns] = cols[j];
            sizes[ns++] = 0;
        }
        sizes[s]++;
    }
    sort_small(sizes, ns);
    return loops == m->loops && ns == m->len &&
           cmp_u64s(sizes, m->want, ns) == 0 && rank_c(rows, mn, ~(u64)0) == m->rank;
}

static int parse_want(matcher *m, PyObject *want)
{
    PyObject *rank, *loops = NULL, *seq;
    if (m->kind == KIND_SIMPLE_RANK3)
        return 0;
    if (m->kind == KIND_PROFILE) {
        if (!PyArg_ParseTuple(want, "OOO;profile want is (rank, loops, sizes)",
                              &rank, &loops, &seq))
            return -1;
    } else if (m->kind == KIND_CANONICAL) {
        if (!PyArg_ParseTuple(want, "OO;canonical want is (rank, key)",
                              &rank, &seq))
            return -1;
    } else {
        PyErr_Format(PyExc_ValueError, "unknown minor matcher kind %d", m->kind);
        return -1;
    }
    if (to_count(rank, &m->rank) < 0 || (loops != NULL && to_count(loops, &m->loops) < 0))
        return -1;
    if (m->kind == KIND_CANONICAL && !gl_rank_ok(m->rank))
        return -1;
    m->want = load_as(seq, &m->len, m->kind == KIND_PROFILE ? to_size : to_u64);
    return m->want == NULL ? -1 : 0;
}

/* Advance pos[0..k) to the next k-subset of 0..n-1; 0 when exhausted. */
static int next_comb(int *pos, int k, int n)
{
    int i = k - 1;
    while (i >= 0 && pos[i] == n - k + i)
        i--;
    if (i < 0)
        return 0;
    pos[i]++;
    for (int j = i + 1; j < k; j++)
        pos[j] = pos[j - 1] + 1;
    return 1;
}

/* pure._profile_need: 1 when some minor of an nc-column matroid of rank
 * full can have the profile of m, going by its shape alone. */
static int want_fits(const matcher *m, int full, int nc)
{
    long long total = m->loops;
    if (m->rank > full || m->loops < 0 || (m->rank < 2 ? m->len != m->rank : m->len < 2))
        return 0;
    for (Py_ssize_t i = 0; i < m->len; i++) {
        if (m->want[i] < 1 || m->want[i] > 64 || (i && m->want[i] < m->want[i - 1]))
            return 0;
        total += (long long)m->want[i];
    }
    return total <= nc - full + m->rank;
}

/* The class sizes have[0..ns), sorted here, dominate the ascending
 * want[0..len) from the largest down. */
static int sizes_dominate(u64 *have, int ns, const u64 *want, Py_ssize_t len)
{
    if (ns < len)
        return 0;
    sort_small(have, ns);
    for (Py_ssize_t i = 0; i < len; i++)
        if (have[ns - 1 - i] < want[len - 1 - i])
            return 0;
    return 1;
}

/* pure.profile_present for one profile want m over all nc columns of the
 * rref basis[0..nb), where 0 <= m->rank <= 2 and cs = rank - m->rank >= 0:
 * 1 when no minor has the profile, 0 when one does.  pure.profile_present
 * documents the test; this one reads M/C for every independent cs-set C of
 * distinct nonzero columns. */
static int profile_absent(const matcher *m, const u64 *basis, int nb, int nc, int cs)
{
    u64 pts[64], cnt[64], span[64], seen[64], have[64];
    int pos[64], np = 0, nloops = 0;
    if (!want_fits(m, cs + m->rank, nc))
        return 1;
    /* C runs over the distinct nonzero columns, pts[0..np) with cnt[]
     * copies each, so loops and parallel copies add no contract sets. */
    for (int j = 0; j < nc; j++) {
        u64 v = 0;
        int s = 0;
        for (int i = 0; i < nb; i++)
            v |= (basis[i] >> j & 1) << i;
        if (!v) {
            nloops++;
            continue;
        }
        while (s < np && pts[s] != v)
            s++;
        if (s == np) {
            pts[np] = v;
            cnt[np++] = 0;
        }
        cnt[s]++;
    }
    if (cs > np)
        return 1;
    for (int i = 0; i < cs; i++)
        pos[i] = i;
    do {
        /* Echelon basis of span(C); reduced columns are coset representatives. */
        int ns = 0, nsp = 0, zero = nloops;
        for (; nsp < cs; nsp++) {
            u64 v = pts[pos[nsp]];
            for (int b = 0; b < nsp; b++)
                if (v & LOW(span[b]))
                    v ^= span[b];
            if (!v)
                break;
            span[nsp] = v;
        }
        if (nsp < cs)
            continue;
        for (int j = 0; j < np; j++) {
            u64 v = pts[j];
            int s = 0;
            for (int b = 0; b < cs; b++)
                if (v & LOW(span[b]))
                    v ^= span[b];
            if (!v) {
                zero += (int)cnt[j];
                continue;
            }
            while (s < ns && seen[s] != v)
                s++;
            if (s == ns) {
                seen[ns] = v;
                have[ns++] = 0;
            }
            have[s] += cnt[j];
        }
        if (zero - cs >= m->loops && sizes_dominate(have, ns, m->want, m->len))
            return 0;
    } while (next_comb(pos, cs, np));
    return 1;
}

/* -- module functions ---------------------------------------------------------- */

/* Two functions share each *_common body; contract and test select the
 * second. */
#define VARIANT(name, common, flag)                                            \
    static PyObject *py_##name(PyObject *self, PyObject *const *args,          \
                               Py_ssize_t nargs)                               \
    {                                                                          \
        return common(args, nargs, #name, flag);                               \
    }

static PyObject *py_rref(PyObject *self, PyObject *rows)
{
    Py_ssize_t n;
    u64 red[64];
    u64 *buf = load(rows, &n);
    if (buf == NULL)
        return NULL;
    int nb = rref_c(buf, n, red);
    PyMem_Free(buf);
    return tuple_u64(red, nb);
}

static PyObject *py_nullspace_basis(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t n, nc;
    u64 red[64], out[64], pivmask = 0;
    if (check_nargs(nargs, 2, "nullspace_basis") < 0)
        return NULL;
    nc = PyLong_AsSsize_t(args[1]);
    if (nc == -1 && PyErr_Occurred())
        return NULL;
    if (nc > 64) {
        PyErr_SetString(PyExc_ValueError, "null space vectors need n_cols <= 64");
        return NULL;
    }
    u64 *buf = load(args[0], &n);
    if (buf == NULL)
        return NULL;
    int nb = rref_c(buf, n, red), no = 0;
    PyMem_Free(buf);
    for (int i = 0; i < nb; i++)
        pivmask |= LOW(red[i]);
    for (int j = 0; j < nc; j++) {
        if (pivmask >> j & 1)
            continue;
        u64 vec = BIT(j);
        for (int i = 0; i < nb; i++)
            if (red[i] >> j & 1)
                vec |= LOW(red[i]);
        out[no++] = vec;
    }
    return tuple_u64(out, no);
}

static int by_value(const void *pa, const void *pb)
{
    u64 a = *(const u64 *)pa, b = *(const u64 *)pb;
    return (a > b) - (a < b);
}

static int by_weight(const void *pa, const void *pb)
{
    int d = __builtin_popcountll(*(const u64 *)pa) - __builtin_popcountll(*(const u64 *)pb);
    return d ? d : by_value(pa, pb);
}

static PyObject *py_space_min_supports(PyObject *self, PyObject *basis)
{
    Py_ssize_t k, nz = 0, nmin = 0;
    u64 *b = load(basis, &k);
    if (b == NULL)
        return NULL;
    if (k > SPAN_LIMIT) {
        PyMem_Free(b);
        return PyErr_Format(PyExc_ValueError, "span enumeration limited to %d basis vectors", SPAN_LIMIT);
    }
    Py_ssize_t count = (Py_ssize_t)1 << k;
    u64 *span = PyMem_Malloc(count * sizeof(u64));
    if (span == NULL) {
        PyMem_Free(b);
        return PyErr_NoMemory();
    }
    span[0] = 0;
    for (Py_ssize_t i = 0, filled = 1; i < k; i++, filled *= 2)
        for (Py_ssize_t j = 0; j < filled; j++)
            span[filled + j] = span[j] ^ b[i];
    PyMem_Free(b);
    for (Py_ssize_t i = 0; i < count; i++)
        if (span[i])
            span[nz++] = span[i];
    /* Lightest first, so a vector is minimal iff no kept one lies inside it. */
    qsort(span, nz, sizeof(u64), by_weight);
    for (Py_ssize_t i = 0; i < nz; i++) {
        Py_ssize_t m = 0;
        while (m < nmin && (span[m] & span[i]) != span[m])
            m++;
        if (m == nmin)
            span[nmin++] = span[i];
    }
    qsort(span, nmin, sizeof(u64), by_value);
    PyObject *out = tuple_u64(span, nmin);
    PyMem_Free(span);
    return out;
}

/* delete_rows(rows, n_cols, dmask), contract_rows(rows, n_cols, cmask) */
static PyObject *minor_common(PyObject *const *args, Py_ssize_t nargs,
                              const char *name, int contract)
{
    int nc;
    u64 mask;
    Py_ssize_t n;
    if (check_nargs(nargs, 3, name) < 0 || n_cols_arg(args[1], &nc) < 0 ||
        to_u64(args[2], &mask) < 0)
        return NULL;
    u64 *buf = load(args[0], &n);
    if (buf == NULL)
        return NULL;
    if (contract)
        n = pivot_out_c(buf, n, nc, mask);
    delete_c(buf, n, nc, mask);
    PyObject *out = tuple_u64(buf, n);
    PyMem_Free(buf);
    return out;
}

VARIANT(delete_rows, minor_common, 0)
VARIANT(contract_rows, minor_common, 1)

/* profile_present(rows, n_cols, wants): profile_absent for each want. */
static PyObject *py_profile_present(PyObject *self, PyObject *const *args,
                                    Py_ssize_t nargs)
{
    Py_ssize_t n;
    u64 basis[64];
    if (check_nargs(nargs, 3, "profile_present") < 0)
        return NULL;
    long nc = PyLong_AsLong(args[1]);
    if (nc == -1 && PyErr_Occurred())
        return NULL;
    if (nc < 0 || nc > 64) {
        PyErr_SetString(PyExc_ValueError, "profile_present needs 0 <= n_cols <= 64");
        return NULL;
    }
    PyObject *wants = PySequence_Fast(args[2], "wants must be a sequence");
    if (wants == NULL)
        return NULL;
    u64 *buf = load(args[0], &n);
    Py_ssize_t nw = PySequence_Fast_GET_SIZE(wants);
    PyObject *out = buf == NULL ? NULL : PyTuple_New(nw);
    int nb = buf == NULL ? 0 : rref_c(buf, n, basis);
    PyMem_Free(buf);
    int full = rank_c(basis, nb, nc == 64 ? ~(u64)0 : BIT(nc) - 1);
    for (Py_ssize_t w = 0; out != NULL && w < nw; w++) {
        matcher m = {.kind = KIND_PROFILE};
        if (parse_want(&m, PySequence_Fast_GET_ITEM(wants, w)) < 0) {
            Py_CLEAR(out);
            break;
        }
        if (m.rank < 0 || m.rank > 2) {
            PyErr_Format(PyExc_ValueError,
                         "profile decisions take wants of rank 0..2, not %lld", m.rank);
            Py_CLEAR(out);
        } else {
            int cs = full - (int)m.rank;
            PyTuple_SET_ITEM(out, w, PyBool_FromLong(
                cs >= 0 && !profile_absent(&m, basis, nb, (int)nc, cs)));
        }
        PyMem_Free(m.want);
    }
    Py_DECREF(wants);
    return out;
}

/* The candidates of pure.find_minors in the same order.  Every matcher reads
 * only the row space of the minor, so the scan starts from the rref. */
static PyObject *py_find_minors(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"rows", "n_cols", "c_size", "d_size", "kind",
                            "want", "limit", "avoid", NULL};
    PyObject *rows_obj, *cs_obj, *ds_obj, *want, *avoid_obj = NULL, *out = NULL;
    int nc, nfree = 0, nrest;
    long long cs, ds;
    int freecol[64], rest[64], dpos[64], cpos[64];
    Py_ssize_t limit = 1, n;
    u64 avoid = 0, basis[64];
    matcher m = {0};
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OiOOiO|nO:find_minors", names,
                                     &rows_obj, &nc, &cs_obj, &ds_obj, &m.kind, &want,
                                     &limit, &avoid_obj))
        return NULL;
    if (to_count(cs_obj, &cs) < 0 || to_count(ds_obj, &ds) < 0)
        return NULL;
    if (avoid_obj != NULL && to_u64(avoid_obj, &avoid) < 0)
        return NULL;
    if (nc < 0 || nc > 64) {
        PyErr_SetString(PyExc_ValueError, "find_minors needs 0 <= n_cols <= 64");
        return NULL;
    }
    if (parse_want(&m, want) < 0)
        goto done;
    u64 *buf = load(rows_obj, &n);
    if (buf == NULL)
        goto done;
    int nb = rref_c(buf, n, basis);
    PyMem_Free(buf);
    if ((out = PyList_New(0)) == NULL)
        goto done;
    for (int j = 0; j < nc; j++)
        if (!(avoid >> j & 1))
            freecol[nfree++] = j;
    if (cs < 0 || ds < 0 || cs > nfree - ds)
        goto done;
    for (int i = 0; i < ds; i++)
        dpos[i] = i;
    do {
        u64 dmask = 0;
        for (int i = 0; i < ds; i++)
            dmask |= BIT(freecol[dpos[i]]);
        nrest = 0;
        for (int i = 0; i < nfree; i++)
            if (!(dmask >> freecol[i] & 1))
                rest[nrest++] = freecol[i];
        for (int i = 0; i < cs; i++)
            cpos[i] = i;
        do {
            u64 cmask = 0;
            for (int i = 0; i < cs; i++)
                cmask |= BIT(rest[cpos[i]]);
            if (rank_c(basis, nb, cmask) != cs || !match(&m, basis, nb, nc, cmask, dmask))
                continue;
            PyObject *pair = Py_BuildValue("(KK)", cmask, dmask);
            if (pair == NULL || PyList_Append(out, pair) < 0) {
                Py_XDECREF(pair);
                Py_CLEAR(out);
                goto done;
            }
            Py_DECREF(pair);
            if (limit && PyList_GET_SIZE(out) >= limit)
                goto done;
        } while (next_comb(cpos, cs, nrest));
    } while (next_comb(dpos, ds, nfree));
done:
    PyMem_Free(m.want);
    return out;
}

/* canon_key_cols(cols, r), is_canonical(cols_sorted, r) */
static PyObject *canon_common(PyObject *const *args, Py_ssize_t nargs,
                              const char *name, int test)
{
    Py_ssize_t k;
    PyObject *out = NULL;
    if (check_nargs(nargs, 2, name) < 0)
        return NULL;
    long r = PyLong_AsLong(args[1]);
    if (r == -1 && PyErr_Occurred())
        return NULL;
    if (test && r == 0)
        Py_RETURN_TRUE;
    if (!gl_rank_ok(r))
        return NULL;
    u64 *cols = load(args[0], &k), *buf = NULL;
    if (cols == NULL && PyErr_ExceptionMatches(PyExc_OverflowError)) {
        /* Negative or 2^64 and above: outside GF(2)^r, as pure says. */
        PyErr_SetString(PyExc_ValueError, "column vector outside GF(2)^r");
    } else if (cols != NULL && (buf = PyMem_Malloc(2 * (k ? k : 1) * sizeof(u64))) == NULL)
        PyErr_NoMemory();
    for (Py_ssize_t i = 0; buf != NULL && r && i < k; i++)
        if (cols[i] >> r) {
            PyErr_SetString(PyExc_ValueError, "column vector outside GF(2)^r");
            goto done;
        }
    if (buf == NULL)
        goto done;
    glwalk w = {.k = k, .cols = cols, .ref = cols, .img = buf,
                .best = test ? NULL : buf + k};
    if (test) {
        out = PyBool_FromLong(!gl_walk(&w));
    } else {
        memcpy(w.best, cols, k * sizeof(u64));
        sort_small(w.best, k);
        if (r)
            gl_walk(&w);
        out = tuple_u64(w.best, k);
    }
done:
    PyMem_Free(cols);
    PyMem_Free(buf);
    return out;
}

VARIANT(canon_key_cols, canon_common, 0)
VARIANT(is_canonical, canon_common, 1)

#define FAST(name) {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, "See pure." #name "."}
#define ONE(name, fn) {#name, (PyCFunction)fn, METH_O, "See pure." #name "."}

static PyMethodDef methods[] = {
    ONE(rref, py_rref),
    FAST(nullspace_basis),
    ONE(space_min_supports, py_space_min_supports),
    FAST(delete_rows),
    FAST(contract_rows),
    FAST(profile_present),
    {"find_minors", (PyCFunction)(void (*)(void))py_find_minors,
     METH_VARARGS | METH_KEYWORDS, "See pure.find_minors."},
    FAST(canon_key_cols),
    FAST(is_canonical),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "matroidsplit._kernel._speed",
    "Compiled GF(2) kernel; see matroidsplit._kernel.pure.", -1, methods,
};

PyMODINIT_FUNC PyInit__speed(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddStringConstant(mod, "BACKEND", "compiled") < 0)
        Py_CLEAR(mod);
    return mod;
}
