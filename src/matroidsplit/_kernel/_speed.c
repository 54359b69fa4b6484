/* Compiled GF(2) kernel: the per-candidate half of matroidsplit._kernel.pure.
 *
 * rank, rank_masked, cols_rank, rref, rref_pivots, nullspace_basis,
 * space_min_supports, delete_rows, contract_rows, profile_present,
 * split_profile_first, find_minors, canon_key_cols and is_canonical return
 * exactly what their namesakes in pure.py return; pure.py documents them
 * and stays the reference.  Rows, masks and vectors are ints in [0, 2^64):
 * others raise OverflowError or TypeError, never wrap, except
 * canonical-form columns, which raise ValueError as pure does, and the
 * ranks, loop counts and class sizes of wants: a want with a size outside
 * [0, 2^64) or a loop count of any size that fits no minor reads as
 * absent, as in pure, and a rank of any size outside 0..2 raises
 * ValueError in the profile decisions, as in pure.  Where pure would go past a word (n_cols > 64 in
 * nullspace_basis, profile_present, split_profile_first and find_minors)
 * or take canonical forms for r > 6, ValueError is raised.  Distinct low bits bound a reduced basis by 64
 * rows, so only bases and column lists use 64-entry arrays; buffers that a
 * caller's row count indexes are allocated to size.
 *
 * profile_present decides one want at a time with profile_absent, which
 * reads every contraction M/C.  find_minors decides first with it, as
 * pure.find_minors does: a profile want of rank rho <= 2 with avoid 0 and
 * c_size = rank - rho returns [] at once when no contraction M/C can hold
 * the pattern.  Otherwise the scan runs unchanged, so witnesses and their
 * order are the same.  split_profile_first takes its Ys in blocks of 64,
 * one bit of a word per Y, and stops after the first block with a hit.
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
 * chosen among the columns, to 1, 2, 4, ...; pure._images_below proves it.
 * gl_dfs picks basis vector i among the distinct columns outside the span
 * so far (span is a bitmap), and tab[v] is the image of every v in that
 * span.  Once the span holds every column, the sorted image of cols[0..k)
 * goes to img.  A walk either keeps the least image in best, or stops at
 * the first image sorting below ref and notes whether some image equals
 * ref.  Columns must lie below 2^r, r <= GL_MAX_RANK.
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

static int gl_leaf(glwalk *w)
{
    u64 *img = w->img;
    Py_ssize_t k = w->k;
    for (Py_ssize_t i = 0; i < k; i++)
        img[i] = w->tab[w->cols[i]];
    sort_small(img, k);
    if (w->best != NULL) {
        if (cmp_u64s(img, w->best, k) < 0)
            memcpy(w->best, img, k * sizeof(u64));
        return 0;
    }
    int c = cmp_u64s(img, w->ref, k);
    w->equal |= c == 0;
    return c < 0;
}

static int gl_dfs(glwalk *w, int i, u64 span)
{
    u64 tried = span;
    for (Py_ssize_t j = 0; j < w->k && i < GL_MAX_RANK; j++) {
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
        if (gl_dfs(w, i + 1, grown))
            return 1;
    }
    return tried == span ? gl_leaf(w) : 0;
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
        return mn == m->rank && mc == m->len && !gl_dfs(&w, 0, 1) && w.equal;
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

/* pure.profile_present for one profile want m over all nc columns of the
 * rref basis[0..nb), where 0 <= m->rank <= 2 and cs = rank - m->rank >= 0:
 * 1 when no minor has the profile, 0 when one does.  pure.profile_present
 * documents the test; this one reads M/C for every independent cs-set C of
 * distinct nonzero columns. */
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

/* -- splitting decision --------------------------------------------------------
 * pure.split_profile_first and pure._split_walk document the walk; here a
 * plane is one word, bit t for the t-th Y of a block of 64.  Columns are in
 * walk order (nonzero columns of M first); m is the want, of at most three
 * class sizes.
 */

typedef struct {
    const matcher *m;
    int n, c, top;
    int tail[65], min_other[65];
    u64 cols[64], planes[64];
    u64 every, live, hits;
} splitwalk;

static void split_hit(splitwalk *w, u64 plane)
{
    w->hits |= plane & w->live;
    if (w->hits)
        w->live &= LOW(w->hits) - 1;
}

/* Saturating counters: ge[k] gains the bits of x that are in ge[k - 1]. */
static void count_into(u64 *ge, int top, u64 x)
{
    for (int k = top; k > 0; k--)
        ge[k] |= ge[k - 1] & x;
}

/* The distinct values of red[0..n) into vals with their counts; how many. */
static int count_values(const u64 *red, int n, u64 *vals, u64 *cnt)
{
    int nv = 0;
    for (int j = 0; j < n; j++) {
        int a = 0;
        while (a < nv && vals[a] != red[j])
            a++;
        if (a == nv) {
            vals[nv] = red[j];
            cnt[nv++] = 0;
        }
        cnt[a]++;
    }
    return nv;
}

static long long count_of(const u64 *vals, const u64 *cnt, int nv, u64 r)
{
    for (int a = 0; a < nv; a++)
        if (vals[a] == r)
            return (long long)cnt[a];
    return 0;
}

/* The leaf C + i of rank c - 1, its columns counted modulo span(C) in
 * vals/cnt and i reducing to v: M/(C + i) has the profile. */
static int split_span_fits(const splitwalk *w, const u64 *vals, const u64 *cnt,
                           int nv, u64 v)
{
    u64 key[64], size[64], low = LOW(v);
    int ns = 0;
    long long zero = -w->c;
    for (int a = 0; a < nv; a++) {
        u64 r = vals[a] & low ? vals[a] ^ v : vals[a];
        int s = 0;
        if (!r) {
            zero += (long long)cnt[a];
            continue;
        }
        while (s < ns && key[s] != r)
            s++;
        if (s == ns) {
            key[ns] = r;
            size[ns++] = 0;
        }
        size[s] += cnt[a];
    }
    return zero >= w->m->loops && sizes_dominate(size, ns, w->m->want, w->m->len);
}

/* The independent leaf C + i, i reducing to (v, p) modulo span(C): the
 * live Ys for which M_Y/(C + i) has the profile.  Counters: ge[0] loops,
 * ge[1] the class e, ge[2] and ge[3] the nonzero coset by parity against
 * its first column (M/(C + i) has rank <= 1, so there is one at most). */
static u64 split_plane_fits(const splitwalk *w, const u64 *red, const u64 *q,
                            u64 chosen, u64 v, u64 p)
{
    u64 ge[4][65], low = LOW(v), ref = 0, fit;
    int have_ref = 0;
    for (int a = 0; a < 4; a++) {
        ge[a][0] = w->every;
        for (int k = 1; k <= w->top; k++)
            ge[a][k] = 0;
    }
    for (int j = 0; j < w->n; j++) {
        u64 r = red[j], x = q[j];
        int a = 0;
        if (chosen >> j & 1)
            continue;
        if (r & low) {
            r ^= v;
            x ^= p;
        }
        if (r) {
            if (!have_ref) {
                ref = x;
                have_ref = 1;
            }
            x ^= ref;
            a = 2;
        }
        count_into(ge[a], w->top, w->every & ~x);
        count_into(ge[a + 1], w->top, x);
    }
    fit = ge[0][w->m->loops] & w->live;
    /* Sorted sizes dominate the want iff, for each k, at least k of the
     * three classes reach its k-th largest size. */
    for (int k = 1; k <= w->m->len; k++) {
        u64 s = w->m->want[w->m->len - k], a = ge[1][s], b = ge[2][s], c = ge[3][s];
        fit &= k == 1 ? a | b | c : k == 2 ? (a & b) | (a & c) | (b & c) : a & b & c;
    }
    return fit;
}

/* C is chosen (size columns), with the dependency plane dep when has_dep;
 * red and q are every column reduced modulo span(C). */
static void split_dfs(splitwalk *w, int start, int size, int has_dep, u64 dep,
                      u64 chosen, const u64 *red, const u64 *q)
{
    u64 red2[64], q2[64], vals[64], cnt[64];
    int nv = -1, span_here = -1, rank_now = size - has_dep;
    for (int i = start; i <= w->n - (w->c - size); i++) {
        u64 v = red[i], p = q[i];
        if (!(has_dep ? dep & w->live : w->live) || rank_now + w->tail[i] < w->c - 1)
            return;
        if (!v && (has_dep || !(p & w->live)))
            continue;
        if (size + 1 < w->c) {
            if (!v) {
                split_dfs(w, i + 1, size + 1, 1, p, chosen | BIT(i), red, q);
                continue;
            }
            for (int j = 0; j < w->n; j++) {
                int in_v = (red[j] & LOW(v)) != 0;
                red2[j] = in_v ? red[j] ^ v : red[j];
                q2[j] = in_v ? q[j] ^ p : q[j];
            }
            split_dfs(w, i + 1, size + 1, has_dep, dep, chosen | BIT(i), red2, q2);
            continue;
        }
        if (nv < 0)
            nv = count_values(red, w->n, vals, cnt);
        if (!has_dep && v) {
            long long m0 = count_of(vals, cnt, nv, 0) + count_of(vals, cnt, nv, v) - w->c;
            if (w->n - w->c - m0 >= w->min_other[m0])
                split_hit(w, split_plane_fits(w, red, q, chosen | BIT(i), v, p));
        } else if (v) {
            if (split_span_fits(w, vals, cnt, nv, v))
                split_hit(w, dep);
        } else {
            /* Every dependent i leaves the span of C as it is. */
            if (span_here < 0)
                span_here = split_span_fits(w, vals, cnt, nv, 0);
            if (span_here)
                split_hit(w, p);
        }
    }
}

/* Columns of basis[0..nb) in walk order, suffix ranks and min_other
 * for the non-cocycle Ys: M_Y has rank nb + 1. */
static void split_setup(splitwalk *w, const matcher *m, const u64 *basis, int nb,
                        int nc, int *order)
{
    u64 ech[64], col[64];
    int ne = 0, k = 0;
    long long sum = 0;
    for (int j = 0; j < nc; j++) {
        col[j] = 0;
        for (int i = 0; i < nb; i++)
            col[j] |= (basis[i] >> j & 1) << i;
    }
    for (int zero = 0; zero < 2; zero++)
        for (int j = 0; j < nc; j++)
            if ((col[j] == 0) == zero) {
                order[k] = j;
                w->cols[k++] = col[j];
            }
    w->m = m;
    w->n = nc;
    w->c = nb + 1 - (int)m->rank;
    w->top = (int)m->loops;
    for (Py_ssize_t i = 0; i < m->len; i++) {
        sum += (long long)m->want[i];
        if ((int)m->want[i] > w->top)
            w->top = (int)m->want[i];
    }
    w->tail[nc] = 0;
    for (int i = nc - 1; i >= 0; i--) {
        u64 v = w->cols[i];
        for (int b = 0; b < ne; b++)
            if (v & LOW(ech[b]))
                v ^= ech[b];
        if (v)
            ech[ne++] = v;
        w->tail[i] = ne;
    }
    /* The fewest columns the nonzero coset of an independent leaf needs
     * when m0 columns reduce to 0: those hold the loops and at most one
     * wanted class, e. */
    for (int m0 = 0; m0 <= nc; m0++) {
        w->min_other[m0] = nc + 1;
        for (Py_ssize_t e = -1; e < m->len; e++) {
            long long in_e = e < 0 ? 0 : (long long)m->want[e];
            if (m->len - (e >= 0) <= 2 && m->loops + in_e <= m0 &&
                sum - in_e < w->min_other[m0])
                w->min_other[m0] = (int)(sum - in_e);
        }
    }
}

/* -- module functions ---------------------------------------------------------- */

static PyObject *py_rank(PyObject *self, PyObject *rows)
{
    Py_ssize_t n;
    u64 *buf = load(rows, &n);
    if (buf == NULL)
        return NULL;
    int r = rank_c(buf, n, ~(u64)0);
    PyMem_Free(buf);
    return PyLong_FromLong(r);
}

static PyObject *py_rank_masked(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 mask;
    Py_ssize_t n;
    if (check_nargs(nargs, 2, "rank_masked") < 0 || to_u64(args[1], &mask) < 0)
        return NULL;
    u64 *buf = load(args[0], &n);
    if (buf == NULL)
        return NULL;
    int r = rank_c(buf, n, mask);
    PyMem_Free(buf);
    return PyLong_FromLong(r);
}

/* Two functions share each *_common body; with_pivots, contract and test
 * select the second. */
#define VARIANT(name, common, flag)                                            \
    static PyObject *py_##name(PyObject *self, PyObject *const *args,          \
                               Py_ssize_t nargs)                               \
    {                                                                          \
        return common(args, nargs, #name, flag);                               \
    }

static PyObject *rref_common(PyObject *const *args, Py_ssize_t nargs,
                             const char *name, int with_pivots)
{
    Py_ssize_t n;
    u64 red[64], piv[64];
    u64 *buf = check_nargs(nargs, 1, name) < 0 ? NULL : load(args[0], &n);
    if (buf == NULL)
        return NULL;
    int nb = rref_c(buf, n, red);
    PyMem_Free(buf);
    if (!with_pivots)
        return tuple_u64(red, nb);
    for (int i = 0; i < nb; i++)
        piv[i] = __builtin_ctzll(red[i]);
    PyObject *reduced = tuple_u64(red, nb);
    /* On a NULL second item, "N" still releases the first. */
    return reduced ? Py_BuildValue("(NN)", reduced, tuple_u64(piv, nb)) : NULL;
}

VARIANT(rref, rref_common, 0)
VARIANT(rref_pivots, rref_common, 1)

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
    if (k > 24) {
        PyMem_Free(b);
        PyErr_SetString(PyExc_ValueError, "span enumeration limited to 24 basis vectors");
        return NULL;
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

/* split_profile_first(rows, n_cols, ymasks, want), Ys in blocks of 64. */
static PyObject *py_split_profile_first(PyObject *self, PyObject *const *args,
                                        Py_ssize_t nargs)
{
    Py_ssize_t n, ny, first = -1;
    u64 basis[64], *rows = NULL, *ys = NULL;
    int order[64], cocycle_fits = -1;
    PyObject *out = NULL;
    matcher m = {.kind = KIND_PROFILE};
    splitwalk w;
    if (check_nargs(nargs, 4, "split_profile_first") < 0)
        return NULL;
    long nc = PyLong_AsLong(args[1]);
    if (nc == -1 && PyErr_Occurred())
        return NULL;
    if (nc < 0 || nc > 64) {
        PyErr_SetString(PyExc_ValueError, "split_profile_first needs 0 <= n_cols <= 64");
        return NULL;
    }
    if (parse_want(&m, args[3]) < 0)
        return NULL;
    if (m.rank < 0 || m.rank > 2) {
        PyErr_Format(PyExc_ValueError,
                     "profile decisions take wants of rank 0..2, not %lld", m.rank);
        goto done;
    }
    if ((rows = load(args[0], &n)) == NULL || (ys = load(args[2], &ny)) == NULL)
        goto done;
    u64 word = nc == 64 ? ~(u64)0 : BIT(nc) - 1;
    for (Py_ssize_t i = 0; i < n; i++)
        rows[i] &= word;
    int nb = rref_c(rows, n, basis);
    int walks = m.len <= 3 && want_fits(&m, nb + 1, (int)nc);
    if (walks)
        split_setup(&w, &m, basis, nb, (int)nc, order);
    for (Py_ssize_t base = 0; base < ny && first < 0; base += 64) {
        u64 planes[64] = {0}, odd = 0, hits;
        int count = ny - base < 64 ? (int)(ny - base) : 64;
        u64 every = count == 64 ? ~(u64)0 : BIT(count) - 1;
        for (int t = 0; t < count; t++)
            for (u64 y = ys[base + t] & word; y; y &= y - 1)
                planes[__builtin_ctzll(y)] |= BIT(t);
        /* y is in the row space iff it is even against every null vector:
         * one per non-pivot column j, with the pivots of the rows holding j. */
        for (int j = 0; j < nc; j++) {
            u64 parity = planes[j];
            int pivot = 0;
            for (int i = 0; i < nb; i++) {
                pivot |= __builtin_ctzll(basis[i]) == j;
                if (basis[i] >> j & 1)
                    parity ^= planes[__builtin_ctzll(basis[i])];
            }
            if (!pivot)
                odd |= parity;
        }
        hits = every & ~odd;
        if (hits && cocycle_fits < 0)
            cocycle_fits = nb >= m.rank && !profile_absent(&m, basis, nb, (int)nc, nb - m.rank);
        if (hits && !cocycle_fits)
            hits = 0;
        if (walks) {
            w.every = every;
            w.live = odd & (hits ? LOW(hits) - 1 : every);
            w.hits = 0;
            for (int k = 0; k < nc; k++)
                w.planes[k] = planes[order[k]];
            if (w.live && w.c == 0)
                split_hit(&w, split_plane_fits(&w, w.cols, w.planes, 0, 0, 0));
            else if (w.live)
                split_dfs(&w, 0, 0, 0, 0, 0, w.cols, w.planes);
            hits |= w.hits;
        }
        if (hits)
            first = base + __builtin_ctzll(hits);
    }
    out = PyLong_FromSsize_t(first);
done:
    PyMem_Free(rows);
    PyMem_Free(ys);
    PyMem_Free(m.want);
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
    if (m.kind == KIND_PROFILE && !avoid && m.rank >= 0 && m.rank <= 2 &&
        cs == rank_c(basis, nb, nc == 64 ? ~(u64)0 : BIT(nc) - 1) - m.rank &&
        profile_absent(&m, basis, nb, nc, cs))
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
        out = PyBool_FromLong(!gl_dfs(&w, 0, 1));
    } else {
        memcpy(w.best, cols, k * sizeof(u64));
        sort_small(w.best, k);
        if (r)
            gl_dfs(&w, 0, 1);
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
    ONE(rank, py_rank),
    ONE(cols_rank, py_rank),
    FAST(rank_masked),
    FAST(rref),
    FAST(rref_pivots),
    FAST(nullspace_basis),
    ONE(space_min_supports, py_space_min_supports),
    FAST(delete_rows),
    FAST(contract_rows),
    FAST(profile_present),
    FAST(split_profile_first),
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
