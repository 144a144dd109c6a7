/* Compiled DFS kernel: exact twin of rep132._kernel_py (see its docstring).
   The kernel contract, run_batch and run_search, is stated in
   rep132.kernels.

   This module holds a kernel's two traversals, with the Python
   reference's arguments: _search_graph searches one row (rec() below), and
   _union_search walks the union of a batch's searches (batch_rec()), or
   returns None once the union would pass its one budget. Its init sets
   run_batch and run_search to the pair that _kernel_py.driver makes over
   these two, so every check of a call, the per-graph fallback past a
   budget and the cut at each group's first witness are the reference's
   own code.

   rec() has the same traversal and results as the Python reference's
   rec(), checked call by call: the same child order, the same three
   prunes, always on, the same node and word counts, budget rule and
   witness order. With the pattern prune on, no word that contains a 132
   is ever built, so a finished word needs no test for one. The Python
   kernel packs seen_since and nonalt into two ints; here they stay arrays
   copied per node, since a memcpy of 16 words costs next to nothing in C.
   Any change to the traversal must be mirrored there.

   batch_rec() walks the union as _kernel_py._union_search does. rec() and
   batch_rec() share one prefix step (blocked, repeats, push, child, pop)
   and differ only in their prunes, tallies and leaf tests. Its graph sets
   span several 64-bit words, and without find_all the entries of a group
   after its first entry with a witness come back as None.

   Rows come only from the driver, which checks the keys and packs them
   into these rows, mask v in bits 16v..16v+15 of ROW_BYTES little-endian
   bytes. So the traversals only read what the driver has checked. They
   check again just what their arrays need (read_letters, read_budget,
   read_shape, a row's length), and raise SystemError if that fails; every
   loop over letters or masks stops at n, so a row that is not a graph or
   a repeated row, which only a direct call can pass, can give a wrong
   answer but never reads out of bounds. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <string.h>

#define MAX_N 15      /* letters 1..MAX_N; bit c of a mask is letter c */
#define MAX_DEPTH 64  /* longest word: n * max_copies */
#define ROW_BYTES (2 * (MAX_N + 1))  /* a traversal's row: masks 0..MAX_N */

typedef unsigned int mask_t;

typedef struct {
    int n, min_copies, max_copies;
    int forbid_132, find_all;
    unsigned long long budget, nodes, tested;
    int exceeded;
    mask_t full;
    mask_t adj[MAX_N + 1];
    mask_t nonedge[MAX_N + 1];
    int counts[MAX_N + 1];
    mask_t seen_since[MAX_N + 1];
    mask_t nonalt[MAX_N + 1];
    int prefix[MAX_DEPTH];
    int depth;
    PyObject *witnesses;
} State;

/* The current prefix as a tuple of letters; NULL on error. */
static PyObject *
prefix_word(const State *st)
{
    PyObject *word = PyTuple_New(st->depth);
    for (int i = 0; word != NULL && i < st->depth; i++) {
        PyObject *letter = PyLong_FromLong(st->prefix[i]);
        if (letter == NULL)
            Py_CLEAR(word);
        else
            PyTuple_SET_ITEM(word, i, letter);
    }
    return word;
}

/* The prefix step that rec() and batch_rec() share, in the order they take
   it: blocked() and repeats() gate a letter c, push() appends it, child()
   gives the new node's arguments, and pop() takes c off again. A node's
   arguments are the letters that would complete a 132, the prefix's
   minimum (0 for the empty prefix), the letters whose copies are spent,
   and the number of letters short of min_copies. */
typedef struct {
    mask_t forbidden;
    int cur_min;
    mask_t exhausted;
    int deficient;
} Frame;

/* What push() changes and pop() restores. */
typedef struct {
    mask_t seen_since[MAX_N + 1], nonalt[MAX_N + 1];
} Undo;

/* Whether c cannot follow the prefix: its copies are spent or, under the
   pattern prune, it would complete a 132. */
static inline int
blocked(const State *st, int c, mask_t forbidden)
{
    return st->counts[c] == st->max_copies
        || (st->forbid_132 && (forbidden >> c & 1));
}

/* bad: the letters y whose pair {c, y} appending c puts a repeat on. */
static inline mask_t
repeats(const State *st, int c)
{
    return st->counts[c] ? st->full & ~((mask_t)1 << c) & ~st->seen_since[c] : 0;
}

/* Appends c, with bad = repeats(st, c), saving in old what pop() restores. */
static inline void
push(State *st, int c, mask_t bad, Undo *old)
{
    const int n = st->n;
    mask_t bitc = (mask_t)1 << c;
    st->counts[c]++;
    st->prefix[st->depth++] = c;
    memcpy(old->seen_since, st->seen_since, sizeof old->seen_since);
    st->seen_since[c] = 0;
    for (int y = 1; y <= n; y++)
        if (y != c)
            st->seen_since[y] |= bitc;
    if (bad) {
        memcpy(old->nonalt, st->nonalt, sizeof old->nonalt);
        st->nonalt[c] |= bad;
        for (int y = 1; y <= n; y++)
            if (bad >> y & 1)
                st->nonalt[y] |= bitc;
    }
}

/* The arguments of the node that push() made by appending c to the prefix
   whose arguments these are. */
static inline Frame
child(const State *st, int c, mask_t forbidden, int cur_min, mask_t exhausted,
      int deficient)
{
    mask_t bitc = (mask_t)1 << c;
    mask_t ch_forb = forbidden;
    if (0 < cur_min && cur_min < c)
        ch_forb |= (bitc - 1) & ~(((mask_t)1 << (cur_min + 1)) - 1);
    Frame ch = {ch_forb, (cur_min == 0 || c < cur_min) ? c : cur_min,
                exhausted | (st->counts[c] == st->max_copies ? bitc : 0),
                st->counts[c] == st->min_copies ? deficient - 1 : deficient};
    return ch;
}

/* Takes c, which push() appended with bad, off the prefix again. */
static inline void
pop(State *st, int c, mask_t bad, const Undo *old)
{
    st->counts[c]--;
    st->depth--;
    memcpy(st->seen_since, old->seen_since, sizeof st->seen_since);
    if (bad)
        memcpy(st->nonalt, old->nonalt, sizeof st->nonalt);
}

/* Returns 1 to stop the whole search, 0 to go on, -1 on a Python error. */
static int
rec(State *st, mask_t forbidden, int cur_min, mask_t exhausted, int deficient)
{
    const int n = st->n;
    Undo old;

    for (int c = 1; c <= n; c++) {
        if (blocked(st, c, forbidden))
            continue;
        mask_t bad = repeats(st, c);
        if (bad & st->adj[c])
            continue;
        if (st->counts[c] + 1 == st->max_copies
            && (exhausted & st->nonedge[c] & ~(st->nonalt[c] | bad)))
            continue;
        if (st->budget && st->nodes >= st->budget) {
            st->exceeded = 1;
            return 1;
        }
        st->nodes++;

        push(st, c, bad, &old);
        Frame ch = child(st, c, forbidden, cur_min, exhausted, deficient);
        int stop = 0;
        if (ch.deficient == 0) {
            st->tested++;
            int ok = 1;
            for (int x = 1; ok && x <= n; x++)
                ok = st->nonalt[x] == st->nonedge[x];
            if (ok) {
                PyObject *word = prefix_word(st);
                int err = word == NULL ? -1 : PyList_Append(st->witnesses, word);
                Py_XDECREF(word);
                if (err < 0)
                    return -1;
                stop = !st->find_all;
            }
        }
        if (!stop)
            stop = rec(st, ch.forbidden, ch.cur_min, ch.exhausted, ch.deficient);
        pop(st, c, bad, &old);
        if (stop)
            return stop;
    }
    return 0;
}

/* Converts a Python int to a long long saturated at the type's limits;
   0 with an error set when obj is not an int. Every bound checked below
   lies far inside the range, so a saturated value passes or fails each
   check exactly as the unbounded Python int does. */
static int
clamped(PyObject *obj, void *out)
{
    int overflow;
    long long value = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (value == -1 && PyErr_Occurred())
        return 0;
    *(long long *)out = overflow > 0 ? LLONG_MAX : overflow < 0 ? LLONG_MIN : value;
    return 1;
}

/* Raises SystemError for arguments that _kernel_py's checks have passed but
   that this file's arrays cannot hold; returns -1. */
static int
unfit(void)
{
    PyErr_SetString(PyExc_SystemError,
                    "_kernel_py passed arguments that the compiled kernel cannot hold");
    return -1;
}

/* Sets n, min_copies, max_copies and full in st from three ints, after
   the bounds that the prefix and the masks need; -1 with an error set. */
static int
read_letters(State *st, PyObject *n_obj, PyObject *min_obj, PyObject *max_obj)
{
    long long n, min_copies, max_copies;
    if (!clamped(n_obj, &n) || !clamped(min_obj, &min_copies)
        || !clamped(max_obj, &max_copies))
        return -1;
    /* max_copies > MAX_DEPTH / n: n * max_copies > MAX_DEPTH, unoverflowed */
    if (n < 1 || n > MAX_N || min_copies < 1 || min_copies > max_copies
        || max_copies > MAX_DEPTH / n)
        return unfit();
    st->n = (int)n;
    st->min_copies = (int)min_copies;
    st->max_copies = (int)max_copies;
    st->full = ((mask_t)1 << (n + 1)) - 2;  /* bits 1..n */
    return 0;
}

/* Reads a node budget, None or an int of at least 0, into *budget (0 means
   unlimited); -1 with an error set. */
static int
read_budget(PyObject *obj, unsigned long long *budget)
{
    long long value = 0;
    if (obj != Py_None && !clamped(obj, &value))
        return -1;
    if (value < 0)
        return unfit();
    *budget = (unsigned long long)value;
    return 0;
}

/* Reads masks 1..n of a row, 16 bits each, little-endian, into adj. */
static void
read_row(const char *row, int n, mask_t *adj)
{
    const unsigned char *bytes = (const unsigned char *)row;
    for (int v = 1; v <= n; v++)
        adj[v] = bytes[2 * v] | (mask_t)bytes[2 * v + 1] << 8;
}

/* Runs the search that st is set up for, from the empty prefix; returns
   (witnesses, nodes, words_tested, budget_exceeded) or NULL on error. */
static PyObject *
search(State *st)
{
    st->nodes = st->tested = 0;
    st->exceeded = 0;
    st->depth = 0;
    memset(st->counts, 0, sizeof st->counts);
    memset(st->seen_since, 0, sizeof st->seen_since);
    memset(st->nonalt, 0, sizeof st->nonalt);
    st->witnesses = PyList_New(0);
    if (st->witnesses == NULL)
        return NULL;
    if (rec(st, 0, 0, 0, st->n) < 0) {
        Py_DECREF(st->witnesses);
        return NULL;
    }
    return Py_BuildValue("(NKKO)", st->witnesses, st->nodes, st->tested,
                         st->exceeded ? Py_True : Py_False);
}

/* -------------------------------------------------------- _union_search

   One DFS over the union of several graphs' search trees, as
   _kernel_py._union_search makes it. A graph set is a bitset over
   the batch's entries, in 64-bit words; a node keeps only its nonzero
   words, as (word index, bits) parts in ascending index order, so a node
   costs what its own graphs cost rather than what the batch does. The
   parts of the nodes on the path sit on one stack, each node's right
   after its parent's, which they never outnumber. */

typedef unsigned long long word_t;
#define WORD_BITS 64
#define PLANES 64  /* bits of a per-graph tally: never overflows */

typedef struct {
    Py_ssize_t idx;  /* word index: graphs WORD_BITS * idx .. + WORD_BITS - 1 */
    word_t bits;
} Part;

typedef struct {
    State st;  /* the search's flags and its per-prefix state */
    Py_ssize_t count, words;
    unsigned long long limit;  /* the union's node budget; 0: none */
    int aborted;
    mask_t any_edge[MAX_N + 1];     /* per letter, the union of the graphs' */
    mask_t any_nonedge[MAX_N + 1];  /* (non-)neighbour masks */
    mask_t *nonedges;    /* [i * (MAX_N + 1) + c]: graph i's non-neighbours of c */
    Py_ssize_t *group_end;  /* group_end[i]: one past the last entry of i's group */
    word_t *with_edge;   /* with_edge[(c * (MAX_N + 1) + y) * words + j] */
    Py_ssize_t *table;   /* open addressing by target; a graph index or -1 */
    size_t table_mask;
    word_t *live;        /* graphs still searching */
    word_t *dropped;     /* graphs dropped by an earlier hit in their group */
    unsigned long long kills;  /* times graphs were taken out of live */
    word_t *node_planes;  /* bit-sliced tallies: planes[j * PLANES + q] holds */
    word_t *leaf_planes;  /* bit q of the totals of word j's graphs */
    Part *stack;
    PyObject *lists;  /* the graphs' witness lists */
} Batch;

static size_t
target_hash(const mask_t *masks, int n)
{
    unsigned long long h = 0xcbf29ce484222325ULL;
    for (int c = 1; c <= n; c++)
        h = (h ^ masks[c]) * 0x100000001b3ULL;
    return (size_t)(h ^ h >> 29);
}

/* The graph whose non-neighbour masks equal masks, or -1: the driver's rows
   are distinct, and so are their targets, but two can share a slot. */
static Py_ssize_t
find_target(const Batch *b, const mask_t *masks)
{
    const int n = b->st.n;
    for (size_t slot = target_hash(masks, n) & b->table_mask;;
         slot = (slot + 1) & b->table_mask) {
        Py_ssize_t i = b->table[slot];
        if (i < 0 || memcmp(b->nonedges + i * (MAX_N + 1) + 1, masks + 1,
                            n * sizeof(mask_t)) == 0)
            return i;
    }
}

/* Adds 1 to the tally of every graph in set. */
static void
tally(word_t *planes, const Part *set, Py_ssize_t len)
{
    for (Py_ssize_t i = 0; i < len; i++) {
        word_t *p = planes + set[i].idx * PLANES;
        word_t carry = set[i].bits;
        for (int q = 0; carry; q++) {
            word_t t = p[q];
            p[q] = t ^ carry;
            carry &= t;
        }
    }
}

/* Writes the graphs of alive that the edges prune (cut_edge) and the
   exhausted prune (cut_nonedge) keep for letter c to out; returns their
   number of parts. */
static Py_ssize_t
narrow(const Batch *b, int c, const Part *alive, Py_ssize_t len, Part *out,
       mask_t cut_edge, mask_t cut_nonedge)
{
    const word_t *rows[2 * MAX_N];
    int all = 0;
    const word_t *row = b->with_edge + (size_t)c * (MAX_N + 1) * b->words;
    for (int y = 1; y <= b->st.n; y++)
        if (cut_edge >> y & 1)
            rows[all++] = row + y * b->words;
    const int edges = all;
    for (int y = 1; y <= b->st.n; y++)
        if (cut_nonedge >> y & 1)
            rows[all++] = row + y * b->words;
    Py_ssize_t m = 0;
    for (Py_ssize_t i = 0; i < len; i++) {
        Py_ssize_t j = alive[i].idx;
        word_t w = alive[i].bits;
        for (int r = 0; r < edges; r++)  /* graphs with an edge {c, y} */
            w &= ~rows[r][j];
        for (int r = edges; r < all; r++)  /* graphs without one */
            w &= rows[r][j];
        if (w) {
            out[m].idx = j;
            out[m].bits = w;
            m++;
        }
    }
    return m;
}

/* Whether graph i is in set. */
static int
holds(const Part *set, Py_ssize_t len, Py_ssize_t i)
{
    Py_ssize_t j = i / WORD_BITS, lo = 0, hi = len;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        if (set[mid].idx < j)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < len && set[lo].idx == j && (set[lo].bits >> (i % WORD_BITS) & 1);
}

/* Drops the graphs outside live and the parts left empty; returns the
   new number of parts. */
static Py_ssize_t
keep_live(const Batch *b, Part *set, Py_ssize_t len)
{
    Py_ssize_t m = 0;
    for (Py_ssize_t i = 0; i < len; i++) {
        word_t w = set[i].bits & b->live[set[i].idx];
        if (w) {
            set[m].idx = set[i].idx;
            set[m].bits = w;
            m++;
        }
    }
    return m;
}

/* Marks the graphs from .. to - 1 dropped and takes them out of live. */
static void
drop_range(Batch *b, Py_ssize_t from, Py_ssize_t to)
{
    for (Py_ssize_t j = from / WORD_BITS; j * WORD_BITS < to; j++) {
        Py_ssize_t lo = from - j * WORD_BITS, hi = to - j * WORD_BITS;
        word_t range = ~(word_t)0;
        if (lo > 0)
            range <<= lo;
        if (hi < WORD_BITS)
            range &= ~(word_t)0 >> (WORD_BITS - hi);
        b->live[j] &= ~range;
        b->dropped[j] |= range;
    }
}

/* Gives the current prefix, a finished word, to the graph of set whose
   target it hits, if there is one. Without find_all, that graph leaves
   live and set, and drops every later graph of its group, hit or not.
   Returns the new number of parts of set, or -1 on a Python error. */
static Py_ssize_t
leaf(Batch *b, Part *set, Py_ssize_t len)
{
    State *st = &b->st;
    Py_ssize_t i = find_target(b, st->nonalt);
    if (i < 0 || !holds(set, len, i))
        return len;
    PyObject *word = prefix_word(st);
    int err = word == NULL ? -1 : PyList_Append(PyList_GET_ITEM(b->lists, i), word);
    Py_XDECREF(word);
    if (err < 0)
        return -1;
    if (st->find_all)
        return len;
    b->live[i / WORD_BITS] &= ~((word_t)1 << (i % WORD_BITS));
    drop_range(b, i + 1, b->group_end[i]);
    b->kills++;
    return keep_live(b, set, len);
}

/* rec() over the union: alive holds the graphs whose own search visits
   the current prefix. Returns 1 to stop the whole search (budget), 0 to go
   on, -1 on a Python error. */
static int
batch_rec(Batch *b, Part *alive, Py_ssize_t len, mask_t forbidden, int cur_min,
          mask_t exhausted, int deficient)
{
    State *st = &b->st;
    const int n = st->n;
    Undo old;
    Part *sub = alive + len;
    unsigned long long kills = b->kills;

    for (int c = 1; c <= n; c++) {
        if (blocked(st, c, forbidden))
            continue;
        mask_t bad = repeats(st, c);
        mask_t cut_nonedge = 0;
        if (st->counts[c] + 1 == st->max_copies)
            cut_nonedge = exhausted & b->any_nonedge[c] & ~(st->nonalt[c] | bad);
        Py_ssize_t sublen = narrow(b, c, alive, len, sub, bad & b->any_edge[c],
                                   cut_nonedge);
        if (sublen == 0)
            continue;
        if (b->limit && st->nodes == b->limit) {
            b->aborted = 1;
            return 1;
        }
        st->nodes++;
        tally(b->node_planes, sub, sublen);

        push(st, c, bad, &old);
        Frame ch = child(st, c, forbidden, cur_min, exhausted, deficient);
        int stop = 0;
        if (ch.deficient == 0) {
            tally(b->leaf_planes, sub, sublen);
            sublen = leaf(b, sub, sublen);
            if (sublen < 0)
                return -1;
        }
        if (sublen)
            stop = batch_rec(b, sub, sublen, ch.forbidden, ch.cur_min, ch.exhausted,
                             ch.deficient);
        pop(st, c, bad, &old);
        if (stop)
            return stop;
        if (b->kills != kills) {
            kills = b->kills;
            len = keep_live(b, alive, len);
            if (len == 0)
                break;
        }
    }
    return 0;
}

/* Per graph, the total that the bit-sliced planes hold. */
static void
totals(const Batch *b, const word_t *planes, unsigned long long *out)
{
    for (Py_ssize_t j = 0; j < b->words; j++)
        for (int q = 0; q < PLANES; q++)
            for (word_t w = planes[j * PLANES + q]; w; w &= w - 1)
                out[j * WORD_BITS + __builtin_ctzll(w)] += 1ULL << q;
}

/* Fills the batch's tables from its rows; -1 with an error set. */
static int
batch_tables(Batch *b, const char *rows)
{
    const int n = b->st.n;
    const Py_ssize_t words = b->words;
    size_t size = 2;
    while (size < 2 * (size_t)b->count)
        size *= 2;
    b->table_mask = size - 1;
    b->nonedges = PyMem_Calloc((size_t)b->count * (MAX_N + 1), sizeof(mask_t));
    b->with_edge = PyMem_Calloc((size_t)(MAX_N + 1) * (MAX_N + 1) * words,
                                sizeof(word_t));
    b->table = PyMem_Malloc(size * sizeof(Py_ssize_t));
    b->live = PyMem_Calloc((size_t)words, sizeof(word_t));
    b->dropped = PyMem_Calloc((size_t)words, sizeof(word_t));
    b->node_planes = PyMem_Calloc((size_t)words * PLANES, sizeof(word_t));
    b->leaf_planes = PyMem_Calloc((size_t)words * PLANES, sizeof(word_t));
    b->stack = PyMem_Malloc((size_t)(n * b->st.max_copies + 1) * words * sizeof(Part));
    if (!b->nonedges || !b->with_edge || !b->table || !b->live || !b->dropped
        || !b->node_planes || !b->leaf_planes || !b->stack) {
        PyErr_NoMemory();
        return -1;
    }
    for (size_t slot = 0; slot < size; slot++)
        b->table[slot] = -1;
    for (Py_ssize_t i = 0; i < b->count; i++) {
        mask_t adj[MAX_N + 1];
        read_row(rows + i * ROW_BYTES, n, adj);
        mask_t *nonedge = b->nonedges + i * (MAX_N + 1);
        word_t bit = (word_t)1 << (i % WORD_BITS);
        for (int c = 1; c <= n; c++) {
            nonedge[c] = b->st.full & ~adj[c] & ~((mask_t)1 << c);
            b->any_edge[c] |= adj[c];
            b->any_nonedge[c] |= nonedge[c];
            for (int y = 1; y <= n; y++)
                if (adj[c] >> y & 1)
                    b->with_edge[((size_t)c * (MAX_N + 1) + y) * words + i / WORD_BITS]
                        |= bit;
        }
        b->live[i / WORD_BITS] |= bit;
        size_t slot = target_hash(nonedge, n) & b->table_mask;
        while (b->table[slot] >= 0)  /* the targets are distinct */
            slot = (slot + 1) & b->table_mask;
        b->table[slot] = i;
    }
    return 0;
}

/* The batch's results from one DFS over the union of its rows' searches;
   Py_None if the union would pass its budget; NULL on error. */
static PyObject *
union_search(Batch *b, const char *rows)
{
    if (batch_tables(b, rows) < 0)
        return NULL;
    b->lists = PyList_New(b->count);
    if (b->lists == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < b->count; i++) {
        PyObject *list = PyList_New(0);
        if (list == NULL)
            return NULL;
        PyList_SET_ITEM(b->lists, i, list);
    }
    Part *root = b->stack;
    for (Py_ssize_t j = 0; j < b->words; j++) {
        root[j].idx = j;
        root[j].bits = b->live[j];
    }
    if (batch_rec(b, root, b->words, 0, 0, 0, b->st.n) < 0)
        return NULL;
    if (b->aborted)
        Py_RETURN_NONE;
    unsigned long long *nodes = PyMem_Calloc((size_t)b->words * WORD_BITS,
                                             sizeof *nodes);
    unsigned long long *tested = PyMem_Calloc((size_t)b->words * WORD_BITS,
                                              sizeof *tested);
    PyObject *out = NULL;
    if (nodes == NULL || tested == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    totals(b, b->node_planes, nodes);
    totals(b, b->leaf_planes, tested);
    out = PyList_New(b->count);
    for (Py_ssize_t i = 0; out != NULL && i < b->count; i++) {
        PyObject *res = b->dropped[i / WORD_BITS] >> (i % WORD_BITS) & 1
            ? Py_NewRef(Py_None)
            : Py_BuildValue("(OKKO)", PyList_GET_ITEM(b->lists, i), nodes[i],
                            tested[i], Py_False);
        if (res == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, res);
    }
done:
    PyMem_Free(nodes);
    PyMem_Free(tested);
    return out;
}

static void
batch_free(Batch *b)
{
    PyMem_Free(b->group_end);
    PyMem_Free(b->nonedges);
    PyMem_Free(b->with_edge);
    PyMem_Free(b->table);
    PyMem_Free(b->live);
    PyMem_Free(b->dropped);
    PyMem_Free(b->node_planes);
    PyMem_Free(b->leaf_planes);
    PyMem_Free(b->stack);
    Py_XDECREF(b->lists);
}

/* Reads a batch's shape, its rows as bytes and its group sizes as a list,
   into b->count and b->group_end; -1 with an error set. The driver has
   checked the shape, but every length that an index below depends on is
   checked again here, so a shape that does not fit its rows raises
   instead of reading out of bounds; repeated rows stay in bounds. */
static int
read_shape(Batch *b, PyObject *rows, PyObject *sizes)
{
    long long size;
    b->count = PyBytes_GET_SIZE(rows) / ROW_BYTES;
    b->group_end = PyMem_Malloc((size_t)(b->count + 1) * sizeof(Py_ssize_t));
    if (b->group_end == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t start = 0, g = 0;
    for (; g < PyList_GET_SIZE(sizes); g++) {
        if (!clamped(PyList_GET_ITEM(sizes, g), &size))
            return -1;
        if (size < 1 || size > b->count - start)
            break;
        for (Py_ssize_t i = start; i < start + size; i++)
            b->group_end[i] = start + size;
        start += size;
    }
    if (g < PyList_GET_SIZE(sizes) || start != b->count
        || PyBytes_GET_SIZE(rows) % ROW_BYTES)
        return unfit();
    return 0;
}

/* _search_graph(n, row, min_copies, max_copies, forbid_132, find_all,
   node_budget): the search of one row's graph. */
static PyObject *
search_graph(PyObject *self, PyObject *args)
{
    PyObject *n, *row, *min_copies, *max_copies, *budget;
    State st;
    (void)self;

    memset(&st, 0, sizeof st);
    if (!PyArg_ParseTuple(args, "OSOOppO:_search_graph", &n, &row, &min_copies,
                          &max_copies, &st.forbid_132, &st.find_all, &budget)
        || read_letters(&st, n, min_copies, max_copies) < 0
        || read_budget(budget, &st.budget) < 0
        || (PyBytes_GET_SIZE(row) != ROW_BYTES && unfit() < 0))
        return NULL;
    read_row(PyBytes_AS_STRING(row), st.n, st.adj);
    for (int c = 1; c <= st.n; c++)
        st.nonedge[c] = st.full & ~st.adj[c] & ~((mask_t)1 << c);
    return search(&st);
}

/* _union_search(n, rows, node_budget, group_sizes, min_copies, max_copies,
   forbid_132, find_all): the batch's results from one DFS over the union,
   or None if the union would pass node_budget. */
static PyObject *
batch_search(PyObject *self, PyObject *args)
{
    PyObject *n, *rows, *budget, *sizes, *min_copies, *max_copies, *out = NULL;
    Batch b;
    (void)self;

    memset(&b, 0, sizeof b);
    if (!PyArg_ParseTuple(args, "OSOO!OOpp:_union_search", &n, &rows, &budget,
                          &PyList_Type, &sizes, &min_copies, &max_copies,
                          &b.st.forbid_132, &b.st.find_all)
        || read_letters(&b.st, n, min_copies, max_copies) < 0
        || read_budget(budget, &b.limit) < 0
        || read_shape(&b, rows, sizes) < 0)
        goto done;
    b.words = (b.count + WORD_BITS - 1) / WORD_BITS;
    out = union_search(&b, PyBytes_AS_STRING(rows));
done:
    batch_free(&b);
    return out;
}

static PyMethodDef kernel_methods[] = {
    {"_search_graph", search_graph, METH_VARARGS, NULL},
    {"_union_search", batch_search, METH_VARARGS, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "rep132._kernel",
    "Compiled DFS kernel; exact twin of rep132._kernel_py (see its docstring).",
    0,
    kernel_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

/* The module, with run_batch and run_search over its two traversals from
   _kernel_py.driver. */
PyMODINIT_FUNC
PyInit__kernel(void)
{
    PyObject *kernel_py = PyImport_ImportModule("rep132._kernel_py");
    if (kernel_py == NULL)
        return NULL;
    PyObject *module = PyModule_Create(&kernel_module);
    PyObject *pair = NULL, *run_batch, *run_search;
    if (module != NULL)
        pair = PyObject_CallMethod(kernel_py, "driver", "O", module);
    if (pair == NULL || !PyArg_ParseTuple(pair, "OO", &run_batch, &run_search)
        || PyModule_AddObjectRef(module, "run_batch", run_batch) < 0
        || PyModule_AddObjectRef(module, "run_search", run_search) < 0
        || PyModule_AddIntConstant(module, "MAX_N", MAX_N) < 0)
        Py_CLEAR(module);
    Py_XDECREF(pair);
    Py_DECREF(kernel_py);
    return module;
}
