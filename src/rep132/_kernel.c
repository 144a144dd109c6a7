/* Compiled DFS kernel: exact twin of rep132._kernel_py (see its docstring).

   rec() has the same traversal and results as the Python reference's
   rec(), checked call by call: the same child order, prunes, node and word
   counts, budget rule and witness order. The Python kernel packs
   seen_since and nonalt into two ints; here they stay arrays copied per
   node, since a memcpy of 16 words costs next to nothing in C. Any change
   to the traversal must be mirrored there.

   The module can be imported and called directly, so run_search checks by
   itself every argument that its fixed-size arrays rely on, in the order of
   _kernel_py.check_arguments and with the same ValueError messages. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <string.h>

#define MAX_N 15      /* letters 1..MAX_N; bit c of a mask is letter c */
#define MAX_DEPTH 64  /* longest word: n * max_copies */

typedef unsigned int mask_t;

typedef struct {
    int n, min_copies, max_copies;
    int forbid_132, find_all, prune_pattern, prune_edges, prune_exhausted;
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

/* Appends the current prefix to st->witnesses as a tuple; -1 on error. */
static int
add_witness(State *st)
{
    PyObject *word = PyTuple_New(st->depth);
    if (word == NULL)
        return -1;
    for (int i = 0; i < st->depth; i++) {
        PyObject *letter = PyLong_FromLong(st->prefix[i]);
        if (letter == NULL) {
            Py_DECREF(word);
            return -1;
        }
        PyTuple_SET_ITEM(word, i, letter);
    }
    int err = PyList_Append(st->witnesses, word);
    Py_DECREF(word);
    return err;
}

/* Returns 1 to stop the whole search, 0 to go on, -1 on a Python error. */
static int
rec(State *st, mask_t forbidden, int cur_min, int has132, mask_t exhausted,
    int deficient)
{
    const int n = st->n;
    mask_t old_ss[MAX_N + 1], old_na[MAX_N + 1];

    for (int c = 1; c <= n; c++) {
        if (st->counts[c] == st->max_copies)
            continue;
        mask_t bitc = (mask_t)1 << c;
        int creates132 = (forbidden & bitc) != 0;
        if (st->prune_pattern && st->forbid_132 && creates132)
            continue;
        mask_t bad = st->counts[c] ? st->full & ~bitc & ~st->seen_since[c] : 0;
        if (st->prune_edges && (bad & st->adj[c]))
            continue;
        if (st->prune_exhausted && st->counts[c] + 1 == st->max_copies
            && (exhausted & st->nonedge[c] & ~(st->nonalt[c] | bad)))
            continue;
        if (st->budget && st->nodes >= st->budget) {
            st->exceeded = 1;
            return 1;
        }
        st->nodes++;

        st->counts[c]++;
        st->prefix[st->depth++] = c;
        memcpy(old_ss, st->seen_since, sizeof old_ss);
        st->seen_since[c] = 0;
        for (int y = 1; y <= n; y++)
            if (y != c)
                st->seen_since[y] |= bitc;
        if (bad) {
            memcpy(old_na, st->nonalt, sizeof old_na);
            st->nonalt[c] |= bad;
            for (int y = 1; y <= n; y++)
                if (bad >> y & 1)
                    st->nonalt[y] |= bitc;
        }

        int ch_has132 = has132 || creates132;
        mask_t ch_forb = forbidden;
        if (0 < cur_min && cur_min < c)
            ch_forb |= (bitc - 1) & ~(((mask_t)1 << (cur_min + 1)) - 1);
        int ch_min = (cur_min == 0 || c < cur_min) ? c : cur_min;
        mask_t ch_exh = exhausted | (st->counts[c] == st->max_copies ? bitc : 0);
        int ch_def = st->counts[c] == st->min_copies ? deficient - 1 : deficient;

        int stop = 0;
        if (ch_def == 0) {
            st->tested++;
            int ok = !(st->forbid_132 && ch_has132);
            for (int x = 1; ok && x <= n; x++)
                ok = st->nonalt[x] == st->nonedge[x];
            if (ok) {
                if (add_witness(st) < 0)
                    return -1;
                stop = !st->find_all;
            }
        }
        if (!stop)
            stop = rec(st, ch_forb, ch_min, ch_has132, ch_exh, ch_def);

        st->counts[c]--;
        st->depth--;
        memcpy(st->seen_since, old_ss, sizeof old_ss);
        if (bad)
            memcpy(st->nonalt, old_na, sizeof old_na);
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

/* Reads adj[1..n] into st->adj and st->nonedge; -1 with an error set. */
static int
read_masks(State *st, PyObject *adj)
{
    Py_ssize_t len = PySequence_Size(adj);
    if (len < 0)
        return -1;
    if (len != st->n + 1) {
        PyErr_Format(PyExc_ValueError, "need n + 1 = %d adjacency masks, got %zd",
                     st->n + 1, len);
        return -1;
    }
    for (int v = 1; v <= st->n; v++) {
        PyObject *item = PySequence_GetItem(adj, v);
        if (item == NULL)
            return -1;
        long long mask;
        int ok = clamped(item, &mask);
        Py_DECREF(item);
        if (!ok)
            return -1;
        /* a negative mask has every high bit set, as in Python */
        if (mask & ~(long long)st->full) {
            PyErr_Format(PyExc_ValueError, "adjacency mask %d has bits outside 1..%d",
                         v, st->n);
            return -1;
        }
        st->adj[v] = (mask_t)mask;
        st->nonedge[v] = st->full & ~st->adj[v] & ~((mask_t)1 << v);
    }
    return 0;
}

PyDoc_STRVAR(run_search_doc,
"run_search(n, adj, min_copies, max_copies, forbid_132, find_all,\n"
"           node_budget=None, prune_pattern=True, prune_edges=True,\n"
"           prune_exhausted=True)\n"
"--\n\n"
"Returns (witnesses, nodes, words_tested, budget_exceeded).\n\n"
"Same contract as rep132._kernel_py.run_search.");

static PyObject *
run_search(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "adj", "min_copies", "max_copies", "forbid_132",
                             "find_all", "node_budget", "prune_pattern",
                             "prune_edges", "prune_exhausted", NULL};
    long long n, min_copies, max_copies, budget = 0;
    PyObject *adj, *budget_obj = Py_None;
    State st;
    (void)self;

    memset(&st, 0, sizeof st);
    st.prune_pattern = st.prune_edges = st.prune_exhausted = 1;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O&OO&O&pp|Oppp:run_search", kwlist,
                                     clamped, &n, &adj, clamped, &min_copies,
                                     clamped, &max_copies, &st.forbid_132,
                                     &st.find_all, &budget_obj, &st.prune_pattern,
                                     &st.prune_edges, &st.prune_exhausted))
        return NULL;
    if (n < 1 || n > MAX_N)
        return PyErr_Format(PyExc_ValueError, "n must be in 1..%d", MAX_N);
    if (min_copies < 1 || min_copies > max_copies)
        return PyErr_Format(PyExc_ValueError, "need 1 <= min_copies <= max_copies");
    if (max_copies > MAX_DEPTH / n)  /* n * max_copies > MAX_DEPTH, unoverflowed */
        return PyErr_Format(PyExc_ValueError, "n * max_copies must be at most %d",
                            MAX_DEPTH);
    if (budget_obj != Py_None && !clamped(budget_obj, &budget))
        return NULL;
    if (budget < 0)
        return PyErr_Format(PyExc_ValueError, "node_budget must not be negative");
    st.n = (int)n;
    st.min_copies = (int)min_copies;
    st.max_copies = (int)max_copies;
    st.budget = (unsigned long long)budget;  /* 0 means unlimited */
    st.full = ((mask_t)1 << (n + 1)) - 2;  /* bits 1..n */
    if (read_masks(&st, adj) < 0)
        return NULL;

    st.witnesses = PyList_New(0);
    if (st.witnesses == NULL)
        return NULL;
    if (rec(&st, 0, 0, 0, 0, st.n) < 0) {
        Py_DECREF(st.witnesses);
        return NULL;
    }
    return Py_BuildValue("(NKKO)", st.witnesses, st.nodes, st.tested,
                         st.exceeded ? Py_True : Py_False);
}

static PyMethodDef kernel_methods[] = {
    {"run_search", (PyCFunction)(void (*)(void))run_search,
     METH_VARARGS | METH_KEYWORDS, run_search_doc},
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

PyMODINIT_FUNC
PyInit__kernel(void)
{
    PyObject *module = PyModule_Create(&kernel_module);
    if (module != NULL && PyModule_AddIntConstant(module, "MAX_N", MAX_N) < 0) {
        Py_CLEAR(module);
    }
    return module;
}
