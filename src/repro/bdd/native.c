/*
 * Native kernels of the arena BDD engine (the "native" backend).
 *
 * This is the C twin of the closures in repro/bdd/arena.py: the same node
 * references (index << 1 | complement bit, TRUE == 0, FALSE == 1), the same
 * canonical form (the stored high edge is regular), and for every kernel the
 * same algorithm frame for frame -- the same simplifications in the same
 * order, the same computed-table keys, the same recursion order and the same
 * counter bumps and governor ticks.  On any operation sequence the native and
 * the Python arena therefore hand out identical references and statistics;
 * the conformance suite checks exactly that.
 *
 * Representation:
 *   - nodes: one growable array of (level, low, high) uint32 triples;
 *   - the unique table: open addressing over node indices (0 = empty slot);
 *   - computed tables (AND, ITE, quantification, the caller-owned product
 *     memos): exact, growable open-addressing maps from a uint32 triple to a
 *     uint32 result.  Nothing is ever overwritten by a colliding key, so a
 *     lookup misses exactly when the Python arena's dict lookup misses.
 *
 * Errors (a governor's BudgetExceeded, capacity, memory) unwind as ERR with
 * the Python exception set; an unfinished frame writes no computed-table
 * entry, and every node already constructed stays valid.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define ERR 0xFFFFFFFFu
/* Must equal repro.bdd.arena.TERMINAL_LEVEL. */
#define TERMINAL_LEVEL 0x7FFFu
/* Largest node count: keeps every reference below ERR. */
#define MAX_NODES 0x7FFFFFFFu
#define MIN_TABLE 256

static PyObject *capacity_error; /* repro.bdd.arena.ArenaCapacityError */
static PyObject *str_steps, *str_poll, *str_to_bytes, *str_little, *str_poll_stride;

/* -- exact hash tables ------------------------------------------------------ */

typedef struct { uint32_t level, low, high; } Node;
typedef struct { uint32_t k1, k2, k3, value; } Slot; /* k1 == ERR: empty */
typedef struct { Slot *slots; size_t mask; size_t used; } Table;

static inline size_t hash3(uint32_t a, uint32_t b, uint32_t c)
{
    uint64_t h = (((uint64_t)a << 32) | b) * 0x9E3779B97F4A7C15ull;
    h ^= (uint64_t)c * 0xC2B2AE3D27D4EB4Full;
    h ^= h >> 31;
    h *= 0xD6E8FEB86659FD93ull;
    h ^= h >> 32;
    return (size_t)h;
}

static inline int table_get(const Table *t, uint32_t a, uint32_t b, uint32_t c, uint32_t *out)
{
    if (!t->slots)
        return 0;
    size_t i = hash3(a, b, c) & t->mask;
    for (;;) {
        const Slot *s = &t->slots[i];
        if (s->k1 == ERR)
            return 0;
        if (s->k1 == a && s->k2 == b && s->k3 == c) {
            *out = s->value;
            return 1;
        }
        i = (i + 1) & t->mask;
    }
}

static int table_resize(Table *t, size_t capacity)
{
    Slot *slots = PyMem_RawMalloc(capacity * sizeof(Slot));
    if (!slots) {
        PyErr_NoMemory();
        return -1;
    }
    memset(slots, 0xFF, capacity * sizeof(Slot));
    size_t mask = capacity - 1;
    if (t->slots) {
        for (size_t j = 0; j <= t->mask; j++) {
            Slot s = t->slots[j];
            if (s.k1 == ERR)
                continue;
            size_t i = hash3(s.k1, s.k2, s.k3) & mask;
            while (slots[i].k1 != ERR)
                i = (i + 1) & mask;
            slots[i] = s;
        }
        PyMem_RawFree(t->slots);
    }
    t->slots = slots;
    t->mask = mask;
    return 0;
}

static int table_put(Table *t, uint32_t a, uint32_t b, uint32_t c, uint32_t value)
{
    size_t capacity = t->slots ? t->mask + 1 : 0;
    if ((t->used + 1) * 3 > capacity * 2
        && table_resize(t, capacity ? 2 * capacity : MIN_TABLE) < 0)
        return -1;
    size_t i = hash3(a, b, c) & t->mask;
    for (;;) {
        Slot *s = &t->slots[i];
        if (s->k1 == ERR) {
            *s = (Slot){a, b, c, value};
            t->used++;
            return 0;
        }
        if (s->k1 == a && s->k2 == b && s->k3 == c) {
            s->value = value;
            return 0;
        }
        i = (i + 1) & t->mask;
    }
}

static void table_clear(Table *t)
{
    PyMem_RawFree(t->slots);
    t->slots = NULL;
    t->mask = 0;
    t->used = 0;
}

/* -- Memo: a computed table visible to Python (clear() and len()) ---------- */

typedef struct {
    PyObject_HEAD
    Table table;
    /* A product memo is stamped by the arena that made it (new_memo): its
     * serial, and the collection count its entries belong to. */
    uint64_t serial, generation;
} MemoObject;

static void Memo_dealloc(MemoObject *self)
{
    table_clear(&self->table);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *Memo_clear(MemoObject *self, PyObject *Py_UNUSED(ignored))
{
    table_clear(&self->table);
    Py_RETURN_NONE;
}

static Py_ssize_t Memo_len(MemoObject *self)
{
    return (Py_ssize_t)self->table.used;
}

static PyMethodDef Memo_methods[] = {
    {"clear", (PyCFunction)Memo_clear, METH_NOARGS, "Drop every entry."},
    {NULL},
};

static PySequenceMethods Memo_as_sequence = {.sq_length = (lenfunc)Memo_len};

static PyTypeObject MemoType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.bdd._native.Memo",
    .tp_doc = "An exact computed table (a relational-product memo or a kernel cache).",
    .tp_basicsize = sizeof(MemoObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_dealloc = (destructor)Memo_dealloc,
    .tp_methods = Memo_methods,
    .tp_as_sequence = &Memo_as_sequence,
};

/* -- the arena -------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    Node *nodes;
    uint32_t count, capacity;
    uint32_t *unique; /* node indices; 0 marks an empty slot */
    size_t umask;
    MemoObject *and_cache, *ite_cache, *quant_cache;
    uint64_t ite_calls, ite_hits;
    uint8_t **qsets; /* per quantifier tag: bitmap of the quantified levels */
    size_t nqsets;
    PyObject *governor; /* NULL when ungoverned */
    uint64_t steps, stride_mask;
    uint64_t serial, generation; /* identity; garbage collections so far */
} ArenaObject;

static uint64_t arena_serials;

static inline size_t hash_node(uint32_t level, uint32_t low, uint32_t high)
{
    return hash3(low, high, level);
}

static int unique_resize(ArenaObject *A, size_t capacity)
{
    uint32_t *slots = PyMem_RawCalloc(capacity, sizeof(uint32_t));
    if (!slots) {
        PyErr_NoMemory();
        return -1;
    }
    size_t mask = capacity - 1;
    for (uint32_t index = 1; index < A->count; index++) {
        Node n = A->nodes[index];
        size_t i = hash_node(n.level, n.low, n.high) & mask;
        while (slots[i])
            i = (i + 1) & mask;
        slots[i] = index;
    }
    PyMem_RawFree(A->unique);
    A->unique = slots;
    A->umask = mask;
    return 0;
}

/* Hash-consed constructor (complement-edge canonical form), as arena _mk. */
static uint32_t mk(ArenaObject *A, uint32_t level, uint32_t low, uint32_t high)
{
    if (low == high)
        return low;
    uint32_t sign = high & 1;
    if (sign) {
        low ^= 1;
        high ^= 1;
    }
    size_t i = hash_node(level, low, high) & A->umask;
    uint32_t index;
    while ((index = A->unique[i]) != 0) {
        const Node *n = &A->nodes[index];
        if (n->low == low && n->high == high && n->level == level)
            return (index << 1) | sign;
        i = (i + 1) & A->umask;
    }
    index = A->count;
    if (index >= MAX_NODES) {
        PyErr_Format(capacity_error, "native node table exceeded %u nodes", MAX_NODES);
        return ERR;
    }
    if (index == A->capacity) {
        uint32_t capacity = A->capacity > MAX_NODES / 2 ? MAX_NODES : 2 * A->capacity;
        Node *nodes = PyMem_RawRealloc(A->nodes, (size_t)capacity * sizeof(Node));
        if (!nodes) {
            PyErr_NoMemory();
            return ERR;
        }
        A->nodes = nodes;
        A->capacity = capacity;
    }
    A->nodes[index] = (Node){level, low, high};
    A->count++;
    A->unique[i] = index;
    /* Keep the unique table at most half full (count - 1 stored nodes). */
    if ((size_t)(A->count - 1) * 2 > A->umask + 1
        && unique_resize(A, 2 * (A->umask + 1)) < 0)
        return ERR;
    return (index << 1) | sign;
}

/* -- the cooperative governor ---------------------------------------------- */

/* ResourceGovernor.tick(): count a step, poll on POLL_STRIDE boundaries.
 * The step count lives here during a kernel call and is written back to
 * governor.steps before every poll() and when the call returns. */
static int poll_governor(ArenaObject *A)
{
    PyObject *steps = PyLong_FromUnsignedLongLong(A->steps);
    if (!steps)
        return -1;
    int status = PyObject_SetAttr(A->governor, str_steps, steps);
    Py_DECREF(steps);
    if (status < 0)
        return -1;
    PyObject *result = PyObject_CallMethodNoArgs(A->governor, str_poll);
    if (!result)
        return -1;
    Py_DECREF(result);
    return 0;
}

#define TICK(A)                                                                \
    do {                                                                       \
        if ((A)->governor && !(++(A)->steps & (A)->stride_mask)                \
            && poll_governor(A) < 0)                                           \
            return ERR;                                                        \
    } while (0)

static int governor_enter(ArenaObject *A)
{
    if (!A->governor)
        return 0;
    PyObject *steps = PyObject_GetAttr(A->governor, str_steps);
    if (!steps)
        return -1;
    A->steps = PyLong_AsUnsignedLongLong(steps);
    Py_DECREF(steps);
    return (A->steps == (uint64_t)-1 && PyErr_Occurred()) ? -1 : 0;
}

/* Write the step count back and box the kernel's result (NULL on ERR). */
static PyObject *governor_exit(ArenaObject *A, uint32_t result)
{
    if (A->governor) {
        PyObject *type, *value, *traceback;
        PyErr_Fetch(&type, &value, &traceback);
        PyObject *steps = PyLong_FromUnsignedLongLong(A->steps);
        int status = steps ? PyObject_SetAttr(A->governor, str_steps, steps) : -1;
        Py_XDECREF(steps);
        if (type) {
            if (status < 0)
                PyErr_Clear();
            PyErr_Restore(type, value, traceback); /* re-raised unchanged */
        } else if (status < 0) {
            return NULL;
        }
    }
    if (result == ERR)
        return NULL;
    return PyLong_FromUnsignedLong(result);
}

/* -- kernels (frame for frame the closures of ArenaBDDManager) ------------- */

static uint32_t k_and(ArenaObject *A, uint32_t a, uint32_t b)
{
    A->ite_calls++;
    TICK(A);
    if (a == 1 || b == 1)
        return 1;
    if (a == 0)
        return b;
    if (b == 0 || a == b)
        return a;
    if ((a ^ b) == 1)
        return 1;
    if (a > b) {
        uint32_t t = a;
        a = b;
        b = t;
    }
    uint32_t result;
    if (table_get(&A->and_cache->table, a, b, 0, &result)) {
        A->ite_hits++;
        return result;
    }
    Node na = A->nodes[a >> 1], nb = A->nodes[b >> 1];
    uint32_t level, low_a, high_a, low_b, high_b;
    if (na.level <= nb.level) {
        level = na.level;
        uint32_t sign = a & 1;
        low_a = na.low ^ sign;
        high_a = na.high ^ sign;
    } else {
        level = nb.level;
        low_a = high_a = a;
    }
    if (nb.level <= na.level) {
        uint32_t sign = b & 1;
        low_b = nb.low ^ sign;
        high_b = nb.high ^ sign;
    } else {
        low_b = high_b = b;
    }
    uint32_t low = k_and(A, low_a, low_b);
    if (low == ERR)
        return ERR;
    uint32_t high = k_and(A, high_a, high_b);
    if (high == ERR)
        return ERR;
    result = mk(A, level, low, high);
    if (result == ERR || table_put(&A->and_cache->table, a, b, 0, result) < 0)
        return ERR;
    return result;
}

static uint32_t k_ite(ArenaObject *A, uint32_t f, uint32_t g, uint32_t h)
{
    A->ite_calls++;
    TICK(A);
    if (f == 0)
        return g;
    if (f == 1)
        return h;
    if (g == h)
        return g;
    if (g == f)
        g = 0;
    else if (g == (f ^ 1))
        g = 1;
    if (h == f)
        h = 1;
    else if (h == (f ^ 1))
        h = 0;
    if (g == h)
        return g;
    if (g == 0 && h == 1)
        return f;
    if (g == 1 && h == 0)
        return f ^ 1;
    uint32_t r;
    if (h == 1)
        return k_and(A, f, g);
    if (g == 1)
        return k_and(A, f ^ 1, h);
    if (g == 0)
        return (r = k_and(A, f ^ 1, h ^ 1)) == ERR ? ERR : r ^ 1;
    if (h == 0)
        return (r = k_and(A, f, g ^ 1)) == ERR ? ERR : r ^ 1;
    if (f & 1) {
        uint32_t t = g;
        f ^= 1;
        g = h;
        h = t;
    }
    uint32_t sign = g & 1;
    if (sign) {
        g ^= 1;
        h ^= 1;
    }
    uint32_t result;
    if (table_get(&A->ite_cache->table, f, g, h, &result)) {
        A->ite_hits++;
        return result ^ sign;
    }
    Node nf = A->nodes[f >> 1], ng = A->nodes[g >> 1], nh = A->nodes[h >> 1];
    uint32_t level = nf.level;
    if (ng.level < level)
        level = ng.level;
    if (nh.level < level)
        level = nh.level;
    uint32_t f_low, f_high, g_low, g_high, h_low, h_high;
    if (nf.level == level) {
        uint32_t s = f & 1;
        f_low = nf.low ^ s;
        f_high = nf.high ^ s;
    } else {
        f_low = f_high = f;
    }
    if (ng.level == level) {
        g_low = ng.low;
        g_high = ng.high;
    } else {
        g_low = g_high = g;
    }
    if (nh.level == level) {
        uint32_t s = h & 1;
        h_low = nh.low ^ s;
        h_high = nh.high ^ s;
    } else {
        h_low = h_high = h;
    }
    uint32_t low = k_ite(A, f_low, g_low, h_low);
    if (low == ERR)
        return ERR;
    uint32_t high = k_ite(A, f_high, g_high, h_high);
    if (high == ERR)
        return ERR;
    result = mk(A, level, low, high);
    if (result == ERR || table_put(&A->ite_cache->table, f, g, h, result) < 0)
        return ERR;
    return result ^ sign;
}

static inline int quantified(const uint8_t *qset, uint32_t level)
{
    return (qset[level >> 3] >> (level & 7)) & 1;
}

static uint32_t k_exists(ArenaObject *A, uint32_t node, const uint8_t *qset,
                         uint32_t maxlevel, uint32_t tag)
{
    if (node <= 1)
        return node;
    TICK(A);
    Node n = A->nodes[node >> 1];
    if (n.level > maxlevel)
        return node;
    uint32_t result;
    if (table_get(&A->quant_cache->table, node, tag, 0, &result))
        return result;
    uint32_t sign = node & 1;
    uint32_t low_q = k_exists(A, n.low ^ sign, qset, maxlevel, tag);
    if (low_q == ERR)
        return ERR;
    if (quantified(qset, n.level)) {
        if (low_q == 0) {
            result = 0;
        } else {
            uint32_t high_q = k_exists(A, n.high ^ sign, qset, maxlevel, tag);
            if (high_q == ERR)
                return ERR;
            result = k_and(A, low_q ^ 1, high_q ^ 1);
            if (result == ERR)
                return ERR;
            result ^= 1;
        }
    } else {
        uint32_t high_q = k_exists(A, n.high ^ sign, qset, maxlevel, tag);
        if (high_q == ERR)
            return ERR;
        result = mk(A, n.level, low_q, high_q);
        if (result == ERR)
            return ERR;
    }
    if (table_put(&A->quant_cache->table, node, tag, 0, result) < 0)
        return ERR;
    return result;
}

static uint32_t k_and_exists(ArenaObject *A, uint32_t a, uint32_t b, const uint8_t *qset,
                             uint32_t maxlevel, uint32_t tag, Table *memo)
{
    A->ite_calls++;
    TICK(A);
    if (a == 1 || b == 1 || (a ^ b) == 1)
        return 1;
    if (a == 0)
        return k_exists(A, b, qset, maxlevel, tag);
    if (b == 0 || a == b)
        return k_exists(A, a, qset, maxlevel, tag);
    if (a > b) {
        uint32_t t = a;
        a = b;
        b = t;
    }
    Node na = A->nodes[a >> 1], nb = A->nodes[b >> 1];
    uint32_t level = na.level <= nb.level ? na.level : nb.level;
    if (level > maxlevel)
        return k_and(A, a, b); /* below every quantified variable */
    uint32_t result;
    if (table_get(memo, a, b, 0, &result)) {
        A->ite_hits++;
        return result;
    }
    uint32_t low_a, high_a, low_b, high_b;
    if (na.level <= nb.level) {
        uint32_t sign = a & 1;
        low_a = na.low ^ sign;
        high_a = na.high ^ sign;
    } else {
        low_a = high_a = a;
    }
    if (nb.level <= na.level) {
        uint32_t sign = b & 1;
        low_b = nb.low ^ sign;
        high_b = nb.high ^ sign;
    } else {
        low_b = high_b = b;
    }
    uint32_t low = k_and_exists(A, low_a, low_b, qset, maxlevel, tag, memo);
    if (low == ERR)
        return ERR;
    if (quantified(qset, level)) {
        if (low == 0) {
            result = 0;
        } else {
            uint32_t high = k_and_exists(A, high_a, high_b, qset, maxlevel, tag, memo);
            if (high == ERR)
                return ERR;
            result = k_and(A, low ^ 1, high ^ 1);
            if (result == ERR)
                return ERR;
            result ^= 1;
        }
    } else {
        uint32_t high = k_and_exists(A, high_a, high_b, qset, maxlevel, tag, memo);
        if (high == ERR)
            return ERR;
        result = mk(A, level, low, high);
        if (result == ERR)
            return ERR;
    }
    if (table_put(memo, a, b, 0, result) < 0)
        return ERR;
    return result;
}

/* -- argument helpers ------------------------------------------------------- */

static int arg_u32(PyObject *object, uint32_t *out)
{
    unsigned long value = PyLong_AsUnsignedLong(object);
    if (value == (unsigned long)-1 && PyErr_Occurred())
        return -1;
    if (value >= ERR) {
        PyErr_SetString(PyExc_OverflowError, "value out of range for the native arena");
        return -1;
    }
    *out = (uint32_t)value;
    return 0;
}

static int arg_ref(ArenaObject *A, PyObject *object, uint32_t *out)
{
    if (arg_u32(object, out) < 0)
        return -1;
    if ((*out >> 1) >= A->count) {
        PyErr_Format(PyExc_IndexError, "node reference %u is not in this arena", *out);
        return -1;
    }
    return 0;
}

static int arg_level(PyObject *object, uint32_t *out)
{
    if (arg_u32(object, out) < 0)
        return -1;
    if (*out >= TERMINAL_LEVEL) {
        PyErr_Format(PyExc_ValueError, "variable level %u out of range", *out);
        return -1;
    }
    return 0;
}

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t expected)
{
    if (nargs == expected)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, expected, nargs);
    return -1;
}

/* The caller-owned memo argument of a kernel: NULL (with the error set) unless
 * it came from this arena's new_memo().  Entries from before a collection name
 * reclaimed or renumbered nodes, so a stale memo is emptied first. */
static Table *arg_memo(ArenaObject *A, PyObject *object, const char *name)
{
    MemoObject *memo = (MemoObject *)object;
    if (!PyObject_TypeCheck(object, &MemoType) || memo->serial != A->serial) {
        PyErr_Format(PyExc_TypeError, "%s memo must come from this manager", name);
        return NULL;
    }
    if (memo->generation != A->generation) {
        table_clear(&memo->table);
        memo->generation = A->generation;
    }
    return &memo->table;
}

/* The level bitmap of quantifier tag ``tag``, built from the arena's Python
 * bitmask the first time the tag is seen (tags are per-manager and fixed). */
static const uint8_t *arg_qset(ArenaObject *A, PyObject *mask, uint32_t maxlevel, uint32_t tag)
{
    if (tag < A->nqsets && A->qsets[tag])
        return A->qsets[tag];
    if (tag >= A->nqsets) {
        uint8_t **grown = PyMem_RawRealloc(A->qsets, ((size_t)tag + 1) * sizeof(uint8_t *));
        if (!grown) {
            PyErr_NoMemory();
            return NULL;
        }
        memset(grown + A->nqsets, 0, ((size_t)tag + 1 - A->nqsets) * sizeof(uint8_t *));
        A->qsets = grown;
        A->nqsets = (size_t)tag + 1;
    }
    Py_ssize_t size = (Py_ssize_t)(maxlevel >> 3) + 1;
    PyObject *length = PyLong_FromSsize_t(size);
    if (!length)
        return NULL;
    PyObject *bytes = PyObject_CallMethodObjArgs(mask, str_to_bytes, length, str_little, NULL);
    Py_DECREF(length);
    if (!bytes)
        return NULL;
    uint8_t *bitmap = PyMem_RawMalloc((size_t)size);
    if (!bitmap) {
        Py_DECREF(bytes);
        PyErr_NoMemory();
        return NULL;
    }
    memcpy(bitmap, PyBytes_AS_STRING(bytes), (size_t)size);
    Py_DECREF(bytes);
    A->qsets[tag] = bitmap;
    return bitmap;
}

/* -- Python-visible kernel entry points ------------------------------------ */

static PyObject *Arena_mk(ArenaObject *A, PyObject *const *args, Py_ssize_t nargs)
{
    uint32_t level, low, high;
    if (check_nargs("mk", nargs, 3) < 0 || arg_level(args[0], &level) < 0
        || arg_ref(A, args[1], &low) < 0 || arg_ref(A, args[2], &high) < 0)
        return NULL;
    uint32_t result = mk(A, level, low, high);
    return result == ERR ? NULL : PyLong_FromUnsignedLong(result);
}

static PyObject *Arena_conj(ArenaObject *A, PyObject *const *args, Py_ssize_t nargs)
{
    uint32_t a, b;
    if (check_nargs("conj", nargs, 2) < 0 || arg_ref(A, args[0], &a) < 0
        || arg_ref(A, args[1], &b) < 0 || governor_enter(A) < 0)
        return NULL;
    return governor_exit(A, k_and(A, a, b));
}

static PyObject *Arena_ite(ArenaObject *A, PyObject *const *args, Py_ssize_t nargs)
{
    uint32_t f, g, h;
    if (check_nargs("ite", nargs, 3) < 0 || arg_ref(A, args[0], &f) < 0
        || arg_ref(A, args[1], &g) < 0 || arg_ref(A, args[2], &h) < 0
        || governor_enter(A) < 0)
        return NULL;
    return governor_exit(A, k_ite(A, f, g, h));
}

/* exists(node, mask, maxlevel, tag) -- the arena's _exists_kernel. */
static PyObject *Arena_exists(ArenaObject *A, PyObject *const *args, Py_ssize_t nargs)
{
    uint32_t node, maxlevel, tag;
    if (check_nargs("exists", nargs, 4) < 0 || arg_ref(A, args[0], &node) < 0
        || arg_u32(args[2], &maxlevel) < 0 || arg_u32(args[3], &tag) < 0)
        return NULL;
    const uint8_t *qset = arg_qset(A, args[1], maxlevel, tag);
    if (!qset || governor_enter(A) < 0)
        return NULL;
    return governor_exit(A, k_exists(A, node, qset, maxlevel, tag));
}

/* and_exists(a, b, mask, maxlevel, tag, memo) -- the arena's _and_exists_kernel. */
static PyObject *Arena_and_exists(ArenaObject *A, PyObject *const *args, Py_ssize_t nargs)
{
    uint32_t a, b, maxlevel, tag;
    if (check_nargs("and_exists", nargs, 6) < 0 || arg_ref(A, args[0], &a) < 0
        || arg_ref(A, args[1], &b) < 0 || arg_u32(args[3], &maxlevel) < 0
        || arg_u32(args[4], &tag) < 0)
        return NULL;
    Table *memo = arg_memo(A, args[5], "and_exists");
    if (!memo)
        return NULL;
    const uint8_t *qset = arg_qset(A, args[2], maxlevel, tag);
    if (!qset || governor_enter(A) < 0)
        return NULL;
    return governor_exit(A, k_and_exists(A, a, b, qset, maxlevel, tag, memo));
}

/* -- structural passes ------------------------------------------------------ */

typedef struct { uint32_t *items; size_t size, capacity; } Stack;

static int stack_push(Stack *s, uint32_t item)
{
    if (s->size == s->capacity) {
        size_t capacity = s->capacity ? 2 * s->capacity : 64;
        uint32_t *items = PyMem_RawRealloc(s->items, capacity * sizeof(uint32_t));
        if (!items) {
            PyErr_NoMemory();
            return -1;
        }
        s->items = items;
        s->capacity = capacity;
    }
    s->items[s->size++] = item;
    return 0;
}

/* rename_structural(node, level_map, memo) -- the arena's optimistic linear
 * bottom-up rebuild: None when the mapping breaks the order on some edge.
 * ``memo`` (None for a one-off table) maps a node index to its rebuilt
 * regular reference; one memo serves one level map across calls, so a call
 * only rebuilds the nodes no earlier call reached. */
static PyObject *Arena_rename_structural(ArenaObject *A, PyObject *const *args, Py_ssize_t nargs)
{
    uint32_t node;
    if (check_nargs("rename_structural", nargs, 3) < 0 || arg_ref(A, args[0], &node) < 0)
        return NULL;
    Table local = {NULL, 0, 0};
    Table *rebuilt = &local;
    if (args[2] != Py_None && !(rebuilt = arg_memo(A, args[2], "rename_structural")))
        return NULL;
    if (!PyDict_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "level_map must be a dict");
        return NULL;
    }
    PyObject *key, *value;
    Py_ssize_t position = 0;
    uint32_t top = 0;
    while (PyDict_Next(args[1], &position, &key, &value)) {
        uint32_t level, target;
        if (arg_level(key, &level) < 0 || arg_level(value, &target) < 0)
            return NULL;
        if (level >= top)
            top = level + 1;
    }
    uint32_t *image = PyMem_RawMalloc(((size_t)top + 1) * sizeof(uint32_t));
    if (!image)
        return PyErr_NoMemory();
    for (uint32_t level = 0; level < top; level++)
        image[level] = level;
    position = 0;
    while (PyDict_Next(args[1], &position, &key, &value)) {
        uint32_t level = (uint32_t)PyLong_AsUnsignedLong(key); /* validated above */
        image[level] = (uint32_t)PyLong_AsUnsignedLong(value);
    }
    Stack stack = {NULL, 0, 0};
    PyObject *answer = NULL;
    uint32_t done = 0, low_done = 0, high_done = 0;
    if (table_put(rebuilt, 0, 0, 0, 0) < 0 || stack_push(&stack, node >> 1) < 0)
        goto finally;
    while (stack.size) {
        uint32_t index = stack.items[stack.size - 1];
        if (table_get(rebuilt, index, 0, 0, &done)) {
            stack.size--;
            continue;
        }
        Node n = A->nodes[index];
        int pending = 0;
        if (!table_get(rebuilt, n.low >> 1, 0, 0, &low_done)) {
            if (stack_push(&stack, n.low >> 1) < 0)
                goto finally;
            pending = 1;
        }
        if (!table_get(rebuilt, n.high >> 1, 0, 0, &high_done)) {
            if (stack_push(&stack, n.high >> 1) < 0)
                goto finally;
            pending = 1;
        }
        if (pending)
            continue;
        stack.size--;
        uint32_t new_level = n.level < top ? image[n.level] : n.level;
        uint32_t new_low = low_done ^ (n.low & 1);
        uint32_t new_high = high_done ^ (n.high & 1);
        if ((new_low > 1 && A->nodes[new_low >> 1].level <= new_level)
            || (new_high > 1 && A->nodes[new_high >> 1].level <= new_level)) {
            answer = Py_NewRef(Py_None);
            goto finally;
        }
        uint32_t result = mk(A, new_level, new_low, new_high);
        if (result == ERR || table_put(rebuilt, index, 0, 0, result) < 0)
            goto finally;
    }
    table_get(rebuilt, node >> 1, 0, 0, &done);
    answer = PyLong_FromUnsignedLong(done ^ (node & 1));
finally:
    PyMem_RawFree(image);
    PyMem_RawFree(stack.items);
    table_clear(&local);
    return answer;
}

/* Visit every internal node below ``node`` once; ``visit`` may stop early. */
typedef int (*visitor)(void *state, const Node *n);

static int walk(ArenaObject *A, uint32_t node, visitor visit, void *state)
{
    Table seen = {NULL, 0, 0};
    Stack stack = {NULL, 0, 0};
    uint32_t unused;
    int status = stack_push(&stack, node >> 1);
    while (status == 0 && stack.size) {
        uint32_t index = stack.items[--stack.size];
        if (index == 0 || table_get(&seen, index, 0, 0, &unused))
            continue;
        const Node *n = &A->nodes[index];
        if (table_put(&seen, index, 0, 0, 0) < 0 || stack_push(&stack, n->low >> 1) < 0
            || stack_push(&stack, n->high >> 1) < 0) {
            status = -1;
            break;
        }
        status = visit(state, n);
    }
    PyMem_RawFree(stack.items);
    table_clear(&seen);
    return status;
}

typedef struct { uint8_t found[TERMINAL_LEVEL + 1]; uint32_t low, high; } LevelState;

static int visit_level(void *state, const Node *n)
{
    LevelState *levels = state;
    levels->found[n->level] = 1;
    if (n->level < levels->low)
        levels->low = n->level;
    if (n->level > levels->high)
        levels->high = n->level;
    return 0;
}

/* support_levels(node) -> set of the levels the function depends on. */
static PyObject *Arena_support_levels(ArenaObject *A, PyObject *arg)
{
    uint32_t node;
    if (arg_ref(A, arg, &node) < 0)
        return NULL;
    LevelState *state = PyMem_RawCalloc(1, sizeof(LevelState));
    if (!state)
        return PyErr_NoMemory();
    state->low = TERMINAL_LEVEL;
    PyObject *levels = NULL;
    if (walk(A, node, visit_level, state) == 0 && (levels = PySet_New(NULL))) {
        for (uint32_t level = state->low; level <= state->high; level++) {
            if (!state->found[level])
                continue;
            PyObject *item = PyLong_FromUnsignedLong(level);
            if (!item || PySet_Add(levels, item) < 0) {
                Py_XDECREF(item);
                Py_CLEAR(levels);
                break;
            }
            Py_DECREF(item);
        }
    }
    PyMem_RawFree(state);
    return levels;
}

typedef struct { uint64_t seen, limit; } SizeState;

static int visit_count(void *state, const Node *Py_UNUSED(n))
{
    SizeState *size = state;
    return ++size->seen > size->limit ? 1 : 0; /* 1 stops the walk */
}

/* dag_size(node, limit) -> internal nodes below node (limit + 1 once over). */
static PyObject *Arena_dag_size(ArenaObject *A, PyObject *const *args, Py_ssize_t nargs)
{
    uint32_t node;
    if (check_nargs("dag_size", nargs, 2) < 0 || arg_ref(A, args[0], &node) < 0)
        return NULL;
    SizeState size = {0, UINT64_MAX};
    if (args[1] != Py_None) {
        size.limit = PyLong_AsUnsignedLongLong(args[1]);
        if (size.limit == (uint64_t)-1 && PyErr_Occurred())
            return NULL;
    }
    if (walk(A, node, visit_count, &size) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(size.seen);
}

/* -- garbage collection ----------------------------------------------------- */

/* collect(roots) -> remap: mark from the roots, compact the survivors in
 * index order (the arena's cumsum renumbering), rebuild the unique table
 * and drop the kernel caches.  The remap covers both polarities. */
static PyObject *Arena_collect(ArenaObject *A, PyObject *roots)
{
    uint32_t count = A->count;
    uint8_t *marked = PyMem_RawCalloc(count, 1);
    uint32_t *renumber = PyMem_RawMalloc((size_t)count * sizeof(uint32_t));
    Stack stack = {NULL, 0, 0};
    PyObject *remap = NULL, *iterator = NULL, *item;
    if (!marked || !renumber) {
        PyErr_NoMemory();
        goto finally;
    }
    marked[0] = 1;
    if (!(iterator = PyObject_GetIter(roots)))
        goto finally;
    while ((item = PyIter_Next(iterator))) {
        uint32_t ref;
        int status = arg_ref(A, item, &ref);
        Py_DECREF(item);
        if (status < 0 || (ref > 1 && stack_push(&stack, ref >> 1) < 0))
            goto finally;
    }
    if (PyErr_Occurred())
        goto finally;
    while (stack.size) {
        uint32_t index = stack.items[--stack.size];
        if (marked[index])
            continue;
        marked[index] = 1;
        const Node *n = &A->nodes[index];
        if ((!marked[n->low >> 1] && stack_push(&stack, n->low >> 1) < 0)
            || (!marked[n->high >> 1] && stack_push(&stack, n->high >> 1) < 0))
            goto finally;
    }
    uint32_t kept = 0;
    for (uint32_t index = 0; index < count; index++)
        if (marked[index])
            renumber[index] = kept++;
    if (!(remap = PyDict_New()))
        goto finally;
    for (uint32_t index = 0; index < count; index++) {
        if (!marked[index])
            continue;
        for (uint32_t sign = 0; sign < 2; sign++) {
            PyObject *old = PyLong_FromUnsignedLong((index << 1) | sign);
            PyObject *new = PyLong_FromUnsignedLong((renumber[index] << 1) | sign);
            int status = (old && new) ? PyDict_SetItem(remap, old, new) : -1;
            Py_XDECREF(old);
            Py_XDECREF(new);
            if (status < 0) {
                Py_CLEAR(remap);
                goto finally;
            }
        }
    }
    /* Compact in place: survivors only move down, children before parents. */
    for (uint32_t index = 1; index < count; index++) {
        if (!marked[index])
            continue;
        Node n = A->nodes[index];
        A->nodes[renumber[index]] = (Node){
            n.level,
            (renumber[n.low >> 1] << 1) | (n.low & 1),
            (renumber[n.high >> 1] << 1) | (n.high & 1),
        };
    }
    A->count = kept;
    size_t capacity = MIN_TABLE;
    while ((size_t)kept * 2 > capacity)
        capacity *= 2;
    if (unique_resize(A, capacity) < 0) {
        Py_CLEAR(remap);
        goto finally;
    }
    table_clear(&A->and_cache->table);
    table_clear(&A->ite_cache->table);
    table_clear(&A->quant_cache->table);
    A->generation++;
finally:
    Py_XDECREF(iterator);
    PyMem_RawFree(marked);
    PyMem_RawFree(renumber);
    PyMem_RawFree(stack.items);
    return remap;
}

/* -- governor, memos, counters ---------------------------------------------- */

static PyObject *Arena_set_governor(ArenaObject *A, PyObject *governor)
{
    uint64_t stride = 0;
    if (governor != Py_None) {
        PyObject *value = PyObject_GetAttr(governor, str_poll_stride);
        if (!value)
            return NULL;
        stride = PyLong_AsUnsignedLongLong(value);
        Py_DECREF(value);
        if (stride == (uint64_t)-1 && PyErr_Occurred())
            return NULL;
        if (stride == 0 || (stride & (stride - 1))) {
            PyErr_SetString(PyExc_ValueError, "POLL_STRIDE must be a power of two");
            return NULL;
        }
    }
    Py_CLEAR(A->governor);
    if (governor != Py_None) {
        A->governor = Py_NewRef(governor);
        A->stride_mask = stride - 1;
    }
    Py_RETURN_NONE;
}

static PyObject *Arena_new_memo(ArenaObject *A, PyObject *Py_UNUSED(ignored))
{
    MemoObject *memo = (MemoObject *)PyType_GenericNew(&MemoType, NULL, NULL);
    if (memo) {
        memo->serial = A->serial;
        memo->generation = A->generation;
    }
    return (PyObject *)memo;
}

static PyObject *Arena_get_counts(ArenaObject *A, void *Py_UNUSED(closure))
{
    return Py_BuildValue("(KK)", (unsigned long long)A->ite_calls,
                         (unsigned long long)A->ite_hits);
}

/* -- node views: levels / lows / highs as read-only sequences --------------- */

typedef struct {
    PyObject_HEAD
    ArenaObject *arena;
    int field; /* 0 level, 1 low, 2 high */
} ViewObject;

static void View_dealloc(ViewObject *self)
{
    Py_XDECREF(self->arena);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static Py_ssize_t View_len(ViewObject *self)
{
    return (Py_ssize_t)self->arena->count;
}

static PyObject *View_item(ViewObject *self, Py_ssize_t index)
{
    if (index < 0 || (size_t)index >= self->arena->count) {
        PyErr_SetString(PyExc_IndexError, "node index out of range");
        return NULL;
    }
    const Node *n = &self->arena->nodes[index];
    return PyLong_FromUnsignedLong(self->field == 0 ? n->level : self->field == 1 ? n->low : n->high);
}

static PySequenceMethods View_as_sequence = {
    .sq_length = (lenfunc)View_len,
    .sq_item = (ssizeargfunc)View_item,
};

static PyTypeObject ViewType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.bdd._native.NodeView",
    .tp_doc = "A read-only view of one field of the native node table.",
    .tp_basicsize = sizeof(ViewObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_dealloc = (destructor)View_dealloc,
    .tp_as_sequence = &View_as_sequence,
};

static PyObject *Arena_get_view(ArenaObject *A, void *closure)
{
    ViewObject *view = PyObject_New(ViewObject, &ViewType);
    if (!view)
        return NULL;
    view->arena = (ArenaObject *)Py_NewRef(A);
    view->field = (int)(intptr_t)closure;
    return (PyObject *)view;
}

static PyObject *Arena_get_memo(ArenaObject *A, void *closure)
{
    MemoObject *tables[] = {A->and_cache, A->ite_cache, A->quant_cache};
    return Py_NewRef((PyObject *)tables[(intptr_t)closure]);
}

/* -- the Arena type --------------------------------------------------------- */

static PyObject *Arena_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    if (PyTuple_GET_SIZE(args) || (kwargs && PyDict_GET_SIZE(kwargs))) {
        PyErr_SetString(PyExc_TypeError, "Arena() takes no arguments");
        return NULL;
    }
    ArenaObject *A = (ArenaObject *)type->tp_alloc(type, 0);
    if (!A)
        return NULL;
    A->capacity = 1024;
    A->nodes = PyMem_RawMalloc(A->capacity * sizeof(Node));
    A->unique = PyMem_RawCalloc(MIN_TABLE, sizeof(uint32_t));
    A->umask = MIN_TABLE - 1;
    A->and_cache = (MemoObject *)PyType_GenericNew(&MemoType, NULL, NULL);
    A->ite_cache = (MemoObject *)PyType_GenericNew(&MemoType, NULL, NULL);
    A->quant_cache = (MemoObject *)PyType_GenericNew(&MemoType, NULL, NULL);
    if (!A->nodes || !A->unique || !A->and_cache || !A->ite_cache || !A->quant_cache) {
        Py_DECREF(A);
        return PyErr_Occurred() ? NULL : PyErr_NoMemory();
    }
    A->nodes[0] = (Node){TERMINAL_LEVEL, 0, 0};
    A->count = 1;
    A->serial = ++arena_serials;
    return (PyObject *)A;
}

static void Arena_dealloc(ArenaObject *A)
{
    PyMem_RawFree(A->nodes);
    PyMem_RawFree(A->unique);
    for (size_t tag = 0; tag < A->nqsets; tag++)
        PyMem_RawFree(A->qsets[tag]);
    PyMem_RawFree(A->qsets);
    Py_XDECREF(A->and_cache);
    Py_XDECREF(A->ite_cache);
    Py_XDECREF(A->quant_cache);
    Py_XDECREF(A->governor);
    Py_TYPE(A)->tp_free((PyObject *)A);
}

static PyMethodDef Arena_methods[] = {
    {"mk", (PyCFunction)(void (*)(void))Arena_mk, METH_FASTCALL, "mk(level, low, high)"},
    {"conj", (PyCFunction)(void (*)(void))Arena_conj, METH_FASTCALL, "conj(a, b)"},
    {"ite", (PyCFunction)(void (*)(void))Arena_ite, METH_FASTCALL, "ite(f, g, h)"},
    {"exists", (PyCFunction)(void (*)(void))Arena_exists, METH_FASTCALL,
     "exists(node, mask, maxlevel, tag)"},
    {"and_exists", (PyCFunction)(void (*)(void))Arena_and_exists, METH_FASTCALL,
     "and_exists(a, b, mask, maxlevel, tag, memo)"},
    {"rename_structural", (PyCFunction)(void (*)(void))Arena_rename_structural, METH_FASTCALL,
     "rename_structural(node, level_map, memo) -> ref or None"},
    {"support_levels", (PyCFunction)Arena_support_levels, METH_O, "support_levels(node)"},
    {"dag_size", (PyCFunction)(void (*)(void))Arena_dag_size, METH_FASTCALL,
     "dag_size(node, limit)"},
    {"collect", (PyCFunction)Arena_collect, METH_O, "collect(roots) -> remap"},
    {"set_governor", (PyCFunction)Arena_set_governor, METH_O, "set_governor(governor)"},
    {"new_memo", (PyCFunction)Arena_new_memo, METH_NOARGS, "a fresh product memo"},
    {NULL},
};

static PyGetSetDef Arena_getset[] = {
    {"levels", (getter)Arena_get_view, NULL, "node levels", (void *)0},
    {"lows", (getter)Arena_get_view, NULL, "node low edges", (void *)1},
    {"highs", (getter)Arena_get_view, NULL, "node high edges", (void *)2},
    {"and_cache", (getter)Arena_get_memo, NULL, "the AND computed table", (void *)0},
    {"ite_cache", (getter)Arena_get_memo, NULL, "the ITE computed table", (void *)1},
    {"quant_cache", (getter)Arena_get_memo, NULL, "the quantifier computed table", (void *)2},
    {"counts", (getter)Arena_get_counts, NULL, "(ite_calls, ite_cache_hits)", NULL},
    {NULL},
};

static PyTypeObject ArenaType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.bdd._native.Arena",
    .tp_doc = "Node table, unique table and computed tables of one native BDD manager.",
    .tp_basicsize = sizeof(ArenaObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = Arena_new,
    .tp_dealloc = (destructor)Arena_dealloc,
    .tp_methods = Arena_methods,
    .tp_getset = Arena_getset,
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_native",
    .m_doc = "Native kernels of the arena BDD engine.",
    .m_size = -1,
};

PyMODINIT_FUNC PyInit__native(void)
{
    if (PyType_Ready(&MemoType) < 0 || PyType_Ready(&ViewType) < 0
        || PyType_Ready(&ArenaType) < 0)
        return NULL;
    if (!(str_steps = PyUnicode_InternFromString("steps"))
        || !(str_poll = PyUnicode_InternFromString("poll"))
        || !(str_to_bytes = PyUnicode_InternFromString("to_bytes"))
        || !(str_little = PyUnicode_InternFromString("little"))
        || !(str_poll_stride = PyUnicode_InternFromString("POLL_STRIDE")))
        return NULL;
    PyObject *arena = PyImport_ImportModule("repro.bdd.arena");
    if (!arena)
        return NULL;
    capacity_error = PyObject_GetAttrString(arena, "ArenaCapacityError");
    Py_DECREF(arena);
    if (!capacity_error)
        return NULL;
    PyObject *module = PyModule_Create(&native_module);
    if (!module)
        return NULL;
    if (PyModule_AddObjectRef(module, "Arena", (PyObject *)&ArenaType) < 0
        || PyModule_AddIntConstant(module, "MAX_NODES", MAX_NODES) < 0
        || PyModule_AddIntConstant(module, "TERMINAL_LEVEL", TERMINAL_LEVEL) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
