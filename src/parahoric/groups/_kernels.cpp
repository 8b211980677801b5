// Compiled kernels: packed modular matrices and flag-orbit passes.
//
// Same interface and outputs as _kernels_py, the pure-Python reference twin:
// the module exports mat_mul, FlagOrbit and IMPLEMENTATION, and a FlagOrbit
// has len() and the three passes the package runs, build, quotient and
// left_orbit_labels, all walks of one loop (left_walk).  Points and their
// representative matrices stay inside the object.  Matrices and flag keys
// are packed into 64-bit words (entries of Z/p^h in ceil(log2 p^h) bits),
// which keeps the orbit hash map and the representative store compact enough
// for the million-point coset spaces.  Matrices are at most 4 x 4 and a row
// times a column is summed in a C int; kernels.kernel_for routes every
// instance beyond that range to _kernels_py.

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <algorithm>
#include <array>
#include <climits>
#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

namespace {

constexpr int MAX_N = 4;
constexpr int MAX_KEY = 3 * MAX_N;  // a line inside a plane: 3n coordinates
constexpr int MAX_FLAG_MOD = 1 << 16;  // flag arithmetic: (mod - 1)^2 fits a uint32_t

PyObject* budget_exceeded;  // parahoric.closure.BudgetExceeded

using Mat = std::array<int, MAX_N * MAX_N>;

inline int nmod(long long v, int mod) {
    long long r = v % mod;
    return static_cast<int>(r < 0 ? r + mod : r);
}

// The inverse of a unit x of Z/mod, by the extended Euclidean algorithm.
int inv_unit(int x, int mod) {
    int r0 = mod, r1 = x, t0 = 0, t1 = 1;  // |t0|, |t1| <= mod
    while (r1) {
        int q = r0 / r1;
        std::tie(r0, r1) = std::make_pair(r1, r0 - q * r1);
        std::tie(t0, t1) = std::make_pair(t1, t0 - q * t1);
    }
    return nmod(t0, mod);
}

void mul_arr(const int* a, const int* b, int* out, int n, int mod) {
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) {
            int acc = 0;
            for (int k = 0; k < n; ++k) acc += a[i * n + k] * b[k * n + j];
            out[i * n + j] = acc % mod;
        }
}

// Reads the first `count` entries of a sequence of ints, reduced mod `mod`.
bool read_mat(PyObject* seq, int* out, int count, int mod) {
    PyObject* fast = PySequence_Fast(seq, "a matrix must be a sequence of ints");
    if (!fast) return false;
    bool ok = PySequence_Fast_GET_SIZE(fast) >= count;
    if (!ok) PyErr_SetString(PyExc_IndexError, "matrix has fewer than n*n entries");
    PyObject** items = PySequence_Fast_ITEMS(fast);
    for (int i = 0; ok && i < count; ++i) {
        long long v = PyLong_AsLongLong(items[i]);
        ok = !(v == -1 && PyErr_Occurred());
        out[i] = ok ? nmod(v, mod) : 0;
    }
    Py_DECREF(fast);
    return ok;
}

PyObject* to_tuple(const int* vals, int count) {
    PyObject* t = PyTuple_New(count);
    for (int i = 0; t && i < count; ++i) {
        PyObject* v = PyLong_FromLong(vals[i]);
        if (!v) Py_CLEAR(t);
        else PyTuple_SET_ITEM(t, i, v);
    }
    return t;
}

// Parses exactly `want` positional arguments: `objects` objects, then ints.
bool parse_args(const char* name, PyObject* const* args, Py_ssize_t nargs, Py_ssize_t want,
                Py_ssize_t objects, long* ints) {
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, want, nargs);
        return false;
    }
    for (Py_ssize_t i = objects; i < nargs; ++i)
        if ((ints[i - objects] = PyLong_AsLong(args[i])) == -1 && PyErr_Occurred()) return false;
    return true;
}

bool check_size(long n, long mod, long p, long max_mod) {
    if (n >= 1 && n <= MAX_N && mod >= 1 && mod <= max_mod && p >= 1 && p <= max_mod) return true;
    PyErr_Format(PyExc_ValueError, "the compiled kernel needs 1 <= n <= %d and 1 <= p, mod <= %ld",
                 MAX_N, max_mod);
    return false;
}

// Scales a so that a[r] = 1; then, given b, clears b[r] by subtracting b[r] * a.
// inv is the table of unit inverses of Z/mod.
void pivot(int* a, int* b, int r, int n, uint32_t mod, const int* inv) {
    uint32_t s = inv[a[r]];
    for (int i = 0; i < n; ++i) a[i] = static_cast<int>(a[i] * s % mod);
    if (!b) return;
    uint32_t t = b[r];
    for (int i = 0; i < n; ++i) b[i] = static_cast<int>((b[i] + mod - t * a[i] % mod) % mod);
}

// The index of the first unit among a[0], ..., a[end - 1] (skipping `skip`), or -1.
int first_unit(const int* a, int end, int p, int skip = -1) {
    for (int i = 0; i < end; ++i)
        if (i != skip && a[i] % p) return i;
    return -1;
}

// Canonical flag coordinates of the first k columns of g, written to key:
// the line, scaled so that its first unit entry is 1 (n entries), then for
// k = 2 the reduced column echelon basis of the plane (2n more).  Returns the
// key length, or 0 with a ValueError set.
int flag_arr(const int* g, int* key, int n, int mod, int p, int k, const int* inv) {
    int u[MAX_N], v[MAX_N];
    for (int i = 0; i < n; ++i) {
        key[i] = u[i] = g[i * n];
        v[i] = g[i * n + 1];
    }
    int r = first_unit(u, n, p);
    if (r < 0) {
        PyErr_SetString(PyExc_ValueError, "column is not unimodular");
        return 0;
    }
    pivot(key, nullptr, r, n, mod, inv);
    if (k == 1) return n;
    int rv = first_unit(v, r, p);
    if (rv >= 0) {  // pivot on the first unit entry of either column
        std::swap(u, v);
        r = rv;
    }
    pivot(u, v, r, n, mod, inv);
    int r2 = first_unit(v, n, p, r);
    if (r2 < 0) {
        PyErr_SetString(PyExc_ValueError, "columns do not span a free plane");
        return 0;
    }
    pivot(v, u, r2, n, mod, inv);
    std::copy(u, u + n, key + n);
    std::copy(v, v + n, key + 2 * n);
    return 3 * n;
}

PyObject* mat_mul(PyObject*, PyObject* const* args, Py_ssize_t nargs) {
    long nm[2];  // n, mod
    Mat a, b, c;
    if (!parse_args("mat_mul", args, nargs, 4, 2, nm) || !check_size(nm[0], nm[1], 1, INT_MAX))
        return nullptr;
    int n = static_cast<int>(nm[0]), mod = static_cast<int>(nm[1]);
    if (!read_mat(args[0], a.data(), n * n, mod) || !read_mat(args[1], b.data(), n * n, mod))
        return nullptr;
    mul_arr(a.data(), b.data(), c.data(), n, mod);
    return to_tuple(c.data(), n * n);
}

struct Points {  // the C++ containers behind a FlagOrbit
    std::vector<uint64_t> reps;                   // packed representative of each point
    std::unordered_map<uint64_t, int64_t> index;  // packed flag key -> point
    std::vector<int> inv;                         // inverse of each unit of Z/mod, else 0
};

struct FlagOrbit {
    PyObject_HEAD
    int n, mod, p, k, bits;
    Points* pts;
};

uint64_t pack(const FlagOrbit* o, const int* vals, int count) {
    uint64_t w = 0;
    for (int i = 0; i < count; ++i) w |= static_cast<uint64_t>(vals[i]) << (i * o->bits);
    return w;
}

Py_ssize_t orbit_len(const FlagOrbit* self) {
    return static_cast<Py_ssize_t>(self->pts->reps.size());
}

// The representative matrix of point i.
void unpack_rep(const FlagOrbit* o, int64_t i, Mat& out) {
    uint64_t w = o->pts->reps[i], mask = (uint64_t{1} << o->bits) - 1;
    for (int j = 0; j < o->n * o->n; ++j) out[j] = static_cast<int>((w >> (j * o->bits)) & mask);
}

bool flag_of(const FlagOrbit* o, const int* mat, uint64_t* word) {
    int key[MAX_KEY] = {};
    int m = flag_arr(mat, key, o->n, o->mod, o->p, o->k, o->pts->inv.data());
    if (m) *word = pack(o, key, m);
    return m != 0;
}

// The point of the flag that mat spans; -1 with an exception set when the
// flag is not in the orbit (KeyError, as in _kernels_py) or is degenerate.
int64_t point_of(const FlagOrbit* o, const int* mat) {
    uint64_t word;
    if (!flag_of(o, mat, &word)) return -1;
    auto it = o->pts->index.find(word);
    if (it != o->pts->index.end()) return it->second;
    PyErr_SetString(PyExc_KeyError, "the flag is not in the orbit");
    return -1;
}

bool read_gens(const FlagOrbit* o, PyObject* gens, std::vector<Mat>& out) {
    PyObject* fast = PySequence_Fast(gens, "generators must be a sequence of matrices");
    if (!fast) return false;
    out.resize(PySequence_Fast_GET_SIZE(fast));
    bool ok = true;
    for (size_t i = 0; ok && i < out.size(); ++i)
        ok = read_mat(PySequence_Fast_GET_ITEM(fast, i), out[i].data(), o->n * o->n, o->mod);
    Py_DECREF(fast);
    return ok;
}

PyObject* to_list(const std::vector<int64_t>& vals) {
    PyObject* out = PyList_New(static_cast<Py_ssize_t>(vals.size()));
    for (size_t i = 0; out && i < vals.size(); ++i) {
        PyObject* v = PyLong_FromLongLong(vals[i]);
        if (!v) Py_CLEAR(out);
        else PyList_SET_ITEM(out, i, v);
    }
    return out;
}

// The one breadth-first walk, behind build, quotient and left_orbit_labels:
// extends `order` (seeded by the caller) by the points reached from it by
// left multiplication by gens.  reach(mat) is given each product and returns
// the point to walk on from if it is new to the walk, -1 if it is not, or -2
// with an exception set.
template <class Reach>
bool left_walk(const FlagOrbit* o, const std::vector<Mat>& gens, std::vector<int64_t>& order,
               Reach reach) {
    Mat cur, out;
    for (size_t head = 0; head < order.size(); ++head) {
        unpack_rep(o, order[head], cur);
        for (const Mat& g : gens) {
            mul_arr(g.data(), cur.data(), out.data(), o->n, o->mod);
            int64_t t = reach(out);
            if (t == -2) return false;
            if (t >= 0) order.push_back(t);
        }
    }
    return true;
}

PyObject* orbit_new(PyTypeObject* type, PyObject*, PyObject*) {
    FlagOrbit* self = reinterpret_cast<FlagOrbit*>(type->tp_alloc(type, 0));
    if (self) self->pts = new Points();
    return reinterpret_cast<PyObject*>(self);
}

int orbit_init(FlagOrbit* self, PyObject* args, PyObject* kwds) {
    static const char* kwlist[] = {"n", "mod", "p", "k", nullptr};
    int n, mod, p, k;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iiii", const_cast<char**>(kwlist), &n, &mod,
                                     &p, &k) ||
        !check_size(n, mod, p, MAX_FLAG_MOD))
        return -1;
    int bits = 1;
    while ((1LL << bits) < mod) ++bits;
    if (n * n * bits > 64 || (k == 1 ? n : 3 * n) * bits > 64) {  // a matrix or a flag key
        PyErr_SetString(PyExc_ValueError, "packing exceeds 64 bits; use the python kernel");
        return -1;
    }
    *self->pts = Points();
    self->pts->inv.resize(mod);
    for (int x = 1; x < mod; ++x) self->pts->inv[x] = x % p ? inv_unit(x, mod) : 0;
    self->n = n, self->mod = mod, self->p = p, self->k = k;
    self->bits = bits;
    return 0;
}

void orbit_dealloc(FlagOrbit* self) {
    delete self->pts;
    Py_TYPE(self)->tp_free(reinterpret_cast<PyObject*>(self));
}

// Breadth-first orbit of the standard flag under gens; points are numbered
// in discovery order.  Raises BudgetExceeded once it passes max_points.
PyObject* orbit_build(FlagOrbit* self, PyObject* args, PyObject* kwds) {
    static const char* kwlist[] = {"gens", "max_points", nullptr};
    PyObject* gens;
    long long limit;
    std::vector<Mat> gmats;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OL", const_cast<char**>(kwlist), &gens,
                                     &limit) ||
        !read_gens(self, gens, gmats))
        return nullptr;
    int n = self->n, n2 = n * n;
    auto& reps = self->pts->reps;
    auto& index = self->pts->index;
    reps.clear();
    index.clear();
    Mat ident{};
    for (int i = 0; i < n; ++i) ident[i * (n + 1)] = 1;
    uint64_t word;
    if (!flag_of(self, ident.data(), &word)) return nullptr;
    reps.push_back(pack(self, ident.data(), n2));
    index[word] = 0;
    std::vector<int64_t> order{0};
    bool ok = left_walk(self, gmats, order, [&](const Mat& m) -> int64_t {
        if (!flag_of(self, m.data(), &word)) return -2;
        auto added = index.try_emplace(word, static_cast<int64_t>(reps.size()));
        if (!added.second) return -1;
        reps.push_back(pack(self, m.data(), n2));
        if (static_cast<long long>(reps.size()) <= limit) return added.first->second;
        PyErr_Format(budget_exceeded, "flag orbit exceeded %lld points", limit);
        return -2;
    });
    return ok ? PyLong_FromSize_t(reps.size()) : nullptr;
}

// Per-point labels of the fibers of G/B -> G/P, P = <gens> containing the
// stabilizer: the fiber of point i is r_i * F, r_i its representative and F
// the left orbit of point 0 under gens, labelled by its least point.  Two
// translates that meet raise ValueError: then <gens> does not contain the
// stabilizer.
PyObject* orbit_quotient(FlagOrbit* self, PyObject* gens) {
    if (!orbit_len(self)) return PyErr_Format(PyExc_IndexError, "point index out of range");
    std::vector<Mat> xs;
    std::vector<int64_t> labels(orbit_len(self), -1), fibre{0};
    labels[0] = 0;
    // the point of m, given label lab if it had none; -1 if it had one, -2 on error
    auto claim = [&](const Mat& m, int64_t lab) -> int64_t {
        int64_t j = point_of(self, m.data());
        if (j < 0) return -2;
        if (labels[j] >= 0) return -1;
        labels[j] = lab;
        return j;
    };
    if (!read_gens(self, gens, xs) ||
        !left_walk(self, xs, fibre, [&](const Mat& m) { return claim(m, 0); }))
        return nullptr;
    Mat cur, f, out;
    for (int64_t i = 1; i < orbit_len(self); ++i) {
        if (labels[i] >= 0) continue;
        unpack_rep(self, i, cur);
        for (int64_t j : fibre) {
            unpack_rep(self, j, f);
            mul_arr(cur.data(), f.data(), out.data(), self->n, self->mod);
            int64_t t = claim(out, i);
            if (t == -2) return nullptr;
            if (t == -1)
                return PyErr_Format(PyExc_ValueError, "translates of the base fiber meet: "
                                    "<gens> does not contain the stabilizer");
        }
    }
    return to_list(labels);
}

// Per-point labels of the left-subgroup orbits on the fibers that labels
// gives, each label a point of its own fiber.  The left action is well
// defined on fibers, so one walk from each orbit's least fiber label moves
// label points by gens, and the orbit is labelled by that least label.
PyObject* orbit_left_orbit_labels(FlagOrbit* self, PyObject* const* args, Py_ssize_t nargs) {
    std::vector<Mat> xs;
    if (!parse_args("left_orbit_labels", args, nargs, 2, 2, nullptr) ||
        !read_gens(self, args[0], xs))
        return nullptr;
    int64_t size = orbit_len(self);
    std::vector<int64_t> labs, merged(size, -1), order;
    for (int64_t i = 0; i < size; ++i) {
        PyObject* item = PySequence_GetItem(args[1], i);  // one at a time: no list copy
        labs.push_back(item ? PyLong_AsLongLong(item) : -1);
        Py_XDECREF(item);
        if (labs[i] == -1 && PyErr_Occurred()) return nullptr;
        if (labs[i] < 0 || labs[i] >= size)
            return PyErr_Format(PyExc_ValueError, "labels must be point indices");
    }
    for (int64_t c : labs)
        if (labs[c] != c) return PyErr_Format(PyExc_ValueError, "a label is not in its own fiber");
    for (int64_t c = 0; c < size; ++c) {
        if (labs[c] != c || merged[c] >= 0) continue;
        merged[c] = c;
        order.assign(1, c);
        bool ok = left_walk(self, xs, order, [&](const Mat& m) -> int64_t {
            int64_t j = point_of(self, m.data());
            if (j < 0) return -2;
            int64_t d = labs[j];
            if (merged[d] >= 0) return -1;
            merged[d] = c;
            return d;
        });
        if (!ok) return nullptr;
    }
    for (int64_t& c : labs) c = merged[c];
    return to_list(labs);
}

#define FN(f) reinterpret_cast<PyCFunction>(reinterpret_cast<void (*)(void)>(f))

PyMethodDef orbit_methods[] = {
    {"build", FN(orbit_build), METH_VARARGS | METH_KEYWORDS, "build(gens, max_points) -> size"},
    {"quotient", FN(orbit_quotient), METH_O, "quotient(gens) -> fiber label per point"},
    {"left_orbit_labels", FN(orbit_left_orbit_labels), METH_FASTCALL,
     "left_orbit_labels(left_gens, labels) -> left-orbit label per point"},
    {nullptr, nullptr, 0, nullptr},
};

PySequenceMethods orbit_seq = {reinterpret_cast<lenfunc>(orbit_len)};

PyTypeObject FlagOrbitType = {PyVarObject_HEAD_INIT(nullptr, 0) "parahoric.groups._kernels.FlagOrbit"};

PyMethodDef module_methods[] = {
    {"mat_mul", FN(mat_mul), METH_FASTCALL, "mat_mul(a, b, n, mod) -> a*b over Z/mod"},
    {nullptr, nullptr, 0, nullptr},
};

PyModuleDef kernels_module = {PyModuleDef_HEAD_INIT, "_kernels",
                              "Compiled flag-orbit kernel; see _kernels_py.", -1, module_methods};

}  // namespace

PyMODINIT_FUNC PyInit__kernels() {
    FlagOrbitType.tp_basicsize = sizeof(FlagOrbit);
    FlagOrbitType.tp_flags = Py_TPFLAGS_DEFAULT;
    FlagOrbitType.tp_doc = "FlagOrbit(n, mod, p, k): orbit of the standard flag, with coset passes.";
    FlagOrbitType.tp_new = orbit_new;
    FlagOrbitType.tp_init = reinterpret_cast<initproc>(orbit_init);
    FlagOrbitType.tp_dealloc = reinterpret_cast<destructor>(orbit_dealloc);
    FlagOrbitType.tp_as_sequence = &orbit_seq;
    FlagOrbitType.tp_methods = orbit_methods;
    if (PyType_Ready(&FlagOrbitType) < 0) return nullptr;

    PyObject* closure = PyImport_ImportModule("parahoric.closure");
    if (!closure) return nullptr;
    budget_exceeded = PyObject_GetAttrString(closure, "BudgetExceeded");
    Py_DECREF(closure);
    PyObject* m = budget_exceeded ? PyModule_Create(&kernels_module) : nullptr;
    if (m && (PyModule_AddObjectRef(m, "FlagOrbit", reinterpret_cast<PyObject*>(&FlagOrbitType)) < 0 ||
              PyModule_AddStringConstant(m, "IMPLEMENTATION", "compiled") < 0))
        Py_CLEAR(m);
    return m;
}
