/*
 * The compiled event kernel of repro.sim: the event queue, the
 * dispatch loop, the waitable primitives and process resumption.
 *
 * The engine keeps (time, priority, sequence, event) entries in a
 * binary heap of C structs and dispatches them in that strict order.
 * The sequence number is unique, so the order is total and every
 * correct heap pops the same stream.  An entry's time is computed as
 * now + delay in C doubles, exactly as the Python expression does.
 *
 * A process is its own callback: when an event it waits on is
 * processed, the dispatch loop resumes its generator directly
 * (PyIter_Send), with no Python frame in between.  Any other callback
 * (an AllOf's child hook, a test's lambda) is called with the event.
 *
 * Resource, the FIFO facility CPUs and disks are, is compiled beside
 * its Request: a grant, a release and the busy-time accrual are C.  So
 * are AllOf, the Gate, the Counter and Tally the model books into, and
 * the OS and database model's transaction path: the Scheduler's
 * bursts, the disk array's service, the lock table, the redo log's
 * append and the database engine's lock, read after a buffer miss and
 * commit run as compiled operations, generator-like objects a process
 * runs or a generator ``yield from``s.  A client's whole loop is one
 * such operation.  The service-time draw and the buffer-cache lookup
 * and install they make are the walk kernel's own functions
 * (repro/hw/_walk.c), called through addresses handed over once by
 * link_walk().  The log writer, the database writer, its checkpoint
 * scan and Store stay Python: see repro/db and repro/sim/resources.py.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* The walk kernel's types (mt_t, lru_t) and its LRU_DIRTY bit. */
#include "../hw/_walk.h"

/* Event priorities (repro.sim.engine.URGENT and NORMAL). */
#define URGENT 0
#define NORMAL 1

static PyObject *SimulationError;
static PyObject *str_send, *str_throw, *str_close, *str_count,
                *str_add_callback, *str_outage_wait_s, *str_latency_factor;

/* The walk kernel's entry points (link_walk): the disks' lognormal draw,
 * the buffer cache's lookup of a touch and its install after a read. */
static double (*walk_lognormal)(mt_t *mt, double mu, double sigma,
                                double magic);
static int (*walk_lru_install)(lru_t *c, uint64_t id, int dirty,
                               uint64_t *victim);
static _Bool (*walk_lru_lookup)(lru_t *c, uint64_t id, int write);

/* -- exceptions across interpreter versions ------------------------------- */

/* The raised exception as one normalized object (new reference). */
static PyObject *
take_exception(void)
{
#if PY_VERSION_HEX >= 0x030C0000
    return PyErr_GetRaisedException();
#else
    PyObject *type, *value, *traceback;
    PyErr_Fetch(&type, &value, &traceback);
    PyErr_NormalizeException(&type, &value, &traceback);
    if (traceback != NULL && value != NULL)
        PyException_SetTraceback(value, traceback);
    Py_XDECREF(type);
    Py_XDECREF(traceback);
    return value;
#endif
}

/* Raise ``exception`` again (steals the reference). */
static void
raise_exception(PyObject *exception)
{
#if PY_VERSION_HEX >= 0x030C0000
    PyErr_SetRaisedException(exception);
#else
    PyErr_Restore(Py_NewRef((PyObject *)Py_TYPE(exception)), exception,
                  PyException_GetTraceback(exception));
#endif
}

/* -- argument binding ----------------------------------------------------- */

/* Bind the arguments of a vectorcall to ``names``: out[i] is the
 * argument given for names[i] (borrowed), or NULL.  The first
 * ``required`` names must be given. */
static int
bind_args(const char *function, PyObject *const *args, size_t nargsf,
          PyObject *kwnames, const char *const *names, int count,
          int required, PyObject **out)
{
    Py_ssize_t nargs = PyVectorcall_NARGS(nargsf);
    if (nargs > count) {
        PyErr_Format(PyExc_TypeError,
                     "%s() takes at most %d positional arguments "
                     "(%zd given)", function, count, nargs);
        return -1;
    }
    for (int i = 0; i < count; i++)
        out[i] = i < nargs ? args[i] : NULL;
    if (kwnames != NULL) {
        for (Py_ssize_t k = 0; k < PyTuple_GET_SIZE(kwnames); k++) {
            PyObject *key = PyTuple_GET_ITEM(kwnames, k);
            int i = 0;
            while (i < count
                   && PyUnicode_CompareWithASCIIString(key, names[i]) != 0)
                i++;
            if (i == count) {
                PyErr_Format(PyExc_TypeError,
                             "%s() got an unexpected keyword argument '%U'",
                             function, key);
                return -1;
            }
            if (out[i] != NULL) {
                PyErr_Format(PyExc_TypeError,
                             "%s() got multiple values for argument '%s'",
                             function, names[i]);
                return -1;
            }
            out[i] = args[nargs + k];
        }
    }
    for (int i = 0; i < required; i++) {
        if (out[i] == NULL) {
            PyErr_Format(PyExc_TypeError,
                         "%s() missing required argument '%s'",
                         function, names[i]);
            return -1;
        }
    }
    return 0;
}

/* A METH_FASTCALL method's argument count. */
static int
check_arity(const char *usage, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)",
                 usage, want, nargs);
    return -1;
}

static int
as_priority(PyObject *priority, long *out)
{
    if (priority == NULL) {
        *out = NORMAL;
        return 0;
    }
    *out = PyLong_AsLong(priority);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* -- types ---------------------------------------------------------------- */

typedef struct {
    double time;
    long priority;
    long long sequence;
    PyObject *event;            /* strong */
} Entry;

typedef struct {
    PyObject_HEAD
    double now;
    long long sequence;         /* events scheduled so far */
    Py_ssize_t max_depth;       /* the longest the heap has been */
    Entry *heap;
    Py_ssize_t size, capacity;
    PyObject *live;             /* dict: unfinished processes, by start */
    PyObject *resources;        /* list: the resources built on it */
} EngineObject;

/* Callbacks: ``waiter`` holds a lone first callback, so the common
 * single waiter needs no list; ``callbacks`` (a list) holds them all
 * once there is a second one, or once Python code asked for the list.
 * At most one of the two is set.
 *
 * An event triggered with itself as its value (a granted resource
 * request) sets ``own_value`` instead of holding a reference to
 * itself, so it is freed by reference counting, not left as cyclic
 * garbage for the collector. */
typedef struct {
    PyObject_HEAD
    EngineObject *engine;
    PyObject *waiter;
    PyObject *callbacks;
    PyObject *value;
    char ok, triggered, processed, own_value;
} EventObject;

/* The value an event carries (borrowed). */
static inline PyObject *
event_value(EventObject *event)
{
    return event->own_value ? (PyObject *)event : event->value;
}

/* A claim's states on its resource. */
enum { CLAIM_NEW, CLAIM_QUEUED, CLAIM_HELD, CLAIM_DONE };

typedef struct ResourceObject ResourceObject;

/* A claim on a Resource slot.  A queued claim is a link of its
 * resource's FIFO queue (prev/next), which holds a reference to it; a
 * held claim records the resource's close count, so a claim granted
 * before Resource.close() no longer holds a slot after it. */
typedef struct RequestObject {
    EventObject event;
    ResourceObject *resource;
    struct RequestObject *prev, *next;
    unsigned long long closes;
    char state;
} RequestObject;

/* ``capacity`` identical slots, ``in_use`` of them held, and a FIFO
 * queue of waiting claims (head first).  ``busy`` integrates the slots
 * in use over time up to ``last``. */
struct ResourceObject {
    PyObject_HEAD
    EngineObject *engine;
    PyObject *name;
    Py_ssize_t capacity, in_use;
    long long grants;
    double busy, last;
    unsigned long long closes;
    RequestObject *head, *tail;
};

typedef struct {
    EventObject event;
    PyObject *generator;
    char live;                  /* a key of engine->live */
} ProcessObject;

static PyTypeObject EngineType, EventType, TimeoutType, RequestType,
                    ResourceType, ProcessType, AllOfType, CounterType,
                    TallyType;

/* -- the event queue ------------------------------------------------------ */

static inline int
entry_before(const Entry *a, const Entry *b)
{
    if (a->time != b->time)
        return a->time < b->time;
    if (a->priority != b->priority)
        return a->priority < b->priority;
    return a->sequence < b->sequence;
}

static int
schedule(EngineObject *engine, PyObject *event, double delay, long priority)
{
    if (engine->size == engine->capacity) {
        Py_ssize_t capacity = engine->capacity ? 2 * engine->capacity : 64;
        Entry *heap = PyMem_Realloc(engine->heap, capacity * sizeof(Entry));
        if (heap == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        engine->heap = heap;
        engine->capacity = capacity;
    }
    Entry entry = {engine->now + delay, priority, ++engine->sequence,
                   Py_NewRef(event)};
    Entry *heap = engine->heap;
    Py_ssize_t at = engine->size++;
    while (at > 0) {
        Py_ssize_t parent = (at - 1) / 2;
        if (!entry_before(&entry, &heap[parent]))
            break;
        heap[at] = heap[parent];
        at = parent;
    }
    heap[at] = entry;
    if (engine->size > engine->max_depth)
        engine->max_depth = engine->size;
    return 0;
}

static Entry
pop(EngineObject *engine)
{
    Entry *heap = engine->heap;
    Entry top = heap[0];
    Entry last = heap[--engine->size];
    Py_ssize_t size = engine->size, at = 0;
    for (;;) {
        Py_ssize_t child = 2 * at + 1;
        if (child >= size)
            break;
        if (child + 1 < size && entry_before(&heap[child + 1], &heap[child]))
            child++;
        if (!entry_before(&heap[child], &last))
            break;
        heap[at] = heap[child];
        at = child;
    }
    if (size > 0)
        heap[at] = last;
    return top;
}

static void
drop_pending(EngineObject *engine)
{
    Entry *heap = engine->heap;
    Py_ssize_t size = engine->size;
    engine->heap = NULL;
    engine->size = engine->capacity = 0;
    for (Py_ssize_t i = 0; i < size; i++)
        Py_DECREF(heap[i].event);
    PyMem_Free(heap);
}

/* -- events --------------------------------------------------------------- */

static int
event_trigger(EventObject *event, PyObject *value, int ok, long priority)
{
    if (event->triggered) {
        PyErr_SetString(SimulationError, "event triggered twice");
        return -1;
    }
    if (event->engine == NULL) {
        PyErr_SetString(SimulationError, "event has no engine");
        return -1;
    }
    event->triggered = 1;
    event->ok = (char)ok;
    event->own_value = value == (PyObject *)event;
    Py_XSETREF(event->value, Py_NewRef(event->own_value ? Py_None : value));
    return schedule(event->engine, (PyObject *)event, 0.0, priority);
}

static int
event_append(EventObject *event, PyObject *callback)
{
    if (event->callbacks != NULL)
        return PyList_Append(event->callbacks, callback);
    if (event->waiter == NULL) {
        event->waiter = Py_NewRef(callback);
        return 0;
    }
    PyObject *callbacks = PyList_New(2);
    if (callbacks == NULL)
        return -1;
    PyList_SET_ITEM(callbacks, 0, event->waiter);
    PyList_SET_ITEM(callbacks, 1, Py_NewRef(callback));
    event->waiter = NULL;
    event->callbacks = callbacks;
    return 0;
}

static int
event_has_callbacks(EventObject *event)
{
    return event->waiter != NULL
        || (event->callbacks != NULL && PyList_GET_SIZE(event->callbacks));
}

static int process_resume(ProcessObject *process, EventObject *event);
static PyObject *process_call(PyObject *self, PyObject *args,
                              PyObject *kwargs);
static int allof_on_child(PyObject *all, EventObject *child);

static int
invoke(PyObject *callback, EventObject *event)
{
    if (Py_TYPE(callback)->tp_call == process_call)
        return process_resume((ProcessObject *)callback, event);
    if (Py_IS_TYPE(callback, &AllOfType))
        return allof_on_child(callback, event);
    PyObject *result = PyObject_CallOneArg(callback, (PyObject *)event);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* Mark ``event`` processed and run its callbacks in order; the first
 * failing callback ends the run and its exception propagates. */
static int
event_process(EventObject *event)
{
    PyObject *waiter = event->waiter, *callbacks = event->callbacks;
    int status = 0;
    event->processed = 1;
    event->waiter = event->callbacks = NULL;
    if (waiter != NULL) {
        status = invoke(waiter, event);
        Py_DECREF(waiter);
    }
    if (callbacks != NULL) {
        for (Py_ssize_t i = 0;
             status == 0 && i < PyList_GET_SIZE(callbacks); i++) {
            PyObject *callback = Py_NewRef(PyList_GET_ITEM(callbacks, i));
            status = invoke(callback, event);
            Py_DECREF(callback);
        }
        Py_DECREF(callbacks);
    }
    return status;
}

static EventObject *
event_alloc(PyTypeObject *type, EngineObject *engine)
{
    EventObject *event = (EventObject *)type->tp_alloc(type, 0);
    if (event == NULL)
        return NULL;
    event->engine = (EngineObject *)Py_NewRef((PyObject *)engine);
    event->value = Py_NewRef(Py_None);
    event->ok = 1;
    return event;
}

static int
check_engine(PyObject *engine)
{
    if (PyObject_TypeCheck(engine, &EngineType))
        return 0;
    PyErr_Format(PyExc_TypeError, "expected an Engine, got %R", engine);
    return -1;
}

static PyObject *
event_new(PyTypeObject *type, PyObject *Py_UNUSED(args),
          PyObject *Py_UNUSED(kwargs))
{
    EventObject *event = (EventObject *)type->tp_alloc(type, 0);
    if (event != NULL) {
        event->value = Py_NewRef(Py_None);
        event->ok = 1;
    }
    return (PyObject *)event;
}

static int
event_init(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"engine", NULL};
    EventObject *event = (EventObject *)self;
    PyObject *engine;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O:Event", names, &engine)
        || check_engine(engine) < 0)
        return -1;
    Py_XSETREF(event->engine, (EngineObject *)Py_NewRef(engine));
    Py_CLEAR(event->waiter);
    Py_CLEAR(event->callbacks);
    Py_XSETREF(event->value, Py_NewRef(Py_None));
    event->ok = 1;
    event->triggered = event->processed = event->own_value = 0;
    return 0;
}

/* ``Event(engine)``.  A type's vectorcall serves calls of that type
 * only: subtypes never inherit it, so ``type`` is always EventType
 * here (TimeoutType and RequestType below likewise). */
static PyObject *
event_vectorcall(PyObject *Py_UNUSED(type), PyObject *const *args,
                 size_t nargsf, PyObject *kwnames)
{
    static const char *const names[] = {"engine"};
    PyObject *engine;
    if (bind_args("Event", args, nargsf, kwnames, names, 1, 1, &engine) < 0
        || check_engine(engine) < 0)
        return NULL;
    return (PyObject *)event_alloc(&EventType, (EngineObject *)engine);
}

static int
event_traverse(PyObject *self, visitproc visit, void *arg)
{
    EventObject *event = (EventObject *)self;
    Py_VISIT(event->engine);
    Py_VISIT(event->waiter);
    Py_VISIT(event->callbacks);
    Py_VISIT(event->value);
    return 0;
}

static int
event_clear(PyObject *self)
{
    EventObject *event = (EventObject *)self;
    Py_CLEAR(event->engine);
    Py_CLEAR(event->waiter);
    Py_CLEAR(event->callbacks);
    Py_CLEAR(event->value);
    return 0;
}

static void
gc_dealloc(PyObject *self)
{
    PyObject_GC_UnTrack(self);
    Py_TYPE(self)->tp_clear(self);
    Py_TYPE(self)->tp_free(self);
}

static PyObject *
event_succeed(PyObject *self, PyObject *const *args, size_t nargsf,
              PyObject *kwnames)
{
    static const char *const names[] = {"value", "priority"};
    PyObject *bound[2];
    long priority;
    if (bind_args("succeed", args, nargsf, kwnames, names, 2, 0, bound) < 0
        || as_priority(bound[1], &priority) < 0
        || event_trigger((EventObject *)self,
                         bound[0] ? bound[0] : Py_None, 1, priority) < 0)
        return NULL;
    return Py_NewRef(self);
}

static PyObject *
event_fail(PyObject *self, PyObject *const *args, size_t nargsf,
           PyObject *kwnames)
{
    static const char *const names[] = {"exception", "priority"};
    PyObject *bound[2];
    long priority;
    if (bind_args("fail", args, nargsf, kwnames, names, 2, 1, bound) < 0)
        return NULL;
    if (((EventObject *)self)->triggered) {
        PyErr_SetString(SimulationError, "event triggered twice");
        return NULL;
    }
    if (!PyExceptionInstance_Check(bound[0])) {
        PyErr_SetString(PyExc_TypeError,
                        "fail() requires an exception instance");
        return NULL;
    }
    if (as_priority(bound[1], &priority) < 0
        || event_trigger((EventObject *)self, bound[0], 0, priority) < 0)
        return NULL;
    return Py_NewRef(self);
}

static PyObject *
event_add_callback(PyObject *self, PyObject *callback)
{
    EventObject *event = (EventObject *)self;
    if (event->processed) {
        if (invoke(callback, event) < 0)
            return NULL;
    }
    else if (event_append(event, callback) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
event_repr(PyObject *self)
{
    EventObject *event = (EventObject *)self;
    const char *name = strrchr(Py_TYPE(self)->tp_name, '.');
    return PyUnicode_FromFormat(
        "<%s %s>", name ? name + 1 : Py_TYPE(self)->tp_name,
        event->processed ? "processed"
        : event->triggered ? "triggered" : "pending");
}

static PyObject *
event_get_triggered(PyObject *self, void *Py_UNUSED(closure))
{
    return PyBool_FromLong(((EventObject *)self)->triggered);
}

static PyObject *
event_get_processed(PyObject *self, void *Py_UNUSED(closure))
{
    return PyBool_FromLong(((EventObject *)self)->processed);
}

static PyObject *
event_get_ok(PyObject *self, void *Py_UNUSED(closure))
{
    return PyBool_FromLong(((EventObject *)self)->ok);
}

static PyObject *
event_get_value(PyObject *self, void *Py_UNUSED(closure))
{
    EventObject *event = (EventObject *)self;
    if (!event->triggered) {
        PyErr_SetString(SimulationError,
                        "value read from an untriggered event");
        return NULL;
    }
    return Py_NewRef(event_value(event));
}

static PyObject *
event_get_engine(PyObject *self, void *Py_UNUSED(closure))
{
    PyObject *engine = (PyObject *)((EventObject *)self)->engine;
    return Py_NewRef(engine ? engine : Py_None);
}

static PyObject *
event_get_callbacks(PyObject *self, void *Py_UNUSED(closure))
{
    EventObject *event = (EventObject *)self;
    if (event->callbacks == NULL) {
        PyObject *callbacks = PyList_New(event->waiter != NULL);
        if (callbacks == NULL)
            return NULL;
        if (event->waiter != NULL)
            PyList_SET_ITEM(callbacks, 0, event->waiter);
        event->waiter = NULL;
        event->callbacks = callbacks;
    }
    return Py_NewRef(event->callbacks);
}

static PyMethodDef event_methods[] = {
    {"succeed", (PyCFunction)(void (*)(void))event_succeed,
     METH_FASTCALL | METH_KEYWORDS,
     "succeed(value=None, priority=1)\n\n"
     "Trigger the event successfully with ``value``."},
    {"fail", (PyCFunction)(void (*)(void))event_fail,
     METH_FASTCALL | METH_KEYWORDS,
     "fail(exception, priority=1)\n\n"
     "Trigger the event with an exception to raise in waiters."},
    {"add_callback", event_add_callback, METH_O,
     "add_callback(callback)\n\n"
     "Run ``callback(event)`` when the event is processed; at once if it "
     "already was, so late waiters are never lost."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef event_getset[] = {
    {"triggered", event_get_triggered, NULL,
     "True once the event has been scheduled with a value.", NULL},
    {"processed", event_get_processed, NULL,
     "True once the event's callbacks have run.", NULL},
    {"ok", event_get_ok, NULL,
     "False when the event carries a failure (an exception value).", NULL},
    {"value", event_get_value, NULL,
     "The value the event was triggered with.", NULL},
    {"engine", event_get_engine, NULL, "The engine the event runs on.",
     NULL},
    {"callbacks", event_get_callbacks, NULL,
     "The callbacks still to run, in order (a list).", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject EventType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.engine.Event",
    .tp_doc = "Event(engine)\n\n"
              "A waitable, one-shot occurrence on the simulation timeline: "
              "pending, then triggered (queued with a value), then "
              "processed (its callbacks have run).",
    .tp_basicsize = sizeof(EventObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = event_new,
    .tp_init = event_init,
    .tp_vectorcall = event_vectorcall,
    .tp_dealloc = gc_dealloc,
    .tp_traverse = event_traverse,
    .tp_clear = event_clear,
    .tp_repr = event_repr,
    .tp_methods = event_methods,
    .tp_getset = event_getset,
};

/* -- timeouts ------------------------------------------------------------- */

/* A Timeout firing ``seconds`` from now with ``value`` (borrowed; NULL
 * for None).  ``not seconds >= 0`` also rejects NaN, which would break
 * the order; ``delay`` is the given object, for the message. */
static PyObject *
timeout_after(EngineObject *engine, double seconds, PyObject *value,
              PyObject *delay)
{
    if (!(seconds >= 0)) {
        PyObject *shown = delay != NULL ? Py_NewRef(delay)
                                        : PyFloat_FromDouble(seconds);
        if (shown != NULL) {
            PyErr_Format(PyExc_ValueError, "negative timeout delay: %S",
                         shown);
            Py_DECREF(shown);
        }
        return NULL;
    }
    EventObject *event = event_alloc(&TimeoutType, engine);
    if (event == NULL)
        return NULL;
    if (value != NULL)
        Py_SETREF(event->value, Py_NewRef(value));
    event->triggered = 1;
    if (schedule(engine, (PyObject *)event, seconds, NORMAL) < 0) {
        Py_DECREF(event);
        return NULL;
    }
    return (PyObject *)event;
}

static PyObject *
timeout_create(PyObject *engine, PyObject *delay, PyObject *value)
{
    double seconds;
    if (check_engine(engine) < 0)
        return NULL;
    seconds = PyFloat_CheckExact(delay) ? PyFloat_AS_DOUBLE(delay)
                                        : PyFloat_AsDouble(delay);
    if (seconds == -1.0 && PyErr_Occurred())
        return NULL;
    return timeout_after((EngineObject *)engine, seconds, value, delay);
}

static const char *const timeout_names[] = {"engine", "delay", "value"};

static PyObject *
timeout_vectorcall(PyObject *Py_UNUSED(type), PyObject *const *args,
                   size_t nargsf, PyObject *kwnames)
{
    PyObject *bound[3];
    if (bind_args("Timeout", args, nargsf, kwnames, timeout_names, 3, 2,
                  bound) < 0)
        return NULL;
    return timeout_create(bound[0], bound[1], bound[2]);
}

static PyTypeObject TimeoutType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.engine.Timeout",
    .tp_doc = "Timeout(engine, delay, value=None)\n\n"
              "An event that fires ``delay`` time units after creation; "
              "negative and NaN delays are rejected.",
    .tp_basicsize = sizeof(EventObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_vectorcall = timeout_vectorcall,
    .tp_dealloc = gc_dealloc,
    .tp_traverse = event_traverse,
    .tp_clear = event_clear,
};

/* -- resources and their requests ---------------------------------------- */

static int
request_traverse(PyObject *self, visitproc visit, void *arg)
{
    Py_VISIT(((RequestObject *)self)->resource);
    return event_traverse(self, visit, arg);
}

static int
request_clear(PyObject *self)
{
    Py_CLEAR(((RequestObject *)self)->resource);
    return event_clear(self);
}

static PyObject *resource_release(PyObject *self, PyObject *claim);

static PyObject *
request_enter(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    return Py_NewRef(self);
}

static PyObject *
request_exit(PyObject *self, PyObject *Py_UNUSED(args))
{
    ResourceObject *resource = ((RequestObject *)self)->resource;
    if (resource == NULL)
        Py_RETURN_NONE;
    return resource_release((PyObject *)resource, self);
}

static PyObject *
request_get_resource(PyObject *self, void *Py_UNUSED(closure))
{
    PyObject *resource = (PyObject *)((RequestObject *)self)->resource;
    return Py_NewRef(resource ? resource : Py_None);
}

static PyMethodDef request_methods[] = {
    {"__enter__", request_enter, METH_NOARGS, NULL},
    {"__exit__", request_exit, METH_VARARGS,
     "Release the claim on leaving a ``with`` block."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef request_getset[] = {
    {"resource", request_get_resource, NULL, "The claimed resource.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject RequestType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.resources.Request",
    .tp_doc = "A pending or granted claim on a Resource slot, made by "
              "Resource.request().",
    .tp_basicsize = sizeof(RequestObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_dealloc = gc_dealloc,
    .tp_traverse = request_traverse,
    .tp_clear = request_clear,
    .tp_methods = request_methods,
    .tp_getset = request_getset,
};

/* Add the slot-time since the last change: busy += in_use * (now -
 * last), the double operations of the Python expression. */
static inline void
resource_accrue(ResourceObject *resource)
{
    double now = resource->engine->now;
    resource->busy += (double)resource->in_use * (now - resource->last);
    resource->last = now;
}

/* Give a free slot to ``claim``: its event succeeds with itself. */
static int
resource_grant(ResourceObject *resource, RequestObject *claim)
{
    resource->in_use++;
    resource->grants++;
    claim->state = CLAIM_HELD;
    claim->closes = resource->closes;
    return event_trigger(&claim->event, (PyObject *)claim, 1, NORMAL);
}

/* Unlink ``claim`` from the queue; the queue's reference passes to the
 * caller. */
static void
resource_unlink(ResourceObject *resource, RequestObject *claim)
{
    if (claim->prev != NULL)
        claim->prev->next = claim->next;
    else
        resource->head = claim->next;
    if (claim->next != NULL)
        claim->next->prev = claim->prev;
    else
        resource->tail = claim->prev;
    claim->prev = claim->next = NULL;
}

static void
resource_drop_queue(ResourceObject *resource)
{
    while (resource->head != NULL) {
        RequestObject *claim = resource->head;
        resource_unlink(resource, claim);
        claim->state = CLAIM_DONE;
        Py_DECREF(claim);
    }
}

static ResourceObject *
resource_make(PyTypeObject *type, PyObject *engine, Py_ssize_t capacity,
              PyObject *name)
{
    if (check_engine(engine) < 0)
        return NULL;
    if (capacity < 1) {
        PyErr_Format(PyExc_ValueError, "capacity must be >= 1, got %zd",
                     capacity);
        return NULL;
    }
    ResourceObject *resource = (ResourceObject *)type->tp_alloc(type, 0);
    if (resource == NULL)
        return NULL;
    resource->engine = (EngineObject *)Py_NewRef(engine);
    resource->name = name ? Py_NewRef(name) : PyUnicode_FromString("");
    resource->capacity = capacity;
    resource->last = resource->engine->now;
    if (resource->name == NULL
        || PyList_Append(resource->engine->resources,
                         (PyObject *)resource) < 0)
        Py_CLEAR(resource);
    return resource;
}

static PyObject *
resource_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"engine", "capacity", "name", NULL};
    PyObject *engine, *name = NULL;
    Py_ssize_t capacity = 1;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O|nO:Resource", names,
                                     &engine, &capacity, &name))
        return NULL;
    return (PyObject *)resource_make(type, engine, capacity, name);
}

static int
resource_traverse(PyObject *self, visitproc visit, void *arg)
{
    ResourceObject *resource = (ResourceObject *)self;
    Py_VISIT(resource->engine);
    Py_VISIT(resource->name);
    for (RequestObject *claim = resource->head; claim; claim = claim->next)
        Py_VISIT(claim);
    return 0;
}

static int
resource_clear(PyObject *self)
{
    ResourceObject *resource = (ResourceObject *)self;
    resource_drop_queue(resource);
    Py_CLEAR(resource->engine);
    Py_CLEAR(resource->name);
    return 0;
}

static void
resource_dealloc(PyObject *self)
{
    PyObject_GC_UnTrack(self);
    resource_clear(self);
    Py_TYPE(self)->tp_free(self);
}

static int
resource_check_engine(ResourceObject *resource)
{
    if (resource->engine != NULL)
        return 0;
    PyErr_SetString(SimulationError, "resource has no engine");
    return -1;
}

/* Claim a slot: granted at once while one is free (its event
 * succeeds), else queued behind the earlier claims. */
static PyObject *
resource_request(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    ResourceObject *resource = (ResourceObject *)self;
    if (resource_check_engine(resource) < 0)
        return NULL;
    RequestObject *claim =
        (RequestObject *)event_alloc(&RequestType, resource->engine);
    if (claim == NULL)
        return NULL;
    claim->resource = (ResourceObject *)Py_NewRef(self);
    if (resource->in_use < resource->capacity) {
        resource_accrue(resource);
        if (resource_grant(resource, claim) < 0)
            Py_CLEAR(claim);
    }
    else {
        claim->state = CLAIM_QUEUED;
        claim->prev = resource->tail;
        if (resource->tail != NULL)
            resource->tail->next = claim;
        else
            resource->head = claim;
        resource->tail = (RequestObject *)Py_NewRef(claim);
    }
    return (PyObject *)claim;
}

/* Return a held slot and grant freed slots to the queue in FIFO order
 * (one accrual covers the release and every grant it makes: they all
 * happen at this instant), or cancel a queued claim.  Anything else,
 * a claim released twice included, is a no-op. */
static PyObject *
resource_release(PyObject *self, PyObject *arg)
{
    ResourceObject *resource = (ResourceObject *)self;
    RequestObject *claim = (RequestObject *)arg;
    if (!PyObject_TypeCheck(arg, &RequestType) || claim->resource != resource)
        Py_RETURN_NONE;
    if (claim->state == CLAIM_HELD && claim->closes == resource->closes) {
        if (resource_check_engine(resource) < 0)
            return NULL;
        resource_accrue(resource);
        claim->state = CLAIM_DONE;
        resource->in_use--;
        while (resource->head != NULL
               && resource->in_use < resource->capacity) {
            RequestObject *waiter = resource->head;
            resource_unlink(resource, waiter);
            int status = resource_grant(resource, waiter);
            Py_DECREF(waiter);
            if (status < 0)
                return NULL;
        }
    }
    else if (claim->state == CLAIM_QUEUED) {
        resource_unlink(resource, claim);
        claim->state = CLAIM_DONE;
        Py_DECREF(claim);
    }
    Py_RETURN_NONE;
}

/* Drop every claim, held and queued: a queued claim refers to its
 * resource, which holds it, so the pair is a cycle. */
static void
resource_close_claims(ResourceObject *resource)
{
    resource->in_use = 0;
    resource->closes++;
    resource_drop_queue(resource);
}

static PyObject *
resource_close(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    resource_close_claims((ResourceObject *)self);
    Py_RETURN_NONE;
}

static PyObject *
resource_busy_time(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    ResourceObject *resource = (ResourceObject *)self;
    if (resource_check_engine(resource) < 0)
        return NULL;
    resource_accrue(resource);
    return PyFloat_FromDouble(resource->busy);
}

static PyObject *
resource_utilization(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"elapsed", NULL};
    ResourceObject *resource = (ResourceObject *)self;
    PyObject *given = Py_None;
    double elapsed;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "|O:utilization", names,
                                     &given)
        || resource_check_engine(resource) < 0)
        return NULL;
    if (given == Py_None)
        elapsed = resource->engine->now;
    else {
        elapsed = PyFloat_AsDouble(given);
        if (elapsed == -1.0 && PyErr_Occurred())
            return NULL;
    }
    if (elapsed <= 0)
        return PyFloat_FromDouble(0.0);
    resource_accrue(resource);
    return PyFloat_FromDouble(
        resource->busy / ((double)resource->capacity * elapsed));
}

static PyMethodDef resource_methods[] = {
    {"request", resource_request, METH_NOARGS,
     "request()\n\n"
     "Claim a slot; the returned Request fires when the slot is granted."},
    {"release", resource_release, METH_O,
     "release(request)\n\n"
     "Return a granted slot and wake the next waiter, or cancel a queued "
     "claim; releasing again is a no-op."},
    {"busy_time", resource_busy_time, METH_NOARGS,
     "busy_time()\n\n"
     "Integral of the in-use slot count over time, up to now."},
    {"utilization", (PyCFunction)(void (*)(void))resource_utilization,
     METH_VARARGS | METH_KEYWORDS,
     "utilization(elapsed=None)\n\n"
     "Mean fraction of slots in use over ``elapsed`` (default: since "
     "t=0)."},
    {"close", resource_close, METH_NOARGS,
     "close()\n\n"
     "Drop every claim, granted and queued (Engine.close)."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef resource_members[] = {
    {"engine", T_OBJECT, offsetof(ResourceObject, engine), READONLY,
     "The engine the resource runs on."},
    {"name", T_OBJECT, offsetof(ResourceObject, name), READONLY,
     "The resource's label."},
    {"capacity", T_PYSSIZET, offsetof(ResourceObject, capacity), READONLY,
     "The number of identical slots."},
    {"grants", T_LONGLONG, offsetof(ResourceObject, grants), READONLY,
     "Requests granted so far: each grant schedules one event."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject ResourceType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.resources.Resource",
    .tp_doc = "Resource(engine, capacity=1, name='')\n\n"
              "A facility with ``capacity`` identical slots and a FIFO "
              "wait queue.  It records the busy slot-time (the integral "
              "of slots in use over time), so utilization is "
              "busy_time() / (capacity * elapsed).",
    .tp_basicsize = sizeof(ResourceObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = resource_new,
    .tp_dealloc = resource_dealloc,
    .tp_traverse = resource_traverse,
    .tp_clear = resource_clear,
    .tp_methods = resource_methods,
    .tp_members = resource_members,
};

/* -- processes ------------------------------------------------------------ */

/* One step of the generator: send ``value`` in, or throw it when
 * ``throw`` is set.  A generator steps through PyIter_Send; any other
 * object with send/throw through its methods, where StopIteration
 * carries the return value. */
static PySendResult
step(PyObject *generator, PyObject *value, int throw, PyObject **result)
{
    PyTypeObject *type = Py_TYPE(generator);
    if (!throw && type->tp_as_async != NULL
        && type->tp_as_async->am_send != NULL)
        return PyIter_Send(generator, value, result);
    *result = PyObject_CallMethodOneArg(generator,
                                        throw ? str_throw : str_send, value);
    if (*result != NULL)
        return PYGEN_NEXT;
    if (!PyErr_ExceptionMatches(PyExc_StopIteration))
        return PYGEN_ERROR;
    PyObject *stop = take_exception();
    *result = Py_NewRef(((PyStopIterationObject *)stop)->value);
    Py_DECREF(stop);
    return PYGEN_RETURN;
}

static int
process_unlist(ProcessObject *process)
{
    EngineObject *engine = process->event.engine;
    if (!process->live || engine == NULL || engine->live == NULL)
        return 0;
    process->live = 0;
    return PyDict_DelItem(engine->live, (PyObject *)process);
}

/* The generator raised: fail the process for its waiters, or raise
 * the exception out of the dispatch loop when nobody waits on it. */
static int
process_crash(ProcessObject *process)
{
    PyObject *exception = take_exception();
    if (process_unlist(process) < 0) {
        Py_DECREF(exception);
        return -1;
    }
    if (!event_has_callbacks(&process->event)) {
        raise_exception(exception);
        return -1;
    }
    int status = event_trigger(&process->event, exception, 0, NORMAL);
    Py_DECREF(exception);
    return status;
}

static int
process_finish(ProcessObject *process, PyObject *value)
{
    int status = process_unlist(process);
    if (status == 0)
        status = event_trigger(&process->event, value, 1, NORMAL);
    Py_DECREF(value);
    return status;
}

/* The rare yields: a non-event or the process itself (thrown back
 * into the generator as a SimulationError), or an event already
 * processed (its add_callback resumes the process at once). */
static int
process_settle(ProcessObject *process, PyObject *target)
{
    PyObject *self = (PyObject *)process;
    while (!PyObject_TypeCheck(target, &EventType) || target == self) {
        PyObject *error = target == self
            ? PyObject_CallFunction(SimulationError, "s",
                                    "process waited on itself")
            : PyObject_CallFunction(SimulationError, "N",
                                    PyUnicode_FromFormat(
                                        "process yielded a non-event: %R",
                                        target));
        Py_DECREF(target);
        if (error == NULL)
            return -1;
        PySendResult status = step(process->generator, error, 1, &target);
        Py_DECREF(error);
        if (status == PYGEN_RETURN)
            return process_finish(process, target);
        if (status == PYGEN_ERROR)
            return process_crash(process);
    }
    PyObject *result = PyObject_CallMethodOneArg(target, str_add_callback,
                                                 self);
    Py_DECREF(target);
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* Resume the process with ``event``'s outcome; the common case is
 * straight-line: step the generator and wait on the pending event it
 * yields. */
static int
process_resume(ProcessObject *process, EventObject *event)
{
    PyObject *target;
    PySendResult status;
    if (process->generator == NULL) {
        PyErr_SetString(SimulationError, "process has no generator");
        return -1;
    }
    if (Py_EnterRecursiveCall(" while resuming a process"))
        return process_crash(process);
    status = step(process->generator, event_value(event), !event->ok,
                  &target);
    Py_LeaveRecursiveCall();
    if (status == PYGEN_RETURN)
        return process_finish(process, target);
    if (status == PYGEN_ERROR)
        return process_crash(process);
    if (PyObject_TypeCheck(target, &EventType)
        && target != (PyObject *)process
        && !((EventObject *)target)->processed) {
        int appended = event_append((EventObject *)target,
                                    (PyObject *)process);
        Py_DECREF(target);
        return appended;
    }
    return process_settle(process, target);
}

static PyObject *
process_call(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"event", NULL};
    PyObject *event;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O!:resume", names,
                                     &EventType, &event)
        || process_resume((ProcessObject *)self, (EventObject *)event) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
process_init(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"engine", "generator", NULL};
    ProcessObject *process = (ProcessObject *)self;
    PyObject *engine, *generator;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:Process", names,
                                     &engine, &generator))
        return -1;
    int has_send = PyObject_HasAttr(generator, str_send);
    if (!has_send || !PyObject_HasAttr(generator, str_throw)) {
        PyErr_Format(PyExc_TypeError, "process() needs a generator, got %R",
                     generator);
        return -1;
    }
    PyObject *engine_args = PyTuple_Pack(1, engine);
    if (engine_args == NULL)
        return -1;
    int status = event_init(self, engine_args, NULL);
    Py_DECREF(engine_args);
    if (status < 0)
        return -1;
    Py_XSETREF(process->generator, Py_NewRef(generator));
    EngineObject *home = process->event.engine;
    if (PyDict_SetItem(home->live, self, Py_None) < 0)
        return -1;
    process->live = 1;
    /* Kick off the process at the current simulation time. */
    EventObject *bootstrap = event_alloc(&EventType, home);
    if (bootstrap == NULL)
        return -1;
    bootstrap->waiter = Py_NewRef(self);
    bootstrap->triggered = 1;
    status = schedule(home, (PyObject *)bootstrap, 0.0, URGENT);
    Py_DECREF(bootstrap);
    return status;
}

static int
process_traverse(PyObject *self, visitproc visit, void *arg)
{
    Py_VISIT(((ProcessObject *)self)->generator);
    return event_traverse(self, visit, arg);
}

static int
process_clear(PyObject *self)
{
    Py_CLEAR(((ProcessObject *)self)->generator);
    return event_clear(self);
}

static PyTypeObject ProcessType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._des.Process",
    .tp_doc = "Process(engine, generator)\n\n"
              "A running simulation process: an event that completes with "
              "its generator's return value.  Calling it with an event "
              "resumes the generator with that event's outcome.",
    .tp_basicsize = sizeof(ProcessObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = event_new,
    .tp_init = process_init,
    .tp_call = process_call,
    .tp_dealloc = gc_dealloc,
    .tp_traverse = process_traverse,
    .tp_clear = process_clear,
};

/* -- all-of conditions ---------------------------------------------------- */

/* An event that completes when every child has, with their values by
 * index, or fails with the first child failure.  The condition is each
 * child's callback (invoke() calls allof_on_child), appended after the
 * callbacks the child already had; a child processed before the
 * condition was built counts at once. */
typedef struct {
    EventObject event;
    PyObject *events;           /* list: the children, in order */
    Py_ssize_t completed;
} AllOfObject;

static int
allof_succeed(AllOfObject *all)
{
    PyObject *values = PyDict_New();
    if (values == NULL)
        return -1;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(all->events); i++) {
        PyObject *index = PyLong_FromSsize_t(i);
        int status = index == NULL ? -1 : PyDict_SetItem(
            values, index,
            event_value((EventObject *)PyList_GET_ITEM(all->events, i)));
        Py_XDECREF(index);
        if (status < 0) {
            Py_DECREF(values);
            return -1;
        }
    }
    int status = event_trigger(&all->event, values, 1, NORMAL);
    Py_DECREF(values);
    return status;
}

static int
allof_on_child(PyObject *self, EventObject *child)
{
    AllOfObject *all = (AllOfObject *)self;
    if (all->event.triggered)
        return 0;
    if (!child->ok)
        return event_trigger(&all->event, event_value(child), 0, NORMAL);
    if (++all->completed < PyList_GET_SIZE(all->events))
        return 0;
    return allof_succeed(all);
}

static PyObject *
allof_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"engine", "events", NULL};
    PyObject *engine, *events;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:AllOf", names,
                                     &engine, &events)
        || check_engine(engine) < 0)
        return NULL;
    PyObject *children = PySequence_List(events);
    if (children == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(children); i++) {
        PyObject *child = PyList_GET_ITEM(children, i);
        if (!PyObject_TypeCheck(child, &EventType)) {
            PyErr_Format(PyExc_TypeError, "AllOf waits on events, got %R",
                         child);
            Py_DECREF(children);
            return NULL;
        }
    }
    AllOfObject *all = (AllOfObject *)event_alloc(type, (EngineObject *)engine);
    if (all == NULL) {
        Py_DECREF(children);
        return NULL;
    }
    all->events = children;
    int status = 0;
    if (PyList_GET_SIZE(children) == 0)
        status = allof_succeed(all);
    for (Py_ssize_t i = 0; status == 0 && i < PyList_GET_SIZE(children); i++) {
        EventObject *child = (EventObject *)PyList_GET_ITEM(children, i);
        status = child->processed ? allof_on_child((PyObject *)all, child)
                                  : event_append(child, (PyObject *)all);
    }
    if (status < 0)
        Py_CLEAR(all);
    return (PyObject *)all;
}

/* The work is done in allof_new; Event's initializer must not run. */
static int
allof_init(PyObject *Py_UNUSED(self), PyObject *Py_UNUSED(args),
           PyObject *Py_UNUSED(kwargs))
{
    return 0;
}

static int
allof_traverse(PyObject *self, visitproc visit, void *arg)
{
    Py_VISIT(((AllOfObject *)self)->events);
    return event_traverse(self, visit, arg);
}

static int
allof_clear(PyObject *self)
{
    Py_CLEAR(((AllOfObject *)self)->events);
    return event_clear(self);
}

static PyMemberDef allof_members[] = {
    {"events", T_OBJECT, offsetof(AllOfObject, events), READONLY,
     "The child events, in order."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject AllOfType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.engine.AllOf",
    .tp_doc = "AllOf(engine, events)\n\n"
              "Completes when every child event has completed, with their "
              "values by index ({} without children); fails with the first "
              "child failure.",
    .tp_basicsize = sizeof(AllOfObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = allof_new,
    .tp_init = allof_init,
    .tp_dealloc = gc_dealloc,
    .tp_traverse = allof_traverse,
    .tp_clear = allof_clear,
    .tp_members = allof_members,
};

/* -- statistics ----------------------------------------------------------- */

/* Counter and Tally share their head: the name, then the numbers. */
typedef struct {
    PyObject_HEAD
    PyObject *name;
    double count;
} CounterObject;

typedef struct {
    PyObject_HEAD
    PyObject *name;
    long long n;
    double mean;
} TallyObject;

typedef struct {
    PyObject_HEAD
    PyObject *name;
} StatObject;

static PyObject *
stat_make(PyTypeObject *type, PyObject *name)
{
    StatObject *stat = (StatObject *)type->tp_alloc(type, 0);
    if (stat == NULL)
        return NULL;
    stat->name = name ? Py_NewRef(name) : PyUnicode_FromString("");
    if (stat->name == NULL)
        Py_CLEAR(stat);
    return (PyObject *)stat;
}

static PyObject *
stat_named(PyTypeObject *type, const char *label)
{
    PyObject *name = PyUnicode_FromString(label);
    if (name == NULL)
        return NULL;
    PyObject *stat = stat_make(type, name);
    Py_DECREF(name);
    return stat;
}

static PyObject *
stat_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"name", NULL};
    PyObject *name = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "|O", names, &name))
        return NULL;
    return stat_make(type, name);
}

static void
stat_dealloc(PyObject *self)
{
    Py_XDECREF(((StatObject *)self)->name);
    Py_TYPE(self)->tp_free(self);
}

/* Add ``amount`` to ``counter``; ``not amount >= 0`` (NaN too) raises
 * ValueError naming ``given``, the amount as given (NULL: as a float). */
static int
counter_increase(CounterObject *counter, double amount, PyObject *given)
{
    if (amount >= 0) {
        counter->count += amount;
        return 0;
    }
    PyObject *shown = given ? Py_NewRef(given) : PyFloat_FromDouble(amount);
    if (shown != NULL) {
        PyErr_Format(PyExc_ValueError, "counter %R decremented by %S",
                     counter->name, shown);
        Py_DECREF(shown);
    }
    return -1;
}

static PyObject *
counter_add(PyObject *self, PyObject *const *args, size_t nargsf,
            PyObject *kwnames)
{
    static const char *const names[] = {"amount"};
    PyObject *given;
    double amount = 1.0;
    if (bind_args("add", args, nargsf, kwnames, names, 1, 0, &given) < 0)
        return NULL;
    if (given != NULL) {
        amount = PyFloat_AsDouble(given);
        if (amount == -1.0 && PyErr_Occurred())
            return NULL;
    }
    if (counter_increase((CounterObject *)self, amount, given) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
counter_snapshot(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyFloat_FromDouble(((CounterObject *)self)->count);
}

static PyMethodDef counter_methods[] = {
    {"add", (PyCFunction)(void (*)(void))counter_add,
     METH_FASTCALL | METH_KEYWORDS,
     "add(amount=1.0)\n\n"
     "Increment the counter; negative and NaN amounts are rejected."},
    {"snapshot", counter_snapshot, METH_NOARGS,
     "snapshot()\n\nCurrent value, for interval deltas taken by a sampler."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef counter_members[] = {
    {"name", T_OBJECT, offsetof(CounterObject, name), READONLY,
     "The counter's label."},
    {"count", T_DOUBLE, offsetof(CounterObject, count), 0,
     "The count so far (a float)."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CounterType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.stats.Counter",
    .tp_doc = "Counter(name='')\n\nA named monotone event counter.",
    .tp_basicsize = sizeof(CounterObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = stat_new,
    .tp_dealloc = stat_dealloc,
    .tp_methods = counter_methods,
    .tp_members = counter_members,
};

/* Welford's update, the double operations of the Python expressions
 * ``delta = value - mean; mean += delta / n``. */
static void
tally_record(TallyObject *tally, double value)
{
    tally->n++;
    double delta = value - tally->mean;
    tally->mean += delta / (double)tally->n;
}

static PyObject *
tally_record_method(PyObject *self, PyObject *value)
{
    double observed = PyFloat_AsDouble(value);
    if (observed == -1.0 && PyErr_Occurred())
        return NULL;
    tally_record((TallyObject *)self, observed);
    Py_RETURN_NONE;
}

static PyObject *
tally_get_mean(PyObject *self, void *Py_UNUSED(closure))
{
    TallyObject *tally = (TallyObject *)self;
    return PyFloat_FromDouble(tally->n ? tally->mean : 0.0);
}

static PyMethodDef tally_methods[] = {
    {"record", tally_record_method, METH_O,
     "record(value)\n\nFold one observation into the running mean."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef tally_members[] = {
    {"name", T_OBJECT, offsetof(TallyObject, name), READONLY,
     "The tally's label."},
    {"n", T_LONGLONG, offsetof(TallyObject, n), READONLY,
     "Observations recorded."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef tally_getset[] = {
    {"mean", tally_get_mean, NULL,
     "Mean of the recorded observations (0.0 before the first).", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject TallyType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.stats.Tally",
    .tp_doc = "Tally(name='')\n\n"
              "Streaming mean (Welford's update) over discrete observations.",
    .tp_basicsize = sizeof(TallyObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = stat_new,
    .tp_dealloc = stat_dealloc,
    .tp_methods = tally_methods,
    .tp_members = tally_members,
    .tp_getset = tally_getset,
};

/* -- gates ---------------------------------------------------------------- */

/* A broadcast condition with a level that only rises: a waiter's event
 * succeeds once the level reaches its threshold.  The waiters are kept
 * in arrival order, and one advance wakes every satisfied one in that
 * order (the redo log's group commit: one flush wakes each transaction
 * it covers). */
typedef struct {
    double threshold;
    EventObject *event;         /* strong */
} GateWaiter;

typedef struct {
    PyObject_HEAD
    EngineObject *engine;
    PyObject *name;
    double level;
    GateWaiter *waiters;
    Py_ssize_t count, capacity;
} GateObject;

static PyObject *
gate_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"engine", "level", "name", NULL};
    PyObject *engine, *name = NULL;
    double level = 0.0;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O|dO:Gate", names,
                                     &engine, &level, &name)
        || check_engine(engine) < 0)
        return NULL;
    GateObject *gate = (GateObject *)type->tp_alloc(type, 0);
    if (gate == NULL)
        return NULL;
    gate->engine = (EngineObject *)Py_NewRef(engine);
    gate->name = name ? Py_NewRef(name) : PyUnicode_FromString("");
    gate->level = level;
    if (gate->name == NULL)
        Py_CLEAR(gate);
    return (PyObject *)gate;
}

/* The event a wait for ``threshold`` waits on (new reference):
 * succeeded with the level at once when the level has reached it. */
static PyObject *
gate_wait(GateObject *gate, double threshold)
{
    if (gate->engine == NULL) {
        PyErr_SetString(SimulationError, "gate has no engine");
        return NULL;
    }
    EventObject *event = event_alloc(&EventType, gate->engine);
    if (event == NULL)
        return NULL;
    if (gate->level >= threshold) {
        PyObject *level = PyFloat_FromDouble(gate->level);
        int status = level == NULL ? -1
                                   : event_trigger(event, level, 1, NORMAL);
        Py_XDECREF(level);
        if (status < 0)
            Py_CLEAR(event);
        return (PyObject *)event;
    }
    if (gate->count == gate->capacity) {
        Py_ssize_t capacity = gate->capacity ? 2 * gate->capacity : 16;
        GateWaiter *waiters = PyMem_Realloc(gate->waiters,
                                            capacity * sizeof(GateWaiter));
        if (waiters == NULL) {
            Py_DECREF(event);
            return PyErr_NoMemory();
        }
        gate->waiters = waiters;
        gate->capacity = capacity;
    }
    gate->waiters[gate->count++] =
        (GateWaiter){threshold, (EventObject *)Py_NewRef(event)};
    return (PyObject *)event;
}

static PyObject *
gate_wait_for(PyObject *self, PyObject *threshold)
{
    double value = PyFloat_AsDouble(threshold);
    if (value == -1.0 && PyErr_Occurred())
        return NULL;
    return gate_wait((GateObject *)self, value);
}

/* Raise the level and wake the satisfied waiters, oldest first; the
 * rest keep their order.  Returns the number woken. */
static PyObject *
gate_advance(PyObject *self, PyObject *arg)
{
    GateObject *gate = (GateObject *)self;
    double level = PyFloat_AsDouble(arg);
    if (level == -1.0 && PyErr_Occurred())
        return NULL;
    if (level < gate->level) {
        PyObject *old = PyFloat_FromDouble(gate->level);
        if (old != NULL) {
            PyErr_Format(SimulationError,
                         "gate level must not decrease (%R -> %R)", old, arg);
            Py_DECREF(old);
        }
        return NULL;
    }
    /* The woken are set apart before any is triggered, so the waiter
     * list is final first. */
    Py_ssize_t kept = 0, woken = 0;
    EventObject **ready = NULL;
    if (gate->count > 0) {
        ready = PyMem_Malloc(gate->count * sizeof(EventObject *));
        if (ready == NULL)
            return PyErr_NoMemory();
    }
    gate->level = level;
    for (Py_ssize_t i = 0; i < gate->count; i++) {
        if (gate->waiters[i].threshold <= level)
            ready[woken++] = gate->waiters[i].event;
        else
            gate->waiters[kept++] = gate->waiters[i];
    }
    gate->count = kept;
    PyObject *value = woken ? PyFloat_FromDouble(level) : NULL;
    int status = woken && value == NULL ? -1 : 0;
    for (Py_ssize_t i = 0; i < woken; i++) {
        if (status == 0)
            status = event_trigger(ready[i], value, 1, NORMAL);
        Py_DECREF(ready[i]);
    }
    PyMem_Free(ready);
    Py_XDECREF(value);
    return status < 0 ? NULL : PyLong_FromSsize_t(woken);
}

static int
gate_traverse(PyObject *self, visitproc visit, void *arg)
{
    GateObject *gate = (GateObject *)self;
    Py_VISIT(gate->engine);
    Py_VISIT(gate->name);
    for (Py_ssize_t i = 0; i < gate->count; i++)
        Py_VISIT(gate->waiters[i].event);
    return 0;
}

static int
gate_clear(PyObject *self)
{
    GateObject *gate = (GateObject *)self;
    Py_ssize_t count = gate->count;
    gate->count = 0;
    for (Py_ssize_t i = 0; i < count; i++)
        Py_DECREF(gate->waiters[i].event);
    Py_CLEAR(gate->engine);
    Py_CLEAR(gate->name);
    return 0;
}

static void
gate_dealloc(PyObject *self)
{
    PyObject_GC_UnTrack(self);
    gate_clear(self);
    PyMem_Free(((GateObject *)self)->waiters);
    Py_TYPE(self)->tp_free(self);
}

static PyObject *
gate_get_level(PyObject *self, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(((GateObject *)self)->level);
}

static PyMethodDef gate_methods[] = {
    {"wait_for", gate_wait_for, METH_O,
     "wait_for(threshold)\n\n"
     "Event firing once ``level >= threshold`` (at once if it already is)."},
    {"advance", gate_advance, METH_O,
     "advance(new_level)\n\n"
     "Raise the level, waking the satisfied waiters in arrival order; "
     "returns how many woke.  A lower level raises SimulationError."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef gate_members[] = {
    {"engine", T_OBJECT, offsetof(GateObject, engine), READONLY,
     "The engine the gate runs on."},
    {"name", T_OBJECT, offsetof(GateObject, name), READONLY,
     "The gate's label."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef gate_getset[] = {
    {"level", gate_get_level, NULL, "The current level (a float).", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject GateType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.resources.Gate",
    .tp_doc = "Gate(engine, level=0.0, name='')\n\n"
              "A broadcast condition with a monotonically increasing level: "
              "waiters wake once it reaches their threshold.",
    .tp_basicsize = sizeof(GateObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = gate_new,
    .tp_dealloc = gate_dealloc,
    .tp_traverse = gate_traverse,
    .tp_clear = gate_clear,
    .tp_methods = gate_methods,
    .tp_members = gate_members,
    .tp_getset = gate_getset,
};

/* -- compiled operations -------------------------------------------------- */

/* An operation is a generator-like object: it steps through
 * PyIter_Send (am_send), next() and send(), and takes throw() and
 * close(), so a process runs one directly and a generator ``yield
 * from``s it.  Each step returns the event to wait on or ends the
 * operation with its value; the value sent in is ignored (an operation
 * knows what it waits on).  throw() and close() end it where it
 * stands, booking and releasing nothing, as an exception or a
 * GeneratorExit at a Python generator's bare yield would.  Work starts
 * at the first step, not at the call, as a generator's body does. */

typedef struct OpObject OpObject;

/* 1 with *out the event to wait on, 0 with *out the operation's value,
 * -1 on error; *out is a new reference. */
typedef int (*op_step_fn)(OpObject *op, PyObject **out);

struct OpObject {
    PyObject_HEAD
    op_step_fn step;
    int stage;                  /* -1 once ended */
};

static PyObject *
op_alloc(PyTypeObject *type, op_step_fn step)
{
    OpObject *op = (OpObject *)type->tp_alloc(type, 0);
    if (op != NULL)
        op->step = step;
    return (PyObject *)op;
}

/* End the operation: drop what it holds. */
static void
op_end(OpObject *op)
{
    op->stage = -1;
    Py_TYPE(op)->tp_clear((PyObject *)op);
}

static PySendResult
op_send(PyObject *self, PyObject *Py_UNUSED(value), PyObject **result)
{
    OpObject *op = (OpObject *)self;
    if (op->stage < 0) {
        *result = Py_NewRef(Py_None);
        return PYGEN_RETURN;
    }
    int status = op->step(op, result);
    if (status == 1)
        return PYGEN_NEXT;
    op_end(op);
    if (status == 0)
        return PYGEN_RETURN;
    *result = NULL;
    return PYGEN_ERROR;
}

/* Raise StopIteration carrying ``value`` (stolen). */
static void
op_stop(PyObject *value)
{
    if (value == Py_None) {
        Py_DECREF(value);
        PyErr_SetNone(PyExc_StopIteration);
        return;
    }
    PyObject *stop = PyObject_CallOneArg(PyExc_StopIteration, value);
    Py_DECREF(value);
    if (stop != NULL) {
        PyErr_SetObject(PyExc_StopIteration, stop);
        Py_DECREF(stop);
    }
}

static PyObject *
op_next(PyObject *self)
{
    PyObject *result;
    switch (op_send(self, Py_None, &result)) {
    case PYGEN_NEXT:
        return result;
    case PYGEN_RETURN:
        if (result == Py_None)
            Py_DECREF(result);
        else
            op_stop(result);
        return NULL;
    default:
        return NULL;
    }
}

static PyObject *
op_send_method(PyObject *self, PyObject *value)
{
    PyObject *result;
    switch (op_send(self, value, &result)) {
    case PYGEN_NEXT:
        return result;
    case PYGEN_RETURN:
        op_stop(result);
        return NULL;
    default:
        return NULL;
    }
}

/* throw(exception) or throw(type[, value[, traceback]]): end the
 * operation and raise the exception out of it. */
static PyObject *
op_throw(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 3) {
        PyErr_Format(PyExc_TypeError,
                     "throw expected 1 to 3 arguments, got %zd", nargs);
        return NULL;
    }
    op_end((OpObject *)self);
    PyObject *type = args[0];
    if (PyExceptionInstance_Check(type))
        PyErr_SetObject((PyObject *)Py_TYPE(type), type);
    else if (PyExceptionClass_Check(type))
        PyErr_SetObject(type, nargs > 1 ? args[1] : Py_None);
    else
        PyErr_Format(PyExc_TypeError,
                     "exceptions must be classes or instances deriving "
                     "from BaseException, not %s", Py_TYPE(type)->tp_name);
    return NULL;
}

static PyObject *
op_close(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    op_end((OpObject *)self);
    Py_RETURN_NONE;
}

static PyMethodDef op_methods[] = {
    {"send", op_send_method, METH_O,
     "send(value)\n\nStep the operation (the value is ignored)."},
    {"throw", (PyCFunction)(void (*)(void))op_throw, METH_FASTCALL,
     "throw(exception)\n\nEnd the operation and raise ``exception``."},
    {"close", op_close, METH_NOARGS,
     "close()\n\nEnd the operation where it stands."},
    {NULL, NULL, 0, NULL},
};

static PyAsyncMethods op_as_async = {
    .am_send = op_send,
};

/* The fields every operation type shares. */
#define OP_TYPE_FIELDS \
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC, \
    .tp_as_async = &op_as_async, \
    .tp_iter = PyObject_SelfIter, \
    .tp_iternext = op_next, \
    .tp_methods = op_methods, \
    .tp_dealloc = gc_dealloc

/* Release ``claim`` on ``resource`` (Resource.release). */
static int
release_claim(ResourceObject *resource, PyObject *claim)
{
    PyObject *done = resource_release((PyObject *)resource, claim);
    if (done == NULL)
        return -1;
    Py_DECREF(done);
    return 0;
}

/* Call ``method`` of ``target`` and read the result as a double. */
static double
call_double(PyObject *target, PyObject *method, PyObject *const *args,
            size_t nargs)
{
    PyObject *call[3] = {target, NULL, NULL};
    for (size_t i = 0; i < nargs; i++)
        call[i + 1] = args[i];
    PyObject *result = PyObject_VectorcallMethod(
        method, call, nargs + 1, NULL);
    if (result == NULL)
        return -1.0;
    double value = PyFloat_AsDouble(result);
    Py_DECREF(result);
    return value;
}

/* -- the scheduler and its bursts ----------------------------------------- */

/* P CPUs (a Resource) and the accounting of what runs on them: the
 * burst timeouts scheduled, user and kernel instructions and busy
 * seconds, and context switches.  ``user_spi``/``os_spi`` are seconds
 * per instruction; the kernel path lengths are read once from the
 * (frozen) KernelCosts. */
typedef struct {
    PyObject_HEAD
    EngineObject *engine;
    ResourceObject *cpus;
    PyObject *costs;
    CounterObject *context_switches, *user_instructions, *os_instructions;
    double user_spi, os_spi, user_busy_s, os_busy_s;
    double switch_cost, io_submit, io_complete, base_per_txn;
    long long bursts;
} SchedulerObject;

/* One run of instructions on the held CPU.  A burst of positive length
 * is one Timeout; it books its instructions and busy time when the
 * timeout fires.  A zero-length burst yields nothing and books at once.
 * ``not instructions >= 0`` also rejects NaN. */
typedef struct {
    double instructions, duration;
    char os;                    /* kernel code */
} BurstJob;

static int
burst_start(SchedulerObject *scheduler, BurstJob *job, PyObject **event)
{
    if (!(job->instructions >= 0)) {
        PyErr_SetString(PyExc_ValueError, "instructions must be >= 0");
        return -1;
    }
    job->duration = job->instructions
        * (job->os ? scheduler->os_spi : scheduler->user_spi);
    if (!(job->duration > 0))
        return 0;
    scheduler->bursts++;
    *event = timeout_after(scheduler->engine, job->duration, NULL, NULL);
    return *event == NULL ? -1 : 1;
}

static void
burst_book(SchedulerObject *scheduler, const BurstJob *job)
{
    if (job->os) {
        scheduler->os_instructions->count += job->instructions;
        scheduler->os_busy_s += job->duration;
    }
    else {
        scheduler->user_instructions->count += job->instructions;
        scheduler->user_busy_s += job->duration;
    }
}

/* The end of a block: one context switch counted, the CPU released. */
static int
switch_out(SchedulerObject *scheduler, PyObject *claim)
{
    scheduler->context_switches->count += 1;
    return release_claim(scheduler->cpus, claim);
}

/* Scheduler.execute_user/execute_os (claim NULL) and Scheduler.block
 * (a kernel burst of the context-switch path, then one switch counted
 * and ``claim`` released). */
typedef struct {
    OpObject op;
    SchedulerObject *scheduler;
    PyObject *claim;
    BurstJob job;
} BurstObject;

static int
burst_step(OpObject *op, PyObject **out)
{
    BurstObject *burst = (BurstObject *)op;
    SchedulerObject *scheduler = burst->scheduler;
    if (op->stage == 0) {
        op->stage = 1;
        int status = burst_start(scheduler, &burst->job, out);
        if (status != 0)
            return status;
    }
    burst_book(scheduler, &burst->job);
    if (burst->claim != NULL && switch_out(scheduler, burst->claim) < 0)
        return -1;
    *out = Py_NewRef(Py_None);
    return 0;
}

static int
burst_traverse(PyObject *self, visitproc visit, void *arg)
{
    Py_VISIT(((BurstObject *)self)->scheduler);
    Py_VISIT(((BurstObject *)self)->claim);
    return 0;
}

static int
burst_clear(PyObject *self)
{
    Py_CLEAR(((BurstObject *)self)->scheduler);
    Py_CLEAR(((BurstObject *)self)->claim);
    return 0;
}

static PyTypeObject BurstType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._des.Burst",
    .tp_doc = "A compiled CPU burst (Scheduler.execute_user, execute_os, "
              "block): one Timeout, then its accounting.",
    .tp_basicsize = sizeof(BurstObject),
    .tp_traverse = burst_traverse,
    .tp_clear = burst_clear,
    OP_TYPE_FIELDS,
};

static PyObject *
burst_new(SchedulerObject *scheduler, double instructions, int os,
          PyObject *claim)
{
    BurstObject *burst = (BurstObject *)op_alloc(&BurstType, burst_step);
    if (burst == NULL)
        return NULL;
    burst->scheduler = (SchedulerObject *)Py_NewRef(scheduler);
    burst->claim = Py_XNewRef(claim);
    burst->job.instructions = instructions;
    burst->job.os = (char)os;
    return (PyObject *)burst;
}

/* ``object.name`` as a double in *out. */
static int
attr_double(PyObject *object, const char *name, double *out)
{
    PyObject *value = PyObject_GetAttrString(object, name);
    if (value == NULL)
        return -1;
    *out = PyFloat_AsDouble(value);
    Py_DECREF(value);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

static PyObject *
scheduler_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"engine", "processors", "frequency_hz", "costs",
                            NULL};
    PyObject *engine, *costs;
    Py_ssize_t processors;
    double frequency;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OndO:Scheduler", names,
                                     &engine, &processors, &frequency,
                                     &costs)
        || check_engine(engine) < 0)
        return NULL;
    if (processors <= 0) {
        PyErr_SetString(PyExc_ValueError, "processors must be positive");
        return NULL;
    }
    if (frequency <= 0) {
        PyErr_SetString(PyExc_ValueError, "frequency must be positive");
        return NULL;
    }
    SchedulerObject *scheduler = (SchedulerObject *)type->tp_alloc(type, 0);
    if (scheduler == NULL)
        return NULL;
    scheduler->engine = (EngineObject *)Py_NewRef(engine);
    scheduler->costs = Py_NewRef(costs);
    /* CPI 2.0 until the runner calibrates. */
    scheduler->user_spi = scheduler->os_spi = 2.0 / frequency;
    PyObject *name = PyUnicode_FromString("cpus");
    if (name != NULL) {
        scheduler->cpus = resource_make(&ResourceType, engine, processors,
                                        name);
        Py_DECREF(name);
    }
    scheduler->context_switches = (CounterObject *)stat_named(
        &CounterType, "context-switches");
    scheduler->user_instructions = (CounterObject *)stat_named(
        &CounterType, "user-instructions");
    scheduler->os_instructions = (CounterObject *)stat_named(
        &CounterType, "os-instructions");
    if (scheduler->cpus == NULL || scheduler->context_switches == NULL
        || scheduler->user_instructions == NULL
        || scheduler->os_instructions == NULL
        || attr_double(costs, "context_switch", &scheduler->switch_cost) < 0
        || attr_double(costs, "io_submit", &scheduler->io_submit) < 0
        || attr_double(costs, "io_complete", &scheduler->io_complete) < 0
        || attr_double(costs, "base_per_txn", &scheduler->base_per_txn) < 0)
        Py_CLEAR(scheduler);
    return (PyObject *)scheduler;
}

static int
scheduler_traverse(PyObject *self, visitproc visit, void *arg)
{
    SchedulerObject *scheduler = (SchedulerObject *)self;
    Py_VISIT(scheduler->engine);
    Py_VISIT(scheduler->cpus);
    Py_VISIT(scheduler->costs);
    return 0;
}

static int
scheduler_clear(PyObject *self)
{
    SchedulerObject *scheduler = (SchedulerObject *)self;
    Py_CLEAR(scheduler->engine);
    Py_CLEAR(scheduler->cpus);
    Py_CLEAR(scheduler->costs);
    Py_CLEAR(scheduler->context_switches);
    Py_CLEAR(scheduler->user_instructions);
    Py_CLEAR(scheduler->os_instructions);
    return 0;
}

static PyObject *
scheduler_acquire(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    return resource_request((PyObject *)((SchedulerObject *)self)->cpus,
                            NULL);
}

static PyObject *
scheduler_release(PyObject *self, PyObject *claim)
{
    return resource_release((PyObject *)((SchedulerObject *)self)->cpus,
                            claim);
}

static PyObject *
scheduler_execute(PyObject *self, PyObject *instructions, int os)
{
    double count = PyFloat_AsDouble(instructions);
    if (count == -1.0 && PyErr_Occurred())
        return NULL;
    return burst_new((SchedulerObject *)self, count, os, NULL);
}

static PyObject *
scheduler_execute_user(PyObject *self, PyObject *instructions)
{
    return scheduler_execute(self, instructions, 0);
}

static PyObject *
scheduler_execute_os(PyObject *self, PyObject *instructions)
{
    return scheduler_execute(self, instructions, 1);
}

static PyObject *
scheduler_block(PyObject *self, PyObject *claim)
{
    SchedulerObject *scheduler = (SchedulerObject *)self;
    return burst_new(scheduler, scheduler->switch_cost, 1, claim);
}

static PyMethodDef scheduler_methods[] = {
    {"acquire", scheduler_acquire, METH_NOARGS,
     "acquire()\n\n"
     "Claim a CPU slot; yield the returned request to wait for it."},
    {"release", scheduler_release, METH_O,
     "release(claim)\n\n"
     "Give up the CPU without a blocking switch (transaction end)."},
    {"execute_user", scheduler_execute_user, METH_O,
     "execute_user(instructions)\n\n"
     "A compiled burst of user code on the held CPU: ``yield from`` it."},
    {"execute_os", scheduler_execute_os, METH_O,
     "execute_os(instructions)\n\n"
     "A compiled burst of kernel code on the held CPU: ``yield from`` it."},
    {"block", scheduler_block, METH_O,
     "block(claim)\n\n"
     "Voluntarily block: run the context-switch path, count the switch "
     "and release ``claim`` (a compiled burst: ``yield from`` it).  The "
     "caller re-acquires a CPU when it unblocks."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef scheduler_members[] = {
    {"engine", T_OBJECT, offsetof(SchedulerObject, engine), READONLY,
     "The engine the CPUs run on."},
    {"cpus", T_OBJECT, offsetof(SchedulerObject, cpus), READONLY,
     "The CPUs, a Resource of P slots."},
    {"costs", T_OBJECT, offsetof(SchedulerObject, costs), READONLY,
     "The kernel path lengths (KernelCosts)."},
    {"context_switches", T_OBJECT, offsetof(SchedulerObject,
                                            context_switches), READONLY,
     "Context switches (a Counter)."},
    {"user_instructions", T_OBJECT, offsetof(SchedulerObject,
                                             user_instructions), READONLY,
     "User instructions retired (a Counter)."},
    {"os_instructions", T_OBJECT, offsetof(SchedulerObject,
                                           os_instructions), READONLY,
     "Kernel instructions retired (a Counter)."},
    {"user_spi", T_DOUBLE, offsetof(SchedulerObject, user_spi), 0,
     "Seconds per user instruction (user CPI / F)."},
    {"os_spi", T_DOUBLE, offsetof(SchedulerObject, os_spi), 0,
     "Seconds per kernel instruction (OS CPI / F)."},
    {"user_busy_s", T_DOUBLE, offsetof(SchedulerObject, user_busy_s),
     READONLY, "CPU seconds spent in user code."},
    {"os_busy_s", T_DOUBLE, offsetof(SchedulerObject, os_busy_s), READONLY,
     "CPU seconds spent in kernel code."},
    {"bursts", T_LONGLONG, offsetof(SchedulerObject, bursts), READONLY,
     "Burst timeouts scheduled (engine.events.cpu_burst)."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject SchedulerType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._des.Scheduler",
    .tp_doc = "Scheduler(engine, processors, frequency_hz, costs)\n\n"
              "P CPUs plus context-switch and user/OS accounting; its "
              "execute_user, execute_os and block return compiled bursts.",
    .tp_basicsize = sizeof(SchedulerObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = scheduler_new,
    .tp_dealloc = gc_dealloc,
    .tp_traverse = scheduler_traverse,
    .tp_clear = scheduler_clear,
    .tp_methods = scheduler_methods,
    .tp_members = scheduler_members,
};

/* -- the disk array and its service ---------------------------------------- */

/* Data disks, log disks and what their service books: data writes
 * served, read latency (queueing plus service), and the service and
 * outage timeouts scheduled.  A service time is ``mean`` when ``stream``
 * is NULL, else a lognormal draw from the kernel stream ``mt`` (which
 * ``stream`` keeps alive). */
typedef struct {
    PyObject_HEAD
    EngineObject *engine;
    PyObject *data_disks, *log_disks;   /* tuples of Resource */
    PyObject *fault_model;              /* None for a healthy array */
    PyObject *stream;
    mt_t *mt;
    double mean, mu, sigma, magic, write_factor, log_factor;
    CounterObject *writes;
    TallyObject *read_latency;
    long long timeouts, log_seq;
} DiskArrayObject;

enum { DISK_READ, DISK_WRITE, DISK_LOG };

/* One request: queue on ``disk``, draw the service time at the grant,
 * wait out a fault model's outage and stretch the service by its
 * factor (data disks only), hold the disk for the service, release
 * it, and book the request. */
typedef struct {
    ResourceObject *disk;
    PyObject *claim;
    PyObject *faults;           /* the fault model, on a faulted request */
    double factor, arrived, queued, service;
    Py_ssize_t index;
    char kind, stage;
} DiskJob;

static void
disk_job_start(DiskArrayObject *array, DiskJob *job, int kind,
               Py_ssize_t index)
{
    PyObject *disks = kind == DISK_LOG ? array->log_disks : array->data_disks;
    job->disk = (ResourceObject *)Py_NewRef(PyTuple_GET_ITEM(disks, index));
    job->factor = kind == DISK_READ ? 1.0
                  : kind == DISK_WRITE ? array->write_factor
                  : array->log_factor;
    job->index = index;
    job->kind = (char)kind;
    job->stage = 0;
}

static void
disk_job_clear(DiskJob *job)
{
    Py_CLEAR(job->disk);
    Py_CLEAR(job->claim);
    Py_CLEAR(job->faults);
}

static int
disk_job_traverse(DiskJob *job, visitproc visit, void *arg)
{
    Py_VISIT(job->disk);
    Py_VISIT(job->claim);
    Py_VISIT(job->faults);
    return 0;
}

static int
disk_step(DiskArrayObject *array, DiskJob *job, PyObject **out)
{
    EngineObject *engine = array->engine;
    switch (job->stage) {
    case 0:
        job->arrived = engine->now;
        job->claim = resource_request((PyObject *)job->disk, NULL);
        if (job->claim == NULL)
            return -1;
        job->stage = 1;
        *out = Py_NewRef(job->claim);
        return 1;
    case 1:
        job->service = job->factor
            * (array->stream == NULL
               ? array->mean
               : walk_lognormal(array->mt, array->mu, array->sigma,
                                array->magic));
        job->stage = 2;
        if (job->kind != DISK_LOG && array->fault_model != Py_None) {
            /* An outage holds the disk (and its queue) until the window
             * closes; degradation then stretches the service itself. */
            job->faults = Py_NewRef(array->fault_model);
            PyObject *args[2] = {PyLong_FromSsize_t(job->index),
                                 PyFloat_FromDouble(engine->now)};
            double outage = -1.0;
            if (args[0] != NULL && args[1] != NULL)
                outage = call_double(job->faults, str_outage_wait_s, args, 2);
            Py_XDECREF(args[0]);
            Py_XDECREF(args[1]);
            if (outage == -1.0 && PyErr_Occurred())
                return -1;
            if (outage > 0) {
                array->timeouts++;
                *out = timeout_after(engine, outage, NULL, NULL);
                return *out == NULL ? -1 : 1;
            }
        }
        /* fall through */
    case 2:
        if (job->faults != NULL) {
            PyObject *index = PyLong_FromSsize_t(job->index);
            if (index == NULL)
                return -1;
            double factor = call_double(job->faults, str_latency_factor,
                                        &index, 1);
            Py_DECREF(index);
            if (factor == -1.0 && PyErr_Occurred())
                return -1;
            job->service *= factor;
        }
        job->queued = engine->now - job->arrived;
        array->timeouts++;
        job->stage = 3;
        *out = timeout_after(engine, job->service, NULL, NULL);
        return *out == NULL ? -1 : 1;
    case 3:
        if (release_claim(job->disk, job->claim) < 0)
            return -1;
        Py_CLEAR(job->claim);
        if (job->kind == DISK_WRITE)
            array->writes->count += 1;
        else if (job->kind == DISK_READ)
            tally_record(array->read_latency, job->queued + job->service);
        job->stage = 4;
        return 0;
    }
    PyErr_SetString(SimulationError, "disk request stepped after its end");
    return -1;
}

/* DiskArray.read, write and log_append. */
typedef struct {
    OpObject op;
    DiskArrayObject *array;
    DiskJob job;
} DiskServiceObject;

static int
disk_service_step(OpObject *op, PyObject **out)
{
    DiskServiceObject *service = (DiskServiceObject *)op;
    op->stage = 1;
    int status = disk_step(service->array, &service->job, out);
    if (status == 0)
        *out = Py_NewRef(Py_None);
    return status;
}

static int
disk_service_traverse(PyObject *self, visitproc visit, void *arg)
{
    DiskServiceObject *service = (DiskServiceObject *)self;
    Py_VISIT(service->array);
    return disk_job_traverse(&service->job, visit, arg);
}

static int
disk_service_clear(PyObject *self)
{
    DiskServiceObject *service = (DiskServiceObject *)self;
    Py_CLEAR(service->array);
    disk_job_clear(&service->job);
    return 0;
}

static PyTypeObject DiskServiceType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._des.DiskService",
    .tp_doc = "A compiled disk request (DiskArray.read, write, "
              "log_append): queue, serve, release, book.",
    .tp_basicsize = sizeof(DiskServiceObject),
    .tp_traverse = disk_service_traverse,
    .tp_clear = disk_service_clear,
    OP_TYPE_FIELDS,
};

static int
disk_array_ready(DiskArrayObject *array)
{
    if (array->engine != NULL)
        return 0;
    PyErr_SetString(SimulationError, "disk array is not initialized");
    return -1;
}

static PyObject *
disk_service_new(DiskArrayObject *array, int kind, Py_ssize_t index)
{
    DiskServiceObject *service = (DiskServiceObject *)op_alloc(
        &DiskServiceType, disk_service_step);
    if (service == NULL)
        return NULL;
    service->array = (DiskArrayObject *)Py_NewRef(array);
    disk_job_start(array, &service->job, kind, index);
    return (PyObject *)service;
}

/* The stripe disk of ``block_id``: block_id mod the data disks, as
 * Python's ``%`` takes it. */
static int
stripe_of(DiskArrayObject *array, PyObject *block_id, Py_ssize_t *index)
{
    long long block = PyLong_AsLongLong(block_id);
    if (block == -1 && PyErr_Occurred())
        return -1;
    long long count = PyTuple_GET_SIZE(array->data_disks);
    *index = (Py_ssize_t)(((block % count) + count) % count);
    return 0;
}

static PyObject *
disk_array_data_request(PyObject *self, PyObject *const *args,
                        size_t nargsf, PyObject *kwnames, const char *name,
                        int kind)
{
    static const char *const names[] = {"block_id"};
    DiskArrayObject *array = (DiskArrayObject *)self;
    PyObject *block_id;
    Py_ssize_t index;
    if (disk_array_ready(array) < 0
        || bind_args(name, args, nargsf, kwnames, names, 1, 1,
                     &block_id) < 0
        || stripe_of(array, block_id, &index) < 0)
        return NULL;
    return disk_service_new(array, kind, index);
}

static PyObject *
disk_array_read(PyObject *self, PyObject *const *args, size_t nargsf,
                PyObject *kwnames)
{
    return disk_array_data_request(self, args, nargsf, kwnames, "read",
                                   DISK_READ);
}

static PyObject *
disk_array_write(PyObject *self, PyObject *const *args, size_t nargsf,
                 PyObject *kwnames)
{
    return disk_array_data_request(self, args, nargsf, kwnames, "write",
                                   DISK_WRITE);
}

static PyObject *
disk_array_log_append(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    DiskArrayObject *array = (DiskArrayObject *)self;
    if (disk_array_ready(array) < 0)
        return NULL;
    array->log_seq++;
    return disk_service_new(
        array, DISK_LOG,
        (Py_ssize_t)(array->log_seq % PyTuple_GET_SIZE(array->log_disks)));
}

static PyObject *
disk_array_new(PyTypeObject *type, PyObject *Py_UNUSED(args),
               PyObject *Py_UNUSED(kwargs))
{
    DiskArrayObject *array = (DiskArrayObject *)type->tp_alloc(type, 0);
    if (array == NULL)
        return NULL;
    array->fault_model = Py_NewRef(Py_None);
    array->writes = (CounterObject *)stat_named(&CounterType,
                                                "disk-writes");
    array->read_latency = (TallyObject *)stat_named(&TallyType,
                                                    "read-latency");
    if (array->writes == NULL || array->read_latency == NULL)
        Py_CLEAR(array);
    return (PyObject *)array;
}

/* A tuple of at least one Resource on ``engine``. */
static PyObject *
disk_tuple(PyObject *disks, PyObject *engine, const char *what)
{
    PyObject *tuple = PySequence_Tuple(disks);
    if (tuple == NULL)
        return NULL;
    if (PyTuple_GET_SIZE(tuple) == 0) {
        PyErr_Format(PyExc_ValueError, "the array needs %s", what);
        Py_DECREF(tuple);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(tuple); i++) {
        PyObject *disk = PyTuple_GET_ITEM(tuple, i);
        if (!PyObject_TypeCheck(disk, &ResourceType)
            || (PyObject *)((ResourceObject *)disk)->engine != engine) {
            PyErr_Format(PyExc_TypeError,
                         "%s must be Resources on the array's engine, "
                         "got %R", what, disk);
            Py_DECREF(tuple);
            return NULL;
        }
    }
    return tuple;
}

static int
disk_array_init(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"engine", "data_disks", "log_disks",
                            "write_factor", "log_factor", "mean", "stream",
                            "address", "mu", "sigma", "magic", NULL};
    DiskArrayObject *array = (DiskArrayObject *)self;
    PyObject *engine, *data, *logs, *stream = Py_None, *address = NULL;
    double write_factor, log_factor, mean, mu = 0.0, sigma = 0.0, magic = 0.0;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "O!OOddd|OOddd:DiskArray", names, &EngineType,
            &engine, &data, &logs, &write_factor, &log_factor, &mean, &stream,
            &address, &mu, &sigma, &magic))
        return -1;
    mt_t *mt = NULL;
    if (stream != Py_None) {
        if (walk_lognormal == NULL) {
            PyErr_SetString(SimulationError,
                            "the walk kernel is not linked (link_walk)");
            return -1;
        }
        mt = address == NULL ? NULL : PyLong_AsVoidPtr(address);
        if (mt == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError,
                                "a drawn service time needs the stream's "
                                "address");
            return -1;
        }
    }
    PyObject *data_disks = disk_tuple(data, engine, "data disks");
    if (data_disks == NULL)
        return -1;
    PyObject *log_disks = disk_tuple(logs, engine, "log disks");
    if (log_disks == NULL) {
        Py_DECREF(data_disks);
        return -1;
    }
    Py_XSETREF(array->engine, (EngineObject *)Py_NewRef(engine));
    Py_XSETREF(array->data_disks, data_disks);
    Py_XSETREF(array->log_disks, log_disks);
    Py_XSETREF(array->stream, stream == Py_None ? NULL : Py_NewRef(stream));
    array->mt = mt;
    array->mean = mean;
    array->mu = mu;
    array->sigma = sigma;
    array->magic = magic;
    array->write_factor = write_factor;
    array->log_factor = log_factor;
    return 0;
}

static int
disk_array_traverse(PyObject *self, visitproc visit, void *arg)
{
    DiskArrayObject *array = (DiskArrayObject *)self;
    Py_VISIT(array->engine);
    Py_VISIT(array->data_disks);
    Py_VISIT(array->log_disks);
    Py_VISIT(array->fault_model);
    Py_VISIT(array->stream);
    return 0;
}

static int
disk_array_clear(PyObject *self)
{
    DiskArrayObject *array = (DiskArrayObject *)self;
    Py_CLEAR(array->engine);
    Py_CLEAR(array->data_disks);
    Py_CLEAR(array->log_disks);
    Py_CLEAR(array->fault_model);
    Py_CLEAR(array->stream);
    Py_CLEAR(array->writes);
    Py_CLEAR(array->read_latency);
    return 0;
}

static PyObject *
disk_array_get_fault_model(PyObject *self, void *Py_UNUSED(closure))
{
    PyObject *model = ((DiskArrayObject *)self)->fault_model;
    return Py_NewRef(model != NULL ? model : Py_None);
}

static int
disk_array_set_fault_model(PyObject *self, PyObject *value,
                           void *Py_UNUSED(closure))
{
    Py_XSETREF(((DiskArrayObject *)self)->fault_model,
               Py_NewRef(value != NULL ? value : Py_None));
    return 0;
}

static PyObject *
disk_array_get_data_disk_count(PyObject *self, void *Py_UNUSED(closure))
{
    PyObject *disks = ((DiskArrayObject *)self)->data_disks;
    return PyLong_FromSsize_t(disks != NULL ? PyTuple_GET_SIZE(disks) : 0);
}

static PyMethodDef disk_array_methods[] = {
    {"read", (PyCFunction)(void (*)(void))disk_array_read,
     METH_FASTCALL | METH_KEYWORDS,
     "read(block_id)\n\n"
     "Blocking read of a data block (a compiled disk request: ``yield "
     "from`` it); done when the data is in memory."},
    {"write", (PyCFunction)(void (*)(void))disk_array_write,
     METH_FASTCALL | METH_KEYWORDS,
     "write(block_id)\n\n"
     "Write of a data block (a compiled disk request; the caller decides "
     "whether to wait)."},
    {"log_append", disk_array_log_append, METH_NOARGS,
     "log_append()\n\n"
     "Sequential append to the redo log, round-robin over the log disks, "
     "which disk faults never touch (a compiled disk request)."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef disk_array_members[] = {
    {"engine", T_OBJECT, offsetof(DiskArrayObject, engine), READONLY,
     "The engine the disks run on."},
    {"_data_disks", T_OBJECT, offsetof(DiskArrayObject, data_disks),
     READONLY, "The data disks (Resources), by stripe."},
    {"_log_disks", T_OBJECT, offsetof(DiskArrayObject, log_disks), READONLY,
     "The log disks (Resources)."},
    {"writes", T_OBJECT, offsetof(DiskArrayObject, writes), READONLY,
     "Data writes served (a Counter)."},
    {"read_latency", T_OBJECT, offsetof(DiskArrayObject, read_latency),
     READONLY, "Queueing plus service time of each read (a Tally)."},
    {"timeouts", T_LONGLONG, offsetof(DiskArrayObject, timeouts), READONLY,
     "Service and outage timeouts scheduled."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef disk_array_getset[] = {
    {"fault_model", disk_array_get_fault_model, disk_array_set_fault_model,
     "Degradation state (repro.faults.DiskFaultModel), set by a faulted "
     "system; None for a healthy array.", NULL},
    {"data_disk_count", disk_array_get_data_disk_count, NULL,
     "Disks holding data (the rest hold the redo log).", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject DiskArrayType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._des.DiskArray",
    .tp_doc = "DiskArray(engine, data_disks, log_disks, write_factor, "
              "log_factor, mean, stream=None, address=None, mu=0.0, "
              "sigma=0.0, magic=0.0)\n\n"
              "Striped data disks plus log disks; read, write and "
              "log_append return compiled disk requests.",
    .tp_basicsize = sizeof(DiskArrayObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = disk_array_new,
    .tp_init = disk_array_init,
    .tp_dealloc = gc_dealloc,
    .tp_traverse = disk_array_traverse,
    .tp_clear = disk_array_clear,
    .tp_methods = disk_array_methods,
    .tp_members = disk_array_members,
    .tp_getset = disk_array_getset,
};

/* -- the lock table -------------------------------------------------------- */

/* Exclusive held-to-commit locks keyed by any hashable.  ``holder``
 * maps a key to its holder (a key nobody holds has no entry),
 * ``queue`` a key to its waiters, oldest first, as (owner, event)
 * pairs, and ``held`` an owner to the keys it holds, in the order
 * granted.  An acquisition always waits on one event: succeeded at once
 * when nobody holds the key, else queued.  The holder acquiring its
 * own key again is a SimulationError: it would queue behind itself and
 * never be woken. */
typedef struct {
    PyObject_HEAD
    EngineObject *engine;
    PyObject *holder, *queue, *held;    /* dicts */
} LockTableObject;

static int
lock_would_wait(LockTableObject *table, PyObject *owner, PyObject *key)
{
    PyObject *holder = PyDict_GetItemWithError(table->holder, key);
    if (holder == NULL)
        return PyErr_Occurred() ? -1 : 0;
    return holder != Py_None && holder != owner;
}

/* Append ``item`` to the list ``dict[key]``, made on first use. */
static int
append_to(PyObject *dict, PyObject *key, PyObject *item)
{
    PyObject *list = PyDict_GetItemWithError(dict, key);
    if (list == NULL) {
        if (PyErr_Occurred())
            return -1;
        list = PyList_New(0);
        if (list == NULL)
            return -1;
        int status = PyDict_SetItem(dict, key, list);
        Py_DECREF(list);
        if (status < 0)
            return -1;
    }
    return PyList_Append(list, item);
}

/* The event an acquisition of ``key`` waits on (new reference). */
static PyObject *
lock_request(LockTableObject *table, PyObject *owner, PyObject *key)
{
    if (table->engine == NULL) {
        PyErr_SetString(SimulationError, "lock table has no engine");
        return NULL;
    }
    PyObject *holder = PyDict_GetItemWithError(table->holder, key);
    if (holder == NULL && PyErr_Occurred())
        return NULL;
    if (holder == owner) {
        PyErr_Format(SimulationError, "lock %R acquired again by its holder",
                     key);
        return NULL;
    }
    int status = holder != NULL;
    EventObject *event = event_alloc(&EventType, table->engine);
    if (event == NULL)
        return NULL;
    if (status > 0) {
        PyObject *waiter = PyTuple_Pack(2, owner, (PyObject *)event);
        status = waiter == NULL ? -1 : append_to(table->queue, key, waiter);
        Py_XDECREF(waiter);
    }
    else if (status == 0) {
        status = PyDict_SetItem(table->holder, key, owner);
        if (status == 0)
            status = event_trigger(event, Py_None, 1, NORMAL);
    }
    if (status < 0)
        Py_CLEAR(event);
    return (PyObject *)event;
}

/* After the grant: ``key`` joins the keys ``owner`` holds. */
static int
lock_granted(LockTableObject *table, PyObject *owner, PyObject *key)
{
    return append_to(table->held, owner, key);
}

/* Commit or abort: drop every lock ``owner`` holds, handing each key to
 * its oldest waiter. */
static int
lock_release_all(LockTableObject *table, PyObject *owner)
{
    PyObject *keys = PyDict_GetItemWithError(table->held, owner);
    if (keys == NULL)
        return PyErr_Occurred() ? -1 : 0;
    Py_INCREF(keys);
    int status = PyDict_DelItem(table->held, owner);
    for (Py_ssize_t i = 0; status == 0 && i < PyList_GET_SIZE(keys); i++) {
        PyObject *key = PyList_GET_ITEM(keys, i);
        PyObject *waiters = PyDict_GetItemWithError(table->queue, key);
        if (waiters != NULL && PyList_GET_SIZE(waiters) > 0) {
            PyObject *next = Py_NewRef(PyList_GET_ITEM(waiters, 0));
            status = PyList_SetSlice(waiters, 0, 1, NULL);
            if (status == 0)
                status = PyDict_SetItem(table->holder, key,
                                        PyTuple_GET_ITEM(next, 0));
            if (status == 0)
                status = event_trigger(
                    (EventObject *)PyTuple_GET_ITEM(next, 1), Py_None, 1,
                    NORMAL);
            Py_DECREF(next);
        }
        else if (waiters == NULL && PyErr_Occurred())
            status = -1;
        else
            status = PyDict_DelItem(table->holder, key);
    }
    Py_DECREF(keys);
    return status;
}

/* LockTable.acquire: wait on the acquisition's event, then note the
 * key as held. */
typedef struct {
    OpObject op;
    LockTableObject *table;
    PyObject *owner, *key;
} AcquireObject;

static int
acquire_step(OpObject *op, PyObject **out)
{
    AcquireObject *acquire = (AcquireObject *)op;
    if (op->stage == 0) {
        op->stage = 1;
        *out = lock_request(acquire->table, acquire->owner, acquire->key);
        return *out == NULL ? -1 : 1;
    }
    if (lock_granted(acquire->table, acquire->owner, acquire->key) < 0)
        return -1;
    *out = Py_NewRef(Py_None);
    return 0;
}

static int
acquire_traverse(PyObject *self, visitproc visit, void *arg)
{
    AcquireObject *acquire = (AcquireObject *)self;
    Py_VISIT(acquire->table);
    Py_VISIT(acquire->owner);
    Py_VISIT(acquire->key);
    return 0;
}

static int
acquire_clear(PyObject *self)
{
    AcquireObject *acquire = (AcquireObject *)self;
    Py_CLEAR(acquire->table);
    Py_CLEAR(acquire->owner);
    Py_CLEAR(acquire->key);
    return 0;
}

static PyTypeObject AcquireType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._des.Acquire",
    .tp_doc = "A compiled lock acquisition (LockTable.acquire): one event, "
              "then the key is held.",
    .tp_basicsize = sizeof(AcquireObject),
    .tp_traverse = acquire_traverse,
    .tp_clear = acquire_clear,
    OP_TYPE_FIELDS,
};

static PyObject *
lock_table_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"engine", NULL};
    PyObject *engine;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O!:LockTable", names,
                                     &EngineType, &engine))
        return NULL;
    LockTableObject *table = (LockTableObject *)type->tp_alloc(type, 0);
    if (table == NULL)
        return NULL;
    table->engine = (EngineObject *)Py_NewRef(engine);
    table->holder = PyDict_New();
    table->queue = PyDict_New();
    table->held = PyDict_New();
    if (table->holder == NULL || table->queue == NULL || table->held == NULL)
        Py_CLEAR(table);
    return (PyObject *)table;
}

static int
lock_table_traverse(PyObject *self, visitproc visit, void *arg)
{
    LockTableObject *table = (LockTableObject *)self;
    Py_VISIT(table->engine);
    Py_VISIT(table->holder);
    Py_VISIT(table->queue);
    Py_VISIT(table->held);
    return 0;
}

static int
lock_table_clear(PyObject *self)
{
    LockTableObject *table = (LockTableObject *)self;
    Py_CLEAR(table->engine);
    Py_CLEAR(table->holder);
    Py_CLEAR(table->queue);
    Py_CLEAR(table->held);
    return 0;
}

static int
lock_table_ready(LockTableObject *table)
{
    if (table->holder != NULL)
        return 0;
    PyErr_SetString(SimulationError, "lock table is not initialized");
    return -1;
}

static PyObject *
lock_table_would_wait(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    LockTableObject *table = (LockTableObject *)self;
    if (check_arity("would_wait(owner, key)", nargs, 2) < 0
        || lock_table_ready(table) < 0)
        return NULL;
    int wait = lock_would_wait(table, args[0], args[1]);
    return wait < 0 ? NULL : PyBool_FromLong(wait);
}

static PyObject *
lock_table_acquire(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    LockTableObject *table = (LockTableObject *)self;
    if (check_arity("acquire(owner, key)", nargs, 2) < 0
        || lock_table_ready(table) < 0)
        return NULL;
    AcquireObject *acquire = (AcquireObject *)op_alloc(&AcquireType,
                                                       acquire_step);
    if (acquire == NULL)
        return NULL;
    acquire->table = (LockTableObject *)Py_NewRef(self);
    acquire->owner = Py_NewRef(args[0]);
    acquire->key = Py_NewRef(args[1]);
    return (PyObject *)acquire;
}

static PyObject *
lock_table_release_all(PyObject *self, PyObject *owner)
{
    LockTableObject *table = (LockTableObject *)self;
    if (lock_table_ready(table) < 0 || lock_release_all(table, owner) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef lock_table_methods[] = {
    {"would_wait", (PyCFunction)(void (*)(void))lock_table_would_wait,
     METH_FASTCALL,
     "would_wait(owner, key)\n\n"
     "True when someone other than ``owner`` holds ``key``."},
    {"acquire", (PyCFunction)(void (*)(void))lock_table_acquire,
     METH_FASTCALL,
     "acquire(owner, key)\n\n"
     "Acquire ``key`` for ``owner`` (a compiled operation: ``yield from`` "
     "it); it waits on one event, already succeeded when nobody holds the "
     "key."},
    {"release_all", lock_table_release_all, METH_O,
     "release_all(owner)\n\n"
     "Commit or abort: drop every lock ``owner`` holds, handing each to "
     "its oldest waiter."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef lock_table_members[] = {
    {"engine", T_OBJECT, offsetof(LockTableObject, engine), READONLY,
     "The engine the locks' events run on."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject LockTableType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._des.LockTable",
    .tp_doc = "LockTable(engine)\n\n"
              "Exclusive locks keyed by hashables, held to commit: one "
              "holder and a FIFO queue of waiters per key.",
    .tp_basicsize = sizeof(LockTableObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = lock_table_new,
    .tp_dealloc = gc_dealloc,
    .tp_traverse = lock_table_traverse,
    .tp_clear = lock_table_clear,
    .tp_methods = lock_table_methods,
    .tp_members = lock_table_members,
};

/* -- the redo log ----------------------------------------------------------- */

/* What a commit touches of the redo log: the sequence appended so far,
 * the log bytes, the gate of the flushed sequence commits wait on, and
 * their wait times.  The log writer (repro.db.redo) flushes and
 * advances the gate. */
typedef struct {
    PyObject_HEAD
    EngineObject *engine;
    GateObject *flushed;
    CounterObject *bytes_written;
    TallyObject *commit_wait;
    long long next_sequence;
} RedoObject;

/* Append one transaction's redo: its commit sequence, or -1 when the
 * size is negative or NaN (a sequence is taken all the same). */
static long long
redo_append(RedoObject *redo, double redo_bytes, PyObject *given)
{
    redo->next_sequence++;
    if (counter_increase(redo->bytes_written, redo_bytes, given) < 0)
        return -1;
    return redo->next_sequence;
}

static PyObject *
redo_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"engine", NULL};
    PyObject *engine;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O!:RedoLog", names,
                                     &EngineType, &engine))
        return NULL;
    RedoObject *redo = (RedoObject *)type->tp_alloc(type, 0);
    if (redo == NULL)
        return NULL;
    redo->engine = (EngineObject *)Py_NewRef(engine);
    redo->flushed = (GateObject *)PyObject_CallFunction(
        (PyObject *)&GateType, "Ods", engine, 0.0, "redo-flushed");
    redo->bytes_written = (CounterObject *)stat_named(&CounterType,
                                                      "log-bytes");
    redo->commit_wait = (TallyObject *)stat_named(&TallyType,
                                                  "commit-wait-time");
    if (redo->flushed == NULL || redo->bytes_written == NULL
        || redo->commit_wait == NULL)
        Py_CLEAR(redo);
    return (PyObject *)redo;
}

static int
redo_traverse(PyObject *self, visitproc visit, void *arg)
{
    RedoObject *redo = (RedoObject *)self;
    Py_VISIT(redo->engine);
    Py_VISIT(redo->flushed);
    return 0;
}

static int
redo_clear(PyObject *self)
{
    RedoObject *redo = (RedoObject *)self;
    Py_CLEAR(redo->engine);
    Py_CLEAR(redo->flushed);
    Py_CLEAR(redo->bytes_written);
    Py_CLEAR(redo->commit_wait);
    return 0;
}

static PyObject *
redo_append_method(PyObject *self, PyObject *given)
{
    RedoObject *redo = (RedoObject *)self;
    double redo_bytes = PyFloat_AsDouble(given);
    if (redo_bytes == -1.0 && PyErr_Occurred())
        return NULL;
    long long sequence = redo_append(redo, redo_bytes, given);
    return sequence < 0 ? NULL : PyLong_FromLongLong(sequence);
}

static PyObject *
redo_get_pending_sequence(PyObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(((RedoObject *)self)->next_sequence);
}

static PyMethodDef redo_methods[] = {
    {"append", redo_append_method, METH_O,
     "append(redo_bytes)\n\n"
     "Append one transaction's redo; returns its commit sequence."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef redo_members[] = {
    {"engine", T_OBJECT, offsetof(RedoObject, engine), READONLY,
     "The engine the log runs on."},
    {"_flushed", T_OBJECT, offsetof(RedoObject, flushed), READONLY,
     "The gate of the flushed sequence, which commits wait on."},
    {"bytes_written", T_OBJECT, offsetof(RedoObject, bytes_written),
     READONLY, "Redo bytes appended (a Counter)."},
    {"commit_wait", T_OBJECT, offsetof(RedoObject, commit_wait), READONLY,
     "Each commit's wait for its flush (a Tally)."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef redo_getset[] = {
    {"pending_sequence", redo_get_pending_sequence, NULL,
     "Highest sequence number appended so far.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject RedoType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._des.RedoLog",
    .tp_doc = "RedoLog(engine)\n\n"
              "The redo log's commit side: appends, the log bytes, the "
              "flush gate and the commit waits.",
    .tp_basicsize = sizeof(RedoObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = redo_new,
    .tp_dealloc = gc_dealloc,
    .tp_traverse = redo_traverse,
    .tp_clear = redo_clear,
    .tp_methods = redo_methods,
    .tp_members = redo_members,
    .tp_getset = redo_getset,
};

/* -- the database engine ---------------------------------------------------- */

/* What a transaction touches: the scheduler, the disks, the buffer
 * cache's kernel LRU (``cache`` keeps it alive), the database writer's
 * enqueue for a dirty victim, the lock table, the redo log, and the
 * counters a transaction books. */
typedef struct {
    PyObject_HEAD
    SchedulerObject *scheduler;
    DiskArrayObject *disks;
    PyObject *cache;
    lru_t *lru;
    PyObject *enqueue;
    LockTableObject *locks;
    RedoObject *redo;
    CounterObject *physical_reads, *transactions, *aborted,
                  *lock_wait_switches;
} DatabaseObject;

/* A job is one database call run inside the operation that makes it:
 * its step returns 1 with *out the event to wait on, 0 once done, -1 on
 * error.  ``claim`` is the caller's CPU claim (a strong reference it
 * owns), which a job that blocks gives up and re-acquires. */

/* Claim a CPU: *claim the request, *out the event to wait on. */
static int
cpu_request(SchedulerObject *scheduler, PyObject **claim, PyObject **out)
{
    PyObject *request = resource_request((PyObject *)scheduler->cpus, NULL);
    if (request == NULL)
        return -1;
    Py_XSETREF(*claim, request);
    *out = Py_NewRef(request);
    return 1;
}

/* DatabaseEngine.read_miss: count the physical read, run io_submit,
 * block (releasing the CPU), read the block from its stripe disk,
 * re-acquire a CPU, run io_complete, install the block (dirty for a
 * write) and hand a dirty victim to the writer. */
typedef struct {
    BurstJob burst;
    DiskJob disk;
    uint64_t block;
    int write, stage;
} MissJob;

static int
miss_install(DatabaseObject *db, MissJob *job)
{
    uint64_t victim;
    int result = walk_lru_install(db->lru, job->block, job->write, &victim);
    if (result < 0) {
        PyErr_SetString(PyExc_MemoryError, "cannot grow the buffer cache");
        return -1;
    }
    if (!(result & LRU_DIRTY))
        return 0;
    PyObject *id = PyLong_FromUnsignedLongLong(victim);
    if (id == NULL)
        return -1;
    PyObject *done = PyObject_CallOneArg(db->enqueue, id);
    Py_DECREF(id);
    Py_XDECREF(done);
    return done == NULL ? -1 : 0;
}

static int
miss_step(DatabaseObject *db, MissJob *job, PyObject **claim, PyObject **out)
{
    SchedulerObject *scheduler = db->scheduler;
    int status;
    switch (job->stage) {
    case 0:
        db->physical_reads->count += 1;
        job->burst = (BurstJob){scheduler->io_submit, 0.0, 1};
        job->stage = 1;
        if ((status = burst_start(scheduler, &job->burst, out)) != 0)
            return status;
        /* fall through */
    case 1:
        burst_book(scheduler, &job->burst);
        job->burst = (BurstJob){scheduler->switch_cost, 0.0, 1};
        job->stage = 2;
        if ((status = burst_start(scheduler, &job->burst, out)) != 0)
            return status;
        /* fall through */
    case 2: {
        burst_book(scheduler, &job->burst);
        if (switch_out(scheduler, *claim) < 0)
            return -1;
        Py_CLEAR(*claim);
        uint64_t stripes = (uint64_t)PyTuple_GET_SIZE(db->disks->data_disks);
        disk_job_start(db->disks, &job->disk, DISK_READ,
                       (Py_ssize_t)(job->block % stripes));
        job->stage = 3;
    }
        /* fall through */
    case 3:
        if ((status = disk_step(db->disks, &job->disk, out)) != 0)
            return status;
        disk_job_clear(&job->disk);
        job->stage = 4;
        return cpu_request(scheduler, claim, out);
    case 4:
        job->burst = (BurstJob){scheduler->io_complete, 0.0, 1};
        job->stage = 5;
        if ((status = burst_start(scheduler, &job->burst, out)) != 0)
            return status;
        /* fall through */
    case 5:
        burst_book(scheduler, &job->burst);
        job->stage = 6;
        return miss_install(db, job);
    }
    PyErr_SetString(SimulationError, "read miss stepped after its end");
    return -1;
}

/* Latch-style waiting: a blocked process re-wakes this often to retry,
 * costing a context-switch pair each time (Oracle latches and
 * buffer-busy waits spin and sleep rather than sleeping once). */
#define LATCH_SLEEP_S 0.001

/* DatabaseEngine.lock: take an exclusive held-to-commit lock.  A
 * contended one gives up the CPU first (the context switch the paper
 * attributes to data contention), counts a lock-wait switch, waits in
 * the key's queue and re-acquires a CPU.  A short wait is a latch's
 * sleep-retry loop: every LATCH_SLEEP_S of it costs one more context
 * switch and its kernel instructions; a wait of 5 LATCH_SLEEP_S or
 * more parks on a semaphore and wakes once. */
typedef struct {
    PyObject *key;
    BurstJob burst;
    double started;             /* the wait once granted */
    int stage;
} LockJob;

static int
lock_step(DatabaseObject *db, LockJob *job, PyObject *owner, PyObject **claim,
          PyObject **out)
{
    SchedulerObject *scheduler = db->scheduler;
    int status;
    switch (job->stage) {
    case 0:
        if ((status = lock_would_wait(db->locks, owner, job->key)) <= 0) {
            if (status < 0)
                return -1;
            job->stage = 5;
            *out = lock_request(db->locks, owner, job->key);
            return *out == NULL ? -1 : 1;
        }
        job->burst = (BurstJob){scheduler->switch_cost, 0.0, 1};
        job->stage = 1;
        if ((status = burst_start(scheduler, &job->burst, out)) != 0)
            return status;
        /* fall through */
    case 1:
        burst_book(scheduler, &job->burst);
        if (switch_out(scheduler, *claim) < 0)
            return -1;
        Py_CLEAR(*claim);
        db->lock_wait_switches->count += 1;
        job->started = scheduler->engine->now;
        job->stage = 2;
        *out = lock_request(db->locks, owner, job->key);
        return *out == NULL ? -1 : 1;
    case 2:
        if (lock_granted(db->locks, owner, job->key) < 0)
            return -1;
        job->started = scheduler->engine->now - job->started;
        job->stage = 3;
        return cpu_request(scheduler, claim, out);
    case 3: {
        double waited = job->started;
        long long retries = waited < 5 * LATCH_SLEEP_S
            ? (long long)(waited / LATCH_SLEEP_S) : 0;
        job->stage = 6;
        if (retries == 0)
            return 0;
        scheduler->context_switches->count += (double)retries;
        job->burst = (BurstJob){(double)retries * scheduler->switch_cost,
                                0.0, 1};
        job->stage = 4;
        if ((status = burst_start(scheduler, &job->burst, out)) != 0)
            return status;
    }
        /* fall through */
    case 4:
        burst_book(scheduler, &job->burst);
        job->stage = 6;
        return 0;
    case 5:
        job->stage = 6;
        return lock_granted(db->locks, owner, job->key);
    }
    PyErr_SetString(SimulationError, "lock stepped after its end");
    return -1;
}

/* DatabaseEngine.commit: append the redo (never durable yet: the log
 * writer flushes only what was appended before its round began), block,
 * wait for the flush gate to pass the sequence and book the wait in
 * ``commit_wait``, re-acquire a CPU, release every lock and count the
 * transaction. */
typedef struct {
    BurstJob burst;
    double started;
    long long sequence;
    int stage;
} CommitJob;

static int
commit_step(DatabaseObject *db, CommitJob *job, PyObject *owner,
            double redo_bytes, PyObject **claim, PyObject **out)
{
    SchedulerObject *scheduler = db->scheduler;
    RedoObject *redo = db->redo;
    int status;
    switch (job->stage) {
    case 0:
        if ((job->sequence = redo_append(redo, redo_bytes, NULL)) < 0)
            return -1;
        job->burst = (BurstJob){scheduler->switch_cost, 0.0, 1};
        job->stage = 1;
        if ((status = burst_start(scheduler, &job->burst, out)) != 0)
            return status;
        /* fall through */
    case 1:
        burst_book(scheduler, &job->burst);
        if (switch_out(scheduler, *claim) < 0)
            return -1;
        Py_CLEAR(*claim);
        job->started = redo->engine->now;
        job->stage = 2;
        *out = gate_wait(redo->flushed, (double)job->sequence);
        return *out == NULL ? -1 : 1;
    case 2:
        tally_record(redo->commit_wait, redo->engine->now - job->started);
        job->stage = 3;
        return cpu_request(scheduler, claim, out);
    case 3:
        if (lock_release_all(db->locks, owner) < 0)
            return -1;
        db->transactions->count += 1;
        job->stage = 4;
        return 0;
    }
    PyErr_SetString(SimulationError, "commit stepped after its end");
    return -1;
}

/* DatabaseEngine.read_miss, lock and commit as operations: each runs
 * its job and ends with the CPU claim held afterwards. */
typedef struct {
    OpObject op;
    DatabaseObject *db;
    PyObject *claim, *owner;
    double redo_bytes;
    MissJob miss;
    LockJob lock;
    CommitJob commit;
} CallObject;

static int
call_end(CallObject *call, int status, PyObject **out)
{
    if (status == 0) {
        *out = call->claim;
        call->claim = NULL;
    }
    return status;
}

static int
read_miss_step(OpObject *op, PyObject **out)
{
    CallObject *call = (CallObject *)op;
    return call_end(call, miss_step(call->db, &call->miss, &call->claim, out),
                    out);
}

static int
lock_call_step(OpObject *op, PyObject **out)
{
    CallObject *call = (CallObject *)op;
    return call_end(call, lock_step(call->db, &call->lock, call->owner,
                                    &call->claim, out), out);
}

static int
commit_call_step(OpObject *op, PyObject **out)
{
    CallObject *call = (CallObject *)op;
    return call_end(call, commit_step(call->db, &call->commit, call->owner,
                                      call->redo_bytes, &call->claim, out),
                    out);
}

static int
call_traverse(PyObject *self, visitproc visit, void *arg)
{
    CallObject *call = (CallObject *)self;
    Py_VISIT(call->db);
    Py_VISIT(call->claim);
    Py_VISIT(call->owner);
    Py_VISIT(call->lock.key);
    return disk_job_traverse(&call->miss.disk, visit, arg);
}

static int
call_clear(PyObject *self)
{
    CallObject *call = (CallObject *)self;
    Py_CLEAR(call->db);
    Py_CLEAR(call->claim);
    Py_CLEAR(call->owner);
    Py_CLEAR(call->lock.key);
    disk_job_clear(&call->miss.disk);
    return 0;
}

static PyTypeObject ReadMissType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._des.ReadMiss",
    .tp_doc = "A compiled buffer-miss read (DatabaseEngine.read_miss); "
              "ends with the CPU claim held afterwards.",
    .tp_basicsize = sizeof(CallObject),
    .tp_traverse = call_traverse,
    .tp_clear = call_clear,
    OP_TYPE_FIELDS,
};

static PyTypeObject LockType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._des.Lock",
    .tp_doc = "A compiled lock acquisition with its latch retries "
              "(DatabaseEngine.lock); ends with the CPU claim held "
              "afterwards.",
    .tp_basicsize = sizeof(CallObject),
    .tp_traverse = call_traverse,
    .tp_clear = call_clear,
    OP_TYPE_FIELDS,
};

static PyTypeObject CommitType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._des.Commit",
    .tp_doc = "A compiled commit (DatabaseEngine.commit): redo append, "
              "group-commit wait, lock release; ends with the CPU claim "
              "held afterwards.",
    .tp_basicsize = sizeof(CallObject),
    .tp_traverse = call_traverse,
    .tp_clear = call_clear,
    OP_TYPE_FIELDS,
};

/* -- the client loop -------------------------------------------------------- */

/* client_process: one client's server process, forever.  Per
 * transaction: draw the plan (one Python call), then per attempt take a
 * CPU, the plan's locks in order, and per touch a user burst and the
 * kernel's lru_lookup, a read miss when it misses; then the closing
 * user burst and the per-transaction kernel baseline.  Under transient
 * aborts the fault stream's draw decides the attempt: an abort releases
 * the locks, blocks, and retries the same plan after the policy's
 * backoff, until its attempts run out; otherwise the attempt commits and
 * gives up the CPU. */
typedef struct {
    OpObject op;
    DatabaseObject *db;
    PyObject *client_id, *plan;
    PyObject *abort_draw, *backoff;     /* NULL without transient aborts */
    CounterObject *retries;
    double abort_probability;
    long long max_attempts;
    /* the plan */
    PyObject *locks, *warehouse, *touches;
    double chunk, abort_weight, redo_bytes;
    /* the attempt */
    long long attempt, sequence;
    Py_ssize_t next;                    /* the next lock or touch */
    PyObject *owner, *claim;
    BurstJob burst;
    LockJob lock;
    MissJob miss;
    CommitJob commit;
} ClientObject;

enum {
    CLIENT_PLAN, CLIENT_ATTEMPT, CLIENT_LOCK, CLIENT_LOCKING, CLIENT_TOUCH,
    CLIENT_TOUCHED, CLIENT_MISS, CLIENT_CLOSE, CLIENT_CLOSED, CLIENT_BASE,
    CLIENT_ABORTED, CLIENT_COMMIT
};

/* Draw the next plan: ``plan()`` gives (kind, warehouse, touches), the
 * kind a PlanType, the touches packed (block_id << 1) | write. */
static int
client_plan(ClientObject *client)
{
    PyObject *plan = PyObject_CallNoArgs(client->plan);
    if (plan == NULL)
        return -1;
    if (!PyTuple_Check(plan) || PyTuple_GET_SIZE(plan) != 3) {
        PyErr_Format(PyExc_TypeError,
                     "a plan is (kind, warehouse, touches), got %R", plan);
        Py_DECREF(plan);
        return -1;
    }
    PyObject *kind = PyTuple_GET_ITEM(plan, 0);
    PyObject *touches = PyTuple_GET_ITEM(plan, 2);
    PyObject *locks = PyObject_GetAttrString(kind, "locks");
    PyObject *profile = locks ? PyObject_GetAttrString(kind, "profile")
                              : NULL;
    touches = profile == NULL ? NULL
        : PyList_CheckExact(touches) ? Py_NewRef(touches)
        : PySequence_List(touches);
    int status = -1;
    if (touches != NULL && PyTuple_Check(locks)) {
        if (attr_double(kind, "chunk", &client->chunk) == 0
            && attr_double(kind, "abort_weight", &client->abort_weight) == 0
            && attr_double(profile, "redo_bytes", &client->redo_bytes) == 0)
            status = 0;
    }
    else if (touches != NULL)
        PyErr_Format(PyExc_TypeError, "a plan's locks are a tuple, got %R",
                     locks);
    Py_XDECREF(profile);
    if (status == 0) {
        Py_XSETREF(client->locks, locks);
        Py_XSETREF(client->warehouse, Py_NewRef(PyTuple_GET_ITEM(plan, 1)));
        Py_XSETREF(client->touches, touches);
    }
    else {
        Py_XDECREF(locks);
        Py_XDECREF(touches);
    }
    Py_DECREF(plan);
    return status;
}

/* The transient-abort draw on the plan's fault stream: 1 when this
 * attempt aborts. */
static int
client_aborts(ClientObject *client)
{
    if (client->abort_draw == NULL)
        return 0;
    PyObject *drawn = PyObject_CallNoArgs(client->abort_draw);
    if (drawn == NULL)
        return -1;
    double draw = PyFloat_AsDouble(drawn);
    Py_DECREF(drawn);
    if (draw == -1.0 && PyErr_Occurred())
        return -1;
    return draw < client->abort_probability * client->abort_weight;
}

static double
client_backoff(ClientObject *client)
{
    PyObject *attempt = PyLong_FromLongLong(client->attempt);
    if (attempt == NULL)
        return -1.0;
    PyObject *backoff = PyObject_CallOneArg(client->backoff, attempt);
    Py_DECREF(attempt);
    if (backoff == NULL)
        return -1.0;
    double seconds = PyFloat_AsDouble(backoff);
    Py_DECREF(backoff);
    return seconds;
}

static int
client_step(OpObject *op, PyObject **out)
{
    ClientObject *client = (ClientObject *)op;
    DatabaseObject *db = client->db;
    SchedulerObject *scheduler = db->scheduler;
    int status;
    for (;;) {
        switch (op->stage) {
        case CLIENT_PLAN:
            if (client_plan(client) < 0)
                return -1;
            client->attempt = 0;
            /* fall through */
        case CLIENT_ATTEMPT: {
            client->attempt++;
            PyObject *sequence = PyLong_FromLongLong(client->sequence++);
            PyObject *owner = sequence == NULL ? NULL : PyTuple_Pack(
                2, client->client_id, sequence);
            Py_XDECREF(sequence);
            if (owner == NULL)
                return -1;
            Py_XSETREF(client->owner, owner);
            client->next = 0;
            op->stage = CLIENT_LOCK;
            return cpu_request(scheduler, &client->claim, out);
        }
        case CLIENT_LOCK: {
            /* Hot-row locks first, in plan order (a fixed order: no
             * deadlock). */
            if (client->next == PyTuple_GET_SIZE(client->locks)) {
                client->next = 0;
                op->stage = CLIENT_TOUCH;
                break;
            }
            PyObject *key = PyTuple_Pack(
                2, PyTuple_GET_ITEM(client->locks, client->next),
                client->warehouse);
            if (key == NULL)
                return -1;
            Py_XSETREF(client->lock.key, key);
            client->lock.stage = 0;
            op->stage = CLIENT_LOCKING;
        }
            /* fall through */
        case CLIENT_LOCKING:
            if ((status = lock_step(db, &client->lock, client->owner,
                                    &client->claim, out)) != 0)
                return status;
            Py_CLEAR(client->lock.key);
            client->next++;
            op->stage = CLIENT_LOCK;
            break;
        case CLIENT_TOUCH:
            /* User work interleaved with the block touches. */
            if (client->next == PyList_GET_SIZE(client->touches)) {
                op->stage = CLIENT_CLOSE;
                break;
            }
            client->burst = (BurstJob){client->chunk, 0.0, 0};
            op->stage = CLIENT_TOUCHED;
            if ((status = burst_start(scheduler, &client->burst, out)) != 0)
                return status;
            /* fall through */
        case CLIENT_TOUCHED: {
            burst_book(scheduler, &client->burst);
            uint64_t code = PyLong_AsUnsignedLongLong(
                PyList_GET_ITEM(client->touches, client->next));
            if (code == (uint64_t)-1 && PyErr_Occurred())
                return -1;
            client->next++;
            /* A hit is one kernel call; a miss reads the block. */
            if (walk_lru_lookup(db->lru, code >> 1, (int)(code & 1))) {
                op->stage = CLIENT_TOUCH;
                break;
            }
            client->miss.block = code >> 1;
            client->miss.write = (int)(code & 1);
            client->miss.stage = 0;
            op->stage = CLIENT_MISS;
        }
            /* fall through */
        case CLIENT_MISS:
            if ((status = miss_step(db, &client->miss, &client->claim,
                                    out)) != 0)
                return status;
            op->stage = CLIENT_TOUCH;
            break;
        case CLIENT_CLOSE:
            client->burst = (BurstJob){client->chunk, 0.0, 0};
            op->stage = CLIENT_CLOSED;
            if ((status = burst_start(scheduler, &client->burst, out)) != 0)
                return status;
            /* fall through */
        case CLIENT_CLOSED:
            /* The per-transaction kernel baseline (IPC with the client,
             * timers). */
            burst_book(scheduler, &client->burst);
            client->burst = (BurstJob){scheduler->base_per_txn, 0.0, 1};
            op->stage = CLIENT_BASE;
            if ((status = burst_start(scheduler, &client->burst, out)) != 0)
                return status;
            /* fall through */
        case CLIENT_BASE:
            burst_book(scheduler, &client->burst);
            if ((status = client_aborts(client)) <= 0) {
                if (status < 0)
                    return -1;
                client->commit.stage = 0;
                op->stage = CLIENT_COMMIT;
                break;
            }
            /* A transient abort: roll back (the locks drop, the work
             * done stays spent) and give up the CPU. */
            if (lock_release_all(db->locks, client->owner) < 0)
                return -1;
            db->aborted->count += 1;
            client->burst = (BurstJob){scheduler->switch_cost, 0.0, 1};
            op->stage = CLIENT_ABORTED;
            if ((status = burst_start(scheduler, &client->burst, out)) != 0)
                return status;
            /* fall through */
        case CLIENT_ABORTED: {
            burst_book(scheduler, &client->burst);
            if (switch_out(scheduler, client->claim) < 0)
                return -1;
            Py_CLEAR(client->claim);
            if (client->attempt >= client->max_attempts) {
                op->stage = CLIENT_PLAN;        /* abandoned */
                break;
            }
            client->retries->count += 1;
            double backoff = client_backoff(client);
            if (backoff == -1.0 && PyErr_Occurred())
                return -1;
            op->stage = CLIENT_ATTEMPT;
            if (backoff > 0) {
                *out = timeout_after(scheduler->engine, backoff, NULL, NULL);
                return *out == NULL ? -1 : 1;
            }
            break;
        }
        case CLIENT_COMMIT:
            if ((status = commit_step(db, &client->commit, client->owner,
                                      client->redo_bytes, &client->claim,
                                      out)) != 0)
                return status;
            if (release_claim(scheduler->cpus, client->claim) < 0)
                return -1;
            Py_CLEAR(client->claim);
            op->stage = CLIENT_PLAN;
            break;
        default:
            PyErr_SetString(SimulationError, "client stepped after its end");
            return -1;
        }
    }
}

static int
client_traverse(PyObject *self, visitproc visit, void *arg)
{
    ClientObject *client = (ClientObject *)self;
    Py_VISIT(client->db);
    Py_VISIT(client->client_id);
    Py_VISIT(client->plan);
    Py_VISIT(client->abort_draw);
    Py_VISIT(client->backoff);
    Py_VISIT(client->retries);
    Py_VISIT(client->locks);
    Py_VISIT(client->warehouse);
    Py_VISIT(client->touches);
    Py_VISIT(client->owner);
    Py_VISIT(client->claim);
    Py_VISIT(client->lock.key);
    return disk_job_traverse(&client->miss.disk, visit, arg);
}

static int
client_clear(PyObject *self)
{
    ClientObject *client = (ClientObject *)self;
    Py_CLEAR(client->db);
    Py_CLEAR(client->client_id);
    Py_CLEAR(client->plan);
    Py_CLEAR(client->abort_draw);
    Py_CLEAR(client->backoff);
    Py_CLEAR(client->retries);
    Py_CLEAR(client->locks);
    Py_CLEAR(client->warehouse);
    Py_CLEAR(client->touches);
    Py_CLEAR(client->owner);
    Py_CLEAR(client->claim);
    Py_CLEAR(client->lock.key);
    disk_job_clear(&client->miss.disk);
    return 0;
}

static PyTypeObject ClientType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._des.Client",
    .tp_doc = "A client's server process as one compiled operation "
              "(DatabaseEngine.client): it never ends.",
    .tp_basicsize = sizeof(ClientObject),
    .tp_traverse = client_traverse,
    .tp_clear = client_clear,
    OP_TYPE_FIELDS,
};

/* -- the database engine's methods ----------------------------------------- */

static int
database_ready(DatabaseObject *db)
{
    if (db->scheduler != NULL)
        return 0;
    PyErr_SetString(SimulationError, "database engine is not initialized");
    return -1;
}

static CallObject *
database_call(DatabaseObject *db, PyTypeObject *type, op_step_fn step,
              PyObject *claim, PyObject *owner)
{
    CallObject *call = (CallObject *)op_alloc(type, step);
    if (call == NULL)
        return NULL;
    call->db = (DatabaseObject *)Py_NewRef(db);
    call->claim = Py_NewRef(claim);
    call->owner = Py_XNewRef(owner);
    return call;
}

static PyObject *
database_read_miss(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    DatabaseObject *db = (DatabaseObject *)self;
    if (check_arity("read_miss(claim, block_id, write)", nargs, 3) < 0
        || database_ready(db) < 0)
        return NULL;
    unsigned long long block = PyLong_AsUnsignedLongLong(args[1]);
    if (block == (unsigned long long)-1 && PyErr_Occurred())
        return NULL;
    int write = PyObject_IsTrue(args[2]);
    if (write < 0)
        return NULL;
    CallObject *call = database_call(db, &ReadMissType, read_miss_step,
                                     args[0], NULL);
    if (call != NULL) {
        call->miss.block = block;
        call->miss.write = write;
    }
    return (PyObject *)call;
}

static PyObject *
database_lock(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    DatabaseObject *db = (DatabaseObject *)self;
    if (check_arity("lock(claim, owner, key)", nargs, 3) < 0
        || database_ready(db) < 0)
        return NULL;
    CallObject *call = database_call(db, &LockType, lock_call_step, args[0],
                                     args[1]);
    if (call != NULL)
        call->lock.key = Py_NewRef(args[2]);
    return (PyObject *)call;
}

static PyObject *
database_commit(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    DatabaseObject *db = (DatabaseObject *)self;
    if (check_arity("commit(claim, owner, redo_bytes)", nargs, 3) < 0
        || database_ready(db) < 0)
        return NULL;
    double redo_bytes = PyFloat_AsDouble(args[2]);
    if (redo_bytes == -1.0 && PyErr_Occurred())
        return NULL;
    CallObject *call = database_call(db, &CommitType, commit_call_step,
                                     args[0], args[1]);
    if (call != NULL)
        call->redo_bytes = redo_bytes;
    return (PyObject *)call;
}

static PyObject *
database_abort(PyObject *self, PyObject *owner)
{
    DatabaseObject *db = (DatabaseObject *)self;
    if (database_ready(db) < 0 || lock_release_all(db->locks, owner) < 0)
        return NULL;
    db->aborted->count += 1;
    Py_RETURN_NONE;
}

static PyObject *
database_client(PyObject *self, PyObject *const *args, size_t nargsf,
                PyObject *kwnames)
{
    static const char *const names[] = {"client_id", "plan", "aborts"};
    DatabaseObject *db = (DatabaseObject *)self;
    PyObject *bound[3], *draw = NULL, *backoff = NULL, *retries = NULL;
    double probability = 0.0;
    long long attempts = 0;
    if (bind_args("client", args, nargsf, kwnames, names, 3, 2, bound) < 0
        || database_ready(db) < 0)
        return NULL;
    if (bound[2] != NULL && bound[2] != Py_None
        && !PyArg_ParseTuple(bound[2], "OdLOO!:client aborts", &draw,
                             &probability, &attempts, &backoff, &CounterType,
                             &retries))
        return NULL;
    ClientObject *client = (ClientObject *)op_alloc(&ClientType, client_step);
    if (client == NULL)
        return NULL;
    client->db = (DatabaseObject *)Py_NewRef(db);
    client->client_id = Py_NewRef(bound[0]);
    client->plan = Py_NewRef(bound[1]);
    client->abort_draw = Py_XNewRef(draw);
    client->backoff = Py_XNewRef(backoff);
    client->retries = (CounterObject *)Py_XNewRef(retries);
    client->abort_probability = probability;
    client->max_attempts = attempts;
    return (PyObject *)client;
}

static PyObject *
database_new(PyTypeObject *type, PyObject *Py_UNUSED(args),
             PyObject *Py_UNUSED(kwargs))
{
    DatabaseObject *db = (DatabaseObject *)type->tp_alloc(type, 0);
    if (db == NULL)
        return NULL;
    db->physical_reads = (CounterObject *)stat_named(&CounterType,
                                                     "physical-reads");
    db->transactions = (CounterObject *)stat_named(&CounterType,
                                                   "transactions-committed");
    db->aborted = (CounterObject *)stat_named(&CounterType,
                                              "transactions-aborted");
    db->lock_wait_switches = (CounterObject *)stat_named(
        &CounterType, "lock-wait-switches");
    if (db->physical_reads == NULL || db->transactions == NULL
        || db->aborted == NULL || db->lock_wait_switches == NULL)
        Py_CLEAR(db);
    return (PyObject *)db;
}

static int
database_init(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"scheduler", "disks", "cache", "address",
                            "enqueue", "lock_table", "redo", NULL};
    DatabaseObject *db = (DatabaseObject *)self;
    PyObject *scheduler, *disks, *cache, *address, *enqueue, *locks, *redo;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "O!O!OOOO!O!:DatabaseEngine", names,
            &SchedulerType, &scheduler, &DiskArrayType, &disks, &cache,
            &address, &enqueue, &LockTableType, &locks, &RedoType, &redo))
        return -1;
    if (walk_lru_install == NULL || walk_lru_lookup == NULL) {
        PyErr_SetString(SimulationError,
                        "the walk kernel is not linked (link_walk)");
        return -1;
    }
    if (disk_array_ready((DiskArrayObject *)disks) < 0)
        return -1;
    lru_t *lru = PyLong_AsVoidPtr(address);
    if (lru == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError, "the cache's address is NULL");
        return -1;
    }
    Py_XSETREF(db->scheduler, (SchedulerObject *)Py_NewRef(scheduler));
    Py_XSETREF(db->disks, (DiskArrayObject *)Py_NewRef(disks));
    Py_XSETREF(db->cache, Py_NewRef(cache));
    Py_XSETREF(db->enqueue, Py_NewRef(enqueue));
    Py_XSETREF(db->locks, (LockTableObject *)Py_NewRef(locks));
    Py_XSETREF(db->redo, (RedoObject *)Py_NewRef(redo));
    db->lru = lru;
    return 0;
}

static int
database_traverse(PyObject *self, visitproc visit, void *arg)
{
    DatabaseObject *db = (DatabaseObject *)self;
    Py_VISIT(db->scheduler);
    Py_VISIT(db->disks);
    Py_VISIT(db->cache);
    Py_VISIT(db->enqueue);
    Py_VISIT(db->locks);
    Py_VISIT(db->redo);
    return 0;
}

static int
database_clear(PyObject *self)
{
    DatabaseObject *db = (DatabaseObject *)self;
    Py_CLEAR(db->scheduler);
    Py_CLEAR(db->disks);
    Py_CLEAR(db->cache);
    Py_CLEAR(db->enqueue);
    Py_CLEAR(db->locks);
    Py_CLEAR(db->redo);
    Py_CLEAR(db->physical_reads);
    Py_CLEAR(db->transactions);
    Py_CLEAR(db->aborted);
    Py_CLEAR(db->lock_wait_switches);
    return 0;
}

static PyMethodDef database_methods[] = {
    {"read_miss", (PyCFunction)(void (*)(void))database_read_miss,
     METH_FASTCALL,
     "read_miss(claim, block_id, write)\n\n"
     "The I/O after a buffer-cache miss, as one compiled operation: "
     "``yield from`` it for the CPU claim held afterwards."},
    {"lock", (PyCFunction)(void (*)(void))database_lock, METH_FASTCALL,
     "lock(claim, owner, key)\n\n"
     "Take an exclusive held-to-commit lock, blocking when it is "
     "contended, with the latch retries of a short wait (a compiled "
     "operation: ``yield from`` it for the CPU claim held afterwards)."},
    {"commit", (PyCFunction)(void (*)(void))database_commit, METH_FASTCALL,
     "commit(claim, owner, redo_bytes)\n\n"
     "Append redo, wait for group commit, release the locks (a compiled "
     "operation: ``yield from`` it for the CPU claim held afterwards)."},
    {"abort", database_abort, METH_O,
     "abort(owner)\n\n"
     "Release everything without committing and count the abort."},
    {"client", (PyCFunction)(void (*)(void))database_client,
     METH_FASTCALL | METH_KEYWORDS,
     "client(client_id, plan, aborts=None)\n\n"
     "A client's server process, one compiled operation that runs "
     "forever.  ``plan()`` draws a transaction as (kind, warehouse, "
     "touches); ``aborts`` is None or (draw, probability, max_attempts, "
     "backoff, retries): the fault stream's ``random``, the base abort "
     "chance, the retry policy's attempts and ``backoff_s``, and the "
     "retries Counter."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef database_members[] = {
    {"scheduler", T_OBJECT, offsetof(DatabaseObject, scheduler), READONLY,
     "The CPUs' scheduler."},
    {"disks", T_OBJECT, offsetof(DatabaseObject, disks), READONLY,
     "The disk array."},
    {"lock_table", T_OBJECT, offsetof(DatabaseObject, locks), READONLY,
     "The lock table."},
    {"redo", T_OBJECT, offsetof(DatabaseObject, redo), READONLY,
     "The redo log."},
    {"physical_reads", T_OBJECT, offsetof(DatabaseObject, physical_reads),
     READONLY, "Buffer misses read from disk (a Counter)."},
    {"transactions", T_OBJECT, offsetof(DatabaseObject, transactions),
     READONLY, "Transactions committed (a Counter)."},
    {"aborted", T_OBJECT, offsetof(DatabaseObject, aborted), READONLY,
     "Transactions aborted (a Counter)."},
    {"lock_wait_switches", T_OBJECT, offsetof(DatabaseObject,
                                              lock_wait_switches),
     READONLY, "Lock waits, each a blocking switch (a Counter)."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject DatabaseType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._des.DatabaseEngine",
    .tp_doc = "DatabaseEngine(scheduler, disks, cache, address, enqueue, "
              "lock_table, redo)\n\n"
              "The database engine's transaction path: read_miss, lock, "
              "commit and client return compiled operations.",
    .tp_basicsize = sizeof(DatabaseObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = database_new,
    .tp_init = database_init,
    .tp_dealloc = gc_dealloc,
    .tp_traverse = database_traverse,
    .tp_clear = database_clear,
    .tp_methods = database_methods,
    .tp_members = database_members,
};

/* link_walk(lognormal, lru_install, lru_lookup): the addresses of the
 * walk kernel's mt_lognormal, lru_install and lru_lookup, handed over
 * once. */
static PyObject *
link_walk(PyObject *Py_UNUSED(module), PyObject *const *args,
          Py_ssize_t nargs)
{
    if (check_arity("link_walk(lognormal, lru_install, lru_lookup)", nargs,
                    3) < 0)
        return NULL;
    void *addresses[3];
    for (int i = 0; i < 3; i++) {
        addresses[i] = PyLong_AsVoidPtr(args[i]);
        if (addresses[i] == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "a NULL kernel address");
            return NULL;
        }
    }
    /* Object pointers to function pointers: what dlsym's users do. */
    *(void **)&walk_lognormal = addresses[0];
    *(void **)&walk_lru_install = addresses[1];
    *(void **)&walk_lru_lookup = addresses[2];
    Py_RETURN_NONE;
}

/* -- the engine ----------------------------------------------------------- */

static PyObject *
engine_new(PyTypeObject *type, PyObject *Py_UNUSED(args),
           PyObject *Py_UNUSED(kwargs))
{
    EngineObject *engine = (EngineObject *)type->tp_alloc(type, 0);
    if (engine == NULL)
        return NULL;
    engine->live = PyDict_New();
    engine->resources = PyList_New(0);
    if (engine->live == NULL || engine->resources == NULL)
        Py_CLEAR(engine);
    return (PyObject *)engine;
}

static int
engine_traverse(PyObject *self, visitproc visit, void *arg)
{
    EngineObject *engine = (EngineObject *)self;
    for (Py_ssize_t i = 0; i < engine->size; i++)
        Py_VISIT(engine->heap[i].event);
    Py_VISIT(engine->live);
    Py_VISIT(engine->resources);
    return 0;
}

static int
engine_clear(PyObject *self)
{
    EngineObject *engine = (EngineObject *)self;
    drop_pending(engine);
    Py_CLEAR(engine->live);
    Py_CLEAR(engine->resources);
    return 0;
}

static void
engine_dealloc(PyObject *self)
{
    PyObject_GC_UnTrack(self);
    engine_clear(self);
    Py_TYPE(self)->tp_free(self);
}

static PyObject *
engine_timeout(PyObject *self, PyObject *const *args, size_t nargsf,
               PyObject *kwnames)
{
    PyObject *bound[2];
    if (bind_args("timeout", args, nargsf, kwnames, timeout_names + 1, 2, 1,
                  bound) < 0)
        return NULL;
    return timeout_create(self, bound[0], bound[1]);
}

static PyObject *
engine_event(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    return (PyObject *)event_alloc(&EventType, (EngineObject *)self);
}

static int
below(PyObject *count, PyObject *target, const double *target_value)
{
    if (target_value != NULL && PyFloat_CheckExact(count))
        return PyFloat_AS_DOUBLE(count) < *target_value;
    return PyObject_RichCompareBool(count, target, Py_LT);
}

/* The DES hot loop: every event of a simulation passes through here,
 * so the per-event work is the stop counter compare, the deadline test,
 * the pop and the callbacks. */
static PyObject *
engine_dispatch(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    EngineObject *engine = (EngineObject *)self;
    PyObject *until, *stop, *counter = NULL, *target = NULL;
    double limit = Py_HUGE_VAL, target_value = 0.0;
    const double *exact_target = NULL;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "_dispatch(until, stop)");
        return NULL;
    }
    until = args[0];
    stop = args[1];
    if (until != Py_None) {
        limit = PyFloat_AsDouble(until);
        if (limit == -1.0 && PyErr_Occurred())
            return NULL;
    }
    stop = stop == Py_None ? Py_NewRef(stop) : PySequence_Tuple(stop);
    if (stop == NULL)
        return NULL;
    if (stop != Py_None) {
        if (PyTuple_GET_SIZE(stop) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "stop must be a (counter, target) pair");
            goto error;
        }
        counter = PyTuple_GET_ITEM(stop, 0);
        target = PyTuple_GET_ITEM(stop, 1);
        /* A float, or an int a double holds exactly, compares with a
         * float count as doubles do. */
        if (PyFloat_CheckExact(target)) {
            target_value = PyFloat_AS_DOUBLE(target);
            exact_target = &target_value;
        }
        else if (PyLong_CheckExact(target)) {
            long long whole = PyLong_AsLongLong(target);
            if (whole == -1 && PyErr_Occurred())
                PyErr_Clear();
            else if (whole >= -(1LL << 53) && whole <= (1LL << 53)) {
                target_value = (double)whole;
                exact_target = &target_value;
            }
        }
    }
    for (;;) {
        if (counter != NULL) {
            int more;
            if (exact_target != NULL && Py_IS_TYPE(counter, &CounterType))
                more = ((CounterObject *)counter)->count < target_value;
            else {
                PyObject *count = PyObject_GetAttr(counter, str_count);
                if (count == NULL)
                    goto error;
                more = below(count, target, exact_target);
                Py_DECREF(count);
                if (more < 0)
                    goto error;
            }
            if (!more)
                break;
        }
        if (engine->size == 0 || !(engine->heap[0].time <= limit))
            break;
        Entry entry = pop(engine);
        engine->now = entry.time;
        int status = event_process((EventObject *)entry.event);
        Py_DECREF(entry.event);
        if (status < 0)
            goto error;
    }
    if (until != Py_None && stop == Py_None)
        engine->now = limit;
    Py_DECREF(stop);
    Py_RETURN_NONE;
error:
    Py_DECREF(stop);
    return NULL;
}

static PyObject *
engine_close(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    EngineObject *engine = (EngineObject *)self;
    while (engine->live != NULL && PyDict_GET_SIZE(engine->live)) {
        PyObject *processes = PyDict_Keys(engine->live);
        if (processes == NULL)
            return NULL;
        PyDict_Clear(engine->live);
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(processes); i++) {
            ProcessObject *process =
                (ProcessObject *)PyList_GET_ITEM(processes, i);
            process->live = 0;
            /* It will never finish: its waiters wait no more. */
            Py_CLEAR(process->event.waiter);
            Py_CLEAR(process->event.callbacks);
            if (process->generator == NULL)
                continue;
            PyObject *result = PyObject_CallMethodNoArgs(process->generator,
                                                         str_close);
            if (result == NULL) {
                Py_DECREF(processes);
                return NULL;
            }
            Py_DECREF(result);
        }
        Py_DECREF(processes);
    }
    drop_pending(engine);
    if (engine->resources != NULL) {
        PyObject *resources = engine->resources;
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(resources); i++)
            resource_close_claims(
                (ResourceObject *)PyList_GET_ITEM(resources, i));
        if (PyList_SetSlice(resources, 0, PyList_GET_SIZE(resources),
                            NULL) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
engine_get_now(PyObject *self, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(((EngineObject *)self)->now);
}

static PyObject *
engine_get_pending(PyObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromSsize_t(((EngineObject *)self)->size);
}

static PyMethodDef engine_methods[] = {
    {"timeout", (PyCFunction)(void (*)(void))engine_timeout,
     METH_FASTCALL | METH_KEYWORDS,
     "timeout(delay, value=None)\n\n"
     "Create an event firing ``delay`` from now."},
    {"event", engine_event, METH_NOARGS,
     "event()\n\nCreate a pending event to be triggered manually."},
    {"_dispatch", (PyCFunction)(void (*)(void))engine_dispatch,
     METH_FASTCALL,
     "_dispatch(until, stop)\n\n"
     "The dispatch loop behind run(), without its checks and tracing."},
    {"close", engine_close, METH_NOARGS,
     "close()\n\n"
     "End the simulation for good: close every unfinished process's "
     "generator and forget its waiters, drop the pending events, and "
     "drop every claim on the engine's resources.  A finished "
     "simulation is a web of cycles (processes, their generators' "
     "frames, the model those frames hold, resource queues, the event "
     "queue); closing it lets reference counting free it at once "
     "instead of leaving it to the cyclic garbage collector."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef engine_members[] = {
    {"_now", T_DOUBLE, offsetof(EngineObject, now), READONLY,
     "Current simulation time."},
    {"_sequence", T_LONGLONG, offsetof(EngineObject, sequence), READONLY,
     "Events scheduled so far."},
    {"max_depth", T_PYSSIZET, offsetof(EngineObject, max_depth), READONLY,
     "The longest the event queue has been."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef engine_getset[] = {
    {"now", engine_get_now, NULL, "Current simulation time.", NULL},
    {"_pending", engine_get_pending, NULL, "Events queued, not dispatched.",
     NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject EngineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._des.Engine",
    .tp_doc = "The event queue and the clock of the simulation.",
    .tp_basicsize = sizeof(EngineObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = engine_new,
    .tp_dealloc = engine_dealloc,
    .tp_traverse = engine_traverse,
    .tp_clear = engine_clear,
    .tp_methods = engine_methods,
    .tp_members = engine_members,
    .tp_getset = engine_getset,
};

/* -- the module ----------------------------------------------------------- */

static PyMethodDef des_functions[] = {
    {"link_walk", (PyCFunction)(void (*)(void))link_walk, METH_FASTCALL,
     "link_walk(lognormal, lru_install, lru_lookup)\n\n"
     "Hand over the addresses of the walk kernel's mt_lognormal, "
     "lru_install and lru_lookup, which the disk service, the miss path "
     "and the client loop call."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef des_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._des",
    .m_doc = "The compiled event kernel of repro.sim.",
    .m_size = -1,
    .m_methods = des_functions,
};

static int
intern(PyObject **slot, const char *text)
{
    *slot = PyUnicode_InternFromString(text);
    return *slot == NULL ? -1 : 0;
}

PyMODINIT_FUNC
PyInit__des(void)
{
    TimeoutType.tp_base = &EventType;
    RequestType.tp_base = &EventType;
    ProcessType.tp_base = &EventType;
    AllOfType.tp_base = &EventType;
    PyTypeObject *types[] = {&EngineType, &EventType, &TimeoutType,
                             &RequestType, &ResourceType, &ProcessType,
                             &AllOfType, &GateType, &CounterType, &TallyType,
                             &SchedulerType, &BurstType, &DiskArrayType,
                             &DiskServiceType, &AcquireType, &LockTableType,
                             &RedoType, &DatabaseType, &ReadMissType,
                             &LockType, &CommitType, &ClientType};
    const char *names[] = {"Engine", "Event", "Timeout", "Request",
                           "Resource", "Process", "AllOf", "Gate", "Counter",
                           "Tally", "Scheduler", "Burst", "DiskArray",
                           "DiskService", "Acquire", "LockTable", "RedoLog",
                           "DatabaseEngine", "ReadMiss", "Lock", "Commit",
                           "Client"};
    if (intern(&str_send, "send") < 0 || intern(&str_throw, "throw") < 0
        || intern(&str_close, "close") < 0 || intern(&str_count, "count") < 0
        || intern(&str_add_callback, "add_callback") < 0
        || intern(&str_outage_wait_s, "outage_wait_s") < 0
        || intern(&str_latency_factor, "latency_factor") < 0)
        return NULL;
    for (size_t i = 0; i < sizeof(types) / sizeof(types[0]); i++) {
        if (PyType_Ready(types[i]) < 0)
            return NULL;
    }
    PyObject *module = PyModule_Create(&des_module);
    if (module == NULL)
        return NULL;
    SimulationError = PyErr_NewExceptionWithDoc(
        "repro.sim.engine.SimulationError",
        "Raised for kernel misuse (double trigger, running a dead "
        "engine...).", PyExc_RuntimeError, NULL);
    if (SimulationError == NULL
        || PyModule_AddObjectRef(module, "SimulationError",
                                 SimulationError) < 0)
        goto error;
    for (size_t i = 0; i < sizeof(types) / sizeof(types[0]); i++) {
        if (PyModule_AddObjectRef(module, names[i],
                                  (PyObject *)types[i]) < 0)
            goto error;
    }
    return module;
error:
    Py_DECREF(module);
    return NULL;
}
