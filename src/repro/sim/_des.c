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
 * its Request: a grant, a release and the busy-time accrual are C.  The
 * model's processes and the other primitives built on these events
 * (Store, Gate, AllOf) stay Python: see repro/sim/engine.py,
 * process.py and resources.py.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* Event priorities (repro.sim.engine.URGENT and NORMAL). */
#define URGENT 0
#define NORMAL 1

static PyObject *SimulationError;
static PyObject *str_send, *str_throw, *str_close, *str_count,
                *str_add_callback;

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
                    ResourceType, ProcessType;

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

static int
invoke(PyObject *callback, EventObject *event)
{
    if (Py_TYPE(callback)->tp_call == process_call)
        return process_resume((ProcessObject *)callback, event);
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
event_dealloc(PyObject *self)
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
    .tp_dealloc = event_dealloc,
    .tp_traverse = event_traverse,
    .tp_clear = event_clear,
    .tp_repr = event_repr,
    .tp_methods = event_methods,
    .tp_getset = event_getset,
};

/* -- timeouts ------------------------------------------------------------- */

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
    /* ``not delay >= 0`` also rejects NaN, which would break the order. */
    if (!(seconds >= 0)) {
        PyErr_Format(PyExc_ValueError, "negative timeout delay: %S", delay);
        return NULL;
    }
    EventObject *event = event_alloc(&TimeoutType, (EngineObject *)engine);
    if (event == NULL)
        return NULL;
    if (value != NULL)
        Py_SETREF(event->value, Py_NewRef(value));
    event->triggered = 1;
    if (schedule(event->engine, (PyObject *)event, seconds, NORMAL) < 0) {
        Py_DECREF(event);
        return NULL;
    }
    return (PyObject *)event;
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
    .tp_dealloc = event_dealloc,
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
    .tp_dealloc = event_dealloc,
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

static PyObject *
resource_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"engine", "capacity", "name", NULL};
    PyObject *engine, *name = NULL;
    Py_ssize_t capacity = 1;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O|nO:Resource", names,
                                     &engine, &capacity, &name)
        || check_engine(engine) < 0)
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
    return (PyObject *)resource;
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
    .tp_dealloc = event_dealloc,
    .tp_traverse = process_traverse,
    .tp_clear = process_clear,
};

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
            PyObject *count = PyObject_GetAttr(counter, str_count);
            if (count == NULL)
                goto error;
            int more = below(count, target, exact_target);
            Py_DECREF(count);
            if (more < 0)
                goto error;
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

static struct PyModuleDef des_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._des",
    .m_doc = "The compiled event kernel of repro.sim.",
    .m_size = -1,
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
    PyTypeObject *types[] = {&EngineType, &EventType, &TimeoutType,
                             &RequestType, &ResourceType, &ProcessType};
    const char *names[] = {"Engine", "Event", "Timeout", "Request",
                           "Resource", "Process"};
    if (intern(&str_send, "send") < 0 || intern(&str_throw, "throw") < 0
        || intern(&str_close, "close") < 0 || intern(&str_count, "count") < 0
        || intern(&str_add_callback, "add_callback") < 0)
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
