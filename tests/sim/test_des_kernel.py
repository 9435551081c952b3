"""The compiled event kernel against its Python oracle.

Random schedules run through both kernels — ``repro.sim``, with its
compiled ``Resource``, ``Gate`` and ``AllOf``, and
``tests/sim/reference_engine.py``, the Python kernel the compiled one
replaced, with its Python ``Resource`` and ``AllOf`` and the Python
``Gate`` of ``tests/sim/reference_os.py`` — with the program's own
``Store`` on top.  Each process runs a random
script: sleeps on a coarse grid (so equal-time ties are common),
resource holds (released once, twice or by a ``with`` block), claims
cancelled while they may still be queued, gate waits and broadcasts,
store puts and gets, all-of waits, events failed under their waiter,
crashing children watched or not (an unwatched crash raises out of
``run``), non-event and self yields, and waits on an event that may
already be processed.  Children start URGENT in the middle of the run.
Both kernels must produce the same trace, clock and ``queue_stats``,
and each resource the same ``grants``, ``busy_time()`` and
``utilization()``, across runs bounded by ``until`` and by a ``stop``
counter.
"""

import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Gate, Resource, SimulationError, Store
from repro.sim import engine as engine_module
from repro.sim.stats import Counter
from tests.sim import reference_engine, reference_os

_delay = st.sampled_from([0.0, 0.5, 1.0, 1.5])
_leaf = st.one_of(
    st.tuples(st.just("sleep"), _delay),
    st.tuples(st.just("hold"), st.sampled_from([0, 1]), _delay),
    st.tuples(st.just("hold_twice"), st.sampled_from([0, 1]), _delay),
    st.tuples(st.just("hold_with"), st.sampled_from([0, 1]), _delay),
    st.tuples(st.just("cancel"), st.sampled_from([0, 1]), _delay),
    st.tuples(st.just("wait_gate"), st.integers(1, 4)),
    st.tuples(st.just("advance"), st.integers(1, 4)),
    st.tuples(st.just("all_of"), st.lists(_delay, max_size=3)),
    st.tuples(st.just("fail"), _delay),
    st.tuples(st.just("put"), st.integers(0, 9)),
    st.just(("get",)),
    st.just(("yield_bad",)),
    st.just(("yield_self",)),
    st.just(("yield_early",)),
    st.just(("crash",)),
)
_op = st.one_of(
    _leaf,
    st.tuples(st.just("spawn"), st.lists(_leaf, max_size=4)),
    st.tuples(st.just("watch"), st.lists(_leaf, max_size=4)),
)
_scripts = st.lists(st.lists(_op, max_size=6), min_size=1, max_size=6)


def _simulate(engine, scripts, until, stop_after, resource=Resource,
              gate=Gate):
    """Run ``scripts`` on ``engine`` with ``resource``s and a ``gate``;
    the trace, clock, queue stats and resource accounts."""
    trace = []
    resources = (resource(engine, 1, name="one"),
                 resource(engine, 2, name="two"))
    gate, store = gate(engine), Store(engine)
    finished = Counter("finished")
    early = engine.timeout(0.0, value="early")
    processes = []

    def note(pid, *what):
        trace.append((engine.now, pid) + what)

    def start(ops):
        pid = len(processes)
        processes.append(engine.process(script(pid, ops)))
        return processes[pid]

    def script(pid, ops):
        note(pid, "start")
        for op in ops:
            kind = op[0]
            try:
                if kind == "sleep":
                    note(pid, kind, (yield engine.timeout(op[1], value=pid)))
                elif kind == "hold":
                    request = resources[op[1]].request()
                    yield request
                    note(pid, "granted", op[1])
                    yield engine.timeout(op[2])
                    resources[op[1]].release(request)
                elif kind == "hold_twice":
                    request = resources[op[1]].request()
                    yield request
                    yield engine.timeout(op[2])
                    resources[op[1]].release(request)
                    resources[op[1]].release(request)
                elif kind == "hold_with":
                    with (yield resources[op[1]].request()):
                        note(pid, "granted", op[1])
                        yield engine.timeout(op[2])
                elif kind == "cancel":
                    request = resources[op[1]].request()
                    note(pid, "claimed", request.triggered)
                    yield engine.timeout(op[2])
                    resources[op[1]].release(request)
                    note(pid, "cancelled", request.triggered)
                elif kind == "wait_gate":
                    note(pid, kind, (yield gate.wait_for(op[1])))
                elif kind == "advance":
                    note(pid, kind, gate.advance(max(gate.level, op[1])))
                elif kind == "all_of":
                    children = [engine.timeout(delay, value=index)
                                for index, delay in enumerate(op[1])]
                    note(pid, kind, (yield engine.all_of(children)))
                elif kind == "fail":
                    event = engine.event()
                    engine.timeout(op[1]).add_callback(
                        lambda _, event=event: event.fail(
                            ValueError(f"failed for {pid}")))
                    yield event
                elif kind == "put":
                    store.put(op[1])
                elif kind == "get":
                    note(pid, kind, (yield store.get()))
                elif kind == "yield_bad":
                    yield 42
                elif kind == "yield_self":
                    yield processes[pid]
                elif kind == "yield_early":
                    note(pid, kind, (yield early))
                elif kind == "crash":
                    raise RuntimeError(f"crash in {pid}")
                elif kind == "spawn":
                    note(pid, kind, start(op[1]).triggered)
                elif kind == "watch":
                    note(pid, kind, (yield start(op[1])))
            except (ValueError, SimulationError) as exc:
                note(pid, "caught", type(exc).__name__, str(exc))
            except RuntimeError as exc:
                if kind != "watch":
                    raise
                note(pid, "child crashed", str(exc))
        finished.add()
        return pid

    for ops in scripts:
        start(ops)
    for stage in ({"until": until}, {"stop": (finished, stop_after)}, {}):
        while True:
            try:
                engine.run(**stage)
                break
            except RuntimeError as exc:
                note(None, "raised", type(exc).__name__, str(exc))
        trace.append(("stage", engine.now, engine.queue_stats()))
        trace.append([(item.name, item.grants, item.busy_time(),
                       item.utilization(), item.utilization(2.0))
                      for item in resources])
    return trace


@given(_scripts, st.sampled_from([0.0, 0.5, 1.25, 3.0]), st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_compiled_kernel_matches_the_python_oracle(scripts, until, stop_after):
    compiled = _simulate(Engine(), scripts, until, stop_after)
    with reference_engine.patched():
        oracle = _simulate(reference_engine.Engine(), scripts, until,
                           stop_after, reference_engine.Resource,
                           reference_os.Gate)
    assert compiled == oracle


def _resource_story(engine, resource):
    """Grants, cancels, double releases and a close on one resource."""
    cpus = resource(engine, 2, name="cpus")
    log = []

    def story():
        a, b, c, d = (cpus.request() for _ in range(4))
        log.append([claim.triggered for claim in (a, b, c, d)])
        yield engine.timeout(1.0)
        cpus.release(c)         # cancels the queued claim
        cpus.release(a)         # grants d, not c
        cpus.release(a)         # a second release is a no-op
        log.append([claim.triggered for claim in (c, d)])
        yield engine.timeout(0.5)
        cpus.release(b)
        cpus.release(d)
        log.append((cpus.grants, cpus.busy_time(), cpus.utilization()))
        e, f, g = (cpus.request() for _ in range(3))
        yield engine.timeout(0.25)
        cpus.close()            # drops e and f's slots and queued g
        cpus.release(e)         # a claim from before the close: no-op
        cpus.release(g)
        h = cpus.request()
        log.append((cpus.grants, cpus.busy_time(), h.triggered,
                    g.triggered))
        yield engine.timeout(1.0)
        cpus.release(h)
        log.append((cpus.grants, cpus.busy_time(), cpus.utilization(),
                    cpus.utilization(0.0)))

    engine.process(story())
    engine.run()
    return log, engine.queue_stats()


def test_compiled_resource_matches_the_python_oracle():
    compiled = _resource_story(Engine(), Resource)
    oracle = _resource_story(reference_engine.Engine(),
                             reference_engine.Resource)
    assert compiled == oracle
    assert compiled[0][1] == [False, True]


def test_resource_rejects_bad_arguments():
    with pytest.raises(ValueError, match="capacity"):
        Resource(Engine(), 0)
    with pytest.raises(TypeError, match="Engine"):
        Resource(reference_engine.Engine(), 1)
    resource = Resource(Engine(), 1)
    resource.release(object())  # not a claim: a no-op, as for any unknown
    other = Resource(Engine(), 1).request()
    resource.release(other)     # another resource's claim: a no-op
    assert resource.request().triggered


def test_close_ends_every_process_and_drops_the_queue():
    engine = Engine()
    closed = []

    def sleeper(tag):
        try:
            yield engine.timeout(5.0)
            yield engine.timeout(5.0)
        finally:
            closed.append(tag)

    def quick():
        yield engine.timeout(1.0)

    for tag in ("a", "b"):
        engine.process(sleeper(tag))
    done = engine.process(quick())
    engine.run(until=6.0)
    assert engine.queue_stats()["pending"] == 2
    engine.close()
    assert closed == ["a", "b"]
    assert engine.queue_stats()["pending"] == 0
    assert done.processed
    engine.run()            # a closed engine has nothing left to run
    assert engine.now == 6.0


def test_a_closed_engine_is_freed_without_the_cycle_collector():
    import gc

    engine = Engine()
    resource = Resource(engine, 1)

    def holder():
        request = resource.request()
        yield request
        yield engine.timeout(10.0)

    for _ in range(3):
        engine.process(holder())
    engine.run(until=1.0)
    probe = weakref.ref(engine)
    enabled = gc.isenabled()
    gc.disable()
    try:
        engine.close()
        del engine, resource
        assert probe() is None
    finally:
        if enabled:
            gc.enable()


def test_failed_build_names_its_requirements(tmp_path, monkeypatch):
    monkeypatch.setenv("CC", str(tmp_path / "no-such-compiler"))
    with pytest.raises(ImportError, match="setuptools and a C compiler"):
        engine_module._kernel(tmp_path)
    assert list(tmp_path.iterdir()) == []
