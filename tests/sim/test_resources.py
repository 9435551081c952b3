"""Tests for Resource, Store, and Gate."""

import pytest

from repro.sim import Engine, Gate, Resource, SimulationError, Store


def hold(engine, resource, duration, trace, name):
    req = resource.request()
    yield req
    trace.append((engine.now, name, "acquired"))
    yield engine.timeout(duration)
    resource.release(req)
    trace.append((engine.now, name, "released"))


class TestResource:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource(Engine(), capacity=0)

    def test_serial_access_single_slot(self):
        engine = Engine()
        cpu = Resource(engine, capacity=1)
        trace = []
        engine.process(hold(engine, cpu, 5.0, trace, "a"))
        engine.process(hold(engine, cpu, 5.0, trace, "b"))
        engine.run()
        assert trace == [
            (0.0, "a", "acquired"),
            (5.0, "a", "released"),
            (5.0, "b", "acquired"),
            (10.0, "b", "released"),
        ]

    def test_parallel_access_multi_slot(self):
        engine = Engine()
        cpu = Resource(engine, capacity=2)
        trace = []
        for name in ("a", "b", "c"):
            engine.process(hold(engine, cpu, 4.0, trace, name))
        engine.run()
        acquired = [(t, n) for t, n, kind in trace if kind == "acquired"]
        assert acquired == [(0.0, "a"), (0.0, "b"), (4.0, "c")]

    def test_fifo_grant_order(self):
        engine = Engine()
        cpu = Resource(engine, capacity=1)
        order = []

        def claim(name, arrival):
            yield engine.timeout(arrival)
            req = cpu.request()
            yield req
            order.append(name)
            yield engine.timeout(1.0)
            cpu.release(req)

        for name, arrival in (("first", 0.1), ("second", 0.2), ("third", 0.3)):
            engine.process(claim(name, arrival))
        engine.run()
        assert order == ["first", "second", "third"]

    def test_utilization_accounting(self):
        engine = Engine()
        cpu = Resource(engine, capacity=2)
        trace = []
        engine.process(hold(engine, cpu, 10.0, trace, "a"))
        engine.process(hold(engine, cpu, 5.0, trace, "b"))
        engine.run()
        # Slot-time: a holds 10, b holds 5 => busy 15 of 2*10 capacity-time.
        assert cpu.busy_time() == pytest.approx(15.0)
        assert cpu.utilization() == pytest.approx(0.75)

    def test_wait_count_counts_queued_grants(self):
        engine = Engine()
        cpu = Resource(engine, capacity=1)
        trace = []
        for name in ("a", "b", "c"):
            engine.process(hold(engine, cpu, 1.0, trace, name))
        engine.run()
        # b and c queue behind a and are granted one at a time.
        assert [entry for entry in trace if entry[2] == "acquired"] == [
            (0.0, "a", "acquired"), (1.0, "b", "acquired"),
            (2.0, "c", "acquired")]
        assert cpu.grants == 3

    def test_cancel_queued_request(self):
        engine = Engine()
        cpu = Resource(engine, capacity=1)
        holder = cpu.request()
        assert holder.triggered
        queued = cpu.request()
        assert not queued.triggered
        cpu.release(queued)  # cancel while queued
        assert not cpu._queue
        cpu.release(holder)
        assert cpu.request().triggered  # the slot is free again

    def test_request_context_manager(self):
        engine = Engine()
        cpu = Resource(engine, capacity=1)
        done = []

        def proc():
            with (yield cpu.request()):
                yield engine.timeout(2.0)
            done.append(engine.now)

        engine.process(proc())
        engine.run()
        assert done == [2.0]
        assert cpu.request().triggered  # the context manager released it


class TestStore:
    def test_put_then_get(self):
        engine = Engine()
        store = Store(engine)
        store.put("x")
        got = []

        def getter():
            item = yield store.get()
            got.append(item)

        engine.process(getter())
        engine.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        engine = Engine()
        store = Store(engine)
        got = []

        def getter():
            item = yield store.get()
            got.append((engine.now, item))

        def putter():
            yield engine.timeout(3.0)
            store.put("late")

        engine.process(getter())
        engine.process(putter())
        engine.run()
        assert got == [(3.0, "late")]

    def test_fifo_item_and_getter_order(self):
        engine = Engine()
        store = Store(engine)
        got = []

        def getter(name):
            item = yield store.get()
            got.append((name, item))

        engine.process(getter("g1"))
        engine.process(getter("g2"))

        def putter():
            yield engine.timeout(1.0)
            store.put("first")
            store.put("second")

        engine.process(putter())
        engine.run()
        assert got == [("g1", "first"), ("g2", "second")]

    def test_size_and_waiting_getters(self):
        engine = Engine()
        store = Store(engine)
        store.put(1)
        store.put(2)
        assert store.size == 2
        # an item is ready: the getter never waits
        assert store.get().triggered


class TestGate:
    def test_wait_already_satisfied(self):
        engine = Engine()
        gate = Gate(engine, level=5.0)
        event = gate.wait_for(3.0)
        assert event.triggered

    def test_advance_wakes_thresholds_at_or_below(self):
        engine = Engine()
        gate = Gate(engine)
        woken = []

        def waiter(threshold):
            yield gate.wait_for(threshold)
            woken.append(threshold)

        for threshold in (10.0, 20.0, 30.0):
            engine.process(waiter(threshold))
        engine.run()
        assert woken == []
        assert gate.advance(25.0) == 2
        engine.run()
        assert sorted(woken) == [10.0, 20.0]
        gate.advance(30.0)
        engine.run()
        assert sorted(woken) == [10.0, 20.0, 30.0]

    def test_level_cannot_decrease(self):
        engine = Engine()
        gate = Gate(engine, level=10.0)
        with pytest.raises(SimulationError):
            gate.advance(5.0)
