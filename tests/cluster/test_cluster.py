"""Tests for machines, the resource manager, and wastage accounting."""

import pytest

from repro.cluster.accounting import WastageLedger
from repro.cluster.machine import (
    EPYC_7282_128G,
    Machine,
    MachineConfig,
    parse_memory_mb,
)
from repro.cluster.manager import ResourceManager


class TestMachine:
    def test_paper_node_config(self):
        assert EPYC_7282_128G.memory_mb == 128 * 1024
        assert EPYC_7282_128G.cores == 32

    def test_config_validation(self):
        with pytest.raises(ValueError, match="memory_mb"):
            MachineConfig("x", memory_mb=0.0)
        with pytest.raises(ValueError, match="cores"):
            MachineConfig("x", memory_mb=1.0, cores=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_config_rejects_non_finite_memory(self, bad):
        with pytest.raises(ValueError, match="memory_mb must be positive"):
            MachineConfig("x", memory_mb=bad)

    @pytest.mark.parametrize("token", ["nang", "infg", "nan", "-infm", "1e308g"])
    def test_memory_token_rejects_non_finite_sizes(self, token):
        with pytest.raises(ValueError, match="memory size must be positive"):
            parse_memory_mb(token)

    def test_allocate_release_cycle(self):
        m = Machine(config=MachineConfig("t", 1000.0))
        m.allocate(1, 600.0)
        assert m.free_mb == pytest.approx(400.0)
        assert m.release(1) == 600.0
        assert m.free_mb == pytest.approx(1000.0)

    def test_over_capacity_rejected(self):
        m = Machine(config=MachineConfig("t", 1000.0))
        with pytest.raises(MemoryError, match="cannot fit"):
            m.allocate(1, 1500.0)

    def test_double_allocate_same_task(self):
        m = Machine(config=MachineConfig("t", 1000.0))
        m.allocate(1, 100.0)
        with pytest.raises(ValueError, match="already running"):
            m.allocate(1, 100.0)

    def test_release_unknown_task(self):
        m = Machine(config=MachineConfig("t", 1000.0))
        with pytest.raises(KeyError):
            m.release(9)

    def test_nonpositive_allocation(self):
        m = Machine(config=MachineConfig("t", 1000.0))
        with pytest.raises(ValueError, match="positive"):
            m.allocate(1, 0.0)


class TestResourceManager:
    def test_clamp_allocation(self):
        rm = ResourceManager()
        assert rm.clamp_allocation(1e9) == rm.max_allocation_mb
        assert rm.clamp_allocation(-5.0) == 1.0
        assert rm.clamp_allocation(512.0) == 512.0

    def test_nodes_freed_after_attempts(self):
        rm = ResourceManager(n_nodes=2)
        for _ in range(10):
            node = rm.try_place(rm.max_allocation_mb)
            task_id = rm.next_task_id()
            node.allocate(task_id, rm.max_allocation_mb)
            node.release(task_id)
        assert rm.next_task_id() == 10
        assert all(n.allocated_mb == 0.0 for n in rm.nodes)

    def test_invalid_n_nodes(self):
        with pytest.raises(ValueError, match="n_nodes"):
            ResourceManager(n_nodes=0)


class TestWastageLedger:
    def kwargs(self, **over):
        base = dict(
            task_type="t",
            workflow="w",
            instance_id=0,
            attempt=1,
            allocated_mb=2048.0,
            peak_memory_mb=1024.0,
        )
        base.update(over)
        return base

    def test_success_wastage_formula(self):
        led = WastageLedger()
        out = led.record_success(**self.kwargs(), runtime_hours=2.0)
        # (2048 - 1024) MB = 1 GB over 2 h -> 2 GBh
        assert out.wastage_gbh == pytest.approx(2.0)
        assert led.total_wastage_gbh == pytest.approx(2.0)
        assert led.total_runtime_hours == pytest.approx(2.0)

    def test_failure_wastage_formula(self):
        led = WastageLedger()
        out = led.record_failure(
            task_type="t",
            workflow="w",
            instance_id=0,
            attempt=1,
            allocated_mb=1024.0,
            peak_memory_mb=2048.0,
            time_to_failure_hours=0.5,
        )
        # whole 1 GB allocation wasted for 0.5 h
        assert out.wastage_gbh == pytest.approx(0.5)
        assert led.num_failures == 1

    def test_success_requires_coverage(self):
        led = WastageLedger()
        with pytest.raises(ValueError, match="allocated < peak"):
            led.record_success(
                **self.kwargs(allocated_mb=100.0, peak_memory_mb=200.0),
                runtime_hours=1.0,
            )

    def test_failure_requires_underallocation(self):
        led = WastageLedger()
        with pytest.raises(ValueError, match="allocated < peak"):
            led.record_failure(
                task_type="t",
                workflow="w",
                instance_id=0,
                attempt=1,
                allocated_mb=300.0,
                peak_memory_mb=200.0,
                time_to_failure_hours=1.0,
            )

    def test_per_type_aggregation(self):
        led = WastageLedger()
        led.record_success(**self.kwargs(task_type="a"), runtime_hours=1.0)
        led.record_success(**self.kwargs(task_type="b"), runtime_hours=2.0)
        by_type = led.wastage_by_task_type()
        assert by_type["a"] == pytest.approx(1.0)
        assert by_type["b"] == pytest.approx(2.0)

    def test_merge(self):
        a = WastageLedger()
        a.record_success(**self.kwargs(), runtime_hours=1.0)
        b = WastageLedger()
        b.record_failure(
            task_type="t",
            workflow="w",
            instance_id=1,
            attempt=1,
            allocated_mb=512.0,
            peak_memory_mb=1024.0,
            time_to_failure_hours=1.0,
        )
        a.merge(b)
        assert a.num_failures == 1
        assert len(a.outcomes) == 2
        assert a.total_wastage_gbh == pytest.approx(1.0 + 0.5)

    def test_over_allocation_property(self):
        led = WastageLedger()
        out = led.record_success(**self.kwargs(), runtime_hours=1.0)
        assert out.over_allocation_mb == pytest.approx(1024.0)
