"""DRAM channel model and the SSD model."""

import pytest

from repro.memory.disk import DiskModel, OutOfDiskError

from ..differential.lamh_oracle import DRAMModel


class TestDRAM:
    def test_latency(self):
        dram = DRAMModel(latency_cycles=100, channels=1, cycles_per_transfer=2)
        assert dram.service(0) == 100

    def test_channel_queueing(self):
        dram = DRAMModel(latency_cycles=100, channels=1, cycles_per_transfer=4)
        first = dram.service(0, address=0)
        second = dram.service(0, address=1)
        assert first == 100
        assert second == 104  # waits one transfer slot

    def test_channel_interleaving_parallel(self):
        dram = DRAMModel(latency_cycles=100, channels=2, cycles_per_transfer=4)
        a = dram.service(0, address=0)
        b = dram.service(0, address=1)  # different channel
        assert a == b == 100

    def test_idle_channel_no_queueing(self):
        dram = DRAMModel(latency_cycles=50, channels=1, cycles_per_transfer=2)
        dram.service(0)
        assert dram.service(1000) == 1050

    def test_counters(self):
        dram = DRAMModel()
        dram.service(0)
        dram.service(10)
        assert dram.transfers == 2
        assert dram.busy_cycles == 2 * dram.cycles_per_transfer

    def test_reset(self):
        dram = DRAMModel(channels=1)
        dram.service(0)
        dram.reset()
        assert dram.transfers == 0
        assert dram.service(0) == dram.latency_cycles

    def test_validation(self):
        with pytest.raises(ValueError):
            DRAMModel(latency_cycles=-1)
        with pytest.raises(ValueError):
            DRAMModel(channels=0)
        with pytest.raises(ValueError):
            DRAMModel(cycles_per_transfer=0)


class TestDisk:
    def test_write_time(self):
        disk = DiskModel(write_bandwidth_bytes_per_s=100e6, batch_latency_s=0)
        assert disk.write(100_000_000) == pytest.approx(1.0)

    def test_read_time(self):
        disk = DiskModel(read_bandwidth_bytes_per_s=200e6, batch_latency_s=0)
        assert disk.read(100_000_000) == pytest.approx(0.5)

    def test_cumulative_seconds(self):
        disk = DiskModel(batch_latency_s=0)
        disk.write(10**8)
        disk.read(10**8)
        assert disk.seconds == pytest.approx(
            10**8 / disk.write_bandwidth_bytes_per_s
            + 10**8 / disk.read_bandwidth_bytes_per_s
        )

    def test_capacity_exceeded(self):
        disk = DiskModel(capacity_bytes=100)
        disk.write(60)
        with pytest.raises(OutOfDiskError):
            disk.write(60)

    def test_free_releases(self):
        disk = DiskModel(capacity_bytes=100)
        disk.write(80)
        disk.free(80)
        disk.write(80)  # fits again
        assert disk.resident_bytes == 80

    def test_zero_write_no_latency(self):
        disk = DiskModel()
        assert disk.write(0) == 0.0

    def test_negative_rejected(self):
        disk = DiskModel()
        with pytest.raises(ValueError):
            disk.write(-1)
        with pytest.raises(ValueError):
            disk.read(-1)
