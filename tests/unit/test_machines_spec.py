"""Machine specification dataclasses: validation and derived quantities."""

import pytest

from repro.machines.arm import arm_cluster
from repro.machines.spec import (
    Configuration,
    CoreSpec,
    InstructionMix,
    MemorySpec,
    NetworkSpec,
)
from repro.machines.xeon import xeon_cluster


def make_core(**overrides) -> CoreSpec:
    params = dict(
        name="test-core",
        isa="test",
        frequencies_hz=(1.0e9, 2.0e9),
        instruction_scale=1.0,
        base_cpi=1.0,
        hazard_cpi_flops=0.5,
        hazard_cpi_branch=1.0,
        hazard_cpi_other=0.2,
        l1_kb=32,
    )
    params.update(overrides)
    return CoreSpec(**params)


class TestInstructionMix:
    def test_valid_mix(self):
        mix = InstructionMix(flops=0.5, mem=0.3, branch=0.1, other=0.1)
        assert mix.flops == 0.5

    def test_rejects_non_unit_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            InstructionMix(flops=0.5, mem=0.3, branch=0.1, other=0.2)

    def test_rejects_negative_fraction(self):
        with pytest.raises(ValueError):
            InstructionMix(flops=1.2, mem=-0.2, branch=0.0, other=0.0)


class TestCoreSpec:
    def test_fmin_fmax(self):
        core = make_core()
        assert core.fmin == 1.0e9
        assert core.fmax == 2.0e9

    def test_rejects_unsorted_frequencies(self):
        with pytest.raises(ValueError, match="ascending"):
            make_core(frequencies_hz=(2.0e9, 1.0e9))

    def test_rejects_empty_frequencies(self):
        with pytest.raises(ValueError):
            make_core(frequencies_hz=())

    def test_instruction_translation(self):
        core = make_core(instruction_scale=1.4)
        assert core.instructions(100.0) == pytest.approx(140.0)

    def test_work_cycles(self):
        core = make_core(base_cpi=0.5, instruction_scale=2.0)
        assert core.work_cycles(100.0) == pytest.approx(100.0)

    def test_hazard_cpi_mix_weighting(self):
        core = make_core()
        mix = InstructionMix(flops=1.0, mem=0.0, branch=0.0, other=0.0)
        assert core.hazard_cpi(mix) == pytest.approx(0.5)
        mix = InstructionMix(flops=0.0, mem=0.0, branch=1.0, other=0.0)
        assert core.hazard_cpi(mix) == pytest.approx(1.0)

    def test_cache_stall_cycles_use_mem_fraction(self):
        core = make_core(cache_stall_cpi=2.0)
        mix = InstructionMix(flops=0.5, mem=0.5, branch=0.0, other=0.0)
        assert core.cache_stall_cycles(100.0, mix) == pytest.approx(100.0)

    def test_rejects_bad_overlap_and_mlp(self):
        with pytest.raises(ValueError):
            make_core(memory_overlap=1.0)
        with pytest.raises(ValueError):
            make_core(mlp=0.5)


class TestMemorySpec:
    def make(self, **overrides) -> MemorySpec:
        params = dict(
            capacity_bytes=1e9,
            bandwidth_bytes_per_s=10e9,
            latency_s=80e-9,
            l2_kb=2048,
            l3_kb=0,
        )
        params.update(overrides)
        return MemorySpec(**params)

    def test_llc_prefers_l3(self):
        assert self.make(l3_kb=20 * 1024).llc_bytes == 20 * 1024 * 1024
        assert self.make().llc_bytes == 2048 * 1024

    def test_miss_amplification_is_one_when_fitting(self):
        mem = self.make()
        assert mem.miss_amplification(1024.0) == 1.0

    def test_miss_amplification_grows_and_saturates(self):
        mem = self.make()
        small = mem.miss_amplification(4 * mem.llc_bytes)
        big = mem.miss_amplification(10_000 * mem.llc_bytes)
        assert small == pytest.approx(2.0)
        assert big == 16.0

    def test_scaled_bandwidth(self):
        mem = self.make()
        assert mem.scaled(2.0).bandwidth_bytes_per_s == pytest.approx(20e9)
        # original untouched (frozen dataclass copy)
        assert mem.bandwidth_bytes_per_s == pytest.approx(10e9)

    def test_line_service_time(self):
        mem = self.make(bandwidth_bytes_per_s=1e9)
        assert mem.line_service_time(64) == pytest.approx(64e-9)


class TestNetworkSpec:
    def test_effective_bandwidth(self):
        nic = NetworkSpec(
            link_bytes_per_s=12.5e6,
            per_message_overhead_s=1e-4,
            protocol_efficiency=0.9,
            cpu_cost_per_message_s=1e-5,
            cpu_cost_per_byte_s=1e-9,
        )
        assert nic.effective_bandwidth == pytest.approx(11.25e6)
        assert nic.wire_time(11.25e6) == pytest.approx(1.0001)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            NetworkSpec(
                link_bytes_per_s=1e6,
                per_message_overhead_s=0.0,
                protocol_efficiency=1.5,
                cpu_cost_per_message_s=0.0,
                cpu_cost_per_byte_s=0.0,
            )

    def test_rejects_negative_overhead(self):
        with pytest.raises(ValueError, match="overhead"):
            NetworkSpec(
                link_bytes_per_s=1e6,
                per_message_overhead_s=-1e-6,
                protocol_efficiency=0.9,
                cpu_cost_per_message_s=0.0,
                cpu_cost_per_byte_s=0.0,
            )


class TestConfiguration:
    def test_label(self):
        cfg = Configuration(nodes=4, cores=8, frequency_hz=1.8e9)
        assert cfg.label() == "(4,8,1.8)"
        assert cfg.label(with_frequency=False) == "(4,8)"

    def test_total_threads(self):
        assert Configuration(3, 4, 1e9).total_threads == 12

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            Configuration(0, 1, 1e9)
        with pytest.raises(ValueError):
            Configuration(1, 0, 1e9)
        with pytest.raises(ValueError):
            Configuration(1, 1, 0.0)


class TestClusterSpec:
    def test_table3_shapes(self):
        xeon = xeon_cluster()
        arm = arm_cluster()
        assert xeon.max_nodes == 8 and arm.max_nodes == 8
        assert xeon.node.max_cores == 8 and arm.node.max_cores == 4
        assert len(xeon.frequencies_hz) == 3
        assert len(arm.frequencies_hz) == 5

    def test_validation_space_sizes_match_paper(self):
        """96 Xeon and 80 ARM validation configurations (paper §IV-B)."""
        xeon = xeon_cluster()
        arm = arm_cluster()
        n_xeon = sum(
            1 for _ in xeon.configurations(node_counts=[1, 2, 4, 8])
        )
        n_arm = sum(1 for _ in arm.configurations(node_counts=[1, 2, 4, 8]))
        assert n_xeon == 96
        assert n_arm == 80

    def test_validate_configuration_bounds(self):
        xeon = xeon_cluster()
        good = Configuration(8, 8, xeon.node.core.fmax)
        xeon.validate_configuration(good)
        with pytest.raises(ValueError, match="cores"):
            xeon.validate_configuration(Configuration(1, 9, xeon.node.core.fmax))
        with pytest.raises(ValueError, match="nodes"):
            xeon.validate_configuration(Configuration(9, 1, xeon.node.core.fmax))
        with pytest.raises(ValueError, match="DVFS"):
            xeon.validate_configuration(Configuration(1, 1, 2.5e9))

    def test_extrapolation_lifts_node_bound_only(self):
        xeon = xeon_cluster()
        big = Configuration(256, 8, xeon.node.core.fmax)
        xeon.validate_configuration(big, allow_extrapolation=True)
        with pytest.raises(ValueError):
            xeon.validate_configuration(
                Configuration(256, 9, xeon.node.core.fmax),
                allow_extrapolation=True,
            )

    def test_spec_table_matches_table3(self):
        row = xeon_cluster().spec_table()
        assert row["ISA"] == "x86_64"
        assert row["L3 cache"] == "20MB / node"
        assert row["I/O bandwidth"] == "1Gbps"
        row = arm_cluster().spec_table()
        assert row["L3 cache"] == "NA"
        assert row["I/O bandwidth"] == "100Mbps"
