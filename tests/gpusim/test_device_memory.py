"""Tests for device profiles and memory pools."""

import pytest

from repro.gpusim.device import (
    DEVICE_PRESETS,
    THROTTLE_STATES,
    PowerRails,
    get_device,
    oneplus_12,
    pixel_8,
    xiaomi_mi6,
)
from repro.gpusim.memory import MemoryPool


class TestDeviceProfiles:
    def test_four_presets(self):
        assert len(DEVICE_PRESETS) == 4

    def test_lookup_by_name(self):
        assert get_device("OnePlus 12").gpu == "Adreno 750"
        with pytest.raises(KeyError):
            get_device("iPhone 27")

    def test_flagship_fastest(self):
        op12 = oneplus_12()
        mi6 = xiaomi_mi6()
        assert op12.fp16_gflops > mi6.fp16_gflops
        assert op12.disk_bw > mi6.disk_bw
        assert op12.um_bw > mi6.um_bw

    def test_ram_budget_below_total(self):
        for dev in DEVICE_PRESETS.values():
            assert 0 < dev.ram_budget_bytes < dev.ram_bytes

    def test_pixel8_has_less_ram_than_oneplus(self):
        assert pixel_8().ram_bytes < oneplus_12().ram_bytes

    def test_compute_time_linear_in_flops(self):
        d = oneplus_12()
        assert d.compute_time_ms(2_000_000) == pytest.approx(2 * d.compute_time_ms(1_000_000))

    def test_scaled_override(self):
        d = oneplus_12().scaled(ram_bytes=1024)
        assert d.ram_bytes == 1024
        assert d.gpu == "Adreno 750"  # other fields preserved


class TestThrottled:
    def test_factor_scales_clock_bound_rates(self):
        base = oneplus_12()
        hot = base.throttled(0.7)
        assert hot.fp16_gflops == pytest.approx(0.7 * base.fp16_gflops)
        assert hot.um_bw == pytest.approx(0.7 * base.um_bw)
        assert hot.tm_upload_bw == pytest.approx(0.7 * base.tm_upload_bw)

    def test_flash_path_and_overheads_untouched(self):
        base = pixel_8()
        hot = base.throttled("hot")
        assert hot.disk_bw == base.disk_bw
        assert hot.disk_latency_ms == base.disk_latency_ms
        assert hot.kernel_launch_ms == base.kernel_launch_ms
        assert hot.gpu_setup_ms == base.gpu_setup_ms
        assert hot.name == base.name

    def test_named_states(self):
        base = oneplus_12()
        for state, factor in THROTTLE_STATES.items():
            dev = base.throttled(state)
            assert dev.fp16_gflops == pytest.approx(factor * base.fp16_gflops)
        # Sustained states are ordered below burst.
        assert THROTTLE_STATES["critical"] < THROTTLE_STATES["hot"] < THROTTLE_STATES["warm"]

    def test_nominal_is_identity(self):
        base = oneplus_12()
        assert base.throttled(1.0) is base
        assert base.throttled("nominal") is base

    def test_rails_override(self):
        rails = PowerRails(idle_w=0.5, io_w=2.0, compute_w=3.0, overlap_w=4.0)
        dev = oneplus_12().throttled("warm", rails=rails)
        assert dev.power is rails

    def test_invalid_inputs(self):
        base = oneplus_12()
        with pytest.raises(KeyError):
            base.throttled("melting")
        with pytest.raises(ValueError):
            base.throttled(0.0)
        with pytest.raises(ValueError):
            base.throttled(1.5)


class TestDeviceAliases:
    @pytest.mark.parametrize(
        "alias",
        ["oneplus12", "ONEPLUS 12", "one-plus_12", "OnePlus12", "  OnePlus 12  "],
    )
    def test_normalized_aliases_resolve(self, alias):
        assert get_device(alias) is get_device("OnePlus 12")

    def test_pixel_aliases(self):
        assert get_device("pixel8").gpu == get_device("Pixel 8").gpu
        assert get_device("PIXEL-8").gpu == get_device("Pixel 8").gpu

    def test_exact_names_still_work(self):
        for name in DEVICE_PRESETS:
            assert get_device(name) is DEVICE_PRESETS[name]

    def test_unknown_device_lists_presets(self):
        with pytest.raises(KeyError) as exc:
            get_device("iphone27")
        message = str(exc.value)
        for name in DEVICE_PRESETS:
            assert name in message


class TestMemoryPool:
    def test_alloc_free_roundtrip(self):
        p = MemoryPool("um")
        p.allocate("w", 100)
        assert p.in_use == 100
        assert p.free("w") == 100
        assert p.in_use == 0

    def test_double_alloc_rejected(self):
        p = MemoryPool("um")
        p.allocate("a", 10)
        with pytest.raises(ValueError):
            p.allocate("a", 10)

    def test_free_unknown_rejected(self):
        p = MemoryPool("um")
        with pytest.raises(ValueError):
            p.free("ghost")

    def test_free_all(self):
        p = MemoryPool("um")
        for i in range(5):
            p.allocate(f"w{i}", 10)
        p.free_all()
        assert p.in_use == 0
        assert not p.live_names()

    def test_negative_alloc_rejected(self):
        p = MemoryPool("um")
        with pytest.raises(ValueError):
            p.allocate("a", -1)
