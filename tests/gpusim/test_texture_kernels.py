"""Tests for the 2.5D texture model and the kernel cost model."""

import pytest

from repro.gpusim.device import oneplus_12, xiaomi_mi6
from repro.gpusim.kernels import KernelCostModel
from repro.gpusim.texture import (
    MAX_TEXTURE_DIM,
    TEXEL_DEPTH,
    texture_bytes,
    texture_layout,
    winograd_expansion,
)
from repro.graph.ops import OpKind, conv2d_spec, elementwise_spec, matmul_spec, softmax_spec


class TestTextureLayout:
    def test_texels_cover_tensor(self):
        from repro.graph.ops import TensorSpec

        t = TensorSpec((1000,))
        layout = texture_layout(t)
        assert layout.texels * TEXEL_DEPTH >= t.numel

    def test_near_square(self):
        from repro.graph.ops import TensorSpec

        layout = texture_layout(TensorSpec((4096, 4096)))
        assert 0.5 <= layout.width / layout.height <= 2.0

    def test_respects_max_dim(self):
        from repro.graph.ops import TensorSpec

        layout = texture_layout(TensorSpec((MAX_TEXTURE_DIM * 64, 64)))
        assert layout.width <= MAX_TEXTURE_DIM
        assert layout.height <= MAX_TEXTURE_DIM

    def test_padded_bytes_at_least_raw(self):
        from repro.graph.ops import TensorSpec

        t = TensorSpec((123, 7))
        assert texture_bytes(t) >= t.nbytes

    def test_padding_bounded(self):
        from repro.graph.ops import TensorSpec

        t = TensorSpec((2048, 2048))
        assert texture_bytes(t) <= t.nbytes * 1.2


class TestWinograd:
    def test_conv3x3_expands(self):
        assert winograd_expansion(OpKind.CONV2D, 3) == pytest.approx(16 / 9)

    def test_conv1x1_no_expansion(self):
        assert winograd_expansion(OpKind.CONV2D, 1) == 1.0

    def test_matmul_no_expansion(self):
        assert winograd_expansion(OpKind.MATMUL) == 1.0


class TestKernelCostModel:
    @pytest.fixture
    def model(self):
        return KernelCostModel(oneplus_12())

    def test_base_time_positive(self, model):
        op = matmul_spec("mm", 64, 512, 512)
        assert model.base_time_ms(op) > 0

    def test_launch_overhead_floor(self, model):
        tiny = elementwise_spec("t", OpKind.ADD, (2,))
        assert model.base_time_ms(tiny) >= model.device.kernel_launch_ms

    def test_efficiency_slows_kernels(self, model):
        op = matmul_spec("mm", 128, 1024, 1024)
        assert model.base_time_ms(op, efficiency=0.1) > model.base_time_ms(op, efficiency=1.0)

    def test_efficiency_must_be_positive(self, model):
        op = matmul_spec("mm", 8, 8, 8)
        with pytest.raises(ValueError):
            model.base_time_ms(op, efficiency=0)

    def test_matmul_compute_bound_has_slack(self, model):
        op = matmul_spec("mm", 256, 2048, 2048)
        assert model.compute_slack_ms(op) > 0

    def test_elementwise_memory_bound_no_slack(self, model):
        op = elementwise_spec("e", OpKind.ADD, (1024, 1024), n_inputs=2)
        assert model.compute_slack_ms(op) == 0

    def test_zero_extra_load_is_base(self, model):
        op = matmul_spec("mm", 64, 512, 512)
        assert model.time_with_load_ms(op, 0) == model.base_time_ms(op)

    def test_load_monotonic(self, model):
        op = matmul_spec("mm", 64, 512, 512)
        times = [model.time_with_load_ms(op, b) for b in (0, 10_000, 1_000_000, 10_000_000)]
        assert times == sorted(times)

    # --- Figure 2 shape assertions -------------------------------------
    def test_matmul_tolerates_equal_inflow(self, model):
        op = matmul_spec("mm", 128, 2048, 2048)
        assert model.slowdown_fraction(op, op.input_bytes) < 0.10

    def test_softmax_hurts_immediately(self, model):
        op = softmax_spec("sm", (16, 128, 128))
        assert model.slowdown_fraction(op, op.input_bytes) > 0.5

    def test_elemental_between(self, model):
        mm = matmul_spec("mm", 128, 2048, 2048)
        sm = softmax_spec("sm", (16, 128, 128))
        add = elementwise_spec("a", OpKind.ADD, (128, 2048), n_inputs=2)
        s_add = model.slowdown_fraction(add, add.input_bytes)
        assert model.slowdown_fraction(mm, mm.input_bytes) < s_add < model.slowdown_fraction(sm, sm.input_bytes)

    def test_hierarchical_capacity_zero_at_zero_threshold(self, model):
        op = softmax_spec("sm", (16, 128, 128))
        assert model.load_capacity_bytes(op, 0.0) == 0

    def test_reusable_capacity_large_at_20pct(self, model):
        op = matmul_spec("mm", 128, 2048, 2048)
        cap = model.load_capacity_bytes(op, 0.20)
        assert cap > op.weight_bytes  # can stream a whole peer weight

    def test_capacity_inverse_consistent(self, model):
        # Streaming exactly the capacity must stay within the threshold.
        op = matmul_spec("mm", 128, 1024, 4096)
        cap = model.load_capacity_bytes(op, 0.20)
        assert model.slowdown_fraction(op, cap) <= 0.20 + 1e-6

    def test_capacity_grows_with_threshold(self, model):
        op = elementwise_spec("a", OpKind.GELU, (256, 4096))
        assert model.load_capacity_bytes(op, 3.0) > model.load_capacity_bytes(op, 0.2)

    def test_negative_threshold_rejected(self, model):
        op = matmul_spec("mm", 8, 8, 8)
        with pytest.raises(ValueError):
            model.load_capacity_bytes(op, -0.1)

    def test_slower_device_slower_kernels(self):
        op = matmul_spec("mm", 128, 1024, 1024)
        fast = KernelCostModel(oneplus_12()).base_time_ms(op)
        slow = KernelCostModel(xiaomi_mi6()).base_time_ms(op)
        assert slow > fast * 2
