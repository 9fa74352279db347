"""Unit tests for the simulcast layer-prefix size model (PR 6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.interest import (
    NUM_LAYERS,
    SIMULCAST_FLOOR,
    layer_prefix_size,
    layers_for_level,
)
from repro.presentation.tuning import (
    BANDWIDTH_HIGH,
    BANDWIDTH_LOW,
    BANDWIDTH_MEDIUM,
)


class TestLevelMapping:
    def test_levels_map_to_layer_counts(self):
        assert layers_for_level(BANDWIDTH_HIGH) == 3
        assert layers_for_level(BANDWIDTH_MEDIUM) == 2
        assert layers_for_level(BANDWIDTH_LOW) == 1

    def test_unknown_level_gets_everything(self):
        assert layers_for_level("turbo") == NUM_LAYERS


class TestPrefixSizes:
    def test_full_prefix_is_total(self):
        assert layer_prefix_size(1_000_000, NUM_LAYERS) == 1_000_000

    def test_prefixes_are_monotonic(self):
        total = 500_000
        sizes = [layer_prefix_size(total, n) for n in (1, 2, 3)]
        assert sizes[0] < sizes[1] < sizes[2] == total

    def test_step_decay_geometry(self):
        # 1:4:16 weights — one layer ~5%, two layers ~24% of the stream.
        total = 21_000
        assert layer_prefix_size(total, 1) == 1_000
        assert layer_prefix_size(total, 2) == 5_000

    def test_out_of_range_raises(self):
        for bad in (0, 4, -1):
            with pytest.raises(CodecError, match="layer prefix"):
                layer_prefix_size(1000, bad)

    def test_zero_and_negative_totals(self):
        assert layer_prefix_size(0, 1) == 0
        assert layer_prefix_size(-5, 2) == 0

    def test_tiny_total_still_ships_a_byte(self):
        assert layer_prefix_size(3, 1) == 1

    @settings(max_examples=200, deadline=None)
    @given(total=st.integers(min_value=1, max_value=2**32))
    def test_layer_sizes_partition_total(self, total):
        prefixes = [layer_prefix_size(total, n) for n in range(1, NUM_LAYERS + 1)]
        assert prefixes == sorted(prefixes)
        assert prefixes[-1] == total
        assert prefixes[0] >= 0


class TestAgainstRealCodec:
    def test_floor_is_sane(self):
        # Icons (4-12KB in the workload generator) must ship whole.
        assert SIMULCAST_FLOOR > 12 * 1024
