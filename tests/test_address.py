"""Unit tests for address decomposition and set-index hashing."""

import pytest

from repro.mem.address import (
    BLOCK_SIZE,
    AddressMapping,
    ilog2,
    is_power_of_two,
)
from repro.mem.hashing import get_set_hash, ipoly_set_index, linear_set_index, xor_set_index


class TestHelpers:
    def test_block_address(self):
        mapping = AddressMapping(num_sets=32, line_size=BLOCK_SIZE)
        assert mapping.block(0) == 0
        assert mapping.block(127) == 0
        assert mapping.block(128) == 1
        assert mapping.block(BLOCK_SIZE * 10 + 5) == 10

    def test_block_base(self):
        mapping = AddressMapping(num_sets=32, line_size=BLOCK_SIZE)
        assert mapping.block_to_byte(mapping.block(130)) == 128
        assert mapping.block_to_byte(mapping.block(127)) == 0

    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(1024)
        assert not is_power_of_two(0)
        assert not is_power_of_two(768)

    def test_ilog2(self):
        assert ilog2(1) == 0
        assert ilog2(128) == 7
        with pytest.raises(ValueError):
            ilog2(768)


class TestAddressMapping:
    def test_decompose_power_of_two(self):
        mapping = AddressMapping(num_sets=32, line_size=128)
        tag, set_index, offset = mapping.decompose(0x1234 * 128 + 5)
        assert offset == 5
        assert tag == 0x1234
        assert set_index == 0x1234 % 32

    def test_decompose_non_power_of_two_sets(self):
        # The GTX 480 L2 has 768 sets.
        mapping = AddressMapping(num_sets=768, line_size=128)
        address = 12345 * 128 + 17
        assert mapping.byte_offset(address) == 17
        assert mapping.set_index(address) == 12345 % 768

    def test_block_round_trip(self):
        mapping = AddressMapping(num_sets=32, line_size=128)
        for block in (0, 1, 17, 12345):
            assert mapping.block(mapping.block_to_byte(block)) == block

    def test_custom_hash_is_used(self):
        mapping = AddressMapping(num_sets=32, line_size=128, set_hash=lambda b, n: 7)
        assert mapping.set_index(0xDEADBEEF) == 7


class TestHashes:
    @pytest.mark.parametrize("num_sets", [16, 32, 64, 768])
    @pytest.mark.parametrize("hash_name", ["linear", "xor", "ipoly"])
    def test_hash_in_range(self, num_sets, hash_name):
        fn = get_set_hash(hash_name)
        for block in range(0, 100000, 997):
            assert 0 <= fn(block, num_sets) < num_sets

    def test_linear_matches_modulo(self):
        assert linear_set_index(100, 32) == 100 % 32
        assert linear_set_index(100, 768) == 100 % 768

    def test_xor_spreads_power_of_two_strides(self):
        # Blocks separated by exactly num_sets collide under linear indexing
        # but should spread under XOR hashing.
        num_sets = 32
        linear_sets = {linear_set_index(i * num_sets, num_sets) for i in range(64)}
        xor_sets = {xor_set_index(i * num_sets, num_sets) for i in range(64)}
        assert len(linear_sets) == 1
        assert len(xor_sets) > 8

    def test_xor_deterministic(self):
        assert xor_set_index(123456, 32) == xor_set_index(123456, 32)

    def test_ipoly_mixes_bits(self):
        values = {ipoly_set_index(b, 64) for b in range(0, 64 * 64, 64)}
        assert len(values) > 16

    def test_unknown_hash_raises(self):
        with pytest.raises(KeyError):
            get_set_hash("bogus")
