"""Unit tests for repro.common.rng."""

from repro.common.rng import derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_name_sensitivity(self):
        assert derive_seed(1, "trace", "gcc") != derive_seed(1, "trace", "gzip")

    def test_root_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_path_structure_matters(self):
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")

    def test_63_bit_range(self):
        for i in range(20):
            s = derive_seed(i, "n")
            assert 0 <= s < (1 << 63)

