"""Validation helpers reject bad inputs with ValidationError."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.utils.validation import (
    check_finite,
    check_fraction,
    check_int,
    check_positive_int,
    check_probability,
    ensure_2d,
    env_flag,
)


class TestCheckPositiveInt:
    def test_accepts_int(self):
        assert check_positive_int(3, "n") == 3

    def test_accepts_numpy_int(self):
        assert check_positive_int(np.int64(4), "n") == 4

    def test_rejects_zero(self):
        with pytest.raises(ValidationError, match="n"):
            check_positive_int(0, "n")

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive_int(-2, "n")

    def test_rejects_float(self):
        with pytest.raises(ValidationError):
            check_positive_int(2.5, "n")

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_positive_int(True, "n")


class TestCheckInt:
    def test_accepts_zero_at_default_minimum(self):
        assert check_int(0, "n") == 0

    def test_accepts_numpy_int(self):
        assert type(check_int(np.int32(5), "n")) is int

    @pytest.mark.parametrize("value", [2.0, 2.5, True, "3", None])
    def test_rejects_non_integers(self, value):
        with pytest.raises(ValidationError, match="n must be an int"):
            check_int(value, "n")

    def test_rejects_below_minimum(self):
        with pytest.raises(ValidationError, match=">= 2"):
            check_int(1, "n", minimum=2)


class TestCheckFinite:
    @pytest.mark.parametrize("value", [0, -3, 2.5, np.float32(1.5), np.int64(7)])
    def test_accepts_finite_reals(self, value):
        assert check_finite(value, "x") == float(value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValidationError, match="x must be finite"):
            check_finite(value, "x")

    @pytest.mark.parametrize("value", [True, "1.0", None, 1j])
    def test_rejects_non_reals(self, value):
        with pytest.raises(ValidationError, match="real number"):
            check_finite(value, "x")


class TestCheckFraction:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, value):
        assert check_fraction(value, "f") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValidationError):
            check_fraction(value, "f")

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError):
            check_fraction("half", "f")

    def test_coerces_int(self):
        assert check_fraction(1, "f") == 1.0


class TestCheckProbability:
    def test_accepts_half(self):
        assert check_probability(0.5, "p") == 0.5

    def test_rejects_above_one(self):
        with pytest.raises(ValidationError):
            check_probability(1.5, "p")

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_probability(float("nan"), "p")


class TestEnsureDims:
    def test_ensure_2d_accepts_nested(self):
        out = ensure_2d([[1, 2], [3, 4]], "x")
        assert out.shape == (2, 2)

    def test_ensure_2d_rejects_1d(self):
        with pytest.raises(ValidationError):
            ensure_2d([1, 2], "x")

    def test_ensure_2d_rejects_3d(self):
        with pytest.raises(ValidationError):
            ensure_2d(np.zeros((2, 2, 2)), "x")


class TestEnvFlag:
    @pytest.mark.parametrize("raw", ["1", "on", "TRUE", " yes "])
    def test_on_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        assert env_flag("REPRO_TEST_FLAG", default=False) is True

    @pytest.mark.parametrize("raw", ["0", "OFF", "false", "no"])
    def test_off_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        assert env_flag("REPRO_TEST_FLAG", default=True) is False

    @pytest.mark.parametrize("default", [True, False])
    def test_unset_or_empty_gives_default(self, monkeypatch, default):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert env_flag("REPRO_TEST_FLAG", default=default) is default
        monkeypatch.setenv("REPRO_TEST_FLAG", "  ")
        assert env_flag("REPRO_TEST_FLAG", default=default) is default

    @pytest.mark.parametrize("raw", ["2", "-1", "maybe", "enabled", "o n"])
    def test_rejects_anything_else(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        with pytest.raises(ValidationError, match="REPRO_TEST_FLAG"):
            env_flag("REPRO_TEST_FLAG", default=False)
