"""Argument validation helpers."""

import pytest

from repro.errors import ConfigurationError, ReproError, ValidationTypeError
from repro.util.validation import (
    check_choice,
    check_in_range,
    check_int,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)


class TestCheckType:
    def test_accepts_matching(self):
        check_type("x", 3, int)
        check_type("x", "s", str)
        check_type("x", 3.0, (int, float))

    def test_rejects_mismatch(self):
        with pytest.raises(TypeError, match="x must be int"):
            check_type("x", "3", int)

    def test_rejects_bool_where_number_expected(self):
        with pytest.raises(TypeError, match="got bool"):
            check_type("flag", True, (int, float))

    def test_raises_typed_error_from_errors_module(self):
        """The raised error derives from both the repo hierarchy and the
        builtin TypeError, so old `except TypeError` call sites and new
        `except ReproError` ones both catch it."""
        with pytest.raises(ValidationTypeError):
            check_type("x", "3", int)
        err = ValidationTypeError("x must be int")
        assert isinstance(err, ReproError)
        assert isinstance(err, TypeError)


class TestCheckInt:
    def test_accepts_and_returns_ints(self):
        assert check_int("n", 3) == 3
        assert check_int("n", -7) == -7

    def test_rejects_bool(self):
        with pytest.raises(ValidationTypeError, match="got bool"):
            check_int("flag", True)

    def test_rejects_float_and_str(self):
        with pytest.raises(ValidationTypeError, match="n must be an int"):
            check_int("n", 3.0)
        with pytest.raises(ValidationTypeError, match="n must be an int"):
            check_int("n", "3")


class TestCheckChoice:
    def test_accepts_member(self):
        check_choice("mode", "spin", ("spin", "block"))

    def test_rejects_non_member_with_choices_in_message(self):
        with pytest.raises(ConfigurationError, match="spin"):
            check_choice("mode", "sleep", ("spin", "block"))

    def test_rejected_error_is_repro_error(self):
        with pytest.raises(ReproError):
            check_choice("mode", "sleep", ("spin", "block"))


class TestNumericChecks:
    def test_positive(self):
        check_positive("n", 1)
        with pytest.raises(ConfigurationError):
            check_positive("n", 0)
        with pytest.raises(ConfigurationError):
            check_positive("n", -2)

    def test_non_negative(self):
        check_non_negative("n", 0)
        check_non_negative("n", float("inf"))
        with pytest.raises(ConfigurationError):
            check_non_negative("n", -1e-9)

    def test_nan_is_rejected(self):
        with pytest.raises(ConfigurationError, match="n must be >= 0, got nan"):
            check_non_negative("n", float("nan"))
        with pytest.raises(ConfigurationError, match="n must be > 0, got nan"):
            check_positive("n", float("nan"))
        with pytest.raises(ConfigurationError):
            check_in_range("x", float("nan"), 0, 1)
        with pytest.raises(ConfigurationError):
            check_probability("p", float("nan"))

    def test_in_range_inclusive(self):
        check_in_range("x", 0, 0, 1)
        check_in_range("x", 1, 0, 1)
        with pytest.raises(ConfigurationError):
            check_in_range("x", 1.0001, 0, 1)

    def test_probability(self):
        check_probability("p", 0.5)
        with pytest.raises(ConfigurationError):
            check_probability("p", 1.5)
        with pytest.raises(ConfigurationError):
            check_probability("p", -0.1)

    def test_error_message_contains_name_and_value(self):
        with pytest.raises(ConfigurationError, match="workers must be > 0, got -3"):
            check_positive("workers", -3)
