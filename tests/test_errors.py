"""Tests for the exception hierarchy."""

import pytest

from repro import errors


class TestUnknownNodeError:
    def test_message_lists_known_nodes(self):
        error = errors.UnknownNodeError("3nm", ("7nm", "5nm"))
        assert "3nm" in str(error)
        assert "7nm" in str(error)
        assert error.name == "3nm"
        assert error.known == ("7nm", "5nm")

    def test_message_without_known_list(self):
        error = errors.UnknownNodeError("3nm")
        assert "3nm" in str(error)

    def test_str_is_the_message_not_its_repr(self):
        # A ``KeyError`` prints the repr of its argument; this one
        # prints the message itself, as the CLI's ``args[0]`` does.
        error = errors.UnknownNodeError("3nm", ("7nm", "5nm"))
        assert str(error) == "unknown process node '3nm' (known nodes: 7nm, 5nm)"
        assert str(error) == error.args[0]
        assert str(errors.UnknownNodeError("3nm")) == "unknown process node '3nm'"

    def test_is_key_error(self):
        with pytest.raises(KeyError):
            raise errors.UnknownNodeError("3nm")


class TestNodeUnavailableError:
    def test_message_explains_capacity(self):
        error = errors.NodeUnavailableError("20nm")
        assert "20nm" in str(error)
        assert "capacity" in str(error)
        assert error.name == "20nm"


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception",
        [
            errors.UnknownNodeError,
            errors.NodeUnavailableError,
            errors.InvalidDesignError,
            errors.InvalidParameterError,
            errors.CalibrationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception):
        assert issubclass(exception, errors.ReproError)

    def test_one_except_clause_catches_everything(self, model):
        from repro.design.library.a11 import a11

        with pytest.raises(errors.ReproError):
            model.total_weeks(a11("28nm"), -1.0)
        with pytest.raises(errors.ReproError):
            model.foundry.technology["not-a-node"]
