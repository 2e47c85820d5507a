"""The exception hierarchy contract: everything derives from ReproError."""

import pytest

from repro import errors


def test_all_exported_errors_derive_from_repro_error():
    for name in errors.__all__:
        cls = getattr(errors, name)
        if issubclass(cls, Warning):
            assert issubclass(cls, errors.ReproWarning)
        else:
            assert issubclass(cls, errors.ReproError)


def test_warning_categories_are_user_warnings():
    assert issubclass(errors.ReproWarning, UserWarning)
    assert issubclass(errors.StoreWarning, errors.ReproWarning)
    assert issubclass(errors.ResilienceWarning, errors.ReproWarning)


def test_validation_error_is_value_error():
    assert issubclass(errors.ValidationError, ValueError)


def test_data_shape_error_is_value_error():
    assert issubclass(errors.DataShapeError, ValueError)


def test_constraint_error_is_value_error():
    assert issubclass(errors.ConstraintError, ValueError)


def test_transport_error_is_distance_error():
    assert issubclass(errors.TransportError, errors.DistanceError)


def test_catching_repro_error_catches_subclasses():
    with pytest.raises(errors.ReproError):
        raise errors.TransportError("boom")
