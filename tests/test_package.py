"""The package's public surface: ``dfca.__all__`` lists exactly what it binds."""

import types

import dfca


def test_all_lists_each_name_once():
    assert len(dfca.__all__) == len(set(dfca.__all__))


def test_every_listed_name_resolves():
    missing = [name for name in dfca.__all__ if not hasattr(dfca, name)]
    assert missing == []


def test_all_equals_the_public_bindings():
    """A removed name cannot linger in __all__, nor an export go unlisted."""
    bound = {
        name
        for name, value in vars(dfca).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(dfca.__all__) == bound
