"""Package surface: ``bellepr.__all__`` lists exactly the names that
``bellepr/__init__.py`` imports."""

import types

import bellepr


def test_all_lists_every_imported_name():
    imported = {
        name
        for name, value in vars(bellepr).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(bellepr.__all__) == len(set(bellepr.__all__))
    assert set(bellepr.__all__) == imported | {"__version__"}
    for name in bellepr.__all__:
        assert getattr(bellepr, name) is not None
