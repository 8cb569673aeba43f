"""Every error type of ``wadc.errors`` is raised somewhere in the package,
so no dead error type lingers."""

import inspect
import pathlib
import re

import wadc.errors as errors


def test_every_error_type_is_raised():
    source = "\n".join(path.read_text() for path in
                       pathlib.Path(errors.__file__).parent.glob("*.py"))
    types = [name for name, cls in inspect.getmembers(errors, inspect.isclass)
             if issubclass(cls, errors.WadcError)
             and cls is not errors.WadcError]
    assert len(types) > 10
    assert [name for name in types
            if not re.search(rf"\braise {name}\b", source)] == []
