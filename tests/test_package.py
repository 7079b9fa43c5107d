"""The package exports each module's public names, each once."""

import inspect

import coneq
from coneq import charts, core, errors, exact, metrics, quotients, suites

MODULES = (core, charts, errors, exact, metrics, quotients, suites)


def test_all_is_the_union_of_the_modules_lists():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed))
    assert sorted(coneq.__all__) == sorted(listed)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(coneq, name) is getattr(module, name), name
    assert not hasattr(coneq, "certify")


def test_errors_lists_every_error_class():
    classes = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.QuadricError)}
    assert sorted(errors.__all__) == sorted(classes)
