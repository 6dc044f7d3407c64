"""The package namespace: ``import loweig`` loads only the kernels and the
fast path, and every other public name resolves on first use."""

import subprocess
import sys
from pathlib import Path

import pytest

import loweig

LAZY_MODULES = ("loweig.truncation", "loweig.learner", "loweig.oracle", "loweig.bench")


def run_fresh(code):
    """Runs ``code`` in a fresh interpreter that imports this checkout's
    loweig, and returns its stdout."""
    path = str(Path(loweig.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {path!r}); {code}"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return done.stdout


def test_import_loads_only_the_fast_path():
    unwanted = LAZY_MODULES + ("csv", "json", "dataclasses")
    out = run_fresh(f"import loweig; print(*[m for m in {unwanted!r} if m in sys.modules])")
    assert out.split() == []


def test_no_submodule_loads_dataclasses():
    # the records are plain classes: building a dataclass compiles and runs
    # generated source for each class at import
    out = run_fresh(
        "import loweig; loweig.update; loweig.truncate; loweig.materialize; loweig.run_grid; "
        f"print(*[m for m in {LAZY_MODULES!r} if m not in sys.modules], "
        "'dataclasses' in sys.modules)"
    )
    assert out.split() == ["False"]


def test_first_use_loads_the_owning_submodule():
    out = run_fresh(
        "import loweig; loweig.truncate; "
        f"print(*[m for m in {LAZY_MODULES!r} if m in sys.modules])"
    )
    assert out.split() == ["loweig.truncation"]


@pytest.mark.parametrize("name", loweig.__all__)
def test_public_name_is_its_submodule_object(name):
    value = getattr(loweig, name)
    # the defining submodule and any that import the name hold the same object
    holders = [module for key, module in sys.modules.items()
               if key.startswith("loweig.") and name in vars(module)]
    assert holders and all(vars(module)[name] is value for module in holders)
    assert vars(loweig)[name] is value  # cached: later lookups skip __getattr__


@pytest.mark.parametrize("trigger", ["loweig.update", "import loweig.learner"])
def test_fast_eigh_stays_the_function(trigger):
    out = run_fresh(f"import loweig; {trigger}; print(callable(loweig.fast_eigh), "
                    "loweig.fast_eigh is sys.modules['loweig.fast_eigh'].fast_eigh)")
    assert out.split() == ["True", "True"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        loweig.no_such_name


def test_dir_covers_all():
    assert set(loweig.__all__) <= set(dir(loweig))


def test_star_import():
    namespace = {}
    exec("from loweig import *", namespace)
    assert all(namespace[name] is getattr(loweig, name) for name in loweig.__all__)
