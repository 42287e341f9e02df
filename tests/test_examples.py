"""Every example imports against the current package.

The examples are runnable demos (``python examples/<name>.py``) that
nothing else executes, so a renamed or deleted public name would break
them silently.  Each one keeps its work under a ``__main__`` guard,
which makes loading the module cheap: it runs the imports and defines
``main``.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
