"""The package namespace: what ``import ncgroupoid`` loads, and what each public name is.

Each check runs in a fresh interpreter, where no layer has been loaded yet.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncgroupoid

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(code: str) -> list[str]:
    """The stdout lines of ``code`` run in a new interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


_LOADED = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'ncgroupoid'))\n"


def test_import_loads_the_base_layer_and_a_read_loads_one_more():
    assert _fresh(
        "import sys\n"
        "import ncgroupoid\n" + _LOADED +
        "ncgroupoid.build_groupoid\n" + _LOADED
    ) == [
        "ncgroupoid ncgroupoid._expr ncgroupoid.diffspace ncgroupoid.gallery",
        "ncgroupoid ncgroupoid._expr ncgroupoid.diffspace ncgroupoid.gallery "
        "ncgroupoid.groupoid",
    ]


def test_each_public_name_is_its_home_modules_object():
    assert _fresh(
        "import importlib\n"
        "import ncgroupoid\n"
        "for name in ncgroupoid.__all__:\n"
        "    home = importlib.import_module('ncgroupoid.' + ncgroupoid._HOME[name])\n"
        "    assert getattr(ncgroupoid, name) is getattr(home, name), name\n"
        "    assert name in vars(ncgroupoid), name\n"
        "print(len(ncgroupoid.__all__))\n"
    ) == ["48"]


@pytest.mark.parametrize("first, second", [("ncgroupoid.cli", "ncgroupoid.gallery"),
                                           ("ncgroupoid.gallery", "ncgroupoid.cli")])
def test_gallery_stays_the_function_whatever_imports_its_module(first, second):
    assert _fresh(
        f"import {first}\n"
        "import ncgroupoid\n"
        "print(ncgroupoid.gallery.__name__, type(ncgroupoid.gallery).__name__)\n"
        f"import {second}\n"
        "print(ncgroupoid.gallery.__name__, type(ncgroupoid.gallery).__name__)\n"
    ) == ["gallery function"] * 2


def test_star_import_binds_exactly_all():
    assert _fresh(
        "import ncgroupoid\n"
        "names = {}\n"
        "exec('from ncgroupoid import *', names)\n"
        "del names['__builtins__']\n"
        "print(sorted(names) == sorted(ncgroupoid.__all__))\n"
    ) == ["True"]


def test_a_layer_reads_as_an_attribute_before_it_is_imported():
    assert _fresh(
        "import ncgroupoid\n"
        "print(ncgroupoid.vonneumann.__name__)\n"
    ) == ["ncgroupoid.vonneumann"]


def test_dir_covers_all_and_unknown_names_raise_attribute_error():
    assert set(ncgroupoid.__all__) <= set(dir(ncgroupoid))
    assert "__version__" in dir(ncgroupoid)
    assert not hasattr(ncgroupoid, "nope")
    with pytest.raises(AttributeError, match="^module 'ncgroupoid' has no attribute 'nope'$"):
        ncgroupoid.nope
