"""The package and the CLI import on demand.

``import amigram`` loads no submodule: each exported name comes from its
home module on first use.  A CLI subcommand loads only the modules it runs,
so a single request does not pay to import census, families and render,
and no subcommand loads ``fractions``, which only a shape's ``height`` and
``from_base_height_side`` need.  The lazy names behave as the eager imports
did.
"""

import ast
import importlib
import subprocess
import sys

import pytest

import amigram

BASE = {"amigram", "amigram.amicability", "amigram.cli", "amigram.core"}


def loaded_after(code):
    """The amigram modules, and ``fractions`` if loaded, that a fresh
    interpreter holds after running ``code``."""
    code += (
        "\nprint(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'amigram' or m == 'fractions'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code],
        capture_output=True, text=True, check=True,
    )
    return set(ast.literal_eval(result.stdout))


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["check", "--base", "7", "--side", "6", "--area", "42"], BASE),
        (["verify", "--max-perimeter", "8"], BASE),
        (["family", "--from", "4", "--to", "4"], BASE | {"amigram.families"}),
        (["enumerate", "--perimeter", "8"], BASE | {"amigram.census"}),
        (["census", "--max-perimeter", "10"], BASE | {"amigram.census"}),
        (["rectangles"], BASE | {"amigram.census"}),
        (["witness", "--area", "10"], BASE | {"amigram.census"}),
        (
            ["render", "--base", "7", "--side", "6", "--area", "42", "--companion"],
            BASE | {"amigram.render"},
        ),
    ],
    ids=["check", "verify", "family", "enumerate", "census", "rectangles", "witness", "render"],
)
def test_a_subcommand_loads_only_the_modules_it_runs(argv, expected):
    code = (
        "import os\n"
        "from contextlib import redirect_stdout\n"
        "import amigram.cli as cli\n"
        "with open(os.devnull, 'w') as sink, redirect_stdout(sink):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )
    assert loaded_after(code) == expected


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import amigram") == {"amigram"}


def test_every_export_is_its_home_modules_object():
    for module, names in amigram._EXPORTS.items():
        home = importlib.import_module(f"amigram.{module}")
        for name in names:
            assert getattr(amigram, name) is getattr(home, name), name
    assert sorted(name for names in amigram._EXPORTS.values() for name in names) == sorted(
        set(amigram.__all__) - {"__version__"}
    )
    assert set(amigram.__all__) <= set(dir(amigram))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from amigram import *", namespace)
    assert set(amigram.__all__) <= set(namespace)
    assert namespace["Parallelogram"] is amigram.core.Parallelogram
    assert namespace["__version__"] == amigram.__version__


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        amigram.no_such_name
    assert not hasattr(amigram, "no_such_name")


def test_from_import_of_a_submodule_returns_the_submodule():
    # As bench/api.py imports them, in an interpreter that has loaded none.
    code = (
        "from amigram import census, render\n"
        "assert census is sys.modules['amigram.census']\n"
        "assert render is sys.modules['amigram.render']\n"
    )
    assert loaded_after(code) == {
        "amigram", "amigram.amicability", "amigram.census", "amigram.core", "amigram.render"
    }


def test_fractions_loads_on_the_first_rational_height():
    code = (
        "from amigram import Parallelogram\n"
        "shape = Parallelogram(4, 5, 6)\n"
        "assert 'fractions' not in sys.modules\n"
        "height = shape.height\n"
        "from fractions import Fraction\n"
        "assert type(height) is Fraction and height == Fraction(3, 2)\n"
        "assert shape.height == Fraction(3, 2)\n"
    )
    assert loaded_after(code) == {"amigram", "amigram.core", "fractions"}
    code = (
        "from amigram import Parallelogram\n"
        "shape = Parallelogram.from_base_height_side(4, 2, 5)\n"
        "assert shape == Parallelogram(4, 5, 8)\n"
        "assert 'fractions' not in sys.modules\n"
        "from fractions import Fraction\n"
        "assert Parallelogram.from_base_height_side(4, Fraction(3, 2), 5).area == 6\n"
    )
    assert loaded_after(code) == {"amigram", "amigram.core", "fractions"}
