"""Guards on the package source itself."""

import ast
import io
import os
import pathlib
import re
import subprocess
import sys
import tokenize

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "growthopt"

# CPython's parser keeps a module's tokens in a buffer that doubles as it
# fills, so compiling a module of 4,096 tokens or more takes a step of about
# 0.24 MB of peak memory.  Every benchmark process compiles the package from
# source, so the largest module's count shows in every workload's peak RSS.
TOKEN_STEP = 4096


def parser_tokens(source: str) -> int:
    """Tokens of ``source`` as the parser counts them: every token but
    comments, non-logical newlines and the encoding marker."""
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    return sum(tok.type not in skip for tok in
               tokenize.generate_tokens(io.StringIO(source).readline))


def test_the_count_skips_comments_and_blank_lines():
    # NAME OP NUMBER NEWLINE, then ENDMARKER
    assert parser_tokens("x = 1  # one\n\n# none\n") == 5


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_stays_below_the_parser_token_step(path):
    n = parser_tokens(path.read_text(encoding="utf-8"))
    assert n < TOKEN_STEP, f"{path.name} has {n} parser tokens"


def private_names(source: str) -> set:
    """The private identifiers (a leading underscore, not a dunder) that
    ``source`` uses, as a bare name or as an attribute, and does not
    define.  A definition binds the name: a function, a class, an
    argument, or an assignment to it as a name or as an attribute
    (``self._x = ...``).  An imported name is a use, and so is its alias."""
    used, defined = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.arg):
            defined.add(node.arg)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            (defined if isinstance(node.ctx, ast.Store) else used).add(name)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
    return {name for name in used - defined
            if name.startswith("_") and not name.endswith("__")}


@pytest.mark.parametrize("source, found", [
    ("from .dp import _branches\n", {"_branches"}),
    ("from . import dp\ndp._branches(1)\n", {"_branches"}),
    ("from .dp import _branches as branches\n", {"_branches"}),
    ("import numpy as _np\n_np.zeros(1)\n", {"_np"}),
    ("def _f(_a):\n    return _a\n_f(1)\n", set()),
    ("class A:\n    def __init__(self):\n        self._x = 1\n"
     "    def get(self):\n        return self._x, self.__class__\n", set()),
])
def test_private_names_are_those_used_and_not_defined(source, found):
    assert private_names(source) == found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_no_private_name(path):
    # nor uses one as an attribute: a module uses the others through their
    # public names, and code that needs another module's private helper or
    # layout, the market walk's above all, belongs in that module
    assert private_names(path.read_text(encoding="utf-8")) == set()


def test_import_loads_no_numpy_random():
    # numpy loads numpy.random when its attribute is first read; read at
    # import, it took the peak RSS of importing the package from 29.8 to
    # 35.7 MB, so the package reads it only in the functions that draw
    code = ("import sys, growthopt, growthopt.cli; "
            "sys.exit('numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_package_docstring_maps_every_module_once():
    # the map in growthopt/__init__.py is the reader's index of concerns:
    # a module it leaves out, or one it names that is gone, misleads
    doc = ast.get_docstring(ast.parse(
        (SRC / "__init__.py").read_text(encoding="utf-8")))
    named = re.findall(r":mod:`growthopt\.(\w+)`", doc)
    assert sorted(named) == sorted(p.stem for p in SRC.glob("*.py")
                                   if p.stem != "__init__")


def json_encoders(source: str) -> int:
    """Uses of ``json.dumps`` in ``source``: as an attribute of a name
    ``json``, or imported by name from ``json``."""
    return sum(
        (isinstance(node, ast.Attribute) and node.attr == "dumps"
         and isinstance(node.value, ast.Name) and node.value.id == "json")
        or (isinstance(node, ast.ImportFrom) and node.module == "json"
            and any(a.name == "dumps" for a in node.names))
        for node in ast.walk(ast.parse(source)))


@pytest.mark.parametrize("source, found", [
    ("import json\njson.dumps(1)\n", 1),
    ("from json import dumps as d\nd(1)\n", 1),
    ("import json\njson.loads('1')\njson.dump(1, f)\n", 0),
])
def test_json_encoders_are_counted(source, found):
    assert json_encoders(source) == found


def test_only_modelio_encodes_json():
    # modelio.json_text writes every JSON file as strict JSON; a second
    # encoder would decide the format of its files alone
    found = {p.name: n for p in SRC.glob("*.py")
             if (n := json_encoders(p.read_text(encoding="utf-8")))}
    assert found == {"modelio.py": 1}
