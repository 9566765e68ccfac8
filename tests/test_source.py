"""Guards on the package source itself."""

import ast
import io
import os
import pathlib
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


# the one private import allowed: ``average.bellman_residual`` reads the
# sweep branches of the DP's own kernel, after the DP's own check that the
# values fit its tables, so that its slack is the equation the sweeps
# solve, not a second copy of it
ALLOWED_PRIVATE = {("average.py", "dp._branches"),
                   ("average.py", "dp._require_fit")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_no_private_name(path):
    # a module uses the others through their public names; code that needs
    # another module's private helper, the market walk's above all, belongs
    # in that module
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = {(path.name, f"{node.module}.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")
               and not alias.name.endswith("__")}
    assert private <= ALLOWED_PRIVATE


def test_import_loads_no_numpy_random():
    # numpy loads numpy.random when its attribute is first read; read at
    # import, it took the peak RSS of importing the package from 29.8 to
    # 35.7 MB, so the package reads it only in the functions that draw
    code = ("import sys, growthopt, growthopt.cli; "
            "sys.exit('numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
