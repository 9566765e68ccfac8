"""Guards on the package source itself."""

import ast
import io
import pathlib
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


def test_simulate_imports_no_private_name():
    # the engine uses other modules through their public names; code that
    # needs another module's private helper belongs in that module
    tree = ast.parse((SRC / "simulate.py").read_text(encoding="utf-8"))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
