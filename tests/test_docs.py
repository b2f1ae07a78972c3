import ast
import io
import pathlib
import re
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "strahler"
# A code name at the start of a cited span: `comb.catalan`, `float_weight_row(n)`.
NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _source_names() -> set:
    """Every identifier of the package's code, and every string literal in
    it that is a valid identifier (a subcommand, a check's name)."""
    names = set()
    for path in SOURCE.glob("*.py"):
        for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if token.type == tokenize.NAME:
                names.add(token.string)
            elif token.type == tokenize.STRING:
                try:
                    value = ast.literal_eval(token.string)
                except ValueError:  # an f-string
                    continue
                if isinstance(value, str) and value.isidentifier():
                    names.add(value)
    return names


def _cited_texts():
    """(where, text, pattern of a cited span): the README with single
    backticks, and every docstring of the package with double ones."""
    yield "README.md", (ROOT / "README.md").read_text(), r"(?<!`)`([^`\n]+)`(?!`)"
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    where = f"{path.name}:{getattr(node, 'name', '<module>')}"
                    yield where, doc, r"``([^`]+)``"


def test_cited_code_names_exist():
    # A name the docs cite in backticks, dotted or with an underscore, names
    # code that exists: each of its dotted parts occurs in the package.
    names = _source_names()
    stale, texts = [], 0
    for where, text, pattern in _cited_texts():
        texts += 1
        for span in re.findall(pattern, text):
            match = NAME.match(span)
            if not match or not ("." in match[0] or "_" in match[0]):
                continue
            if match[0].startswith("scipy."):
                continue
            if any(part not in names for part in match[0].split(".")):
                stale.append((where, match[0]))
    assert texts > 100
    assert stale == []


def test_cited_tests_exist():
    # A test that the README or the ROADMAP cites as tests/<file>.py::<name>
    # names a file that exists and a function defined in it.
    stale, cited = [], 0
    for doc in ("README.md", "ROADMAP.md"):
        for path, name in re.findall(r"\b(tests/\w+\.py)::(\w+)", (ROOT / doc).read_text()):
            cited += 1
            file = ROOT / path
            defined = file.is_file() and any(
                isinstance(node, ast.FunctionDef) and node.name == name
                for node in ast.walk(ast.parse(file.read_text()))
            )
            if not defined:
                stale.append((doc, path, name))
    assert cited
    assert stale == []
