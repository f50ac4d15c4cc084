"""The package namespace and the README's library quickstart."""

import ast
import doctest
import pydoc
import re
from pathlib import Path
from types import ModuleType

import evifuse

ROOT = Path(__file__).resolve().parents[1]


def test_all_is_every_name_the_import_block_binds():
    tree = ast.parse(Path(evifuse.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert evifuse.__all__ == sorted(imported)
    assert len(evifuse.__all__) == 54


def test_help_documents_every_public_name():
    text = pydoc.render_doc(evifuse, renderer=pydoc.plaintext)
    for name in evifuse.__all__:
        value = getattr(evifuse, name)
        if isinstance(value, type):
            assert re.search(rf"^    class {name}\b", text, re.M), name
        elif callable(value):
            assert re.search(rf"^    {name}\(", text, re.M), name
        else:
            assert re.search(rf"^    {name} = ", text, re.M), name


def test_star_import_binds_all_and_no_submodule():
    namespace = {}
    exec("from evifuse import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(evifuse.__all__)
    assert not any(isinstance(v, ModuleType) for v in namespace.values())


def test_readme_quickstart_runs_and_prints_what_it_documents():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(block[1], namespace)
    # An expression line's comment is its value's repr, "..." matching any text.
    checker, checked = doctest.OutputChecker(), 0
    for line in block[1].splitlines():
        code, _, comment = line.partition("#")
        try:
            value = eval(code, namespace)
        except SyntaxError:  # an assignment
            continue
        assert checker.check_output(
            comment.strip(), repr(value), doctest.ELLIPSIS
        ), f"{code.strip()} gives {value!r}, the README says {comment.strip()}"
        checked += 1
    assert checked == 3
    pi = re.search(r"pi = (\[.*\])", block[1])[1]
    assert namespace["d"].pi.tolist() == ast.literal_eval(pi)
