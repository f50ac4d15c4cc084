"""The package namespace and the README's library quickstart."""

import ast
import doctest
import importlib
import os
import pydoc
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import evifuse

ROOT = Path(__file__).resolve().parents[1]


def test_all_is_every_name_the_import_block_binds():
    # the eager imports, plus the names the lazy table serves
    tree = ast.parse(Path(evifuse.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    (lazy,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "_LAZY"
    )
    served = [name for names in lazy.values() for name in names]
    assert not imported & set(served) and len(set(served)) == len(served)
    assert evifuse.__all__ == sorted(imported | set(served))
    assert len(evifuse.__all__) == 54
    for module, names in lazy.items():
        submodule = importlib.import_module(f"evifuse.{module}")
        for name in names:
            assert getattr(evifuse, name) is getattr(submodule, name)


def _fresh(code: str) -> str:
    """Standard output of code run in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(evifuse.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout


def test_import_loads_only_the_simulation_modules():
    loaded = _fresh(
        "import sys, evifuse; evifuse.simulate(evifuse.default_config(n_samples=30));"
        "print(*sorted(m for m in sys.modules if m.startswith('evifuse')))"
    )
    assert loaded.split() == ["evifuse", "evifuse.frame", "evifuse.simulate"]


def test_simulate_stays_the_function_after_its_submodule_is_imported():
    # experiment imports evifuse.simulate; the package attribute stays the function
    found = _fresh(
        "import sys, evifuse, evifuse.experiment, evifuse.simulate;"
        "print(evifuse.simulate is sys.modules['evifuse.simulate'].simulate,"
        " evifuse.experiment is sys.modules['evifuse.experiment'])"
    )
    assert found.split() == ["True", "True"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'fuse'"):
        evifuse.fuse  # noqa: B018
    assert "run_experiment" in dir(evifuse) and "__version__" in dir(evifuse)


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
