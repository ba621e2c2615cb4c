"""No module under ``src/mvgc`` imports a name it never reads.

A name may go unread only if the module lists it in ``__all__``, or if it is
one of the ``mvgc.trainer`` names that ``perfbench/instrument.py`` wraps in
``LAYER_CALLS``: the benchmark times those through the trainer's namespace.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"
_MODULES = sorted((_SRC / "mvgc").rglob("*.py"))

_SCRIPT = _ROOT / "perfbench" / "instrument.py"
_spec = importlib.util.spec_from_file_location("perfbench_instrument", _SCRIPT)
instrument = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(instrument)

_WRAPPED = {
    "mvgc.trainer": {name for module, name in instrument.LAYER_CALLS
                     if module == "mvgc.trainer"},
}


def _module_name(path):
    parts = path.relative_to(_SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def unused_imports(source):
    """The names ``source`` imports but never reads, outside its ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return imported - read - exported


def test_the_check_names_an_import_left_unread():
    source = "import os\nfrom a import b, c as d\nfrom e import f\n__all__ = ['f']\nd()\n"
    assert unused_imports(source) == {"os", "b"}


@pytest.mark.parametrize("path", _MODULES, ids=_module_name)
def test_every_imported_name_is_read(path):
    name = _module_name(path)
    unused = unused_imports(path.read_text()) - _WRAPPED.get(name, set())
    assert not unused, f"{name} imports but never reads {sorted(unused)}"
