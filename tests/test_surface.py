"""The package holds only what the pipeline calls.

Every public module-level function or class of ``src/platoonkit``, and every
public method of a public class, must be referenced somewhere in the package
besides its own definition. A method counts as referenced only through an
attribute access (``obj.name``). The benchmark's tracer patches and reads
entry points by name, so the names and string constants of
``perfbench/tracer.py`` count as references too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "platoonkit"
TRACER = ROOT / "perfbench" / "tracer.py"


def _public(name):
    return not name.startswith("_")


def _definitions(tree):
    """(name, is_method) of every public definition in one module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        yield f"{node.name}.{item.name}", True


def _references(trees, strings=False):
    """Names read and attributes accessed in ``trees``; with ``strings``,
    string constants count as both."""
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif strings and isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                names.add(node.value)
                attrs.add(node.value)
    return names, attrs


def unreferenced(package=PACKAGE, tracer=TRACER):
    """Public definitions under ``package`` that nothing references."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    names, attrs = _references(trees.values())
    tracer_names, tracer_attrs = _references(
        [ast.parse(tracer.read_text(encoding="utf-8"))], strings=True)
    names |= tracer_names
    attrs |= tracer_attrs
    missing = []
    for module, tree in trees.items():
        for qualname, is_method in _definitions(tree):
            leaf = qualname.rsplit(".", 1)[-1]
            used = leaf in attrs if is_method else leaf in names | attrs
            if not used:
                missing.append(f"{module}:{qualname}")
    return missing


def test_every_public_definition_is_referenced():
    assert unreferenced() == []


def test_scan_sees_an_unused_function_and_method(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def traced():\n    return used()\n\n\n"
        "def orphan():\n    return spare\n\n\n"
        "class Law:\n"
        "    def step(self):\n        return 0\n\n"
        "    def spare(self):\n        return self.step()\n\n\n"
        "def run():\n    return Law, orphan\n")
    tracer = tmp_path / "tracer.py"
    tracer.write_text('WRAPPED = (("a", "traced"),)\n')
    # ``traced`` is named only by the tracer; ``spare`` is read only as a
    # bare name, which does not count for a method; nothing reads ``run``
    assert unreferenced(package, tracer) == ["a.py:Law.spare", "a.py:run"]
