"""The package holds only what the pipeline calls and reads.

Every public module-level function or class of ``src/platoonkit``, and every
public method of a public class, must be referenced somewhere in the package
besides its own definition. A method counts as referenced only through an
attribute access (``obj.name``). The benchmark's tracer patches and reads
entry points by name, so the names and string constants of
``perfbench/tracer.py`` count as references too.

Every dataclass field and every property must also be read: its name must
appear in the package as an attribute load (``obj.name``), or as a string
constant (``getattr`` names, ``GENE_NAMES``), or among the tracer's names and
strings. The rule goes by name alone, so a field escapes it whenever any
attribute of that name is read: a ``gaps`` array on ``SimulationRun`` that
nothing read would pass, hidden by every call of ``PlatoonRecord.gaps()``.
Such a field is left to review; this test cannot find it.
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


def _parse(package):
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def _tracer_references(tracer):
    return _references([ast.parse(tracer.read_text(encoding="utf-8"))],
                       strings=True)


def unreferenced(package=PACKAGE, tracer=TRACER):
    """Public definitions under ``package`` that nothing references."""
    trees = _parse(package)
    names, attrs = _references(trees.values())
    tracer_names, tracer_attrs = _tracer_references(tracer)
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


def _decorators(node):
    """Names of the decorators of a class or function, called or not."""
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        yield d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None)


def _fields(tree):
    """Class.name of every dataclass field and property in one module."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        dataclass = "dataclass" in _decorators(node)
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and dataclass:
                yield f"{node.name}.{item.target.id}"
            elif isinstance(item, ast.FunctionDef) \
                    and "property" in _decorators(item):
                yield f"{node.name}.{item.name}"


def _reads(trees):
    """Attribute names loaded in ``trees``, and their string constants."""
    reads = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
    return reads


def unread_fields(package=PACKAGE, tracer=TRACER):
    """Dataclass fields and properties under ``package`` that nothing reads."""
    trees = _parse(package)
    reads = _reads(trees.values()).union(*_tracer_references(tracer))
    return [f"{module}:{qualname}"
            for module, tree in trees.items() for qualname in _fields(tree)
            if qualname.rsplit(".", 1)[-1] not in reads]


def test_every_public_definition_is_referenced():
    assert unreferenced() == []


def test_every_field_and_property_is_read():
    assert unread_fields() == []


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
    (package / "b.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\n"
        "class Result:\n"
        "    shown: int\n"
        "    unread: int\n"
        "    named: int\n\n"
        "    @property\n"
        "    def total(self):\n"
        "        return self.shown + getattr(self, 'named')\n\n"
        "    @property\n"
        "    def spare_view(self):\n        return 0\n\n\n"
        "def report():\n"
        "    return Result(1, 2, 3).total\n")
    tracer = tmp_path / "tracer.py"
    tracer.write_text('WRAPPED = (("a", "traced"), ("b", "report"))\n')
    # ``traced`` is named only by the tracer; ``spare`` is read only as a
    # bare name, which does not count for a method; nothing reads ``run``
    # nor the property ``spare_view``
    assert unreferenced(package, tracer) == [
        "a.py:Law.spare", "a.py:run", "b.py:Result.spare_view"]
    # ``named`` is read only through a string constant, which counts
    assert unread_fields(package, tracer) == [
        "b.py:Result.unread", "b.py:Result.spare_view"]
