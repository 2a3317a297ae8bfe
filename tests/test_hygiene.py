"""Every name a package module imports is used where it is imported, every
module-level private function is used in its own module, every private
attribute a module stores on `self` is read somewhere in that module and
every public one somewhere in the package, no method but `__init__` stores
on `self`, so that no call leaves state for the next (such as a hidden
cache), and no module imports mpmath,
which is a test dependency only, or any module of the tests, such as the
reference `mpf_reference`.  Only `language.py` reads the factor oracle's
insides: no other module imports a private name of it or reads a private
attribute of `FactorLanguage`, such as its suffix automaton.  A fresh
`import betawords.cli` loads every layer the benchmark's tracer looks up,
and none of `dataclasses`, `csv`, `click`, `argparse` or `gettext`, which
would add to every command's start-up.  Every function and method of the
package, but for dunders and defs nested in another def, is entered by some
command of the golden set (`test_golden_cli.GOLDEN`): what no command runs
belongs in the tests.

A module-level import must be used somewhere in its module; an import inside
a function must be used inside that function.  `__init__.py` re-exports on
purpose and is left out.  Parsed with `ast`, so the check needs no linter.
To print the defs no golden command enters, with their line counts, the
names in the benchmark's tracer that name nothing left in the package
(their metrics read 0), and the line count of each package module and of
all of them, run

    PYTHONPATH=src python tests/test_hygiene.py
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "betawords"
TRACER = PACKAGE.parents[1] / "perfbench" / "tracer.py"
BENCHMARK = PACKAGE.parents[1] / "BENCHMARK.json"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# the tests import each other by module name, so each is a top-level name
TEST_MODULES = {"tests", *(p.stem for p in Path(__file__).parent.glob("*.py"))}


def _own_nodes(scope):
    """The nodes of a module or function, without those of nested functions."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, FUNCTIONS):
            yield from _own_nodes(child)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    unused = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        imported = {}
        for node in _own_nodes(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        unused += [(line, name) for name, line in imported.items()
                   if name not in used]
    return [f"{name} (line {line})" for line, name in sorted(unused)]


def unused_private_functions(source: str) -> list[str]:
    tree = ast.parse(source)
    defined = {node.name: node.lineno for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(defined.items())
            if name not in used]


def dead_attributes(sources: dict[str, str], private: bool) -> list[str]:
    """The private (or else public) attributes, dunders left out, that a
    module of `sources` (name to source) stores on `self` and that no module
    of them reads, on any object."""
    stored, loaded = {}, set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_") == private
                    and not node.attr.startswith("__")):
                continue
            if isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                stored.setdefault(node.attr, (name, node.lineno))
    return [f"{name}: {attr} (line {line})" for (name, line), attr in
            sorted((where, attr) for attr, where in stored.items()
                   if attr not in loaded)]


def stores_on_self(source: str) -> list[str]:
    """The stores and deletes, in any method of a class but `__init__`, on an
    attribute of `self` or on an item or attribute of one.  A write through
    a call, such as `object.__setattr__(self, ...)`, is not one."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if not isinstance(method, FUNCTIONS) or method.name == "__init__":
                continue
            for node in ast.walk(method):
                if not isinstance(node, (ast.Attribute, ast.Subscript)) \
                        or isinstance(node.ctx, ast.Load):
                    continue
                root = node
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                if isinstance(root, ast.Name) and root.id == "self":
                    found.append((node.lineno, f"{cls.name}.{method.name}"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def mpmath_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] == "mpmath"]
    return found


def imports_of_tests(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # `from . import x` names its modules in the aliases
            names = [node.module] if node.module else [a.name for a in node.names]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] in TEST_MODULES]
    return found


def oracle_private_names() -> set[str]:
    """The private methods of `FactorLanguage` and the private attributes it
    stores on `self`, dunders left out."""
    tree = ast.parse((PACKAGE / "language.py").read_text())
    [oracle] = [node for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == "FactorLanguage"]
    names = set()
    for node in ast.walk(oracle):
        if isinstance(node, FUNCTIONS):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            names.add(node.attr)
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def oracle_private_reads(source: str, private: set[str]) -> list[str]:
    """The private names a module imports from `language`, and its reads
    of the attributes in `private`, on any object."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[-1] == "language":
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr in private:
            found.append(f".{node.attr} (line {node.lineno})")
    return found


def test_sources_found():
    assert len(SOURCES) >= 6


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_private_functions(path):
    assert unused_private_functions(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_private_attributes(path):
    assert dead_attributes({path.name: path.read_text()}, private=True) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_method_but_init_stores_on_self(path):
    assert stores_on_self(path.read_text()) == []


def test_check_catches_a_store_on_self_outside_init():
    # __init__ and a write through object.__setattr__ pass; a store on
    # another object is not one on self
    source = ("class A:\n    def __init__(self):\n        self._phi = {}\n\n"
              "    def f(self, n, other):\n"
              "        object.__setattr__(self, 'n', n)\n"
              "        self._cache = other.x = self._phi[n]\n"
              "        self._phi[n] += 1\n        del self.n\n"
              "        self._phi.copy().clear()\n        return n\n")
    assert stores_on_self(source) == ["A.f (line 7)", "A.f (line 8)",
                                      "A.f (line 9)"]


def test_no_dead_public_attributes():
    # other modules read these, so the whole package is one scope
    assert dead_attributes({path.name: path.read_text()
                            for path in PACKAGE.glob("*.py")},
                           private=False) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_mpmath_imports(path):
    assert mpmath_imports(path.read_text()) == []


def test_check_catches_an_mpmath_import():
    source = ("import json, mpmath.libmp\nfrom . import mpmath_free\n\n\n"
              "def f(x):\n    from mpmath import mpf\n    return mpf(x)\n")
    assert mpmath_imports(source) == ["mpmath.libmp (line 1)",
                                      "mpmath (line 6)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_imports_of_the_tests(path):
    assert imports_of_tests(path.read_text()) == []


def test_check_catches_an_import_of_the_tests():
    source = ("import json, tests.mpf_reference\nfrom .language import lang\n"
              "from mpf_reference import beta_of\n\n\ndef f():\n"
              "    from . import test_cli\n    return test_cli, beta_of(3)\n")
    assert "mpf_reference" in TEST_MODULES
    assert imports_of_tests(source) == ["tests.mpf_reference (line 1)",
                                        "mpf_reference (line 3)",
                                        "test_cli (line 7)"]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "language.py"],
                         ids=lambda p: p.name)
def test_only_the_language_module_reads_the_oracle_insides(path):
    assert oracle_private_reads(path.read_text(), oracle_private_names()) == []


def test_check_catches_a_read_of_the_oracle_insides():
    assert {"_automaton", "_eertree", "_windows", "_runs", "_letters"
            } <= oracle_private_names()
    source = ("from .language import _SEPARATOR, FactorLanguage, _length\n"
              "from .substitution import _next_images\n\n\n"
              "def f(lang: FactorLanguage, n):\n"
              "    text = lang._automaton(_length(n))[0]\n"
              "    return text.split(_SEPARATOR), lang.two_factors, n._private\n")
    assert oracle_private_reads(source, oracle_private_names()) == [
        "_SEPARATOR (line 1)", "_length (line 1)", "._automaton (line 6)"]


def test_check_catches_an_unused_private_function():
    source = ("def _used():\n    return 1\n\n\ndef _dead():\n    return 2\n\n\n"
              "def public():\n    return _used()\n")
    assert unused_private_functions(source) == ["_dead (line 5)"]


def test_check_catches_a_private_attribute_never_read():
    # _cache is stored twice and read nowhere; _phi is read by a method
    source = ("class A:\n    def __init__(self):\n        self._phi = {}\n"
              "        self._cache = None\n\n    def f(self, n):\n"
              "        self._cache = self._phi[n]\n        return n\n")
    assert dead_attributes({"a.py": source}, private=True) == \
        ["a.py: _cache (line 4)"]


def test_check_catches_a_public_attribute_never_read():
    # b.py reads A.used and stores its own A.dead; A.kept is read on self
    sources = {
        "a.py": ("class A:\n    def __init__(self):\n        self.used = 1\n"
                 "        self.kept, self.dead = 2, 3\n        self._own = 4\n\n"
                 "    def f(self):\n        return self.kept\n"),
        "b.py": "def g(a):\n    a.dead = a.used\n    return a\n",
    }
    assert dead_attributes(sources, private=False) == ["a.py: dead (line 4)"]


def test_check_catches_an_unused_import():
    assert unused_imports("import json\nimport re\nre.compile('x')\n") == [
        "json (line 1)"
    ]


def test_check_holds_each_function_to_its_own_imports():
    # g names mp and workdps, but f imported them and never uses them
    source = ("def f(x):\n    from mpmath import mp, mpf, workdps\n"
              "    return mpf(x)\n\n\ndef g():\n    return mp, workdps\n")
    assert unused_imports(source) == ["mp (line 2)", "workdps (line 2)"]


def test_check_counts_a_module_import_used_in_a_function():
    assert unused_imports("import re\n\n\ndef f():\n    return re\n") == []


def traced_layers() -> tuple[str, ...]:
    """`LAYERS` of the benchmark's tracer: the modules it looks up in
    sys.modules by name once it has imported `betawords.cli`."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS in {TRACER}")


def child_env(*paths: Path) -> dict:
    """The environment of a child that imports the package these tests
    import, installed or not, and the modules in `paths`."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(PACKAGE.parent), *map(str, paths), os.environ.get("PYTHONPATH")]))}


def test_cli_import_loads_the_layers_and_neither_dataclasses_nor_csv():
    # a fresh child, as the test process has imported far more
    child = subprocess.run(
        [sys.executable, "-c", "import sys, betawords.cli; print(*sys.modules)"],
        capture_output=True, text=True, env=child_env())
    assert child.returncode == 0, child.stderr
    loaded = set(child.stdout.split())
    layers = traced_layers()
    assert len(layers) == 6
    assert {f"betawords.{layer}" for layer in layers} <= loaded
    assert loaded & {"dataclasses", "csv", "_csv"} == set()


def test_cli_import_loads_no_click():
    # the CLI reads its argv in one pass of its own; click cost every command
    # ~20 ms to start, and argparse with the gettext it loads ~2 ms more
    child = subprocess.run(
        [sys.executable, "-c", "import sys, betawords.cli; print(*sys.modules)"],
        capture_output=True, text=True, env=child_env())
    assert child.returncode == 0, child.stderr
    loaded = {m.split(".")[0] for m in child.stdout.split()}
    assert loaded & {"click", "argparse", "gettext"} == set()


# In a fresh child, so that every def the package runs at import is seen
# too: the profile is set before test_golden_cli imports betawords.cli.
ENTERED = """
import json, sys
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
import test_golden_cli
for argv, *_ in test_golden_cli.GOLDEN:
    test_golden_cli.outcome(argv)
sys.setprofile(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno) for c in entered})))
"""


def entered_lines() -> dict[Path, set[int]]:
    """Per package file, the first lines of the code entered while the
    golden set runs in a fresh child."""
    child = subprocess.run([sys.executable, "-c", ENTERED], capture_output=True,
                           text=True, env=child_env(Path(__file__).resolve().parent))
    assert child.returncode == 0, child.stderr
    lines = {}
    for filename, line in json.loads(child.stdout):
        lines.setdefault(Path(filename).resolve(), set()).add(line)
    return lines


def unentered_defs(source: str, entered: set[int]) -> list[tuple[str, int, int]]:
    """(name, first line, lines) of each function and method whose first
    line, that of its first decorator if any, is not in `entered`; dunders
    and defs nested in another def are left out."""
    found = []

    def visit(scope, prefix):
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, FUNCTIONS):
                first = min([d.lineno for d in node.decorator_list],
                            default=node.lineno)
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and first not in entered:
                    found.append((prefix + node.name, first,
                                  node.end_lineno - first + 1))
            elif isinstance(node, ast.ClassDef):
                visit(node, f"{prefix}{node.name}.")
            else:
                visit(node, prefix)

    visit(ast.parse(source), "")
    return found


def unentered_package_defs() -> dict[str, list[tuple[str, int, int]]]:
    lines = entered_lines()
    return {path.name: unentered
            for path in sorted(PACKAGE.glob("*.py"))
            if (unentered := unentered_defs(path.read_text(),
                                            lines.get(path.resolve(), set())))}


def test_every_def_is_entered_by_a_golden_command():
    assert unentered_package_defs() == {}


def test_check_names_each_def_never_entered():
    source = ("class A:\n    def __init__(self):\n        pass\n\n"
              "    @property\n    def used(self):\n        def inner():\n"
              "            pass\n        return 1\n\n    def dead(self):\n"
              "        return 2\n\n\nif True:\n    def dead_too():\n"
              "        return 3\n")
    assert unentered_defs(source, entered={5}) == [("A.dead", 11, 2),
                                                   ("dead_too", 16, 2)]


def tracer_names_gone(source: str, metrics: set[str]) -> list[str]:
    """The `<layer>.<name>` strings of a tracer source that name no function,
    class or method of the package.  The `metrics`, and the counters the
    source keys by subscript, are names of figures, not of code, and are
    left out."""
    tree = ast.parse(source)
    layers = traced_layers()
    figures = metrics | {node.slice.value for node in ast.walk(tree)
                         if isinstance(node, ast.Subscript)
                         and isinstance(node.slice, ast.Constant)}
    gone = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
            continue
        layer, _, path = node.value.partition(".")
        if layer in layers and path and node.value not in figures:
            found = importlib.import_module(f"betawords.{layer}")
            for attr in path.split("."):
                found = getattr(found, attr, None)
            if found is None:
                gone.add(node.value)
    return sorted(gone)


def test_check_names_each_tracer_name_gone_from_the_package():
    source = ('HOOKS = {"substitution.fixed_point_prefix": f,\n'
              '         "substitution.Substitution.gone": g}\n'
              'METRICS = {"substitution.gone_calls": "complexity.gone"}\n'
              'def f(counters):\n    counters["language.misses"] += 1\n')
    assert tracer_names_gone(source, {"substitution.gone_calls"}) == [
        "complexity.gone", "substitution.Substitution.gone"]


if __name__ == "__main__":
    found = [(name, *entry) for name, unentered in unentered_package_defs().items()
             for entry in unentered]
    for module, name, first, lines in found:
        print(f"{module}:{first} {name}: {lines} lines")
    print(f"{len(found)} defs, {sum(entry[-1] for entry in found)} lines "
          "that no golden command enters")
    metrics = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    gone = tracer_names_gone(TRACER.read_text(), metrics)
    for name in gone:
        print(f"{TRACER.name}: {name}")
    print(f"{len(gone)} names in {TRACER.name} that name nothing in the package")
    sizes = {path.name: len(path.read_text().splitlines())
             for path in sorted(PACKAGE.glob("*.py"))}
    for name, lines in sizes.items():
        print(f"{name}: {lines} lines")
    print(f"{sum(sizes.values())} lines in {PACKAGE.relative_to(PACKAGE.parents[1])}")
