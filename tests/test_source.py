"""Checks on the package source itself."""

import ast
import re

from conftest import REPO


def test_no_environment_knobs():
    # answers depend on arguments and input files only, never on a hidden
    # environment variable
    sources = sorted((REPO / "src" / "kappacalc").glob("*.py"))
    assert len(sources) > 5
    knobs = [p.name for p in sources
             if any(k in p.read_text(encoding="utf-8") for k in ("os.environ", "getenv"))]
    assert knobs == []


def test_source_parses_as_the_oldest_supported_python():
    # pyproject.toml declares requires-python >= 3.10; the tests may run on a newer one
    assert 'requires-python = ">=3.10"' in (REPO / "pyproject.toml").read_text(encoding="utf-8")
    for path in sorted((REPO / "src" / "kappacalc").glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), path.name, feature_version=(3, 10))


def test_no_source_imports_dataclasses():
    # the value classes are plain slotted classes; importing dataclasses costs
    # every CLI process about 25 ms
    importers = sorted(
        p.name for p in (REPO / "src" / "kappacalc").glob("*.py")
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    )
    assert importers == []


def test_only_problemfile_spells_infinity():
    # text output prints the --json document, so no other module needs these strings
    spellings = {"inf", "+inf", "-inf"}
    holders = sorted(
        p.name for p in (REPO / "src" / "kappacalc").glob("*.py")
        if any(isinstance(node, ast.Constant) and node.value in spellings
               for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))))
    )
    assert holders == ["problemfile.py"]


def test_public_names_have_a_caller_outside_tests():
    # every public function, class and method is used by the package itself,
    # a demo, the bench or the README, so no code exists for the tests alone
    def uses(owner, node):
        """(owner, names, attributes) loaded anywhere under node."""
        names, attrs = set(), set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
        return owner, names, attrs

    # each src definition is its own chunk, so a name's own body does not count
    defs, chunks = [], []
    for path in sorted((REPO / "src" / "kappacalc").glob("*.py")):
        if path.name == "__init__.py":  # its imports and __all__ only re-export
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                chunks.append(uses("", top))
                continue
            defs.append((path.name, top.name, False))
            if isinstance(top, ast.FunctionDef):
                chunks.append(uses(top.name, top))
                continue
            for node in [*top.bases, *top.body]:
                if isinstance(node, ast.FunctionDef):
                    defs.append((path.name, f"{top.name}.{node.name}", True))
                    chunks.append(uses(f"{top.name}.{node.name}", node))
                else:
                    chunks.append(uses(top.name, node))
    for d in ("demos", "perfbench"):  # perfbench/out holds run outputs, not callers
        chunks += [uses("", ast.parse(p.read_text(encoding="utf-8")))
                   for p in sorted((REPO / d).rglob("*.py"))
                   if p.relative_to(REPO).parts[:2] != ("perfbench", "out")]
    readme = (REPO / "README.md").read_text(encoding="utf-8")

    unused = []
    for module, qualname, is_method in defs:
        name = qualname.rpartition(".")[2]
        if name.startswith("_"):
            continue
        outside = [(names, attrs) for owner, names, attrs in chunks
                   if owner != qualname and not owner.startswith(f"{qualname}.")]
        # a method counts only where it is reached as .name
        ok = any(name in attrs or not is_method and name in names for names, attrs in outside)
        if not ok and not re.search((r"\." if is_method else r"\b") + name + r"\b", readme):
            unused.append(f"{module}:{qualname}")
    assert unused == []
