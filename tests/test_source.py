"""Checks on the package source itself."""

import ast

from conftest import REPO


def test_no_environment_knobs():
    # answers depend on arguments and input files only, never on a hidden
    # environment variable
    sources = sorted((REPO / "src" / "kappacalc").glob("*.py"))
    assert len(sources) > 5
    knobs = [p.name for p in sources
             if any(k in p.read_text(encoding="utf-8") for k in ("os.environ", "getenv"))]
    assert knobs == []


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
