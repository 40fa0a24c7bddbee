"""Checks on the package source itself."""

import ast
import contextlib
import importlib.util
import io
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import kappacalc
from kappacalc import cli

from conftest import PROBLEMS, REPO
from test_cli_golden import CASES, replay


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


def importers(module: str) -> list[str]:
    """The package sources that import `module` directly."""
    return sorted(
        p.name for p in (REPO / "src" / "kappacalc").glob("*.py")
        if any(isinstance(node, ast.Import) and any(a.name == module for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == module
               for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))))
    )


def test_only_problemfile_dumps_writes_json():
    # every document is written by problemfile.dumps, which writes json.dumps's
    # bytes itself, so no module calls json.dump or json.dumps
    def writes_json(node):
        return (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                and isinstance(node.value, ast.Name) and node.value.id == "json"
                or isinstance(node, ast.ImportFrom) and node.module == "json"
                and any(a.name in ("dump", "dumps") for a in node.names))

    writers = sorted(p.name for p in (REPO / "src" / "kappacalc").glob("*.py")
                     if any(map(writes_json, ast.walk(ast.parse(p.read_text(encoding="utf-8"))))))
    assert writers == []


def test_one_min_plus_fold():
    # lottery._compose is the one for loop over enumerate(<node>.deltas), and
    # the parser hands its proved branches to it rather than reading leaf slots;
    # Node._from_checked is the one store, so only it calls the slot setters
    def folds(func):
        return any(isinstance(loop, ast.For) and isinstance(loop.iter, ast.Call)
                   and isinstance(loop.iter.func, ast.Name) and loop.iter.func.id == "enumerate"
                   and any(isinstance(a, ast.Attribute) and a.attr == "deltas"
                           for a in loop.iter.args)
                   for loop in ast.walk(func))

    def stores(func):
        return any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                   and call.func.id in ("_set_deltas", "_set_branches", "_set_prizes")
                   for call in ast.walk(func))

    folders, slot_readers, storers, defined = set(), set(), set(), set()
    for path in sorted((REPO / "src" / "kappacalc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        folders |= {f"{path.stem}.{node.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and folds(node)}
        if any(isinstance(node, ast.Attribute) and node.attr == "slot" for node in ast.walk(tree)):
            slot_readers.add(path.name)
        for top in tree.body:
            owner = f"{top.name}." if isinstance(top, ast.ClassDef) else ""
            for func in top.body if owner else [top]:
                if isinstance(func, ast.FunctionDef):
                    defined.add(f"{path.stem}.{owner}{func.name}")
                    if stores(func):
                        storers.add(f"{path.stem}.{owner}{func.name}")
    assert folders == {"lottery._compose"}
    assert "problemfile.py" not in slot_readers
    assert storers == {"lottery.Node._from_checked"}
    assert "lottery.Node._store" not in defined and "lottery.Node.__new__" in defined


def test_one_real_reader():
    # problemfile reads every real of a document, the bridge base included,
    # through _real_list, so only it converts to float (a read of
    # float.__repr__ is no call on the name float)
    tree = ast.parse((REPO / "src" / "kappacalc" / "problemfile.py").read_text(encoding="utf-8"))
    callers = {getattr(top, "name", "<module>") for top in tree.body
               if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                      and n.func.id == "float" for n in ast.walk(top))}
    assert callers == {"_real_list"}


def test_decode_stays_apart_from_build():
    # parse_problem and validate_problem decode, and _build_problem builds from
    # the decoded document, so the two layers can be timed apart (ROADMAP D1)
    def names_load_json(func):
        return any(isinstance(n, ast.Name) and n.id == "_load_json"
                   or isinstance(n, ast.Attribute) and n.attr == "_load_json"
                   for n in ast.walk(func))

    callers = set()
    for path in sorted((REPO / "src" / "kappacalc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers |= {f"{path.stem}.{node.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and names_load_json(node)}
    assert callers == {"problemfile.parse_problem", "problemfile.validate_problem"}


def test_no_source_imports_dataclasses():
    # the value classes are plain slotted classes; importing dataclasses costs
    # every CLI process about 25 ms
    assert importers("dataclasses") == []


def test_oracles_import_only_public_names():
    # the oracles are checked against the library, so they build what they
    # compare from public names alone, never from the code under test
    imports = []
    for node in ast.walk(ast.parse((REPO / "tests" / "oracles.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imports += [a.name for a in node.names if a.name.split(".")[0] == "kappacalc"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kappacalc":
            imports += [f"{node.module}.{a.name}" for a in node.names]
    assert imports, "oracles.py imports nothing from kappacalc"
    private = [name for name in imports
               if name.rpartition(".")[0] != "kappacalc"
               or name.rpartition(".")[2] not in kappacalc.__all__]
    assert private == []


def test_only_the_cli_touches_the_garbage_collector():
    # main() pauses the collector for one command; a library call leaves the
    # process's collector as it found it
    assert importers("gc") == ["cli.py"]


def test_only_the_process_entry_freezes_the_collector():
    # cli._run freezes what is alive before the process exits; main(), which
    # in-process callers use, and every library call never freeze
    def freezes(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "freeze"
                   and isinstance(n.value, ast.Name) and n.value.id == "gc"
                   or isinstance(n, ast.ImportFrom) and n.module == "gc"
                   for n in ast.walk(node))

    freezers = {f"{path.stem}.{getattr(top, 'name', '<module>')}"
                for path in sorted((REPO / "src" / "kappacalc").glob("*.py"))
                for top in ast.parse(path.read_text(encoding="utf-8")).body if freezes(top)}
    assert freezers == {"cli._run"}


def test_only_the_process_entry_reads_sys_argv():
    # main(argv) takes its words from the caller; cli._run hands it sys.argv[1:]
    def reads_argv(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "argv"
                   and isinstance(n.value, ast.Name) and n.value.id == "sys"
                   or isinstance(n, ast.ImportFrom) and n.module == "sys"
                   and any(a.name == "argv" for a in n.names)
                   for n in ast.walk(node))

    readers = {f"{path.stem}.{getattr(top, 'name', '<module>')}"
               for path in sorted((REPO / "src" / "kappacalc").glob("*.py"))
               for top in ast.parse(path.read_text(encoding="utf-8")).body if reads_argv(top)}
    assert readers == {"cli._run"}


def test_only_write_writes_stdout():
    # cli._write hands stdout every byte of the output; main only swaps stdout
    # for a string buffer while argparse writes --help, and cli._warn, the one
    # print, writes the CLI's messages to stderr
    def holders(test) -> set[str]:
        return {f"{path.stem}.{getattr(top, 'name', '<module>')}"
                for path in sorted((REPO / "src" / "kappacalc").glob("*.py"))
                for top in ast.parse(path.read_text(encoding="utf-8")).body
                if any(test(n) for n in ast.walk(top))}

    assert holders(lambda n: isinstance(n, ast.Attribute) and n.attr in (
        "stdout", "__stdout__")) == {"cli._write", "cli.main"}
    assert holders(lambda n: isinstance(n, ast.Name) and n.id == "print") == {"cli._warn"}


def test_both_entries_start_at_the_process_entry():
    # python -m kappacalc and the kappacalc script both run kappacalc.cli._run
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(REPO / "pyproject.toml", "rb") as handle:
        assert tomllib.load(handle)["project"]["scripts"] == {"kappacalc": "kappacalc.cli:_run"}
    main = ast.parse((REPO / "src" / "kappacalc" / "__main__.py").read_text(encoding="utf-8"))
    assert ast.dump(main) == ast.dump(ast.parse("from .cli import _run\n_run()"))


def test_cli_start_loads_no_slow_module():
    # the check above sees a direct import only; this one sees what importing
    # the CLI loads, in an interpreter without site so that no .pth adds any
    slow = ["argparse", "dataclasses", "decimal", "fractions", "inspect", "typing"]
    code = (f"import sys; sys.path.insert(0, {str(REPO / 'src')!r}); import kappacalc.cli; "
            f"print(sorted(set({slow!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_plain_command_loads_no_argparse():
    # argparse is imported for help and usage errors only
    def run(argv):
        code = (f"import sys; sys.path.insert(0, {str(REPO / 'src')!r}); import kappacalc.cli; "
                f"code = kappacalc.cli.main({argv!r}); print('argparse' in sys.modules, code)")
        return subprocess.run([sys.executable, "-I", "-S", "-c", code],
                              capture_output=True, text=True)

    proc = run(["validate", str(PROBLEMS / "earthquake.json")])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\nFalse 0\n", "")
    proc = run(["--help"])
    assert (proc.returncode, proc.stdout.startswith("usage: kappacalc [-h]"), proc.stderr) == (
        0, True, "")


def test_every_name_the_bench_imports_resolves():
    # no tier-1 test runs the bench's --trace 1 limits probe, which imports
    # make_node, so without this check such a name could go unseen
    imported = []
    for p in sorted((REPO / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kappacalc"):
                imported += [(p.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                imported += [(p.name, a.name, None) for a in node.names
                             if a.name.startswith("kappacalc")]
    assert ("run.py", "kappacalc", "make_node") in imported
    missing = []
    for file, module, name in imported:
        owner = importlib.import_module(module)
        if name is not None and not hasattr(owner, name) \
                and importlib.util.find_spec(f"{module}.{name}") is None:
            missing.append(f"{file}: from {module} import {name}")
    assert missing == []


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


def test_public_functions_are_called_outside_tests():
    # the guard above accepts a method wherever its name is read, even on
    # another class; this one runs the demos, every golden CLI case, the README
    # example and the bench tracer, and needs a call of each public function
    # and method.  A code object is known by its file and first line, which
    # is its first decorator's line (co_qualname needs Python 3.11).
    defs = {}
    for path in sorted((REPO / "src" / "kappacalc").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            members = top.body if isinstance(top, ast.ClassDef) else [top]
            for node in members:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                    qualname = node.name if node is top else f"{top.name}.{node.name}"
                    defs[(str(path.resolve()), first)] = f"{path.name}:{qualname}"
    section = (REPO / "README.md").read_text(encoding="utf-8").split("## Library in one minute")[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    spec = importlib.util.spec_from_file_location("tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    called = set()

    def profile(frame, event, _):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for demo in sorted((REPO / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
            exec(example, {})
            for case in CASES:
                replay(case["args"])
            with tracing.instrument(tracing.Tracer()) as tracer:
                cli.main(["rank", str(PROBLEMS / "earthquake_decision.json")])
            tracer.count_parsed()  # the bench reads DecisionProblem.states only here
    finally:
        sys.setprofile(None)
    reached = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in called}
    assert CASES and defs
    assert sorted(name for key, name in defs.items() if key not in reached) == []
