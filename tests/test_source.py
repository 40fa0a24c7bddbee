"""Checks on the package source itself."""

from conftest import REPO


def test_no_environment_knobs():
    # answers depend on arguments and input files only, never on a hidden
    # environment variable
    sources = sorted((REPO / "src" / "kappacalc").glob("*.py"))
    assert len(sources) > 5
    knobs = [p.name for p in sources
             if any(k in p.read_text(encoding="utf-8") for k in ("os.environ", "getenv"))]
    assert knobs == []
