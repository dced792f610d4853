"""Every name a lab exports is used by the library itself, the CLI or the
benchmark: code that only tests read belongs in ``tests/references.py``,
not in the public API."""

import ast
from pathlib import Path

from stochlab import colorlab, gaplab, ipslab

ROOT = Path(__file__).resolve().parent.parent
LABS = (colorlab, gaplab, ipslab)

# exported but read only by tests and users, each with its reason
UNREFERENCED = {
    # off the report path since gap_report reads the exclusion gaps from its
    # irrep blocks; the benchmark's tracer still looks it up by name and fails
    # without it, so it moves to tests/references.py with the benchmark change
    "exclusion_generator": "wrapped by name by perfbench/tracing.py",
}


LAB_INITS = {Path(lab.__file__).resolve() for lab in LABS}


def _names(path: Path) -> set[str]:
    """Names a module reads or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _referenced_names() -> set[str]:
    """Names read anywhere in src/ or perfbench/, outside the labs' export lists."""
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    return set().union(*(_names(path) for path in paths if path.resolve() not in LAB_INITS))


def test_every_export_is_used_outside_tests():
    referenced = _referenced_names()
    unused = [f"{lab.__name__}.{name}" for lab in LABS for name in lab.__all__
              if name not in referenced and name not in UNREFERENCED]
    assert unused == []


def test_the_exceptions_do_not_grow():
    # a change may lower this number, never raise it: an export that only
    # tests read moves to tests/references.py instead; exclusion_generator's
    # entry waits for perfbench/ to stop wrapping it
    assert len(UNREFERENCED) == 1


def test_the_exceptions_are_exported_and_still_unused():
    exported = {name for lab in LABS for name in lab.__all__}
    assert set(UNREFERENCED) <= exported
    assert not set(UNREFERENCED) & _referenced_names()


def test_src_derives_streams_one_way():
    # ipslab/rng.py alone builds streams; the labs' export lists may re-export
    # its names, but no other module names a generator or a seed sequence
    allowed = LAB_INITS | {ROOT / "src" / "stochlab" / "ipslab" / "rng.py"}
    named = {str(path.relative_to(ROOT)): used
             for path in (ROOT / "src").rglob("*.py") if path.resolve() not in allowed
             if (used := _names(path) & {"trial_generator", "SeedSequence", "Philox"})}
    assert named == {}


def test_src_reads_no_environment_variable():
    # a setting comes from the command line or a --config file, one declared
    # option each, never from the environment as well
    named = {str(path.relative_to(ROOT)): used for path in (ROOT / "src").rglob("*.py")
             if (used := _names(path) & {"environ", "environb", "getenv", "getenvb"})}
    assert named == {}
