"""Run tier-1 under a line tracer and fail when a statement of ``src/bykov`` never runs.

Usage, from the repository root::

    python tools/statement_coverage.py [pytest arguments ...]

The tracer (``sys.settrace``, no coverage package) is installed before
pytest imports ``bykov``, so module-level statements count too.  A
statement has run when any line it spans, decorators included, produced a
line event.  Docstrings compile to no instruction and are skipped, and so
is the ``if __name__ == "__main__":`` block, which the tests run in a
subprocess that is not traced.  Prints each statement that never ran as
``path:line`` and exits 1 if there is one; a failing test run exits with
pytest's own code.

A trace function stops CPython from specialising bytecode, so this run
deselects ``test_run_specialises_during_its_first_call`` and leaves it to the
untraced one.

CI runs this tool with numpy held to its AVX2 kernels
(``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``, numpy >= 2.4)
and the plain suite on the runner's own, so every test it runs meets both
kernel sets of an AVX-512 runner.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "bykov").glob("*.py"))
# asserts that the DP5 loop specialises, which no traced process does
SPECIALISING = "tests/test_flow.py::test_run_specialises_during_its_first_call"


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def _is_main_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def statements(path: Path) -> list[tuple[int, int]]:
    """The (first, last) line of every statement to cover, in source order."""
    spans = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                if _is_main_guard(child):
                    continue
                if not _is_docstring(child):
                    decorators = getattr(child, "decorator_list", [])
                    spans.append((min([child.lineno] + [d.lineno for d in decorators]), child.end_lineno))
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return sorted(spans)


def main(argv: list[str]) -> int:
    files = {str(path): set() for path in SOURCES}
    # co_filename -> the traced lines of that source, or None for any other file
    lines = {}

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines:
            lines[name] = files.get(str(Path(name).resolve()))
        # frames of other files get no local tracer, so they run at almost full speed
        return None if lines[name] is None else local

    sys.settrace(tracer)
    try:
        import pytest

        code = pytest.main([*argv, "--deselect", SPECIALISING])
    finally:
        sys.settrace(None)
    if code != 0:
        return int(code)
    missed = [
        f"{path.relative_to(ROOT)}:{first}"
        for path in SOURCES
        for first, last in statements(path)
        if files[str(path)].isdisjoint(range(first, last + 1))
    ]
    for line in missed:
        print(f"never executed: {line}")
    print(f"statement coverage: {len(missed)} statements of src/bykov never executed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
