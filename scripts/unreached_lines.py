#!/usr/bin/env python3
"""List the lines of src/wadc that no test runs.

Usage: python scripts/unreached_lines.py [-h | --help] [PYTEST_ARG ...]

Runs pytest in this process (by default on tests/, quietly) under a
sys.settrace line tracer that records only code in src/wadc, then prints,
per function, the executable lines that no test ran.  A function's
executable lines are the line starts of its compiled code, the lines of
the comprehensions and lambdas inside it included.  Programs the tests
start in child processes (TestProcessEntry, the perfbench probes) are not
traced, so a line only they run is listed as unreached.  Exits with
pytest's status.
"""

import dis
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wadc"


def own_lines(code):
    """Line numbers of the instructions of ``code`` itself, without the
    line of its ``def`` (which runs when the enclosing code does)."""
    lines = {line for _, line in dis.findlinestarts(code) if line}
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    return lines


def code_objects(code):
    """``code`` and every code object compiled inside it."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from code_objects(const)


def function_name(code):
    """The qualified name of the function a code object reports under:
    comprehensions, generator expressions and lambdas count as part of the
    function that holds them."""
    parts = code.co_qualname.split(".")
    while len(parts) > 1 and parts[-1].startswith("<"):   # <locals> too
        parts.pop()
    return ".".join(parts)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] in (["-h"], ["--help"]):
        print(__doc__.strip())
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    import pytest   # before tracing starts: its import is not ours to trace

    prefix = str(PACKAGE) + "/"
    ran = set()     # (file, qualified name, first line, line)

    def local(frame, event, arg):
        if event == "line":
            code = frame.f_code
            ran.add((code.co_filename, code.co_qualname,
                     code.co_firstlineno, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider",
                                      str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        unreached = {}
        for code in code_objects(module):
            lines = own_lines(code)
            total += len(lines)
            left = {line for line in lines
                    if (str(path), code.co_qualname, code.co_firstlineno,
                        line) not in ran}
            if left:
                unreached.setdefault(function_name(code), set()).update(left)
        if unreached:
            print(path.relative_to(ROOT))
            for name, lines in sorted(unreached.items(),
                                      key=lambda item: min(item[1])):
                missed += len(lines)
                print(f"  {name}: {', '.join(map(str, sorted(lines)))}")
    print(f"{missed} of {total} executable lines in src/wadc not reached; "
          "code run in child processes (TestProcessEntry, the perfbench "
          "probes) is not traced")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
