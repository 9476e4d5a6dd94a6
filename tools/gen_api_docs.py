#!/usr/bin/env python
"""Generate docs/api.md from the package's docstrings.

Walks every module under ``repro``, extracts the module docstring's first
paragraph and the public classes/functions with their signatures and
summary lines, and writes a markdown API index.  Run from the repo root:

    python tools/gen_api_docs.py          # rewrite docs/api.md
    python tools/gen_api_docs.py --check  # exit 1 with a diff if stale
"""

from __future__ import annotations

import difflib
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import repro

EXCLUDED = {"repro.__main__"}


def first_paragraph(doc):
    if not doc:
        return ""
    paragraph = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def summary_line(doc):
    if not doc:
        return ""
    return doc.strip().splitlines()[0]


def iter_modules():
    prefix = repro.__name__ + "."
    yield repro.__name__
    for info in pkgutil.walk_packages(repro.__path__, prefix):
        if info.name not in EXCLUDED:
            yield info.name


def public_members(module):
    classes, functions = [], []
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-exports are documented at their home
        if inspect.isclass(member):
            classes.append((name, member))
        elif inspect.isfunction(member):
            functions.append((name, member))
    return sorted(classes), sorted(functions)


def signature_of(obj):
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def class_methods(cls):
    methods = []
    for name, member in vars(cls).items():
        if isinstance(member, staticmethod):
            # Listed by what it wraps (``Cpu.store`` is the op class).
            member = member.__func__
        elif not inspect.isfunction(member):
            continue
        if not name.startswith("_"):
            methods.append((name, member))
    return sorted(methods)


def generate():
    lines = [
        "# API index",
        "",
        "Generated from docstrings by `tools/gen_api_docs.py`; regenerate",
        "after changing public signatures.",
        "",
    ]
    for module_name in iter_modules():
        module = importlib.import_module(module_name)
        classes, functions = public_members(module)
        if not classes and not functions and module_name != "repro":
            # Pure re-export packages still deserve their summary.
            if not module.__doc__:
                continue
        lines.append(f"## `{module_name}`")
        lines.append("")
        paragraph = first_paragraph(module.__doc__)
        if paragraph:
            lines.append(paragraph)
            lines.append("")
        for name, cls in classes:
            lines.append(f"### class `{name}{signature_of(cls)}`")
            lines.append("")
            summary = summary_line(cls.__doc__)
            if summary:
                lines.append(summary)
                lines.append("")
            for method_name, method in class_methods(cls):
                summary = summary_line(method.__doc__)
                suffix = f" — {summary}" if summary else ""
                lines.append(
                    f"- `{method_name}{signature_of(method)}`{suffix}")
            if class_methods(cls):
                lines.append("")
        for name, fn in functions:
            summary = summary_line(fn.__doc__)
            suffix = f" — {summary}" if summary else ""
            lines.append(f"- `{name}{signature_of(fn)}`{suffix}")
        if functions:
            lines.append("")
    return "\n".join(lines) + "\n"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--check"]):
        print("usage: gen_api_docs.py [--check]", file=sys.stderr)
        return 2
    output = Path(__file__).resolve().parent.parent / "docs" / "api.md"
    text = generate()
    if argv:
        current = output.read_text() if output.exists() else ""
        if current == text:
            return 0
        sys.stdout.writelines(difflib.unified_diff(
            current.splitlines(keepends=True),
            text.splitlines(keepends=True),
            "docs/api.md", "docs/api.md (generated)"))
        print("docs/api.md is stale: run python tools/gen_api_docs.py",
              file=sys.stderr)
        return 1
    output.write_text(text)
    print(f"wrote {output} ({output.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
