"""Print the size of the package and the number of its settings.

Run from anywhere, with no flags:

    python scripts/count_settings.py

It prints the line count of src/lorentzseg/*.py, the number of ``--``
flags of the CLI parser and four counts taken from the syntax trees of
those files: the annotated fields of ``@dataclass`` classes, the
parameters of every ``def`` (self and cls included), the ``@dataclass``
classes and the ``def``s themselves.  The flags are counted from
``lorentzseg.cli.build_parser()``, the top-level parser and each
subcommand's, ``--help`` excluded, so a flag declared from a table
counts like one written out in a literal ``add_argument`` call.  Each
setting is a configuration the tests must cover, so the first three
numbers only fall when a knob nothing sets is deleted; the last two fall
when a config type or a helper goes.
"""

import argparse
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lorentzseg"
sys.path.insert(0, str(SRC.parent))

from lorentzseg.cli import build_parser  # noqa: E402

KEYS = ("dataclass_fields", "function_parameters", "dataclasses", "functions")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def counts(tree: ast.AST) -> dict:
    out = dict.fromkeys(KEYS, 0)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            out["dataclass_fields"] += sum(isinstance(s, ast.AnnAssign) for s in node.body)
            out["dataclasses"] += 1
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out["functions"] += 1
            a = node.args
            out["function_parameters"] += (len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)
                                           + (a.vararg is not None) + (a.kwarg is not None))
    return out


def cli_flags(parser: argparse.ArgumentParser) -> int:
    """The ``--`` options of ``parser`` and of its subcommands, ``--help``
    excluded."""
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(cli_flags(sub) for sub in action.choices.values())
        elif "--help" not in action.option_strings:
            count += any(opt.startswith("--") for opt in action.option_strings)
    return count


def main():
    files = sorted(SRC.glob("*.py"))
    total = {"lines": 0, "cli_flags": cli_flags(build_parser()), **dict.fromkeys(KEYS, 0)}
    for path in files:
        text = path.read_text()
        total["lines"] += text.count("\n")
        for key, value in counts(ast.parse(text, filename=str(path))).items():
            total[key] += value
    print(f"files {len(files)}")
    for key, value in total.items():
        print(f"{key} {value}")


if __name__ == "__main__":
    main()
