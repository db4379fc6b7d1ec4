"""Print the size of the package and the number of its settings.

Run from anywhere, with no flags:

    python scripts/count_settings.py

It prints the line count of src/lorentzseg/*.py and three counts taken
from the syntax trees of those files: the ``add_argument`` calls that
register a ``--`` flag, the annotated fields of ``@dataclass`` classes,
and the parameters of every ``def`` (self and cls included).  Each
setting is a configuration the tests must cover, so these numbers only
fall when a knob nothing sets is deleted.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lorentzseg"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def counts(tree: ast.AST) -> dict:
    out = {"cli_flags": 0, "dataclass_fields": 0, "function_parameters": 0}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
                and any(isinstance(a, ast.Constant) and isinstance(a.value, str)
                        and a.value.startswith("--") for a in node.args)):
            out["cli_flags"] += 1
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            out["dataclass_fields"] += sum(isinstance(s, ast.AnnAssign) for s in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            out["function_parameters"] += (len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs)
                                           + (a.vararg is not None) + (a.kwarg is not None))
    return out


def main():
    files = sorted(SRC.glob("*.py"))
    total = {"lines": 0, "cli_flags": 0, "dataclass_fields": 0, "function_parameters": 0}
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
