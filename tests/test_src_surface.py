"""src/ holds what a command runs, plus a named list of oracles.

Every public top-level function or class of src/lorentzseg is used
somewhere in src/, or is listed in ``ORACLES``.  A use is a name read as
an ``ast.Name``, or an ``ast.Attribute`` read off a name that the module
bound to a package module (``from . import grad as gr`` makes
``gr.grad_dot`` a use).  An attribute of any other object, an assignment
of the same spelling, a docstring and a re-export of the package's
``__init__`` are not uses.  Code that only tests read lives in
tests/, beside its readers: the retrieval and boundary statistics sit next
to ``STATISTICS`` in tests/reference_runs.py.  An oracle is listed only
while nothing else in src/ names it, so the list cannot grow stale.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lorentzseg"

ORACLES = (
    # the scalar closed forms and brute-force references that the array
    # layer and the acceptance suite are checked against
    "entailment.combined_pixel_loss",
    "grad.euclidean_exterior_angle",
    "grad.finite_difference_gradient",
    "grad.grad_cosine_similarity",
    "grad.grad_dot",
    "grad.grad_exterior_angle_anchor",
    "hyperbolicity.delta_bruteforce",
    # the unbatched delta_rel that the batched estimate is checked against
    "hyperbolicity.delta_rel",
    "lorentz.exp_map",
    "lorentz.log_map",
    # the membership test that acceptance criterion 1 probes raw vectors with
    "lorentz.manifold_check",
    "lorentz.tangent_project",
    "maskhead.dice_loss",
    "maskhead.focal_loss",
    "models.hyperbolic_mean",
    "models.klein_to_poincare",
    "models.lorentz_to_poincare",
    "models.poincare_distance_reference",
    "models.poincare_to_klein",
    "models.poincare_to_lorentz",
    # the four dense all-pairs cross kernels, which the benchmark names
    "grad.grad_distance_cross",
    "grad.grad_distance_cross_anchor",
    "grad.grad_ext_cross_anchor",
    "grad.grad_ext_cross_point",
    # the loaded mask head's two logit functions
    "maskhead.class_query_logits",
    "maskhead.mask_query_logits",
    # the embedding CSV writer of the scripts, and the PGM reader that the
    # reader fuzzing checks
    "fileio.write_embedding_csv",
    "fileio.read_pgm",
)


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _public(trees):
    """``module.name`` of every public top-level function and class."""
    return {f"{stem}.{node.name}" for stem, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _module_aliases(tree, stems):
    """The names a module binds to package modules with ``from . import``."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names if alias.name in stems}


def _named(trees):
    """Every identifier that src/ uses, outside the package's ``__init__``:
    a Name it reads, or an Attribute it reads off a package module."""
    names = set()
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        modules = _module_aliases(tree, trees)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                names.add(node.attr)
    return names


def test_every_public_definition_is_run_or_an_oracle():
    trees = _trees()
    named = _named(trees)
    unused = sorted(q for q in _public(trees) - set(ORACLES) if q.split(".")[1] not in named)
    assert not unused, f"public in src/ but used by no code there and not an oracle: {unused}"


def test_every_oracle_exists_and_is_named_nowhere_else():
    trees = _trees()
    assert len(set(ORACLES)) == len(ORACLES)
    assert not set(ORACLES) - _public(trees), "an oracle that src/ does not define"
    named = _named(trees)
    run = sorted(q for q in ORACLES if q.split(".")[1] in named)
    assert not run, f"oracles that src/ uses, which are no longer test-only: {run}"
