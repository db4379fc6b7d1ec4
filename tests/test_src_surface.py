"""src/ holds what a command runs, plus a named list of oracles.

Every public top-level function or class of src/lorentzseg is named
somewhere in src/, as an ``ast.Name`` or an ``ast.Attribute``, or is listed
in ``ORACLES``.  Docstrings and the re-exports of the package's
``__init__`` do not count as uses.  Code that only tests read lives in
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
    "lorentz.exp_map",
    "lorentz.log_map",
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


def _named(trees):
    """Every identifier that src/ names as a Name or an Attribute, outside
    the package's ``__init__``."""
    names = set()
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_definition_is_run_or_an_oracle():
    trees = _trees()
    named = _named(trees)
    unused = sorted(q for q in _public(trees) - set(ORACLES) if q.split(".")[1] not in named)
    assert not unused, f"public in src/ but named by no code there and not an oracle: {unused}"


def test_every_oracle_exists_and_is_named_nowhere_else():
    trees = _trees()
    assert len(set(ORACLES)) == len(ORACLES)
    assert not set(ORACLES) - _public(trees), "an oracle that src/ does not define"
    named = _named(trees)
    run = sorted(q for q in ORACLES if q.split(".")[1] in named)
    assert not run, f"oracles that src/ names, which are no longer test-only: {run}"
