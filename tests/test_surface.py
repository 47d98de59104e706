"""The public names of the package and the boundary around its oracles."""

import ast
import dataclasses
from pathlib import Path

import pytest

import triclone

PUBLIC_NAMES = (
    "CloningIsometry",
    "DensityMatrix",
    "EntanglementReport",
    "IterationStep",
    "IterationTrace",
    "PureState",
    "apply_local_cloning",
    "apply_nonlocal_cloning",
    "clone_mixed_nonlocal",
    "correlations",
    "eig_hermitian",
    "fidelity_pure",
    "find_e2_crossings",
    "input_state",
    "iterate",
    "measures",
    "nonlocal_isometry",
)


# Dataclass fields of the public iteration trace.
TRACE_FIELDS = {
    "IterationStep": ("step", "e3", "e2"),
    "IterationTrace": ("alpha", "steps", "states"),
}


def _imported_modules(module):
    """Every module an import statement anywhere in ``triclone.<module>`` names."""
    path = Path(triclone.__file__).parent / f"{module}.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = "triclone" if node.level else ""
            base = ".".join(filter(None, [package, node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_public_names_are_pinned():
    assert tuple(triclone.__all__) == PUBLIC_NAMES
    assert all(hasattr(triclone, name) for name in PUBLIC_NAMES)


@pytest.mark.parametrize("name", sorted(TRACE_FIELDS))
def test_trace_fields_are_pinned(name):
    fields = dataclasses.fields(getattr(triclone, name))
    assert tuple(f.name for f in fields) == TRACE_FIELDS[name]


@pytest.mark.parametrize(
    "module", ["__init__", "linalg", "entanglement", "cloners", "iteration", "cli"]
)
def test_implementation_does_not_import_the_oracles(module):
    assert "triclone.reference" not in _imported_modules(module)


def test_verification_imports_the_oracles():
    # Keeps the scan above from passing because it finds no imports at all.
    assert "triclone.reference" in _imported_modules("verification")
