"""The public names of the package and the boundary around its oracles."""

import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import triclone
from triclone.cloners import CompiledChannel, GridData

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = (
    "IterationTrace",
    "check_density_matrices",
    "correlations",
    "evaluate",
    "fidelities",
    "find_e2_crossings",
    "input_states",
    "iterate",
    "local_channel",
    "measure_stack",
    "nonlocal_channel",
    "nonlocal_isometry",
)


# Dataclass fields of every public result type: the trace ``iterate``
# returns, the grid ``evaluate`` returns and the channel that
# ``local_channel``/``nonlocal_channel`` return.
TRACE_FIELDS = {
    triclone.IterationTrace: ("e3", "e2", "states"),
    GridData: (
        "alphas",
        "local_out",
        "nonlocal_out",
        "e3_in",
        "e2_in",
        "e3_local",
        "e2_local",
        "e3_nonlocal",
        "e2_nonlocal",
        "f_local",
        "f_nonlocal",
    ),
    CompiledChannel: (
        "superoperator",
        "symmetry_gap",
        "trace_residual",
        "choi_hermitian_residual",
        "choi_min_eigenvalue",
    ),
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


@pytest.mark.parametrize("cls", list(TRACE_FIELDS), ids=lambda cls: cls.__name__)
def test_trace_fields_are_pinned(cls):
    fields = dataclasses.fields(cls)
    assert tuple(f.name for f in fields) == TRACE_FIELDS[cls]


def test_results_are_plain_arrays():
    # Every public result is an ndarray, stacked along leading axes.
    rhos = triclone.nonlocal_channel().map(np.eye(8, dtype=complex)[None] / 8)
    grid = triclone.evaluate([0.3])
    trace = triclone.iterate(0.3, 1)
    items = [
        *triclone.measure_stack(rhos),
        *triclone.correlations(rhos),
        *(getattr(grid, f.name) for f in dataclasses.fields(grid)),
        *(getattr(trace, f.name) for f in dataclasses.fields(trace)),
    ]
    assert all(isinstance(item, np.ndarray) for item in items)


@pytest.mark.parametrize(
    "module", ["__init__", "linalg", "entanglement", "cloners", "iteration", "cli"]
)
def test_implementation_does_not_import_the_oracles(module):
    assert "triclone.reference" not in _imported_modules(module)


def test_verification_imports_the_oracles():
    # Keeps the scan above from passing because it finds no imports at all.
    assert "triclone.reference" in _imported_modules("verification")


def test_readme_sketch_runs_on_the_public_names(capsys):
    # The README's one Python block is the library sketch; it may use only
    # names in ``__all__`` and must print the values its comments give.
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    used = set(re.findall(r"\btc\.(\w+)", blocks[0]))
    assert used and used <= set(triclone.__all__)
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.split("\n")
    e3, e2 = (float(v) for v in lines[0].split())
    assert e3 == pytest.approx(25.0 / 81.0, abs=1e-12)
    assert e2 == pytest.approx(25.0 / 243.0, abs=1e-12)
    assert float(lines[1]) == pytest.approx(5.0 / 9.0, abs=1e-12)
    assert float(lines[2]) == pytest.approx(11.0 / 18.0, abs=1e-12)
