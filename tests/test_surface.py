"""The public names of the package and the boundary around its oracles."""

import ast
import dataclasses
import functools
import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

import triclone
from triclone.cloners import CompiledChannel

README = Path(__file__).resolve().parents[1] / "README.md"
TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
# Traced layers the package has deleted; the benchmark still lists them.
STALE_LAYERS = {
    ("linalg", "DensityMatrix.__post_init__"),
    ("linalg", "partial_trace_matrix"),
    ("linalg", "fidelity_pure"),
    ("cloners", "apply_local_cloning"),
    ("cloners", "apply_nonlocal_cloning"),
    ("entanglement", "measures"),
    ("entanglement", "input_state"),
    ("cli", "compute_sweep_rows"),
}

PUBLIC_NAMES = (
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


# Dataclass fields of the one public result type that is not an array: the
# channel that ``local_channel``/``nonlocal_channel`` return.
TRACE_FIELDS = {
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
    grid = [*triclone.evaluate([0.3])]
    trace = [*triclone.iterate(0.3, 1)]
    assert [item.shape for item in grid] == [(3, 1, 8, 8), (3, 1), (3, 1, 3), (2, 1)]
    assert [item.shape for item in trace] == [(2,), (2, 3), (2, 8, 8)]
    items = [
        *triclone.measure_stack(rhos),
        *triclone.correlations(rhos),
        *grid,
        *trace,
    ]
    assert all(isinstance(item, np.ndarray) for item in items)


def _dataclasses():
    """(module, class) of every class decorated with ``dataclass`` in the package."""
    found = set()
    for path in Path(triclone.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                found.add((path.stem, node.name))
    return found


def test_no_new_record_types():
    # Results are plain arrays; the channel with its build-time residuals and
    # the verification check report are the only records.
    assert _dataclasses() == {
        ("cloners", "CompiledChannel"),
        ("verification", "CheckResult"),
    }


def test_one_module_owns_the_block_size():
    # How many states go through one channel map is one decision, made in
    # ``cloners``; every block-wise caller derives its block from it.
    blocks = [
        (path.stem, target.id)
        for path in Path(triclone.__file__).parent.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.endswith("_BLOCK")
    ]
    assert blocks == [("cloners", "MAP_BLOCK")]


def test_only_block_wise_modules_read_the_block_size():
    # ``sweep`` and the spectral route split their own stacks; the
    # verification suite hands whole stacks to them.
    readers = {
        path.stem
        for path in Path(triclone.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "MAP_BLOCK"
        or isinstance(node, ast.Attribute) and node.attr == "MAP_BLOCK"
        or isinstance(node, ast.alias) and node.name == "MAP_BLOCK"
    }
    assert readers == {"cloners", "cli", "iteration"}


def _call_sites(name):
    """(module, enclosing function) of every call of ``name`` in the package."""
    sites = []
    for path in Path(triclone.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                sites.extend(
                    (path.stem, func.name)
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call) and ast.unparse(node.func) == name
                )
    return sites


@pytest.mark.parametrize("name", ["_spectral_mix"])
def test_spectral_route_has_one_path(name):
    # ``iterate`` and the verification suite both reach the route through
    # ``spectral_trajectory``; nothing else runs its steps.
    assert _call_sites(name) == [("iteration", "spectral_trajectory")]


def test_one_batched_evaluation_path():
    # Fidelities are scored only in ``evaluate``, for the two callers that
    # read them; measures are taken only where they are read.  Every pure
    # state is formed, cloned and validated by ``evaluate_states``.
    assert _call_sites("fidelities") == [("cloners", "evaluate")]
    assert set(_call_sites("measure_stack")) == {
        ("cloners", "evaluate"),
        ("cloners", "e2_gaps"),
        ("iteration", "iterate"),
        ("verification", "check_measure_properties"),
    }
    assert set(_call_sites("evaluate_states")) == {
        ("cloners", "evaluate"),
        ("cloners", "e2_gaps"),
        ("iteration", "_spectral_mix"),
        ("iteration", "iterate"),
        ("verification", "check_measure_properties"),
        ("verification", "informational_notes"),
    }


def test_channels_map_only_on_the_three_paths():
    # Pure inputs are cloned in ``evaluate_states``, the iterated chain in
    # ``spectral_trajectory``, and the mixed states of check 08 in the check.
    sites = set()
    for path in Path(triclone.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                sites.update(
                    (path.stem, func.name)
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map"
                )
    assert sites == {
        ("cloners", "evaluate_states"),
        ("iteration", "spectral_trajectory"),
        ("verification", "check_channel_properties"),
    }


def test_informational_notes_measure_nothing(monkeypatch):
    # The K333 note reads a correlation tensor and the corner note a state
    # entry; neither reads E3 or E2.
    from triclone import cloners, entanglement, iteration, verification

    calls = []
    real = entanglement.measure_stack

    def counted(rhos):
        calls.append(rhos.shape)
        return real(rhos)

    for module in (triclone, entanglement, cloners, iteration, verification):
        if getattr(module, "measure_stack", None) is real:
            monkeypatch.setattr(module, "measure_stack", counted)
    assert len(verification.informational_notes()) == 2
    assert calls == []


def test_verify_derives_each_quantity_once():
    # The balanced state is a column of the verification grid, and the window
    # probes share the crossing search's gap function.
    assert set(_call_sites("evaluate")) == {
        ("cli", "sweep_table"),
        ("verification", "compute_grid"),
    }
    assert set(_call_sites("e2_gaps")) == {
        ("cloners", "find_e2_crossings"),
        ("verification", "check_amplification_window"),
    }


def _stdout_names(node):
    return sum(
        isinstance(n, ast.Attribute) and n.attr == "stdout" for n in ast.walk(node)
    )


def test_stdout_has_one_writer():
    # Commands return their text and ``cli.main`` alone writes it, so one
    # handler covers every stdout failure; every print goes to stderr.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(triclone.__file__).parent.glob("*.py")
    }
    (main,) = [
        f
        for f in trees["cli"].body
        if isinstance(f, ast.FunctionDef) and f.name == "main"
    ]
    assert _stdout_names(main) > 0
    assert sum(map(_stdout_names, trees.values())) == _stdout_names(main)
    prints = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "print"
    ]
    assert prints
    for node in prints:
        assert [ast.unparse(k.value) for k in node.keywords if k.arg == "file"] == [
            "sys.stderr"
        ], ast.unparse(node)


def _open_calls():
    """(module, enclosing function, first argument) of every ``*open`` call."""
    found = set()
    for path in Path(triclone.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # Walk order visits outer functions first, so nested ones win.
        scopes = {
            node: func.name
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
        }
        found.update(
            (path.stem, scopes.get(node, "<module>"), ast.unparse(node.args[0]))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] == "open"
        )
    return found


def test_only_cli_opens_files():
    # ``--output`` is written by ``cli._write`` alone; the other open is the
    # devnull redirect after a failed stdout write.  ``verify`` needs no
    # writable directory, so no module reaches for temporary files.
    assert _open_calls() == {("cli", "_write", "path"), ("cli", "main", "os.devnull")}
    modules = [path.stem for path in Path(triclone.__file__).parent.glob("*.py")]
    assert "verification" in modules
    for module in modules:
        assert "tempfile" not in _imported_modules(module), module


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


def test_verify_prints_no_literal_tolerance():
    # Every printed tolerance is a formatted value, so the text cannot state
    # a tolerance other than the one the verdict applies.
    path = Path(triclone.__file__).parent / "verification.py"
    fstrings = [
        node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.JoinedStr)
    ]
    parts = [
        part.value
        for node in fstrings
        for part in node.values
        if isinstance(part, ast.Constant)
    ]
    # Keeps the scan from passing because it finds no tolerance text at all.
    assert any("tol " in part for part in parts)
    assert [part for part in parts if re.search(r"tol \d", part)] == []


def _package_trees():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(triclone.__file__).parent.glob("*.py")
    }


def _is_abs_max_chain(node):
    """``np.max(np.abs(...))`` or ``np.abs(...).max(...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if ast.unparse(func) == "np.max":
        inner = node.args[0] if node.args else None
    elif isinstance(func, ast.Attribute) and func.attr == "max":
        inner = func.value
    else:
        return False
    return isinstance(inner, ast.Call) and ast.unparse(inner.func) == "np.abs"


def test_residual_norm_has_one_definition():
    # Every residual goes through ``linalg.max_abs``, which holds the only
    # abs-then-max chain in the package.
    chains = [
        (module, ast.unparse(node))
        for module, tree in _package_trees().items()
        for node in ast.walk(tree)
        if _is_abs_max_chain(node)
    ]
    assert [module for module, _ in chains] == ["linalg"], chains


def _bound_name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None) or ""


# The comparison of a value against a bound that a NaN value passes, by the
# suffix of the bound's name: ``x > TOL`` and ``x < FLOOR`` are False for NaN.
NAN_PASSING = {"_ATOL": ast.Gt, "_CEILING": ast.Gt, "_FLOOR": ast.Lt}
# Modules whose hard checks fail through ``linalg.require`` alone.
REQUIRE_MODULES = ("linalg", "cloners", "entanglement", "iteration")
# The one check there that compares against its bound itself: it names the
# first out-of-range entry of a stack, which ``require``'s eagerly evaluated
# arguments could only do by searching for that entry on every call.
UNROUTED_CHECK = ("entanglement", "_check_measures")


def _bound_comparisons(trees):
    """(module, comparison, bound name) of each comparison with a named bound.

    ``BOUND < x`` is recorded as ``x > BOUND``, the bound always on the right.
    """
    mirrored = {ast.Gt: ast.Lt, ast.Lt: ast.Gt}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for left, op, right in zip(operands, node.ops, operands[1:]):
                if _bound_name(right).endswith(tuple(NAN_PASSING)):
                    yield module, type(op), _bound_name(right)
                elif _bound_name(left).endswith(tuple(NAN_PASSING)):
                    yield module, mirrored.get(type(op)), _bound_name(left)


def _compares_by_function(tree, function=None):
    """(innermost enclosing function name, node) of each comparison in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Compare):
            yield function, node
        inner = node.name if isinstance(node, ast.FunctionDef) else function
        yield from _compares_by_function(node, inner)


def _negated(node):
    """(operand, whether ``node`` is ``-operand``)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return node.operand, True
    return node, False


def test_no_check_lets_a_nan_residual_pass():
    trees = _package_trees()
    # In the implementation modules every named bound is compared in
    # ``require`` alone, whose test ``not value <= bound`` fails a NaN.
    suffixes = tuple(NAN_PASSING)
    compared = {
        (module, function)
        for module in REQUIRE_MODULES
        for function, node in _compares_by_function(trees[module])
        for operand in [node.left, *node.comparators]
        if _bound_name(operand).endswith(suffixes)
    }
    assert compared == {UNROUTED_CHECK}
    require = next(
        node
        for node in trees["linalg"].body
        if isinstance(node, ast.FunctionDef) and node.name == "require"
    )
    tests = [ast.unparse(n.test) for n in ast.walk(require) if isinstance(n, ast.If)]
    assert tests == ["not value <= bound"]
    # Every ``require`` call names its bound; a floor is required of the
    # negated value, so that a NaN fails it too.
    bounds = set()
    for module in REQUIRE_MODULES:
        for node in ast.walk(trees[module]):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "require":
                (_, value_negated), (bound, negated) = map(_negated, node.args[:2])
                name = _bound_name(bound)
                assert name.endswith(suffixes), ast.unparse(node)
                assert negated == value_negated == name.endswith("_FLOOR"), name
                bounds.add(name)
    # Keeps the scan from passing because it finds no ``require`` call at all.
    assert {"HERMITIAN_ATOL", "ROUTE_AGREEMENT_ATOL", "EIGENVALUE_FLOOR"} <= bounds
    # Elsewhere, and in the one unrouted check, a check compares against its
    # bound itself, in the direction that fails a NaN: ``not residual <= TOL``,
    # ``not value >= FLOOR``.
    found = list(_bound_comparisons(trees))
    nan_passing = [
        (module, name)
        for module, op, name in found
        for suffix, bad in NAN_PASSING.items()
        if name.endswith(suffix) and op is bad
    ]
    assert nan_passing == []
    names = {name for _, _, name in found}
    assert {"WINDOW_ATOL", "STEP6_CEILING", "MEASURE_CEILING"} <= names


def _benchmark_tracing():
    """``benchmarks/tracing.py`` loaded as a module, without running it as a script."""
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module, attr):
    owner = importlib.import_module(f"triclone.{module}")
    try:
        functools.reduce(getattr, attr.split("."), owner)
    except AttributeError:
        return False
    return True


def test_every_live_traced_layer_resolves():
    # A deletion that leaves a traced layer unresolved shows up here, instead
    # of as an absent layer in the next benchmark run.
    tracing = _benchmark_tracing()
    unresolved = {layer for layer in tracing.LAYERS if not _resolves(*layer)}
    assert unresolved <= STALE_LAYERS
    assert len(tracing.LAYERS) - len(unresolved) >= 16
    assert "nonlocal_isometry" in tracing.CACHED
    assert callable(triclone.cloners.nonlocal_isometry.cache_info)
