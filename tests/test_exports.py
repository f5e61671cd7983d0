"""The package's public names, pinned: adding or removing an export means
updating this list on purpose. Two source checks ride along: no module keeps
an import it does not use, and every export has a caller inside the package."""

import ast
import types
from pathlib import Path

import prodcong

EXPORTS = [
    "CharProfile", "CoverageResult", "DomainError", "EnergyDiagnostic", "FieldContext",
    "GeneratorSet", "GrowthReport", "Interval", "NotRepresentableError", "OlsonCheck",
    "ProdcongError", "Representation", "ResidueSet", "ResourceError", "ScanResult",
    "SmoothFactorization", "SmoothTable", "SolveInstance", "SolveReport", "ThresholdResult",
    "abc_scan", "build_field_context", "build_generator_set", "build_smooth_table",
    "burgess_profile", "ceil_power", "char_sum", "coverage_check", "energy_diagnostic",
    "euler_phi", "factorize", "floor_power", "greedy_factor", "is_prime", "is_subgroup",
    "iterated_interval_product", "olson_bound_check", "power_residue_index",
    "power_set_sequence", "primes_in_range", "primitive_root", "product_energy",
    "product_energy_via_characters", "product_growth_bound", "product_set",
    "represent_target", "represent_unit", "solve", "sum_set", "threshold_scan",
    "units_mask", "verify_witness",
]

# Exports with no caller inside the package, each with the reason it stays.
NO_CALLER = {
    # perfbench traces both by name; they go with its growth.is_subgroup.* and
    # growth.power_residue_index.self_s metrics in ROADMAP item 1's benchmark change
    "is_subgroup",
    "power_residue_index",
    # the one-x form of the batched _greedy_rows behind `smooth --check-greedy`:
    # acceptance c06/c07 factor with it, and perfbench traces it
    "greedy_factor",
}

MODULES = sorted(
    path for path in Path(prodcong.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exports():
    return sorted(
        name
        for name, value in vars(prodcong).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def test_public_names_pinned():
    assert _exports() == EXPORTS


def test_no_unused_module_imports():
    unused = []
    for path in MODULES:
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.name}: {bound}")
    assert unused == []


def test_every_export_has_a_caller():
    # A use is a Name or Attribute node in some top-level statement other than
    # the export's own def or class, so docstrings and quoted annotations,
    # being strings, never count.
    used_outside = {name: False for name in _exports()}
    for path in MODULES:
        for stmt in _parse(path).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name in used_outside and name != own:
                    used_outside[name] = True
    uncalled = [n for n, used in used_outside.items() if not used and n not in NO_CALLER]
    assert uncalled == []
