"""The package's public names, pinned: adding or removing an export means
updating this list on purpose. Source checks ride along: no module keeps an
import it does not use, every export and every public method or property of an
exported class has a caller inside the package, every name two exported classes
share is listed, and no exemption outlives its reason."""

import ast
import types
from collections import Counter
from pathlib import Path

import prodcong

EXPORTS = [
    "CharProfile", "CoverageResult", "DomainError", "EnergyDiagnostic", "FieldContext",
    "GeneratorSet", "GrowthReport", "Interval", "NotRepresentableError", "OlsonCheck",
    "ProdcongError", "Representation", "ResidueSet", "ResourceError", "ScanResult",
    "SmoothTable", "SolveInstance", "SolveReport", "ThresholdResult",
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
}

# Public methods and properties of exported classes whose name another exported
# class also defines, as a method, a property or a field. Callers are counted by
# name, so a read of either side keeps both alive; each entry names the package
# reads that do.
SHARED = {
    "contains_zero": "Interval: SolveInstance's interval check; "
    "ResidueSet: coverage_check and charsums' _unit_members",
    "modulus": "ResidueSet: product_set, sum_set and the growth checks; Interval's field: "
    "iterated_interval_product and SolveInstance's check; the fields of GeneratorSet, "
    "GrowthReport and Representation: power_set_sequence, GrowthReport.represent and "
    "Representation.verify",
    "witness": "ResidueSet: solve's witness join and GrowthReport.represent; "
    "SolveReport's field: the solve row of the CLI",
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


def _export_uses():
    """Whether each export is used outside its own def or class.

    A use is a Name or Attribute node in some top-level statement other than
    the export's own def or class, so docstrings and quoted annotations,
    being strings, never count."""
    used_outside = {name: False for name in _exports()}
    for path in MODULES:
        for stmt in _parse(path).body:
            own = getattr(stmt, "name", None)
            for name in _reads(stmt):
                if name in used_outside and name != own:
                    used_outside[name] = True
    return used_outside


def _reads(tree):
    """Counter of the names read as a Name or Attribute node under tree."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _exported_classes():
    exported = set(_exports())
    return [
        stmt
        for path in MODULES
        for stmt in _parse(path).body
        if isinstance(stmt, ast.ClassDef) and stmt.name in exported
    ]


def _public_methods():
    """(class, def node) for each public method or property of an exported class."""
    return [
        (cls.name, node)
        for cls in _exported_classes()
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _shared_names():
    """The public method and property names that more than one exported class
    defines, as a method, a property or a field."""
    defined = Counter()
    for cls in _exported_classes():
        defined.update(
            {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
            | {
                node.target.id
                for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            }
        )
    return {node.name for _, node in _public_methods() if defined[node.name] > 1}


def test_every_export_has_a_caller():
    # Methods and properties of exported classes follow the same rule, by
    # name: a use anywhere in the package outside the method's own def counts.
    uncalled = [n for n, used in _export_uses().items() if not used and n not in NO_CALLER]
    reads = sum((_reads(_parse(path)) for path in MODULES), Counter())
    uncalled += [
        f"{cls}.{node.name}"
        for cls, node in _public_methods()
        if reads[node.name] == _reads(node)[node.name]
    ]
    assert uncalled == []


def test_shared_names_listed():
    # the caller check above cannot see one side of a shared name lose its
    # last caller while the other side is read, so each shared name is vetted
    assert sorted(_shared_names() - SHARED.keys()) == []


def test_no_stale_exemption():
    # an exempt name that gained a caller, or stopped being an export, leaves
    # NO_CALLER; a name no longer shared leaves SHARED
    used = _export_uses()
    assert sorted(name for name in NO_CALLER if used.get(name, True)) == []
    assert sorted(SHARED.keys() - _shared_names()) == []
