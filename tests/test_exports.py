"""The package's public names, pinned: adding or removing an export means
updating this list on purpose."""

import types

import prodcong

EXPORTS = [
    "BoundCheck", "CharProfile", "CoverageResult", "DomainError", "EnergyDiagnostic",
    "FieldContext", "GeneratorSet", "GrowthReport", "Interval", "Modulus",
    "NonresidueResult", "NotRepresentableError", "OlsonCheck", "ProdcongError",
    "Representation", "ResidueSet", "ResourceError", "ScanResult", "SmoothFactorization",
    "SmoothTable", "SolveInstance", "SolveReport", "ThresholdResult", "TripleProductStats",
    "abc_scan", "build_field_context", "build_generator_set", "build_smooth_table",
    "burgess_profile", "ceil_power", "char_sum", "coverage_check", "energy_diagnostic",
    "euler_phi", "factorize", "floor_power", "greedy_factor", "is_prime", "is_subgroup",
    "iterated_interval_product", "least_power_nonresidue", "multiplicative_energy",
    "olson_bound_check", "power_residue_index", "power_set_sequence", "primes_in_range",
    "primitive_root", "product_bound_check", "product_energy",
    "product_energy_via_characters", "product_growth_bound", "product_set",
    "represent_target", "represent_unit", "scale_set", "solve", "sum_set",
    "threshold_scan", "triple_product_stats", "twelve_interval_instance", "units_mask",
    "verify_witness",
]


def test_public_names_pinned():
    names = sorted(
        name
        for name, value in vars(prodcong).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == EXPORTS
