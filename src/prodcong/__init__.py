"""prodcong: exact desk-scale experiments with products of residues from short intervals.

Modules
-------
arith      factorization, totients, primitive roots, discrete-log tables
residues   intervals, dense residue sets, product/sum/scale kernels, coverage
charsums   multiplicative characters, collision energies, product-set bounds
smooth     smooth-number sieves and greedy bounded factorization
growth     iterated product sets A^n, subgroup structure, representations
solver     meet-in-the-middle decision for two-sided product congruences
cli        the `prodcong` command with deterministic JSON/CSV reports
"""

from .arith import (
    FieldContext,
    Modulus,
    build_field_context,
    ceil_power,
    euler_phi,
    factorize,
    floor_power,
    is_prime,
    primes_in_range,
    primitive_root,
)
from .charsums import (
    BoundCheck,
    CharProfile,
    EnergyDiagnostic,
    burgess_profile,
    char_sum,
    energy_diagnostic,
    multiplicative_energy,
    product_bound_check,
    product_energy,
    product_energy_via_characters,
    product_growth_bound,
)
from .errors import DomainError, NotRepresentableError, ProdcongError, ResourceError
from .growth import (
    GeneratorSet,
    GrowthReport,
    NonresidueResult,
    OlsonCheck,
    Representation,
    build_generator_set,
    is_subgroup,
    least_power_nonresidue,
    olson_bound_check,
    power_residue_index,
    power_set_sequence,
    represent_target,
    represent_unit,
)
from .residues import (
    CoverageResult,
    Interval,
    ResidueSet,
    TripleProductStats,
    coverage_check,
    iterated_interval_product,
    product_set,
    scale_set,
    sum_set,
    triple_product_stats,
    units_mask,
)
from .smooth import SmoothFactorization, SmoothTable, build_smooth_table, greedy_factor
from .solver import (
    ScanResult,
    SolveInstance,
    SolveReport,
    ThresholdResult,
    abc_scan,
    solve,
    threshold_scan,
    twelve_interval_instance,
    verify_witness,
)

__version__ = "0.1.0"
