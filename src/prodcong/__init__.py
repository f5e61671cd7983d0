"""prodcong: exact desk-scale experiments with products of residues from short intervals.

Modules
-------
arith      factorization, totients, primitive roots, discrete-log tables
residues   intervals, dense residue sets, product/sum kernels, coverage
charsums   multiplicative characters, collision energies
smooth     smooth-number sieves and greedy bounded factorization
growth     iterated product sets A^n, subgroup structure, representations
solver     meet-in-the-middle decision for two-sided product congruences
cli        the `prodcong` command with deterministic JSON/CSV reports
"""

from .arith import (
    FieldContext,
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
    CharProfile,
    EnergyDiagnostic,
    burgess_profile,
    char_sum,
    energy_diagnostic,
    product_energy,
    product_energy_via_characters,
    product_growth_bound,
)
from .errors import DomainError, NotRepresentableError, ProdcongError, ResourceError
from .growth import (
    GeneratorSet,
    GrowthReport,
    OlsonCheck,
    Representation,
    build_generator_set,
    is_subgroup,
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
    coverage_check,
    iterated_interval_product,
    product_set,
    sum_set,
    units_mask,
)
from .smooth import SmoothTable, build_smooth_table, greedy_factor
from .solver import (
    ScanResult,
    SolveInstance,
    SolveReport,
    ThresholdResult,
    abc_scan,
    solve,
    threshold_scan,
    verify_witness,
)

__version__ = "0.1.0"
