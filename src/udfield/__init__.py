"""Exactly certified unit-distance point sets from CM number fields.

Construction pipeline: split a completely split prime, pigeonhole
products of its prime-ideal powers into a principality class, turn ratios
into unit-modulus elements, and enumerate a Minkowski polydisc window
whose projection carries provably many unit distances.
"""

from .construct import (ConstructionReport, PointSet, SymbolicPower, UnitSet,
                        WindowConfig, build_pointset, denominator_bound,
                        enumerate_window, exponent, pigeonhole_units,
                        select_translate, exponent_ledger)
from .counting import (DistanceCensus, PlanarFloatSet, count_exact,
                       count_float, erdos_grid, r2_count, r2_count_rational)
from .gstower import (GSReport, TowerSpec, class_number_bound,
                      find_split_primes, frattini_rank, gs_check,
                      multiquadratic_generators, splits_completely)
from .ideals import (FracIdeal, PrimeIdeal, PrincipalityResult,
                     class_number_imag_quadratic, is_principal, split_prime)
from .intervals import (ComplexInterval, RealInterval, exact_ceil,
                        ln_interval, pi_interval)
from .numberfield import (CMStructure, FieldElement, NumberField, abs_sq,
                          adjoin_i, compositum_multiquadratic, detect_cm,
                          is_unit_modulus, nf_new)
from .numthy import is_prime, legendre_symbol
from .polynomials import make_poly
from .roots import RootBox, isolate_complex_roots

__version__ = "0.1.0"
