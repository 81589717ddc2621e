"""Exactly certified unit-distance point sets from CM number fields.

Construction pipeline: split a completely split prime, pigeonhole
products of its prime-ideal powers into a principality class, turn ratios
into unit-modulus elements, and enumerate a Minkowski polydisc window
whose projection carries provably many unit distances.

Every submodule but __main__ is bound here and in sys.modules when the
package is imported, as a lazy module (importlib.util.LazyLoader) that
runs on its first attribute access; the exports below resolve through
their modules on first use (PEP 562).  A command therefore runs only the
layers it uses.
"""

import importlib.util
import sys

_EXPORTS = {
    "construct": ("ConstructionReport", "PointSet", "UnitSet", "WindowConfig",
                  "build_pointset", "denominator_bound", "enumerate_window",
                  "pigeonhole_units", "select_translate"),
    "counting": ("DistanceCensus", "PlanarFloatSet", "count_exact", "count_float",
                 "erdos_grid", "r2_count", "r2_count_rational"),
    "gstower": ("GSReport", "SymbolicPower", "TowerSpec", "exponent", "exponent_ledger",
                "find_split_primes", "frattini_rank", "gs_check",
                "multiquadratic_generators", "splits_completely"),
    "ideals": ("FracIdeal", "PrimeIdeal", "PrincipalityResult",
               "class_number_imag_quadratic", "is_principal", "split_prime"),
    "intervals": ("Box", "RealInterval", "exact_ceil", "ln_interval", "pi_interval"),
    "numberfield": ("CMStructure", "FieldElement", "NumberField", "abs_sq",
                    "compositum_multiquadratic", "detect_cm", "is_unit_modulus",
                    "nf_new"),
    "numthy": ("is_prime", "legendre_symbol"),
    "polynomials": ("make_poly",),
    "roots": ("RootBox", "isolate_complex_roots"),
}
_SUBMODULES = ("cli", "construct", "counting", "enumeration", "errors", "gstower",
               "ideals", "intervals", "linalg", "numberfield", "numthy", "polynomials",
               "roots", "serialize")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def _lazy(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _SUBMODULES:
    globals()[_name] = _lazy(_name)
del _name


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_HOME[name]], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
