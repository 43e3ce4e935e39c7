"""Amicable Heronian parallelograms, exactly.

A Heronian parallelogram has integer sides and integer area; two polygons
are amicable when the area of each equals the perimeter of the other.  This
package decides amicability, constructs companions, generates an infinite
Fibonacci-Lucas family of amicable pairs, and cross-checks the closed-form
criterion against independent brute-force searches at desk scale.

Each exported name is imported from its home module on first use (PEP 562),
so ``import amigram`` loads no submodule and a CLI subcommand loads only the
modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The home module of every exported name, each name listed once.
_EXPORTS = {
    "amicability": (
        "NotAmicable",
        "Reason",
        "Verdict",
        "all_companion_bases",
        "classify",
        "classify_invariants",
        "companion",
        "companion_base_range",
        "companion_bases_exhaustive",
        "companion_exists_bruteforce",
        "companion_from_invariants",
        "decide",
        "exists_heronian_with",
        "is_amicable",
        "is_amicable_invariants",
        "is_self_amicable",
        "verify_pair",
    ),
    "census": (
        "CSV_HEADER",
        "CensusRow",
        "PerimeterCounts",
        "RectanglePair",
        "amicable_rectangle_pairs",
        "amicable_rectangle_pairs_exhaustive",
        "census_row",
        "census_rows",
        "count_amicable",
        "count_amicable_exhaustive",
        "enumerate_by_area",
        "enumerate_by_perimeter",
        "non_amicable_witness_area",
        "non_amicable_witness_perimeter",
        "smallest_amicable",
    ),
    "core": (
        "AreaOutOfRange",
        "CanonicalKey",
        "HeronianError",
        "InvalidPerimeter",
        "NonIntegerArea",
        "NonIntegerDimension",
        "Parallelogram",
        "SideTooShort",
        "ZeroDimension",
        "decimal_to_int",
        "int_to_decimal",
    ),
    "families": (
        "FamilyEntry",
        "FamilyReportRow",
        "IndexTooSmall",
        "family_pair",
        "family_rows",
        "fib",
        "fib_iterative",
        "lucas",
        "lucas_iterative",
        "verify_family",
    ),
    "render": ("RenderError", "RenderSpec", "model_vertices", "render_svg"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
