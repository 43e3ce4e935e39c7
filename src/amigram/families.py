"""A Fibonacci-Lucas family of amicable pairs, one for each index n >= 4.

The rectangle member has base L(n) and height 2*F(n); its partner is the
parallelogram with base F(2n-2), side F(2n-1), and area 2*F(n+3).  The cross
equalities ride on two classical identities,

    F(n) * L(n) = F(2n)          and          L(n) = F(n-1) + F(n+1),

and the partner is constructible because 2*F(n+3) <= F(2n-1)*F(2n-2) once
n > 3.  Rectangle areas 2*F(2n) grow strictly, so the family contains
infinitely many distinct amicable parallelograms; :func:`family_rows`
re-derives every claim with exact big-integer arithmetic instead of
trusting the closed forms.

Indexing: F(0) = 0, F(1) = 1 and L(0) = 2, L(1) = 1.

:func:`fib` and :func:`lucas` use fast doubling (Knuth, TAOCP vol. 1,
section 1.2.8), O(log n) multiplications each, and :func:`family_pair`
builds every entry from two doubling passes and one more doubling step.
:func:`family_rows` re-derives its check values by another route: it
seeds F(n), L(n) and F(2n-2) with their successors once per range and
steps them by the defining recurrences, so from the second index of a
range on, no check reuses a value the entry was built from.
:func:`fib_iterative` and :func:`lucas_iterative` keep the n-step loop,
one loop from two seeds, as their test oracles.
"""

from __future__ import annotations

from collections.abc import Iterator

from .amicability import is_amicable, verify_pair
from .core import (
    HeronianError,
    Parallelogram,
    int_to_decimal,
    prechecked,
    require_int,
    value_type,
)


class IndexTooSmall(HeronianError):
    """Family index below 4, where the partner's area bound breaks down."""


def _require_index(n: object) -> None:
    """Refuse an index that is not a non-negative plain int."""
    require_int(n, "index")
    if n < 0:
        raise HeronianError(f"index must be non-negative, got {int_to_decimal(n)}")


def _require_family_index(n: object) -> None:
    require_int(n, "index")
    if n <= 3:
        raise IndexTooSmall(f"family is defined for n >= 4, got {int_to_decimal(n)}")


def _fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) for n >= 0, by fast doubling.

    Walks the bits of n from the top, keeping (F(k), F(k+1)) and doubling k
    with F(2k) = F(k)*(2F(k+1) - F(k)) and F(2k+1) = F(k)^2 + F(k+1)^2.
    """
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a, b


def fib(n: int) -> int:
    """The nth Fibonacci number, F(0) = 0, F(1) = 1, by fast doubling."""
    _require_index(n)
    return _fib_pair(n)[0]


def lucas(n: int) -> int:
    """The nth Lucas number, L(0) = 2, L(1) = 1.

    Walks the bits of n from the top, keeping (L(k), L(k+1)) and doubling k
    with L(2k) = L(k)^2 - 2(-1)^k and L(2k+1) = L(k)L(k+1) - (-1)^k.
    """
    _require_index(n)
    a, b, sign = 2, 1, 1  # sign = (-1)^k
    for bit in bin(n)[2:]:
        a, b = a * a - 2 * sign, a * b - sign
        sign = 1
        if bit == "1":
            a, b, sign = b, a + b, -1
    return a


def fib_iterative(n: int) -> int:
    """F(n) by n additions; the oracle for :func:`fib`."""
    return _added_up(n, 0, 1)


def lucas_iterative(n: int) -> int:
    """L(n) by n additions; the oracle for :func:`lucas`."""
    return _added_up(n, 2, 1)


def _added_up(n: int, a: int, b: int) -> int:
    # Checks n, then steps x(k+2) = x(k+1) + x(k) from x(0) = a, x(1) = b to x(n).
    _require_index(n)
    for _ in range(n):
        a, b = b, a + b
    return a


@value_type
class FamilyEntry:
    """Family member at index n: a rectangle and its amicable partner."""

    n: int
    rectangle: Parallelogram
    partner: Parallelogram

    def __post_init__(self) -> None:
        # Only the types are checked, by identity; whether the members are
        # a family pair is for family_rows to check and report.
        n, rectangle, partner = self.n, self.rectangle, self.partner
        if not (type(n) is int and type(rectangle) is type(partner) is Parallelogram):
            require_int(n, "index")
            kinds = f"{type(rectangle).__name__}, {type(partner).__name__}"
            raise HeronianError(f"rectangle and partner must be Parallelograms, got ({kinds})")


# The checks each family row reports, in the order of its results and of
# its JSON object.
CHECK_NAMES = ("pair", "amicable_h", "amicable_c", "identity", "existence_bound")


@value_type
class FamilyReportRow:
    """Outcome of the per-index checks run by :func:`family_rows`: one bool
    per check in ``results``, in the order of :data:`CHECK_NAMES`."""

    entry: FamilyEntry
    results: tuple[bool, bool, bool, bool, bool]

    def __post_init__(self) -> None:
        # Identity, not equality: a result of 1 or 0 would print as a number
        # from to_json_dict but as true or false from to_json_text.
        entry, results = self.entry, self.results
        if not (
            type(entry) is FamilyEntry
            and type(results) is tuple
            and len(results) == 5
            and all(type(ok) is bool for ok in results)
        ):
            raise HeronianError("a family row needs a FamilyEntry and a tuple of five bools")

    @property
    def checks(self) -> dict[str, bool]:
        """Each result under its check's name, in a new dict on each read."""
        return dict(zip(CHECK_NAMES, self.results))

    @property
    def passed(self) -> bool:
        return all(self.results)

    def to_json_dict(self) -> dict:
        return {
            "n": self.entry.n,
            "h": self.entry.rectangle.to_json_dict(),
            "c": self.entry.partner.to_json_dict(),
            "checks": self.checks,
        }

    def to_json_text(self) -> str:
        """``json.dumps(self.to_json_dict())``, from one template."""
        pair, amicable_h, amicable_c, identity, bound = [
            "true" if ok else "false" for ok in self.results
        ]
        return (
            f'{{"n": {int_to_decimal(self.entry.n)}, '
            f'"h": {self.entry.rectangle.to_json_text()}, '
            f'"c": {self.entry.partner.to_json_text()}, '
            f'"checks": {{"pair": {pair}, "amicable_h": {amicable_h}, '
            f'"amicable_c": {amicable_c}, "identity": {identity}, '
            f'"existence_bound": {bound}}}}}'
        )


_prechecked_row = prechecked(FamilyReportRow)
_prechecked_entry = prechecked(FamilyEntry)


def family_pair(n: int) -> FamilyEntry:
    """The amicable pair at index n >= 4.

    Two doubling passes, (F(n), F(n+1)) and L(n), give the rectangle and
    the partner's area 2F(n+3) = 2(F(n) + 2F(n+1)).  The partner's base and
    side (F(2n-2), F(2n-1)) are one more doubling step of the pass's loop,
    taken at k = n - 1 from F(n-1) = F(n+1) - F(n) and F(n).  L(n) must
    come from :func:`lucas`'s own walk, not from F(n-1) + F(n+1): written
    that way, both cross equalities are polynomial identities in
    (F(n), F(n+1)) and hold for any pair, so a wrong F(n) would still pass
    its row's ``pair`` check; the second walk is what catches it.  Both
    members go through the validating constructors, so the partner's
    existence bound is enforced rather than assumed; the entry, a checked
    index and two checked shapes, is valid by construction and skips its
    check.
    """
    _require_family_index(n)
    f, f1 = _fib_pair(n)
    ell = lucas(n)
    f0 = f1 - f
    rectangle = Parallelogram(ell, 2 * f, 2 * f * ell)
    partner = Parallelogram(f0 * (2 * f - f0), f0 * f0 + f * f, 2 * (f + 2 * f1))
    return _prechecked_entry(n, rectangle, partner)


def family_rows(start: int, stop: int) -> Iterator[FamilyReportRow]:
    """Re-check the family for each n in [start, stop], one row at a time.

    Per index: the two cross equalities hold, both members pass the
    closed-form amicability test, F(n)*L(n) = F(2n), and the partner's
    area fits under base*side.  The last two checks take F(n), L(n) and
    F(2n-2) from the defining recurrences, each seeded with its successor
    by doubling once at n = start and then stepped by addition (by one
    index for F(n) and L(n), by two for F(2n-2)); every entry is still
    built by :func:`family_pair`, so the checks play one route against
    the other.  A bad range raises here, not at the first ``next()``.
    """
    require_int(start, "index")
    require_int(stop, "index")
    if stop < start:
        raise HeronianError(
            f"empty range: stop {int_to_decimal(stop)} is below "
            f"start {int_to_decimal(start)}"
        )
    _require_family_index(start)
    return _checked_rows(start, stop)


def _checked_rows(start: int, stop: int) -> Iterator[FamilyReportRow]:
    f, f1 = _fib_pair(start)  # F(n), F(n+1)
    ell, ell1 = lucas(start), lucas(start + 1)  # L(n), L(n+1)
    g, g1 = _fib_pair(2 * start - 2)  # F(2n-2), F(2n-1)
    for n in range(start, stop + 1):
        entry = family_pair(n)
        results = (
            verify_pair(entry.rectangle, entry.partner),
            is_amicable(entry.rectangle),
            is_amicable(entry.partner),
            f * ell == g + g1,
            2 * (f + 2 * f1) <= g1 * g,
        )
        # A FamilyEntry and a tuple of five bools in CHECK_NAMES' order:
        # valid by construction, so the row skips its checks.
        yield _prechecked_row(entry, results)
        f, f1 = f1, f + f1
        ell, ell1 = ell1, ell + ell1
        g, g1 = g + g1, g + 2 * g1  # F(2n), F(2n+1)


def verify_family(start: int, stop: int) -> list[FamilyReportRow]:
    """The rows of :func:`family_rows`, as a list."""
    return list(family_rows(start, stop))
