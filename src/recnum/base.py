"""Linear recurrence bases.

A base is a strictly increasing integer sequence G_0 = 1 < G_1 < ... that
eventually satisfies G_{n+d} = a_1 G_{n+d-1} + ... + a_d G_n, subject to two
admissibility conditions:

  (1) a_1 G_{k-1} + ... + a_k G_0 < G_k for 1 <= k < d, and
  (3) (a_k, ..., a_d) is lexicographically <= (a_1, ..., a_{d-k+1}) for k > 1.

Under these conditions the characteristic polynomial
X^d - a_1 X^{d-1} - ... - a_d has a unique real root alpha in [a_1, a_1 + 1),
and G_n ~ c * alpha^n for some constant c > 0.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass

MAX_BITS = 128  # width of every term G_n, checked as the term cache grows
ROOT_TOL = 1e-14


class IntegerWidthError(OverflowError):
    """A sequence term exceeded the fixed integer width MAX_BITS."""


class CostGuardError(RuntimeError):
    """A computation was refused because it exceeds a documented cost guard."""


class PreconditionError(ValueError):
    """An operation was called with arguments violating its stated precondition."""


@dataclass(frozen=True)
class RecurrenceSpec:
    """Coefficients a_1..a_d and initial terms G_0..G_{d-1} of a base."""

    coeffs: tuple[int, ...]
    initials: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def strengthened_initials(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Initial terms G_k = a_1 G_{k-1} + ... + a_k G_0 + 1, starting from G_0 = 1.

    These saturate condition (1) with equality-plus-one, which is the setting
    where the Parry window criterion characterises greedy digit strings exactly.
    """
    initials = [1]
    for k in range(1, len(coeffs)):
        initials.append(sum(coeffs[i] * initials[k - 1 - i] for i in range(k)) + 1)
    return tuple(initials)


def validate_spec(spec: RecurrenceSpec) -> ValidationReport:
    """Check all admissibility conditions; violations are data, not errors."""
    violations: list[str] = []
    a = spec.coeffs
    g = spec.initials
    d = spec.d
    if d < 1:
        return ValidationReport(False, ("order d must be >= 1",))
    if len(g) != d:
        violations.append(f"expected {d} initial terms, got {len(g)}")
        return ValidationReport(False, tuple(violations))
    if any(c < 0 for c in a):
        violations.append("coefficients must be non-negative")
    if a[-1] <= 0:
        violations.append(f"a_{d} must be positive")
    if a == (1,):
        # for d >= 2, condition (3) at k = d gives a_1 >= a_d >= 1, so G_n grows
        violations.append("a_1 = 1 with d = 1 gives G_n = 1 for every n")
    if g[0] != 1:
        violations.append("G_0 must equal 1")
    if any(g[i] >= g[i + 1] for i in range(d - 1)):
        violations.append("initial terms must be strictly increasing")
    if any(t <= 0 for t in g):
        violations.append("initial terms must be positive")
    for k in range(1, d):
        lhs = sum(a[i] * g[k - 1 - i] for i in range(k))
        if lhs >= g[k]:
            violations.append(
                f"condition (1) fails at k={k}: "
                f"a_1 G_{k-1} + ... + a_{k} G_0 = {lhs} >= G_{k} = {g[k]}"
            )
    for k in range(2, d + 1):
        tail = a[k - 1:]
        head = a[: d - k + 1]
        if tail > head:
            violations.append(
                f"condition (3) fails at k={k}: {tail} exceeds {head} lexicographically"
            )
    return ValidationReport(not violations, tuple(violations))


def char_poly(spec: RecurrenceSpec, x: float) -> float:
    """Evaluate X^d - a_1 X^{d-1} - ... - a_d by Horner's scheme."""
    p = 1.0
    for c in spec.coeffs:
        p = p * x - c
    return p


def dominant_root(spec: RecurrenceSpec) -> float:
    """The unique root of the characteristic polynomial in [a_1, a_1 + 1).

    Found by bisection to absolute tolerance 1e-14; the sign change on the
    bracket is guaranteed for valid specs, and PreconditionError is raised
    without it.
    """
    a1 = spec.coeffs[0]
    if spec.d == 1:
        return float(a1)
    lo, hi = float(a1), float(a1 + 1)
    flo = char_poly(spec, lo)
    if flo == 0.0:
        return lo
    fhi = char_poly(spec, hi)
    if not flo < 0.0 < fhi:
        raise PreconditionError("no sign change on [a_1, a_1+1): invalid spec?")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi or hi - lo <= ROOT_TOL:
            break
        if char_poly(spec, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class BaseContext:
    """A validated base together with a growable cache of exact terms.

    The term cache is the only mutable state; it grows under a lock so that
    concurrent readers are safe. Everything else is fixed at construction.
    """

    def __init__(self, spec: RecurrenceSpec):
        report = validate_spec(spec)
        if not report.ok:
            raise PreconditionError(
                "invalid base: " + "; ".join(report.violations)
            )
        self.spec = spec
        self.alpha = dominant_root(spec)
        self.index_set = tuple(
            j for j in range(1, spec.d + 1) if spec.coeffs[j - 1] != 0
        )
        self._terms: list[int] = list(spec.initials)
        self._lock = threading.Lock()

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.spec.coeffs

    @property
    def d(self) -> int:
        return self.spec.d

    def term(self, n: int) -> int:
        """Exact G_n, extending the cache as needed."""
        if n < 0:
            raise PreconditionError("term index must be non-negative")
        if n >= len(self._terms):
            with self._lock:
                self._extend_locked(n)
        return self._terms[n]

    def _extend_locked(self, n: int) -> None:
        a = self.spec.coeffs
        d = self.spec.d
        t = self._terms
        while len(t) <= n:
            k = len(t)
            val = sum(a[i] * t[k - 1 - i] for i in range(d))
            if val >= 1 << (MAX_BITS - 1):
                raise IntegerWidthError(
                    f"G_{k} exceeds the configured {MAX_BITS}-bit width"
                )
            t.append(val)

    def terms_upto(self, limit: int) -> list[int]:
        """All cached terms G_0..G_m with G_m <= limit < G_{m+1}: the cache
        grows until it holds a term above the limit, and since the terms
        increase, m + 1 is the bisection count of those <= limit."""
        terms = self._terms
        while terms[-1] <= limit:
            self.term(len(terms))
        return terms[: bisect.bisect_right(terms, limit)]


def make_context(coeffs, initials=None) -> BaseContext:
    """Build a context; with no initials, use the strengthened defaults."""
    coeffs = tuple(int(c) for c in coeffs)
    if initials is None:
        initials = strengthened_initials(coeffs)
    spec = RecurrenceSpec(coeffs, tuple(int(g) for g in initials))
    return BaseContext(spec)

