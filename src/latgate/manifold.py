"""Obstruction bookkeeping for closed oriented four-manifolds.

A manifold enters as (b1, intersection form).  For a negative definite
unimodular form the pipeline picks the line bundle whose square is the
negated minimal characteristic norm, computes the moduli dimension two
independent ways, and reads off the verdict: k = 0 means the form is minus
the identity (realizable), k >= 1 forces a nonvanishing boundary
characteristic number on a space where it must vanish (forbidden).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .charvec import CharVecResult, min_char_vector
from .core import Definiteness, GramMatrix, _exact, definiteness, is_unimodular, negate, signature
from .errors import (
    BadShapeError,
    InconsistentDimensionError,
    InvalidKError,
    NegativePerturbationNormError,
    NoLoopToSurgerError,
    NotNegativeDefiniteError,
    NotUnimodularError,
)

__all__ = [
    "ManifoldDescriptor",
    "LineBundleClass",
    "ExactSequence",
    "SurgeryCertificate",
    "SurgeryStep",
    "BoundaryNumber",
    "Verdict",
    "ModuliReport",
    "surgery_reduce_b1",
    "reduce_to_b1_zero",
    "choose_line_bundle",
    "virtual_dimension",
    "sw_boundary_number",
    "donaldson_verdict",
    "weitzenbock_bound",
]


@dataclass(frozen=True)
class ManifoldDescriptor:
    """Homological shape of a closed oriented four-manifold: b1 plus the
    intersection form on middle homology (b3 = b1 and b0 = b4 = 1)."""

    b1: int
    form: GramMatrix

    def __post_init__(self) -> None:
        if not isinstance(self.b1, int) or isinstance(self.b1, bool) or self.b1 < 0:
            raise BadShapeError(f"b1 must be a nonnegative integer, got {self.b1!r}")

    @property
    def b2(self) -> int:
        return self.form.rank

    @property
    def sigma(self) -> int:
        return signature(self.form)

    @property
    def chi(self) -> int:
        return 2 - 2 * self.b1 + self.b2


@dataclass(frozen=True)
class LineBundleClass:
    """The determinant line chosen for the reducible solution: its square
    c1^2 and the integer k with c1^2 = -(b2 - 8k)."""

    c1_squared: int
    k: int
    source: CharVecResult


@dataclass(frozen=True)
class ExactSequence:
    name: str
    terms: tuple[tuple[str, int], ...]

    @property
    def alternating_sum(self) -> int:
        total = 0
        for idx, (_, rank) in enumerate(self.terms):
            total += rank if idx % 2 == 0 else -rank
        return total


@dataclass(frozen=True)
class SurgeryCertificate:
    """Rank ledger showing one surgery step keeps middle homology intact."""

    b1_before: int
    b1_after: int
    b2: int
    sequences: tuple[ExactSequence, ...]

    @property
    def rank_preserved(self) -> bool:
        return all(seq.alternating_sum == 0 for seq in self.sequences)


@dataclass(frozen=True)
class SurgeryStep:
    descriptor: ManifoldDescriptor
    certificate: SurgeryCertificate


@dataclass(frozen=True)
class BoundaryNumber:
    value: int
    nonzero: bool


class Verdict(Enum):
    REALIZABLE = "Realizable"
    FORBIDDEN = "Forbidden"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class ModuliReport:
    verdict: Verdict
    reason: str | None
    k: int | None = None
    virtual_dim: int | None = None
    based_dim: int | None = None
    boundary: str | None = None
    sw_number_nonzero: bool | None = None
    line_bundle: LineBundleClass | None = None
    surgery_certificates: tuple[SurgeryCertificate, ...] = ()


def surgery_reduce_b1(m: ManifoldDescriptor) -> SurgeryStep:
    """Trade one circle for a two-sphere: b1 drops by one, the form survives.

    The certificate carries the two splitting sequences for cutting out a
    loop's S1 x B3 neighbourhood and gluing in B2 x S2, with the rank
    ledger summing to zero in both directions.
    """
    if m.b1 <= 0:
        raise NoLoopToSurgerError("b1 is already 0; nothing to surger")
    b2 = m.b2
    cut = ExactSequence(
        name="cut S1xB3",
        terms=(
            ("0", 0),
            ("H2(S1xB3) + H2(X+)", 0 + b2),
            ("H2(X)", b2),
            ("0", 0),
        ),
    )
    glue = ExactSequence(
        name="glue B2xS2",
        terms=(
            ("0", 0),
            ("H2(S1xS2)", 1),
            ("H2(B2xS2) + H2(X+)", 1 + b2),
            ("H2(X')", b2),
            ("0", 0),
        ),
    )
    cert = SurgeryCertificate(
        b1_before=m.b1, b1_after=m.b1 - 1, b2=b2, sequences=(cut, glue)
    )
    if not cert.rank_preserved:
        raise InconsistentDimensionError("surgery rank ledger does not balance")
    after = ManifoldDescriptor(b1=m.b1 - 1, form=m.form)
    if after.chi != m.chi + 2:
        raise InconsistentDimensionError(
            f"Euler characteristic moved by {after.chi - m.chi}, expected +2"
        )
    return SurgeryStep(descriptor=after, certificate=cert)


def reduce_to_b1_zero(m: ManifoldDescriptor) -> ManifoldDescriptor:
    """Apply `surgery_reduce_b1` until b1 = 0; the form never changes."""
    current = m
    while current.b1 > 0:
        current = surgery_reduce_b1(current).descriptor
    return current


def choose_line_bundle(m: ManifoldDescriptor) -> LineBundleClass:
    """Line bundle with c1^2 = -(minimal characteristic norm of -form)."""
    if definiteness(m.form) is not Definiteness.NEGATIVE_DEFINITE:
        raise NotNegativeDefiniteError("line bundle selection needs a negative definite form")
    if not is_unimodular(m.form):
        raise NotUnimodularError("line bundle selection needs determinant +-1")
    result = min_char_vector(negate(m.form))
    return LineBundleClass(c1_squared=-result.norm_m, k=result.k, source=result)


def virtual_dimension(m: ManifoldDescriptor, bundle: LineBundleClass) -> int:
    """Moduli dimension, computed two ways that must agree.

    Index form: (c1^2 - 2*chi - 3*sigma) / 4.  Closed form: 2k - 1 + b1.
    """
    index = bundle.c1_squared - (2 * m.chi + 3 * m.sigma)
    if index % 4 != 0:
        raise InconsistentDimensionError(f"index {index} is not divisible by 4")
    d_index = index // 4
    d_closed = 2 * bundle.k - 1 + m.b1
    if d_index != d_closed:
        raise InconsistentDimensionError(
            f"dimension paths disagree: index form {d_index}, closed form {d_closed}"
        )
    return d_index


def sw_boundary_number(k: int) -> BoundaryNumber:
    """Coefficient of x^(k-1) in the k-truncated mod-2 class ring.

    Computed by genuine polynomial multiplication in F2[x]/(x^k); the class
    x is the generator.  Nonzero for every k >= 1, which is the whole
    obstruction: the number must vanish on anything that bounds.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InvalidKError(f"k must be a positive integer, got {k!r}")
    mask = (1 << k) - 1
    x = 2 & mask  # the generator; k = 1 truncates it to zero
    poly = 1
    for _ in range(k - 1):
        acc = 0
        b = x
        shift = 0
        while b:
            if b & 1:
                acc ^= poly << shift
            b >>= 1
            shift += 1
        poly = acc & mask
    value = (poly >> (k - 1)) & 1
    return BoundaryNumber(value=value, nonzero=bool(value))


# the largest b1 that `donaldson_verdict` surgers away, one certificate per
# step: `donaldson --json` at b1 = 10,000 takes about 0.3 s and 100 MB, and
# at b1 = 10^5 it took 5.2 s and 851 MB
B1_CAP = 10_000

# every definiteness class except negative definite is outside the hypothesis
_NOT_APPLICABLE_REASONS = {
    Definiteness.POSITIVE_DEFINITE:
        "positive definite orientation: no reducible solution to anchor the argument",
    Definiteness.INDEFINITE:
        "indefinite intersection form is outside the negative definite hypothesis",
    Definiteness.DEGENERATE: "degenerate intersection form",
}


def donaldson_verdict(m: ManifoldDescriptor) -> ModuliReport:
    """Full pipeline: surger to b1 = 0, then classify the intersection form.

    Negative definite unimodular forms get the dichotomy treatment; other
    definiteness classes report NotApplicable with the reason.  The report
    keeps one surgery certificate per unit of b1, so a b1 above `B1_CAP` is
    refused (BadShapeError) before any surgery step runs.
    """
    if m.b1 > B1_CAP:
        raise BadShapeError(f"b1 {m.b1} exceeds the cap of {B1_CAP}")
    certificates: list[SurgeryCertificate] = []
    current = m
    while current.b1 > 0:
        step = surgery_reduce_b1(current)
        certificates.append(step.certificate)
        current = step.descriptor

    reason = _NOT_APPLICABLE_REASONS.get(definiteness(current.form))
    if reason is not None:
        return ModuliReport(Verdict.NOT_APPLICABLE, reason,
                            surgery_certificates=tuple(certificates))

    if not is_unimodular(current.form):
        raise NotUnimodularError("intersection forms of closed manifolds are unimodular")

    bundle = choose_line_bundle(current)
    dim = virtual_dimension(current, bundle)
    k = bundle.k
    if k:
        verdict, boundary, number = Verdict.FORBIDDEN, f"CP^{k - 1}", sw_boundary_number(k).nonzero
        reason = ("deleting the reducible point leaves a compact moduli space whose "
                  f"boundary {boundary} carries a nonzero mod-2 characteristic number")
    else:
        verdict, boundary, number = Verdict.REALIZABLE, None, None
        reason = "minimal characteristic norm equals the rank: the form is minus the identity"
    return ModuliReport(
        verdict=verdict,
        reason=reason,
        k=k,
        virtual_dim=dim,
        based_dim=dim + 1,
        boundary=boundary,
        sw_number_nonzero=number,
        line_bundle=bundle,
        surgery_certificates=tuple(certificates),
    )


def weitzenbock_bound(s_min: Fraction | int, p: Fraction | int) -> Fraction:
    """Pointwise spinor-norm bound max(0, 4p - 2*s_min).

    `s_min` is the scalar curvature minimum (any sign), `p` the squared
    perturbation norm (must be >= 0), each an int or a Fraction; a float, a
    bool or a string is refused with BadShapeError, not coerced.  On the
    round sphere (s_min > 0, p = 0) the bound is 0: solutions are forced to
    vanish.
    """
    s_min = _exact(s_min, "s_min")
    p = _exact(p, "p")
    if p < 0:
        raise NegativePerturbationNormError(f"perturbation norm {p} is negative")
    bound = 4 * p - 2 * s_min
    zero = Fraction(0)
    return bound if bound > zero else zero
