"""Power sums and moments of the folded weight family ``x_r ∝ q^r``.

For ``r = 1..N`` the weights ``x_r(q) = q^r / S₀(q)`` form a one-parameter
exponential family in ``θ = ln q``.

The power sums are ``S_k(q) = Σ_{s=1}^N s^k q^s`` for ``k = 0..3``, the
folded moments ``I_k = S_k / S₀``, and the variance ``Var = I₂ − I₁²``.
Because the family is exponential, ``dI₁/dθ = Var`` and
``dI₂/dθ = I₃ − I₁·I₂``.

At every q the sums are the infinite sums less their tail past N::

    S_k = g_k − q^N·e_k,   g_k = Σ_{t≥1} t^k·q^t = q·A_k(q)/(1 − q)^{k+1},
    e_k = Σ_{t≥1} (t + N)^k·q^t = Σ_j C(k, j)·N^{k−j}·g_j,

with the Eulerian polynomials ``A₀ = A₁ = 1``, ``A₂ = 1 + q`` and
``A₃ = 1 + 4q + q²`` (Graham, Knuth & Patashnik, *Concrete Mathematics*
§6.2).  :func:`_shift` forms e from g.  The formula takes one of two lanes,
each written once, and an exact q stays exact:

* an exact q, a :class:`~fractions.Fraction` or a :class:`~.qfield.Q5`
  other than q⋆, as ``q = a/b`` with (a, b) a Fraction's numerator and
  denominator, read as Python ints by :func:`~.qfield._coords`, or (q, 1)
  for a Q5: the formula multiplied through by powers of b and of
  ``c = b − a`` is a polynomial in (a, b)
  (:func:`_exact_numerators`), and each sum is normalised once, by one
  ``Fraction(num, den)`` or one field division; so is each moment and I₂′;
* any other q (:func:`~.qfield._coords` is the one test) enters the float
  lane through :func:`~.floatlaw._as_float` and runs the same formula
  expanded in float order, and its moments divide those sums by S₀.  This
  float lane lives in :mod:`.floatlaw`, with the two-point fit of the
  quadratic law, so that ``schur --fit-law`` loads no exact layer.

The sums, the moments, I₂′ and Λ at the golden point ``q = q⋆`` take the
one route selected by the input: each is read off its form
(:func:`_golden_forms`).  There ``g = (φ⁻¹, 1, √5, 7)`` and, with
``z = φᴺ``, ``q⋆ᴺ = z⁻²``, so ``S_k = g_k − e_k·z⁻²`` and
``I_k = φ·(g_k·z − e_k·z⁻¹)/Y₀``, ``I₂′ = T/Y₀²`` and ``Λ = T/R``, with
``T = (1 + 2√5)·z² − ((N + 1)(N² + 2) + (N² + 4)·√5) + (2N + 1 + 2√5)·z⁻²``,
where ``Y₀ = z − z⁻¹`` is ``√5·F_N`` for even N and ``L_N`` for odd N,
``Y₀² = L_2N − 2`` and ``R = Y₀² − N²``.  Var = (ln S₀)″ in θ collapses at
q⋆ to ``R/Y₀²``.  In Fibonacci and Lucas numbers (Vajda, *Fibonacci & Lucas
Numbers, and the Golden Section*, 1989)::

    Var(N, q⋆) = 1 − N²/(L_2N − 2)
    Λ(N) = N + 1 − √5·(N·F_2N − 2·L_2N + N² + 4)/(L_2N − N² − 2)

Since ``φᴺ = (L_N + F_N·√5)/2``, every coordinate of these values is a
vector of small integers over ``(1, F_N, L_N, F_2N, L_2N)``, over a small
integer times 1, Y₀, Y₀² or R, and each value is its form's three integers
put in lowest terms once.  The values at q⋆ are pure functions of N made of
immutable values, so they are computed once per N per process, in one cache
(:func:`_golden_point`); the last ``_GOLDEN_CACHE_SIZE`` (32) sizes are kept.

The same forms print them.  :func:`_golden_exact_forms` prints them from one
radix conversion each of F_N and L_N, in Decimal arithmetic linear in the
digits, and reduces each fraction by gcds with small integers only
(:func:`_common_factor`).  At N = 10⁴, ``moments --q phi^-2`` converts 2
integers of over 3000 bits, where :func:`~.qfield.exact_forms` converts 36.
``lambda`` and ``stationarity`` print Λ this way too.  ``exact_forms``, which
prints every other exact value, is the oracle the tests hold this route to.

Both lanes and the q⋆ forms fill one :class:`FoldedMoments` record, I₂′
included, so :func:`moments` is the one route to the moments.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import NamedTuple, Sequence, Union

from . import floatlaw
from .qfield import (
    PHI, QSTAR, Q5, SQRT5, _coords, _Digits, _exact_value, _format_linear, _int_max_str_digits,
    _q5,
)

__all__ = [
    "Scalar",
    "FoldedSums",
    "FoldedMoments",
    "sums_closed",
    "moments",
    "folded_weights",
]

Scalar = Union[Fraction, Q5, float]
#: the values the numerators of :func:`sums_closed` are formed in
_Ring = Union[int, Q5]


def _is_golden(q: Scalar) -> bool:
    """Whether q is q⋆, whose values are read off their forms."""
    return type(q) is Q5 and q == QSTAR  # the type first: a float q never compares


def _check_domain(n: int, q: Scalar) -> int:
    """N read by :func:`~.floatlaw._count`, and q checked to satisfy 0 < q < 1."""
    # a normalised Fraction has a positive denominator: its integers decide
    if isinstance(q, Fraction) and 0 < q.numerator < q.denominator:
        return floatlaw._count(n, "N", 1)
    return floatlaw._check_domain(n, q)


class FoldedSums(NamedTuple):
    """Power sums ``S_k = Σ_{s=1}^N s^k q^s`` for k = 0..3."""

    n: int
    q: Scalar
    s0: Scalar
    s1: Scalar
    s2: Scalar
    s3: Scalar

    def as_tuple(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.s0, self.s1, self.s2, self.s3)


class FoldedMoments(NamedTuple):
    """Folded moments ``I_k = S_k/S₀``, the index variance and I₂′.

    The family is exponential in θ = ln q, so ``dI₁/dθ = Var`` and
    ``i2_prime = dI₂/dθ = I₃ − I₁·I₂``.
    """

    n: int
    q: Scalar
    i1: Scalar
    i2: Scalar
    i3: Scalar
    var: Scalar
    i2_prime: Scalar


def sums_closed(n: int, q: Scalar) -> FoldedSums:
    """Closed-form power sums ``S_k = g_k − q^N·e_k`` (module docstring).

    For an exact ``q = a/b``, with (a, b) a Fraction's numerator and
    denominator or (q, 1) for a Q5, ``S_k = a·X_k/(b^N·(b − a)^{k+1})`` with
    integer polynomials X_k in a and b (:func:`_exact_numerators`), each sum
    normalised once, by one ``Fraction(num, den)`` or one field division; it
    agrees with direct summation exactly.  At ``q = q⋆`` the sums are read
    off their forms in F_N and L_N.  An inexact q enters the float lane
    through :func:`~.floatlaw._as_float` and runs the formula in float order.
    """
    n = _check_domain(n, q)
    if _is_golden(q):
        return _golden_point(n).sums
    exact = _exact_value(q)
    if exact is not None:
        return _sums_closed_exact(n, exact)
    q = floatlaw._as_float(q)
    return FoldedSums(n, q, *floatlaw._closed_sums(n, q))


def _shift(g: Sequence[_Ring], m: _Ring) -> tuple[_Ring, _Ring, _Ring, _Ring]:
    """``(Σ_j C(k, j)·m^{k−j}·g_j)`` for k = 0..3: if g holds the sums of
    t^j, these are the sums of ``(t + m)^k``."""
    g0, g1, g2, g3 = g
    mm = m * m
    return (
        g0,
        g1 + m * g0,
        g2 + 2 * m * g1 + mm * g0,
        g3 + 3 * m * g2 + 3 * mm * g1 + mm * m * g0,
    )


def _exact_numerators(n: int, q: Fraction | Q5) -> tuple[_Ring, int, _Ring, tuple[_Ring, ...]]:
    """``(a, b^N, c, (X₀, X₁, X₂, X₃))`` for q = a/b and c = b − a > 0, so that
    ``S_k = a·X_k/(b^N·c^{k+1})``; (a, b) is (numerator, denominator) for a
    Fraction and (q, 1) for a Q5.

    ``g_k = a·Ã_k/c^{k+1}`` with ``Ã_k = b^k·A_k(a/b)``, the Eulerian
    polynomials homogenised, and ``e_k = a·shift(Ã, N·c)_k/c^{k+1}``, so
    ``S_k = g_k − q^N·e_k`` gives ``X_k = b^N·Ã_k − a^N·shift(Ã, N·c)_k``.
    """
    if isinstance(q, Q5):
        a, b = q, 1
    else:
        a, _, b = _coords(q)
    an, bn, c = a**n, b**n, b - a
    eulerian = (1, b, b * (b + a), b * (b * b + 4 * a * b + a * a))
    tail = _shift(eulerian, n * c)
    return a, bn, c, tuple(bn * x - an * y for x, y in zip(eulerian, tail))


def _over(x: int | Q5, d: int | Q5) -> Fraction | Q5:
    """``x/d`` normalised once: a Fraction for ints, one field division for Q5."""
    return Fraction(x, d) if type(x) is int else x / d


def _sums_closed_exact(n: int, q: Fraction | Q5) -> FoldedSums:
    """The closed forms of :func:`sums_closed` on the numerators of an exact q."""
    a, bn, c, xs = _exact_numerators(n, q)
    den = bn * c
    sums = []
    for x in xs:
        sums.append(_over(a * x, den))
        den *= c
    return FoldedSums(n, q, *sums)


def _moments_exact(n: int, q: Fraction | Q5) -> FoldedMoments:
    """The moments of an exact q from the numerators of :func:`sums_closed`,
    one normalisation each: with c = b − a, ``I_k = X_k/(X₀c^k)``,
    ``Var = (X₂X₀ − X₁²)/(X₀c)²`` and ``I₂′ = (X₃X₀ − X₁X₂)/(X₀²c³)``."""
    _, _, c, (x0, x1, x2, x3) = _exact_numerators(n, q)
    d1 = x0 * c
    d2 = d1 * c
    d3 = d2 * c
    return FoldedMoments(
        n, q, _over(x1, d1), _over(x2, d2), _over(x3, d3),
        _over(x2 * x0 - x1 * x1, d1 * d1), _over(x3 * x0 - x1 * x2, x0 * d3),
    )


#: how many sizes N keep their golden-point values for the life of the process
_GOLDEN_CACHE_SIZE = 32
#: Printed integers of at most this many bits are converted to digits
#: directly: there a conversion costs no more than a derivation from the
#: Decimals of F_N and L_N (about 18 µs each at 3000 bits, Python 3.11, 2-CPU
#: Xeon host).
_DIRECT_BITS = 3000
#: Exact integer arithmetic on Decimals: no result here has MAX_PREC digits.
_EXACT = decimal.Context(prec=decimal.MAX_PREC)
#: ``(1, F_N, L_N, F_2N, L_2N)``: every coordinate of a golden-point value of
#: N is an integer vector over these five integers
_Basis = tuple[int, int, int, int, int]


class _Form(NamedTuple):
    """A golden-point value ``(p + q·√5)/d``, each coordinate an integer
    vector over the basis of :class:`_GoldenPoint`, with ``d = k·Dᵖᵒʷᵉʳ`` and
    ``reduction = (D, λ, i, e, c)``: modulo D, ``L_2N ≡ λ`` and
    ``e·w² ≡ c`` for the basis integer w at index i, and every other basis
    integer with an entry in p or q vanishes (see :func:`_common_factor`)."""

    p: list[int]
    q: list[int]
    d: list[int]
    k: int
    power: int
    reduction: tuple[int, int, int, int, int]


class _GoldenPoint(NamedTuple):
    """The golden-point values of N, each read off its form, once per N."""

    basis: _Basis
    forms: dict[str, _Form]
    sums: FoldedSums
    moments: FoldedMoments
    lam: Q5 | None  # Λ, for N ≥ 2


def _dot(vector: Sequence[int], basis: Sequence) -> int:
    return sum(c * x for c, x in zip(vector, basis) if c)


@lru_cache(maxsize=_GOLDEN_CACHE_SIZE)
def _golden_point(n: int) -> _GoldenPoint:
    """The basis, the forms and the values of the golden point of N, from one
    power ``φᴺ = (L_N + F_N·√5)/2`` (Knuth, *TAOCP* vol. 1 §1.2.8).

    Each value is ``(p·basis + q·basis·√5)/(d·basis)`` for its form's
    vectors, put in lowest terms once.
    """
    up = PHI**n
    f, lucas = int(2 * up.b), int(2 * up.a)
    basis = (1, f, lucas, f * lucas, lucas * lucas + (2 if n & 1 else -2))
    forms = _golden_forms(n, basis)
    values = {
        name: _q5(_dot(form.p, basis), _dot(form.q, basis), _dot(form.d, basis))
        for name, form in forms.items()
    }
    return _GoldenPoint(
        basis, forms,
        FoldedSums(n, QSTAR, *map(values.get, FoldedSums._fields[2:])),
        FoldedMoments(n, QSTAR, *map(values.get, FoldedMoments._fields[2:])),
        values.get("lambda"),
    )


def _golden_forms(n: int, basis: _Basis) -> dict[str, _Form]:
    """The forms of the golden-point values of N, by name: ``s0``…``s3``,
    ``i1``…``i3``, ``var``, ``i2_prime`` and ``lambda`` (Λ, for N ≥ 2).

    With ``z = φᴺ = q⋆^{−N/2}``, the sums are read off four constants,
    ``g_k = Σ_{t≥1} t^k·q⋆^t``, the Eulerian-polynomial sums at q⋆:
    ``g = (φ⁻¹, 1, √5, 7)``.  The tail past N is ``q⋆ᴺ·e_k`` with
    ``e = _shift(g, N)``, as at every q, so ``S_k = g_k − e_k·z⁻²``, and with
    ``S₀ = φ⁻¹z⁻¹·Y₀`` for ``Y₀ = z − z⁻¹``, ``I_k = φ·(g_k·z − e_k·z⁻¹)/Y₀``.
    Then ``Var = R/Y₀²``, ``I₂′ = I₃ − I₁·I₂ = T/Y₀²`` and ``Λ = T/R``, with
    ``Y₀² = z² − 2 + z⁻²``, ``R = Y₀² − N²`` and::

        T = (1 + 2√5)·z² − ((N + 1)(N² + 2) + (N² + 4)·√5) + (2N + 1 + 2√5)·z⁻²

    that is ``T = (N + 1)·R − √5·(N·F_2N − 2·L_2N + N² + 4)``.  These are
    Laurent polynomials in z of degree at most 2 with small coefficients in
    Q(√5).  Since ``z^{±1} = (±1)ᴺ(L_N ± F_N·√5)/2`` and
    ``z^{±2} = (L_2N ± F_2N·√5)/2``, each coordinate is an integer vector over
    ``(1, F_N, L_N, F_2N, L_2N)``, over a small integer times 1, Y₀, Y₀² or R;
    its entries have at most 44 bits up to N = 10⁴ + 1.
    """
    odd, nn = n & 1, n * n
    sign = -1 if odd else 1
    # z^j = (P + Q·√5)/2, with P and Q as (basis index, sign)
    halves = {
        0: ((0, 2), (0, 0)), 1: ((2, 1), (1, 1)), -1: ((2, sign), (1, -sign)),
        2: ((4, 1), (3, 1)), -2: ((4, 1), (3, -1)),
    }

    def form(terms: dict[int, _Ring], over: tuple) -> _Form:
        """``Σ c_j·z^j`` divided by ``over``: the divisor as a basis vector,
        its quotient by ``modulusᵖᵒʷᵉʳ``, that power, and the reduction modulo
        the modulus."""
        coords = [(j, _coords(c)) for j, c in terms.items()]
        den = math.lcm(*(2 * d for _, (_, _, d) in coords))
        p, q = [0] * 5, [0] * 5
        for j, (cp, cq, cd) in coords:
            (i, si), (k, sk) = halves[j]
            w = den // (2 * cd)
            p[i] += w * si * cp
            p[k] += 5 * w * sk * cq
            q[i] += w * si * cq
            q[k] += w * sk * cp
        vector, unit, power, reduction = over
        return _Form(p, q, [den * x for x in vector], den * unit, power, reduction)

    # Y₀ is A = L_N (odd N) or √5·A with A = F_N (even N): Y₀² = y·A², and
    # modulo A, L_2N = Y₀² + 2 ≡ 2 while the other of F_N, L_N, w, has
    # (5/y)·w² = Y₀² + 4 ≡ 4
    a, y, root = (2, 1, 1) if odd else (1, 5, SQRT5)
    on_a = (basis[a], 2, 3 - a, 5 // y, 4)
    # modulo R, L_2N ≡ N² + 2 and 5·F_2N² = L_2N² − 4 ≡ N²(N² + 4)
    on_r = (basis[4] - 2 - nn, nn + 2, 3, 5, nn * (nn + 4))
    one = ([1, 0, 0, 0, 0], 1, 1, (1, 0, 0, 0, 0))
    y0 = ([y * (i == a) for i in range(5)], y, 1, on_a)  # y·A
    y0_squared = ([-2, 0, 0, 0, 1], y, 2, on_a)
    r = ([-2 - nn, 0, 0, 0, 1], 1, 1, on_r)
    g = (PHI - 1, 1, SQRT5, 7)
    e = _shift(g, n)
    t = {2: 1 + 2 * SQRT5, 0: -(n + 1) * (nn + 2) - (nn + 4) * SQRT5, -2: 2 * n + 1 + 2 * SQRT5}
    forms = {
        "var": form({2: 1, 0: -2 - nn, -2: 1}, y0_squared),
        "i2_prime": form(t, y0_squared),
    }
    if n > 1:  # R = 0 at N = 1
        forms["lambda"] = form(t, r)
    phi_root = PHI * root  # φ/Y₀ = φ·root/(y·A)
    for k in range(4):
        forms[f"s{k}"] = form({0: g[k], -2: -e[k]}, one)
        if k:
            forms[f"i{k}"] = form({1: phi_root * g[k], -1: -phi_root * e[k]}, y0)
    return forms


def _common_factor(x: int, vector: Sequence[int], form: _Form) -> int:
    """``gcd(x, d)`` for ``x = vector·basis`` and the denominator ``d`` of
    ``form``, from gcds with small integers only.

    Modulo ``D``, ``x ≡ a + b·w`` with ``a = x₀ + λ·x₄`` and b the entry of
    w: modulo Y₀'s integer (F_N or L_N) it and F_2N vanish, and Λ's T is
    even in φᴺ, with no entry on F_N or L_N.  So a common divisor of x and D
    divides ``(a + bw)(a − bw)·e ≡ e·a² − c·b²`` (for ``D = F_N``, with
    ``L_N² ≡ 4(−1)ᴺ``, this is ``a² − 4(−1)ᴺb²``).  Then ``gcd(x, D)`` divides
    ``h = gcd(D, e·a² − c·b²)``, found by one division of D by a small
    integer; ``gcd(x, D²)`` divides ``gcd(x, D)²``; and so
    ``gcd(x, k·Dᵖ) = gcd(x, k·hᵖ)``, a gcd with a small integer.  Where
    ``e·a² = c·b²``, h is D and this is ``math.gcd(x, d)``.
    """
    modulus, lam, i, e, c = form.reduction
    a, b = vector[0] + lam * vector[4], vector[i]
    return math.gcd(x, form.k * math.gcd(modulus, e * a * a - c * b * b) ** form.power)


def _golden_exact_forms(n: int, names: Sequence[str]) -> tuple[str, ...]:
    """:func:`~.qfield.exact_forms` of the golden-point values of N named by
    ``names`` (keys of :func:`_golden_forms`), from the digits of F_N and L_N.

    Each printed integer is ``x/g`` for a form's ``x = vector·basis`` and
    ``g`` from :func:`_common_factor`.  One above ``_DIRECT_BITS`` bits is
    derived in :class:`decimal.Decimal` arithmetic, linear in the digits:
    F_N and L_N are converted once, F_2N = F_N·L_N and L_2N = L_N² ∓ 2 are
    multiplied once, and every integer is a sum of small multiples of them,
    divided by g.  So ``moments --q phi^-2 --N 10000`` converts 2 integers of
    over 3000 bits, not 36, and takes no gcd of two large integers.  Under a
    set int→str digit limit, a derived string past it is replaced by
    ``str(k)``, which raises as str does.
    """
    point = _golden_point(n)
    basis = point.basis
    digits = _Digits()
    decimals: list = []
    limit = _int_max_str_digits()

    def derive(vector: Sequence[int], k: int, g: int) -> None:
        """File the digits of a large ``k = |vector·basis|/g``."""
        if k.bit_length() <= _DIRECT_BITS or k in digits:
            return
        if not decimals:
            f, lucas = (decimal.Decimal(digits[x]) for x in basis[1:3])
            lucas2 = _EXACT.add(_EXACT.multiply(lucas, lucas), 2 if n & 1 else -2)
            decimals.extend((1, f, lucas, _EXACT.multiply(f, lucas), lucas2))
        terms = [_EXACT.multiply(x, c) for c, x in zip(vector, decimals) if c]
        text = str(_EXACT.divide_int(reduce(_EXACT.add, terms), g).copy_abs())
        digits[k] = str(k) if 0 < limit < len(text) else text  # str(k) raises there

    forms = []
    for name in names:
        form = point.forms[name]
        p, q, d = form.p, form.q, form.d
        den = _dot(d, basis)
        pairs = []
        for vector in (p, q, [x + 3 * y for x, y in zip(p, q)], [-2 * y for y in q]):
            x = _dot(vector, basis)
            g = _common_factor(x, vector, form)
            pairs.append((x // g, den // g))
            derive(vector, abs(pairs[-1][0]), g)
            derive(d, pairs[-1][1], g)
        forms += ((pairs[0], pairs[1], "√5"), (pairs[2], pairs[3], "q⋆"))
    return tuple(_format_linear(*forms, digits=digits))


def moments(n: int, q: Scalar) -> FoldedMoments:
    """Folded moments I₁, I₂, I₃, Var and I₂′ at (N, q), exact for exact q.

    A Fraction q and a Q5 q form each value from the numerators of the power
    sums, and q⋆ reads it off its form in F_N and L_N; there
    ``Var = 1 − N²/(L_2N − 2)``.  An inexact q (:func:`~.floatlaw._as_float`)
    divides the closed-form sums by S₀.
    """
    n = _check_domain(n, q)
    if _is_golden(q):
        return _golden_point(n).moments
    exact = _exact_value(q)
    if exact is not None:
        return _moments_exact(n, exact)
    q = floatlaw._as_float(q)
    return FoldedMoments(n, q, *floatlaw._float_moments(n, q))


def folded_weights(n: int, q: Scalar) -> list[Scalar]:
    """The normalized weights ``x_r = q^r / S₀``, r = 1..N (they sum to 1), in
    the lane that :func:`sums_closed` takes q to."""
    sums = sums_closed(n, q)
    q, s0 = sums.q, sums.s0
    out = []
    p = q * 0 + 1
    for _ in range(sums.n):
        p = p * q
        out.append(p / s0)
    return out

