"""Exact scalar and linear-algebra substrate.

Everything here is exact: arbitrary-precision integers (Python ``int``),
rationals (``fractions.Fraction``), residues mod p^N, truncated multivariate
polynomials, and Smith normal form over Z and over local PIDs such as the
p-local integers.
No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial


class InvalidInputError(ValueError):
    pass


class PrecisionError(ValueError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")


def int_valuation(p: int, m: int) -> int:
    """p-adic valuation of a nonzero integer; raises on 0."""
    if m == 0:
        raise InvalidInputError("valuation of 0 is undefined")
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def fraction_valuation(p: int, x: Fraction | int) -> int:
    x = Fraction(x)
    if x == 0:
        raise InvalidInputError("valuation of 0 is undefined")
    return int_valuation(p, x.numerator) - int_valuation(p, x.denominator)


def factorial_valuation(p: int, k: int) -> int:
    """v_p(k!) by Legendre: (k - digit-sum_p(k)) / (p-1)."""
    require_prime(p)
    if k < 0:
        raise InvalidInputError("k must be a natural number")
    s, m = 0, k
    while m:
        s += m % p
        m //= p
    return (k - s) // (p - 1)


# ---------------------------------------------------------------------------
# truncated multivariate polynomials


@dataclass(frozen=True)
class PolyRing:
    """Descriptor for a truncated polynomial/series ring.

    ``bounds[i]`` is the max exponent stored for variable i (None = no cap);
    ``total_bound`` caps the summed exponent of the variables flagged in
    ``counted`` (coefficient-like variables are usually left uncounted).
    ``modulus`` = 0 means characteristic zero (int/Fraction coefficients).
    ``degrees`` is bookkeeping used by graded callers.
    """

    vars: tuple[str, ...]
    bounds: tuple = None
    total_bound: int = None
    counted: tuple = None
    modulus: int = 0
    degrees: tuple = None

    def __post_init__(self):
        n = len(self.vars)
        if self.bounds is None:
            object.__setattr__(self, "bounds", (None,) * n)
        if self.counted is None:
            object.__setattr__(self, "counted", (True,) * n)
        if self.degrees is None:
            object.__setattr__(self, "degrees", (0,) * n)

    def index(self, name: str) -> int:
        return self.vars.index(name)

    def keeps(self, mono: tuple) -> bool:
        for e, b in zip(mono, self.bounds):
            if b is not None and e > b:
                return False
        if self.total_bound is not None:
            if sum(e for e, c in zip(mono, self.counted) if c) > self.total_bound:
                return False
        return True

    def reduce_coeff(self, c):
        if self.modulus:
            if isinstance(c, Fraction):
                if c.denominator % self.modulus == 0:
                    raise InvalidInputError("denominator not invertible mod modulus")
                c = c.numerator * pow(c.denominator, -1, self.modulus)
            return c % self.modulus
        if isinstance(c, Fraction) and c.denominator == 1:
            return c.numerator
        return c


class TruncPoly:
    """Sparse polynomial over PolyRing; monomials above a bound are dropped."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict = None):
        self.ring = ring
        cleaned = {}
        for mono, c in (terms or {}).items():
            if not ring.keeps(mono):
                continue
            c = ring.reduce_coeff(c)
            if c:
                cleaned[mono] = c
        self.terms = cleaned

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring):
        return TruncPoly(ring, {})

    @staticmethod
    def const(ring, c):
        return TruncPoly(ring, {(0,) * len(ring.vars): c})

    @staticmethod
    def var(ring, name, exp=1):
        mono = [0] * len(ring.vars)
        mono[ring.index(name)] = exp
        return TruncPoly(ring, {tuple(mono): 1})

    # -- basics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono: tuple):
        return self.terms.get(tuple(mono), 0)

    def constant_term(self):
        return self.terms.get((0,) * len(self.ring.vars), 0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncPoly.const(self.ring, other)
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncPoly.const(self.ring, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return TruncPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncPoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncPoly.const(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return TruncPoly.const(self.ring, other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncPoly(self.ring, {m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                if self.ring.keeps(m):
                    out[m] = out.get(m, 0) + c1 * c2
        return TruncPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        result = TruncPoly.const(self.ring, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def map_coeffs(self, f):
        return TruncPoly(self.ring, {m: f(c) for m, c in self.terms.items()})

    def exact_div_int(self, d: int):
        """Divide every coefficient by d, insisting on exactness over Z."""
        out = {}
        for m, c in self.terms.items():
            if isinstance(c, int):
                q, r = divmod(c, d)
                if r:
                    raise InvalidInputError(f"coefficient {c} not divisible by {d}")
                out[m] = q
            else:
                out[m] = c / d
        return TruncPoly(self.ring, out)

    def substitute(self, assignment: dict):
        """Replace variables by polynomials or scalars.

        The result lives in the ring of the first polynomial value, else in
        this ring. Unassigned variables keep their exponents (and must exist
        in the result ring); assigned names missing from this ring are
        ignored. Each assigned variable's powers are built once, one product
        per power, stopping where truncation makes a power zero.
        """
        ring = next((v.ring for v in assignment.values() if isinstance(v, TruncPoly)),
                    self.ring)
        # per source variable: a list of powers of its value, or the index of
        # the result-ring variable that carries its exponent
        tables = []
        for i, name in enumerate(self.ring.vars):
            top = max((m[i] for m in self.terms), default=0)
            if name not in assignment:
                tables.append(ring.index(name) if top else None)
                continue
            val = assignment[name]
            if not isinstance(val, TruncPoly):
                val = TruncPoly.const(ring, val)
            powers = [TruncPoly.const(ring, 1)]
            while len(powers) <= top and powers[-1].terms:
                powers.append(powers[-1] * val)
            tables.append(powers)
        out = {}
        for mono, c in self.terms.items():
            shift = [0] * len(ring.vars)
            term = None
            for e, table in zip(mono, tables):
                if not e:
                    continue
                if isinstance(table, int):
                    shift[table] += e
                    continue
                # a table cut short ends in the zero power, which stands for
                # every higher power as well
                power = table[min(e, len(table) - 1)]
                term = power if term is None else term * power
            items = term.terms.items() if term is not None else [((0,) * len(shift), 1)]
            for m, a in items:
                m = tuple(x + y for x, y in zip(m, shift))
                if ring.keeps(m):
                    out[m] = out.get(m, 0) + c * a
        return TruncPoly(ring, out)

    def derivative(self, name: str):
        i = self.ring.index(name)
        out = {}
        for m, c in self.terms.items():
            if m[i]:
                m2 = list(m)
                m2[i] -= 1
                out[tuple(m2)] = c * m[i]
        return TruncPoly(self.ring, out)

    # -- series operations (rely on truncation nilpotence) ------------------

    def _power_sum(self, coeff):
        """sum_(k >= 1) coeff(k) * self^k, stopping where self^k truncates to 0."""
        out = TruncPoly.zero(self.ring)
        power, k = self, 1
        while power.terms:
            out = out + power * coeff(k)
            power, k = power * self, k + 1
        return out

    def series_exp(self):
        if self.constant_term() != 0:
            raise InvalidInputError("exp needs constant term 0")
        return 1 + self._power_sum(lambda k: Fraction(1, factorial(k)))

    def series_log(self):
        if self.constant_term() != 1:
            raise InvalidInputError("log needs constant term 1")
        return (self - 1)._power_sum(lambda k: Fraction((-1) ** (k + 1), k))

    def series_inverse(self):
        c0 = self.constant_term()
        if c0 == 0:
            raise InvalidInputError("no series inverse: constant term 0")
        inv0 = 1 / Fraction(c0)
        g = (self - c0) * inv0
        return (1 + g._power_sum(lambda k: (-1) ** k)) * inv0

    def min_p_valuation(self, p: int):
        """Minimum v_p over coefficients; None for the zero polynomial."""
        vals = [fraction_valuation(p, c) for c in self.terms.values()]
        return min(vals) if vals else None

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            vs = "*".join(
                f"{n}^{e}" if e > 1 else n
                for n, e in zip(self.ring.vars, m)
                if e
            )
            bits.append(f"{c}" if not vs else (f"{c}*{vs}" if c != 1 else vs))
        return " + ".join(bits)


def univariate_ring(name: str, bound: int, modulus: int = 0) -> PolyRing:
    return PolyRing(vars=(name,), bounds=(bound,), modulus=modulus)


def truncated_exp_log(f: TruncPoly, mode: str) -> TruncPoly:
    """Formal exp/log by mode name. The library calls the TruncPoly methods;
    this entry point stays because the benchmark's tracing and its tests
    (bench/tracing.py, bench/test_bench.py) look it up by name."""
    if mode == "exp":
        return f.series_exp()
    if mode == "log":
        return f.series_log()
    raise InvalidInputError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Smith normal form over Z (divisors only)


@dataclass
class IntMatrix:
    """Dense rectangular integer matrix."""

    rows: int
    cols: int
    entries: list

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise InvalidInputError("ragged matrix")

    @staticmethod
    def from_rows(rows: list) -> "IntMatrix":
        return IntMatrix(len(rows), len(rows[0]) if rows else 0, [list(r) for r in rows])


@dataclass
class SmithDecomposition:
    divisors: list


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Elementary divisors d_1 | d_2 | ... of an integer matrix, min(rows, cols)
    of them, nonnegative, zeros last.

    Euclidean elimination: the pivot is an entry of least absolute value, and
    a row is added to the pivot row until the pivot divides the rest of the
    block. No transforms are kept. Entries can grow; Kannan-Bachem (SIAM J.
    Comput. 8, 1979) bound the growth of a polynomial-time variant.
    """
    n, m = A.rows, A.cols
    a = [list(r) for r in A.entries]
    for s in range(min(n, m)):
        while True:
            # leftmost-topmost entry of minimal absolute value in the block
            best = None
            for j in range(s, m):
                for i in range(s, n):
                    x = abs(a[i][j])
                    if x and (best is None or x < best[0]):
                        best = (x, i, j)
            if best is None:
                break
            _, bi, bj = best
            a[s], a[bi] = a[bi], a[s]
            for row in a:
                row[s], row[bj] = row[bj], row[s]
            if a[s][s] < 0:
                a[s] = [-x for x in a[s]]
            piv = a[s][s]
            dirty = False
            for i in range(s + 1, n):
                if a[i][s]:
                    f = a[i][s] // piv
                    a[i] = [x - f * y for x, y in zip(a[i], a[s])]
                    dirty = dirty or a[i][s] != 0
            for j in range(s + 1, m):
                if a[s][j]:
                    f = a[s][j] // piv
                    for row in a:
                        row[j] -= f * row[s]
                    dirty = dirty or a[s][j] != 0
            if dirty:
                continue
            # enforce divisibility of the remaining block by the pivot
            fix = next((i for i in range(s + 1, n)
                        if any(a[i][j] % piv for j in range(s + 1, m))), None)
            if fix is None:
                break
            a[s] = [x + y for x, y in zip(a[s], a[fix])]
    return SmithDecomposition([a[i][i] for i in range(min(n, m))])


# ---------------------------------------------------------------------------
# exact SNF over a local PID: the engine behind all homology computations.
#
# A ring is given by an ops object with the attributes zero and one and the
# methods is_zero, val, div, add, sub and mul; val is the valuation of a
# nonzero element and div(a, b) is exact when val(a) >= val(b).


class PLocalOps:
    """Z_(p) viewed inside Q: Fraction (or int) elements."""

    def __init__(self, p: int):
        require_prime(p)
        self.p = p

    zero = Fraction(0)
    one = Fraction(1)

    def is_zero(self, x) -> bool:
        return x == 0

    def val(self, x) -> int:
        return fraction_valuation(self.p, x)

    def div(self, a, b):
        return Fraction(a) / Fraction(b)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b


def local_snf(ops, rows: list, ncols: int = None) -> tuple:
    """SNF over a local PID given by `ops`.

    Returns (exponents, rank, Vinv): exponents are the uniformizer-valuations
    of the nonzero diagonal (nondecreasing by minimal-valuation pivoting) and
    Vinv is the tracked inverse of the right transform, so that the columns
    of V beyond the rank span ker and coordinates of a kernel vector in the
    V-basis are Vinv @ vector.
    """
    a = [list(r) for r in rows]
    n = len(a)
    m = ncols if ncols is not None else (len(a[0]) if a else 0)
    vinv = [[ops.one if i == j else ops.zero for j in range(m)] for i in range(m)]
    rank = 0
    exps = []
    for s in range(min(n, m)):
        best = None
        for j in range(s, m):
            for i in range(s, n):
                if not ops.is_zero(a[i][j]):
                    v = ops.val(a[i][j])
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            break
        v, bi, bj = best
        if bi != s:
            a[s], a[bi] = a[bi], a[s]
        if bj != s:
            for r in range(n):
                a[r][s], a[r][bj] = a[r][bj], a[r][s]
            vinv[s], vinv[bj] = vinv[bj], vinv[s]
        piv = a[s][s]
        for i in range(s + 1, n):
            if not ops.is_zero(a[i][s]):
                f = ops.div(a[i][s], piv)
                a[i] = [ops.sub(x, ops.mul(f, y)) for x, y in zip(a[i], a[s])]
        for j in range(s + 1, m):
            if not ops.is_zero(a[s][j]):
                f = ops.div(a[s][j], piv)
                for r in range(n):
                    a[r][j] = ops.sub(a[r][j], ops.mul(f, a[r][s]))
                # col_j -= f*col_s  =>  row_s of Vinv += f*row_j
                vinv[s] = [ops.add(x, ops.mul(f, y)) for x, y in zip(vinv[s], vinv[j])]
        exps.append(v)
        rank += 1
    return exps, rank, vinv


def matrix_product(ops, P, Q, ncols: int) -> list:
    """P*Q over the ops ring: len(P) rows of ncols entries; zeros are skipped."""
    out = []
    for row in P:
        acc = [ops.zero] * ncols
        for x, qrow in zip(row, Q):
            if not ops.is_zero(x):
                for j, y in enumerate(qrow):
                    if not ops.is_zero(y):
                        acc[j] = ops.add(acc[j], ops.mul(x, y))
        out.append(acc)
    return out
