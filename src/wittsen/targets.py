"""Expected values and closed-form patterns for the named checks.

Every target is stated by what it asserts about the computation; the check
functions in cli.py compare computed objects against these. Closed forms that
a check evaluates itself stay in that check: the polynomials of
fgl.right-unit and fgl.b4, built from their ring's variables, and the
homology patterns of the sen.* checks, of which only the grids live here.
"""

from fractions import Fraction

# --- Witt identity suite ----------------------------------------------------

GABBER_PRIMES = (2, 3, 5)

# first components of the ghost-(1 - p^(p^(j+1)-1)) vector, small cases
GABBER_Y_SMALL = {
    (2, 1): (-1,),
    (3, 2): (-8, -2016),
}

PN_VANISHING_GRID = [(p, n) for p in (2, 3) for n in range(1, 5)]
PN_VANISHING_LENGTH = 6

# solve-frobenius: odd primes succeed with a unit; p = 2 fails at stage 2
FROBENIUS_PREIMAGE_ODD = (3, 5)
FROBENIUS_PREIMAGE_FAIL_STAGE = 2
FROBENIUS_PREIMAGE_FAIL_WITNESS = {"lhs_coefficient": 4, "rhs_balanced": -2,
                                   "modulus": 8}
FROBENIUS_PREIMAGE_TEICH_POWERS = (2, 3)

# --- formal group laws -------------------------------------------------------

Q_IDENTITY_MAX = 20

# (p, n, m) with p^(nm) <= 64: divided p^m-series = v^((p^(nm)-1)/(p^n-1)) h^(p^(nm)-1)
HONDA_GRID = [
    (p, n, m)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    for n in range(1, 7)
    for m in range(1, 7)
    if p ** (n * m) <= 64
]

# --- homology patterns -------------------------------------------------------

BOKSTEDT_PRIMES = (2, 3, 5)
BOKSTEDT_J_MAX = 20

CMN_GRID = ((2, 1), (2, 2), (3, 1), (3, 2))
CMN_K_MAX = 15

PERFECTOID_PRIMES = (2, 3, 5)
PERFECTOID_DEGREE_FACTOR = 20  # degrees up to 20p

ZPN_P = 3
ZPN_NS = (2, 3)
ZPN_K_MAX = 15

DVR_CASES = [
    {"p": 3, "E": [-3, 1]},        # u - 3
    {"p": 3, "E": [-3, 0, 1]},     # u^2 - 3
    {"p": 3, "E": [-3, 0, 0, 1]},  # u^3 - 3
    {"p": 2, "E": [-2, 0, 1]},     # u^2 - 2
]
DVR_J_MAX = 10

# --- operator calculus -------------------------------------------------------

PSI_M_MAX = 200
PSI_J_MAX = 4
PSI_PRIMES = (2, 3, 5)
PSI_TENSOR_SAMPLES = 100

# (p, levels n, monomial bound): commutators checked for p^j with j < n
WEYL_GRID = ((2, 4, 50), (3, 4, 50))

DELTA_RING = {"p": 3, "n": 1, "B": 2}

CARTIER_SAMPLES = 50
CARTIER_PRIMES = (2, 3)
CARTIER_DEGREE = 8

DWORK_DEGREE = 8


def psi2_display(p: int, m: int) -> Fraction:
    """The displayed second component, evaluated at x d/dx = m:
    (m / p^2)(1 - m^(p^2-1) - s / p^(p-1)) with
    s = sum_j (-1)^j C(p, j) m^((p-1)(j+1)), in integers over one division."""
    from math import comb

    s = sum(
        (-1) ** j * comb(p, j) * m ** ((p - 1) * (j + 1))
        for j in range(p + 1)
    )
    return Fraction(m * (p ** (p - 1) * (1 - m ** (p**2 - 1)) - s), p ** (p + 1))
