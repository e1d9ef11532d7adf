"""The T^2 cone's pinned heat coefficients against their derivation from
the Bordag-Kirsten-Dowker residues (tests/heat_coefficient_oracle.py).

`conekernel.heat_pins` reads the t^(1/2), t^1 and t^(3/2) coefficients
from a table of rationals; the oracle derives them, and the a_1 the pins
take from Branson-Gilkey, in exact arithmetic from the U_k polynomials.
"""

import math
from fractions import Fraction as F

import pytest

from heat_coefficient_oracle import torus_cone_coefficient
from torsionlab import conekernel

TWO_PI = 2 * math.pi
# the exponents derived, a_1 first, as the control the table does not give
ALPHAS = [F(-1, 2), F(1, 2), F(1), F(3, 2)]


def test_oracle_reproduces_the_table():
    """The six rationals of `TORUS_CONE_LATER`, in units A / pi^(3/2) at
    half-integer alpha and A / pi at t^1, and a_1 = A/24 and 3A/8 over
    pi^(3/2), the Branson-Gilkey value the pipeline pins."""
    want = {F(-1, 2): (F(1, 24), F(3, 8)), **conekernel.TORUS_CONE_LATER}
    for alpha, pair in want.items():
        derived = [torus_cone_coefficient(alpha, degree) for degree in (0, 1)]
        assert [c.q for c in derived] == list(pair), alpha
        assert {c.p for c in derived} == {-2 if alpha.denominator == 1 else -3}, alpha


def test_t0_needs_the_lattice_sum():
    """Only t^0 reads zeta_N(-1/2): the oracle refuses it."""
    with pytest.raises(ValueError, match="lattice sum"):
        torus_cone_coefficient(F(0), 0)


@pytest.mark.parametrize("periods, base", [((TWO_PI, TWO_PI), ()), ((TWO_PI, 3 * math.pi), ()),
                                           ((TWO_PI, TWO_PI), (TWO_PI,))],
                         ids=["2pi x 2pi", "2pi x 3pi", "circle x T^2"])
def test_heat_pins_are_the_derived_coefficients(periods, base):
    """In every degree k of the cone and of the circle times it, each pin
    at t^(alpha - b/2) is vol(B) (4 pi)^(-b/2) sum_j C(b, k - j) c_j, c_j
    the oracle's cone coefficient in degree j times A = L1 L2, to 1e-15."""
    b, area = len(base), math.prod(periods)
    m = b + 3
    for k in range(m + 1):
        pins = conekernel.heat_pins(m, k, periods, math.prod(base))
        for alpha in ALPHAS:
            terms = [torus_cone_coefficient(alpha, j) for j in range(4)]
            line = sum(math.comb(b, k - j) * c.q for j, c in enumerate(terms) if j <= k)
            want = math.prod(base) * (4 * math.pi) ** (-b / 2) * area * float(line) \
                * math.pi ** (terms[0].p / 2)
            assert pins[alpha - F(b, 2)].value == pytest.approx(want, rel=1e-15, abs=0.0), (k, alpha)
