import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, Phase, settings, strategies as st

from cubeforms.forms import DiffForm, enumerate_sigma
from cubeforms.mapping import map_from_vertices

settings.register_profile(
    "cubeforms",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
# The same settings without shrinking, for mutation checks, where a failing
# example is expected and its shrinking can take minutes:
#     pytest --hypothesis-profile=cubeforms-noshrink
settings.register_profile(
    "cubeforms-noshrink",
    settings.get_profile("cubeforms"),
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
settings.load_profile("cubeforms")


def form_strategy(n: int, k: int, max_exp: int = 2, max_terms: int = 3):
    """Small polynomial k-forms with exact rational coefficients."""
    sigmas = enumerate_sigma(k, n)
    term = st.tuples(
        st.sampled_from(sigmas),
        st.tuples(*([st.integers(0, max_exp)] * n)),
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
    )

    def build(terms):
        f = DiffForm.zero(n, k)
        for sigma, exps, c in terms:
            f = f + DiffForm.monomial_form(n, sigma, exps, c)
        return f

    return st.lists(term, min_size=0, max_size=max_terms).map(build)


def naive_product(p, q) -> dict:
    """Terms of p * q by a Fraction double loop, cancelled terms dropped;
    the reference for the integer product of Polynomial.__mul__."""
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def nk_pairs(max_n: int = 3):
    return [(n, k) for n in range(1, max_n + 1) for k in range(n + 1)]


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def screen_counterexample():
    """A trilinear map whose det DF is positive at the 2^3 corners and on the
    5^3 grid of ticks i/4, yet negative at (1/8, 0, 0)."""
    F = Fraction
    return map_from_vertices(
        {
            (0, 0, 0): (F(3, 4), F(3, 8), F(-1, 8)),
            (0, 0, 1): (F(3, 8), F(-1, 8), F(3, 8)),
            (0, 1, 0): (0, F(3, 4), F(1, 8)),
            (0, 1, 1): (F(-1, 4), F(5, 8), F(3, 2)),
            (1, 0, 0): (F(11, 8), F(-1, 2), 0),
            (1, 0, 1): (F(13, 8), F(-1, 4), F(13, 8)),
            (1, 1, 0): (F(7, 8), F(13, 8), F(-1, 4)),
            (1, 1, 1): (F(3, 4), 1, F(9, 8)),
        }
    )


def vertex_strategy(n: int, spread: int = 2, max_denominator: int = 12):
    """Corner positions alpha -> alpha + offset with mixed-denominator
    rational offsets in [-spread/4, spread/4]^n; small spreads give mostly
    valid maps, large ones mostly folded maps."""
    corners = list(product((0, 1), repeat=n))
    offset = st.fractions(
        min_value=Fraction(-spread, 4), max_value=Fraction(spread, 4), max_denominator=max_denominator
    )

    def build(offsets):
        return {
            alpha: tuple(a + o for a, o in zip(alpha, offs))
            for alpha, offs in zip(corners, offsets)
        }

    return st.tuples(*([st.tuples(*([offset] * n))] * len(corners))).map(build)
