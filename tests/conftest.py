"""Shared fixtures: the bundled 3x7 reference instance and graph generators."""

import random

import pytest

from graphcodes import GF, ConstraintGraph

# The bundled demo instance over GF(7) and its known-good artifacts
# (frozen independently of the constants shipped inside the package).
REF_ROWS = (
    (1, 0, 0, 1, 1, 1, 1),
    (1, 1, 1, 0, 1, 1, 1),
    (0, 0, 1, 1, 1, 1, 1),
)
REF_MATCHED = (
    (1, 0, 0, 1, 1, 1, 1),
    (0, 1, 0, 0, 1, 1, 1),
    (0, 0, 1, 1, 1, 1, 1),
)
REF_T = (
    (1, 1, 5, 0),
    (0, 3, 1, 4),
    (0, 1, 6, 0),
)
REF_G = (
    (1, 0, 0, 2, 5, 1, 5),
    (0, 1, 0, 0, 1, 4, 1),
    (0, 0, 1, 5, 5, 2, 1),
)
REF_NODES = (0, 1, 3, 2, 6, 4, 5)
# four fully connected columns, so k_min = 3 >= r_M = 3 and every mode builds
ALL_MODES_ROWS = (
    (1, 0, 0, 1, 1, 1, 1),
    (0, 1, 0, 1, 1, 1, 1),
    (0, 0, 1, 1, 1, 1, 1),
)


@pytest.fixture
def gf7():
    return GF(7)


@pytest.fixture
def ref_graph():
    return ConstraintGraph.from_rows(REF_ROWS)


def random_graph(rng: random.Random, s: int, n: int, density: float = 0.5) -> ConstraintGraph:
    """Random s x n constraint graph with no empty rows or columns."""
    rows = [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(s)]
    for i in range(s):
        if not any(rows[i]):
            rows[i][rng.randrange(n)] = 1
    for j in range(n):
        if not any(rows[i][j] for i in range(s)):
            rows[rng.randrange(s)][j] = 1
    return ConstraintGraph.from_rows(rows)


def random_dims(rng: random.Random, s_max: int, n_max: int, s_min: int = 1):
    """(s, n) with s_min <= s <= s_max and s <= n <= n_max."""
    s = rng.randint(s_min, s_max)
    return s, rng.randint(s, n_max)
