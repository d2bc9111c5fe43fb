"""Fine's theorem against a linear program.

A table is local exactly when it is a convex mixture of the 16 deterministic
strategy tables.  `lp_local` decides that by LP feasibility, independently of
`local_polytope_check`, which uses no-signaling plus the eight CHSH facets.
The LP's primal feasibility tolerance is LP_TOL; the tables here sit inside
the polytope, on its boundary, or far further than LP_TOL outside it.
"""

import numpy as np
import pytest

from invbell.lhv import ConditionalTable, enumerate_strategies, local_polytope_check, pr_box_table, strategy_table

linprog = pytest.importorskip("scipy.optimize").linprog

LP_TOL = 1e-9

STRATEGY_TABLES = [strategy_table(s).entries for s, _ in enumerate_strategies()]

# Columns are the 16 strategy tables, flattened; the last row makes the weights sum to one.
_A_EQ = np.vstack([np.column_stack([t.reshape(16) for t in STRATEGY_TABLES]), np.ones(16)])


def lp_local(table: ConditionalTable) -> bool:
    b_eq = np.append(table.entries.reshape(16), 1.0)
    result = linprog(
        np.zeros(16), A_eq=_A_EQ, b_eq=b_eq, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": LP_TOL},
    )
    return result.status == 0


def polytope_local(table: ConditionalTable) -> bool:
    return local_polytope_check(table).verdict == "local"


def pr_mixture(v: float) -> ConditionalTable:
    return ConditionalTable(v * pr_box_table().entries + (1.0 - v) * np.full((4, 4), 0.25))


def random_strategy_mixture(rng) -> np.ndarray:
    return np.tensordot(rng.dirichlet(np.full(16, 0.3)), STRATEGY_TABLES, axes=1)


@pytest.mark.parametrize("index", range(16))
def test_deterministic_tables_agree(index):
    table = ConditionalTable(STRATEGY_TABLES[index])
    assert lp_local(table) and polytope_local(table)


def test_pr_box_agrees():
    assert not lp_local(pr_box_table()) and not polytope_local(pr_box_table())


@pytest.mark.parametrize("v, local", [(0.25, True), (0.5, True), (0.75, False)])
def test_pr_uniform_mixtures_agree(v, local):
    table = pr_mixture(v)
    if v == 0.5:
        assert max(local_polytope_check(table).combination_values) == pytest.approx(2.0, abs=1e-12)
    assert lp_local(table) == polytope_local(table) == local


@pytest.mark.parametrize("seed", range(20))
def test_random_strategy_mixtures_agree(seed):
    table = ConditionalTable(random_strategy_mixture(np.random.default_rng(seed)))
    assert lp_local(table) and polytope_local(table)


@pytest.mark.parametrize("seed", range(20))
def test_random_pr_mixtures_agree(seed):
    # No-signaling tables on both sides of the CHSH facets.
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, 0.6)
    table = ConditionalTable(v * pr_box_table().entries + (1.0 - v) * random_strategy_mixture(rng))
    assert local_polytope_check(table).verdict != "signaling"
    assert lp_local(table) == polytope_local(table)


@pytest.mark.parametrize("seed", range(20))
def test_random_signaling_tables_agree(seed):
    rows = np.random.default_rng(seed).random((4, 4)) + 1e-3
    table = ConditionalTable(rows / rows.sum(axis=1, keepdims=True))
    assert local_polytope_check(table).verdict == "signaling"
    assert not lp_local(table) and not polytope_local(table)
