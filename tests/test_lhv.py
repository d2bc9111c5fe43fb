import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import EXPECTED_CONDITIONAL_ROWS, SIGNS, strategy_distribution
from invbell.errors import MissingSupport
from invbell.lhv import (
    CHSH_SIGN_PATTERNS,
    PAIR_ORDER,
    ConditionalTable,
    DeterministicStrategy,
    ResponseFunction,
    conditional_table,
    enumerate_strategies,
    local_polytope_check,
    no_signaling_check,
    pair_index,
    pr_box_table,
    strategy_chsh,
    strategy_table,
)
from invbell.protocol import Distribution, OutcomeQuadruple
from invbell.stats import conditional

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def product_table(p3_plus, p3_minus, p4_plus, p4_minus):
    """P(q3|q1) P(q4|q2) with the given probabilities of the +1 output."""
    rows = np.zeros((4, 4))
    for i, (q1, q2) in enumerate(PAIR_ORDER):
        p3 = p3_plus if q1 == 1 else p3_minus
        p4 = p4_plus if q2 == 1 else p4_minus
        for j, (q3, q4) in enumerate(PAIR_ORDER):
            rows[i, j] = (p3 if q3 == 1 else 1 - p3) * (p4 if q4 == 1 else 1 - p4)
    return ConditionalTable(rows)


# ------------------------------------------------------------ ConditionalTable


def test_table_validation_rejects_bad_shape():
    with pytest.raises(ValueError):
        ConditionalTable(np.zeros((4, 3)))


def test_table_validation_rejects_negative():
    rows = np.full((4, 4), 0.25)
    rows[0, 0] = -0.25
    rows[0, 1] = 0.75
    with pytest.raises(ValueError):
        ConditionalTable(rows)


def test_table_validation_rejects_unnormalized_rows():
    with pytest.raises(ValueError):
        ConditionalTable(np.full((4, 4), 0.3))


def test_table_row_sum_tolerance_is_atol():
    # A row may miss 1 by roundoff (5e-13 < ATOL = 1e-12), not by 1e-9.
    rows = np.full((4, 4), 0.25)
    rows[0, 0] += 5e-13
    ConditionalTable(rows)
    rows[0, 0] = 0.25 + 1e-9
    with pytest.raises(ValueError, match="rows must sum to 1"):
        ConditionalTable(rows)


def test_table_accessors():
    t = pr_box_table()
    assert t.entry(-1, -1, 1, -1) == 0.5
    assert t.entry(-1, -1, 1, 1) == 0.0
    assert t.entry(1, 1, 1, 1) + t.entry(1, 1, 1, -1) == 0.5


# ---------------------------------------------------------- conditional_table


def test_table_of_default_distribution(default_distribution):
    t = conditional_table(default_distribution)
    assert np.abs(t.entries - EXPECTED_CONDITIONAL_ROWS).max() < 1e-12


def test_table_of_uniform_distribution():
    t = conditional_table(Distribution.uniform())
    assert np.abs(t.entries - 0.25).max() < 1e-15


def test_table_missing_support():
    with pytest.raises(MissingSupport):
        conditional_table(Distribution.point_mass(OutcomeQuadruple(1, 1, 1, 1)))


@given(seeds, st.integers(min_value=0, max_value=12))
@settings(max_examples=80, deadline=None)
def test_table_matches_conditional_queries_bit_for_bit(seed, zeros):
    """Reference: each entry as stats.conditional computes it, one query per cell."""
    rng = np.random.default_rng(seed)
    weights = rng.random(16) ** 3
    weights[rng.choice(16, size=zeros, replace=False)] = 0.0
    for block in range(4):  # keep every (q1, q2) pair supported
        if not weights[4 * block : 4 * block + 4].any():
            weights[4 * block + rng.integers(4)] = rng.random() + 1e-3
    d = Distribution.from_array(weights / weights.sum())
    expected = [
        [conditional(d, {"q3": q3, "q4": q4}, {"q1": q1, "q2": q2}) for q3, q4 in PAIR_ORDER]
        for q1, q2 in PAIR_ORDER
    ]
    assert conditional_table(d).entries.tolist() == expected


def test_table_missing_support_names_first_unsupported_pair():
    d = Distribution({(1, 1, 1, 1): 0.5, (-1, -1, 1, 1): 0.5})
    with pytest.raises(MissingSupport, match=r"\(q1, q2\)=\(\+1, -1\)"):
        conditional_table(d)


# ---------------------------------------------------------- no_signaling_check


def test_default_table_signals(default_distribution):
    report = no_signaling_check(conditional_table(default_distribution), tol=1e-9)
    assert report.delta_q3 == pytest.approx(0.5, abs=1e-12)
    assert report.delta_q4 == pytest.approx(0.5, abs=1e-12)
    assert report.signaling
    assert report.verdict == "SIGNALING" and "verdict" not in vars(report)


def test_product_tables_do_not_signal():
    t = product_table(0.25, 0.75, 0.5, 1.0)
    report = no_signaling_check(t, tol=1e-9)
    assert report.delta_q3 == 0.0
    assert report.delta_q4 == 0.0
    assert report.verdict == "NO-SIGNALING"
    assert not report.signaling


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_random_product_tables_do_not_signal(seed):
    rng = np.random.default_rng(seed)
    t = product_table(*rng.random(4))
    report = no_signaling_check(t, tol=1e-9)
    assert report.delta_q3 < 1e-12
    assert report.delta_q4 < 1e-12


# A cell is an exact zero, a subnormal, a tiny normal or real mass; every row keeps real mass.
_cell = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300]), st.floats(min_value=1e-3, max_value=1.0))
_row = st.lists(_cell, min_size=4, max_size=4).filter(lambda row: max(row) >= 1e-3)


@given(st.lists(_row, min_size=4, max_size=4), st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=300, deadline=None)
def test_signaling_deltas_equal_the_per_cell_marginals(rows, tol):
    """Reference: each marginal as the sum of its two cells, read row by row in PAIR_ORDER."""
    rows = np.array(rows)
    t = ConditionalTable(rows / rows.sum(axis=1, keepdims=True))
    q3_plus = {pair: row[0] + row[1] for pair, row in zip(PAIR_ORDER, t.entries)}  # cells (+1, +1), (+1, -1)
    q4_plus = {pair: row[0] + row[2] for pair, row in zip(PAIR_ORDER, t.entries)}  # cells (+1, +1), (-1, +1)
    delta_q3 = float(max(abs(q3_plus[q1, 1] - q3_plus[q1, -1]) for q1 in SIGNS))
    delta_q4 = float(max(abs(q4_plus[1, q2] - q4_plus[-1, q2]) for q2 in SIGNS))
    report = no_signaling_check(t, tol)
    assert (report.delta_q3, report.delta_q4) == (delta_q3, delta_q4)
    assert report.signaling is (max(delta_q3, delta_q4) > tol)


def test_pr_box_does_not_signal():
    report = no_signaling_check(pr_box_table(), tol=1e-9)
    assert report.delta_q3 == 0.0
    assert report.delta_q4 == 0.0


def test_no_signaling_rejects_negative_tol(default_distribution):
    with pytest.raises(ValueError):
        no_signaling_check(conditional_table(default_distribution), tol=-1.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("check", [no_signaling_check, local_polytope_check])
def test_non_finite_tol_is_rejected(check, tol, default_distribution):
    # Unchecked, nan would pass the signaling default table and a deterministic
    # table, and inf would call the PR box local.
    tables = [conditional_table(default_distribution), strategy_table(enumerate_strategies()[0][0]), pr_box_table()]
    for table in tables:
        with pytest.raises(ValueError) as exc:
            check(table, tol)
        assert str(exc.value) == f"tol must be nonnegative, got {tol!r}"


# -------------------------------------------------------- enumerate_strategies


def test_sixteen_strategies_with_two_valued_chsh():
    strategies = enumerate_strategies()
    assert len(strategies) == 16
    values = [v for _, v in strategies]
    assert set(values) == {-2.0, 2.0}
    assert max(values) == 2.0
    assert min(values) == -2.0


def test_constant_strategy_value():
    s = DeterministicStrategy(f=(1, 1), g=(1, 1))
    assert strategy_chsh(s) == 2.0


def test_identity_f_constant_g_value():
    # E(q1, q2) = q1, so the combination is 1 + 1 - 1 - (-1) = 2
    s = DeterministicStrategy(f=(1, -1), g=(1, 1))
    assert strategy_chsh(s) == 2.0


def test_strategy_validation():
    with pytest.raises(ValueError):
        DeterministicStrategy(f=(0, 1), g=(1, 1))


@pytest.mark.parametrize("response, value", [("f", 0), ("f", 7), ("g", 0), ("g", 1.5)])
def test_strategy_responses_reject_inputs_other_than_signs(response, value):
    s = DeterministicStrategy(f=(1, -1), g=(1, 1))
    with pytest.raises(ValueError):
        getattr(s, response)(value)


def test_strategy_halves_are_response_functions_with_int_values():
    s = DeterministicStrategy(f=(1.0, -1), g=(1, 1))
    assert s.f == ResponseFunction(1, -1)
    assert s.g == ResponseFunction(1, 1)
    assert type(s.f.at_plus) is int and s.f.at_plus == 1


@pytest.mark.parametrize("fp, fm, gp, gm", list(itertools.product(SIGNS, repeat=4)))
def test_strategy_table_and_chsh_match_the_strategy_distribution(fp, fm, gp, gm):
    s = DeterministicStrategy((fp, fm), (gp, gm))
    expected = conditional_table(strategy_distribution(fp, fm, gp, gm))
    np.testing.assert_array_equal(strategy_table(s).entries, expected.entries)
    e = {(q1, q2): (fp if q1 == 1 else fm) * (gp if q2 == 1 else gm) for q1 in SIGNS for q2 in SIGNS}
    assert strategy_chsh(s) == e[1, 1] + e[1, -1] + e[-1, 1] - e[-1, -1]


def test_changing_a_returned_strategy_list_leaves_the_next_one_alone():
    expected = enumerate_strategies()
    changed = enumerate_strategies()
    changed.reverse()
    del changed[3:]
    assert enumerate_strategies() == expected
    assert len(expected) == 16


# ------------------------------------------------------- local_polytope_check


def test_every_strategy_table_is_local():
    # A deterministic strategy reaches the classical bound exactly, which is still local at tol 0.
    for (s, _), tol in itertools.product(enumerate_strategies(), (1e-9, 0.0)):
        report = local_polytope_check(strategy_table(s), tol=tol)
        assert report.verdict == "local"
        assert not report.signaling.signaling
        assert max(report.combination_values) == 2.0


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_mixtures_of_strategies_stay_local(seed):
    rng = np.random.default_rng(seed)
    tables = [strategy_table(s).entries for s, _ in enumerate_strategies()]
    weights = rng.random(16)
    weights /= weights.sum()
    mixed = ConditionalTable(sum(w * t for w, t in zip(weights, tables)))
    report = local_polytope_check(mixed, tol=1e-9)
    assert max(report.combination_values) <= 2.0 + 1e-12
    assert report.verdict == "local"


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_combination_values_are_left_to_right_sums(seed):
    """A matrix product over the eight patterns differs in the last bit on some tables."""
    rng = np.random.default_rng(seed)
    for rows in rng.random((20, 4, 4)):
        t = ConditionalTable(rows / rows.sum(axis=1, keepdims=True))
        e0, e1, e2, e3 = t.correlators()
        expected = tuple(float(s0 * e0 + s1 * e1 + s2 * e2 + s3 * e3) for s0, s1, s2, s3 in CHSH_SIGN_PATTERNS)
        assert local_polytope_check(t).combination_values == expected


def test_default_table_verdict_is_signaling(default_distribution):
    report = local_polytope_check(conditional_table(default_distribution), tol=1e-9)
    assert report.verdict == "signaling"
    assert report.witness_value == pytest.approx(0.5, abs=1e-12)


def test_pr_box_is_nonlocal_nosignaling():
    report = local_polytope_check(pr_box_table(), tol=1e-9)
    assert report.verdict == "nonlocal-nosignaling"
    assert report.witness_value == pytest.approx(4.0, abs=1e-12)
    assert report.witness_signs is not None


@pytest.mark.parametrize("tol", [0.1, 0])
def test_polytope_check_takes_every_tol_the_signaling_check_takes(tol):
    report = local_polytope_check(pr_box_table(), tol)
    assert report.verdict == "nonlocal-nosignaling"
    assert report.signaling.tol == float(tol)


@pytest.mark.parametrize("check", [no_signaling_check, local_polytope_check])
def test_both_checks_reject_a_tol_given_as_text(check):
    with pytest.raises(TypeError) as exc:
        check(pr_box_table(), "0.1")
    assert str(exc.value) == "tol must be a real number, got str"


def test_eight_sign_patterns_are_distinct():
    assert len(set(CHSH_SIGN_PATTERNS)) == 8
    for pattern in CHSH_SIGN_PATTERNS:
        assert sorted(pattern) in ([-1, 1, 1, 1], [-1, -1, -1, 1])


def relabel(table, variable):
    """Flip the +-1 labels of one variable of a conditional table."""
    entries = table.entries.copy()
    if variable == "q1":
        entries = entries[[2, 3, 0, 1], :]
    elif variable == "q2":
        entries = entries[[1, 0, 3, 2], :]
    elif variable == "q3":
        entries = entries[:, [2, 3, 0, 1]]
    elif variable == "q4":
        entries = entries[:, [1, 0, 3, 2]]
    return ConditionalTable(entries)


@pytest.mark.parametrize("variable", ["q1", "q2", "q3", "q4"])
def test_combination_magnitudes_invariant_under_relabeling(variable, default_distribution):
    for table in (pr_box_table(), conditional_table(default_distribution), strategy_table(DeterministicStrategy((1, -1), (-1, 1)))):
        base = local_polytope_check(table, tol=1e-9)
        flipped = local_polytope_check(relabel(table, variable), tol=1e-9)
        assert sorted(abs(v) for v in base.combination_values) == pytest.approx(
            sorted(abs(v) for v in flipped.combination_values), abs=1e-12
        )


# ------------------------------------------------------------------- fixtures


def test_pair_index_ordering():
    assert [pair_index(a, b) for a, b in PAIR_ORDER] == [0, 1, 2, 3]


def test_strategy_tables_equal_loop_built_tables():
    for s, _ in enumerate_strategies():
        expected = np.zeros((4, 4))
        for i, (q1, q2) in enumerate(PAIR_ORDER):
            expected[i, PAIR_ORDER.index((s.f(q1), s.g(q2)))] = 1.0
        assert np.array_equal(strategy_table(s).entries, expected)


def test_pr_box_equals_loop_built_table():
    expected = np.zeros((4, 4))
    for i, (q1, q2) in enumerate(PAIR_ORDER):
        want = -1 if (q1, q2) == (-1, -1) else 1
        for j, (q3, q4) in enumerate(PAIR_ORDER):
            if q3 * q4 == want:
                expected[i, j] = 0.5
    assert np.array_equal(pr_box_table().entries, expected)


def test_strategy_table_rows_are_point_masses():
    for s, _ in enumerate_strategies():
        t = strategy_table(s)
        for i, (q1, q2) in enumerate(PAIR_ORDER):
            assert t.entries[i].sum() == 1.0
            assert t.entry(q1, q2, s.f(q1), s.g(q2)) == 1.0
