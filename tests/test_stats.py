import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_distribution, reference_uniform
from invbell.errors import DimensionMismatch, ZeroConditioning
from invbell.protocol import OUTCOMES, Distribution, OutcomeQuadruple, bell_state
from invbell.stats import (
    ChshSettings,
    _bucket_counts,
    EventPredicate,
    chsh_value,
    conditional,
    correlator,
    marginal,
    prob,
    sample,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)

# Frozen draw of sample(default, n=1000, seed=42); the portability contract.
FROZEN_COUNTS_1000_SEED42 = {
    (1, 1, 1, 1): 139,
    (1, 1, 1, -1): 71,
    (1, 1, -1, 1): 63,
    (1, 1, -1, -1): 0,
    (1, -1, 1, 1): 0,
    (1, -1, 1, -1): 58,
    (1, -1, -1, 1): 69,
    (1, -1, -1, -1): 125,
    (-1, 1, 1, 1): 0,
    (-1, 1, 1, -1): 52,
    (-1, 1, -1, 1): 56,
    (-1, 1, -1, -1): 122,
    (-1, -1, 1, 1): 123,
    (-1, -1, 1, -1): 55,
    (-1, -1, -1, 1): 67,
    (-1, -1, -1, -1): 0,
}


# ------------------------------------------------------------- EventPredicate


def test_predicate_rejects_unknown_variable():
    with pytest.raises(ValueError):
        EventPredicate({"q5": 1})


def test_predicate_rejects_bad_value():
    with pytest.raises(ValueError):
        EventPredicate({"q1": 0})


@pytest.mark.parametrize("value", [1.5, -1.7, "1", 0.999, float("nan"), None])
def test_predicate_rejects_values_not_equal_to_a_sign(value):
    with pytest.raises(ValueError):
        EventPredicate({"q1": value})
    with pytest.raises(ValueError):
        prob(Distribution.uniform(), {"q1": value})


def test_predicate_stores_signs_as_int():
    pred = EventPredicate({"q1": 1.0, "q2": np.int64(-1), "q3": np.float64(-1.0)})
    assert pred.constraints == {"q1": 1, "q2": -1, "q3": -1}
    assert all(type(v) is int for v in pred.constraints.values())


def test_predicate_label_lists_constraints_in_variable_order():
    assert EventPredicate({"q4": -1, "q1": 1.0, "q3": 1}).label == "q1=+1,q3=+1,q4=-1"
    assert EventPredicate({}).label == ""


def test_predicate_conjunction_conflict_is_none():
    a = EventPredicate({"q1": 1})
    b = EventPredicate({"q1": -1})
    assert a.conjunction(b) is None


# ----------------------------------------------------------------------- prob


def test_prob_empty_predicate_is_one(default_distribution):
    assert prob(default_distribution, {}) == pytest.approx(1.0, abs=1e-12)


def test_prob_of_pair_block(default_distribution):
    assert prob(default_distribution, {"q1": 1, "q2": 1}) == pytest.approx(0.25, abs=1e-12)


def test_prob_of_forbidden_outcome(default_distribution):
    assert prob(default_distribution, {"q1": 1, "q2": 1, "q3": -1, "q4": -1}) == 0.0


# ---------------------------------------------------------------- conditional


def test_conditional_anchor_fact(default_distribution):
    value = conditional(default_distribution, {"q3": 1, "q4": 1}, {"q1": 1, "q2": 1})
    assert value == pytest.approx(0.5, abs=1e-12)


def test_conditional_certainty_fact(default_distribution):
    value = conditional(default_distribution, {"q4": -1}, {"q1": 1, "q3": 1, "q2": -1})
    assert value == pytest.approx(1.0, abs=1e-12)


def test_conditional_of_event_given_itself(default_distribution):
    e = {"q1": 1, "q3": -1}
    assert conditional(default_distribution, e, e) == pytest.approx(1.0, abs=1e-12)


def test_conditional_zero_conditioning():
    d = Distribution.point_mass(OutcomeQuadruple(1, 1, 1, 1))
    with pytest.raises(ZeroConditioning):
        conditional(d, {"q3": 1}, {"q1": -1})


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_chain_rule(seed):
    rng = np.random.default_rng(seed)
    d = random_distribution(rng)
    variables = ("q1", "q2", "q3", "q4")
    pick = lambda: {v: int(rng.choice((1, -1))) for v in variables if rng.random() < 0.5}
    target, given = EventPredicate(pick()), EventPredicate(pick())
    if prob(d, given) <= 0.0:
        return
    joint = target.conjunction(given)
    joint_prob = prob(d, joint) if joint is not None else 0.0
    assert conditional(d, target, given) * prob(d, given) == pytest.approx(joint_prob, abs=1e-12)


# ------------------------------------------------------------------- marginal


def test_marginal_identity(default_distribution):
    full = marginal(default_distribution, ("q1", "q2", "q3", "q4"))
    for outcome, p in default_distribution.probs.items():
        assert full[tuple(outcome)] == pytest.approx(p, abs=1e-15)


def test_marginal_pair_uniform(default_distribution):
    pairs = marginal(default_distribution, ("q1", "q2"))
    assert set(pairs) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    for value in pairs.values():
        assert value == pytest.approx(0.25, abs=1e-12)


def test_marginal_q3_is_even(default_distribution):
    m = marginal(default_distribution, ("q3",))
    assert m[(1,)] == pytest.approx(0.5, abs=1e-12)
    assert m[(-1,)] == pytest.approx(0.5, abs=1e-12)


def test_marginal_requires_variables(default_distribution):
    with pytest.raises(ValueError):
        marginal(default_distribution, ())
    with pytest.raises(ValueError):
        marginal(default_distribution, ("q9",))


# ----------------------------------------------------------------------- chsh


def test_chsh_settings_reject_nonfinite():
    with pytest.raises(ValueError):
        ChshSettings(0.0, math.inf, 0.0, 0.0)


@given(angles, angles)
@settings(max_examples=120, deadline=None)
def test_pair_state_correlator_is_cosine(a, b):
    # analytic oracle for the (|00> - |11>)/sqrt(2) state
    assert correlator(bell_state(), a, b) == pytest.approx(math.cos(a + b), abs=1e-12)


def test_chsh_at_optimal_settings():
    s = ChshSettings(0.0, math.pi / 2.0, -math.pi / 4.0, math.pi / 4.0)
    assert chsh_value(bell_state(), s) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


def test_chsh_at_zero_settings():
    # E identically cos(0) = 1, so E + E + E - E = 2
    assert chsh_value(bell_state(), ChshSettings(0, 0, 0, 0)) == pytest.approx(2.0, abs=1e-12)


@given(angles, angles, angles, angles, st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_chsh_angle_periodicity(a0, a1, b0, b1, which):
    base = [a0, a1, b0, b1]
    shifted = list(base)
    shifted[which] += 2.0 * math.pi
    v1 = chsh_value(bell_state(), ChshSettings(*base))
    v2 = chsh_value(bell_state(), ChshSettings(*shifted))
    assert v1 == pytest.approx(v2, abs=1e-9)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_product_states_respect_classical_bound(seed):
    rng = np.random.default_rng(seed)
    single = lambda: (lambda t: np.array([np.cos(t / 2), np.sin(t / 2)], dtype=complex))(
        rng.uniform(0, 2 * np.pi)
    )
    from invbell.qcore import StateVector

    product = StateVector(np.kron(single(), single()))
    settings_ = ChshSettings(*rng.uniform(-np.pi, np.pi, size=4))
    assert abs(chsh_value(product, settings_)) <= 2.0 + 1e-9


def test_correlator_needs_two_qubits():
    from invbell.qcore import basis_state

    with pytest.raises(DimensionMismatch):
        correlator(basis_state(1, 0), 0.0, 0.0)


# --------------------------------------------------------------------- sample


def test_sample_point_mass():
    d = Distribution.point_mass(OutcomeQuadruple(1, -1, 1, -1))
    report = sample(d, 500, seed=7)
    assert report.counts[OutcomeQuadruple(1, -1, 1, -1)] == 500
    assert report.tv_distance == 0.0


def test_sample_rejects_bad_n(default_distribution):
    with pytest.raises(ValueError):
        sample(default_distribution, 0, seed=1)


@pytest.mark.parametrize(
    "args",
    [(2.5, 1), (100, 1.7), (100, "5"), (100, 1, 7.0), (100, np.float64(3.0))],
)
def test_sample_rejects_non_integer_arguments(args):
    with pytest.raises(TypeError):
        sample(Distribution.uniform(), *args)


def test_sample_rejects_chunk_size_zero(default_distribution):
    # A chunk of zero draws would never advance through the draw range.
    with pytest.raises(ValueError, match="chunk_size must be >= 1"):
        sample(default_distribution, 10, seed=1, chunk_size=0)


def test_sample_accepts_numpy_integers(default_distribution):
    a = sample(default_distribution, np.int64(300), np.uint64(9), chunk_size=np.int32(7))
    b = sample(default_distribution, 300, 9)
    assert a.counts == b.counts
    assert (a.n, a.seed) == (300, 9) and type(a.n) is int and type(a.seed) is int


def test_sample_determinism(default_distribution):
    a = sample(default_distribution, 2000, seed=99)
    b = sample(default_distribution, 2000, seed=99)
    assert a.counts == b.counts
    assert a.tv_distance == b.tv_distance


def test_sample_chunking_does_not_matter(default_distribution):
    reports = [
        sample(default_distribution, 1500, seed=5, chunk_size=c) for c in (1, 7, 256, 1 << 16)
    ]
    assert all(r.counts == reports[0].counts for r in reports)


def test_sample_frozen_counts(default_distribution):
    report = sample(default_distribution, 1000, seed=42)
    assert {tuple(k): v for k, v in report.counts.items()} == FROZEN_COUNTS_1000_SEED42


def test_sample_matches_pure_python_reference(default_distribution):
    n = 400
    seed = 2024
    cdf = np.cumsum(default_distribution.as_array())
    expected = [0] * 16
    for i in range(n):
        u = reference_uniform(seed, i)
        j = 0
        while j < 15 and u >= cdf[j]:
            j += 1
        expected[j] += 1
    report = sample(default_distribution, n, seed=seed)
    assert [report.counts[o] for o in OUTCOMES] == expected


def test_sample_seed_is_reduced_mod_2_64(default_distribution):
    low = sample(default_distribution, 100, seed=5)
    high = sample(default_distribution, 100, seed=5 + (1 << 64))
    assert low.counts == high.counts


def test_sample_tv_distance_shrinks(default_distribution):
    report = sample(default_distribution, 100_000, seed=3)
    assert report.tv_distance < 0.05
    total = sum(report.counts.values())
    assert total == 100_000


def test_empirical_distribution_is_valid(default_distribution):
    report = sample(default_distribution, 10_000, seed=11)
    empirical = report.empirical()
    assert sum(empirical.probs.values()) == pytest.approx(1.0, abs=1e-12)


def _searchsorted_counts(u, cdf):
    """Reference binning by binary search: searchsorted(side="right"), clipped to 15, then bincount."""
    idx = np.searchsorted(cdf, u, side="right")
    np.clip(idx, 0, 15, out=idx)
    return np.bincount(idx, minlength=16)


@st.composite
def cdfs_and_draws(draw):
    """CDFs with repeated thresholds and a last entry below 1, plus draws on the thresholds."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16))
    zeros = draw(st.sets(st.integers(0, 15), max_size=15))
    weights = [0.0 if i in zeros else w for i, w in enumerate(weights)]
    total = math.fsum(weights) or 1.0
    cdf = np.cumsum(np.array(weights) / total)
    if draw(st.booleans()):  # cdf[15] rounding below 1
        cdf *= 1.0 - draw(st.integers(1, 64)) * 2.0**-53
    thresholds = cdf.tolist()
    near = [math.nextafter(c, -math.inf) for c in thresholds] + [math.nextafter(c, math.inf) for c in thresholds]
    pool = thresholds + near + [0.0, 1.0 - 2.0**-53]
    on_grid = draw(st.lists(st.sampled_from(pool), max_size=64))
    anywhere = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=64))
    return cdf, np.array(on_grid + anywhere, dtype=np.float64)


@given(cdfs_and_draws())
@settings(max_examples=300, deadline=None)
def test_bucket_counts_match_searchsorted(case):
    cdf, u = case
    assert _bucket_counts(u, cdf).tolist() == _searchsorted_counts(u, cdf).tolist()
