import hashlib
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strahler import sampling, transform, trees
from strahler.observables import parse
from strahler.verification import chi2_sf, chi_square_p_value

S1 = parse("S1")


def test_sample_uniform_magnitude_one_is_leaf():
    for seed in range(5):
        assert sampling.sample_uniform(1, seed) is trees.LEAF


def test_sample_uniform_deterministic():
    for n in (6, 40, 100):
        assert sampling.sample_uniform(n, 42) == sampling.sample_uniform(n, 42)


def test_sample_uniform_magnitude():
    for n in (2, 17, 64, 65, 130):
        assert trees.magnitude(sampling.sample_uniform(n, 7)) == n


def _valid_word(word) -> bool:
    """Every proper prefix sums to >= 0 and the whole to -1."""
    total = 0
    for i, x in enumerate(word):
        total += x
        if total < 0:
            return i == len(word) - 1 and total == -1
    return False


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 40).flatmap(
        lambda k: st.permutations([1] * k + [-1] * (k + 1))
    )
)
def test_cycle_lemma_one_valid_rotation(steps):
    # Of the rotations of any arrangement of k splits (+1) and k + 1 leaves
    # (-1), exactly one is a pre-order word: the one starting just after the
    # first minimum of the inclusive prefix sums.
    m = len(steps)
    valid = [i for i in range(m) if _valid_word(steps[i:] + steps[:i])]
    sums = list(itertools.accumulate(steps))
    assert valid == [(sums.index(min(sums)) + 1) % m]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**128 - 1))
def test_cycle_word_is_a_preorder_word(n, seed):
    word = sampling._cycle_word(n, seed).tolist()
    assert sorted(word) == [-1] * n + [1] * (n - 1)
    assert _valid_word(word)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 199).flatmap(
        lambda k: st.permutations([1] * k + [-1] * (k + 1))
    )
)
def test_phi_word_is_the_word_of_phi(steps):
    # The word-level leaf removal against the paper's phi on the assembled
    # tree, for every valid word of magnitude 2 to 200 (the rotation of the
    # drawn steps that the cycle lemma picks).
    sums = list(itertools.accumulate(steps))
    k = sums.index(min(sums)) + 1
    word = steps[k:] + steps[:k]
    tree = trees._assemble([trees._SPLIT if x > 0 else trees.LEAF for x in word])
    image = [-1 if v is None else 1 for v in trees._preorder(transform.phi(tree))]
    array = np.array(word, dtype=np.int8)
    assert sampling._phi_word(array).tolist() == image
    assert sampling._cherries(array) == trees.branch_counts(tree).s(2)


def test_phi_word_holds_heights_past_16_bits():
    # A left spine of m splits, each with a cherry on its right and the last
    # with a cherry on either side: the word climbs to height m + 1, past
    # 2^16, where 16-bit heights of different levels would collide (a wrap
    # below that only relabels the levels, and the grouping by height
    # stands). phi keeps the spine and turns the cherries into leaves, a
    # left comb of magnitude m + 1.
    m = 2**16 + 10
    word = [1] * m + [1, -1, -1] + [1, -1, -1] * m
    image = sampling._phi_word(np.array(word, dtype=np.int8))
    assert image.tolist() == [1] * m + [-1] * (m + 1)


def test_sampled_window_matches_tree_branch_counts():
    # The peeled word must agree with the order fold of branch_counts on the
    # tree assembled from the same word, above the unranking threshold, at
    # every base order up to two past the largest root order and every
    # window width up to 3.
    for n in (65, 70, 150, 400, 1000, 4000):
        for seed in range(20 if n <= 400 else 3):
            s = seed * 31 + n
            profile = trees.branch_counts(sampling.sample_uniform(n, s))
            for r in range(1, n.bit_length() + 3):
                for p in (1, 2, 3):
                    assert sampling._sampled_window(n, s, r, p) == profile.window(r, p)
    # One draw past 2^15, where the heights are 32-bit.
    n, s = 40000, 17
    profile = trees.branch_counts(sampling.sample_uniform(n, s))
    assert sampling._sampled_window(n, s, 1, n.bit_length()) == profile.window(
        1, n.bit_length()
    )


def test_sampled_profiles_build_no_tree(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a sampled window built a tree")

    configs = [
        sampling.SampleConfig(n=n, trials=30, seed=4, f=f, r=r)
        for n in (48, 200)
        for r, f in ((2, S1), (3, parse("S1*S2-S3")))
    ]
    expected = [sampling.monte_carlo(cfg) for cfg in configs]
    windows = [sampling._sampled_window(200, s, 1, 5) for s in range(10)]
    monkeypatch.setattr(trees, "unrank_tree", forbidden)
    monkeypatch.setattr(trees, "branch_counts", forbidden)
    monkeypatch.setattr(trees, "_assemble", forbidden)
    monkeypatch.setattr(transform, "phi", forbidden)
    assert [sampling.monte_carlo(cfg) for cfg in configs] == expected
    assert [sampling._sampled_window(200, s, 1, 5) for s in range(10)] == windows


def test_uniformity_chi_square_small_magnitudes():
    trials = 20000
    for n in (4, 5):
        shapes = list(trees.enumerate_trees(n))
        tally = Counter(
            sampling.sample_uniform(n, sampling._child_seed(7, i))
            for i in range(trials)
        )
        observed = [tally.get(t, 0) for t in shapes]
        p = chi_square_p_value(observed)
        assert 0.001 <= p <= 0.999, (n, p)


def test_cycle_path_uniformity_chi_square():
    # Drive the cycle-lemma sampler itself (not unranking) through a
    # chi-square by assembling its words directly at n=5.
    trials = 20000
    shapes = list(trees.enumerate_trees(5))
    words = (sampling._cycle_word(5, sampling._child_seed(3, i)) for i in range(trials))
    tally = Counter(
        trees._assemble([trees._SPLIT if x > 0 else trees.LEAF for x in word])
        for word in words
    )
    observed = [tally.get(t, 0) for t in shapes]
    assert sum(observed) == trials
    p = chi_square_p_value(observed)
    assert 0.001 <= p <= 0.999, p


def test_chi2_sf_closed_forms():
    for x in (1e-9, 0.01, 0.5, 1.0, 3.84, 10.0, 50.0, 700.0, 2000.0):
        assert math.isclose(chi2_sf(x, 1), math.erfc(math.sqrt(x / 2)), rel_tol=1e-13)
        assert math.isclose(chi2_sf(x, 2), math.exp(-x / 2), rel_tol=1e-13)
    assert chi2_sf(0.0, 5) == 1.0
    # Many degrees of freedom: no term may underflow before it is negligible.
    assert 0.45 < chi2_sf(2000.0, 2000) < 0.55
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi_square_p_value([5])


def test_chi_square_p_value_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    # Uniform draws, so the p-values spread over (0, 1).
    rng = random.Random(5)
    for df in (1, 2, 3, 4, 13, 41):
        for _ in range(20):
            tally = Counter(rng.randrange(df + 1) for _ in range(40 * (df + 1)))
            observed = [tally[i] for i in range(df + 1)]
            expected = stats.chisquare(observed).pvalue
            assert abs(chi_square_p_value(observed) - expected) <= 1e-12, (df, observed)


def test_monte_carlo_matches_per_trial_sampling():
    cfg = sampling.SampleConfig(n=100, trials=40, seed=11, f=S1, r=2)
    result = sampling.monte_carlo(cfg)
    values = [
        trees.branch_counts(
            sampling.sample_uniform(100, sampling._child_seed(11, i))
        ).s(2)
        for i in range(40)
    ]
    assert result.mean == pytest.approx(sum(values) / 40, abs=1e-12)


def test_monte_carlo_deterministic():
    cfg = sampling.SampleConfig(n=200, trials=300, seed=9, f=parse("S2/S1"), r=1)
    assert sampling.monte_carlo(cfg) == sampling.monte_carlo(cfg)


def test_monte_carlo_single_trial():
    cfg = sampling.SampleConfig(n=5, trials=1, seed=1, f=S1, r=1)
    result = sampling.monte_carlo(cfg)
    assert result == sampling.MonteCarloResult(5.0, None, 1)


def test_monte_carlo_leaf_magnitude():
    cfg = sampling.SampleConfig(n=1, trials=10, seed=0, f=S1, r=1)
    result = sampling.monte_carlo(cfg)
    assert result.mean == 1.0
    assert result.stderr == 0.0


def test_monte_carlo_stderr_scaling():
    # Sixteen times the trials should shrink the standard error about 4x.
    base = sampling.monte_carlo(
        sampling.SampleConfig(n=300, trials=500, seed=21, f=S1, r=2)
    )
    wide = sampling.monte_carlo(
        sampling.SampleConfig(n=300, trials=8000, seed=21, f=S1, r=2)
    )
    shrink = base.stderr / wide.stderr
    assert 3.0 <= shrink <= 5.0


def test_monte_carlo_mean_near_exact():
    from strahler.expectations import ExpectationEngine

    engine = ExpectationEngine()
    cfg = sampling.SampleConfig(n=200, trials=4000, seed=5, f=S1, r=2)
    result = sampling.monte_carlo(cfg)
    reference = float(engine.expectation_exact(200, 2, S1))
    assert abs(result.mean - reference) <= 4 * result.stderr


def test_monte_carlo_rejects_undefined_observable():
    cfg = sampling.SampleConfig(n=1, trials=3, seed=2, f=parse("S1/S2"), r=1)
    with pytest.raises(sampling.ProfileEvaluationError) as excinfo:
        sampling.monte_carlo(cfg)
    assert excinfo.value.window == (1, 0)


def test_monte_carlo_rejects_undefined_observable_on_the_cycle_path():
    # Order 9 is above any root order at n = 100, so every window is (0,).
    cfg = sampling.SampleConfig(n=100, trials=3, seed=2, f=parse("1/S1"), r=9)
    with pytest.raises(sampling.ProfileEvaluationError) as excinfo:
        sampling.monte_carlo(cfg)
    assert excinfo.value.window == (0,)


# Seeded streams recorded with the cycle-lemma sampler (n > 64) and the
# recursive unranking; both sampling paths must keep reproducing them.
PINNED_PROFILES = [
    (6, 0, 0, (6, 1)),
    (6, 42, 7, (6, 2, 1)),
    (48, 1, 3, (48, 13, 3, 1)),
    (48, 42, 0, (48, 14, 4, 2, 1)),
    (65, 5, 2, (65, 20, 4, 1)),
    (65, 42, 11, (65, 16, 5, 2, 1)),
    (1000, 42, 0, (1000, 254, 64, 15, 4, 1)),
    (1000, 7, 19, (1000, 256, 66, 17, 3, 1)),
    (4000, 42, 1, (4000, 1005, 257, 61, 17, 5, 2, 1)),
    (4000, 3, 5, (4000, 991, 245, 65, 18, 6, 2, 1)),
]

# SHA-256 of trees.encode(sample_uniform(n, seed)).
PINNED_TREES = [
    (48, 0, "64a0a1e60e7b3de25e05786cd6bdb78e8dc550a30a096eed0174938720f7d7aa"),
    (48, 2024, "deec68fead95bb2787151bdb25901d93fd11b3ce61881c9b329ca9b8dabd5231"),
    (130, 7, "5f53fed9748a8647cf492b2d990f632453820294055d36cd4b6703d6684d8433"),
    (130, 99, "7ae750b7879af73b469f336c004d3b21556204b9c1268c7face9cad569c89a51"),
]


@pytest.mark.parametrize("n,seed,trial,counts", PINNED_PROFILES)
def test_sampled_profile_stream_is_pinned(n, seed, trial, counts):
    # A window one order past the root reads the whole profile and its end.
    window = sampling._sampled_window(
        n, sampling._child_seed(seed, trial), 1, len(counts) + 1
    )
    assert window == counts + (0,)


@pytest.mark.parametrize("n,seed,digest", PINNED_TREES)
def test_sample_uniform_tree_is_pinned(n, seed, digest):
    text = trees.encode(sampling.sample_uniform(n, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_monte_carlo_result_is_pinned():
    cfg = sampling.SampleConfig(n=1000, trials=50, seed=42, f=S1, r=2)
    assert sampling.monte_carlo(cfg) == sampling.MonteCarloResult(
        252.02, 1.0615698809993142, 50
    )


def test_config_validation():
    with pytest.raises(ValueError):
        sampling.SampleConfig(n=0, trials=1, seed=0, f=S1)
    with pytest.raises(ValueError):
        sampling.SampleConfig(n=2, trials=0, seed=0, f=S1)
    with pytest.raises(ValueError):
        sampling.SampleConfig(n=2, trials=1, seed=0, f=S1, r=0)
