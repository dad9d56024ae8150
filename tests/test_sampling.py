"""Bulk seeding: the generator states computed for many seeds at once are
bitwise those of numpy's ``SeedSequence`` and ``default_rng``, and
``run_suite`` hands every check the draws that per-trial and per-matrix
generators would make; the draws written as the arithmetic numpy performs
(62-bit matrix seeds, scalar uniforms, a stack's eigenvalue draws) are
bitwise numpy's."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdmeans import OracleTally, SuiteConfig, sample_pd
from spdmeans.linalg import generators, pd_compose, pd_draws, rng_keys, seed_hash, seed_words
from spdmeans.suite import _REGISTRY, CheckOutcome, _draw_seed, _run_trials, _uniform

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**62 - 1, 2**64, 2**130]


def words(entropy: list[int]) -> np.ndarray:
    return np.array([[w for part in entropy for w in seed_words(part)]], dtype=np.uint32)


def numpy_key(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


def reference_pd(n: int, seed: int, spread: float) -> tuple[np.ndarray, np.ndarray]:
    """The draws of one matrix from its own ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lam = np.exp(rng.uniform(-np.log(spread), np.log(spread), n))
    return Z, lam


def bitwise_equal(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("entropy", [lambda s: [s], lambda s: [s, 0, 0], lambda s: [s, 11, 499]],
                         ids=["seed", "seed-0-0", "seed-idx-k"])
def test_seed_hash_matches_seed_sequence(seed, entropy):
    # [seed, idx, k] with seed >= 2**64 has more words than numpy's pool of four
    e = entropy(seed)
    for n_words in (1, 8, 9):
        assert np.array_equal(seed_hash(words(e), n_words)[0],
                              np.random.SeedSequence(e).generate_state(n_words))


def test_seed_hash_rows_zero_padded_to_four_words():
    entropy = [[5], [5, 0], [3, 256], [0, 7, 9], [1, 2, 3, 4]]
    padded = np.zeros((len(entropy), 4), dtype=np.uint32)
    for i, e in enumerate(entropy):
        padded[i, :len(e)] = e
    expect = np.stack([np.random.SeedSequence(e).generate_state(8) for e in entropy])
    assert np.array_equal(seed_hash(padded, 8), expect)
    assert np.array_equal(seed_hash(padded[:2, :1], 8), expect[:2])
    assert seed_hash(np.empty((0, 3), dtype=np.uint32), 1).shape == (0, 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_rng_keys_batch_of_one(seed):
    assert np.array_equal(rng_keys(seed), [numpy_key(seed)])
    (rng,) = generators(rng_keys(seed))
    ref = np.random.default_rng(seed)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(rng.standard_normal(9), ref.standard_normal(9))


def test_rng_keys_in_bulk_match_default_rng():
    seeds = [0, 1, 2**32 - 1, 2**32, 2**62 - 1, 2**64 - 1]
    seeds += np.random.default_rng(3).integers(0, 2**62, 200).tolist()
    keys = rng_keys(seeds)
    assert np.array_equal(keys, [numpy_key(s) for s in seeds])
    for seed, rng in zip(seeds, generators(keys)):
        ref = np.random.default_rng(seed)
        assert rng.bit_generator.state == ref.bit_generator.state
        # ranges below 2**32 draw 32-bit halves of 64-bit outputs and keep
        # the unused half: a fresh generator holds none
        for args in ((0, 2**32), (7,), (0, 2**62), (8,), (2, 7)):
            assert rng.integers(*args) == ref.integers(*args)
        assert rng.uniform(0.05, 0.9) == ref.uniform(0.05, 0.9)
        assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))


def test_hypothesis_profile_is_derandomized():
    # loaded by tests/conftest.py, so every run draws the same examples
    assert settings.default.derandomize and settings.default.database is None
    assert settings.default.deadline is None


@given(st.integers(min_value=0, max_value=2**256 - 1))
def test_any_seed_below_2_256(seed):
    assert np.array_equal(seed_hash(words([seed]), 8)[0],
                          np.random.SeedSequence(seed).generate_state(8))
    (rng,) = generators(rng_keys(seed))
    assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 3, 6])
def test_sample_pd_matches_default_rng_draws(seed, n):
    for spread in (1.0, 10.0, 100.0):
        assert bitwise_equal(sample_pd(n, seed, spread), pd_compose(*reference_pd(n, seed, spread)))


def reference_trials(check, cfg: SuiteConfig, idx: int) -> dict:
    """Each trial's draws from ``default_rng(SeedSequence([seed, idx, k])
    .generate_state(1)[0])``, its matrices from ``default_rng`` of their
    own seeds, stacked as one group."""
    trials = []
    for k in range(getattr(cfg, check.trials)):
        rng = np.random.default_rng(int(np.random.SeedSequence([cfg.seed, idx, k]).generate_state(1)[0]))
        lo, hi = cfg.dims
        n = int(rng.integers(lo, hi + 1))
        d = check.draw(cfg, rng, n)
        # a matrix is drawn as (n, spread, seed)
        trials.append({key: reference_pd(v[0], v[2], v[1]) if isinstance(v, tuple) else v
                       for key, v in d.items()})
    stacked = {}
    for key, v in trials[0].items():
        if isinstance(v, tuple):
            stacked[key] = pd_compose(np.stack([d[key][0] for d in trials]),
                                      np.stack([d[key][1] for d in trials]))
        else:
            stacked[key] = np.array([d[key] for d in trials])
    return stacked


@pytest.mark.parametrize("seed", [3, 12345678901234567890])
@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("idx", range(len(_REGISTRY)), ids=[c.check_id for c in _REGISTRY])
def test_run_trials_hands_checks_the_reference_draws(idx, n, seed):
    cfg = SuiteConfig(seed=seed, trials=5, limit_trials=4, dims=(n, n))
    check = _REGISTRY[idx]
    seen = []

    def record(**d):
        seen.append({key: v.copy() for key, v in d.items()})
        k = len(next(iter(d.values())))
        return [CheckOutcome(check.check_id, True, 0.0) for _ in range(k)]

    raw = check._replace(derive=None, evaluate=record, keywords=())
    list(_run_trials(cfg, idx, raw, OracleTally()))
    assert len(seen) == 1
    ref = reference_trials(check, cfg, idx)
    assert list(seen[0]) == list(ref)
    for key in ref:
        assert bitwise_equal(seen[0][key], ref[key]), key


@pytest.mark.parametrize("n", [1, 2, 6])
def test_pd_draws_match_default_rng_per_matrix(n):
    # one stack with a spread per row, spread 1 giving the unit spectrum
    seeds = [0, 1, 7, 2**32, 2**62 - 1, 12345678901234567890]
    spreads = [1.0, 10.0, 100.0, 1e6, 10.0, 1e6]
    Z, lam = pd_draws(n, rng_keys(seeds), spreads)
    for i, (seed, spread) in enumerate(zip(seeds, spreads)):
        ref_Z, ref_lam = reference_pd(n, seed, spread)
        assert bitwise_equal(Z[i], ref_Z) and bitwise_equal(lam[i], ref_lam), (seed, spread)
    assert np.all(lam[0] == 1.0)


def buffered(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Two generators in the same state, holding a buffered 32-bit half."""
    rng = np.random.default_rng(seed)
    rng.integers(7)                      # a range below 2**32 draws a 32-bit half
    assert rng.bit_generator.state["has_uint32"] == 1
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    return rng, twin


@pytest.mark.parametrize("seed", SEEDS)
def test_draw_seed_is_integers_below_2_62(seed):
    for fresh in (True, False):
        rng, ref = ((np.random.default_rng(seed), np.random.default_rng(seed)) if fresh
                    else buffered(seed))
        for _ in range(50):
            got, want = _draw_seed(rng), ref.integers(0, 2**62)
            assert type(got) is int and got == want
        # the draws leave the generator, buffered half included, as integers does
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_uniform_is_numpy_uniform(seed):
    bounds = [(0.05, 0.9), (0.05, 2.0), (0.0, 1.0), (-3.5, 1e-3), (1e-300, 1e300)]
    for rng, ref in ((np.random.default_rng(seed), np.random.default_rng(seed)), buffered(seed)):
        for _ in range(40):
            for lo, hi in bounds:
                got, want = _uniform(rng, lo, hi), ref.uniform(lo, hi)
                assert type(got) is float and got.hex() == want.hex()
        assert rng.bit_generator.state == ref.bit_generator.state
