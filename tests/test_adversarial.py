"""Property tests on adversarial inputs inside the documented range:
near-degenerate spectra (repeated eigenvalues split by at most 1e-8
relative), near-commuting pairs (eigenbases rotated against each other by
at most 1e-6), eigenvalue spread below 100, and weights at 0, at 1 and
within 1e-12 of either end.  Each check must hold at its default tol, and
each mean must return its endpoint."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdmeans import (
    check_chain,
    check_means_identities,
    check_natlog,
    hermitize,
    metric_mean,
    spectral_mean,
)
from spdmeans.suite import s_provable_bound

from helpers import rel_dev

TOL = 1e-8                               # the checks' default gate


def unitary(rng, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def clustered(rng, n: int, gap: float) -> np.ndarray:
    """n eigenvalues in about [0.11, 9.9]: at most ceil(n/2) distinct
    values, each repeated and split by relative offsets of size ``gap``."""
    base = np.exp(rng.uniform(np.log(0.11), np.log(9.9), size=(n + 1) // 2))
    return np.resize(base, n) * (1.0 + gap * rng.uniform(-1.0, 1.0, n))


@st.composite
def pairs(draw):
    """A, B with clustered spectra, B's eigenbasis A's rotated by exp(i angle H)."""
    n = draw(st.integers(1, 6))
    gap = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-8]))
    angle = draw(st.sampled_from([0.0, 1e-14, 1e-10, 1e-6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    QA = unitary(rng, n)
    w, V = np.linalg.eigh(hermitize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))))
    QB = QA @ (V * np.exp(1j * angle * w)) @ V.conj().T
    a, b = clustered(rng, n, gap), clustered(rng, n, gap)
    return hermitize((QA * a) @ QA.conj().T), hermitize((QB * b) @ QB.conj().T)


near_zero = st.floats(0.0, 1e-12)
weights = st.one_of(st.sampled_from([0.0, 1.0]), near_zero, near_zero.map(lambda d: 1.0 - d),
                    st.floats(0.0, 1.0))


@pytest.mark.parametrize("mean", [metric_mean, spectral_mean])
@given(pairs(), st.sampled_from([0.0, 1.0]), near_zero)
def test_means_reach_their_endpoints(mean, pair, end, offset):
    A, B = pair
    t = abs(end - offset)                # at the end, or within 1e-12 of it
    assert rel_dev(mean(A, B, t), B if end else A) <= TOL


@given(pairs(), weights)
def test_chain_holds(pair, t):
    out = check_chain(*pair, t)
    assert out.verdict, out.worst_margin


@given(pairs(), weights, st.one_of(st.just(1.0), st.floats(1e-3, 1.0)))
def test_natlog_holds_up_to_the_provable_bound(pair, t, fraction):
    out = check_natlog(*pair, t, fraction * s_provable_bound(t))
    assert out.verdict, out.worst_margin


@given(pairs(), weights, weights, weights)
def test_means_identities_hold(pair, t, r, s):
    out = check_means_identities(*pair, t, r=r, s=s)
    assert out.verdict, (out.worst_margin, out.detail)
