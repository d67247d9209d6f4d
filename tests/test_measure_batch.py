"""Measures as arrays: the batched supremal Jensen checker against the
per-measure loop in ``oracles.py``, on batches with zero-weight atoms and
atoms where f is NaN or +-inf; a batch with a NaN or infinite atom itself
is rejected."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from supcon.classify import (check_supremal_jensen, replay_witness,
                             two_atom_measures)
from supcon.funcspace import corpus_entry


def _f(arr):
    """Smooth and nonconvex, undefined (NaN) for t > 1.5, +inf for
    t < -1.75 and -inf on 1.25 < t <= 1.5, t the (0, 0) entry."""
    arr = np.asarray(arr, dtype=float)
    t = arr[..., 0, 0]
    with np.errstate(invalid="ignore"):
        v = np.sin(3.0 * t) + np.cos(2.0 * arr[..., -1, -1])
    v = np.where(t > 1.25, -np.inf, v)
    return np.where(t > 1.5, np.nan, np.where(t < -1.75, np.inf, v))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([(1, 1), (2, 1), (2, 2)]),
       st.integers(1, 4), st.integers(1, 40),
       st.sampled_from([1e-9, 0.5]),
       st.integers(0, 2**32 - 1))
def test_jensen_batch_matches_per_measure_loop(dims, M, B, tol, seed):
    # atoms on the grid Z/4 and weights in Z/16 make every barycenter exact,
    # so the batched and the row-by-row sums agree bit for bit; f is NaN or
    # +-inf on part of the grid, and a batch with a NaN or infinite atom is
    # rejected naming the atoms
    rng = np.random.default_rng(seed)
    atoms = rng.integers(-8, 9, size=(B, M, *dims)) / 4.0
    odd = rng.random(atoms.shape) < 0.02
    bad = atoms.copy()
    bad[odd] = rng.choice([np.nan, np.inf, -np.inf], size=int(odd.sum()))
    weights = rng.multinomial(16, np.full(M, 1.0 / M), size=B) / 16.0
    if odd.any():
        with pytest.raises(ValueError, match="atoms"):
            check_supremal_jensen(_f, bad, weights, tol=tol, seed=seed % 1000)
    v = check_supremal_jensen(_f, atoms, weights, tol=tol, seed=seed % 1000)
    with np.errstate(invalid="ignore"):
        gaps = oracles.supremal_jensen_gaps(_f, atoms, weights)
    finite = gaps[np.isfinite(gaps)]
    assert v.budget == B
    assert v.violated == bool(finite.size and finite.max() > tol)
    if v.violated:
        assert v.witness["gap"] == finite.max()
        assert abs(replay_witness(_f, v.witness) - v.witness["gap"]) <= 1e-12


@pytest.mark.parametrize("name", ["double_well_1d", "clamp1d", "arctan_det"])
def test_jensen_calls_f_twice(name):
    entry = corpus_entry(name)
    calls = []

    def counted(arr):
        calls.append(np.shape(arr))
        return entry(arr)

    atoms, weights = two_atom_measures(entry.dims, seed=7, count=3_000,
                                       special_points=entry.special_points)
    v = check_supremal_jensen(counted, atoms, weights)
    # once on all 2 * 3,000 atoms, once on the 3,000 barycenters, witness or not
    assert calls == [(6_000, *entry.dims), (3_000, *entry.dims)]
    assert v.violated == (name != "clamp1d")
