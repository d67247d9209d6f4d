"""Metamorphic twins: invariances that theory fixes, checked without an oracle.

The supremal notions are sublevel-set notions, so the level-convex lsc
envelope commutes with every strictly increasing h: each node's value is
the smallest sampled threshold whose sublevel hull holds it, and h maps
sublevel sets of f onto those of h∘f.  The envelope only compares and picks
sampled values, so the twin holds bit for bit.
"""

import numpy as np
import pytest

from supcon.envelope import level_convex_lsc_envelope
from supcon.funcspace import GridSpec, corpus_entry, corpus_names, sample

INCREASING = {
    "2t+1": lambda t: 2.0 * t + 1.0,
    "exp": np.exp,
    "t^3+t": lambda t: t ** 3 + t,
}


def _grid(dims):
    # 61 nodes on a scalar axis, 5 per axis (625 nodes) on a 2x2 grid
    return GridSpec(dims, 2.0, 61 if dims == (1, 1) else 5)


@pytest.mark.parametrize("h", INCREASING, ids=list(INCREASING))
@pytest.mark.parametrize("name", corpus_names())
def test_lslc_commutes_with_increasing_maps(name, h):
    entry = corpus_entry(name)
    f = sample(entry, _grid(entry.dims))
    twin = level_convex_lsc_envelope(f.with_values(INCREASING[h](f.values)))
    mapped = INCREASING[h](level_convex_lsc_envelope(f).values)
    assert np.array_equal(twin.values, mapped)
