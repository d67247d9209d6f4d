import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import minors_array
from supcon.matspace import is_rank_one_connected, minors_batch, tau


def test_tau_examples():
    assert tau(2, 2) == 5
    for n in range(1, 7):
        assert tau(1, n) == n
    assert tau(3, 3) == 19


def test_tau_symmetry():
    for N in range(1, 5):
        for n in range(1, 5):
            assert tau(N, n) == tau(n, N)


def test_tau_rejects_nonpositive():
    with pytest.raises(ValueError):
        tau(0, 2)


def test_minors_identity_2x2():
    assert minors_batch(np.eye(2)).tolist() == [1.0, 0.0, 0.0, 1.0, 1.0]


def test_minors_explicit_2x2():
    assert minors_batch([[1.0, 2.0], [3.0, 4.0]]).tolist() == [1.0, 2.0, 3.0, 4.0, -2.0]


def test_minors_row_matrix_is_itself():
    assert minors_batch([[2.0, -1.0, 5.0]]).tolist() == [2.0, -1.0, 5.0]


def test_minors_first_block_is_entries():
    rng = np.random.default_rng(0)
    for _ in range(20):
        N, n = rng.integers(1, 4, size=2)
        m = rng.normal(size=(N, n))
        vals = minors_batch(m)
        assert np.array_equal(vals[: N * n], m.ravel())


def test_minors_batch_matches_single():
    rng = np.random.default_rng(1)
    arr = rng.normal(size=(7, 3, 3))
    batch = minors_batch(arr)
    for i in range(7):
        assert np.allclose(batch[i], minors_array(arr[i]), atol=1e-12)


@pytest.mark.parametrize("N,n", [(2, 2), (2, 3), (3, 3)])
def test_minors_affine_along_rank_one_lines(N, n):
    # the minors vector restricted to a rank-one segment is affine: its
    # second differences on an equispaced lambda grid vanish
    rng = np.random.default_rng(2)
    for _ in range(50):
        xi = rng.normal(size=(N, n))
        d = np.outer(rng.normal(size=N), rng.normal(size=n))
        lams = np.linspace(0.0, 1.0, 7)
        T = minors_batch([xi + lam * d for lam in lams])
        second_diff = T[2:] - 2 * T[1:-1] + T[:-2]
        assert np.max(np.abs(second_diff)) <= 1e-9


def test_rank_one_connected_outer_product():
    a = np.array([1.0, -2.0])
    nu = np.array([0.5, 0.5])
    xi = np.random.default_rng(3).normal(size=(2, 2))
    assert is_rank_one_connected(xi, xi + np.outer(a, nu))


def test_rank_one_connected_zero_difference_false():
    xi = np.eye(2)
    assert not is_rank_one_connected(xi, xi)


def test_rank_one_connected_full_rank_false():
    assert not is_rank_one_connected(np.eye(2), np.zeros((2, 2)))


def test_rank_one_scalars():
    assert is_rank_one_connected(np.array([[1.0]]), np.array([[0.0]]))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10_000))
def test_shifted_rank_one_is_connected(N, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=N)
    nu = rng.normal(size=n)
    if np.linalg.norm(a) < 1e-6 or np.linalg.norm(nu) < 1e-6:
        return
    xi = rng.normal(size=(N, n))
    assert is_rank_one_connected(xi, xi + np.outer(a, nu / np.linalg.norm(nu)))


def test_minor_vector_length_checked():
    assert minors_batch(np.eye(3)).shape == (tau(3, 3),)
