import numpy as np
import pytest

from ddro.linalg import SymMatrix, min_eigenpair, sym_eig


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return SymMatrix((a + a.T) / 2.0)


def random_psd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return SymMatrix.from_array(a @ a.T)


def test_symmatrix_rejects_asymmetric():
    with pytest.raises(ValueError):
        SymMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        SymMatrix(np.zeros((2, 3)))


def test_symmatrix_from_array_symmetrizes():
    m = SymMatrix.from_array(np.array([[1.0, 2.0 + 1e-10], [2.0, 1.0]]))
    assert m.entries[0, 1] == m.entries[1, 0]


def test_identity_eigenvalues():
    pairs = sym_eig(SymMatrix(np.eye(3)))
    assert [round(lam, 12) for lam, _ in pairs] == [1.0, 1.0, 1.0]


def test_closed_form_2x2():
    pairs = sym_eig(SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
    lams = [lam for lam, _ in pairs]
    assert abs(lams[0] - 1.0) < 1e-12 and abs(lams[1] - 3.0) < 1e-12
    v0 = pairs[0][1]
    v1 = pairs[1][1]
    # eigenvectors up to sign
    assert min(np.abs(v0 - [1, -1] / np.sqrt(2)).max(),
               np.abs(v0 + [1, -1] / np.sqrt(2)).max()) < 1e-9
    assert min(np.abs(v1 - [1, 1] / np.sqrt(2)).max(),
               np.abs(v1 + [1, 1] / np.sqrt(2)).max()) < 1e-9


def test_eig_reconstruction_seeded_6x6():
    rng = np.random.default_rng(42)
    m = random_symmetric(rng, 6)
    pairs = sym_eig(m)
    V = np.column_stack([v for _, v in pairs])
    lam = np.array([l for l, _ in pairs])
    recon = V @ np.diag(lam) @ V.T
    assert np.abs(recon - m.entries).max() <= 1e-8


def test_eig_contract_residual_and_orthonormality():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = random_symmetric(rng, n, scale=float(rng.uniform(0.1, 50.0)))
        pairs = sym_eig(m)
        scale = max(1.0, np.abs(m.entries).max())
        V = np.column_stack([v for _, v in pairs])
        lam = np.array([l for l, _ in pairs])
        assert np.all(np.diff(lam) >= -1e-12)
        resid = m.entries @ V - V * lam[None, :]
        assert np.abs(resid).max() <= 1e-9 * scale
        assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-9


def test_eig_matches_numpy():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        m = random_symmetric(rng, n, scale=3.0)
        ours = np.array([l for l, _ in sym_eig(m)])
        ref = np.linalg.eigvalsh(m.entries)
        assert np.abs(ours - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        m = random_symmetric(rng, n, scale=10.0)
        lams = sum(l for l, _ in sym_eig(m))
        tr = float(np.trace(m.entries))
        assert abs(lams - tr) <= 1e-9 * max(1.0, abs(tr))


def test_dd_implies_psd():
    rng = np.random.default_rng(3)
    found = 0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        # force diagonal dominance
        np.fill_diagonal(a, np.abs(a).sum(axis=1) - np.abs(np.diag(a))
                         + rng.uniform(0, 1, n))
        m = SymMatrix(a)
        assert np.all(np.diag(a) >= np.abs(a).sum(axis=1) - np.abs(np.diag(a)))
        found += 1
        assert min_eigenpair(m)[0] >= -1e-9
    assert found == 500


def test_cholesky_iff_psd_cross_check():
    # the PSD verdict of min_eigenpair agrees with an independent one: a
    # Cholesky factorization (numpy's) succeeds exactly when the smallest
    # eigenvalue clears the PSD tolerance, on a spread of clearly PSD /
    # clearly indefinite cases
    rng = np.random.default_rng(17)
    n_checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        if rng.random() < 0.5:
            m = random_psd(rng, n)
        else:
            m = random_symmetric(rng, n)
        scale = max(1.0, np.abs(m.entries).max())
        lam_min = min_eigenpair(m)[0]
        if abs(lam_min) <= 1e-8 * scale:
            continue  # too close to the boundary to classify
        try:
            np.linalg.cholesky(m.entries)
            ok = True
        except np.linalg.LinAlgError:
            ok = False
        assert ok == (lam_min >= -1e-10 * scale)
        n_checked += 1
    assert n_checked > 900
