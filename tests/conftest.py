"""Shared fixtures: reference frames printed to 4 digits, random generators."""

import numpy as np
import pytest

import frameopt as fo

# 7 vectors in R^5; frame-operator spectrum (9, 5, 4, 2, 1) to ~5e-3.
EJ1_SYNTHESIS = np.array(
    [
        [0.9202, -0.7476, -0.4674, 0.9164, 0.1621, 0.3172, -0.5815],
        [0.4556, 0.0164, 0.0636, 1.0372, -1.6172, 0.3688, 0.2559],
        [-0.0885, -0.3495, -0.9103, 0.3672, -0.6706, -0.9252, 0.6281],
        [0.1380, -0.4672, -0.6228, -0.1660, 0.9419, 1.0760, 1.1687],
        [0.7082, 0.2412, -0.1579, -1.8922, -0.4026, 0.1040, 1.6648],
    ]
)

# 8 vectors in R^5; frame-operator spectrum (5/2, 2, 2/3, 1/3, 1/4), so the
# inverse operator has spectrum (4, 3, 3/2, 1/2, 2/5).
DUAL_SYNTHESIS = np.array(
    [
        [-0.5124, 0.5695, 0.4542, -0.3527, -0.2452, 0.1260, 0.0558, -0.3513],
        [-0.4965, 0.0478, 0.1579, -0.2299, -0.9348, -0.6935, -0.0836, 0.7641],
        [0.2777, 0.2875, -0.4974, 0.0086, 0.1893, -0.0916, 0.2501, -0.0722],
        [-0.3793, -0.7849, -0.4783, -0.2566, 0.3450, -0.0749, -0.2939, 0.3785],
        [0.0725, -0.0803, -0.2075, -0.2967, -0.1518, 0.2077, -0.2050, 0.4226],
    ]
)


@pytest.fixture
def ej1_frame():
    return fo.Frame(EJ1_SYNTHESIS)


@pytest.fixture
def dual_frame():
    return fo.Frame(DUAL_SYNTHESIS)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def random_hermitian(rng, d, cplx=False):
    a = rng.standard_normal((d, d))
    if cplx:
        a = a + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


def random_psd(rng, d, rank=None, cplx=False):
    r = d if rank is None else rank
    z = rng.standard_normal((d, r))
    if cplx:
        z = z + 1j * rng.standard_normal((d, r))
    return z @ z.conj().T


def random_spectrum(rng, d, low=0.1, high=5.0):
    return np.sort(rng.uniform(low, high, size=d))[::-1]


def random_unitary(rng, d, cplx=False):
    a = rng.standard_normal((d, d))
    if cplx:
        a = a + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def frame_with_spectrum(rng, sigma, n, cplx=False):
    """Frame on C^d whose frame operator has the prescribed spectrum."""
    sigma = np.asarray(sigma, dtype=float)
    d = sigma.size
    assert n >= d
    v = random_unitary(rng, d, cplx)
    rows = random_unitary(rng, n, cplx)[:d, :]
    return fo.Frame((v * np.sqrt(sigma)) @ rows)


def fix_phases_loop(v):
    """Copy of v with each column's first entry above 1e-8 * its norm made real positive."""
    v = v.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        thresh = 1e-8 * float(np.linalg.norm(col))
        nz = np.flatnonzero(np.abs(col) > thresh)
        if nz.size == 0:
            continue
        pivot = col[nz[0]]
        if np.iscomplexobj(v):
            v[:, j] = col * (np.conj(pivot) / abs(pivot))
            v[nz[0], j] = abs(pivot)
        elif pivot < 0.0:
            v[:, j] = -col
    return v


def null_space_onb(m):
    """Orthonormal kernel basis of a spanning d x n synthesis, for checking duals:
    the trailing n - d right singular vectors of one full SVD, phase-fixed."""
    return fix_phases_loop(np.linalg.svd(m)[2][m.shape[0]:].conj().T)


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper; returns the list of its calls' kwargs."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def mixed_toward_average(rng, lam, rounds=None, positive=False):
    """Random vector majorized by lam (averaging pairs only ever flattens)."""
    out = np.array(lam, dtype=float)
    k = out.size
    if rounds is None:
        rounds = 3 * k
    for _ in range(rounds):
        i, j = rng.integers(0, k, size=2)
        if i == j:
            continue
        theta = rng.uniform(0.0, 0.5)
        delta = theta * (out[i] - out[j])
        out[i] -= delta
        out[j] += delta
    if positive:
        while np.any(out <= 0.0):
            i = int(np.argmin(out))
            j = int(np.argmax(out))
            theta = rng.uniform(0.25, 0.5)
            delta = theta * (out[j] - out[i])
            out[i] += delta
            out[j] -= delta
    return out


def spread_away_from(rng, beta, rounds=None):
    """Random nonnegative vector that majorizes beta (reverse transfers)."""
    out = np.sort(np.asarray(beta, dtype=float))[::-1]
    k = out.size
    if rounds is None:
        rounds = 2 * k
    for _ in range(rounds):
        if k < 2:
            break
        i, j = sorted(rng.integers(0, k, size=2))
        if i == j or out[j] <= 0.0:
            continue
        delta = rng.uniform(0.0, out[j])
        out[i] += delta
        out[j] -= delta
        out = np.sort(out)[::-1]
    return out
