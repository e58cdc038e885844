import numpy as np
import pytest
import scipy.linalg as sla

from geoprec._rng import substream
from geoprec.group import GroupElement, LieDirection


def complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def hermitian(rng, n):
    M = complex_gaussian(rng, (n, n))
    return 0.5 * (M + M.conj().T)


def random_unitary(rng, n):
    q, r = np.linalg.qr(complex_gaussian(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def block_hermitian(rng, blocks, size):
    """Hermitian matrix supported on the scheme's block pattern."""
    out = np.zeros((size, size), dtype=complex)
    for a, b in blocks:
        out[a:b, a:b] = hermitian(rng, b - a)
    return out


def random_direction(rng, scheme, norm=None):
    H1 = block_hermitian(rng, scheme.left_blocks, scheme.m)
    H2 = None
    if scheme.side == "both":
        H2 = block_hermitian(rng, scheme.right_blocks, scheme.n)
    d = LieDirection(scheme, H1, H2)
    if norm is not None:
        d = d.scaled(norm / d.norm)
    return d


def random_element(rng, scheme, spread=0.5):
    """Random Hermitian PD block-diagonal group element."""
    X = sla.expm(spread * block_hermitian(rng, scheme.left_blocks, scheme.m))
    Y = None
    if scheme.side == "both":
        Y = sla.expm(spread * block_hermitian(rng, scheme.right_blocks, scheme.n))
    return GroupElement(scheme, X, Y)


def rng_for(*key):
    return substream(20240817, *key)


@pytest.fixture
def example1_matrix():
    """The 3x3 triangular worked example whose Jacobi scalings worsen kappa."""
    return np.array([[3, 0, 0], [1, 1, 0], [0, 3, 1]], dtype=complex)


@pytest.fixture
def lapack_calls(monkeypatch):
    """(routine, info) for every call of a LAPACK routine that geoprec takes from
    scipy.linalg.get_lapack_funcs, the routine named without its type prefix."""
    calls, real = [], sla.get_lapack_funcs

    def spied(name, f):
        def call(*args, **kwargs):
            out = f(*args, **kwargs)
            calls.append((name, out[-1]))
            return out
        return call

    def get_lapack_funcs(names, *args, **kwargs):
        funcs = real(names, *args, **kwargs)
        if isinstance(names, str):
            return spied(names, funcs)
        return [spied(n, f) for n, f in zip(names, funcs)]

    monkeypatch.setattr(sla, "get_lapack_funcs", get_lapack_funcs)
    return calls


@pytest.fixture
def linalg_calls(monkeypatch):
    """The 2-D arguments of every np.linalg.qr and np.linalg.inv call, by name."""
    calls = {"qr": [], "inv": []}

    def spying(name):
        real, seen = getattr(np.linalg, name), calls[name]

        def spy(x, *args, **kwargs):
            if np.ndim(x) == 2:
                seen.append(np.array(x))
            return real(x, *args, **kwargs)
        return spy

    for name in calls:
        monkeypatch.setattr(np.linalg, name, spying(name))
    return calls
