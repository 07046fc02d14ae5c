"""Hot inner kernels for pulse application, in two interchangeable backends.

The sideband and carrier maps are 2x2 rotations applied across a strided
complex vector; they dominate the runtime of dense runs.  The default
backend compiles them with numba (``@njit`` with on-disk caching).  Set
``IONCHAIN_BACKEND=numpy`` to select the pure-numpy path instead, e.g.
where numba is unavailable or for cross-checking.  Both implementations
compute the same expressions in the same order; the numpy path and the
batched Monte Carlo share ``rotate_pairs``.

``benchmarks/bench_backends.py`` compares the two paths.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

_ENV_VAR = "IONCHAIN_BACKEND"


def _resolve_backend() -> str:
    requested = os.environ.get(_ENV_VAR, "numba").strip().lower()
    if requested not in ("numba", "numpy"):
        raise ValueError(
            f"{_ENV_VAR} must be 'numba' or 'numpy', got {requested!r}"
        )
    if requested == "numba" and not HAS_NUMBA:
        warnings.warn(
            "numba is not importable; falling back to the numpy backend",
            RuntimeWarning,
            stacklevel=2,
        )
        return "numpy"
    return requested


BACKEND = _resolve_backend()


def pair_tables(theta, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of each sideband pair's half angle, Fock row m last.

    Pair m couples |x,m> with |g,m+1>; its rotation angle is
    theta*sqrt(m+1)/2.  ``theta`` may be a scalar or an array of areas, one
    table row per area.
    """
    half = 0.5 * np.asarray(theta)[..., None] * np.sqrt(
        np.arange(1, n_max + 1, dtype=np.float64)
    )
    return np.cos(half), np.sin(half)


def rotate_pairs(a, b, c, s, phi: float, out_a, out_b) -> None:
    """Write the closed-form pulse on coupled amplitude pairs (a, b).

    Sets ``out_a = c*a - e^{+i phi} s*b`` and ``out_b = c*b + e^{-i phi} s*a``;
    the outputs must not overlap the inputs.  Sideband pairs are
    (|g,m+1>, |x,m>) and carrier pairs (|e>, |g>); every caller goes through
    this one expression, so dense and batched paths agree bitwise.  Writing
    in place keeps one result at a time alive, which on long chains is
    measurably faster than returning both.
    """
    e_plus = np.exp(1j * phi)
    e_minus = np.exp(-1j * phi)
    out_a[...] = c * a - e_plus * (s * b)
    out_b[...] = c * b + e_minus * (s * a)


# ---------------------------------------------------------------------------
# numpy backend
# ---------------------------------------------------------------------------


def sideband_numpy(
    amps: np.ndarray,
    n_ions: int,
    n_max: int,
    ion0: int,
    x_level: int,
    theta: float,
    phi: float,
) -> np.ndarray:
    c, s = pair_tables(theta, n_max)
    pre = 3**ion0
    mid = 3 ** (n_ions - 1 - ion0)
    a = amps.reshape(pre, 3, mid, n_max + 1)
    out = a.copy()
    # |g,m+1> row then |x,m> row of each pair block.
    rotate_pairs(
        a[:, 0, :, 1:], a[:, x_level, :, :-1], c, s, phi,
        out[:, 0, :, 1:], out[:, x_level, :, :-1],
    )
    return out.reshape(-1)


def carrier_numpy(
    amps: np.ndarray,
    n_ions: int,
    n_max: int,
    ion0: int,
    theta: float,
    phi: float,
) -> np.ndarray:
    c = np.cos(0.5 * theta)
    s = np.sin(0.5 * theta)
    pre = 3**ion0
    post = 3 ** (n_ions - 1 - ion0) * (n_max + 1)
    a = amps.reshape(pre, 3, post)
    out = a.copy()
    rotate_pairs(a[:, 1, :], a[:, 0, :], c, s, phi, out[:, 1, :], out[:, 0, :])
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# numba backend
# ---------------------------------------------------------------------------

if HAS_NUMBA:

    @njit(cache=True)
    def _sideband_jit(amps, out, ion_stride, x_level, n_levels, c, s, e_plus, e_minus):
        dim = amps.shape[0]
        for idx in range(dim):
            d = (idx // ion_stride) % 3
            n = idx % n_levels
            if d == 0:
                if n == 0:
                    out[idx] = amps[idx]
                else:
                    j = idx + x_level * ion_stride - 1  # partner |x,n-1>
                    out[idx] = c[n - 1] * amps[idx] - e_plus * (s[n - 1] * amps[j])
            elif d == x_level:
                if n == n_levels - 1:
                    out[idx] = amps[idx]
                else:
                    j = idx - x_level * ion_stride + 1  # partner |g,n+1>
                    out[idx] = c[n] * amps[idx] + e_minus * (s[n] * amps[j])
            else:
                out[idx] = amps[idx]

    @njit(cache=True)
    def _carrier_jit(amps, out, ion_stride, theta, phi):
        c = np.cos(0.5 * theta)
        s = np.sin(0.5 * theta)
        e_plus = np.exp(1j * phi)
        e_minus = np.exp(-1j * phi)
        dim = amps.shape[0]
        for idx in range(dim):
            d = (idx // ion_stride) % 3
            if d == 0:
                j = idx + ion_stride
                out[idx] = c * amps[idx] + e_minus * (s * amps[j])
            elif d == 1:
                j = idx - ion_stride
                out[idx] = c * amps[idx] - e_plus * (s * amps[j])
            else:
                out[idx] = amps[idx]

    def sideband_numba(amps, n_ions, n_max, ion0, x_level, theta, phi):
        c, s = pair_tables(theta, n_max)
        out = np.empty_like(amps)
        ion_stride = 3 ** (n_ions - 1 - ion0) * (n_max + 1)
        _sideband_jit(
            amps, out, ion_stride, x_level, n_max + 1, c, s,
            np.exp(1j * phi), np.exp(-1j * phi),
        )
        return out

    def carrier_numba(amps, n_ions, n_max, ion0, theta, phi):
        out = np.empty_like(amps)
        ion_stride = 3 ** (n_ions - 1 - ion0) * (n_max + 1)
        _carrier_jit(amps, out, ion_stride, theta, phi)
        return out

else:  # pragma: no cover - exercised only without numba
    sideband_numba = None
    carrier_numba = None


_IMPLEMENTATIONS = {
    "numpy": (sideband_numpy, carrier_numpy),
    "numba": (sideband_numba, carrier_numba),
}

sideband_apply, carrier_apply = _IMPLEMENTATIONS[BACKEND]
