"""Polynomial arithmetic and determinant recurrences for transient blocks.

The central objects are the polynomial sequences

    g_{0,n+1}(s)     = det(I_n - s P_n)      (discrete chains)
    g~_{0,n+1}(s)    = det(s I_n - Q_n)      (continuous chains)

computed coefficient-by-coefficient through the lower-Hessenberg bottom-row
recurrences rather than by any dense determinant.  The dense route survives
as :func:`direct_determinant`, the independent oracle the recurrences are
verified against.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Polynomial:
    """Real-coefficient polynomial in ascending powers.

    Trailing coefficients equal to exactly 0.0 are trimmed at construction;
    nothing is ever rounded away.  The zero polynomial keeps one 0.0 entry.
    """

    coeffs: tuple

    def __post_init__(self):
        c = tuple(float(x) for x in self.coeffs)
        if not c:
            raise ValueError("a polynomial needs at least one coefficient")
        n = len(c)
        while n > 1 and c[n - 1] == 0.0:
            n -= 1
        object.__setattr__(self, "coeffs", c[:n])

    @property
    def degree(self):
        return len(self.coeffs) - 1


def _coeffs(p):
    return p.coeffs if isinstance(p, Polynomial) else Polynomial(tuple(p)).coeffs


def poly_eval(a, x):
    """Evaluate at a real or complex point by Horner's scheme."""
    acc = 0.0
    for c in reversed(_coeffs(a)):
        acc = acc * x + c
    return acc


def discrete_charpoly_seq(chain):
    """All prefix characteristic polynomials of a discrete chain.

    Returns the list [g_{0,0}, ..., g_{0,d}] where g_{0,0} = 1 and

        g_{0,n+1}(s) = (1 - r_n s) g_{0,n}(s)
                       - sum_{k=1}^{n} q_{n,n-k} s^{k+1} p_{n-k}...p_{n-1} g_{0,n-k}(s),

    so that g_{0,n+1}(s) = det(I_n - s P_n).  The constant term stays
    exactly 1 and deg g_{0,n+1} <= n+1.  Up-probability suffix products are
    accumulated inside the loop, keeping the whole sequence O(d^3).

    Parameters
    ----------
    chain : DiscreteChain

    Returns
    -------
    list of Polynomial, length d+1
    """
    r, p, q = chain.hold, chain.up, chain.down
    seq = [np.array([1.0])]
    for n in range(chain.d):
        cur = seq[n]
        new = np.zeros(n + 2)
        new[: len(cur)] += cur
        new[1 : len(cur) + 1] -= r[n] * cur
        prod = 1.0  # p_{n-k} ... p_{n-1}, extended as k grows
        for k in range(1, n + 1):
            prod *= p[n - k]
            w = q[n][n - k] * prod
            if w != 0.0:
                low = seq[n - k]
                new[k + 1 : k + 1 + len(low)] -= w * low
        seq.append(new)
    return [Polynomial(tuple(c)) for c in seq]


def continuous_charpoly_seq(chain):
    """All prefix characteristic polynomials of a continuous chain.

    Returns [g~_{0,0}, ..., g~_{0,d}] where g~_{0,0} = 1 and

        g~_{0,n+1}(s) = (s + gamma_n) g~_{0,n}(s)
                        - sum_{k=1}^{n} beta_{n,n-k} alpha_{n-k}...alpha_{n-1} g~_{0,n-k}(s),

    so that g~_{0,n+1}(s) = det(s I_n - Q_n), monic of degree n+1.

    Parameters
    ----------
    chain : ContinuousChain

    Returns
    -------
    list of Polynomial, length d+1
    """
    alpha, beta, gamma = chain.up, chain.down, chain.gamma
    seq = [np.array([1.0])]
    for n in range(chain.d):
        cur = seq[n]
        new = np.zeros(n + 2)
        new[: len(cur)] += gamma[n] * cur
        new[1 : len(cur) + 1] += cur
        prod = 1.0  # alpha_{n-k} ... alpha_{n-1}
        for k in range(1, n + 1):
            prod *= alpha[n - k]
            w = beta[n][n - k] * prod
            if w != 0.0:
                low = seq[n - k]
                new[: len(low)] -= w * low
        seq.append(new)
    return [Polynomial(tuple(c)) for c in seq]


def direct_determinant(matrix, s, kind):
    """Dense-determinant oracle: det(I - s M) or det(s I - M).

    ``s`` is a real or complex scalar or a 1-D array of points (returns an
    array): the matrices of all the points are stacked and factored in one
    ``np.linalg.det`` call, by LU with partial pivoting on each.  This is
    the brute-force cross-check for the recurrences above and the law's
    transforms, and is deliberately independent of both.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    points = np.asarray(s)
    points = points.astype(np.result_type(points, float))
    if points.ndim > 1:
        raise ValueError("s must be a scalar or a 1-D array of points")
    stacked = np.atleast_1d(points)[:, None, None]
    eye = np.eye(m.shape[0])
    if kind == "discrete":
        dets = np.linalg.det(eye - stacked * m)
    elif kind == "continuous":
        dets = np.linalg.det(stacked * eye - m)
    else:
        raise ValueError(f'kind must be "discrete" or "continuous", got {kind!r}')
    return dets if points.ndim else dets[0].item()
