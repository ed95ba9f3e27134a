"""Characteristic polynomials of transient blocks.

The central objects are the polynomial sequences

    g_{0,n+1}(s)     = det(I_n - s P_n)      (discrete chains)
    g~_{0,n+1}(s)    = det(s I_n - Q_n)      (continuous chains)

computed coefficient-by-coefficient through one lower-Hessenberg bottom-row
recurrence for det(x I_n - M_n) (:func:`_charpoly_seq`) rather than by any
dense determinant; the discrete sequence is its coefficients reversed.  Only
the ``law`` output reads them.  ``verify`` checks the same determinants
another way: the stage denominators' products against Hyman's method.
"""

from dataclasses import dataclass

import numpy as np

from .chains import transient_block


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


def _charpoly_seq(chain):
    """[det(x I - M_{n-1}) for n = 0..d] of the chain's transient block M, ascending in x.

    M is lower Hessenberg with superdiagonal u, so expanding along the bottom
    row gives the monic recurrence c_0 = 1 and

        c_{n+1}(x) = (x - M_{n,n}) c_n(x)
                     - sum_{k=1}^{n} M_{n,n-k} u_{n-k}...u_{n-1} c_{n-k}(x).

    The superdiagonal suffix products are accumulated inside the loop,
    keeping the whole sequence O(d^3).
    """
    block = transient_block(chain, chain.d - 1)
    rows, up = block.tolist(), block.diagonal(1).tolist()
    seq = [np.array([1.0])]
    for n in range(chain.d):
        cur = seq[n]
        new = np.zeros(n + 2)
        new[1:] += cur
        new[:-1] -= rows[n][n] * cur
        prod = 1.0  # u_{n-k} ... u_{n-1}, extended as k grows
        for k in range(1, n + 1):
            prod *= up[n - k]
            w = rows[n][n - k] * prod
            if w != 0.0:
                low = seq[n - k]
                new[: len(low)] -= w * low
        seq.append(new)
    return seq


def discrete_charpoly_seq(chain):
    """All prefix characteristic polynomials of a discrete chain.

    Returns the list [g_{0,0}, ..., g_{0,d}] with g_{0,n+1}(s) = det(I_n - s P_n)
    = s^{n+1} det(s^{-1} I_n - P_n): the monic recurrence's coefficients
    reversed.  The constant term is exactly 1 and deg g_{0,n+1} <= n+1.
    """
    return [Polynomial(tuple(c[::-1])) for c in _charpoly_seq(chain)]


def continuous_charpoly_seq(chain):
    """All prefix characteristic polynomials of a continuous chain.

    Returns [g~_{0,0}, ..., g~_{0,d}] with g~_{0,n+1}(s) = det(s I_n - Q_n),
    monic of degree n+1; there M_{n,n} = -gamma_n, M_{n,j} = beta_{n,j} and
    u = alpha in the recurrence of :func:`_charpoly_seq`.
    """
    return [Polynomial(tuple(c)) for c in _charpoly_seq(chain)]
