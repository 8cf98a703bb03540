"""Scalar q-arithmetic: q-Pochhammer symbols, q-binomial coefficients and
the eigenvalue sequences of the two oscillator realizations.

All functions are pure and compute in the type of ``q``: a float gives
doubles, an mpmath mpf gives mpf at the precision it carries (a
``QContext``'s numbers carry the context's), and a ``Fraction`` gives
exact rationals.
"""

from __future__ import annotations


def _check_q(q, n: int = 0, name: str = "n"):
    if not 0 < q < 1:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if n < 0:
        raise ValueError(f"{name} must be nonnegative, got {n}")


def pochhammer_prefix(qq, n: int) -> list:
    """[(q, q)_0, ..., (q, q)_n] in the type of qq, one running product;
    n is the top degree of the table rows built on it."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    out = [qq / qq]  # one, in the backend type
    power = out[0]
    for _ in range(n):
        power = power * qq
        out.append(out[-1] * (1 - power))
    return out


def qpochhammer(q, n: int):
    """The finite product (q, q)_n = (1-q)(1-q^2)...(1-q^n).

    Returns 1 for n = 0. Strictly positive for q in (0, 1).
    """
    _check_q(q, n)
    return pochhammer_prefix(q, n)[n]


def qbinomial_row(q, n: int) -> list:
    """The Gaussian binomial coefficients (q,q)_n / ((q,q)_k (q,q)_{n-k})
    for k = 0..n, from one run of Pochhammer partial products; see
    ``qbinomial_triangle`` for the additive recursion."""
    _check_q(q, n)
    return binomials_from_prefix(pochhammer_prefix(q, n), n)


def binomials_from_prefix(poch: list, n: int) -> list:
    """qbinomial_row(q, n) from a pochhammer_prefix of q that reaches n, so
    that every row of a table shares one prefix. The row is symmetric bit
    for bit, a rounded product being the same either way round, so only
    its first half is computed."""
    half = [poch[n] / (poch[k] * poch[n - k]) for k in range(n // 2 + 1)]
    return half + half[::-1][1 - n % 2:]


def qbinomial_triangle(q, nmax: int):
    """All rows D_k^n for n = 0..nmax via D_k^{n+1} = q^k D_k^n + D_{k-1}^n.

    Returns a list of lists, row n having n+1 entries. Every term in the
    recursion is positive, so the triangle is forward stable; it is the
    independent construction the closed form is checked against.
    """
    _check_q(q, nmax, "nmax")
    one = q / q
    rows = [[one]]
    qpowers = [one]
    for n in range(nmax):
        prev = rows[-1]
        qpowers.append(qpowers[-1] * q)
        nxt = []
        for k in range(n + 2):
            left = qpowers[k] * prev[k] if k <= n else 0
            up = prev[k - 1] if k >= 1 else 0
            nxt.append(left + up)
        rows.append(nxt)
    return rows


def arik_coon_eigenvalue(q, n: int):
    """Number-operator eigenvalue (1 - q^n)/(1 - q); zero at n = 0."""
    _check_q(q, n)
    return (1 - q ** n) / (1 - q)


def arik_coon_eigenvalues_by_recursion(q, count: int):
    """First ``count`` eigenvalues from lambda_{n+1} = q lambda_n + 1."""
    _check_q(q)
    lam = q * 0
    out = [lam]
    for _ in range(count - 1):
        lam = q * lam + 1
        out.append(lam)
    return out


def macfarlane_eigenvalue(q, n: int):
    """Number-operator eigenvalue -q^{-n} (1 - q^n)/(1 - q).

    Nonpositive for every n, strictly decreasing in n.
    """
    _check_q(q, n)
    return -(q ** (-n)) * (1 - q ** n) / (1 - q)


def macfarlane_eigenvalues_by_recursion(q, count: int):
    """First ``count`` eigenvalues from q lambda_{n+1} = lambda_n - 1."""
    _check_q(q)
    lam = q * 0
    out = [lam]
    for _ in range(count - 1):
        lam = (lam - 1) / q
        out.append(lam)
    return out


def horner(coeffs, z):
    """sum_k coeffs[k] z^k by Horner's rule, for scalars and numpy arrays
    (object arrays of mpmath numbers included) alike."""
    total = 0 * z
    for c in reversed(coeffs):
        total = total * z + c
    return total


def hermite(n: int, s):
    """Physicists' Hermite polynomial H_n(s).

    Three-term recurrence H_{n+1} = 2 s H_n - 2 n H_{n-1}. Works on
    scalars and on numpy arrays alike.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    h_prev = s * 0 + 1.0
    if n == 0:
        return h_prev
    h = 2.0 * s
    for m in range(1, n):
        h, h_prev = 2.0 * s * h - 2.0 * m * h_prev, h
    return h

