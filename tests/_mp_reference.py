"""Extended-precision reference implementations used only by the tests.

These are deliberate twins of the shipped double-precision code: the branch
equation root, the order-by-order series recursion and the truncated-series
eigenvalue are redone in mpmath so that convergence orders can be measured
far below the double-precision noise floor and the shipped coefficients have
an independent high-precision anchor.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 40


def branch_sigma(branch) -> int:
    return branch.series_sign


def mp_root_s(n: int, branch, Z) -> mp.mpf:
    """Root of t*sinh t = sigma*s*sin s with t = Z/(2s), s near n*pi."""
    sigma = branch_sigma(branch)
    Z = mp.mpf(Z)
    a = n * mp.pi

    def f(s):
        t = Z / (2 * s)
        return t * mp.sinh(t) - sigma * s * mp.sin(s)

    guess = a + sigma * (-1) ** n * (Z / (2 * a)) ** 2 / a
    return mp.findroot(f, guess)


def mp_constraint_factor(s, Z, branch) -> mp.mpf:
    """Branch factor t*sinh t +/- s*sin s on the constraint curve t = Z/(2s)."""
    t = Z / (2 * s)
    return t * mp.sinh(t) + branch.sin_term_sign * s * mp.sin(s)


def mp_series_coefficients(n: int, branch, max_order: int) -> list[mp.mpf]:
    """Order-by-order recursion in mp arithmetic; mirrors the shipped solver."""
    a = n * mp.pi
    sp = branch_sigma(branch) * (-1) ** n
    M = max_order
    lhs = [mp.mpf(0)] * (M + 1)
    for m in range(1, M // 2 + 1):
        lhs[2 * m] = 1 / mp.factorial(2 * m - 1)

    rho = [mp.mpf(0)] * (M + 1)

    def mul(x, y):
        out = [mp.mpf(0)] * (M + 1)
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if i + j > M:
                    break
                out[i + j] += xi * yj
        return out

    for m in range(1, M // 2 + 1):
        sin_rho = [mp.mpf(0)] * (M + 1)
        term = list(rho)
        sign, fact, power = mp.mpf(1), mp.mpf(1), 1
        while power <= M:
            for i in range(M + 1):
                sin_rho[i] += sign / fact * term[i]
            term = mul(mul(term, rho), rho)
            power += 2
            sign = -sign
            fact *= (power - 1) * power
        shifted = list(rho)
        shifted[0] += a
        rhs = mul(shifted, sin_rho)
        rho[2 * m] = sp * (lhs[2 * m] - sp * rhs[2 * m]) / a

    return [rho[2 * i] for i in range(1, M // 2 + 1)]


def mp_truncated_energy(n: int, branch, Z, coeffs) -> tuple[mp.mpf, mp.mpf]:
    """Eigenvalue of the truncated series closed with 2st = Z, in mp.

    ``coeffs`` may be doubles (the shipped values) or mp numbers; they are
    used exactly as given.  Returns (E, t)."""
    a = n * mp.pi
    Z = mp.mpf(Z)
    cs = [mp.mpf(c) for c in coeffs]

    def rho(t):
        tt = t * t
        acc = mp.mpf(0)
        for c in reversed(cs):
            acc = (acc + c) * tt
        return acc

    t = Z / (2 * a)
    for _ in range(300):
        t_next = Z / (2 * (a + rho(t)))
        if abs(t_next - t) < mp.mpf(10) ** -35:
            t = t_next
            break
        t = t_next
    s = a + rho(t)
    return s * s - t * t, t


def mp_reference_energy(n: int, branch, Z) -> mp.mpf:
    s = mp_root_s(n, branch, Z)
    t = mp.mpf(Z) / (2 * s)
    return s * s - t * t
