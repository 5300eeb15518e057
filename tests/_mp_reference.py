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


def mp_ground_energy(Z, dps: int = 50) -> mp.mpf:
    """E of the n = 0 level (FACTOR_MINUS, s near sqrt(Z/2)) at a small
    coupling Z > 0, from a root found at ``dps`` digits more than the
    log10(24/Z) that forming s**2 - t**2 loses (E is about Z**2/12 there).
    The root is solved for u = s/sqrt(Z/2), which is about 1 at every small
    Z, so that findroot's second point, its first plus 1/4, lies on the
    root's scale (for s itself it does not: at Z = 1e-300 the secant steps
    to s = 0)."""
    with mp.workdps(dps + max(0, int(mp.log10(24 / Z)))):
        h = mp.sqrt(mp.mpf(Z) / 2)  # s = h*u, t = Z/(2s) = h/u

        def f(u):
            return (h / u) * mp.sinh(h / u) - h * u * mp.sin(h * u)

        u = mp.findroot(f, 1)
        return h * h * (u * u - 1 / (u * u))


def mp_reference_energy(n: int, branch, Z) -> mp.mpf:
    s = mp_root_s(n, branch, Z)
    t = mp.mpf(Z) / (2 * s)
    return s * s - t * t


def _mp_factor_parts(s, Z, sign):
    """F, F_s, F_ss, F_Z, F_sZ of t*sinh t + sign*s*sin s on t = Z/(2s), in mp."""
    t = Z / (2 * s)
    sh, ch, sn, cs = mp.sinh(t), mp.cosh(t), mp.sin(s), mp.cos(s)
    g1, g2 = sh + t * ch, 2 * ch + t * sh
    return (
        t * sh + sign * s * sn,
        -(t / s) * g1 + sign * (sn + s * cs),
        (t / (s * s)) * (2 * g1 + t * g2) + sign * (2 * cs - s * sn),
        g1 / (2 * s),
        -(g1 + t * g2) / (2 * s * s),
    )


def _mp_newton(s, Z, sign):
    for _ in range(60):
        F, F_s = _mp_factor_parts(s, Z, sign)[:2]
        step = F / F_s
        s -= step
        if abs(step) < mp.mpf(10) ** -34 * abs(s):
            return s
    raise ArithmeticError(f"mp Newton did not converge at Z={Z}")


def mp_broken_branch(fold, targets, max_move="0.05"):
    """Complex root s(Z) of a broken pair at each Z of ``targets`` (ascending,
    above the fold), by a small-step continuation in mp.

    The fold (s_merge, Z_crit) is re-polished as F = F_s = 0, the root is
    started on the Im s > 0 member by the square-root unfolding 1e-6 above it,
    and then follows ds/dZ = -F_Z/F_s by Euler steps that move s by at most
    min(max_move, |Im s|/20), each corrected by Newton to 34 digits.  Pairs
    at large Z lie about 1.6 apart in Re s, so with the default 0.05 no
    step comes near a neighbouring root.  Returns {Z: (s, E = s**2 - t**2)}.
    """
    sign, cap = fold.branch.sin_term_sign, mp.mpf(max_move)
    s, Z = mp.mpf(fold.s_merge), mp.mpf(fold.Z_crit)
    for _ in range(50):
        F, F_s, F_ss, F_Z, F_sZ = _mp_factor_parts(s, Z, sign)
        det = F_s * F_sZ - F_Z * F_ss
        ds, dZ = (F_Z * F_s - F * F_sZ) / det, (F * F_ss - F_s * F_s) / det
        s, Z = s + ds, Z + dZ
        if abs(ds) + abs(dZ) < mp.mpf(10) ** -30:
            break
    _, _, F_ss, F_Z, _ = _mp_factor_parts(s, Z, sign)
    dZ0 = mp.mpf("1e-6")
    s, Z = mp.mpc(s, mp.sqrt(abs(2 * F_Z / F_ss) * dZ0)), Z + dZ0
    s = _mp_newton(s, Z, sign)
    out = {}
    for target in targets:
        target = mp.mpf(target)
        while Z < target:
            _, F_s, _, F_Z, _ = _mp_factor_parts(s, Z, sign)
            slope = -F_Z / F_s
            Z_next = min(target, Z + min(cap, abs(s.imag) / 20) / abs(slope))
            s, Z = _mp_newton(s + (Z_next - Z) * slope, Z_next, sign), Z_next
        t = Z / (2 * s)
        out[target] = (s, s * s - t * t)
    return out
