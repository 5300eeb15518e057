"""Real spectrum at fixed coupling: root scanning on the constraint curve and
the small-coupling perturbation series.

Scanning works in the s variable.  Along the constraint curve t = Z/(2s) the
factors have root spacing of order pi (set by s*sin s), so a grid of step
pi/64 cannot skip a sign change below the scan ceilings used here; roots that
accumulate at small t are the same roots seen at large s.  The nodes, 2*s
and s*sin s do not depend on Z: one read-only record per process holds them
up to the largest s_max scanned, at most 10^4, and a scan reads its nodes as
views of it (``_scan_grid``).  What depends on Z is one numpy pass over the
grid: t = Z/(2s) and t*sinh t, once for both factors, which it gives as the
two rows of one array; t*sinh t is clamped to +inf on a prefix of the nodes
only, where t exceeds 350.  One sign test over the two rows laid end to
end finds the brackets, minus before plus, less the cell that joins the
rows.  Each bracket is refined by ``_brent``, the package's one Brent: an
in-module copy of scipy's ``brentq`` that evaluates the factor inline, so
its roots are bit-identical to ``scipy.optimize.brentq(constraint_factor,
...)`` with no scipy at run time, and no Newton polish (see ``_brent`` for
the trims of its loop).  The root is accepted by the one rounding-aware
residual rule of ``secular``, which holds at every s, and its point is then
built once, by ``SpectralPoint._at_root``, without the public constructor's
re-checks.  A request or refinement whose coupling (and ceiling) is a float
in range skips the type and range checks that only other inputs need.
Each level is labelled n = round(s/pi) together with the factor that
vanished.

The perturbation series writes a root near s = n*pi as s = n*pi + rho(t)
with rho even in t, and solves the branch equation

    t*sinh t = sigma*(-1)^n * (n*pi + rho) * sin(rho)

order by order (``series_coefficients``).  An independent least-squares fit
of rho(t) sampled at small t (``fit_series_numeric``) arbitrates the
coefficients.  The leading term is sigma*(-1)^n/(n*pi) * t**2, and the fit's
samples are solved from it together, by Newton's method on numpy arrays
(``_rhos_at``).
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, FitConditioningError, NoSignChangeError
from .secular import (
    SecularBranch,
    SpectralPoint,
    _SINH_CLAMP,
    _reject_arrays,
    _root_accepted,
    factor_value,  # unused here; the traced benchmark counts calls through it (perfbench/spans.py)
    validate_coupling,
)

__all__ = [
    "SpectrumRequest",
    "SeriesCoefficients",
    "scan_roots",
    "refine_root",
    "series_coefficients",
    "quartic_coefficient_printed_variant",
    "fit_series_numeric",
    "perturbative_energy",
]

_PI, _INF = math.pi, math.inf
_GRID_STEP = math.pi / 64.0
_GRID_CAP = 1e4  # the CLI's largest --smax; the grid record grows to it and no further
_MAX_ITER = 200
_XTOL = 1e-15
_RTOL = 4.0 * sys.float_info.epsilon
_NUISANCE_ORDERS = 4
_energy = operator.attrgetter("E")
_ROW_BRANCHES = (SecularBranch.FACTOR_MINUS, SecularBranch.FACTOR_PLUS)  # rows of _grid_factors


@dataclass(frozen=True)
class SpectrumRequest:
    Z: float
    s_max: float

    def __post_init__(self) -> None:
        Z, s_max = self.Z, self.s_max
        # two floats in range need no other check; any other input, valid or
        # not, takes the checks below and their errors
        if type(Z) is type(s_max) is float and 0.0 <= Z < _INF and _PI <= s_max < _INF:
            return
        _reject_arrays(self)
        validate_coupling(Z)
        if not math.isfinite(s_max):
            raise ValueError(f"s_max must be finite, got {s_max}")
        if s_max < math.pi:
            raise ValueError(f"s_max must be at least pi, got {s_max}")


class _Grid(NamedTuple):
    """Scan nodes s, increasing, with 2*s and s*sin s at each."""

    s: np.ndarray
    two_s: np.ndarray
    s_sin_s: np.ndarray


def _grid_columns(s: np.ndarray) -> _Grid:
    return _Grid(s, 2.0 * s, s * np.sin(s))


def _uniform_nodes(s_max: float) -> np.ndarray:
    """The nodes step + i*step <= s_max, i >= 0, step = pi/64, as np.arange
    gives them."""
    step = _GRID_STEP
    base = np.arange(step, s_max + 0.5 * step, step)
    if base[-1] > s_max:  # the nodes increase, so only the last can overshoot
        base = base[:-1]
    return base


def _build_record(s_max: float) -> tuple[float, _Grid]:
    grid = _grid_columns(_uniform_nodes(s_max))
    for column in grid:
        column.flags.writeable = False
    return s_max, grid


# (s_top, the columns of the uniform nodes <= s_top): read-only, shared by
# every scan of the process, and rebuilt whole, never written, when a scan's
# s_max passes s_top, up to _GRID_CAP (203,718 nodes, 4.9 MB)
_record: tuple[float, _Grid] = (-math.inf, _Grid(*[np.empty(0)] * 3))


def _joined(head: _Grid, tail: _Grid) -> _Grid:
    return _Grid(*map(np.concatenate, zip(head, tail)))


def _scan_grid(Z: float, s_max: float) -> _Grid:
    """The scan's nodes with 2*s and s*sin s: uniform with step pi/64 up to
    s_max, extended geometrically below the first node when the low
    descendant root (s near sqrt(Z/2)) could sit there.

    Neither column depends on Z, so the uniform nodes up to ``_GRID_CAP``
    are read-only views of one record per process (``_record``), rebuilt
    whole when a scan's s_max passes the record's; only the geometric nodes
    and the nodes past the cap are computed per call, and joined to the
    views.  The uniform nodes are those of ``np.arange(step, s_max +
    step/2, step)`` without a last node above s_max, bit for bit, whichever
    s_max built the record."""
    global _record
    step, top = _GRID_STEP, min(s_max, _GRID_CAP)
    record = _record  # read once: a scan in another thread may rebind it
    if top > record[0]:
        record = _record = _build_record(top)
    nodes, two_s, s_sin_s = record[1]
    # np.arange's length at s_max: only its last node can pass s_max, and
    # that node lies past the record only when it passes the record's s_max
    n = min(math.ceil((s_max + 0.5 * step - step) / step), nodes.size)
    if nodes.item(n - 1) > s_max:
        n -= 1
    grid = _Grid(nodes[:n], two_s[:n], s_sin_s[:n])
    if s_max > top:
        grid = _joined(grid, _grid_columns(_uniform_nodes(s_max)[n:]))
    if Z > 0.0:
        lo = 0.125 * math.sqrt(0.5 * Z)
        if 0.0 < lo < step:
            down = [step]
            while down[-1] > lo:
                down.append(down[-1] / 1.25)
            grid = _joined(_grid_columns(np.array(down[:0:-1])), grid)
    return grid


def _brent(s_lo: float, s_hi: float, Z: float, sign: int) -> tuple[float, float]:
    """Root of F(s) = t*sinh t + sign*s*sin s, t = Z/(2s), in [s_lo, s_hi],
    returned with F at it, for 0 < s_lo < s_hi and Z >= 0 (``refine_root``
    checks both).

    Brent's method (Brent 1973, ch. 4) written step for step as scipy's
    ``brentq.c``, with xtol 1e-15, rtol 4*eps and ``_MAX_ITER`` iterations, so
    it returns the root that ``scipy.optimize.brentq(constraint_factor, ...)``
    returns, to the bit.  F is the float arithmetic of ``factor_value``
    written inline, which saves a function call per evaluation (about a
    third of the time per root).  Raises
    NoSignChangeError when the end values have the same sign, ValueError on a
    NaN value and ConvergenceError when the iterations run out.

    The loop makes the float operations and comparisons of ``brentq.c`` in
    its order with fewer builtin calls, about a quarter less time per root,
    and the bits stay the same: |F| is taken once per evaluation and carried
    with F through the swaps; |x| < d and |x| > d, where |x| feeds nothing
    else, are tested on x against d and -d; 2|stry| < min(a, b) is two
    comparisons, which agree because a and b are never NaN there; the
    constants are floats, and x*0.5 is x/2 to the bit.  C tests fpre and
    fcur for zero before its sign test, but fpre is never zero there and a
    zero fcur returns in that iteration with the same root.

    Two more trims hold on this domain alone, where every iterate lies in
    [s_lo, s_hi] and so is positive, unlike a general root finder's.  A
    step is a bisection, a step of delta toward the far end xblk, which
    |sbis| >= delta keeps inside, or a step toward xblk of under 3/4 of the
    way: the secant's when f(xpre) and f(xcur) differ in sign, and the
    inverse quadratic's otherwise.  There xpre, xcur, xblk lie in that
    order, f(xpre) and f(xcur) share a sign with |f(xcur)| < |f(xpre)|, and
    f(xblk) has the other, so fblk*dblk and -fpre*dpre share a sign, as do
    fblk and -fpre: nothing cancels, and stry points at xblk.  So s > 0 and
    t = Z/(2s) >= 0 at every evaluation: t is tested against +350 alone
    (the clamp of ``t_sinh_t`` at negative t never applies), and the
    tolerance takes rtol*s for rtol*|s|.
    """
    sin, sinh, inf = math.sin, math.sinh, math.inf
    clamp, xtol, rtol, sign = _SINH_CLAMP, _XTOL, _RTOL, float(sign)
    t = Z / (2.0 * s_lo)
    fpre = (inf if t > clamp else t * sinh(t)) + sign * s_lo * sin(s_lo)
    t = Z / (2.0 * s_hi)
    fcur = (inf if t > clamp else t * sinh(t)) + sign * s_hi * sin(s_hi)
    # F is finite or +inf at every finite s > 0 unless Z is NaN, and then it
    # is NaN everywhere, so checking the ends is scipy's NaN check
    if fpre != fpre or fcur != fcur:
        raise ValueError(f"factor is NaN at an end of [{s_lo}, {s_hi}] (Z={Z})")
    if fpre == 0.0:
        return s_lo, fpre
    if fcur == 0.0:
        return s_hi, fcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NoSignChangeError(
            f"no sign change on [{s_lo}, {s_hi}] for t*sinh t {'+' if sign > 0 else '-'} s*sin s "
            f"at Z={Z}"
        )
    xpre, xcur = s_lo, s_hi
    apre, acur = abs(fpre), abs(fcur)
    xblk = fblk = ablk = spre = scur = 0.0
    for _ in range(_MAX_ITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk, ablk = xpre, fpre, apre
            spre = scur = xcur - xpre
        if ablk < acur:
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
            apre, acur, ablk = acur, ablk, acur
        delta = (xtol + rtol * xcur) * 0.5
        sbis = (xblk - xcur) * 0.5
        if fcur == 0.0 or -delta < sbis < delta:
            return xcur, fcur
        if (spre > delta or spre < -delta) and acur < apre:
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                try:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:  # C divides to inf or NaN, which bisects below
                    stry = inf
            step = 2.0 * abs(stry)
            if step < abs(spre) and step < 3.0 * abs(sbis) - delta:  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre, apre = xcur, fcur, acur
        if scur > delta or scur < -delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        t = Z / (2.0 * xcur)
        fcur = (inf if t > clamp else t * sinh(t)) + sign * xcur * sin(xcur)
        acur = abs(fcur)
    raise ConvergenceError(f"refinement exceeded {_MAX_ITER} iterations near s={xcur}")


def refine_root(bracket: tuple[float, float], Z: float, branch: SecularBranch) -> SpectralPoint:
    """Refine a sign-change bracket in s to a SpectralPoint.

    Safeguarded bracket shrinkage by the in-module Brent ``_brent`` (the
    iterates of ``scipy.optimize.brentq`` to the bit, with the factor
    inlined) and no Newton polish; the root is accepted by the package's one
    root residual rule (factor residual at most 1e-12, or at most 16
    units of its rounding error |s*F_s|*eps).  That test, the validated Z
    and the finite bracket are what ``SpectralPoint._at_root`` needs, so the
    point, one flat record, is built from (Z, branch, s, residual) without
    checking them again; it equals the publicly constructed point bit for
    bit.  Raises ValueError for a bracket that is not finite with
    0 < s_lo < s_hi, NoSignChangeError when it does not straddle a root and
    ConvergenceError if the iteration limit is hit or the rule rejects the
    root.
    """
    if not (type(Z) is float and 0.0 <= Z < _INF):  # what validate_coupling accepts as is
        Z = validate_coupling(Z)  # a float, as _at_root needs
    s_lo, s_hi = bracket
    if not (0.0 < s_lo < s_hi < _INF):
        raise ValueError(f"bracket must be finite with 0 < s_lo < s_hi, got {bracket}")
    s, f = _brent(s_lo, s_hi, Z, branch.sin_term_sign)
    residual = abs(f)
    if not _root_accepted(residual, s, Z, branch):
        raise ConvergenceError(
            f"bracket refinement stalled at residual {residual:.3e} above its rounding bound "
            f"near s={s}"
        )
    return SpectralPoint._at_root(Z, branch, s, residual)


def _grid_factors(grid: _Grid, Z: float) -> np.ndarray:
    """F on the scan's nodes as one (2, n) array: row 0 is FACTOR_MINUS and
    row 1 FACTOR_PLUS (``_ROW_BRANCHES``), from the grid's s*sin s and from
    t*sinh t, the one part that depends on Z, evaluated once for both.

    t = Z/(2s) does not increase along the grid, so the nodes where t*sinh t
    is clamped to +inf (t > 350) are a prefix: it is counted only when the
    first node is clamped, and sinh is taken on the rest alone, so it never
    overflows.  Nor does Z/(2s) warn where it overflows to +inf, which the
    clamp gives there anyway."""
    # constraint_factor adds (sign*s)*sin s to t*sinh t, and with sign = +-1
    # that product is exactly +-(s*sin s): so hyp - osc and hyp + osc are
    # constraint_factor(s, Z, branch) of the two branches, bit for bit
    if Z / grid.two_s.item(0) < math.inf:  # the largest t, at the first node
        t = Z / grid.two_s
    else:  # from Z of about 1.77e307 on, t passes the float maximum on a clamped prefix
        with np.errstate(over="ignore"):
            t = Z / grid.two_s
    F = np.empty((2, t.size))
    hyp = F[1]
    if t.item(0) > _SINH_CLAMP:
        k = np.count_nonzero(t > _SINH_CLAMP)
        hyp[:k] = math.inf
        t = t[k:]
        np.multiply(t, np.sinh(t), out=hyp[k:])
    else:
        np.multiply(t, np.sinh(t), out=hyp)
    osc = grid.s_sin_s
    np.subtract(hyp, osc, out=F[0])
    np.add(hyp, osc, out=hyp)
    return F


def _sign_change_cells(F: np.ndarray) -> list[int]:
    """The brackets of both rows of the (2, n) factor array F (one factor
    per row), as indices j of the cells of F.ravel(): cell j spans flat
    nodes j and j+1, and divmod(j, n) gives its row and its first node i.
    A cell is a bracket when F is zero at node i or changes sign across the
    cell, that is (a == 0) | ((a < 0) != (b < 0)) with a, b the values at
    its ends.  One test covers both rows; the one cell that joins them, j =
    n - 1 from the last node of row 0 to the first of row 1, is cleared.
    The zero test is made only when F has a zero."""
    flat = F.ravel()
    neg = flat < 0.0
    cells = neg[:-1] != neg[1:]
    if np.count_nonzero(flat) != flat.size:  # cheaper than F.all()
        cells |= flat[:-1] == 0.0
    cells[F.shape[1] - 1] = False
    return cells.nonzero()[0].tolist()


def scan_roots(req: SpectrumRequest) -> list[SpectralPoint]:
    """All real roots with s in (0, s_max], sorted by energy.

    Both factors are evaluated on the whole pi/64 grid in one numpy pass
    (``_grid_factors``, a (2, n) array bit-equal to ``constraint_factor`` on
    the grid, with the clamp of t*sinh t applied to a prefix of the nodes),
    which takes the nodes' s*sin s from the process's grid record;
    a cell [s_i, s_i+1] of a factor is a bracket when F(s_i) is zero or F
    changes sign across it (``_sign_change_cells``, one test over the
    flattened rows, whose joining cell it drops), and every bracket is
    refined by ``refine_root`` (the in-module Brent on the inlined scalar
    factor, bit-identical to ``scipy.optimize.brentq``; no Newton polish).
    A refinement failure on a detected bracket propagates (brackets are
    never silently dropped).  An empty result is legal.
    """
    points: list[SpectralPoint] = []
    Z = req.Z
    grid = _scan_grid(Z, req.s_max)
    n = grid.s.size  # at least 64 nodes: SpectrumRequest keeps s_max >= pi
    node = grid.s.item
    for j in _sign_change_cells(_grid_factors(grid, Z)):
        row, i = divmod(j, n)
        points.append(refine_root((node(i), node(i + 1)), Z, _ROW_BRANCHES[row]))
    # the order of (E, branch.value): list.sort is stable and the row-major
    # order gives every "minus" bracket (row 0) before every "plus" one
    points.sort(key=_energy)
    return points


# ---------------------------------------------------------------------------
# perturbation series


@dataclass(frozen=True)
class SeriesCoefficients:
    """Even-power expansion rho(t) = sum_i coeffs[i-1] * t**(2i) about s = n*pi."""

    n: int
    branch: SecularBranch
    coeffs: tuple[float, ...]
    max_order: int

    def rho(self, t: float) -> float:
        tt = t * t
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = (acc + c) * tt
        return acc


def _validate_series_args(n: int, max_order: int) -> None:
    if n < 1:
        raise ValueError("series expansion requires n >= 1 (the n = 0 branch is singular)")
    if max_order % 2 != 0 or max_order < 2:
        raise ValueError(f"max_order must be a positive even integer, got {max_order}")
    if max_order > 20:
        raise ValueError(f"max_order capped at 20, got {max_order}")


def series_coefficients(n: int, branch: SecularBranch, max_order: int) -> SeriesCoefficients:
    """Expansion coefficients by formal power-series substitution.

    Substitutes s = n*pi + rho(t) into the branch equation and matches powers
    of t.  At order 2m the unknown c_{2m} enters linearly through the n*pi*rho
    term, so each order is solved by one subtraction:

        c_{2m} = sigma * (P_{2m} - T_{2m}) / (n*pi),

    where P is the series of t*sinh t and T is the series of
    sigma*(-1)^n*(n*pi + rho)*sin(rho) with the orders below 2m already fixed.
    """
    _validate_series_args(n, max_order)
    a = n * math.pi
    sp = branch.series_sign * (-1) ** n
    M = max_order

    lhs = np.zeros(M + 1)
    for m in range(1, M // 2 + 1):
        lhs[2 * m] = 1.0 / math.factorial(2 * m - 1)

    rho = np.zeros(M + 1)

    def mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.convolve(x, y)[: M + 1]

    for m in range(1, M // 2 + 1):
        sin_rho = np.zeros(M + 1)
        term = rho.copy()
        sign, fact, power = 1.0, 1.0, 1
        while power <= M:
            sin_rho += (sign / fact) * term
            term = mul(mul(term, rho), rho)
            power += 2
            sign = -sign
            fact *= (power - 1) * power
        shifted = rho.copy()
        shifted[0] += a
        rhs = sp * mul(shifted, sin_rho)
        rho[2 * m] = sp * (lhs[2 * m] - rhs[2 * m]) / a

    return SeriesCoefficients(
        n=n, branch=branch, coeffs=tuple(rho[2 : M + 1 : 2]), max_order=M
    )


def quartic_coefficient_printed_variant(n: int, branch: SecularBranch) -> float:
    """Historically tabulated t**4 coefficient, sigma*(-1)^n/(n*pi) - 1/(n*pi)**3.

    Kept for comparison only: it omits the 1/6 factor on the first piece that
    the order-by-order solve produces, and the numeric fit sides with the
    solved value.  Not used anywhere in the computation.
    """
    a = n * math.pi
    return branch.series_sign * (-1) ** n / a - 1.0 / a**3


def _rhos_at(n: int, branch: SecularBranch, ts: np.ndarray) -> np.ndarray:
    """Root offsets rho = s - n*pi of the branch equation at each t of ts,
    for n >= 1 and 0 < t <= 0.2 (``fit_series_numeric`` checks both), by
    Newton's method on all samples at once, from the leading term s = n*pi +
    sigma*(-1)^n*t**2/(n*pi), with F = t*sinh t + sign*s*sin s and F_s =
    sign*(sin s + s*cos s).  The root lies within about 0.013/n of n*pi,
    where |F_s| is about n*pi, so three steps reach it, within an ulp of
    ``scipy.optimize.brentq``'s; ConvergenceError if the eighth step is
    still above 4*eps*s."""
    a, sign = n * math.pi, float(branch.sin_term_sign)
    hyp = ts * np.sinh(ts)
    s = a + branch.series_sign * (-1) ** n * ts * ts / a
    for _ in range(8):
        sin_s = np.sin(s)
        step = (hyp + sign * s * sin_s) / (sign * (sin_s + s * np.cos(s)))
        s = s - step
        if np.all(np.abs(step) <= _RTOL * s):  # a NaN step fails the test
            return s - a
    raise ConvergenceError(f"series samples did not converge near s={a} (n={n})")


def fit_series_numeric(
    n: int,
    branch: SecularBranch,
    t_samples: list[float] | np.ndarray,
    max_order: int,
) -> SeriesCoefficients:
    """Independent series oracle: solve the branch equation at each sample t
    (no coupling constraint; t is the free parameter) and least-squares fit the
    even polynomial.

    Up to ``_NUISANCE_ORDERS`` extra even powers are fitted beyond ``max_order``
    and discarded; they absorb the truncation tail that would otherwise bias
    the reported coefficients (fewer are used when the sample count is small).
    Column-scaled least squares keeps the Vandermonde conditioning manageable;
    a rank deficiency raises FitConditioningError.  The samples' roots come
    from ``_rhos_at``, one Newton iteration over all samples at once.
    """
    _validate_series_args(n, max_order)
    ts = np.asarray(t_samples, dtype=float)
    n_coef = max_order // 2
    if ts.size < n_coef + 2:
        raise FitConditioningError(
            f"need at least {n_coef + 2} samples for order {max_order}, got {ts.size}"
        )
    if not np.all((ts > 0.0) & (ts <= 0.2)):  # a NaN fails both comparisons
        raise ValueError("t samples must lie in (0, 0.2]")
    # the test above keeps NaN and -0.0 out of the set; np.unique
    # would load numpy.ma on its first call, about 15 ms of a command
    if len(set(ts.tolist())) != ts.size:
        raise FitConditioningError("t samples must be distinct")

    deg_terms = n_coef + max(0, min(_NUISANCE_ORDERS, ts.size - n_coef - 2))
    rhos = _rhos_at(n, branch, ts)
    design = np.vander(ts**2, N=deg_terms + 1, increasing=True)[:, 1:]
    scale = np.linalg.norm(design, axis=0)
    if np.any(scale == 0.0):
        raise FitConditioningError("degenerate design matrix")
    coef, _, rank, _ = np.linalg.lstsq(design / scale, rhos, rcond=None)
    if rank < deg_terms:
        raise FitConditioningError(f"rank-deficient fit (rank {rank} of {deg_terms})")
    coef = coef / scale
    return SeriesCoefficients(
        n=n, branch=branch, coeffs=tuple(coef[:n_coef]), max_order=max_order
    )


def perturbative_energy(n: int, branch: SecularBranch, Z: float, max_order: int) -> float:
    """Perturbative eigenvalue (n*pi + rho(t))**2 - t**2 with 2*s*t = Z closed
    by fixed-point iteration t <- Z/(2*(n*pi + rho(t))) from t0 = Z/(2*n*pi).

    The map is a contraction for Z up to about n*pi/2; beyond that a
    ConvergenceError may be raised.
    """
    validate_coupling(Z)
    series = series_coefficients(n, branch, max_order)
    a = n * math.pi
    t = Z / (2.0 * a)
    for _ in range(100):
        t_next = Z / (2.0 * (a + series.rho(t)))
        if abs(t_next - t) <= 1e-14:
            t = t_next
            break
        t = t_next
    else:
        raise ConvergenceError(
            f"fixed point for 2st=Z did not converge (n={n}, Z={Z}, order={max_order})"
        )
    s = a + series.rho(t)
    return s * s - t * t
