"""Self-check suite behind the ``verify`` CLI command.

Each check returns (name, passed, detail).  The quick level runs a reduced
sweep intended to finish in seconds; the full level runs the complete
property set.  Checks deliberately route through the public operations (for
instance the factorization identity is recomputed through
``secular.factor_value``) so that an injected defect in any public surface
trips the corresponding named property.  The two identity sweeps make one
array call per kernel, and the determinant sweep stacks its matrices with
``oracle.boundary_matrices``; the zero-set check takes the null vectors of
the scanned roots of all its couplings from one ``oracle.nullspace_solutions``
call, and the symmetry check those of its unbroken states.  The array
paths agree with the scalar calls to a few units of rounding, far below
every bound of the checks; no printed byte of the other commands depends on
them.  ``oracle.residual_check`` and ``oracle.pt_symmetry_check`` then
measure each state in closed form from its amplitudes, relative to the L2
norm of the eigenfunction.

The suite runs without scipy: the zero-set check refines the determinant
roots of all its couplings together by a stacked Illinois solve
(``_illinois``), one stacked determinant per round, and the symmetry check
measures each state at its least-squares phase, with no minimizer.  The
zero-set check scans first and narrows each determinant bracket around the
scanned energy in it, where the determinant changes sign across the
narrowed interval, so a few rounds refine all the brackets; the count of
roots comes from the determinant sweep alone.
Every check takes its worst value with ``_worst``, which keeps a NaN, so a
measurement that comes back NaN fails its check, and a check that compares
against a scan fails when the scan finds no level to compare.
The identity sweeps take their points from the closed-form R2 sequence of
the plastic number, not from a random generator, so the suite loads no
module of its own after the import and a timed ``verify`` command pays only
for its checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle, secular, spectrum, transition
from .errors import NotAnEigenvalueError

__all__ = ["CheckResult", "run_checks", "QUICK", "FULL"]

QUICK = "quick"
FULL = "full"

# the plastic number, the real root of g**3 = g + 1
_PLASTIC = 1.324717957244746

# Reference checkpoints for the coupling table; printed values of
# (Z, alpha, beta, ReE).  Rows at the two breakdown points list one member of
# the still-real pair there; rows marginally above them are reproduced by the
# continued branch.  The "pinned" subset is the pass/fail golden set, the
# rest is reported only.
TABLE_ROWS: tuple[tuple[float, float, float, float, int, bool], ...] = (
    # (Z, alpha, beta, ReE, pair, pinned)
    (5.542309, 0.474944, 0.474944, 5.041586, 0, True),
    (5.542310, 0.474653, 0.474870, 5.044077, 0, False),
    (5.54232, 0.474125, 0.475399, 5.044078, 0, False),
    (5.54240, 0.472878, 0.476652, 5.044080, 0, False),
    (5.55, 0.457619, 0.492438, 5.044371, 0, True),
    (6.0, 0.358129, 0.622216, 5.062183, 0, True),
    (6.5, 0.318347, 0.693565, 5.083353, 0, True),
    (17.90123, 0.325829, 0.325829, 25.61820, 1, True),
    (17.90124, 0.325757, 0.326139, 25.60761, 1, False),
    (17.90126, 0.325540, 0.326356, 25.60762, 1, False),
    (17.90200, 0.323724, 0.328189, 25.60769, 1, False),
    (17.95, 0.308679, 0.344308, 25.61228, 1, True),
    (19.0, 0.253831, 0.422062, 25.71469, 1, True),
)

# Pinned intervals for the first five coalescence couplings.
CRITICAL_INTERVALS: tuple[tuple[float, float], ...] = (
    (5.542309, 5.542310),
    (17.90123, 17.90124),
    (33.54495 - 1e-3, 33.54495 + 1e-3),
    (51.20617 - 1e-4, 51.20618 + 1e-4),
    (70.3093, 70.3095),
)

ALPHA_TOL = 1e-5
REE_REL_TOL = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _worst(values) -> float:
    """The largest of values, 0.0 for none, and NaN if any value is NaN: a
    measurement that comes back NaN fails its bound instead of being
    skipped, as Python's max(worst, x) would skip it."""
    return float(np.max(np.asarray(values, dtype=float), initial=0.0))


def _identity_points(n_points: int, s_form: bool) -> tuple[np.ndarray, np.ndarray]:
    """(t, Z) of the identity sweep of one form: n_points of the R2 sequence
    (frac(0.5 + k/g), frac(0.5 + k/g**2)), g the plastic number, scaled to
    t in [1e-3, 20) and Z in [0, 100), at k = 1..n_points for the t form
    and k = n_points+1..2*n_points for the s form."""
    k = np.arange(n_points) + (n_points + 1.0 if s_form else 1.0)
    u = 0.5 + k / _PLASTIC
    v = 0.5 + k / _PLASTIC**2
    return 1e-3 + (20.0 - 1e-3) * (u - np.floor(u)), 100.0 * (v - np.floor(v))


def _identity_residuals(n_points: int, s_form: bool) -> np.ndarray:
    """Relative defect of the determinant = 16*F_plus*F_minus at the points
    of ``_identity_points``, in the t form (``secular_t``) or the s form
    (``secular_s`` at s = Z/(2t)), one entry per point with Z != 0.

    All points go through the public kernels in one array call each, so a
    defect injected into any of the kernels trips the check."""
    t, Z = _identity_points(n_points, s_form)
    keep = Z != 0.0  # s = 0 lies outside the s form
    t, Z = t[keep], Z[keep]
    s = Z / (2.0 * t)
    lhs = secular.secular_s(s, Z) if s_form else secular.secular_t(t, Z)
    fp = secular.factor_value(t, s, secular.SecularBranch.FACTOR_PLUS)
    fm = secular.factor_value(t, s, secular.SecularBranch.FACTOR_MINUS)
    return np.abs(lhs - 16.0 * fp * fm) / np.maximum(1.0, np.abs(lhs))


def _identity_sweep(n_points: int, s_form: bool) -> CheckResult:
    """The largest of ``_identity_residuals``, at most 1e-9."""
    name = "s-representation-identity" if s_form else "factorization-identity"
    residual = _identity_residuals(n_points, s_form)
    worst = _worst(residual)
    return CheckResult(
        name, worst <= 1e-9, f"max relative residual {worst:.3e} over {residual.size} points"
    )


def _hermitian_limit() -> CheckResult:
    pts = spectrum.scan_roots(spectrum.SpectrumRequest(Z=1e-8, s_max=5.6 * math.pi))
    energies = np.array([p.E for p in pts])
    # the distance to the nearest level, NaN if a level is NaN and inf if
    # the scan found none
    worst = _worst([np.min(np.abs(energies - (n * math.pi) ** 2), initial=math.inf)
                    for n in range(1, 6)])
    return CheckResult(
        "hermitian-limit", worst <= 1e-6, f"max |E - (n*pi)^2| = {worst:.3e} for n=1..5 at Z=1e-8"
    )


def _series_vs_fit(levels: tuple[int, ...]) -> CheckResult:
    ts = np.linspace(0.05, 0.2, 24)
    deviations = []
    for n in levels:
        for branch in (secular.SecularBranch.FACTOR_MINUS, secular.SecularBranch.FACTOR_PLUS):
            derived = spectrum.series_coefficients(n, branch, 4)
            fitted = spectrum.fit_series_numeric(n, branch, ts, 4)
            lead = branch.series_sign * (-1) ** n / (n * math.pi)
            deviations.append(abs(derived.coeffs[0] - lead) / abs(lead))
            deviations.extend(abs(c_d - c_f) / abs(c_d)
                              for c_d, c_f in zip(derived.coeffs, fitted.coeffs))
    worst = _worst(deviations)
    return CheckResult(
        "series-vs-fit",
        worst <= 1e-6,
        f"max relative coefficient deviation {worst:.3e} through t^4, n in {levels}",
    )


def _det_sweep(Z: float, s_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Energies of the sign sweep along the constraint curve and the real part
    of the boundary determinant at each, as one stacked LU determinant of
    ``oracle.boundary_matrices``: ``boundary_determinant(E, Z).real`` per
    energy, to rounding.  The nodes s start at pi/128, below the lowest root
    (s near sqrt(Z/2)) at every coupling from 0.12 on, the check's among them;
    a root below them shows as a count mismatch."""
    s_grid = np.arange(math.pi / 128, s_max, math.pi / 128)
    energies = s_grid**2 - (Z / (2.0 * s_grid)) ** 2
    return energies, np.linalg.det(oracle.boundary_matrices(energies, Z)).real


def _illinois(a, b, fa, fb, z_of) -> np.ndarray:
    """The root of Re det of ``oracle.boundary_matrices`` at coupling z_of[k]
    in each bracket [a[k], b[k]] of the arrays, fa and fb its values at the
    ends, by the Illinois method on all brackets at once: each round
    evaluates the secant points c of the running brackets in one stacked
    determinant, each c at least tol/2 from the end x with the smaller |det|
    (as Brent's method steps), and moves the end of c's sign to c; the other
    end, when kept a second round in a row, has its value halved in the
    secant.  A bracket stops, at x, when an end's value is zero or it is at
    most tol = 1e-12 + 1e-14*|x| wide.  ValueError on a NaN value,
    RuntimeError after 100 rounds."""
    a, b, fa, fb = a.copy(), b.copy(), fa.copy(), fb.copy()
    ga, gb = fa.copy(), fb.copy()  # the weighted values the secant takes
    last = np.zeros(a.size, dtype=np.int8)  # the end the previous round moved: -1 a, 1 b
    for _ in range(100):
        x = np.where(np.abs(fa) <= np.abs(fb), a, b)
        tol = 1e-12 + 1e-14 * np.abs(x)
        k = np.flatnonzero((b - a > tol) & (fa != 0.0) & (fb != 0.0))
        if not k.size:
            return x
        c = b[k] - gb[k] * (b[k] - a[k]) / (gb[k] - ga[k])
        x, half = x[k], 0.5 * tol[k]
        short = np.abs(c - x) < half
        c[short] = np.where(x == a[k], x + half, x - half)[short]
        fc = np.linalg.det(oracle.boundary_matrices(c, z_of[k])).real
        if np.isnan(fc).any():
            raise ValueError(
                f"the function value at x={c[np.isnan(fc)].item(0)} is NaN; solver cannot continue"
            )
        to_b = (fc < 0.0) == (fb[k] < 0.0)  # c takes the place of the end of its sign
        side = np.where(to_b, 1, -1)
        again = last[k] == side  # the other end is kept a second round in a row
        last[k] = side
        ga[k[to_b & again]] *= 0.5
        gb[k[~to_b & again]] *= 0.5
        kb, ka = k[to_b], k[~to_b]
        b[kb], a[ka] = c[to_b], c[~to_b]
        fb[kb] = gb[kb] = fc[to_b]
        fa[ka] = ga[ka] = fc[~to_b]
    raise RuntimeError("determinant roots did not converge in 100 rounds")


def _det_roots(
    z_values: tuple[float, ...], s_max: float, scanned: list[list[float]]
) -> list[list[float]]:
    """Real-axis roots of the boundary determinant at each coupling of
    z_values, sorted; scanned[j] holds the scanned energies of z_values[j].

    Each sign change of a coupling's ``_det_sweep`` is a cell that holds one
    root, so the sweep alone sets the count.  A cell that holds a scanned
    energy E is narrowed to E +- 1e-9*max(1, |E|), clipped to the cell,
    where Re det changes sign across that interval (one stacked determinant
    tests them all); a scanned energy farther from its root leaves the whole
    cell.  All brackets are then refined together by ``_illinois``, one
    stacked determinant per round, each to 1e-12 + 1e-14*|E|."""
    parts = [np.empty((5, 0))]  # per coupling, rows a, b, f(a), f(b), scanned energy
    couplings, counts = [], []
    for Z, found in zip(z_values, scanned):
        energies, vals = _det_sweep(Z, s_max)
        cells = np.flatnonzero((vals[:-1] < 0.0) != (vals[1:] < 0.0))
        # the sweep's energies increase, so each scanned energy lies in one
        # cell; a cell without one holds NaN
        inside = np.full(energies.size, np.nan)
        inside[np.searchsorted(energies, found, side="right") - 1] = found
        parts.append(np.array([energies[cells], energies[cells + 1], vals[cells], vals[cells + 1],
                               inside[cells]]))
        couplings.extend([Z] * cells.size)
        counts.append(cells.size)
    a, b, fa, fb, E = np.concatenate(parts, axis=1)
    z_of = np.array(couplings, dtype=float)
    k = np.flatnonzero(E == E)
    if k.size:
        cut = 1e-9 * np.maximum(1.0, np.abs(E[k]))
        lo, hi = np.maximum(a[k], E[k] - cut), np.minimum(b[k], E[k] + cut)
        W = oracle.boundary_matrices(np.concatenate((lo, hi)), np.tile(z_of[k], 2))
        f_lo, f_hi = np.split(np.linalg.det(W).real, 2)
        keep = (f_lo < 0.0) != (f_hi < 0.0)
        k = k[keep]
        a[k], b[k], fa[k], fb[k] = lo[keep], hi[keep], f_lo[keep], f_hi[keep]
    roots = _illinois(a, b, fa, fb, z_of).tolist()
    ends = np.cumsum([0, *counts]).tolist()
    return [sorted(roots[lo:hi]) for lo, hi in zip(ends, ends[1:])]


def _zero_set_equivalence(z_values: tuple[float, ...]) -> CheckResult:
    """Each coupling's scanned roots against its determinant roots
    (``_det_roots``, narrowed around the scanned energies), and each scanned
    root certified by the oracle: its null vector, from one
    ``oracle.nullspace_solutions`` call for the roots of all couplings, and
    the matching conditions at it, by ``oracle.residual_check``.  The count
    check compares the scan with the determinant sweep alone."""
    s_max = 4.6 * math.pi
    scanned = [[p.E for p in spectrum.scan_roots(spectrum.SpectrumRequest(Z=Z, s_max=s_max))]
               for Z in z_values]
    matches = []
    energies: list[float] = []
    couplings: list[float] = []
    for Z, found, det_es in zip(z_values, scanned, _det_roots(z_values, s_max, scanned)):
        if len(det_es) != len(found):
            return CheckResult(
                "zero-set-equivalence",
                False,
                f"root count mismatch at Z={Z}: {len(found)} secular vs {len(det_es)} determinant",
            )
        matches.extend(abs(E - e_det) for E, e_det in zip(found, det_es))
        energies.extend(found)
        couplings.extend([Z] * len(found))
    try:
        sols = oracle.nullspace_solutions(energies, couplings)
    except NotAnEigenvalueError:  # no null vector at a scanned energy: it fails
        residuals = [math.inf]
    else:
        reports = [oracle.residual_check(*args) for args in zip(sols, energies, couplings)]
        residuals = [r for report in reports for r in report.bc_residuals]
    worst_match = _worst(matches)
    worst_bc = _worst(residuals)
    ok = worst_match <= 1e-8 and worst_bc <= 1e-8
    return CheckResult(
        "zero-set-equivalence",
        ok,
        f"max |dE| {worst_match:.3e}, max BC residual {worst_bc:.3e} over Z in {z_values}",
    )


def _fold_certificates(folds) -> CheckResult:
    count = len(folds)
    detail = []
    ok = True
    prev = 0.0
    for fold, (lo, hi) in zip(folds, CRITICAL_INTERVALS[:count]):
        res_f = abs(secular.constraint_factor(fold.s_merge, fold.Z_crit, fold.branch))
        res_fs = abs(secular._factor_state(fold.s_merge, fold.Z_crit, fold.branch)[1])
        inside = lo <= fold.Z_crit <= hi
        increasing = fold.Z_crit > prev
        prev = fold.Z_crit
        ok = ok and res_f <= 1e-10 and res_fs <= 1e-10 and inside and increasing
        detail.append(f"Z_{fold.nu}={fold.Z_crit:.7f}")
    return CheckResult("fold-certificates", ok, ", ".join(detail))


def _solve_table_row(Z, alpha_p, fold):
    """Above the fold the broken pair at Z, else the real member nearest alpha_p."""
    if Z > fold.Z_crit:
        return transition.solve_above_fold(fold, Z)
    candidates = transition.real_pair_near_fold(Z, fold)
    best = min(candidates, key=lambda p: abs(p.alpha - alpha_p))
    return best, best.energy()


def solve_table_rows(folds, pinned_only: bool = False):
    """Solve each row of TABLE_ROWS (only the pinned ones with ``pinned_only``)
    against its pair's fold in ``folds``, and yield

        (row, params, energy, (d_alpha, d_beta, d_ReE), ok)

    with the deviations from the row's printed values.  ``ok`` is the
    table-row rule: |d alpha|, |d beta| within ALPHA_TOL and the relative ReE
    deviation within REE_REL_TOL (a NaN deviation fails)."""
    for row in TABLE_ROWS:
        Z, a_p, b_p, ree_p, pair, pinned = row
        if pinned_only and not pinned:
            continue
        params, energy = _solve_table_row(Z, a_p, folds[pair])
        d_a, d_b, d_e = params.alpha - a_p, params.beta - b_p, energy.re_E - ree_p
        ok = _worst((abs(d_a), abs(d_b))) <= ALPHA_TOL and abs(d_e) / ree_p <= REE_REL_TOL
        yield row, params, energy, (d_a, d_b, d_e), ok


def _table_goldens(folds) -> CheckResult:
    """The pinned rows of TABLE_ROWS by the table-row rule; the reported ones are not solved."""
    passed = True
    d_ab = []
    d_ree = []
    for (_, _, _, ree_p, _, _), _, _, (d_a, d_b, d_e), ok in solve_table_rows(folds, True):
        passed = passed and ok
        d_ab += [abs(d_a), abs(d_b)]
        d_ree.append(abs(d_e) / ree_p)
    worst_ab = _worst(d_ab)
    worst_ree = _worst(d_ree)
    return CheckResult(
        "table-goldens",
        passed,
        f"max |d alpha,beta| {worst_ab:.3e} (tol {ALPHA_TOL}), max rel dReE {worst_ree:.3e} (tol {REE_REL_TOL})",
    )


def _dirichlet_comparison(folds) -> CheckResult:
    z0 = folds[0].Z_crit
    ok = z0 > transition.DIRICHLET_FIRST_CRITICAL[1]
    return CheckResult(
        "periodic-vs-dirichlet",
        ok,
        f"Z_0 = {z0:.6f} exceeds the hard-wall value {transition.DIRICHLET_FIRST_CRITICAL[1]}",
    )


def _pt_symmetry() -> CheckResult:
    pts = spectrum.scan_roots(spectrum.SpectrumRequest(Z=2.0, s_max=3.5 * math.pi))
    try:
        sols = oracle.nullspace_solutions([p.E for p in pts], [2.0] * len(pts))
    except NotAnEigenvalueError:  # no null vector at a scanned energy
        sols = []
    # inf, which fails, when no scanned state can be measured
    worst_unbroken = _worst([oracle.pt_symmetry_check(s) for s in sols]) if sols else math.inf
    params, energy = transition.solve_broken(6.0, transition.BrokenParams.bind(0.36, 0.62, 6.0))
    sol = oracle.nullspace_solution(complex(energy.re_E, -energy.eps), 6.0)
    broken_dev = oracle.pt_symmetry_check(sol)
    ok = worst_unbroken <= 1e-8 and broken_dev >= 0.1
    return CheckResult(
        "pt-symmetry",
        ok,
        f"unbroken max {worst_unbroken:.3e} (Z=2), broken {broken_dev:.3f} (Z=6)",
    )


def _perturbative_vs_scan() -> CheckResult:
    deviations = []
    pts = spectrum.scan_roots(spectrum.SpectrumRequest(Z=0.2, s_max=2.6 * math.pi))
    for n in (1, 2):
        for branch in (secular.SecularBranch.FACTOR_MINUS, secular.SecularBranch.FACTOR_PLUS):
            e_series = spectrum.perturbative_energy(n, branch, 0.2, 6)
            e_scan = min(
                (p.E for p in pts if p.n == n and p.branch is branch),
                key=lambda e: abs(e - e_series),
                default=math.inf,  # no such level: an infinite deviation, which fails
            )
            deviations.append(abs(e_series - e_scan))
    worst = _worst(deviations)
    return CheckResult(
        "perturbative-vs-scan", worst <= 1e-10, f"max |E_series - E_scan| = {worst:.3e} at Z=0.2"
    )


def _conjugate_pairing() -> CheckResult:
    defects = []
    for alpha, beta, Z in ((0.35, 0.62, 6.0), (0.31, 0.35, 17.95), (0.2, 0.9, 8.0)):
        p = transition.BrokenParams.bind(alpha, beta, Z)
        q = p.swapped()
        if q.energy().eps != -p.energy().eps or q.energy().re_E != p.energy().re_E:
            return CheckResult("conjugate-pairing", False, "eps/ReE swap symmetry broken")
        s1 = transition.broken_secular_symmetric(p, Z)
        s2 = transition.broken_secular_symmetric(q, Z)
        defects.append(abs(s1 - s2.conjugate()) / max(1.0, abs(s1)))
    worst = _worst(defects)
    return CheckResult(
        "conjugate-pairing", worst <= 1e-12,
        f"max defect of S(a,b) = conj(S(b,a)) is {worst:.3e}",
    )


def _exact_broken_consistency(folds) -> CheckResult:
    fold = folds[0]
    Z = fold.Z_crit - 1e-3
    alpha = fold_alpha(fold)
    seed = transition.BrokenParams.bind(alpha * 0.999, alpha * 1.001, Z)
    params, _ = transition.solve_broken(Z, seed)
    sym = abs(params.alpha - params.beta)
    pair = transition.real_pair_near_fold(Z, fold)
    energies = np.array([p.energy().re_E for p in pair])
    k2 = params.energy().re_E
    closest = float(np.min(np.abs(k2 - energies) / energies))  # NaN if a value is NaN
    ok = sym <= 1e-4 and closest <= 1e-5
    return CheckResult(
        "exact-broken-consistency",
        ok,
        f"|alpha-beta| = {sym:.3e}, closest pair-member energy deviation {closest:.3e}",
    )


def fold_alpha(fold) -> float:
    """Hyperbolic parameter of the merged state at a fold."""
    s, Z = fold.s_merge, fold.Z_crit
    t = Z / (2.0 * s)
    return transition._params_from_energy(s * s - t * t, Z).alpha


def run_checks(level: str) -> list[CheckResult]:
    if level not in (QUICK, FULL):
        raise ValueError(f"unknown level {level!r}")
    full = level == FULL
    n_sweep = 10_000 if full else 2_000
    results = [
        _identity_sweep(n_sweep, s_form=False),
        _identity_sweep(n_sweep, s_form=True),
        _hermitian_limit(),
        _series_vs_fit((1, 2, 3) if full else (1,)),
        _zero_set_equivalence((0.5, 3.0, 5.0, 10.0, 17.0) if full else (3.0,)),
    ]
    folds = transition.critical_sequence(5 if full else 2)
    results.append(_fold_certificates(folds))
    results.append(_table_goldens(folds))
    results.append(_dirichlet_comparison(folds))
    if full:
        results.append(_pt_symmetry())
        results.append(_perturbative_vs_scan())
        results.append(_conjugate_pairing())
        results.append(_exact_broken_consistency(folds))
    return results
