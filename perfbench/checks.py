"""Output checks, run after the timed region.

The reference for the shift-averaged susceptibility is the benchmark's own:
`scipy.integrate.quad` on the u-space integrand exp(-u) chi(omega_a (u^-2 +
u^-1)), with a break at the resonance of chi, calling no rydeit integrator.
A kernel passes when it is within

    10 * err + 10 * rtol * |ref| + 10 * gamma alpha atol + ref_err

of the reference, where err is the error the op reported (or, where the
output carries none, the bound its convergence test guarantees).  The
tolerance is built from the requested rtol and the reported error, never from
the digits of one implementation, so every correct kernel passes, while a
result off by 1e-4 relative fails.
"""

import json
import math

import numpy as np

from ops import (ATOL, PEAK_GRID, RTOL, SLOPE_DETUNINGS, UNBRACKETED, chi,
                 omega_a, sign)

# break points of the u domain; exp(-40) < 1e-17 bounds the tail
U_BREAKS = (0.0, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.7, 1.5, 3.0, 6.0, 12.0,
            25.0, 40.0)
REF_RTOL = 1e-11
REFERENCE_ROWS = 3
PEAK_ROWS_CHECKED = 3
# the sweep peak-shift runs per row: +-(0.5 + 0.1 gamma) on 401 points
SWEEP = np.linspace(-0.6, 0.6, 401)
STRIDE = 10  # coarse step of the search behind a `peak not bracketed` row


class CheckFailed(Exception):
    """An op's output is wrong."""


def reference_avg(dp, dc, g0, wc, wa, s):
    """(value, error) of E[chi] over the nearest-neighbour shift measure,
    shift s*omega (s = +1 attractive, -1 repulsive), both complex."""
    from scipy import integrate

    if wa == 0.0:
        return complex(chi(0.0, dp, dc, g0, wc, s)), 0j
    # chi has one pole; where its real part is a positive shift, break there
    pole = s * (0.25 * wc * wc / (dp + 0.5j) - (dp + dc)).real
    edges = set(U_BREAKS)
    if pole > 0:
        x = pole / wa
        u = (1.0 + math.sqrt(1.0 + 4.0 * x)) / (2.0 * x)
        if 0.0 < u < U_BREAKS[-1]:
            edges.add(u)
    edges = sorted(edges)

    def part(u, imag):
        c = chi(wa * (u ** -2 + u ** -1), dp, dc, g0, wc, s)
        return math.exp(-u) * (c.imag if imag else c.real)

    value, error = [0.0, 0.0], [0.0, 0.0]
    for k in (0, 1):
        for a, b in zip(edges[:-1], edges[1:]):
            v, e = integrate.quad(part, a, b, args=(bool(k),), epsabs=1e-16,
                                  epsrel=REF_RTOL, limit=200)
            value[k] += v
            error[k] += e
    return complex(*value), complex(*error)


def chi0(dp, dc, g0, wc):
    """No-DDI rho31/Omega_p; broadcasts."""
    return chi(0.0, dp, dc, g0, wc, 1.0)


def reference_beta_phi(p, dp, dc, wp=None):
    """Reference (beta, phi, err_beta, err_phi) with the DDI at one point."""
    pt = dict(p, omega_p_in=p["omega_p_in"] if wp is None else wp)
    val, err = reference_avg(dp, dc, p["gamma0"], p["omega_c"], omega_a(pt),
                             sign(p))
    ag = p["alpha"]
    return ag * val.imag, 0.5 * ag * val.real, ag * err.imag, 0.5 * ag * err.real


def tolerance(ref, ref_err, reported_err, alpha_gamma):
    """Allowed |value - ref| for a value reported with error `reported_err`."""
    return (10.0 * reported_err + 10.0 * RTOL * abs(ref)
            + 10.0 * alpha_gamma * ATOL + ref_err)


def guaranteed_err(value, alpha_gamma):
    """Error bound a converged point guarantees when the output omits it:
    each component is within max(atol, rtol * |component|)."""
    return max(alpha_gamma * ATOL, RTOL * abs(value))


def _close(name, value, ref, tol):
    if not abs(value - ref) <= tol:
        raise CheckFailed(f"{name} = {value!r}, reference {ref!r}, "
                          f"tolerance {tol:.3g}")


def read_table(path):
    """(columns, rows) of a CSV or JSON table written by the CLI; its CSV
    cells are plain numbers or words, never quoted."""
    with open(path) as fh:
        if path.endswith(".json"):
            doc = json.load(fh)
            return doc["columns"], doc["rows"]
        lines = [line for line in fh.read().splitlines()
                 if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _numeric(columns, rows, expected):
    if list(columns) != expected:
        raise CheckFailed(f"columns {columns} (expected {expected})")
    data = np.array(rows, dtype=float)
    if data.ndim != 2 or not np.all(np.isfinite(data)):
        raise CheckFailed("non-finite or ragged output")
    return data


def _grid(spec):
    start, stop, count = spec
    return np.linspace(start, stop, count)


def _sweep_point(p, axis, delta):
    """(delta_p, delta_c) of a spectrum point at two-photon detuning delta."""
    if axis == "probe":
        return -p["delta_c"] + delta, p["delta_c"]
    return p["delta_p"], -p["delta_p"] + delta


def _transmissions_ok(t):
    if not np.all((t > 0.0) & (t <= 1.0)):
        raise CheckFailed("transmission outside (0, 1]")


def check_spectrum(op, workdir, rng):
    p, axis = op.point, op.point["axis"]
    columns, rows = read_table(f"{workdir}/{op.output}")
    data = _numeric(columns, rows, [
        "delta", "transmission_no_ddi", "transmission_ddi", "phase_no_ddi",
        "phase_ddi", "quadrature_error"])
    grid = _grid(op.extra["grid"])
    if data.shape[0] != grid.size or not np.array_equal(data[:, 0], grid):
        raise CheckFailed("grid column differs from the requested grid")
    _transmissions_ok(data[:, 1])
    _transmissions_ok(data[:, 2])
    ag = p["alpha"]
    dp, dc = np.broadcast_arrays(*_sweep_point(p, axis, grid))
    c0 = chi0(dp, dc, p["gamma0"], p["omega_c"])
    if not (np.allclose(data[:, 1], np.exp(-ag * c0.imag), rtol=1e-9, atol=0)
            and np.allclose(data[:, 3], 0.5 * ag * c0.real, rtol=1e-9,
                            atol=1e-12)):
        raise CheckFailed("no-DDI columns differ from the closed form")
    for i in rng.choice(grid.size, REFERENCE_ROWS, replace=False):
        beta, phi, eb, ep = reference_beta_phi(p, dp[i], dc[i])
        err = data[i, 5]
        _close(f"beta_ddi[{i}]", -math.log(data[i, 2]), beta,
               tolerance(beta, eb, err, ag))
        _close(f"phase_ddi[{i}]", data[i, 4], phi,
               tolerance(phi, ep, err, ag))
    if op.plot:
        _check_svg(f"{workdir}/{op.plot}")
    return grid.size


def _check_svg(path):
    with open(path) as fh:
        text = fh.read()
    if "<svg" not in text[:200] or not text.rstrip().endswith("</svg>") \
            or "<polyline" not in text:
        raise CheckFailed("plot is not a complete SVG line chart")


def _reference_t(q, axis, deltas):
    """Reference transmissions and their errors at two-photon detunings."""
    t, terr = [], []
    for delta in deltas:
        beta, _, eb, _ = reference_beta_phi(q, *_sweep_point(q, axis, delta))
        t.append(math.exp(-beta))
        terr.append(math.exp(-beta) * (eb + 1e-12))
    return np.array(t), np.array(terr)


def check_unbracketed(q, axis):
    """A `peak not bracketed` row claims that the transmission maximum of
    the CLI's sweep lies on its first or last point.  Search the reference
    spectrum, every STRIDE-th point and then around the best interior one,
    for a point above both edges."""
    coarse = np.arange(0, SWEEP.size, STRIDE)
    t, terr = _reference_t(q, axis, SWEEP[coarse])
    best = coarse[1 + int(np.argmax(t[1:-1]))]
    tf, tferr = _reference_t(q, axis, SWEEP[best - STRIDE + 1:best + STRIDE])
    k = int(np.argmax(tf))
    if tf[k] > max(t[0], t[-1]) + tferr[k] + terr[0] + terr[-1]:
        raise CheckFailed(f"flagged {UNBRACKETED!r}, but the reference "
                          f"transmission {tf[k]:.6g} inside the window "
                          f"exceeds {max(t[0], t[-1]):.6g} at its edges")


def check_peak_shift(op, workdir, rng, status=None):
    """Rows with a numerical peak.  With a non-zero `status` the rows the
    CLI flagged `peak not bracketed` are verified, and are not delivered."""
    p, axis = op.point, op.point["axis"]
    fixed = "delta_c" if axis == "probe" else "delta_p"
    expected = [fixed, "shift_formula", "shift_numerical"]
    columns, rows = read_table(f"{workdir}/{op.output}")
    notes = [""] * len(rows)
    if status:
        if list(columns) != expected + ["warning"]:
            raise CheckFailed(f"exit {status} without a warning column")
        notes = [row[-1] for row in rows]
        columns, rows = columns[:-1], [row[:-1] for row in rows]
        if set(notes) - {"", UNBRACKETED} or UNBRACKETED not in notes:
            raise CheckFailed(f"unexpected warnings {sorted(set(notes))}")
    flagged = np.array([note == UNBRACKETED for note in notes])
    if list(columns) != expected:
        raise CheckFailed(f"columns {columns} (expected {expected})")
    data = np.array(rows, dtype=float)
    if not (np.all(np.isfinite(data[:, :2])) and np.all(np.isnan(data[flagged, 2]))
            and np.all(np.isfinite(data[~flagged, 2]))):
        raise CheckFailed("non-finite number in an unflagged cell")
    start, stop, count = PEAK_GRID.split(":")
    scan = _grid((float(start), float(stop), int(count)))
    if data.shape[0] != scan.size or not np.array_equal(data[:, 0], scan):
        raise CheckFailed("scan column differs from the requested grid")
    for i in np.flatnonzero(flagged):
        check_unbracketed(dict(p, **{fixed: float(scan[i])}), axis)
    peaks = np.flatnonzero(~flagged)
    step = SWEEP[1] - SWEEP[0]
    for i in rng.choice(peaks, min(PEAK_ROWS_CHECKED, peaks.size), replace=False):
        peak = data[i, 2]
        if not abs(peak) < SWEEP[-1]:
            raise CheckFailed(f"peak {peak!r} outside the swept window")
        q = dict(p, **{fixed: float(scan[i])})
        t, terr = _reference_t(q, axis, (peak - step, peak, peak + step))
        if t[1] < max(t[0], t[2]) - sum(terr):
            raise CheckFailed(f"row {i}: reference transmission at the "
                              f"reported peak {peak!r} is below a neighbour")
    return peaks.size


def check_ddi(op, workdir, rng):
    p, x_var = op.point, op.extra["x_var"]
    columns, rows = read_table(f"{workdir}/{op.output}")
    first = "probe_power" if x_var == "probe-power" else "delta_c"
    data = _numeric(columns, rows, [
        first, "delta_beta_quad", "delta_phi_quad", "delta_beta_analytic",
        "delta_phi_analytic"])
    grid = _grid(op.extra["grid"])
    if data.shape[0] != grid.size or not np.array_equal(data[:, 0], grid):
        raise CheckFailed("x column differs from the requested grid")
    if not op.reference:
        return grid.size
    for i in rng.choice(grid.size, REFERENCE_ROWS, replace=False):
        x = float(grid[i])
        if x_var == "probe-power":
            q = dict(p, omega_p_in=math.sqrt(x))
        else:
            q = dict(p, delta_c=x, delta_p=p["delta_p"] + p["delta_c"] - x)
        _check_excess(q, data[i, 1], data[i, 2], f"row {i}")
    return grid.size


def _check_excess(q, delta_beta, delta_phi, where):
    """Check a (delta_beta, delta_phi) pair against the reference."""
    ag = q["alpha"]
    beta, phi, eb, ep = reference_beta_phi(q, q["delta_p"], q["delta_c"])
    c0 = chi0(q["delta_p"], q["delta_c"], q["gamma0"], q["omega_c"])
    beta0, phi0 = ag * c0.imag, 0.5 * ag * c0.real
    _close(f"{where} delta_beta", delta_beta, beta - beta0,
           tolerance(beta, eb, guaranteed_err(beta, ag), ag))
    _close(f"{where} delta_phi", delta_phi, phi - phi0,
           tolerance(phi, ep, guaranteed_err(phi, ag), ag))


def check_sample(op, workdir, rng):
    with open(f"{workdir}/{op.output}") as fh:
        lines = [line for line in fh.read().splitlines()
                 if not line.startswith("#")]
    if lines[0] != "omega" or len(lines) - 1 != op.rows:
        raise CheckFailed(f"sample table has {len(lines) - 1} rows")
    w = np.array(lines[1:], dtype=float)
    if not np.all(np.isfinite(w) & (w > 0)):
        raise CheckFailed("non-finite or non-positive shift")
    # P(omega <= w_m) = 1/2 at u = ln 2; binomial 5-sigma band
    u = math.log(2.0)
    w_median = omega_a(op.point) * (u ** -2 + u ** -1)
    below = float(np.mean(w <= w_median))
    if abs(below - 0.5) > 5.0 * math.sqrt(0.25 / w.size):
        raise CheckFailed(f"{below:.4f} of samples below the median shift")
    return w.size


def check_slope(op, result, rng):
    fit_b, fit_p = result
    values = (fit_b.slope, fit_b.intercept, fit_p.slope, fit_p.intercept)
    if not all(math.isfinite(v) for v in values):
        raise CheckFailed("non-finite slope fit")
    if not op.reference or op.extra["use"] != "quadrature" or op.extra["index"]:
        return 1
    p = op.point
    powers = np.array(op.extra["powers"])
    # OLS slope = sum(c_i y_i) with these weights; errors add as sum |c_i| tol_i
    c = (powers - powers.mean()) / np.sum((powers - powers.mean()) ** 2)
    ag = p["alpha"]
    sb = sp = tol_b = tol_p = 0.0
    for ci, power in zip(c, powers):
        beta, phi, eb, ep = reference_beta_phi(p, p["delta_p"], p["delta_c"],
                                               wp=math.sqrt(power))
        sb += ci * beta
        sp += ci * phi
        tol_b += abs(ci) * tolerance(beta, eb, guaranteed_err(beta, ag), ag)
        tol_p += abs(ci) * tolerance(phi, ep, guaranteed_err(phi, ag), ag)
    _close("slope_beta", fit_b.slope, sb, tol_b)
    _close("slope_phi", fit_p.slope, sp, tol_p)
    return 1


def check_fit(op, result, rng):
    if not (math.isfinite(result.epsilon) and result.epsilon >= 0
            and math.isfinite(result.stderr)
            and result.n_obs == SLOPE_DETUNINGS):
        raise CheckFailed(f"bad epsilon fit {result}")
    return 1


def check_on_resonance(op, result, rng):
    if not all(math.isfinite(v) for v in result):
        raise CheckFailed("non-finite on-resonance excess")
    if op.reference:
        _check_excess(op.point, result[0], result[1], "on-resonance")
    return 1


def check_mc_expect(op, result, rng):
    mean, stderr, quad = result
    _close("Monte Carlo mean", mean, quad.value, 5.0 * stderr + quad.error)
    if not op.reference:
        return 1
    p = op.point
    ref, ref_err = reference_avg(p["delta_p"], p["delta_c"], p["gamma0"],
                                 p["omega_c"], omega_a(p), sign(p))
    if op.extra["part"] == "imag":
        ref, ref_err = ref.imag, ref_err.imag
    else:
        ref, ref_err = ref.real, ref_err.real
    _close("expect", quad.value, ref, tolerance(ref, ref_err, quad.error, 1.0))
    return 1


CLI_CHECKS = {"spectrum": check_spectrum, "ddi": check_ddi,
              "sample": check_sample}
RESULT_CHECKS = {"slope": check_slope, "fit": check_fit,
                 "on_resonance": check_on_resonance,
                 "mc_expect": check_mc_expect}


def check(op, result, workdir):
    """Rows the op delivered; raises CheckFailed when its output is wrong."""
    rng = np.random.default_rng(op.check_seed)
    if op.kind == "cli" and op.extra["command"] == "peak-shift":
        return check_peak_shift(op, workdir, rng, status=result)
    if op.kind == "cli":
        return CLI_CHECKS[op.extra["command"]](op, workdir, rng)
    return RESULT_CHECKS[op.kind](op, result, rng)
