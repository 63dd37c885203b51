"""Seeded workload generators and the execution of one op.

An op is one user-level call: a `rydeit.cli.main(argv)` invocation or one
library call.  Workloads are generated in rounds; within a round every
continuous parameter is Latin-hypercube stratified and every discrete choice
(sweep axis, sign of c6, output format) is balanced, so two seeds give op
mixes of the same cost profile while no two ops share inputs.

Parameter ranges follow the paper's weak-interaction regime and the
acceptance suite: omega_c 0.8-2.5, one-photon detunings within +-2,
omega_p_in up to 0.3, gamma0 0-0.05, combined strength 0.05-1, both signs of
c6 and both sweep axes.

Generation imports nothing from rydeit; `execute` does, through module
attributes only, so that the tracer's wrappers are seen.
"""

import math
from dataclasses import dataclass, field

import numpy as np

RTOL = 1e-8          # the CLI's and library's default quadrature tolerance
ATOL = 1e-12
PEAK_GRID = "-2:2:9"  # the default peak-shift scan of ROADMAP workload W2
UNBRACKETED = "peak not bracketed"  # peak-shift's note for an edge maximum
EXIT_FLAGGED = 3      # the CLI's exit status when it flags rows
SPECTRUM_POINTS = 401
DDI_POINTS = 17
SLOPE_DETUNINGS = 5
SLOPE_POWERS = 4
SAMPLE_COUNT = 10_000
MC_COUNT = 100_000
ON_RESONANCE_POINTS = 3
REFERENCE_EVERY = 8  # crosscheck rounds compared with the reference

OMEGA_C = (0.8, 2.5)
DETUNING = (-2.0, 2.0)
OMEGA_P_IN = (0.05, 0.3)
GAMMA0 = (0.0, 0.05)
STRENGTH = (0.05, 1.0)
ALPHA = (40.0, 120.0)


@dataclass
class Op:
    """One user-level call and everything its output check needs.

    kind     "cli" ops carry argv; the others name a library call
    point    the physical inputs, in units of gamma
    rows     output rows the user receives
    """

    kind: str
    point: dict
    rows: int
    argv: list = field(default_factory=list)
    output: str = ""
    plot: str = ""
    extra: dict = field(default_factory=dict)
    round_index: int = 0
    check_seed: int = 0
    reference: bool = True  # compare with the quadrature reference


def _strata(rng, n, lo, hi):
    """n values in [lo, hi], one per equal-width stratum, in random order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def _balanced(rng, n, choices):
    """n picks from `choices`: every consecutive block of len(choices) picks
    holds each choice once, in random order, so any prefix is balanced."""
    picks = []
    while len(picks) < n:
        picks += [choices[i] for i in rng.permutation(len(choices))]
    return picks[:n]


def _f(x):
    """Exact text for a float argument, so the check sees the CLI's input."""
    return repr(float(x))


def _common_argv(p):
    # --name=value: argparse would take "-1e-05" after a space for an option
    argv = [f"--{name.replace('_', '-')}={_f(p[name])}" for name in (
        "alpha", "omega_c", "omega_p_in", "delta_p", "delta_c", "gamma0",
        "strength")]
    if p["positive_c6"]:
        argv.append("--positive-c6")
    return argv


def _points(rng, n):
    """n stratified parameter points with balanced axis and c6 sign."""
    cols = {name: _strata(rng, n, *rng_range) for name, rng_range in (
        ("alpha", ALPHA), ("omega_c", OMEGA_C), ("omega_p_in", OMEGA_P_IN),
        ("gamma0", GAMMA0), ("strength", STRENGTH), ("fixed", DETUNING))}
    combos = _balanced(rng, n, [(a, s) for a in ("probe", "coupling")
                                for s in (False, True)])
    points = []
    for i in range(n):
        axis, positive = combos[i]
        fixed = float(cols["fixed"][i])
        points.append(dict(
            alpha=float(cols["alpha"][i]), omega_c=float(cols["omega_c"][i]),
            omega_p_in=float(cols["omega_p_in"][i]),
            gamma0=float(cols["gamma0"][i]),
            strength=float(cols["strength"][i]), positive_c6=positive,
            axis=axis,
            delta_c=fixed if axis == "probe" else 0.0,
            delta_p=fixed if axis == "coupling" else 0.0))
    return points


def spectrum_round(rng, r):
    """32 `rydeit spectrum` calls on 401-point grids (ROADMAP W1)."""
    n = 32
    points = _points(rng, n)
    spans = _strata(rng, n, 0.3, 1.0)
    formats = _balanced(rng, n, ["csv", "json"])
    plots = _balanced(rng, n, [True, False, False, False])
    ops = []
    for i, p in enumerate(points):
        grid = (-float(spans[i]), float(spans[i]), SPECTRUM_POINTS)
        stem = f"r{r}-{i}"
        op = Op(kind="cli", point=p, rows=SPECTRUM_POINTS,
                output=f"{stem}.{formats[i]}",
                plot=f"{stem}.svg" if plots[i] else "",
                extra={"command": "spectrum", "grid": grid},
                round_index=r, check_seed=int(rng.integers(2**31)))
        op.argv = (["spectrum"] + _common_argv(p)
                   + [f"--axis={p['axis']}",
                      f"--grid={_f(grid[0])}:{_f(grid[1])}:{grid[2]}",
                      f"--format={formats[i]}"])
        ops.append(op)
    return ops


def peak_scan_round(rng, r):
    """16 default `rydeit peak-shift` calls, 4 per (axis, sign) (W2)."""
    ops = []
    for i, p in enumerate(_points(rng, 16)):
        op = Op(kind="cli", point=p, rows=9, output=f"r{r}-{i}.csv",
                extra={"command": "peak-shift"}, round_index=r,
                check_seed=int(rng.integers(2**31)))
        op.argv = (["peak-shift"] + _common_argv(p)
                   + [f"--axis={p['axis']}", f"--grid={PEAK_GRID}"])
        ops.append(op)
    return ops


def crosscheck_round(rng, r):
    """The three routes on scattered single points: a ddi table, slopes
    from both sources, the epsilon fit, the on-resonance integrals, a large
    sample table and a Monte Carlo mean against the quadrature."""
    p = _points(rng, 1)[0]
    p["positive_c6"] = bool(r % 2)
    seed = int(rng.integers(2**31))
    ops = []

    x_var = "delta-c" if r % 2 else "probe-power"
    if x_var == "delta-c":
        half = float(rng.uniform(1.0, 2.0))
        grid = (-half, half, DDI_POINTS)
    else:
        grid = (float(rng.uniform(0.001, 0.01)), float(rng.uniform(0.03, 0.09)),
                DDI_POINTS)
    ddi = Op(kind="cli", point=p, rows=DDI_POINTS, output=f"r{r}-ddi.csv",
             extra={"command": "ddi", "grid": grid, "x_var": x_var},
             round_index=r, check_seed=seed + 1)
    ddi.argv = (["ddi"] + _common_argv(p)
                + [f"--x={x_var}", f"--grid={_f(grid[0])}:{_f(grid[1])}:{grid[2]}"])
    ops.append(ddi)

    # physical interaction inputs for the slope -> epsilon round trip
    c6_abs = float(rng.uniform(20.0, 80.0))
    epsilon = float(rng.uniform(0.5, 1.5))
    n_atom = math.sqrt(p["strength"] / c6_abs) / (4.0 * math.pi / 3.0 * epsilon)
    physical = dict(c6=-c6_abs if not p["positive_c6"] else c6_abs,
                    n_atom=n_atom, epsilon=epsilon)
    two_photon = float(rng.uniform(-0.05, 0.05))
    lo, hi = float(rng.uniform(0.0025, 0.01)), float(rng.uniform(0.04, 0.09))
    powers = [float(v) for v in np.linspace(lo, hi, SLOPE_POWERS)]
    detunings = _strata(rng, SLOPE_DETUNINGS, *DETUNING)
    for j, dc in enumerate(sorted(float(d) for d in detunings)):
        point = dict(p, delta_c=dc, delta_p=two_photon - dc)
        for use in ("quadrature", "analytic"):
            ops.append(Op(kind="slope", point=point, rows=1,
                          extra={"use": use, "powers": powers,
                                 "physical": physical, "index": j},
                          round_index=r, check_seed=seed + 10 + j))
    ops.append(Op(kind="fit", point=dict(p, delta_c=0.0, delta_p=two_photon),
                  rows=1, extra={"physical": physical}, round_index=r))

    for dc in _strata(rng, ON_RESONANCE_POINTS, *DETUNING):
        ops.append(Op(kind="on_resonance",
                      point=dict(p, gamma0=0.0, delta_c=float(dc),
                                 delta_p=-float(dc)),
                      rows=1, round_index=r))

    sample = Op(kind="cli", point=p, rows=SAMPLE_COUNT,
                output=f"r{r}-sample.csv",
                extra={"command": "sample"},
                round_index=r)
    sample.argv = (["sample"] + _common_argv(p)
                   + [f"--count={SAMPLE_COUNT}", f"--seed={seed % 100_000}"])
    ops.append(sample)

    for j, part in enumerate(("imag", "real")):
        ops.append(Op(kind="mc_expect", point=p, rows=1,
                      extra={"seed": seed + 2 + j, "count": MC_COUNT,
                             "part": part},
                      round_index=r))
    # a round has ~0.1 s of ops but ~25 ms of reference quadrature per point
    for op in ops:
        op.reference = r % REFERENCE_EVERY == 0
    return ops


# round generator and the number of leading ops the traced run repeats
# (None: all of round 0, whose ops depend on each other)
WORKLOADS = {
    "spectrum": (spectrum_round, 8),
    "peak_scan": (peak_scan_round, 4),
    "crosscheck": (crosscheck_round, None),
}


def generate(workload, seed):
    """Endless op sequence of `workload` for `seed`, round by round."""
    make_round = WORKLOADS[workload][0]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    r = 0
    while True:
        yield from make_round(rng, r)
        r += 1


def trace_batch(workload, seed):
    """The fixed batch of ops the traced run repeats."""
    size = WORKLOADS[workload][1]
    ops = []
    for op in generate(workload, seed):
        if op.round_index > 0 or len(ops) == size:
            return ops
        ops.append(op)


# -- execution --------------------------------------------------------------

def omega_a(p):
    """Shift scale omega_a = strength * (omega_p_in / omega_c)^4, gamma = 1."""
    return p["strength"] * (p["omega_p_in"] / p["omega_c"]) ** 4


def chi(w, dp, dc, g0, wc, s):
    """rho31/Omega_p (gamma = 1) at shift s*w, s = +1 attractive, -1
    repulsive; broadcasts."""
    num = dp + dc + s * w + 1j * g0
    return num / (0.5 * wc * wc - 2.0 * (dp + 0.5j) * num)


def sign(p):
    """Sign of the shift under the average: -1 for positive c6."""
    return -1.0 if p["positive_c6"] else 1.0


def chi_part(p, part):
    """Re or Im of chi at shift w for point p: the bounded functions whose
    Monte Carlo means the mc_expect ops compare with the quadrature.  The
    arithmetic is inlined, as a user's integrand would be."""
    s = sign(p)
    dp, dc, g0, wc2 = p["delta_p"], p["delta_c"], p["gamma0"], p["omega_c"] ** 2

    def f(w):
        num = dp + dc + s * w + 1j * g0
        c = num / (0.5 * wc2 - 2.0 * (dp + 0.5j) * num)
        return c.imag if part == "imag" else c.real
    return f


class RoundState:
    """Results an op of a round hands to a later op of the same round."""

    def __init__(self):
        self.round_index = -1
        self.slopes = {}

    def enter(self, r):
        if r != self.round_index:
            self.round_index = r
            self.slopes = {}


def _notes(path):
    """{note: rows} of the CLI's warning notes in an output file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError:
        return {}
    notes = {n: text.count(n) for n in ("nonconvergence", UNBRACKETED)}
    return {n: k for n, k in notes.items() if k}


def execute(op, workdir, state, rydeit):
    """Run one op; returns what its check needs.  Raises on failure.

    A `peak-shift` whose only warnings are `peak not bracketed` rows exits
    EXIT_FLAGGED and returns that status: the rows say that the sweep's
    transmission maximum lies on the window's edge, which the output check
    verifies against the reference.  Any other non-zero exit fails the op.

    `rydeit` is the imported package; calls go through module attributes.
    """
    state.enter(op.round_index)
    p = op.point
    if op.kind == "cli":
        argv = list(op.argv) + ["--output", f"{workdir}/{op.output}"]
        if op.plot:
            argv += ["--plot", f"{workdir}/{op.plot}"]
        try:
            status = rydeit.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            status = exc.code
        if status == 0:
            return status
        notes = _notes(f"{workdir}/{op.output}")
        if (op.extra["command"] == "peak-shift" and status == EXIT_FLAGGED
                and list(notes) == [UNBRACKETED]):
            return status
        raise RuntimeError(f"rydeit {op.argv[0]} exited {status}" + "".join(
            f"; {k} rows with {n!r}" for n, k in notes.items()))

    eit = rydeit.EitParams(
        omega_c=p["omega_c"], alpha=p["alpha"], omega_p_in=p["omega_p_in"],
        delta_p=p["delta_p"], delta_c=p["delta_c"], gamma0=p["gamma0"])
    if op.kind == "slope":
        ddi = rydeit.DdiParams(**op.extra["physical"])
        fits = rydeit.analysis.slope_vs_probe_power(
            eit, ddi, op.extra["powers"], use=op.extra["use"])
        if op.extra["use"] == "quadrature":
            state.slopes[op.extra["index"]] = (
                p["delta_c"], fits[0].slope, fits[1].slope)
        return fits
    if op.kind == "fit":
        phys = op.extra["physical"]
        observations = [state.slopes[j] for j in sorted(state.slopes)]
        if len(observations) != SLOPE_DETUNINGS:
            raise RuntimeError("a slope op of this round failed")
        return rydeit.analysis.fit_epsilon(observations, eit, phys["c6"],
                                           phys["n_atom"])
    ddi = rydeit.DdiParams(combined_strength=p["strength"],
                           c6_sign=1 if p["positive_c6"] else -1)
    if op.kind == "on_resonance":
        return rydeit.ddi.delta_beta_phi_on_resonance(eit, ddi)
    if op.kind == "mc_expect":
        f = chi_part(p, op.extra["part"])
        shifts = rydeit.nnd.sample_shift(op.extra["count"], op.extra["seed"],
                                         omega_a(p))
        values = f(shifts)
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(values.size))
        quad = rydeit.nnd.expect(f, rydeit.NndMeasure(omega_a=omega_a(p)))
        return mean, stderr, quad
    raise ValueError(f"unknown op kind {op.kind!r}")
