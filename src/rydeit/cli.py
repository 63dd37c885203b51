"""Command-line interface.

Subcommands: spectrum, ddi, peak-shift, fit, check, sample.  Tables go to
stdout or a file as CSV or JSON (full precision, atomic writes); --plot adds
a deterministic SVG rendering of the table.

All frequencies are in units of the intermediate-state decay rate unless
--gamma-mhz is given, in which case frequency-like inputs are read in MHz
(and c6 in MHz um^6) and divided by the base value.  Use one convention
consistently (plain or 2*pi*) for all inputs; the factors cancel.

Exit codes: 0 success, 2 usage or parameter error (including non-finite
inputs), 3 flagged rows or non-convergence of a quadrature route (peak-shift
still writes its table, with a warning column on the rows whose peak is not
bracketed), 4 unidentifiable fit.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import analytic, analysis, nnd
from .ddi import beta_phi_ddi_array
from .exceptions import (NonConvergenceError, ParameterError,
                         PeakNotBracketedError, UnidentifiableFitError)
from .params import DdiParams, EitParams, derive_scales
from .response import beta0_phi0
from .svgplot import PlotStyle, emit_plot

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3
EXIT_UNIDENTIFIABLE = 4


@dataclasses.dataclass
class Table:
    columns: list
    rows: list
    params: dict


@dataclasses.dataclass
class RunConfig:
    """Parsed invocation: one command plus its parameters."""

    command: str
    eit_fields: dict
    ddi_fields: dict
    axis: str = "probe"
    grid: tuple = (-0.5, 0.5, 401)
    x_var: str = "probe-power"
    output_format: str = "csv"
    output: str | None = None
    plot: str | None = None
    gamma_mhz: float | None = None
    seed: int = 0
    count: int = 1000
    rtol: float = 1e-8
    max_panels: int = 10000
    timestamp: bool = True
    input_path: str | None = None


def _grid_spec(text):
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:count, got {text!r}")
    if count < 2:
        raise argparse.ArgumentTypeError("grid count must be >= 2")
    if not stop > start:
        raise argparse.ArgumentTypeError("grid stop must exceed start")
    return (start, stop, count)


def _add_common(parser, need_probe=True):
    g = parser.add_argument_group("medium / drive (units of gamma)")
    g.add_argument("--alpha", type=float, required=True, help="optical depth")
    g.add_argument("--omega-c", type=float, required=True,
                   help="coupling Rabi frequency")
    g.add_argument("--omega-p-in", type=float, default=0.0,
                   required=need_probe, help="input probe Rabi frequency")
    g.add_argument("--delta-p", type=float, default=0.0,
                   help="probe one-photon detuning")
    g.add_argument("--delta-c", type=float, default=0.0,
                   help="coupling one-photon detuning")
    g.add_argument("--gamma0", type=float, default=0.0,
                   help="Rydberg decoherence rate")
    d = parser.add_argument_group("dipole-dipole interaction")
    d.add_argument("--strength", type=float, default=None,
                   help="combined strength |c6|((4pi/3) n eps)^2 [gamma]")
    d.add_argument("--positive-c6", action="store_true",
                   help="repulsive interaction (with --strength); default "
                        "attractive")
    d.add_argument("--c6", type=float, default=None,
                   help="signed van der Waals coefficient [gamma um^6]")
    d.add_argument("--n-atom", type=float, default=None,
                   help="atomic density [um^-3]")
    d.add_argument("--epsilon", type=float, default=None,
                   help="phenomenological ensemble factor")
    o = parser.add_argument_group("output")
    o.add_argument("--format", choices=("csv", "json"), default="csv")
    o.add_argument("--output", default=None, help="output path (default stdout)")
    o.add_argument("--plot", default=None, help="write an SVG plot here")
    o.add_argument("--no-timestamp", action="store_true",
                   help="omit the generation timestamp (byte-reproducible output)")
    o.add_argument("--gamma-mhz", type=float, default=None,
                   help="gamma in MHz; frequency inputs are then read in MHz")
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="relative tolerance of the quadrature routes "
                             "(nnd.expect, delta_beta_phi_on_resonance); the "
                             "shift average itself is an exact closed form "
                             "and ignores it")
    parser.add_argument("--max-panels", type=int, default=10000,
                        help="panel budget of the quadrature routes; ignored "
                             "by the closed-form shift average")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rydeit",
        description="Mean-field optical response of a weakly interacting "
                    "Rydberg-EIT medium")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="transmission/phase spectrum over the "
                                        "two-photon detuning")
    _add_common(p)
    p.add_argument("--axis", choices=("probe", "coupling"), default="probe",
                   help="which laser frequency is swept")
    p.add_argument("--grid", type=_grid_spec, default=(-0.5, 0.5, 401),
                   metavar="START:STOP:COUNT")

    p = sub.add_parser("ddi", help="DDI excess: quadrature vs closed forms")
    _add_common(p)
    p.add_argument("--x", choices=("probe-power", "delta-c"),
                   default="probe-power", dest="x_var")
    p.add_argument("--grid", type=_grid_spec, default=(0.0025, 0.04, 16),
                   metavar="START:STOP:COUNT")

    p = sub.add_parser("peak-shift", help="EIT-peak shift: formula vs "
                                          "numerical peak")
    _add_common(p)
    p.add_argument("--axis", choices=("probe", "coupling"), default="probe")
    p.add_argument("--grid", type=_grid_spec, default=(-2.0, 2.0, 9),
                   metavar="START:STOP:COUNT",
                   help="fixed-detuning values to scan")

    p = sub.add_parser("fit", help="calibrate epsilon from a slope table")
    _add_common(p, need_probe=False)
    p.add_argument("--input", required=True,
                   help="CSV with columns delta_c, slope_beta, slope_phi"
                        "[, weight]")

    p = sub.add_parser("check", help="regime and validity report")
    _add_common(p, need_probe=False)

    p = sub.add_parser("sample", help="draw frequency shifts from the "
                                      "nearest-neighbor measure")
    _add_common(p)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    return parser


def config_from_args(args) -> RunConfig:
    scale = 1.0
    if args.gamma_mhz is not None:
        if args.gamma_mhz <= 0:
            raise ParameterError("--gamma-mhz must be positive")
        scale = args.gamma_mhz

    eit_fields = dict(
        alpha=args.alpha,
        omega_c=args.omega_c / scale,
        omega_p_in=getattr(args, "omega_p_in", 0.0) / scale,
        delta_p=args.delta_p / scale,
        delta_c=args.delta_c / scale,
        gamma0=args.gamma0 / scale,
    )
    if args.strength is not None:
        if args.c6 is not None or args.n_atom is not None or args.epsilon is not None:
            raise ParameterError("give --strength or (--c6 --n-atom --epsilon), not both")
        ddi_fields = dict(combined_strength=args.strength / scale,
                          c6_sign=1 if args.positive_c6 else -1)
    elif args.c6 is not None or args.n_atom is not None or args.epsilon is not None:
        epsilon = args.epsilon
        if epsilon is None and args.command == "fit":
            epsilon = 1.0  # placeholder; epsilon is the fitted parameter
        if args.c6 is None or args.n_atom is None or epsilon is None:
            raise ParameterError("--c6, --n-atom and --epsilon must be given together")
        ddi_fields = dict(c6=args.c6 / scale, n_atom=args.n_atom,
                          epsilon=epsilon)
    else:
        ddi_fields = {}

    return RunConfig(
        command=args.command,
        eit_fields=eit_fields,
        ddi_fields=ddi_fields,
        axis=getattr(args, "axis", "probe"),
        grid=getattr(args, "grid", (-0.5, 0.5, 401)),
        x_var=getattr(args, "x_var", "probe-power"),
        output_format=args.format,
        output=args.output,
        plot=args.plot,
        gamma_mhz=args.gamma_mhz,
        seed=getattr(args, "seed", 0),
        count=getattr(args, "count", 1000),
        rtol=args.tol,
        max_panels=args.max_panels,
        timestamp=not args.no_timestamp,
        input_path=getattr(args, "input", None),
    )


def _build_params(config: RunConfig):
    eit = EitParams(**config.eit_fields)
    if not config.ddi_fields:
        raise ParameterError("no interaction strength given "
                             "(--strength or --c6 --n-atom --epsilon)")
    return eit, DdiParams(**config.ddi_fields)


def _params_meta(config: RunConfig, eit=None, ddi=None):
    meta = {"command": config.command}
    if eit is not None:
        meta.update({k: getattr(eit, k) for k in
                     ("alpha", "omega_c", "omega_p_in", "delta_p", "delta_c",
                      "gamma0", "gamma")})
    if ddi is not None:
        meta.update({"strength": ddi.strength, "c6_sign": ddi.sign})
        if ddi.has_length_scales:
            meta.update({"c6": ddi.c6, "n_atom": ddi.n_atom,
                         "epsilon": ddi.epsilon})
    if config.gamma_mhz is not None:
        meta["gamma_mhz"] = config.gamma_mhz
    return meta


def _fmt_cell(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _render(table: Table, config: RunConfig) -> str:
    stamp = (time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime())
             if config.timestamp else None)
    if config.output_format == "json":
        doc = {"params": table.params, "columns": table.columns,
               "rows": table.rows}
        if stamp:
            doc["generated"] = stamp
        return json.dumps(doc, indent=1, default=float) + "\n"
    buf = io.StringIO()
    if stamp:
        buf.write(f"# generated {stamp}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_fmt_cell(v) for v in row])
    return buf.getvalue()


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rydeit-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _maybe_plot(table: Table, config: RunConfig, title: str):
    if not config.plot:
        return
    # keep fully numeric columns only (drops e.g. a warning column)
    keep = [j for j in range(len(table.columns))
            if all(isinstance(r[j], (int, float)) and not isinstance(r[j], bool)
                   for r in table.rows)]
    columns = [table.columns[j] for j in keep]
    rows = [[r[j] for j in keep] for r in table.rows]
    svg = emit_plot(columns, rows,
                    PlotStyle(title=title, x_label=columns[0] if columns else ""))
    _write_output(svg, config.plot)


def cmd_spectrum(config: RunConfig):
    eit, ddi = _build_params(config)
    start, stop, count = config.grid
    grid = np.linspace(start, stop, count)
    no_ddi = analysis.sweep(eit, None, config.axis, grid, with_ddi=False)
    with_ddi = analysis.sweep(eit, ddi, config.axis, grid, with_ddi=True)
    t_no_ddi, t_ddi = no_ddi.transmission, with_ddi.transmission
    columns = ["delta", "transmission_no_ddi", "transmission_ddi",
               "phase_no_ddi", "phase_ddi", "quadrature_error"]
    rows = []
    for i, d in enumerate(grid):
        rows.append([float(d), float(t_no_ddi[i]), float(t_ddi[i]),
                     float(no_ddi.phase[i]), float(with_ddi.phase[i]),
                     float(max(with_ddi.err_beta[i], with_ddi.err_phi[i]))])
    table = Table(columns, rows, _params_meta(config, eit, ddi))
    _write_output(_render(table, config), config.output)
    # plot the transmission pair; the phase columns live on a different scale
    plot_table = Table(columns[:3], [r[:3] for r in rows], table.params)
    _maybe_plot(plot_table, config, "probe transmission")
    return EXIT_OK


def cmd_ddi(config: RunConfig):
    eit, ddi = _build_params(config)
    start, stop, count = config.grid
    grid = np.linspace(start, stop, count)
    if config.x_var == "probe-power":
        if np.any(grid <= 0):
            raise ParameterError("probe powers must be positive")
        quad = beta_phi_ddi_array(eit, ddi, eit.delta_p, eit.delta_c,
                                  np.sqrt(grid))
        points = [dataclasses.replace(eit, omega_p_in=math.sqrt(x))
                  for x in grid]
    else:
        quad = beta_phi_ddi_array(eit, ddi, eit.delta - grid, grid)
        points = [dataclasses.replace(eit, delta_c=float(x),
                                      delta_p=eit.delta - float(x))
                  for x in grid]
    rows = []
    for x, db, dp, point in zip(grid.tolist(), quad.delta_beta.tolist(),
                                quad.delta_phi.tolist(), points):
        # the closed forms are scalar, so each point keeps its own params
        pred = analytic.delta_beta_phi_corrected(point, ddi)
        rows.append([x, db, dp, pred.delta_beta, pred.delta_phi])
    columns = ["probe_power" if config.x_var == "probe-power" else "delta_c",
               "delta_beta_quad", "delta_phi_quad",
               "delta_beta_analytic", "delta_phi_analytic"]
    table = Table(columns, rows, _params_meta(config, eit, ddi))
    _write_output(_render(table, config), config.output)
    _maybe_plot(table, config, "DDI excess")
    return EXIT_OK


def cmd_peak_shift(config: RunConfig):
    eit, ddi = _build_params(config)
    start, stop, count = config.grid
    detunings = np.linspace(start, stop, count)
    span = 0.5 + 0.1 * abs(eit.gamma)
    sweep_grid = np.linspace(-span, span, 401)
    rows = []
    status = EXIT_OK
    warnings_col = []
    for x in detunings:
        if config.axis == "probe":
            point = dataclasses.replace(eit, delta_c=float(x))
            formula = analytic.peak_shift_probe_sweep(point, ddi)
        else:
            point = dataclasses.replace(eit, delta_p=float(x))
            formula = analytic.peak_shift_coupling_sweep(point, ddi)
        note = ""
        spectrum = analysis.sweep(point, ddi, config.axis, sweep_grid)
        try:
            numerical = analysis.find_peak(spectrum).delta
        except PeakNotBracketedError:
            numerical = math.nan
            note = "peak not bracketed"
            status = EXIT_NONCONVERGED
        rows.append([float(x), formula, numerical])
        warnings_col.append(note)
    columns = ["delta_c" if config.axis == "probe" else "delta_p",
               "shift_formula", "shift_numerical"]
    if status != EXIT_OK:
        columns.append("warning")
        for row, note in zip(rows, warnings_col):
            row.append(note)
    table = Table(columns, rows, _params_meta(config, eit, ddi))
    _write_output(_render(table, config), config.output)
    _maybe_plot(table, config, "EIT peak shift")
    return status


def cmd_fit(config: RunConfig):
    eit, ddi = _build_params(config)
    if not ddi.has_length_scales:
        raise ParameterError("fit needs --c6 and --n-atom (epsilon is the "
                             "fitted parameter)")
    observations = []
    with open(config.input_path, newline="") as fh:
        reader = csv.DictReader(
            row for row in fh if not row.lstrip().startswith("#"))
        required = {"delta_c", "slope_beta", "slope_phi"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ParameterError(
                "slope table needs columns delta_c, slope_beta, slope_phi")
        for rec in reader:
            obs = [float(rec["delta_c"]), float(rec["slope_beta"]),
                   float(rec["slope_phi"])]
            if rec.get("weight") not in (None, ""):
                obs.append(float(rec["weight"]))
            observations.append(tuple(obs))
    fit = analysis.fit_epsilon(observations, eit, ddi.c6, ddi.n_atom)
    columns = ["epsilon", "stderr", "residual_sum", "n_obs", "clamped"]
    rows = [[fit.epsilon, fit.stderr, fit.residual_sum, fit.n_obs,
             int(fit.clamped)]]
    table = Table(columns, rows, _params_meta(config, eit, ddi))
    _write_output(_render(table, config), config.output)
    return EXIT_OK


def cmd_check(config: RunConfig):
    eit, ddi = _build_params(config)
    report = analysis.regime_report(eit, ddi)
    scales = derive_scales(eit, ddi)
    b0, p0 = beta0_phi0(eit)
    columns = ["quantity", "value"]
    rows = [
        ["blockade_ratio", report.blockade_ratio],
        ["linewidth_ratio", report.linewidth_ratio],
        ["validity_beta", report.validity_beta],
        ["validity_phi", report.validity_phi],
        ["beta_formula_ok", int(report.beta_formula_ok)],
        ["phi_formula_ok", int(report.phi_formula_ok)],
        ["perturbative_probe", int(report.perturbative_probe)],
        ["omega_a", scales.omega_a],
        ["eit_linewidth", scales.eit_linewidth],
        ["s_ddi", scales.s_ddi],
        ["w_c", scales.w_c],
        ["w_p", scales.w_p],
        ["beta0", b0],
        ["phi0", p0],
    ]
    if report.r_a_um is not None:
        rows.append(["r_a_um", report.r_a_um])
        rows.append(["r_b_um", report.r_b_um])
        rows.append(["r_a_um3", report.r_a_um ** 3])
        rows.append(["r_b_um3", report.r_b_um ** 3])
    table = Table(columns, rows, _params_meta(config, eit, ddi))
    _write_output(_render(table, config), config.output)
    return EXIT_OK


def cmd_sample(config: RunConfig):
    eit, ddi = _build_params(config)
    omega_a = derive_scales(eit, ddi).omega_a
    samples = nnd.sample_shift(config.count, config.seed, omega_a)
    meta = _params_meta(config, eit, ddi)
    meta.update({"seed": config.seed, "omega_a": omega_a})
    table = Table(["omega"], [[float(s)] for s in samples], meta)
    _write_output(_render(table, config), config.output)
    return EXIT_OK


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "ddi": cmd_ddi,
    "peak-shift": cmd_peak_shift,
    "fit": cmd_fit,
    "check": cmd_check,
    "sample": cmd_sample,
}


def run(config: RunConfig) -> int:
    """Execute one parsed command; returns the process exit status."""
    return _COMMANDS[config.command](config)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        return run(config)
    except UnidentifiableFitError as exc:
        print(f"rydeit: unidentifiable fit: {exc}", file=sys.stderr)
        return EXIT_UNIDENTIFIABLE
    except NonConvergenceError as exc:
        print(f"rydeit: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (ParameterError, ValueError, OSError) as exc:
        print(f"rydeit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
