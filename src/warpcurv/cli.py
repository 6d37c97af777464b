"""Command-line surface: curvature evaluation, verification sweeps, geodesics.

    warpcurv curvature MANIFEST --point "1.57,0" [--oracle] [--check 1e-5]
    warpcurv verify    MANIFEST [--samples 100] [--seed 7] [--box 0.3..2.8,0..6.28]
    warpcurv geodesic  MANIFEST --init "1.57,0;0,1" --s-end 6.283 [--rhs both]

Exit codes: 0 success, 1 tolerance or drift failure or a numerical
instability (a computed tensor broke a structural identity), 2 manifest or
expression parse error or an invalid flag (a geodesic asking for more than
MAX_GEODESIC_STEPS steps among them), 3 evaluation left the valid domain,
4 too many skipped sample points (over 10%).  verify records a sample
that raises NumericalInstabilityError as an "unstable" row and goes on; it
exits 1 at the end unless the skip rule already gives 4.  CSV output uses
comma separators, 17-significant-digit numbers, LF line endings, and one
leading version header line; identical inputs and seed reproduce it byte
for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bundle import CONVENTIONS, CurvatureBundle
from .closed_form import bundle_closed
from .errors import (
    DegenerateMetricError,
    DomainExitError,
    EvalDomainError,
    ManifestError,
    NonpositiveWarpError,
    NumericalInstabilityError,
    StencilDomainError,
    StepTooLargeError,
    WarpcurvError,
)
from .geodesics import GeodesicState, integrate
from .manifest import Manifest, load_manifest
from .oracle import bundle_fd, compare_bundles
from .warped import ProductPoint, as_plain_metric

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_MANIFEST = 2
EXIT_DOMAIN = 3
EXIT_SKIPS = 4

# Every sample of a trajectory is kept in memory; 100 times the longest run
# the tests and the benchmark make.
MAX_GEODESIC_STEPS = 10**6

_DOMAIN_ERRORS = (
    EvalDomainError,
    NonpositiveWarpError,
    DegenerateMetricError,
    StencilDomainError,
)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_reals(text: str, what: str) -> np.ndarray:
    try:
        values = np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise ManifestError(f"cannot parse {what} {text!r}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise ManifestError(f"{what} {text!r} has a value that is not finite")
    return values


def _tolerance(flag: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ManifestError(f"{flag} must be finite and >= 0, got {value!r}")


def _parse_box(text: str, dim: int) -> np.ndarray:
    spans = text.split(",")
    if len(spans) != dim:
        raise ManifestError(f"--box needs {dim} lo..hi spans, got {len(spans)}")
    out = np.empty((dim, 2))
    for i, span in enumerate(spans):
        lo, sep, hi = span.partition("..")
        if not sep:
            raise ManifestError(f"--box span {span!r} must look like lo..hi")
        try:
            out[i] = (float(lo), float(hi))
        except ValueError as exc:
            raise ManifestError(f"--box span {span!r}: {exc}") from exc
        if not out[i, 0] < out[i, 1]:
            raise ManifestError(f"--box span {span!r} needs lo < hi")
        if not math.isfinite(out[i, 1] - out[i, 0]):
            raise ManifestError(f"--box span {span!r} needs a finite width")
    return out


def _default_seed() -> int:
    env = os.environ.get("WARPCURV_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise ManifestError(f"WARPCURV_SEED must be an integer, got {env!r}") from exc


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _bundle_json(bundle: CurvatureBundle) -> dict:
    return {
        "convention": bundle.convention,
        "christoffel": bundle.christoffel.tolist(),
        "riemann": bundle.riemann.tolist(),
        "ricci": bundle.ricci.tolist(),
        "scalar": bundle.scalar,
    }


def cmd_curvature(mf: Manifest, args) -> int:
    if args.check is not None:
        _tolerance("--check", args.check)
    point = _parse_reals(args.point, "--point")
    if len(point) != mf.dim:
        raise ManifestError(f"--point needs {mf.dim} coordinates, got {len(point)}")
    convention = args.convention or mf.convention
    pp = ProductPoint.from_full(point, mf.spec.base.dim)
    closed = bundle_closed(mf.spec, pp, convention=convention)
    doc = {
        "manifest": mf.name,
        "point": point.tolist(),
        "closed": _bundle_json(closed),
    }
    code = EXIT_OK
    if args.oracle or args.check is not None:
        plain = as_plain_metric(mf.spec)
        oracle = bundle_fd(plain, point, mf.policy, convention=convention)
        report = compare_bundles(closed, oracle)
        doc["oracle"] = _bundle_json(oracle)
        doc["comparison"] = report.as_dict()
        if args.check is not None:
            ok = report.within(args.check)
            doc["within_tolerance"] = ok
            code = EXIT_OK if ok else EXIT_TOLERANCE
    _emit([json.dumps(doc, indent=2, sort_keys=True)], args.out)
    return code


def cmd_verify(mf: Manifest, args) -> int:
    if args.samples < 1:
        raise ManifestError(f"--samples must be at least 1, got {args.samples}")
    _tolerance("--tol", args.tol)
    if args.box is not None:
        box = _parse_box(args.box, mf.dim)
    elif mf.box is not None:
        box = mf.box
    else:
        raise ManifestError("manifest has no box; pass --box lo..hi per coordinate")
    convention = args.convention or mf.convention
    seed = args.seed if args.seed is not None else _default_seed()
    rng = np.random.default_rng(seed)
    plain = as_plain_metric(mf.spec)
    m = mf.spec.base.dim

    lines = [f"# warpcurv {__version__} verify manifest={mf.name} samples={args.samples} seed={seed}"]
    lines.append("point,tensor,max_abs_dev,max_rel_dev")
    skipped = 0
    unstable = []
    worst = 0.0
    for _ in range(args.samples):
        point = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(mf.dim)
        label = ";".join(_fmt(c) for c in point)
        try:
            closed = bundle_closed(mf.spec, ProductPoint.from_full(point, m), convention=convention)
            oracle = bundle_fd(plain, point, mf.policy, convention=convention)
        except _DOMAIN_ERRORS as exc:
            skipped += 1
            lines.append(f"{label},skipped:{type(exc).__name__},,")
            continue
        except NumericalInstabilityError as exc:
            unstable.append(exc)
            lines.append(f"{label},unstable:{type(exc).__name__},,")
            continue
        report = compare_bundles(closed, oracle)
        for tensor, comp in report.tensors.items():
            lines.append(f"{label},{tensor},{_fmt(comp.max_abs)},{_fmt(comp.max_rel)}")
        worst = max(worst, report.max_rel)
    lines.append(f"# skipped,{skipped},of,{args.samples}")
    lines.append(f"# worst_rel,{_fmt(worst)}")
    _emit(lines, args.out)
    if skipped > 0.1 * args.samples:
        return EXIT_SKIPS
    if unstable:
        print(
            f"numerical instability at {len(unstable)} of {args.samples} samples, "
            f"first: {unstable[0]}",
            file=sys.stderr,
        )
        return EXIT_TOLERANCE
    return EXIT_OK if worst <= args.tol else EXIT_TOLERANCE


def _trace(mf: Manifest, initial: GeodesicState, args, rhs: str):
    traj = integrate(
        mf.spec, initial, s_end=args.s_end, step=args.step, rhs=rhs, abort_drift=args.abort_drift
    )
    rows = []
    for st, norm in zip(traj.samples, traj.norm_history):
        vals = [st.s, *st.position.full, *st.velocity, norm]
        rows.append(",".join(_fmt(v) for v in vals))
    return traj, rows


def cmd_geodesic(mf: Manifest, args) -> int:
    if not (math.isfinite(args.s_end) and args.s_end >= 0.0):
        raise ManifestError(f"--s-end must be finite and >= 0, got {args.s_end!r}")
    if not (math.isfinite(args.step) and args.step > 0.0):
        raise ManifestError(f"--step must be finite and positive, got {args.step!r}")
    _tolerance("--drift-tol", args.drift_tol)
    _tolerance("--path-tol", args.path_tol)
    _tolerance("--abort-drift", args.abort_drift)
    if args.s_end / args.step > MAX_GEODESIC_STEPS:
        raise ManifestError(
            f"--s-end / --step asks for {args.s_end / args.step:.3g} steps, "
            f"more than {MAX_GEODESIC_STEPS}"
        )
    pos_text, sep, vel_text = args.init.partition(";")
    if not sep:
        raise ManifestError('--init must look like "pos0,pos1,...;vel0,vel1,..."')
    position = _parse_reals(pos_text, "--init position")
    velocity = _parse_reals(vel_text, "--init velocity")
    if len(position) != mf.dim or len(velocity) != mf.dim:
        raise ManifestError(f"--init needs {mf.dim} position and {mf.dim} velocity entries")
    m = mf.spec.base.dim
    initial = GeodesicState(0.0, ProductPoint.from_full(position, m), velocity)

    d = mf.dim
    header = ",".join(["s", *[f"x{i}" for i in range(d)], *[f"v{i}" for i in range(d)], "norm"])
    lines = [
        f"# warpcurv {__version__} geodesic manifest={mf.name} rhs={args.rhs} step={_fmt(args.step)}"
    ]
    choices = ["full", "split"] if args.rhs == "both" else [args.rhs]
    code = EXIT_OK
    trajectories = []
    for rhs in choices:
        traj, rows = _trace(mf, initial, args, rhs)
        trajectories.append(traj)
        lines.append(f"# rhs={rhs}")
        lines.append(header)
        lines.extend(rows)
        n0 = traj.norm_history[0]
        drift = float(np.abs(traj.norm_history - n0).max())
        lines.append(f"# norm_drift,{_fmt(drift)}")
        if drift > args.drift_tol * (1.0 + abs(n0)):
            code = EXIT_TOLERANCE
    if len(trajectories) == 2:
        dev = float(np.abs(trajectories[0].positions - trajectories[1].positions).max())
        lines.append(f"# max_coordinate_deviation,{_fmt(dev)}")
        if dev > args.path_tol:
            code = EXIT_TOLERANCE
    _emit(lines, args.out)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpcurv",
        description="Curvature and geodesics of doubly warped product metrics.",
    )
    parser.add_argument("--version", action="version", version=f"warpcurv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("manifest", help="path to a JSON manifest")
    shared.add_argument(
        "--convention",
        choices=sorted(CONVENTIONS),
        default=None,
        help="override the manifest's curvature sign convention",
    )
    shared.add_argument("--out", default=None, help="write output to this file instead of stdout")

    p = sub.add_parser("curvature", parents=[shared], help="evaluate curvature at one point")
    p.add_argument("--point", required=True, help="comma-separated coordinates, base block first")
    p.add_argument("--oracle", action="store_true", help="also run the FD oracle and compare")
    p.add_argument(
        "--check",
        type=float,
        default=None,
        metavar="TOL",
        help="exit 1 unless closed form and oracle agree within TOL (implies --oracle)",
    )

    p = sub.add_parser("verify", parents=[shared], help="closed form vs oracle over random points")
    p.add_argument("--samples", type=int, default=100, help="number of sample points")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed (default: WARPCURV_SEED environment variable, else 0)",
    )
    p.add_argument("--box", default=None, help="per-coordinate lo..hi spans, comma separated")
    p.add_argument("--tol", type=float, default=1e-5, help="max relative deviation allowed")

    p = sub.add_parser("geodesic", parents=[shared], help="integrate a geodesic and trace it")
    p.add_argument("--init", required=True, help='initial data "pos0,...;vel0,..."')
    p.add_argument("--s-end", type=float, required=True, dest="s_end")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--rhs", choices=["full", "split", "both"], default="full")
    p.add_argument("--drift-tol", type=float, default=1e-8, dest="drift_tol",
                   help="relative norm-drift budget for exit 0")
    p.add_argument("--path-tol", type=float, default=1e-8, dest="path_tol",
                   help="full/split coordinate agreement budget for exit 0 (rhs=both)")
    p.add_argument("--abort-drift", type=float, default=1e-3, dest="abort_drift",
                   help="relative norm-drift threshold that aborts integration")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Every number that is not finite ends in a WarpcurvError and one line
    # on stderr; numpy's overflow warnings on the way would only repeat it.
    with np.errstate(all="ignore"):
        return _run(args)


def _run(args) -> int:
    try:
        mf = load_manifest(args.manifest)
        if args.command == "curvature":
            return cmd_curvature(mf, args)
        if args.command == "verify":
            return cmd_verify(mf, args)
        return cmd_geodesic(mf, args)
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return EXIT_MANIFEST
    except DomainExitError as exc:
        print(f"domain exit: {exc} (last valid s={_fmt(exc.s)})", file=sys.stderr)
        return EXIT_DOMAIN
    except _DOMAIN_ERRORS as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except StepTooLargeError as exc:
        print(f"step too large: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except NumericalInstabilityError as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except WarpcurvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MANIFEST


if __name__ == "__main__":
    sys.exit(main())
