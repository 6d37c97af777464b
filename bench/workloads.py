"""Seeded inputs, per-operation program calls and correctness checks.

Three workloads, each a closed loop driven by one caller:

- ``catalog-sweep``: verified points on the five shipped catalog manifests;
- ``dense-sweep``: verified points on seed-generated manifests with dense,
  non-diagonal factor metrics;
- ``geodesic-long``: long RK4 geodesics on the unit sphere, the
  Schwarzschild slice and Robertson-Walker, with both right-hand sides.

Everything the program receives (manifest JSON, points, initial states) is
made here from the seed.  The program is reached only through the ``api``
the runner passes to an operation's ``run``, so the traced run can run the
same operation through wrapped entry points without this module knowing.
A check never raises: it returns the reasons an operation
failed, and the runner counts them.
"""

from __future__ import annotations

import math
import time

import numpy as np

CATALOG = (
    "doubly-exp",
    "flat-product",
    "robertson-walker",
    "schwarzschild-exterior-slice",
    "unit-sphere",
)

# Acceptance criterion 1: closed form against the FD oracle, max relative
# deviation per tensor.
BOUNDS = {"christoffel": 1e-5, "riemann": 1e-5, "ricci": 1e-4, "scalar": 1e-4}

# Analytic scalar curvature of catalog entries.  The closed route is exact
# in the warps, so it is held to roundoff; the oracle carries FD error and
# is held to criterion 1's scalar bound.
ANCHOR_SCALAR = {
    "unit-sphere": 2.0,
    "robertson-walker": 12.0,  # f = e^t on -dt^2: de Sitter
    "schwarzschild-exterior-slice": 0.0,  # vacuum slice, no extrinsic curvature
}
ANCHOR_TOL_CLOSED = 1e-9
ANCHOR_TOL_ORACLE = 1e-4
FLAT_TOL = 1e-12  # flat product: every tensor vanishes on both routes

DRIFT_TOL = 1e-8  # |<v,v> - n0| <= DRIFT_TOL * (1 + |n0|) along a trajectory
SPLIT_TOL = 1e-8  # full and split RHS trajectories agree in position
CLOSURE_TOL = 1e-6  # a unit-speed great circle returns after s = 2 pi


def _uniform_in(box: np.ndarray, rng) -> np.ndarray:
    return box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(len(box))


class Entry:
    """One manifest as the program loaded it."""

    def __init__(self, label: str, manifest, plain):
        self.label = label
        self.manifest = manifest
        self.spec = manifest.spec
        self.plain = plain


def load_entries(wc, sources) -> list:
    """The timed part of set-up after the import: load or parse every
    manifest, then splice each into a plain chart."""
    entries = []
    for label, doc in sources:
        mf = wc.load_catalog(label) if doc is None else wc.parse_manifest(doc, source=label)
        entries.append(Entry(label, mf, wc.as_plain_metric(mf.spec)))
    return entries


# ---------------------------------------------------------------------------
# Sweeps: the `warpcurv verify` inner loop, one point per entry per round


def _verify_point(api, e: Entry, x: np.ndarray):
    mf = e.manifest
    pp = api.ProductPoint.from_full(x, e.spec.base.dim)
    closed = api.bundle_closed(e.spec, pp, mf.policy, convention=mf.convention)
    oracle = api.bundle_fd(e.plain, x, mf.policy, convention=mf.convention)
    return closed, oracle, api.compare_bundles(closed, oracle)


def _check_point(label: str, out) -> list:
    """Reasons one verified point failed; empty when it passed."""
    if isinstance(out, Exception):
        return [f"raise:{type(out).__name__}"]
    closed, oracle, report = out
    reasons = []
    for tensor, bound in BOUNDS.items():
        if not report.tensors[tensor].max_rel <= bound:
            reasons.append(f"criterion1:{tensor}")
    for name, bundle in (("closed", closed), ("oracle", oracle)):
        arrays = (bundle.christoffel, bundle.riemann, bundle.ricci, bundle.scalar)
        if not all(np.all(np.isfinite(a)) for a in arrays):
            reasons.append(f"nonfinite:{name}")
    anchor = ANCHOR_SCALAR.get(label)
    if anchor is not None:
        scale = max(1.0, abs(anchor))
        if not abs(closed.scalar - anchor) <= ANCHOR_TOL_CLOSED * scale:
            reasons.append("anchor:closed")
        if not abs(oracle.scalar - anchor) <= ANCHOR_TOL_ORACLE * scale:
            reasons.append("anchor:oracle")
    if label == "flat-product":
        for name, bundle in (("closed", closed), ("oracle", oracle)):
            worst = max(
                float(np.abs(bundle.christoffel).max()),
                float(np.abs(bundle.riemann).max()),
                float(np.abs(bundle.ricci).max()),
                abs(bundle.scalar),
            )
            if not worst <= FLAT_TOL:
                reasons.append(f"anchor:flat-{name}")
    return reasons


class SweepRound:
    """One seeded point on each entry, so every entry gets the same number
    of points however long the window is.  Timing a round, not a point,
    gives one latency sample per round: the entries' very different costs
    then do not split the samples into clusters whose boundary the median
    would straddle."""

    label = "round"

    def __init__(self, points: list):
        self.points = points  # [(entry, coordinates)]
        self.units = len(points)
        self.parts = {}  # seconds per entry label in the latest run

    def run(self, api):
        clock = time.perf_counter
        out = []
        for e, x in self.points:
            api.tag(e.label)
            t0 = clock()
            try:
                res = _verify_point(api, e, x)
            except Exception as exc:  # the round goes on; the check counts it
                res = exc
            self.parts[e.label] = clock() - t0
            out.append(res)
        return out

    def check(self, out):
        """(failed units, reasons): one unit per failed point."""
        if isinstance(out, Exception):
            return self.units, [f"raise:{type(out).__name__}"]
        reasons = [_check_point(e.label, res) for (e, _), res in zip(self.points, out)]
        return sum(1 for r in reasons if r), [x for r in reasons for x in r]


class Sweep:
    unit = "point"

    def __init__(self, name: str, sources):
        self.name = name
        self.sources = sources

    def ops(self, entries, api, seed: int):
        rng = np.random.default_rng(seed)
        boxes = [np.asarray(e.manifest.box, dtype=float) for e in entries]
        while True:
            yield SweepRound([(e, _uniform_in(box, rng)) for e, box in zip(entries, boxes)])


# Dense manifests: fixed shapes, seeded coefficients.  The shapes fix the
# work per point (expression sizes and stencil sizes), so seeds change the
# numbers but not the cost.  Three shapes keep the median point inside one
# shape's cluster of latencies.
DENSE_SHAPES = ((2, 2), (2, 3), (3, 3))


def _linear(rng, k: int) -> str:
    """c + a0*x0 +- a1*x1 ...; the constant leads and every coefficient is
    a magnitude, so the tree has the same shape for every seed."""
    text = f"{rng.uniform(0.0, 2.0 * math.pi):.6f}"
    for j in range(k):
        a = rng.uniform(-1.0, 1.0)
        text += f" {'-' if a < 0 else '+'} {abs(a):.6f}*x{j}"
    return text


def _dense_factor(rng, k: int, name: str) -> dict:
    """g_ij = delta_ij + eps * s_i(x) * s_j(x) with bounded trig s_i: its
    eigenvalues are 1 and 1 + eps*|s|^2, so it is positive definite."""
    s = [f"sin({_linear(rng, k)})" for _ in range(k)]
    eps = rng.uniform(0.2, 0.6)
    rows = []
    for i in range(k):
        row = []
        for j in range(i, k):
            term = f"{eps:.6f}*{s[i]}*{s[j]}"
            row.append(f"1 + {term}" if i == j else term)
        rows.append(row)
    return {"dim": k, "name": name, "metric": rows, "upper_triangular": True}


def _dense_warp(rng, k: int) -> str:
    """exp of a bounded sum: positive everywhere."""
    a, b = rng.uniform(0.1, 0.4, size=2)
    return f"exp({a:.6f}*sin({_linear(rng, k)}) + {b:.6f}*cos({_linear(rng, k)}))"


def dense_manifests(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    docs = []
    for m, n in DENSE_SHAPES:
        name = f"dense-{m}x{n}"
        docs.append(
            {
                "name": name,
                "base": _dense_factor(rng, m, "base"),
                "fiber": _dense_factor(rng, n, "fiber"),
                "warp_f": _dense_warp(rng, m),
                "warp_h": _dense_warp(rng, n),
                "convention": "paper",
                "box": [[-1.0, 1.0]] * (m + n),
            }
        )
    return docs



# ---------------------------------------------------------------------------
# Long geodesics


def _sphere_state(rng):
    """A unit-speed great circle inclined at most 0.7 rad to the equator,
    so it stays clear of the poles where sin(theta) vanishes; it runs
    prograde, so phi gains exactly 2 pi per period."""
    inc = rng.uniform(0.1, 0.7)
    node = rng.uniform(0.0, 2.0 * math.pi)
    u = rng.uniform(0.0, 2.0 * math.pi)
    ci, si, cn, sn = math.cos(inc), math.sin(inc), math.cos(node), math.sin(node)

    def rotate(x, y):
        y, z = y * ci, y * si
        return np.array([x * cn - y * sn, x * sn + y * cn, z])

    p = rotate(math.cos(u), math.sin(u))
    t = rotate(-math.sin(u), math.cos(u))
    theta = math.acos(p[2])
    phi = math.atan2(p[1], p[0]) % (2.0 * math.pi)
    st = math.sin(theta)
    return [theta, phi], [-t[2] / st, (p[0] * t[1] - p[1] * t[0]) / st**2]


def _schwarzschild_state(rng):
    """Unit speed, mostly tangential, near the equator at r in [5, 7]: the
    orbit turns well outside r = 2 and keeps theta inside (1.0, 2.1)."""
    r = rng.uniform(5.0, 7.0)
    theta = rng.uniform(1.3, 1.8)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    a = rng.uniform(-0.3, 0.3)
    b = rng.uniform(-0.2, 0.2)
    c = math.sqrt(1.0 - a * a - b * b)
    vel = [a * math.sqrt(1.0 - 2.0 / r), b / r, c / (r * math.sin(theta))]
    return [r, theta, phi], vel


def _robertson_walker_state(rng):
    """Unit timelike velocity (norm -1) with proper spatial speed in
    [0.2, 0.8]."""
    t = rng.uniform(-0.5, 0.5)
    x = rng.uniform(-1.0, 1.0, size=3)
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    w = rng.uniform(0.2, 0.8)
    return [t, *x], [math.sqrt(1.0 + w * w), *(w * math.exp(-t) * u)]


# (manifest, initial-state generator, steps per trajectory, step size)
GEODESIC_FANS = (
    ("unit-sphere", _sphere_state, 1500, 2.0 * math.pi / 1500),
    ("schwarzschild-exterior-slice", _schwarzschild_state, 2000, 3e-3),
    ("robertson-walker", _robertson_walker_state, 2000, 1e-3),
)
CHUNK = 10  # RK4 steps per integrate call; one round advances every trajectory by this


class _Pair:
    """One initial state integrated side by side with both right-hand sides."""

    def __init__(self, api, entry: Entry, pos, vel, steps: int, step: float):
        m = entry.spec.base.dim
        state = api.GeodesicState(0.0, api.ProductPoint.from_full(np.asarray(pos), m), np.asarray(vel))
        self.entry = entry
        self.start = np.asarray(pos, dtype=float)
        self.full = state
        self.split = state
        self.steps = steps
        self.step = step
        self.done = 0
        self.n0 = None


class RoundOp:
    """Advance every active trajectory by CHUNK steps with each RHS."""

    label = "round"

    def __init__(self, fans: "_Fans", pairs: list):
        self.fans = fans
        self.pairs = pairs
        self.units = 2 * CHUNK * len(pairs)
        self.parts = {}  # seconds per RHS in the latest run

    def run(self, api):
        clock = time.perf_counter
        self.parts = {"full": 0.0, "split": 0.0}
        out = []
        for pair in self.pairs:
            s_end = pair.full.s + CHUNK * pair.step
            api.tag(pair.entry.label)
            res = []
            for rhs, state in (("full", pair.full), ("split", pair.split)):
                t0 = clock()
                try:
                    traj = api.integrate(pair.entry.spec, state, s_end, pair.step, rhs=rhs)
                except api.WarpcurvError as exc:
                    traj = exc
                self.parts[rhs] += clock() - t0
                res.append(traj)
            out.append(res)
        return out

    def check(self, out):
        """(failed units, reasons); also moves every trajectory on, and
        replaces one that finished or failed by the next state of its fan."""
        if isinstance(out, Exception):
            return self.units, [f"raise:{type(out).__name__}"]
        failed, reasons = 0, []
        for i, (pair, (tf, ts)) in enumerate(zip(self.pairs, out)):
            why = _check_pair(pair, tf, ts)
            if why:
                failed += 2 * CHUNK
                reasons.extend(why)
            if why or pair.done >= pair.steps:
                self.pairs[i] = self.fans.next_pair(pair.entry)
        return failed, reasons


def _check_pair(pair: _Pair, tf, ts) -> list:
    bad = [f"raise:{type(t).__name__}" for t in (tf, ts) if isinstance(t, Exception)]
    if bad:
        return bad
    if pair.n0 is None:
        pair.n0 = float(tf.norm_history[0])
    limit = DRIFT_TOL * (1.0 + abs(pair.n0))
    why = []
    for rhs, traj in (("full", tf), ("split", ts)):
        if not float(np.abs(traj.norm_history - pair.n0).max()) <= limit:
            why.append(f"drift:{rhs}")
    if not float(np.abs(tf.positions - ts.positions).max()) <= SPLIT_TOL:
        why.append("split-vs-full")
    pair.full, pair.split = tf.endpoint, ts.endpoint
    pair.done += CHUNK
    if pair.done >= pair.steps and pair.entry.label == "unit-sphere":
        want = pair.start + np.array([0.0, 2.0 * math.pi])
        for rhs, state in (("full", pair.full), ("split", pair.split)):
            if not float(np.abs(state.position.full - want).max()) <= CLOSURE_TOL:
                why.append(f"closure:{rhs}")
    return why


class _Fans:
    """The seeded stream of initial states of each manifest."""

    def __init__(self, entries, api, seed: int):
        self.api = api
        self.fans = {
            e.label: (make, steps, step, np.random.default_rng([seed, k]))
            for k, (e, (_, make, steps, step)) in enumerate(zip(entries, GEODESIC_FANS))
        }

    def next_pair(self, entry: Entry) -> _Pair:
        make, steps, step, rng = self.fans[entry.label]
        pos, vel = make(rng)
        return _Pair(self.api, entry, pos, vel, steps, step)


class Geodesics:
    """Round-robin over one active trajectory per manifest, CHUNK steps at
    a time, so the mix of manifests and RHS is fixed however long the
    window is.  A trajectory that completes or fails is replaced by the
    next seeded state of its manifest's fan."""

    name = "geodesic-long"
    unit = "step"
    sources = [(name, None) for name, *_ in GEODESIC_FANS]

    def ops(self, entries, api, seed: int):
        fans = _Fans(entries, api, seed)
        pairs = [fans.next_pair(e) for e in entries]
        while True:
            yield RoundOp(fans, pairs)


WORKLOADS = ("catalog-sweep", "dense-sweep", "geodesic-long")


def make(name: str, seed: int):
    if name == "catalog-sweep":
        return Sweep(name, [(c, None) for c in CATALOG])
    if name == "dense-sweep":
        return Sweep(name, [(d["name"], d) for d in dense_manifests(seed)])
    if name == "geodesic-long":
        return Geodesics()
    raise ValueError(f"unknown workload {name!r}")
