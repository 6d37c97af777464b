"""JSON manifest loading for doubly warped product specifications.

A manifest is a UTF-8 JSON object:

    {
      "name": "unit-sphere",
      "base":  {"dim": 1, "metric": [["1"]], "name": "polar"},
      "fiber": {"dim": 1, "metric": [["1"]], "name": "azimuth"},
      "warp_f": "sin(x0)",
      "warp_h": "1",
      "convention": "paper",
      "box": [[0.3, 2.8], [0.0, 6.28]],
      "diff_policy": {"base_step": 1e-4, "richardson_levels": 2,
                      "relative_scaling": true}
    }

Each factor's metric grid uses that factor's own 0-based coordinates
(x0..x{dim-1}); warp_f reads base coordinates, warp_h fiber coordinates.
The grid must either be a full dim x dim array that is symmetric as text,
or carry "upper_triangular": true and list only rows of the upper triangle
(row i holding entries for columns i..dim-1).

"box" is optional: per-coordinate [lo, hi] sampling bounds over the full
m+n coordinates, used as the default region for verification sweeps.
"convention" and "diff_policy" are optional with defaults "paper" and the
DiffPolicy defaults; the policy tunes only the oracle's finite
differencing.  Validation failures raise ManifestError naming the
offending JSON path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .bundle import CONVENTIONS
from .errors import ManifestError, ParseError
from .geometry import MetricSpec
from .oracle import DiffPolicy
from .warped import WarpedProductSpec

__all__ = [
    "Manifest",
    "parse_manifest",
    "load_manifest",
    "catalog_names",
    "load_catalog",
]


@dataclass(frozen=True)
class Manifest:
    name: str
    spec: WarpedProductSpec
    convention: str
    policy: DiffPolicy
    box: np.ndarray  # (m+n, 2) sampling bounds, or None

    @property
    def dim(self) -> int:
        return self.spec.dim


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ManifestError(f"{path}: {message}")


def _get(obj: dict, key: str, path: str, required: bool = True, default=None):
    if key not in obj:
        _require(not required, f"{path}.{key}", "missing required field")
        return default
    return obj[key]


def _expand_upper_triangular(rows, dim: int, path: str):
    _require(len(rows) == dim, path, f"expected {dim} rows, got {len(rows)}")
    grid = [[None] * dim for _ in range(dim)]
    for i, row in enumerate(rows):
        want = dim - i
        _require(
            isinstance(row, list) and len(row) == want,
            f"{path}[{i}]",
            f"upper-triangular row {i} must list {want} entries",
        )
        for off, entry in enumerate(row):
            j = i + off
            grid[i][j] = entry
            grid[j][i] = entry
    return grid


def _factor_spec(obj, path: str) -> MetricSpec:
    _require(isinstance(obj, dict), path, "factor must be a JSON object")
    dim = _get(obj, "dim", path)
    _require(isinstance(dim, int) and dim >= 1, f"{path}.dim", "dim must be an integer >= 1")
    metric = _get(obj, "metric", path)
    _require(isinstance(metric, list), f"{path}.metric", "metric must be a grid of strings")
    name = obj.get("name", "")
    _require(isinstance(name, str), f"{path}.name", "name must be a string")
    upper = obj.get("upper_triangular", False)
    _require(isinstance(upper, bool), f"{path}.upper_triangular", "must be a boolean")
    if upper:
        metric = _expand_upper_triangular(metric, dim, f"{path}.metric")
    else:
        _require(len(metric) == dim, f"{path}.metric", f"expected {dim} rows, got {len(metric)}")
        for i, row in enumerate(metric):
            _require(
                isinstance(row, list) and len(row) == dim,
                f"{path}.metric[{i}]",
                f"expected {dim} entries",
            )
    for i, row in enumerate(metric):
        for j, entry in enumerate(row):
            _require(
                isinstance(entry, str),
                f"{path}.metric[{i}][{j}]",
                "metric entries must be expression strings",
            )
    try:
        return MetricSpec.from_strings(dim, metric, name=name)
    except ParseError as exc:
        raise ManifestError(f"{path}.metric: {exc}") from exc
    except ValueError as exc:
        raise ManifestError(f"{path}.metric: {exc}") from exc


def _warp_text(obj, key: str) -> str:
    text = _get(obj, key, "$")
    _require(isinstance(text, str), f"$.{key}", "warp must be an expression string")
    return text


def _diff_policy(obj, path: str) -> DiffPolicy:
    if obj is None:
        return DiffPolicy()
    _require(isinstance(obj, dict), path, "diff_policy must be a JSON object")
    known = {"base_step", "richardson_levels", "relative_scaling"}
    for key in obj:
        _require(key in known, f"{path}.{key}", f"unknown field (expected one of {sorted(known)})")
    kwargs = {}
    if "base_step" in obj:
        _require(
            isinstance(obj["base_step"], (int, float)) and obj["base_step"] > 0,
            f"{path}.base_step",
            "must be a positive number",
        )
        kwargs["base_step"] = float(obj["base_step"])
    if "richardson_levels" in obj:
        _require(
            isinstance(obj["richardson_levels"], int),
            f"{path}.richardson_levels",
            "must be an integer",
        )
        kwargs["richardson_levels"] = obj["richardson_levels"]
    if "relative_scaling" in obj:
        _require(
            isinstance(obj["relative_scaling"], bool),
            f"{path}.relative_scaling",
            "must be a boolean",
        )
        kwargs["relative_scaling"] = obj["relative_scaling"]
    try:
        return DiffPolicy(**kwargs)
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from exc


def _box(obj, dim: int, path: str):
    if obj is None:
        return None
    _require(isinstance(obj, list) and len(obj) == dim, path, f"box must list {dim} [lo, hi] pairs")
    out = np.empty((dim, 2))
    for i, pair in enumerate(obj):
        _require(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(v, (int, float)) for v in pair),
            f"{path}[{i}]",
            "each box entry must be [lo, hi] numbers",
        )
        lo, hi = float(pair[0]), float(pair[1])
        _require(lo < hi, f"{path}[{i}]", f"needs lo < hi, got [{lo}, {hi}]")
        _require(math.isfinite(hi - lo), f"{path}[{i}]", f"needs a finite width, got [{lo}, {hi}]")
        out[i] = (lo, hi)
    return out


def parse_manifest(data, source: str = "<manifest>") -> Manifest:
    """Validate a decoded JSON object and build the product spec."""
    _require(isinstance(data, dict), "$", "manifest must be a JSON object")
    known = {"name", "base", "fiber", "warp_f", "warp_h", "convention", "box", "diff_policy"}
    for key in data:
        _require(key in known, f"$.{key}", f"unknown field (expected one of {sorted(known)})")
    name = data.get("name", "")
    _require(isinstance(name, str), "$.name", "name must be a string")
    base = _factor_spec(_get(data, "base", "$"), "$.base")
    fiber = _factor_spec(_get(data, "fiber", "$"), "$.fiber")
    convention = data.get("convention", "paper")
    _require(
        convention in CONVENTIONS,
        "$.convention",
        f"must be one of {sorted(CONVENTIONS)}, got {convention!r}",
    )
    try:
        spec = WarpedProductSpec.build(
            base, fiber, _warp_text(data, "warp_f"), _warp_text(data, "warp_h"), name=name
        )
    except ParseError as exc:
        raise ManifestError(f"$.warp: {exc}") from exc
    policy = _diff_policy(data.get("diff_policy"), "$.diff_policy")
    box = _box(data.get("box"), spec.dim, "$.box")
    return Manifest(name or source, spec, convention, policy, box)


def load_manifest(path) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path} is not valid JSON: {exc}") from exc
    return parse_manifest(data, source=str(path))


def catalog_names() -> list:
    """Names of the built-in manifests, without the .json suffix."""
    names = []
    for entry in resources.files("warpcurv.catalog").iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[: -len(".json")])
    return sorted(names)


def load_catalog(name: str) -> Manifest:
    entry = resources.files("warpcurv.catalog").joinpath(f"{name}.json")
    if not entry.is_file():
        raise ManifestError(
            f"no catalog manifest named {name!r}; available: {', '.join(catalog_names())}"
        )
    data = json.loads(entry.read_text(encoding="utf-8"))
    return parse_manifest(data, source=f"catalog:{name}")
