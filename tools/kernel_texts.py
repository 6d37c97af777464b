#!/usr/bin/env python3
"""The count and one SHA-256 of every kernel text a checkout builds.

    python3 tools/kernel_texts.py ROOT

ROOT is the root of a warpcurv checkout; its src/ is imported and its
bench/workloads.py loaded read-only, for dense_manifests.  On each catalog
entry, the two valid test fixtures (tests/fixtures/doubly-exp-2x2.json and
shifted-warp.json) and every manifest of dense_manifests(1), at the centre
of its box, the script runs one bundle_closed, one bundle_fd on the plain
chart and a two-step integrate per route.  Every text handed to
kernel._code on the way (program, step and stencil kernels alike, in the
order they are built) is counted and hashed.  Two checkouts that print the
same line run the same generated code on these calls.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

FIXTURES = ("doubly-exp-2x2", "shifted-warp")
STEP = 0.01


def main(root: Path) -> str:
    sys.path.insert(0, str(root / "src"))
    import warpcurv
    from warpcurv import kernel
    from warpcurv.manifest import catalog_names, load_catalog, load_manifest, parse_manifest

    spec = importlib.util.spec_from_file_location("bench_workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    texts = []
    code = kernel._code

    def spy(text):
        texts.append(text)
        return code(text)

    kernel._code = spy
    manifests = [load_catalog(name) for name in catalog_names()]
    manifests += [load_manifest(root / "tests" / "fixtures" / f"{name}.json") for name in FIXTURES]
    manifests += [parse_manifest(doc, source=doc["name"]) for doc in workloads.dense_manifests(1)]
    for mf in manifests:
        centre = np.asarray(mf.box, dtype=float).mean(axis=1)
        point = warpcurv.ProductPoint.from_full(centre, mf.spec.base.dim)
        state = warpcurv.GeodesicState(0.0, point, np.linspace(0.3, 0.7, mf.dim))
        calls = [lambda: warpcurv.bundle_closed(mf.spec, point),
                 lambda: warpcurv.bundle_fd(warpcurv.as_plain_metric(mf.spec), centre)]
        calls += [lambda rhs=rhs: warpcurv.integrate(mf.spec, state, 2 * STEP, STEP, rhs=rhs)
                  for rhs in ("full", "split")]
        for call in calls:
            try:
                call()
            except warpcurv.WarpcurvError:
                pass
    digest = hashlib.sha256("\0".join(texts).encode()).hexdigest()
    return f"{len(texts)} texts sha256 {digest}"


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    print(main(Path(sys.argv[1]).resolve()))
