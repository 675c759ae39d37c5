"""Set-up probe, run in a fresh interpreter with ``src`` on the path.

Usage: python3 perfbench/probe.py SHAPES_JSON

Times ``import cutloc`` plus ``from_spec`` on every shape of a workload,
then prints one JSON object: that time, each shape's bounding-box
diagonal (which scales the cut tolerance) and the software it ran on.
"""

import importlib.metadata
import importlib.util
import json
import platform
import sys
import time


def main(argv):
    shapes = json.loads(argv[1])
    t0 = time.perf_counter()
    import cutloc
    curves = [cutloc.from_spec(s) for s in shapes]
    setup_s = time.perf_counter() - t0

    import numpy
    from cutloc import _kernels
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    print(json.dumps({
        "setup_s": setup_s,
        "extents": [c.extent for c in curves],
        "software": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy_version,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "kernel_backend": _kernels.backend(),
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
