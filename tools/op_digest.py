"""Print one sha256 digest per benchmark operation, to show that a change
leaves every solve's output bit-identical.

    python3 tools/op_digest.py > digests.txt

Run it from the root of a source checkout: the package is imported from
``src/`` and the operations from ``bench/workloads.py`` (read only, never
modified), the warm-up sizes first, then the full ones. BLAS is pinned to
one thread, since iteration counts depend on the thread count. Each line
is ``<workload> <size> <operation> <sha256>``; run it on two checkouts and
``diff`` the outputs.

The digest covers what a solve returns: x, the multipliers, the status,
the KKT report, the trace, the diagnostics, the penalties and
``grad_evals`` of every ``SolveResult`` in the operation's output, plus
any other array there (the phase-I point). Floats are hashed bit for bit.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bp-dense", "qp-suite", "qps-ineq")


def feed(h, obj) -> None:
    """Hash ``obj`` into ``h``, tagging each value with its kind."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        h.update(f"A{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.generic):
        feed(h, obj.item())
    elif isinstance(obj, enum.Enum):
        h.update(b"E")
        feed(h, obj.value)
    elif isinstance(obj, bool) or obj is None:
        h.update(f"{obj!r};".encode())
    elif isinstance(obj, int):
        h.update(f"I{obj};".encode())
    elif isinstance(obj, float):
        h.update(f"F{obj.hex()};".encode())
    elif isinstance(obj, str):
        h.update(f"S{len(obj)}:{obj}".encode())
    elif isinstance(obj, (list, tuple)):
        h.update(f"L{len(obj)}".encode())
        for item in obj:
            feed(h, item)
    elif dataclasses.is_dataclass(obj):
        h.update(f"D{type(obj).__name__}".encode())
        for f in dataclasses.fields(obj):
            h.update(f"{f.name}=".encode())
            feed(h, getattr(obj, f.name))
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(out) -> str:
    h = hashlib.sha256()
    feed(h, out)
    return h.hexdigest()


def main() -> int:
    # Before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import pbalm
    import workloads

    if Path(pbalm.__file__).resolve().parent != ROOT / "src" / "pbalm":
        print(f"error: imported pbalm from {pbalm.__file__}", file=sys.stderr)
        return 2
    for name in WORKLOADS:
        for size, small in (("small", True), ("full", False)):
            for op in workloads.make(name, small=small).setup():
                try:
                    out, _ = op.solve()
                    line = digest(out)
                except Exception as exc:  # recorded, so a diff shows it
                    line = f"raised {type(exc).__name__}: {exc}"
                print(f"{name} {size} {op.name} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
