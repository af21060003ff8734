"""Fixed reference work that gauges how fast the host runs at the moment.

On a shared host the same command can take 75% longer for tens of seconds
at a time, in CPU time as well as wall time. The reference work resembles
chancert's own mix: many validations and decompositions of 9x9 complex
matrices, reshapes, partial traces and JSON. Its matrices are too small for
OpenBLAS to start its worker threads; work that woke them would leave them
spinning into the next command and inflate that command's CPU time. It
never calls chancert, so no change to chancert changes it. The benchmark
runs it between commands and scales each command's time by
``REFERENCE_S / (reference seconds around it)``.

The numpy routines are bound when this module is imported, before any
tracer wraps ``numpy.linalg``.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Time metrics read as on a host where one reference run takes this long;
# it is close to the quiet-host median on the 2-core machine the benchmark
# was built on.
REFERENCE_S = 0.003

_eigvalsh = np.linalg.eigvalsh
_svd = np.linalg.svd


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        self.matrix = g @ g.conj().T
        self.sink = 0.0

    def seconds(self) -> float:
        """Wall seconds one run of the reference work takes now."""
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(50):
            a = np.asarray(self.matrix, dtype=complex)
            if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
                raise ValueError("reference matrix is not finite")
            acc += float(_eigvalsh((a + a.conj().T) / 2.0)[0])
            acc += float(_svd(a, compute_uv=False)[0])
            pt = a.reshape(3, 3, 3, 3).transpose(2, 1, 0, 3).reshape(9, 9)
            acc += float(np.trace(pt.reshape(3, 3, 3, 3), axis1=0, axis2=2)[0, 0].real)
            acc += len(json.dumps({"re": a.real[0].tolist(), "acc": acc}))
        elapsed = time.perf_counter() - t0
        self.sink += acc  # keeps the work observable
        return elapsed
