#!/usr/bin/env python3
"""Regenerate all theory-figure datasets (correlation map, spectra, both
two-level sweeps and the four-level exciton-line sweep) into out/theory/.
Each command's wall time goes to standard error.  BLAS runs on one thread
unless the environment says otherwise: the batches are small, and extra
threads only contend for the cores."""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads

from photonpurity.cli import main  # noqa: E402

OUT = sys.argv[1] if len(sys.argv) > 1 else "out/theory"

for cmd in ("g2map", "spectrum", "sweep-pulse", "sweep-filter", "sweep-fourlevel"):
    start = time.perf_counter()
    code = main([cmd, "--out", OUT])
    print(f"{cmd}: {time.perf_counter() - start:.2f} s", file=sys.stderr)
    if code != 0:
        sys.exit(code)
print(f"theory datasets written to {OUT}")
