#!/usr/bin/env python3
"""Regenerate the supplement-style analyses into out/supplement/:

- noise-floor Monte Carlo: perfect single-photon source plus laser-leakage
  background at a 1:3400 count ratio, correlated and estimated HBT-style;
- blinking study: a bright stream with a 1 MHz intensity modulation,
  analyzed through the per-peak sums;
- lifetime round trip: synthetic cascade decays (158 ps / 294 ps, 40 ps IRF)
  fitted back.

BLAS runs on one thread unless the environment says otherwise.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from photonpurity import analysis  # noqa: E402
from photonpurity.cli import main  # noqa: E402

OUT = sys.argv[1] if len(sys.argv) > 1 else "out/supplement"
os.makedirs(OUT, exist_ok=True)

# noise floor: p_single 0.1 per pulse, background at signal:noise 3400:1
noise_cfg = os.path.join(OUT, "noise_floor.yaml")
with open(noise_cfg, "w") as fh:
    yaml.safe_dump({
        "stream": {"n_pulses": 10_000_000, "p_single": 0.1,
                   "noise_rate": 0.1 / (13.1e-9 * 3400)},
        "window": 13.1, "span": 30.0,
    }, fh)
if main(["hbt-sim", "--config", noise_cfg, "--out",
         os.path.join(OUT, "noise_floor"), "--seed", "41"]):
    sys.exit(1)

blink_cfg = os.path.join(OUT, "blinking.yaml")
with open(blink_cfg, "w") as fh:
    yaml.safe_dump({
        "stream": {"n_pulses": 2_000_000, "p_single": 0.35,
                   "blinking": {"frequencies": [1.0], "depth": 0.6}},
        "span": 6600.0,
    }, fh)
if main(["hbt-sim", "--config", blink_cfg, "--out",
         os.path.join(OUT, "blinking"), "--seed", "42"]):
    sys.exit(1)

# lifetime round trip
t = np.arange(0.0, 5.0, 0.005)
true = analysis.CascadeParams(gamma_2x=1 / 0.158, gamma_x=1 / 0.294,
                              irf_sigma=0.040, amplitude=1e4, offset=0.8)
rng = np.random.default_rng(7)
for which in ("exciton", "biexciton"):
    curve = analysis.cascade_model(t, true, which)
    data = os.path.join(OUT, f"decay_{which}.csv")
    analysis.write_decay_csv(data, t, rng.poisson(np.maximum(curve, 0.0)))
    if main(["fit-lifetime", "--data", data, "--which", which,
             "--out", os.path.join(OUT, f"fit_{which}")]):
        sys.exit(1)

print(f"supplement analyses written to {OUT}")
