"""Synthetic county dataset generator for desk-scale experiments and tests.

Produces time-series and statics CSVs in the ingestion schema.  The weekly
drought score is a smoothed, clipped function of the first measurement
channel plus a county offset, so models with access to the window (or to
the statics) have real signal to learn.
"""

from __future__ import annotations

from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .autodiff import RngState
from .data import write_file

SOIL_LABELS = ["low", "medium", "high"]
TEXTURE_LABELS = ["clay", "loam", "sand", "silt"]


def make_dataset(out_dir, n_counties: int = 6, days: int = 760, channels: int = 3,
                 seed: int = 0, states: tuple[str, ...] = ("19", "30", "40"),
                 start: date = date(2015, 1, 1)) -> tuple[Path, Path]:
    """Write ``timeseries.csv`` and ``statics.csv`` under ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = RngState(seed)

    fips_codes = [f"{states[i % len(states)]}{i + 1:03d}" for i in range(n_counties)]
    t = np.arange(days)

    ts_lines = ["fips,date," + ",".join(f"chan{c}" for c in range(channels)) + ",score"]
    for ci, fips in enumerate(fips_codes):
        county_rng = rng.split(f"county:{fips}")
        offset = county_rng.uniform(-1.0, 1.0)
        phase = county_rng.uniform(0, 2 * np.pi)
        base = np.sin(2 * np.pi * t / 365.0 + phase)
        chans = np.empty((days, channels))
        for c in range(channels):
            noise = county_rng.normal(0.0, 0.15, days)
            chans[:, c] = base * (0.5 + 0.5 * c / max(channels - 1, 1)) + noise + 0.3 * offset

        # score tracks a 30-day average of channel 0, shifted into [0, 5]
        kernel = np.ones(30) / 30.0
        smooth = np.convolve(chans[:, 0], kernel, mode="same")
        score = np.clip(2.5 - 2.0 * smooth + offset, 0.0, 5.0)

        for d in range(days):
            day = start + timedelta(days=d)
            cells = ",".join(f"{chans[d, c]:.6f}" for c in range(channels))
            score_cell = f"{score[d]:.3f}" if d % 7 == 0 else ""
            ts_lines.append(f"{fips},{day.isoformat()},{cells},{score_cell}")
    ts_path = out_dir / "timeseries.csv"
    write_file(ts_path, ["\n".join(ts_lines) + "\n"])

    static_lines = ["fips,elevation,slope,soil_quality,texture"]
    for fips in fips_codes:
        county_rng = rng.split(f"static:{fips}")
        elevation = county_rng.uniform(50, 2000)
        slope = county_rng.uniform(0, 15)
        soil = SOIL_LABELS[int(county_rng.integers(0, len(SOIL_LABELS), ()))]
        texture = TEXTURE_LABELS[int(county_rng.integers(0, len(TEXTURE_LABELS), ()))]
        static_lines.append(f"{fips},{elevation:.2f},{slope:.3f},{soil},{texture}")
    statics_path = out_dir / "statics.csv"
    write_file(statics_path, ["\n".join(static_lines) + "\n"])

    return ts_path, statics_path
