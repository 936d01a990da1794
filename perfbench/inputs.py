"""Seeded synthetic inputs for the benchmark, in droughtcast's CSV schema.

The benchmark writes its own inputs instead of calling the library's
generator, so that a change to the library cannot change what is measured.
Every county spans the same calendar and carries a score every seventh day,
so the number of samples ingest must build and drop follows from the shape
alone (see ``expected_counts``); the seed only moves values.
"""

from __future__ import annotations

from datetime import date, timedelta
from pathlib import Path

import numpy as np

STATES = ("19", "30", "40")
SOIL_LABELS = ("low", "medium", "high")
TEXTURE_LABELS = ("clay", "loam", "sand", "silt")
START = date(2015, 1, 1)
SCORE_EVERY_DAYS = 7
YEAR_SHIFT_DAYS = 365
TARGET_WEEKS = 6


def fips_codes(counties: int) -> list[str]:
    return [f"{STATES[i % len(STATES)]}{i + 1:03d}" for i in range(counties)]


def _spread_labels(labels: tuple[str, ...], n: int, rng: np.random.Generator) -> list[str]:
    """Every label appears once n >= len(labels), so vocab sizes do not depend on the seed."""
    cycled = [labels[i % len(labels)] for i in range(n)]
    return [cycled[i] for i in rng.permutation(n)]


def write_dataset(out_dir: Path, counties: int, days: int, channels: int,
                  seed: int) -> tuple[Path, Path]:
    """Write ``timeseries.csv`` and ``statics.csv``; returns both paths.

    The score tracks a 30-day mean of channel 0 plus a county offset.  The
    offsets are spread evenly over [-1, 1] and the seasonal phases evenly
    over the year; the seed decides which county gets which, so every seed
    yields a dataset of similar difficulty.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    codes = fips_codes(counties)
    offsets = np.linspace(-1.0, 1.0, counties)[rng.permutation(counties)]
    phases = (rng.uniform(0.0, 2.0 * np.pi)
              + 2.0 * np.pi * np.arange(counties) / counties)[rng.permutation(counties)]
    dates = [(START + timedelta(days=d)).isoformat() for d in range(days)]
    t = np.arange(days)
    kernel = np.ones(30) / 30.0
    gains = 0.5 + 0.5 * np.arange(channels) / max(channels - 1, 1)
    cell = ",".join(["{:.6f}"] * channels)

    lines = ["fips,date," + ",".join(f"chan{c}" for c in range(channels)) + ",score"]
    for fips, offset, phase in zip(codes, offsets, phases):
        base = np.sin(2.0 * np.pi * t / 365.0 + phase)
        chans = (base[:, None] * gains[None, :]
                 + rng.normal(0.0, 0.15, (days, channels)) + 0.3 * offset)
        smooth = np.convolve(chans[:, 0], kernel, mode="same")
        score = np.clip(2.5 - 2.0 * smooth + offset, 0.0, 5.0)
        for d in range(days):
            score_cell = f"{score[d]:.3f}" if d % SCORE_EVERY_DAYS == 0 else ""
            lines.append(f"{fips},{dates[d]},{cell.format(*chans[d])},{score_cell}")
    ts_path = out_dir / "timeseries.csv"
    ts_path.write_text("\n".join(lines) + "\n")

    soils = _spread_labels(SOIL_LABELS, counties, rng)
    textures = _spread_labels(TEXTURE_LABELS, counties, rng)
    static_lines = ["fips,elevation,slope,soil_quality,texture"]
    for i, fips in enumerate(codes):
        elevation = rng.uniform(50.0, 2000.0)
        slope = rng.uniform(0.0, 15.0)
        static_lines.append(f"{fips},{elevation:.2f},{slope:.3f},{soils[i]},{textures[i]}")
    statics_path = out_dir / "statics.csv"
    statics_path.write_text("\n".join(static_lines) + "\n")
    return ts_path, statics_path


def vocab_sizes(counties: int) -> list[int]:
    """Vocabulary sizes ingest fits (labels seen plus the reserved code 0)."""
    return [min(counties, len(SOIL_LABELS)) + 1, min(counties, len(TEXTURE_LABELS)) + 1]


def expected_counts(counties: int, days: int, window_days: int) -> dict[str, int]:
    """Samples ingest builds and drops for ``write_dataset`` output, by the
    README's rule: an anchor needs ``window_days`` plus one year of history
    and six score dates starting at itself (``target_phase = anchor``)."""
    scored = list(range(0, days, SCORE_EVERY_DAYS))
    no_future = min(TARGET_WEEKS - 1, len(scored))
    candidates = scored[:len(scored) - no_future]
    no_history = sum(1 for d in candidates if d < window_days + YEAR_SHIFT_DAYS)
    built = len(candidates) - no_history
    return {
        "built": counties * built,
        "dropped_history": counties * no_history,
        "dropped_future": counties * no_future,
    }


def expected_split(built: int, val_fraction: float, test_fraction: float) -> dict[str, int]:
    """Sizes of the seeded random holdout split of ``built`` samples."""
    n_val = int(round(built * val_fraction))
    n_test = int(round(built * test_fraction))
    return {"train": built - n_val - n_test, "val": n_val, "test": n_test}
