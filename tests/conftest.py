from datetime import date, timedelta

import numpy as np
import pytest

from droughtcast.data import CountyTimeSeries, StaticFeatures


def series_fixture(fips="19001", days=600, channels=2, score_every=7,
                   start=date(2015, 1, 1), values=None, first_score_day=0):
    dates = [start + timedelta(days=d) for d in range(days)]
    if values is None:
        t = np.arange(days, dtype=float)
        values = np.stack([np.sin(t / 30 + c) + 0.01 * t for c in range(channels)], axis=1)
    scores = {
        dates[d]: float(np.clip(2.0 + np.sin(d / 50.0), 0, 5))
        for d in range(first_score_day, days, score_every)
    }
    return CountyTimeSeries(fips, dates, values, scores)


def statics_fixture(fips="19001", numeric=(100.0, 3.0), codes=(1, 2)):
    return StaticFeatures(fips, np.array(numeric, dtype=float), np.array(codes, dtype=np.int64))


def attend_reference(head, hidden):
    """Per-sample attention over ``(T, h)`` hidden states in plain numpy, the
    reference for ``layers.attend_batched``: linear scores from the head's
    score layer, a max-shifted softmax over the ``T`` scores, then
    ``alpha @ hidden``.  Returns ``(context (h,), weights (T,))``."""
    hidden = np.asarray(hidden, dtype=float)
    layer = head.score_layer
    scores = hidden @ layer.weight.data[0] + layer.bias.data[0]
    ex = np.exp(scores - scores.max())
    alpha = ex / ex.sum()
    return alpha @ hidden, alpha


def write_timeseries_csv(path, rows, channels=("chan0", "chan1")):
    """rows: list of (fips, iso_date, cell_values, score_text)."""
    lines = ["fips,date," + ",".join(channels) + ",score"]
    for fips, day, cells, score in rows:
        lines.append(f"{fips},{day}," + ",".join(str(c) for c in cells) + f",{score}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def tiny_csv_dataset(tmp_path):
    """Two counties, three days, two channels, every day scored."""
    rows = []
    for fips in ("19001", "30002"):
        for d in range(3):
            day = (date(2020, 1, 1) + timedelta(days=d)).isoformat()
            rows.append((fips, day, (float(d), float(d * 2)), "1.5" if d == 0 else ""))
    return write_timeseries_csv(tmp_path / "ts.csv", rows)
