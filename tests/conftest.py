import contextlib
import csv
import os
import struct
import threading
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from droughtcast.autodiff import Tensor
from droughtcast.data import DailySeries, Normalizer, SampleSet, StaticTable
from droughtcast.introspection import TsneDescent, kl_divergence
from droughtcast.layers import (
    PROJECT_STEPS,
    AffineLayer,
    AttentionHead,
    EmbeddingTable,
    LstmBackward,
    LstmForward,
    LstmLayer,
    LstmStack,
    Mlp,
    _Graph,
)


def series_fixture(fips="19001", days=600, channels=2, score_every=7,
                   start=date(2015, 1, 1), values=None, first_score_day=0):
    """One county's ``days`` daily rows from ``start``, scored every
    ``score_every`` days from ``first_score_day``."""
    if values is None:
        t = np.arange(days, dtype=float)
        values = np.stack([np.sin(t / 30 + c) + 0.01 * t for c in range(channels)], axis=1)
    scores = np.full(days, np.nan)
    for d in range(first_score_day, days, score_every):
        scores[d] = float(np.clip(2.0 + np.sin(d / 50.0), 0, 5))
    return DailySeries([f"chan{c}" for c in range(values.shape[1])], np.array([fips]),
                       np.array([start], dtype="datetime64[D]"), np.array([0, days]),
                       values, scores)


def window_set(x, s_n, s_d, y, fips, anchor):
    """The ``SampleSet`` whose windows are the ``(N, T, 2M)`` array ``x``:
    its day table stacks every sample's current-year half, then every
    year-earlier half, so sample i's windows start at rows ``i * T`` and
    ``(N + i) * T``."""
    n, steps, width = x.shape
    assert width % 2 == 0, "a window row holds two halves of M channels"
    halves = [x[:, :, :width // 2], x[:, :, width // 2:]]
    days = np.concatenate([half.reshape(n * steps, width // 2) for half in halves])
    start = np.arange(n)[:, None] * steps + np.array([0, n * steps])
    return SampleSet(np.asarray(days, np.float64), steps, start, s_n, s_d, y, fips, anchor)


def with_windows(samples, x):
    """``samples`` with its windows replaced by ``x``."""
    return window_set(x, samples.s_n, samples.s_d, samples.y, samples.fips, samples.anchor)


def scored_days(series):
    """Row index of every score-bearing day of a series."""
    return np.flatnonzero(~np.isnan(series.scores))


def statics_fixture(fips="19001", numeric=(100.0, 3.0), codes=(1, 2)):
    return StaticTable(np.array([fips]), [f"static{i}" for i in range(len(numeric))],
                       np.array([numeric], dtype=float), np.array([codes], dtype=np.int64))


class Packed:
    """Named tensors packed into one parameter vector and one gradient
    vector, each tensor's ``data`` and ``grad`` becoming views of its
    slices, as in ``HybridModel``: a stand-in model for ``adamw_step``."""

    def __init__(self, tensors):
        self.tensors = tensors
        self.params = np.concatenate([t.data.ravel() for t in tensors.values()])
        self.grads, start = np.zeros(self.params.size), 0
        for t in tensors.values():
            shape, stop = t.data.shape, start + t.data.size
            t.data = self.params[start:stop].reshape(shape)
            t.grad = self.grads[start:stop].reshape(shape)
            start = stop

    def named_parameters(self):
        return self.tensors


def edit_header(blob: bytes, edit) -> bytes:
    """A checkpoint whose config text is passed through ``edit``: the magic
    and a pad byte, the uint64 text length, the text zero-padded to 8 bytes,
    then the parameters."""
    (length,) = struct.unpack_from("<Q", blob, 8)
    header = edit(blob[16:16 + length])
    return (blob[:8] + struct.pack("<Q", len(header)) + header + bytes(-len(header) % 8)
            + blob[16 + length + -length % 8:])


def spy_opens(monkeypatch, before_open=lambda path: None):
    """The paths that ``Path.open`` is called on from now on, in order;
    ``before_open(path)`` runs before each open and may return a function
    that wraps the opened file."""
    opened, original = [], Path.open

    def spy_open(self, *args, **kwargs):
        opened.append(self)
        wrap = before_open(self)
        fh = original(self, *args, **kwargs)
        return wrap(fh) if wrap else fh

    monkeypatch.setattr(Path, "open", spy_open)
    return opened


def spy_forks(monkeypatch):
    """The ``os.fork`` calls made from now on, one entry each."""
    forks, fork = [], os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@contextlib.contextmanager
def pinned(cpus: str):
    """This thread on its first CPU for ``"one"``, on its first two for
    ``"two"``, on every CPU it has for ``"every"``; its CPUs are restored on
    the way out.  Where the platform cannot pin, every process pool runs
    inline, as on one CPU, and this does nothing."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    every = os.sched_getaffinity(0)
    if cpus != "every":
        os.sched_setaffinity(0, sorted(every)[:{"one": 1, "two": 2}[cpus]])
    try:
        yield
    finally:
        os.sched_setaffinity(0, every)


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2, reason="the host cannot fork or allows only one CPU")


def uniform(rng, fan_in, *shape):
    """A ``Tensor`` of ``shape`` drawn from ``rng``, uniform in
    ``±sqrt(1/fan_in)``: seeded values on the model's initial scale."""
    bound = np.sqrt(1.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, shape))


def new_table(vocab_size, dim, rng):
    return EmbeddingTable(vocab_size, uniform(rng, dim, vocab_size, dim))


def new_affine(in_size, out_size, rng, relu=False):
    return AffineLayer(uniform(rng, in_size, out_size, in_size), uniform(rng, in_size, out_size),
                       relu)


def is_worker(thread):
    return thread.name.startswith("lstm-worker")


def live_workers():
    return [thread for thread in threading.enumerate() if is_worker(thread)]


def record_task_threads(monkeypatch):
    """From here on, each LSTM task graph run appends the number of its
    helper threads that ran at least one of its tasks to the returned
    list."""
    helpers, run = [], _Graph.run

    def recorded(graph, layers):
        threads = set()
        for task in graph.tasks:
            task[1] = _recording(threads, task[1])
        try:
            run(graph, layers)
        finally:
            helpers.append(sum(map(is_worker, threads)))

    monkeypatch.setattr(_Graph, "run", recorded)
    return helpers


def _recording(threads, fn):
    def task():
        threads.add(threading.current_thread())
        fn()
    return task


def drain_layer(x, w, b, training):
    """``(hidden states (T, B, H), cache)`` of one LSTM layer over the whole
    of ``x``: its tasks run in order on this thread, with a copy of each
    block's states (eval mode reuses two blocks of rows)."""
    run = LstmForward(x, w, b, training)
    blocks = []
    for start in range(0, len(x), PROJECT_STEPS):
        run.project(start)
        blocks.append(run.step(start).copy())
    return np.concatenate(blocks), run.cache


def drain_layer_backward(grad, mask, cache, dw, db, input_grad):
    """The input gradient ``(T, B, in)`` of one LSTM layer (``None`` unless
    ``input_grad``), with its weight and bias gradients written into ``dw``
    and ``db``: its backward tasks run in order on this thread."""
    run = LstmBackward(grad, mask, cache, dw, db, input_grad)
    for start in reversed(range(0, len(grad), PROJECT_STEPS)):
        run.step(start)
        if input_grad:
            run.input_rows(start)
    for task in run.weight_tasks():
        task()
    return run.dx


def new_lstm(num_layers, input_size, hidden_size, rng, dropout_p=0.0):
    sizes = [input_size] + [hidden_size] * (num_layers - 1)
    layers = [LstmLayer(uniform(rng, hidden_size, size + hidden_size, 4 * hidden_size),
                        uniform(rng, hidden_size, 4 * hidden_size)) for size in sizes]
    return LstmStack(num_layers, input_size, hidden_size, layers, dropout_p)


def new_head(hidden_size, rng):
    return AttentionHead(new_affine(hidden_size, 1, rng))


def new_mlp(in_size, hidden_size, out_size, num_layers, rng):
    sizes = [in_size] + [hidden_size] * (num_layers - 1) + [out_size]
    return Mlp([new_affine(sizes[i], sizes[i + 1], rng, relu=i < num_layers - 1)
                for i in range(num_layers)])


def tensors(layer, prefix=""):
    """Every ``Tensor`` a layer holds, by dotted field path (``layers.0.w``)."""
    if isinstance(layer, Tensor):
        return {prefix[:-1]: layer}
    items = enumerate(layer) if isinstance(layer, list) else vars(layer).items()
    found = {}
    for key, value in items:
        if isinstance(value, (Tensor, list)) or hasattr(value, "__dataclass_fields__"):
            found.update(tensors(value, f"{prefix}{key}."))
    return found


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


def claim_consistent(computed_percent, claimed_percent, tolerance_points=0.5):
    """Whether a rounded headline improvement agrees with the computed one."""
    return abs(computed_percent - claimed_percent) <= tolerance_points


def row_perplexity(p_row):
    """exp of the entropy (nats) of one row of conditional affinities."""
    nz = p_row > 0
    return float(np.exp(-(p_row[nz] * np.log(p_row[nz])).sum()))


def tsne_kl_trace(points, perplexity, iterations, seed):
    """The t-SNE descent of ``tsne(points, perplexity, iterations, seed)``,
    run to the end, and its KL divergence after each iteration."""
    descent = TsneDescent(points, perplexity, seed)
    return descent, [kl_divergence(descent.p, q) for q in descent.iterate(iterations)]


def load_normalizer(path):
    """The ``Normalizer`` that ``Normalizer.save`` wrote to ``path``, read
    back with the csv module: the reference that the statistics file
    round-trips."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["channel", "mean", "std"]
    stats = {"ts": [], "static": []}
    for name, mean, std in rows:
        prefix, _, short = name.partition(".")
        stats[prefix].append((short, float(mean), float(std)))
    columns = []
    for entries in stats.values():  # ts, then static
        columns += [[name for name, _, _ in entries], np.array([m for _, m, _ in entries]),
                    np.array([s for _, _, s in entries])]
    return Normalizer(*columns)


def midrank_reference(values):
    """1-based ranks in plain Python: a tie group shares the mean of the
    positions it spans, ``less + (equal + 1) / 2``."""
    return [sum(v < x for v in values) + (sum(v == x for v in values) + 1) / 2 for x in values]


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
