import itertools
import math
import os
import re
import signal
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import Packed, edit_header, needs_two_cpus, pinned, spy_forks, window_set
from droughtcast import training
from droughtcast.autodiff import RngState, Tensor
from droughtcast.cli import ABLATION_SETTINGS
from droughtcast.data import SampleSet
from droughtcast.errors import ConfigError, DataError, FormatError, NumericError
from droughtcast.model import AblationConfig, HybridModel, ModelConfig, parameter_layout
from droughtcast.pool import run_pool
from droughtcast.training import (
    LrSchedule,
    OptimizerState,
    TrainRunConfig,
    adamw_step,
    fit,
    history_csv,
    load_checkpoint,
    predict,
    save_checkpoint,
    validation_mae,
)


def make_linear_samples(n=32, t=8, m2=4, f_n=2, seed=0):
    rng = RngState(seed)
    w_x = rng.uniform(-1, 1, (m2, 6))
    w_s = rng.uniform(-1, 1, (f_n, 6))
    rows = []
    for _ in range(n):
        x = rng.uniform(-1, 1, (t, m2))
        s_n = rng.uniform(-1, 1, f_n)
        s_d = rng.integers(0, 3, 2).astype(np.int64)
        rows.append((x, s_n, s_d, 2.5 + x.mean(axis=0) @ w_x + s_n @ w_s))
    x, s_n, s_d, y = (np.stack(column) for column in zip(*rows))
    return window_set(x, s_n, s_d, y, np.array([f"19{i:03d}" for i in range(n)]),
                      np.full(n, np.datetime64("2020-01-01", "D")))


def overfit_config(**overrides):
    base = dict(
        input_channels=4, numeric_static_count=2, categorical_vocab_sizes=[3, 3],
        lstm_layers=2, hidden_size=12, embed_dim=4, reduced_dim=2,
        mlp_layers=2, mlp_hidden=32, dropout=0.0, embed_dropout=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def test_adamw_zero_gradient_no_decay_is_identity():
    p = Tensor(np.array([1.0, -2.0]))
    model = Packed({"p": p})
    p.grad[...] = np.zeros(2)
    state = OptimizerState(weight_decay=0.0)
    adamw_step(model, state, lr=0.1)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adamw_decoupled_decay_identity():
    p = Tensor(np.array([1.0, -2.0]))
    model = Packed({"p": p})
    p.grad[...] = np.zeros(2)
    state = OptimizerState(weight_decay=0.01)
    adamw_step(model, state, lr=0.1)
    np.testing.assert_array_equal(p.data, np.array([1.0, -2.0]) * (1 - 0.001))


def test_adamw_decay_compounds_exactly():
    start = np.array([3.0])
    p = Tensor(start.copy())
    model = Packed({"p": p})
    state = OptimizerState(weight_decay=0.01)
    n = 25
    expected = start.copy()
    for _ in range(n):
        p.grad[...] = np.zeros(1)
        adamw_step(model, state, lr=0.05)
        expected = expected - 0.05 * (0.01 * expected)
    # zero gradients leave the adaptive term exactly zero, so the update is
    # bit-identical to the bare decay recurrence
    np.testing.assert_array_equal(p.data, expected)
    np.testing.assert_allclose(p.data, start * (1 - 0.05 * 0.01) ** n, rtol=1e-13)


def test_adamw_matches_hand_rolled_recurrence():
    p = Tensor(np.array([1.0]))
    model = Packed({"p": p})
    state = OptimizerState(weight_decay=0.0)
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8

    theta, m, v = 1.0, 0.0, 0.0
    for t in range(1, 4):
        p.grad[...] = np.ones(1)
        adamw_step(model, state, lr=lr)
        m = b1 * m + (1 - b1) * 1.0
        v = b2 * v + (1 - b2) * 1.0
        theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        np.testing.assert_allclose(p.data, [theta], atol=1e-12)


def test_adamw_zero_lr_is_identity():
    p = Tensor(np.array([1.0]))
    model = Packed({"p": p})
    p.grad[...] = np.array([5.0])
    adamw_step(model, OptimizerState(), lr=0.0)
    np.testing.assert_array_equal(p.data, [1.0])


def test_adamw_nan_gradient_names_parameter():
    p = Tensor(np.array([1.0]))
    model = Packed({"lstm.w": p})
    p.grad[...] = np.array([np.nan])
    with pytest.raises(NumericError, match="lstm.w"):
        adamw_step(model, OptimizerState(), lr=0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adamw_non_finite_last_gradient_moves_nothing(bad):
    """The whole gradient is checked before any update: a bad entry in the
    last parameter leaves the first one, both moments and the step count
    as they were, after a good step has made them non-trivial."""
    a, b = Tensor(np.array([1.0, -2.0])), Tensor(np.array([[0.5], [3.0]]))
    model = Packed({"a": a, "b": b})
    state = OptimizerState(weight_decay=0.01)
    model.grads[...] = [0.3, -0.1, 0.2, 0.4]
    adamw_step(model, state, lr=0.1)
    before = model.params.copy(), state.m.copy(), state.v.copy()
    b.grad[1, 0] = bad
    with pytest.raises(NumericError, match="'b'"):
        adamw_step(model, state, lr=0.1)
    for array, expected in zip((model.params, state.m, state.v), before):
        np.testing.assert_array_equal(array, expected)
    assert state.step_count == 1


def test_lr_schedule_shape():
    sched = LrSchedule(base_lr=1e-5, max_lr=1e-4, cycle_length=100)
    assert sched.lr_at(0) == 1e-5
    assert sched.lr_at(50) == 1e-4
    assert sched.lr_at(100) == 1e-5
    assert sched.lr_at(175) == sched.lr_at(75)


def test_lr_schedule_validation():
    with pytest.raises(ConfigError):
        LrSchedule(base_lr=0.0, max_lr=1e-4)
    with pytest.raises(ConfigError):
        LrSchedule(base_lr=2e-4, max_lr=1e-4)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_lr_schedule_bounded_and_continuous(step):
    sched = LrSchedule(base_lr=1e-5, max_lr=1e-4, cycle_length=40)
    lr = sched.lr_at(step)
    assert 1e-5 - 1e-18 <= lr <= 1e-4 + 1e-18
    slope_bound = 2 * (sched.max_lr - sched.base_lr) / sched.cycle_length
    assert abs(sched.lr_at(step + 1) - lr) <= slope_bound + 1e-18


def test_overfit_tiny_linear_dataset():
    samples = make_linear_samples()
    model = HybridModel(overfit_config(), AblationConfig(), seed=1)
    run = TrainRunConfig(batch_size=32, epochs=500, seed=2, weight_decay=0.0)
    sched = LrSchedule(base_lr=5e-3, max_lr=5e-3, cycle_length=100)
    model, history = fit(model, samples, [], run, sched)
    assert history[-1].step <= 500
    assert history[-1].train_loss < 1e-2


def test_fit_is_bit_reproducible():
    samples = make_linear_samples(n=12, seed=3)
    config = overfit_config(dropout=0.1, embed_dropout=0.2)
    histories = []
    for _ in range(2):
        model = HybridModel(config, AblationConfig(), seed=5)
        run = TrainRunConfig(batch_size=4, epochs=3, seed=7)
        sched = LrSchedule(base_lr=1e-3, max_lr=1e-2, cycle_length=6)
        _, history = fit(model, samples, samples[:4], run, sched)
        histories.append(history)
    a, b = histories
    assert history_csv(a) == history_csv(b)
    for ra, rb in zip(a, b):
        assert ra.train_loss == rb.train_loss
        assert ra.val_mae == rb.val_mae


# A short 2-layer fit with dropout, then predict, over T=40 (two full
# 16-step blocks and a short one); prints a digest of the parameter and
# prediction bytes, the most helper threads that ran tasks of one LSTM task
# graph, and the number of helper threads alive at the end.  "one" pins the
# process to one CPU before numpy loads.
CPU_COUNT_RUN = """
import hashlib, os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import pytest
from conftest import live_workers, record_task_threads
from test_training import make_linear_samples, overfit_config
from droughtcast.model import AblationConfig, HybridModel
from droughtcast.training import LrSchedule, TrainRunConfig, fit, predict

helpers = record_task_threads(pytest.MonkeyPatch())
samples = make_linear_samples(n=24, t=40, seed=3)
model = HybridModel(overfit_config(dropout=0.1, embed_dropout=0.2), AblationConfig(), seed=5)
model, _ = fit(model, samples, samples[:8], TrainRunConfig(batch_size=8, epochs=2, seed=7),
               LrSchedule(base_lr=1e-3, max_lr=1e-2, cycle_length=6))
predictions, attention = predict(model, samples)
digest = hashlib.sha256(model.params.tobytes() + predictions.tobytes() + attention.tobytes())
print(digest.hexdigest(), max(helpers), len(live_workers()))
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="the host allows only one CPU")
def test_seeded_bytes_do_not_depend_on_the_cpu_count():
    src = Path(training.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    (one, one_helpers, one_alive), (every, every_helpers, every_alive) = (
        subprocess.run([sys.executable, "-c", CPU_COUNT_RUN, cpus], capture_output=True, text=True,
                       env=env, timeout=120, check=True).stdout.split()
        for cpus in ("one", "every"))
    assert (one_helpers, every_helpers) == ("0", "1")
    assert (one_alive, every_alive) == ("0", "0")
    assert one == every


def test_fit_rejects_zero_epochs():
    with pytest.raises(ConfigError):
        TrainRunConfig(epochs=0)


def test_fit_on_an_empty_training_set_is_a_data_error():
    """An empty sample set is a DataError (exit 3) in fit, as in predict."""
    samples = make_linear_samples()
    model = HybridModel(overfit_config(), AblationConfig(), seed=1)
    with pytest.raises(DataError, match="empty training set"):
        fit(model, samples[:0], samples, TrainRunConfig(),
            LrSchedule(base_lr=1e-5, max_lr=1e-4))


def test_fit_tracks_best_validation(tmp_path):
    samples = make_linear_samples(n=16, seed=9)
    model = HybridModel(overfit_config(), AblationConfig(), seed=11)
    run = TrainRunConfig(batch_size=8, epochs=5, seed=13, weight_decay=0.0)
    sched = LrSchedule(base_lr=1e-3, max_lr=1e-3, cycle_length=10)
    _, history = fit(model, samples, samples[:4], run, sched, checkpoint_dir=tmp_path)
    assert (tmp_path / "best.ckpt").exists()
    assert (tmp_path / "final.ckpt").exists()
    assert len(history) == 5


def test_fit_and_predict_cut_every_batch_with_batch_from_samples(monkeypatch):
    """A mini-batch is the ``SampleSet`` that ``batch_from_samples`` cuts at
    the epoch's shuffled rows, an eval block the one it cuts at a slice, and
    the forward takes each as it is."""
    samples = make_linear_samples(n=10, seed=25)
    model = HybridModel(overfit_config(), AblationConfig(), seed=26)
    cuts, batches = [], []
    cut, forward = training.batch_from_samples, HybridModel.forward

    def spy_cut(samples, rows):
        cuts.append(rows)
        return cut(samples, rows)

    def spy_forward(self, batch, *args, **kwargs):
        batches.append(batch)
        return forward(self, batch, *args, **kwargs)

    monkeypatch.setattr(training, "batch_from_samples", spy_cut)
    monkeypatch.setattr(HybridModel, "forward", spy_forward)
    monkeypatch.setattr(training, "PREDICT_BLOCK", 4)
    with pinned("one"):  # the spies see only this process's calls: no block may run in a child
        fit(model, samples, samples[:6], TrainRunConfig(batch_size=4, epochs=1, seed=27),
            LrSchedule())
    order = RngState(27).split("shuffle:0").permutation(10)
    assert [rows.tolist() for rows in cuts[:3]] == [order[:4].tolist(), order[4:8].tolist(),
                                                   order[8:].tolist()]
    assert cuts[3:] == [slice(0, 4), slice(4, 8)]
    assert len(batches) == len(cuts) and all(isinstance(b, SampleSet) for b in batches)
    np.testing.assert_array_equal(batches[0].x, samples.x[order[:4]])
    np.testing.assert_array_equal(batches[-1].y, samples.y[4:6])


def test_predict_joins_blocks_into_one_pass(monkeypatch):
    samples = make_linear_samples(n=7, seed=23)
    model = HybridModel(overfit_config(), AblationConfig(), seed=24)
    whole = model.forward(samples)
    monkeypatch.setattr(training, "PREDICT_BLOCK", 3)
    predictions, attention = predict(model, samples)
    np.testing.assert_allclose(predictions, whole.predictions, atol=1e-12)
    np.testing.assert_allclose(attention, whole.attention, atol=1e-12)
    assert validation_mae(model, samples) == pytest.approx(np.abs(predictions - samples.y).mean())
    no_attention = HybridModel(overfit_config(), AblationConfig(use_attention=False), seed=24)
    assert predict(no_attention, samples)[1] is None
    with pytest.raises(DataError):
        predict(model, samples[:0])


@needs_two_cpus
def test_a_multi_block_predict_has_the_same_bytes_on_one_cpu_and_on_two(monkeypatch):
    """Seven blocks of 8 rows: on one CPU the caller runs them all, on two
    it shares them with a forked, pinned child.  The predictions, the
    attention and ``validation_mae``'s float have the same bytes either
    way, and the caller itself cuts the first block."""
    monkeypatch.setattr(training, "PREDICT_BLOCK", 8)
    samples = make_linear_samples(n=50, seed=31)
    model = HybridModel(overfit_config(), AblationConfig(), seed=32)
    cuts, cut = [], training.batch_from_samples

    def spy_cut(samples, rows):
        cuts.append(rows)
        return cut(samples, rows)

    monkeypatch.setattr(training, "batch_from_samples", spy_cut)
    forks = spy_forks(monkeypatch)
    outputs, blocks = {}, [slice(i, i + 8) for i in range(0, 50, 8)]
    for cpus in ("one", "two"):
        cuts.clear()
        forks.clear()
        with pinned(cpus):
            predictions, attention = predict(model, samples)
            mae = validation_mae(model, samples)
        outputs[cpus] = predictions.tobytes(), attention.tobytes(), struct.pack("<d", mae)
        if cpus == "one":
            assert forks == [] and cuts == blocks + blocks
        else:
            assert len(forks) == 2 and cuts[0] == slice(0, 8) and slice(0, 8) in cuts[1:]
    assert predictions.shape == (50, 6)
    assert outputs["one"] == outputs["two"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_two_cpus
@pytest.mark.parametrize("cpus", ["one", "two"])
def test_the_lowest_failing_block_raises_its_error_and_leaves_no_child(monkeypatch, cpus):
    """Blocks 3 and 5 of seven raise: on one CPU and on two, ``predict``
    raises block 3's error, and no child is left behind."""
    monkeypatch.setattr(training, "PREDICT_BLOCK", 8)
    samples = make_linear_samples(n=50, seed=31)
    model = HybridModel(overfit_config(), AblationConfig(), seed=32)
    forward = HybridModel.forward

    def failing(self, batch, *args, **kwargs):
        block = next(k for k in range(7) if np.array_equal(batch.y, samples.y[8 * k:8 * k + 8]))
        if block in (3, 5):
            raise NumericError(f"planted failure in block {block}")
        return forward(self, batch, *args, **kwargs)

    monkeypatch.setattr(HybridModel, "forward", failing)
    forks = spy_forks(monkeypatch)
    with pinned(cpus), pytest.raises(NumericError, match="planted failure in block 3"):
        predict(model, samples)
    assert bool(forks) == (cpus == "two")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_two_cpus
def test_predict_runs_inline_while_another_thread_is_alive(monkeypatch):
    """A fork would copy another thread's locks but not the thread, so with
    one alive, every block runs in the calling process."""
    monkeypatch.setattr(training, "PREDICT_BLOCK", 8)
    samples = make_linear_samples(n=50, seed=31)
    model = HybridModel(overfit_config(), AblationConfig(), seed=32)
    forks, release = spy_forks(monkeypatch), threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        predictions, _ = predict(model, samples)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []
    with pinned("one"):
        assert predictions.tobytes() == predict(model, samples)[0].tobytes()


def logged_pool(tmp_path, jobs, cpus_per_job: int, fn=lambda job: job):
    """``run_pool``'s results of ``fn`` over ``jobs``, and (job, pid, CPUs) of
    each job, in the order the jobs started, as each process appended it to
    one log file."""
    log = os.open(tmp_path / "pool.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def logged(job):
        cpus = ",".join(map(str, sorted(os.sched_getaffinity(0))))
        os.write(log, f"{job} {os.getpid()} {cpus}\n".encode())
        return fn(job)

    try:
        results = list(run_pool(logged, jobs, cpus_per_job))
    finally:
        os.close(log)
    rows = [line.split() for line in (tmp_path / "pool.log").read_text().splitlines()]
    return results, [(int(job), int(pid), [int(cpu) for cpu in cpus.split(",")])
                     for job, pid, cpus in rows]


@needs_two_cpus
@pytest.mark.parametrize("cpus_per_job", [1, 2])
def test_each_pool_job_runs_once_on_one_of_w_disjoint_cpu_sets(tmp_path, cpus_per_job):
    """Every job runs exactly once, in a process pinned to one of w disjoint
    CPU sets that together cover the caller's CPUs, one set per process;
    results come back in job order, and the caller gets its CPUs back.  With
    two CPUs per job on two CPUs, w is 1 and nothing is pinned."""
    every = sorted(os.sched_getaffinity(0))
    workers = min(6, len(every) // cpus_per_job)
    shares = [every[i::workers] for i in range(workers)]
    assert sorted(sum(shares, [])) == every  # disjoint, and covering every CPU
    results, log = logged_pool(tmp_path, range(6), cpus_per_job, lambda job: job * job)
    assert results == [job * job for job in range(6)]
    assert sorted(job for job, _, _ in log) == list(range(6))
    cpus_of = {}
    for _, pid, cpus in log:
        assert cpus in shares
        assert cpus_of.setdefault(pid, cpus) == cpus
    assert len({tuple(cpus) for cpus in cpus_of.values()}) == len(cpus_of)
    assert sorted(os.sched_getaffinity(0)) == every


@needs_two_cpus
def test_a_free_process_takes_every_job_while_the_other_runs_a_slow_one(tmp_path):
    """On two CPUs, job 0 sleeps for a second: the calling process, which
    takes job 0, runs no other job, and the other process runs all the
    rest, where fixed shares would have left it every second job."""
    with pinned("two"):
        results, log = logged_pool(tmp_path, range(8), 1,
                                   lambda job: time.sleep(1) if job == 0 else job)
    assert results == [None, *range(1, 8)]
    pid = {job: pid for job, pid, _ in log}
    assert pid[0] == os.getpid()
    assert pid[0] not in {pid[job] for job in range(1, 8)}
    assert len({pid[job] for job in range(1, 8)}) == 1


def test_a_pool_of_more_jobs_than_a_pipe_buffer_holds_runs_each_once():
    """20,000 no-op jobs, more 8-byte job numbers than a 64 KiB pipe buffer
    holds: no hand-out blocks, and each job runs once, in order."""
    def hung(*_):
        raise TimeoutError("the pool hung")

    handler = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        assert list(run_pool(lambda job: job, range(20_000), 1)) == list(range(20_000))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)



def test_checkpoint_round_trip(tmp_path):
    config = overfit_config()
    model = HybridModel(config, AblationConfig(), seed=21)
    samples = make_linear_samples(n=4, seed=22)
    before = model.forward(samples).predictions

    path = tmp_path / "model.ckpt"
    digest = save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    after = loaded.forward(samples).predictions
    np.testing.assert_array_equal(before, after)
    assert loaded.sha256 == digest  # of the bytes written
    assert loaded.config == model.config
    assert loaded.ablation == model.ablation


def test_checkpoint_truncation_detected(tmp_path):
    tiny = overfit_config(input_channels=2, numeric_static_count=1, categorical_vocab_sizes=[2],
                          lstm_layers=1, hidden_size=1, embed_dim=2, reduced_dim=1,
                          mlp_layers=1, mlp_hidden=1)
    model = HybridModel(tiny, AblationConfig(), seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(FormatError):
            load_checkpoint(cut)
    for extra in (b"\0", b"\xff" * 9):
        cut.write_bytes(blob + extra)
        with pytest.raises(FormatError, match="trailing bytes"):
            load_checkpoint(cut)
    (tmp_path / "junk.ckpt").write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "junk.ckpt")


def test_checkpoint_layout(tmp_path):
    model = HybridModel(overfit_config(), AblationConfig(), seed=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    assert blob[:8] == b"HMCKPT3\0"
    (length,) = struct.unpack_from("<Q", blob, 8)
    text = blob[16:16 + length].decode()
    assert text == training._config_text(model)
    assert text.splitlines()[-1] == "tensors=" + ",".join(model.named_parameters())
    start = 16 + length + -length % 8
    assert blob[16 + length:start] == bytes(start - 16 - length)
    # the parameter vector, which is every parameter in header order
    assert blob[start:] == model.params.astype("<f8").tobytes() == b"".join(
        t.data.astype("<f8").tobytes() for t in model.named_parameters().values())
    assert sorted(tmp_path.iterdir()) == [path]  # the temporary file was renamed into place


@pytest.mark.parametrize("version", [b"HMCKPT1", b"HMCKPT2"])
def test_old_checkpoint_names_version_and_asks_to_retrain(tmp_path, version):
    path = tmp_path / "model.ckpt"
    save_checkpoint(HybridModel(overfit_config(), AblationConfig(), seed=3), path)
    old = tmp_path / "old.ckpt"
    old.write_bytes(version + path.read_bytes()[len(b"HMCKPT3"):])
    with pytest.raises(FormatError, match=f"'{version.decode()}' is not supported "
                                          f".*HMCKPT3.*retrain"):
        load_checkpoint(old)


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.replace(b"hidden_size=12", b"hidden_size=x"), "model.hidden_size='x'"),
    (lambda h: h.replace(b"vocab_sizes=3,3", b"vocab_sizes=3,z"), "vocab_sizes='3,z'"),
    (lambda h: h.replace(b"use_static=True", b"use_static=maybe"), "use_static='maybe'"),
    (lambda h: h.replace(b"model.dropout=0.0\n", b""), "missing 'model.dropout'"),
    (lambda h: h.replace(b"hidden_size=12", b"hidden_size=0"), "hidden_size must be positive"),
    (lambda h: h.replace(b"\nseed=3\n", b"\nseed=-3\n"),
     r"bad\.ckpt: checkpoint config: seed=-3: must be >= 0"),
    (lambda h: h + b"\xff", "not UTF-8"),
    (lambda h: h.rpartition(b"\ntensors=")[0], "missing 'tensors'"),
    (lambda h: h.replace(b"tensors=embed0.weights,", b"tensors="), "tensors .* differ"),
    (lambda h: h.replace(b"embed0.weights,embed1.weights", b"embed1.weights,embed0.weights"),
     "tensors .* differ"),
    # sizes that would allocate terabytes, or layer counts that would loop for
    # minutes, if the load built the model before it checked the file
    (lambda h: h.replace(b"lstm_layers=2", b"lstm_layers=100000000"), "tensors .* differ"),
    (lambda h: h.replace(b"mlp_layers=2", b"mlp_layers=100000000"), "tensors .* differ"),
    (lambda h: h.replace(b"hidden_size=12", b"hidden_size=1000000"), "truncated checkpoint"),
    (lambda h: h.replace(b"vocab_sizes=3,3", b"vocab_sizes=3,300000000"), "truncated checkpoint"),
])
def test_corrupt_checkpoint_header_raises_format_error(tmp_path, edit, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(HybridModel(overfit_config(), AblationConfig(), seed=3), path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(edit_header(path.read_bytes(), edit))
    started = time.perf_counter()
    with pytest.raises(FormatError, match=message):
        load_checkpoint(bad)
    assert time.perf_counter() - started < 0.5


@st.composite
def model_configs(draw):
    embed_dim = draw(st.integers(2, 5))
    fraction = st.floats(0.0, 1.0, exclude_max=True)
    return ModelConfig(
        input_channels=2 * draw(st.integers(1, 3)),
        numeric_static_count=draw(st.integers(0, 3)),
        categorical_vocab_sizes=draw(st.lists(st.integers(1, 6), max_size=3)),
        lstm_layers=draw(st.integers(1, 2)),
        hidden_size=draw(st.integers(1, 4)),
        embed_dim=embed_dim,
        reduced_dim=draw(st.integers(1, embed_dim - 1)),
        mlp_layers=draw(st.integers(1, 3)),
        mlp_hidden=draw(st.integers(1, 4)),
        dropout=draw(fraction),
        embed_dropout=draw(fraction),
    )


VALID_ABLATIONS = [AblationConfig(*flags) for flags in itertools.product([True, False], repeat=3)
                   if (flags[0] or flags[1]) and (flags[1] or not flags[2])]


@settings(max_examples=40, deadline=None)
@given(config=model_configs(), ablation=st.sampled_from(VALID_ABLATIONS),
       seed=st.integers(0, 2 ** 31))
def test_checkpoint_round_trips_any_config(tmp_path_factory, config, ablation, seed):
    try:
        model = HybridModel(config, ablation, seed)
    except ConfigError:  # the static path alone with no static inputs
        assume(False)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert (loaded.config, loaded.ablation, loaded.seed) == (config, ablation, seed)
    for name, tensor in model.named_parameters().items():
        np.testing.assert_array_equal(loaded.named_parameters()[name].data, tensor.data)


@settings(max_examples=40, deadline=None)
@given(config=model_configs(), ablation=st.sampled_from(ABLATION_SETTINGS))
def test_model_parameters_follow_the_layout(config, ablation):
    try:
        model = HybridModel(config, ablation, seed=0)
    except ConfigError:  # the static path alone with no static inputs
        assume(False)
    layout = list(parameter_layout(config, ablation))
    assert [(name, t.data.shape) for name, t in model.named_parameters().items()] == layout
    assert [t.grad.shape for t in model.named_parameters().values()] == [s for _, s in layout]
    assert model.params.size == model.grads.size == sum(math.prod(s) for _, s in layout)


def test_parameter_layout_is_lazy():
    """A reader can take the first entries of a layout whose layer counts
    are far too large to walk."""
    config = overfit_config(lstm_layers=10 ** 9, mlp_layers=10 ** 9)
    head = itertools.islice(parameter_layout(config, AblationConfig()), 5)
    assert list(head) == [("embed0.weights", (3, 4)), ("embed1.weights", (3, 4)),
                          ("reducer.weight", (2, 8)), ("reducer.bias", (2,)),
                          ("lstm.layer0.w", (16, 48))]
    statics_only = AblationConfig(use_timeseries=False, use_attention=False)
    head = itertools.islice(parameter_layout(config, statics_only), 4, 8)
    assert list(head) == [("mlp.layer0.weight", (32, 4)), ("mlp.layer0.bias", (32,)),
                          ("mlp.layer1.weight", (32, 32)), ("mlp.layer1.bias", (32,))]


def test_load_checkpoint_draws_no_init(tmp_path, monkeypatch):
    model = HybridModel(overfit_config(), AblationConfig(), seed=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)

    def refuse(model):
        raise AssertionError("drew an init")

    monkeypatch.setattr(HybridModel, "draw_init", refuse)
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.params, model.params)
    with pytest.raises(AssertionError, match="drew an init"):
        HybridModel(overfit_config(), AblationConfig(), seed=3)


def test_checkpoint_preserves_ablation_contract(tmp_path):
    config = overfit_config()
    model = HybridModel(config, AblationConfig(use_static=False), seed=2)
    path = tmp_path / "ablated.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.ablation == AblationConfig(use_static=False)
    stale = make_linear_samples(n=4, m2=6)
    with pytest.raises(DataError, match=re.escape(
            f"checkpoint {path} does not fit these samples: expected (B, T, 4) windows")):
        predict(loaded, stale)
    # the ablated static path reads neither static column, so their widths are free
    assert predict(loaded, make_linear_samples(n=4, f_n=5))[0].shape == (4, 6)


def test_divergence_aborts_with_numeric_error(tmp_path):
    samples = make_linear_samples(n=8, seed=31)
    model = HybridModel(overfit_config(), AblationConfig(), seed=32)
    run = TrainRunConfig(batch_size=8, epochs=3, seed=33)
    sched = LrSchedule(base_lr=1e-3, max_lr=1e-3, cycle_length=10)
    # poison the inputs after the first epoch via a NaN target
    samples.y[0, 0] = np.nan
    with pytest.raises(NumericError, match="diverged"):
        fit(model, samples, [], run, sched, checkpoint_dir=tmp_path)
