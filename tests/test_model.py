import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import droughtcast.model
from conftest import window_set, with_windows
from droughtcast.autodiff import RngState, grad_check
from droughtcast.cli import ABLATION_SETTINGS
from droughtcast.metrics import evaluate
from droughtcast.errors import ConfigError, DataError
from droughtcast.model import (
    AblationConfig,
    HybridModel,
    ModelConfig,
    fused_width,
    mae_loss,
    mse_loss,
)
from droughtcast.training import (
    LrSchedule,
    TrainRunConfig,
    fit,
    load_checkpoint,
    predict,
    save_checkpoint,
    validation_mae,
)


def tiny_config(**overrides):
    base = dict(
        input_channels=4,
        numeric_static_count=3,
        categorical_vocab_sizes=[3, 4],
        lstm_layers=2,
        hidden_size=8,
        embed_dim=3,
        reduced_dim=2,
        mlp_layers=2,
        mlp_hidden=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_batch(b=2, t=5, seed=0, config=None):
    """``b`` random samples of ``t`` steps, sized to ``config``."""
    config = config or tiny_config()
    rng = RngState(seed)
    return window_set(
        x=rng.uniform(-1, 1, (b, t, config.input_channels)),
        s_n=rng.uniform(-1, 1, (b, config.numeric_static_count)),
        s_d=np.stack(
            [rng.integers(0, v, b) for v in config.categorical_vocab_sizes], axis=1
        ),
        y=rng.uniform(0, 5, (b, 6)),
        fips=np.array(["19001"] * b),
        anchor=np.full(b, np.datetime64("2020-01-01", "D")),
    )


def test_fused_width_full_model_defaults():
    config = ModelConfig(input_channels=40, numeric_static_count=3,
                         categorical_vocab_sizes=[5])
    assert fused_width(config, AblationConfig()) == 2 * 490 + 6 + 3


def test_fused_width_attention_off():
    config = tiny_config()
    assert (fused_width(config, AblationConfig(use_attention=False))
            == config.hidden_size + config.reduced_dim + 3)


def test_fused_width_statics_only():
    config = tiny_config()
    ablation = AblationConfig(use_timeseries=False, use_attention=False)
    assert fused_width(config, ablation) == config.reduced_dim + 3


def test_invalid_ablations_rejected():
    with pytest.raises(ConfigError):
        AblationConfig(use_static=False, use_timeseries=False)
    with pytest.raises(ConfigError):
        AblationConfig(use_timeseries=False, use_attention=True)


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(reduced_dim=5, embed_dim=5)
    with pytest.raises(ConfigError):
        tiny_config(input_channels=5)
    with pytest.raises(ConfigError):
        tiny_config(hidden_size=0)


def test_forward_shapes_and_attention_simplex():
    model = HybridModel(tiny_config(), AblationConfig(), seed=1)
    out = model.forward(tiny_batch(b=2, t=5))
    assert out.predictions.shape == (2, 6)
    assert out.attention.shape == (2, 5)
    np.testing.assert_allclose(out.attention.sum(axis=1), [1.0, 1.0], atol=1e-12)


def test_statics_only_ignores_time_series():
    config = tiny_config()
    model = HybridModel(
        config, AblationConfig(use_timeseries=False, use_attention=False), seed=2
    )
    batch = tiny_batch(b=3, seed=5, config=config)
    first = model.forward(batch).predictions
    batch2 = with_windows(batch, RngState(99).uniform(-9, 9, batch.x.shape))
    second = model.forward(batch2).predictions
    np.testing.assert_array_equal(first, second)
    assert model.forward(batch).attention is None


def test_identical_statics_give_identical_predictions():
    config = tiny_config()
    model = HybridModel(
        config, AblationConfig(use_timeseries=False, use_attention=False), seed=2
    )
    batch = tiny_batch(b=2, seed=3, config=config)
    batch.s_d[1] = batch.s_d[0]
    batch.s_n[1] = batch.s_n[0]
    preds = model.forward(batch).predictions
    np.testing.assert_allclose(preds[0], preds[1], atol=1e-12)


def test_timeseries_only_ignores_statics():
    config = tiny_config()
    model = HybridModel(config, AblationConfig(use_static=False), seed=4)
    batch = tiny_batch(b=2, seed=6, config=config)
    first = model.forward(batch).predictions
    batch.s_n[...] = 123.0
    batch.s_d[...] = 0
    second = model.forward(batch).predictions
    np.testing.assert_array_equal(first, second)
    assert model.reducer is None


def test_ablated_attention_has_no_attention_parameters():
    model = HybridModel(tiny_config(), AblationConfig(use_attention=False), seed=0)
    assert not any(name.startswith("attention.") for name in model.named_parameters())


def test_eval_forward_deterministic():
    model = HybridModel(tiny_config(), AblationConfig(), seed=7)
    batch = tiny_batch(seed=8)
    a = model.forward(batch).predictions
    b = model.forward(batch).predictions
    np.testing.assert_array_equal(a, b)


def test_batch_permutation_equivariance():
    model = HybridModel(tiny_config(), AblationConfig(), seed=9)
    batch = tiny_batch(b=4, seed=10)
    preds = model.forward(batch).predictions
    perm = np.array([2, 0, 3, 1])
    permuted = batch[perm]
    preds_perm = model.forward(permuted).predictions
    np.testing.assert_allclose(preds_perm, preds[perm], atol=1e-12)


def test_attention_off_equivalence_with_constructed_weights():
    config = tiny_config()
    on = HybridModel(config, AblationConfig(), seed=11)
    off = HybridModel(config, AblationConfig(use_attention=False), seed=11)

    shared = off.named_parameters()
    for name, t in on.named_parameters().items():
        if name.startswith("attention."):
            continue
        if name.startswith("mlp."):
            continue
        t.data[...] = shared[name].data
    h = config.hidden_size
    # first fused block (the pooled context) contributes nothing; the rest
    # reuses the attention-free weights column for column
    on.mlp.layers[0].weight.data[:, :h] = 0.0
    on.mlp.layers[0].weight.data[:, h:] = off.mlp.layers[0].weight.data
    on.mlp.layers[0].bias.data[...] = off.mlp.layers[0].bias.data
    on.mlp.layers[1].weight.data[...] = off.mlp.layers[1].weight.data
    on.mlp.layers[1].bias.data[...] = off.mlp.layers[1].bias.data

    batch = tiny_batch(b=3, seed=12, config=config)
    np.testing.assert_allclose(
        on.forward(batch).predictions,
        off.forward(batch).predictions,
        atol=1e-12,
    )


def test_mse_loss_values_and_gradient():
    assert mse_loss(np.zeros((1, 6)), np.zeros((1, 6)))[0] == 0.0
    value, grad = mse_loss(np.ones((2, 6)), np.zeros((2, 6)))
    assert value == 1.0
    np.testing.assert_array_equal(grad, np.full((2, 6), 2.0 / 12))
    target = np.array([[1.0, 2.0, 0.0, 0.0, 0.0, 0.0]])
    assert abs(mse_loss(np.zeros((1, 6)), target)[0] - 5.0 / 6.0) < 1e-15


def test_mae_loss_value_and_gradient():
    target = np.array([[1.0, -2.0, 0.0, 0.0, 0.0, 0.0]])
    value, grad = mae_loss(np.zeros((1, 6)), target)
    assert abs(value - 0.5) < 1e-15
    np.testing.assert_array_equal(grad, [[-1 / 6, 1 / 6, 0.0, 0.0, 0.0, 0.0]])


def test_full_model_gradients_match_finite_differences():
    config = tiny_config(hidden_size=4, mlp_hidden=4, dropout=0.0, embed_dropout=0.0)
    model = HybridModel(config, AblationConfig(), seed=13)
    batch = tiny_batch(b=2, t=3, seed=14, config=config)

    def fn():
        out = model.forward(batch, training=True, rng=RngState(0))
        value, grad = mae_loss(out.predictions, batch.y)
        model.backward(out, grad)
        return value

    report = grad_check(fn, model.named_parameters(), step=1e-5, tolerance=1e-4)
    assert report.ok, report.failures


@pytest.mark.parametrize("ablation", ABLATION_SETTINGS, ids=lambda a: a.label())
def test_gradients_through_every_ablation_and_dropout_mask(ablation):
    config = tiny_config(hidden_size=4, mlp_hidden=4, dropout=0.3, embed_dropout=0.4)
    model = HybridModel(config, ablation, seed=15)
    batch = tiny_batch(b=3, t=4, seed=16, config=config)

    def fn():
        # recreating the stream freezes every dropout mask across calls
        out = model.forward(batch, training=True, rng=RngState(17))
        value, grad = mae_loss(out.predictions, batch.y)
        model.backward(out, grad)
        return value

    report = grad_check(fn, model.named_parameters(), step=1e-5, tolerance=1e-4)
    assert report.ok, report.failures


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


@pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
@pytest.mark.parametrize("ablation", ABLATION_SETTINGS, ids=lambda a: a.label())
def test_parameters_and_gradients_are_views_that_tile_two_vectors(ablation, loaded, tmp_path):
    """Each parameter's ``data`` and ``grad`` are C-contiguous views into
    ``params`` and ``grads``, at rising offsets in ``named_parameters``
    order with no gap or overlap, before and after a backward pass (which
    writes into the views instead of rebinding them), whether the model was
    built or loaded from a checkpoint."""
    model = HybridModel(tiny_config(), ablation, seed=0)
    if loaded:
        save_checkpoint(model, tmp_path / "model.ckpt")
        model = load_checkpoint(tmp_path / "model.ckpt")

    def assert_tiled(when):
        for vector, attr in ((model.params, "data"), (model.grads, "grad")):
            assert vector.dtype == np.float64 and vector.ndim == 1, when
            offset = 0
            for name, t in model.named_parameters().items():
                view = getattr(t, attr)
                assert view.flags.c_contiguous, (when, name, attr)
                assert np.shares_memory(view, vector), (when, name, attr)
                assert _address(view) - _address(vector) == 8 * offset, (when, name, attr)
                offset += view.size
            assert offset == vector.size, (when, attr)

    assert_tiled("built")
    batch = tiny_batch(b=2, t=4, seed=1)
    out = model.forward(batch, training=True, rng=RngState(2))
    model.backward(out, mse_loss(out.predictions, batch.y)[1])
    assert_tiled("after backward")


def test_backward_releases_the_training_cache():
    model = HybridModel(tiny_config(), AblationConfig(), seed=9)
    batch = tiny_batch(b=2, t=4, seed=10)
    out = model.forward(batch, training=True, rng=RngState(11))
    lstm_cache = out.cache["lstm"]
    _, grad = mse_loss(out.predictions, batch.y)
    model.backward(out, grad)
    assert out.cache is None
    assert lstm_cache == []  # each layer's activations were popped as its backward ran
    assert model.grads.any()  # the backward wrote the gradient vector


def test_eval_callers_keep_no_cache(monkeypatch):
    model = HybridModel(tiny_config(), AblationConfig(), seed=6)
    outputs = []
    forward = HybridModel.forward

    def spy(self, *args, **kwargs):
        outputs.append(forward(self, *args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(HybridModel, "forward", spy)
    samples = tiny_batch(b=4, t=6, seed=7)
    evaluate(model, samples)
    validation_mae(model, samples)
    assert len(outputs) == 2
    assert all(out.cache is None for out in outputs)
    assert model.forward(samples, training=True, rng=RngState(8)).cache is not None


def test_dropout_draws_only_from_the_stream_a_training_forward_is_given(monkeypatch):
    """A training forward without a stream is a ``TypeError``, not a run
    with a fixed mask, and an eval forward constructs no ``RngState``."""
    model = HybridModel(tiny_config(dropout=0.5, embed_dropout=0.5), AblationConfig(), seed=3)
    batch = tiny_batch(b=4, seed=4)
    with pytest.raises(TypeError, match="rng"):
        model.forward(batch, training=True)
    built, init = [], RngState.__init__

    def spy(self, seed):
        built.append(seed)
        init(self, seed)

    monkeypatch.setattr(RngState, "__init__", spy)
    model.forward(batch)
    assert built == []


@pytest.mark.parametrize("name", ["dropout", "embed_dropout"])
def test_dropout_rejects_p_of_one(name):
    for p in (1.0, -0.1, 1.5):
        with pytest.raises(ConfigError, match=name):
            tiny_config(**{name: p})
    assert getattr(tiny_config(**{name: 0.0}), name) == 0.0


STALE_SAMPLES = [
    pytest.param({"x": np.zeros((2, 5, 6))}, "expected (B, T, 4) windows, got (2, 5, 6)",
                 id="channels"),
    pytest.param({"x": np.zeros((2, 0, 4))}, "expected (B, T, 4) windows, got (2, 0, 4)",
                 id="empty-window"),
    pytest.param({"s_n": np.zeros((2, 4))}, "expected 3 numeric static features, got 4",
                 id="numeric"),
    pytest.param({"s_d": np.array([[0], [1]])}, "expected 2 categorical features, got 1",
                 id="categorical"),
    pytest.param({"s_d": np.array([[0, 4], [1, 0]])},
                 "categorical feature 1 has codes 0..4, expected 0..3", id="code-above"),
    pytest.param({"s_d": np.array([[-1, 0], [1, 0]])},
                 "categorical feature 0 has codes -1..1, expected 0..2", id="code-below"),
    pytest.param({"y": np.zeros((2, 5))}, "expected (N, 6) targets, got (2, 5)", id="targets"),
]


def stale_batch(columns):
    """``tiny_batch()`` with the given columns, or windows ``x``, replaced."""
    columns = dict(columns)
    batch = tiny_batch()
    if "x" in columns:
        batch = with_windows(batch, columns.pop("x"))
    return replace(batch, **columns)


@pytest.mark.parametrize("columns, message", STALE_SAMPLES)
def test_inputs_the_model_was_not_built_for_raise_data_error(columns, message):
    model = HybridModel(tiny_config(), AblationConfig(), seed=0)
    with pytest.raises(DataError, match=r"^model does not fit these samples: ") as exc:
        predict(model, stale_batch(columns))
    assert message in str(exc.value)


def test_predict_checks_the_sample_set_once(monkeypatch):
    model = HybridModel(tiny_config(), AblationConfig(), seed=0)
    checked = []
    monkeypatch.setattr(model, "check", checked.append)
    monkeypatch.setattr("droughtcast.training.PREDICT_BLOCK", 2)
    samples = tiny_batch(b=5)
    assert predict(model, samples)[0].shape == (5, 6)
    assert checked == [samples]


@pytest.mark.parametrize("columns, message", STALE_SAMPLES)
def test_fit_rejects_a_stale_val_set_before_the_first_step(columns, message):
    model = HybridModel(tiny_config(), AblationConfig(), seed=0)
    before = {name: t.data.copy() for name, t in model.named_parameters().items()}
    train = tiny_batch(b=4, seed=1)
    run = TrainRunConfig(batch_size=2, epochs=1, seed=0)
    with pytest.raises(DataError, match=r"^model does not fit these samples: ") as exc:
        fit(model, train, stale_batch(columns), run, LrSchedule())
    assert message in str(exc.value)
    for name, t in model.named_parameters().items():
        np.testing.assert_array_equal(t.data, before[name])


@pytest.mark.parametrize("ablation", ABLATION_SETTINGS, ids=lambda a: a.label())
def test_check_reads_only_the_enabled_paths(ablation):
    """A column no enabled path reads may have any width; one that is read
    may not."""
    model = HybridModel(tiny_config(), ablation, seed=0)
    batch = tiny_batch()
    if not ablation.use_timeseries:
        model.check(with_windows(batch, np.zeros((2, 0, 6))))
    if not ablation.use_static:
        model.check(replace(batch, s_n=np.zeros((2, 0)), s_d=np.zeros((2, 5), np.int64)))
    with pytest.raises(DataError):
        model.check(replace(batch, y=np.zeros((2, 7))))


def test_reduced_static_embedding_rejects_unknown_codes():
    model = HybridModel(tiny_config(), AblationConfig(), seed=0)
    assert model.reduced_static_embedding(np.array([[2, 3]])).shape == (1, 2)
    with pytest.raises(DataError, match="categorical feature 0 has codes 3..3"):
        model.reduced_static_embedding(np.array([[3, 0]]))


def _tensor_constructions(tree: ast.AST):
    """Line of every call in ``tree`` to a name or attribute ``Tensor``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "Tensor":
                yield node.lineno


def test_model_is_the_only_module_that_constructs_a_tensor():
    """Every parameter is a view that ``HybridModel`` cuts from its vector as
    ``parameter_layout`` says; no other module of the package allocates one."""
    found = []
    for module in sorted(Path(droughtcast.model.__file__).parent.glob("*.py")):
        lines = list(_tensor_constructions(ast.parse(module.read_text(encoding="utf-8"))))
        if module.name == "model.py":
            assert lines != []  # the guard sees the one place that does
        else:
            found += [f"{module.name}:{line}" for line in lines]
    assert found == []


def test_tensor_guard_flags_each_way_of_constructing_one():
    source = """
Tensor(data)
autodiff.Tensor(data, grad)
isinstance(value, Tensor)
tensors: dict[str, Tensor] = {}
"""
    assert list(_tensor_constructions(ast.parse(source))) == [2, 3]


def test_lstm_init_packs_per_gate_draws_in_order():
    in_size, hidden = 4, 2
    model = HybridModel(tiny_config(input_channels=in_size, hidden_size=hidden, lstm_layers=1),
                        AblationConfig(), seed=4)
    layer = model.lstm.layers[0]
    rng = RngState(4).split("init").split("lstm").split("lstm0")
    for k in range(4):
        cols = slice(k * hidden, (k + 1) * hidden)
        bound_in, bound_h = np.sqrt(1.0 / in_size), np.sqrt(1.0 / hidden)
        np.testing.assert_array_equal(layer.w.data[:in_size, cols],
                                      rng.uniform(-bound_in, bound_in, (hidden, in_size)).T)
        np.testing.assert_array_equal(layer.w.data[in_size:, cols],
                                      rng.uniform(-bound_h, bound_h, (hidden, hidden)).T)
        np.testing.assert_array_equal(layer.b.data[cols], rng.uniform(-bound_h, bound_h, hidden))


@pytest.mark.parametrize("name, stream", [
    ("embed1.weights", ("embed1",)),
    ("reducer", ("reducer",)),
    ("attention.score", ("attention",)),
    ("mlp.layer0", ("mlp", "mlp0")),
    ("mlp.layer1", ("mlp", "mlp1")),
])
def test_init_draws_each_layer_from_its_own_stream(name, stream):
    """An embedding table is one draw, and an affine layer its weight then its
    bias, both within ``±sqrt(1/fan_in)`` of its weight's input width."""
    params = HybridModel(tiny_config(), AblationConfig(), seed=6).named_parameters()
    rng = RngState(6).split("init")
    for key in stream:
        rng = rng.split(key)
    weight = params[name if name.startswith("embed") else f"{name}.weight"].data
    bound = np.sqrt(1.0 / weight.shape[1])
    np.testing.assert_array_equal(weight, rng.uniform(-bound, bound, weight.shape))
    if not name.startswith("embed"):
        bias = params[f"{name}.bias"].data
        np.testing.assert_array_equal(bias, rng.uniform(-bound, bound, bias.shape))


def _parameter_draws(tree: ast.AST):
    """Line of every function in ``tree`` whose name starts with ``draw``,
    and of every call to a name or attribute ``uniform`` or ``_uniform``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("draw"):
                yield node.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name.lstrip("_") == "uniform":
                yield node.lineno


def test_model_is_the_only_module_that_draws_parameter_values():
    """``HybridModel.draw_init`` gives every parameter its initial value, so
    no layer draws its own; ``synthetic.py`` draws dataset values, not
    parameters."""
    found = []
    for module in sorted(Path(droughtcast.model.__file__).parent.glob("*.py")):
        lines = list(_parameter_draws(ast.parse(module.read_text(encoding="utf-8"))))
        if module.name == "model.py":
            assert lines != []  # the guard sees the one place that does
        elif module.name != "synthetic.py":
            found += [f"{module.name}:{line}" for line in lines]
    assert found == []


def test_draw_guard_flags_each_way_of_drawing():
    source = """
class Layer:
    def draw(self, rng):
        self.w[...] = _uniform(rng, shape, fan_in)
def draw_init(model): pass
rng.uniform(-1, 1, shape)
uniform(-1, 1)
rng.random(shape)
def withdraw(): pass
"""
    assert sorted(_parameter_draws(ast.parse(source))) == [3, 4, 5, 6, 7]
