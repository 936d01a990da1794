import numpy as np
import pytest

from droughtcast.autodiff import RngState, grad_check
from droughtcast.cli import ABLATION_SETTINGS
from droughtcast.data import SampleSet
from droughtcast.metrics import evaluate
from droughtcast.errors import ConfigError, DataError, ShapeError
from droughtcast.model import (
    AblationConfig,
    Batch,
    HybridModel,
    ModelConfig,
    mae_loss,
    mse_loss,
)
from droughtcast.training import validation_mae


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
    config = config or tiny_config()
    rng = RngState(seed)
    return Batch(
        x=rng.uniform(-1, 1, (b, t, config.input_channels)),
        s_n=rng.uniform(-1, 1, (b, config.numeric_static_count)),
        s_d=np.stack(
            [rng.integers(0, v, b) for v in config.categorical_vocab_sizes], axis=1
        ),
        y=rng.uniform(0, 5, (b, 6)),
    )


def test_fused_width_full_model_defaults():
    config = ModelConfig(input_channels=40, numeric_static_count=3,
                         categorical_vocab_sizes=[5])
    model = HybridModel.build(config, AblationConfig(), seed=0)
    assert model.fused_width() == 2 * 490 + 6 + 3


def test_fused_width_attention_off():
    config = tiny_config()
    model = HybridModel.build(config, AblationConfig(use_attention=False), seed=0)
    assert model.fused_width() == config.hidden_size + config.reduced_dim + 3


def test_fused_width_statics_only():
    config = tiny_config()
    model = HybridModel.build(
        config, AblationConfig(use_timeseries=False, use_attention=False), seed=0
    )
    assert model.fused_width() == config.reduced_dim + 3


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
    model = HybridModel.build(tiny_config(), AblationConfig(), seed=1)
    out = model.forward(tiny_batch(b=2, t=5))
    assert out.predictions.shape == (2, 6)
    assert out.attention.shape == (2, 5)
    np.testing.assert_allclose(out.attention.sum(axis=1), [1.0, 1.0], atol=1e-12)
    assert out.reduced_static.shape == (2, 2)


def test_statics_only_ignores_time_series():
    config = tiny_config()
    model = HybridModel.build(
        config, AblationConfig(use_timeseries=False, use_attention=False), seed=2
    )
    batch = tiny_batch(b=3, seed=5, config=config)
    first = model.forward(batch).predictions
    batch2 = Batch(x=RngState(99).uniform(-9, 9, batch.x.shape),
                   s_n=batch.s_n, s_d=batch.s_d, y=batch.y)
    second = model.forward(batch2).predictions
    np.testing.assert_array_equal(first, second)
    assert model.forward(batch).attention is None


def test_identical_statics_give_identical_predictions():
    config = tiny_config()
    model = HybridModel.build(
        config, AblationConfig(use_timeseries=False, use_attention=False), seed=2
    )
    batch = tiny_batch(b=2, seed=3, config=config)
    batch.s_d[1] = batch.s_d[0]
    batch.s_n[1] = batch.s_n[0]
    preds = model.forward(batch).predictions
    np.testing.assert_allclose(preds[0], preds[1], atol=1e-12)


def test_timeseries_only_ignores_statics():
    config = tiny_config()
    model = HybridModel.build(config, AblationConfig(use_static=False), seed=4)
    batch = tiny_batch(b=2, seed=6, config=config)
    first = model.forward(batch).predictions
    batch.s_n[...] = 123.0
    batch.s_d[...] = 0
    second = model.forward(batch).predictions
    np.testing.assert_array_equal(first, second)
    assert model.forward(batch).reduced_static is None


def test_ablated_attention_has_no_attention_parameters():
    model = HybridModel.build(tiny_config(), AblationConfig(use_attention=False), seed=0)
    assert not any(name.startswith("attention.") for name in model.named_parameters())


def test_eval_forward_deterministic():
    model = HybridModel.build(tiny_config(), AblationConfig(), seed=7)
    batch = tiny_batch(seed=8)
    a = model.forward(batch).predictions
    b = model.forward(batch).predictions
    np.testing.assert_array_equal(a, b)


def test_batch_permutation_equivariance():
    model = HybridModel.build(tiny_config(), AblationConfig(), seed=9)
    batch = tiny_batch(b=4, seed=10)
    preds = model.forward(batch).predictions
    perm = [2, 0, 3, 1]
    permuted = Batch(x=batch.x[perm], s_n=batch.s_n[perm], s_d=batch.s_d[perm])
    preds_perm = model.forward(permuted).predictions
    np.testing.assert_allclose(preds_perm, preds[perm], atol=1e-12)


def test_missing_batch_field_raises():
    model = HybridModel.build(tiny_config(), AblationConfig(), seed=0)
    batch = tiny_batch()
    with pytest.raises(DataError):
        model.forward(Batch(x=None, s_n=batch.s_n, s_d=batch.s_d))
    with pytest.raises(DataError):
        model.forward(Batch(x=batch.x, s_n=batch.s_n, s_d=None))


def test_attention_off_equivalence_with_constructed_weights():
    config = tiny_config()
    on = HybridModel.build(config, AblationConfig(), seed=11)
    off = HybridModel.build(config, AblationConfig(use_attention=False), seed=11)

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


def test_loss_shape_guard():
    with pytest.raises(ShapeError):
        mse_loss(np.zeros((1, 6)), np.zeros((2, 6)))


def test_full_model_gradients_match_finite_differences():
    config = tiny_config(hidden_size=4, mlp_hidden=4, dropout=0.0, embed_dropout=0.0)
    model = HybridModel.build(config, AblationConfig(), seed=13)
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
    model = HybridModel.build(config, ablation, seed=15)
    batch = tiny_batch(b=3, t=4, seed=16, config=config)

    def fn():
        # recreating the stream freezes every dropout mask across calls
        out = model.forward(batch, training=True, rng=RngState(17))
        value, grad = mae_loss(out.predictions, batch.y)
        model.backward(out, grad)
        return value

    report = grad_check(fn, model.named_parameters(), step=1e-5, tolerance=1e-4)
    assert report.ok, report.failures


def test_backward_releases_the_training_cache():
    model = HybridModel.build(tiny_config(), AblationConfig(), seed=9)
    batch = tiny_batch(b=2, t=4, seed=10)
    out = model.forward(batch, training=True, rng=RngState(11))
    lstm_cache = out.cache["lstm"]
    _, grad = mse_loss(out.predictions, batch.y)
    model.backward(out, grad)
    assert out.cache is None
    assert lstm_cache == []  # each layer's activations were popped as its backward ran
    assert all(t.grad is not None for t in model.named_parameters().values())


def test_eval_callers_keep_no_cache(monkeypatch):
    model = HybridModel.build(tiny_config(), AblationConfig(), seed=6)
    outputs = []
    forward = HybridModel.forward

    def spy(self, *args, **kwargs):
        outputs.append(forward(self, *args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(HybridModel, "forward", spy)
    batch = tiny_batch(b=4, t=6, seed=7)
    samples = SampleSet(batch.x, batch.s_n, batch.s_d, batch.y, np.array(["19001"] * 4),
                        np.full(4, np.datetime64("2020-01-01", "D")))
    evaluate(model, samples)
    validation_mae(model, samples)
    assert len(outputs) == 2
    assert all(out.cache is None for out in outputs)
    assert model.forward(batch, training=True, rng=RngState(8)).cache is not None


@pytest.mark.parametrize("name", ["dropout", "embed_dropout"])
def test_dropout_rejects_p_of_one(name):
    for p in (1.0, -0.1, 1.5):
        with pytest.raises(ConfigError, match=name):
            tiny_config(**{name: p})
    assert getattr(tiny_config(**{name: 0.0}), name) == 0.0


def _stale(batch, **fields):
    return Batch(**{**vars(batch), **fields})


@pytest.mark.parametrize("edit, message", [
    (lambda b: _stale(b, x=np.zeros((2, 5, 6))), "expected (B, T, 4) windows, got (2, 5, 6)"),
    (lambda b: _stale(b, s_n=np.zeros((2, 4))), "expected 3 numeric static features, got 4"),
    (lambda b: _stale(b, s_d=b.s_d[:, :1]), "expected 2 categorical features, got 1"),
    (lambda b: _stale(b, s_d=np.array([[0, 4], [1, 0]])),
     "categorical feature 1 has codes 0..4, expected 0..3"),
    (lambda b: _stale(b, s_d=np.array([[-1, 0], [1, 0]])),
     "categorical feature 0 has codes -1..1, expected 0..2"),
])
def test_inputs_the_model_was_not_built_for_raise_data_error(edit, message):
    model = HybridModel.build(tiny_config(), AblationConfig(), seed=0)
    with pytest.raises(DataError, match=r"^model does not fit these samples: ") as exc:
        model.forward(edit(tiny_batch()))
    assert message in str(exc.value)


def test_reduced_static_embedding_rejects_unknown_codes():
    model = HybridModel.build(tiny_config(), AblationConfig(), seed=0)
    assert model.reduced_static_embedding(np.array([[2, 3]])).shape == (1, 2)
    with pytest.raises(DataError, match="categorical feature 0 has codes 3..3"):
        model.reduced_static_embedding(np.array([[3, 0]]))
