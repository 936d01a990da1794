import numpy as np
import pytest

from droughtcast.autodiff import RngState, Tensor, grad_check
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
    np.testing.assert_allclose(out.attention.data.sum(axis=1), [1.0, 1.0], atol=1e-12)
    assert out.reduced_static.shape == (2, 2)


def test_statics_only_ignores_time_series():
    config = tiny_config()
    model = HybridModel.build(
        config, AblationConfig(use_timeseries=False, use_attention=False), seed=2
    )
    batch = tiny_batch(b=3, seed=5, config=config)
    first = model.forward(batch).predictions.data
    batch2 = Batch(x=RngState(99).uniform(-9, 9, batch.x.shape),
                   s_n=batch.s_n, s_d=batch.s_d, y=batch.y)
    second = model.forward(batch2).predictions.data
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
    preds = model.forward(batch).predictions.data
    np.testing.assert_allclose(preds[0], preds[1], atol=1e-12)


def test_timeseries_only_ignores_statics():
    config = tiny_config()
    model = HybridModel.build(config, AblationConfig(use_static=False), seed=4)
    batch = tiny_batch(b=2, seed=6, config=config)
    first = model.forward(batch).predictions.data
    batch.s_n[...] = 123.0
    batch.s_d[...] = 0
    second = model.forward(batch).predictions.data
    np.testing.assert_array_equal(first, second)
    assert model.forward(batch).reduced_static is None


def test_ablated_attention_has_no_attention_parameters():
    model = HybridModel.build(tiny_config(), AblationConfig(use_attention=False), seed=0)
    assert not any(name.startswith("attention.") for name in model.named_parameters())


def test_eval_forward_deterministic():
    model = HybridModel.build(tiny_config(), AblationConfig(), seed=7)
    batch = tiny_batch(seed=8)
    a = model.forward(batch).predictions.data
    b = model.forward(batch).predictions.data
    np.testing.assert_array_equal(a, b)


def test_batch_permutation_equivariance():
    model = HybridModel.build(tiny_config(), AblationConfig(), seed=9)
    batch = tiny_batch(b=4, seed=10)
    preds = model.forward(batch).predictions.data
    perm = [2, 0, 3, 1]
    permuted = Batch(x=batch.x[perm], s_n=batch.s_n[perm], s_d=batch.s_d[perm])
    preds_perm = model.forward(permuted).predictions.data
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
        on.forward(batch).predictions.data,
        off.forward(batch).predictions.data,
        atol=1e-12,
    )


def test_mse_loss_values():
    y = Tensor(np.zeros((1, 6)))
    assert mse_loss(y, np.zeros((1, 6))).item() == 0.0
    assert mse_loss(Tensor(np.ones((2, 6))), np.zeros((2, 6))).item() == 1.0
    target = np.array([[1.0, 2.0, 0.0, 0.0, 0.0, 0.0]])
    assert abs(mse_loss(Tensor(np.zeros((1, 6))), target).item() - 5.0 / 6.0) < 1e-15


def test_mae_loss():
    target = np.array([[1.0, -2.0, 0.0, 0.0, 0.0, 0.0]])
    assert abs(mae_loss(Tensor(np.zeros((1, 6))), target).item() - 0.5) < 1e-15


def test_loss_shape_guard():
    with pytest.raises(ShapeError):
        mse_loss(Tensor(np.zeros((1, 6))), np.zeros((2, 6)))


def test_full_model_gradients_match_finite_differences():
    config = tiny_config(hidden_size=4, mlp_hidden=4)
    model = HybridModel.build(config, AblationConfig(), seed=13)
    batch = tiny_batch(b=2, t=3, seed=14, config=config)

    def fn():
        out = model.forward(batch, training=False)
        return mse_loss(out.predictions, batch.y)

    report = grad_check(fn, model.named_parameters(), step=1e-5, tolerance=1e-4)
    assert report.ok, report.failures


def _tape_size(root):
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def test_training_tape_size_does_not_grow_with_window_length():
    config = tiny_config(dropout=0.1, embed_dropout=0.4)
    model = HybridModel.build(config, AblationConfig(), seed=3)
    sizes = [
        _tape_size(model.forward(tiny_batch(b=3, t=t, seed=4, config=config), training=True,
                                 rng=RngState(5)).predictions)
        for t in (5, 50)
    ]
    assert sizes[0] == sizes[1]


def test_eval_callers_record_no_tape(monkeypatch):
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
    for out in outputs:
        assert out.predictions._parents == () and not out.predictions.requires_grad
        assert out.attention._parents == ()
    assert model.forward(batch, training=True, rng=RngState(8)).predictions._parents
