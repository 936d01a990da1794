import xml.etree.ElementTree as ET

import numpy as np
import pytest

from droughtcast.autodiff import RngState
from droughtcast.data import CategoricalEncoder, StaticTable
from droughtcast.errors import ConfigError, DataError
from droughtcast.introspection import (
    _pairwise_sq_dists,
    collect_attention,
    conditional_affinities,
    emit_figures,
    export_embeddings,
    tsne,
)
from droughtcast.model import AblationConfig, HybridModel, ModelConfig
from droughtcast.training import predict

from conftest import row_perplexity, tsne_kl_trace, window_set


def small_model(seed=0, **overrides):
    base = dict(
        input_channels=4, numeric_static_count=2, categorical_vocab_sizes=[3, 4],
        lstm_layers=1, hidden_size=6, embed_dim=4, reduced_dim=2,
        mlp_layers=2, mlp_hidden=8, dropout=0.0, embed_dropout=0.0,
    )
    base.update(overrides)
    return HybridModel(ModelConfig(**base), AblationConfig(), seed=seed)


def small_samples(n=6, t=10, seed=0):
    rng = RngState(seed)
    rows = [
        (rng.uniform(-1, 1, (t, 4)), rng.uniform(-1, 1, 2),
         rng.integers(0, 3, 2).astype(np.int64), rng.uniform(0, 5, 6))
        for _ in range(n)
    ]
    x, s_n, s_d, y = (np.stack(column) for column in zip(*rows))
    return window_set(x, s_n, s_d, y, np.array([f"19{i:03d}" for i in range(n)]),
                      np.full(n, np.datetime64("2020-01-01", "D")))


def test_uniform_attention_profile_when_scores_constant():
    model = small_model()
    model.attention.score_layer.weight.data[...] = 0.0
    model.attention.score_layer.bias.data[...] = 0.0
    samples = small_samples(n=5, t=10)
    profile = collect_attention(predict(model, samples)[1])
    np.testing.assert_allclose(profile.mean, np.full(10, 0.1), atol=1e-15)
    np.testing.assert_allclose(profile.ci_high - profile.ci_low, 0.0, atol=1e-15)
    assert profile.day_offsets == list(range(-10, 0))


def test_attention_profile_day_means_sum_to_one():
    model = small_model(seed=3)
    profile = collect_attention(predict(model, small_samples(n=8, t=7, seed=4))[1])
    assert abs(profile.mean.sum() - 1.0) <= 1e-9
    assert (profile.ci_low <= profile.mean).all()
    assert (profile.mean <= profile.ci_high).all()
    assert profile.n == 8


def test_single_sample_profile_is_degenerate():
    """At n=1 the band collapses onto the mean."""
    model = small_model(seed=5)
    profile = collect_attention(predict(model, small_samples(n=1, t=6, seed=6))[1])
    assert profile.n == 1
    np.testing.assert_array_equal(profile.ci_low, profile.mean)
    np.testing.assert_array_equal(profile.ci_high, profile.mean)


def test_collect_attention_requires_attention_path():
    config = ModelConfig(
        input_channels=4, numeric_static_count=2, categorical_vocab_sizes=[3, 4],
        lstm_layers=1, hidden_size=6, embed_dim=4, reduced_dim=2,
        mlp_layers=2, mlp_hidden=8,
    )
    model = HybridModel(config, AblationConfig(use_attention=False), seed=0)
    with pytest.raises(ConfigError):
        collect_attention(predict(model, small_samples(n=2))[1])


def _encoder():
    return CategoricalEncoder({"soil_quality": ["low", "medium"],
                               "texture": ["clay", "loam", "sand"]})


def _statics(n=5, seed=0):
    rng = RngState(seed)
    return StaticTable(np.array([f"19{i:03d}" for i in range(n)]), ["elevation"],
                       rng.uniform(0, 1, (n, 1)),
                       np.array([[1 + i % 2, 1 + i % 3] for i in range(n)], dtype=np.int64))


def test_export_embeddings_one_row_per_county():
    model = small_model(seed=7)
    statics = _statics(n=5)
    export = export_embeddings(model, statics, _encoder())
    assert export.fips == statics.fips.tolist() == sorted(export.fips)
    assert export.vectors.shape == (5, 2)
    assert set(export.labels) == {"soil_quality", "texture"}


def test_export_embeddings_identical_codes_identical_vectors():
    model = small_model(seed=8)
    statics = _statics(n=4)
    statics.codes[2] = statics.codes[0]
    export = export_embeddings(model, statics, _encoder())
    i = export.fips.index("19000")
    j = export.fips.index("19002")
    np.testing.assert_array_equal(export.vectors[i], export.vectors[j])


def test_default_reduced_width_is_six():
    assert ModelConfig(input_channels=40, numeric_static_count=1,
                       categorical_vocab_sizes=[4]).reduced_dim == 6


def test_export_requires_static_path():
    config = ModelConfig(
        input_channels=4, numeric_static_count=2, categorical_vocab_sizes=[3, 4],
        lstm_layers=1, hidden_size=6, embed_dim=4, reduced_dim=2,
        mlp_layers=2, mlp_hidden=8,
    )
    model = HybridModel(config, AblationConfig(use_static=False), seed=0)
    with pytest.raises(ConfigError):
        export_embeddings(model, _statics(), _encoder())


def two_cluster_points(n_per=50, dims=6, seed=0):
    rng = RngState(seed)
    a = rng.normal(0.0, 0.5, (n_per, dims)) + 8.0
    b = rng.normal(0.0, 0.5, (n_per, dims)) - 8.0
    return np.concatenate([a, b]), np.array([0] * n_per + [1] * n_per)


def test_tsne_separates_two_clusters():
    points, labels = two_cluster_points()
    result = tsne(points, perplexity=100, iterations=1000, seed=1)
    coords = result.coords
    assert coords.shape == (100, 2)
    intra = []
    inter = []
    for i in range(100):
        for j in range(i + 1, 100):
            d = np.linalg.norm(coords[i] - coords[j])
            (intra if labels[i] == labels[j] else inter).append(d)
    assert np.mean(intra) < np.mean(inter)
    assert result.perplexity_used == pytest.approx(99 / 3)


def test_tsne_deterministic_under_seed():
    points, _ = two_cluster_points(n_per=20, seed=3)
    a = tsne(points, perplexity=10, iterations=120, seed=9)
    b = tsne(points, perplexity=10, iterations=120, seed=9)
    np.testing.assert_array_equal(a.coords, b.coords)
    assert a.kl == b.kl


def test_tsne_kl_decreases_after_exaggeration():
    points, _ = two_cluster_points(n_per=30, seed=4)
    _, kl_trace = tsne_kl_trace(points, perplexity=15, iterations=1000, seed=2)
    assert kl_trace[999] <= kl_trace[299] + 1e-9
    assert kl_trace[999] >= 0.0
    # per-step monotone once the stale exaggeration-phase velocity decays
    settled = kl_trace[260:]
    assert all(b <= a + 1e-6 for a, b in zip(settled, settled[1:]))


def test_tsne_rejects_tiny_inputs():
    with pytest.raises(DataError):
        tsne(np.zeros((3, 2)), perplexity=1, iterations=10, seed=0)


def test_tsne_handles_duplicate_points():
    points = np.zeros((8, 3))
    points[4:] = 1.0
    result = tsne(points, perplexity=2, iterations=60, seed=5)
    assert np.isfinite(result.coords).all()


def test_perplexity_search_hits_target():
    rng = RngState(11)
    points = rng.normal(0.0, 1.0, (60, 5))
    target = 12.0
    p_cond, sigmas = conditional_affinities(_pairwise_sq_dists(points), target)
    for i in range(60):
        assert abs(np.log(row_perplexity(p_cond[i])) - np.log(target)) <= 1e-3
    assert (sigmas > 0).all()


def test_sigma_monotone_in_perplexity():
    rng = RngState(12)
    points = rng.normal(0.0, 1.0, (40, 4))
    _, sig_small = conditional_affinities(_pairwise_sq_dists(points), 5.0)
    _, sig_large = conditional_affinities(_pairwise_sq_dists(points), 12.0)
    assert (sig_large >= sig_small - 1e-12).all()


def test_emit_figures_artifacts(tmp_path):
    model = small_model(seed=13)
    samples = small_samples(n=6, t=8, seed=14)
    profile = collect_attention(predict(model, samples)[1])

    statics = _statics(n=6, seed=15)
    export = export_embeddings(model, statics, _encoder())
    rng = RngState(16)
    result = tsne(rng.normal(0, 1, (6, 2)), perplexity=1.5, iterations=30, seed=17)

    paths = emit_figures(profile, result, export, tmp_path)
    attention_rows = paths["attention_csv"].read_text().splitlines()
    assert len(attention_rows) == 1 + 8  # header + one row per look-back day
    tsne_rows = paths["tsne_csv"].read_text().splitlines()
    assert len(tsne_rows) == 1 + len(export.fips)
    assert tsne_rows[0] == "fips,x,y,soil_quality,texture"

    for key in ("tsne_svg", "attention_svg"):
        root = ET.parse(paths[key]).getroot()
        assert root.tag.endswith("svg")
