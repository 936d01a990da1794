"""Model-internals analysis: per-day attention-weight statistics over a
sample set, per-county reduced static embeddings, an exact t-SNE projection
of those embeddings, and CSV/SVG artifact emission.

The t-SNE here is the exact O(N^2) formulation: per-point bandwidths are
binary-searched to the target perplexity, affinities symmetrized, early
exaggeration (x12) applied for the first 250 iterations, and plain
momentum gradient descent (0.5 then 0.8 from iteration 250) run at
learning rate N/12.  County counts are desk-scale, so no tree
approximation is used.
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import RngState
from .data import CategoricalEncoder, StaticFeatures, csv_text, write_csv
from .errors import ConfigError, DataError, IoError
from .model import HybridModel
# batch_from_samples stays importable here: perfbench/tracing.py wraps this lookup site
from .training import batch_from_samples, predict  # noqa: F401

Z95 = 1.96  # normal-approximation 95% interval


@dataclass
class AttentionProfile:
    """Mean attention weight per look-back day (offset -T..-1) with a 95%
    confidence band; ``degenerate`` marks n=1 where the band collapses."""

    day_offsets: list[int]
    mean: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    n: int
    degenerate: bool = False

    def to_csv(self) -> str:
        columns = (self.mean.tolist(), self.ci_low.tolist(), self.ci_high.tolist())
        return csv_text([["day", "mean", "ci_low", "ci_high", "n"]]
                        + [[day, *cells, self.n] for day, *cells in zip(self.day_offsets, *columns)])


def collect_attention(model: HybridModel, samples) -> AttentionProfile:
    """Run the sample set through the model and profile the attention mass
    placed on each day of the look-back window."""
    if model.attention is None:
        raise ConfigError("model was built without the attention path")
    alpha = predict(model, samples)[1]  # (N, T)
    n, t = alpha.shape
    mean = alpha.mean(axis=0)
    if n > 1:
        sd = alpha.std(axis=0, ddof=1)
        half = Z95 * sd / np.sqrt(n)
        degenerate = False
    else:
        half = np.zeros(t)
        degenerate = True
    return AttentionProfile(
        day_offsets=list(range(-t, 0)),
        mean=mean,
        ci_low=mean - half,
        ci_high=mean + half,
        n=n,
        degenerate=degenerate,
    )


@dataclass
class EmbeddingExport:
    """Reduced static-embedding vector per unique county, joined with the
    human-readable label of each categorical column."""

    fips: list[str]
    vectors: np.ndarray  # (C, z')
    label_columns: list[str]
    labels: dict[str, list[str]]


def export_embeddings(model: HybridModel, statics: dict[str, StaticFeatures],
                      encoder: CategoricalEncoder) -> EmbeddingExport:
    fips = sorted(statics)
    codes = np.stack([statics[f].categorical for f in fips])
    vectors = model.reduced_static_embedding(codes)
    labels = {
        column: [encoder.decode(column, int(codes[r, j])) for r in range(len(fips))]
        for j, column in enumerate(encoder.columns)
    }
    return EmbeddingExport(fips, vectors, list(encoder.columns), labels)


@dataclass
class TsneResult:
    coords: np.ndarray  # (N, 2)
    kl: float
    kl_trace: list[float] = field(default_factory=list)
    sigmas: np.ndarray | None = None
    perplexity_used: float = 0.0


def _pairwise_sq_dists(points: np.ndarray) -> np.ndarray:
    sq = (points ** 2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * points @ points.T
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _conditional_row(d2_row: np.ndarray, beta: float, i: int) -> tuple[np.ndarray, float]:
    """Row of conditional affinities at precision beta plus its entropy (nats)."""
    p = np.exp(-d2_row * beta)
    p[i] = 0.0
    total = p.sum()
    if total <= 0.0:
        p[:] = 0.0
        return p, 0.0
    p /= total
    nz = p > 0
    entropy = float(-(p[nz] * np.log(p[nz])).sum())
    return p, entropy


def _search_beta(d2_row: np.ndarray, i: int, target_entropy: float,
                 tol: float = 1e-3, max_iter: int = 200) -> tuple[np.ndarray, float]:
    beta, beta_min, beta_max = 1.0, 0.0, np.inf
    p, entropy = _conditional_row(d2_row, beta, i)
    for _ in range(max_iter):
        if abs(entropy - target_entropy) <= tol:
            break
        if entropy > target_entropy:  # too spread out: raise precision
            beta_min = beta
            beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
        else:
            beta_max = beta
            beta = beta / 2.0 if beta_min == 0.0 else (beta + beta_min) / 2.0
        p, entropy = _conditional_row(d2_row, beta, i)
    return p, beta


def conditional_affinities(points: np.ndarray, perplexity: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row conditional affinities with entropies matched to
    log(perplexity) within 1e-3; returns (P_conditional, sigmas)."""
    n = points.shape[0]
    d2 = _pairwise_sq_dists(points)
    target = float(np.log(perplexity))
    p = np.zeros((n, n))
    betas = np.empty(n)
    for i in range(n):
        p[i], betas[i] = _search_beta(d2[i], i, target)
    sigmas = np.sqrt(1.0 / (2.0 * betas))
    return p, sigmas


EARLY_EXAGGERATION = 12.0  # affinity multiplier for the first EXAGGERATION_ITERS iterations
EXAGGERATION_ITERS = 250


def tsne(points, perplexity: float = 100.0, iterations: int = 1000, seed: int = 0) -> TsneResult:
    """Exact t-SNE to two dimensions.  A perplexity of ``N/3`` or more is
    lowered to ``(N - 1)/3``; ``perplexity_used`` in the result says which
    one ran."""
    if iterations < 1:
        raise ConfigError(f"t-SNE needs at least one iteration, got {iterations}")
    if not perplexity > 0:
        raise ConfigError(f"t-SNE perplexity must be positive, got {perplexity}")
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if n < 4:
        raise DataError(f"t-SNE needs at least 4 points, got {n}")
    if n <= 3 * perplexity:
        perplexity = (n - 1) / 3.0

    rng = RngState(seed)
    d2 = _pairwise_sq_dists(points)
    off_diag = d2[~np.eye(n, dtype=bool)]
    if (off_diag == 0.0).any():
        points = points + rng.split("jitter").normal(0.0, 1e-10, points.shape)

    p_cond, sigmas = conditional_affinities(points, perplexity)
    p = (p_cond + p_cond.T) / (2.0 * n)
    p = np.maximum(p, 1e-12)

    y = rng.split("init").normal(0.0, 1e-4, (n, 2))
    velocity = np.zeros_like(y)
    lr = n / 12.0
    kl_trace: list[float] = []

    for it in range(iterations):
        p_eff = p * EARLY_EXAGGERATION if it < EXAGGERATION_ITERS else p
        d2_low = _pairwise_sq_dists(y)
        inv = 1.0 / (1.0 + d2_low)
        np.fill_diagonal(inv, 0.0)
        q = np.maximum(inv / inv.sum(), 1e-12)

        # gradient: 4 * sum_j (p_ij - q_ij) * inv_ij * (y_i - y_j)
        coeff = (p_eff - q) * inv
        grad = 4.0 * ((np.diag(coeff.sum(axis=1)) - coeff) @ y)

        momentum = 0.5 if it < EXAGGERATION_ITERS else 0.8
        velocity = momentum * velocity - lr * grad
        y = y + velocity
        y = y - y.mean(axis=0)

        kl_trace.append(float((p * np.log(p / q)).sum()))

    return TsneResult(coords=y, kl=kl_trace[-1], kl_trace=kl_trace,
                      sigmas=sigmas, perplexity_used=perplexity)


# Figure emission: minimal self-contained SVG (well-formed XML, no
# external assets), one scatter for the projection and one line-with-band
# chart for the attention profile.

_PALETTE = [
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
    "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd",
]


def _svg_document(body: list[str], width: int, height: int, title: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f"<title>{html.escape(title, quote=False)}</title>\n"
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )


def _scale(values: np.ndarray, lo: float, hi: float, out_lo: float, out_hi: float) -> np.ndarray:
    span = hi - lo if hi > lo else 1.0
    return out_lo + (values - lo) / span * (out_hi - out_lo)


def scatter_svg(coords: np.ndarray, categories: list[str], title: str) -> str:
    width, height, pad = 640, 480, 40
    xs = _scale(coords[:, 0], coords[:, 0].min(), coords[:, 0].max(), pad, width - pad)
    ys = _scale(coords[:, 1], coords[:, 1].min(), coords[:, 1].max(), height - pad, pad)
    order = sorted(set(categories))
    color = {cat: _PALETTE[i % len(_PALETTE)] for i, cat in enumerate(order)}
    body = []
    for i in range(coords.shape[0]):
        body.append(
            f'<circle cx="{xs[i]:.2f}" cy="{ys[i]:.2f}" r="4" '
            f'fill="{color[categories[i]]}" fill-opacity="0.8"/>'
        )
    for i, cat in enumerate(order):
        y = pad + 16 * i
        body.append(f'<circle cx="{width - pad - 90}" cy="{y}" r="4" fill="{color[cat]}"/>')
        body.append(
            f'<text x="{width - pad - 80}" y="{y + 4}" font-size="12" '
            f'font-family="sans-serif">{html.escape(cat, quote=False)}</text>'
        )
    return _svg_document(body, width, height, title)


def profile_svg(profile: AttentionProfile) -> str:
    width, height, pad = 720, 360, 45
    days = np.asarray(profile.day_offsets, dtype=float)
    lo = min(float(profile.ci_low.min()), 0.0)
    hi = float(profile.ci_high.max()) * 1.05
    xs = _scale(days, days.min(), days.max(), pad, width - pad)
    to_y = lambda v: _scale(np.asarray(v, dtype=float), lo, hi, height - pad, pad)

    band = []
    for i in range(len(days)):
        band.append(f"{xs[i]:.2f},{to_y(profile.ci_high[i]):.2f}")
    for i in reversed(range(len(days))):
        band.append(f"{xs[i]:.2f},{to_y(profile.ci_low[i]):.2f}")
    line = " ".join(f"{xs[i]:.2f},{to_y(profile.mean[i]):.2f}" for i in range(len(days)))
    body = [
        f'<polygon points="{" ".join(band)}" fill="#4c72b0" fill-opacity="0.25"/>',
        f'<polyline points="{line}" fill="none" stroke="#4c72b0" stroke-width="1.5"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 8}" font-size="12" font-family="sans-serif" '
        f'text-anchor="middle">day offset</text>',
    ]
    return _svg_document(body, width, height, "mean attention weight per day")


def emit_figures(profile: AttentionProfile, projection: TsneResult,
                 export: EmbeddingExport, out_dir, color_column: str | None = None) -> dict[str, Path]:
    """Write attention/tsne CSVs plus SVG renderings; returns path map."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = {}

        paths["attention_csv"] = out_dir / "attention_profile.csv"
        paths["attention_csv"].write_text(profile.to_csv())

        color_column = color_column or (export.label_columns[0] if export.label_columns else None)
        labels = [export.labels[c] for c in export.label_columns]
        paths["tsne_csv"] = out_dir / "tsne.csv"
        write_csv(paths["tsne_csv"], [["fips", "x", "y", *export.label_columns]]
                  + [[fips, *xy, *row] for fips, xy, *row
                     in zip(export.fips, projection.coords.tolist(), *labels)])

        categories = export.labels[color_column] if color_column else ["all"] * len(export.fips)
        paths["tsne_svg"] = out_dir / "tsne.svg"
        paths["tsne_svg"].write_text(
            scatter_svg(projection.coords, categories, f"embedding projection by {color_column}"),
            encoding="utf-8",
        )
        paths["attention_svg"] = out_dir / "attention_profile.svg"
        paths["attention_svg"].write_text(profile_svg(profile))
        return paths
    except OSError as exc:
        raise IoError(f"cannot write figures under {out_dir}: {exc}") from exc
