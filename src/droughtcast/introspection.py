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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import RngState
from .data import CategoricalEncoder, StaticTable, csv_text, write_file
from .errors import ConfigError, DataError
from .model import HybridModel
# batch_from_samples stays importable here: perfbench/tracing.py wraps this lookup site
from .training import batch_from_samples  # noqa: F401

Z95 = 1.96  # normal-approximation 95% interval
ENTROPY_TOL = 1e-3  # the bandwidth search stops this close (nats) to the target entropy
BETA_SEARCH_STEPS = 200  # or after this many bisection steps


@dataclass
class AttentionProfile:
    """Mean attention weight per look-back day (offset -T..-1) over ``n``
    samples with a 95% confidence band, which collapses onto the mean at
    n=1."""

    day_offsets: list[int]
    mean: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    n: int

    def to_csv(self) -> str:
        columns = (self.mean.tolist(), self.ci_low.tolist(), self.ci_high.tolist())
        return csv_text([["day", "mean", "ci_low", "ci_high", "n"]]
                        + [[day, *cells, self.n] for day, *cells in zip(self.day_offsets, *columns)])


def collect_attention(alpha: np.ndarray | None) -> AttentionProfile:
    """Profile the attention mass placed on each day of the look-back window
    from the attention weights (N, T) that
    :func:`~droughtcast.training.predict` returned over a sample set;
    ``None``, what it returns for a model without the attention path, is a
    ``ConfigError``."""
    if alpha is None:
        raise ConfigError("model was built without the attention path")
    n, t = alpha.shape
    mean = alpha.mean(axis=0)
    if n > 1:
        sd = alpha.std(axis=0, ddof=1)
        half = Z95 * sd / np.sqrt(n)
    else:
        half = np.zeros(t)
    return AttentionProfile(
        day_offsets=list(range(-t, 0)),
        mean=mean,
        ci_low=mean - half,
        ci_high=mean + half,
        n=n,
    )


@dataclass
class EmbeddingExport:
    """Reduced static-embedding vector per unique county, joined with the
    human-readable label of each categorical column, in column order."""

    fips: list[str]
    vectors: np.ndarray  # (C, z')
    labels: dict[str, list[str]]


def export_embeddings(model: HybridModel, statics: StaticTable,
                      encoder: CategoricalEncoder) -> EmbeddingExport:
    codes = statics.codes
    labels = {column: [encoder.decode(column, code) for code in codes[:, j].tolist()]
              for j, column in enumerate(encoder.columns)}
    return EmbeddingExport(statics.fips.tolist(), model.reduced_static_embedding(codes), labels)


@dataclass
class TsneResult:
    coords: np.ndarray  # (N, 2)
    kl: float
    perplexity_used: float


def _pairwise_sq_dists(points: np.ndarray, out: np.ndarray | None = None,
                       scratch: np.ndarray | None = None) -> np.ndarray:
    """Squared distances between the rows of ``points``, clipped at zero,
    with a zero diagonal.  Written into ``out`` if given; ``scratch``, an
    array of the same shape, then holds the Gram term."""
    sq = (points ** 2).sum(axis=1)
    gram = np.matmul(2.0 * points, points.T, out=scratch)
    d2 = np.add(sq[:, None], sq[None, :], out=out)
    d2 -= gram
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0, out=d2)


def conditional_affinities(d2: np.ndarray, perplexity: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row conditional affinities of the points whose pairwise squared
    distances are ``d2``, each row's precision bisected until its entropy is
    within ``ENTROPY_TOL`` of log(perplexity); returns (P_conditional, sigmas)."""
    n = d2.shape[0]
    target = float(np.log(perplexity))
    p = np.zeros((n, n))
    betas = np.empty(n)
    for i in range(n):
        beta, beta_min, beta_max = 1.0, 0.0, np.inf
        for step in range(BETA_SEARCH_STEPS + 1):
            row = np.exp(-d2[i] * beta)
            row[i] = 0.0
            total = row.sum()
            if total <= 0.0:
                row[:] = 0.0
                entropy = 0.0
            else:
                row /= total
                nz = row > 0
                entropy = float(-(row[nz] * np.log(row[nz])).sum())
            if abs(entropy - target) <= ENTROPY_TOL or step == BETA_SEARCH_STEPS:
                break
            if entropy > target:  # too spread out: raise precision
                beta_min = beta
                beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == 0.0 else (beta + beta_min) / 2.0
        p[i], betas[i] = row, beta
    sigmas = np.sqrt(1.0 / (2.0 * betas))
    return p, sigmas


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(P || Q) of two joint-affinity matrices with no zero entry."""
    return float((p * np.log(p / q)).sum())


EARLY_EXAGGERATION = 12.0  # affinity multiplier for the first EXAGGERATION_ITERS iterations
EXAGGERATION_ITERS = 250


class TsneDescent:
    """Exact t-SNE of ``points`` to two dimensions, set up for gradient
    descent: the joint affinities ``p`` and the seeded start ``y``.  Points
    that coincide are first jittered by 1e-10.  A perplexity of ``N/3`` or
    more is lowered to ``(N - 1)/3``; ``perplexity_used`` says which one
    ran."""

    def __init__(self, points, perplexity: float = 100.0, seed: int = 0):
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
        np.fill_diagonal(d2, np.inf)  # off the diagonal, a zero is a duplicate
        if d2.min() == 0.0:
            points = points + rng.split("jitter").normal(0.0, 1e-10, points.shape)
            d2 = _pairwise_sq_dists(points, out=d2)
        else:
            np.fill_diagonal(d2, 0.0)
        p, _ = conditional_affinities(d2, perplexity)
        del d2
        p += p.T  # symmetrize; numpy buffers the overlapping operand
        p /= 2.0 * n
        self.p = np.maximum(p, 1e-12, out=p)
        self.y = rng.split("init").normal(0.0, 1e-4, (n, 2))
        self.perplexity_used = perplexity

    def iterate(self, iterations: int):
        """Move ``y`` in place by ``iterations`` steps of momentum gradient
        descent, the first EXAGGERATION_ITERS on exaggerated affinities.
        After each step, yield the similarities ``q`` its gradient was taken
        at; the next step overwrites them."""
        n = self.p.shape[0]
        y = self.y
        inv, q, coeff = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
        grad, velocity = np.empty_like(y), np.zeros_like(y)
        lr = n / 12.0
        p_eff, momentum = self.p * EARLY_EXAGGERATION, 0.5
        for it in range(iterations):
            if it == EXAGGERATION_ITERS:
                p_eff, momentum = self.p, 0.8
            _pairwise_sq_dists(y, out=inv, scratch=q)
            inv += 1.0
            np.divide(1.0, inv, out=inv)
            np.fill_diagonal(inv, 0.0)
            np.divide(inv, inv.sum(), out=q)
            np.maximum(q, 1e-12, out=q)

            # gradient: 4 * sum_j (p_ij - q_ij) * inv_ij * (y_i - y_j), which
            # is 4 * (diag(coeff.sum(axis=1)) - coeff) @ y
            np.subtract(p_eff, q, out=coeff)
            coeff *= inv
            diagonal = coeff.sum(axis=1) - np.diagonal(coeff)
            np.subtract(0.0, coeff, out=coeff)
            np.fill_diagonal(coeff, diagonal)
            np.matmul(coeff, y, out=grad)
            grad *= 4.0

            velocity *= momentum
            grad *= lr
            velocity -= grad
            y += velocity
            y -= y.mean(axis=0)
            yield q


def tsne(points, perplexity: float = 100.0, iterations: int = 1000, seed: int = 0) -> TsneResult:
    """Exact t-SNE to two dimensions (see :class:`TsneDescent`); ``kl`` is
    the KL divergence at the last iteration's gradient."""
    if iterations < 1:
        raise ConfigError(f"t-SNE needs at least one iteration, got {iterations}")
    descent = TsneDescent(points, perplexity, seed)
    for q in descent.iterate(iterations):
        pass
    return TsneResult(descent.y, kl_divergence(descent.p, q), descent.perplexity_used)


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
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}

    paths["attention_csv"] = out_dir / "attention_profile.csv"
    write_file(paths["attention_csv"], [profile.to_csv()])

    color_column = color_column or next(iter(export.labels), None)
    paths["tsne_csv"] = out_dir / "tsne.csv"
    write_file(paths["tsne_csv"], [csv_text([["fips", "x", "y", *export.labels]] + [
        [fips, *xy, *row] for fips, xy, *row
        in zip(export.fips, projection.coords.tolist(), *export.labels.values())])])

    categories = export.labels[color_column] if color_column else ["all"] * len(export.fips)
    paths["tsne_svg"] = out_dir / "tsne.svg"
    write_file(paths["tsne_svg"], [scatter_svg(projection.coords, categories,
                                               f"embedding projection by {color_column}")])
    paths["attention_svg"] = out_dir / "attention_profile.svg"
    write_file(paths["attention_svg"], [profile_svg(profile)])
    return paths
