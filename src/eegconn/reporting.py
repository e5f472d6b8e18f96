"""Dependency-free report artifacts: SVG curves, PGM heatmaps, latency tables."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_ASCII_RAMP = " .:-=+*#%@"


def learning_curve_svg(curve: list[tuple[float, float]], title: str) -> str:
    """An SVG plot of train/validation loss per epoch (direct text emission)."""
    if not curve:
        raise ValidationError("cannot plot an empty learning curve")
    width, height, margin = 640, 400, 50
    train = [c[0] for c in curve]
    val = [c[1] for c in curve]
    lo = min(min(train), min(val))
    hi = max(max(train), max(val))
    span = (hi - lo) or 1.0
    nx = max(len(curve) - 1, 1)

    def pt(i, v):
        x = margin + (width - 2 * margin) * i / nx
        y = height - margin - (height - 2 * margin) * (v - lo) / span
        return f"{x:.2f},{y:.2f}"

    def poly(vals, color):
        points = " ".join(pt(i, v) for i, v in enumerate(vals))
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{points}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        poly(train, "#1f77b4"),
        poly(val, "#d62728"),
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{width - margin}" y="{height - margin + 30}" text-anchor="end" '
        f'font-size="11">epoch (n={len(curve)})</text>',
        f'<text x="{margin}" y="{margin - 10}" font-size="11">cross-entropy loss '
        f'[{lo:.4f}, {hi:.4f}]</text>',
        f'<text x="{width - margin - 150}" y="{margin}" font-size="11" fill="#1f77b4">train</text>',
        f'<text x="{width - margin - 100}" y="{margin}" font-size="11" fill="#d62728">validation</text>',
        "</svg>",
    ]
    return "\n".join(parts)


def pgm_heatmap(image: np.ndarray, comment: str = "") -> str:
    """A 2-D array as the text of an ASCII (P2) PGM, min/max scaled to 0..255."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValidationError(f"heatmap must be 2-D, got shape {img.shape}")
    lo, hi = img.min(), img.max()
    scaled = np.zeros_like(img) if hi == lo else (img - lo) / (hi - lo)
    pixels = np.round(scaled * 255).astype(int)
    lines = ["P2"]
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"{img.shape[1]} {img.shape[0]}")
    lines.append("255")
    lines += [" ".join(str(v) for v in row) for row in pixels]
    return "\n".join(lines) + "\n"


def ascii_heatmap(image: np.ndarray) -> str:
    img = np.asarray(image, dtype=float)
    lo, hi = img.min(), img.max()
    scaled = np.zeros_like(img) if hi == lo else (img - lo) / (hi - lo)
    idx = np.minimum((scaled * len(_ASCII_RAMP)).astype(int), len(_ASCII_RAMP) - 1)
    return "\n".join("".join(_ASCII_RAMP[v] for v in row) for row in idx)


def latency_table_csv(rows: list[dict]) -> str:
    """CSV with one row per (model, feature): mean single-subject latency."""
    out = ["model,feature,mean_ms,repetitions"]
    for r in rows:
        out.append(f"{r['model']},{r['feature']},{r['mean_ms']:.4f},{r['repetitions']}")
    return "\n".join(out) + "\n"


def format_latency_table(rows: list[dict]) -> str:
    header = f"{'model':<18}{'feature':<14}{'mean ms':>10}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r['model']:<18}{r['feature']:<14}{r['mean_ms']:>10.3f}")
    return "\n".join(lines)
