"""Deterministic artifact writers: CSV tables, minimal SVG charts, manifests.

Every writer produces byte-identical output for identical inputs: no
timestamps, no locale formatting, '\\n' newlines, and fixed float formats.
Numeric output never uses thousands separators.
"""

from __future__ import annotations

import hashlib
import os
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError

__all__ = [
    "fmt", "write_csv", "sha256_file", "numpy_dispatch", "write_manifest", "write_kv", "read_kv",
    "svg_line_chart",
]


def fmt(x) -> str:
    """Stable scalar formatting for CSV cells."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(cell) for cell in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(path, entries: Mapping[str, object], outputs: Sequence[str] = ()) -> None:
    """Key=value run manifest with content hashes of the produced files.

    The manifest records the resolved configuration, seeds, library
    versions and the SIMD target of numpy's float64 ``exp``, ``log`` and
    ``power`` (:func:`numpy_dispatch`), and deliberately excludes wall-clock
    time, worker counts and the output directory, which must not matter.
    A re-run is bit-identical on the same seed, replications, numpy version
    and SIMD target.
    """
    import numpy
    import scipy

    from . import __version__

    write_kv(path, [
        ("manifest", "pnormlab-run/1"),
        ("pnormlab_version", __version__),
        ("numpy_version", numpy.__version__),
        ("numpy_dispatch", numpy_dispatch()),
        ("scipy_version", scipy.__version__),
        *entries.items(),
        *((f"output.{os.path.basename(out)}.sha256", sha256_file(out)) for out in outputs),
    ])


def numpy_dispatch() -> str:
    """The SIMD target numpy runs float64 ``exp``, ``log`` and ``power`` on,
    as ``exp:X86_V4,log:X86_V4,power:X86_V4``; ``unknown`` before numpy 2.0,
    which cannot report it."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return "unknown"
    info = opt_func_info(func_name="^(exp|log|power)$")
    return ",".join(f"{name}:{info[name][sig]['current']}"
                    for name, sig in (("exp", "dd"), ("log", "dd"), ("power", "ddd")))


def write_kv(path, entries: Iterable[tuple[str, object]]) -> None:
    """Write one ``key = value`` line per pair, in order, for :func:`read_kv`
    to read back: the format of manifests and calibration artifacts."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(f"{key} = {value}\n" for key, value in entries))


def read_kv(path) -> dict[str, str]:
    """Parse a flat ``key = value`` file: a manifest, a calibration artifact
    or a CLI config.  Blank lines and ``#`` comments are skipped; a file
    that cannot be read, a line without ``=`` or a key given twice raises
    ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    out: dict[str, str] = {}
    seen: dict[str, int] = {}
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"malformed line in {path}: {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"key {key!r} repeated in {path}, on lines {seen[key]} and {number}")
        seen[key] = number
        out[key] = value.strip()
    return out


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
)

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 64, 168, 40, 56


def _xpix(x, lo, hi) -> float:
    span = (hi - lo) or 1.0
    return _ML + (x - lo) / span * (_W - _ML - _MR)


def _ypix(y) -> float:
    return _H - _MB - y * (_H - _MT - _MB)


def svg_line_chart(
    path,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Minimal deterministic line chart of rates: one polyline per (label,
    xs, ys), on a y axis fixed at [0, 1]."""
    xs_all = [x for _, xs, _ in series for x in xs]
    if not xs_all:
        raise ValueError("cannot plot an empty series collection")
    xlo, xhi = min(xs_all), max(xs_all)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    # axes
    x0, y0 = _ML, _H - _MB
    x1, y1 = _W - _MR, _MT
    parts.append(
        f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" stroke="black" fill="none"/>'
    )
    for i in range(5):
        fx = xlo + (xhi - xlo) * i / 4
        fy = i / 4
        px, py = _xpix(fx, xlo, xhi), _ypix(fy)
        parts.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 4}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle">{fx:.3g}</text>'
        )
        parts.append(f'<line x1="{x0 - 4}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{py:.2f}" text-anchor="end" dominant-baseline="middle">{fy:.3g}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) // 2}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) // 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(y0 + y1) // 2})">{ylabel}</text>'
    )
    for k, (label, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(
            f"{_xpix(float(x), xlo, xhi):.2f},{_ypix(float(y)):.2f}"
            for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MT + 16 * k
        parts.append(
            f'<line x1="{x1 + 10}" y1="{ly}" x2="{x1 + 34}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{x1 + 40}" y="{ly + 4}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
