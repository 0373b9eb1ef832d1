"""Static polar SVG plots of radial profiles. No dependencies, one string out."""

import numpy as np

from .geometry import uniform_grid

VIEW = 480           # square viewport edge in px
MARGIN = 24
SAMPLES = 720        # points on the plotted curve


def _path(points):
    head = f"M {points[0][0]:.2f} {points[0][1]:.2f} "
    return head + " ".join(f"L {x:.2f} {y:.2f}" for x, y in points[1:]) + " Z"


def polar_svg(profile, title=""):
    """Render r(theta) as a closed curve around the origin.

    profile is a callable of theta (a RadiusProfile works); a dashed unit
    circle is drawn for scale. Returns the SVG document as a string.
    """
    theta = uniform_grid(SAMPLES)
    r = np.asarray(profile(theta), dtype=float)
    rmax = max(float(np.max(np.abs(r))), 1.0)
    half = VIEW / 2.0
    scale = (half - MARGIN) / rmax
    xs = half + scale * r * np.cos(theta)
    ys = half - scale * r * np.sin(theta)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" height="{VIEW}" '
        f'viewBox="0 0 {VIEW} {VIEW}">',
        f'<rect width="{VIEW}" height="{VIEW}" fill="white"/>',
        f'<line x1="{MARGIN}" y1="{half}" x2="{VIEW - MARGIN}" y2="{half}" '
        'stroke="#ccc" stroke-width="1"/>',
        f'<line x1="{half}" y1="{MARGIN}" x2="{half}" y2="{VIEW - MARGIN}" '
        'stroke="#ccc" stroke-width="1"/>',
        f'<circle cx="{half}" cy="{half}" r="{scale:.2f}" '
        'fill="none" stroke="#999" stroke-dasharray="4 4" stroke-width="1"/>',
        # Python floats format as numpy's float64 scalars do, at half the cost
        f'<path d="{_path(list(zip(xs.tolist(), ys.tolist())))}" fill="none" '
        'stroke="#1f5fa8" stroke-width="2"/>',
    ]
    if title:
        safe = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<text x="{MARGIN}" y="{MARGIN - 6}" font-family="sans-serif" '
                     f'font-size="14" fill="#333">{safe}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
