import hashlib

import pytest

from structsim.plots import render_svg

# SHA-256 of each document below: the SVG bytes are pinned, so a change to how
# a series is transformed, filtered or drawn shows here
SERIES = {
    "linear": (
        [("first", [0.0, 1.0, 2.5, 4.0], [3.0, -1.0, 2.0, 0.5]),
         ("second", [0.5, 3.0], [1.0, 1.5])],
        dict(xlabel="time", ylabel="value")),
    "log-log-dropped": (
        [("total infected humans", [0.0, 0.1, 1.0, 10.0, 100.0], [5.0, 2e-3, 0.0, 4e-2, 7.0]),
         ("total infected mosquitoes", [0.0, 0.1, 1.0, 10.0, 100.0],
          [1.0, -2.0, 3e-4, 8e-3, 2e-1])],
        dict(xlabel="time", ylabel="total infected", logx=True, logy=True)),
    "markers-title": (
        [("endemic roots K", [0.4, 0.5, 0.5, 0.8, 1.2], [0.3, 0.1, 0.9, 1.4, 2.0]),
         ("one point", [0.7], [1.1])],
        dict(xlabel="threshold R0", ylabel="infection intensity K",
             title="backward branch", markers=True)),
    "all-dropped": (
        [("gone", [1.0, 2.0, 3.0], [0.0, -1.0, 0.0]),
         ("kept", [1.0, 10.0, 100.0], [2.0, 20.0, 200.0]),
         ("", [0.0, 1.0], [1.0, 1.0])],
        dict(xlabel="x", ylabel="y", logx=True, logy=True)),
    "nothing-drawn": (
        [("gone", [-1.0, 0.0], [1.0, 2.0])],
        dict(xlabel="x", ylabel="y", title="empty", logx=True)),
}

DIGESTS = {
    "linear": "772bdeec5e31e2f3cbe08e926c91209aaad3eb43895b61f28d397f300d20aaf8",
    "log-log-dropped": "473df8655b7a62d6c3b29b579c5c11dfbf2bede93c8e50667c03115296141f8a",
    "markers-title": "ce4491f1c7e7ae0bb541ff8cdfd3d2968aba59eff43de5587d6d9609c5425b28",
    "all-dropped": "48dc81f01b12d663f7f72d3f5d41d64c29eb086a3abd7d422e3a2e09d5c6bf68",
    "nothing-drawn": "482f1e43ed6060a0ae0a6137c1fb3ffb8163c480483af9b58fb82417586ed6ea",
}


@pytest.mark.parametrize("case", sorted(SERIES))
def test_render_svg_bytes_are_pinned(case):
    series, options = SERIES[case]
    svg = render_svg(series, **options)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert hashlib.sha256(svg.encode()).hexdigest() == DIGESTS[case]
