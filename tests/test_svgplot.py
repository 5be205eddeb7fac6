import math
import re

from varexp.svgplot import line_chart


def test_single_x_value_gets_a_unit_span():
    # one x value (a smile with one solved strike) spans [x, x + 1]
    svg = line_chart([("s", [0.9], [0.2])], "title", "strike", "implied vol")
    numbers = [float(v) for v in re.findall(r'\b(?:x|y)\d?="([^"]+)"', svg)]
    assert numbers and all(math.isfinite(v) for v in numbers)
    assert '<polyline points="70.00,' in svg
    assert re.findall(r'font-size="10">([^<]+)</text>', svg)[:5] == \
        ["0.9", "1.15", "1.4", "1.65", "1.9"]
