import math
import re
from pathlib import Path

import pytest

from amigram import (
    NonIntegerDimension,
    NotAmicable,
    Parallelogram,
    RenderError,
    RenderSpec,
    model_vertices,
    render_svg,
)

GOLDEN = Path(__file__).parent / "golden"

NUMBER = re.compile(r"-?\d+\.\d{9}")


class TestModelVertices:
    def test_rectangle_has_no_shear(self):
        assert model_vertices(Parallelogram(7, 6, 42)) == [
            (0.0, 0.0),
            (7.0, 0.0),
            (7.0, 6.0),
            (0.0, 6.0),
        ]

    def test_sheared_shape(self):
        # height 13/4, shear offset sqrt(13^2 - (13/4)^2) = sqrt(2535/16)
        vertices = model_vertices(Parallelogram(8, 13, 26))
        offset = math.sqrt(2535 / 16)
        expect = [(0.0, 0.0), (8.0, 0.0), (8.0 + offset, 3.25), (offset, 3.25)]
        for (gx, gy), (ex, ey) in zip(vertices, expect):
            assert gx == pytest.approx(ex, rel=1e-9)
            assert gy == pytest.approx(ey, rel=1e-9)

    def test_degenerate_sliver_is_nearly_flat(self):
        vertices = model_vertices(Parallelogram(5, 4, 1))
        assert vertices[2][1] == pytest.approx(0.2)
        assert vertices[2][0] == pytest.approx(5 + math.sqrt(16 - 0.04), rel=1e-12)


class TestRenderSvg:
    def test_structure(self):
        svg = render_svg(RenderSpec(Parallelogram(7, 6, 42)))
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
        assert '<svg xmlns="http://www.w3.org/2000/svg" width="640"' in svg
        assert svg.count("<polygon") == 1
        assert "base=7 side=6 area=42 perimeter=26" in svg
        assert svg.endswith("</svg>\n")

    def test_companion_draws_two_shapes(self):
        svg = render_svg(RenderSpec(Parallelogram(7, 6, 42), include_companion=True))
        assert svg.count("<polygon") == 2
        assert "base=7 side=6 area=42 perimeter=26" in svg
        assert "base=11 side=10 area=26 perimeter=42" in svg

    def test_companion_of_non_amicable_raises(self):
        with pytest.raises(NotAmicable):
            render_svg(RenderSpec(Parallelogram(3, 4, 9), include_companion=True))

    def test_deterministic(self):
        spec = RenderSpec(Parallelogram(8, 13, 26), include_companion=True)
        assert render_svg(spec) == render_svg(spec)

    def test_matches_golden(self):
        spec = RenderSpec(Parallelogram(7, 6, 42), include_companion=True)
        golden = (GOLDEN / "render_7_6_42.svg").read_text()
        assert render_svg(spec) == golden

    def test_coordinates_have_fixed_width_format(self):
        svg = render_svg(RenderSpec(Parallelogram(8, 13, 26)))
        points = re.search(r'points="([^"]+)"', svg).group(1)
        for token in points.replace(",", " ").split():
            assert NUMBER.fullmatch(token), token

    def test_all_points_inside_canvas(self):
        spec = RenderSpec(Parallelogram(9, 40, 40), include_companion=True)
        svg = render_svg(spec)
        for match in re.finditer(r'points="([^"]+)"', svg):
            for token in match.group(1).replace(",", " ").split():
                assert 0.0 <= float(token) <= 640.0

    def test_canvas_too_small_rejected(self):
        with pytest.raises(ValueError):
            render_svg(RenderSpec(Parallelogram(7, 6, 42), width=40, margin=24))

    def test_custom_canvas_dimensions_respected(self):
        svg = render_svg(RenderSpec(Parallelogram(4, 4, 16), width=300, height=200))
        assert 'width="300" height="200" viewBox="0 0 300 200"' in svg


class TestRenderSpecChecks:
    SHAPE = Parallelogram(7, 6, 42)

    @pytest.mark.parametrize("shape", ["x", (7, 6, 42), None])
    def test_non_parallelogram_is_refused(self, shape):
        with pytest.raises(RenderError):
            RenderSpec(shape)

    def test_parallelogram_subclass_is_refused(self):
        # Checked by identity, as a Verdict and a FamilyEntry check theirs.
        class Shape(Parallelogram):
            __slots__ = ()

        with pytest.raises(RenderError) as info:
            RenderSpec(Shape(7, 6, 42))
        assert str(info.value) == "can only draw a Parallelogram, got Shape"

    @pytest.mark.parametrize("field", ["width", "height", "margin"])
    @pytest.mark.parametrize("value", [700.5, "360", True, False, None])
    def test_non_int_dimension_is_refused(self, field, value):
        with pytest.raises(NonIntegerDimension, match=field):
            RenderSpec(self.SHAPE, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("width", 0), ("width", -640), ("height", 0), ("height", -1), ("margin", -5)],
    )
    def test_dimension_out_of_range_is_refused(self, field, value):
        with pytest.raises(RenderError, match=field):
            RenderSpec(self.SHAPE, **{field: value})

    def test_huge_negative_margin_is_named_in_full(self):
        with pytest.raises(RenderError, match="margin must be at least 0, got -1000"):
            RenderSpec(self.SHAPE, margin=-(10**5000))

    @pytest.mark.parametrize("flag", ["no", 1, 0, None])
    def test_non_bool_include_companion_is_refused(self, flag):
        with pytest.raises(RenderError, match="include_companion"):
            RenderSpec(self.SHAPE, include_companion=flag)

    def test_zero_margin_stays_inside_canvas(self):
        svg = render_svg(RenderSpec(self.SHAPE, include_companion=True, margin=0))
        for match in re.finditer(r'points="([^"]+)"', svg):
            for token in match.group(1).replace(",", " ").split():
                assert 0.0 <= float(token) <= 640.0
