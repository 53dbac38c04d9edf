import pytest
from oracles import exact_div

from germflow import parse_poly
from germflow.errors import SeriesError


def test_exact_division():
    f = parse_poly("f = y^2 - 2*x^2y + x^4")
    g = parse_poly("f = y - x^2")
    assert exact_div(f, g) == g
    with pytest.raises(SeriesError):
        exact_div(parse_poly("f = y^2 - x^3"), g)
