import pytest

from eszk import InputError, ParseError, Polygon, parse_polygon, polygon_to_json, polygon_to_text


SEVEN_JSON = '{"vertices": [[-13,0],[15,0],[0,16],[18,39],[27,-15],[10,20],[16,30]]}'


def test_parse_json_seven_gon(seven_gon):
    assert parse_polygon(SEVEN_JSON) == seven_gon


def test_parse_text_square(unit_square):
    assert parse_polygon("0 0\n1 0\n1 1\n0 1\n") == unit_square


def test_parse_text_tolerates_blank_lines(unit_square):
    assert parse_polygon("\n  0 0\n\n1 0\t\n1 1\n0 1\n\n  ") == unit_square


def test_parse_bytes(unit_square):
    assert parse_polygon(b"0 0\n1 0\n1 1\n0 1\n") == unit_square


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices": [[0,0],[1.5,2]]}',
        '{"vertices": [[0,0],[true,2]]}',
        '{"vertices": [[0,0],[1]]}',
        '{"vertices": []}',
        '{"points": [[0,0]]}',
        "{not json",
    ],
)
def test_parse_json_rejects(text):
    with pytest.raises(ParseError):
        parse_polygon(text)


@pytest.mark.parametrize("text", ["0 0\n1.5 2\n", "0\n", "a b\n", "", "   \n\n", "1_0 0\n"])
def test_parse_text_rejects(text):
    with pytest.raises(ParseError):
        parse_polygon(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_polygon("0 0\n1 x\n")
    assert "line 2" in str(info.value)
    with pytest.raises(ParseError) as info:
        parse_polygon('{"vertices": [[0,0],[1,2.5]]}')
    assert "vertices[1]" in str(info.value)
    with pytest.raises(ParseError, match="byte 0"):
        parse_polygon(b"\xff")


def test_parse_bound_violation():
    with pytest.raises(InputError):
        parse_polygon('{"vertices": [[0, 1000000001]]}')
    with pytest.raises(InputError):
        parse_polygon("1000000001 0\n")


def test_roundtrip_json(seven_gon):
    assert parse_polygon(polygon_to_json(seven_gon)) == seven_gon


def test_roundtrip_text(seven_gon):
    assert parse_polygon(polygon_to_text(seven_gon)) == seven_gon


def test_roundtrip_negative_coordinates():
    P = Polygon([(-1000000000, 1000000000), (0, 0)])
    assert parse_polygon(polygon_to_text(P)) == P
    assert parse_polygon(polygon_to_json(P)) == P


def test_format_hints(unit_square):
    with pytest.raises(ParseError):
        parse_polygon("0 0\n1 0\n1 1\n0 1\n", fmt="json")
    assert parse_polygon('{"vertices": [[0,0]]}', fmt="json") == Polygon([(0, 0)])
    with pytest.raises(InputError):
        parse_polygon("0 0", fmt="yaml")
