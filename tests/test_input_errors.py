"""Input errors with their class and message, in the library and at the
command line, where each exits 2 without a traceback."""

import json
import sys

import pytest

from foliar import (
    LinkDiagram,
    Slope,
    braid_to_diagram,
    check_arborescent,
    circles_from_counts,
    family_tree,
    generate_diagram,
    make_pretzel_pd,
    parse_braid,
    parse_pd,
    parse_tree,
    plan_configurations,
)
from foliar.arborescent import WeightedPlanarTree
from foliar.braids import BraidWord, Syllable
from foliar.errors import (
    BadGenerator,
    InputError,
    MalformedToken,
    MalformedTree,
    Unsatisfiable,
    ZeroK,
    ZeroWeight,
)
from foliar.cli import main
from foliar.surgery import CrossingCircle

from test_cli import run

BIG = 10**20  # the list of darts for it overflows an index
HUGE = 2**61  # as does its 4 * 2**61 darts


@pytest.mark.parametrize(
    "call, cls, message",
    [
        (lambda: parse_tree("x"), MalformedTree, "expected '('"),
        (lambda: parse_tree("( )"), MalformedTree,
         "expected a weight, got ')'"),
        (lambda: parse_tree("(1) (2)"), MalformedTree,
         "trailing input ['(', '2', ')']"),
        (lambda: family_tree("two_bridge", []), MalformedTree,
         "two_bridge needs at least one weight"),
        (lambda: family_tree("pretzel", []), MalformedTree,
         "pretzel needs at least one strip"),
        (lambda: family_tree("montesinos", [3]), MalformedTree,
         "montesinos needs a centre and arms"),
        (lambda: family_tree("torus", [2, 3]), MalformedTree,
         "unknown family 'torus'"),
        (lambda: make_pretzel_pd([3, 0]), ZeroWeight,
         "strips need nonzero twist counts"),
        (lambda: parse_braid("s1^2 t"), MalformedToken, "bad syllable 't'"),
        (lambda: braid_to_diagram(BraidWord(2, (Syllable(2, 3),))),
         BadGenerator, "s2 in a 2-strand braid"),
        (lambda: Slope(0, 0), MalformedToken, "0/0 is not a slope"),
        (lambda: Slope.parse("1/x"), MalformedToken, "bad slope '1/x'"),
        (lambda: Slope(1, 0).as_fraction(), InputError,
         "infinity has no fraction value"),
        # hand-built odd circles with k = 0: alone, and behind a strong one
        (lambda: plan_configurations([CrossingCircle(0, 3, 0, Slope(1, 0))]),
         InputError, "odd configuration needs a nonzero k"),
        (lambda: plan_configurations(
            [*circles_from_counts([4]), CrossingCircle(1, 1, 0, Slope(1, 0))]
        ), InputError, "odd configuration needs a nonzero k"),
        (lambda: plan_configurations([]), Unsatisfiable,
         "no crossing circles"),
        (lambda: circles_from_counts([0]), ZeroK, "count 0 has no crossings"),
        # a weight is checked by operator.index: 2.5 once built as 2, "x"
        # escaped as ValueError and a bare Montesinos arm as TypeError
        (lambda: family_tree("pretzel", [2.5, 3]), InputError,
         "weight 2.5 is not an integer"),
        (lambda: make_pretzel_pd([2.5, 3]), InputError,
         "weight 2.5 is not an integer"),
        (lambda: circles_from_counts([2.5]), InputError,
         "count 2.5 is not an integer"),
        (lambda: family_tree("two_bridge", [2, "x"]), InputError,
         "weight 'x' is not an integer"),
        (lambda: family_tree("montesinos", [3, [2], []]), MalformedTree,
         "montesinos arm [] is not a path"),
        (lambda: family_tree("montesinos", [3, 5]), MalformedTree,
         "montesinos arm 5 is not a path"),
        (lambda: generate_diagram(WeightedPlanarTree([2.5, 3], [None, 0])),
         InputError, "weight 2.5 is not an integer"),
        # a parent array that does not describe a preorder tree once
        # escaped as IndexError or TypeError, or built a split diagram
        (lambda: WeightedPlanarTree([2, 3], [None]), MalformedTree,
         "parent [None] needs None first and one entry per weight"),
        (lambda: WeightedPlanarTree([2, 3], [None, 0, 0]), MalformedTree,
         "parent [None, 0, 0] needs None first and one entry per weight"),
        (lambda: WeightedPlanarTree([2, 3], [0, None]), MalformedTree,
         "parent [0, None] needs None first and one entry per weight"),
        (lambda: WeightedPlanarTree([], []), MalformedTree,
         "parent [] needs None first and one entry per weight"),
        (lambda: WeightedPlanarTree([2, 3], [None, 5]), MalformedTree,
         "vertex 1 has parent 5, not in 0..0"),
        (lambda: WeightedPlanarTree([2, 3], [None, 1]), MalformedTree,
         "vertex 1 has parent 1, not in 0..0"),
        (lambda: WeightedPlanarTree([2, 3], [None, -1]), MalformedTree,
         "vertex 1 has parent -1, not in 0..0"),
        (lambda: WeightedPlanarTree([2, 3, 4], [None, 0, None]),
         MalformedTree, "vertex 2 has parent None, not in 0..1"),
        (lambda: WeightedPlanarTree([2, 3], [None, 0.0]), MalformedTree,
         "vertex 1 has parent 0.0, not in 0..0"),
    ],
)
def test_input_errors_name_their_cause(call, cls, message):
    with pytest.raises(cls) as exc:
        call()
    assert type(exc.value) is cls
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "argv, message",
    [
        (("tree", "x"), "expected '('"),
        (("tree", "( )"), "expected a weight, got ')'"),
        (("tree", "(1) (2)"), "trailing input ['(', '2', ')']"),
        (("braid", "s1^2 t"), "bad syllable 't'"),
        (("borromean", "0/0", "1", "1"), "0/0 is not a slope"),
        (("borromean", "1/x", "1", "1"), "bad slope '1/x'"),
        (("borromean", "abc", "1", "1"), "bad slope 'abc'"),
        # digits, but no slope: not mistaken for an over-long integer
        (("borromean", "1/2/3", "1", "1"), "bad slope '1/2/3'"),
        # int() reads 1_0 as 10; no parser of the package takes "_"
        (("borromean", "1_0", "3", "5"), "bad slope '1_0'"),
        (("borromean", "1/1_0", "3", "5"), "bad slope '1/1_0'"),
        # an integer is an optional - and decimal digits, with no + and no
        # space inside; int() took both, and read these slopes as 1 and 1/2
        (("borromean", "+1", "3", "5"), "bad slope '+1'"),
        (("borromean", "1 / 2", "3", "5"), "bad slope '1 / 2'"),
        (("check", "X[+1,2,2,1]"), "bad token 'X[+1,2,2,1]'"),
        (("braid", "s1^+3 s2^-3"), "bad syllable 's1^+3'"),
        (("tree", "(+3 (2) (2))"), "expected a weight, got '+3'"),
        (("tree", "(3 (2) (1 0))"), "expected ')'"),
    ],
)
def test_the_cli_exits_2_on_input_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# -- weights too large to build -----------------------------------------------

def _too_large(n):
    return f"a weight of {n} crossings is too large to build"


@pytest.mark.parametrize(
    "call, n",
    [
        (lambda: make_pretzel_pd([BIG, 3]), BIG),
        (lambda: make_pretzel_pd([3, -HUGE]), HUGE),
        (lambda: generate_diagram(parse_tree(f"({HUGE} (3))")), HUGE),
        (lambda: braid_to_diagram(parse_braid(f"s1^{BIG} s2^3", 3)), BIG),
    ],
)
def test_an_oversized_weight_is_an_input_error(call, n):
    with pytest.raises(InputError) as exc:
        call()
    assert type(exc.value) is InputError
    assert str(exc.value) == _too_large(n)


@pytest.mark.parametrize(
    "argv, n",
    [
        (("tree", f"({BIG})"), BIG),
        (("tree", f"(3 ({HUGE}))", "--crosscheck"), HUGE),
        (("braid", f"s1^{BIG} s2^3", "--strands", "3", "--crosscheck"), BIG),
    ],
)
def test_the_cli_exits_2_on_an_oversized_weight(capsys, argv, n):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {_too_large(n)}\n")


def test_corpus_reports_an_oversized_weight_and_goes_on(tmp_path, capsys):
    (tmp_path / "a.tree").write_text(f"({BIG})")
    (tmp_path / "b.braid").write_text(f"s1^{HUGE} s2^3")
    (tmp_path / "c.tree").write_text("(3 (3) (3))")
    code, out, err = run(capsys, "corpus", str(tmp_path), "--crosscheck")
    assert (code, err) == (2, "")
    assert [json.loads(line) for line in out.splitlines()] == [
        {"file": "a.tree", "error": _too_large(BIG)},
        {"file": "b.braid", "error": _too_large(HUGE)},
        {"file": "c.tree", "status": "certified", "reasons": [],
         "diagram_status": "certified"},
        {"files": 3, "certified": 1, "fail": 0, "excluded": 0},
    ]


# -- integers beyond the interpreter's digit limit ----------------------------

# longer than the 4 300 digits CPython converts by default; on an
# interpreter with no limit each input fails later, still as bad input
LONG = "9" * 5000
LIMITED = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(LONG)
LONG_PD = f"X[1,4,2,{LONG}] X[3,6,4,1] X[5,2,6,3]"
LONG_JSON = (
    f'{{"crossings": [[1, 4, 2, {LONG}], [3, 6, 4, 1], [5, 2, 6, 3]], '
    '"under_axis": [0, 0, 0]}'
)


@pytest.mark.parametrize(
    "call",
    [
        lambda: parse_pd(LONG_PD),
        lambda: LinkDiagram.from_json(LONG_JSON),
        lambda: check_arborescent(parse_tree(f"(3 ({LONG}))")),
        lambda: braid_to_diagram(parse_braid(f"s1^{LONG} s2^3", 3)),
    ],
)
def test_an_overlong_integer_is_an_input_error(call):
    with pytest.raises(InputError) as exc:
        call()
    if LIMITED:  # the parser names the integer without all its digits
        assert "of 5000 digits is too long" in str(exc.value)
        assert LONG not in str(exc.value)


@pytest.mark.parametrize(
    "argv",
    [
        ("check", LONG_PD),
        ("check", LONG_JSON),
        ("tree", f"(3 ({LONG}))"),
        ("braid", f"s1^{LONG} s2^3", "--strands", "3", "--diagram"),
    ],
)
def test_the_cli_exits_2_on_an_overlong_integer(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_corpus_reports_an_overlong_integer_and_goes_on(tmp_path, capsys):
    (tmp_path / "a.tree").write_text(f"(3 ({LONG}))")
    (tmp_path / "b.pd").write_text("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
    code, out, err = run(capsys, "corpus", str(tmp_path))
    assert (code, err) == (2, "")
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0]["file"] == "a.tree" and "error" in rows[0]
    assert rows[1:] == [
        {"file": "b.pd", "status": "excluded", "reasons": ["DkDiagram(3)"]},
        {"files": 2, "certified": 0, "fail": 0, "excluded": 1},
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("borromean", LONG, "1", "2"),
        ("borromean", f"1/{LONG}", "1", "2"),
        ("braid", "s1^3", "--strands", LONG),
    ],
    ids=["slope", "fraction slope", "strands"],
)
def test_the_cli_names_an_overlong_integer_without_echoing_it(capsys, argv):
    # argparse refuses --strands with SystemExit; without a digit limit
    # the integer is accepted, so no exit code is asserted
    try:
        main(list(argv))
    except SystemExit:
        pass
    cap = capsys.readouterr()
    lines = (cap.out + cap.err).splitlines()
    assert lines and not any(LONG in line for line in lines)
    if LIMITED:
        assert "integer 99999999... of 5000 digits is too long" in cap.err


def test_strands_that_are_no_integer_are_still_echoed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["braid", "s1^3", "--strands", "abc"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --strands: invalid int value: 'abc'\n")


def test_strands_with_an_underscore_are_no_integer(capsys):
    # int() reads 1_1 as 11, which would judge the word on 11 strands; it
    # also took +3 and 1 1 as integers, which no other reader does
    for text in ("1_1", "+3", "1 1"):
        with pytest.raises(SystemExit) as exc:
            main(["braid", "s1^3 s2^-3", "--strands", text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(
            f"error: argument --strands: invalid int value: {text!r}\n"
        )


def _strands(text):
    return main(["braid", "s1^3 s2^-3", "--strands", text])


@pytest.mark.parametrize(
    "call",
    [
        lambda: parse_pd("X[1_0,2,2,1]"),
        lambda: parse_braid("s1^1_0"),
        lambda: parse_tree("(1_0)"),
        lambda: Slope.parse("1_0"),
        lambda: _strands("1_0"),
        # nor a + or a space inside the number
        lambda: parse_pd("X[+1,2,2,1]"),
        lambda: parse_braid("s1^+3"),
        lambda: parse_tree("(+3)"),
        lambda: Slope.parse("+3"),
        lambda: _strands("+3"),
        lambda: parse_pd("X[1 0,2,2,1]"),
        lambda: parse_braid("s1^1 0"),
        lambda: parse_tree("(1 0)"),
        lambda: Slope.parse("1 / 2"),
        lambda: _strands("1 0"),
    ],
)
def test_no_reader_takes_an_underscore(call, capsys):
    # bad --strands is refused by argparse, with exit 2
    with pytest.raises((InputError, SystemExit)) as exc:
        call()
    assert not isinstance(exc.value, SystemExit) or exc.value.code == 2


def test_unicode_decimal_digits_are_read_as_digits(capsys):
    # An integer is an optional - and decimal digits, and a decimal digit
    # is any Unicode one, here Arabic-Indic, in all five readers: \d and
    # int() both take them, and refusing them would change what parses.
    pd = parse_pd("X[\u0661,\u0662,\u0662,\u0661]")
    assert (pd.alpha, pd.axes) == (parse_pd("X[1,2,2,1]").alpha, [0])
    assert parse_braid("s\u0661^\u0663 s2^-3") == parse_braid("s1^3 s2^-3")
    tree = parse_tree("(\u0663 (\u0662) (\u0662))")
    assert tree.to_text() == "(3 (2) (2))"
    assert Slope.parse("\u0661/\u0662") == Slope(1, 2)
    code, out, _ = run(capsys, "braid", "s1^3 s2^-3", "--strands", "\u0663")
    assert code == 0 and json.loads(out)["status"] == "certified"
