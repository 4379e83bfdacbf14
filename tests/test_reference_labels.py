"""Label reading against the record-building reference.

parse_pd checks the whole text with one regex and reads the labels into
one flat list; from_json reads its rows into the same list, and
from_darts checks a dart map without deriving labels.  The references
below are the way the package did it before: a token regex per
whitespace-separated token, JSON rows turned into one Crossing record
per crossing, labels validated record by record, and a loop over the
darts.  Both must give the same diagrams, the same text and JSON, and
the same errors with the same messages.
"""

import json
import re
from collections import Counter
from dataclasses import dataclass

import pytest

from foliar import LinkDiagram, braid_to_diagram, parse_braid, parse_pd
from foliar.diagram import _ARRAY, _read_labels, _syntax
from foliar.errors import (
    ArcCountMismatch,
    EmptyDiagram,
    FoliarError,
    InternalError,
    MalformedToken,
    NonSphericalEmbedding,
)

from conftest import (
    CANCELLING_COLUMNS,
    FIG8,
    GRANNY3,
    HOPF,
    KINK,
    SQUARE_KNOT,
    TREFOIL,
    from_rows,
    pieces,
    rows_of,
    seeded,
    trace_faces,
    traced_memory,
    unreduced_inputs,
)

_REF_TOKEN = re.compile(
    r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]"
)


# -- references -------------------------------------------------------------

@dataclass(frozen=True)
class Crossing:
    """The record the package once kept per crossing."""

    slots: tuple
    under_axis: int = 0


class RefDiagram:
    """A diagram kept as Crossing records and validated label by label."""

    def __init__(self, crossings):
        crossings = tuple(crossings)
        for c in crossings:
            if c.under_axis not in (0, 1):
                raise MalformedToken(f"under_axis {c.under_axis}")
        self.crossings = crossings
        m = 2 * len(crossings)
        seen = [0] * (m + 1)
        beyond = 0
        for ci, c in enumerate(crossings):
            if len(c.slots) != 4:
                raise MalformedToken(f"crossing {ci} has {len(c.slots)} slots")
            for a in c.slots:
                if not isinstance(a, int) or a < 1:
                    raise MalformedToken(f"arc label {a!r}")
                if a <= m:
                    seen[a] += 1
                else:
                    beyond += 1
        if beyond or seen.count(2) != m:
            uses = Counter([a for c in crossings for a in c.slots])
            labels = sorted(uses)
            bad = [a for a in labels if uses[a] != 2]
            raise ArcCountMismatch(
                f"expected arcs 1..{m} twice each; "
                f"offending labels {bad or labels}"
            )
        self.arc_count = m
        end = [-1] * (m + 1)
        self.alpha = [-1] * (2 * m)
        for ci, c in enumerate(crossings):
            for s, a in enumerate(c.slots):
                d = 4 * ci + s
                if end[a] < 0:
                    end[a] = d
                else:
                    self.alpha[d] = end[a]
                    self.alpha[end[a]] = d
        n = len(crossings)
        if not n:
            raise EmptyDiagram("no crossings")
        k = pieces(self.alpha)
        if k != 1:
            raise NonSphericalEmbedding(f"projection splits into {k} pieces")
        self.faces, self.face_at = trace_faces(4 * n, self.alpha)
        if len(self.faces) != n + 2:
            raise NonSphericalEmbedding(
                f"{len(self.faces)} faces for {n} crossings"
            )

    def mirror(self):
        return RefDiagram(
            [Crossing(c.slots, 1 - c.under_axis) for c in self.crossings]
        )

    def to_pd(self):
        parts = []
        for c in self.crossings:
            s = c.slots if c.under_axis == 0 else c.slots[1:] + c.slots[:1]
            parts.append("X[%d,%d,%d,%d]" % s)
        return " ".join(parts)

    def to_json(self):
        return json.dumps(
            {
                "crossings": [list(c.slots) for c in self.crossings],
                "under_axis": [c.under_axis for c in self.crossings],
            }
        )


def ref_parse_pd(text):
    crossings = []
    for tok in text.split():
        m = _REF_TOKEN.fullmatch(tok)
        if not m:
            raise MalformedToken(f"bad token {tok!r}")
        crossings.append(Crossing(tuple([int(g) for g in m.groups()])))
    return RefDiagram(crossings)


def ref_from_json(text):
    """JSON rows read into records, then validated as records."""
    try:
        data = json.loads(text)
        slots = data["crossings"]
        axes = data["under_axis"]
        if len(slots) != len(axes):
            raise MalformedToken("crossings and under_axis lengths differ")
        # a row or list of the wrong type raises TypeError here
        crossings = [Crossing(tuple(s), ax) for s, ax in zip(slots, axes)]
    # RecursionError: arrays nested deeper than the decoder can follow
    except (json.JSONDecodeError, KeyError, TypeError, RecursionError) as exc:
        raise MalformedToken(f"bad diagram json: {exc}") from None
    return RefDiagram(crossings)


def ref_lower_dart_records(alpha, axes):
    """Crossing records with arcs numbered in the order of lower darts."""
    labels = [0] * len(alpha)
    arc = 0
    for d, e in enumerate(alpha):
        if d < e:
            arc += 1
            labels[d] = labels[e] = arc
    return [
        Crossing(tuple(labels[4 * k:4 * k + 4]), ax)
        for k, ax in enumerate(axes)
    ]


def ref_bad_dart(alpha):
    """The first dart the loop over a dart map rejects, or None."""
    n = len(alpha)
    for d, e in enumerate(alpha):
        if not 0 <= e < n or e == d or alpha[e] != d:
            return d
    return None


# -- comparison helpers -----------------------------------------------------

def _outcome(fn, arg):
    try:
        return fn(arg), None
    except FoliarError as exc:
        return None, (type(exc), str(exc))


def _records(d):
    return [Crossing(tuple(s), ax) for s, ax in zip(*rows_of(d))]


def _same(got, want):
    assert list(got.alpha) == want.alpha
    assert got.faces == want.faces
    assert got.face_at == want.face_at
    assert got.arc_count == want.arc_count
    assert _records(got) == list(want.crossings)
    assert got.to_pd() == want.to_pd()
    assert got.to_json() == want.to_json()


def _same_outcome(fn, ref, arg):
    got, got_err = _outcome(fn, arg)
    want, want_err = _outcome(ref, arg)
    assert got_err == want_err, arg
    if want is not None:
        _same(got, want)
        _same(got.mirror(), want.mirror())
    return want_err


# -- inputs -----------------------------------------------------------------

def _relabelled(rng, text):
    """text with its labels renamed by a random permutation and its
    tokens joined by assorted whitespace."""
    tokens = text.split()
    m = 2 * len(tokens)
    names = list(range(1, m + 1))
    rng.shuffle(names)
    spaces = [" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\x1c", " \r\n "]
    # whitespace that str.split cuts at and JSON does not know
    spaces += ["\x0b", "\x0c", "\x1d", "\x1e", "\x1f", "\x85"]
    out = []
    for tok in tokens:
        labels = [names[int(a) - 1] for a in tok[2:-1].split(",")]
        out.append("X[%d,%d,%d,%d]" % tuple(labels))
        out.append(rng.choice(spaces))
    return rng.choice(["", "\n", " \t"]) + "".join(out)


def valid_texts():
    texts = [
        TREFOIL, FIG8, HOPF, KINK, SQUARE_KNOT, GRANNY3, CANCELLING_COLUMNS
    ]
    texts += [d.to_pd() for d in unreduced_inputs(120)]
    rng = seeded(31)
    texts += [_relabelled(rng, t) for t in texts]
    return texts


MALFORMED = [
    "X[1,4,2,5] Y[3,6,4,1] X[5,2,6,3]",  # a bad token
    "X[1, 4,2,5] X[3,6,4,1] X[5,2,6,3]",  # whitespace inside X[...]
    "X[1,4,2,5]X[3,6,4,1] X[5,2,6,3]",  # two tokens with no space
    "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]x",
    "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]]",
    "X[1,4,2] X[3,6,4,1] X[5,2,6,3]",
    "X[+1,4,2,5] X[3,6,4,1] X[5,2,6,3]",
    "x[1,4,2,5] X[3,6,4,1] X[5,2,6,3]",
    "X[1,4,2,5] X[]",
    "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3\u2003]",  # Unicode whitespace inside
    "X[\u0661,4,2,5] X[3,6,4,\u0661] X[5,2,6,3]",  # Arabic-Indic 1: valid
    "X[1,4,2,5]\u00a0X[3,6,4,1]\u2003X[5,2,6,3]\x1c",  # Unicode separators
    "X[1,4,2,5] X[3,6,4,1] X[5,2,6,\u00b3]",  # superscript 3 is no digit
    "X[01,4,2,5] X[3,6,4,001] X[5,2,6,3]",  # leading zeros: valid
    "X[0,4,2,5] X[3,6,4,1] X[5,2,6,3]",  # label 0
    "X[1,4,2,7] X[3,6,4,1] X[5,2,6,3]",  # a label out of range
    "X[1,4,2,5] X[3,6,4,1] X[5,2,6,99999999999999999999999]",
    "X[1,1,1,2] X[3,4,3,4]",  # a label used three times
    "X[1,1,1,1] X[2,2,3,3]",  # four times, and label 4 unused
    "X[1,2,3,4] X[4,3,2,1] X[5,6,5,6]",
    "",  # empty text
    " \n\t ",
    "X[1,1,2,2] X[3,3,4,4]",  # two pieces
    "X[1,2,1,2]",  # too few faces
    "X[0,1,2,3] bad",  # the bad token is named before the bad label
]


# -- tests ------------------------------------------------------------------

def test_parse_pd_matches_the_reference_on_valid_texts():
    texts = valid_texts()
    assert len(texts) >= 200
    # each separator JSON does not know is among them
    for c in "\v\f\x1c\x1d\x1e\x1f\x85":
        assert any(c in t for t in texts), repr(c)
    for text in texts:
        assert _same_outcome(parse_pd, ref_parse_pd, text) is None


@pytest.mark.parametrize("text", MALFORMED)
def test_parse_pd_keeps_errors_and_messages(text):
    _same_outcome(parse_pd, ref_parse_pd, text)


def test_parse_pd_matches_the_reference_on_edited_texts():
    # single-character edits of valid texts, mostly malformed
    rng = seeded(37)
    alphabet = "X[],0123456789 \t\u0661\u00a0\u2003-x"
    texts = [TREFOIL, FIG8, GRANNY3, SQUARE_KNOT]
    errors = Counter()
    for _ in range(3000):
        t = list(rng.choice(texts))
        i = rng.randrange(len(t))
        edit = rng.randrange(3)
        if edit == 0:
            del t[i]
        elif edit == 1:
            t.insert(i, rng.choice(alphabet))
        else:
            t[i] = rng.choice(alphabet)
        err = _same_outcome(parse_pd, ref_parse_pd, "".join(t))
        errors[err and err[0].__name__] += 1
    # every error class the text route can raise is exercised
    assert {"MalformedToken", "ArcCountMismatch", None} <= set(errors), errors


def test_the_syntax_check_keeps_no_state_per_token():
    # parse_pd checks a text before it reads any label; matching the
    # whole text with plain repeats held about 420 bytes of regex
    # backtracking state per token, 4 MB at 10^4 crossings, which made
    # the process's peak memory depend on where that block happened to
    # land, and turning each token into a NUL made a copy of the text
    # and two lists, 193 KB; one possessive match keeps neither
    text = " ".join(
        f"X[{k},{k + 1},{k + 2},{k + 3}]" for k in range(1, 40001, 4)
    )
    assert _syntax(text) == (10**4, True)
    assert traced_memory(_syntax, text)[1] < 16 * 1024


_FUZZ_SPACES = [" ", " ", "\t", "\n", "\v", "\x1c", "\x85", "\xa0", "\u2003"]
_FUZZ_DIGITS = ["0123456789", "0123456789", "\u0660\u0661\u0662\u0663"
                "\u0664\u0665\u0666\u0667\u0668\u0669"]  # Arabic-Indic


def _fuzz_pd_text(rng):
    """A PD-like text of up to four tokens, with labels in mixed digits
    and leading zeros, separators of Unicode whitespace or nothing (two
    tokens adjacent), and up to two characters edited in."""
    tokens = []
    for _ in range(rng.randrange(5)):
        labels = []
        for _ in range(4):
            label = "0" * rng.choice((0, 0, 0, 1, 2)) + str(rng.randrange(40))
            labels.append("".join(
                rng.choice(_FUZZ_DIGITS)[int(c)] for c in label
            ))
        tokens.append("X[" + ",".join(labels) + "]")
    text = "".join(
        rng.choice([*_FUZZ_SPACES, ""]) + t for t in tokens
    ) + rng.choice(_FUZZ_SPACES)
    text = list(text)
    for _ in range(rng.choice((0, 0, 1, 2))):
        i = rng.randrange(len(text) + 1)
        text[i:i + rng.randrange(2)] = rng.choice("\0X[],1\u0661 \u2003x-")
    return "".join(text)


def test_parse_pd_reads_fuzzed_texts_as_the_token_reference_does():
    # the reference: a text is valid when all its chunks are tokens, and
    # the first chunk that is not is the one named
    def ref_bad(text):
        return next((
            c for c in text.split()
            if not re.fullmatch(r"X\[\d+,\d+,\d+,\d+\]", c)
        ), None)

    rng = seeded(39)
    texts = [""] + [_fuzz_pd_text(rng) for _ in range(4000)]
    outcomes = Counter()
    for text in texts:
        try:
            parse_pd(text)
            error = ""
        except FoliarError as exc:
            error = str(exc)
        bad = ref_bad(text)
        # the token count and validity, against the reference
        assert _syntax(text) == (
            len(re.findall(r"X\[\d+,\d+,\d+,\d+\]", text)), bad is None
        ), repr(text)
        if bad is None:  # later checks may still refuse the labels
            assert not error.startswith("bad token "), repr(text)
            assert _read_labels(text) == [
                int(x) for x in re.findall(r"\d+", text)
            ], repr(text)
        else:
            assert error == f"bad token {bad!r}"
        outcomes[bad is None, text.isascii()] += 1
    # both outcomes, in ASCII and beyond, and NUL and adjacent tokens
    assert len(outcomes) == 4 and min(outcomes.values()) >= 100, outcomes
    assert sum("\0" in t for t in texts) >= 100
    assert sum("]X[" in t for t in texts) >= 100


@pytest.mark.parametrize(
    "text",
    [
        "X[0,4,2,5] X[3,6,4,1] X[5,2,6,3]",
        "X[0,2,2,0]",  # label 0 pairs, and every other label but 1 does
        "X[00,4,2,7] X[3,6,4,1] X[5,2,6,3]",  # and a label out of range
        "X[1,4,2,5] X[3,6,4,1] X[5,2,6,0]",
    ],
)
def test_label_0_is_the_one_bad_label_of_pd_text(text):
    with pytest.raises(MalformedToken) as exc:
        parse_pd(text)
    assert str(exc.value) == "arc label 0"
    _same_outcome(parse_pd, ref_parse_pd, text)


def test_ascii_whitespace_becomes_json_whitespace():
    # text JSON refuses is read label by label, right but slower, so
    # every ASCII separator that str.split cuts at must decode as JSON
    spaces = [c for c in map(chr, range(128)) if c.isspace()]
    assert len(spaces) == 10
    for c in spaces:
        assert json.loads("[" + f"1{c}".translate(_ARRAY) + "]") == [1]


@pytest.fixture(scope="module")
def closure_text():
    d = braid_to_diagram(parse_braid(" ".join(["s1^3 s2^3"] * 1667)))
    assert len(d) == 10002
    return d.to_pd()


@pytest.mark.parametrize("digit", ["01", "\u0661"])
def test_text_json_refuses_reads_by_int_at_size(closure_text, digit):
    # a leading zero and an Arabic-Indic digit are valid PD text that the
    # JSON decoder refuses, so every label of the text is read by int
    assert closure_text.startswith("X[1,")
    text = f"X[{digit}," + closure_text[4:]
    assert _same_outcome(parse_pd, ref_parse_pd, text) is None


# PD texts and JSON that a diagram reads its labels from again when it
# prints: leading zeros, Arabic-Indic digits, Unicode separators, and
# JSON whose labels and under_axis bits hold bools, which are ints
REREAD = [
    "X[01,4,2,5] X[3,6,4,001] X[5,2,6,3]",
    "X[\u0661,4,2,5] X[3,6,4,\u0661] X[5,2,6,3]",
    "X[1,4,2,5]\u00a0X[3,6,4,1]\u2003X[5,2,6,3]\x1c",
    '{"crossings": [[true, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]],'
    ' "under_axis": [true, 0, false]}',
    ' \n{"under_axis": [0, 1, true], '
    '"crossings": [[1, 4, 2, 5], [3, 6, 4, true], [5, 2, 6, 3]]}',
]


@pytest.mark.parametrize("text", REREAD)
def test_printing_reads_the_labels_again_from_the_text(text):
    # the diagram keeps the text, not its labels, and prints what a
    # diagram keeping a record per crossing prints
    if text.lstrip().startswith("{"):
        got, want = LinkDiagram.from_json(text), ref_from_json(text)
    else:
        got, want = parse_pd(text), ref_parse_pd(text)
    labels = [a for c in want.crossings for a in c.slots]
    assert not [v for v in vars(got).values() if v == labels]
    for got, want in ((got, want), (got.mirror(), want.mirror())):
        assert got.to_pd() == want.to_pd()
        assert got.to_json() == want.to_json()


def _pd_records(text):
    return [
        Crossing(tuple([int(a) for a in tok[2:-1].split(",")]))
        for tok in text.split()
    ]


RECORDS = [
    [Crossing((1, 4, 2, 5), 2)] + _pd_records(TREFOIL)[1:],
    [Crossing((1, 4, 2, 5), True)] + _pd_records(TREFOIL)[1:],
    [Crossing((1, 4, 2.0, 5))] + _pd_records(TREFOIL)[1:],
    [Crossing((1, "4", 2, 5))] + _pd_records(TREFOIL)[1:],
    [Crossing((1, 4, 2, None))] + _pd_records(TREFOIL)[1:],
    [Crossing((True, 4, 2, 5))] + _pd_records(TREFOIL)[1:],
    [Crossing((1, 4, 2, 5, 6))] + _pd_records(TREFOIL)[1:],
    # a bad label is named before a later crossing's slot count ...
    [Crossing((1, "a", 2, 5)), Crossing((3, 6, 4))],
    # ... but a crossing's slot count before its own labels
    [Crossing((3, 6, 4, 1)), Crossing(("a", 2, 6))],
    [Crossing((1, 4, 2, 5)), Crossing((3, 6, 4, 1))],
    [],
    _pd_records(FIG8),
    [Crossing(c.slots, 1) for c in _pd_records(SQUARE_KNOT)],
]


def _from_records(records):
    return from_rows(
        [list(c.slots) for c in records], [c.under_axis for c in records]
    )


@pytest.mark.parametrize("records", RECORDS)
def test_records_keep_errors_and_messages(records):
    _same_outcome(_from_records, RefDiagram, records)


def test_json_round_trip_matches_the_reference():
    for text in valid_texts()[:60]:
        want = ref_parse_pd(text).mirror()
        _same(LinkDiagram.from_json(want.to_json()), want)


def _edit_json(rng, rows, axes):
    """One random edit of JSON rows and axes, mostly making them bad."""
    if not (isinstance(rows, list) and isinstance(axes, list)):
        return rows, axes  # a field already replaced whole
    i = rng.randrange(len(rows)) if rows else 0
    row = rows[i] if rows and isinstance(rows[i], list) else None
    edit = rng.randrange(9)
    if edit == 0 and rows:  # a row that is no list of labels
        rows[i] = rng.choice([7, "1452", {"1": 4}, None, 2.5, True])
    elif edit == 1 and row:  # 3 or 5 labels
        rows[i] = row[:3] if rng.random() < 0.5 else row + [row[0]]
    elif edit == 2 and row:  # a label of the wrong type or value
        row[rng.randrange(len(row))] = rng.choice(
            [2.0, 1.5, True, False, None, "4", 0, -1, 10 ** 20, [1]]
        )
    elif edit == 3 and row:  # a label out of place: ArcCountMismatch
        row[rng.randrange(len(row))] = rng.randint(1, 2 * len(rows) + 1)
    elif edit == 4 and axes:  # an under_axis of the wrong type or value
        axes[rng.randrange(len(axes))] = rng.choice(
            [[0], [], True, False, 2, -1, 1.5, None, "0", {"a": 0}]
        )
    elif edit == 5:  # lengths that differ
        if axes and rng.random() < 0.5:
            axes.pop()
        else:
            axes.append(0)
    elif edit == 6:  # a whole field of the wrong type
        if rng.random() < 0.5:
            return rng.choice([5, "abcd", {"1": 2}, None, True]), axes
        return rows, rng.choice([True, 0, None, "01", {"0": 1}])
    elif edit == 7 and rows:  # a row nested past the decoder's depth
        rows[i] = "DEEP"
    else:  # both flipped, which keeps them valid
        axes = [1 - a if type(a) is int and a in (0, 1) else a for a in axes]
    return rows, axes


def malformed_json(n):
    rng = seeded(47)
    bases = [TREFOIL, FIG8, HOPF, KINK, SQUARE_KNOT, GRANNY3]
    bases += [d.to_pd() for d in unreduced_inputs(20)]
    texts = [
        "", "[]", "7", '"x"', "null", "{}", '{"crossings": []}',
        '{"under_axis": []}', '{"crossings": [], "under_axis": []}',
        "[" * 10 ** 5 + "]" * 10 ** 5,
    ]
    while len(texts) < n:
        rows, axes = rows_of(parse_pd(rng.choice(bases)))
        for _ in range(rng.randint(1, 3)):
            rows, axes = _edit_json(rng, rows, axes)
        text = json.dumps({"crossings": rows, "under_axis": axes})
        texts.append(text.replace('"DEEP"', "[" * 5000 + "]" * 5000))
    return texts


def test_from_json_keeps_errors_and_messages():
    errors = Counter()
    for text in malformed_json(2000):
        err = _same_outcome(LinkDiagram.from_json, ref_from_json, text)
        errors[err and err[1].split(" ")[0]] += 1
    # each check of the JSON route is reached, and some edits stay valid
    assert {
        "bad", "crossings", "under_axis", "crossing", "arc", "expected", None
    } <= set(errors), errors


@pytest.mark.parametrize(
    "axes, bad",
    [([1.0, 0, 0], "1.0"), ([0, 0.0, 0], "0.0"), ([0, 1, 1.0], "1.0")],
)
def test_from_json_rejects_an_under_axis_that_is_no_int(axes, bad):
    # the record path compared under_axis with 0 and 1 only, so 1.0 got
    # through to the twist layer, which fails on a float with TypeError
    rows = [list(c.slots) for c in _pd_records(TREFOIL)]
    text = json.dumps({"crossings": rows, "under_axis": axes})
    with pytest.raises(MalformedToken) as exc:
        LinkDiagram.from_json(text)
    assert str(exc.value) == f"under_axis {bad}"


def test_built_diagrams_print_the_lower_dart_labels():
    for d in unreduced_inputs(120):
        want = RefDiagram(ref_lower_dart_records(d.alpha, d.axes))
        _same(d, want)
        _same(d.mirror(), want.mirror())


BAD_MAPS = [
    ([0, 2, 1, 3], [0]),  # darts 0 and 3 are their own partners
    ([1, 2, 3, 0], [0]),  # a 4-cycle, not an involution
    ([1, 0, 3, 4], [0]),  # a dart beyond the map
    ([1, 0, -1, 2], [0]),  # a negative dart
    ([1, 0, 3, 2, 5, 4, 7, 7], [0, 1]),
    ([4, 5, 6, 7, 0, 1, 2, 2], [0, 0]),
]


@pytest.mark.parametrize("alpha, axes", BAD_MAPS)
def test_from_darts_names_the_first_bad_dart(alpha, axes):
    with pytest.raises(InternalError) as exc:
        LinkDiagram.from_darts(alpha, axes)
    d = ref_bad_dart(alpha)
    assert d is not None
    assert str(exc.value) == (
        f"dart map is not a fixed-point-free involution at {d}"
    )


def test_from_darts_names_the_first_bad_dart_of_corrupted_maps():
    rng = seeded(41)
    seen = 0
    for d in unreduced_inputs(80):
        alpha = list(d.alpha)
        x = rng.randrange(len(alpha))
        alpha[x] = rng.choice([x, -1, len(alpha), rng.randrange(len(alpha))])
        bad = ref_bad_dart(alpha)
        if bad is None:
            continue
        with pytest.raises(InternalError) as exc:
            LinkDiagram.from_darts(alpha, d.axes)
        assert str(exc.value).endswith(f" at {bad}")
        seen += 1
    assert seen >= 40
