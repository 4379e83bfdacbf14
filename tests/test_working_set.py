"""What a large diagram holds, and what parsing, twist detection, the
checkerboard route and a whole certification make.

A parsed diagram keeps the text it was read from, not a list of its
labels, and parse_pd decodes the labels without a string per label.
It keeps its dart map and corners as array('i'), not as lists of ints.
from_json drops its decoded rows and labels before the faces are
traced, so JSON input peaks as PD text does.
Twist detection keeps its regions as a list of signed counts, two
array('i') and bytes, and no stub darts, which collapse reads off the
join gaps.  The checkerboard route lists no edge per crossing: contract
reads the faces at each crossing's gaps off face_at, sums the parallel
families in a dict keyed by one int per pair of faces, and walks the
runs of bigons with one bytearray to mark them.  All are pinned on the
closure of (s1^3 s2^3)^1667, a knot of 10 002 crossings, but for the
tree route, which runs on a path of 3 000 vertices of weight 3.
"""

import pytest

from foliar import (
    LinkDiagram,
    augment,
    braid_to_diagram,
    check_arborescent,
    check_braid,
    check_main,
    check_tait,
    generate_diagram,
    parse_braid,
    parse_pd,
    parse_tree,
    plan_configurations,
    reduce_braid,
)
from foliar.twists import flat_regions

from conftest import traced_memory


CLOSURE = " ".join(["s1^3 s2^3"] * 1667)


@pytest.fixture(scope="module")
def closure_text():
    d = braid_to_diagram(parse_braid(CLOSURE))
    assert len(d) == 10002 and d.component_count() == 1
    return d.to_pd()


def test_a_parsed_diagram_keeps_no_label_list(closure_text):
    # keeping the 40 008 labels took 436 bytes per crossing, and the
    # dart map and corners as lists of ints 290
    kept = traced_memory(parse_pd, closure_text)[0]
    assert kept <= 160 * 10002


def test_parsing_makes_no_string_per_label(closure_text):
    # splitting the text into its 40 008 label strings before int read
    # them peaked at 4.68 MB
    peak = traced_memory(parse_pd, closure_text)[1]
    assert peak <= 3.6e6


def test_the_checkerboard_route_makes_no_index_lists(closure_text):
    # two lists of crossing indices and one of face indices peaked at
    # 2.0 MB; check_main first, so check_tait's type II cancellation is
    # the one both routes share
    d = parse_pd(closure_text)
    check_main(d)
    peak = traced_memory(check_tait, d)[1]
    assert peak <= 1.6e6


def test_twist_regions_are_kept_in_a_few_bytes_per_crossing(closure_text):
    # four stub darts per region and lists of ints kept 116 bytes per
    # crossing
    kept = traced_memory(flat_regions, parse_pd(closure_text))[0]
    assert kept <= 16 * 10002


def _certify(text, read=parse_pd):
    d = read(text)
    check_main(d)
    check_tait(d)
    plan_configurations(augment(d))


def test_a_whole_certification_peaks_under_380_bytes_per_crossing(
    closure_text,
):
    # it peaked at 601 bytes per crossing while detection kept its stubs,
    # and at 494 while the diagram kept lists of ints
    peak = traced_memory(_certify, closure_text)[1]
    assert peak <= 380 * 10002


def test_a_json_certification_peaks_as_a_pd_one_does(closure_text):
    # it peaked at 565 bytes per crossing while from_json kept its
    # decoded rows and labels through the face trace
    text = parse_pd(closure_text).to_json()
    peak = traced_memory(_certify, text, LinkDiagram.from_json)[1]
    assert peak <= 400 * 10002


def _braid_route(text):
    w = parse_braid(text)
    check_braid(w)
    d = braid_to_diagram(reduce_braid(w))
    check_main(d)
    check_tait(d)


def test_the_braid_route_peaks_under_410_bytes_per_crossing():
    # it peaked at 542 bytes per crossing while the diagram kept lists,
    # and at 391 while the builder kept an owner per crossing; 380 now
    peak = traced_memory(_braid_route, CLOSURE)[1]
    assert peak <= 410 * 10002


def _tree_route(text):
    t = parse_tree(text)
    check_arborescent(t)
    d = generate_diagram(t)
    check_main(d)
    check_tait(d)


def test_the_tree_route_peaks_under_450_bytes_per_crossing():
    # it peaked at 583 bytes per crossing while the diagram kept lists,
    # at 578 while the builder also kept its dart map, and at 426 while
    # the builder kept an owner per crossing; 417 now
    path = "(3 " * 2999 + "(3)" + ")" * 2999
    peak = traced_memory(_tree_route, path)[1]
    assert peak <= 450 * 9000
