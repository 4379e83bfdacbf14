import json
import os

import pytest

from foliar import make_pretzel_pd
from foliar.cli import main
from foliar.errors import InternalError

from conftest import FIG8, GRANNY3, HOPF, KINK, TREFOIL


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_check_verdict(capsys):
    code, out, _ = run(capsys, "check", TREFOIL)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "excluded"
    assert payload["reasons"] == ["DkDiagram(3)"]


def test_check_file_and_json_input(tmp_path, capsys):
    p = tmp_path / "d.pd"
    p.write_text(FIG8 + "\n")
    code, out, _ = run(capsys, "check", "-f", str(p))
    assert code == 0
    assert json.loads(out)["status"] == "fail"

    from foliar import parse_pd

    code, out, _ = run(capsys, "check", parse_pd(FIG8).to_json())
    assert json.loads(out)["status"] == "fail"


def test_check_diagnose(capsys):
    code, out, _ = run(capsys, "check", FIG8, "--diagnose")
    payload = json.loads(out)
    assert payload["branch"] == "two_crossing_circles"
    assert payload["surfaces"] == 4
    assert payload["verdict"]["status"] == "fail"


def test_check_crosscheck_agrees(capsys):
    code, out, _ = run(capsys, "check", FIG8, "--crosscheck")
    assert code == 0
    assert json.loads(out)["tait_status"] == "fail"


def test_check_emit_dot(tmp_path, capsys):
    target = tmp_path / "dots"
    code, out, _ = run(capsys, "check", FIG8, "--emit-dot", str(target))
    assert code == 0
    names = sorted(os.listdir(target))
    assert names == ["collapsed.dot", "side_green.dot", "side_red.dot"]
    texts = {n: (target / n).read_text() for n in names}
    assert texts == {
        "collapsed.dot": (
            "graph collapsed {\n"
            '  v0 [label="2@+1"];\n'
            '  v1 [label="2@-1"];\n'
            "  v0 -- v1;\n"
            "  v0 -- v1;\n"
            "  v0 -- v1;\n"
            "  v0 -- v1;\n"
            "}\n"
        ),
        "side_green.dot": (
            "graph side_green {\n"
            "  f0;\n"
            "  f2;\n"
            '  f0 -- f2 [label="+2"];\n'
            "}\n"
        ),
        "side_red.dot": (
            "graph side_red {\n"
            "  f1;\n"
            "  f3;\n"
            '  f1 -- f3 [label="-2"];\n'
            "}\n"
        ),
    }


def test_check_emit_dot_on_a_link_writes_no_file(tmp_path, capsys):
    target = tmp_path / "dots"
    code, out, _ = run(capsys, "check", HOPF, "--emit-dot", str(target))
    assert code == 0
    assert json.loads(out)["reasons"] == ["NotAKnot(2)"]
    assert os.listdir(target) == []


def test_check_crosscheck_disagreement_exits_3(capsys, monkeypatch):
    from dataclasses import replace

    from foliar.criterion import Status
    from foliar.tait import check_tait

    def check_tait_excluded(d):
        return replace(check_tait(d), status=Status.EXCLUDED)

    monkeypatch.setattr("foliar.cli.check_tait", check_tait_excluded)
    code, out, _ = run(capsys, "check", FIG8, "--crosscheck")
    assert code == 3
    payload = json.loads(out)
    assert (payload["status"], payload["tait_status"]) == ("fail", "excluded")
    assert "note" not in payload


def test_check_input_error_exit_code(capsys):
    code, out, err = run(capsys, "check", "X[1,4,2,5] X[3,6,4,1]")
    assert code == 2
    assert "error:" in err


def test_check_missing_file_is_input_error(tmp_path, capsys):
    code, out, err = run(capsys, "check", "-f", str(tmp_path / "missing.pd"))
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def _unreadable(tmp_path, kind):
    """A path under tmp_path that cannot be read as UTF-8 text."""
    p = tmp_path / "a.pd"
    if kind == "undecodable":
        p.write_bytes(b"\xff\xfe")
    else:
        p.mkdir()
    return p


@pytest.mark.parametrize("command", ["check", "augment"])
@pytest.mark.parametrize("kind", ["undecodable", "directory"])
def test_unreadable_file_is_input_error(tmp_path, capsys, command, kind):
    p = _unreadable(tmp_path, kind)
    code, out, err = run(capsys, command, "-f", str(p))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert out == ""


NESTED = "[" * 100_000 + "]" * 100_000
TREFOIL_ROWS = "[[1,5,2,4],[3,1,4,6],[5,3,6,2]]"


@pytest.mark.parametrize(
    "text",
    [
        '{"crossings": 5, "under_axis": [0]}',
        '{"crossings": [[1,2,3]], "under_axis": 0}',
        '{"crossings": [5], "under_axis": [0]}',
        '{"crossings": %s, "under_axis": [0]}' % NESTED,
        # 1.0 used to pass validation and end in a TypeError, 0.0 in a
        # verdict
        '{"crossings": %s, "under_axis": [1.0,0,0]}' % TREFOIL_ROWS,
        '{"crossings": %s, "under_axis": [0.0,0,0]}' % TREFOIL_ROWS,
    ],
    ids=["crossings", "under_axis", "row", "nested", "float 1", "float 0"],
)
def test_check_json_wrong_types_are_input_errors(text, capsys):
    code, out, err = run(capsys, "check", text)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_braid_command(capsys):
    code, out, _ = run(capsys, "braid", "s1^3 s2^-3", "--crosscheck")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "certified"
    assert payload["diagram_status"] == "certified"


def test_braid_diagram_prints_the_closure(capsys):
    code, out, _ = run(capsys, "braid", "s1^3 s2^-3", "--diagram")
    assert code == 0
    payload = json.loads(out)
    assert "diagram_status" not in payload
    assert payload["pd"] == (
        "X[1,2,3,4] X[4,3,5,6] X[6,5,2,7] X[7,8,9,10] X[8,11,12,9] "
        "X[11,1,10,12]"
    )


def test_braid_crosscheck_disagreement_exits_3(capsys, monkeypatch):
    from dataclasses import replace

    from foliar.criterion import Status, check_main

    def check_main_failed(d):
        return replace(check_main(d), status=Status.HYPOTHESES_FAIL)

    monkeypatch.setattr("foliar.cli.check_main", check_main_failed)
    code, out, _ = run(capsys, "braid", "s1^3 s2^-3", "--crosscheck")
    assert code == 3
    payload = json.loads(out)
    assert (payload["status"], payload["diagram_status"]) == (
        "certified", "fail"
    )
    assert "note" not in payload


def test_braid_crosscheck_reports_a_closure_that_splits(capsys):
    code, out, _ = run(
        capsys, "braid", "s1^3", "--strands", "3", "--crosscheck"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reasons"] == ["Interleaving", "NotAKnot(2)"]
    assert payload["diagram_error"] == (
        "closure of strands [3] has no crossings"
    )
    assert "diagram_status" not in payload


def test_braid_identity_is_input_error(capsys):
    code, _, err = run(capsys, "braid", "s1^2 s1^-2")
    assert code == 2
    assert "error:" in err


def test_tree_command(capsys):
    code, out, _ = run(capsys, "tree", "(2 (3))", "--diagram")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "certified"
    assert payload["pd"].startswith("X[")


def test_tree_single_vertex_note(capsys):
    code, out, _ = run(capsys, "tree", "(5)", "--crosscheck")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "fail"
    assert payload["diagram_status"] == "excluded"
    assert "note" in payload


@pytest.mark.parametrize(
    "command,text,status,diagram_status",
    [
        # a unit weight fails the tree; the diagram route merges it away
        ("tree", "(-1 (-4))", "fail", "excluded"),
        # exponent-1 syllables fail the word; the closure cancels them
        ("braid", "s1^3 s2^1 s1^-3 s2^-1", "fail", "certified"),
    ],
)
def test_crosscheck_excuses_small_weights_with_a_note(
    capsys, command, text, status, diagram_status
):
    code, out, _ = run(capsys, command, text, "--crosscheck")
    assert code == 0
    payload = json.loads(out)
    assert (payload["status"], payload["diagram_status"]) == (
        status, diagram_status
    )
    assert "note" in payload


def test_tree_crosscheck_disagreement_exits_3(capsys, monkeypatch):
    from dataclasses import replace

    from foliar.criterion import Status, check_main

    def check_main_excluded(d):
        return replace(check_main(d), status=Status.EXCLUDED)

    monkeypatch.setattr("foliar.cli.check_main", check_main_excluded)
    code, out, _ = run(capsys, "tree", "(2 (-3) (2))", "--crosscheck")
    assert code == 3
    payload = json.loads(out)
    assert (payload["status"], payload["diagram_status"]) == (
        "certified", "excluded"
    )
    assert "note" not in payload


def test_borromean_command(capsys):
    code, out, _ = run(capsys, "borromean", "1/2", "3", "5")
    assert code == 0
    assert json.loads(out)["outcome"] == "taut_foliation"


@pytest.mark.parametrize("argv", [
    ("-1/2", "3", "4"),
    ("3", "4", "-1/2"),
    ("3", "-1/2", "4"),
])
def test_borromean_negative_fraction_slope(capsys, argv):
    # a slope beginning with "-" is a slope wherever it stands
    code, out, _ = run(capsys, "borromean", *argv)
    assert code == 0
    assert out == run(capsys, "borromean", "--", *argv)[1]


def test_borromean_help_still_prints(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["borromean", "-h", "-1/2"])
    assert exc.value.code == 0
    assert "SLOPE" in capsys.readouterr().out


def test_borromean_bad_slope(capsys):
    code, _, err = run(capsys, "borromean", "x", "3", "5")
    assert code == 2


def test_augment_command(capsys):
    code, out, _ = run(capsys, "augment", FIG8, "--plan")
    assert code == 0
    payload = json.loads(out)
    assert [c["k"] for c in payload["circles"]] == [1, -1]
    assert payload["plan"] is None
    assert "unsatisfiable" in payload


def test_augment_prints_its_plan_byte_for_byte(capsys):
    pd = make_pretzel_pd([-2, 3, 7]).to_pd()
    code, out, err = run(capsys, "augment", pd, "--plan")
    assert (code, err) == (0, "")
    assert out == (
        '{"circles": ['
        '{"region": 0, "count": 2, "parity": 0, "k": 1, "coefficient": "1"}, '
        '{"region": 1, "count": 3, "parity": 1, "k": -1, '
        '"coefficient": "-1"}, '
        '{"region": 2, "count": 7, "parity": 1, "k": -3, '
        '"coefficient": "-1/3"}], '
        '"plan": {"assignments": ["b", "odd", "odd"], '
        '"distinguished": 1, "secondary": 2}}\n'
    )


def test_augment_plans_the_normal_form_byte_for_byte(capsys):
    # GRANNY3 certifies after merging; its circles sit on the merged regions
    code, out, err = run(capsys, "augment", GRANNY3, "--plan")
    assert (code, err) == (0, "")
    assert out == (
        '{"circles": ['
        '{"region": 0, "count": 3, "parity": 1, "k": 1, "coefficient": "1"}, '
        '{"region": 1, "count": 3, "parity": 1, "k": 1, "coefficient": "1"}, '
        '{"region": 2, "count": 3, "parity": 1, "k": 1, "coefficient": "1"}], '
        '"plan": {"assignments": ["odd", "odd", "odd"], '
        '"distinguished": 0, "secondary": 2}}\n'
    )


def test_augment_zero_k_is_input_error(capsys):
    code, _, err = run(capsys, "augment", KINK)
    assert code == 2


def test_augment_on_a_link_is_input_error(capsys):
    code, out, err = run(capsys, "augment", HOPF, "--plan")
    assert (code, out) == (2, "")
    assert err == "error: NotAKnot(2): crossing circles need a knot\n"


def test_corpus_walk(tmp_path, capsys):
    (tmp_path / "a.pd").write_text(TREFOIL)
    (tmp_path / "b.braid").write_text("s1^3 s2^-3")
    (tmp_path / "c.tree").write_text("(2 (3))")
    (tmp_path / "bad.pd").write_text("X[1,2,3]")
    (tmp_path / "ignored.txt").write_text("not input")
    code, out, _ = run(capsys, "corpus", str(tmp_path))
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert code == 2  # the malformed file is reported but does not abort
    assert len(lines) == 5
    summary = lines[-1]
    assert summary["files"] == 4
    assert summary["certified"] == 2
    assert summary["excluded"] == 1
    by_file = {l["file"]: l for l in lines[:-1]}
    assert "error" in by_file["bad.pd"]


@pytest.mark.parametrize("kind", ["undecodable", "directory"])
def test_corpus_reports_unreadable_file_and_goes_on(tmp_path, capsys, kind):
    _unreadable(tmp_path, kind)
    (tmp_path / "b.pd").write_text(TREFOIL)
    code, out, err = run(capsys, "corpus", str(tmp_path))
    assert code == 2
    assert err == ""
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert [set(l) for l in lines[:2]] == [
        {"file", "error"},
        {"file", "status", "reasons"},
    ]
    assert lines[2] == {"files": 2, "certified": 0, "fail": 0, "excluded": 1}


def test_corpus_missing_directory(capsys):
    code, _, err = run(capsys, "corpus", "/nonexistent-dir-for-test")
    assert code == 2


# main route certifies, the checkerboard route fails, and edge merging
# fired on the main route: the routes need not agree
RESHAPED = (
    "X[1,2,3,4] X[5,6,7,1] X[4,8,6,5] X[9,10,3,11] X[12,9,11,13] "
    "X[10,12,13,8] X[14,15,7,16] X[17,18,15,14] X[16,2,18,17]"
)


def test_corpus_crosscheck_matches_check_on_reshaped_input(tmp_path, capsys):
    (tmp_path / "r.pd").write_text(RESHAPED)
    code, out, _ = run(capsys, "check", RESHAPED, "--crosscheck")
    assert code == 0
    checked = json.loads(out)
    assert (checked["status"], checked["tait_status"]) == ("certified", "fail")

    code, out, _ = run(capsys, "corpus", str(tmp_path), "--crosscheck")
    assert code == 0
    row = json.loads(out.strip().splitlines()[0])
    assert row["tait_status"] == "fail"
    assert row["note"] == checked["note"]


def test_corpus_crosscheck_uses_each_kinds_rule(tmp_path, capsys):
    inputs = {
        "a.tree": ("tree", "(5)"),
        "b.tree": ("tree", "(2 (3))"),
        "c.braid": ("braid", "s1^3 s2^-3"),
    }
    want = {}
    for name, (command, text) in inputs.items():
        (tmp_path / name).write_text(text)
        code, out, _ = run(capsys, command, text, "--crosscheck")
        assert code == 0
        want[name] = json.loads(out)

    code, out, _ = run(capsys, "corpus", str(tmp_path), "--crosscheck")
    assert code == 0
    rows = {row["file"]: row for row in map(json.loads, out.splitlines()[:-1])}
    assert rows.keys() == inputs.keys()
    for name, single in want.items():
        assert "tait_status" not in rows[name]
        for key in ("status", "diagram_status", "note"):
            assert rows[name].get(key) == single.get(key)
    assert rows["a.tree"]["diagram_status"] == "excluded"
    assert "note" in rows["a.tree"]


def test_corpus_crosscheck_disagreement_exits_3(tmp_path, capsys, monkeypatch):
    from dataclasses import replace

    from foliar.criterion import Status, check_main

    (tmp_path / "a.tree").write_text("(2 (3))")
    code, _, _ = run(capsys, "corpus", str(tmp_path), "--crosscheck")
    assert code == 0

    def check_main_excluded(d):
        return replace(check_main(d), status=Status.EXCLUDED)

    monkeypatch.setattr("foliar.cli.check_main", check_main_excluded)
    code, out, _ = run(capsys, "corpus", str(tmp_path), "--crosscheck")
    assert code == 3  # a tree file disagrees as a .pd file would
    assert json.loads(out.splitlines()[0])["diagram_status"] == "excluded"


def test_check_diagnose_runs_main_pipeline_once(capsys, monkeypatch):
    import foliar.criterion

    calls = []
    original = foliar.criterion.reduce_assumption1

    def counting(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(foliar.criterion, "reduce_assumption1", counting)
    code, out, _ = run(capsys, "check", FIG8, "--diagnose")
    assert code == 0
    assert json.loads(out)["verdict"]["status"] == "fail"
    assert len(calls) == 1


def _raise_internal(d):
    raise InternalError("injected")


def test_internal_error_exits_1_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr("foliar.cli.check_main", _raise_internal)
    code, _, err = run(capsys, "tree", "(2 (3))", "--crosscheck")
    assert code == 1
    assert err == "internal error: injected\n"


def test_corpus_reports_internal_error_and_carries_on(
    tmp_path, capsys, monkeypatch
):
    from foliar.criterion import check_main

    def check_main_or_raise(d):
        if len(d) == 4:  # the figure eight
            _raise_internal(d)
        return check_main(d)

    monkeypatch.setattr("foliar.cli.check_main", check_main_or_raise)
    (tmp_path / "a.pd").write_text(FIG8)
    (tmp_path / "b.pd").write_text(TREFOIL)
    code, out, _ = run(capsys, "corpus", str(tmp_path))
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert code == 1
    assert lines[0] == {"file": "a.pd", "error": "injected", "internal": True}
    assert lines[1]["status"] == "excluded"
    assert lines[-1]["files"] == 2

    (tmp_path / "c.pd").write_text("X[1,2,3]")
    code, _, _ = run(capsys, "corpus", str(tmp_path))
    assert code == 2  # the highest code seen wins


def _raise_recursion(text):
    raise RecursionError("maximum recursion depth exceeded")


def test_recursion_error_exits_1_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr("foliar.cli.parse_tree", _raise_recursion)
    code, out, err = run(capsys, "tree", "(2 (3))")
    assert code == 1
    assert out == ""
    assert err == "internal error: maximum recursion depth exceeded\n"


def test_corpus_reports_recursion_error_and_carries_on(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr("foliar.cli.parse_tree", _raise_recursion)
    (tmp_path / "a.tree").write_text("(2 (2))")
    (tmp_path / "b.pd").write_text(TREFOIL)
    code, out, _ = run(capsys, "corpus", str(tmp_path))
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert code == 1
    assert lines[0] == {
        "file": "a.tree",
        "error": "maximum recursion depth exceeded",
        "internal": True,
    }
    assert lines[1]["status"] == "excluded"
    assert lines[-1]["files"] == 2
