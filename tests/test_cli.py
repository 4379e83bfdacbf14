import json
import os

import pytest

from foliar.cli import main
from foliar.errors import InternalError

from conftest import FIG8, KINK, TREFOIL


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


def test_check_input_error_exit_code(capsys):
    code, out, err = run(capsys, "check", "X[1,4,2,5] X[3,6,4,1]")
    assert code == 2
    assert "error:" in err


def test_check_missing_file_is_input_error(tmp_path, capsys):
    code, out, err = run(capsys, "check", "-f", str(tmp_path / "missing.pd"))
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize(
    "text",
    [
        '{"crossings": 5, "under_axis": [0]}',
        '{"crossings": [[1,2,3]], "under_axis": 0}',
        '{"crossings": [5], "under_axis": [0]}',
    ],
    ids=["crossings", "under_axis", "row"],
)
def test_check_json_wrong_types_are_input_errors(text, capsys):
    code, out, err = run(capsys, "check", text)
    assert code == 2
    assert err.startswith("error:")


def test_braid_command(capsys):
    code, out, _ = run(capsys, "braid", "s1^3 s2^-3", "--crosscheck")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "certified"
    assert payload["diagram_status"] == "certified"


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


def test_borromean_command(capsys):
    code, out, _ = run(capsys, "borromean", "1/2", "3", "5")
    assert code == 0
    assert json.loads(out)["outcome"] == "taut_foliation"


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


def test_augment_zero_k_is_input_error(capsys):
    code, _, err = run(capsys, "augment", KINK)
    assert code == 2


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


def test_corpus_missing_directory(capsys):
    code, _, err = run(capsys, "corpus", "/nonexistent-dir-for-test")
    assert code == 2


# main route fails, the checkerboard route certifies, and edge merging
# fired on the main route: the routes need not agree
RESHAPED = (
    "X[1,2,3,4] X[5,6,2,7] X[8,3,6,5] X[9,10,11,12] X[13,9,12,8] "
    "X[10,13,4,11] X[14,15,1,16] X[17,18,15,19] X[20,21,16,17] "
    "X[21,20,19,14] X[22,23,24,25] X[26,18,25,24] X[7,27,28,22] "
    "X[23,28,27,26]"
)


def test_corpus_crosscheck_matches_check_on_reshaped_input(tmp_path, capsys):
    (tmp_path / "r.pd").write_text(RESHAPED)
    code, out, _ = run(capsys, "check", RESHAPED, "--crosscheck")
    assert code == 0
    checked = json.loads(out)
    assert (checked["status"], checked["tait_status"]) == ("fail", "certified")

    code, out, _ = run(capsys, "corpus", str(tmp_path), "--crosscheck")
    assert code == 0
    row = json.loads(out.strip().splitlines()[0])
    assert row["tait_status"] == "certified"
    assert row["note"] == checked["note"]


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
