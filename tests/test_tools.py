"""The repository's command-line tools."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest


ROOT = Path(__file__).resolve().parents[1]


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_identity = _load_tool("report_identity")
line_count = _load_tool("line_count")


class TestDifferingPaths:
    def paths(self, a, b):
        return list(report_identity.differing_paths(a, b))

    def test_equal_values_differ_nowhere(self):
        report = {"results": [{"eta": {"matrix": [[1, 0]]}}], "ok": True}
        assert self.paths(report, report) == []

    def test_a_matrix_is_one_path(self):
        old = {"results": [{"w": {"rank": 0}, "eta": {"matrix": [[1, 0], [0, 1]]}}]}
        new = {"results": [{"w": {"rank": 0}, "eta": {"matrix": [[1, 0], [0, -1]]}}]}
        assert self.paths(old, new) == ["results[0].eta.matrix"]

    def test_keys_and_lists_of_other_lengths(self):
        old = {"a": 1, "b": [{"c": 1}], "d": [1, 2]}
        new = {"b": [{"c": 1}, {"c": 2}], "d": [1, 3], "e": 0}
        assert self.paths(old, new) == ["a", "b", "d", "e"]

    def test_top_level_values(self):
        assert self.paths(1, 2) == ["$"]
        assert self.paths([{"x": 1}], [{"x": 2}]) == ["[0].x"]


class TestDifference:
    REPORT = '{"results":[{"w":{"rank":0}}]}'

    def test_printed_output_alone(self):
        old, new = [0, self.REPORT, "M: W = 3\n"], [0, self.REPORT, "M: W = 9\n"]
        assert report_identity.difference(old, new) == ("printed output differs", [])

    def test_report_and_printed_output(self):
        old = [0, self.REPORT, "a\n"]
        new = [0, '{"results":[{"w":{"rank":1}}]}', "b\n"]
        assert report_identity.difference(old, new) == (
            "report differs at results[0].w.rank; printed output differs",
            ["results[0].w.rank"])

    def test_exit_code_and_missing_op(self):
        assert report_identity.difference([0, None, ""], [2, None, "error\n"]) \
            == ("exit code differs", [])
        assert report_identity.difference(None, [0, None, ""]) == ("op missing", [])


def test_an_op_keeps_what_it_printed(tmp_path):
    """run_op keeps the printed text with the temporary path replaced."""
    missing = tmp_path / "missing.json"
    op = SimpleNamespace(argv=["replay", "--input", str(missing)], out=str(missing))
    rc, report, printed = report_identity.run_op(op, str(tmp_path))
    assert (rc, report) == (2, None)
    assert printed.startswith(f"error: cannot read {report_identity.TMP_TOKEN}/missing.json")
    assert str(tmp_path) not in printed


def test_a_negative_control_has_its_replays_collected(tmp_path, monkeypatch):
    """run_ops replays each witness of the identity candidate's control
    op alone and keeps each outcome under the op's key."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from checks import witnesses
    from workloads import check_zmod

    op = next(op for op in check_zmod(str(tmp_path), 1) if op.name == "identity-saturating")
    outcomes = report_identity.run_ops([op], str(tmp_path))
    rc, report, _ = outcomes.pop("0/identity-saturating")
    assert rc == 1
    found = witnesses(json.loads(report))
    assert found[0]["check"] == "saturating-1-kills-c"
    assert list(outcomes) == [f"0/identity-saturating/replay/{j}" for j in range(len(found))]
    for witness, (rc, report, printed) in zip(found, outcomes.values()):
        assert rc == 0
        assert json.loads(report)["results"][0]["reproduced"] is True
        assert printed.startswith(f"replay {witness['check']}: failure reproduced")


class TestSeedList:
    def test_a_list_of_seeds(self):
        assert report_identity.seed_list("1,5") == [1, 5]
        assert report_identity.seed_list("7") == [7]

    @pytest.mark.parametrize("seeds", ["1,,5", "1,x", ""])
    def test_a_malformed_list_is_a_usage_error(self, seeds, monkeypatch, capsys):
        """It exits 2 before either checkout runs; exit 1 means that
        reports differ."""
        def no_run(*args):
            raise AssertionError("a checkout ran")

        monkeypatch.setattr(report_identity, "collect", no_run)
        with pytest.raises(SystemExit) as exc:
            report_identity.main(["old", "new", "--seeds", seeds])
        assert exc.value.code == 2
        assert "--seeds: not a comma-separated list of integers" in capsys.readouterr().err


class TestUnreadableCheckout:
    """A checkout that lacks what a tool reads is a usage error (exit 2)
    that names it, before anything is counted or run."""

    # what report_identity reads of each checkout
    NEEDED = ("src/serreq", "perfbench/workloads.py")

    def _usage_error(self, main, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("with_new", [False, True])
    def test_line_count(self, with_new, tmp_path, capsys):
        missing = tmp_path / "missing"
        new = tmp_path / "new"
        (new / "src" / "serreq").mkdir(parents=True)
        (new / "src" / "serreq" / "a.py").write_text("x = 1\n", encoding="utf-8")
        argv = [str(missing), str(new)] if with_new else [str(missing)]
        err = self._usage_error(line_count.main, argv, capsys)
        assert f"{missing} holds no src/serreq" in err

    @pytest.mark.parametrize("needed", NEEDED)
    def test_report_identity(self, needed, tmp_path, monkeypatch, capsys):
        def no_run(*args):
            raise AssertionError("a checkout ran")

        monkeypatch.setattr(report_identity, "collect", no_run)
        partial = tmp_path / "partial"
        for other in self.NEEDED:
            if other != needed:
                (partial / other).parent.mkdir(parents=True, exist_ok=True)
                (partial / other).touch()
        err = self._usage_error(report_identity.main, [str(ROOT), str(partial)], capsys)
        assert f"{partial} holds no {needed}" in err
        missing = tmp_path / "missing"
        err = self._usage_error(report_identity.main, [str(missing), str(ROOT)], capsys)
        assert f"{missing} holds no src/serreq" in err


class TestLineCount:
    SOURCE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """A function docstring."""

    y = """a string that is
not a docstring"""
    return x, y


class C:
    """A class docstring."""
    z = 1
'''

    def test_docstrings_comments_and_blank_lines_are_not_code(self):
        # import, def, the two lines of y, return, class and z
        assert line_count.count(self.SOURCE) == (18, 7)

    def test_two_checkouts(self, tmp_path, capsys):
        for name, body in (("old", "x = 1\n"), ("new", self.SOURCE)):
            package = tmp_path / name / "src" / "serreq"
            package.mkdir(parents=True)
            (package / "a.py").write_text(body, encoding="utf-8")
        # the tests row sums every tests/*.py and stays out of the total
        tests = tmp_path / "new" / "tests"
        tests.mkdir()
        for test in ("test_a.py", "test_b.py"):
            (tests / test).write_text(self.SOURCE, encoding="utf-8")
        assert line_count.main([str(tmp_path / "new")]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "a.py        18 /      7", "total       18 /      7", "tests/      36 /     14"]
        assert line_count.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "total       18 /      7   was      1 /      1      +17 /     +6",
            "tests/      36 /     14   was      0 /      0      +36 /    +14"]
