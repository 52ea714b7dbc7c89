import importlib.util
import json
import os
import sys
import threading
from pathlib import Path

import pytest

import torex
from torex import excess
from torex.cli import main
from torex.trees import ExtremalTree, enumerate_trees

TRACE_CHILD = Path(__file__).resolve().parent.parent / "bench" / "trace_child.py"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTrees:
    def test_json_count(self, capsys):
        code, out, _ = run(capsys, "trees", "--genus", "6", "--max-edges", "5")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 24
        assert all(set(r) == {"genus", "root", "vertices", "edges", "aut", "code"}
                   for r in records)

    def test_text_total(self, capsys):
        code, out, _ = run(capsys, "trees", "--genus", "4", "--format", "text")
        assert code == 0
        assert out.strip().endswith("total: 4")


class TestContribution:
    def test_both_methods_match(self, capsys):
        code, out, _ = run(
            capsys, "contribution", "--genus", "6",
            "--tree", "(1(0(0(1)(1))(3)))", "--method", "both",
            "--format", "text",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == ["recursion: 15", "pixton: 15", "match=true"]

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "contribution", "--genus", "5",
            "--tree", "(1(0(1)(3)))", "--method", "recursion",
        )
        assert code == 0
        data = json.loads(out)
        assert data["contribution"]["recursion"] == "-3*c1 + 6*z1 + 4*z2 + 4*z3"

    def test_unknown_tree_fails(self, capsys):
        code, _, err = run(
            capsys, "contribution", "--genus", "4", "--tree", "(1(0(1)(1))(1))",
        )
        assert code == 1

    def test_tree_runs_one_closed_formula(self, capsys, monkeypatch, memo):
        # --tree computes the tree it names, not the table of genus 9
        tree = "(1(0(0(0(1)(1)(1))(1))(4)))"
        closed = excess.pixton_contribution
        calls = []

        def counted(t, g):
            calls.append((t.code, g))
            return closed(t, g)

        monkeypatch.setattr(excess, "pixton_contribution", counted)
        code, out, _ = run(capsys, "contribution", "--genus", "9", "--tree", tree,
                           "--method", "pixton")
        assert code == 0
        assert calls == [(tree, 9)]
        assert json.loads(out)["contribution"]["pixton"] == str(closed(ExtremalTree.from_code(tree), 9).poly)

    @pytest.mark.parametrize("g", (6, 7))
    def test_tree_matches_full_table(self, capsys, g):
        _, full, _ = run(capsys, "contribution", "--genus", str(g), "--method", "both")
        table = json.loads(full)
        trees = enumerate_trees(g, g - 1)
        for t in (trees[0], trees[len(trees) // 2], trees[-1],
                  max(trees, key=lambda t: t.n_edges)):
            code, out, _ = run(capsys, "contribution", "--genus", str(g), "--tree", t.code,
                               "--method", "both")
            want = {"tree": t.code, "genus": g,
                    "contribution": {"recursion": table[t.code], "pixton": table[t.code]},
                    "match": True}
            assert code == 0
            assert out == json.dumps(want, indent=1) + "\n"

    def test_full_table(self, capsys):
        code, out, _ = run(capsys, "contribution", "--genus", "4")
        assert code == 0
        table = json.loads(out)
        assert table["(1(0(1)(2)))"] == "-3"
        assert len(table) == 4

    @pytest.mark.parametrize("fmt", ("json", "text"))
    def test_full_table_both_match(self, capsys, memo, fmt):
        _, one, _ = run(capsys, "contribution", "--genus", "5", "--format", fmt)
        code, both, err = run(capsys, "contribution", "--genus", "5", "--format", fmt,
                              "--method", "both")
        assert code == 0 and err == ""
        assert both == one

    def test_full_table_both_mismatch(self, capsys, monkeypatch, memo):
        from torex.polyring import Poly

        wrong = "(1(0(1)(3)))"
        closed = excess.pixton_contribution

        def broken(t, g):
            got = closed(t, g)
            if t.code != wrong:
                return got
            return excess.Contribution(tree=t, g=g, poly=got.poly + Poly.const(1))

        monkeypatch.setattr(excess, "pixton_contribution", broken)
        code, out, err = run(capsys, "contribution", "--genus", "5", "--method", "both")
        assert code == 1
        assert json.loads(out)[wrong] == "-3*c1 + 6*z1 + 4*z2 + 4*z3"
        assert "differ at tree %s (1 of 10 trees differ)" % wrong in err


class TestPullback:
    @pytest.mark.parametrize("g", (4, 5, 6))
    def test_methods_byte_identical(self, capsys, g):
        _, a, _ = run(capsys, "pullback", "--genus", str(g), "--method", "recursion")
        _, b, _ = run(capsys, "pullback", "--genus", str(g), "--method", "pixton")
        assert a == b

    def test_jobs_flag_output_unchanged(self, capsys, monkeypatch, memo):
        # --jobs 2 is accepted and computes its table in this thread
        def no_thread(thread):
            raise AssertionError("thread started: %r" % thread)

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        for method in ("recursion", "pixton"):
            outputs = []
            for jobs in ("1", "2"):
                code, out, _ = run(capsys, "pullback", "--genus", "5", "--method", method,
                                   "--jobs", jobs)
                memo.clear()
                assert code == 0, (method, jobs)
                outputs.append(out)
            assert outputs[0] and outputs[0] == outputs[1], method

    def test_admcycles_format(self, capsys):
        code, out, _ = run(
            capsys, "pullback", "--genus", "4", "--format", "admcycles"
        )
        assert code == 0
        assert out.startswith("genus 4, 4 strata")

    def test_cache_dir_round_trip(self, capsys, tmp_path, monkeypatch, memo):
        monkeypatch.setenv("EXCESS_CACHE_DIR", str(tmp_path))
        _, a, _ = run(capsys, "pullback", "--genus", "4")
        assert list(tmp_path.iterdir())
        memo.clear()
        _, b, _ = run(capsys, "pullback", "--genus", "4")
        assert a == b


class TestCacheMisses:
    """A cache file that cannot be trusted is a miss: the table is
    recomputed, the output is the uncached output, and the file is
    rewritten."""

    PATH = "contrib-g5-recursion.json"

    @pytest.fixture(autouse=True)
    def _memo(self, memo):
        self.memo = memo

    @pytest.fixture
    def uncached(self, capsys, monkeypatch):
        monkeypatch.delenv("EXCESS_CACHE_DIR", raising=False)
        code, out, _ = run(capsys, "pullback", "--genus", "5")
        assert code == 0
        self.memo.clear()
        return out

    def cached_run(self, capsys, monkeypatch, tmp_path, content):
        path = tmp_path / self.PATH
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        monkeypatch.setenv("EXCESS_CACHE_DIR", str(tmp_path))
        code, out, err = run(capsys, "pullback", "--genus", "5")
        self.memo.clear()
        assert code == 0 and err == ""
        assert [p.name for p in tmp_path.iterdir()] == [self.PATH]
        # rewritten: a valid table under the right header
        data = json.loads(path.read_text())
        assert (data["genus"], data["method"]) == (5, "recursion")
        assert (data["format"], data["version"]) == (excess.CACHE_FORMAT, torex.__version__)
        assert excess._cache_load(str(tmp_path), 5, "recursion") is not None
        return out

    def valid_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EXCESS_CACHE_DIR", str(tmp_path))
        run(capsys, "pullback", "--genus", "5")
        self.memo.clear()
        return json.loads((tmp_path / self.PATH).read_text())

    def test_empty_table_without_header(self, capsys, monkeypatch, tmp_path, uncached):
        got = self.cached_run(capsys, monkeypatch, tmp_path,
                              {"genus": 5, "contributions": []})
        assert got == uncached

    def test_not_json(self, capsys, monkeypatch, tmp_path, uncached):
        assert self.cached_run(capsys, monkeypatch, tmp_path, "{garbage") == uncached

    def test_wrong_type(self, capsys, monkeypatch, tmp_path, uncached):
        assert self.cached_run(capsys, monkeypatch, tmp_path, [1, 2]) == uncached

    @pytest.mark.parametrize("field,value", [("poly", [["1/0", []]]), ("code", "(((")])
    def test_bad_entry(self, capsys, monkeypatch, tmp_path, uncached, field, value):
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        data["contributions"][0][field] = value
        assert self.cached_run(capsys, monkeypatch, tmp_path, data) == uncached

    @pytest.mark.parametrize("key,value", [("genus", 4), ("method", "pixton")])
    def test_header_mismatch(self, capsys, monkeypatch, tmp_path, uncached, key, value):
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        data[key] = value
        assert self.cached_run(capsys, monkeypatch, tmp_path, data) == uncached

    def test_missing_format_and_version(self, capsys, monkeypatch, tmp_path, uncached):
        # an otherwise valid table from before the header carried them
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        del data["format"], data["version"]
        assert self.cached_run(capsys, monkeypatch, tmp_path, data) == uncached

    @pytest.mark.parametrize("key,value", [("format", 0), ("format", 1),
                                           ("version", "0.0.0")])
    def test_other_format_or_version(self, capsys, monkeypatch, tmp_path, uncached,
                                     key, value):
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        data[key] = value
        assert self.cached_run(capsys, monkeypatch, tmp_path, data) == uncached

    def test_tree_set_mismatch(self, capsys, monkeypatch, tmp_path, uncached):
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        data["contributions"].pop()
        assert self.cached_run(capsys, monkeypatch, tmp_path, data) == uncached
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        data["contributions"].append({"code": "(1(5))", "poly": [["1", []]]})
        assert self.cached_run(capsys, monkeypatch, tmp_path, data) == uncached

    # each breaks the shape of the degree 3 class of the one-edge tree
    # (1(4)): every term of degree 3, only z1, at most one c_i to the power 1
    @pytest.mark.parametrize("poly", [
        [["5", [[["c", 1], 1], [["c", 2], 1]]]],
        [["5", [[["c", 1], 3]]]],
        [["5", [[["c", 1], 1], [["z", 2], 2]]]],
        [["5", [[["c", 2], 1]]]],
        [["5", [[["e", "l", 1], 1], [["z", 1], 2]]]],
        [["5", [[["z", 1], 3.0]]]],
        [["5", [[["c", 3], 1], [["z", 1], 0]]]],
        [["5", [[["z", 1], 1], [["z", 1], 2]]]],
    ], ids=["c1*c2", "c1^3", "c1*z2^2", "degree-2", "e1*z1^2", "float-exponent",
            "zero-exponent", "repeated-z1"])
    def test_not_a_contribution(self, capsys, monkeypatch, tmp_path, uncached, poly):
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        entry = next(e for e in data["contributions"] if e["code"] == "(1(4))")
        entry["poly"] = poly
        assert self.cached_run(capsys, monkeypatch, tmp_path, data) == uncached

    def test_duplicate_tree(self, capsys, monkeypatch, tmp_path, uncached):
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        data["contributions"].append({"code": "(1(4))", "poly": [["1", []]]})
        assert self.cached_run(capsys, monkeypatch, tmp_path, data) == uncached

    def test_hit_leaves_file_untouched(self, capsys, monkeypatch, tmp_path, uncached):
        self.valid_file(tmp_path, monkeypatch, capsys)
        path = tmp_path / self.PATH
        os.utime(path, ns=(10**9, 10**9))
        before = path.read_bytes()
        _, out, _ = run(capsys, "pullback", "--genus", "5")
        assert out == uncached
        assert path.read_bytes() == before
        assert path.stat().st_mtime_ns == 10**9

    def test_failed_write_keeps_old_file(self, monkeypatch, tmp_path):
        path = tmp_path / self.PATH
        path.write_text("old")

        def broken_dump(data, fh, **kw):
            fh.write("partial")
            raise OSError("disk full")

        monkeypatch.setattr(excess.json, "dump", broken_dump)
        with pytest.raises(OSError):
            excess._cache_store(str(tmp_path), 5, "recursion", {})
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == [self.PATH]


class TestRing:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "ring", "--genus", "6")
        assert code == 0
        data = json.loads(out)
        assert data["dimension"] == 32
        assert data["gorenstein"] is True
        assert data["socle_generator"] == "lam1*lam2*lam3*lam4*lam5"


class TestConstants:
    def test_text_g5(self, capsys):
        code, out, _ = run(capsys, "constants", "--genus", "5")
        assert code == 0
        assert out.splitlines()[0] == "11"

    def test_g6_discrepancy_flag(self, capsys):
        code, out, _ = run(capsys, "constants", "--genus", "6", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["coefficient"] == "2730/691"
        assert data["discrepancy"]["printed_variant"] == "2370/691"

    def test_g6_text_warning(self, capsys):
        code, out, _ = run(capsys, "constants", "--genus", "6")
        assert code == 0
        assert out.splitlines()[0] == "2730/691"
        assert "2370/691" in out


class TestZeroint:
    def test_small_genus(self, capsys):
        code, out, _ = run(capsys, "zeroint", "--genus", "4")
        assert code == 0
        data = json.loads(out)
        assert data["all_vanish"] is True
        assert all(p["vanishes"] for p in data["pairs"])


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.endswith("PASS") for line in lines[:-1])

    def test_failing_check_says_why(self, capsys, monkeypatch):
        from torex import verify

        def broken():
            raise ValueError("leaf factor lost")

        checks = list(verify.CHECKS)
        checks[1] = (checks[1][0], broken)
        monkeypatch.setattr(verify, "CHECKS", checks)
        code, out, _ = run(capsys, "verify-paper")
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[1] == "%-36s FAIL (ValueError: leaf factor lost)" % checks[1][0]
        assert all(line.endswith("PASS") for i, line in enumerate(lines[:-1]) if i != 1)
        assert lines[-1] == "%d/%d checks passed" % (len(checks) - 1, len(checks))

    def test_rewrite_check_runs_the_division_passes(self, monkeypatch):
        from torex.verify import run_checks

        slug = "symmetric-rewrite-two-lines"
        assert run_checks([slug]) == [(slug, True, None)]
        monkeypatch.setattr(excess, "_over_leaf_factors", lambda slots, leaves: None)
        assert run_checks([slug]) == [(slug, False, None)]


class TestReferencesOffCommandPath:
    """The tuple-monomial references stay in the library for the tests and
    the benchmark's tracer; no command runs them."""

    COMMANDS = [
        ("verify-paper",),
        ("pullback", "--genus", "5"),
        ("pullback", "--genus", "5", "--method", "pixton"),
        ("contribution", "--genus", "5", "--method", "both"),
    ]

    def test_commands_run_without_them(self, capsys, monkeypatch, memo):
        from torex import polyring

        monkeypatch.delenv("EXCESS_CACHE_DIR", raising=False)
        want = [run(capsys, *argv) for argv in self.COMMANDS]
        memo.clear()

        def forbidden(*args, **kwargs):
            raise AssertionError("a reference ran on a command's path")

        # rebind the name in every torex module that holds it
        original = polyring.elem_sym_rewrite
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "torex" or name.startswith("torex.")):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, forbidden)
        monkeypatch.setattr(polyring.Poly, "exact_divide", forbidden)
        got = [run(capsys, *argv) for argv in self.COMMANDS]
        assert [code for code, _, _ in want] == [0] * len(self.COMMANDS)
        assert got == want


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trees", "--genus", "4", "--bogus"])
        assert exc.value.code == 2

    def test_pullback_text_format_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pullback", "--genus", "4", "--format", "text"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["pullback", "--genus", "1"],
        ["contribution", "--genus", "1"],
        ["trees", "--genus", "1"],
        ["trees", "--genus", "4", "--max-edges", "0"],
        ["contribution", "--genus", "4", "--tree", "((("],
        ["contribution", "--genus", "4", "--tree", "(-)"],
        ["pullback", "--genus", "4", "--jobs", "0"],
        ["contribution", "--genus", "4", "--jobs", "-1"],
        ["constants", "--genus", "0"],
        ["ring", "--genus", "0"],
        ["zeroint", "--genus", "1"],
    ], ids=" ".join)
    def test_invalid_value_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: argument" in capsys.readouterr().err

    def test_determinism(self, capsys):
        _, a, _ = run(capsys, "trees", "--genus", "5")
        _, b, _ = run(capsys, "trees", "--genus", "5")
        assert a == b


class TestTraceTargets:
    def test_every_traced_name_resolves(self):
        # the benchmark's tracer rebinds these names after importing the CLI;
        # one that is renamed away would stop every traced benchmark run
        spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
        trace_child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(trace_child)
        missing = []
        for owner_path, attr, *_ in trace_child.TARGETS:
            owner = sys.modules.get(owner_path)
            if owner is None:
                module, _, name = owner_path.rpartition(".")
                owner = getattr(sys.modules[module], name)
            if not callable(getattr(owner, attr, None)):
                missing.append("%s.%s" % (owner_path, attr))
        assert missing == []
