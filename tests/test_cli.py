import hashlib
import importlib.util
import io
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

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACE_CHILD = BENCH / "trace_child.py"

# a code nested past the interpreter's recursion limit, and a well-formed
# tree that parses but is too deep to build
DEEP_CODE = "(1" * 1500 + ")" * 1500
DEEP_TREE = "(1" + "(0" * 500 + "(1)(1)" + ")(1)" * 500 + ")"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def rebind_everywhere(monkeypatch, original, replacement):
    """Rebind a function in every torex module that holds it, the way the
    benchmark's tracer does."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "torex" or name.startswith("torex.")):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, replacement)


def small_pullback_digests():
    """{command: stdout sha256} of the small pullback commands the benchmark
    checks."""
    with open(BENCH / "golden.json", encoding="utf-8") as fh:
        digests = json.load(fh)["digests"]["small"]
    return {cmd: d for cmd, d in digests.items() if cmd.startswith("pullback ")}


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

        def counted(t):
            calls.append((t.code, t.genus))
            return closed(t)

        monkeypatch.setattr(excess, "pixton_contribution", counted)
        code, out, _ = run(capsys, "contribution", "--genus", "9", "--tree", tree,
                           "--method", "pixton")
        assert code == 0
        assert calls == [(tree, 9)]
        assert json.loads(out)["contribution"]["pixton"] == str(closed(ExtremalTree.from_code(tree)).poly)

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

        def broken(t):
            got = closed(t)
            if t.code != wrong:
                return got
            return excess.Contribution(tree=t, poly=got.poly + Poly.const(1))

        monkeypatch.setattr(excess, "pixton_contribution", broken)
        code, out, err = run(capsys, "contribution", "--genus", "5", "--method", "both")
        assert code == 1
        assert json.loads(out)[wrong] == "-3*c1 + 6*z1 + 4*z2 + 4*z3"
        # the closed table computes each shape once, at its first tree: the
        # error reaches (1(0(2)(2))), the other tree of wrong's shape
        assert "differ at tree %s (2 of 10 trees differ)" % wrong in err


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


class TestPullbackOutputPath:
    @pytest.mark.parametrize("command", sorted(small_pullback_digests()))
    def test_bytes_match_benchmark_digest(self, capsys, monkeypatch, memo, command):
        monkeypatch.delenv("EXCESS_CACHE_DIR", raising=False)
        code, out, _ = run(capsys, *command.split())
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == small_pullback_digests()[command]

    def test_writes_the_bytes_once(self, monkeypatch, memo):
        # the serialized bytes go to stdout's byte layer, not through its
        # text layer
        class NoText(io.TextIOWrapper):
            def write(self, text):
                raise AssertionError("text written to stdout")

        stdout = NoText(io.BytesIO(), encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.delenv("EXCESS_CACHE_DIR", raising=False)
        assert main(["pullback", "--genus", "4"]) == 0
        digest = hashlib.sha256(stdout.buffer.getvalue()).hexdigest()
        assert digest == "007af957dda7507605b779a6eab31bdabadddea7f65b7ef61f5086b0fa3f9325"

    def test_digests_cover_formats_and_methods(self):
        commands = small_pullback_digests()
        assert "pullback --genus 5 --format json" in commands
        assert "pullback --genus 5 --format admcycles" in commands
        assert any("--method pixton" in cmd for cmd in commands)

    def test_traced_names_keep_their_shape(self, capsys, monkeypatch, memo):
        # the benchmark measures len() of what stratum_class and serialize
        # return and counts Poly.substitute calls
        from torex import polyring, strata

        monkeypatch.delenv("EXCESS_CACHE_DIR", raising=False)
        lens = {"stratum_class": [], "serialize": [], "substitute": []}

        def counted(name, fn, measure):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                lens[name].append(measure(result))
                return result
            return wrapper

        for name in ("stratum_class", "serialize"):
            original = getattr(strata, name)
            rebind_everywhere(monkeypatch, original, counted(name, original, len))
        monkeypatch.setattr(polyring.Poly, "substitute",
                            counted("substitute", polyring.Poly.substitute, lambda p: None))
        code, out, _ = run(capsys, "pullback", "--genus", "5")
        assert code == 0
        terms = json.loads(out)["terms"]
        assert len(lens["stratum_class"]) == len(terms) == 10
        assert sum(lens["stratum_class"]) == sum(len(t["summands"]) for t in terms)
        assert lens["serialize"] == [len(out.encode("utf-8"))]
        assert lens["substitute"]


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

    def test_nested_too_deeply(self, capsys, monkeypatch, tmp_path, uncached):
        deep = "[" * 100000 + "]" * 100000
        assert self.cached_run(capsys, monkeypatch, tmp_path, deep) == uncached

    @pytest.mark.parametrize("field,value", [
        ("poly", [["1/0", []]]),
        ("code", "((("),
        pytest.param("code", DEEP_CODE, id="code-DEEP_CODE"),
        pytest.param("code", DEEP_TREE, id="code-DEEP_TREE"),
    ])
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
        # a well-formed entry of genus 4 in place of the genus-5 tree (1(4)):
        # only the tree set ties the entries to the header's genus
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        entry = next(e for e in data["contributions"] if e["code"] == "(1(4))")
        entry.update(code="(1(3))", poly=[["1", [[["c", 2], 1]]]])
        assert self.cached_run(capsys, monkeypatch, tmp_path, data) == uncached

    # each breaks the form of the degree 3 class of the one-edge tree
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

    def test_unwritable_cache_is_a_warning(self, capsys, monkeypatch, tmp_path, uncached):
        not_a_dir = tmp_path / "cache"
        not_a_dir.write_text("")
        monkeypatch.setenv("EXCESS_CACHE_DIR", str(not_a_dir))
        code, out, err = run(capsys, "pullback", "--genus", "5")
        assert code == 0 and out == uncached
        assert err.startswith("warning: contribution cache not written: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not_a_dir.read_text() == ""

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


# genus -> (dimension, socle degree, socle generator)
RING_CASES = {
    1: (1, 0, "1"),
    2: (2, 1, "lam1"),
    6: (32, 15, "lam1*lam2*lam3*lam4*lam5"),
}


class TestRing:
    @pytest.mark.parametrize("g", sorted(RING_CASES))
    def test_json(self, capsys, g):
        dimension, degree, socle = RING_CASES[g]
        code, out, _ = run(capsys, "ring", "--genus", str(g))
        assert code == 0
        data = json.loads(out)
        assert data["dimension"] == dimension
        assert data["socle_degree"] == degree
        assert data["gorenstein"] is True
        assert data["socle_generator"] == socle

    @pytest.mark.parametrize("g", sorted(RING_CASES))
    def test_text(self, capsys, g):
        dimension, degree, socle = RING_CASES[g]
        code, out, _ = run(capsys, "ring", "--genus", str(g), "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "genus %d: dim %d = 2^%d, socle degree %d, generator %s" % (
            g, dimension, g - 1, degree, socle)
        assert lines[-1] == "gorenstein: true"


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

        rebind_everywhere(monkeypatch, polyring.elem_sym_rewrite, forbidden)
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
        pytest.param(["contribution", "--genus", "4", "--tree", DEEP_CODE],
                     id="contribution --genus 4 --tree DEEP_CODE"),
        pytest.param(["contribution", "--genus", "4", "--tree", DEEP_TREE],
                     id="contribution --genus 4 --tree DEEP_TREE"),
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


def load_trace_child():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    return trace_child


class TestTraceTargets:
    def test_every_traced_name_resolves(self):
        # the benchmark's tracer rebinds these names after importing the CLI;
        # one that is renamed away would stop every traced benchmark run
        trace_child = load_trace_child()
        missing = []
        for owner_path, attr, *_ in trace_child.TARGETS:
            owner = sys.modules.get(owner_path)
            if owner is None:
                module, _, name = owner_path.rpartition(".")
                owner = getattr(sys.modules[module], name)
            if not callable(getattr(owner, attr, None)):
                missing.append("%s.%s" % (owner_path, attr))
        assert missing == []

    def test_closed_table_counts_match_golden(self, monkeypatch, memo):
        # the tracer's own spans around the table pullback-closed-g7 builds:
        # one closed formula per shape (21 shapes for 66 trees), one
        # enumeration, no smoothings, and the recorded contribution sizes
        from torex.polyring import Poly

        trace_child = load_trace_child()
        # the tracer rebinds for good; rebinding each original to itself
        # first has monkeypatch restore it afterwards
        for owner_path, attr, *_ in trace_child.TARGETS:
            if owner_path == "torex.polyring.Poly":
                monkeypatch.setattr(Poly, attr, getattr(Poly, attr))
            else:
                original = getattr(sys.modules[owner_path], attr)
                rebind_everywhere(monkeypatch, original, original)
        recorder = trace_child.Recorder()
        assert trace_child.install(recorder) == []
        excess.all_contributions(7, "pixton")
        spans = {}
        for span in recorder.spans:
            spans.setdefault(span[2], []).append(span[8])
        with open(BENCH / "golden.json", encoding="utf-8") as fh:
            golden = json.load(fh)["counts"]["full"]["pullback-closed-g7"]
        assert len(spans["excess.closed"]) == 21
        assert spans["trees.enumerate"] == [golden["trees.count"]] == [66]
        assert "trees.smoothings" not in spans and golden["trees.smoothings"] == 0
        assert spans["excess.all_contributions"] == [
            [golden["polyring.contrib_terms_total"], golden["polyring.contrib_terms_max"]]
        ] == [[471, 20]]
