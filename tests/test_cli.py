import fcntl
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import threading
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

import torex
from torex import agring, excess, products, strata, verify
from torex.cli import _write_json_list, main
from torex.trees import ExtremalTree, enumerate_trees

from helpers import tree_dict

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACE_CHILD = BENCH / "trace_child.py"

# codes nested past the 256 levels parse_code reads: one past the
# interpreter's recursion limit too, and a well-formed tree
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

    @pytest.mark.parametrize("g, max_edges", [(g, None) for g in range(2, 10)]
                             + [(7, 1), (7, 11)])
    def test_json_bytes(self, capsys, g, max_edges):
        # the tree writer against json.dumps of each tree's object
        argv = ["trees", "--genus", str(g)]
        if max_edges is not None:
            argv += ["--max-edges", str(max_edges)]
        code, out, _ = run(capsys, *argv)
        ts = enumerate_trees(g, g - 1 if max_edges is None else max_edges)
        assert code == 0
        assert out == json.dumps([tree_dict(t) for t in ts], indent=1) + "\n"

    def test_failure_after_two_trees(self, capsys, monkeypatch):
        # the third tree's rendering raises: the first two trees are on
        # stdout as the whole output has them, and one error line on stderr
        argv = ["trees", "--genus", "6"]
        _, whole, _ = run(capsys, *argv)
        rendered = []
        tree_json = sys.modules["torex.trees"].tree_json

        def failing(t, indent):
            if len(rendered) == 2:
                raise torex.TorexError("injected")
            rendered.append(tree_json(t, indent))
            return rendered[-1]

        monkeypatch.setattr(sys.modules["torex.trees"], "tree_json", failing)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "error: injected\n")
        assert whole.startswith(out) and out.endswith(rendered[1])


class TestJsonListWriter:
    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("indent", [0, 1])
    def test_bytes_of_json_list(self, capsys, n, indent):
        # the streamed writer lays an array out as json_list does
        items = ['{\n  "item": %d\n }' % i for i in range(n)]
        _write_json_list(iter(items), indent)
        assert capsys.readouterr().out == torex.json_list(items, indent)


METHODS = ("recursion", "pixton", "both")
# the commands whose JSON is laid out by json_object, strings unescaped
JSON_COMMANDS = (
    [("ring", "--genus", str(g)) for g in range(1, 10)]
    + [("constants", "--genus", str(g), "--format", "json") for g in range(1, 13)]
    + [("contribution", "--genus", str(g), "--method", m) for g in range(2, 8) for m in METHODS]
    + [("contribution", "--genus", str(g), "--tree", code, "--method", m)
       for code, g in (("(1(0(1)(2)))", 4), ("(1(0(0(1)(1))(3)))", 6)) for m in METHODS]
)


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=" ".join)
def test_every_json_command_writes_the_json_dumps_layout(capsys, argv):
    # a string value that ever needed escaping would fail here, not
    # print invalid JSON
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=1) + "\n"


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

    def test_tree_of_another_genus_fails(self, capsys):
        code, out, err = run(capsys, "contribution", "--genus", "5", "--tree", "(1(3))")
        assert code == 1 and out == ""
        assert err == "tree (1(3)) does not contribute for genus 5\n"

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
        wrong = "(1(0(1)(3)))"
        closed = excess.pixton_contribution

        def broken(t):
            got = closed(t)
            if t.code != wrong:
                return got
            # the closed formula's class plus the constant 1
            return excess.Contribution(tree=t, terms=got.terms + ((0, (0,) * t.n_edges, 1),))

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

    def test_admcycles_help_says_what_it_is(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pullback", "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "torex's own audit listing" in help_text
        assert "not input that admcycles reads" in help_text

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

    @staticmethod
    def file_data(raw):
        """A cache file's header object, with its table under
        "contributions"."""
        header, _, table = raw.partition(b"\n")
        return dict(json.loads(header), contributions=json.loads(table))

    @staticmethod
    def file_bytes(data):
        """The bytes of a cache file holding data, as file_data reads it,
        laid out as the writer lays it out."""
        if not isinstance(data, dict):
            return json.dumps(data).encode()
        header = {key: value for key, value in data.items() if key != "contributions"}
        return b"%s\n%s" % (json.dumps(header, separators=(",", ":"), sort_keys=True).encode(),
                            json.dumps(data["contributions"], separators=(",", ":")).encode())

    def cached_run(self, capsys, monkeypatch, tmp_path, content):
        path = tmp_path / self.PATH
        if isinstance(content, str):
            content = content.encode()
        path.write_bytes(content if isinstance(content, bytes) else self.file_bytes(content))
        monkeypatch.setenv("EXCESS_CACHE_DIR", str(tmp_path))
        code, out, err = run(capsys, "pullback", "--genus", "5")
        self.memo.clear()
        assert code == 0 and err == ""
        assert [p.name for p in tmp_path.iterdir()] == [self.PATH]
        # rewritten: a valid table under the right header
        data = self.file_data(path.read_bytes())
        assert (data["genus"], data["method"]) == (5, "recursion")
        assert (data["format"], data["version"]) == (excess.CACHE_FORMAT, torex.__version__)
        assert excess._cache_load(str(tmp_path), 5, "recursion") is not None
        return out

    def valid_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EXCESS_CACHE_DIR", str(tmp_path))
        run(capsys, "pullback", "--genus", "5")
        self.memo.clear()
        written = (tmp_path / self.PATH).read_bytes()
        data = self.file_data(written)
        # each case's edit is the only difference from the writer's file
        assert self.file_bytes(data) == written
        return data

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
        # the same table under the header its CRC-32 asks for
        deep = deep.encode()
        forged = excess._cache_header(5, "recursion", zlib.crc32(deep)) + deep
        assert self.cached_run(capsys, monkeypatch, tmp_path, forged) == uncached

    @pytest.mark.parametrize("field,value", [
        ("poly", [[0, [0, 0, 0, 0], "1/0"]]),
        ("code", "((("),
        pytest.param("code", DEEP_CODE, id="code-DEEP_CODE"),
        pytest.param("code", DEEP_TREE, id="code-DEEP_TREE"),
    ])
    def test_bad_entry(self, capsys, monkeypatch, tmp_path, uncached, field, value):
        # the first entry is (1(0(1)(1)(2))): four edges, degree 0
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

    @pytest.mark.parametrize("key,value", [("format", 0), ("format", 1), ("format", 2),
                                           ("format", 3), ("version", "0.0.0")])
    def test_other_format_or_version(self, capsys, monkeypatch, tmp_path, uncached,
                                     key, value):
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        data[key] = value
        assert self.cached_run(capsys, monkeypatch, tmp_path, data) == uncached

    def test_format_2_file(self, capsys, monkeypatch, tmp_path, uncached):
        # the table as format 2 held it: each class as [coeff text, [[variable,
        # exponent], ...]] per term
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        for entry in data["contributions"]:
            entry["poly"] = [
                [str(c), [[["c", i], 1]] * (i > 0)
                 + [[["z", j], x] for j, x in enumerate(exps, 1) if x]]
                for i, exps, c in entry["poly"]]
        data["format"] = 2
        assert self.cached_run(capsys, monkeypatch, tmp_path, data) == uncached

    def test_tree_set_mismatch(self, capsys, monkeypatch, tmp_path, uncached):
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        data["contributions"].pop()
        assert self.cached_run(capsys, monkeypatch, tmp_path, data) == uncached
        # an extra tree, of genus 6, its class of the form genus 5 asks
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        data["contributions"].append({"code": "(1(5))", "poly": [[3, [0], 1]]})
        assert self.cached_run(capsys, monkeypatch, tmp_path, data) == uncached
        # an entry of genus 4 in place of the genus-5 tree (1(4)), its class of
        # the degree genus 5 asks: only the tree set ties the entries to the
        # header's genus
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        entry = next(e for e in data["contributions"] if e["code"] == "(1(4))")
        entry.update(code="(1(3))", poly=[[3, [0], 1]])
        assert self.cached_run(capsys, monkeypatch, tmp_path, data) == uncached

    # each breaks the form of the degree 3 class of the one-edge tree
    # (1(4)): terms [i, [exponent of z1], coeff] with i + exponent = 3, both
    # nonnegative ints, coeff a nonzero int, no (i, exponents) twice
    @pytest.mark.parametrize("poly", [
        [[1, [0, 2], 5]],
        [[3, [], 5]],
        [[2, [0], 5]],
        [[0, [3.0], 5]],
        [[4, [-1], 5]],
        [[2, [True], 5]],
        [[-1, [4], 5]],
        [[True, [2], 5]],
        [[0, [3], True]],
        [[0, [3], 5.0]],
        [[0, [3], 0]],
        [[0, [3], "0/2"]],
        [[0, [3], "5"]],
        [[0, [3], "1/2"]],
        [[0, [3], 5], [0, [3], 2]],
        [[0, [3]]],
    ], ids=["c1*z2^2", "no-exponent", "degree-2", "float-exponent", "negative-exponent",
            "bool-exponent", "negative-class", "bool-class", "bool-coefficient",
            "float-coefficient", "zero-coefficient", "zero-text-coefficient",
            "integral-text-coefficient", "fraction-text-coefficient", "repeated-term",
            "not-a-triple"])
    def test_not_a_contribution(self, capsys, monkeypatch, tmp_path, uncached, poly):
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        entry = next(e for e in data["contributions"] if e["code"] == "(1(4))")
        entry["poly"] = poly
        assert self.cached_run(capsys, monkeypatch, tmp_path, data) == uncached

    def test_duplicate_tree(self, capsys, monkeypatch, tmp_path, uncached):
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        data["contributions"].append({"code": "(1(4))", "poly": [[3, [0], 1]]})
        assert self.cached_run(capsys, monkeypatch, tmp_path, data) == uncached

    # each edits only the values of a file the writer made: every term keeps
    # the form of a contribution's
    @pytest.mark.parametrize("edit", ["coefficient", "dropped-term", "empty-class"])
    def test_edited_table(self, capsys, monkeypatch, tmp_path, uncached, edit):
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        written = (tmp_path / self.PATH).read_bytes()
        polys = {entry["code"]: entry["poly"] for entry in data["contributions"]}
        if edit == "coefficient":
            polys["(1(4))"][0][2] += 2
        elif edit == "dropped-term":
            next(poly for poly in polys.values() if len(poly) > 1).pop()
        else:
            polys["(1(4))"].clear()
        assert self.cached_run(capsys, monkeypatch, tmp_path, data) == uncached
        assert (tmp_path / self.PATH).read_bytes() == written

    def test_flipped_digits(self, capsys, monkeypatch, tmp_path, uncached):
        # a digit flipped to another digit leaves valid JSON and every term
        # of a contribution's form; 20 evenly spaced digits of the table,
        # which follows the header line
        self.valid_file(tmp_path, monkeypatch, capsys)
        path = tmp_path / self.PATH
        written = path.read_bytes()
        digits = [i for i in range(written.index(b"\n") + 1, len(written))
                  if written[i:i + 1].isdigit()]
        for k in range(20):
            pos = digits[len(digits) * k // 20]
            flipped = bytearray(written)
            flipped[pos] ^= 1
            assert self.cached_run(capsys, monkeypatch, tmp_path, bytes(flipped)) == uncached
            assert path.read_bytes() == written, pos

    def test_code_spelled_otherwise(self, capsys, monkeypatch, tmp_path):
        # the code names the right tree, but is not the tree's own code
        data = self.valid_file(tmp_path, monkeypatch, capsys)
        assert data["contributions"][0]["code"] == "(1(0(1)(1)(2)))"
        data["contributions"][0]["code"] = "(1(0(1)(1)(02)))"
        (tmp_path / self.PATH).write_bytes(self.file_bytes(data))
        assert excess._cache_load(str(tmp_path), 5, "recursion") is None

    @pytest.mark.parametrize("method", ["recursion", "pixton"])
    @pytest.mark.parametrize("g", range(2, 9))
    def test_round_trip(self, tmp_path, g, method):
        table = excess.all_contributions(g, method, cache_dir=str(tmp_path))
        want = [strata.serialize(strata.assemble_pullback(g, method), fmt)
                for fmt in ("json", "admcycles")]
        self.memo.clear()
        assert excess._cache_load(str(tmp_path), g, method) == table
        self.memo.clear()
        expr = strata.assemble_pullback(g, method, cache_dir=str(tmp_path))
        assert [strata.serialize(expr, fmt) for fmt in ("json", "admcycles")] == want

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

    def test_failed_write_keeps_old_file(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / self.PATH
        path.write_text("old")

        class BrokenFile(io.FileIO):
            def write(self, data):
                super().write(b"partial")
                raise OSError("disk full")

        # the writer's open, the builtin's shadow in excess
        monkeypatch.setattr(excess, "open", lambda name, mode: BrokenFile(name, "w"),
                            raising=False)
        excess._cache_store(str(tmp_path), 5, "recursion", {})
        assert capsys.readouterr().err == "warning: contribution cache not written: disk full\n"
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


class TestLambdaProductsDigests:
    @pytest.mark.parametrize("command", ["ring --genus 11", "zeroint --genus 6", "verify-paper"])
    def test_bytes_match_benchmark_digest(self, capsys, command):
        with open(BENCH / "golden.json", encoding="utf-8") as fh:
            digest = json.load(fh)["digests"]["full"][command]
        code, out, _ = run(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def recorded_digest(source: str, command: str) -> str:
    """A command's stdout sha256 as recorded: in bench/golden.json's full
    digests, or in tests/census.json's rows."""
    if source == "golden":
        with open(BENCH / "golden.json", encoding="utf-8") as fh:
            return json.load(fh)["digests"]["full"][command]
    with open(Path(__file__).with_name("census.json"), encoding="utf-8") as fh:
        return next(row["sha256"] for row in json.load(fh)["rows"] if row["command"] == command)


class TestHashSeeds:
    """Every other test runs under the one hash seed of its interpreter:
    the promised bytes do not depend on it."""

    @pytest.mark.parametrize("seed", ["0", "1"])
    @pytest.mark.parametrize("command, source, recorded", [
        # the recursion's bytes are the closed formula's, which the
        # benchmark pins under this command
        ("pullback --genus 7", "golden", "pullback --genus 7 --method pixton --jobs 2"),
        ("zeroint --genus 7", "census", "zeroint --genus 7"),
    ])
    def test_bytes_match_recorded_digest(self, seed, command, source, recorded):
        src = str(Path(torex.__file__).resolve().parent.parent)
        res = subprocess.run([sys.executable, "-B", "-m", "torex.cli", *command.split()],
                             capture_output=True, timeout=300,
                             env={"PYTHONPATH": src, "PYTHONHASHSEED": seed})
        assert (res.returncode, res.stderr) == (0, b"")
        assert hashlib.sha256(res.stdout).hexdigest() == recorded_digest(source, recorded)


class TestCachedPullbackDigests:
    """The benchmark's cached workload: both formats read from a cache that
    the JSON command filled give the recorded bytes."""

    FILL = "pullback --genus 8 --format json"
    COMMANDS = ["pullback --genus 8 --format json", "pullback --genus 8 --format admcycles"]

    def test_bytes_match_benchmark_digest(self, capsys, monkeypatch, tmp_path, memo):
        with open(BENCH / "golden.json", encoding="utf-8") as fh:
            digests = json.load(fh)["digests"]["full"]
        monkeypatch.setenv("EXCESS_CACHE_DIR", str(tmp_path))
        assert run(capsys, *self.FILL.split())[0] == 0
        assert [p.name for p in tmp_path.iterdir()] == ["contrib-g8-recursion.json"]

        def recomputed(*args):
            raise AssertionError("contributions recomputed instead of read")

        monkeypatch.setattr(excess, "enumerate_trees", recomputed)
        for command in self.COMMANDS:
            memo.clear()
            code, out, err = run(capsys, *command.split())
            assert code == 0 and err == ""
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digests[command]


class TestZeroint:
    def test_small_genus(self, capsys):
        code, out, _ = run(capsys, "zeroint", "--genus", "4")
        assert code == 0
        data = json.loads(out)
        assert data["all_vanish"] is True
        assert all(p["vanishes"] for p in data["pairs"])

    @pytest.mark.parametrize("genus", range(2, 9))
    def test_json_is_what_json_dumps_writes(self, capsys, genus):
        # the report is written directly, in json.dumps(..., indent=1)'s bytes
        code, out, _ = run(capsys, "zeroint", "--genus", str(genus))
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=1) + "\n"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_pair_written_before_the_next_is_enumerated(self, monkeypatch, fmt):
        # the number of pairs stdout holds at each enumeration: pair k is
        # written before pair k + 1 is enumerated, 21 pairs at genus 5
        out, written = io.StringIO(), []
        enumerate_pair = products.extremal_refinements

        def recording(p, q):
            written.append(pairs_written(out.getvalue(), fmt))
            return enumerate_pair(p, q)

        monkeypatch.setattr(products, "extremal_refinements", recording)
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["zeroint", "--genus", "5", "--format", fmt]) == 0
        assert written == list(range(21))

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("fault, line", [
        (torex.TorexError("injected"), "error: injected\n"),
        (MemoryError(), "error: out of memory\n"),
    ], ids=["TorexError", "MemoryError"])
    def test_failure_after_two_pairs(self, capsys, monkeypatch, fault, line, fmt):
        # the third pair's enumeration raises: stdout holds the whole
        # output's bytes up to the end of the second pair, and stderr one
        # error line
        argv = ["zeroint", "--genus", "5", "--format", fmt]
        _, whole, _ = run(capsys, *argv)
        calls = []
        enumerate_pair = products.extremal_refinements

        def failing(p, q):
            calls.append((p, q))
            if len(calls) == 3:
                raise fault
            return enumerate_pair(p, q)

        monkeypatch.setattr(products, "extremal_refinements", failing)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, first_pairs(whole, fmt, 2), line)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_pair_that_does_not_vanish(self, capsys, monkeypatch, fmt):
        # a check that fails on the third pair ends the report after the
        # second, with one error line naming the third
        argv = ["zeroint", "--genus", "5", "--format", fmt]
        _, whole, _ = run(capsys, *argv)
        calls = []
        check = products.zeroint_check

        def failing(p, q, comps):
            calls.append((p, q))
            return len(calls) != 3 and check(p, q, comps)

        monkeypatch.setattr(products, "zeroint_check", failing)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, first_pairs(whole, fmt, 2))
        assert err == "error: the pair %s x %s does not vanish\n" % calls[2]

    @pytest.mark.slow
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_own_peak_memory(self, tmp_path):
        # the JSON report at genus 10 is 14.6 MB; written pair by pair, the
        # process's own peak stays far below what holding it took (65 MB)
        src = str(Path(torex.__file__).resolve().parent.parent)
        stub = ("import sys\nfrom torex.cli import main\ncode = main(sys.argv[1:])\n"
                "sys.stdout.flush()\n"
                "print(*(l for l in open('/proc/self/status') if l.startswith('VmHWM:')), "
                "end='', file=sys.stderr)\nsys.exit(code)\n")
        res = subprocess.run([sys.executable, "-B", "-c", stub, "zeroint", "--genus", "10"],
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                             env={"PYTHONPATH": src}, cwd=tmp_path, timeout=600)
        assert res.returncode == 0, res.stderr
        kb = int(re.fullmatch(r"VmHWM:\s+(\d+) kB\n", res.stderr).group(1))
        assert kb < 40 * 1024, "own peak %d kB" % kb


def pairs_written(out: str, fmt: str) -> int:
    """The number of whole pairs a zeroint report holds so far."""
    return out.count("\n") if fmt == "text" else out.count("\n  }")


def first_pairs(whole: str, fmt: str, k: int) -> str:
    """A whole zeroint report's bytes up to the end of its k-th pair: its
    first k lines in text; in JSON, through the closing brace of the k-th
    item of "pairs", the only braces two spaces deep."""
    if fmt == "text":
        return "".join(whole.splitlines(True)[:k])
    end = 0
    for _ in range(k):
        end = whole.index("\n  }", end) + len("\n  }")
    return whole[:end]


def closed_formula_gives_seven(monkeypatch):
    """An empty table memo, and a closed formula of 7 for every shape."""
    monkeypatch.setattr(excess, "_MEMO", {})
    monkeypatch.setattr(excess, "pixton_contribution",
                        lambda t: excess.Contribution(t, ((0, (0,) * t.n_edges, 7),)))


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

    @staticmethod
    def fail_line(capsys, slug):
        code, out, _ = run(capsys, "verify-paper")
        assert code == 1
        failed = [line for line in out.splitlines() if "FAIL" in line]
        assert len(failed) == 1 and failed[0].startswith(slug + " ")
        return failed[0]

    def test_bracket_mismatch_names_the_tree(self, capsys, monkeypatch):
        from torex import verify

        key = (4, "(1(3))")
        wrong = {**verify.WORKED_BRACKETS[key], ("1", "psi1^2"): 2}
        monkeypatch.setitem(verify.WORKED_BRACKETS, key, wrong)
        line = self.fail_line(capsys, "bracket-substitutions")
        assert "FAIL (TorexError: brackets of (1(3)) at genus 4: computed " in line

    def test_contribution_mismatch_names_the_tree(self, capsys, monkeypatch):
        from torex import verify
        from torex.polyring import Poly

        published = list(verify.WORKED_CONTRIBUTIONS)
        published[3] = (5, "(1(0(1)(1)(2)))", Poly.const(4))
        monkeypatch.setattr(verify, "WORKED_CONTRIBUTIONS", published)
        line = self.fail_line(capsys, "worked-contributions")
        assert line.endswith("FAIL (TorexError: contribution of (1(0(1)(1)(2))) at genus 5: "
                             "computed -4, published 4)")

    def test_rewrite_check_runs_the_division_passes(self, monkeypatch):
        slug = "symmetric-rewrite-two-lines"
        assert verify.run_checks([slug]) == [(slug, None)]
        monkeypatch.setattr(excess, "_over_leaf_factors", lambda slots, leaves: None)
        assert verify.run_checks([slug]) == [(slug, (
            "TorexError: slots of z2 + z3 - 3 e1 over (1+z1+z2)(1+z1+z3): "
            "computed [{(0, 1, 0): 1, (0, 0, 1): 1}, {(0, 0, 0): -3}], "
            "published [{(1, 0, 0): 6, (0, 1, 0): 4, (0, 0, 1): 4}, {(0, 0, 0): -3}]"))]

    # one corruption per check that used to print a bare FAIL: a published
    # value, or a library call where the published side is computed
    MISMATCHES = [  # (slug, corruption, the first row that differs)
        ("tree-inventory-counts",
         lambda mp: mp.setitem(verify.TREE_INVENTORY, (5, 4), 11),
         "trees of genus 5 with at most 4 edges: computed 10, published 11"),
        ("tree-aut-weights-g6",
         lambda mp: mp.setattr(verify, "G6_IRREDUCIBLE_AUT_WEIGHTS", [1, 1, 1, 2, 2, 6, 24]),
         "automorphism orders of the irreducible genus-6 trees: "
         "computed [1, 1, 1, 2, 2, 6, 120], published [1, 1, 1, 2, 2, 6, 24]"),
        ("smoothing-counts",
         lambda mp: mp.setitem(verify.SMOOTHING_COUNTS, "(1(0(0(1)(1))(3)))", 5),
         "smoothings of (1(0(0(1)(1))(3))): computed 6, published 5"),
        ("degeneration-depths",
         lambda mp: mp.setitem(verify.DEPTHS, "(1(0(1)(2)))", 2),
         "depth of (1(0(1)(2))): computed 1, published 2"),
        ("leaf-path-monomials",
         lambda mp: mp.setitem(verify.LEAF_PATHS, ("(1(0(1)(3))(1))", 4), [1]),
         "z labels above vertex 4 of (1(0(1)(3))(1)): computed [2], published [1]"),
        ("graded-part-genus3-leaf",
         lambda mp: mp.setattr(verify, "G3_LEAF_DEGREE2", verify._lam(2)),
         "degree-2 part of c(E^dual)/(1 - psi1) on a genus-3 leaf: "
         "computed -lam1@0*psi1@0 + lam2@0 + psi1@0^2, published lam2@0"),
        ("symmetric-rewrite-two-lines",
         lambda mp: mp.setattr(verify, "REWRITE_SLOTS", [verify.REWRITE_SLOTS[0], {(0, 0, 0): 3}]),
         "slots of z2 + z3 - 3 e1 over (1+z1+z2)(1+z1+z3): "
         "computed [{(0, 1, 0): 4, (0, 0, 1): 4, (1, 0, 0): 6}, {(0, 0, 0): -3}], "
         "published [{(1, 0, 0): 6, (0, 1, 0): 4, (0, 0, 1): 4}, {(0, 0, 0): 3}]"),
        ("closed-formula-agreement-g2-6", closed_formula_gives_seven,
         "closed formula of (1(1)) at genus 2: computed 7, published 1"),
        ("contribution-tables-g4-g5-g6",
         lambda mp: mp.setattr(verify, "G5_FOUR_EDGE_VALUES", ["-3", "-4", "-4"]),
         "reducible 4-edge contributions at genus 5: "
         "computed ['-3', '-3', '-4'], published ['-3', '-4', '-4']"),
        ("pullback-weights",
         lambda mp: mp.setattr(verify, "G6_STAR_WEIGHT", Fraction(1, 60)),
         "weight of (1(1)(1)(1)(1)(1)) in the genus-6 pullback: "
         "computed 1/120, published 1/60"),
        ("projection-coefficients",
         lambda mp: mp.setitem(verify.PROJECTION_COEFFICIENTS, 6, Fraction(2370, 691)),
         "g/(6|B_2g|) at genus 6: computed 2730/691, published 2370/691"),
        ("lambda-ring-relations",
         lambda mp: mp.setattr(agring, "schur_wedge2", lambda g: agring.lam(1)),
         "Euler class of wedge^2 E at genus 3: computed lam1, published lam1*lam2"),
        ("virtual-product-classes",
         lambda mp: mp.setattr(agring, "virtual_class_product",
                               lambda g, k: (agring.lam(1), agring.lam(1))),
         "virtual classes of the (2, 2) split: computed (Poly(lam1), Poly(lam1)), "
         "published (Poly(-lam1), Poly(-lam1))"),
        ("product-locus-vanishing",
         lambda mp: mp.setitem(verify.REFINEMENT_COUNTS, ((1, 5), (3, 3)), 2),
         "extremal refinements of (1, 5) x (3, 3): computed 1, published 2"),
    ]

    @pytest.mark.parametrize("slug, corrupt, row", MISMATCHES, ids=[m[0] for m in MISMATCHES])
    def test_mismatch_names_the_row(self, capsys, monkeypatch, slug, corrupt, row):
        corrupt(monkeypatch)
        assert self.fail_line(capsys, slug).endswith("FAIL (TorexError: %s)" % row)


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


def drop_first_smoothings(monkeypatch):
    smoothings = excess.smoothings
    monkeypatch.setattr(excess, "smoothings", lambda t: smoothings(t)[1:])


def keep_most_edges(monkeypatch):
    enumerate_trees = excess.enumerate_trees
    monkeypatch.setattr(excess, "enumerate_trees", lambda g, max_edges: [
        t for t in enumerate_trees(g, max_edges) if t.n_edges == g - 1])


def mix_genera(monkeypatch):
    monkeypatch.setattr(products, "split_partitions", lambda g: [(4, 2), (3, 2)])


class TestInternalFailure:
    """A fault the library detects, injected in one layer at a time, ends
    the command with exit 1 and one stderr line naming its reason."""

    @pytest.mark.parametrize("argv, fault, reason", [
        # the recursion's division by prod z_e meets a term it does not divide
        (["pullback", "--genus", "6"], drop_first_smoothings,
         r"term with z exponents \([\d, ]+\) not divisible by \([\d, ]+\)"),
        (["pullback", "--genus", "5"], keep_most_edges,
         r"smoothing \([\d()]+\) of \([\d()]+\) has no solved contribution"),
        (["zeroint", "--genus", "5"], mix_genera, "partitions of genus 5 and 6"),
    ], ids=["polyring", "excess", "products"])
    def test_one_error_line(self, capsys, monkeypatch, memo, argv, fault, reason):
        monkeypatch.delenv("EXCESS_CACHE_DIR", raising=False)
        fault(monkeypatch)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert re.search(reason, err) and "Traceback" not in err


class TestClosedStdout:
    """A reader that closes standard out early ends the command with exit
    1 and nothing on stderr."""

    def test_reader_closes_after_one_line(self):
        src = str(Path(torex.__file__).resolve().parent.parent)
        read_fd, write_fd = os.pipe()
        # a one-page pipe: the 67 kB listing blocks long before its end
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        proc = subprocess.Popen(
            [sys.executable, "-B", "-m", "torex.cli", "trees", "--genus", "10",
             "--format", "text"],
            stdout=write_fd, stderr=subprocess.PIPE, env={"PYTHONPATH": src})
        os.close(write_fd)
        # unbuffered, readline takes the first line a byte at a time
        with open(read_fd, "rb", buffering=0) as reader:
            line = reader.readline()
        err = proc.communicate(timeout=60)[1]
        assert line.startswith(b"(1(") and b"aut=" in line
        assert proc.returncode == 1
        assert err == b""

    def test_write_raises_broken_pipe(self, capsys, monkeypatch, memo):
        class ClosedPipe(io.BytesIO):
            def write(self, data):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.delenv("EXCESS_CACHE_DIR", raising=False)
        saved = os.dup(1)
        try:
            with monkeypatch.context() as m:
                m.setattr(sys, "stdout", io.TextIOWrapper(ClosedPipe()))
                code = main(["pullback", "--genus", "5"])
            # fd 1 is left on os.devnull for the interpreter's last flush
            assert os.path.samestat(os.fstat(1), os.stat(os.devnull))
        finally:
            os.dup2(saved, 1)
            os.close(saved)
        assert code == 1
        assert capsys.readouterr().err == ""


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
        ["contribution", "--genus", "2", "--tree", "(1(01))"],
        ["contribution", "--genus", "3", "--tree", "(1(\uff12))"],
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


def deep_tree(levels: int) -> str:
    """A well-formed tree code on DEEP_TREE's pattern, levels vertices on
    its deepest root-to-leaf path."""
    n = levels - 2
    return "(1" + "(0" * n + "(1)(1)" + ")(1)" * n + ")"


class TestNestingBound:
    """A plain script and the CLI read a tree code up to the same stated
    depth, whatever their callers' stacks."""

    SCRIPT = ("import sys\n"
              "from torex import TorexError\n"
              "from torex.trees import ExtremalTree\n"
              "try:\n"
              "    print(ExtremalTree.from_code(sys.argv[1]).n_edges)\n"
              "except TorexError as exc:\n"
              "    print(exc)\n")

    @staticmethod
    def fresh(*args):
        src = str(Path(torex.__file__).resolve().parent.parent)
        return subprocess.run([sys.executable, "-B", *args], capture_output=True, text=True,
                              env={"PYTHONPATH": src}, timeout=60)

    def test_deepest_code_is_read(self):
        code = deep_tree(256)
        script = self.fresh("-c", self.SCRIPT, code)
        assert (script.returncode, script.stdout) == (0, "510\n")
        cli = self.fresh("-m", "torex.cli", "contribution", "--genus", "4", "--tree", code)
        assert cli.returncode == 1
        assert cli.stderr.endswith("does not contribute for genus 4\n")

    def test_deepest_code_is_read_under_a_deep_stack(self):
        # the tree is built by a walk with its own stack: only parsing
        # takes a frame a level
        script = ("import sys\n"
                  "from torex import trees\n"
                  "def down(k):\n"
                  "    if k:\n"
                  "        return down(k - 1)\n"
                  "    trees._tree.cache_clear()\n"
                  "    return trees.ExtremalTree.from_code(sys.argv[1]).n_edges\n"
                  "print(down(400))\n")
        res = self.fresh("-c", script, deep_tree(256))
        assert (res.returncode, res.stdout) == (0, "510\n"), res.stderr

    def test_one_level_deeper_is_refused(self):
        code = deep_tree(257)
        script = self.fresh("-c", self.SCRIPT, code)
        assert (script.returncode, script.stdout) == (
            0, "tree code nested deeper than 256 levels at 512\n")
        cli = self.fresh("-m", "torex.cli", "contribution", "--genus", "4", "--tree", code)
        assert cli.returncode == 2
        assert cli.stderr.endswith(
            "error: argument --tree: malformed tree code: " + script.stdout)


def load_trace_child():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    return trace_child


def install_tracer(monkeypatch):
    """The benchmark tracer's recorder, installed around every traced name
    until the test ends."""
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
    return recorder


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
        recorder = install_tracer(monkeypatch)
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

    def test_lambda_commands_call_traced_names(self, monkeypatch, capsys):
        # agring.ring_s and products.zeroint_s add up the traced spans the
        # command calls itself, and products.pairs counts zeroint_check among
        # them: 55 pairs at genus 6
        recorder = install_tracer(monkeypatch)
        traced_main = recorder.span("cli.main", sys.modules["torex.cli"].main)
        assert traced_main(["ring", "--genus", "5"]) == 0
        assert traced_main(["zeroint", "--genus", "6"]) == 0
        capsys.readouterr()
        names = {span[0]: span[2] for span in recorder.spans}
        direct = [span[2] for span in recorder.spans
                  if names.get(span[1], "").startswith("cli.")]
        assert any(name.startswith("agring.") for name in direct)
        assert direct.count("products.zeroint_check") == 55


class TestTraceChildProcess:
    """The tracer in a fresh process, where `torex.cli` alone decides what
    is in sys.modules; install_tracer above runs after pytest has imported
    every module, so it cannot see a module the CLI forgot to register."""

    @pytest.mark.parametrize("argv, spans", [
        (["ring", "--genus", "3"], "agring.socle_degree"),
        (["pullback", "--genus", "3"], "strata.assemble"),
        (["pullback", "--genus", "5", "--method", "pixton"], "excess.closed"),
    ])
    def test_every_target_resolves(self, capsys, tmp_path, argv, spans):
        path = tmp_path / "spans.json"
        src = str(Path(torex.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "EXCESS_CACHE_DIR"}
        env["PYTHONPATH"] = src
        res = subprocess.run([sys.executable, "-B", str(TRACE_CHILD), str(path), "fresh",
                              "--", *argv], capture_output=True, text=True, env=env,
                             cwd=tmp_path, timeout=120)
        assert res.returncode == 0, res.stderr
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["run_id"] == "fresh" and data["argv"] == argv
        assert spans in {span[2] for span in data["spans"]}
        # the traced stdout is the command's own
        assert res.stdout == run(capsys, *argv)[1]
        # the table's measure is the term count of its Polys, summed and
        # at most, as in-process
        measures = [span[8] for span in data["spans"] if span[2] == "excess.all_contributions"]
        if argv[0] == "pullback":
            method = argv[4] if len(argv) > 4 else "recursion"
            table = excess.all_contributions(int(argv[2]), method)
            sizes = [len(c.poly.terms) for c in table.values()]
            assert measures == [[sum(sizes), max(sizes)]]
        else:
            assert measures == []


@pytest.mark.slow
def test_benchmark_selftest_passes():
    # the benchmark traces library names and requires each workload to
    # reach its layers: a library change that breaks either fails here
    env = {k: v for k, v in os.environ.items() if k != "EXCESS_CACHE_DIR"}
    res = subprocess.run([sys.executable, "bench/selftest.py"], cwd=BENCH.parent,
                         capture_output=True, text=True, env=env, timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.splitlines()[-1] == "selftest: ok"
