import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from rado_lab import (
    check_extension,
    complete_graph,
    format_graph,
    make_named,
    parse_graph,
    path_graph,
)
from rado_lab import cli
from rado_lab.cli import main
from rado_lab.gadgets import format_gadget
from rado_lab.graphs import build_paley
from rado_lab.ramsey import DEFAULT_COLORING_BUDGET, DEFAULT_COPY_BUDGET


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestGenerate:
    def test_paley_writes_file_and_reports(self, workspace, capsys):
        code, out = run_cli(capsys, "generate", "paley", "13", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["extension_check"] == {"k": 2, "passed": True}
        on_disk = parse_graph((workspace / "paley13.g").read_text())
        assert on_disk == build_paley(13).graph

    def test_paley_human_summary(self, workspace, capsys):
        code, out = run_cli(capsys, "generate", "paley", "13")
        assert code == 0
        assert "2-e.c.: pass" in out

    def test_ec_passes_requested_check(self, workspace, capsys):
        # the seed is reported, and a different one builds a different graph
        digests = []
        for seed in (7, 8):
            code, out = run_cli(capsys, "generate", "ec", "-k", "2", "--seed", str(seed), "--json")
            assert code == 0
            report = json.loads(out)
            assert report["seed"] == seed
            assert report["extension_check"]["passed"]
            g = parse_graph((workspace / f"ec_k2_s{seed}.g").read_text())
            assert check_extension(g, 2).passed
            digests.append(report["output_sha256"])
        assert digests[0] != digests[1]

    def test_module_entry_point_matches_main(self, workspace, capsys):
        # python -m rado_lab runs the same main, so the reports are equal
        argv = ["generate", "paley", "13", "--json", "-o", str(workspace / "p13.g")]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "rado_lab", *argv], capture_output=True, text=True, env=env, check=True
        )
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert done.stdout == out

    def test_imports_only_the_standard_library(self):
        # a fresh interpreter, so modules this suite loaded do not hide any;
        # site hooks load before the snapshot and are not counted
        code = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import rado_lab, rado_lab.cli\n"
            "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(json.dumps(sorted(new - {'rado_lab'} - set(sys.stdlib_module_names))))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert json.loads(done.stdout) == []

    def test_failing_check_reports_least_pair(self, workspace, capsys):
        # Paley(13) is 2-e.c. but not 3-e.c.: the file is still written, and
        # the report names the least failing pair
        code, out = run_cli(capsys, "generate", "paley", "13", "--check-k", "3", "--json")
        assert code == 0
        check = json.loads(out)["extension_check"]
        assert check == {"k": 3, "passed": False, "failing": [[], [0, 1, 7]]}
        assert check["failing"] == [list(part) for part in check_extension(build_paley(13).graph, 3).failing]
        assert parse_graph((workspace / "paley13.g").read_text()) == build_paley(13).graph

    def test_bad_modulus_is_usage_error(self, workspace, capsys):
        code, _ = run_cli(capsys, "generate", "paley", "6")
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (("paley",), "paley generation needs q"),
        (("ec", "13"), "ec generation takes -k, not a positional modulus"),
        # Paley(13) fails at level 3, and -k would be dropped silently
        (("paley", "13", "-k", "3"), "paley generation takes --check-k, not -k"),
    ], ids=["paley-no-q", "ec-modulus", "paley-k"])
    def test_misplaced_arguments_are_refused(self, workspace, capsys, argv, message):
        code = main(["generate", *argv, "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert list(workspace.iterdir()) == []

    def test_output_overwrites_a_longer_file_exactly(self, workspace, capsys):
        (workspace / "p.g").write_text(format_graph(build_paley(29).graph))
        code, out = run_cli(capsys, "generate", "paley", "13", "--json", "-o", "p.g")
        assert code == 0
        data = (workspace / "p.g").read_bytes()
        assert data == format_graph(build_paley(13).graph).encode()
        assert json.loads(out)["output_sha256"] == hashlib.sha256(data).hexdigest()

    def test_unwritable_output_is_error(self, workspace, capsys):
        code = main(["generate", "paley", "13", "-o", "missing/p.g"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: [Errno 2] No such file or directory")

    def test_refused_check_writes_no_file(self, workspace, capsys):
        code = main(["generate", "paley", "13", "-o", "x.g", "--check-k", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: k must be at least 1\n"
        assert captured.out == ""
        assert not (workspace / "x.g").exists()


class TestClassifyRelation:
    @pytest.fixture()
    def host29(self, workspace):
        path = workspace / "paley29.g"
        path.write_text(format_graph(build_paley(29).graph))
        return str(path)

    def test_parity3_switch_class(self, host29, capsys):
        code, out = run_cli(
            capsys, "classify-relation", "--spec", "parity:3",
            "--host", host29, "-k", "3", "--json",
        )
        assert code == 0
        assert json.loads(out)["verdict"]["class"] == "switch"

    def test_parity4_minus_class(self, host29, capsys):
        code, out = run_cli(
            capsys, "classify-relation", "--spec", "parity:4",
            "--host", host29, "-k", "3", "--json",
        )
        assert code == 0
        assert json.loads(out)["verdict"]["class"] == "minus"

    def test_full_relation_equality_class(self, host29, capsys):
        code, out = run_cli(
            capsys, "classify-relation", "--spec", 'formula:"x0=x0"',
            "--host", host29, "-k", "3", "--json",
        )
        assert code == 0
        assert json.loads(out)["verdict"]["class"] == "equality"

    def test_joint_specs(self, host29, capsys):
        code, out = run_cli(
            capsys, "classify-relation", "--spec", "parity:3", "--spec", "parity:4",
            "--host", host29, "-k", "3", "--json",
        )
        assert code == 0
        assert json.loads(out)["verdict"]["class"] == "minus-switch"

    def test_parser_built_once_namespaces_fresh(self, host29, capsys, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        try:
            specs = [
                json.loads(run_cli(capsys, "classify-relation", "--spec", spec, "--host", host29, "-k", "2", "--json")[1])["specs"]
                for spec in ("parity:3", "parity:4")
            ]
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1
        # the appended --spec of the first call does not leak into the second
        assert specs == [["parity:3"], ["parity:4"]]

    def test_tuple_set_reports_no_scan(self, workspace, capsys):
        # {(0, 1)} misses the edge (0, 3) of Paley(13): undefinable, with no
        # complement or switch scan
        (workspace / "t.txt").write_text("arity 2\n0 1\n")
        (workspace / "p13.g").write_text(format_graph(build_paley(13).graph))
        code, out = run_cli(
            capsys, "classify-relation", "--spec", "tuples:@t.txt",
            "--host", "p13.g", "-k", "2", "--json",
        )
        assert code == 0
        cert = json.loads(out)["verdict"]["relations"][0]
        assert cert == {
            "relation": "tuples:t.txt[1]",
            "class": "undefinable",
            "equality_definable": False,
            "equality_witness": {"in": [0, 1], "out": [0, 3]},
        }

    def test_tuple_file_digest_is_an_input(self, workspace, capsys):
        # two tuple files at one path print different inputs
        (workspace / "p13.g").write_text(format_graph(build_paley(13).graph))
        digests = []
        for text in ("arity 2\n0 1\n", "arity 2\n0 1\n1 0\n"):
            (workspace / "t.txt").write_text(text)
            code, out = run_cli(
                capsys, "classify-relation", "--spec", "tuples:@t.txt",
                "--host", "p13.g", "-k", "2", "--json",
            )
            assert code == 0
            inputs = json.loads(out)["inputs"]
            assert inputs == {name: hashlib.sha256((workspace / name).read_bytes()).hexdigest() for name in ("t.txt", "p13.g")}
            digests.append(inputs["t.txt"])
        assert digests[0] != digests[1]

    @pytest.mark.parametrize(
        "lines, least", [("0 1\n0 99\n", "(0, 99)"), ("-3 5\n0 1\n13 2\n", "(-3, 5)")], ids=["above", "negative"]
    )
    def test_tuple_outside_host_is_error(self, workspace, capsys, lines, least):
        # refused before classification: the scan would skip such a tuple
        (workspace / "t.txt").write_text("arity 2\n" + lines)
        (workspace / "p13.g").write_text(format_graph(build_paley(13).graph))
        code = main(["classify-relation", "--spec", "tuples:@t.txt", "--host", "p13.g", "-k", "2", "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: tuple {least} in t.txt is not over the host's vertices 0..12\n"
        assert captured.out == ""

    def test_host_that_cannot_show_a_failing_fact_is_error(self, workspace, host29, capsys):
        # Paley(13) has no K4, so its scan cannot show that K4 depends on
        # edges; Paley(29), which is 3-e.c., can
        (workspace / "p13.g").write_text(format_graph(build_paley(13).graph))
        spec = "formula:E(0,1)&E(0,2)&E(0,3)&E(1,2)&E(1,3)&E(2,3)"
        code = main(["classify-relation", "--spec", spec, "--host", "p13.g", "-k", "2", "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "error: the host cannot witness that formula:(((((E(0,1) & E(0,2)) & E(0,3)) & E(1,2)) & E(1,3)) & E(2,3))"
            " is not equality-definable; a host that passes the 3-extension check realizes every type of arity 4\n"
        )
        assert captured.out == ""
        code, out = run_cli(capsys, "classify-relation", "--spec", spec, "--host", host29, "-k", "3", "--json")
        assert code == 0
        assert json.loads(out)["verdict"]["class"] == "graph"

    def test_bad_spec_is_error(self, host29, capsys):
        code, _ = run_cli(
            capsys, "classify-relation", "--spec", "parity:banana",
            "--host", host29, "-k", "3",
        )
        assert code == 1

    def test_missing_host_is_error(self, workspace, capsys):
        code, _ = run_cli(
            capsys, "classify-relation", "--spec", "parity:3",
            "--host", "nope.g", "-k", "2",
        )
        assert code == 1


class TestClassifyFunction:
    def write_gadget(self, workspace, gadget, name="gadget.fg"):
        src_name, dst_name = "src.g", "dst.g"
        (workspace / src_name).write_text(format_graph(gadget.src))
        (workspace / dst_name).write_text(format_graph(gadget.dst))
        path = workspace / name
        path.write_text(format_gadget(gadget, src_name, dst_name))
        return str(path)

    def test_identity_gadget(self, workspace, capsys):
        g = build_paley(13).graph
        path = self.write_gadget(workspace, make_named("identity", g))
        code, out = run_cli(capsys, "classify-function", "--gadget", path, "--json")
        assert code == 0
        assert json.loads(out)["verdict"]["classes"] == ["identity"]

    def test_ee_gadget(self, workspace, capsys):
        g = build_paley(13).graph
        path = self.write_gadget(
            workspace, make_named("eE", g, dst=complete_graph(13))
        )
        code, out = run_cli(capsys, "classify-function", "--gadget", path, "--json")
        assert code == 0
        assert json.loads(out)["verdict"]["classes"] == ["eE"]

    def test_noncanonical_report_lists_pairs(self, workspace, capsys):
        # switching the path 0-1-2 at {2} keeps the edge 0 1 and flips the
        # non-edge 0 2 and the edge 1 2: no class fits all three pairs
        path = self.write_gadget(workspace, make_named("switch", path_graph(3), s={2}))
        code, out = run_cli(capsys, "classify-function", "--gadget", path, "--json")
        assert code == 0
        assert json.loads(out)["verdict"] == {
            "set": [0, 1, 2],
            "classes": [],
            "noncanonical": True,
            "pairs": [
                {"pair": [0, 1], "kind": "edge", "color": "edge"},
                {"pair": [0, 2], "kind": "nonedge", "color": "edge"},
                {"pair": [1, 2], "kind": "edge", "color": "nonedge"},
            ],
        }

    def test_constant_graph_profile(self, workspace, capsys):
        # the parts are the constants, then the other vertices by adjacency
        # to (0, 1) from (edge, edge) down to (non-edge, non-edge); a minus
        # map reads "minus" on every cell holding both pair kinds, and each
        # cell at a constant holds one kind only
        paley = build_paley(13)
        g = paley.graph
        path = self.write_gadget(workspace, make_named("minus", g, witness=paley.complement_witness))
        code, out = run_cli(
            capsys, "classify-function", "--gadget", path, "--constants", "0,1", "--json",
        )
        assert code == 0
        profile = json.loads(out)["verdict"]["profile"]
        adjacency = [(True, True), (True, False), (False, True), (False, False)]
        assert profile["parts"] == [[0], [1]] + [
            [v for v in range(2, 13) if (g.has_edge(v, 0), g.has_edge(v, 1)) == a] for a in adjacency
        ]
        assert profile["parts"][2] == [4, 10] and not g.has_edge(4, 10)
        assert profile["diag"] == ["undetermined"] * 3 + ["minus"] * 3
        assert profile["off"] == [
            [i, j, "undetermined" if i < 2 else "minus"] for i, j in combinations(range(6), 2)
        ]

    def test_partition_profile(self, workspace, capsys):
        g = build_paley(13).graph
        path = self.write_gadget(workspace, make_named("minus", g))
        code, out = run_cli(
            capsys, "classify-function", "--gadget", path,
            "--parts", "0,1,2,3,4,5|6,7,8,9,10,11,12", "--json",
        )
        assert code == 0
        profile = json.loads(out)["verdict"]["profile"]
        assert profile["diag"] == ["minus", "minus"]
        assert profile["off"] == [[0, 1, "minus"]]


    @pytest.mark.parametrize("option, value", [
        ("--set", ""), ("--set", ","), ("--parts", ""), ("--parts", "|"), ("--constants", ""),
    ])
    def test_evidence_naming_no_vertex_is_error(self, workspace, capsys, option, value):
        path = self.write_gadget(workspace, make_named("identity", build_paley(13).graph))
        code = main(["classify-function", "--gadget", path, option, value, "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"error: {option} {value!r} names no vertex" in captured.err

    def test_malformed_vertex_list_is_error(self, workspace, capsys):
        path = self.write_gadget(workspace, make_named("identity", build_paley(13).graph))
        code = main(["classify-function", "--gadget", path, "--set", "0,x", "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: malformed vertex list '0,x'\n"

    @pytest.mark.parametrize("first, second", [
        (("--set", "0,1"), ("--parts", "0|1")),
        (("--set", "0,1"), ("--constants", "0")),
        (("--parts", "0|1"), ("--constants", "0")),
    ])
    def test_evidence_options_exclude_each_other(self, workspace, capsys, first, second):
        path = self.write_gadget(workspace, make_named("identity", build_paley(13).graph))
        with pytest.raises(SystemExit) as exc:
            main(["classify-function", "--gadget", path, *first, *second])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


K5_WITNESS_SHA256 = "08fb11c6337726031c42cedfa41aed60096843b774150b2836bd43775452cc66"


class TestRamseyCli:
    @pytest.fixture()
    def clique_files(self, workspace):
        paths = {}
        for name, n in (("k6", 6), ("k5", 5), ("k3", 3), ("k2", 2)):
            p = workspace / f"{name}.g"
            p.write_text(format_graph(complete_graph(n)))
            paths[name] = str(p)
        return paths

    def test_budget_defaults_are_the_library_defaults(self):
        args = cli.build_parser().parse_args(["ramsey", "verify", "--S", "s", "--H", "h", "--P", "p", "-k", "2"])
        assert (args.budget_colorings, args.budget_copies) == (DEFAULT_COLORING_BUDGET, DEFAULT_COPY_BUDGET)

    def test_k6_holds(self, clique_files, capsys):
        code, out = run_cli(
            capsys, "ramsey", "verify", "--S", clique_files["k6"],
            "--H", clique_files["k3"], "--P", clique_files["k2"],
            "-k", "2", "--json",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "holds"

    def test_k5_fails_and_writes_witness(self, workspace, clique_files, capsys):
        code, out = run_cli(
            capsys, "ramsey", "verify", "--S", clique_files["k5"],
            "--H", clique_files["k3"], "--P", clique_files["k2"],
            "-k", "2", "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "fails"
        witness_text = (workspace / report["witness_file"]).read_text()
        assert witness_text.startswith("copies 10")
        # the least bad coloring: the witness file is byte-identical to the
        # one the plain lexicographic search wrote
        assert report["witness_sha256"] == hashlib.sha256(witness_text.encode()).hexdigest() == K5_WITNESS_SHA256

    def test_witness_overwrites_a_longer_file_exactly(self, workspace, clique_files, capsys):
        # the file is written in place and then cut to the new length
        (workspace / "w.txt").write_text("stale line\n" * 500)
        code, out = run_cli(
            capsys, "ramsey", "verify", "--S", clique_files["k5"],
            "--H", clique_files["k3"], "--P", clique_files["k2"],
            "-k", "2", "--witness-out", "w.txt", "--json",
        )
        assert code == 0
        assert json.loads(out)["witness_sha256"] == K5_WITNESS_SHA256
        assert hashlib.sha256((workspace / "w.txt").read_bytes()).hexdigest() == K5_WITNESS_SHA256

    def test_witness_to_dev_null(self, clique_files, capsys):
        # a device is written but not cut
        code, out = run_cli(
            capsys, "ramsey", "verify", "--S", clique_files["k5"],
            "--H", clique_files["k3"], "--P", clique_files["k2"],
            "-k", "2", "--witness-out", os.devnull, "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert (report["witness_file"], report["witness_sha256"]) == (os.devnull, K5_WITNESS_SHA256)

    def test_single_color_holds(self, clique_files, capsys):
        code, out = run_cli(
            capsys, "ramsey", "verify", "--S", clique_files["k5"],
            "--H", clique_files["k5"], "--P", clique_files["k2"],
            "-k", "1", "--json",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "holds"

    @pytest.mark.parametrize(
        "option, message",
        [
            ("--budget-colorings", "coloring budget must be non-negative"),
            ("--budget-copies", "copy budget must be non-negative"),
        ],
    )
    def test_negative_budget_is_error(self, clique_files, capsys, option, message):
        code = main([
            "ramsey", "verify", "--S", clique_files["k5"],
            "--H", clique_files["k3"], "--P", clique_files["k2"], "-k", "2", option, "-1", "--json",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "p_text,message",
        [
            ("n 2\n0 1\npart 0: 0\npart 1: 1\n", "pattern is a partitioned graph, host is a plain graph"),
            ("n 2\n0 1\nconst: 0\n", "pattern is a constant graph, host is a plain graph"),
        ],
        ids=["partitioned", "constant"],
    )
    def test_kind_mismatch_is_error(self, workspace, clique_files, capsys, p_text, message):
        (workspace / "k2p.g").write_text(p_text)
        code = main([
            "ramsey", "verify", "--S", clique_files["k3"],
            "--H", clique_files["k3"], "--P", str(workspace / "k2p.g"), "-k", "2",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: structure kind mismatch: {message}"]


class TestInterpolateCli:
    @pytest.fixture()
    def paley_files(self, workspace):
        paley = build_paley(13)
        (workspace / "p13.g").write_text(format_graph(paley.graph))
        minus = make_named("minus", paley.graph, witness=paley.complement_witness)
        (workspace / "minus.fg").write_text(format_gadget(minus, "p13.g", "p13.g"))
        return paley

    def test_certified_miss_reports_its_separation(self, paley_files, capsys):
        # switching keeps the parity of each triple, the complement map of
        # Paley(13) flips it: the first triple separates
        args = ("interpolate", "--target", "minus.fg", "--gens", "switch",
                "--hosts", "p13.g", "--depth", "2", "--json")
        code, first = run_cli(capsys, *args)
        assert code == 0
        assert run_cli(capsys, *args) == (0, first)
        verdict = json.loads(first)["verdict"]
        assert verdict["found"] is False
        sep = verdict["separated_by"]
        assert sep["subset"] == [0, 1, 2]
        types = sep["types"]
        assert types == sorted(types, key=lambda t: (t["pattern"], t["code"]))
        assert sep["source_type"] in types and sep["image_type"] not in types
        assert {t["code"] for t in types} == {0, 3, 5, 6}  # the even triples
        assert sep["image_type"] == {"pattern": [0, 1, 2], "code": 2}

    def test_found_report_has_no_separation(self, paley_files, capsys):
        code, out = run_cli(capsys, "interpolate", "--target", "minus.fg", "--gens", "minus",
                            "--hosts", "p13.g", "--depth", "1", "--json")
        assert code == 0
        verdict = json.loads(out)["verdict"]
        assert verdict["found"] is True and "separated_by" not in verdict

    def test_depth_below_one_refused_before_the_certificate(self, paley_files, capsys):
        code = main(["interpolate", "--target", "minus.fg", "--gens", "switch",
                     "--hosts", "p13.g", "--depth", "0", "--json"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: depth must be at least 1\n"


class TestInputFiles:
    """An input file is read once: its text is decoded as text mode decodes
    it, and its digest is that of the bytes on disk."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify-relation", "--spec", "parity:4", "--host", "{d}/p13.g", "-k", "2"),
            ("classify-function", "--gadget", "{d}/minus.fg"),
            ("interpolate", "--target", "{d}/minus.fg", "--gens", "switch", "--hosts", "{d}/p13.g", "--depth", "2"),
            ("ramsey", "verify", "--S", "{d}/k5.g", "--H", "{d}/k3.g", "--P", "{d}/k2.g", "-k", "2",
             "--witness-out", "{d}/w.txt"),
        ],
    )
    def test_crlf_input_reads_as_lf(self, workspace, capsys, argv):
        paley = build_paley(13)
        minus = make_named("minus", paley.graph, witness=paley.complement_witness)
        texts = {"p13.g": format_graph(paley.graph), "minus.fg": format_gadget(minus, "p13.g", "p13.g")}
        texts.update((f"k{n}.g", format_graph(complete_graph(n))) for n in (5, 3, 2))
        reports = {}
        for d, newline in (("lf", "\n"), ("crlf", "\r\n")):
            (workspace / d).mkdir()
            for name, text in texts.items():
                (workspace / d / name).write_bytes(text.replace("\n", newline).encode("ascii"))
            code, out = run_cli(capsys, *(arg.format(d=d) for arg in argv), "--json")
            assert code == 0
            reports[d] = json.loads(out)
            for path, digest in reports[d].pop("inputs").items():
                assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()
        # the ramsey witness is written with "\n", wherever its inputs came from
        for report in reports.values():
            report.pop("witness_file", None)
        assert reports["lf"] == reports["crlf"]

    def test_non_ascii_input_is_error(self, workspace, capsys):
        (workspace / "bad.g").write_bytes(b"n 2\n0 1\xe9\n")
        code = main(["classify-relation", "--spec", "parity:3", "--host", "bad.g", "-k", "2"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: 'ascii' codec can't decode byte 0xe9 in position 7: ordinal not in range(128)\n"
        )

    def test_each_file_opened_once(self, workspace, capsys, monkeypatch):
        for n in (5, 3, 2):
            (workspace / f"k{n}.g").write_text(format_graph(complete_graph(n)))
        opened = []

        def recorded(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", recorded, raising=False)
        code, out = run_cli(
            capsys, "ramsey", "verify", "--S", "k5.g", "--H", "k3.g", "--P", "k2.g",
            "-k", "2", "--witness-out", "w.txt", "--json",
        )
        assert code == 0
        assert json.loads(out)["witness_sha256"] == K5_WITNESS_SHA256
        assert opened == ["k5.g", "k3.g", "k2.g", "w.txt"]
        opened.clear()
        code, out = run_cli(capsys, "generate", "paley", "13", "--json", "-o", "p13.g")
        assert code == 0
        assert opened == ["p13.g"]
        assert json.loads(out)["output_sha256"] == hashlib.sha256((workspace / "p13.g").read_bytes()).hexdigest()
        # a tuple file is read through the same reader as the host
        (workspace / "t.txt").write_text("arity 2\n0 1\n")
        opened.clear()
        code, out = run_cli(capsys, "classify-relation", "--spec", "tuples:@t.txt", "--host", "p13.g", "-k", "2", "--json")
        assert code == 0
        assert opened == ["t.txt", "p13.g"]

    def test_gadget_graph_named_twice_is_read_once(self, workspace, capsys, monkeypatch):
        # src and dst naming one file: one read and one parse, and the
        # report carries the gadget file's digest only, as before
        paley = build_paley(13)
        (workspace / "p13.g").write_text(format_graph(paley.graph))
        minus = make_named("minus", paley.graph, witness=paley.complement_witness)
        (workspace / "minus.fg").write_text(format_gadget(minus, "p13.g", "p13.g"))
        opened, parsed = [], []
        parse = cli.parse_graph

        def recorded(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return open(path, *args, **kwargs)

        def recorded_parse(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(cli, "open", recorded, raising=False)
        monkeypatch.setattr(cli, "parse_graph", recorded_parse)
        code, out = run_cli(capsys, "classify-function", "--gadget", "minus.fg", "--json")
        assert code == 0
        assert opened == ["minus.fg", "p13.g"] and len(parsed) == 1
        report = json.loads(out)
        assert report["inputs"] == {"minus.fg": hashlib.sha256((workspace / "minus.fg").read_bytes()).hexdigest()}
        assert report["verdict"]["classes"] == ["minus"]


class TestDeterminism:
    def test_reports_byte_identical(self, workspace, capsys):
        host = workspace / "p13.g"
        host.write_text(format_graph(build_paley(13).graph))
        args = [
            "classify-relation", "--spec", "parity:3",
            "--host", str(host), "-k", "2", "--json",
        ]
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_json_round_trip_stable(self, workspace, capsys):
        _, out = run_cli(capsys, "generate", "paley", "13", "--json")
        parsed = json.loads(out)
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == out


@pytest.mark.parametrize("argv", [
    ("classify-relation", "--spec", "parity:3", "--host", "p13.g"),
    ("classify-function", "--gadget", "ident.fg"),
    ("ramsey", "verify", "--S", "k5.g", "--H", "k3.g", "--P", "k2.g", "-k", "2"),
    ("interpolate", "--target", "ident.fg", "--hosts", "p13.g"),
], ids=["classify-relation", "classify-function", "ramsey-verify", "interpolate"])
def test_seed_refused_where_nothing_is_random(workspace, capsys, argv):
    # only generate reads a seed; these reports follow from their input files
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1", "--json"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --seed 1" in captured.err
    assert captured.out == ""
    assert list(workspace.iterdir()) == []


# sha256 of stdout for each README --json example, run in this order in one
# directory (the first writes paley13.g, which the others read)
README_JSON_SHA256 = (
    (("generate", "paley", "13"), "65b2ab79f5df98f8a7cf5e0f670c8819d842f0cdeaeb61935148be37fa07b0db"),
    (("generate", "ec", "-k", "2", "--seed", "7"), "4f9f7a8694374b6c3e52594da7a9de120c8fd8cfc2910e4e766b8b8c4e9fe38c"),
    (("classify-relation", "--spec", "parity:4", "--host", "paley13.g", "-k", "2"), "ef941bc65f7ca128d821d16a2c155f55f546968c6a2f045c2c9b221468e2c47a"),
    (("classify-function", "--gadget", "minus.fg"), "e6fb7669437876b3a4b82c9a498738f3f3ba212ded2e6dd2dca0e4c964e30149"),
    (("interpolate", "--target", "minus.fg", "--gens", "switch", "--hosts", "paley13.g", "--depth", "2"),
     "83abc037bdc26e7e42ad1c3a67a2f4e86fc10ee0ee1fecd4f1ed66dabbdca22d"),
)


def test_readme_json_pinned(workspace, capsys):
    paley = build_paley(13)
    minus = make_named("minus", paley.graph, witness=paley.complement_witness)
    (workspace / "minus.fg").write_text(format_gadget(minus, "paley13.g", "paley13.g"))
    got = []
    for argv, _ in README_JSON_SHA256:
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 0, argv
        got.append(hashlib.sha256(out.encode()).hexdigest())
    assert got == [want for _, want in README_JSON_SHA256]


def test_readme_library_tour():
    # run the python block under "Library tour" and check each value its
    # comments show, on the expression's line or the comment line below it
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace, values, shown = {}, [], []
    for at, line in enumerate(lines):
        code, _, comment = (part.strip() for part in line.partition("#"))
        if not code:
            continue
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        values.append(eval(expression, namespace))
        if not comment:
            comment = lines[at + 1].strip().lstrip("#").strip()
        shown.append(comment.split()[0].rstrip(",:"))
    assert values == [True, namespace["ReductClass"].SWITCH, 6, True]
    assert shown == ["True", "ReductClass.SWITCH", "6", "True"]
