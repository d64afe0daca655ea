import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest

import knotss
from knotss.cli import COMMANDS, DEFAULT_SEED, build_parser, main
from knotss.linalg import VerificationError

SCHEMA = json.load(open(os.path.join(os.path.dirname(__file__), "..", "src",
                                     "knotss", "data", "schema.json")))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc


def test_conf_dims(capsys):
    code, doc = run_json(capsys, "conf-dims", "--max-arity", "4",
                         "--field", "f2")
    assert code == 0 and doc["pass"]
    assert doc["schema"] == "knotss-output/1"
    assert doc["config"]["max_arity"] == 4
    row = doc["report"]["rows"][-1]
    assert row["dims"] == row["expected"] == [1, 6, 11, 6]


def test_conf_dims_tsv(capsys):
    code, out = run(capsys, "conf-dims", "--max-arity", "3", "--format", "tsv")
    assert code == 0
    assert out.splitlines() == ["1\t1", "2\t1\t1", "3\t1\t3\t2"]


def test_ss_table_tsv(capsys):
    code, out = run(capsys, "ss-table", "--max-arity", "4", "--field", "f2",
                    "--r-max", "2", "--format", "tsv")
    assert code == 0
    assert out.splitlines() == [
        "0\t-2,1\t1\t0", "0\t-3,2\t2\t0", "0\t-4,2\t3\t0",
        "0\t-4,3\t6\t0",
        "1\t-2,1\t1\t0", "1\t-3,2\t2\t0", "1\t-4,2\t3\t1",
        "1\t-4,3\t6\t0",
        "2\t-2,1\t1\t0", "2\t-3,2\t1\t0", "2\t-4,2\t2\t0",
        "2\t-4,3\t6\t0"]


def test_ainf_check_tsv(capsys):
    # commands without a table of their own print one key per line
    code, out = run(capsys, "ainf-check", "--max-arity", "4", "--field", "f3",
                    "--format", "tsv")
    assert code == 0
    assert out.splitlines() == ["failures\t[]", 'field\t"f3"',
                                "max_arity\t4", "pass\ttrue"]


def test_bad_field_is_usage_error(capsys):
    assert main(["conf-dims", "--field", "f7"]) == 2


@pytest.mark.parametrize("argv", [
    ("ss-table", "--r-max", "-1"),
    ("ss-table", "--r-max", "0"),
    ("ss-table", "--r-max", "1"),
    ("ss-table", "--max-arity", "1"),
    ("ss-table", "--max-arity", "2"),
    ("ss-table", "--max-arity", "9"),
    ("conf-dims", "--max-arity", "0"),
    ("ainf-check", "--max-arity", "1"),
    ("geom", "--samples", "-5"),
    ("triple-commute", "--max-edges", "-1"),
    ("ss-table", "--max-arity", "3"),
    ("triple-commute", "--n", "0", "--discrete-only"),
    ("triple-commute", "--n", "9", "--discrete-only"),
    ("triple-commute", "--n", "7"),
    ("triple-commute", "--n", "7", "--discrete-only"),
    ("triple-commute", "--n", "8"),
    ("triple-commute", "--n", "8", "--max-edges", "4"),
    ("conf-dims", "--max-arity", "9"),
])
def test_vacuous_run_is_usage_error(capsys, argv):
    # each of these bounds leaves nothing to check, so a pass would be
    # empty, or passes the largest supported arity or graph count
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert argv[1] in err


# modules that only ledger, ainf-check, triple-commute or geom execute
UNUSED_BY_PAGES = ("geometry", "partgraph", "operads", "chainledger", "cases")


def _fresh_modules(code):
    """Run code in a fresh interpreter that imports knotss from this
    checkout; returns what it printed as JSON."""
    src = os.path.dirname(os.path.dirname(knotss.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_page_commands_load_only_the_modules_they_use(tmp_path):
    # a worker compiles every module it imports from source, so the page
    # commands must not import what only the other subcommands execute
    loaded = _fresh_modules("""
import json, sys
names = lambda: sorted(m[7:] for m in sys.modules if m.startswith("knotss."))
import knotss.cli
seen = {"import": names()}
for argv in (["conf-dims", "--max-arity", "4"],
             ["ss-table", "--max-arity", "4", "--field", "f2"],
             ["verify-cycle", "--arity", "3", "--class", "g12*g13"]):
    knotss.cli.main(argv + ["--output", %r])
    seen[argv[0]] = names()
print(json.dumps(seen))
""" % str(tmp_path / "out.json"))
    for step, names in loaded.items():
        assert not set(UNUSED_BY_PAGES) & set(names), (step, names)
    assert loaded["import"] == loaded["verify-cycle"]


KNOTSS_MODULES = sorted(
    "knotss." + name[:-3] for name in os.listdir(os.path.dirname(knotss.__file__))
    if name.endswith(".py") and name != "__init__.py")


@pytest.mark.parametrize("module", KNOTSS_MODULES)
def test_page_modules_do_not_load_dataclasses(module):
    # no module imports dataclasses, which loads inspect, ast, dis and
    # tokenize: the records subclass partgraph.Record instead
    before, after = _fresh_modules("""
import json, sys
before = "dataclasses" in sys.modules
import %s
print(json.dumps([before, "dataclasses" in sys.modules]))
""" % module)
    assert after == before


def test_attack_modules_do_not_load_linalg():
    # the ledger and the geometry raise VerificationError from the leaf
    # knotss.errors, so the witness attack compiles no linear algebra
    loaded = _fresh_modules("""
import json, sys
import knotss.chainledger, knotss.geometry
print(json.dumps(sorted(m for m in sys.modules if m.startswith("knotss."))))
""")
    assert "knotss.errors" in loaded
    assert not {"knotss.linalg", "knotss.spectral"} & set(loaded)


def test_verification_error_is_one_class():
    from knotss import errors, linalg, spectral
    assert linalg.VerificationError is errors.VerificationError
    assert spectral.VerificationError is errors.VerificationError
    assert VerificationError is errors.VerificationError


def test_triple_commute_bounds_the_graph_count(capsys, monkeypatch):
    # the count is taken by binomials before any graph is built: --n 6
    # (41,658 graphs) and --n 8 --max-edges 2 (15,422) fit under 2^16,
    # --n 7 (2,392,260) does not, and the error names the flag to add
    calls = []

    def stub(n, field, discrete_only, max_edges):
        calls.append((n, max_edges))
        return {"pass": True}

    monkeypatch.setattr("knotss.partgraph.verify_commutation", stub)
    assert main(["triple-commute", "--n", "6"]) == 0
    assert main(["triple-commute", "--n", "8", "--max-edges", "2"]) == 0
    assert calls == [(6, None), (8, 2)]
    capsys.readouterr()
    assert main(["triple-commute", "--n", "7"]) == 2
    err = capsys.readouterr().err
    assert "--n 7 needs 2392260 graphs" in err and "--max-edges" in err
    assert calls == [(6, None), (8, 2)]


def test_failed_verification_exits_1_with_witness(capsys, flipped_delta_sign):
    code = main(["ss-table", "--max-arity", "6", "--field", "f3"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "does not square to zero (witness column" in err
    assert "Traceback" not in err


def test_page_inconsistency_is_reported(capsys, monkeypatch):
    def inconsistent(blocks, field):
        raise VerificationError("page inconsistency at r=1 slot (-2, 1)")

    monkeypatch.setattr("knotss.cli.block_ranks", inconsistent)
    code, doc = run_json(capsys, "ss-table", "--max-arity", "4")
    assert code == 1 and not doc["pass"]
    assert doc["report"] == {"error": "page inconsistency at r=1 slot (-2, 1)"}
    # the table format has no pages to print, so it prints the error
    code, out = run(capsys, "ss-table", "--max-arity", "4", "--format", "tsv")
    assert code == 1
    assert out == 'error\t"page inconsistency at r=1 slot (-2, 1)"\n'


def test_unknown_flag_is_usage_error(capsys):
    assert main(["ss-table", "--bogus"]) == 2
    # the tree differential is always signed
    assert main(["ainf-check", "--mode", "verbatim"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --mode verbatim" in err


def test_help_lists_every_subcommand(capsys):
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert len(COMMANDS) == 7
    for name, (text, _, _) in COMMANDS.items():
        assert name in out and text in out


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["bogus", "--max-arity", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert "knotss: error: argument command: invalid choice: 'bogus'" in err


def _full_tree_text(capsys, argv):
    """What the parser with every subparser prints for argv."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    return capsys.readouterr()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_a_lone_subparser_prints_what_the_full_tree_prints(capsys, name):
    # main builds only the named subparser: its help, and the usage
    # error of a flag it does not know, read as with all seven
    for argv in ([name, "--help"], [name, "--bogus"]):
        want = _full_tree_text(capsys, argv)
        assert want.out or want.err
        main(argv)
        assert capsys.readouterr() == want
    with pytest.raises(SystemExit):
        build_parser(name).parse_args([min(set(COMMANDS) - {name})])


def test_output_into_a_missing_directory_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "out.json"
    assert main(["conf-dims", "--max-arity", "3", "--output", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not path.parent.exists()
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert str(path) in err


def test_ss_table(capsys):
    code, doc = run_json(capsys, "ss-table", "--max-arity", "4",
                         "--field", "f3", "--r-max", "3")
    assert code == 0 and doc["pass"]
    assert doc["report"]["nonzero_higher"] == []
    e2 = {p["r"]: p["slots"] for p in doc["report"]["pages"]}[2]
    assert e2["-4,2"]["dim"] == 1
    assert e2["-2,1"]["dim"] == 1


def test_verify_cycle_verdicts(capsys):
    cls = "g14*g23+g13*g24+g12*g34"
    code, doc = run_json(capsys, "verify-cycle", "--class", cls,
                         "--arity", "4", "--field", "f2")
    assert code == 0 and doc["report"]["is_d1_cycle"]
    assert not doc["report"]["is_d1_boundary"]
    code, doc = run_json(capsys, "verify-cycle", "--class", cls,
                         "--arity", "4", "--field", "q")
    assert code == 0 and not doc["report"]["is_d1_cycle"]
    assert main(["verify-cycle", "--class", "g1*bogus", "--arity", "4"]) == 2


def test_verify_cycle_sign_after_a_sign_is_usage_error(capsys):
    assert main(["verify-cycle", "--class", "g12 - + g13",
                 "--arity", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: sign after a sign (at position 6)\n"


@pytest.mark.parametrize("cls, arity", [
    ("-g12", "3"),
    ("-g(1,3)*g(2,3)*g(4,5)+g(1,4)*g(2,4)*g(3,5)"
     "+g(1,4)*g(2,5)*g(3,4)+g(1,5)*g(2,4)*g(3,4)", "5")])
def test_verify_cycle_class_opening_with_a_sign_takes_either_form(
        capsys, tmp_path, cls, arity):
    # argparse reads a separate value that opens with '-' as a flag, so
    # main joins --class to the argument after it, in both of its parses:
    # "--class -g12" prints what "--class=-g12" prints, also beside a
    # config file whose own signed class the command line overrides
    flags = ["verify-cycle", "--arity", arity, "--field", "f3"]
    code, joined = run(capsys, *flags, "--class=" + cls)
    assert code == 0 and json.loads(joined)["report"]["is_d1_cycle"]
    assert run(capsys, *flags, "--class", cls) == (0, joined)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("class = -g13\nfield = f3\n")
    assert run(capsys, "verify-cycle", "--arity", arity, "--config", str(cfg),
               "--class", cls) == (0, joined)


def test_verify_cycle_over_q_at_arity_7_is_pinned(capsys):
    # sha256 of `knotss verify-cycle --arity 7 --field q --class
    # "g12*g34*g56*g17"` recorded while Eliminator still reduced each
    # vector at every stored pivot; the E_2 coordinates are unique, so
    # no elimination order may move them
    code, out = run(capsys, "verify-cycle", "--arity", "7", "--field", "q",
                    "--class", "g12*g34*g56*g17")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "b5035831fbb3ceb113c6d3c6d5e15506a6629a719ee3c101f921783263505d72"


def test_verify_cycle_arity_past_the_tower_is_usage_error(capsys):
    # E_2 at arity 8 needs the d_1 out of arity 9, past MAX_ARITY: a
    # usage error, not a traceback
    assert main(["verify-cycle", "--class", "g12*g34*g56*g78",
                 "--arity", "8"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --arity must be at most 7, got 8\n"


def test_ledger_single_case(capsys):
    code, doc = run_json(capsys, "ledger", "--case", "ch2-cycles")
    assert code == 0 and doc["pass"]
    assert doc["report"]["cases"][0]["case"] == "ch2-cycles"
    assert main(["ledger", "--case", "nope"]) == 2


def test_ledger_output_is_pinned(capsys, monkeypatch):
    # sha256 of `knotss ledger --case all` recorded before terms were
    # canonicalized once per chain entry; Python 3.10 to 3.13 agree
    monkeypatch.delenv("KNOTSS_SEED", raising=False)
    code, out = run(capsys, "ledger", "--case", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "09c37cfad1d8cb87a2b59a0a58c5b16ec1291717e2e22982da838168a0924533"


SS_TABLE_SHA256 = {
    ("f2", "--normalized"):
        "853c4f5bf4dde9005b9407517dd74bf817f2131586e6cab38c637ebb70f5ace3",
    ("f3", "--normalized"):
        "3ee62c0cbfdc67497b0b8bac84a53c89620985f9dac7587cdcbe1b430364f01d",
    ("q", "--normalized"):
        "22f18fee90f00bc722be687654fa15348e16218d5195482777eac586516e2704",
    ("f3", "--no-normalized"):
        "2f82253d2c9fc8a91a3a21faeb6a318295ba93c0a926522cb4b07db54d06459f",
}


@pytest.mark.parametrize("field, normalized", sorted(SS_TABLE_SHA256))
def test_ss_table_outputs_are_pinned(capsys, field, normalized):
    # sha256 of `knotss ss-table --max-arity 6 --r-max 6` recorded while
    # every page was still built by subquotients (ss_pages)
    code, out = run(capsys, "ss-table", "--max-arity", "6", "--r-max", "6",
                    "--field", field, normalized)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        SS_TABLE_SHA256[(field, normalized)]


@pytest.mark.parametrize("factor", [Fraction(1), Fraction(1, 2)])
def test_ledger_bad_chain_exits_1(capsys, monkeypatch, factor):
    # an extra factor * f(w_0) on G adds its Cech boundary, +-factor on
    # each one-edge subgraph, to D c(G) = 0: with factor 1 the check
    # fails mod 2; at a half its coefficients are not defined mod 2, and
    # that is a failed verification, not a usage error
    from knotss import cases
    from knotss.chainledger import WeightSpec, f_graph
    original = cases.chain_c
    monkeypatch.setattr(cases, "chain_c", lambda G, directions=(1,):
                        original(G, directions)
                        .add(factor, f_graph(G), WeightSpec((), ()), G))
    assert main(["ledger", "--case", "ch2-cycles"]) == 1
    out, err = capsys.readouterr()
    assert ("not defined mod 2" in err) == (factor == Fraction(1, 2)), err
    if factor == 1:
        doc = json.loads(out)
        assert [c["pass"] for c in doc["report"]["cases"][0]["checks"]] \
            == [False] * 3


def test_ainf_check(capsys):
    code, doc = run_json(capsys, "ainf-check", "--max-arity", "4",
                         "--field", "q")
    assert code == 0 and doc["report"]["failures"] == []
    assert "mode" not in doc["config"] and "mode" not in doc["report"]


def test_triple_commute(capsys):
    code, doc = run_json(capsys, "triple-commute", "--n", "3")
    assert code == 0 and doc["report"]["counterexamples"] == []
    assert doc["report"]["checked"] > 0


def test_geom(capsys):
    code, doc = run_json(capsys, "geom", "--lemma", "collapse0",
                         "--samples", "30", "--seed", "5")
    assert code == 0
    (rep,) = doc["report"]["lemmas"]
    assert rep["lemma"] == "collapse0" and rep["seed"] == 5
    assert main(["geom", "--lemma", "nope"]) == 2


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("KNOTSS_SEED", "99")
    code, doc = run_json(capsys, "geom", "--lemma", "collapse0",
                         "--samples", "5")
    assert doc["config"]["seed"] == 99


def test_malformed_seed_env_is_a_usage_error_for_geom_only(capsys, monkeypatch):
    monkeypatch.setenv("KNOTSS_SEED", "abc")
    assert main(["geom", "--lemma", "collapse0", "--samples", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: KNOTSS_SEED must be an integer, got 'abc'\n"
    # an explicit --seed wins, and no other subcommand reads the seed
    code, doc = run_json(capsys, "geom", "--lemma", "collapse0",
                         "--samples", "1", "--seed", "5")
    assert code == 0 and doc["config"]["seed"] == 5
    code, _ = run_json(capsys, "conf-dims", "--max-arity", "3")
    assert code == 0
    # an empty value keeps the default
    monkeypatch.setenv("KNOTSS_SEED", "")
    code, doc = run_json(capsys, "geom", "--lemma", "collapse0",
                         "--samples", "1")
    assert code == 0 and doc["config"]["seed"] == DEFAULT_SEED


def test_config_file_defaults_and_overrides(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nmax-arity=3\nfield=f3\n")
    code, doc = run_json(capsys, "conf-dims", "--config", str(cfg))
    assert doc["config"]["max_arity"] == 3
    assert doc["config"]["field"] == "f3"
    code, doc = run_json(capsys, "conf-dims", "--config", str(cfg),
                         "--field", "q")
    assert doc["config"]["field"] == "q"  # explicit flags win


def test_config_file_can_supply_required_flags(capsys, tmp_path):
    # main reads the file before its one full parse, so the file can give
    # the flags verify-cycle requires; the command line still overrides
    # it, and a flag missing from both is still a usage error
    code, out = run(capsys, "verify-cycle", "--arity", "3", "--class", "g12",
                    "--field", "f3")
    assert code == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("arity = 3\nclass = g12\nfield = f3\n")
    assert run(capsys, "verify-cycle", "--config", str(cfg)) == (0, out)
    assert run(capsys, "verify-cycle", "--config=" + str(cfg)) == (0, out)
    cfg.write_text("arity = 3\nclass = g13\nfield = f2\n")
    assert run(capsys, "verify-cycle", "--config", str(cfg), "--class", "g12",
               "--field", "f3") == (0, out)
    cfg.write_text("arity = 3\n")
    assert main(["verify-cycle", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "required: --class" in err
    # argparse would take "--conf" for --config, which main reads only
    # in full, so the abbreviation exits 2 instead of leaving the file unread
    assert main(["verify-cycle", "--arity", "3", "--class", "g12",
                 "--conf", str(cfg)]) == 2
    assert "write --config in full" in capsys.readouterr().err


@pytest.mark.parametrize("value, expected", [("false", False),
                                             ("true", True)])
def test_config_file_boolean_lines(capsys, tmp_path, value, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("discrete-only=%s\n" % value)
    code, doc = run_json(capsys, "triple-commute", "--n", "3",
                         "--config", str(cfg))
    assert code == 0 and doc["config"]["discrete_only"] is expected


def test_bad_config_line_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max-arity 3\n")
    assert main(["conf-dims", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: bad config line 'max-arity 3'\n"
    # a missing config file is a usage error too, not a traceback
    assert main(["conf-dims", "--config", str(tmp_path / "none.cfg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_output_file_and_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["geom", "--lemma", "condensed-image", "--samples", "20",
            "--seed", "3"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    jsonschema.validate(json.loads(a.read_text()), SCHEMA)
