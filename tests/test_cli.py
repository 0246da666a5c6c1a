import json
import re

import pytest

from conftest import FIXTURES
from wtgc import cli, transforms
from wtgc.cli import main
from wtgc.grammar import Wtgc
from wtgc.semantics import evaluate
from wtgc.syntax import parse_grammar, serialize_grammar
from wtgc.trees import leaf


def fx(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    """(exit code, stdout, stderr) of one call, usage errors and help
    included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_example1(capsys):
    code, out, _ = run(capsys, "eval", "--grammar", fx("fx1.wtg"),
                       "--tree", "sigma(gamma(gamma(alpha)),gamma(alpha))")
    assert code == 0
    assert out == "3\n"


def test_eval_outside_support_prints_zero_literal(capsys):
    code, out, _ = run(capsys, "eval", "--grammar", fx("fx1.wtg"),
                       "--tree", "sigma(alpha,alpha)")
    assert code == 0
    assert out == "-inf\n"


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "--grammar", fx("fx1.wtg"),
                       "--tree", "alpha", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"weight": "-inf"}


def test_image_eval_power_of_three(capsys):
    tree = "sigma(gamma(gamma(gamma(alpha))),gamma(gamma(alpha)))"
    code, out, _ = run(capsys, "image-eval", "--grammar", fx("fx3.wtg"),
                       "--hom", fx("fx3.hom"), "--tree", tree)
    assert code == 0
    assert out == "9\n"


def test_image_eval_on_a_deep_tree(capsys, tmp_path):
    # one preimage, 60,000 levels: more than the raised recursion limit
    # allows at two frames per level
    grammar, hom = tmp_path / "g.wtg", tmp_path / "h.hom"
    grammar.write_text("semiring nat\nalphabet alpha:0 gamma:1\n"
                       "nonterminals q\nfinal q = 1\n"
                       "prod alpha -> q @ 1\nprod gamma(q) -> q @ 1\n")
    hom.write_text("hom\nalpha -> alpha\ngamma -> gamma(x1)\n")
    tree = "gamma(" * 60000 + "alpha" + ")" * 60000
    code, out, _ = run(capsys, "image-eval", "--grammar", str(grammar),
                       "--hom", str(hom), "--tree", tree)
    assert (code, out) == (0, "1\n")


def test_derivs_leftmost(capsys):
    code, out, _ = run(capsys, "derivs", "--grammar", fx("fx1.wtg"),
                       "--tree", "sigma(gamma(gamma(alpha)),gamma(alpha))")
    assert code == 0
    assert out == ("q': (p1 @ 1.1.1) (p2 @ 1.1) (p1 @ 2.1) (p2 @ 2) "
                   "(p3 @ e)\n")


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "eval", "--grammar", fx("fx1.wtg"),
                         "--tree", "sigma(alpha)")
    assert code == 2
    assert "arity mismatch" in err


def test_non_ascii_digit_exits_2(capsys, tmp_path):
    # `int` refuses the superscript that `str.isdigit` accepts: this was
    # a traceback and exit 1, the code `decide` uses for "no"
    path = tmp_path / "g.wtg"
    path.write_text("semiring nat\nalphabet a:0 f:\u00b2\nnonterminals q\n"
                    "final q = 1\nprod a -> q @ 1\n")
    code, out, err = run(capsys, "eval", "--grammar", str(path),
                         "--tree", "a")
    assert (code, out) == (2, "")
    assert "bad alphabet entry" in err


DIGITS = "1" * 5000  # more than `int` reads by default


@pytest.mark.parametrize("kind", ["rank", "hom-variable"])
def test_overlong_numbers_exit_2(capsys, tmp_path, kind):
    # these were a ValueError traceback and exit 1
    if kind == "rank":
        path = tmp_path / "g.wtg"
        path.write_text(f"semiring nat\nalphabet a:0 f:{DIGITS}\n"
                        "nonterminals q\nprod a -> q @ 1\n")
        argv = ["eval", "--grammar", str(path)]
        message = "rank too long at line 2"
    else:
        path = tmp_path / "h.hom"
        path.write_text("hom\nalpha -> alpha\ngamma -> x1\nepsilon -> x1\n"
                        f"phi -> gamma(x{DIGITS})\n")
        argv = ["image-eval", "--grammar", fx("fx3.wtg"), "--hom", str(path)]
        message = "too many digits in 'phi'"
    code, out, err = run(capsys, *argv, "--tree", "alpha")
    assert (code, out) == (2, "")
    assert message in err


def test_transform_with_oracle(capsys, tmp_path):
    out_path = tmp_path / "normalized.wtg"
    code, out, _ = run(capsys, "transform", "normalize",
                       "--grammar", fx("fx1.wtg"), "--out", str(out_path),
                       "--oracle-size", "7")
    assert code == 0
    g = parse_grammar(out_path.read_text())
    from wtgc.grammar import classify

    assert classify(g).normalized


def test_oracle_size_cap(capsys):
    code, _, err = run(capsys, "transform", "normalize",
                       "--grammar", fx("fx1.wtg"), "--oracle-size", "40")
    assert code == 2
    assert "cap" in err


def test_product_matches_closed_form(capsys):
    code, out, _ = run(capsys, "product", "--grammar", fx("fx2g.wtg"),
                       "--grammar2", fx("fx2gp.wtg"), "--oracle-size", "6")
    assert code == 0
    assert "gamma(q*z) -> q*z [ne 1.1=1.2] @ 3" in out


def test_product_adds_equal_pair_productions(capsys, tmp_path):
    # alpha -> q @ 1 and @ 3 pair with alpha -> z @ 2 into two equal
    # productions, 2 + 2 = 0 in zmod 4; without --oracle-size nothing
    # else checks the printed grammar
    paths = []
    for name, text in (("g", "nonterminals q\nfinal q = 1\n"
                              "prod alpha -> q @ 1\nprod alpha -> q @ 3\n"),
                       ("g2", "nonterminals z\nfinal z = 1\n"
                               "prod alpha -> z @ 2\n")):
        path = tmp_path / f"{name}.wtg"
        path.write_text("semiring zmod 4\nalphabet alpha:0\n" + text)
        paths.append(str(path))
    code, out, _ = run(capsys, "product", "--grammar", paths[0],
                       "--grammar2", paths[1])
    assert code == 0
    assert evaluate(parse_grammar(out), leaf("alpha")) == 0


def test_union_oracle(capsys):
    code, _, _ = run(capsys, "union", "--grammar", fx("fx2g.wtg"),
                     "--grammar2", fx("fx2gp.wtg"), "--oracle-size", "6")
    assert code == 0


def test_support_and_complement(capsys):
    code, out, _ = run(capsys, "support", "--grammar", fx("fx1.wtg"),
                       "--unambiguous", "--oracle-size", "6")
    assert code == 0
    code, _, _ = run(capsys, "complement", "--grammar", fx("fx1.wtg"),
                     "--oracle-size", "6")
    assert code == 0


def test_restrict(capsys):
    code, _, _ = run(capsys, "restrict", "--grammar", fx("fx2g.wtg"),
                     "--grammar2", fx("fx2gp.wtg"), "--oracle-size", "6")
    assert code == 0


def test_disambiguate(capsys):
    code, _, _ = run(capsys, "disambiguate", "--grammar", fx("fx2g.wtg"),
                     "--oracle-size", "6")
    assert code == 0


def test_image_pipeline(capsys):
    code, out, _ = run(capsys, "image", "--grammar", fx("fx3.wtg"),
                       "--hom", fx("fx3.hom"), "--oracle-size", "6")
    assert code == 0
    assert "gamma(q) -> q @ 3" in out


def test_transform_relabel(capsys):
    code, out, _ = run(capsys, "transform", "relabel",
                       "--grammar", fx("fx4.wtg"), "--map", "f=g",
                       "--oracle-size", "6")
    assert code == 0
    assert "f" not in [line.split()[1][0] for line in out.splitlines()
                       if line.startswith("prod ")]


def test_pump_prints_growing_trees(capsys):
    from wtgc.trees import Tree, term_str

    t = leaf("a")
    for _ in range(7):
        t = Tree("g", [t, t])
    code, out, _ = run(capsys, "pump", "--grammar", fx("fx4.wtg"),
                       "--tree", term_str(t), "--count", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    sizes = [line.count("(") for line in lines]
    assert sizes[1] > sizes[0]


def test_separation(capsys):
    code, out, _ = run(capsys, "separation", "--n", "2")
    assert code == 0
    assert out == "f(g(a,a),g(a,a))\nfbar(g(a,a),g(a,a))\n"


def test_decide_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "decide", "finite", "--grammar",
                       fx("fx4.wtg"))
    assert code == 1
    assert out.startswith("infinite")
    single = tmp_path / "single.wtg"
    single.write_text("\n".join([
        "semiring nat",
        "alphabet a:0 g:2",
        "nonterminals q bot",
        "final q = 1",
        "prod a -> q @ 1",
        "prod a -> bot @ 1",
        "prod g(bot,bot) -> bot @ 1",
    ]) + "\n")
    code, out, _ = run(capsys, "decide", "finite", "--grammar", str(single))
    assert code == 0
    assert out.startswith("finite")
    code, out, _ = run(capsys, "decide", "empty", "--grammar", str(single))
    assert code == 1
    assert out.startswith("nonempty")


def test_decide_explain(capsys):
    code, out, _ = run(capsys, "decide", "empty", "--grammar",
                       fx("fx4.wtg"), "--explain")
    assert code == 1
    assert "productive:" in out
    code, out, _ = run(capsys, "decide", "finite", "--grammar",
                       fx("fx4.wtg"), "--explain")
    assert code == 1
    assert "cycle:" in out


def test_transform_relabel_map_file(capsys, tmp_path):
    mapping = tmp_path / "map.txt"
    mapping.write_text("f=g\n# comment\n")
    code, out, _ = run(capsys, "transform", "relabel",
                       "--grammar", fx("fx4.wtg"),
                       "--map-file", str(mapping), "--oracle-size", "6")
    assert code == 0
    assert "alphabet a:0 g:2" in out


def test_relabel_map_file_names_symbols_holding_hash(capsys, tmp_path):
    # relabel fx4 to symbols holding `#` and back through a map file
    fx4 = parse_grammar((FIXTURES / "fx4.wtg").read_text())
    hashed = tmp_path / "hashed.wtg"
    hashed.write_text(serialize_grammar(transforms.relabel(
        fx4, {"a": "a#0", "f": "f#2", "g": "g#2"})))
    mapping = tmp_path / "map.txt"
    mapping.write_text("a#0=a\nf#2 = f  # back to fx4\n# g#2=x\ng#2=g\n")
    code, out, _ = run(capsys, "transform", "relabel", "--grammar",
                       str(hashed), "--map-file", str(mapping),
                       "--oracle-size", "6")
    assert code == 0
    assert parse_grammar(out) == fx4


def test_decide_rejects_out_of_class(capsys):
    code, _, err = run(capsys, "decide", "empty", "--grammar",
                       fx("fx6.wtg"))
    assert code == 2
    assert "zero-sum" in err


def test_oracle_battery(capsys):
    code, out, _ = run(capsys, "oracle", "--fixtures", str(FIXTURES),
                       "--size", "5")
    assert code == 0
    assert "FAIL" not in out and "MISSING" not in out


def test_outputs_byte_stable(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "image", "--grammar", fx("fx3.wtg"),
                           "--hom", fx("fx3.hom"))
        assert code == 0
        runs.append(out)
        code, out, _ = run(capsys, "support", "--grammar", fx("fx1.wtg"),
                           "--unambiguous")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[2] and runs[1] == runs[3]


def emptied(g):
    """g without productions: zero on every tree."""
    return Wtgc(g.nonterminals, g.alphabet, g.final, (), g.semiring)


def test_oracle_mismatch_exits_2(capsys, monkeypatch):
    normalize = cli._TRANSFORMS["normalize"]
    monkeypatch.setitem(cli._TRANSFORMS, "normalize",
                        lambda g: emptied(normalize(g)))
    # patched after the parser is built, one construction at a time
    # (`restrict_support` calls `hadamard`): each command must look its
    # construction up when it runs
    cli.build_parser()
    pair = ["--grammar", fx("fx2g.wtg"), "--grammar2", fx("fx2gp.wtg")]
    for argv, name in (
            (["transform", "normalize", "--grammar", fx("fx1.wtg")], None),
            (["union", *pair], "disjoint_union"),
            (["product", *pair], "hadamard"),
            (["restrict", *pair], "restrict_support"),
            (["transform", "relabel", "--grammar", fx("fx4.wtg"),
              "--map", "f=g"], "relabel")):
        with monkeypatch.context() as patch:
            if name is not None:
                real = getattr(transforms, name)
                patch.setattr(transforms, name,
                              lambda *args, real=real: emptied(real(*args)))
            code, out, err = run(capsys, *argv, "--oracle-size", "6")
        assert code == 2, argv
        assert err.startswith("error: oracle mismatch on "), argv
        assert out == ""


def test_oracle_battery_reports_a_broken_transform(capsys, monkeypatch):
    normalize = cli._TRANSFORMS["normalize"]
    monkeypatch.setitem(cli._TRANSFORMS, "normalize",
                        lambda g: emptied(normalize(g)))
    code, out, _ = run(capsys, "oracle", "--fixtures", str(FIXTURES),
                       "--size", "4")
    assert code == 1
    assert "fx1 normalize: FAIL" in out.splitlines()
    assert "fx1 boolean-finals: PASS" in out.splitlines()


def test_unreadable_and_unwritable_files_exit_2(capsys, tmp_path):
    missing = str(tmp_path / "missing.wtg")
    latin = tmp_path / "latin.wtg"
    latin.write_bytes(b"semiring nat\n# caf\xe9\n")
    cases = [
        (["decide", "empty", "--grammar", missing], "read", missing),
        (["image", "--grammar", fx("fx3.wtg"), "--hom", str(tmp_path)],
         "read", str(tmp_path)),
        (["transform", "relabel", "--grammar", fx("fx4.wtg"),
          "--map-file", missing], "read", missing),
        (["transform", "normalize", "--grammar", fx("fx1.wtg"),
          "--out", str(tmp_path / "no" / "out.wtg")],
         "write", str(tmp_path / "no" / "out.wtg")),
        (["eval", "--grammar", str(latin), "--tree", "a"],
         "read", str(latin)),
    ]
    for argv, verb, path in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith(f"error: cannot {verb} {path!r}: "), argv
        assert err.count("\n") == 1, argv


def test_relabel_entry_given_twice_is_rejected(capsys, tmp_path):
    mapping = tmp_path / "map.txt"
    mapping.write_text("f=g\nf=a\n")
    single = tmp_path / "single.txt"
    single.write_text("f=a\n")
    relabel = ["transform", "relabel", "--grammar", fx("fx4.wtg")]
    for extra in (["--map-file", str(mapping)], ["--map", "f=a", "f=g"],
                  ["--map-file", str(single), "--map", "f = g"]):
        code, out, err = run(capsys, *relabel, *extra)
        assert (code, out, err) == (
            2, "", "error: symbol 'f' relabeled twice\n"), extra


def test_relabel_entry_for_a_missing_symbol_is_rejected(capsys, tmp_path):
    mapping = tmp_path / "map.txt"
    mapping.write_text("f=g\nzz=a\n")
    relabel = ["transform", "relabel", "--grammar", fx("fx4.wtg")]
    for extra in (["--map", "zz=a"], ["--map", "f=g", "zz = a"],
                  ["--map-file", str(mapping)]):
        code, out, err = run(capsys, *relabel, *extra)
        assert (code, out, err) == (
            2, "", "error: symbol 'zz' is not in the alphabet\n"), extra



def test_relabel_entry_without_equals_is_rejected(capsys):
    code, out, err = run(capsys, "transform", "relabel", "--grammar",
                         fx("fx4.wtg"), "--map", "f")
    assert (code, out, err) == (
        2, "", "error: bad relabel entry 'f' (want old=new)\n")


def test_oracle_battery_reports_a_missing_fixture(capsys, tmp_path):
    for path in FIXTURES.glob("*.wtg"):
        if path.name != "fx5.wtg":
            (tmp_path / path.name).write_text(path.read_text())
    code, out, _ = run(capsys, "oracle", "--fixtures", str(tmp_path),
                       "--size", "3")
    assert code == 1
    assert "fx5: MISSING" in out.splitlines()
    assert "fx6 normalize: PASS" in out.splitlines()


def test_disambiguate_oracle_reports_an_ambiguous_output(capsys,
                                                         monkeypatch):
    # two copies of one grammar give every tree it accepts two runs
    monkeypatch.setattr(transforms, "disambiguate",
                        lambda g, hom: transforms.disjoint_union(g, g))
    code, out, err = run(capsys, "disambiguate", "--grammar",
                         fx("fx2g.wtg"), "--oracle-size", "4")
    assert (code, out, err) == (2, "", "error: ambiguous on alpha\n")

def test_oracle_sizes_below_one_are_rejected(capsys):
    normalize = ["transform", "normalize", "--grammar", fx("fx1.wtg")]
    for argv in ([*normalize, "--oracle-size", "-3"],
                 ["oracle", "--fixtures", str(FIXTURES), "--size", "0"]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "below 1" in err, argv
    # 0 turns the oracle off
    code, _, _ = run(capsys, *normalize, "--oracle-size", "0")
    assert code == 0


def test_negative_pump_count_is_rejected(capsys):
    tall = "a"
    for _ in range(7):
        tall = f"g({tall},{tall})"
    code, out, err = run(capsys, "pump", "--grammar", fx("fx4.wtg"),
                         "--tree", tall, "--count", "-2")
    assert (code, out, err) == (2, "", "error: negative pump count -2\n")


def test_every_command_has_a_help_line(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    commands = re.search(r"\{([a-z,-]+)\}", out).group(1).split(",")
    assert "union" in commands and "disambiguate" in commands
    for name in commands:
        assert re.search(rf"^    {name} +\S", out, re.M), name


def test_parser_keeps_no_state_between_calls(capsys, monkeypatch, tmp_path):
    # the parser is built once per process; two passes over the same
    # commands, with a usage error and help between them, must agree
    monkeypatch.setenv("COLUMNS", "80")
    mapping = tmp_path / "map.txt"
    mapping.write_text("f=g\n")
    fx4 = ["--grammar", fx("fx4.wtg")]
    tall = "a"
    for _ in range(7):
        tall = f"g({tall},{tall})"
    commands = [
        ["eval", "--grammar", fx("fx1.wtg"), "--tree", "alpha"],
        ["eval", "--grammar", fx("fx1.wtg"), "--tree", "alpha",
         "--format", "json"],
        ["derivs", "--grammar", fx("fx1.wtg"),
         "--tree", "sigma(gamma(alpha),alpha)"],
        ["transform", "relabel", *fx4, "--map", "f=g"],
        ["transform", "relabel", *fx4, "--map-file", str(mapping)],
        ["transform", "relabel", *fx4],
        ["transform", "normalize", "--grammar", fx("fx1.wtg"),
         "--oracle-size", "4"],
        ["union", "--grammar", fx("fx2g.wtg"), "--grammar2",
         fx("fx2gp.wtg"), "--oracle-size", "3"],
        ["support", *fx4, "--unambiguous"],
        ["support", *fx4],
        ["disambiguate", "--grammar", fx("fx6.wtg"), "--hom", "identity"],
        ["disambiguate", "--grammar", fx("fx2g.wtg")],
        ["decide", "empty", *fx4, "--explain"],
        ["decide", "finite", *fx4],
        ["pump", *fx4, "--tree", tall, "--count", "1"],
        ["separation", "--n", "2"],
        ["transform", "normalize"],
        ["eval", "--help"],
    ]
    first = [run(capsys, *argv) for argv in commands]
    assert run(capsys, "union", "--grammar")[0] == 2
    assert run(capsys, "--help")[0] == 0
    assert [run(capsys, *argv) for argv in commands] == first
    assert [code for code, _, _ in first] == [
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 2, 0]
