import ast
import hashlib
import json
import subprocess
import sys
import time

import pytest

from klblocks import (
    decomposition_matrix,
    make_block,
    matrix_from_csv,
    matrix_from_json,
    standard_block,
)
from klblocks import cli
from klblocks.cli import main
from klblocks.schubert import CoinvariantAlgebra


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_kl_output(capsys):
    assert run(["kl", "--type", "A3", "--y", "2", "--w", "2,1,3,2"]) == 0
    assert capsys.readouterr().out == "1+q\n"


def test_kl_json(capsys):
    assert run(["kl", "--type", "A3", "--y", "2", "--w", "2,1,3,2",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "kind": "A3",
        "y": [2],
        "w": [2, 1, 3, 2],
        "p": [{"exp": 0, "coef": 1}, {"exp": 1, "coef": 1}],
    }


def test_decomp_table(capsys):
    assert run(["decomp", "--type", "A1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["w", "e", "1"]
    assert lines[1].split() == ["e", "1", "0"]
    assert lines[2].split() == ["1", "v", "1"]


def test_decomp_eval_table(capsys):
    assert run(["decomp", "--type", "A1", "--eval-v", "1"]) == 0
    out = capsys.readouterr().out
    assert "at v=1:" in out
    tail = out.split("at v=1:")[1].splitlines()
    assert tail[2].split() == ["e", "1", "0"]
    assert tail[3].split() == ["1", "1", "1"]


def test_decomp_json_roundtrip(capsys, a2, hecke_a2):
    assert run(["decomp", "--type", "A2", "--format", "json"]) == 0
    text = capsys.readouterr().out
    expected = decomposition_matrix(make_block(a2, (-2, -2), (-2, -2)), hecke_a2)
    assert matrix_from_json(text, a2) == expected


def test_decomp_json_eval(capsys):
    assert run(["decomp", "--type", "A1", "--format", "json",
                "--eval-v", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eval_point"] == 1
    assert payload["eval"] == [["1", "0"], ["1", "1"]]


def test_cartan_csv_roundtrip(capsys, a2, hecke_a2):
    assert run(["cartan", "--type", "A2", "--J", "1", "--format", "csv"]) == 0
    text = capsys.readouterr().out
    from klblocks import graded_cartan_matrix

    expected = graded_cartan_matrix(standard_block(a2, (), (1,)), hecke_a2)
    assert matrix_from_csv(text, a2) == expected


def test_inverse_decomp_wall(capsys):
    assert run(["inverse-decomp", "--type", "A2", "--J", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["w", "e", "2", "1.2"]


def test_root_system_json(capsys, a2):
    assert run(["root-system", "--type", "A2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 2
    assert payload["weyl_order"] == 6
    assert payload["longest_word"] == [1, 2, 1]
    assert payload["cartan"] == [[2, -1], [-1, 2]]
    assert payload["positive_roots"] == [list(r) for r in a2.datum.pos_roots]


def test_weyl_cosets(capsys):
    assert run(["weyl", "--type", "A2", "--J", "1"]) == 0
    out = capsys.readouterr().out
    assert "(3)" in out.splitlines()[0]
    labels = [line.split()[0] for line in out.splitlines()[1:] if line.strip()]
    assert labels[1:] == ["e", "2", "1.2"]


def test_weyl_double_quotient_json(capsys):
    assert run(["weyl", "--type", "A2", "--I", "1", "--J", "1",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert [e["word"] for e in payload["elements"]] == [[2]]


def test_schubert_product(capsys):
    assert run(["schubert", "--type", "A2", "--x", "1", "--y", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "X[1] * X[2] ="
    assert lines[1].split() == ["1", "X[1.2]"]
    assert lines[2].split() == ["1", "X[2.1]"]


def test_schubert_zero_product(capsys):
    assert run(["schubert", "--type", "A2", "--x", "1", "--y", "2.1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].strip() == "0"


def test_gram_csv(capsys, a2):
    assert run(["gram", "--type", "A2", "--J", "1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "w,e,2,1.2"
    reps, gram = CoinvariantAlgebra(a2).gram_matrix(frozenset({1}))
    for line, row in zip(lines[1:], gram):
        assert line.split(",")[1:] == [str(x) for x in row]


def test_vp_dims(capsys):
    assert run(["vp-dims", "--type", "A2", "--J", "1"]) == 0
    out = capsys.readouterr().out
    assert "center 2" in out.splitlines()[0]
    cells = {line.split()[0]: line.split()[1]
             for line in out.splitlines()[1:] if line.strip()}
    assert cells["e"] == "1+v^2+v^4"
    assert cells["2"] == "v+v^3"
    assert cells["1.2"] == "v^2"


def test_bott_samelson(capsys):
    assert run(["bott-samelson", "--type", "A2", "--word", "1,2,1"]) == 0
    out = capsys.readouterr().out
    assert "x = 1.2.1" in out.splitlines()[0]
    assert "shift v^0" in out
    assert out.count(": ok") == 4
    assert "FAIL" not in out


def test_translate(capsys):
    assert run(["translate", "--type", "A2", "--J", "1", "--x", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "matches T_x * C_wall: ok" in out
    cells = {line.split()[0]: line.split()[1]
             for line in out.splitlines()[1:-1] if line.strip()}
    assert cells["1.2"] == "v^-1"
    assert cells["1.2.1"] == "1"


def test_translate_json(capsys):
    assert run(["translate", "--type", "A2", "--J", "1", "--x", "1,2",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matches_hecke_product"] is True
    assert payload["composite"] == [
        {"y": [1, 2], "coef": [{"exp": -1, "coef": 1}]},
        {"y": [1, 2, 1], "coef": [{"exp": 0, "coef": 1}]},
    ]


def test_check_all(capsys):
    assert run(["check-all", "--type", "A2"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    summary = out.splitlines()[-1]
    assert summary.endswith("checks passed")
    done, total = summary.split()[0].split("/")
    assert done == total


@pytest.mark.parametrize("argv", [
    ["kl", "--type", "A2", "--y", "e", "--w", "1,2,1"],
    ["decomp", "--type", "A2"],
    ["vp-dims", "--type", "A2", "--J", "1"],
])
def test_cache_dir_variable_is_ignored(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.delenv("KLBLOCKS_CACHE_DIR", raising=False)
    assert run(argv) == 0
    plain = capsys.readouterr()
    cache = tmp_path / "cache"
    monkeypatch.setenv("KLBLOCKS_CACHE_DIR", str(cache))
    assert run(argv) == 0
    assert capsys.readouterr() == plain
    assert not cache.exists() or not any(cache.iterdir())


def test_check_all_counts_skips_apart(capsys, monkeypatch):
    from klblocks import checks

    results = [checks.CheckResult("one", True, "fine"),
               checks.CheckResult("two", True, "large group", skipped=True)]
    monkeypatch.setattr(checks, "run_all_checks",
                        lambda kind, progress: [progress(r) or r for r in results])
    assert run(["check-all", "--type", "A2"]) == 0
    assert capsys.readouterr().out == (
        "ok   one  (fine)\nskip two  (large group)\n\n1/1 checks passed, 1 skipped\n")
    results.append(checks.CheckResult("three", False, "broke"))
    assert run(["check-all", "--type", "A2"]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == "1/2 checks passed, 1 skipped"


def test_usage_errors(capsys):
    assert run(["kl", "--type", "Z9", "--y", "e", "--w", "1"]) == 1
    assert run(["kl", "--type", "A2", "--y", "e", "--w", "5"]) == 1
    assert run(["kl", "--type", "A2", "--y", "e", "--w", "banana"]) == 1
    assert run(["decomp", "--type", "A2", "--format", "csv",
                "--eval-v", "1"]) == 1
    assert run(["translate", "--type", "A2", "--J", "1", "--x", "2,1"]) == 1
    assert run(["vp-dims", "--type", "A2", "--I", "1", "--J", "1"]) == 1
    assert run(["decomp", "--type", "A2", "--J", "9"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("command", ["decomp", "cartan", "inverse-decomp"])
def test_eval_at_zero_is_rejected_before_any_output(capsys, monkeypatch, command, fmt):
    def refuse(*args):
        raise AssertionError("built a block for --eval-v 0")

    monkeypatch.setattr("klblocks.blocks.standard_block", refuse)
    assert run([command, "--type", "A2", "--eval-v", "0", "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("klblocks: error: --eval-v 0: Laurent polynomials cannot be "
                   "evaluated at v = 0\n")


@pytest.mark.parametrize("command", ["decomp", "cartan", "inverse-decomp"])
def test_empty_block_is_refused(capsys, command):
    assert run([command, "--type", "A2", "--I", "1,2", "--J", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("klblocks: error: block (I=[1, 2], J=[1]) of A2 has an empty "
                   "index set; matrices will be 0x0\n")


def test_type_strings_print_canonically(capsys):
    assert run(["weyl", "--type", "a2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "A2: all elements (6)"
    assert run(["root-system", "--type", " b2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "B2"


def test_non_reduced_words_rejected(capsys):
    assert run(["kl", "--type", "A1", "--y", "1", "--w", "1,1"]) == 1
    assert "'1,1' is not a reduced word in A1" in capsys.readouterr().err
    assert run(["kl", "--type", "A2", "--y", "2,2", "--w", "1,2,1"]) == 1
    assert "not a reduced word" in capsys.readouterr().err
    assert run(["translate", "--type", "A2", "--J", "1", "--x", "2,1,1"]) == 1
    assert "not a reduced word" in capsys.readouterr().err


def test_argparse_errors(capsys):
    assert run(["decomp", "--type", "A2", "--J", "x"]) == 1
    assert run(["decomp"]) == 1
    assert run(["no-such-command", "--type", "A2"]) == 1
    capsys.readouterr()


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli._build_parser.cache_clear()
    for _ in range(2):
        assert run(["root-system", "--type", "A1"]) == 0
    capsys.readouterr()
    assert len(built) == 13  # the top-level parser and one per subcommand


@pytest.mark.parametrize("argv", [
    ["--help"], ["kl", "--help"], ["decomp", "--type", "A2", "--J", "x"],
    ["no-such-command"],
])
def test_reused_parser_prints_what_a_fresh_one_does(capsys, argv):
    cli._build_parser.cache_clear()
    first = run(argv), capsys.readouterr()
    assert run(argv) == first[0]
    assert capsys.readouterr() == first[1]


# sha256 of stdout, recorded before the Schubert layer moved to integer
# divided differences: the output must not drift with the engine.
@pytest.mark.parametrize("argv, digest", [
    (["schubert", "--type", "B3", "--x", "1,2", "--y", "3,2"],
     "965852cf21bec4c6174e39b1cc54eff596a07a3ebdf5243a0490af4101b6903d"),
    (["gram", "--type", "B3", "--J", "1", "--format", "json"],
     "68ac685ac833a67558a4d7a25e8f22a7cc79907050a593017d3ac772646b3c39"),
    (["gram", "--type", "G2", "--format", "table"],
     "8c51c8e5d19a24a2c5477989dac426a5261f68aa933eaebc78185265aba200c5"),
    # recorded before the Demazure images came from one weak-order walk
    (["gram", "--type", "A3", "--J", "2", "--format", "csv"],
     "51fe4b479055a12fb638f1dbb7200f81feed2f8b87a99abf2a226895a7809023"),
    (["gram", "--type", "C3", "--format", "json"],
     "cc2fcf7ba7645943271307fc15cec21de09fa3ac69b431a9ed23f81cc12d84bf"),
    (["schubert", "--type", "G2", "--x", "1,2", "--y", "2,1", "--format", "json"],
     "cecf84938bd08257cc8c4c67237e98e3486c507f4c5a7f52caeae7bbee315612"),
    (["schubert", "--type", "D4", "--x", "1,2", "--y", "3,4"],
     "bcfc832d98d89c54779da072f3c8c87b258fb31e56378cc460432099e1d72190"),
])
def test_schubert_and_gram_bytes_are_stable(capsys, argv, digest):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of check-all stdout, recorded before each check came to declare its
# name once: every name, detail, outcome and random draw must stay put.
@pytest.mark.parametrize("kind, digest", [
    ("A1", "82bafe4f1c2e7445ab52369df56d3068c779b8614480b160b522acd93c4a6c66"),
    ("A2", "c22e154d23e70999aa7c76f8b34f5517b21dfb52c24fe75d58562c9e05a2ac1a"),
    ("B2", "ee178c00a61fb71e489cc12e4ef0106b2533c26892660f0e5767dfa836afc8e7"),
    ("G2", "a027716db4e071eedf638ddc8b9faae64560304be19584ac880aaf60159ea388"),
    ("A3", "32e628356bf42144bbe26161e741771aeaacbbbb85e8d32eb2d5499053464aac"),
    # recorded before the Demazure images came from one weak-order walk
    ("B3", "17607369f72b4e4f991a8a5fbbbbdfb78ee05a0e924c5d5cddef2b74993cebab"),
])
def test_check_all_bytes_are_stable(capsys, kind, digest):
    assert run(["check-all", "--type", kind]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout, recorded while each Weyl element still carried an
# integer matrix: element order, words and w0 must not drift with the
# enumeration.
@pytest.mark.parametrize("argv, digest", [
    (["root-system", "--type", "A1"],
     "3329a958566991be3a9d105a7ae959c16363f62f7c2274247f756b4008196e20"),
    (["root-system", "--type", "A1", "--format", "json"],
     "5ba142f2bb32cd3d4d92ca37eb074a53e0e79da60237bd71560a0f075eea4985"),
    (["root-system", "--type", "A4"],
     "4552f8f16e5fd9d82f35d0def722be0159a04ad8ccf5f360defdf8c2908fd46e"),
    (["root-system", "--type", "A4", "--format", "json"],
     "9558b5f8fcd198618d403d299778ae5ba89a22db726dee7951d22334ed1a67fe"),
    (["root-system", "--type", "B3"],
     "26adf9ef9cc1880bc27bc4056798a2b7410c6546814aa7ea907e7ab24f542f90"),
    (["root-system", "--type", "B3", "--format", "json"],
     "9c1a4709bd732c8bebf360c6d2d7aa432d61327ea68fadebf758d023b467324d"),
    (["root-system", "--type", "C3"],
     "ad2dd2a434e4e331cced26476998d069c6fbdf56491c162e33c3e8ca68d2dc0d"),
    (["root-system", "--type", "C3", "--format", "json"],
     "f669c2e4ca4ae0834d428a47c723e73264d7ce52c89bd6f562611012146fbce9"),
    (["root-system", "--type", "D4"],
     "ef0fb13d3daa9a78fca6159b999c778b493d09364e14cfa6c34ed1f449c0235e"),
    (["root-system", "--type", "D4", "--format", "json"],
     "6022f7a4f0350aa0d4e72eab7ba20f06e168428f0bd835f1aa07809c229c0702"),
    (["root-system", "--type", "F4"],
     "d229e1f561c7fa8ec7d85f36cd8b2bdd1369e5242179bbade66e1555458f07f3"),
    (["root-system", "--type", "F4", "--format", "json"],
     "ad9a5d073cba0981d9ae401b54935dd2569641159100d321437817d7653ab975"),
    (["root-system", "--type", "G2"],
     "f0e68656699e82e466a15a3ceccf55d662b099e4097bb25603a52d86d89c2843"),
    (["root-system", "--type", "G2", "--format", "json"],
     "66abf646b08448e1e4dea5e3be0d95f36be79d5603a1a498d93d42726a9051b3"),
    (["root-system", "--type", "E6"],
     "ab29b5cb8b903501fa330d0fc2baf1ca859906f4ced0321aa7499f2435ba50bf"),
    (["root-system", "--type", "E6", "--format", "json"],
     "1165063c61fd7b8ef525059e8011086cf6fb43ea60bcbc2b8c3f11f36e9fe800"),
    (["weyl", "--type", "B3", "--I", "1", "--J", "3"],
     "7aec9b8f60f5f6c806ccc385c3c2bd65b621408aca0e113e9b0fc880dc2cdcd9"),
    (["weyl", "--type", "G2", "--format", "json"],
     "fe549e478dfb0c92fba654d10ea065fe865e6c84e8076b24371ea814a7a93b3c"),
])
def test_root_system_and_weyl_bytes_are_stable(capsys, argv, digest):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Prints the klblocks submodules, and those of the slow-to-import standard
# modules, that one command loads, after its output.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
from klblocks.cli import main
main(sys.argv[1:])
heavy = {"dataclasses", "inspect", "fractions", "json"}
print(sorted(m for m in set(sys.modules) - before
             if m.startswith("klblocks.") or m in heavy))
"""


def _loaded_modules(argv, env):
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))


# What every command loads: the front end, the group and the renderers.
_CLI_CORE = {"klblocks.cli", "klblocks.roots", "klblocks.serialize", "klblocks.weyl"}


@pytest.mark.parametrize("argv, layers", [
    (["weyl", "--type", "A2"], set()),
    (["kl", "--type", "A2", "--y", "1", "--w", "1,2"], {"hecke", "laurent"}),
    (["cartan", "--type", "A2"], {"hecke", "blocks", "laurent"}),
    (["vp-dims", "--type", "A2", "--J", "1"], {"hecke", "blocks", "laurent"}),
    (["translate", "--type", "A2", "--J", "1", "--x", "e"], {"hecke", "blocks", "laurent"}),
], ids=["weyl", "kl", "cartan", "vp-dims", "translate"])
def test_table_command_loads_only_its_layers(child_env, argv, layers):
    # no dataclasses, inspect, fractions or json either
    loaded = _loaded_modules(argv, child_env)
    assert loaded == _CLI_CORE | {f"klblocks.{name}" for name in layers}


def test_schubert_command_loads_the_schubert_layer(child_env):
    loaded = _loaded_modules(["schubert", "--type", "A2", "--x", "1", "--y", "2"],
                             child_env)
    assert "klblocks.schubert" in loaded
    assert "klblocks.checks" not in loaded


def test_oversized_type_fails_fast(capsys):
    start = time.perf_counter()
    assert run(["root-system", "--type", "E8"]) == 1
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert "696729600" in err and "100000" in err
