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


# sha256 of stdout, recorded before the Schubert layer moved to integer
# divided differences: the output must not drift with the engine.
@pytest.mark.parametrize("argv, digest", [
    (["schubert", "--type", "B3", "--x", "1,2", "--y", "3,2"],
     "965852cf21bec4c6174e39b1cc54eff596a07a3ebdf5243a0490af4101b6903d"),
    (["gram", "--type", "B3", "--J", "1", "--format", "json"],
     "68ac685ac833a67558a4d7a25e8f22a7cc79907050a593017d3ac772646b3c39"),
    (["gram", "--type", "G2", "--format", "table"],
     "8c51c8e5d19a24a2c5477989dac426a5261f68aa933eaebc78185265aba200c5"),
])
def test_schubert_and_gram_bytes_are_stable(capsys, argv, digest):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Prints the klblocks submodules loaded by one command, after its output.
_IMPORT_PROBE = """
import sys
from klblocks.cli import main
main(sys.argv[1:])
print(sorted(m for m in sys.modules if m.startswith("klblocks.")))
"""
_UNUSED_BY_KL = {"klblocks.checks", "klblocks.schubert", "klblocks.ratpoly",
                 "klblocks.linalg"}


def _loaded_modules(argv, env):
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))


def test_kl_command_loads_only_its_layers(child_env):
    loaded = _loaded_modules(["kl", "--type", "A2", "--y", "1", "--w", "1,2"], child_env)
    assert "klblocks.hecke" in loaded
    assert not loaded & _UNUSED_BY_KL


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
