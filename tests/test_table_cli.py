"""Table emission formats and the command-line interface."""

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from superchar.algebra import emit_algebra_spec
from superchar.catalog import full_triangular, semidirect_algebra, sixteen_group
from superchar.core import DEFAULT_ENUM_CAP
from superchar.core import PatternGroup, StructureAlgebra
from superchar import gf
from superchar.cli import _load, main
from superchar.formula import CharacterEvaluator
from superchar.gf import CharValue, Fq
from superchar.poset import emit_spec, validate_closed
from superchar.table import SuperTable, build_algebra_table, build_pattern_table

DATA = Path(__file__).resolve().parents[1] / "src" / "superchar" / "data"


def test_empty_closed_set_gives_the_one_by_one_table():
    G = PatternGroup(validate_closed(2, set()), Fq.of(3))
    tab = build_pattern_table(G)
    assert len(tab.classes) == len(tab.chars) == 1
    assert tab.values == [[CharValue.of(0, 0, 3)]]
    assert tab.chars[0]["degree"] == 1 and tab.chars[0]["irreducible"]


def test_table_json_round_trip():
    G = PatternGroup(validate_closed(3, {(1, 2), (1, 3), (2, 3)}), Fq.of(2))
    tab = build_pattern_table(G)
    text = tab.to_json()
    back = SuperTable.from_json(text)
    assert back == tab
    assert back.to_json() == text

    alg_tab = build_algebra_table(sixteen_group())
    assert SuperTable.from_json(alg_tab.to_json()) == alg_tab


def test_table_degree_is_column_zero():
    tab = build_algebra_table(sixteen_group())
    for ch, row in zip(tab.chars, tab.values):
        assert row[0] == CharValue.of(ch["corank"], 0, 2)
        assert ch["degree"] == 2 ** ch["corank"]


def test_csv_and_pretty_render():
    tab = build_algebra_table(sixteen_group())
    csv_text = tab.render("csv")
    assert "q^2*z^1" in csv_text  # -4 = 4 * zeta_2
    pretty = tab.render("pretty")
    assert "-4" in pretty


GENERATED = {
    "full_u4_q4": lambda: PatternGroup(full_triangular(4), Fq.of(4)),
    "semidirect4_q4": lambda: semidirect_algebra(4, Fq.of(4)),
    "one_pair_q257": lambda: PatternGroup(validate_closed(2, {(1, 2)}), Fq.of(257)),
}
TABLES = sorted(spec.stem for spec in DATA.glob("*.txt")) + sorted(GENERATED)


@lru_cache(maxsize=None)
def _group(name):
    return GENERATED[name]() if name in GENERATED else _load(str(DATA / f"{name}.txt"))


@lru_cache(maxsize=None)
def _table(name):
    obj = _group(name)
    return (build_pattern_table if isinstance(obj, PatternGroup) else build_algebra_table)(obj)


@pytest.mark.parametrize("name", TABLES)
def test_values_view_matches_the_scalar_evaluator(name):
    obj, tab = _group(name), _table(name)
    classes, chars = obj.all_orbit_reps(), obj.all_coorbit_reps()
    values = tab.values
    assert len(values) == len(chars)
    for ch, row in zip(chars, values):
        ev = CharacterEvaluator(obj, ch.rep)
        assert row == [ev.value(cl.rep) for cl in classes]


def test_table_builds_a_eta_once_per_character(monkeypatch):
    G = PatternGroup(full_triangular(6), Fq.of(2))
    calls, rrefs = [], []
    eta_matrix, rref = StructureAlgebra._eta_matrix, gf._rref
    monkeypatch.setattr(StructureAlgebra, "_eta_matrix", lambda self, eta: calls.append(eta) or eta_matrix(self, eta))
    monkeypatch.setattr(gf, "_rref", lambda *args: rrefs.append(args) or rref(*args))
    tab = build_pattern_table(G)
    assert len(tab.chars) == len(calls) == 203
    assert len(rrefs) == 203  # one corank per character, no second rank


def test_value_arrays_are_sized_by_the_field():
    tab = _table("one_pair_q257")  # zeta exponents up to 256 need 16 bits
    assert tab.zero.dtype == bool and tab.q_exp.dtype == np.uint8
    assert tab.zeta_exp.dtype == np.uint16 and int(tab.zeta_exp.max()) == 256
    assert tab.zero.shape == tab.q_exp.shape == tab.zeta_exp.shape == (257, 257)


@pytest.mark.parametrize("name", TABLES)
def test_write_to_a_file_matches_render(name, tmp_path):
    tab = _table(name)
    for fmt in ("json", "csv", "pretty"):
        path = tmp_path / f"table.{fmt}"
        with open(path, "w", encoding="utf-8") as out:
            tab.write(fmt, out)
        assert path.read_bytes() == tab.render(fmt).encode("utf-8"), fmt


@pytest.mark.parametrize("name", TABLES)
def test_every_table_round_trips_through_json(name):
    tab = _table(name)
    text = tab.to_json()
    back = SuperTable.from_json(text)
    assert back == tab
    assert back.to_json() == text
    assert back.values == tab.values


def test_unknown_format_is_rejected():
    with pytest.raises(ValueError):
        _table("group16").render("xml")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cmd_validate_ok(capsys):
    code, out, _ = _run(capsys, "validate", str(DATA / "heisenberg3_q2.txt"))
    assert code == 0
    assert "pairs" in out


def test_cmd_validate_not_closed(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 3\nq 2\npairs\n1 2\n2 3\n")
    code, _, err = _run(capsys, "validate", str(bad))
    assert code == 1
    assert "(1, 2, 3)" in err  # witness triple reported


def test_cmd_validate_reducible_modulus(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 3\nq 4\nmodulus 1 0 1\npairs\n1 3\n")
    code, _, err = _run(capsys, "validate", str(bad))
    assert code == 1
    assert "reducible" in err


def test_cmd_table_json_and_out_file(tmp_path, capsys):
    out_file = tmp_path / "t.json"
    code, out, _ = _run(
        capsys, "table", str(DATA / "group16.txt"), "--format", "json", "--out", str(out_file)
    )
    assert code == 0 and out == ""
    obj = json.loads(out_file.read_text())
    assert obj["kind"] == "algebra" and len(obj["values"]) == 7
    assert obj["values"][0][0] == {"q_exp": 0, "zeta_exp": 0}


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_cmd_table_out_file_equals_stdout(fmt, tmp_path, capsys):
    u3_q4 = tmp_path / "full_u3_q4.txt"
    u3_q4.write_text(emit_spec(full_triangular(3), Fq.of(4)), encoding="utf-8")
    for spec in (DATA / "group16.txt", DATA / "heisenberg4_q3.txt", u3_q4):
        out_file = tmp_path / f"out.{fmt}"
        code, out, _ = _run(capsys, "table", str(spec), "--format", fmt)
        assert code == 0
        code, empty, _ = _run(capsys, "table", str(spec), "--format", fmt, "--out", str(out_file))
        assert code == 0 and empty == ""
        assert out_file.read_bytes() == out.encode("utf-8"), spec.name


def test_cmd_table_cap_exceeded(capsys):
    code, _, err = _run(capsys, "table", str(DATA / "heisenberg5_q3.txt"), "--cap", "100")
    assert code == 2
    assert "cap" in err


def test_cmd_value_and_irreducible(capsys):
    spec = str(DATA / "heisenberg3_q3.txt")
    code, out, _ = _run(capsys, "value", spec, "--eta", "1,3=1", "--phi", "1,3=1")
    assert code == 0
    assert "q^1*z^1" in out
    code, out, _ = _run(capsys, "irreducible", spec, "--eta", "1,3=1")
    assert code == 0 and "irreducible: true" in out

    code, out, _ = _run(
        capsys, "value", str(DATA / "group16.txt"), "--eta", "4=1", "--phi", "4=1"
    )
    assert code == 0
    assert "q^2*z^1" in out  # chi_z(z) = -4


def test_cmd_value_bad_algebra_coordinate_is_a_parse_error(capsys):
    for argv in (
        ("value", str(DATA / "group16.txt"), "--eta", "x=1", "--phi", "0"),
        ("irreducible", str(DATA / "group16.txt"), "--eta", "1=1;y=1"),
    ):
        code, _, err = _run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and "bad functional item" in err


def test_cmd_orbits(capsys):
    code, out, _ = _run(capsys, "orbits", str(DATA / "orbit_shape_q2.txt"))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == len(payload["coorbits"]) == 76
    assert payload["classes"][0] == {"rep": {}, "size": 1}


def test_cmd_orbits_reports_the_shape_example_sizes(tmp_path, capsys):
    spec = tmp_path / "orbit_shape_q3.txt"
    spec.write_text(
        "n 5\nq 3\npairs\n"
        + "".join(f"{i} {j}\n" for i, j in
                  [(4, 5), (3, 5), (2, 5), (2, 4), (2, 3), (1, 5), (1, 4), (1, 3)])
    )
    code, out, _ = _run(capsys, "orbits", str(spec))
    assert code == 0
    payload = json.loads(out)
    by_rep = {tuple(sorted(c["rep"].items())): c["size"] for c in payload["classes"]}
    x1 = tuple(sorted({"1,3": "1", "1,4": "1", "2,3": "1", "2,4": "1"}.items()))
    x2 = tuple(sorted({"1,3": "2", "1,4": "1", "2,3": "1", "2,4": "1"}.items()))
    assert by_rep[x1] == 3
    assert by_rep[x2] == 9


def test_cmd_check_ok_and_parse_error(capsys, tmp_path):
    code, out, _ = _run(capsys, "check", str(DATA / "full_u3_q2.txt"))
    assert code == 0
    assert "all checks passed" in out

    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n")
    code, _, err = _run(capsys, "check", str(bad))
    assert code == 1

    code, _, err = _run(capsys, "check", str(DATA / "heisenberg5_q3.txt"), "--oracle-cap", "64")
    assert code == 2


def test_cmd_check_exits_2_past_the_coefficient_budget(capsys, tmp_path):
    # the group fits the raised cap, but one orbit-sum row would take p * q
    # coefficients, about 34 GB
    spec = tmp_path / "one_pair_q65521.txt"
    spec.write_text(emit_spec(validate_closed(2, {(1, 2)}), Fq.of(65521)))
    code, _, err = _run(capsys, "check", str(spec), "--oracle-cap", "131072")
    assert code == 2 and "orbit-sum coefficients" in err


def test_cmd_check_skips_the_axioms_past_the_default_cap(capsys, tmp_path):
    spec = tmp_path / "full_u3_q17.txt"
    spec.write_text(emit_spec(full_triangular(3), Fq.of(17)))
    code, out, _ = _run(capsys, "check", str(spec), "--oracle-cap", "4913")
    assert code == 0
    assert "skipped: axioms (|G| = 4913 > 4096)" in out.splitlines()
    assert "supercharacters_constant_on_superclasses" not in out


def test_missing_file(capsys):
    code, _, err = _run(capsys, "validate", "no_such_file.txt")
    assert code == 1


def test_cmd_check_passes_on_every_bundled_spec(capsys):
    for spec in sorted(DATA.glob("*.txt")):
        code, out, _ = _run(capsys, "check", str(spec))
        assert code == 0, spec.name
        assert "all checks passed" in out


def test_cmd_irreducible_determinant_examples(tmp_path, capsys):
    from superchar.catalog import determinant_poset
    from superchar.poset import emit_spec

    spec = tmp_path / "determinant_q3.txt"
    spec.write_text(emit_spec(determinant_poset(), Fq.of(3)))
    code, out, _ = _run(
        capsys, "irreducible", str(spec), "--eta", "1,4=1;1,5=1;2,4=1;2,5=1;3,6=1"
    )
    assert code == 0 and "irreducible: true" in out
    code, out, _ = _run(
        capsys, "irreducible", str(spec), "--eta", "1,4=1;1,5=1;2,4=1;2,5=2;3,6=1"
    )
    assert code == 0 and "irreducible: false" in out


def test_heisenberg3_table_matches_the_closed_form(capsys):
    from superchar.formula import value_heisenberg
    from superchar.core import PatternGroup
    from superchar.poset import parse_spec

    path = DATA / "heisenberg3_q2.txt"
    code, out, _ = _run(capsys, "table", str(path), "--format", "json")
    assert code == 0
    tab = SuperTable.from_json(out)
    assert len(tab.chars) == len(tab.classes) == 5
    J, F = parse_spec(path.read_text())
    G = PatternGroup(J, F)
    from superchar.poset import parse_functional

    def unpack(rep):
        return parse_functional(J, F, ";".join(f"{k}={v}" for k, v in rep.items()) or "0")

    for ch, row in zip(tab.chars, tab.values):
        eta = unpack(ch["rep"])
        for cl, got in zip(tab.classes, row):
            assert got == value_heisenberg(G, eta, unpack(cl["rep"]))


def test_cmd_value_on_an_algebra_beyond_the_enumeration_cap(tmp_path, capsys):
    alg = semidirect_algebra(6, Fq.of(8))
    assert alg.order() > DEFAULT_ENUM_CAP  # 8**9 > 2**20: the corank is a rank, not a closure
    spec = tmp_path / "semidirect6_q8.txt"
    spec.write_text(emit_algebra_spec(alg), encoding="utf-8")
    code, out, _ = _run(capsys, "value", str(spec), "--eta", "9=1", "--phi", "0")
    assert code == 0
    assert out == f"chi[9=1](x[0]) = q^{alg.corank((0,) * 8 + (1,))}*z^0\n"
