"""Table emission formats and the command-line interface."""

import argparse
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from superchar.algebra import emit_algebra_spec, parse_algebra_spec
from superchar.catalog import full_triangular, semidirect_algebra, sixteen_group
from superchar.core import DEFAULT_ENUM_CAP
from superchar.core import PatternGroup, StructureAlgebra
from superchar import cli, core, formula, gf, table
from superchar.cli import _load, main
from superchar.errors import SpecMismatch
from superchar.formula import CharacterEvaluator, un_monomials
from superchar.gf import CharValue, Fq
from superchar.oracle import Oracle, charvalue_coeff_rows
from superchar.poset import ClosedSet, emit_spec, validate_closed
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


def test_a_table_builds_its_field_once(monkeypatch):
    """Pretty output at p = 2 reads the table's field on every write, and
    an extension field builds its log tables when it is made."""
    tab = build_pattern_table(PatternGroup(full_triangular(3), Fq.of(4)))
    built, of = [], Fq.of
    monkeypatch.setattr(Fq, "of", classmethod(lambda cls, *args: built.append(args) or of(*args)))
    assert tab.render("pretty") == tab.render("pretty")
    assert built == [(4, (1, 1, 1))]


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
    for ev, row in zip(CharacterEvaluator.batch(obj, [ch.rep for ch in chars]), values):
        assert row == [ev.value(cl.rep) for cl in classes]


def _swept_table(G):
    """The table of ``G`` by the sweep and the evaluator, the route of
    every group but U_n, taken on U_n too by hiding that J is full
    triangular."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ClosedSet, "is_full_triangular", lambda self: False)
        return build_pattern_table(G)


def test_table_builds_a_eta_once_per_character(monkeypatch):
    """Each character enters exactly one batched setup, which builds A_eta
    and the corank for the whole batch: no per-character A_eta or rank.
    That is the swept route; the U_n route sets up no evaluator and
    sweeps nothing."""
    G = PatternGroup(full_triangular(6), Fq.of(2))
    monkeypatch.setattr(formula, "_SETUP_ENTRIES", 50 * 15**2)  # 50 characters a setup, d = 15
    setups, calls, rrefs, sweeps = [], [], [], []
    setup, eta_matrix, rref = CharacterEvaluator._setup, StructureAlgebra._eta_matrix, gf._rref
    sweep = core.orbit_partition_from_moves
    record = lambda etas: setups.append(list(map(tuple, np.asarray(etas).tolist())))  # the swept route passes digit rows
    monkeypatch.setattr(CharacterEvaluator, "_setup", lambda self, source, etas: record(etas) or setup(self, source, etas))
    monkeypatch.setattr(StructureAlgebra, "_eta_matrix", lambda self, eta: calls.append(eta) or eta_matrix(self, eta))
    monkeypatch.setattr(gf, "_rref", lambda *args: rrefs.append(args) or rref(*args))
    monkeypatch.setattr(core, "orbit_partition_from_moves", lambda *args: sweeps.append(args) or sweep(*args))
    un_tab = build_pattern_table(G)
    assert not setups and not sweeps
    tab = _swept_table(G)
    assert len(tab.chars) == 203 and [len(etas) for etas in setups] == [50, 50, 50, 50, 3]
    assert sum(setups, []) == [o.rep for o in G.all_coorbit_reps()]
    assert not calls and not rrefs
    assert un_tab == tab


UN_GROUPS = [(3, q) for q in (2, 3, 4, 5, 8, 9, 16, 27)] + [(4, q) for q in (2, 3, 4, 5, 8)] + [(5, 2), (5, 3), (6, 2)]


@pytest.mark.parametrize("n, q", UN_GROUPS, ids=[f"U{n}({q})" for n, q in UN_GROUPS])
def test_un_table_equals_the_swept_table(n, q):
    """The monomial U_n table against the swept route: the sweep's
    classes and sizes, the evaluator's coranks and values, the co-orbit
    sizes' irreducibility flags, and the bytes of every format."""
    G = PatternGroup(full_triangular(n), Fq.of(q))
    un, swept = build_pattern_table(G), _swept_table(G)
    assert [c["size"] for c in un.classes] == [c["size"] for c in swept.classes]
    assert un == swept
    for fmt in ("json", "csv", "pretty"):
        assert un.render(fmt) == swept.render(fmt), fmt


@pytest.mark.parametrize("n, q", [(4, 3), (3, 4)])
def test_un_table_matches_the_oracle(n, q):
    G = PatternGroup(full_triangular(n), Fq.of(q))
    tab, oracle = build_pattern_table(G), Oracle(G)
    reps = un_monomials(G)
    assert [c["size"] for c in tab.classes] == list(oracle.superclass_partition().sizes)
    decoded = [np.array([[getattr(v, a) for v in row] for row in tab.values]) for a in ("is_zero", "q_exp", "zeta_exp")]
    rows = charvalue_coeff_rows(G.field.p, q, *decoded)
    assert np.array_equal(oracle.value_rows(reps, reps), rows)


def test_un_table_keeps_the_sweep_cap(capsys):
    code, out, err = _run(capsys, "table", str(DATA / "full_u4_q3.txt"), "--cap", "728")
    assert (code, out, err) == (2, "", "error: 729 functionals to sweep exceed the cap of 728\n")


def test_cell_codes_are_sized_by_the_field():
    tab = _table("one_pair_q257")  # codes up to (dim + 1) * p = 514 need 16 bits
    assert tab.codes.dtype == np.uint16 and tab.codes.shape == (257, 257)
    assert max(v.zeta_exp for row in tab.values for v in row) == 256


@pytest.mark.parametrize("name", ["full_u4_q2", "full_u4_q3", "heisenberg5_q3", "determinant_q2", "semidirect4_q4"])
def test_a_table_holds_one_byte_per_cell_at_p_2_and_3(name):
    tab = _table(name)
    assert tab.codes.nbytes == len(tab.chars) * len(tab.classes)


@pytest.mark.parametrize(
    "rows, cols, p, dim, pairs",
    [(40, 41, 3, 4, True), (40, 42, 2, 5, True), (200, 1, 2, 1, True), (7, 1, 3, 2, False), (20, 21, 257, 3, False)],
    ids=["odd", "even", "one-class-pairs", "one-class", "p257-cells"],
)
def test_emitted_rows_are_the_cells_joined(monkeypatch, rows, cols, p, dim, pairs):
    """JSON and CSV rows equal their cells rendered one by one and joined by
    commas: two cells an item when the n**2 code pairs are no more than the
    cells (n = 1 + (dim + 1) * p codes), one otherwise, over blocks of four
    rows that share one lookup.  The codes are encoded from triples whose
    zero cells carry stray exponents, and those cells encode to 0."""
    monkeypatch.setattr(table, "_BLOCK_CELLS", 4 * cols)
    rng = np.random.default_rng(rows * cols * p)
    zero = rng.random((rows, cols)) < 0.3
    q_exp = rng.integers(0, dim + 1, (rows, cols))
    zeta_exp = rng.integers(0, p, (rows, cols))
    q_exp[0, 0], zeta_exp[0, 0], zero[0, 0] = dim, p - 1, False  # so n is as above
    classes = [{"rep": {}, "size": 1}] * cols
    chars = [{"rep": {}, "corank": 0, "degree": 1, "irreducible": True}] * rows
    codes = gf.cell_codes(zero, q_exp, zeta_exp, p, dim)
    assert codes.dtype == gf.cell_code_dtype(dim, p) and int(codes.max()) == (dim + 1) * p
    assert (q_exp[zero] | zeta_exp[zero]).any() and not codes[zero].any()
    tab = SuperTable("pattern", {"n": 1, "q": p, "p": p, "J": []}, classes, chars, codes)
    assert {items.shape[1] for items, _ in tab._blocks(str, pairs=True)} == {(cols + 1) // 2 if pairs else cols}
    cells = [
        [CharValue.zero() if zero[i, j] else CharValue(int(q_exp[i, j]), int(zeta_exp[i, j]), False) for j in range(cols)]
        for i in range(rows)
    ]
    as_json = (",".join(json.dumps(v.to_json(), separators=(",", ":")) for v in row) for row in cells)
    assert tab.to_json().endswith(',"values":[' + ",".join(f"[{row}]" for row in as_json) + "]}\n")
    as_csv = (",".join(v.render() for v in row) for row in cells)
    assert tab.render("csv").splitlines()[3:] == [f"0,{row}" for row in as_csv]
    assert tab.values == cells


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


def test_from_json_rejects_values_of_the_wrong_shape_or_range():
    text = _table("heisenberg3_q2").to_json()
    assert SuperTable.from_json(text).to_json() == text

    def edited(edit, text=text):
        obj = json.loads(text)
        edit(obj)
        return json.dumps(obj)

    def cell(value):
        return lambda t: t["values"][1].__setitem__(0, value)

    def entry(part, key, value, k=1):
        return lambda t: t[part][k].__setitem__(key, value)

    def rep(value, part="classes"):
        return entry(part, "rep", value)

    for edit in (
        lambda t: t["classes"].__setitem__(1, {"rep": 5, "bogus": True}),
        entry("classes", "bogus", True),  # a key past rep and size
        lambda t: t["classes"][1].pop("size"),
        lambda t: t["classes"].__setitem__(1, [{}, 2]),
        entry("classes", "size", 0),
        entry("classes", "size", -2),
        entry("classes", "size", True),
        entry("classes", "size", 2.0),
        entry("classes", "size", "2"),
        entry("chars", "corank", "x"),
        entry("chars", "corank", -1, k=0),
        entry("chars", "corank", 4),  # corank > dim = 3
        entry("chars", "corank", 1),  # degree 1 is not q**1
        entry("chars", "degree", 3),
        entry("chars", "degree", True, k=0),
        entry("chars", "corank", False, k=0),
        entry("chars", "irreducible", 1),
        entry("chars", "irreducible", "true"),
        entry("chars", "extra", 0),
        lambda t: t["chars"][1].pop("irreducible"),
        rep({"9,9": "1"}),  # no pair of J
        rep({"1,2 ": "1"}),
        rep({"2,1": "1"}),
        rep({"1,2": "0"}),  # a zero entry is left out
        rep({"1,2": "3"}),  # 3 is 1 in F_2, written "1"
        rep({"1,2": " 1"}),
        rep({"1,2": "1:0"}),
        rep({"1,2": 1}),
        rep({"1,2": None}),
        rep([["1,2", "1"]]),
        rep("1,2=1"),
        rep({"1,2": "0"}, part="chars"),
        lambda t: t.__setitem__("J", [[1, 2, 3]]),
        lambda t: t.__setitem__("J", [["1", "2"]]),
        lambda t: t.__setitem__("J", [[True, 2]]),

        lambda t: t["values"][1].pop(),  # a short row
        lambda t: t["values"].pop(),  # a missing row
        lambda t: t["values"][0].append(None),  # a long row
        cell({"q_exp": 0, "zeta_exp": 2}),  # zeta_exp = p
        cell({"q_exp": 4, "zeta_exp": 0}),  # q_exp > dim = 3
        cell({"q_exp": -1, "zeta_exp": 0}),
        cell({"q_exp": 1}),  # no zeta_exp
        cell({"q_exp": 1, "zeta_exp": 0, "x": 0}),
        cell({"q_exp": "1", "zeta_exp": 0}),
        cell({"q_exp": 0.5, "zeta_exp": 0}),
        cell({"q_exp": True, "zeta_exp": 0}),
        cell(1),
        cell(True),
        cell([1, 0]),
        lambda t: t["values"].__setitem__(1, 5),  # a row that is no list
        lambda t: t.__setitem__("values", 5),
        lambda t: t.pop("p"),
        lambda t: t.__setitem__("p", "2"),
        lambda t: t.pop("q"),
        lambda t: t.__setitem__("q", "2"),
        lambda t: t.__setitem__("q", 6),  # no prime power
        lambda t: t.__setitem__("q", 9),  # p = 3, not the table's 2
        lambda t: t.update(q=4, modulus=[1, 0, 1]),  # x^2 + 1 = (x + 1)^2 over F_2
        lambda t: t.update(q=4, modulus=5),
        lambda t: t.update(q=4, modulus=["1", "1", "1"]),  # string coefficients
        lambda t: t.update(q=4, modulus=[1.5, 1, 1]),
        lambda t: t.update(q=4, modulus="111"),
        lambda t: t.update(q=4, modulus=[3, 1, 1]),  # x^2 + x + 1 with an unreduced coefficient
        lambda t: t.update(q=4, modulus=None),  # to_json writes no null
        lambda t: t.__setitem__("modulus", [1, 1]),  # a modulus for a prime q
        lambda t: t["chars"].pop() and t["values"].pop(),  # a character and its row gone: not square
        lambda t: t.pop("J"),
        lambda t: t.__setitem__("J", 3),
        lambda t: t.pop("chars"),
        lambda t: t.pop("kind"),
        lambda t: t.__setitem__("kind", "group"),
        lambda t: t.clear() or t.update(kind="algebra"),
    ):
        with pytest.raises(SpecMismatch):
            SuperTable.from_json(edited(edit))
    algebra = _table("semidirect4_q4").to_json()  # d = 5 over F_4, literals "c0:c1"
    assert SuperTable.from_json(algebra).to_json() == algebra
    for coords in (["0:0"] * 4, ["0:0"] * 6, ["0:0"] * 4 + ["1"], ["0:0"] * 4 + ["2:0"], ["0:0"] * 4 + [1], "0:0"):
        for part in ("classes", "chars"):
            with pytest.raises(SpecMismatch):
                SuperTable.from_json(edited(rep({"coords": coords}, part), algebra))
    for bad_rep in ({"coords": ["0:0"] * 5, "x": 0}, {}, ["0:0"] * 5):
        with pytest.raises(SpecMismatch):
            SuperTable.from_json(edited(rep(bad_rep), algebra))
    for bad in ("[]", "5", "null", '{"kind": "pattern"', ""):
        with pytest.raises(SpecMismatch):
            SuperTable.from_json(bad)


def test_unknown_format_is_rejected():
    with pytest.raises(ValueError):
        _table("group16").render("xml")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # the parser and each of its subcommand parsers are built by the first call only
    built, init = [], argparse.ArgumentParser.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recorded)
    cli._parser.cache_clear()
    try:
        first = _run(capsys, "validate", str(DATA / "heisenberg3_q2.txt"))
        after_first = list(built)
        second = _run(capsys, "validate", str(DATA / "heisenberg3_q2.txt"))
    finally:
        cli._parser.cache_clear()
    assert first == second and first[0] == 0
    assert after_first.count("superchar") == 1 and built == after_first


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


def test_cmd_validate_modulus_on_a_prime_field(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 3\nq 5\nmodulus 1 1\npairs\n1 3\n")
    code, out, err = _run(capsys, "validate", str(bad))
    assert code == 1 and out == ""
    assert "only meaningful for proper prime powers" in err


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


def test_cmd_table_out_keeps_the_old_file_when_the_write_fails(tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "t.csv"
    out_file.write_text("old table\n", encoding="utf-8")
    text = _table("group16").render("csv")

    def failing_write(self, fmt, stream):
        stream.write(text[: len(text) // 2])  # some rows, then the disk fills
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(SuperTable, "write", failing_write)
    code, out, err = _run(capsys, "table", str(DATA / "group16.txt"), "--format", "csv", "--out", str(out_file))
    assert code == 1 and out == "" and "No space left on device" in err
    assert out_file.read_text(encoding="utf-8") == "old table\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    monkeypatch.undo()
    code, _, _ = _run(capsys, "table", str(DATA / "group16.txt"), "--format", "csv", "--out", str(out_file))
    assert code == 0 and out_file.read_text(encoding="utf-8") == text
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_cmd_table_out_in_a_missing_directory_names_the_out_path(tmp_path, capsys):
    out_file = tmp_path / "missing" / "t.json"
    code, out, err = _run(capsys, "table", str(DATA / "group16.txt"), "--out", str(out_file))
    assert code == 1 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: {str(out_file)!r}\n"
    assert list(tmp_path.iterdir()) == []


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


def test_cmd_value_rejects_a_repeated_functional_position(capsys):
    for argv in (
        ("value", str(DATA / "full_u3_q2.txt"), "--eta", "1,3=1", "--phi", "1,3=1;1,3=0"),
        ("value", str(DATA / "group16.txt"), "--eta", "1=1;1=0", "--phi", "0"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "repeated" in err


def test_cmd_orbits(capsys):
    code, out, _ = _run(capsys, "orbits", str(DATA / "orbit_shape_q2.txt"))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == len(payload["coorbits"]) == 76
    assert payload["classes"][0] == {"rep": {}, "size": 1}


def _orbits_by_the_sweep(G) -> str:
    """The listing of ``superchar orbits`` read off the two sweeps of core:
    least members and sizes, with each co-orbit's corank by rank(A_eta)."""
    rep_obj = table._head(G)[2]
    payload = {
        "classes": [{"rep": rep_obj(o.rep), "size": o.size} for o in G.all_orbit_reps()],
        "coorbits": [{"rep": rep_obj(o.rep), "size": o.size, "corank": G.corank(o.rep)} for o in G.all_coorbit_reps()],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


ORBIT_LISTINGS = [(n, q) for n in (3, 4, 5) for q in (2, 3)] + [(4, 4), "orbit_shape_q2", "group16"]


@pytest.mark.parametrize("case", ORBIT_LISTINGS, ids=lambda case: case if isinstance(case, str) else "U%d(%d)" % case)
def test_cmd_orbits_equals_the_swept_listing(case, tmp_path, capsys, monkeypatch):
    """superchar orbits prints the bytes of the swept listing.  On U_n it
    sweeps nothing, lists the monomials with their arc counts, and keeps
    the sweep's cap on q**d."""
    if isinstance(case, str):
        spec = DATA / f"{case}.txt"
    else:
        spec = tmp_path / "un.txt"
        spec.write_text(emit_spec(full_triangular(case[0]), Fq.of(case[1])), encoding="utf-8")
    G = _load(str(spec))
    want = _orbits_by_the_sweep(G)
    sweeps, sweep = [], core.orbit_partition_from_moves
    monkeypatch.setattr(core, "orbit_partition_from_moves", lambda *args: sweeps.append(args) or sweep(*args))
    assert _run(capsys, "orbits", str(spec)) == (0, want, "")
    assert len(sweeps) == (0 if isinstance(case, tuple) else 2)
    small = str(G.order() - 1)
    assert _run(capsys, "orbits", str(spec), "--cap", small) == (
        2,
        "",
        f"error: {G.order()} functionals to sweep exceed the cap of {small}\n",
    )


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
    # the message names the unit it counts
    assert "4293001441 orbit-sum coefficients exceed the cap of 4194304" in err and "states" not in err


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


def test_an_empty_spec_file_is_an_error_without_a_traceback(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n\n")
    code, out, err = _run(capsys, "validate", str(empty))
    assert (code, out, err) == (1, "", f"error: {empty}: empty spec file\n")


def test_cmd_value_refuses_an_algebra_coordinate_past_d(capsys):
    code, out, err = _run(capsys, "value", str(DATA / "group16.txt"), "--eta", "9=1", "--phi", "0")
    assert (code, out, err) == (1, "", "error: coordinate 9 out of range 1..4\n")


def test_cmd_validate_prints_an_algebra_spec_that_parses_back(capsys):
    code, out, _ = _run(capsys, "validate", str(DATA / "group16.txt"))
    assert code == 0
    alg = _load(str(DATA / "group16.txt"))
    parsed, _ = parse_algebra_spec(out)
    assert (parsed.d, parsed.field, parsed.constants) == (alg.d, alg.field, alg.constants)


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
