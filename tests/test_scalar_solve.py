"""One place per job: the scalar mesh solve is gf's one row reduction, the
check of a functional is core's one scalar and one array check, the
oracle's orbit sums gather residues from tables, every orbit comes from
the one sweep, and every cell code from gf's one encoder."""

import ast
import re
from pathlib import Path

import pytest

import superchar
from superchar import gf
from superchar.catalog import full_triangular
from superchar.core import PatternGroup
from superchar.formula import CharacterEvaluator
from superchar.gf import Fq
from superchar.oracle import Oracle
from superchar.poset import functional

SRC = Path(superchar.__file__).parent


def _tree(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def _names(tree):
    """Every identifier a module reads, imports or takes as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def test_scalar_pivoting_lives_in_gf():
    inv_calls = {}
    for path in sorted(SRC.glob("*.py")):
        calls = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "inv"
        ]
        if calls:
            inv_calls[path.name] = calls
    assert set(inv_calls) == {"gf.py"}, inv_calls
    assert "_rref" not in _names(_tree("formula.py"))
    assert not _names(_tree("core.py")) & {"solve", "perp_to_nullspace", "nullspace_basis"}


def test_one_fp_elimination_and_one_batched_setup():
    """formula runs no elimination mod p of its own: the hard cells and the
    evaluator setup both call gf's one batched elimination, and the setup
    reads the structure constants only through their blocks, never in a
    loop per character."""
    tree = _tree("formula.py")
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for name in ("_solve_hard", "_setup"):
        assert name in functions and "row_reduce_mod_p" in _names(functions[name]), name
    assert "fp_inverses" not in _names(tree)  # every pivot is scaled in gf
    evaluator = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "CharacterEvaluator")
    assert "constants" not in _names(evaluator)
    assert "_eta_matrix" not in _names(tree) and "_corank_of" not in _names(tree)


def test_one_scalar_arithmetic_for_every_q():
    """No slow path beside the log tables, and no size threshold between
    them; no polynomial arithmetic either, as the walk behind the log
    tables proves the modulus irreducible."""
    assert not [name for name in vars(Fq) if name.endswith("_slow")]
    assert "_TABLE_LIMIT" not in vars(gf)
    assert not [name for name in vars(gf) if name.startswith("_poly") or name == "_irreducible"]


def test_one_orbit_walk_for_every_symmetry():
    """The formula and the oracle find the orbits of the symmetries by gf's
    one walk, and fill rows down its tree by gf's one gather; the oracle
    takes its symmetries from no other module and multiplies by a scalar
    through Fq.multiples, with no table cache of its own."""
    formula, oracle = _functions(_tree("formula.py")), _functions(_tree("oracle.py"))
    assert "orbit_tree" in _names(formula["_orbit_chunks"]) and "tree_rows" in _names(formula["_orbit_rows"])
    assert "orbit_tree" in _names(oracle["Oracle._orbits"]) and "tree_rows" in _names(oracle["full_check"])
    assert "_symmetries" in _names(oracle["Oracle._orbits"]) and "multiples" in _names(oracle["_symmetries"])
    assert not {"symmetries", "symmetry_codes"} & _names(_tree("oracle.py"))
    defined = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name, node in _functions(_tree(path.name)).items()
        if name in ("orbit_tree", "tree_rows") or "bit_length" in _names(node)  # no pointer doubling beside it
    }
    assert defined == {"gf.orbit_tree", "gf.tree_rows"}
    assert "unit_orbits" not in vars(gf) and "_scalar_orbits" not in oracle and "lru_cache" not in _names(_tree("oracle.py"))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_one_row_reduction_per_meshed_cell(q, monkeypatch):
    G = PatternGroup(full_triangular(4), Fq.of(q))
    eta = functional(G.J, G.field, {(1, 4): 1})
    phi = functional(G.J, G.field, {(2, 3): 1})  # M[(1,2),(3,4)] = phi_23 eta_14
    M, a, b = G.mesh_data(phi, eta)
    assert any(map(any, M.rows)) and not any(a) and not any(b)
    ev = CharacterEvaluator(G, eta)
    rrefs, rref = [], gf._rref
    monkeypatch.setattr(gf, "_rref", lambda *args: rrefs.append(args) or rref(*args))

    def count(run):
        before = len(rrefs)
        out = run()
        return len(rrefs) - before, out

    calls, value = count(lambda: G.value(eta, phi, corank=ev.corank))
    assert calls == 1 and not value.is_zero
    calls, (meshed, b0) = count(lambda: G.meshes(phi, eta))
    assert calls == 1 and meshed and b0 == (0,) * len(phi)
    calls, ev_value = count(lambda: ev.value(phi))
    assert calls == 1 and ev_value == value


def _functions(tree):
    """Every function of a module by its dotted name, methods under their class."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            out.update((f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef))
    return out


def _order_tests_against_q(node):
    """Every <, <=, > or >= in ``node`` with ``q`` or ``<x>.q`` as an operand."""

    def is_q(o):
        return isinstance(o, ast.Name) and o.id == "q" or isinstance(o, ast.Attribute) and o.attr == "q"

    return [
        n
        for n in ast.walk(node)
        if isinstance(n, ast.Compare)
        and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in n.ops)
        and any(map(is_q, (n.left, *n.comparators)))
    ]


def test_one_scalar_and_one_array_check_of_a_functional():
    """core decides whether a functional lies in F_q**d: its scalar check
    backs StructureAlgebra._functional, and every array path calls its
    array check.  No other module tests entries against q; gf, which holds
    no functionals, tests q itself and single field elements."""
    core, formula, oracle = (_functions(_tree(name)) for name in ("core.py", "formula.py", "oracle.py"))
    assert "_functionals" not in formula
    assert "_vec" not in _names(_tree("core.py"))
    assert "_check_functional" in _names(core["StructureAlgebra._functional"])
    for functions, name in (
        (formula, "CharacterEvaluator._setup"),
        (formula, "value_blocks"),
        (formula, "un_value_chunks"),
        (core, "OrbitPartition.classes_of"),
        (oracle, "Oracle._phi_digits"),
    ):
        assert "_check_functionals" in _names(functions[name]), name
    assert {name for name, f in core.items() if _order_tests_against_q(f)} == {"_check_functional", "_check_functionals"}
    for path in sorted(SRC.glob("*.py")):
        if path.name not in ("core.py", "gf.py"):
            assert not _order_tests_against_q(_tree(path.name)), path.name


@pytest.mark.parametrize("name", ["Oracle._orbit_sums", "Oracle._residue_counts", "Oracle._residue_tables"])
def test_orbit_sums_take_no_product_per_block(name):
    """The oracle's orbit sums gather the residues of every block from
    tables built by additions: no mod-p product and no digit expansion per
    block, so the float product per block cannot come back."""
    kernel = _functions(_tree("oracle.py"))[name]
    assert not _names(kernel) & {"matmul_mod_p", "_codes_to_digits", "p_digits", "matmul", "dot", "einsum"}
    assert not [
        node
        for node in ast.walk(kernel)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]


def test_orbit_sums_take_their_residue_tables_from_the_caller():
    """The tables are built once per set of representatives, next to
    _phi_digits, and passed down: the orbit-sum kernel never builds them."""
    oracle = _functions(_tree("oracle.py"))
    for name in ("Oracle._orbit_sums", "Oracle._residue_counts", "Oracle._rows", "Oracle._runs"):
        assert "_residue_tables" not in _names(oracle[name]), name


def test_one_orbit_engine_and_one_move_format():
    """Orbits come from the one vectorized sweep: no module defines a
    closure search, and core and the oracle each call the sweep from one
    method, which every orbit query of theirs goes through.  The sweep
    builds its permutations from F_q coordinates, not base-p digit blocks.
    Every move of either is one tuple of (tgt, src, c) updates with c a
    nonzero element."""
    for path in sorted(SRC.glob("*.py")):
        defined = {node.name for node in ast.walk(_tree(path.name)) if isinstance(node, ast.FunctionDef)}
        assert not defined & {"_bfs", "_apply_move"}, path.name
    core, oracle = (_functions(_tree(name)) for name in ("core.py", "oracle.py"))
    for functions, caller, queries in (
        (
            core,
            "StructureAlgebra._sweep",
            ("StructureAlgebra._orbit", "StructureAlgebra.orbit_partition", "StructureAlgebra.coorbit_partition"),
        ),
        (oracle, "Oracle._partition", ("Oracle.superclass_partition", "Oracle.coorbit_partition", "Oracle._right_sizes")),
    ):
        assert [name for name, f in functions.items() if "orbit_partition_from_moves" in _names(f)] == [caller]
        short = caller.split(".")[1]
        assert all(short in _names(functions[name]) for name in queries)
    assert not _names(core["orbit_partition_from_moves"]) & {"p_digits", "digit_blocks"}

    G = PatternGroup(full_triangular(4), Fq.of(4))
    backend = Oracle(G).backend
    move_sets = [G._move_set(kind) for kind in ("left", "right", "co_left", "co_right")]
    move_sets += [backend.mult_left, backend.mult_right, backend.dual_left, backend.dual_right, backend.conj]
    for moves in move_sets:
        assert moves and all(
            type(move) is tuple and all(type(u) is tuple and len(u) == 3 and 0 < u[2] < G.field.q for u in move)
            for move in moves
        )


def test_full_check_compares_on_the_narrow_counters():
    """full_check judges each block of residue counters as it comes, scaled
    by _divided, and never builds the int64 orbit-sum rows (_rows,
    _orbit_sums) nor the formula's (charvalue_coeff_rows); the witness reads
    one column of _code_columns, at one cell's code (key[i, c]), never a
    whole chunk."""
    check = _functions(_tree("oracle.py"))["full_check"]
    names = _names(check)
    assert {"_residue_counts", "_divided"} <= names
    assert not names & {"_rows", "_orbit_sums", "value_rows", "value_row", "charvalue_coeff_rows"}
    lookups = [
        node
        for node in ast.walk(check)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) == "_code_columns"
    ]
    assert lookups
    for node in lookups:
        coefficients, code = node.slice.elts  # [:, key[i, c]]
        assert isinstance(coefficients, ast.Slice) and isinstance(code, ast.Subscript)
        assert not [index for index in code.slice.elts if isinstance(index, ast.Slice)]


def test_one_row_source_for_tables_and_checks():
    """formula.table_rows alone makes the rows that superchar table emits
    and superchar check judges: each value kernel that makes rows is
    called from it and from no other function, and no module but formula
    chooses a route by whether J is full triangular."""
    callers = {"value_chunks": set(), "un_value_chunks": set()}
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path.name)
        for name, function in _functions(tree).items():
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    called = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                    if called in callers:
                        callers[called].add(f"{path.stem}.{name}")
        if path.name != "formula.py":
            assert "is_full_triangular" not in _names(tree), path.name
    assert callers == {"value_chunks": {"formula.table_rows"}, "un_value_chunks": {"formula.table_rows"}}


def _exponent_arithmetic(tree):
    """The lines of every sum or product in ``tree`` (a + or * expression,
    += or *=, np.add or np.multiply) with a q- or zeta-exponent array as an
    operand: a name like q_exp, qexp, zeta_exp or zexp, read directly,
    indexed or converted (``self.zeta_exp[rows]``, ``np.asarray(zexp).astype(t)``)."""

    def is_exponent(node):
        while True:
            if isinstance(node, ast.Subscript):
                node = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                node = node.func.value
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "asarray" and node.args:
                node = node.args[0]
            else:
                break
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else ""
        return re.fullmatch(r"(q|zeta|z)_?exp_?", name) is not None

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mult)):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Mult)):
            operands = (node.value,)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("add", "multiply"):
            operands = node.args[:2]
        else:
            continue
        if any(map(is_exponent, operands)):
            lines.append(node.lineno)
    return lines


def test_cell_codes_live_in_gf():
    """A cell code, 1 + q_exp * p + zeta_exp, is computed by gf alone: no
    other module adds or multiplies an exponent array.  The value kernels
    and the table reader encode through gf.cell_codes, as do the oracle's
    coefficient rows; the table builder and the check only move the codes
    the kernels wrote, and the emitters and value_block read them back
    through gf.cell_value and gf.cell_exponents."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "gf.py":
            assert _exponent_arithmetic(_tree(path.name)) == [], path.name
    assert _exponent_arithmetic(_functions(_tree("gf.py"))["cell_codes"])
    formula, table, oracle = (_functions(_tree(name)) for name in ("formula.py", "table.py", "oracle.py"))
    for function in (formula["_chunk_values"], formula["un_value_chunks"], table["SuperTable.from_json"], oracle["charvalue_coeff_rows"]):
        assert "cell_codes" in _names(function), function.name
    for function in (table["build_table"], oracle["full_check"]):
        assert "cell_codes" not in _names(function), function.name
    assert "value_arrays" not in formula
    assert {"codes", "cell_value"} <= _names(table["SuperTable._blocks"])
    assert "cell_exponents" in _names(formula["CharacterEvaluator.value_block"])
