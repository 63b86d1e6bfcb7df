"""The tests' reference verdict of the formula-vs-oracle value check: both
sides widened to int64 cyclotomic coefficient rows and compared cell by
cell, independent of the counter-domain comparison that
:func:`superchar.oracle.full_check` runs.

The formula side is :func:`superchar.oracle.charvalue_coeff_rows` on the
rows of :func:`superchar.formula.table_rows`, the rows ``superchar table``
emits, looked up through the module at call time so that a test's patch of
a value kernel (``formula._value_blocks`` or ``formula.un_value_chunks``)
reaches both verdicts, its cell codes read back by
:func:`superchar.gf.cell_exponents`; the oracle side is the scaled orbit-sum
rows of :meth:`superchar.oracle.Oracle._rows`, one brute-force sum per row,
with no use of the scalar symmetry."""

import numpy as np

from superchar import formula
from superchar.gf import cell_exponents
from superchar.oracle import Oracle, _rows_per_call, charvalue_coeff_rows


def reference_verdict(source, oracle_cap=None):
    """(mismatches, witness) of the value check on ``source``: how many
    (character, superclass) cells differ, and (eta, phi, formula
    coefficients, oracle coefficients) of the least in (eta, class) order
    over all chunks, or None.  Every row, whether the formula evaluated it
    or filled it from its scalar orbit's source, is summed over its own
    co-orbit."""
    oracle = Oracle(source, cap=oracle_cap)
    classes, _, chars, _, chunks = formula.table_rows(source, oracle.cap)
    F = oracle.field
    tables = oracle._residue_tables(oracle._phi_digits(classes))
    step = _rows_per_call(F.p, len(classes))
    mismatches, first = 0, None
    for rows, _, _, codes in chunks:
        for lo in range(0, len(rows), step):
            oracle_rows = oracle._rows(chars[rows[lo : lo + step]], tables)
            formula_rows = charvalue_coeff_rows(F.p, F.q, *cell_exponents(codes[lo : lo + step], F.p))
            bad = (formula_rows != oracle_rows).any(axis=0)
            for i, c in np.argwhere(bad):
                cell = (int(rows[lo + i]), int(c))
                if first is None or cell < first[:2]:
                    first = cell + (tuple(int(x) for x in formula_rows[:, i, c]), tuple(int(x) for x in oracle_rows[:, i, c]))
            mismatches += int(bad.sum())
    if first is None:
        return mismatches, None
    row, c, formula_coeffs, oracle_coeffs = first
    return mismatches, (tuple(chars[row].tolist()), tuple(classes[c].tolist()), formula_coeffs, oracle_coeffs)
