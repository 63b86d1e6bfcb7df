"""The tests' reference verdict of the formula-vs-oracle value check: both
sides widened to int64 cyclotomic coefficient rows and compared cell by
cell, independent of the counter-domain comparison that
:func:`superchar.oracle.full_check` runs.

The formula side is :func:`superchar.oracle.charvalue_coeff_rows` on the
values of :func:`superchar.formula.value_chunks`, looked up through the
module at call time so that a test's patch of ``formula.value_blocks``
reaches both verdicts; the oracle side is the scaled orbit-sum rows of
:meth:`superchar.oracle.Oracle._rows`."""

import numpy as np

from superchar import formula
from superchar.oracle import Oracle, _rows_per_call, charvalue_coeff_rows


def reference_verdict(source, oracle_cap=None):
    """(mismatches, witness) of the value check on ``source``: how many
    (character, superclass) cells differ, and (eta, phi, formula
    coefficients, oracle coefficients) of the first in (eta, class) order,
    or None."""
    oracle = Oracle(source, cap=oracle_cap)
    classes = source.orbit_partition(oracle.cap).reps
    etas = source.coorbit_partition(oracle.cap).reps
    F = oracle.field
    digits = np.array(classes, dtype=np.int64).reshape(len(classes), oracle.dim)
    tables = oracle._residue_tables(oracle._phi_digits(digits))
    step = _rows_per_call(F.p, len(digits))
    mismatches, witness = 0, None
    for _, evaluators, values in formula.value_chunks(source, etas, digits):
        for lo in range(0, len(evaluators), step):
            rows = evaluators.etas[lo : lo + step]
            oracle_rows = oracle._rows(rows, tables)
            formula_rows = charvalue_coeff_rows(F.p, F.q, *(arr[lo : lo + step] for arr in values))
            bad = (formula_rows != oracle_rows).any(axis=0)
            if witness is None and bad.any():
                i, c = np.argwhere(bad)[0]
                witness = (
                    tuple(rows[i].tolist()),
                    classes[c],
                    tuple(int(x) for x in formula_rows[:, i, c]),
                    tuple(int(x) for x in oracle_rows[:, i, c]),
                )
            mismatches += int(bad.sum())
    return mismatches, witness
