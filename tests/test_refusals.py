"""Refusals of library functions: each raises its named QwlError, with a fragment of its message."""

import numpy as np
import pytest

from qwl import liealg, limits, linalg, walks
from qwl.errors import DimMismatch, DomainExceeded, NonHermitian, NotLaplacian, TooSmall


def _closure_of_cycle3():
    return liealg.walk_closure(walks.cycle_walk(3))


REFUSALS = {
    "lattice_walk n < 3": (lambda: walks.lattice_walk(2, 2), TooSmall, "needs n >= 3"),
    "lattice_walk d < 1": (lambda: walks.lattice_walk(3, 0), TooSmall, "needs d >= 1"),
    "ctrw_propagator non-square": (
        lambda: walks.ctrw_propagator(np.zeros((2, 3)), 1.0, 1.0), NotLaplacian, "square"),
    "ctrw_propagator non-symmetric": (
        lambda: walks.ctrw_propagator(np.array([[-1.0, 1.0], [0.0, 0.0]]), 1.0, 1.0),
        NotLaplacian, "real symmetric"),
    "ctrw_propagator t < 0": (
        lambda: walks.ctrw_propagator(np.array([[-1.0, 1.0], [1.0, -1.0]]), 1.0, -1.0),
        DomainExceeded, "nonnegative"),
    "single_step_study rising grid": (
        lambda: limits.single_step_study(limits.strauch_protocol(4), [0.1, 0.2]),
        DomainExceeded, "strictly decreasing"),
    "chiral_split wrong shape": (
        lambda: limits.chiral_split(np.zeros(5), 3), DimMismatch, "dimension 6"),
    "chiral_combinations wrong shapes": (
        lambda: limits.chiral_combinations(np.zeros(3), np.zeros(4), 3),
        DimMismatch, "both halves"),
    "member_residual mismatched dimension": (
        lambda: liealg.member_residual(_closure_of_cycle3(), np.zeros((8, 8))),
        DimMismatch, "ambient dimension is 6"),
    "conjugation_invariance_residual mismatched dimension": (
        lambda: liealg.conjugation_invariance_residual(_closure_of_cycle3(), walks.cycle_walk(4)),
        DimMismatch, "does not match the basis"),
    "hermitian_eig non-square": (
        lambda: linalg.hermitian_eig(np.zeros((2, 3))), NonHermitian, "not square"),
    "as_matrix vector": (lambda: linalg.as_matrix(np.zeros(3)), DimMismatch, "ndim=1"),
    "u_basis(0)": (lambda: liealg.u_basis(0), TooSmall, "c >= 1"),
    "Atom without steps": (
        lambda: limits.Atom(walks.cycle_walk(4), []), TooSmall, "at least one step"),
    "Concat across walks": (
        lambda: limits.Concat(limits.strauch_protocol(4), limits.strauch_protocol(5)),
        DimMismatch, "share the same walk"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_a_refusal_raises_its_named_error(name):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error, match=fragment):
        call()
