"""Helpers shared by the test modules."""

import numpy as np


def step_matrix(model, solution, rec):
    """The Gaussian error recursion as one matrix: [e'; err; K] = M [e; W; V; z]
    with Vc = sqrt(q) z, the formula the block-layout references step with."""
    _, k, p, _ = model.dims
    sq = np.sqrt(solution.q)
    shrink_E = np.diag(solution.eta - 1.0) @ solution.E_inf
    return np.block([
        [rec.A_tilde, rec.B1, -rec.B2, -rec.B3 @ np.diag(sq)],
        [shrink_E @ model.C, np.zeros((p, k)), shrink_E @ model.N, np.diag(solution.b_inf * sq)],
        [model.C, np.zeros((p, k)), model.N, np.zeros((p, p))],
    ])
