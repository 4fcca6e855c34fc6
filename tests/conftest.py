"""Helpers shared by the test modules."""

import numpy as np


def step_matrix(model, solution):
    """The Gaussian error recursion as one matrix, from the model and the
    realization alone: [e'; err; K] = M [e; W; V; z] with Vc = sqrt(q) z.

    The decoder's estimate of the decorrelated innovation E K is
    b_inf (a_inf E K + Vc), with a_inf b_inf = eta, and the filter feeds it
    back through the gain G, so

        e'  = (A - G Ebar C) e + B W - G Ebar N V - G E' diag(b_inf) sqrt(q) z
        err = (eta - 1) E (C e + N V) + b_inf sqrt(q) z
        K   = C e + N V

    with Ebar = E' diag(eta) E.  The products are taken in the order the
    block-layout references need to step bit for bit like the library."""
    A, B, C, N = model.A, model.B, model.C, model.N
    _, k, p, _ = model.dims
    E, eta, G, b = solution.E_inf, solution.eta, solution.gain, solution.b_inf
    Ebar = E.T @ (eta[:, None] * E)
    sq = np.sqrt(solution.q)
    shrink_E = np.diag(eta - 1.0) @ E
    return np.block([
        [A - G @ Ebar @ C, B, -(G @ Ebar @ N), -(G @ E.T @ np.diag(b)) @ np.diag(sq)],
        [shrink_E @ C, np.zeros((p, k)), shrink_E @ N, np.diag(b * sq)],
        [C, np.zeros((p, k)), N, np.zeros((p, p))],
    ])
