"""The registry's sensitivity: each mutation of a kernel must fail `run_all`.

Each mutation is a monkeypatch of one kernel, with no source edit, and
`run_all` runs the whole registry at hbar in {1e-3, 1, 100}.  The test
asserts which checks, and which families within them, catch it; the
unmutated registry is the control and fails nothing.

Asserted:
  * eta_sign:  a wrong sign in the first mode's eta of the dho builders
    (L_n(-eta) in place of L_n(eta) for F and G).
  * dho_sign:  the dho builders drop their (-1)^(n+m).
  * laguerre_top:  L_n loses its top coefficient for n >= 1, in every
    family; the W and toy `ladder_closed` entries, which build their
    members by star products, catch it too.
  * swapped_pair:  the resonant-pair transform exchanges psi1 and psi2.
    Every `pair_transform_match` case but the symmetric Gaussian pair
    catches it.

Open (no registry entry catches them yet):
  * the dropped (-1)^(n+m) of G alone: G is not integrable, and its
    eigen-equations, stationarity and conjugation pairing are all linear,
    so nothing fixes its overall sign.  The dho `ladder_closed` entries of
    ROADMAP item 9 would catch it.
"""

import pytest

from mqds import models, verify
from mqds.verify import run_all

HBARS = (1e-3, 1.0, 100.0)


def eta_sign(build):
    def mutated(space, A, norm, modes):
        if space.n_dof == 2:
            (n, eta), *rest = modes
            modes = [(n, eta.scaled(-1.0)), *rest]
        return build(space, A, norm, modes)
    return mutated


def dho_sign(build):
    def mutated(space, A, norm, modes):
        out = build(space, A, norm, modes)
        return out.scaled((-1.0) ** sum(n for n, _ in modes)) if space.n_dof == 2 else out
    return mutated


def laguerre_top(coeffs):
    def mutated(n):
        out = coeffs(n)
        return out[:-1] + [0.0] if n >= 1 else out
    return mutated


def swapped_pair(transform):
    def mutated(psi1, psi2, space):
        return transform(psi2, psi1, space)
    return mutated


# mutation -> (the patched module and function, its wrapper, the (check, family)
# pairs that fail); a family's ladder_closed entries count as "<family> ladder".
# `verify` binds wigner_pair_transform at import, so that mutation patches it there.
MUTATIONS = {
    "eta_sign": (models, "_laguerre_member", eta_sign, {
        ("eigen_residual", "F_dho"), ("eigen_residual", "G_dho"), ("star_orthogonality", "F_dho+"),
        ("marginal_delta", "F_dho"), ("normalization", "F_dho")}),
    "dho_sign": (models, "_laguerre_member", dho_sign, {
        ("star_orthogonality", "F_dho+"), ("marginal_delta", "F_dho"), ("normalization", "F_dho")}),
    "laguerre_top": (models, "laguerre_coeffs", laguerre_top, {
        ("eigen_residual", "W"), ("eigen_residual", "W ladder"), ("eigen_residual", "F_toy"),
        ("eigen_residual", "F_toy ladder"), ("eigen_residual", "F_dho"), ("eigen_residual", "G_dho"),
        ("star_orthogonality", "W"), ("star_orthogonality", "F_toy+"),
        ("star_orthogonality", "F_toy-"), ("star_orthogonality", "F_dho+"),
        ("marginal_delta", "F_toy"), ("marginal_delta", "F_dho"),
        ("normalization", "W"), ("normalization", "F_toy"), ("normalization", "F_dho"),
        ("identity_resolution", "W"), ("identity_resolution", "F_toy"),
        ("pair_transform_match", None)}),
    "swapped_pair": (verify, "wigner_pair_transform", swapped_pair, {("pair_transform_match", None)}),
}


def caught_by(entry):
    family = entry.params.get("family")
    if entry.params.get("identity") == "ladder_closed":
        family += " ladder"
    return entry.name, family


def failures(hbar):
    return {caught_by(e) for e in run_all(hbar=hbar).entries if not e.passed}


@pytest.mark.parametrize("hbar", HBARS)
def test_unmutated_registry_passes(hbar):
    assert failures(hbar) == set()


@pytest.mark.parametrize("hbar", HBARS)
@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutation_is_caught(name, hbar, monkeypatch):
    module, target, mutate, caught = MUTATIONS[name]
    monkeypatch.setattr(module, target, mutate(getattr(module, target)))
    assert failures(hbar) == caught
