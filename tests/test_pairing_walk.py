"""One walk over a rule's blocks for every pairing (``bundles.pair_blocks``).

The references below are the per-routine block loops that the walker
replaced, kept as they were but for each form's ``dd^c`` weights, which
they take from the library as they take its block values (the weights are
held to the Hessian assembly in ``tests/test_bundles.py``): every potential
and density the walk still takes must reproduce them bit for bit.  Closed
parts (the reference class of a log-norm pairing, the smooth and divisor
parts of a closed-form wedge) left the walk for closed forms; they are
compared with the kept loops at the rules' own quadrature error.  The call
counts check that a form's block weights are taken once per rule, whatever
the number of walks over it.
"""

import math

import numpy as np
import pytest

from kahlerlab import fscurrents
from kahlerlab._kernels import eval_monomials
from kahlerlab.bundles import (LineBundle, Metric, _ddc_weights,
                               class_pairings, finite_potential,
                               form_values_hom, pair_omega_basis,
                               wedge_descriptors)
from kahlerlab.config import parse_config
from kahlerlab.experiments import run_study
from kahlerlab.fscurrents import (ReducedHessianField,
                                  descriptor_form_pairings,
                                  descriptor_wedge_pairings, fs_wedge_pairings,
                                  log_norm_pairings)
from kahlerlab.geometry import (Block, Manifold, build_manifold,
                                ddc_density, quadrature_nodes,
                                wedge_density_11)
from kahlerlab.polynomials import SectionPoly, coordinate_section
from kahlerlab.sections import build_section_space
from kahlerlab.testforms import TestForm, test_form_dictionary
from kahlerlab.zeros import (_seed_key, expected_zero_residuals,
                             potential_rule, sample_section)

# The rules' own error in a test form's mean (block sums of chi times the
# volume weights against ``TestForm.mean``): 2.1e-10 on P2 rules of at most
# 8 radial nodes, the reference-class integral ``omega^2`` there being
# 1 - 4.2e-11; below 1e-14 on the P1 and P1xP1 rules of these cases.
QUADRATURE_ERROR = {"P1": 1e-14, "P2": 2.5e-10, "P1xP1": 1e-14}

# -- the block loops the walker replaced ---------------------------------------


def _ref_form_omega_matrix(form, mats):
    acc = None
    for c, mat in zip(np.asarray(form.omega_part, dtype=float), mats):
        if c == 0.0:
            continue
        acc = c * mat if acc is None else acc + c * mat
    return np.zeros_like(mats[0]) if acc is None else acc


def _ref_omega_terms(form, block, mats):
    # the library's block values, so the batching is checked bit for bit
    chi = form.block_values(block)
    if block.manifold.dim == 1:
        return [float(np.dot(chi * np.real(mats[0][:, 0, 0]),
                             block.weights_lebesgue)) / math.pi]
    Bm = _ref_form_omega_matrix(form, mats)
    wq = block.weights_lebesgue / 4.0
    return [float(np.dot(chi * wedge_density_11(A, Bm), wq)) for A in mats]


def _ref_log_norm_pairings(space, C, forms, rule):
    """``(potential part, closed part)`` of the log-norm pairings, the
    closed part from the block loop's omega terms.  ``C`` holds section
    columns, or is ``None`` for the space's orthonormal family."""
    m = space.manifold
    family = C is None
    out = np.zeros((1 if family else C.shape[1], len(forms)))
    om = np.zeros((m.factors, len(forms)))
    for b in rule.capped_blocks():
        mats = [m.omega_basis_matrix(i, b.chart, b.points)
                for i in range(m.factors)]
        for j, f in enumerate(forms):
            om[:, j] += _ref_omega_terms(f, b, mats)
        del mats
        ws = [_ddc_weights(f, b) for f in forms]  # the library's weights
        M = space.monomial_values(b.chart, b.points)
        base = fscurrents._log_norm_base(space, b.chart, b.points)
        if family:
            A = np.abs(space.orthonormal(M))
            u = 0.5 * fscurrents._log_modulus(np.einsum("nj,nj->n", A, A))
            u = finite_potential(u + base, integrable=True)
            out[0] += [float(np.dot(u, w)) for w in ws]
            continue
        W = np.stack(ws, axis=1)
        if len(forms) == 1:
            W = np.repeat(W, 2, axis=1)
        step = max(1, fscurrents._LOG_NORM_CHUNK // M.shape[0])
        for lo in range(0, C.shape[1], step):
            U = fscurrents._log_modulus(M @ C[:, lo:lo + step]) + base[:, None]
            P = finite_potential(U, integrable=True).T @ W
            out[lo:lo + step] += P[:, :len(forms)]
    closed = np.zeros(len(forms))
    for i, d in enumerate(space.metric.bundle.degree):
        if d != 0:
            closed += d * om[i]
    const = space.p * closed
    if space.adjoint:
        for i, cdeg in enumerate(m.canonical_degree):
            const += cdeg * om[i]
    return out, const


def _closed_part(space, forms):
    """The closed part of ``log_norm_pairings``, in its order of terms."""
    m = space.manifold
    const = space.p * class_pairings(m, space.metric.bundle.degree, forms)
    if space.adjoint:
        const += class_pairings(m, m.canonical_degree, forms)
    return const


def _assert_log_norm_pairings(got, space, C, forms, rule):
    """``got`` is the reference's potential part plus the closed part bit
    for bit, and the closed part is the reference's to the rule's error."""
    pot, const_ref = _ref_log_norm_pairings(space, C, forms, rule)
    const = _closed_part(space, forms)
    np.testing.assert_array_equal(got, pot + const)
    # the closed class is p c1(L) + c1(K_X): its degrees scale the error
    scale = space.p * sum(space.metric.bundle.degree) + space.manifold.hom_len
    np.testing.assert_allclose(
        const, const_ref, rtol=0,
        atol=scale * QUADRATURE_ERROR[space.manifold.kind])


def _ref_pointwise_pairings(space, forms, rule):
    m = rule.manifold
    field = ReducedHessianField(space)
    totals = np.zeros(len(forms))
    # a torus-invariant family walks the rule's torus reduction
    walk = rule.torus_reduced() if space.torus_invariant else rule
    for b in walk.capped_blocks():
        H, bad = field(b.chart, b.points)
        if m.dim == 1:
            wq = fscurrents._drop_vanished(b, bad, b.weights_lebesgue,
                                           "reduced family")
            dens = np.real(H[:, 0, 0]) / math.pi
        else:
            wq = fscurrents._drop_vanished(b, bad, b.weights_lebesgue / 4.0,
                                           "reduced family")
            mats = [m.omega_basis_matrix(i, b.chart, b.points)
                    for i in range(m.factors)]
        for i, f in enumerate(forms):
            if m.dim == 2:
                dens = wedge_density_11(H, _ref_form_omega_matrix(f, mats))
            totals[i] += float(np.dot(b.form_values(f) * dens, wq))
    return totals


def _ref_line_values(comp, forms, block):
    return [f.restriction(comp[1]).block_values(block) for f in forms]


def _ref_divisor_omega_pairings(manifold, comp, omega_vecs, forms, surface):
    _, omega_index = manifold.coordinate_line(comp[1])
    coeffs = [float(np.asarray(v, dtype=float)[omega_index])
              for v in omega_vecs]
    live = [i for i, c in enumerate(coeffs) if c != 0.0]
    totals = np.zeros(len(forms))
    if not live:
        return totals
    for b in fscurrents._line_rule(0, surface).capped_blocks():
        chis = _ref_line_values(comp, [forms[i] for i in live], b)
        for i, chi in zip(live, chis):
            totals[i] += coeffs[i] * float(np.dot(chi, b.weights_volume))
    return totals


def _ref_restricted_pairings(space, comp, forms, surface):
    Rc, q_line = fscurrents._line_family(space, comp)
    exps = np.arange(q_line + 1)
    totals = np.zeros(len(forms))
    rule = fscurrents._line_rule(q_line, surface)
    # a torus-invariant family walks the line rule's torus reduction
    walk = rule.torus_reduced() if space.torus_invariant else rule
    for b in walk.capped_blocks():
        Z = b.points
        e = exps if b.chart == 0 else q_line - exps
        V = eval_monomials(Z, e[:, None].astype(np.int64),
                           np.ones(q_line + 1)) @ Rc
        dV = eval_monomials(Z, np.maximum(e - 1, 0)[:, None].astype(np.int64),
                            e.astype(float)) @ Rc
        H, bad = fscurrents._family_hessian((V, [dV]), space.p)
        wq = fscurrents._drop_vanished(b, bad, b.weights_lebesgue,
                                       "restricted family")
        dens = ddc_density(H)
        chis = _ref_line_values(comp, forms, b)
        for i, chi in enumerate(chis):
            totals[i] += float(np.dot(chi * dens, wq))
    return totals


def _ref_fs_wedge_pairings(space_a, space_b, forms, rule):
    m = space_a.manifold
    same = space_b is space_a
    toric = space_a.torus_invariant and space_b.torus_invariant
    field_a = ReducedHessianField(space_a)
    field_b = ReducedHessianField(space_b)
    totals = np.zeros(len(forms))
    # two torus-invariant families walk the rule's torus reduction
    for b in (rule.torus_reduced() if toric else rule).capped_blocks():
        Ha, bad = field_a(b.chart, b.points)
        if same:
            Hb = Ha
        else:
            Hb, bad_b = field_b(b.chart, b.points)
            bad = bad | bad_b
        dens = wedge_density_11(Ha, Hb)
        wq = fscurrents._drop_vanished(b, bad, b.weights_lebesgue / 4.0,
                                       "reduced families")
        for i, f in enumerate(forms):
            totals[i] += float(np.dot(b.form_values(f) * dens, wq))
    on_a = [_ref_restricted_pairings(space_b, comp, forms, rule)
            for comp, _ in space_a.base_divisors]
    on_b = on_a if same else [
        _ref_restricted_pairings(space_a, comp, forms, rule)
        for comp, _ in space_b.base_divisors]
    for (_, k), r in zip(space_a.base_divisors, on_a):
        totals += (k / space_a.p) * r
    for (_, k), r in zip(space_b.base_divisors, on_b):
        totals += (k / space_b.p) * r
    wedge = wedge_descriptors(fscurrents._family_class(space_a),
                              fscurrents._family_class(space_b))
    for pt, mass in wedge["points"]:
        for i, f in enumerate(forms):
            totals[i] += mass * float(form_values_hom(m, [f], pt[None])[0, 0])
    return totals


def _ref_descriptor_wedge_pairings(manifold, wedge, forms, rule):
    totals = np.zeros(len(forms))
    pairs = np.asarray(wedge["omega_pairs"], dtype=float)
    nf = manifold.factors
    live = [(i, j) for i in range(nf) for j in range(nf)
            if pairs[i, j] != 0.0]
    for b in rule.capped_blocks():
        mats = [manifold.omega_basis_matrix(i, b.chart, b.points)
                for i in range(nf)]
        dens = [(pairs[i, j], wedge_density_11(mats[i], mats[j]))
                for i, j in live]
        wq = b.weights_lebesgue / 4.0
        for fi, f in enumerate(forms):
            chi = b.form_values(f)
            for c, d in dens:
                totals[fi] += c * float(np.dot(chi * d, wq))
    for comp, vec in wedge["divisor_omega"]:
        totals += _ref_divisor_omega_pairings(manifold, comp,
                                              [vec] * len(forms), forms, rule)
    for pt, mass in wedge["points"]:
        for fi, f in enumerate(forms):
            totals[fi] += mass * float(
                form_values_hom(manifold, [f], pt[None, :])[0, 0])
    return totals


# -- cases ---------------------------------------------------------------------


def _case(kind):
    """(metric, p, quadrature resolution) of one pole case."""
    m = build_manifold(kind)
    if kind == "P1":
        # off-axis pole: the refinement center is not a coordinate point
        Q = SectionPoly.from_coeff_map(m, 1, {(1, 0): 1.0, (0, 1): 0.6 + 0.3j})
        return Metric.log_pole(LineBundle(m, 2), Q, 0.5), 8, 32
    if kind == "P2":
        return Metric.log_pole(LineBundle(m, 1), coordinate_section(m, 0),
                               0.5), 8, 8
    return Metric.log_pole(LineBundle(m, (1, 2)), coordinate_section(m, 0),
                           0.5), 6, 8


def _space_and_rule(kind):
    h, p, res = _case(kind)
    sp = build_section_space(h, p, resolution=16)
    return sp, quadrature_nodes(sp.manifold, res,
                                singular_refinement=h.refinement_centers())


def _omega_forms(m):
    """Forms with omega terms (all of them on P1), the first one constant,
    and a ``|z_1|^2``-type one that varies across the pole."""
    forms = test_form_dictionary(m, 1, 4)
    A = coordinate_section(m, 1)
    forms.append(TestForm(m, 1.0, A, A, None if m.dim == 1 else
                          m.omega_coeffs(), "t1"))
    return forms


KINDS = ["P1", "P2", "P1xP1"]


@pytest.mark.parametrize("kind", KINDS)
def test_log_norm_pairings_match_the_block_loop(kind):
    sp, rule = _space_and_rule(kind)
    forms = _omega_forms(sp.manifold)
    C = np.stack([sample_section(sp, (9, i)).coeffs for i in range(5)],
                 axis=1)
    got = log_norm_pairings(sp, forms, rule, sections=C, family=True)
    _assert_log_norm_pairings(got[:1], sp, None, forms, rule)
    _assert_log_norm_pairings(got[1:], sp, C, forms, rule)
    # one form goes through a two-column product, as it did
    _assert_log_norm_pairings(
        log_norm_pairings(sp, forms[-1:], rule, sections=C), sp, C,
        forms[-1:], rule)


@pytest.mark.parametrize("kind", KINDS)
def test_pointwise_pairings_match_the_block_loop(kind):
    sp, rule = _space_and_rule(kind)
    forms = _omega_forms(sp.manifold)
    np.testing.assert_array_equal(
        fscurrents._pointwise_pairings(sp, forms, rule),
        _ref_pointwise_pairings(sp, forms, rule))


@pytest.mark.parametrize("kind", ["P2", "P1xP1"])
def test_wedge_pairings_match_the_block_loops(kind):
    sp, rule = _space_and_rule(kind)
    assert sp.base_divisors
    m = sp.manifold
    forms = test_form_dictionary(m, 2, 4)
    np.testing.assert_array_equal(fs_wedge_pairings(sp, sp, forms, rule),
                                  _ref_fs_wedge_pairings(sp, sp, forms, rule))
    desc = sp.metric.curvature_descriptor()
    wedge = wedge_descriptors(desc, desc)
    assert wedge["divisor_omega"]
    np.testing.assert_allclose(
        descriptor_wedge_pairings(m, wedge, forms),
        _ref_descriptor_wedge_pairings(m, wedge, forms, rule), rtol=0,
        atol=QUADRATURE_ERROR[kind])


def test_expected_zero_residuals_match_the_two_walks():
    sp, rule = _space_and_rule("P2")
    forms = _omega_forms(sp.manifold)
    got = expected_zero_residuals(sp, forms, 100, (13,), rule)
    # two separate walks, fs_pairings then zero_pairings, each plus the
    # closed part
    const = _closed_part(sp, forms)
    pot = _ref_log_norm_pairings(sp, None, forms, rule)[0]
    targets = sp.p * ((pot + const)[0] / sp.p)
    key = _seed_key((13,))
    C = np.stack([sample_section(sp, key + (i,)).coeffs
                  for i in range(100)], axis=1)
    vals = _ref_log_norm_pairings(sp, C, forms, rule)[0] + const
    means = np.array([col.mean() for col in vals.T])
    ses = np.array([col.std(ddof=1) for col in vals.T]) / math.sqrt(100)
    for a, b in zip(got, (targets, means, np.abs(means - targets), ses)):
        np.testing.assert_array_equal(a, b)


# -- per-form weights are taken once per rule ----------------------------------


def _count_calls(monkeypatch):
    calls = {"hessian": {}, "block_laplacian": {}, "omega_basis_matrix": 0}

    def per_form(name):
        method = getattr(TestForm, name)

        def counted(self, *args):
            calls[name][self.label] = calls[name].get(self.label, 0) + 1
            return method(self, *args)

        monkeypatch.setattr(TestForm, name, counted)

    per_form("hessian")
    per_form("block_laplacian")
    basis = Manifold.omega_basis_matrix

    def counted_basis(self, *args):
        calls["omega_basis_matrix"] += 1
        return basis(self, *args)

    monkeypatch.setattr(Manifold, "omega_basis_matrix", counted_basis)
    return calls


def test_expected_zero_residuals_take_one_walk(monkeypatch):
    p2 = build_manifold("P2")
    sp = build_section_space(Metric.fubini_study(LineBundle(p2, 1)), 4)
    rule = potential_rule(sp.metric)
    assert rule.resolution == 8 and len(rule.capped_blocks()) == 3
    forms = test_form_dictionary(p2, 1, 2)
    assert forms[0].constant and not forms[1].constant
    calls = _count_calls(monkeypatch)
    expected_zero_residuals(sp, forms, 100, (3,), rule)
    # one set of weights per block of the non-constant form (the two walks
    # took 6), from the blocks' axes: no Hessian and no basis matrix
    assert calls["block_laplacian"] == {forms[1].label: 3}
    assert calls["hessian"] == {}
    assert calls["omega_basis_matrix"] == 0


def test_closed_form_pairings_build_no_node(monkeypatch):
    # closed classes pair from the forms' exact means: no block builds its
    # nodes and no omega basis matrix is taken
    built = []
    build = Block._build

    def counted_build(self):
        built.append(self.manifold.kind)
        return build(self)

    monkeypatch.setattr(Block, "_build", counted_build)
    calls = _count_calls(monkeypatch)
    for kind in KINDS:
        h, _, _ = _case(kind)
        m = h.manifold
        desc = h.curvature_descriptor()
        forms = _omega_forms(m)
        assert desc.divisors
        descriptor_form_pairings(desc, forms)
        pair_omega_basis(0, forms[-1])
        if m.dim == 2:
            other = Metric.log_pole(h.bundle, coordinate_section(m, 2), 0.5)
            for wedge in (wedge_descriptors(desc, desc), wedge_descriptors(
                    desc, other.curvature_descriptor())):
                descriptor_wedge_pairings(m, wedge,
                                          test_form_dictionary(m, 2, 4))
    assert built == []
    assert calls["omega_basis_matrix"] == 0


def test_fs_convergence_takes_form_weights_once_per_rule(monkeypatch,
                                                         tmp_path):
    counts = []
    for p_grid in ([4], [4, 6, 8]):
        calls = _count_calls(monkeypatch)
        doc = {"study": "fs-convergence", "manifold": "P1",
               "metrics": [{"h": {"kind": "fs"}}],
               "p_grid": p_grid, "dict_count": 4, "seed": [0],
               "cache": str(tmp_path / f"cache{len(p_grid)}")}
        run_study(parse_config(doc))
        assert calls["block_laplacian"]
        assert calls["hessian"] == {} and calls["omega_basis_matrix"] == 0
        counts.append(calls)
        monkeypatch.undo()
    assert counts[1] == counts[0]
