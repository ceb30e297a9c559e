"""Import hygiene: every name a package module imports is used in that
module, importing the package loads no scipy, running a study loads no
``numpy.ma``, every function the benchmark's tracer patches exists and
every Gram method has its tracer counter, no pairing walks a rule's blocks
outside ``bundles.pair_blocks``, the closed-form pairings reach no walk at
all and only the walk takes omega basis matrices, no module but
``geometry`` compares with a manifold kind, splits points by chart or takes
a wedge density, no module but ``testforms`` evaluates a form's ``chi`` at
points, no module but ``sections`` (and ``cache``, which stores it) reads a
space's orthonormal frame, no module but ``geometry`` builds a quadrature
rule, block or axis, and every library function has a caller outside the
tests.

No linter ships with the package, so the first check is the unused-import
check: each module of ``src/kahlerlab`` is parsed with ``ast`` and the names
its imports bind are compared with the names its code reads.  ``__init__.py``
re-exports by importing, so it is exempt, as is any import line marked
``# noqa: F401`` (a name kept importable from a module on purpose).
A name listed in ``__all__`` counts as used.
"""

import ast
import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kahlerlab"
TRACER = PACKAGE.parent.parent / "benchmarks" / "tracer.py"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")


def _imported_names(tree, lines):
    """(name, line) of each binding made by an import statement."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa: F401" in line for line in span):
            continue
        out += [(name, node.lineno) for name in names]
    return out


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return used


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = _used_names(tree)
    unused = [f"{name} (line {line})"
              for name, line in _imported_names(tree, source.splitlines())
              if name not in used]
    assert not unused, f"{module} imports unused names: {unused}"


def test_package_imports_without_scipy():
    # scipy is a test-only dependency: the runtime must not load it
    code = ("import sys, kahlerlab, kahlerlab.experiments\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_studies_run_without_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on first use, 13-15 ms of every fresh
    # process; these two smoke-size studies reach both chart loops that
    # once called it (form_values_hom and the surface Newton polish)
    docs = [
        {"study": "equidistribution", "manifold": "P1", "degree": 2,
         "metrics": [{"h": {"kind": "log_pole", "t": 0.5, "Q": {
             "degree": 1,
             "terms": [[[1, 0], 1.0, 0.0], [[0, 1], 0.6, 0.3]]}}}],
         "p_grid": [4, 6], "samples": 3},
        {"study": "approximation", "manifold": "P2",
         "metrics": [{"h": {"kind": "log_pole", "t": 0.25,
                            "Q": {"coord": c}}} for c in (0, 1)],
         "eps_list": [0.5], "p_grid": [4], "samples": 1, "dict_count": 2},
    ]
    code = ("import json, sys\n"
            "from kahlerlab.config import parse_config\n"
            "from kahlerlab.experiments import emit_report, run_study\n"
            "for i, doc in enumerate(json.loads(sys.argv[1])):\n"
            "    doc.update(seed=[0], cache=sys.argv[2] + f'/cache{i}')\n"
            "    emit_report(run_study(parse_config(doc)), sys.argv[2])\n"
            "print('numpy.ma' in sys.modules)\n")
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(docs),
                          str(tmp_path)], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert out.stdout.strip() == "False"


def _tracer_literal(name):
    """The literal ``name`` of the benchmark's tracer, read from its
    source."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"tracer.py defines no {name}")


def _tracer_spans():
    """``SPANS`` of the benchmark's tracer."""
    return _tracer_literal("SPANS")


def test_every_traced_function_resolves():
    # the tracer patches these by name; a rename would break --trace runs
    missing = []
    for name, module, path in _tracer_spans():
        target = importlib.import_module(f"kahlerlab.{module}")
        for attr in path.split("."):
            target = getattr(target, attr, None)
        if not callable(target):
            missing.append(f"{name}: kahlerlab.{module}.{path}")
    assert not missing, f"tracer targets not found: {missing}"


def test_every_gram_method_has_its_tracer_counter():
    # a traced gram adds into sections.gram.<gram_method>, a fixed key of
    # the tracer's COUNTERS: any other method name raises in a --trace run
    from kahlerlab.bundles import LineBundle, Metric
    from kahlerlab.geometry import build_manifold
    from kahlerlab.polynomials import SectionPoly, coordinate_section
    from kahlerlab.sections import build_section_space

    counters = _tracer_literal("COUNTERS")
    P1 = build_manifold("P1")
    poly = functools.partial(SectionPoly.from_coeff_map, P1)
    Q1, Q2 = poly(2, {(2, 0): 1.0, (0, 2): -0.5}), poly(2, {(1, 1): 1.0})
    branches = {
        "toric": (Metric.log_pole(LineBundle(P1, 1),
                                  coordinate_section(P1, 0), 0.3), 6),
        "smoothed max": (Metric.smoothed_max(LineBundle(P1, 1), Q1, Q2,
                                             0.7, 0.6), 6),
        "linear pole": (Metric.log_pole(LineBundle(P1, 2), poly(
            1, {(1, 0): 1.0, (0, 1): 0.6 + 0.3j}), 0.5), 5),
        "degree-2 pole": (Metric.log_pole(LineBundle(P1, 3), Q1, 0.5), 5),
    }
    methods = {}
    for branch, (h, p) in branches.items():
        methods[branch] = build_section_space(h, p).gram_method
        assert f"sections.gram.{methods[branch]}" in counters, branch
    assert methods == {"toric": "diagonal", "smoothed max": "modes",
                       "linear pole": "nodes", "degree-2 pole": "nodes"}


# The functions that may walk a rule's capped blocks: the one pairing walker
# and geometry's own integration helper.
BLOCK_WALKERS = {"bundles.pair_blocks", "geometry.integrate"}


def _capped_block_users(node, scope):
    """Qualified names of the functions under ``node`` that reach
    ``.capped_blocks``, ``scope`` naming ``node`` itself."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            found |= _capped_block_users(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Attribute) and child.attr == "capped_blocks":
            found.add(scope)
        found |= _capped_block_users(child, scope)
    return found


def test_pairings_walk_blocks_only_through_pair_blocks():
    users = set()
    for module in MODULES:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        users |= _capped_block_users(tree, module[:-len(".py")])
    assert "bundles.pair_blocks" in users
    assert users <= BLOCK_WALKERS, (
        f"walks over capped_blocks() outside pair_blocks: "
        f"{sorted(users - BLOCK_WALKERS)}")


def _package_functions():
    """Every function and method of the package by qualified name, and the
    qualified names behind each bare name; a class name stands for its
    ``__init__``."""
    funcs, by_name = {}, {}

    def collect(tree, scope):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                funcs[f"{scope}.{node.name}"] = node
                by_name.setdefault(node.name, set()).add(
                    f"{scope}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                collect(node, f"{scope}.{node.name}")
                by_name.setdefault(node.name, set()).add(
                    f"{scope}.{node.name}.__init__")

    for module in MODULES:
        collect(ast.parse((PACKAGE / module).read_text(encoding="utf-8")),
                module[:-len(".py")])
    return funcs, by_name


def _reachable(roots):
    """The package functions that ``roots`` may call, themselves included.

    A name a function reads, bare or as an attribute, counts as a call of
    every package function of that name: an over-approximation, so a walk
    that is not reached is certainly not called.
    """
    funcs, by_name = _package_functions()
    seen, todo = set(), list(roots)
    while todo:
        q = todo.pop()
        if q in seen or q not in funcs:
            continue
        seen.add(q)
        for name in _read_names(funcs[q]):
            todo += by_name.get(name, ())
    return {q: funcs[q] for q in seen}


# Pairings of closed classes: intersection numbers times exact means, with
# no quadrature rule.
CLOSED_FORM_PAIRINGS = [
    "fscurrents.descriptor_form_pairings",
    "fscurrents.descriptor_wedge_pairings",
    "fscurrents._divisor_pairings",
    "bundles.pair_omega_basis",
]


def test_closed_form_pairings_reach_no_block_walk():
    reached = _reachable(CLOSED_FORM_PAIRINGS)
    assert set(CLOSED_FORM_PAIRINGS) <= set(reached)
    assert "testforms.TestForm.mean" in reached
    walkers = sorted(q for q, node in reached.items()
                     if q == "bundles.pair_blocks"
                     or _capped_block_users(node, q))
    assert not walkers, f"closed-form pairings reach block walks: {walkers}"


def _omega_basis_calls(node, scope, target=None):
    """``(scope, target)`` of each ``omega_basis_matrix`` call under
    ``node``: the function it sits in and the names its statement assigns."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            found += _omega_basis_calls(child, f"{scope}.{child.name}")
            continue
        inner = target
        if isinstance(child, ast.Assign):
            inner = tuple(n.id for t in child.targets for n in ast.walk(t)
                          if isinstance(n, ast.Name))
        if (isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "omega_basis_matrix"):
            found.append((scope, target))
        found += _omega_basis_calls(child, scope, inner)
    return found


def test_only_the_walk_takes_omega_basis_matrices():
    # a basis matrix is an (N, n, n) complex array per block: only a
    # Hessian meeting omega needs one, through pair_blocks' ``mats``
    calls = [c for module in MODULES
             for c in _omega_basis_calls(ast.parse(
                 (PACKAGE / module).read_text(encoding="utf-8")),
                 module[:-len(".py")])]
    assert calls == [("bundles.pair_blocks", ("mats",))]


KIND_LITERALS = {"P1", "P2", "P1xP1"}


def _kind_comparisons(tree):
    """Line numbers of comparisons with a manifold kind literal, alone or
    inside a tuple, list or set literal (``kind in ("P1", "P2")``)."""
    def literals(node):
        if isinstance(node, ast.Constant):
            return {node.value} if isinstance(node.value, str) else set()
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return set().union(*map(literals, node.elts))
        return set()

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(literals(side) & KIND_LITERALS
                    for side in [node.left] + node.comparators)]


def test_only_geometry_compares_with_manifold_kinds():
    # geometry describes each model manifold once, by its projective
    # factors; every other module reads those factors, not the kind
    found = [f"{module}:{line}" for module in MODULES
             if module != "geometry.py"
             for line in _kind_comparisons(ast.parse(
                 (PACKAGE / module).read_text(encoding="utf-8")))]
    assert not found, f"comparisons with a manifold kind: {found}"
    assert _kind_comparisons(ast.parse('m.kind in ("P1", "P2")')) == [1]


def _method_calls(tree, name):
    """Line numbers of calls of a method ``name``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name]


def test_only_geometry_splits_points_by_chart():
    # Manifold.chart_split is the one chart split of homogeneous points;
    # every other module takes each chart's mask and affine points from it
    found = [f"{module}:{line}" for module in MODULES
             if module != "geometry.py"
             for line in _method_calls(ast.parse(
                 (PACKAGE / module).read_text(encoding="utf-8")), "chart_of")]
    assert not found, f"chart_of calls outside geometry: {found}"
    assert _method_calls(ast.parse("m.chart_of(pts)"), "chart_of") == [1]


def test_only_testforms_evaluates_forms_at_points():
    # testforms.form_chis evaluates any forms at chart points as one
    # stack; every other module calls it, not a form's own chi
    found = [f"{module}:{line}" for module in MODULES
             if module != "testforms.py"
             for line in _method_calls(ast.parse(
                 (PACKAGE / module).read_text(encoding="utf-8")), "chi")]
    assert not found, f"form.chi calls outside testforms: {found}"
    assert _method_calls(ast.parse("f.chi(chart, Z)"), "chi") == [1]


def _name_reads(tree, name):
    """Line numbers of reads of ``name``, bare or as an attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name]


def test_only_geometry_takes_wedge_densities():
    # geometry.ddc_density is the one density of a wedge of (1,1)-forms
    # against Lebesgue weights; no other module scales a wedge density
    found = [f"{module}:{line}" for module in MODULES
             if module != "geometry.py"
             for line in _name_reads(ast.parse(
                 (PACKAGE / module).read_text(encoding="utf-8")),
                 "wedge_density_11")]
    assert not found, f"wedge_density_11 outside geometry: {found}"
    assert _name_reads(ast.parse("d = geometry.wedge_density_11(A, B) / 4"),
                       "wedge_density_11") == [1]


def test_only_sections_applies_the_orthonormal_frame():
    # a frame is a scale vector or a matrix, as its Gram method gives;
    # SectionSpace.orthonormal applies either, so no other module reads
    # coeff_matrix() but the cache, which stores the frame as it is
    found = [f"{module}:{line}" for module in MODULES
             if module not in ("sections.py", "cache.py")
             for line in _method_calls(ast.parse(
                 (PACKAGE / module).read_text(encoding="utf-8")),
                 "coeff_matrix")]
    assert not found, f"coeff_matrix calls outside sections: {found}"
    assert _method_calls(ast.parse("R @ sp.coeff_matrix()"),
                         "coeff_matrix") == [1]


RULE_CLASSES = {"Axis", "Block", "QuadratureRule"}


def _constructions(tree, names):
    """Line numbers of calls of a name in ``names``, bare or as the
    attribute of a module (``geometry.Block(...)``)."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) in names
                 or getattr(node.func, "attr", None) in names)]


def test_only_geometry_builds_quadrature_rules():
    # geometry builds every rule, its blocks and its torus reduction
    # (QuadratureRule.torus_reduced), so the reduction lives in one module
    found = [f"{module}:{line}" for module in MODULES
             if module != "geometry.py"
             for line in _constructions(ast.parse(
                 (PACKAGE / module).read_text(encoding="utf-8")),
                 RULE_CLASSES)]
    assert not found, f"rules, blocks or axes built outside geometry: {found}"
    assert _constructions(ast.parse("geometry.Block(m, 0, axes)\n"
                                    "Axis('p1', x, w, t, wt, True)"),
                          RULE_CLASSES) == [1, 2]


# Entry points read from outside the package: the study driver and report
# writer (the benchmark runs them), the config file loader (for a command
# line) and the backend name (the benchmark worker records it).
ENTRY_POINTS = {
    "experiments.run_study",
    "experiments.emit_report",
    "config.load_config",
    "_kernels.active_backend",
}


def _definitions(tree, scope):
    """Qualified names of the functions and methods defined under ``tree``
    (module level and directly in classes), dunders aside."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                out.append(f"{scope}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            out += _definitions(node, f"{scope}.{node.name}")
    return out


def _read_names(tree):
    """Every name the code reads, bare (``f``) or as an attribute
    (``x.f``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            out.add(node.attr)
    return out


def _exports():
    """Qualified names ``module.name`` that ``__init__.py`` re-exports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {f"{node.module}.{a.name}" for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names}


def test_every_library_function_has_a_caller():
    # code that only the tests reach belongs in the tests
    defined, read = [], set()
    for module in MODULES:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        defined += _definitions(tree, module[:-len(".py")])
        read |= _read_names(tree)
    spans = {f"{module}.{path}" for _, module, path in _tracer_spans()}
    allowed = _exports() | spans | ENTRY_POINTS
    orphans = [q for q in defined
               if q.rsplit(".", 1)[1] not in read and q not in allowed]
    assert not orphans, f"functions nothing in the package calls: {orphans}"
