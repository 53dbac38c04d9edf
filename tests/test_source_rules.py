"""Source rules of the package, checked on its syntax trees.

- No ``assert`` statements: ``python -O`` strips them, so an invariant that
  guards a result must raise a typed error instead.
- No runtime dependencies: every absolute import names a standard-library
  module; the package's own modules are imported relatively.
- Only ``series.py`` calls ``compose`` or ``invert_parameter``: they are the
  reference the faster kernels are tested against, not a code path.
- Helpers that only tests use live in ``tests/oracles.py``: no module of the
  package defines ``semigroup_elements``, ``proximity_matrix`` or
  ``invert_unit``.
- One type per stage field: no module defines the retired record
  ``FieldSpec``, its constructors or the string dispatch helpers over it,
  and none compares anything to a field-kind string (``"shear"``,
  ``"multiplicative"``, ``"graph-match"``); each stage class carries its
  own closed-form flow, containment test, time-1 map and stage-line text.
- No stage flow is integrated: no module defines the RK4 fallback
  (``_rk4``, ``_rk4_steps``, ``MAX_RK4_STEPS``), the smooth cut-off
  ``bump_value`` or a ``speed`` method (the glued-field RK4 lives on in
  ``tests/oracles.py`` as the reference the closed forms are checked against).
- Each run setting is validated by the library function that uses it: no
  module defines ``Config``, the command line's copy of the settings, their
  defaults and a second set of range checks.
- The distance check is Gauss-Newton from the fibre of x = t^n: no module
  defines ``_golden_min``, the golden-section search of the grid scan it
  replaced (the scan lives on in ``tests/oracles.py`` as a reference).
- One dense integer product: ``series.int_poly_mul`` is the only function
  with the convolution step ``out[i + j] += ...``; ``implicitize``,
  ``in_terms_of`` and ``TruncatedSeries.mul`` all call it, so no module
  keeps a second copy.
- One long division: ``series._quotient`` is the only function with the
  recurrence step ``r -= ... * num[k - j]``; ``TruncatedSeries.divide``,
  ``in_terms_of`` and the blowup's chart step ``resolution.apply_step`` all
  call it, so the chart step divides and translates in one integer pass, and
  the graph series divides once, for the unit t/base, and then deflates
  through it by ``int_poly_mul`` products.
- One exact representation: ``TruncatedSeries`` has exactly the fields
  ``num``, ``den`` and ``precision`` (integer numerators over one
  denominator), and no module defines the retired conversions
  ``_integer_coefficients`` and ``_clean``.  The exact kernels build no
  ``Fraction`` at all: ``TruncatedSeries.mul``, ``add``, ``divide`` and
  ``in_terms_of``, the quotient kernel ``series._quotient``, the chart step
  ``resolution.apply_step``, the Newton-Puiseux loop ``puiseux.newton_puiseux``
  with its steps ``_edge_root``, ``_branch_edges`` and ``_transform``, the
  residual ``bivar.poly_on_branch`` and the parser's tokenizer and term loop
  (``branch._tokenize``, ``_parse_terms``) hold no true division ``/`` and no
  ``Fraction(...)`` call.  ``bivar.implicitize`` and
  ``branch.normalize_branch`` read no ``.terms``, the ``Fraction`` view of a
  series, but its numerators.
- One exact polynomial representation: ``BivarPoly`` has exactly the fields
  ``num`` and ``den`` (integer numerators of its terms over one
  denominator).  ``implicit_distance``, ``normalized``, ``poly_on_branch``,
  ``poly_to_text``, ``parse_poly`` and ``newton_puiseux`` read no
  ``.terms``, the ``Fraction`` view of a polynomial, and neither
  ``branch.py`` nor ``puiseux.py`` names ``Fraction``: the parser reads each
  coefficient as an integer numerator and denominator, and Newton-Puiseux
  keeps each exponent, root and coefficient in integers.
- One resolution function, no repeated resolutions: ``resolution.resolve``
  reads a branch only as deep as its blowups need, and only
  ``resolution.py`` calls the single-attempt blowup walk ``_walk``.
  ``invariants.py`` calls ``resolve`` only in ``equisingular``, once per
  branch, and ``isotopy.py`` calls it nowhere: ``build_plan`` asks
  ``equisingular`` for the verdict and walks the target's blowups itself,
  applying each to both branches; no module defines the retired
  ``resolve_graph``, nor ``_is_terminal`` or ``_blowup_step``, the twins of
  ``is_terminal`` and ``blowup_step`` that took a state's orders read
  beforehand.
- The implicit cross-check is exact: ``BivarPoly`` defines no float
  ``eval`` or ``grad`` (their float forms live in ``tests/oracles.py``), only
  ``implicit_distance``, which evaluates in integers and rounds once.
- Newton-Puiseux builds no polynomial object per step: ``newton_puiseux``
  and ``_transform`` make no ``BivarPoly(...)`` or ``BivarPoly.from_terms``
  call, so the loop works on one term dict; and ``poly_on_branch`` defines
  no nested function, so the residual is one Horner loop in y with no
  recursive power cache.
- Precision only where it changes a result: ``equisingular`` takes exactly
  ``(a, b)``; neither ``invariants.py`` nor ``scripts/run_corpus.py`` names
  ``DEFAULT_PRECISION`` or calls ``with_precision`` (``resolve`` reads an
  exact branch to whatever order it needs); and in ``cli.py`` only
  ``cmd_isotopy`` reads ``args.precision``, since only the plan's series
  order depends on it.
- The isotopy plan states each fact once: ``PlanStage`` has the one field
  ``field`` (a stage acts in the chart its level names), a graph match
  keeps the one series its flow reads, ``gap``, and only
  ``build_plan`` calls ``find_parameter_radius``, so ``verify_isotopy``
  samples the plan's own window; ``FlowReport`` keeps no ``tol``, and
  ``build_plan`` calls no ``labels()``, since two states blown up in the
  same charts have the same divisor labels by construction.
- One way for a sample to stop: ``lift_point`` returns None for a lift it
  refuses, as ``integrate_flow`` does for a trajectory that may leave the
  ball, and ``apply_plan`` holds no ``try`` and no ``continue``, so either
  stops the sample instead of skipping the stage.  No module defines the
  retired ``LiftError``, or ``BumpSpec``, whose outer radius nothing read: a
  stage's ``bump`` is the one radius its containment test reads.
- The float kernels evaluate at a real argument: ``find_parameter_radius``
  and ``distance_to_branch`` call neither ``eval_branch`` nor
  ``complex(...)``, so their samples go through ``eval_real``, at every
  exponent: ``eval`` takes each power by binary powering, so at a real t it
  is real and ``eval_real`` is its real part.  No module defines the retired
  ``real_on_reals``, ``_real_horner`` or ``_real_trace``, the flag, the
  second Horner form and the complex fork they kept for powers above 100.
"""
import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "germflow").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _function(path, name):
    return next(node for node in ast.walk(_tree(path))
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_standard_library(path):
    names = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.module, node.lineno))
    outside = [(name, line) for name, line in names
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == [], f"{path.name}: non-stdlib imports {outside}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "series.py"],
                         ids=lambda p: p.name)
def test_reference_series_kernels_stay_in_series(path):
    calls = [(node.func.attr, node.lineno) for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("compose", "invert_parameter")]
    assert calls == [], f"{path.name}: reference kernel calls {calls}"


TEST_ONLY_HELPERS = ("semigroup_elements", "proximity_matrix", "invert_unit")
RETIRED_NAMES = ("FieldSpec", "multiplicative_field", "graph_match_field", "_raw_field",
                 "_speed", "_update_moving_state", "_slope_after_shear", "_golden_min",
                 "Config", "_rk4", "_rk4_steps", "MAX_RK4_STEPS", "bump_value",
                 "resolve_graph", "_integer_coefficients", "_clean", "LiftError",
                 "BumpSpec", "real_on_reals", "_real_horner", "_real_trace")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_test_only_helpers_are_not_defined_in_the_package(path):
    defs = [(node.name, node.lineno) for node in ast.walk(_tree(path))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in TEST_ONLY_HELPERS]
    assert defs == [], f"{path.name}: test-only helpers defined {defs}"


def _defined_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_retired_field_names_are_not_defined(path):
    defs = [(name, line) for name, line in _defined_names(_tree(path))
            if name in RETIRED_NAMES]
    assert defs == [], f"{path.name}: retired names defined {defs}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_class_defines_a_speed_method(path):
    defs = [(cls.name, node.lineno) for cls in ast.walk(_tree(path))
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "speed"]
    assert defs == [], f"{path.name}: speed methods {defs}"


FIELD_KINDS = ("shear", "multiplicative", "graph-match")


def _compared_constants(tree):
    """Constants on either side of a comparison (also inside a literal
    tuple, list or set) and the values of ``case`` patterns."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in [node.left, *node.comparators]:
                elts = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) \
                    else [operand]
                yield from ((node.lineno, e.value) for e in elts if isinstance(e, ast.Constant))
        elif isinstance(node, ast.MatchValue) and isinstance(node.value, ast.Constant):
            yield node.value.lineno, node.value.value


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_comparison_against_a_field_kind_string(path):
    hits = [(line, value) for line, value in _compared_constants(_tree(path))
            if isinstance(value, str) and value in FIELD_KINDS]
    assert hits == [], f"{path.name}: field-kind string comparisons {hits}"


def test_bivar_poly_has_no_float_evaluation():
    path = next(p for p in SOURCES if p.name == "bivar.py")
    cls = next(node for node in ast.walk(_tree(path))
               if isinstance(node, ast.ClassDef) and node.name == "BivarPoly")
    methods = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    assert "implicit_distance" in methods
    assert methods & {"eval", "grad"} == set()


def _convolution_owners(tree):
    """Names of the functions with a step ``x[i + j] += ...``, the inner step
    of a dense polynomial product."""
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript) \
                        and isinstance(node.target.slice, ast.BinOp) \
                        and isinstance(node.target.slice.op, ast.Add):
                    yield func.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_dense_integer_product(path):
    owners = set(_convolution_owners(_tree(path)))
    assert owners == ({"int_poly_mul"} if path.name == "series.py" else set()), \
        f"{path.name}: dense products in {sorted(owners)}"
    products = {"series.py": ("mul", "in_terms_of"), "bivar.py": ("implicitize",)}
    for name in products.get(path.name, ()):
        assert _calls_of(_function(path, name), "int_poly_mul"), f"{path.name}: {name}"


EXACT_KERNELS = {"series.py": ("mul", "add", "divide", "_quotient", "in_terms_of"),
                 "resolution.py": ("apply_step",),
                 "puiseux.py": ("newton_puiseux", "_edge_root", "_branch_edges", "_transform"),
                 "bivar.py": ("poly_on_branch",),
                 "branch.py": ("_tokenize", "_parse_terms")}


def _fraction_steps(func):
    """Lines of the true divisions (``/``, ``/=``) and ``Fraction(...)``
    calls in a function."""
    for node in ast.walk(func):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div) \
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "Fraction":
            yield node.lineno


def test_exact_kernels_keep_fractions_out_of_their_loops():
    hits = {}
    for name, kernels in EXACT_KERNELS.items():
        path = next(p for p in SOURCES if p.name == name)
        for kernel in kernels:
            hits[f"{name}:{kernel}"] = sorted(set(_fraction_steps(_function(path, kernel))))
    assert hits == {key: [] for key in hits}, f"Fraction steps in kernels: {hits}"


def _long_division_owners(tree):
    """Names of the functions with a step ``r -= ... * x[k - j]``, the inner
    step of the long-division recurrence."""
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub) \
                        and any(isinstance(sub, ast.Subscript) and isinstance(sub.slice, ast.BinOp)
                                and isinstance(sub.slice.op, ast.Sub)
                                for sub in ast.walk(node.value)):
                    yield func.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_long_division(path):
    owners = set(_long_division_owners(_tree(path)))
    assert owners == ({"_quotient"} if path.name == "series.py" else set()), \
        f"{path.name}: long division in {sorted(owners)}"
    callers = {"series.py": ("divide", "in_terms_of"), "resolution.py": ("apply_step",)}
    for name in callers.get(path.name, ()):
        assert _calls_of(_function(path, name), "_quotient"), f"{path.name}: {name}"


def _terms_reads(path, func):
    return [node.lineno for node in ast.walk(_function(path, func))
            if isinstance(node, ast.Attribute) and node.attr == "terms"]


def test_one_exact_series_representation():
    series = next(p for p in SOURCES if p.name == "series.py")
    assert _class_fields(series, "TruncatedSeries") == ["num", "den", "precision"]
    for name, func in (("bivar.py", "implicitize"), ("branch.py", "normalize_branch")):
        path = next(p for p in SOURCES if p.name == name)
        reads = _terms_reads(path, func)
        assert reads == [], f"{name}: {func} reads .terms at lines {reads}"


def test_one_exact_polynomial_representation():
    bivar = next(p for p in SOURCES if p.name == "bivar.py")
    assert _class_fields(bivar, "BivarPoly") == ["num", "den"]
    for name, funcs in {"bivar.py": ("implicit_distance", "normalized", "poly_on_branch",
                                     "poly_to_text", "parse_poly"),
                        "puiseux.py": ("newton_puiseux",)}.items():
        path = next(p for p in SOURCES if p.name == name)
        for func in funcs:
            reads = _terms_reads(path, func)
            assert reads == [], f"{name}: {func} reads .terms at lines {reads}"
    # the parser and Newton-Puiseux keep numerators and denominators as integers
    for path in SOURCES:
        if path.name in ("branch.py", "puiseux.py"):
            names = [node.lineno for node in ast.walk(_tree(path))
                     if isinstance(node, ast.Name) and node.id == "Fraction"
                     or isinstance(node, ast.alias) and node.name == "Fraction"]
            assert names == [], f"{path.name}: Fraction at lines {names}"


def _calls_of(tree, name):
    """Lines of the calls ``name(...)`` and ``<anything>.name(...)`` in a tree."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == name
                 or isinstance(node.func, ast.Attribute) and node.func.attr == name)]


def test_no_repeated_resolutions():
    for path in SOURCES:
        if path.name != "resolution.py":
            assert _calls_of(_tree(path), "_walk") == [], f"{path.name} calls the walk"
    invariants = next(p for p in SOURCES if p.name == "invariants.py")
    # one call, in a comprehension over the two branches
    assert _calls_of(_tree(invariants), "resolve") == \
        _calls_of(_function(invariants, "equisingular"), "resolve")
    assert len(_calls_of(_tree(invariants), "resolve")) == 1
    isotopy = next(p for p in SOURCES if p.name == "isotopy.py")
    build_plan = _function(isotopy, "build_plan")
    assert _calls_of(build_plan, "resolve") == _calls_of(_tree(isotopy), "resolve") == []
    assert len(_calls_of(build_plan, "equisingular")) == 1
    for path in SOURCES:
        defs = [(name, line) for name, line in _defined_names(_tree(path))
                if name in ("_is_terminal", "_blowup_step")]
        assert defs == [], f"{path.name}: blowup twins defined {defs}"


def _bivar_poly_builds(func):
    """Lines of the calls ``BivarPoly(...)`` and ``BivarPoly.<method>(...)``."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            target = node.func.value if isinstance(node.func, ast.Attribute) else node.func
            if isinstance(target, ast.Name) and target.id == "BivarPoly":
                yield node.lineno


def test_newton_puiseux_builds_no_polynomial_per_step():
    puiseux = next(p for p in SOURCES if p.name == "puiseux.py")
    for name in ("newton_puiseux", "_transform"):
        lines = list(_bivar_poly_builds(_function(puiseux, name)))
        assert lines == [], f"puiseux.py: {name} builds a BivarPoly at lines {lines}"
    bivar = next(p for p in SOURCES if p.name == "bivar.py")
    func = _function(bivar, "poly_on_branch")
    nested = [node.lineno for node in ast.walk(func) if node is not func
              and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert nested == [], f"bivar.py: poly_on_branch defines functions at lines {nested}"


def test_equisingular_takes_only_the_two_branches():
    invariants = next(p for p in SOURCES if p.name == "invariants.py")
    args = _function(invariants, "equisingular").args
    assert [a.arg for a in args.posonlyargs + args.args] == ["a", "b"]
    assert (args.vararg, args.kwonlyargs, args.kwarg, args.defaults) == (None, [], None, [])


@pytest.mark.parametrize("path", [ROOT / "src" / "germflow" / "invariants.py",
                                  ROOT / "scripts" / "run_corpus.py"], ids=lambda p: p.name)
def test_no_precision_setting_on_the_exact_path(path):
    tree = _tree(path)
    names = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "DEFAULT_PRECISION"
             or isinstance(node, ast.alias) and node.name == "DEFAULT_PRECISION"]
    assert names == [], f"{path.name}: DEFAULT_PRECISION at lines {names}"
    assert _calls_of(tree, "with_precision") == [], f"{path.name} calls with_precision"


def test_only_the_isotopy_command_reads_the_precision():
    cli = next(p for p in SOURCES if p.name == "cli.py")
    readers = {func.name for func in ast.walk(_tree(cli)) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func) if isinstance(node, ast.Attribute)
               and node.attr == "precision" and isinstance(node.value, ast.Name)
               and node.value.id == "args"}
    assert readers == {"cmd_isotopy"}


def _class_fields(path, name):
    cls = next(node for node in ast.walk(_tree(path))
               if isinstance(node, ast.ClassDef) and node.name == name)
    return [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)]


def test_the_plan_states_each_fact_once():
    isotopy = next(p for p in SOURCES if p.name == "isotopy.py")
    assert _class_fields(isotopy, "PlanStage") == ["field"]
    assert _class_fields(isotopy, "GraphMatch") == ["orientation", "gap", "bump", "level"]
    assert "tol" not in _class_fields(isotopy, "FlowReport")
    callers = {path.name: _calls_of(_tree(path), "find_parameter_radius") for path in SOURCES}
    assert {name: lines for name, lines in callers.items() if lines} == \
        {"isotopy.py": _calls_of(_function(isotopy, "build_plan"), "find_parameter_radius")}
    assert len(callers["isotopy.py"]) == 1
    assert _calls_of(_function(isotopy, "build_plan"), "labels") == []


def test_apply_plan_stops_a_sample_one_way():
    isotopy = next(p for p in SOURCES if p.name == "isotopy.py")
    lines = [node.lineno for node in ast.walk(_function(isotopy, "apply_plan"))
             if isinstance(node, (ast.Try, ast.TryStar, ast.Continue))]
    assert lines == [], f"isotopy.py: apply_plan has a try or continue at lines {lines}"


@pytest.mark.parametrize("name", ["find_parameter_radius", "distance_to_branch"])
def test_the_float_kernels_evaluate_at_a_real_argument(name):
    isotopy = next(p for p in SOURCES if p.name == "isotopy.py")
    func = _function(isotopy, name)
    assert _calls_of(func, "eval_branch") == _calls_of(func, "complex") == [], name
