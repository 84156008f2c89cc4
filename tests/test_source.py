"""Source rules of the package.

No correctness check lives in an ``assert``: ``python -O`` strips ``assert``
statements, so every check in the package is an explicit test that raises.

JSON text is written in one place, ``serialize.dumps_canonical``: no other
module calls ``json.dump`` or ``json.dumps``, and no module passes
``indent=``, which would put json's pure-Python encoder back in.

Command lines are read from the ``cli.COMMANDS`` table: no module imports
``argparse``, whose parser costs more per command than most commands' work.

Only ``exact`` stores integer arrays as given (``exact._stored``): equality
and hashing of matrices compare the arrays, so every other module builds
matrices through a path that makes them canonical.

A product with an adjoint is ``x.mul_adjoint(y)``: no module multiplies by
``y.conj_transpose()`` on the right, which would build and reduce the
adjoint only to multiply by it.

Integer normal forms take one unimodular row echelon, ``exact._echelon``:
``hnf`` and ``smith`` both call it, and it is the only caller of
``exact._xgcd``, so each row or column step is written once and a second
hand-written elimination cannot grow back beside it.
``embeddings.order_of_lattice`` also reads the echelon directly: any basis
of its stability system's column lattice will do, so it skips the
transform and the reduction above the pivots that ``hnf`` adds.

Row reduction over a field takes one kernel, ``exact._reduced``: it is the
only caller of ``exact._int_eliminate``, and ``Matrix.inverse``,
``Matrix.solve``, ``Matrix.right_kernel``, ``Matrix.rank`` and
``forms.extend_basis_rows`` call it directly, never ``rref`` (which makes
every row canonical) or a stacking helper, so each reads only what it needs
of one elimination.

A form space runs one congruent elimination: only the cached property
``FormSpace._pivots`` calls ``forms._congruent_pivots``, and the signature
and the isotropy decision both read the property.

Values are formatted as JSON in one place too: the encoders leave every
``Matrix``, ``Fraction`` and ``QuadFieldElement`` in their documents, and
``dumps_canonical`` writes each (a matrix from its integer rows).  The
public functions of ``serialize`` are a fixed set with no writer of a single
matrix or scalar, and any new helper there is private: the benchmark's
tracer files a public ``serialize`` function under the writing layer only
when its name holds "to_json" or starts with "dumps", and under the reading
layer otherwise, so a new public writer would be timed as reading.

``SearchExhausted`` means a bounded search ran out (exit code 3), so only
``isotropic._search_vector`` raises it.

Every condition the verifier can report, the literal name in each
``fail(...)`` call of ``chains``, has a case in
``test_chains.VERIFIER_CONDITIONS``, so a new condition lands with a
certificate that shows it.

No function of the package serves only tests: every public module-level
function is named in ``cuspchain.__all__`` or used somewhere in the package
outside its own body.  A use is an import of the name from its module, an
attribute read ``module.name``, or a load of the name in its own module
where no local binding of the same name shadows it.  The exceptions are
``forms.line`` and the three standard form spaces, which the tests build
their fixtures from.

There is no dead configuration: every parameter of a public function or
method (a name with no leading underscore), other than ``self`` and
``cls``, is read in its body, so no function takes a value only to keep a
signature that others share.
"""

import ast
from pathlib import Path

import cuspchain

SOURCES = sorted(Path(cuspchain.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def test_json_text_is_written_only_by_serialize():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "serialize.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("dump", "dumps")
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "json"
            and {a.name for a in node.names} & {"dump", "dumps"}
        )
    ]
    assert found == []


def test_no_source_passes_indent():
    found = [
        f"{path.name}:{number}"
        for path in SOURCES
        for number, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "indent=" in text
    ]
    assert found == []


def test_package_does_not_import_argparse():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (
            isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "argparse" for a in node.names)
        )
        or (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "argparse"
        )
    ]
    assert SOURCES
    assert found == []


def test_only_exact_stores_arrays_as_given():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "exact.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (
            isinstance(node, ast.ImportFrom)
            and any(a.name == "_stored" for a in node.names)
        )
        or (isinstance(node, ast.Attribute) and node.attr == "_stored")
    ]
    assert SOURCES
    assert found == []


def test_adjoint_products_use_mul_adjoint():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and isinstance(node.right, ast.Call)
        and isinstance(node.right.func, ast.Attribute)
        and node.right.func.attr == "conj_transpose"
    ]
    assert SOURCES
    assert found == []


def reads(fn, name):
    """Whether the function's body loads the name, plain or as an attribute."""
    return any(
        isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
        and getattr(node, "id", getattr(node, "attr", None)) == name
        for node in ast.walk(fn)
    )


def functions():
    """(file name, function) for every function of the package."""
    return [
        (path.name, fn)
        for path in SOURCES
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef)
    ]


def test_normal_forms_share_one_echelon():
    found = functions()
    exact = {fn.name: fn for name, fn in found if name == "exact.py"}
    xgcd_users = [f"{name}:{fn.name}" for name, fn in found if reads(fn, "_xgcd")]
    assert xgcd_users == ["exact.py:_echelon"]
    assert reads(exact["hnf"], "_echelon")
    assert reads(exact["smith"], "_echelon")


def test_eliminations_share_one_kernel():
    found = functions()
    users = [f"{name}:{fn.name}" for name, fn in found if reads(fn, "_int_eliminate")]
    assert users == ["exact.py:_reduced"]
    by_name = {(name, fn.name): fn for name, fn in found}
    for key in [("exact.py", "inverse"), ("exact.py", "solve"), ("exact.py", "rank"),
                ("exact.py", "right_kernel"), ("forms.py", "extend_basis_rows")]:
        fn = by_name[key]
        assert reads(fn, "_reduced"), key
        assert not reads(fn, "rref") and not reads(fn, "hstack"), key
    # a meet and a right inverse are one elimination each, not a kernel or an
    # inverse followed by a second elimination or a product
    for key in [("forms.py", "subspace_intersection"), ("forms.py", "coordinate_map")]:
        fn = by_name[key]
        assert reads(fn, "_reduced"), key
        for name in ("inverse", "right_kernel", "rref"):
            assert not reads(fn, name), (key, name)


def test_one_congruent_elimination_per_space():
    users = [f"{name}:{fn.name}" for name, fn in functions() if reads(fn, "_congruent_pivots")]
    assert users == ["forms.py:_pivots"]
    forms = ast.parse((SOURCES[0].parent / "forms.py").read_text(encoding="utf-8"))
    space = next(c for c in forms.body if isinstance(c, ast.ClassDef) and c.name == "FormSpace")
    pivots = next(fn for fn in space.body if getattr(fn, "name", None) == "_pivots")
    assert [ast.unparse(d) for d in pivots.decorator_list] == ["cached_property"]


SERIALIZE_PUBLIC = {
    "scalar_from_json", "matrix_from_json", "vector_from_json", "form_space_to_json",
    "form_space_from_json", "subspace_to_json", "subspace_from_json",
    "certificate_to_json", "certificate_from_json", "link_to_json",
    "link_from_json", "report_to_json", "dumps_canonical",
}


def test_new_serialize_helpers_are_private():
    serialize = Path(cuspchain.__file__).parent / "serialize.py"
    public = {
        node.name
        for node in ast.parse(serialize.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert public == SERIALIZE_PUBLIC


def test_only_the_vector_search_raises_search_exhausted():
    def names_search_exhausted(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", getattr(exc, "attr", None)) == "SearchExhausted"

    found, in_search = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        search = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            and (path.name, fn.name) == ("isotropic.py", "_search_vector")
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc and names_search_exhausted(node):
                if id(node) in search:
                    in_search += 1
                else:
                    found.append(f"{path.name}:{node.lineno}")
    assert in_search == 1
    assert found == []


def test_every_verifier_condition_has_a_case():
    from test_chains import VERIFIER_CONDITIONS

    chains = Path(cuspchain.__file__).parent / "chains.py"
    names = set()
    for node in ast.walk(ast.parse(chains.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "fail":
            literals = [
                arg.value
                for arg in node.args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            ]
            if literals:  # the first string is the condition, a second the detail
                names.add(literals[0])
    assert "certificate-error" in names
    assert sorted(names - VERIFIER_CONDITIONS.keys()) == []


def test_public_parameters_are_read():
    found = []
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs]
            params += [p for p in (a.vararg, a.kwarg) if p]
            read = {
                node.id
                for stmt in fn.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            found += [
                f"{path.name}:{fn.lineno} {fn.name}({p.arg})"
                for p in params
                if p.arg not in ("self", "cls", *read)
            ]
    assert found == []


# the line and the standard form spaces that only the tests build
FIXTURE_ONLY = {
    "forms.py:line", "forms.py:hyperbolic_plane", "forms.py:standard_symplectic",
    "forms.py:standard_hermitian_hyperbolic",
}


def bound_names(fn):
    """The names a function or lambda binds: its parameters and every name
    stored, imported or defined in its body (nested scopes included)."""
    a = fn.args
    names = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
             if p}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node is not fn:
            names.add(node.name)
    return names


def loads_unshadowed(node, name, skip, shadowed=False):
    """Whether node loads name outside skip, in a scope that does not bind it."""
    if node is skip:
        return False
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        shadowed = shadowed or name in bound_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name:
        return not shadowed
    return any(loads_unshadowed(child, name, skip, shadowed)
               for child in ast.iter_child_nodes(node))


def uses(tree, module, fn):
    """Whether a module's tree uses the public function fn of module: imports
    it from there, reads module.fn, or (in module itself) loads it unshadowed."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[-1] == module
            and any(alias.name == fn.name for alias in node.names)
        ) or (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr == fn.name
            and isinstance(node.value, ast.Name)
            and node.value.id == module
        ):
            return True
    return fn in tree.body and loads_unshadowed(tree, fn.name, fn)


def test_public_functions_serve_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    found = [
        f"{module}.py:{fn.name}"
        for module, tree in trees.items()
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("_")
        and fn.name not in cuspchain.__all__
        and not any(uses(other, module, fn) for other in trees.values())
    ]
    assert sorted(found) == sorted(FIXTURE_ONLY)
