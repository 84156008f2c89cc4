"""The perfbench tracer still finds the functions it wraps by name.

``perfbench/tracing.py`` replaces ``isotropic._candidate_vectors`` and
``isotropic._search_vector`` to count search effort; a rename would silently
zero those counts.  This runs one planted ``analyze`` under the tracer, and
checks that every function and method the tracer names by layer exists.
The tracer also rebinds the builders in ``cli.BUILDERS``, whose signatures
differ (only the orthogonal builder takes a search bound), so a traced
``chain`` of each space kind must print what an untraced one prints.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from cuspchain import cli, exact, isotropic, serialize
from cuspchain.forms import (
    line,
    quadratic_2u_perp_diagonal,
    standard_hermitian_hyperbolic,
    standard_symplectic,
    unit_vector,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_search_candidates(tmp_path, capsys):
    # diag(2, 3, -5) is isotropic at (1, 1, 1), a few candidates into shell 1
    space = tmp_path / "space.json"
    space.write_text(serialize.dumps_canonical({
        "kind": "symmetric",
        "gram": [["2", "0", "0"], ["0", "3", "0"], ["0", "0", "-5"]],
    }), encoding="utf-8")
    argv = ["analyze", "--space", str(space), "--max-height", "2"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    assert json.loads(plain)["isotropic"] == ["1", "1", "1"]

    originals = (isotropic._candidate_vectors, isotropic._search_vector)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert isotropic._search_vector is not originals[1]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == plain
    assert tracer.counts["isotropic.candidates"] > 0
    assert tracer.counts["exact.shell_tuples_yielded"] >= tracer.counts["isotropic.candidates"]
    assert tracer.searches == 1
    assert (isotropic._candidate_vectors, isotropic._search_vector) == originals


@pytest.mark.parametrize("space,searches", [
    # e1 and f1 pair, so the chain searches for a positive vector orthogonal to both
    (quadratic_2u_perp_diagonal([-2]), 1),
    (standard_symplectic(2), 0),
    (standard_hermitian_hyperbolic(3, 2), 0),
], ids=["symmetric", "alternating", "hermitian"])
def test_traced_chain_of_each_kind_keeps_its_bytes(space, searches, tmp_path, capsys):
    files = {"space": serialize.form_space_to_json(space)}
    for name, index in (("i1", 0), ("i2", 1)):
        files[name] = serialize.subspace_to_json(line(space, unit_vector(space, index)))
    argv = ["chain"]
    for name, payload in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(serialize.dumps_canonical(payload), encoding="utf-8")
        argv += [f"--{name}", str(path)]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    links = [link["type"] for link in json.loads(plain)["links"]]
    assert (links == ["orth_interior_curve"]) == (searches == 1)

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == plain
    assert tracer.span_counts()["chains.build"] >= 1
    assert tracer.searches == searches


def test_tracer_names_exist():
    # Tracer.install looks these up by name: a missing method raises KeyError,
    # and a missing LAYER_OF function leaves its layer at zero
    tracing = load_tracing()
    mods = {m: importlib.import_module(f"cuspchain.{m}") for m in tracing.MODULES}
    methods = {
        (mname, meth) for (mname, _), names in tracing.METHODS.items() for meth in names
    }
    for key in tracing.LAYER_OF:
        mname, name = key.split(".")
        fn = getattr(mods[mname], name, None)
        is_function = inspect.isfunction(fn) and fn.__module__ == mods[mname].__name__
        assert is_function or (mname, name) in methods, key
    for (mname, cname), names in tracing.METHODS.items():
        cls = getattr(mods[mname], cname)
        for meth in names:
            assert meth in cls.__dict__, f"{cname}.{meth}"
    for meth in tracing.QUAD_OPS:
        assert meth in exact.QuadFieldElement.__dict__, meth
