"""The perfbench tracer still finds the search functions it wraps by name.

``perfbench/tracing.py`` replaces ``isotropic._candidate_vectors`` and
``isotropic._search_vector`` to count search effort; a rename would silently
zero those counts.  This runs one planted ``analyze`` under the tracer.
"""

import importlib.util
import json
from pathlib import Path

from cuspchain import cli, isotropic, serialize

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
