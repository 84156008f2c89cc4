"""Command-line interface: analyze spaces, build and verify chain certificates,
compute lattice levels, and emit the explicit model demos.

All output is canonical JSON on standard output.  On any error standard
output stays empty and a structured diagnosis goes to standard error.  Exit
codes: 0 success or verified, 1 verification failed, 2 input error,
3 search exhausted.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import chains, embeddings, levels, serialize
from .errors import (
    CuspChainError,
    InputFormatError,
    PostconditionFailed,
    SearchExhausted,
)
from .forms import ALTERNATING, SYMMETRIC, FormSpace, signature_of, standard_2u
from .isotropic import MAX_HEIGHT, find_isotropic_vector
from .serialize import dumps_canonical

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_SEARCH_EXHAUSTED = 3

BUILDERS = {
    "symmetric": chains.build_chain_orthogonal,
    "alternating": chains.build_chain_symplectic,
    "hermitian": chains.build_chain_unitary,
}


def _load_json(path: str):
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            # positions in the message count in the text as text mode reads it,
            # with "\r\n" and then "\r" read as "\n"
            return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputFormatError(f"{path} nests JSON too deeply") from exc


def _load_space(path: str) -> FormSpace:
    return serialize.form_space_from_json(_load_json(path))


def _load_lattice(path: str, space: FormSpace) -> levels.FullLattice:
    obj = _load_json(path)
    if not isinstance(obj, dict) or "basis" not in obj:
        raise InputFormatError(f"{path}: a lattice must be an object with a basis")
    basis = serialize.matrix_from_json(obj["basis"], ncols=space.dim)
    try:
        return levels.FullLattice(space, basis)
    except (CuspChainError, ValueError) as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be a positive integer, not {value}")
    return value


def _cmd_analyze(space: str, max_height: int) -> tuple[dict, int]:
    space = _load_space(space)
    signature = None if space.kind == ALTERNATING else _signature(space)
    vector = find_isotropic_vector(space, max_height)
    return {
        "kind": space.kind,
        "dim": space.dim,
        "signature": signature,
        "isotropic": vector,
    }, EXIT_OK


def _cmd_isotropic(space: str, max_height: int) -> tuple[dict, int]:
    vector = find_isotropic_vector(_load_space(space), max_height)
    return {
        "found": vector is not None,
        "vector": vector,
        "max_height": max_height,
    }, EXIT_OK


def _cmd_chain(space: str, i1: str, i2: str, max_height: int) -> tuple[dict, int]:
    space = _load_space(space)
    i1 = serialize.subspace_from_json(_load_json(i1), space)
    i2 = serialize.subspace_from_json(_load_json(i2), space)
    # only the orthogonal builder searches
    bound = {"max_height": max_height} if space.kind == SYMMETRIC else {}
    cert = BUILDERS[space.kind](space, i1, i2, **bound)
    return serialize.certificate_to_json(cert), EXIT_OK


def _cmd_verify(cert: str) -> tuple[dict, int]:
    cert = serialize.certificate_from_json(_load_json(cert))
    report = chains.verify_certificate(cert)
    code = EXIT_OK if report.ok else EXIT_VERIFY_FAILED
    return serialize.report_to_json(report), code


def _cmd_level(
    space: str, lattice: str, lattice_prime: str, N: int
) -> tuple[dict, int]:
    space = _load_space(space)
    lat = _load_lattice(lattice, space)
    lat_prime = _load_lattice(lattice_prime, space)
    n1, n2, nprime = levels.containment_level(lat, lat_prime, N)
    return {"N1": n1, "N2": n2, "Nprime": nprime}, EXIT_OK


def _signature(space: FormSpace) -> list[int]:
    return list(signature_of(space).as_tuple())


def _space_demo(space: FormSpace, basis) -> tuple[dict, int]:
    return {
        "space": serialize.form_space_to_json(space),
        "basis": list(basis),
        "signature": _signature(space),
    }, EXIT_OK


def _demo_trace_zero() -> tuple[dict, int]:
    return _space_demo(*embeddings.trace_zero_space())


def _demo_veronese(tau: Fraction) -> tuple[dict, int]:
    point = embeddings.veronese_point(tau)
    space, _ = embeddings.trace_zero_space()
    return {"tau": tau, "point": point, "norm": space.norm(point)}, EXIT_OK


def _demo_segre(tau1: Fraction, tau2: Fraction) -> tuple[dict, int]:
    point = embeddings.segre_point(tau1, tau2)
    norm = standard_2u().norm(point)
    return {"tau1": tau1, "tau2": tau2, "point": point, "norm": norm}, EXIT_OK


def _demo_hermitian_m2(D: int) -> tuple[dict, int]:
    try:
        space, _ = embeddings.hermitian_m2_space(D)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    return _space_demo(space, ["I", "e12"])


def _demo_order(lattice: str) -> tuple[dict, int]:
    obj = _load_json(lattice)
    if not isinstance(obj, dict) or "matrices" not in obj:
        raise InputFormatError("an order demo input needs a matrices list")
    mats = obj["matrices"]
    if not isinstance(mats, list) or len(mats) != 4:
        raise InputFormatError("exactly four 2x2 matrices are required")
    try:
        lattice = embeddings.MatrixLattice(
            tuple(serialize.matrix_from_json(m) for m in mats)
        )
        order = embeddings.order_of_lattice(lattice)
    except PostconditionFailed:
        raise  # a failed self-check of the program, not bad input
    except (CuspChainError, ValueError) as exc:
        raise InputFormatError(str(exc)) from exc
    return {"order": order.basis}, EXIT_OK


# -- the command table ---------------------------------------------------------

REQUIRED = object()  # the default of a flag that must be given


class Flag(NamedTuple):
    """``--name VALUE``; ``type`` turns the text into the handler's argument."""

    name: str
    help: str
    type: Callable[[str], object] = str
    default: object = REQUIRED


class Command(NamedTuple):
    """A command: ``handler`` takes one keyword argument per flag."""

    help: str
    handler: Callable[..., tuple[dict, int]]
    flags: tuple[Flag, ...] = ()


class Group(NamedTuple):
    """Commands chosen by the next word of the command line."""

    help: str
    commands: dict[str, Command | Group]


_SPACE = Flag("space", "form space (JSON file)")
_MAX_HEIGHT = Flag("max-height", "hard cap on search height", _positive_int, MAX_HEIGHT)
_RATIONAL = serialize._fraction_from_json

COMMANDS = Group(
    "Build and verify equivalence-chain certificates between isotropic "
    "subspaces of quadratic, symplectic and hermitian form spaces.",
    {
        "analyze": Command("kind, signature and an isotropic vector", _cmd_analyze,
                           (_SPACE, _MAX_HEIGHT)),
        "isotropic": Command("bounded isotropic vector search", _cmd_isotropic,
                             (_SPACE, _MAX_HEIGHT)),
        "chain": Command("build a certificate joining two cusp data", _cmd_chain, (
            _SPACE,
            Flag("i1", "first isotropic subspace (JSON file)"),
            Flag("i2", "second isotropic subspace (JSON file)"),
            Flag("out", "write the certificate here instead of stdout", default=None),
            _MAX_HEIGHT,
        )),
        "verify": Command("independently verify a certificate", _cmd_verify,
                          (Flag("cert", "certificate (JSON file)"),)),
        "level": Command("lattice-sandwich level computation", _cmd_level, (
            _SPACE,
            Flag("lattice", "lattice L (JSON file)"),
            Flag("lattice-prime", "lattice L' (JSON file)"),
            Flag("N", "level", _positive_int),
        )),
        "demo": Group("explicit model demonstrations", {
            "trace-zero": Command("the trace-zero quadratic space", _demo_trace_zero),
            "veronese": Command("the Veronese point of tau", _demo_veronese,
                                (Flag("tau", "rational parameter", _RATIONAL),)),
            "segre": Command("the Segre point of (tau1, tau2)", _demo_segre, (
                Flag("tau1", "first rational parameter", _RATIONAL),
                Flag("tau2", "second rational parameter", _RATIONAL),
            )),
            "hermitian-m2": Command(
                "the hermitian space on M2(Q) for Q(sqrt(-D))", _demo_hermitian_m2,
                (Flag("D", "squarefree field parameter", _positive_int),)),
            "order": Command("the right order of a lattice in M2(Q)", _demo_order,
                             (Flag("lattice", "four 2x2 matrices (JSON file)"),)),
        }),
    },
)


def _flag_name(word: str, names) -> str | None:
    """The flag (or "help") ``word`` names, exactly or as a unique prefix."""
    if word == "-h":
        return "help"
    if not word.startswith("--") or word == "--":
        return None
    key = word[2:]
    if key in names or key == "help":
        return key
    hits = [name for name in (*names, "help") if name.startswith(key)]
    if len(hits) > 1:
        choices = ", ".join("--" + hit for hit in hits)
        raise InputFormatError(f"ambiguous option: {word} could match {choices}")
    return hits[0] if hits else None


def _read(argv) -> tuple[Command, dict]:
    """The command an argument list names and its handler's keyword arguments.

    Values are taken verbatim, so ``--tau -3/4`` works.  ``-h``/``--help``
    prints the help of the command reached and raises ``SystemExit(0)``.
    """
    row, words, rest = COMMANDS, ["cuspchain"], iter(argv)
    while isinstance(row, Group):
        word = next(rest, None)
        if word is not None and _flag_name(word, ()) == "help":
            _print_help(words, row)
        if word not in row.commands:
            what = "no command" if word is None else f"unknown command {word!r}"
            choices = ", ".join(row.commands)
            raise InputFormatError(f"{' '.join(words)}: {what}; choose from {choices}")
        row = row.commands[word]
        words.append(word)
    flags = {flag.name: flag for flag in row.flags}
    given, unknown = {}, []
    for arg in rest:
        word, eq, value = arg.partition("=")
        name = _flag_name(word, flags)
        if name == "help":
            if eq:
                raise InputFormatError(f"{word} takes no value")
            _print_help(words, row)
        if name is None:
            unknown.append(arg)
            continue
        if not eq and (value := next(rest, None)) is None:
            raise InputFormatError(f"--{name} needs a value")
        if name in given:
            raise InputFormatError(f"--{name} is given more than once")
        try:
            given[name] = flags[name].type(value)
        except (InputFormatError, ValueError) as exc:
            raise InputFormatError(f"--{name}: {exc}") from exc
    if unknown:
        raise InputFormatError(f"unrecognized arguments: {' '.join(unknown)}")
    missing = [n for n, f in flags.items() if f.default is REQUIRED and n not in given]
    if missing:
        raise InputFormatError(f"missing required flags: --{', --'.join(missing)}")
    return row, {n.replace("-", "_"): given.get(n, f.default) for n, f in flags.items()}


def _print_help(words: list[str], row: Command | Group):
    """Write the help of one table row to stdout and raise SystemExit(0)."""
    if isinstance(row, Group):
        entries = [(name, sub.help) for name, sub in row.commands.items()]
    else:
        entries = []
        for f in row.flags:
            left = f"--{f.name} {f.name.upper()}"
            if f.default is REQUIRED:
                entries.append((left, f.help))
            else:
                default = "" if f.default is None else f" (default {f.default})"
                entries.append((f"[{left}]", f.help + default))
    entries.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in entries) + 2
    lines = [f"{' '.join(words)}: {row.help}", ""]
    lines += [f"  {left:<{width}}{text}" for left, text in entries]
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def main(argv=None) -> int:
    try:
        command, kwargs = _read(sys.argv[1:] if argv is None else argv)
        out_path = kwargs.pop("out", None)
        payload, code = command.handler(**kwargs)
    except SearchExhausted as exc:
        _emit_error(exc)
        return EXIT_SEARCH_EXHAUSTED
    except (CuspChainError, ValueError) as exc:
        _emit_error(exc)
        return EXIT_INPUT_ERROR
    text = dumps_canonical(payload)
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            _emit_error(InputFormatError(f"cannot write {out_path}: {exc}"))
            return EXIT_INPUT_ERROR
    else:
        sys.stdout.write(text)
    return code


def _emit_error(exc: Exception) -> None:
    sys.stderr.write(
        dumps_canonical({"error": type(exc).__name__, "detail": str(exc)})
    )


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
