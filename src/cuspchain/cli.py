"""Command-line interface: analyze spaces, build and verify chain certificates,
compute lattice levels, and emit the explicit model demos.

All output is canonical JSON on standard output.  On any error standard
output stays empty and a structured diagnosis goes to standard error.  Exit
codes: 0 success or verified, 1 verification failed, 2 input error,
3 search exhausted.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import chains, embeddings, levels, serialize
from .errors import (
    CuspChainError,
    InputFormatError,
    PostconditionFailed,
    SearchExhausted,
)
from .forms import ALTERNATING, FormSpace, Subspace, signature_of
from .isotropic import SearchConfig, find_isotropic_vector
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
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputFormatError(f"{path} nests JSON too deeply") from exc


def _load_space(path: str) -> FormSpace:
    return serialize.form_space_from_json(_load_json(path))


def _load_subspace(path: str, space: FormSpace) -> Subspace:
    return serialize.subspace_from_json(_load_json(path), space)


def _search_config(args) -> SearchConfig:
    try:
        return SearchConfig(max_height=args.max_height)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-height", type=int, default=50, help="hard cap on search height"
    )


def _parse_fraction(text: str) -> Fraction:
    return serialize._fraction_from_json(text)


class _MissingFlags(InputFormatError):
    """Required flags are missing; raised before unknown flags are reported."""


class _Parser(argparse.ArgumentParser):
    """Reports bad command lines as input errors instead of exiting.

    argparse looks for missing required flags before it reports unknown
    ones, so the unknown flags are named in that message as well.
    """

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        try:
            return super().parse_known_args(args, namespace)
        except _MissingFlags as exc:
            unknown = self._unknown_options(args)
            prefix = f"unrecognized arguments: {' '.join(unknown)}; " if unknown else ""
            raise InputFormatError(prefix + str(exc)) from None

    def error(self, message):
        if message.startswith("the following arguments are required"):
            raise _MissingFlags(message)
        raise InputFormatError(message)

    def _unknown_options(self, args: list[str]) -> list[str]:
        """Flags among args that this parser matches to none of its own."""
        known = self._option_string_actions
        out = []
        for arg in itertools.takewhile(lambda a: a != "--", args):
            name = arg.split("=", 1)[0]
            if len(arg) < 2 or arg[0] != "-" or " " in arg or _NEGATIVE.match(arg):
                continue  # argparse reads these as values
            if name in known or (
                name.startswith("--") and any(o.startswith(name) for o in known)
            ):
                continue  # an option or an abbreviation of one
            out.append(arg)
        return out


_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cuspchain",
        description=(
            "Build and verify equivalence-chain certificates between "
            "isotropic subspaces of quadratic, symplectic and hermitian "
            "form spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="kind, signature and an isotropic vector")
    p.add_argument("--space", required=True)
    _add_search_flags(p)

    p = sub.add_parser("isotropic", help="bounded isotropic vector search")
    p.add_argument("--space", required=True)
    _add_search_flags(p)

    p = sub.add_parser("chain", help="build a certificate joining two cusp data")
    p.add_argument("--space", required=True)
    p.add_argument("--i1", required=True)
    p.add_argument("--i2", required=True)
    p.add_argument("--out", help="write the certificate here instead of stdout")
    _add_search_flags(p)

    p = sub.add_parser("verify", help="independently verify a certificate")
    p.add_argument("--cert", required=True)

    p = sub.add_parser("level", help="lattice-sandwich level computation")
    p.add_argument("--space", required=True)
    p.add_argument("--lattice", required=True)
    p.add_argument("--lattice-prime", required=True)
    p.add_argument("--N", type=int, required=True)

    demo = sub.add_parser("demo", help="explicit model demonstrations")
    demo_sub = demo.add_subparsers(dest="demo_command", required=True)
    demo_sub.add_parser("trace-zero")
    q = demo_sub.add_parser("veronese")
    q.add_argument("--tau", required=True)
    q = demo_sub.add_parser("segre")
    q.add_argument("--tau1", required=True)
    q.add_argument("--tau2", required=True)
    q = demo_sub.add_parser("hermitian-m2")
    q.add_argument("--D", type=int, required=True)
    q = demo_sub.add_parser("order")
    q.add_argument("--lattice", required=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once: parsing leaves no state in it."""
    return build_parser()


def _cmd_analyze(args) -> tuple[dict, int]:
    space = _load_space(args.space)
    cfg = _search_config(args)
    if space.kind == ALTERNATING:
        signature = None
    else:
        signature = list(signature_of(space).as_tuple())
    vector = find_isotropic_vector(space, cfg)
    return (
        {
            "kind": space.kind,
            "dim": space.dim,
            "signature": signature,
            "isotropic": serialize.vector_to_json(vector) if vector else None,
        },
        EXIT_OK,
    )


def _cmd_isotropic(args) -> tuple[dict, int]:
    space = _load_space(args.space)
    cfg = _search_config(args)
    vector = find_isotropic_vector(space, cfg)
    return (
        {
            "found": vector is not None,
            "vector": serialize.vector_to_json(vector) if vector else None,
            "max_height": cfg.max_height,
        },
        EXIT_OK,
    )


def _cmd_chain(args) -> tuple[dict, int]:
    space = _load_space(args.space)
    i1 = _load_subspace(args.i1, space)
    i2 = _load_subspace(args.i2, space)
    cfg = _search_config(args)
    cert = BUILDERS[space.kind](space, i1, i2, cfg)
    return serialize.certificate_to_json(cert), EXIT_OK


def _cmd_verify(args) -> tuple[dict, int]:
    cert = serialize.certificate_from_json(_load_json(args.cert))
    report = chains.verify_certificate(cert)
    return (
        serialize.report_to_json(report),
        EXIT_OK if report.ok else EXIT_VERIFY_FAILED,
    )


def _cmd_level(args) -> tuple[dict, int]:
    space = _load_space(args.space)
    lat = _load_lattice(args.lattice, space)
    lat_prime = _load_lattice(args.lattice_prime, space)
    if args.N < 1:
        raise InputFormatError("--N must be a positive integer")
    n1, n2, nprime = levels.containment_level(lat, lat_prime, args.N)
    return {"N1": n1, "N2": n2, "Nprime": nprime}, EXIT_OK


def _load_lattice(path: str, space: FormSpace) -> levels.FullLattice:
    obj = _load_json(path)
    if not isinstance(obj, dict) or "basis" not in obj:
        raise InputFormatError(f"{path}: a lattice must be an object with a basis")
    basis = serialize.matrix_from_json(obj["basis"], ncols=space.dim)
    try:
        return levels.FullLattice(space, basis)
    except (CuspChainError, ValueError) as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def _cmd_demo(args) -> tuple[dict, int]:
    if args.demo_command == "trace-zero":
        space, labels = embeddings.trace_zero_space()
        return (
            {
                "space": serialize.form_space_to_json(space),
                "basis": list(labels),
                "signature": list(signature_of(space).as_tuple()),
            },
            EXIT_OK,
        )
    if args.demo_command == "veronese":
        tau = _parse_fraction(args.tau)
        point = embeddings.veronese_point(tau)
        space, _ = embeddings.trace_zero_space()
        return (
            {
                "tau": serialize.fraction_to_json(tau),
                "point": serialize.vector_to_json(point),
                "norm": serialize.fraction_to_json(space.norm(point)),
            },
            EXIT_OK,
        )
    if args.demo_command == "segre":
        from .forms import standard_2u

        tau1 = _parse_fraction(args.tau1)
        tau2 = _parse_fraction(args.tau2)
        point = embeddings.segre_point(tau1, tau2)
        return (
            {
                "tau1": serialize.fraction_to_json(tau1),
                "tau2": serialize.fraction_to_json(tau2),
                "point": serialize.vector_to_json(point),
                "norm": serialize.fraction_to_json(standard_2u().norm(point)),
            },
            EXIT_OK,
        )
    if args.demo_command == "hermitian-m2":
        if args.D < 1:
            raise InputFormatError("--D must be a positive integer")
        try:
            space, _ = embeddings.hermitian_m2_space(args.D)
        except ValueError as exc:
            raise InputFormatError(str(exc)) from exc
        return (
            {
                "space": serialize.form_space_to_json(space),
                "basis": ["I", "e12"],
                "signature": list(signature_of(space).as_tuple()),
            },
            EXIT_OK,
        )
    if args.demo_command == "order":
        obj = _load_json(args.lattice)
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
        return (
            {
                "order": [serialize.matrix_to_json(m) for m in order.basis],
            },
            EXIT_OK,
        )
    raise InputFormatError(f"unknown demo {args.demo_command!r}")


COMMANDS = {
    "analyze": _cmd_analyze,
    "isotropic": _cmd_isotropic,
    "chain": _cmd_chain,
    "verify": _cmd_verify,
    "level": _cmd_level,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        payload, code = COMMANDS[args.command](args)
    except SearchExhausted as exc:
        _emit_error(exc)
        return EXIT_SEARCH_EXHAUSTED
    except (CuspChainError, ValueError) as exc:
        _emit_error(exc)
        return EXIT_INPUT_ERROR
    text = dumps_canonical(payload)
    out_path = getattr(args, "out", None)
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
