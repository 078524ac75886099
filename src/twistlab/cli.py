"""Command-line front end: one subcommand per library entry point.

Machine-readable results go to stdout, pictures and per-fixture progress go
to stderr, so output can be piped or written with ``--out``.  Exit codes:
0 success, 1 domain or computation error, 2 a scan surfaced a
counterexample, 64 bad usage.

One table, ``_COMMANDS``, declares every command, the ``search`` scans
generated from ``_SCANS``; one loop builds the parser, once per process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from importlib import resources
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from . import search
from .abacus import is_p_by_p, p_core, to_abacus
from .criteria import (
    h0_failed_row,
    ks_ext1_witness,
    murphy_end_dim,
    murphy_indecomposable,
    murphy_summand_count,
)
from .errors import TwistlabError
from .mullineux import (
    MullineuxSymbol,
    mullineux_map,
    mullineux_symbol,
    reconstruct_from_symbol,
    tau,
    transform_symbol,
)
from .partitions import Partition
from .search import _SCANS, SearchReport, _parts
from .specht import (
    build_specht,
    end_ring,
    h0_dim,
    hom_dim,
    hook_length_dim,
    is_decomposable,
)

USAGE_ERROR = 64

Payload = Tuple[Any, int]
Handler = Callable[[argparse.Namespace], Payload]


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional 64 for command-line mistakes."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _partition(text: str) -> Partition:
    """Parse '15,15' into a Partition; reject anything not largest-first."""
    if text.strip() == "":
        return Partition()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of integers")
    if any(x <= 0 for x in parts):
        raise argparse.ArgumentTypeError("every part must be a positive integer")
    if any(x < y for x, y in zip(parts, parts[1:])):
        raise argparse.ArgumentTypeError("parts must be listed largest first")
    try:
        return Partition(parts)
    except TwistlabError as exc:
        # a part past the 64-bit limit is a usage mistake like any other bad part
        raise argparse.ArgumentTypeError(f"{type(exc).__name__}: {exc}")


def _symbol_rows(sym: MullineuxSymbol) -> Dict[str, list]:
    """The symbol's two rows, one entry per column, written out once."""
    columns = sym.columns
    return {"a": [a for a, _ in columns], "r": [r for _, r in columns]}


# ---------------------------------------------------------------- handlers


def _cmd_mull(args: argparse.Namespace) -> Payload:
    # the map strips lambda into its symbol; strip once and map from it
    sym = mullineux_symbol(args.lam, args.p)
    payload: Dict[str, Any] = {
        "p": args.p,
        "input": _parts(args.lam),
        "mullineux": _parts(reconstruct_from_symbol(transform_symbol(sym))),
    }
    if args.show_symbol:
        payload["symbol"] = _symbol_rows(sym)
    return payload, 0


def _cmd_tau(args: argparse.Namespace) -> Payload:
    return _parts(tau(args.n, args.p)), 0


def _cmd_hat(args: argparse.Namespace) -> Payload:
    hatted = args.lam.hat(args.p)
    image, expected = mullineux_map(hatted, args.p), args.lam.scale(args.p - 1)
    return {
        "p": args.p,
        "lambda": _parts(args.lam),
        "hat": _parts(hatted),
        "mullineux_of_hat": _parts(image),
        "expected": _parts(expected),
        "holds": image == expected,
    }, 0


def _cmd_symbol(args: argparse.Namespace) -> Payload:
    return {
        "p": args.p,
        "lambda": _parts(args.lam),
        **_symbol_rows(mullineux_symbol(args.lam, args.p)),
    }, 0


def _cmd_abacus(args: argparse.Namespace) -> Payload:
    display = to_abacus(args.lam, args.p, args.beads)
    block = p_core(args.lam, args.p)
    for row in display.picture():
        print(row, file=sys.stderr)
    return {
        "p": args.p,
        "lambda": _parts(args.lam),
        "beta": list(display.beta),
        "core": _parts(block.core),
        "weight": block.weight,
        "p_by_p": is_p_by_p(args.lam, args.p),
    }, 0


def _cmd_ks_ext(args: argparse.Namespace) -> Payload:
    witness = ks_ext1_witness(args.p, args.lam, args.mu)
    return {
        "inputs": {"p": args.p, "lam": _parts(args.lam), "mu": _parts(args.mu)},
        "result": 0 if witness is None else 1,
        "certificate": witness,
    }, 0


def _cmd_murphy(args: argparse.Namespace) -> Payload:
    return {
        "inputs": {"d": args.d, "r": args.r},
        "result": {
            "end_dim": murphy_end_dim(args.d, args.r),
            "indecomposable": murphy_indecomposable(args.d, args.r),
        },
        "certificate": {"summands": murphy_summand_count(args.d, args.r)},
    }, 0


def _cmd_h0(args: argparse.Namespace) -> Payload:
    row = h0_failed_row(args.lam, args.p)
    return {
        "inputs": {"p": args.p, "lambda": _parts(args.lam)},
        "result": row is None,
        "certificate": row,
    }, 0


def _cmd_specht_hom(args: argparse.Namespace) -> Payload:
    a = build_specht(args.lam, args.p)
    b = build_specht(args.mu, args.p)
    return {
        "dims": [a.dim, b.dim],
        "result": hom_dim(a, b),
        "method": "enumerated",
    }, 0


def _cmd_specht_decomposable(args: argparse.Namespace) -> Payload:
    module = build_specht(args.lam, args.p)
    return {
        "dims": [module.dim],
        "result": is_decomposable(module),
        "method": "enumerated",
    }, 0


def _cmd_specht_h0(args: argparse.Namespace) -> Payload:
    result = h0_dim(args.lam, args.p)
    return {
        "dims": [hook_length_dim(args.lam)],
        "result": result,
        "method": "enumerated",
    }, 0


def _run_scan(which: str, inputs: Dict[str, Any]) -> SearchReport:
    name, keys = _SCANS[which]
    scan = getattr(search, name)  # at call time, so a wrapper on the module sees it
    return scan(*(Partition(inputs[k]) if k == "lambda" else inputs[k] for k in keys))


def _cmd_search(args: argparse.Namespace) -> Payload:
    inputs = {**vars(args), "lambda": getattr(args, "lam", None)}
    report = _run_scan(args.which, inputs)
    return report, 2 if report.counterexamples else 0


# ---------------------------------------------------------------- fixtures


def _eval_fixture(fx: Dict[str, Any]) -> Any:
    kind = fx["kind"]
    inputs = fx["inputs"]
    if kind == "mull":
        image = mullineux_map(Partition(inputs["lambda"]), inputs["p"])
        if inputs.get("conjugate"):
            image = image.conjugate()
        return _parts(image)
    if kind == "tau":
        return _parts(tau(inputs["n"], inputs["p"]))
    if kind == "ks":
        lam, mu = Partition(inputs["lam"]), Partition(inputs["mu"])
        return 0 if ks_ext1_witness(inputs["p"], lam, mu) is None else 1
    if kind == "murphy":
        d, r = inputs["d"], inputs["r"]
        return {
            "end_dim": murphy_end_dim(d, r),
            "indecomposable": murphy_indecomposable(d, r),
        }
    if kind == "h0":
        return h0_failed_row(Partition(inputs["lambda"]), inputs["p"]) is None
    if kind == "specht":
        p, lam, wanted = inputs["p"], Partition(inputs["lambda"]), fx["expected"]
        out: Dict[str, Any] = {}
        if "invariants" in wanted:
            out["invariants"] = h0_dim(lam, p)
        if wanted.keys() - {"invariants"}:
            module = build_specht(lam, p)
            if "hom_dim" in wanted:
                out["hom_dim"] = hom_dim(module, build_specht(Partition(inputs["mu"]), p))
            if "decomposable" in wanted:
                out["decomposable"] = is_decomposable(module)
            if "end_dim" in wanted:
                out["end_dim"] = len(end_ring(module))
        return out
    # _check_fixture leaves no other kind than search
    report = _run_scan(inputs["search"], inputs)
    out = {"hit_count": len(report.hits), "counterexamples": len(report.counterexamples)}
    if "pairs" in fx["expected"]:
        out["pairs"] = sorted([h["a"], h["b"]] for h in report.hits)
    if "hit_lambdas" in fx["expected"]:
        out["hit_lambdas"] = [h["lambda"] for h in report.hits]
    return {key: out[key] for key in fx["expected"]}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# what each fixture input must be, by name, whatever the kind
_INPUT_TYPES: Dict[str, Tuple[str, Callable[[Any], bool]]] = {
    **dict.fromkeys(("p", "n", "d", "r", "max_b"), ("an integer", _is_int)),
    **dict.fromkeys(
        ("lambda", "lam", "mu"),
        ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
    ),
    "conjugate": ("a boolean", lambda v: isinstance(v, bool)),
    "search": ("a string", lambda v: isinstance(v, str)),
}
# fixture kind -> (required inputs, optional inputs); a search fixture also
# needs the inputs of the scan it names
_FIXTURE_INPUTS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "mull": (("lambda", "p"), ("conjugate",)),
    "tau": (("n", "p"), ()),
    "ks": (("p", "lam", "mu"), ()),
    "murphy": (("d", "r"), ()),
    "h0": (("lambda", "p"), ()),
    "specht": (("lambda", "p"), ("mu",)),
    "search": (("search",), ()),
}
# the keys an expected dict may hold, for the kinds that expect a dict
_EXPECTED_KEYS = {
    "specht": ("hom_dim", "decomposable", "invariants", "end_dim"),
    "search": ("hit_count", "counterexamples", "pairs", "hit_lambdas"),
}
# the scans whose hits carry what a search fixture's pairs or hit_lambdas read
_HIT_FIELDS = {"pairs": {"multi-twist"}, "hit_lambdas": set(_SCANS) - {"multi-twist", "census"}}


def _check_fixture(fx: Any, index: int) -> None:
    """Reject a fixture whose id, kind, inputs or expected value is missing or mistyped."""
    if not isinstance(fx, dict):
        raise TwistlabError(f"fixture at index {index} is not a JSON object")
    name = fx.get("id")
    label = repr(name) if isinstance(name, str) else f"at index {index}"
    for key, kind in (("id", str), ("kind", str), ("inputs", dict)):
        if not isinstance(fx.get(key), kind):
            raise TwistlabError(f"fixture {label}: {key!r} must be a {kind.__name__}")
    if "expected" not in fx:
        raise TwistlabError(f"fixture {label}: no 'expected' value")
    kind, inputs = fx["kind"], fx["inputs"]
    if kind not in _FIXTURE_INPUTS:
        raise TwistlabError(f"fixture {label}: unknown fixture kind {kind!r}")
    required, optional = _FIXTURE_INPUTS[kind]
    if kind == "search":
        which = inputs.get("search")
        if not isinstance(which, str) or which not in _SCANS:
            raise TwistlabError(f"fixture {label}: unknown search {which!r}")
        required += _SCANS[which][1]
    for key, value in inputs.items():
        if key not in required + optional:
            raise TwistlabError(f"fixture {label}: a {kind} fixture takes no input {key!r}")
        what, holds = _INPUT_TYPES[key]
        if not holds(value):
            raise TwistlabError(f"fixture {label}: input {key!r} must be {what}")
    for key in required:
        if key not in inputs:
            raise TwistlabError(f"fixture {label}: missing input {key!r}")
    if kind in _EXPECTED_KEYS:
        allowed = _EXPECTED_KEYS[kind]
        expected = fx["expected"]
        if not isinstance(expected, dict) or not expected or not set(expected) <= set(allowed):
            raise TwistlabError(
                f"fixture {label}: 'expected' must be a non-empty dict with keys from"
                f" {', '.join(allowed)}"
            )
        if kind == "specht" and ("mu" in inputs) != ("hom_dim" in expected):
            raise TwistlabError(
                f"fixture {label}: a specht fixture takes 'mu' exactly when it expects 'hom_dim'"
            )
        for key in sorted(expected.keys() & _HIT_FIELDS.keys()):
            if inputs["search"] not in _HIT_FIELDS[key]:
                raise TwistlabError(f"fixture {label}: a {inputs['search']} search has no {key!r}")


def _cmd_verify(args: argparse.Namespace) -> Payload:
    if args.file is not None:
        try:
            text = open(args.file, encoding="utf-8").read()
        except (OSError, UnicodeDecodeError) as exc:
            raise TwistlabError(str(exc))
    else:
        text = resources.files("twistlab").joinpath("data/fixtures.json").read_text("utf-8")
    if text.strip() == "":
        fixtures = []
    else:
        try:
            fixtures = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TwistlabError(f"fixtures parse error at line {exc.lineno}: {exc.msg}")
    if not isinstance(fixtures, list):
        raise TwistlabError("fixtures file must hold a JSON list")
    seen = set()
    for index, fx in enumerate(fixtures):
        _check_fixture(fx, index)
        if fx["id"] in seen:
            raise TwistlabError(f"duplicate fixture id {fx['id']!r}")
        seen.add(fx["id"])
    failures = []
    for fx in fixtures:
        try:
            got = _eval_fixture(fx)
        except TwistlabError as exc:
            raise type(exc)(f"fixture {fx['id']!r}: {exc}") from exc
        if got == fx["expected"]:
            print(f"ok   {fx['id']}", file=sys.stderr)
        else:
            failures.append(fx["id"])
            print(f"FAIL {fx['id']}: expected {fx['expected']!r}, got {got!r}", file=sys.stderr)
    payload = {
        "checked": len(fixtures),
        "passed": len(fixtures) - len(failures),
        "failed": failures,
    }
    return payload, 1 if failures else 0


# ---------------------------------------------------------------- rendering


def _flatten(value: Any) -> str:
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, separators=(",", ":"))
    return "" if value is None else str(value)


def _render_csv(payload: Any) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if isinstance(payload, SearchReport):
        rows = [("hit", h) for h in payload.hits]
        rows += [("counterexample", c) for c in payload.counterexamples]
        columns: list = []
        for _, record in rows:
            for key in record:
                if key not in columns:
                    columns.append(key)
        writer.writerow(["kind"] + columns)
        for role, record in rows:
            writer.writerow([role] + [_flatten(record.get(col)) for col in columns])
        return buf.getvalue()
    if not isinstance(payload, dict):
        payload = {"value": payload}
    writer.writerow(list(payload))
    writer.writerow([_flatten(v) for v in payload.values()])
    return buf.getvalue()


def _render_table(payload: Any) -> str:
    if isinstance(payload, SearchReport):
        lines = [
            f"search          {payload.search}",
            f"parameters      {_flatten(payload.parameters)}",
            f"scanned         {payload.scanned}",
            f"hits            {len(payload.hits)}",
            f"counterexamples {len(payload.counterexamples)}",
        ]
        lines += [f"  hit {i}: {_flatten(h)}" for i, h in enumerate(payload.hits, 1)]
        lines += [f"  cex {i}: {_flatten(c)}" for i, c in enumerate(payload.counterexamples, 1)]
        return "\n".join(lines) + "\n"
    if not isinstance(payload, dict):
        payload = {"value": payload}
    width = max((len(k) for k in payload), default=0)
    return "".join(f"{k.ljust(width)}  {_flatten(v)}\n" for k, v in payload.items())


def _emit(payload: Any, args: argparse.Namespace) -> None:
    if args.format == "csv":
        text = _render_csv(payload)
    elif args.format == "table":
        text = _render_table(payload)
    else:
        body = payload.to_dict() if isinstance(payload, SearchReport) else payload
        text = json.dumps(body, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise TwistlabError(f"cannot write --out: {exc}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- parser

_INT = {"type": int, "required": True}
_PARTS = {"type": _partition, "required": True, "metavar": "PARTS"}
# argument key -> (flag, add_argument keywords); a key of _SCANS names the same input
_ARGS: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "p": ("--p", _INT),
    "n": ("--n", _INT),
    "d": ("--d", _INT),
    "r": ("--r", _INT),
    "lambda": ("--lambda", {**_PARTS, "dest": "lam"}),
    "lam": ("--lam", _PARTS),
    "mu": ("--mu", _PARTS),
    "max_b": ("--max-b", _INT),
    "beads": ("--beads", {"type": int, "default": None}),
    "show_symbol": ("--show-symbol", {"action": "store_true"}),
    "file": ("file", {"nargs": "?", "default": None}),
}
# command, or "group member" -> (help, handler, argument keys in --help order)
_COMMANDS: Dict[str, Tuple[Optional[str], Handler, Tuple[str, ...]]] = {
    "mull": ("apply the regular-label involution", _cmd_mull, ("p", "lambda", "show_symbol")),
    "tau": ("label of the trivial module", _cmd_tau, ("p", "n")),
    "hat": ("check m(hat) = (p-1)*lambda for distinct parts", _cmd_hat, ("p", "lambda")),
    "symbol": ("rim-removal symbol columns", _cmd_symbol, ("p", "lambda")),
    "abacus": ("bead display, core, and weight", _cmd_abacus, ("p", "lambda", "beads")),
    "ks-ext": ("two-row Ext criterion with digit witness", _cmd_ks_ext, ("p", "lam", "mu")),
    "murphy": ("hook endomorphisms and summands at p=2", _cmd_murphy, ("d", "r")),
    "h0": ("fixed-point congruence test", _cmd_h0, ("p", "lambda")),
    "specht hom": ("dimension of the hom space", _cmd_specht_hom, ("p", "lam", "mu")),
    "specht decomposable": (
        "search for a splitting idempotent", _cmd_specht_decomposable, ("p", "lambda")
    ),
    "specht h0": ("dimension of the fixed-point space", _cmd_specht_h0, ("p", "lambda")),
    # --p first, then the scan's other inputs in _SCANS order
    **{
        f"search {name}": (None, _cmd_search, ("p", *(k for k in keys if k != "p")))
        for name, (_, keys) in _SCANS.items()
    },
    "verify": ("re-run the packaged fixture set", _cmd_verify, ("file",)),
}
# group -> (help, dest of the member's name, metavar)
_GROUPS = {
    "specht": ("linear-algebra oracles", "specht_command", "WHAT"),
    "search": ("exhaustive scans with audited reports", "which", "SCAN"),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # --help shows the docstring without its last paragraph, which is about the source
    parser = _Parser(prog="twistlab", description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    # group -> its subparsers, "" for the top level; a group is added with its first member
    subparsers = {"": parser.add_subparsers(dest="command", required=True, metavar="COMMAND")}
    for name, (help_text, handler, keys) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subparsers:
            group_help, dest, metavar = _GROUPS[group]
            subparsers[group] = subparsers[""].add_parser(group, help=group_help).add_subparsers(
                dest=dest, required=True, metavar=metavar
            )
        # a scan has no help line: argparse would list it with an empty one
        sub = subparsers[group].add_parser(leaf, **({"help": help_text} if help_text else {}))
        for key in keys:
            flag, options = _ARGS[key]
            sub.add_argument(flag, **options)
        sub.add_argument("--format", choices=("json", "csv", "table"), default="json")
        sub.add_argument("--out", metavar="FILE", default=None)
        sub.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, code = args.handler(args)
        _emit(payload, args)
    except TwistlabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
