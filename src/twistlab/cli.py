"""Command-line front end: one subcommand per library entry point.

Machine-readable results go to stdout, pictures and per-fixture progress go
to stderr, so output can be piped or written with ``--out``.  Exit codes:
0 success, 1 domain or computation error, 2 a scan surfaced a
counterexample, 64 bad usage.

One table, ``_COMMANDS``, declares every command, the ``search`` scans
generated from ``_SCANS``; one loop builds the parser, once per process.
A row also names the fixture kind it answers, so ``verify`` runs each fixture
through its command's handler; a new invariant is one row plus its function.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from . import search
from .abacus import is_p_by_p, p_core, to_abacus
from .criteria import (
    h0_failed_row,
    ks_ext1_witness,
    murphy_end_dim,
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
    h0_dim,
    hom_dim,
    hook_length_dim,
    is_decomposable,
)

USAGE_ERROR = 64

Inputs = Dict[str, Any]  # by argument key, from the command line or a fixture
Payload = Tuple[Any, int]
Handler = Callable[[Inputs], Payload]


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


def _cmd_mull(inputs: Inputs) -> Payload:
    # the map strips lambda into its symbol; strip once and map from it
    sym = mullineux_symbol(inputs["lambda"], inputs["p"])
    payload: Dict[str, Any] = {
        "p": inputs["p"],
        "input": _parts(inputs["lambda"]),
        "mullineux": _parts(reconstruct_from_symbol(transform_symbol(sym))),
    }
    if inputs.get("show_symbol"):
        payload["symbol"] = _symbol_rows(sym)
    return payload, 0


def _cmd_tau(inputs: Inputs) -> Payload:
    return _parts(tau(inputs["n"], inputs["p"])), 0


def _cmd_hat(inputs: Inputs) -> Payload:
    hatted = inputs["lambda"].hat(inputs["p"])
    image, expected = mullineux_map(hatted, inputs["p"]), inputs["lambda"].scale(inputs["p"] - 1)
    return {
        "p": inputs["p"],
        "lambda": _parts(inputs["lambda"]),
        "hat": _parts(hatted),
        "mullineux_of_hat": _parts(image),
        "expected": _parts(expected),
        "holds": image == expected,
    }, 0


def _cmd_symbol(inputs: Inputs) -> Payload:
    return {
        "p": inputs["p"],
        "lambda": _parts(inputs["lambda"]),
        **_symbol_rows(mullineux_symbol(inputs["lambda"], inputs["p"])),
    }, 0


def _cmd_abacus(inputs: Inputs) -> Payload:
    display = to_abacus(inputs["lambda"], inputs["p"], inputs["beads"])
    block = p_core(inputs["lambda"], inputs["p"])
    for row in display.picture():
        print(row, file=sys.stderr)
    return {
        "p": inputs["p"],
        "lambda": _parts(inputs["lambda"]),
        "beta": list(display.beta),
        "core": _parts(block.core),
        "weight": block.weight,
        "p_by_p": is_p_by_p(inputs["lambda"], inputs["p"]),
    }, 0


def _cmd_ks_ext(inputs: Inputs) -> Payload:
    witness = ks_ext1_witness(inputs["p"], inputs["lam"], inputs["mu"])
    return {
        "inputs": {"p": inputs["p"], "lam": _parts(inputs["lam"]), "mu": _parts(inputs["mu"])},
        "result": 0 if witness is None else 1,
        "certificate": witness,
    }, 0


def _cmd_murphy(inputs: Inputs) -> Payload:
    end_dim = murphy_end_dim(inputs["d"], inputs["r"])
    summands = murphy_summand_count(inputs["d"], inputs["r"])
    return {
        "inputs": {"d": inputs["d"], "r": inputs["r"]},
        "result": {"end_dim": end_dim, "indecomposable": summands == 1},
        "certificate": {"summands": summands},
    }, 0


def _cmd_h0(inputs: Inputs) -> Payload:
    row = h0_failed_row(inputs["lambda"], inputs["p"])
    return {
        "inputs": {"p": inputs["p"], "lambda": _parts(inputs["lambda"])},
        "result": row is None,
        "certificate": row,
    }, 0


def _cmd_specht_hom(inputs: Inputs) -> Payload:
    a = build_specht(inputs["lam"], inputs["p"])
    # End of one module is read from its cached ring
    b = a if inputs["mu"] == inputs["lam"] else build_specht(inputs["mu"], inputs["p"])
    return {
        "dims": [a.dim, b.dim],
        "result": hom_dim(a, b),
        "method": "enumerated",
    }, 0


def _cmd_specht_decomposable(inputs: Inputs) -> Payload:
    module = build_specht(inputs["lambda"], inputs["p"])
    return {
        "dims": [module.dim],
        "result": is_decomposable(module),
        "method": "enumerated",
    }, 0


def _cmd_specht_h0(inputs: Inputs) -> Payload:
    result = h0_dim(inputs["lambda"], inputs["p"])
    return {
        "dims": [hook_length_dim(inputs["lambda"])],
        "result": result,
        "method": "enumerated",
    }, 0


def _cmd_search(inputs: Inputs) -> Payload:
    name, keys, _ = _SCANS[inputs["search"]]
    scan = getattr(search, name)  # at call time, so a wrapper on the module sees it
    report = scan(*(inputs[k] for k in keys))
    return report, 2 if report.counterexamples else 0


# ---------------------------------------------------------------- fixtures


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# what a search fixture's expected keys read off its scan's report
_REPORT_READS: Dict[str, Callable[[SearchReport], Any]] = {
    "hit_count": lambda report: len(report.hits),
    "counterexamples": lambda report: len(report.counterexamples),
    "pairs": lambda report: sorted([h["a"], h["b"]] for h in report.hits),
    "hit_lambdas": lambda report: [h["lambda"] for h in report.hits],
}


def _routes(kind: str, which: Any) -> Dict[Optional[str], Tuple[str, Dict[str, str]]]:
    """Expected key (None: all of it) -> the command that answers it, and the
    fixture input that feeds each input key the fixture names otherwise."""
    if kind == "search":
        return {None: (f"search {which}", {})}
    feeds = {"lam": "lambda"} if kind == "specht" else {}  # S^lambda is a specht fixture's lambda
    routes = {row.expects: (name, feeds) for name, row in _COMMANDS.items() if row.kind == kind}
    if kind == "specht":  # End is Hom with mu = lambda
        routes["end_dim"] = ("specht hom", {**feeds, "mu": "lambda"})
    return routes


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
    kind, inputs, expected = fx["kind"], fx["inputs"], fx["expected"]
    if kind not in {row.kind for row in _COMMANDS.values()}:
        raise TwistlabError(f"fixture {label}: unknown fixture kind {kind!r}")
    which = inputs.get("search")
    if kind == "search" and (not isinstance(which, str) or which not in _SCANS):
        raise TwistlabError(f"fixture {label}: unknown search {which!r}")
    routes = _routes(kind, which)
    # the fixture inputs each route reads, and those that every route reads
    takes = [[feeds.get(k, k) for k in _COMMANDS[command].keys if _ARGS[k][2]]
             for command, feeds in routes.values()]
    everywhere = set(takes[0]).intersection(*takes)
    for key, value in inputs.items():
        if kind == "search" and key == "search":
            continue
        if not any(key in read for read in takes):
            raise TwistlabError(f"fixture {label}: a {kind} fixture takes no input {key!r}")
        what, holds = _ARGS[key][2]
        if not holds(value):
            raise TwistlabError(f"fixture {label}: input {key!r} must be {what}")
    for key in takes[0]:  # an input that only fixtures give, with no flag, may be left out
        if key in everywhere and _ARGS[key][0] and key not in inputs:
            raise TwistlabError(f"fixture {label}: missing input {key!r}")
    if None in routes and kind != "search":
        return  # the expected value is compared whole
    allowed = list(_REPORT_READS) if kind == "search" else list(routes)
    if not isinstance(expected, dict) or not expected or not set(expected) <= set(allowed):
        raise TwistlabError(
            f"fixture {label}: 'expected' must be a non-empty dict with keys from"
            f" {', '.join(allowed)}"
        )
    for key in sorted(set().union(*takes) - everywhere):
        wanting = [e for e, read in zip(routes, takes) if key in read]
        if (key in inputs) != any(e in expected for e in wanting):
            raise TwistlabError(
                f"fixture {label}: a {kind} fixture takes {key!r} exactly when it expects"
                f" {' or '.join(map(repr, wanting))}"
            )
    if kind == "search":
        others = {field for _, _, field in _SCANS.values()} - {None, _SCANS[which][2]}
        for key in sorted(expected.keys() & others):
            raise TwistlabError(f"fixture {label}: a {which} search has no {key!r}")


def _answer(fx: Dict[str, Any]) -> Any:
    """A checked fixture's value, read off the payload of each command it runs."""
    kind, expected = fx["kind"], fx["expected"]
    inputs = {k: Partition(v) if isinstance(v, list) else v for k, v in fx["inputs"].items()}
    routes = _routes(kind, inputs.get("search"))
    got = {}
    for key in [None] if None in routes else expected:
        command, feeds = routes[key]
        row = _COMMANDS[command]
        payload, _ = row.handler({**inputs, **{k: inputs[f] for k, f in feeds.items()}})
        got[key] = payload if row.part is None else payload[row.part]
    if None not in got:
        return got
    if kind == "search":
        return {key: _REPORT_READS[key](got[None]) for key in expected}
    return _parts(Partition(got[None]).conjugate()) if inputs.get("conjugate") else got[None]


def _cmd_verify(inputs: Inputs) -> Payload:
    if inputs["file"] is not None:
        try:
            text = Path(inputs["file"]).read_text(encoding="utf-8")
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
            got = _answer(fx)
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

Check = Tuple[str, Callable[[Any], bool]]
_INT = ({"type": int, "required": True}, ("an integer", _is_int))
_PARTS = ({"type": _partition, "required": True, "metavar": "PARTS"},
          ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))))
# argument key -> (flag, add_argument keywords, the check of a fixture's
# input, None if no fixture gives it); a key of _SCANS names the same input,
# and a key with no flag is one that only a fixture gives, and may leave out
_ARGS: Dict[str, Tuple[Optional[str], Dict[str, Any], Optional[Check]]] = {
    "p": ("--p", *_INT),
    "n": ("--n", *_INT),
    "d": ("--d", *_INT),
    "r": ("--r", *_INT),
    "lambda": ("--lambda", *_PARTS),
    "lam": ("--lam", *_PARTS),
    "mu": ("--mu", *_PARTS),
    "max_b": ("--max-b", *_INT),
    "beads": ("--beads", {"type": int, "default": None}, None),
    "show_symbol": ("--show-symbol", {"action": "store_true"}, None),
    "file": ("file", {"nargs": "?", "default": None}, None),
    "conjugate": (None, {}, ("a boolean", lambda v: isinstance(v, bool))),
}


class _Row(NamedTuple):
    """A command: help line, handler and argument keys in --help order.  A row
    with a fixture ``kind`` compares the payload's ``part`` (None: all of it)
    with a fixture's expected value, or with its key that the row ``expects``."""

    help: Optional[str]
    handler: Handler
    keys: Tuple[str, ...]
    kind: Optional[str] = None
    part: Optional[str] = None
    expects: Optional[str] = None


# command, or "group member" -> its row
_COMMANDS: Dict[str, _Row] = {
    "mull": _Row("apply the regular-label involution", _cmd_mull,
                 ("p", "lambda", "show_symbol", "conjugate"), "mull", "mullineux"),
    "tau": _Row("label of the trivial module", _cmd_tau, ("p", "n"), "tau"),
    "hat": _Row("check m(hat) = (p-1)*lambda for distinct parts", _cmd_hat, ("p", "lambda")),
    "symbol": _Row("rim-removal symbol columns", _cmd_symbol, ("p", "lambda")),
    "abacus": _Row("bead display, core, and weight", _cmd_abacus, ("p", "lambda", "beads")),
    "ks-ext": _Row("two-row Ext criterion with digit witness", _cmd_ks_ext, ("p", "lam", "mu"),
                   "ks", "result"),
    "murphy": _Row("hook endomorphisms and summands at p=2", _cmd_murphy, ("d", "r"),
                   "murphy", "result"),
    "h0": _Row("fixed-point congruence test", _cmd_h0, ("p", "lambda"), "h0", "result"),
    "specht hom": _Row("dimension of the hom space", _cmd_specht_hom, ("p", "lam", "mu"),
                       "specht", "result", "hom_dim"),
    "specht decomposable": _Row("search for a splitting idempotent", _cmd_specht_decomposable,
                                ("p", "lambda"), "specht", "result", "decomposable"),
    "specht h0": _Row("dimension of the fixed-point space", _cmd_specht_h0, ("p", "lambda"),
                      "specht", "result", "invariants"),
    # no help line, which argparse would list empty; --p first, then the
    # scan's other inputs in _SCANS order
    **{
        f"search {name}": _Row(None, _cmd_search, ("p", *(k for k in keys if k != "p")), "search")
        for name, (_, keys, _) in _SCANS.items()
    },
    "verify": _Row("re-run the packaged fixture set", _cmd_verify, ("file",)),
}
# group -> (help, dest of the member's name, metavar)
_GROUPS = {
    "specht": ("linear-algebra oracles", "specht_command", "WHAT"),
    "search": ("exhaustive scans with audited reports", "search", "SCAN"),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    # --help shows the docstring without its last paragraph, which is about the source
    parser = _Parser(prog="twistlab", description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    # group -> its subparsers, "" for the top level; a group is added with its first member
    subparsers = {"": parser.add_subparsers(dest="command", required=True, metavar="COMMAND")}
    for name, row in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subparsers:
            group_help, dest, metavar = _GROUPS[group]
            subparsers[group] = subparsers[""].add_parser(group, help=group_help).add_subparsers(
                dest=dest, required=True, metavar=metavar
            )
        sub = subparsers[group].add_parser(leaf, **({"help": row.help} if row.help else {}))
        for key in row.keys:
            flag, options, _ = _ARGS[key]
            if flag:
                sub.add_argument(flag, **options)
        sub.add_argument("--format", choices=("json", "csv", "table"), default="json")
        sub.add_argument("--out", metavar="FILE", default=None)
        sub.set_defaults(handler=row.handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, code = args.handler(vars(args))
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
