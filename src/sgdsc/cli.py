"""Command-line front end.  All output is JSON; reports are deterministic."""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time

from . import byleen, finite, infinite, relations


def _emit(obj, pretty: bool) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2 if pretty else None))


def _error(message: str, code: int = 2) -> int:
    """Print {"error": message} on stderr and return the exit code."""
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


# ValueError: bad JSON or bytes that are not UTF-8; RecursionError: JSON nested
# past the parser's depth
_LOAD_ERRORS = (OSError, ValueError, RecursionError, finite.SemigroupError)


def _load_table(path: str) -> finite.FiniteSemigroup:
    """Read at most MAX_TABLE_BYTES, so an endless or huge file is refused
    before it fills memory.

    The file is read in 64 KiB chunks: one read of the whole cap would
    allocate 16 MiB for every table, however small.  The bytes are decoded
    as a text-mode ``read()`` decodes them, newlines translated, so JSON
    and UTF-8 error positions stay the same.
    """
    data = bytearray()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            data += chunk
            if len(data) > finite.MAX_TABLE_BYTES:
                raise finite.TooLarge(
                    f"table file exceeds the input cap of {finite.MAX_TABLE_BYTES} bytes")
    return finite.from_json(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))


# ---------------------------------------------------------------------------
# sg check

def cmd_check(args) -> int:
    try:
        s = _load_table(args.path)
    except _LOAD_ERRORS as exc:
        return _error(str(exc))
    t0 = time.perf_counter()
    checks = []

    def add(name, ok, witness=None):
        entry = {"name": name, "pass": bool(ok)}
        if not ok or witness is not None:
            entry["witness"] = witness
        checks.append(entry)

    grp = finite.is_group(s)
    add("group", grp, None if grp else {"identity": finite.identity_index(s)})
    simple = finite.is_simple(s)
    ideal = finite.proper_ideal(s)
    add("simple", simple, None if simple else {"proper_ideal": sorted(ideal)})
    inv = finite.is_inverse(s)
    inverses = (finite.inverses_of(s, x) for x in range(s.order))
    bad = None if inv else next((x, i) for x, i in enumerate(inverses) if len(i) != 1)
    add("inverse", inv, None if inv else {"element": bad[0], "inverses": bad[1]})

    dsc = relations.is_dsc_fast(s)
    dsc_witness = None
    if not dsc:
        ps, failing, strategy = relations.witness_non_dsc(s)
        dsc_witness = relations.witness_json(ps, failing, strategy)
    add("dsc", dsc, dsc_witness)

    if args.brute:
        if s.order > relations.SUBSET_SCAN_MAX_ORDER:
            checks.append({"name": "dsc_brute", "pass": True, "skipped": True,
                           "witness": {"reason": "order exceeds subset-scan bound"}})
        else:
            ok, witness = relations.brute_force_is_dsc(s)
            add("dsc_brute", ok,
                None if ok else {"pairs": witness.sorted_pairs()})

    rep = {"subject": {"path": args.path, "order": s.order}, "checks": checks}
    if args.timing:
        rep["timing"] = round(time.perf_counter() - t0, 6)
    _emit(rep, args.pretty)
    if args.strict and any(not c["pass"] for c in checks):
        return 1
    return 0


# ---------------------------------------------------------------------------
# sg enumerate

def cmd_enumerate(args) -> int:
    top = finite.MAX_ENUMERATION_ORDER
    if not 1 <= args.n <= top:
        return _error(f"enumeration order must be between 1 and {top}")
    if args.oracle and args.n > relations.SUBSET_SCAN_MAX_ORDER:
        return _error(f"--oracle is capped at order {relations.SUBSET_SCAN_MAX_ORDER}, "
                      "the cap of the subset scan brute_force_is_dsc")
    if args.oracle:
        # group, DSC and the witness strategy are invariant under relabeling,
        # so each class counts n!/|Aut| times
        total = groups = 0
        strategies = {"ideal": 0, "rees-R": 0, "rees-L": 0}
        for s, automorphisms in finite.semigroup_classes(args.n):
            labeled = math.factorial(args.n) // automorphisms
            total += labeled
            fast = relations.is_dsc_fast(s)
            ok, _ = relations.brute_force_is_dsc(s)
            if ok != fast:
                _emit({"disagreement": {"table": [list(r) for r in s.table]}}, args.pretty)
                return 1
            if fast:
                groups += labeled
            else:
                _, _, strategy = relations.witness_non_dsc(s)
                strategies[strategy] += labeled
        _emit({"order": args.n, "tables": total, "groups": groups,
               "oracle": "pass", "witness_strategies": strategies}, args.pretty)
        return 0
    if args.count:
        labeled, classes = finite.count_semigroups(args.n)
        _emit({"order": args.n, "labeled": labeled, "isomorphism_classes": classes},
              args.pretty)
        return 0
    for s in finite.enumerate_semigroups(args.n):
        _emit({"order": args.n, "table": [list(r) for r in s.table]}, args.pretty)
    return 0


# ---------------------------------------------------------------------------
# sg witness

def cmd_witness(args) -> int:
    try:
        s = _load_table(args.path)
    except _LOAD_ERRORS as exc:
        return _error(str(exc))
    if finite.is_group(s):
        _emit({"subject": {"path": args.path, "order": s.order},
               "error": "subject is a group; it is DSC and has no witness"},
              args.pretty)
        return 1
    ps, failing, strategy = relations.witness_non_dsc(s)
    _emit({"subject": {"path": args.path, "order": s.order},
           "witness": relations.witness_json(ps, failing, strategy)}, args.pretty)
    return 0


# ---------------------------------------------------------------------------
# sg byleen

_TOKEN = re.compile(r"^(?:([ab])\(([0-9]+),s([0-9]+)\)|s([0-9]+)|1)$")
_BYLEEN_WORDS = {"eval": 1, "mul": 2, "span": 4, "inverse": 1}


def _base_monoid(name: str) -> finite.FiniteSemigroup:
    if name == "trivial":
        return finite.trivial_monoid()
    return finite.cyclic_group(2)


def _parse_word(m: byleen.TwoTransitiveMatrix, text: str) -> list:
    word = []
    for tok in text.split():
        match = _TOKEN.match(tok)
        if not match:
            raise ValueError(f"bad token {tok!r}")
        kind, n, s, selem = match.groups()
        if kind == "a":
            word.append(byleen.ALetter(int(n), int(s)))
        elif kind == "b":
            word.append(byleen.BLetter(int(n), int(s)))
        elif selem is not None:
            word.append(byleen.SElem(int(selem)))
        else:
            word.append(byleen.SElem(m.identity))
        last = word[-1]
        if last.s >= m.base.order:
            raise ValueError(f"base element out of range in {tok!r}")
    return word


def _parse_letter(m: byleen.TwoTransitiveMatrix, text: str) -> byleen.Letter:
    word = _parse_word(m, text)
    if len(word) != 1:
        raise ValueError(f"expected a single letter, got {text!r}")
    return word[0]


def cmd_byleen(args) -> int:
    want = _BYLEEN_WORDS[args.action]
    if len(args.args) != want:
        words = "1 word" if want == 1 else f"{want} words"
        return _error(f"byleen {args.action} takes {words}, got {len(args.args)}")
    m = byleen.TwoTransitiveMatrix(_base_monoid(args.base))
    try:
        if args.action == "eval":
            nf = byleen.reduce(m, _parse_word(m, args.args[0]))
            _emit({"normal_form": byleen.render(nf)}, args.pretty)
        elif args.action == "mul":
            x = byleen.reduce(m, _parse_word(m, args.args[0]))
            y = byleen.reduce(m, _parse_word(m, args.args[1]))
            _emit({"normal_form": byleen.render(byleen.nf_mul(x, y))}, args.pretty)
        elif args.action == "span":
            g = byleen.reduce(m, _parse_word(m, args.args[0]))
            h = byleen.reduce(m, _parse_word(m, args.args[1]))
            w1 = _parse_letter(m, args.args[2])
            w2 = _parse_letter(m, args.args[3])
            expr = byleen.span_witness(m, g, h, w1, w2)
            factors = []
            for f in expr.factors:
                if f[0] == byleen.GEN:
                    factors.append({"gen": [byleen.render(g), byleen.render(h)]})
                else:
                    factors.append({"diag": byleen.render(f[1])})
            _emit({"case": expr.case, "factors": factors, "verified": True},
                  args.pretty)
        else:  # inverse
            t = byleen.reduce(m, _parse_word(m, args.args[0]))
            inv = byleen.inverse_of(m, t)
            _emit({"element": byleen.render(t), "inverse": byleen.render(inv),
                   "verified": True}, args.pretty)
    except ValueError as exc:
        return _error(str(exc))
    except (byleen.EqualElements, byleen.NotRegularBase, byleen.CertificateError) as exc:
        return _error(str(exc), 1)
    return 0


# ---------------------------------------------------------------------------
# sg models

def cmd_models(args) -> int:
    # looked up on infinite at call time, so a suite rebound there is the one run
    checks = getattr(infinite, infinite.MODELS[args.name].__name__)()
    _emit({"model": args.name, "checks": checks}, args.pretty)
    return 0 if all(c["pass"] for c in checks) else 1


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports argument errors as a JSON object on stderr, with exit code 2.

    Subcommand parsers are built from the same class.
    """

    def error(self, message):
        sys.exit(_error(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a Cayley table and run DSC checks")
    p.add_argument("path")
    p.add_argument("--brute", action="store_true")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--timing", action="store_true")

    p = sub.add_parser("enumerate", help="enumerate small semigroups")
    p.add_argument("n", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--oracle", action="store_true")
    mode.add_argument("--count", action="store_true")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("witness", help="emit a non-DSC witness for a table")
    p.add_argument("path")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("byleen", help="normal forms and certificates")
    p.add_argument("action", choices=list(_BYLEEN_WORDS))
    p.add_argument("args", nargs="*")
    p.add_argument("--base", choices=["c2", "trivial"], default="c2")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("models", help="run an infinite-model witness suite")
    p.add_argument("name", choices=list(infinite.MODELS))
    p.add_argument("--pretty", action="store_true")
    return parser


# built on first use, then reused: once per process, and never at import
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up at call time, so a handler rebound on this module is the one run
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # output still buffered meets a closed pipe here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`sg enumerate 4 | head -1`); point stdout at
        # devnull so the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
