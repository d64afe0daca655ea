"""Batch command-line front end.

Every subcommand emits one self-describing JSON document (or TSV for
the table commands) echoing its resolved configuration and a schema
version.  Exit codes: 0 success, 1 a verification failed (the report,
or for a VerificationError the message on stderr, carries the witness),
2 usage error.

main builds the parser of the one subcommand argv names, from the
COMMANDS table; with no subcommand, an unknown one or --help it builds
all seven.  A run imports only the modules its subcommand executes.  conf-dims,
ss-table and verify-cycle need confcoh, errors, fields, hochschild,
linalg and spectral, imported at the top.  The other subcommands import
their own modules (geometry, partgraph, operads, cases, chainledger)
inside their cmd_ function, so a page-table run neither loads nor
compiles them.
"""

import argparse
import json
import os
import sys

from .confcoh import ParseError, admissible_basis, dim_cohomology, parse_class
from .errors import VerificationError
from .fields import field_by_name
from .hochschild import MAX_ARITY, build_sinha_complex, e2_report
from .spectral import page_ranks

SCHEMA_VERSION = "knotss-output/1"
DEFAULT_SEED = 20260823
MAX_GRAPHS = 2 ** 16  # most graphs one triple-commute run may check


def _at_least(flag, value, low, high=None):
    """Usage error for a bound that would leave nothing to check, or
    that passes the largest supported value high."""
    if value < low:
        raise ValueError("%s must be at least %d, got %d" % (flag, low, value))
    if high is not None and value > high:
        raise ValueError("%s must be at most %d, got %d" % (flag, high, value))


def _seed_default():
    value = os.environ.get("KNOTSS_SEED", "").strip()
    try:
        return int(value) if value else DEFAULT_SEED
    except ValueError:
        raise ValueError("KNOTSS_SEED must be an integer, got %r" % value) from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_conf_dims(args):
    # the expected side enumerates the admissible monomials: 0.05 s up
    # to arity 8, 0.46 s at arity 9
    _at_least("--max-arity", args.max_arity, 1, MAX_ARITY)
    field_by_name(args.field)  # validated only: the dimensions are over Z
    rows, ok = [], True
    for p in range(1, args.max_arity + 1):
        dims = [dim_cohomology(p, q) for q in range(p)]
        want = [len(admissible_basis(p, q)) for q in range(p)]
        ok = ok and dims == want
        rows.append({"p": p, "dims": dims, "expected": want})
    return {"rows": rows}, ok


def cmd_ss_table(args):
    # the verdict reads d_r for r >= 2 only, and below arity 4 no such
    # d_r has a nonzero source and a nonzero target (arity 4 has
    # (-4, 2) -> (-2, 1) on E_2)
    _at_least("--r-max", args.r_max, 2)
    _at_least("--max-arity", args.max_arity, 4, MAX_ARITY)
    F = field_by_name(args.field)
    C = build_sinha_complex(args.max_arity, F, normalized=args.normalized)
    try:
        pages = page_ranks(C, args.r_max)
    except VerificationError as exc:
        return {"error": str(exc)}, False
    out, nonzero = [], []
    for page in pages:
        slots = {}
        for (mp, q), e in sorted(page.table.items()):
            slots["%d,%d" % (mp, q)] = {"dim": e["dim"],
                                        "d_rank": e["d_rank"],
                                        "target": "%d,%d" % e["target"]}
            if page.r >= 2 and e["d_rank"]:
                nonzero.append({"r": page.r, "slot": [mp, q],
                                "rank": e["d_rank"]})
        out.append({"r": page.r, "slots": slots})
    return {"pages": out, "nonzero_higher": nonzero}, not nonzero


def cmd_verify_cycle(args):
    # E_2 at arity p needs the d_1 columns out of arity p + 1, whose
    # monomials pass MAX_ARITY when p does
    _at_least("--arity", args.arity, 1, MAX_ARITY - 1)
    F = field_by_name(args.field)
    x = parse_class(getattr(args, "class"), args.arity, F)
    rep = e2_report(x)
    coords = rep["coordinates"]
    return {"is_d1_cycle": rep["is_cycle"],
            "is_d1_boundary": rep["is_boundary"],
            "dim_e2": rep["dim_e2"],
            "e2_coordinates": None if coords is None
            else [str(c) for c in coords]}, True


def cmd_ledger(args):
    from .cases import _load_cases, run_case
    from .chainledger import ZeroFacts
    specs = _load_cases()
    names = sorted(specs) if args.case == "all" else [args.case]
    if not set(names) <= set(specs):
        raise ValueError("unknown case %r" % args.case)
    facts = ZeroFacts.load()
    reports = [run_case(name, facts, specs) for name in names]
    return {"cases": reports}, all(r["pass"] for r in reports)


def cmd_ainf_check(args):
    from .operads import d_squared_report
    _at_least("--max-arity", args.max_arity, 2)
    F = field_by_name(args.field)
    rep = d_squared_report(args.max_arity, F)
    return rep, rep["pass"]


def cmd_triple_commute(args):
    from .partgraph import (count_graphs, discrete_partition,
                            enumerate_partitions, verify_commutation)
    _at_least("--n", args.n, 1, 8)
    if args.max_edges is not None:
        _at_least("--max-edges", args.max_edges, 0)
    partitions = ([discrete_partition(args.n)] if args.discrete_only
                  else enumerate_partitions(args.n))
    graphs = sum(count_graphs(P, args.max_edges) for P in partitions)
    if graphs > MAX_GRAPHS:
        raise ValueError("--n %d needs %d graphs, more than %d; bound them "
                         "with --max-edges" % (args.n, graphs, MAX_GRAPHS))
    F = field_by_name(args.field)
    rep = verify_commutation(args.n, F, discrete_only=args.discrete_only,
                             max_edges=args.max_edges)
    return rep, rep["pass"]


def cmd_geom(args):
    from .geometry import ALL_LEMMAS, check_lemma
    _at_least("--samples", args.samples, 1)
    # only geom reads KNOTSS_SEED, so no other subcommand fails on it
    if args.seed is None:
        args.seed = _seed_default()
    names = ALL_LEMMAS if args.lemma == "all" else (args.lemma,)
    if not set(names) <= set(ALL_LEMMAS):
        raise ValueError("unknown lemma %r" % args.lemma)
    reports = [check_lemma(name, samples=args.samples, seed=args.seed)
               for name in names]
    return {"lemmas": reports}, all(r["pass"] for r in reports)


# ---------------------------------------------------------------------------
# plumbing


def _add_common(sp):
    sp.add_argument("--format", choices=("json", "tsv"), default="json")
    sp.add_argument("--config", default=None,
                    help="key=value file of flag defaults")
    sp.add_argument("--output", default=None, help="write here, not stdout")


_BOOL = argparse.BooleanOptionalAction

# name -> (help, the subcommand's own flags with their add_argument
# keywords, cmd_ function)
COMMANDS = {
    "conf-dims": ("cohomology dimension table", {
        "--max-arity": dict(type=int, default=7),
        "--field": dict(default="q")}, cmd_conf_dims),
    "ss-table": ("spectral sequence pages", {
        "--max-arity": dict(type=int, default=5),
        "--field": dict(default="f3"), "--r-max": dict(type=int, default=3),
        "--normalized": dict(action=_BOOL, default=True)}, cmd_ss_table),
    "verify-cycle": ("first-page cycle verdict", {
        "--class": dict(required=True),
        "--arity": dict(type=int, required=True),
        "--field": dict(default="f2")}, cmd_verify_cycle),
    "ledger": ("run the checked-in chain cases", {
        "--case": dict(default="all")}, cmd_ledger),
    "ainf-check": ("d squared on the tree differential", {
        "--max-arity": dict(type=int, default=6),
        "--field": dict(default="f2")}, cmd_ainf_check),
    "triple-commute": ("merge maps against the Cech differential", {
        "--n": dict(type=int, default=4), "--field": dict(default="q"),
        "--discrete-only": dict(action=_BOOL, default=False),
        "--max-edges": dict(type=int, default=None)}, cmd_triple_commute),
    "geom": ("geometric lemma sampling harnesses", {
        "--lemma": dict(default="all"),
        "--samples": dict(type=int, default=200),
        "--seed": dict(type=int, default=None)}, cmd_geom),
}


def build_parser(command=None):
    """The parser with only the subparser of command when it names one,
    else with all of them (no command, an unknown one, or --help).  A
    lone subparser keeps the full list of names as the usage line's
    metavar, so every usage line reads as with the full tree."""
    ap = argparse.ArgumentParser(prog="knotss", description=__doc__)
    one = command in COMMANDS
    sub = ap.add_subparsers(dest="command", required=True, metavar=(
        "{%s}" % ",".join(COMMANDS) if one else None))
    for name in [command] if one else COMMANDS:
        text, flags, fn = COMMANDS[name]
        sp = sub.add_parser(name, help=text)
        for flag, keywords in flags.items():
            sp.add_argument(flag, **keywords)
        sp.set_defaults(fn=fn)
        _add_common(sp)
    return ap


def _config_path(argv):
    """The last value given as "--config PATH" or "--config=PATH"."""
    path = None
    for flag, value in zip(argv, argv[1:] + [None]):
        if flag == "--config":
            path = value
        elif flag.startswith("--config="):
            path = flag[len("--config="):]
    return path


def _read_config(path):
    extra = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("bad config line %r" % line)
            key, value = (s.strip() for s in line.split("=", 1))
            if value.lower() == "true":
                extra.append("--" + key)
            elif value.lower() == "false":
                extra.append("--no-" + key)
            else:
                extra.extend(("--" + key, value))
    return extra


def _echo_config(args):
    skip = {"fn", "command", "config", "output"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _tsv_lines(command, report):
    if command == "conf-dims":
        for row in report["rows"]:
            yield "\t".join([str(row["p"])] + [str(d) for d in row["dims"]])
    elif command == "ss-table" and "error" not in report:
        for page in report["pages"]:
            for slot, e in sorted(page["slots"].items()):
                yield "\t".join((str(page["r"]), slot, str(e["dim"]),
                                 str(e["d_rank"])))
    else:
        for k, v in sorted(report.items()):
            yield "%s\t%s" % (k, json.dumps(v, sort_keys=True, default=str))


def _join_class(argv):
    """argv with each "--class" joined to the argument after it, so that
    a class opening with a sign ("--class -g12") is not read as a flag."""
    out = []
    for a in argv:
        if out and out[-1] == "--class":
            out[-1] = "--class=" + a
        else:
            out.append(a)
    return out


def main(argv=None):
    argv = _join_class(sys.argv[1:] if argv is None else argv)
    try:
        # read before the one full parse, so the file can give required
        # flags; its values go first, so the command line overrides them
        config = _config_path(argv)
        if config:
            argv = _join_class(argv[:1] + _read_config(config) + argv[1:])
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        if args.config != config:
            raise ValueError("write --config in full, as --config PATH "
                             "or --config=PATH")
        report, ok = args.fn(args)
        doc = {"schema": SCHEMA_VERSION, "command": args.command,
               "config": _echo_config(args), "report": report, "pass": ok}
        if args.format == "tsv":
            text = "\n".join(_tsv_lines(args.command, report)) + "\n"
        else:
            text = json.dumps(doc, sort_keys=True, indent=1, default=str) + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except SystemExit as exc:
        return 2 if exc.code else 0
    except VerificationError as exc:
        print("error: verification failed: %s" % exc, file=sys.stderr)
        return 1
    except (ParseError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
