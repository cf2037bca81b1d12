"""Command-line front end.

Subcommands: cohomology, basis, tensor, search, verify.  Exit codes:
0 success, 1 usage error (including unsupported family/degree pairs and
output paths that cannot be written), 2 verification failure, 3
exhaustive search refused for size.

Output is stable `key: value` lines; timings go to stderr so stdout is
byte-deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .groups import parse_group_spec
from .model import builtin_model, model_generators
from .reduction import check_basis_size, default_mode, full_cocycle_basis
from .search import (SearchSpace, SpanTooLargeError, default_workers,
                     enumerate_span, tensor_of_combination)
from .tensor import tensor_to_json, tensor_to_text
from .verify import run_verify

USAGE_ERROR, VERIFY_FAILURE, SEARCH_REFUSED = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> _Parser:
    p = _Parser(prog="cocyred", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp):
        sp.add_argument("--group", required=True,
                        help="group spec: g1:t, g2:t, d4t:t or cyclic:t")
        sp.add_argument("--degree", required=True, type=int,
                        help="cohomology degree n")

    sp = sub.add_parser("cohomology", help="print model dims, ranks and dim H^n")
    common(sp)

    sp = sub.add_parser("basis", help="emit representative and coboundary cochains")
    common(sp)
    sp.add_argument("--mode", choices=("all", "normalized"), default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("tensor", help="emit the tensor of one basis combination")
    common(sp)
    sp.add_argument("--combo", required=True,
                    help="comma-separated labels, e.g. c4,c7,c10,c13 or r1,c2")
    sp.add_argument("--mode", choices=("all", "normalized"), default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("search", help="enumerate the span and count Hadamard hits")
    common(sp)
    sp.add_argument("--test", required=True,
                    choices=("improper", "proper", "hadamard2d"))
    sp.add_argument("--mode", choices=("all", "normalized"), default=None)
    sp.add_argument("--workers", type=int, default=None,
                    help="defaults to $COCYRED_WORKERS or 1")
    sp.add_argument("--sample", type=int, default=None, metavar="K",
                    help="sampled mode: draw K combinations")
    sp.add_argument("--seed", type=int, default=0,
                    help="sampled mode: nonnegative generator seed")
    sp.add_argument("--dump", default=None, help="write witnesses as JSON")
    sp.add_argument("--max-witnesses", type=int, default=1024)

    sp = sub.add_parser("verify", help="run the invariant suite")
    common(sp)
    return p


def _parse_combo(text: str) -> list[str]:
    labels = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.startswith(("rep:", "cob:")):
            labels.append(token)
        elif token[0] in "rc" and token[1:].isdigit():
            labels.append(("rep:" if token[0] == "r" else "cob:") + token[1:])
        else:
            raise ValueError(f"bad combo token {token!r}; use rN / cT")
    return labels


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = parse_group_spec(args.group)
        n = args.degree
        # refuse a model whose basis `full_cocycle_basis` would refuse
        # before it is built
        check_basis_size(spec.order, n, model_generators(spec, n))
        if args.command == "verify":
            return _cmd_verify(spec, args)
        mode = getattr(args, "mode", None) or default_mode(n)
        out = full_cocycle_basis(builtin_model(spec, n), n, mode=mode)
        if args.command == "cohomology":
            return _cmd_cohomology(spec, out, args)
        if args.command == "basis":
            return _cmd_basis(spec, mode, out, args)
        if args.command == "tensor":
            return _cmd_tensor(out, args)
        return _cmd_search(spec, out, args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _cmd_cohomology(spec, out, args) -> int:
    n = args.degree
    # the Smith forms keep the shapes of d^(n-1) (q x r) and d^n (r x s)
    (q, r), s = out.snf_lower.D.shape, out.snf_upper.D.shape[1]
    print(f"group: {spec}")
    print(f"degree: {n}")
    print(f"q: {q}")
    print(f"r: {r}")
    print(f"s: {s}")
    print(f"l: {out.snf_lower.rank}")
    print(f"k: {out.snf_upper.rank}")
    print(f"dim H^{n} = {out.hdim}")
    return 0


def _cmd_basis(spec, mode, out, args) -> int:
    entries = out.basis.entries
    if args.format == "json":
        doc = {"group": str(spec), "degree": args.degree, "mode": mode,
               "entries": [{"label": lab, "bits": [int(b) for b in c.bits]}
                           for lab, c in entries]}
        _emit(json.dumps(doc) + "\n", args.out)
    else:
        lines = [f"{lab} {''.join(str(int(b)) for b in c.bits)}"
                 for lab, c in entries]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_tensor(out, args) -> int:
    space = SearchSpace.from_reduction(out)
    labels = _parse_combo(args.combo)
    ten = tensor_of_combination(space, labels)
    if args.format == "json":
        _emit(tensor_to_json(ten) + "\n", args.out)
    else:
        _emit(tensor_to_text(ten), args.out)
    return 0


def _cmd_search(spec, out, args) -> int:
    # open the dump first, so that an unwritable path is refused before
    # the walk and before any result line; in append mode, so that a
    # refused walk leaves an existing file as it was
    if not args.dump:
        return _search(spec, out, args, None)
    with open(args.dump, "a") as dump:
        return _search(spec, out, args, dump)


def _search(spec, out, args, dump) -> int:
    n = args.degree
    space = SearchSpace.from_reduction(out)
    if args.test == "improper":
        predicates = ("improper", "proper")
    elif args.test == "proper":
        predicates = ("proper",)
    else:
        predicates = ("hadamard2d",)
    workers = args.workers if args.workers is not None else default_workers()
    try:
        report = enumerate_span(space, predicates, workers=workers,
                                sample_count=args.sample, seed=args.seed,
                                max_witnesses=args.max_witnesses)
    except SpanTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SEARCH_REFUSED
    print(f"group: {spec}")
    print(f"degree: {n}")
    print(f"mode: {report.mode}")
    print(f"basis_size: {space.m}")
    if report.mode == "sampled":
        print(f"seed: {report.seed}")
    print(f"examined: {report.examined}")
    if args.test == "improper":
        print(f"improper: {report.hits['improper']}, "
              f"proper-among-hits: {report.hits['proper']}")
    else:
        print(f"{args.test}: {report.hits[args.test]}")
    print(f"witnesses_kept: {len(report.witnesses)}", file=sys.stderr)
    print(f"quotient_dim: {report.quotient_dim}", file=sys.stderr)
    print("head_pairs:", *report.head_pairs, file=sys.stderr)
    print(f"duration_s: {report.duration:.3f}", file=sys.stderr)
    if dump:
        doc = {"group": str(spec), "degree": n, "test": args.test,
               "mode": report.mode, "seed": report.seed,
               "examined": report.examined, "hits": report.hits,
               "witnesses": [{"mask": w.mask,
                              "labels": space.combo_labels(w.mask),
                              "passed": w.passed}
                             for w in report.witnesses]}
        dump.truncate(0)
        json.dump(doc, dump, indent=1)
    return 0


def _cmd_verify(spec, args) -> int:
    checks = run_verify(spec, args.degree)
    for c in checks:
        print(c.line())
    n_fail = sum(c.status == "FAIL" for c in checks)
    n_warn = sum(c.status == "WARN" for c in checks)
    print(f"verify: {len(checks)} checks, {n_fail} failed, {n_warn} warnings")
    return VERIFY_FAILURE if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
