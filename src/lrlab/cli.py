"""Batch front door.

Subcommands map one-to-one onto library operations and emit either plain
text or the JSON schemas of the library types. Output is byte-deterministic
for a fixed build and input; exit codes: 0 success or PASS, 1 a verification
failed or a claimed witness does not exist, 2 usage error (any other LRLabError
but InternalCheckError, a ValueError or an OSError), 3 budget, memory or
recursion depth exhausted. A reader that closes stdout early (`| head`) is
not an error: the command prints no more, writes nothing to stderr and exits
with its own code.

Each subcommand imports only the layers it runs, when it runs: a cold
`dominance` or `interpolate` loads `errors` and `partitions` alone, and
`power` adds `product` and `powercache` but not `verify` or `cones`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .errors import (
    BudgetExceeded,
    InternalCheckError,
    LRLabError,
    NoDecomposition,
    NotFoundWithin,
)
from .partitions import Partition, dominance_compare, interpolating_sequence

_PARTITION_RE = re.compile(r"\[([0-9]+(,[0-9]+)*)?\]")  # ASCII digits only
_BOUND_NAMES = ("max_weight", "max_l", "max_k", "max_weight_p", "max_shift")
# verify.LEMMA_IDS in its order, spelled out so that building the parser does not
# import verify; tests/test_verify.py keeps the two equal
LEMMA_IDS = (
    "SMALLER",
    "CHI",
    "ATENSORL",
    "EXCHANGE",
    "G_IN_TENSOR",
    "H_IN_TENSOR",
    "H_MULT_P",
    "A_MULT_PP",
    "MULT_PLUS",
    "MULT_INERT",
    "MULT_CIRC",
    "PSEQ",
    "CHI_SYMMETRY",
    "HIGHEST_TERM",
)

# a command's output (a JSON object under --json, else its text lines) and exit code
Output = tuple[dict | list[str], int]


class UsageError(LRLabError):
    pass


def parse_partition(text: str) -> Partition:
    """Bracketed comma-separated decimal parts, e.g. [4,2,1] or []."""
    if not _PARTITION_RE.fullmatch(text):
        raise UsageError(f"bad partition literal {text!r}; expected like [4,2,1] or []")
    inner = text[1:-1]
    return Partition(int(p) for p in inner.split(",")) if inner else Partition()


def _option(bound: str) -> str:
    return "--" + bound.replace("_", "-")


def _element_text(elem) -> list[str]:
    return [f"{p} {m}" for p, m in elem.items()] or ["empty"]


def _cmd_mul(args) -> Output:
    from .product import mul

    prod = mul(parse_partition(args.a), parse_partition(args.b), cap=args.l)
    return (prod.to_json() if args.json else _element_text(prod)), 0


def _cmd_power(args) -> Output:
    from .powercache import PowerCache
    from .product import tensor_power

    cache = None if args.cache is None else PowerCache(args.cache)
    power = tensor_power(parse_partition(args.a), args.n, cap=args.l, cache=cache)
    if cache is not None:
        cache.save()
    return (power.to_json() if args.json else _element_text(power)), 0


def _cmd_dominance(args) -> Output:
    rel = dominance_compare(parse_partition(args.a), parse_partition(args.b))
    return ({"relation": rel.value} if args.json else [rel.value]), 0


def _cmd_interpolate(args) -> Output:
    seq = interpolating_sequence(parse_partition(args.a), parse_partition(args.b))
    if args.json:
        return {"sequence": [list(p.parts) for p in seq]}, 0
    return [str(p) for p in seq], 0


def _cmd_gj(args) -> Output:
    from .subdivisions import Subdivision, all_subdivisions, cone_generator

    a = parse_partition(args.a)
    l = args.l
    if args.mask is not None:
        subs = [Subdivision.from_mask(l, args.mask)]
    else:
        subs = list(all_subdivisions(l))
    rows = [(j, cone_generator(a, j)) for j in subs]
    if not args.json:
        return [f"J={j} G={g}" for j, g in rows], 0
    generators = [
        {"subdivision": [list(iv) for iv in j.intervals], "generator": list(g.parts)}
        for j, g in rows
    ]
    return {"partition": list(a.parts), "l": l, "generators": generators}, 0


def _cmd_hj(args) -> Output:
    from .subdivisions import Subdivision, perturbed_generator, perturbed_generator_raw

    a = parse_partition(args.a)
    j = Subdivision.from_mask(args.l, args.mask)
    given = tuple(v is not None for v in (args.beta, args.delta, args.m, args.n))
    if given not in ((True, True, False, False), (False, False, True, True)):
        raise UsageError("give either --beta and --delta, or --m and --n")
    if args.m is None:
        m, n, h = perturbed_generator(a, j, args.beta, args.delta)
    else:
        m, n = args.m, args.n
        h = perturbed_generator_raw(a, j, m, n)
    if args.json:
        return {"m": m, "n": n, "partition": None if h is None else list(h.parts)}, 0
    return [f"m={m} n={n} H={'not-a-partition' if h is None else h}"], 0


def _cmd_verify(args) -> Output:
    from .verify import default_bounds, verify_all, verify_lemma

    bounds = {k: getattr(args, k) for k in _BOUND_NAMES if getattr(args, k) is not None}
    if args.all and args.lemma:
        raise UsageError("verify takes --lemma ID or --all, not both")
    if args.all:
        reports = verify_all(bounds or None)
    elif args.lemma:
        takes = default_bounds(args.lemma)
        unused = [k for k in bounds if k not in takes]
        if unused:
            raise UsageError(
                f"{args.lemma} does not take {', '.join(map(_option, unused))}; "
                f"its bounds are {', '.join(map(_option, takes))}"
            )
        reports = [verify_lemma(args.lemma, bounds or None)]
    else:
        raise UsageError("verify needs --lemma ID or --all")
    code = 0 if all(r.passed for r in reports) else 1
    if args.json:
        if len(reports) == 1:
            return reports[0].to_json(), code
        return {"reports": [r.to_json() for r in reports]}, code
    lines = []
    for rep in reports:
        lines.append(
            f"{rep.lemma_id}: {rep.status} (cases={rep.cases_checked}, failures={len(rep.failures)})"
        )
        lines.extend(f"  {json.dumps(f)}" for f in rep.failures)
    return lines, code


def _cmd_nsearch(args) -> Output:
    from .search import minimal_uniform_exponent

    res = minimal_uniform_exponent(parse_partition(args.a), args.l, args.nmax)
    return (res.to_json() if args.json else [res.describe()]), 0


def _cmd_cone(args) -> Output:
    from .cones import cone_generator_decomposition, cone_membership

    b = parse_partition(args.b)
    a = parse_partition(args.a)
    cert = cone_membership(b, a, args.l)
    if cert.member and not args.member_only:
        cert = cone_generator_decomposition(b, a, args.l)
    if args.json:
        return cert.to_json(), 0
    if not cert.member:
        return [f"not a member: {cert.reason}"], 0
    lines = [f"member n={cert.n}"]
    if cert.decomposition is not None:
        body = " + ".join(f"{j}*{q}" for j, q in cert.decomposition) or "0"
        lines.append(f"decomposition: {body}")
    return lines, 0


def _cmd_transfer(args) -> Output:
    from .search import transfer_witness

    wit = transfer_witness(
        parse_partition(args.a), parse_partition(args.b), args.d, t_max=args.tmax
    )
    if args.json:
        return wit.to_json(), 0
    sb, sa = wit.checked_support_sizes
    return [f"t={wit.t} M={wit.m_exp} N={wit.n_exp} supports {sb} <= {sa}"], 0


def _cmd_cache(args) -> Output:
    from .powercache import MAGIC, PowerCache

    cache = PowerCache(args.path)
    if args.json:
        return {
            "path": args.path,
            "version": MAGIC,
            "valid": cache.valid_header,
            "entries": len(cache),
        }, 0
    state = "valid" if cache.valid_header else "invalid (rewritten on next save)"
    return [f"{MAGIC} cache {state}: entries={len(cache)}"], 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; changes neither the output nor the work done",
    )

    parser = argparse.ArgumentParser(
        prog="lrlab", description="Exact partition-product engine and verification suites"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", parents=[common], help="product of two partitions")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--l", type=int, default=None, help="length cap (quotient ring)")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("power", parents=[common], help="tensor power of a partition")
    p.add_argument("a")
    p.add_argument("n", type=int)
    p.add_argument("--l", type=int, default=None, help="length cap (quotient ring)")
    p.add_argument("--cache", default=None, help="path of an on-disk power cache")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("dominance", parents=[common], help="compare two partitions")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_dominance)

    p = sub.add_parser("interpolate", parents=[common], help="one-cell chain between comparable partitions")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("gj", parents=[common], help="block-constant cone generators")
    p.add_argument("a")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--mask", type=int, default=None, help="breakpoint bitmask of one subdivision")
    p.set_defaults(func=_cmd_gj)

    p = sub.add_parser("hj", parents=[common], help="cone generator with one cell moved")
    p.add_argument("a")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--mask", type=int, required=True, help="breakpoint bitmask of the subdivision")
    p.add_argument("--beta", type=int, default=None, help="column whose height picks the source block")
    p.add_argument("--delta", type=int, default=None, help="column whose height picks the target block")
    p.add_argument("--m", type=int, default=None, help="raw source block index")
    p.add_argument("--n", type=int, default=None, help="raw target block index")
    p.set_defaults(func=_cmd_hj)

    p = sub.add_parser("verify", parents=[common], help="run verification suites")
    p.add_argument("--lemma", choices=list(LEMMA_IDS), default=None)
    p.add_argument("--all", action="store_true", help="run every suite")
    for name in _BOUND_NAMES:
        p.add_argument(_option(name), dest=name, type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("nsearch", parents=[common], help="uniform exponent threshold over a window")
    p.add_argument("a")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=_cmd_nsearch)

    p = sub.add_parser("cone", parents=[common], help="cone membership and generator decomposition")
    p.add_argument("b", help="candidate member")
    p.add_argument("a", help="partition whose multiples bound the cone")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--member-only", action="store_true", help="skip the decomposition search")
    p.set_defaults(func=_cmd_cone)

    p = sub.add_parser("transfer", parents=[common], help="support containment witness between powers")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--d", type=int, required=True, help="length cap (rank)")
    p.add_argument("--tmax", type=int, default=8)
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("cache", parents=[common], help="inspect an on-disk power cache")
    p.add_argument("path")
    p.set_defaults(func=_cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out, code = args.func(args)
        try:
            if args.json:
                sys.stdout.write(json.dumps(out) + "\n")
            else:
                sys.stdout.writelines(f"{line}\n" for line in out)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone: the interpreter's last flush goes to the null device
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        return code
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except RecursionError:
        print(f"error: recursion deeper than the limit of {sys.getrecursionlimit()} frames", file=sys.stderr)
        return 3
    except (NoDecomposition, NotFoundWithin) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError:
        raise  # a bug, not bad input: keep the traceback
    except (LRLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
