"""Batch command-line surface.

Verbs: ``polytope`` (face/counting operations on .lpoly files), ``weyl``
(root-system operations) and ``verify`` (the verification suites).  All
numeric output is exact: integers and p/q rationals, never floats.  Exit
codes: 0 success or verification pass, 1 verification failure, 2 usage or
input error, 3 internal error (an ``internal:`` line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import traceback
from fractions import Fraction

from . import characters, counting, desing, linalg, polyhedra, randgen, rootsys, subdivisions
from .polyhedra import LabelledPolyhedron, LpolyParseError, format_lpoly, format_rational
from .report import Report


def _read_poly(path: str) -> LabelledPolyhedron:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise CliInputError(f"{path}: {e.strerror}") from None
    try:
        return polyhedra.parse_lpoly(text)
    except LpolyParseError as e:
        raise CliInputError(f"{path}: {e}") from None


def _read_subdivision(path: str) -> subdivisions.Subdivision:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise CliInputError(f"{path}: {e.strerror}") from None
    cells = []
    for block in text.split("\n---"):
        if not block.strip():
            continue
        try:
            cell = polyhedra.parse_lpoly(block)
        except LpolyParseError as e:
            raise CliInputError(f"{path}: {e}") from None
        if cells and cell.dim != cells[0].dim:
            raise CliInputError(
                f"{path}: cell {len(cells) + 1} has dim {cell.dim}, cell 1 has dim {cells[0].dim}")
        cells.append(cell)
    if not cells:
        raise CliInputError(f"{path}: no cells")
    return subdivisions.Subdivision(cells[0].dim, cells)


class CliInputError(Exception):
    pass


def _csv_ints(text: str):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise CliInputError(f"expected comma-separated integers, got {text!r}") from None


def _csv_rationals(text: str):
    try:
        return tuple(Fraction(t) for t in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise CliInputError(f"expected comma-separated rationals, got {text!r}") from None


def _fmt_point(p) -> str:
    return ",".join(format_rational(Fraction(x)) for x in p)


def _fmt_matrix(w) -> str:
    return ";".join(",".join(str(x) for x in row) for row in w)


def _root_system(args) -> rootsys.RootSystem:
    try:
        return rootsys.root_system(args.type)
    except ValueError as e:
        raise CliInputError(str(e)) from None


def _check_args(args):
    """Reject counts below 1 (a check of nothing would pass, as would
    reciprocity up to --mmax 0), negative bounds and, for the weyl verbs,
    weights whose length is not the rank; parsed weights replace their text
    on ``args``."""
    for name, least in (("pairs", 1), ("samples", 1), ("count", 1), ("max", 0),
                        ("mmax", int(args.subverb == "reciprocity"))):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise CliInputError(
                f"--{name} must be {'positive' if least else 'nonnegative'}")
    if args.verb == "weyl":
        for flag, name in (("--mu", "mu"), ("--lambda", "lam")):
            if getattr(args, name, None) is not None:
                weight = _csv_ints(getattr(args, name))
                rank = _root_system(args).rank
                if len(weight) != rank:
                    raise CliInputError(
                        f"{flag} needs {rank} entries for {args.type}, got {len(weight)}")
                setattr(args, name, weight)


def _emit(report: Report) -> int:
    print(report.render())
    return 0 if report.ok else 1


# -- polytope verb -------------------------------------------------------------


def cmd_poly_faces(args) -> int:
    P = _read_poly(args.infile)
    for f in P.face_lattice():
        tight = ",".join(str(i) for i in sorted(f.tight))
        print(
            f"face: tight={tight or '-'} dim={f.dim} "
            f"bounded={1 if f.is_bounded else 0} sample={_fmt_point(f.sample)}"
        )
    return 0


def cmd_poly_excess(args) -> int:
    P = _read_poly(args.infile)
    for f in P.face_lattice():
        tight = ",".join(str(i) for i in sorted(f.tight))
        print(f"excess: tight={tight or '-'} value={polyhedra.excess(P, f)}")
    dec = polyhedra.excess_decomposition(P)
    for piece in dec.pieces:
        print(
            f"piece: excess={piece.excess} faces={len(piece.faces)} "
            f"closure_is_face={1 if piece.closure_is_face else 0}"
        )
    if not P.is_empty():
        print(f"depth: {desing.depth(P)}")
    return 0


def cmd_poly_desing(args) -> int:
    P = _read_poly(args.infile)
    trace = desing.canonical_desingularization(P)
    for step in trace.steps:
        vec = " ".join(str(x) for x in step.added.v)
        print(f"step: label {vec} ; {format_rational(step.added.r)}")
    print(format_lpoly(trace.result), end="")
    return 0


def cmd_poly_shift(args) -> int:
    P = _read_poly(args.infile)
    eta = _csv_rationals(args.eta) if args.eta is not None else None
    if eta is not None and len(eta) != len(P.labels):
        raise CliInputError("eta needs one entry per label")
    out = desing.shift_desingularization(P, eta)
    print(format_lpoly(out), end="")
    return 0


def cmd_poly_count(args) -> int:
    P = _read_poly(args.infile)
    region = "interior" if args.interior else "closed"
    print(counting.count_points(P, args.m, region))
    return 0


def cmd_poly_rr(args) -> int:
    P = _read_poly(args.infile)
    char = counting.toric_rr(P, args.m)
    out = characters.format_tcharacter(char)
    if out:
        print(out)
    return 0


def cmd_poly_ehrhart(args) -> int:
    P = _read_poly(args.infile)
    qp = counting.ehrhart_fit(P, args.mmax)
    print(qp.describe())
    return 0


def cmd_poly_reciprocity(args) -> int:
    P = _read_poly(args.infile)
    qp, rows = counting.reciprocity_check(P, args.mmax)
    ok = True
    for m, lhs, rhs, equal in rows:
        ok &= equal
        print(
            f"m: {m} lhs={format_rational(lhs)} rhs={format_rational(rhs)} "
            f"equal={'yes' if equal else 'NO'}"
        )
    print(f"result: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_poly_brion(args) -> int:
    P = _read_poly(args.infile)
    z = _csv_rationals(args.z)
    print(format_rational(counting.brion_evaluate(P, z)))
    return 0


def cmd_poly_minimalize(args) -> int:
    P = _read_poly(args.infile)
    print(format_lpoly(polyhedra.minimalize(P)), end="")
    return 0


def cmd_poly_orders(args) -> int:
    P = _read_poly(args.infile)
    for f in P.face_lattice():
        tight = ",".join(str(i) for i in sorted(f.tight))
        try:
            value = polyhedra.structure_group_order(P, f)
            print(f"order: tight={tight or '-'} value={value}")
        except ValueError:
            print(f"order: tight={tight or '-'} undefined")
    return 0


# -- weyl verb ------------------------------------------------------------------


def cmd_weyl_group(args) -> int:
    R = _root_system(args)
    elems = rootsys.weyl_group(R)
    print(f"order: {len(elems)}")
    for w, l in elems:
        print(f"element: length={l} matrix={_fmt_matrix(w)}")
    return 0


def _word_to_element(R, word: str):
    w = linalg.identity(R.rank)
    if not word:
        return w
    for tok in word.split(","):
        try:
            i = int(tok)
        except ValueError:
            raise CliInputError(f"bad word letter {tok!r}") from None
        if not 1 <= i <= R.rank:
            raise CliInputError(f"word letter {i} out of range 1..{R.rank}")
        w = linalg.mat_mul(w, R.simple_reflections[i - 1])
    return w


def cmd_weyl_action(args) -> int:
    R = _root_system(args)
    w = _word_to_element(R, args.word)
    print(f"result: {_fmt_point(rootsys.affine_action(R, w, args.mu))}")
    return 0


def cmd_weyl_induce(args) -> int:
    R = _root_system(args)
    sign, dom = rootsys.induce(R, args.mu)
    if sign == 0:
        print("0")
    else:
        print(f"{'+' if sign > 0 else '-'} chi {_fmt_point(dom)}")
    return 0


def cmd_weyl_star(args) -> int:
    R = _root_system(args)
    print(_fmt_point(rootsys.star(R, args.mu)))
    return 0


def cmd_weyl_reflect(args) -> int:
    R = _root_system(args)
    out = rootsys.reflect(R, args.lam)
    if out is None:
        print("none")
    else:
        w, result = out
        print(f"w: {_fmt_matrix(w)}")
        print(f"result: {_fmt_point(result)}")
    return 0


def _parse_wall(R, text: str):
    if text in ("", "-", "none"):
        return frozenset()
    support = set()
    for tok in text.split(","):
        try:
            i = int(tok)
        except ValueError:
            raise CliInputError(f"bad wall index {tok!r}") from None
        if not 1 <= i <= R.rank:
            raise CliInputError(f"wall index {i} out of range 1..{R.rank}")
        support.add(i - 1)
    return frozenset(support)


def cmd_weyl_wall(args) -> int:
    R = _root_system(args)
    rho_sigma, w_sigma = rootsys.wall_data(R, _parse_wall(R, args.wall))
    print(f"rho_sigma: {_fmt_point(rho_sigma)}")
    print(f"w_sigma: {_fmt_matrix(w_sigma)}")
    return 0


def cmd_weyl_principal(args) -> int:
    R = _root_system(args)
    pts = [_csv_rationals(part) for part in args.points.split(";")]
    for p in pts:
        if len(p) != R.rank:
            raise CliInputError(
                f"--points needs {R.rank} entries per point for {args.type}, got {len(p)}")
    try:
        support = rootsys.principal_wall(R, pts)
    except ValueError as e:
        raise CliInputError(str(e)) from None
    if support:
        print("support: " + ",".join(str(i + 1) for i in sorted(support)))
    else:
        print("support: -")
    return 0


# -- verify verb -----------------------------------------------------------------


def cmd_verify_vergne(args) -> int:
    return _emit(characters.verify_vergne())


def cmd_verify_clebsch_gordan(args) -> int:
    rep = Report(f"clebsch-gordan up to {args.max}")
    pairs = 0
    for lam in range(args.max + 1):
        for nu in range(args.max + 1):
            sub = characters.verify_product_orbits(lam, nu)
            pairs += 1
            if not sub.ok:
                rep.fail(f"pair: lam={lam} nu={nu}")
    rep.add(f"pairs: {pairs}")
    return _emit(rep)


def cmd_verify_glue(args) -> int:
    if args.delta or args.subdivision:
        if not (args.delta and args.subdivision):
            raise CliInputError("--delta and --subdivision go together")
        delta = _read_poly(args.delta)
        S = _read_subdivision(args.subdivision)
        if delta.dim != S.dim:
            raise CliInputError(
                f"{args.delta}: dim {delta.dim}, but {args.subdivision} has dim {S.dim}")
        if not subdivisions.is_admissible(S, delta):
            rep = Report("gluing counts")
            rep.fail("subdivision not admissible for the polytope")
            return _emit(rep)
        return _emit(subdivisions.glue_count_check(delta, S))
    rng = random.Random(args.seed)
    rep = Report(f"gluing identity on {args.pairs} seeded pairs")
    for i in range(args.pairs):
        k = (i % 3) + 1
        delta, S = randgen.random_glue_pair(rng, k)
        sub = subdivisions.glue_count_check(delta, S)
        if not sub.ok:
            rep.fail(f"pair: {i} dim={k}")
    rep.add(f"pairs: {args.pairs}")
    return _emit(rep)


def cmd_verify_euler(args) -> int:
    if args.subdivision:
        S = _read_subdivision(args.subdivision)
        region = "all"
    else:
        R = _root_system(args)
        lam = _csv_rationals(args.lam)
        S = subdivisions.dual_subdivision(R, lam)
        region = "dominant"
    return _emit(subdivisions.euler_check(S, args.samples, seed=args.seed, region=region))


def cmd_verify_dual_subdivision(args) -> int:
    R = _root_system(args)
    rep = Report(f"dual subdivision {args.type} ({args.count} shift points)")
    for lam in randgen.seeded_dominant_points(R, args.seed, args.count):
        try:
            S = subdivisions.dual_subdivision(R, lam)
        except ValueError as e:
            rep.fail(f"lambda {_fmt_point(lam)}: {e}")
            continue
        sub = subdivisions.validate(S, region="dominant")
        if not sub.ok:
            rep.fail(f"lambda {_fmt_point(lam)}: invalid subdivision")
        ec = subdivisions.euler_check(S, 100, seed=args.seed, region="dominant")
        if not ec.ok:
            rep.fail(f"lambda {_fmt_point(lam)}: euler identity")
        for cell, (sigma, tau) in zip(S.cells, S.walls):
            if R.rank - cell.body_dim() != len(tau) - len(sigma):
                rep.fail(f"lambda {_fmt_point(lam)}: codim mismatch")
    rep.add(f"cells-per-subdivision: {3 ** R.rank}")
    return _emit(rep)


def cmd_verify_quantum_dh(args) -> int:
    rep = Report("quantum DH")
    half = LabelledPolyhedron(1, [
        polyhedra.Label((1,), Fraction(0)), polyhedra.Label((-1,), Fraction(-1, 2)),
    ])
    qp, sub = characters.quantum_dh_check(half, (0,), args.mmax)
    if not sub.ok or qp.period != 2 or qp.degree > 1:
        rep.fail(f"half-interval: period={qp.period} degree={qp.degree}")
    square = LabelledPolyhedron(2, [
        polyhedra.label(1, 0, 0), polyhedra.label(0, 1, 0),
        polyhedra.label(-1, 0, -1), polyhedra.label(0, -1, -1),
    ])
    qp, sub = characters.quantum_dh_check(square, (1, 1), args.mmax)
    if not sub.ok or qp.period != 1 or qp.degree != 2:
        rep.fail(f"square: period={qp.period} degree={qp.degree}")
    tri = LabelledPolyhedron(2, [
        polyhedra.label(1, 0, 0), polyhedra.label(0, 1, 0), polyhedra.label(-1, -2, -2),
    ])
    qp, sub = characters.quantum_dh_check(tri, (0, 0), args.mmax)
    if not sub.ok or 2 % qp.period != 0 or qp.degree > 2:
        rep.fail(f"weighted-triangle: period={qp.period} degree={qp.degree}")
    rep.add(f"mmax: {args.mmax}")
    return _emit(rep)


def cmd_verify_genus(args) -> int:
    rng = random.Random(args.seed)
    rep = Report(f"arithmetic genus localization ({args.pairs} pairs)")
    for i in range(args.pairs):
        k = (i % 3) + 1
        P = randgen.random_lattice_polytope(rng, k)
        xi = randgen.random_generic_direction(rng, P)
        _, count = counting.localized_vertex_multiplicity(P, 1, xi)
        if count != 1:
            rep.fail(f"pair: {i} dim={k} count={count}")
    rep.add(f"pairs: {args.pairs}")
    return _emit(rep)


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lpoly")
    verbs = parser.add_subparsers(dest="verb", required=True)

    poly = verbs.add_parser("polytope", help="operations on .lpoly files")
    sub = poly.add_subparsers(dest="subverb", required=True)

    def poly_cmd(name, func, **extra):
        p = sub.add_parser(name)
        p.add_argument("--in", dest="infile", required=True)
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
        return p

    poly_cmd("faces", cmd_poly_faces)
    poly_cmd("excess", cmd_poly_excess)
    poly_cmd("desing", cmd_poly_desing)
    p = poly_cmd("shift", cmd_poly_shift)
    p.add_argument("--eta", default=None)
    p = poly_cmd("count", cmd_poly_count)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--interior", action="store_true")
    p = poly_cmd("rr", cmd_poly_rr)
    p.add_argument("-m", type=int, required=True)
    p = poly_cmd("ehrhart", cmd_poly_ehrhart)
    p.add_argument("--mmax", type=int, default=None)
    p = poly_cmd("reciprocity", cmd_poly_reciprocity)
    p.add_argument("--mmax", type=int, required=True)
    p = poly_cmd("brion", cmd_poly_brion)
    p.add_argument("--z", required=True)
    poly_cmd("minimalize", cmd_poly_minimalize)
    poly_cmd("orders", cmd_poly_orders)

    weyl = verbs.add_parser("weyl", help="root-system operations")
    wsub = weyl.add_subparsers(dest="subverb", required=True)

    def weyl_cmd(name, func):
        p = wsub.add_parser(name)
        p.add_argument("--type", required=True)
        p.set_defaults(func=func)
        return p

    weyl_cmd("group", cmd_weyl_group)
    p = weyl_cmd("action", cmd_weyl_action)
    p.add_argument("--word", default="")
    p.add_argument("--mu", required=True)
    p = weyl_cmd("induce", cmd_weyl_induce)
    p.add_argument("--mu", required=True)
    p = weyl_cmd("star", cmd_weyl_star)
    p.add_argument("--mu", required=True)
    p = weyl_cmd("reflect", cmd_weyl_reflect)
    p.add_argument("--lambda", dest="lam", required=True)
    p = weyl_cmd("wall", cmd_weyl_wall)
    p.add_argument("--wall", default="")
    p = weyl_cmd("principal", cmd_weyl_principal)
    p.add_argument("--points", required=True)

    verify = verbs.add_parser("verify", help="verification suites")
    vsub = verify.add_subparsers(dest="subverb", required=True)

    p = vsub.add_parser("vergne")
    p.set_defaults(func=cmd_verify_vergne)

    p = vsub.add_parser("clebsch-gordan")
    p.add_argument("--max", type=int, default=6)
    p.set_defaults(func=cmd_verify_clebsch_gordan)

    p = vsub.add_parser("glue")
    p.add_argument("--delta", default=None)
    p.add_argument("--subdivision", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=20)
    p.set_defaults(func=cmd_verify_glue)

    p = vsub.add_parser("euler")
    p.add_argument("--subdivision", default=None)
    p.add_argument("--type", default="A2")
    p.add_argument("--lambda", dest="lam", default="1,1")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_euler)

    p = vsub.add_parser("dual-subdivision")
    p.add_argument("--type", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=5)
    p.set_defaults(func=cmd_verify_dual_subdivision)

    p = vsub.add_parser("quantum-dh")
    p.add_argument("--mmax", type=int, default=12)
    p.set_defaults(func=cmd_verify_quantum_dh)

    p = vsub.add_parser("genus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=50)
    p.set_defaults(func=cmd_verify_genus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        _check_args(args)
        return args.func(args)
    except (CliInputError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a bug: one line naming it and where it was raised
        frame = traceback.extract_tb(e.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        print(f"internal: {type(e).__name__}: {e} ({where})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
