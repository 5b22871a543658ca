"""Every reference the tests compare toricfib against.  Each docstring
opens with "Checks" and the names it checks; each reaches its answer by
another route, without the package's private helpers, so that agreement
between the two means something."""

import argparse
import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations, product

from toricfib.cli import COMMANDS
from toricfib.errors import DirectionOutsideImageError
from toricfib.fan import Cone
from toricfib.fibration import lct_over_direction
from toricfib.lattice import (
    IntMatrix,
    dot,
    hnf_rows,
    is_zero_vec,
    kernel_basis,
    snf_decompose,
)


def _gauss_jordan(m, rhs):
    """Gauss-Jordan in Fractions on [m | rhs]: the reduced rows, the pivot
    columns, and the product of the pivots signed by the row swaps."""
    work = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(m.rows, rhs, strict=True)]
    pivots = []
    det = Fraction(1)
    for c in range(m.ncols + 1):
        r = len(pivots)
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            det = -det
        det *= work[r][c]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots, det


def gauss_jordan_solve(m, rhs):
    """Checks lattice.Echelon.solve: one exact solution x of m x = rhs over
    Q, free variables set to 0, None when the system is inconsistent, ()
    when m has no rows."""
    if not m.nrows:
        return ()
    work, pivots, _ = _gauss_jordan(m, rhs)
    if m.ncols in pivots:
        return None
    sol = [Fraction(0)] * m.ncols
    for row, c in zip(work, pivots):
        sol[c] = row[-1]
    return tuple(sol)


def gauss_jordan_rank(m) -> int:
    """Checks IntMatrix.rank: the number of Gauss-Jordan pivots."""
    return len(_gauss_jordan(m, [0] * m.nrows)[1])


def gauss_jordan_det(m) -> int:
    """Checks IntMatrix.det: the signed product of the Gauss-Jordan pivots
    of a square m, 0 below full rank."""
    if m.nrows != m.ncols:
        raise ValueError("det of non-square matrix")
    _, pivots, det = _gauss_jordan(m, [0] * m.nrows)
    return int(det) if len(pivots) == m.nrows else 0


def smith_kernel_basis(m) -> list:
    """Checks kernel_basis: the columns of V past the nonzero diagonal
    entries of the Smith form U m V = D, in Hermite normal form."""
    _, d, v = snf_decompose(m)
    rank = sum(1 for i in range(min(d.nrows, d.ncols)) if d.rows[i][i] != 0)
    cols = [v.col(j) for j in range(rank, v.ncols)]
    if not cols:
        return []
    h = hnf_rows(IntMatrix.from_rows(cols, ncols=v.ncols))
    return [r for r in h.rows if not is_zero_vec(r)]


def saturation_basis(vectors, length: int) -> list:
    """Checks Cone.span: a basis of the saturation of the span of the given
    vectors in Z^length, the integer kernel of their integer kernel, so
    HNF-reduced, both kernels taken through Smith forms."""
    vectors = [v for v in vectors if not is_zero_vec(v)]
    if not vectors:
        return []
    ker = smith_kernel_basis(IntMatrix.from_rows(vectors, ncols=length))
    return smith_kernel_basis(IntMatrix.from_rows(ker, ncols=length))


def rank_of(vectors, rank) -> int:
    """Checks Cone.dim: the Gauss-Jordan rank of the vectors as rows."""
    return gauss_jordan_rank(IntMatrix.from_rows(vectors, ncols=rank))


def in_cone(vectors, x, k=None) -> bool:
    """Checks Cone.hull and Cone.contains: Caratheodory, x is a nonnegative
    combination of some linearly independent subset of the vectors.  Such
    a subset extends, with zero coefficients, to a basis of their span
    taken from the vectors, so only subsets of that size k, the rank of
    the vectors when not given, are tried; a nonnegative solution over a
    dependent one, free coefficients at 0, is a combination too."""
    if is_zero_vec(x):
        return True
    if not vectors:
        return False
    if k is None:
        k = rank_of(vectors, len(x))
    for subset in combinations(vectors, k):
        sol = gauss_jordan_solve(IntMatrix.from_cols(subset, nrows=len(x)), x)
        if sol is not None and all(c >= 0 for c in sol):
            return True
    return False


def box_complete(fan, box) -> bool:
    """Checks classify_fan: every point of the box [-box, box]^rank lies in
    some maximal cone, by in_cone."""
    gens = [c.gens for c in fan.max_cones]
    return all(any(in_cone(g, x) for g in gens)
               for x in product(range(-box, box + 1), repeat=fan.rank))


def pairwise_fan_offense(fan):
    """Checks validate_fan: the message of the first pair of maximal cones
    whose intersection is one of the two cones, or is not a face of each,
    by Cone.intersect and Cone.is_face_of over every pair; None when there
    is none.  A consistency check built from the program's own public cone
    operations, for fans of any shape, complete or not."""
    for ci, cj in combinations(fan.max_cones, 2):
        inter = ci.intersect(cj)
        if inter.gens in (ci.gens, cj.gens):
            return f"listed maximal cone is contained in another: {ci} vs {cj}"
        if not (inter.is_face_of(ci) and inter.is_face_of(cj)):
            return f"intersection of {ci} and {cj} is not a face of each"
    return None


def in_cone_carriers(f) -> tuple:
    """Checks ToricContraction.cone_carriers: for each source maximal cone,
    the indices of the target maximal cones that hold the image of every
    generator, by in_cone."""
    def image(g):
        return tuple(dot(row, g) for row in f.pi.rows)
    return tuple(frozenset(i for i, t in enumerate(f.target.max_cones)
                           if all(in_cone(t.gens, image(g)) for g in c.gens))
                 for c in f.source.max_cones)


def positive_multiple(u, w):
    """Checks ToricContraction.ray_multiplicities: the integer m > 0 with
    u = m w, if any, for a nonzero w."""
    j = next(k for k, x in enumerate(w) if x != 0)
    m, r = divmod(u[j], w[j])
    if r or m <= 0 or tuple(m * x for x in w) != tuple(u):
        return None
    return m


def rays_over_scan(f) -> dict:
    """Checks ToricContraction.ray_multiplicities and
    fiber_multiplicities_over: each target ray w mapped to the source rays
    v with pi(v) = m w, m > 0, and their m, in ray order, by
    positive_multiple over every source ray."""
    images = [(v, tuple(dot(row, v) for row in f.pi.rows)) for v in f.source.rays]
    return {w: [(v, m) for v, u in images if (m := positive_multiple(u, w))]
            for w in f.target.rays}


def fiber_support_disagreements(f, fiber, box) -> list:
    """Checks general_fiber_and_split: the nonzero points y of the box in
    the coordinates of the kernel basis where the fibre fan's support and
    the source support disagree, at y and at the sum of y_i times the
    i-th kernel basis vector; both supports by in_cone."""
    out = []
    for y in product(range(-box, box + 1), repeat=len(fiber.kernel_basis)):
        if is_zero_vec(y):
            continue
        u = tuple(map(sum, zip(*([c * x for x in k] for c, k in zip(y, fiber.kernel_basis)))))
        if (any(in_cone(c.gens, y) for c in fiber.fiber_fan.max_cones)
                != any(in_cone(c.gens, u) for c in f.source.max_cones)):
            out.append(y)
    return out


def subset_extreme_rays(rank, eqs, ineqs):
    """Checks Cone.cut and Cone.intersect: (primitive extreme rays, sorted;
    lineality basis) of {x : e.x = 0, a.x >= 0}, by a search over subsets
    of the rows.  Each choice of rank - 1 - rank(eqs) inequalities that,
    with the equations, leaves a one-dimensional kernel gives a candidate
    line; a direction on it is a ray when every inequality holds there and
    its tight rows have rank rank - 1."""
    rows = list(eqs) + list(ineqs)
    lineality = kernel_basis(IntMatrix.from_rows(rows, ncols=rank))
    base_rank = rank_of(eqs, rank) if eqs else 0
    need = rank - 1 - base_rank
    if need < 0 or need > len(ineqs):
        return [], lineality
    found = set()
    for subset in combinations(ineqs, need):
        ker = kernel_basis(IntMatrix.from_rows(list(eqs) + list(subset), ncols=rank))
        if len(ker) != 1:
            continue
        for w in (ker[0], tuple(-x for x in ker[0])):
            vals = [dot(a, w) for a in ineqs]
            if any(x < 0 for x in vals) or all(x == 0 for x in vals):
                continue
            tight = list(eqs) + [a for a, val in zip(ineqs, vals) if val == 0]
            if rank_of(tight, rank) == rank - 1:
                found.add(w)
    return sorted(found), lineality


def pulled_back(pi, target):
    """Checks Cone.cut and fibration._direction_rows: (equations,
    inequalities) of the target cone pulled back through pi; a cone cut
    by them is its section over the target."""
    def pull(rows):
        return [tuple(dot(a, col) for col in pi.cols()) for a in rows]
    return pull(target.equations), pull(target.inequalities)


def facet_tree_faces(cone):
    """Checks Cone.face_levels: (dimension, generators) of
    every face, sorted, found by taking facets of facets, each facet with
    its own dual description and echelon, none of the one cone's tight
    masks that Cone.face_levels reads."""
    seen = {cone.gens: cone}
    frontier = [cone]
    while frontier:
        nxt = []
        for c in frontier:
            for a in Cone.hull(cone.rank, c.gens).inequalities:
                f = Cone.hull(cone.rank, [g for g in c.gens if dot(a, g) == 0])
                if f.gens not in seen:
                    seen[f.gens] = f
                    nxt.append(f)
        frontier = nxt
    return sorted((c.dim, c.gens) for c in seen.values())


def _simplices(cone):
    """The simplices of a triangulation adding no rays, as hilbert_candidates
    takes them: those of each facet missing the first ray, joined to it."""
    if cone.is_simplex:
        return [cone.gens]
    apex = cone.gens[0]
    return [s + (apex,) for f in cone.facets if apex not in f.gens for s in _simplices(f)]


def group_points(cone):
    """Checks Cone.hilbert_candidates: the rays plus, for each simplex, the
    nonzero points sum(l_i v_i) with 0 <= l_i < 1, the group
    (saturated span lattice)/<v_i> enumerated in Fractions as the closure
    under addition mod 1 of the coefficient vectors of a span basis, each
    solved by Gauss-Jordan."""
    out = set(cone.gens)
    for simplex in _simplices(cone):
        gmat = IntMatrix.from_cols(simplex, nrows=cone.rank)
        steps = [tuple(x % 1 for x in gauss_jordan_solve(gmat, b)) for b in cone.span]
        group = {(0,) * len(simplex)}
        frontier = list(group)
        while frontier:
            lam = frontier.pop()
            for step in steps:
                nxt = tuple((x + y) % 1 for x, y in zip(lam, step))
                if nxt not in group:
                    group.add(nxt)
                    frontier.append(nxt)
        out.update(tuple(int(x) for x in gmat.apply(lam))
                   for lam in group if any(lam))
    return tuple(sorted(out))


def gauss_jordan_pieces(fan, values):
    """Checks SupportFunction.for_values: the pieces of the support
    function with the given ray values, each from Gauss-Jordan on the
    cone's generator rows; None when some cone has no piece."""
    pieces = []
    for cone in fan.max_cones:
        piece = gauss_jordan_solve(IntMatrix.from_rows(cone.gens, ncols=fan.rank),
                                   [values[fan.ray_index[g]] for g in cone.gens])
        if piece is None:
            return None
        pieces.append(piece)
    return tuple(pieces)


def saturation_cartier_index(fan, pieces):
    """Checks cartier_index: the least common denominator of the pieces on
    the saturation bases of the cone spans."""
    k = 1
    for cone, piece in zip(fan.max_cones, pieces):
        for b in saturation_basis(cone.gens, fan.rank):
            k = math.lcm(k, Fraction(dot(piece, b)).denominator)
    return k


def contains_bends(fan, pieces):
    """Checks divisors.wall_bends: across each wall, the difference of the
    two pieces at a ray of the second cone off the wall, by Cone.contains."""
    out = []
    for wall, i, j in fan.walls:
        other = next(g for g in fan.max_cones[j].gens if not wall.contains(g))
        out.append((wall, dot(pieces[i], other) - dot(pieces[j], other)))
    return out


def rref_class_reduce(fan, coeffs):
    """Checks class_reduce: the class representative with zeros at the
    pivot rays, by subtracting the rows of the reduced row echelon basis
    of the principal subspace, built in Fractions."""
    n = len(fan.rays)
    reducers = []
    for row in ([Fraction(fan.rays[j][i]) for j in range(n)] for i in range(fan.rank)):
        for p, red in reducers:
            row = [a - row[p] * b for a, b in zip(row, red)]
        piv = next((j for j, x in enumerate(row) if x != 0), None)
        if piv is None:
            continue
        row = [a / row[piv] for a in row]
        reducers = [(p, [a - red[piv] * b for a, b in zip(red, row)]) for p, red in reducers]
        reducers.append((piv, row))
    vec = [Fraction(x) for x in coeffs]
    for piv, red in sorted(reducers):
        vec = [a - vec[piv] * b for a, b in zip(vec, red)]
    return tuple(vec)


def scan_mld(pair, box, skip=()):
    """Checks mld_and_eps_check and has_terminal_singularities: the least
    a(u) over the nonzero lattice points u of the support with coordinates
    at most box, leaving out those in skip, with the lexicographically
    least such u."""
    best = None
    for u in product(range(-box, box + 1), repeat=pair.fan.rank):
        if any(u) and u not in skip and pair.fan.support_contains(u):
            val = pair.a_function.value(u)
            if best is None or val < best[0]:
                best = (val, u)
    return best


def scan_lct(pair, f, w, box):
    """Checks lct_box_oracle and lct_over_direction: the least a(u)/m over
    every point u of the box in the support whose image is m w for an
    integer m > 0."""
    w = tuple(int(x) for x in w)
    best = None
    for u in product(range(-box, box + 1), repeat=pair.fan.rank):
        if is_zero_vec(u):
            continue
        image = f.image_of(u)
        m = next(Fraction(a, b) for a, b in zip(image, w) if b)
        if m <= 0 or m.denominator != 1 or any(a != m * b for a, b in zip(image, w)):
            continue
        if not pair.fan.support_contains(u):
            continue
        val = pair.a_function.value(u) / m
        if best is None or val < best:
            best = val
    return best


def scan_delta(pair, f, box):
    """Checks fibration._delta_box_oracle: the exact threshold over every
    primitive direction of the box, with no cone left out."""
    best = None
    for w in product(range(-box, box + 1), repeat=f.target.rank):
        if math.gcd(*w) != 1:
            continue
        try:
            res = lct_over_direction(pair, f, w)
        except DirectionOutsideImageError:
            continue
        if best is None or res.t < best:
            best = res.t
    return best


class _VectorParser(argparse.ArgumentParser):
    """Takes a comma-separated vector with a leading minus, such as -1,0,
    as a value, as the command line does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")


def argparse_reader():
    """Checks cli.main: plain argparse, with a subparser for each command
    of the public table cli.COMMANDS as it stands at the call.  Returns a
    function of argv that gives the namespace, None, "" and "" when
    argparse accepts argv, and otherwise None and the exit code, stdout
    and stderr that argparse gives."""
    parser = _VectorParser(prog="toricfib",
                           description="exact invariants of toric pairs and contractions")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, arguments) in COMMANDS.items():
        command = commands.add_parser(name, help=help_line)
        command.add_argument("--json", action="store_true",
                             help="emit JSON instead of indented text")
        command.add_argument("--out", help="write the report to this file")
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)
        command.set_defaults(handler=handler)

    def read(argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                return parser.parse_args(argv), None, "", ""
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()
    return read
