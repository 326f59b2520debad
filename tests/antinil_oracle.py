"""Subspace-object routes for submodule enumeration and anti-nilpotence,
kept as test oracles.

froblab.fmodule holds each graded submodule as a code, one index into
subspace_lattice per point of lattice_points, and decides
anti-nilpotence with one check of each code against the whole module,
returning only the verdict.  These are the loops they replaced: a
depth-first search that holds Subspace objects and tests each constraint
with subspace_contains, and a check over every ordered pair of profiles
that walks every vector of the larger subspace at every interior
multidegree and names the first failing pair and multidegree, the
witness.  The search turns each leaf into a Profile on its own, grouping
the Subspace objects into one set per face; decode turns a code into the
same Profile.  Pure helpers are memoized; that changes no result.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

from box_oracle import neg_support as _neg_support
from element_model import search_space_size
from froblab.errors import CapacityError
from froblab.fmodule import _constraints, lattice_points
from froblab.gfp_linalg import DEFAULT_ENUM_CAP, subspace_lattice
from perp_oracle import contains_vector as _contains_vector
from perp_oracle import subspace_contains, subspace_vectors, zero_subspace


# the searches meet the same few arguments over and over
neg_support = functools.lru_cache(maxsize=None)(_neg_support)
contains = functools.lru_cache(maxsize=None)(subspace_contains)
contains_vector = functools.lru_cache(maxsize=None)(_contains_vector)


@functools.lru_cache(maxsize=None)
def vectors(subspace):
    return tuple(subspace_vectors(subspace))


class AntiNilpotenceWitness(NamedTuple):
    """Frobenius is not injective on larger/smaller at theta."""

    smaller: "Profile"
    larger: "Profile"
    theta: tuple


@dataclass(frozen=True)
class Profile:
    """Graded profile: one subspace of the multiplicity space for each
    multidegree of the working box (zero subspaces omitted).

    stabilized records whether the assignment depends on the multidegree
    only through its negative support; patterns then hold the common
    subspace per face."""

    assignments: tuple
    stabilized: bool
    patterns: tuple

    @property
    def is_zero(self):
        return not self.assignments


def subspace_at(profile, theta, ambient, p):
    for th, s in profile.assignments:
        if th == theta:
            return s
    return zero_subspace(p, ambient)


def profile_contains(large, small, dims, p):
    """Whether large contains small at every multidegree of dims."""
    return all(
        contains(subspace_at(large, theta, ambient, p), subspace_at(small, theta, ambient, p))
        for theta, ambient in dims.items()
    )


def profile_from_assignment(points, assignment):
    nonzero = tuple(
        (theta, s) for theta, s in sorted(assignment.items()) if s.dim > 0
    )
    by_nu = {}
    for theta in points:
        by_nu.setdefault(neg_support(theta), set()).add(assignment[theta])
    stabilized = all(len(vals) == 1 for vals in by_nu.values())
    patterns = ()
    if stabilized:
        patterns = tuple(
            (nu, next(iter(vals)))
            for nu, vals in sorted(by_nu.items())
            if next(iter(vals)).dim > 0
        )
    return Profile(nonzero, stabilized, patterns)


def decode(t, code):
    """The Profile of a code of froblab.fmodule."""
    points = lattice_points(t)
    return profile_from_assignment(
        points,
        {theta: subspace_lattice(t.p, m)[s] for (theta, m), s in zip(points.items(), code)},
    )


def enumerate_by_subspaces(t, cap=DEFAULT_ENUM_CAP):
    points = lattice_points(t)
    order = list(points)
    size = search_space_size(t)
    if size > cap:
        raise CapacityError(f"profile search space of {size.bit_length()} bits exceeds cap {cap}")
    if not points:
        return 1, [Profile((), True, ())]
    cons_by_point = {theta: [] for theta in points}
    position = {theta: k for k, theta in enumerate(order)}
    for src, tgt in _constraints(t, points):
        later = src if position[src] >= position[tgt] else tgt
        cons_by_point[later].append((src, tgt))

    profiles = []
    assignment = {}

    def dfs(k):
        if k == len(order):
            profiles.append(profile_from_assignment(points, assignment))
            return
        theta = order[k]
        for s in subspace_lattice(t.p, points[theta]):
            assignment[theta] = s
            ok = True
            for src, tgt in cons_by_point[theta]:
                if src in assignment and tgt in assignment:
                    if not contains(assignment[tgt], assignment[src]):
                        ok = False
                        break
            if ok:
                dfs(k + 1)
        del assignment[theta]

    dfs(0)
    return len(profiles), profiles


def antinilpotent_by_pairs(t, profiles):
    """Frobenius injective on large/small over the box interior, for
    every nested pair of profiles; the first failure in list order."""
    points = lattice_points(t)
    interior = [
        theta
        for theta in points
        if all(t.p * v >= -t.extension_depth for v in theta)
    ]
    zero = {m: zero_subspace(t.p, m) for m in set(points.values())}
    # each profile's assignments as a map, omitted multidegrees being zero
    at = [dict(prof.assignments) for prof in profiles]
    for small, small_at in zip(profiles, at):
        for large, large_at in zip(profiles, at):
            if small == large or not all(
                contains(large_at.get(th, zero[m]), small_at.get(th, zero[m]))
                for th, m in points.items()
            ):
                continue
            for theta in interior:
                m = points[theta]
                u_small = small_at.get(theta, zero[m])
                u_large = large_at.get(theta, zero[m])
                ptheta = tuple(t.p * v for v in theta)
                if t.zero_frobenius:
                    # zero map: injective on the quotient only if it vanishes
                    if not contains(u_small, u_large):
                        return False, AntiNilpotenceWitness(small, large, theta)
                    continue
                target_small = small_at.get(ptheta, zero[points.get(ptheta, m)])
                for vec in vectors(u_large):
                    if contains_vector(target_small, vec) and not contains_vector(u_small, vec):
                        return False, AntiNilpotenceWitness(small, large, theta)
    return True, None
