"""Replay of every published worked example against this implementation.

Each entry recomputes one claimed value from scratch in exact arithmetic
and compares it with the printed claim.  Two printed values are known
errata (the tree jump law and the geometric Rayleigh certificate on the
integer line); they are reported as mismatches, never patched over.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import cayley as cy
from .fixtures import resolve_spec
from .graphs import check_assumptions
from .hypergroup import (
    associativity_defect,
    build_table,
    check_S1,
    check_S2,
    check_distance_regular,
    classify,
    sphere_sizes,
)
from .matrices import (
    _image,
    _product_row,
    _rows,
    irreducibility,
    norm_sq,
    uniform_norm_bound,
)
from .walks import (
    joint_distance_law,
    jump_distribution,
    left_nested_product,
    markov_check,
)

F = Fraction


class RegressionEntry(NamedTuple):
    """One recomputed claim: expected printed value vs computed value."""

    name: str
    claim: str
    expected: object
    computed: object

    @property
    def match(self) -> bool:
        return self.expected == self.computed


class RegressionReport(NamedTuple):
    entries: tuple

    @property
    def mismatches(self) -> tuple:
        return tuple(e for e in self.entries if not e.match)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_jsonable(self) -> dict:
        return {
            "total": len(self.entries),
            "mismatching": len(self.mismatches),
            "passed": self.passed,
            "entries": list(self.entries),
        }


def paper_regression() -> RegressionReport:
    """Recompute the full worked-example table.  Deterministic, exact."""
    entries = []

    def add(name, claim, expected, computed):
        entries.append(RegressionEntry(name, claim, expected, computed))

    # Shapes of the named constructions.
    k23 = resolve_spec("bipartite:2,3")
    add(
        "k23-shape",
        "the complete bipartite graph on 2+3 vertices has 5 vertices and 6 edges",
        (5, 6),
        (k23.vertex_count, k23.graph.edge_count),
    )
    c4 = resolve_spec("cycle:4")
    add(
        "c4-from-zmod4",
        "Z/4Z with generators {+-1} realizes the 4-cycle",
        (4, 4, (1, 2, 1)),
        (c4.vertex_count, c4.graph.edge_count, sphere_sizes(c4)),
    )
    p3 = resolve_spec("prism:3")
    add(
        "prism3-from-zmod32",
        "Z/3Z + Z/2Z with generators {(+-1,0),(0,1)} realizes the triangular prism",
        (6, 9, (1, 3, 2)),
        (p3.vertex_count, p3.graph.edge_count, sphere_sizes(p3)),
    )
    zline10 = resolve_spec("lattice:1:r=10")
    add(
        "zline-window-spheres",
        "the integer line to radius 10 has 21 vertices with |S_i| = 2 for 1 <= i <= 10",
        (21, tuple(2 for _ in range(10))),
        (zline10.vertex_count, sphere_sizes(zline10)[1:]),
    )

    # Walk conditions on the curated graphs.
    add(
        "c4-s3",
        "the 4-cycle satisfies the sphere-size translation condition",
        True,
        cy.check_S3(c4.cayley.cg, radius=2).passed,
    )
    tree = resolve_spec("tree:binary:12")
    s1_tree = check_S1(tree)
    add(
        "tree-s1",
        "the rooted binary tree fails the first walk condition at i = 1",
        (False, 1),
        (s1_tree.passed, s1_tree.witness[0] if s1_tree.witness else None),
    )
    add(
        "tree-s2",
        "the rooted binary tree satisfies the second walk condition",
        True,
        check_S2(tree).passed,
    )
    zplane = resolve_spec("lattice:2:r=9")
    add(
        "zplane-s1",
        "the square lattice satisfies the first walk condition",
        True,
        check_S1(zplane).passed,
    )
    add(
        "prism3-s2",
        "the triangular prism fails the second walk condition",
        False,
        check_S2(p3).passed,
    )
    fig4 = resolve_spec("figure:4")
    add(
        "figure4-conditions",
        "the diamond graph at its degree-3 base fails both walk conditions",
        (False, False),
        (check_S1(fig4).passed, check_S2(fig4).passed),
    )
    fig3 = resolve_spec("figure:3")
    fig3p = resolve_spec("figure:3:base=w0p")
    add(
        "figure3-s2-bases",
        "the 7-vertex 4-regular graph satisfies the second condition at one "
        "marked base and fails at the other",
        (True, False),
        (check_S2(fig3).passed, check_S2(fig3p).passed),
    )

    # Distance regularity.
    add(
        "petersen-dr",
        "the Petersen graph (odd graph of degree 3) is distance regular",
        True,
        check_distance_regular(resolve_spec("odd:3")).passed,
    )
    add(
        "prism-dr-iff-4",
        "the square prism is distance regular, the triangular prism is not",
        (True, False),
        (
            check_distance_regular(resolve_spec("prism:4")).passed,
            check_distance_regular(p3).passed,
        ),
    )

    # Structure constants and classification.
    zline = resolve_spec("lattice:1:r=12")
    ztable = build_table(zline, bound=6)
    add(
        "zline-p11",
        "on the integer line x_1 o x_1 = 1/2 x_0 + 1/2 x_2",
        {0: F(1, 2), 2: F(1, 2)},
        ztable.row(1, 1).as_dict(),
    )
    add(
        "zline-product-23",
        "on the integer line x_2 o x_3 = 1/2 x_1 + 1/2 x_5",
        {1: F(1, 2), 5: F(1, 2)},
        ztable.row(2, 3).as_dict(),
    )
    chebyshev = all(
        ztable.row(i, j).as_dict() == (
            {abs(i - j): F(1, 2), i + j: F(1, 2)}
            if i != j
            else {0: F(1, 2), 2 * i: F(1, 2)}
        )
        for i in range(1, 7)
        for j in range(1, 7)
    )
    add(
        "zline-chebyshev-law",
        "the full product law x_i o x_j = 1/2 x_|i-j| + 1/2 x_{i+j} holds "
        "for all 1 <= i, j <= 6",
        True,
        chebyshev,
    )
    k23_report = classify(build_table(k23))
    add(
        "k23-hypergroup",
        "the complete bipartite construction yields a hypergroup",
        "Hypergroup",
        k23_report.verdict,
    )
    ztable2 = build_table(zplane, bound=3)
    plane_report = classify(ztable2)
    defect = associativity_defect(ztable2, 1, 2, 3)
    add(
        "zplane-associativity",
        "the square lattice window is a pre-hypergroup only: "
        "(x_1 o x_2) o x_3 differs from x_1 o (x_2 o x_3)",
        ("PreHypergroupOnly", True),
        (plane_report.verdict, defect[0] != defect[1]),
    )
    tree_table = build_table(tree)
    tree_report = classify(tree_table)
    add(
        "tree-commutativity",
        "the rooted binary tree is a pre-hypergroup only, with a "
        "commutativity violation at (1,2)",
        ("PreHypergroupOnly", False, "commutativity", (1, 2)),
        (
            tree_report.verdict,
            tree_report.commutative,
            tree_report.witness.kind,
            tree_report.witness.indices[:2],
        ),
    )
    add(
        "prism5-hypergroup",
        "the pentagonal prism yields a hypergroup",
        "Hypergroup",
        classify(build_table(resolve_spec("prism:5"))).verdict,
    )

    # Pattern products and jump laws.
    p3_table = build_table(p3)
    add(
        "prism3-pl-121",
        "on the triangular prism PL(1,2,1) = 6/27 x_0 + 10/27 x_1 + 11/27 x_2",
        {0: F(6, 27), 1: F(10, 27), 2: F(11, 27)},
        left_nested_product(p3_table, (1, 2, 1)).as_dict(),
    )
    add(
        "prism3-j-121",
        "on the triangular prism J(1,2,1) = 2/9 x_0 + 1/3 x_1 + 4/9 x_2",
        {0: F(2, 9), 1: F(1, 3), 2: F(4, 9)},
        jump_distribution(p3, (1, 2, 1)).as_dict(),
    )
    add(
        "tree-pl-112",
        "on the rooted binary tree PL(1,1,2) = 1/9 x_0 + 4/9 x_2 + 4/9 x_4",
        {0: F(1, 9), 2: F(4, 9), 4: F(4, 9)},
        left_nested_product(tree_table, (1, 1, 2)).as_dict(),
    )
    add(
        "tree-j-112",
        "on the rooted binary tree J(1,1,2) = 1/6 x_0 + 1/6 x_2 + 2/3 x_4",
        {0: F(1, 6), 2: F(1, 6), 4: F(2, 3)},
        jump_distribution(tree, (1, 1, 2)).as_dict(),
    )
    pl123 = left_nested_product(ztable2, (1, 2, 3), extended=True)
    pl231 = left_nested_product(ztable2, (2, 3, 1), extended=True)
    add(
        "zplane-pl-not-permutable",
        "on the square lattice PL(1,2,3) differs from PL(2,3,1)",
        True,
        pl123 != pl231,
    )

    # Distance process.
    c4_sizes = sphere_sizes(c4)
    joint2 = joint_distance_law(c4.cayley.cg, None, 2)
    add(
        "c4-joint-uniform",
        "on the 4-cycle under the uniform step law "
        "P(Z_1 = i, Z_2 = j) = |S_i| |S_j| / 16",
        {
            (i, j): F(c4_sizes[i] * c4_sizes[j], 16)
            for i in range(3)
            for j in range(3)
        },
        dict(joint2.law),
    )
    c4_markov = markov_check(joint_distance_law(c4.cayley.cg, None, 3))
    p3_markov = markov_check(joint_distance_law(p3.cayley.cg, None, 3))
    add(
        "uniform-iid",
        "finite Cayley walks with the uniform step law have i.i.d. distances",
        (True, True, True, True),
        (c4_markov.is_markov, c4_markov.is_iid, p3_markov.is_markov, p3_markov.is_iid),
    )

    # Transition matrices.
    c6 = resolve_spec("cycle:6")
    c6_table = build_table(c6)
    pattern = (1, 2, 1)
    add(
        "point-mass-through-matrices",
        "the point mass at 0 pushed through the pattern's transition "
        "matrices recovers the jump distribution",
        jump_distribution(c6, pattern).as_dict(),
        _product_row(c6_table, pattern, 0).as_dict(),
    )
    zline24 = resolve_spec("lattice:1:r=24")
    ztable12 = build_table(zline24, bound=12)
    xi = [F(1, 2) ** n for n in ztable12.indices]
    add(
        "zline-rayleigh-geometric",
        "the geometric vector 2^-n certifies a squared Rayleigh quotient "
        "of 3/2 for the first transition matrix on the integer line",
        F(3, 2),
        norm_sq(_image(_rows(ztable12, 1), xi, ztable12.indices).values()) / norm_sq(xi),
    )
    add(
        "zline-uniform-bound",
        "sphere sizes on the integer line are bounded by S = 2, giving "
        "operator bound S^2 = 4",
        (2, 4),
        (lambda ub: (ub.s, ub.bound))(uniform_norm_bound(zline10)),
    )
    add(
        "ladder-uniform-bound",
        "sphere sizes on the ladder are bounded by S = 4, giving operator "
        "bound S^2 = 16",
        (4, 16),
        (lambda ub: (ub.s, ub.bound))(uniform_norm_bound(resolve_spec("ladder:r=5"))),
    )
    c4_table = build_table(c4)
    irr1 = irreducibility(c4_table, 1)
    irr2 = irreducibility(c4_table, 2)
    add(
        "c4-irreducibility",
        "on the 4-cycle P_1 is irreducible while P_2 splits into classes "
        "{0,2} and {1}",
        (True, False, ((0, 2), (1,))),
        (irr1.irreducible, irr2.irreducible, irr2.classes),
    )

    # The exhaustive-search filter on the two large hand-drawn graphs.
    for number in (5, 6):
        pg = resolve_spec(f"figure:{number}")
        add(
            f"figure{number}-filter",
            f"the figure-{number} graph passes assumptions and both walk "
            "conditions and classifies as a hypergroup",
            (True, True, True, "Hypergroup"),
            (
                check_assumptions(pg).passed,
                check_S1(pg).passed,
                check_S2(pg).passed,
                classify(build_table(pg)).verdict,
            ),
        )

    return RegressionReport(tuple(entries))
