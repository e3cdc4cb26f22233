"""Group specs, generator validation, window realization, and (S3)."""

import pytest

from forge.cayley import (
    GroupElement,
    GroupKind,
    build_cayley,
    check_S3,
    element_str,
    identity,
    inverse,
    parse_group,
    parse_group_spec,
    parse_perm_file,
    realize_full,
    realize_window,
)
from forge.errors import (
    BadParameter,
    ContainsIdentity,
    KindMismatch,
    NotFinite,
    NotGenerating,
    NotSymmetric,
    WindowOverflow,
)


def test_parse_group_spec_families():
    assert parse_group_spec("zmod:5").finite
    assert realize_full(parse_group_spec("zmod:3,2")).vertex_count == 6
    assert not parse_group_spec("lattice:2").finite
    assert not parse_group_spec("ladder").finite
    assert not parse_group_spec("free:2").finite


@pytest.mark.parametrize(
    "spec", ["zmod:", "zmod:1", "lattice:0", "free:0", "perm:", "dihedral:4"]
)
def test_bad_group_specs(spec):
    with pytest.raises(BadParameter):
        parse_group_spec(spec)


# spec -> (the group's name, its mods or rank, the radius).  A family that
# is another group's shape is named by that group; lattice and free keep
# the spec as typed unless keyword parameters are dropped from it.
GROUP_SPECS = {
    "cycle:05": ("zmod:5", (5,), None),
    "prism:4": ("zmod:4,2", (4, 2), None),
    "zmod:4,2": ("zmod:4,2", (4, 2), None),
    "zmod:04:r=1": ("zmod:04", (4,), 1),
    "lattice:01": ("lattice:01", (0,), None),
    "lattice:01:r=2": ("lattice:1", (0,), 2),
    "ladder": ("ladder", (0, 2), None),
    "ladder:r=3": ("ladder", (0, 2), 3),
    " free:2 ": ("free:2", 2, None),
    "free:02": ("free:02", 2, None),
    "free:02:r=11": ("free:2", 2, 11),
}


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_parse_group_reads_each_family_once(spec):
    name, shape, radius = GROUP_SPECS[spec]
    cg, r = parse_group(spec)
    assert (cg.spec_name, r) == (name, radius)
    assert (cg.kind.rank if cg.kind.family == "free" else cg.kind.mods) == shape
    assert parse_group_spec(spec).generators == cg.generators


def test_parse_group_reads_a_perm_file_path_with_colons(tmp_path):
    path = tmp_path / "a:b.txt"
    path.write_text("(0 1)\n(1 2)\n")
    cg, radius = parse_group(f"perm:{path}:r=2")
    assert (cg.spec_name, radius, realize_full(cg).vertex_count) == (f"perm:{path}", 2, 6)


@pytest.mark.parametrize(
    "spec,message",
    [
        ("zmod:1:r=2", "zmod moduli must all be >= 2: 'zmod:1:r=2'"),
        ("zmod:x:r=2", "bad zmod spec 'zmod:x:r=2'"),
        ("zmod:x:r=y", "'zmod:x:r=y': radius r must be an integer"),
        ("lattice:x:r=y", "'lattice:x:r=y': dimension must be an integer"),
        ("cycle:5:r=2", "'cycle:5:r=2': expected no keyword parameters"),
        ("zmod:4:x=1", "'zmod:4:x=1': expected no keyword parameters other than r=<R>"),
        ("free:2:R=3", "'free:2:R=3': expected no keyword parameters other than r=<R>"),
        ("ladder:", "'ladder:': expected ladder:r=<R>"),
        ("perm:r=1", "'perm:r=1': perm:<file>[:r=<R>]"),
        ("perm:", "perm spec needs a generator file: perm:<path>"),
        ("odd:3", "unknown group spec 'odd:3'"),
    ],
)
def test_malformed_group_specs_name_the_spec_as_given(spec, message):
    with pytest.raises(BadParameter) as info:
        parse_group(spec)
    assert str(info.value) == message


def test_generator_validation():
    z = parse_group_spec("lattice:1")
    kind = z.kind
    two = GroupElement(kind, (2,))
    with pytest.raises(NotGenerating):
        build_cayley(kind, (two, inverse(two)))
    one = GroupElement(kind, (1,))
    with pytest.raises(NotSymmetric):
        build_cayley(kind, (one,))
    with pytest.raises(ContainsIdentity):
        build_cayley(kind, (one, inverse(one), identity(kind)))


def test_build_cayley_refuses_a_generator_of_another_kind():
    """A generator from another group, or no group element at all."""
    kind = parse_group_spec("lattice:1").kind
    one = GroupElement(kind, (1,))
    for stranger in (GroupElement(GroupKind("vector", mods=(5,)), (1,)), (1,)):
        with pytest.raises(KindMismatch, match="^generator kind does not match the group kind$"):
            build_cayley(kind, (one, inverse(one), stranger))


def test_element_str_inverse_pairing():
    z = parse_group_spec("lattice:1")
    for g in z.generators:
        assert element_str(inverse(inverse(g))) == element_str(g)


def test_realize_full_finite():
    pg = realize_full(parse_group_spec("zmod:5"))
    assert pg.vertex_count == 5
    assert tuple(len(pg.spheres[n]) for n in sorted(pg.spheres)) == (1, 2, 2)
    assert not pg.truncated


def test_realize_full_rejects_infinite():
    with pytest.raises(NotFinite):
        realize_full(parse_group_spec("lattice:1"))


def test_window_saturation_detection():
    c8 = parse_group_spec("zmod:8")
    whole = realize_window(c8, 4)
    assert not whole.truncated and whole.cayley.saturated
    assert whole.vertex_count == 8
    partial = realize_window(c8, 3)
    assert partial.truncated and not partial.cayley.saturated
    assert partial.vertex_count == 7 and partial.exact_radius == 3


def test_window_cap():
    with pytest.raises(WindowOverflow):
        realize_window(parse_group_spec("free:2"), 6, cap=100)


def test_window_sphere_sizes_on_lattice():
    pg = realize_window(parse_group_spec("lattice:2"), 4)
    assert tuple(len(pg.spheres[n]) for n in range(5)) == (1, 4, 8, 12, 16)


def test_perm_file_roundtrip(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("(0 1)\n(1 2)\n(2 3)\n")
    gens, degree = parse_perm_file(str(path))
    assert degree == 4 and len(gens) == 3
    cg = parse_group_spec(f"perm:{path}")
    pg = realize_full(cg)
    assert cg.finite and pg.vertex_count == 24
    assert tuple(len(pg.spheres[n]) for n in sorted(pg.spheres)) == (1, 3, 5, 6, 5, 3, 1)


def test_perm_file_requires_symmetric_closure(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("(0 1 2 3 4)\n(0 1)\n")
    with pytest.raises(NotSymmetric):
        parse_group_spec(f"perm:{path}")


def test_perm_file_rejects_garbage(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("(0 0 1)\n")
    with pytest.raises(BadParameter):
        parse_group_spec(f"perm:{path}")


def test_check_S3_on_abelian_groups():
    for spec in ("zmod:6", "lattice:1", "ladder"):
        report = check_S3(parse_group_spec(spec), 3)
        assert report.passed, spec
        assert report.checked > 0
        assert report.witness is None


def test_check_S3_scope_string_mentions_radius():
    report = check_S3(parse_group_spec("zmod:6"), 3)
    assert "3" in report.scope


def test_translated_sphere_oracle_extends_window():
    # sphere queries centered away from the identity are served by
    # translation, so |v| + n <= radius stays answerable at the rim
    from forge.graphs import sphere_at

    pg = realize_window(parse_group_spec("lattice:1"), 6)
    rim = pg.spheres[4][0]
    assert len(sphere_at(pg, rim, 2)) == 2
