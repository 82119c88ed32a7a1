import pytest

from monocat.quiver import (
    Quiver,
    builtin_quiver,
    dynkin_type,
    positive_roots,
    quiver_from_descriptor,
)


def test_paths_a2():
    q = builtin_quiver("An-linear:2")
    ps = q.paths()
    assert len(ps) == 3  # e1, e2, a1
    assert sorted(p.length for p in ps) == [0, 0, 1]


def test_paths_kronecker():
    q = builtin_quiver("kronecker")
    assert len(q.paths()) == 4  # e1, e2, a, b


def test_paths_a3_linear():
    q = builtin_quiver("An-linear:3")
    ps = q.paths()
    assert len(ps) == 6  # 3 trivial + 2 arrows + 1 composite
    assert max(p.length for p in ps) == 2


def test_every_path_factors_uniquely():
    q = builtin_quiver("A4-zigzag")
    ps = q.paths()
    arrows = {a.name: a for a in q.arrows}
    for p in ps:
        if p.length == 0:
            continue
        last = arrows[p.arrows[-1]]
        shorter = [s for s in ps if s.arrows == p.arrows[:-1] and s.source == p.source]
        assert len(shorter) == 1
        assert q.extend_path(last, shorter[0]) == p


def test_cyclic_rejected():
    with pytest.raises(ValueError):
        Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])


def test_dynkin_types():
    assert dynkin_type(builtin_quiver("An-linear:3")) == "A3"
    assert dynkin_type(builtin_quiver("An:><")) == "A3"
    assert dynkin_type(builtin_quiver("A4-zigzag")) == "A4"
    assert dynkin_type(builtin_quiver("D4")) == "D4"
    assert dynkin_type(builtin_quiver("kronecker")) is None
    # acyclic orientation of a triangle: connected but not a tree
    tri = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")])
    assert dynkin_type(tri) is None


def test_dynkin_disconnected_raises():
    q = Quiver(["1", "2"], [])
    with pytest.raises(ValueError):
        dynkin_type(q)


def _e_quiver(k):
    """E_k: arms of 1, 2 and k - 4 vertices, each a path into the branch
    vertex "b", which is listed last."""
    vertices, arrows = [], []
    for j, length in enumerate((1, 2, k - 4)):
        arm = [f"{j}.{i}" for i in range(length)] + ["b"]
        vertices += arm[:-1]
        arrows += [(f"{s}>{t}", s, t) for s, t in zip(arm, arm[1:])]
    return Quiver(vertices + ["b"], arrows)


@pytest.mark.parametrize("k", range(1, 9))
def test_positive_roots_type_a_count(k):
    assert len(positive_roots(builtin_quiver(f"An-linear:{k}"))) == k * (k + 1) // 2


def test_positive_roots_d4_and_e6():
    assert len(positive_roots(builtin_quiver("D4"))) == 12
    assert dynkin_type(_e_quiver(6)) == "E6"
    assert len(positive_roots(_e_quiver(6))) == 36


def test_positive_roots_e7_and_e8():
    assert dynkin_type(_e_quiver(7)) == "E7" and dynkin_type(_e_quiver(8)) == "E8"
    assert len(positive_roots(_e_quiver(7))) == 63
    assert len(positive_roots(_e_quiver(8))) == 120


def test_roots_a3_vectors():
    roots = positive_roots(builtin_quiver("An-linear:3"))
    assert len(roots) == 6
    assert tuple([1, 1, 1]) in {tuple(r) for r in roots}


def test_roots_follow_the_vertex_order():
    """The vertices 2, 1, 3 of the path 1 - 2 - 3: the middle vertex comes
    first, so (1, 1, 0) and (1, 0, 1) are roots and (0, 1, 1) is not."""
    q = Quiver(["2", "1", "3"], [("a", "1", "2"), ("b", "2", "3")])
    assert positive_roots(q) == [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]


def test_positive_roots_reject_non_dynkin():
    with pytest.raises(ValueError):
        positive_roots(builtin_quiver("kronecker"))


@pytest.mark.parametrize("desc,message", [
    ({"vertices": ["1"]}, "quiver descriptor has no 'arrows' key"),
    ({"arrows": []}, "quiver descriptor has no 'vertices' key"),
    ({"vertices": ["1", "2"], "arrows": [{"from": "1", "to": "2"}]},
     "quiver arrow 0 has no 'name' key"),
    ({"vertices": ["1", "2"], "arrows": [{"name": "a", "from": "1", "to": "2"},
                                         {"name": "b", "from": "1"}]},
     "quiver arrow 1 has no 'to' key"),
])
def test_quiver_descriptor_names_a_missing_key(desc, message):
    with pytest.raises(ValueError, match=message):
        quiver_from_descriptor(desc)


def test_descriptor_roundtrip():
    q = builtin_quiver("A4-zigzag")
    assert quiver_from_descriptor(q.descriptor()) == q


BUILTIN_NAMES = ["An-linear:1", "An-linear:2", "An-linear:3", "An-linear:5", "An:<>", "An:><<",
                 "A4-zigzag", "kronecker", "D4", "D6"]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_quivers_compare_by_vertices_and_arrows(name):
    q = builtin_quiver(name)
    copy = quiver_from_descriptor(q.descriptor())
    assert copy is not q and copy == q and hash(copy) == hash(q)
    assert copy != q.descriptor()
    for v in q.vertices:
        assert q.arrows_into(v) == tuple(a for a in q.arrows if a.target == v)
        assert q.paths_into(v) == tuple(p for p in q.paths() if p.target == v)
        assert q.arrows_into(v) is q.arrows_into(v) and q.paths_into(v) is q.paths_into(v)
    if q.arrows:
        desc = q.descriptor()
        desc["arrows"][-1]["name"] += "'"
        assert quiver_from_descriptor(desc) != q
    # the same vertices listed in another order make another quiver
    if len(q.vertices) > 1:
        desc = q.descriptor()
        desc["vertices"].reverse()
        assert quiver_from_descriptor(desc) != q


def test_orientation_pattern():
    q = builtin_quiver("An:<>")
    names = {(a.source, a.target) for a in q.arrows}
    assert names == {("2", "1"), ("2", "3")}
