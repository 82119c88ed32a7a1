"""Finite acyclic quivers: paths, topological order, Dynkin recognition and
positive-root enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Path:
    """A path in the quiver; ``arrows`` is ordered from first to last traversed."""

    source: str
    target: str
    arrows: tuple

    @property
    def length(self) -> int:
        return len(self.arrows)

    def __repr__(self):
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(reversed([a for a in self.arrows]))


class Quiver:
    def __init__(self, vertices: Iterable[str], arrows: Iterable[tuple]):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        arrs = []
        for name, s, t in arrows:
            s, t = str(s), str(t)
            if s not in self.vertices or t not in self.vertices:
                raise ValueError(f"arrow {name} uses unknown vertex")
            arrs.append(Arrow(str(name), s, t))
        if len({a.name for a in arrs}) != len(arrs):
            raise ValueError("duplicate arrow names")
        self.arrows = tuple(arrs)
        self._into = {v: tuple(a for a in arrs if a.target == v) for v in self.vertices}
        self._topo = self._topological_order()
        self._paths = None
        self._paths_into = None

    def _topological_order(self):
        indeg = {v: 0 for v in self.vertices}
        for a in self.arrows:
            indeg[a.target] += 1
        order, queue = [], [v for v in self.vertices if indeg[v] == 0]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for a in self.arrows:
                if a.source == v:
                    indeg[a.target] -= 1
                    if indeg[a.target] == 0:
                        queue.append(a.target)
        if len(order) != len(self.vertices):
            raise ValueError("quiver has an oriented cycle")
        return tuple(order)

    @property
    def topological_order(self):
        return self._topo

    def arrows_into(self, v: str):
        return self._into[v]

    def arrows_out_of(self, v: str):
        return tuple(a for a in self.arrows if a.source == v)

    def paths(self) -> Tuple[Path, ...]:
        """All paths, deterministically ordered by length, then arrow names,
        then source vertex position; includes the length-0 paths e_i.
        Computed once per quiver."""
        if self._paths is None:
            out = [Path(v, v, ()) for v in self.vertices]
            frontier = list(out)
            while frontier:
                nxt = []
                for p in frontier:
                    for a in self.arrows_out_of(p.target):
                        nxt.append(Path(p.source, a.target, p.arrows + (a.name,)))
                out.extend(nxt)
                frontier = nxt
            self._paths = tuple(
                sorted(out, key=lambda p: (p.length, p.arrows, self.vertices.index(p.source)))
            )
        return self._paths

    def paths_into(self, v: str) -> Tuple[Path, ...]:
        """The paths ending at v, in ``paths`` order; computed once per quiver."""
        if self._paths_into is None:
            self._paths_into = {u: tuple(p for p in self.paths() if p.target == u)
                                for u in self.vertices}
        return self._paths_into[v]

    def extend_path(self, arrow: Arrow, p: Path) -> Path:
        if p.target != arrow.source:
            raise ValueError("path and arrow do not compose")
        return Path(p.source, arrow.target, p.arrows + (arrow.name,))

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        changed = True
        while changed:
            changed = False
            for a in self.arrows:
                if (a.source in seen) != (a.target in seen):
                    seen.update((a.source, a.target))
                    changed = True
        return len(seen) == len(self.vertices)

    def underlying_edges(self):
        return [(a.source, a.target) for a in self.arrows]

    def descriptor(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [{"name": a.name, "from": a.source, "to": a.target} for a in self.arrows],
        }

    def __eq__(self, other):
        """Equal vertex lists and arrow lists, in order: equal descriptors."""
        return (isinstance(other, Quiver)
                and (self.vertices, self.arrows) == (other.vertices, other.arrows))

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver({list(self.vertices)}, {[(a.name, a.source, a.target) for a in self.arrows]})"


# -- Dynkin recognition -----------------------------------------------------------


def dynkin_type(q: Quiver) -> Optional[str]:
    """Type of the underlying graph: 'A<k>', 'D<k>', 'E6', 'E7', 'E8', or None.

    Orientation-independent; multigraphs, loops, cycles and branchier trees
    are rejected.  Disconnected input is an error.
    """
    if not q.is_connected():
        raise ValueError("dynkin_type requires a connected quiver")
    k = len(q.vertices)
    edges = q.underlying_edges()
    if any(s == t for s, t in edges):
        return None
    if len(edges) != k - 1:
        return None
    if len({frozenset(e) for e in edges}) != len(edges):
        return None
    deg = {v: 0 for v in q.vertices}
    for s, t in edges:
        deg[s] += 1
        deg[t] += 1
    degs = sorted(deg.values(), reverse=True)
    if degs and degs[0] <= 2:
        return f"A{k}"
    if degs[0] > 3 or degs.count(3) > 1:
        return None
    # one branch vertex of degree 3: measure the three leg lengths
    branch = next(v for v, d in deg.items() if d == 3)
    adj = {v: [] for v in q.vertices}
    for s, t in edges:
        adj[s].append(t)
        adj[t].append(s)
    legs = []
    for start in adj[branch]:
        ln, prev, cur = 1, branch, start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            ln += 1
        legs.append(ln)
    legs.sort()
    if legs[0] == 1 and legs[1] == 1:
        return f"D{k}"
    if legs == [1, 2, 2]:
        return "E6"
    if legs == [1, 2, 3]:
        return "E7"
    if legs == [1, 2, 4]:
        return "E8"
    return None


def positive_roots(q: Quiver):
    """Positive roots of a Dynkin quiver as dimension vectors in the order of
    ``q.vertices``, by closure under the simple reflections of its underlying
    graph; ValueError off Dynkin quivers, where the closure does not end."""
    if dynkin_type(q) is None:
        raise ValueError("positive roots require a Dynkin quiver")
    k = len(q.vertices)
    position = {v: i for i, v in enumerate(q.vertices)}
    adj = [[] for _ in range(k)]
    for s, t in q.underlying_edges():
        adj[position[s]].append(position[t])
        adj[position[t]].append(position[s])

    def reflect(v, i):
        w = list(v)
        w[i] = -v[i] + sum(v[j] for j in adj[i])
        return tuple(w)

    roots = set()
    frontier = set()
    for i in range(k):
        e = tuple(1 if j == i else 0 for j in range(k))
        roots.add(e)
        frontier.add(e)
    while frontier:
        nxt = set()
        for v in frontier:
            for i in range(k):
                w = reflect(v, i)
                if w not in roots and not all(x == 0 for x in w):
                    roots.add(w)
                    nxt.add(w)
        frontier = nxt
    pos = sorted(v for v in roots if all(x >= 0 for x in v))
    return pos


# -- builtin constructors -----------------------------------------------------------


def builtin_quiver(name: str) -> Quiver:
    """Named quivers: 'An-linear:k', 'An:<pattern>', 'Dk', 'kronecker', 'A4-zigzag'."""
    if name.startswith("An-linear:"):
        k = int(name.split(":")[1])
        return Quiver(
            [str(i) for i in range(1, k + 1)],
            [(f"a{i}", str(i), str(i + 1)) for i in range(1, k)],
        )
    if name.startswith("An:"):
        pattern = name.split(":", 1)[1]
        k = len(pattern) + 1
        arrows = []
        for i, c in enumerate(pattern, start=1):
            if c == ">":
                arrows.append((f"a{i}", str(i), str(i + 1)))
            elif c == "<":
                arrows.append((f"a{i}", str(i + 1), str(i)))
            else:
                raise ValueError(f"orientation pattern must use '<' and '>', got {c!r}")
        return Quiver([str(i) for i in range(1, k + 1)], arrows)
    if name == "A4-zigzag":
        return Quiver(
            ["1", "2", "3", "4"],
            [("a", "1", "2"), ("b", "3", "2"), ("c", "3", "4")],
        )
    if name == "kronecker":
        return Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    if name.startswith("D"):
        k = int(name[1:])
        if k < 4:
            raise ValueError("Dk requires k >= 4")
        arrows = [("a1", "1", "3"), ("a2", "2", "3")] + [
            (f"a{i}", str(i), str(i + 1)) for i in range(3, k)
        ]
        return Quiver([str(i) for i in range(1, k + 1)], arrows)
    raise ValueError(f"unknown builtin quiver {name!r}")


def _field(data: dict, key: str, what: str):
    """``data[key]``, else ValueError naming the key and ``what`` lacks it."""
    if key not in data:
        raise ValueError(f"{what} has no {key!r} key")
    return data[key]


def quiver_from_descriptor(desc) -> Quiver:
    """A builtin quiver by name, or a quiver from {"vertices": [names],
    "arrows": [{"name", "from", "to"}]}; malformed fields raise ValueError."""
    if isinstance(desc, str):
        return builtin_quiver(desc)
    if not isinstance(desc, dict):
        raise ValueError(f"quiver descriptor must be a name or an object, not {type(desc).__name__}")
    vertices = _field(desc, "vertices", "quiver descriptor")
    arrows = _field(desc, "arrows", "quiver descriptor")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValueError("quiver vertices must be a list of strings")
    if not isinstance(arrows, list) or not all(isinstance(a, dict) for a in arrows):
        raise ValueError("quiver arrows must be a list of objects")
    triples = [tuple(_field(a, key, f"quiver arrow {k}") for key in ("name", "from", "to"))
               for k, a in enumerate(arrows)]
    if not all(isinstance(x, str) for t in triples for x in t):
        raise ValueError("quiver arrow name, from and to must be strings")
    return Quiver(vertices, triples)
