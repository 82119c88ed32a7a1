"""Named verification suites: the acceptance criteria A1-A7 and the property
batteries P1-P4, plus the parametrizable rad2-count suite.

Each suite returns a dict with at least {"name", "ok", "details"}; the CLI and
the acceptance tests share these implementations.
"""

from __future__ import annotations

import functools
import json
import random
import time
from importlib import resources
from typing import List

from .base import chain_base, rad2nak_base, stable_base
from .decompose import decompose, is_indecomposable
from .enumerate import (
    DEFAULT_ENUM_BUDGET,
    enumerate_bounded,
    enumerate_mono_rad2,
    kronecker_family,
    p1_points,
    verify_length_vector_table,
)
from .exact import _fp_nilpotent, is_injective_map, solve_left
from .mimo import (
    injective_rep_recognize,
    mimo,
    mo,
    mimo_from_stable,
    stable_lift,
    stable_reduce,
    strip_injective_summands,
    transfer,
)
from .quiver import builtin_quiver, dynkin_type, positive_roots
from .rep import (
    Representation,
    RepMorphism,
    ResidueSpace,
    f_shriek,
    hom_reps,
    in_map_data,
    is_iso_reps,
    is_mono,
    kopf,
    kopf_modules,
    l1_kopf,
    partition_vector,
    random_representation,
    vertex_module,
)
from .serialmod import (
    SerialMorphism,
    hom_space,
    identity_morphism,
    mor_compose,
    morphism,
    serial_module,
)


def _load_data(name: str) -> dict:
    with resources.files("monocat.data").joinpath(name).open() as fh:
        return json.load(fh)


def _result(name, ok, **details):
    return {"name": name, "ok": bool(ok), "details": details}


def _match_classes(computed: List[Representation], reference: List[Representation]):
    """Greedy bijective matching up to isomorphism; returns unmatched lists."""
    remaining = list(reference)
    unmatched = []
    for r in computed:
        hit = None
        for idx, s in enumerate(remaining):
            if is_iso_reps(r, s):
                hit = idx
                break
        if hit is None:
            unmatched.append(r)
        else:
            remaining.pop(hit)
    return unmatched, remaining


# -- A criteria -----------------------------------------------------------------


def suite_a1(seed: int = 0, budget: int = DEFAULT_ENUM_BUDGET) -> dict:
    """Linear A3 over F_2[x]/(x^2): 9 classes, cross-checked exhaustively."""
    base = chain_base("poly", 2, 2)
    quiver = builtin_quiver("An-linear:3")
    report = enumerate_mono_rad2(quiver, base, verify=True)
    ok_counts = report.counts == {"injective": 3, "non_injective": 6}
    bounded = enumerate_bounded(quiver, base, (3, 3, 3), mono_only=True, budget=budget)
    ok_bounded = len(bounded.classes) == 9
    extra, missing = _match_classes([r for r, _ in bounded.classes], [r for r, _ in report.classes])
    ok = ok_counts and ok_bounded and not extra and not missing
    return _result("A1", ok, counts=report.counts, bounded=len(bounded.classes),
                   unmatched_computed=len(extra), unmatched_reference=len(missing))


def suite_a2(seed: int = 0, budget: int = DEFAULT_ENUM_BUDGET) -> dict:
    """Linear A4 over F_2[x]/(x^2): the 10 non-injective classes are the
    one-step interval shapes (ones then twos)."""
    base = chain_base("poly", 2, 2)
    quiver = builtin_quiver("An-linear:4")
    report = enumerate_mono_rad2(quiver, base, verify=True)
    noninj = [r for r, _ in report.classes if injective_rep_recognize(r) is None]
    expected_vectors = set()
    k = 4
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            vec = tuple(0 if v < i else (1 if v <= j else 2) for v in range(1, k + 1))
            expected_vectors.add(vec)
    got = set()
    shapes_ok = True
    for r in noninj:
        vec = tuple(r.modules[v].length() for v in quiver.vertices)
        got.add(vec)
        for v in quiver.vertices:
            if any(base.length(p) not in (1, 2) for p in r.modules[v].parts):
                shapes_ok = False
        if sorted(vec) != list(vec):
            shapes_ok = False
    ok = len(noninj) == 10 and got == expected_vectors and shapes_ok
    return _result("A2", ok, non_injective=len(noninj),
                   vectors=sorted("".join(map(str, v)) for v in got))


def suite_a3(seed: int = 0, budget: int = DEFAULT_ENUM_BUDGET) -> dict:
    """Zigzag A4 over F_2[x]/(x^2): classes match the reference list."""
    from .io import representation_from_json

    base = chain_base("poly", 2, 2)
    quiver = builtin_quiver("A4-zigzag")
    data = _load_data("a4_zigzag_rad2_classes.json")
    golden_inj = [representation_from_json(d, base=base, quiver=quiver) for d in data["injective"]]
    golden_non = [representation_from_json(d, base=base, quiver=quiver) for d in data["non_injective"]]
    report = enumerate_mono_rad2(quiver, base, verify=True)
    computed = [r for r, _ in report.classes]
    extra, missing = _match_classes(computed, golden_inj + golden_non)
    ok = report.counts == {"injective": 4, "non_injective": 10} and not extra and not missing
    return _result("A3", ok, counts=report.counts,
                   unmatched_computed=len(extra), unmatched_reference=len(missing))


@functools.lru_cache(maxsize=None)
def _a4_verify(margin: int, budget: int) -> dict:
    """The length-vector sweep over the A3 table, once per (margin, budget)."""
    base = chain_base("poly", 2, 3)
    quiver = builtin_quiver("An-linear:3")
    table = _load_data("a3_loewy3_length_vectors.json")["vectors"]
    return verify_length_vector_table(quiver, base, table, margin=margin, budget=budget)


def suite_a4(seed: int = 0, budget: int = DEFAULT_ENUM_BUDGET) -> dict:
    """Smoke variant: uniqueness at the reference vectors with all entries <= 3.

    The caps are the hull of the small vectors; extras inside that box are
    reported but not asserted (the full variant asserts them)."""
    base = chain_base("poly", 2, 3)
    quiver = builtin_quiver("An-linear:3")
    table = [v for v in _load_data("a3_loewy3_length_vectors.json")["vectors"]
             if all(x <= 3 for x in v)]
    out = verify_length_vector_table(quiver, base, table, margin=0, budget=budget)
    verdicts = out["verdicts"]
    ok = all(v == "unique" for v in verdicts.values())
    return _result("A4", ok,
                   vectors_checked=len(table),
                   verdicts={"".join(map(str, k)): v for k, v in verdicts.items()},
                   extras_within_small_hull={"".join(map(str, k)): v for k, v in out["extras"].items()})


def suite_a4_full(seed: int = 0, budget: int = DEFAULT_ENUM_BUDGET) -> dict:
    """Full variant: all reference vectors unique and no extras within the
    hull-plus-margin caps."""
    base = chain_base("poly", 2, 3)
    quiver = builtin_quiver("An-linear:3")
    table = _load_data("a3_loewy3_length_vectors.json")["vectors"]
    out = verify_length_vector_table(quiver, base, table, margin=1, budget=budget)
    verdicts = out["verdicts"]
    unique_ok = all(v == "unique" for v in verdicts.values())
    extras = {"".join(map(str, k)): v for k, v in out["extras"].items()}
    ok = unique_ok and not extras
    return _result("A4-full", ok, unique_ok=unique_ok, extras=extras,
                   verdicts={"".join(map(str, k)): v for k, v in verdicts.items()})


def _a2_z8_classes(budget: int) -> List[Representation]:
    base = chain_base("int", 2, 3)
    quiver = builtin_quiver("An-linear:2")
    report = enumerate_bounded(quiver, base, (4, 4), mono_only=True, budget=budget)
    return [r for r, _ in report.classes]


def suite_a5(seed: int = 0, budget: int = DEFAULT_ENUM_BUDGET) -> dict:
    """Transfer between F_2[x]/(x^3) and Z/8: indecomposable, monic,
    partition vectors preserved, and the round trip lands in the same class."""
    failures = []
    checked = 0

    def check(rep, target_base, back_base):
        nonlocal checked
        checked += 1
        out = transfer(rep, target_base)
        if not is_mono(out):
            failures.append(("not mono", repr(rep)))
            return
        if not is_indecomposable(out):
            failures.append(("not indecomposable", repr(rep)))
            return
        pv_out = partition_vector(out)
        if pv_out != partition_vector(rep):
            failures.append(("partition vector changed", repr(rep), str(pv_out)))
            return
        back = transfer(out, back_base)
        if not is_iso_reps(back, rep):
            failures.append(("round trip not isomorphic", repr(rep)))

    poly3 = chain_base("poly", 2, 3)
    int3 = chain_base("int", 2, 3)

    base = chain_base("poly", 2, 3)
    quiver = builtin_quiver("An-linear:3")
    table = _load_data("a3_loewy3_length_vectors.json")["vectors"]
    sweep = _a4_verify(0, budget)
    for vec in table:
        classes = sweep["classes"].get(tuple(vec), [])
        for rep in classes:
            check(rep, int3, poly3)

    for rep in _a2_z8_classes(budget):
        check(rep, poly3, int3)

    return _result("A5", not failures, checked=checked, failures=failures[:10])


def suite_a6(seed: int = 0, budget: int = DEFAULT_ENUM_BUDGET) -> dict:
    """A2 over Z/8: the classification has exactly 10 members: nine monic maps
    between cyclics and the projection-plus-inclusion object.

    The enumeration needs vertex-2 length 4 to contain the tenth class, so it
    runs with caps (4, 4); caps (3, 3) are checked to yield only 9."""
    base = chain_base("int", 2, 3)
    quiver = builtin_quiver("An-linear:2")
    classes = _a2_z8_classes(budget)
    vectors = sorted(tuple(r.modules[v].length() for v in quiver.vertices) for r in classes)
    expected = sorted(
        [(i, j) for j in range(1, 4) for i in range(0, j + 1)] + [(2, 4)]
    )
    special = [r for r in classes
               if r.modules["2"].partition() == (3, 1) and r.modules["1"].partition() == (2,)]
    monic = all(is_injective_map(r.maps["a1"]) for r in classes)
    small = enumerate_bounded(quiver, base, (3, 3), mono_only=True, budget=budget)
    ok = (len(classes) == 10 and vectors == expected and len(special) == 1
          and monic and len(small.classes) == 9)
    return _result("A6", ok, count=len(classes),
                   vectors=["".join(map(str, v)) for v in vectors],
                   capped_33_count=len(small.classes))


def suite_a7(seed: int = 0, budget: int = DEFAULT_ENUM_BUDGET) -> dict:
    """Kronecker families for p in {2,3}, indices n <= 3, each member the
    minimal monic approximation of a classical Kronecker module over F_p
    placed on the stable simple: members are monic, not injective, pairwise
    non-isomorphic and rebuilt up to isomorphism by the approximation of
    their stable image, and the only injective classes are the two
    path-indexed ones."""
    failures = []
    quiver = builtin_quiver("kronecker")
    for p in (2, 3):
        base = chain_base("poly", p, 2)
        members = []
        for n in range(0, 4):
            members.append((f"P{n}", kronecker_family(base, "P", n)))
            members.append((f"I{n}", kronecker_family(base, "I", n)))
        for n in range(1, 4):
            for pt in p1_points(p):
                members.append((f"R{n}@{pt[0]}:{pt[1]}",
                                kronecker_family(base, "R", n, pt)))
        for name, rep in members:
            if not is_mono(rep):
                failures.append((p, name, "not mono"))
                continue
            if injective_rep_recognize(rep) is not None:
                failures.append((p, name, "unexpectedly injective"))
            regen = mimo_from_stable(stable_reduce(rep))
            if not is_iso_reps(regen, rep):
                failures.append((p, name, "generic approximation differs"))
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if is_iso_reps(members[i][1], members[j][1]):
                    failures.append((p, members[i][0], f"isomorphic to {members[j][0]}"))
        for v in ("1", "2"):
            inj = f_shriek(base, quiver, vertex_module(base, quiver, v, serial_module(base, ["M2"])))
            if injective_rep_recognize(inj) is None:
                failures.append((p, f"f_!(injective at {v})", "not recognized"))
    return _result("A7", not failures, failures=failures[:10])


# -- P criteria -----------------------------------------------------------------


def suite_p1(seed: int = 0, budget: int = DEFAULT_ENUM_BUDGET) -> dict:
    """Composition of maps M_a -> M_b -> M_c vs the honest function model,
    exhaustive for n <= 4 and p in {2, 3}, both arithmetic kinds; and the
    stable quotient of the length-3 chain ring has the expected presentation."""
    failures = []
    for p in (2, 3):
        for n in range(1, 5):
            for kind in ("int", "poly"):
                base = chain_base(kind, p, n)
                ring = base.ring
                mods = {a: serial_module(base, [f"M{a}"]) for a in range(1, n + 1)}
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        for c in range(1, n + 1):
                            la, lb, lc = f"M{a}", f"M{b}", f"M{c}"
                            for u in base.hom_elements(la, lb):
                                f = SerialMorphism(mods[a], mods[b], ((u,),))
                                for v in base.hom_elements(lb, lc):
                                    g = SerialMorphism(mods[b], mods[c], ((v,),))
                                    w = mor_compose(g, f).entries[0][0]
                                    # function model on the generator of M_a
                                    img = (u * ring.one).shift_up(max(0, b - a)).truncate(b)
                                    img = (v * img).shift_up(max(0, c - b)).truncate(c)
                                    expect = (w * ring.one).shift_up(max(0, c - a)).truncate(c)
                                    if img != expect:
                                        failures.append((p, n, kind, a, b, c, u.digits, v.digits))
    for kind in ("int", "poly"):
        st = stable_base(chain_base(kind, 2, 3))
        m1, m2 = serial_module(st, ["M1"]), serial_module(st, ["M2"])
        up, down = morphism(m1, m2, [[1]]), morphism(m2, m1, [[1]])
        pres_ok = (
            set(st.labels) == {"M1", "M2"}
            and all(st.hom_length(a, b) == 1 for a in st.labels for b in st.labels)
            and mor_compose(down, up).is_zero()
            and mor_compose(up, down).is_zero()
        )
        if not pres_ok:
            failures.append((kind, "stable presentation"))
    return _result("P1", not failures, failures=failures[:10])


def _p_configs():
    return [
        (chain_base("poly", 2, 2), builtin_quiver("An-linear:2")),
        (chain_base("int", 2, 3), builtin_quiver("An-linear:2")),
        (chain_base("poly", 2, 3), builtin_quiver("A4-zigzag")),
        (rad2nak_base(2, 2), builtin_quiver("An-linear:2")),
    ]


def suite_p2(seed: int = 0, budget: int = DEFAULT_ENUM_BUDGET, samples: int = 500) -> dict:
    """Functor laws on random representations."""
    failures = []
    for base, quiver in _p_configs():
        rng = random.Random(seed)
        for _ in range(samples):
            r = random_representation(base, quiver, rng)
            kernels = l1_kopf(r)
            mono = all(k.is_zero() for k, _ in kernels.values())
            if mono != is_mono(r):
                failures.append(("mono mismatch", repr(r)))
            if not r.is_zero() and all(c.is_zero() for c, _ in kopf(r).values()):
                failures.append(("nonzero with zero top", repr(r)))
            modules = {v: r.modules[v] for v in quiver.vertices}
            fs = f_shriek(base, quiver, modules)
            if kopf_modules(fs) != modules:
                failures.append(("top of induced differs", repr(r)))
            if not all(k.is_zero() for k, _ in l1_kopf(fs).values()):
                failures.append(("induced not mono", repr(r)))
            for v in quiver.vertices:
                total, h, _, _ = in_map_data(fs, v)
                if solve_left(h, identity_morphism(total)) is None:
                    failures.append(("in-map not split", v, repr(r)))
        if failures:
            break
    return _result("P2", not failures, samples=samples, configs=len(_p_configs()),
                   failures=failures[:10])


def suite_p3(seed: int = 0, budget: int = DEFAULT_ENUM_BUDGET, samples: int = 200) -> dict:
    """The minimal monic approximation contract on random representations."""
    failures = []
    configs = [
        (chain_base("poly", 2, 2), builtin_quiver("An-linear:2"), samples),
        (chain_base("int", 2, 3), builtin_quiver("An-linear:2"), max(1, samples // 4)),
    ]
    for base, quiver, count in configs:
        rng = random.Random(seed + 1)
        for _ in range(count):
            r = random_representation(base, quiver, rng)
            m, p = mimo(r)
            if not is_mono(m):
                failures.append(("approximation not mono", repr(r)))
                continue
            # surjectivity: every map from a sampled monic N factors through p
            n = random_representation(base, quiver, rng)
            nm, _ = mimo(n)
            g = hom_reps(nm, r).random(rng)
            if _lift_through(p, g)[1] is None:
                failures.append(("approximation not surjective", repr(r)))
            # minimality: every phi with p o phi = p is an isomorphism.  These
            # phi are 1 + I, I = {psi : p o psi = 0} a right ideal of End(m),
            # so that holds iff I lies in rad End(m), iff every psi in I is
            # nilpotent; decided on the residues of I's generators
            space, sol = _lift_through(p, p)
            if sol is None:
                raise AssertionError("identity is always compatible")
            mod_p = r.base.ring.p
            if ResidueSpace(space, sol).first(
                    lambda mats: not all(_fp_nilpotent(mod_p, mat) for mat in mats), budget):
                failures.append(("minimality", repr(r)))
            # no summand is a path-indexed injective (on inputs with no
            # injective vertex-module summands, i.e. after stripping)
            stripped, _ = strip_injective_summands(r)
            ms, _ = mimo(stripped)
            for factor, mult, cert in decompose(ms):
                if injective_rep_recognize(factor) is not None and not factor.is_zero():
                    failures.append(("injective summand in approximation", repr(r)))
            # independence of the chosen lift
            data = _second_lift_data(r, rng)
            m2, _ = mo(r, data)
            if not is_iso_reps(m, m2):
                failures.append(("lift dependence", repr(r)))
        if failures:
            break
    return _result("P3", not failures, failures=failures[:10])


def _lift_through(p: RepMorphism, g: RepMorphism):
    """(space, solution): space = Hom(g.source, p.source), and the exact
    solution of its naturality rows plus the rows of p o h = g, in its slots,
    or None when no such h exists.  The extra rows go to a copy of the
    space's system, so ``space.solution`` stays Hom(g.source, p.source)."""
    space = hom_reps(g.source, p.source)
    system = space.system.copy()
    for v in g.source.quiver.vertices:
        gv = g.components[v]
        system.equate(gv.source, gv.target, [(1, p.components[v], v, None)], gv)
    return space, system.solve()


def _second_lift_data(r: Representation, rng):
    """Minimal envelope data with the lift perturbed by a morphism vanishing
    on the in-map kernel (any composite through the in-map itself)."""
    from .mimo import minimal_envelope_data
    from .serialmod import mor_add

    data = dict(minimal_envelope_data(r))
    for v in r.quiver.vertices:
        total, f, _, _ = in_map_data(r, v)
        J, e = data[v]
        t = hom_space(r.modules[v], J).random(rng)
        data[v] = (J, mor_add(e, mor_compose(t, f)))
    return data


def suite_p4(seed: int = 0, budget: int = DEFAULT_ENUM_BUDGET, samples: int = 200) -> dict:
    """Density and isomorphism reflection of the stable reduction."""
    failures = []
    for n, kind in ((2, "poly"), (3, "poly"), (3, "int")):
        base = chain_base(kind, 2, n)
        st = stable_base(base)
        quiver = builtin_quiver("An-linear:2")
        rng = random.Random(seed + n)
        for _ in range(samples):
            s = random_representation(st, quiver, rng)
            m = mimo_from_stable(s)
            if not is_iso_reps(stable_reduce(m), s):
                failures.append((n, kind, "not dense", repr(s)))
            # reflection: perturb arrow entries by morphisms factoring through
            # injectives; the minimal monic approximations must agree
            lifted = stable_lift(s)
            perturbed = _perturb_by_injective_factors(lifted, rng)
            if not is_iso_reps(stable_reduce(perturbed), s):
                failures.append((n, kind, "perturbation changed stable class", repr(s)))
                continue
            m1, _ = mimo(strip_injective_summands(lifted)[0])
            m2, _ = mimo(strip_injective_summands(perturbed)[0])
            if not is_iso_reps(m1, m2):
                failures.append((n, kind, "isomorphism not reflected", repr(s)))
        if failures:
            break
    return _result("P4", not failures, samples=samples, failures=failures[:10])


def _perturb_by_injective_factors(r: Representation, rng) -> Representation:
    """Add to each arrow map a random composite through the injective label."""
    from .serialmod import mor_add

    base = r.base
    inj = serial_module(base, [base.envelope_label(base.labels[-1])])
    maps = {}
    for a in r.quiver.arrows:
        up = hom_space(r.modules[a.source], inj).random(rng)
        down = hom_space(inj, r.modules[a.target]).random(rng)
        maps[a.name] = mor_add(r.maps[a.name], mor_compose(down, up))
    return Representation(r.quiver, base, dict(r.modules), maps)


# -- parametrized suites ------------------------------------------------------------


def suite_rad2_count(quiver=None, base=None, seed: int = 0, budget: int = DEFAULT_ENUM_BUDGET) -> dict:
    """Class count formula for radical square zero Nakayama backings."""
    quiver = quiver or builtin_quiver("An-linear:3")
    base = base or chain_base("poly", 2, 2)
    report = enumerate_mono_rad2(quiver, base)  # ValueError off Dynkin quivers
    typ = dynkin_type(quiver)
    m = len(base.injective_labels())
    t = len(stable_base(base).labels)
    expected = m * len(quiver.vertices) + t * len(positive_roots(quiver))
    ok = len(report.classes) == expected
    return _result("rad2-count", ok, classes=len(report.classes), expected=expected,
                   m=m, t=t, dynkin=typ)


SUITES = {
    "a1": suite_a1,
    "a2": suite_a2,
    "a3": suite_a3,
    "a4": suite_a4,
    "a4-full": suite_a4_full,
    "a5": suite_a5,
    "a6": suite_a6,
    "a7": suite_a7,
    "p1": suite_p1,
    "p2": suite_p2,
    "p3": suite_p3,
    "p4": suite_p4,
    "rad2-count": suite_rad2_count,
}

DEFAULT_SUITE_ORDER = ["a1", "a2", "a3", "a4", "a5", "a6", "a7", "p1", "p2", "p3", "p4"]


def run_suite(name: str, **kwargs) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    t0 = time.time()
    out = SUITES[name](**kwargs)
    out["seconds"] = round(time.time() - t0, 2)
    return out
