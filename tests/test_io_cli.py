import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from monocat import io as mio
from monocat.base import chain_base, stable_base
import monocat.cli as cli_module
from monocat.cli import main, parse_base
from monocat.decompose import coordinate_blocks, decompose
from monocat.quiver import builtin_quiver
from monocat.rep import (
    DEFAULT_BUDGET,
    Representation,
    f_shriek,
    is_iso_reps,
    random_representation,
    rep_direct_sum,
    vertex_module,
)
from monocat.serialmod import morphism, serial_module


def _write_rep(tmp_path, rep, name="rep.json"):
    path = tmp_path / name
    path.write_text(mio.dumps(mio.representation_to_json(rep)))
    return str(path)


def test_representation_roundtrip_random():
    rng = random.Random(0)
    for base in (chain_base("int", 2, 3), chain_base("poly", 3, 2), stable_base(chain_base("int", 2, 3))):
        for q in (builtin_quiver("An-linear:3"), builtin_quiver("kronecker")):
            r = random_representation(base, q, rng)
            data = mio.representation_to_json(r)
            again = mio.representation_from_json(json.loads(mio.dumps(data)))
            assert again == r


def test_serialization_deterministic():
    rng = random.Random(1)
    r = random_representation(chain_base("int", 2, 2), builtin_quiver("An-linear:2"), rng)
    assert mio.dumps(mio.representation_to_json(r)) == mio.dumps(mio.representation_to_json(r))


def test_parse_base_strings():
    assert parse_base("chain:poly:2:2").descriptor() == {"kind": "chain", "arith": "poly", "p": 2, "n": 2}
    assert parse_base("rad2nak:2:3").descriptor() == {"kind": "rad2nak", "m": 2, "p": 3}
    st = parse_base("stable:chain:int:2:3")
    assert st.descriptor()["kind"] == "stable"
    with pytest.raises(ValueError):
        parse_base("weird:1")


def test_cli_mono_check_failure_names_vertex(tmp_path, capsys):
    base = chain_base("poly", 2, 2)
    q = builtin_quiver("An-linear:2")
    r = Representation(q, base, {"1": serial_module(base, ["M1"])}, {})
    path = _write_rep(tmp_path, r)
    rc = main(["mono-check", "-i", path])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["mono"] is False
    assert out["failing_vertices"] == {"2": {"parts": ["M1"]}}


def test_cli_mimo_emits_file_and_approximation(tmp_path, capsys):
    base = chain_base("poly", 2, 2)
    q = builtin_quiver("An-linear:2")
    r = Representation(q, base, {"1": serial_module(base, ["M1"])}, {})
    path = _write_rep(tmp_path, r)
    out_path = tmp_path / "mimo.json"
    rc = main(["mimo", "-i", path, "-o", str(out_path)])
    assert rc == 0
    data = json.loads(out_path.read_text())
    rep = mio.representation_from_json(data["representation"])
    assert rep.modules["1"].parts == ("M1",)
    assert rep.modules["2"].parts == ("M2",)
    assert "approximation" in data
    # the emitted representation re-validates and is monic
    emitted = tmp_path / "emitted.json"
    emitted.write_text(json.dumps(data["representation"]))
    assert main(["validate", "-i", str(emitted)]) == 0
    assert main(["mono-check", "-i", str(emitted)]) == 0


def test_cli_validate_roundtrip(tmp_path, capsys):
    base = chain_base("int", 2, 3)
    q = builtin_quiver("kronecker")
    rng = random.Random(5)
    r = random_representation(base, q, rng)
    path = _write_rep(tmp_path, r)
    assert main(["validate", "-i", path]) == 0


def test_cli_kopf_and_decompose(tmp_path, capsys):
    base = chain_base("poly", 2, 2)
    q = builtin_quiver("An-linear:2")
    m1 = serial_module(base, ["M1"])
    r = Representation(q, base, {"1": m1, "2": m1}, {"a1": morphism(m1, m1, [[1]])})
    path = _write_rep(tmp_path, r)
    assert main(["kopf", "-i", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kopf"]["1"]["parts"] == ["M1"]
    assert out["kopf"]["2"]["parts"] == []
    assert main(["decompose", "-i", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["factors"]) == 1
    assert out["factors"][0]["certificate"] == "exhaustive"


def test_cli_decompose_lists_the_injective_summands_of_a_monic_approximation(tmp_path, capsys):
    # (M2 + M2 -> k + k) over F_2[x]/(x^2): its minimal monic approximation
    # M2 + M2 -> M2 + M2 + k + k is connected in its coordinates, and its
    # top at vertex 1 is M2 + M2, so it is f_!(M2 at 1)^2 (+) (0 -> k)^2
    base = chain_base("poly", 2, 2)
    q = builtin_quiver("An-linear:2")
    m2 = serial_module(base, ["M2", "M2"])
    k2 = serial_module(base, ["M1", "M1"])
    r = Representation(q, base, {"1": m2, "2": k2}, {"a1": morphism(m2, k2, [[1, 1], [1, 0]])})
    out_path = tmp_path / "mimo.json"
    assert main(["mimo", "-i", _write_rep(tmp_path, r), "-o", str(out_path)]) == 0
    m = mio.representation_from_json(json.loads(out_path.read_text())["representation"])
    assert m.modules["2"].parts == ("M2", "M2", "M1", "M1") and coordinate_blocks(m) is None
    assert main(["decompose", "-i", _write_rep(tmp_path, m, "m.json")]) == 0
    factors = json.loads(capsys.readouterr().out)["factors"]
    assert all(f["certificate"] == "exhaustive" for f in factors)
    found = {(tuple(rep.modules["1"].parts), tuple(rep.modules["2"].parts)): f["multiplicity"]
             for f in factors for rep in [mio.representation_from_json(f["representation"])]}
    assert found == {(("M2",), ("M2",)): 2, ((), ("M1",)): 2}
    injective = f_shriek(base, q, vertex_module(base, q, "1", serial_module(base, ["M2"])))
    assert any(is_iso_reps(mio.representation_from_json(f["representation"]), injective)
               for f in factors)


def test_cli_transfer_and_stable_reduce(tmp_path, capsys):
    base = chain_base("poly", 2, 3)
    q = builtin_quiver("An-linear:2")
    m2 = serial_module(base, ["M2"])
    m13 = serial_module(base, ["M1", "M3"])
    r = Representation(q, base, {"1": m2, "2": m13},
                       {"a1": morphism(m2, m13, [[1], [1]])})
    path = _write_rep(tmp_path, r)
    assert main(["transfer", "-i", path, "--base", "chain:int:2:3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["base"] == {"kind": "chain", "arith": "int", "p": 2, "n": 3}
    assert main(["stable-reduce", "-i", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["base"]["kind"] == "stable"


def test_cli_transfer_keeps_the_length_vector_of_an_injective_summand(tmp_path, capsys):
    # (M1 -> M3, the socle inclusion) (+) f_!(M3 at 1) over F_2[x]/(x^3)
    base = chain_base("poly", 2, 3)
    q = builtin_quiver("An-linear:2")
    m1, m3 = serial_module(base, ["M1"]), serial_module(base, ["M3"])
    socle = Representation(q, base, {"1": m1, "2": m3}, {"a1": morphism(m1, m3, [[1]])})
    r = rep_direct_sum(socle, f_shriek(base, q, vertex_module(base, q, "1", m3)))
    path = _write_rep(tmp_path, r)
    assert main(["transfer", "-i", path, "--base", "chain:int:2:3", "--format", "text"]) == 0
    assert capsys.readouterr().out == f"transferred: {r.length_vector()}\n"


def test_cli_enumerate_rad2_count(capsys):
    rc = main(["enumerate", "--quiver", "An-linear:3", "--base", "chain:poly:2:2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["counts"] == {"injective": 3, "non_injective": 6}
    assert len(out["classes"]) == 9


# linear A3 with its vertices listed 2, 1, 3: not the standard diagram's order
REORDERED_A3 = json.dumps({"vertices": ["2", "1", "3"], "arrows": [
    {"name": "a", "from": "1", "to": "2"}, {"name": "b", "from": "2", "to": "3"}]})


def test_cli_enumerate_rad2_on_reordered_vertices(capsys):
    rc = main(["enumerate", "--quiver", REORDERED_A3, "--base", "chain:poly:2:2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["counts"] == {"injective": 3, "non_injective": 6}
    assert len(out["classes"]) == 9
    rc = main(["verify-suite", "--suite", "rad2-count",
               "--quiver", REORDERED_A3, "--base", "chain:poly:2:2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert out["results"][0]["details"]["classes"] == 9


def test_cli_enumerate_zero_cap_before_the_sink(capsys):
    # the sink-only classes M1, M2 and M3
    rc = main(["enumerate", "--quiver", "An-linear:2", "--base", "chain:poly:2:3",
               "--caps", "0,3", "--mono-only"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["counts"] == {"injective": 1, "non_injective": 2}
    assert len(out["classes"]) == 3


def test_cli_enumerate_non_prime_base_is_input_error(capsys):
    rc = main(["enumerate", "--quiver", "An-linear:2", "--base", "chain:poly:4:2",
               "--caps", "1,1", "--mono-only"])
    assert rc == 2
    assert "p must be prime, got 4" in capsys.readouterr().err


def test_cli_enumerate_budget_exit_code(capsys):
    rc = main(["enumerate", "--quiver", "An-linear:2", "--base", "chain:poly:2:2",
               "--caps", "2,2", "--budget", "3"])
    assert rc == 3


def test_cli_enumerate_budget_exit_code_generic_mono(capsys):
    rc = main(["enumerate", "--quiver", "A4-zigzag", "--base", "chain:poly:2:2",
               "--caps", "2,2,2,2", "--mono-only", "--budget", "10"])
    assert rc == 3


def test_cli_enumerate_output_does_not_depend_on_the_hash_seed():
    # str hashes, and so the order of sets of strings, change with
    # PYTHONHASHSEED (under 0 and 1 {"M1", "M2"} iterates one way, under 3
    # the other); the generic sweep's output must not
    src = str(Path(__file__).resolve().parents[1] / "src")
    args = ["enumerate", "--quiver", "A4-zigzag", "--base", "chain:poly:2:2",
            "--caps", "2,2,2,2", "--mono-only"]
    outputs = []
    for seed in ("0", "1", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from monocat.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *args],
            env=env, capture_output=True, timeout=120, check=True)
        outputs.append(done.stdout)
    assert json.loads(outputs[0])["counts"] == {"injective": 4, "non_injective": 8}
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_verify_suite_rad2(capsys):
    rc = main(["verify-suite", "--suite", "rad2-count",
               "--quiver", "An-linear:3", "--base", "chain:poly:2:2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert out["results"][0]["details"]["classes"] == 9


def test_cli_verify_suite_rad2_non_dynkin_is_input_error(capsys):
    rc = main(["verify-suite", "--suite", "rad2-count",
               "--quiver", "kronecker", "--base", "chain:poly:2:2"])
    assert rc == 2
    assert "Dynkin" in capsys.readouterr().err


def test_cli_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["mono-check", "-i", str(bad)]) == 2
    assert main(["mono-check", "-i", str(tmp_path / "missing.json")]) == 2


def _write_json(tmp_path, payload):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_modules_list_is_input_error(tmp_path, capsys):
    path = _write_json(tmp_path, {"base": {"kind": "chain", "arith": "poly", "p": 2, "n": 2},
                                  "quiver": "An-linear:2", "modules": [], "maps": {}})
    assert main(["mono-check", "-i", path]) == 2
    assert "modules must be an object" in capsys.readouterr().err


def test_cli_fshriek_modules_list_is_input_error(tmp_path, capsys):
    path = _write_json(tmp_path, {"base": {"kind": "chain", "arith": "poly", "p": 2, "n": 2},
                                  "quiver": "kronecker", "modules": []})
    assert main(["fshriek", "-i", path]) == 2
    assert "modules must be an object" in capsys.readouterr().err
    path = _write_json(tmp_path, [])
    assert main(["fshriek", "-i", path]) == 2
    assert "input must be a JSON object" in capsys.readouterr().err


_K = {"coeff": [1, 0]}
_K_TO_K = {"base": {"kind": "chain", "arith": "poly", "p": 2, "n": 2}, "quiver": "An-linear:2",
           "modules": {"1": {"parts": ["M1"]}, "2": {"parts": ["M1"]}},
           "maps": {"a1": {"entries": [[_K]]}}}


@pytest.mark.parametrize("change, message", [
    ({"maps": {"a": {"entries": [[_K]]}}}, "name no arrow"),
    ({"modules": {"1": {"parts": ["M1"]}, "2": {"parts": ["M1"]}, "3": {"parts": ["M1"]}}},
     "name no vertex"),
    ({"maps": {"a1": {"entries": [[_K, _K]]}}}, "cells for 1 source parts"),
    ({"maps": {"a1": {"entries": [[_K], [_K]]}}}, "entry rows for 1 target parts"),
])
def test_cli_decompose_unknown_key_or_overlong_map_is_input_error(tmp_path, capsys, change, message):
    # the document without the change is valid; each change must be refused, not read as another map
    assert main(["decompose", "-i", _write_json(tmp_path, _K_TO_K)]) == 0
    assert len(json.loads(capsys.readouterr().out)["factors"]) == 1
    assert main(["decompose", "-i", _write_json(tmp_path, {**_K_TO_K, **change})]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("change, message", [
    ({"modules": {"1": {"prts": ["M1"]}, "2": {"parts": ["M1"]}}},
     "module at vertex 1 has no 'parts' key"),
    ({"maps": {"a1": {"entries": [[{"digits": [1]}]]}}},
     "map of arrow a1 entry (0, 0) has no 'coeff' key"),
    ({"maps": {"a1": {"entries": [[{"coeff": [3, -1]}]]}}},
     "map of arrow a1 entry (0, 0) coefficient digit 3 is outside [0, 2)"),
    ({"maps": {"a1": {"entries": [[{"coeff": [True, False]}]]}}},
     "map of arrow a1 entry (0, 0) coefficient digit must be an integer, not bool"),
    ({"maps": {"a1": {"entries": [[{"coeff": [1]}]]}}},
     "map of arrow a1 entry (0, 0) coefficient needs 2 digits, got 1"),
])
def test_cli_decompose_missing_key_names_its_place(tmp_path, capsys, change, message):
    assert main(["decompose", "-i", _write_json(tmp_path, {**_K_TO_K, **change})]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key", ["base", "quiver"])
def test_library_read_without_base_or_quiver_names_the_key(key):
    data = {k: v for k, v in _K_TO_K.items() if k != key}
    with pytest.raises(ValueError, match=f"document has no '{key}' key"):
        mio.representation_from_json(data)


def test_short_map_rows_read_as_zeros():
    rep = mio.representation_from_json({**_K_TO_K, "maps": {"a1": {"entries": [[]]}}})
    assert rep.maps["a1"].is_zero()
    assert mio.representation_from_json({**_K_TO_K, "maps": {}}) == rep


def test_cli_quiver_vertices_not_list_is_input_error(tmp_path, capsys):
    path = _write_json(tmp_path, {"base": {"kind": "chain", "arith": "poly", "p": 2, "n": 2},
                                  "quiver": {"vertices": 5, "arrows": []}, "modules": {}, "maps": {}})
    assert main(["mono-check", "-i", path]) == 2
    assert "quiver vertices must be a list of strings" in capsys.readouterr().err


def test_cli_quiver_arrows_not_list_is_input_error(tmp_path, capsys):
    path = _write_json(tmp_path, {"base": {"kind": "chain", "arith": "poly", "p": 2, "n": 2},
                                  "quiver": {"vertices": ["1"], "arrows": 7}, "modules": {}, "maps": {}})
    assert main(["mono-check", "-i", path]) == 2
    assert "quiver arrows must be a list of objects" in capsys.readouterr().err


def test_cli_base_field_type_is_input_error(tmp_path, capsys):
    path = _write_json(tmp_path, {"base": {"kind": "chain", "arith": "poly", "p": "x", "n": 2},
                                  "quiver": "An-linear:2", "modules": {}, "maps": {}})
    assert main(["mono-check", "-i", path]) == 2
    assert "base descriptor field 'p' must be int, not str" in capsys.readouterr().err


CHAIN_DESC = {"kind": "chain", "arith": "poly", "p": 2, "n": 2}
MISSING_KEYS = [
    ({"kind": "stable"}, "An-linear:2", "base descriptor has no 'of' key"),
    ({"kind": "chain", "p": 2, "n": 2}, "An-linear:2", "base descriptor has no 'arith' key"),
    (CHAIN_DESC, {"vertices": ["1"]}, "quiver descriptor has no 'arrows' key"),
    (CHAIN_DESC, {"vertices": ["1", "2"], "arrows": [{"name": "a", "from": "1"}]},
     "quiver arrow 0 has no 'to' key"),
]


@pytest.mark.parametrize("base,quiver,message", MISSING_KEYS)
def test_missing_descriptor_key_is_named(tmp_path, capsys, base, quiver, message):
    # the library raises ValueError, and the CLI prints it with exit 2
    with pytest.raises(ValueError, match=message):
        mio.representation_from_json({"base": base, "quiver": quiver})
    path = _write_json(tmp_path, {"base": base, "quiver": quiver, "modules": {}, "maps": {}})
    assert main(["mono-check", "-i", path]) == 2
    assert f"input error: {message}" in capsys.readouterr().err


def test_cli_top_level_array_is_input_error(tmp_path, capsys):
    path = _write_json(tmp_path, [{"base": "chain:poly:2:2"}])
    assert main(["mono-check", "-i", path]) == 2
    assert "representation must be an object" in capsys.readouterr().err


def test_cli_short_base_descriptor_is_input_error(capsys):
    rc = main(["enumerate", "--quiver", "An-linear:2", "--base", "chain:poly:2"])
    assert rc == 2
    assert "cannot parse base descriptor" in capsys.readouterr().err


def test_cli_caps_count_mismatch_is_input_error(capsys):
    rc = main(["enumerate", "--quiver", "An-linear:2", "--base", "chain:poly:2:2",
               "--caps", "2"])
    assert rc == 2
    assert "expected 2 caps, one per vertex, got 1" in capsys.readouterr().err


ENUM_SMALL = ["enumerate", "--quiver", "An-linear:2", "--base", "chain:poly:2:2", "--caps", "1,1"]


@pytest.mark.parametrize("env,argv", [
    ("lots", []),
    ("-3", []),
    (None, ["--budget", "-5"]),
    (None, ["--budget", "lots"]),
])
def test_cli_bad_budget_is_input_error(monkeypatch, capsys, env, argv):
    if env is not None:
        monkeypatch.setenv("MONOCAT_BUDGET", env)
    rc = main(ENUM_SMALL + argv)
    assert rc == 2
    assert "must be a non-negative integer" in capsys.readouterr().err


def test_cli_budget_option_overrides_bad_environment(monkeypatch, capsys):
    monkeypatch.setenv("MONOCAT_BUDGET", "lots")
    assert main(ENUM_SMALL + ["--budget", "1000"]) == 0
    monkeypatch.setenv("MONOCAT_BUDGET", "1000")
    assert main(ENUM_SMALL) == 0


@pytest.mark.parametrize("env,argv,expected,rc", [
    (None, [], DEFAULT_BUDGET, 0),
    ("77", [], 77, 0),
    ("77", ["--budget", "55"], 55, 0),
    # a budget of 0 is given, not dropped, and too small for this input
    (None, ["--budget", "0"], 0, 3),
])
def test_cli_decompose_budget_is_the_library_default_unless_given(tmp_path, monkeypatch, capsys,
                                                                  env, argv, expected, rc):
    # decompose receives --budget or MONOCAT_BUDGET when given, else its own default
    received = []

    def recording(*args, **kwargs):
        bound = inspect.signature(decompose).bind(*args, **kwargs)
        bound.apply_defaults()
        received.append(bound.arguments["budget"])
        return decompose(*args, **kwargs)

    monkeypatch.delenv("MONOCAT_BUDGET", raising=False)
    if env is not None:
        monkeypatch.setenv("MONOCAT_BUDGET", env)
    monkeypatch.setattr(cli_module, "decompose", recording)
    assert main(["decompose", "-i", _write_json(tmp_path, _K_TO_K)] + argv) == rc
    assert received == [expected]


def test_cli_negative_caps_is_input_error(capsys):
    rc = main(["enumerate", "--quiver", "An-linear:2", "--base", "chain:poly:2:2",
               "--caps=-1,2", "--mono-only"])
    assert rc == 2
    assert "caps must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("caps, entry", [("3,x", "x"), ("2,,2", ""), ("2.5,1", "2.5"), ("", "")])
def test_cli_malformed_caps_names_the_entry(capsys, caps, entry):
    rc = main(["enumerate", "--quiver", "An-linear:2", "--base", "chain:poly:2:2",
               "--caps", caps])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"malformed cap {entry!r} in --caps {caps!r}" in err
    assert "comma-separated non-negative integers, one per vertex" in err


def test_cli_internal_error_exit_code(monkeypatch, capsys):
    import monocat.cli as cli

    def broken(args):
        raise AssertionError("injected")

    monkeypatch.setattr(cli, "cmd_kronecker", broken)
    rc = main(["kronecker", "--base", "chain:poly:2:2", "--family", "P", "--index", "1"])
    assert rc == 4
    assert "AssertionError: injected" in capsys.readouterr().err


def test_cli_fshriek(tmp_path, capsys):
    payload = {
        "base": {"kind": "chain", "arith": "poly", "p": 2, "n": 2},
        "quiver": "kronecker",
        "modules": {"1": {"parts": ["M2"]}},
    }
    path = tmp_path / "mods.json"
    path.write_text(json.dumps(payload))
    assert main(["fshriek", "-i", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["modules"]["2"]["parts"] == ["M2", "M2"]


def test_cli_kronecker(capsys):
    rc = main(["kronecker", "--base", "chain:poly:2:2", "--family", "R",
               "--index", "1", "--param", "1:1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["modules"]["2"]["parts"] == ["M2", "M1"]


@pytest.mark.parametrize("param", ["1:0:1", "x", "1", "1:"])
def test_cli_kronecker_malformed_point_names_it(param, capsys):
    rc = main(["kronecker", "--base", "chain:poly:2:2", "--family", "R",
               "--index", "1", "--param", param])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"malformed projective point {param!r}" in err and "expected a:b" in err


@pytest.mark.parametrize("family, param", [("P", "x"), ("I", "1:1")])
def test_cli_kronecker_point_outside_r_is_input_error(family, param, capsys):
    rc = main(["kronecker", "--base", "chain:poly:2:2", "--family", family,
               "--index", "1", "--param", param])
    assert rc == 2
    assert f"family {family} takes no projective point" in capsys.readouterr().err


def test_cli_text_format(capsys):
    rc = main(["verify-suite", "--suite", "rad2-count", "--quiver", "An-linear:2",
               "--base", "chain:poly:2:2", "--format", "text"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "rad2-count: PASS" in text
