import json

import pytest

from sieveval import (
    apply_operator,
    atom_global_element,
    build_presheaf,
    bundled_scenario_names,
    bundled_scenario_path,
    full_space,
    load_scenario,
    subspace_from_vectors,
)
from sieveval.cli import main
from sieveval.errors import (
    CommutantViolation,
    InternalCheckError,
    OrthogonalityViolation,
    ParseError,
    ValidationError,
)
from sieveval.scenario import effective_caps, scenario_from_dict


def minimal_dict(**overrides):
    base = {
        "name": "t",
        "dimension": 2,
        "observables": [
            {"name": "Z", "eigenspaces": [[["1", "0"]], [["0", "1"]]]}
        ],
        "generators": [
            {"name": "p1", "matrix": [["1", "0"], ["0", "0"]], "commutant_of": "Z"}
        ],
        "states": {"plus": ["1", "1"]},
        "propositions": {"P": [["1", "0"]]},
        "runs": [{"name": "r", "state": "plus", "observable": "Z", "eigenspace": 0}],
    }
    base.update(overrides)
    return base


def test_bundled_scenarios_present():
    names = bundled_scenario_names()
    assert {
        "qubit",
        "qutrit",
        "qubit_extended",
        "qutrit_extended",
        "qubit_complex",
        "minimal",
    } <= set(names)


def test_load_bundled_qubit():
    scenario = load_scenario(bundled_scenario_path("qubit"))
    assert scenario.dimension == 2
    assert scenario.observable("Z").eigenspaces[0].dim == 1
    assert {r.name for r in scenario.runs} == {"z-up", "z-down"}


def test_orthogonality_violation():
    data = minimal_dict(
        observables=[{"name": "bad", "eigenspaces": [[["1", "0"]], [["1", "1"]]]}],
        generators=[],
        runs=[{"name": "r", "state": "plus", "observable": "bad", "eigenspace": 0}],
    )
    with pytest.raises(OrthogonalityViolation):
        scenario_from_dict(data)


def test_decomposition_must_span():
    data = minimal_dict(
        observables=[{"name": "short", "eigenspaces": [[["1", "0"]]]}],
        generators=[],
        runs=[{"name": "r", "state": "plus", "observable": "short", "eigenspace": 0}],
    )
    with pytest.raises(OrthogonalityViolation):
        scenario_from_dict(data)


def test_commutant_violation_names_eigenspace():
    data = minimal_dict(
        generators=[
            {"name": "flip", "matrix": [["0", "1"], ["1", "0"]], "commutant_of": "Z"}
        ]
    )
    with pytest.raises(CommutantViolation) as err:
        scenario_from_dict(data)
    assert "(eigenspace 0)" in str(err.value)
    # Keeps eigenspace 0 invariant, maps eigenspace 1 onto eigenspace 0.
    data = minimal_dict(
        generators=[
            {"name": "raise", "matrix": [["0", "1"], ["0", "0"]], "commutant_of": "Z"}
        ]
    )
    with pytest.raises(CommutantViolation) as err:
        scenario_from_dict(data)
    assert "(eigenspace 1)" in str(err.value)


def test_irrational_scalar_rejected():
    data = minimal_dict(states={"plus": ["0.5", "1"]})
    with pytest.raises(ValidationError):
        scenario_from_dict(data)


def test_observable_matrix_validator():
    good = minimal_dict(
        observables=[
            {
                "name": "Z",
                "eigenspaces": [[["1", "0"]], [["0", "1"]]],
                "labels": ["1", "-1"],
                "matrix": [["1", "0"], ["0", "-1"]],
            }
        ]
    )
    assert scenario_from_dict(good).observable("Z").labels is not None
    bad = minimal_dict(
        observables=[
            {
                "name": "Z",
                "eigenspaces": [[["1", "0"]], [["0", "1"]]],
                "labels": ["1", "-1"],
                "matrix": [["1", "0"], ["0", "1"]],
            }
        ]
    )
    with pytest.raises(ValidationError):
        scenario_from_dict(bad)


def test_unknown_references_rejected():
    with pytest.raises(ValidationError):
        scenario_from_dict(
            minimal_dict(runs=[{"name": "r", "state": "nope", "observable": "Z", "eigenspace": 0}])
        )
    with pytest.raises(ValidationError):
        scenario_from_dict(
            minimal_dict(runs=[{"name": "r", "state": "plus", "observable": "Z", "eigenspace": 7}])
        )
    with pytest.raises(ValidationError):
        scenario_from_dict(
            minimal_dict(
                runs=[
                    {
                        "name": "r",
                        "state": "plus",
                        "observable": "Z",
                        "eigenspace": 0,
                        "extended": ["unknown"],
                    }
                ]
            )
        )


ZERO_PROJECTION = "the state projects to zero on the chosen eigenspace; no true atom there"


def test_zero_projection_run_rejected():
    data = minimal_dict(
        states={"up": ["1", "0"]},
        runs=[{"name": "r", "state": "up", "observable": "Z", "eigenspace": 1}],
    )
    scenario = scenario_from_dict(data)
    from sieveval import build_scenario

    with pytest.raises(ValidationError) as raised:
        build_scenario(scenario)
    assert (raised.value.field, raised.value.reason) == ("runs.r.eigenspace", ZERO_PROJECTION)


def test_effective_caps_env_override():
    caps = effective_caps({"monoid": 32}, env={"SIEVEVAL_CAP_ORBIT": "17"})
    assert caps["monoid"] == 32
    assert caps["orbit"] == 17
    assert caps["sieve_enum"] == 4096
    with pytest.raises(ValidationError):
        effective_caps({"weird": 3})


def test_parse_error_on_bad_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_scenario(path)


@pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 100_000], ids=["utf-16-byte-order-mark", "deep-nesting"]
)
def test_cli_rejects_an_unparseable_file_with_one_error_line(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_validate_ok(capsys):
    code = main(["validate", str(bundled_scenario_path("qubit"))])
    assert code == 0
    assert "valid" in capsys.readouterr().out


def test_cli_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(minimal_dict(dimension=0)))
    code = main(["validate", str(bad)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_valuate_json_matches_worked_example(capsys):
    code = main(["valuate", str(bundled_scenario_path("qubit")), "--run", "z-up", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    rows = {r["name"]: r for r in report["valuation"]["propositions"]}
    assert rows["I"]["flags"]["is_top"]
    assert rows["I"]["bub"] == 1
    assert rows["0"]["flags"]["is_bottom_annihilator"]
    assert rows["0"]["bub"] == 0
    assert rows["P_e2"]["sieve"] == [[2, 2]]
    assert rows["P_e2"]["flags"]["is_bottom_annihilator"]
    assert rows["P_plus"]["bub"] is None
    assert rows["P_plus"]["sieve"] == [[1, 1], [2, 2]]
    assert all(r["flags"]["in_delta_omega"] for r in rows.values())


def test_cli_valuate_unknown_run(capsys):
    code = main(["valuate", str(bundled_scenario_path("qubit")), "--run", "nope"])
    assert code == 2


def test_cli_check_passes_and_is_deterministic(capsys):
    path = str(bundled_scenario_path("qubit"))
    assert main(["check", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["check", path, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["passed"]
    tags = {row["tag"] for row in report["rows"]}
    assert "Eq 3.21 = Eq 3.37" in tags
    assert "Props A3–A4 (δΩ)" in tags


def test_cli_dump_site(capsys):
    assert main(["dump-site", str(bundled_scenario_path("qubit"))]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["monoid"]["product_table"][0][1] == 1  # identity row
    run0 = dump["runs"][0]
    assert len(run0["plain"]["objects"]) == 3
    assert all({"dom", "op", "cod"} <= set(m) for m in run0["plain"]["morphisms"])


def test_cli_missing_file(capsys):
    assert main(["validate", "/nonexistent/file.json"]) == 2


def test_cli_check_reports_violations_with_exit_one(monkeypatch, capsys):
    import sieveval.cli as cli_module

    failing = {
        "scenario": "t",
        "dimension": 1,
        "truncation": {},
        "rows": [{"tag": "Eq 0.0", "title": "synthetic failure", "run": None, "passed": False}],
        "passed": False,
    }
    monkeypatch.setattr(cli_module, "run_check", lambda scenario: failing)
    code = main(["check", str(bundled_scenario_path("minimal"))])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "violations found" in out


@pytest.mark.parametrize(
    "exc", [InternalCheckError("composition left the site"), RuntimeError("boom")]
)
def test_cli_check_reports_internal_errors_with_exit_three(monkeypatch, capsys, exc):
    import sieveval.cli as cli_module

    def broken(scenario):
        raise exc

    monkeypatch.setattr(cli_module, "run_check", broken)
    assert main(["check", str(bundled_scenario_path("minimal"))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "Traceback" in err and str(exc) in err


@pytest.mark.parametrize("where", ["listing", "natural-filter"])
def test_valuate_reports_an_internal_error_while_listing_a_stage(monkeypatch, capsys, where):
    # Only a cap hit means the stage tables do not fit; a bug while a stage is
    # listed or filtered is an internal error, not "within_cap": false.
    from sieveval.sieves import LazyTable, Stage

    def broken(*args):
        raise InternalCheckError("stage listing failed")

    if where == "listing":
        monkeypatch.setattr(Stage, "sieves", broken)
    else:
        listing = Stage.sieves

        def list_then_break_the_filter(stage, cap, obj):
            # From the listing on, every round trip the natural filter asks fails.
            stage.natural = LazyTable(broken)
            return listing(stage, cap, obj)

        monkeypatch.setattr(Stage, "sieves", list_then_break_the_filter)
    path = str(bundled_scenario_path("qubit_extended"))
    assert main(["valuate", path, "--run", "coarse", "--json"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "stage listing failed" in err


@pytest.mark.parametrize("family", [["unit", "unit", "Z"], ["unit", "Z", "Z"]])
@pytest.mark.parametrize("command", [["check"], ["valuate", "--run", "coarse"], ["dump-site"]])
def test_a_repeated_observable_in_a_run_family_is_an_input_error(tmp_path, capsys, family, command):
    data = json.loads(bundled_scenario_path("qubit_extended").read_text())
    data["runs"][0]["extended"] = family
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(data))
    assert main([command[0], str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    repeated = family[1] if family[0] == family[1] else family[2]
    assert captured.err == f"error: runs[0].extended: duplicate observable {repeated!r}\n"
    assert captured.out == ""


FOUR_COMMANDS = [["validate"], ["check"], ["valuate", "--run", "z-up"], ["dump-site"]]


@pytest.mark.parametrize(
    "field, names, error",
    [
        pytest.param(
            "propositions", ["P_e1", "P_e1"], "runs[0].propositions: duplicate proposition 'P_e1'",
            id="propositions",
        ),
        pytest.param(
            "lattice_seeds", ["P_e1", "P_e1", "P_plus"], "lattice_seeds: duplicate proposition 'P_e1'",
            id="lattice_seeds",
        ),
        pytest.param(
            "remainder_rays", ["P_plus"],
            "runs[0].remainder_rays: 'P_plus' is not inside the orthogonal remainder",
            id="remainder_rays",
        ),
    ],
)
@pytest.mark.parametrize("command", FOUR_COMMANDS, ids=lambda command: command[0])
def test_a_repeated_name_or_a_ray_outside_the_remainder_is_an_input_error(
    tmp_path, capsys, field, names, error, command
):
    data = json.loads(bundled_scenario_path("qubit").read_text())
    if field == "lattice_seeds":
        data["lattice_seeds"] = names
    else:
        data["runs"][0][field] = names
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main([command[0], str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", FOUR_COMMANDS, ids=lambda command: command[0])
def test_a_run_without_a_true_atom_is_an_input_error(tmp_path, capsys, command):
    # `up` projects to zero on Z's eigenspace 1, so the third run has no true atom there.
    data = json.loads(bundled_scenario_path("qubit").read_text())
    data["states"]["up"] = ["1", "0"]
    data["runs"].append({"name": "zero", "state": "up", "observable": "Z", "eigenspace": 1})
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(data))
    assert main([command[0], str(path), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: runs.zero.eigenspace: {ZERO_PROJECTION}\n"
    assert captured.out == ""


E1, E2, E12 = [["1", "0"]], [["0", "1"]], [["1", "1"]]


@pytest.mark.parametrize(
    "observable, error",
    [
        pytest.param(
            {"eigenspaces": [E1, E12]}, "eigenspaces: eigenspaces 0 and 1 are not orthogonal", id="orthogonal"
        ),
        pytest.param(
            {"name": "dimension", "eigenspaces": [E1, E12]},
            "eigenspaces: eigenspaces 0 and 1 are not orthogonal",
            id="named-like-a-field",
        ),
        pytest.param(
            {"eigenspaces": [E1, [["0", "0"]], E2]}, "eigenspaces: eigenspace 1 is the zero space", id="zero"
        ),
        pytest.param({"eigenspaces": [E1]}, "eigenspaces: eigenspaces do not span the space", id="span"),
        pytest.param({"labels": ["1", "-1", "0"]}, "labels: 3 labels for 2 eigenspaces", id="label-count"),
        pytest.param({"labels": ["1", "1"]}, "labels: labels are not distinct", id="distinct"),
        pytest.param(
            {"labels": None, "matrix": [["1", "0"], ["0", "-1"]]},
            "matrix: labels required to validate a matrix",
            id="labels-required",
        ),
        pytest.param(
            {"matrix": [["1", "0"], ["0", "1"]]}, "matrix: matrix is not scalar -1 on eigenspace 1", id="scalar"
        ),
    ],
)
def test_an_invalid_observable_is_anchored_at_its_field(tmp_path, capsys, observable, error):
    data = json.loads(bundled_scenario_path("qubit").read_text())
    data["observables"][0].update(observable)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: observables[0].{error}\n"
    assert captured.out == ""


def test_a_ray_inside_the_remainder_is_accepted(tmp_path):
    # qutrit run r1: the state (1, 1, 1) leaves the ray (0, 1, -1) outside its atoms
    data = json.loads(bundled_scenario_path("qutrit").read_text())
    data["runs"][0]["remainder_rays"] = ["P_e23m"]
    path = tmp_path / "remainder.json"
    path.write_text(json.dumps(data))
    assert load_scenario(path).runs[0].remainder_rays == ("P_e23m",)
    assert main(["check", str(path)]) == 0


def _non_functorial_propositions(site, universe):
    """The proposition functor, except that the identity at object 0 sends
    every proposition to the whole space."""
    identity = site.identity_arrow(0)
    whole = full_space(site.object_ray(0).ambient_dim)

    def transition(a, p):
        if a == identity:
            return whole
        return apply_operator(site.operator_matrix(site.arrow_op(a)), p)

    return build_presheaf(site, lambda o: tuple(universe), transition)


def _propositions_leaving_the_universe(site, universe):
    """The proposition functor, except that the identity at object 0 sends
    every proposition to span(3, 4), a ray outside the universe."""
    identity = site.identity_arrow(0)
    outside = subspace_from_vectors(site.object_ray(0).ambient_dim, [[3, 4]])

    def transition(a, p):
        if a == identity:
            return outside
        return apply_operator(site.operator_matrix(site.arrow_op(a)), p)

    return build_presheaf(site, lambda o: tuple(universe), transition)


def _section_off_the_atoms(site, atoms, r):
    """The stage ray itself at every stage: natural, but not an atom where
    the ray lies in no eigenspace."""
    return atom_global_element(site, atoms, full_space(r.ambient_dim))


@pytest.mark.parametrize(
    "target, doctored, tags",
    [
        ("proposition_presheaf", _non_functorial_propositions, ("Eq 3.11", "Eq 4.19")),
        ("atom_global_element", _section_off_the_atoms, ("Prop 3.1", "Eq 4.25")),
        (
            "proposition_presheaf",
            _propositions_leaving_the_universe,
            ("Eq 3.11", "Eq 4.19", "Prop 5.10", "Thm 5.11", "Thm 5.12"),
        ),
    ],
)
def test_check_reports_an_invalid_presheaf_or_section_in_its_row(
    monkeypatch, capsys, target, doctored, tags
):
    import sieveval.runner as runner_module

    monkeypatch.setattr(runner_module, target, doctored)
    assert main(["check", str(bundled_scenario_path("qubit_extended")), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    for tag in tags:
        # The run "fine" values at the Z observable, whose eigenrays miss the stage ray.
        (row,) = [row for row in report["rows"] if row["tag"] == tag and row["run"] == "fine"]
        assert not row["passed"]
        assert row["details"]["error"]


def test_valuate_qutrit_block_proposition(capsys):
    code = main(["valuate", str(bundled_scenario_path("qutrit")), "--run", "r1", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    rows = {r["name"]: r for r in report["valuation"]["propositions"]}
    # the block join of the atom with a remainder ray is determinately true
    assert rows["Bm"]["bub"] == 1
    assert rows["Bm"]["flags"]["is_top"]
    # the other eigenspace's block is determinately false but not the floor
    assert rows["plane23"]["bub"] == 0
    assert rows["P_e23"]["bub"] == 0
    assert report["truncation"]["monoid_size"] == 4


def test_extended_valuate_verdicts(capsys):
    code = main(
        ["valuate", str(bundled_scenario_path("qubit_extended")), "--run", "coarse", "--json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    for row in report["valuation"]["propositions"]:
        verdicts = row["extended"]["verdicts"]
        assert verdicts["a"] and verdicts["b"] and verdicts["c"]


# the projectors onto the two coordinate axes of the plane
P1, P2 = [["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"propositions": [1]}, "propositions: expected an object"),
        ({"states": ["1", "1"]}, "states: expected an object"),
        ({"generators": 5}, "generators: expected a list"),
        ({"generators": {"p1": {"matrix": [["1", "0"], ["0", "0"]]}}}, "generators: expected a list"),
        ({"runs": "r"}, "runs: expected a list"),
        (
            {"observables": [{"name": "Z", "eigenspaces": [[["1", "0"]], [["0", "1"]]], "labels": 1}]},
            "observables[0].labels: expected a list",
        ),
        ({"lattice_seeds": [["P"]]}, "lattice_seeds: unknown proposition"),
        ({"dimension": True}, "dimension: must be a positive integer"),
        (
            {"runs": [{"name": "r", "state": "plus", "observable": "Z", "eigenspace": True}]},
            "runs[0].eigenspace: eigenspace index out of range",
        ),
        ({"caps": {"lattice": True}}, "caps.lattice: caps must be positive integers"),
        ({"caps": [1]}, "caps: expected an object"),
        ({"name": ["a", 1]}, "name: expected a string"),
        ({"name": 7}, "name: expected a string"),
        ({"generators": [{"name": 1, "matrix": P1}]}, "generators[0].name: expected a string"),
        ({"generators": [{"name": None, "matrix": P1}]}, "generators[0].name: expected a string"),
        (
            {"generators": [{"name": "p1", "matrix": P1}, {"name": "p1", "matrix": P2}]},
            "generators[1].name: duplicate generator 'p1'",
        ),
        (
            {"generators": [{"name": "g1", "matrix": P1}, {"matrix": P2}]},
            "generators[1].name: duplicate generator 'g1'",
        ),
    ],
)
def test_cli_rejects_malformed_fields(tmp_path, capsys, overrides, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(minimal_dict(**overrides)))
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"error: {field}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_cli_rejects_nonpositive_env_caps(monkeypatch, capsys, raw):
    monkeypatch.setenv("SIEVEVAL_CAP_LATTICE", raw)
    assert main(["check", str(bundled_scenario_path("qubit"))]) == 2
    err = capsys.readouterr().err
    assert "error: env.SIEVEVAL_CAP_LATTICE: caps must be positive integers" in err
    assert "Traceback" not in err
    with pytest.raises(ValidationError):
        effective_caps(None, env={"SIEVEVAL_CAP_MONOID": raw})


@pytest.mark.parametrize("name", [None, "absent"])
def test_an_absent_or_null_name_takes_the_file_name(tmp_path, capsys, name):
    data = minimal_dict(name=name)
    if name == "absent":
        del data["name"]
    path = tmp_path / "unnamed.json"
    path.write_text(json.dumps(data))
    assert load_scenario(path).name == "unnamed"
    assert main(["check", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["scenario"] == "unnamed"
