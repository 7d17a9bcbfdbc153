"""Scenario files: declarative inputs for site construction and runs.

A scenario declares the ambient dimension, observables (as eigenspace
decompositions), generator operators, named states and propositions, caps,
and run specifications.  Everything is validated eagerly with field-anchored
diagnostics; all scalars must parse as exact Gaussian rationals.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .errors import CommutantViolation, ParseError, ValidationError
from .linalg import ExactMatrix, matrix_from_rows
from .modal import (
    Observable,
    compute_atoms,
    non_invariant_eigenspace,
    orthogonal_remainder,
    validate_matrix_decomposition,
)
from .rationals import parse_scalar
from .subspaces import (
    Ray,
    Subspace,
    Universe,
    close_universe,
    full_space,
    leq,
    subspace_from_vectors,
    zero_space,
)

DEFAULT_CAPS = {"monoid": 256, "orbit": 128, "sieve_enum": 4096, "lattice": 512}
ENV_CAP_PREFIX = "SIEVEVAL_CAP_"

ZERO_NAME = "0"
UNIT_NAME = "I"


class RunSpec(NamedTuple):
    name: str
    state: str
    observable: str
    eigenspace: int
    propositions: tuple[str, ...] | None  # None = all declared
    extended: tuple[str, ...]  # observable family; empty = plain-only run
    remainder_rays: tuple[str, ...] = ()


class Scenario(NamedTuple):
    name: str
    dimension: int
    observables: tuple[Observable, ...]
    observable_index: dict[str, int]
    generators: tuple[ExactMatrix, ...]
    generator_names: tuple[str, ...]
    states: dict[str, Ray]
    propositions: dict[str, Subspace]
    lattice_seeds: tuple[str, ...]
    caps: dict[str, int]
    runs: tuple[RunSpec, ...]

    def observable(self, name: str) -> Observable:
        return self.observables[self.observable_index[name]]


_KINDS = {list: "a list", dict: "an object"}


def _is_int(value) -> bool:
    """An int that is not a bool (JSON true/false parse to a subclass of int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _container(raw: dict, key: str, kind: type, where: str):
    """`raw[key]` (an empty `kind` when absent or null), required to be a `kind`."""
    value = raw.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise ValidationError(where, f"expected {_KINDS[kind]}")
    return value


def _names(raw: dict, key: str, where: str, known, what: str) -> tuple[str, ...]:
    """A list of names under `raw[key]`, each one of `known`, none twice."""
    names = _container(raw, key, list, where)
    for name in names:
        if not isinstance(name, str) or name not in known:
            raise ValidationError(where, f"unknown {what} {name!r}")
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ValidationError(where, f"duplicate {what} {name!r}")
    return tuple(names)


def _parse_vector(raw, dim: int, where: str) -> list:
    if not isinstance(raw, list) or len(raw) != dim:
        raise ValidationError(where, f"expected a vector of {dim} scalars")
    out = []
    for k, cell in enumerate(raw):
        if not isinstance(cell, str):
            raise ValidationError(f"{where}[{k}]", "scalar literals must be strings")
        try:
            out.append(parse_scalar(cell))
        except ParseError as exc:
            raise ValidationError(f"{where}[{k}]", str(exc)) from exc
    return out


def _parse_matrix(raw, dim: int, where: str) -> ExactMatrix:
    """A dim x dim matrix given as a list of rows; `where` names its field."""
    if not isinstance(raw, list) or len(raw) != dim:
        raise ValidationError(where, f"expected {dim} rows")
    return matrix_from_rows([_parse_vector(row, dim, f"{where}[{j}]") for j, row in enumerate(raw)])


def _parse_subspace(raw, dim: int, where: str) -> Subspace:
    if not isinstance(raw, list):
        raise ValidationError(where, "expected a list of basis vectors")
    vectors = [_parse_vector(v, dim, f"{where}[{i}]") for i, v in enumerate(raw)]
    return subspace_from_vectors(dim, vectors)


def _parse_fraction(raw, where: str) -> Fraction:
    if not isinstance(raw, str):
        raise ValidationError(where, "rational labels must be strings")
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(where, f"bad rational literal {raw!r}") from exc


def effective_caps(declared: dict | None, env: dict | None = None) -> dict[str, int]:
    caps = dict(DEFAULT_CAPS)
    if declared:
        for key, value in declared.items():
            if key not in DEFAULT_CAPS:
                raise ValidationError(f"caps.{key}", "unknown cap")
            if not _is_int(value) or value < 1:
                raise ValidationError(f"caps.{key}", "caps must be positive integers")
            caps[key] = value
    env = os.environ if env is None else env
    for key in DEFAULT_CAPS:
        variable = ENV_CAP_PREFIX + key.upper()
        raw = env.get(variable)
        if raw is not None:
            try:
                value = int(raw)
            except ValueError as exc:
                raise ValidationError(f"env.{variable}", "not an integer") from exc
            if value < 1:
                raise ValidationError(f"env.{variable}", "caps must be positive integers")
            caps[key] = value
    return caps


def load_scenario(path: str | Path, env: dict | None = None) -> Scenario:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} nests its JSON too deeply to parse") from exc
    return scenario_from_dict(data, default_name=path.stem, env=env)


def scenario_from_dict(data: dict, default_name: str = "scenario", env: dict | None = None) -> Scenario:
    if not isinstance(data, dict):
        raise ValidationError("$", "scenario root must be an object")
    name = data.get("name")
    if name is None:
        name = default_name
    elif not isinstance(name, str):
        raise ValidationError("name", "expected a string")
    dim = data.get("dimension")
    if not _is_int(dim) or dim < 1:
        raise ValidationError("dimension", "must be a positive integer")

    observables: list[Observable] = []
    observable_index: dict[str, int] = {}
    raw_observables = _container(data, "observables", list, "observables")
    if not raw_observables:
        raise ValidationError("observables", "at least one observable is required")
    for i, raw in enumerate(raw_observables):
        where = f"observables[{i}]"
        if not isinstance(raw, dict) or not isinstance(raw.get("name"), str):
            raise ValidationError(where, "expected an object with a name")
        oname = raw["name"]
        if oname in observable_index:
            raise ValidationError(f"{where}.name", f"duplicate observable {oname!r}")
        eigenspaces = raw.get("eigenspaces")
        if not isinstance(eigenspaces, list) or not eigenspaces:
            raise ValidationError(f"{where}.eigenspaces", "expected a nonempty list")
        spaces = tuple(
            _parse_subspace(es, dim, f"{where}.eigenspaces[{j}]")
            for j, es in enumerate(eigenspaces)
        )
        labels = None
        if raw.get("labels") is not None:
            labels = tuple(
                _parse_fraction(x, f"{where}.labels[{j}]")
                for j, x in enumerate(_container(raw, "labels", list, f"{where}.labels"))
            )
        matrix = _parse_matrix(raw["matrix"], dim, f"{where}.matrix") if "matrix" in raw else None
        try:
            obs = Observable(oname, spaces, labels)
            if matrix is not None:
                validate_matrix_decomposition(matrix, obs)
        except ValidationError as exc:  # anchored at the observable's own field
            raise exc.__class__(f"{where}.{exc.field}", exc.reason) from None
        observable_index[oname] = len(observables)
        observables.append(obs)

    generators: list[ExactMatrix] = []
    generator_names: list[str] = []
    for i, raw in enumerate(_container(data, "generators", list, "generators")):
        where = f"generators[{i}]"
        if not isinstance(raw, dict) or "matrix" not in raw:
            raise ValidationError(where, "expected an object with a matrix")
        matrix = _parse_matrix(raw["matrix"], dim, f"{where}.matrix")
        gname = raw.get("name", f"g{i}")
        if not isinstance(gname, str):
            raise ValidationError(f"{where}.name", "expected a string")
        if gname in generator_names:
            raise ValidationError(f"{where}.name", f"duplicate generator {gname!r}")
        declared_under = raw.get("commutant_of")
        if declared_under is not None:
            if not isinstance(declared_under, str) or declared_under not in observable_index:
                raise ValidationError(f"{where}.commutant_of", f"unknown observable {declared_under!r}")
            obs = observables[observable_index[declared_under]]
            eigen = non_invariant_eigenspace(matrix, obs)
            if eigen is not None:
                raise CommutantViolation(
                    f"{where}",
                    f"{gname!r} does not commute with {declared_under!r} (eigenspace {eigen})",
                )
        generators.append(matrix)
        generator_names.append(gname)

    states: dict[str, Ray] = {}
    raw_states = _container(data, "states", dict, "states")
    if not raw_states:
        raise ValidationError("states", "at least one named state is required")
    for sname, raw in raw_states.items():
        vector = _parse_vector(raw, dim, f"states.{sname}")
        if all(e.is_zero for e in vector):
            raise ValidationError(f"states.{sname}", "the zero vector is not a state")
        states[sname] = Ray(subspace_from_vectors(dim, [vector]))

    propositions: dict[str, Subspace] = {}
    for pname, raw in _container(data, "propositions", dict, "propositions").items():
        if pname in (ZERO_NAME, UNIT_NAME):
            raise ValidationError(f"propositions.{pname}", "reserved name")
        propositions[pname] = _parse_subspace(raw, dim, f"propositions.{pname}")
    declared_props = dict(propositions)
    propositions[ZERO_NAME] = zero_space(dim)
    propositions[UNIT_NAME] = full_space(dim)

    if data.get("lattice_seeds") is not None:
        lattice_seeds = _names(data, "lattice_seeds", "lattice_seeds", propositions, "proposition")
    else:
        lattice_seeds = tuple(sorted(declared_props))

    caps = effective_caps(_container(data, "caps", dict, "caps"), env=env)

    runs: list[RunSpec] = []
    seen_runs: set[str] = set()
    for i, raw in enumerate(_container(data, "runs", list, "runs")):
        where = f"runs[{i}]"
        if not isinstance(raw, dict):
            raise ValidationError(where, "expected an object")
        rname = raw.get("name", f"run{i}")
        if not isinstance(rname, str):
            raise ValidationError(f"{where}.name", "expected a string")
        if rname in seen_runs:
            raise ValidationError(f"{where}.name", f"duplicate run {rname!r}")
        seen_runs.add(rname)
        state = raw.get("state")
        if not isinstance(state, str) or state not in states:
            raise ValidationError(f"{where}.state", f"unknown state {state!r}")
        oname = raw.get("observable")
        if not isinstance(oname, str) or oname not in observable_index:
            raise ValidationError(f"{where}.observable", f"unknown observable {oname!r}")
        eigenspace = raw.get("eigenspace", 0)
        obs = observables[observable_index[oname]]
        if not _is_int(eigenspace) or not (0 <= eigenspace < len(obs.eigenspaces)):
            raise ValidationError(f"{where}.eigenspace", "eigenspace index out of range")
        selection = None
        if raw.get("propositions") is not None:
            selection = _names(raw, "propositions", f"{where}.propositions", propositions, "proposition")
        extended = _names(raw, "extended", f"{where}.extended", observable_index, "observable")
        if extended and oname not in extended:
            raise ValidationError(f"{where}.extended", "family must contain the run observable")
        remainder = _names(raw, "remainder_rays", f"{where}.remainder_rays", propositions, "proposition")
        if remainder:
            outside = orthogonal_remainder(compute_atoms(states[state], obs))
        for pname in remainder:
            if propositions[pname].dim != 1:
                raise ValidationError(f"{where}.remainder_rays", f"{pname!r} is not a ray")
            if not leq(propositions[pname], outside):
                raise ValidationError(
                    f"{where}.remainder_rays", f"{pname!r} is not inside the orthogonal remainder"
                )
        runs.append(RunSpec(rname, state, oname, eigenspace, selection, extended, remainder))
    if not runs:
        raise ValidationError("runs", "at least one run is required")

    return Scenario(
        name=name,
        dimension=dim,
        observables=tuple(observables),
        observable_index=observable_index,
        generators=tuple(generators),
        generator_names=tuple(generator_names),
        states=states,
        propositions=propositions,
        lattice_seeds=lattice_seeds,
        caps=caps,
        runs=tuple(runs),
    )


def proposition_universe(scenario: Scenario, monoid) -> tuple[Universe, dict[Subspace, str]]:
    """Declared propositions plus {0} and I, closed under the monoid action.

    Returns the universe (`close_universe`, {0} at position 0 and I at 1)
    and a naming map: a member the closure adds is named after the first
    member and operator index that reach it, as `name@op`.
    """
    seeds = {zero_space(scenario.dimension): ZERO_NAME, full_space(scenario.dimension): UNIT_NAME}
    for pname, space in scenario.propositions.items():
        seeds.setdefault(space, pname)
    universe = close_universe(seeds, monoid.elements)
    names = dict(seeds)
    for i, base in enumerate(universe):
        for op_index, f in enumerate(monoid.elements):
            names.setdefault(universe[universe.action[f][i]], f"{names[base]}@{op_index}")
    return universe, names


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package."""
    here = Path(__file__).parent / "scenarios" / f"{name}.json"
    if not here.exists():
        raise ParseError(f"no bundled scenario named {name!r}")
    return here


def bundled_scenario_names() -> list[str]:
    directory = Path(__file__).parent / "scenarios"
    return sorted(p.stem for p in directory.glob("*.json"))
