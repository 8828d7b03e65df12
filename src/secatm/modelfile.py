"""Model-file ingestion: a versioned JSON schema for spaces, fibrations,
map pairs and queries.

Top level::

    {
      "schema": "secatm-model/1",
      "coeff": "Q",                      // default domain: "Q", "Z", "F<p>"
      "spaces": { "<name>": <space> },
      "fibrations": { "<name>": <fibration> },
      "map_pairs": { "<name>": <pair> },
      "queries": [ {"target": "...", "invariant": "...", "m": "1..6"} ]
    }

A space is either a constructor call (``{"construct": "sphere", "n": 2}``)
optionally overriding metadata, or an explicit algebra with metadata.
Products in an explicit algebra are sparse: omitted products are zero and
an omitted mirror is filled in with the graded sign.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .domains import CoefficientDomain
from .algebra import AlgebraError, GradedAlgebra, RingMorphism, make_algebra
from .engine import Bundle
from . import spaces as sp

__all__ = ["ModelFileError", "Query", "LoadedModel", "load_model_file", "parse_model", "parse_mrange"]

SCHEMA = "secatm-model/1"

INVARIANT_KINDS = {
    "cat": "space",
    "tc": "space",
    "secat": "fibration",
    "dm": "map_pair",
    "hdm": "map_pair",
}


class ModelFileError(ValueError):
    """A diagnostic pointing at the offending location in the file."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


@dataclass
class Query:
    target: str
    invariant: str
    ms: list[int] | None = None


@dataclass
class LoadedModel:
    bundle: Bundle
    queries: list[Query]
    coeff: CoefficientDomain


def parse_mrange(text: str, where: str = "m") -> list[int]:
    """Parse ``"3"`` or ``"1..6"`` into an explicit list of m values."""
    if not isinstance(text, str):
        raise ModelFileError(where, f"bad m range {text!r}, expected a string N or N..M")
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ModelFileError(where, f"bad m range {text!r}, expected N or N..M")
    if lo < 1 or hi < lo:
        raise ModelFileError(where, f"bad m range {text!r}: need 1 <= lo <= hi")
    return list(range(lo, hi + 1))


def _integer(value, where: str) -> int:
    """A JSON integer; booleans, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFileError(where, f"expected an integer, got {value!r}")
    return value


def _name(value, where: str) -> str:
    """A model name; lists, numbers and objects are rejected."""
    if not isinstance(value, str):
        raise ModelFileError(where, f"expected a name, got {value!r}")
    return value


def _block(data: dict, key: str, kind: type) -> dict | list:
    """A top-level block, which must be a JSON object (or list) when present."""
    value = data.get(key, kind())
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "a list"
        raise ModelFileError(key, f"expected {expected}, got {value!r}")
    return value


def _optional_integer(spec: dict, key: str, path: str) -> int | None:
    value = spec.get(key)
    return None if value is None else _integer(value, f"{path}.{key}")


def load_model_file(path: str, coeff_override: str | None = None) -> LoadedModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ModelFileError(path, f"cannot read file: {e}")
    except json.JSONDecodeError as e:
        raise ModelFileError(path, f"not valid JSON: {e}")
    return parse_model(data, coeff_override)


def parse_model(data: dict, coeff_override: str | None = None) -> LoadedModel:
    if not isinstance(data, dict):
        raise ModelFileError("$", "model file must be a JSON object")
    schema = data.get("schema")
    if schema != SCHEMA:
        raise ModelFileError("schema", f"expected {SCHEMA!r}, got {schema!r}")
    coeff_label = coeff_override if coeff_override is not None else data.get("coeff", "Q")
    try:
        coeff = CoefficientDomain.from_label(coeff_label)
    except (ValueError, KeyError) as e:
        raise ModelFileError("coeff", str(e))
    loader = _Loader(data, coeff)
    return loader.load()


class _Loader:
    def __init__(self, data: dict, coeff: CoefficientDomain):
        self.coeff = coeff
        self.bundle = Bundle()
        self.space_specs = _block(data, "spaces", dict)
        self.fib_specs = _block(data, "fibrations", dict)
        self.pair_specs = _block(data, "map_pairs", dict)
        self.query_specs = _block(data, "queries", list)
        names = list(self.space_specs) + list(self.fib_specs) + list(self.pair_specs)
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ModelFileError("$", f"duplicate model names: {sorted(dupes)}")
        self._spaces: dict[str, sp.SpaceModel] = {}
        self._fibs: dict[str, sp.FibrationModel] = {}
        self._pairs: dict[str, sp.MapPairModel] = {}
        self._building: set[str] = set()

    def load(self) -> LoadedModel:
        for name in self.space_specs:
            self.space(name)
        for name in self.fib_specs:
            self.fibration(name)
        for name in self.pair_specs:
            self.pair(name)
        queries = self._parse_queries()
        return LoadedModel(self.bundle, queries, self.coeff)

    # -- spaces ---------------------------------------------------------------
    def space(self, name: str, where: str = "spaces") -> sp.SpaceModel:
        if _name(name, where) in self._spaces:
            return self._spaces[name]
        if name not in self.space_specs:
            raise ModelFileError(where, f"unknown space {name!r}")
        if name in self._building:
            raise ModelFileError(f"spaces.{name}", "circular reference")
        self._building.add(name)
        try:
            model = self._build_space(name, self.space_specs[name])
        finally:
            self._building.discard(name)
        self._spaces[name] = model
        self.bundle.add_space(name, model)
        return model

    def _build_space(self, name: str, spec) -> sp.SpaceModel:
        path = f"spaces.{name}"
        if not isinstance(spec, dict):
            raise ModelFileError(path, "space spec must be an object")
        try:
            if "construct" in spec:
                model = self._construct_space(path, spec)
            elif "algebra" in spec:
                model = self._explicit_space(path, spec)
            else:
                raise ModelFileError(path, "need either 'construct' or 'algebra'")
        except AlgebraError as e:
            raise ModelFileError(path, str(e))
        except KeyError as e:
            raise ModelFileError(path, f"missing field {e.args[0]!r}")
        except sp.ModelFieldError as e:
            raise ModelFileError(f"{path}.{e.field}", str(e))
        except (TypeError, ValueError) as e:
            if isinstance(e, ModelFileError):
                raise
            raise ModelFileError(path, str(e))
        return model

    def _spec_coeff(self, path: str, spec) -> CoefficientDomain:
        if "coeff" in spec:
            try:
                return CoefficientDomain.from_label(spec["coeff"])
            except ValueError as e:
                raise ModelFileError(f"{path}.coeff", str(e))
        return self.coeff

    def _construct_space(self, path: str, spec) -> sp.SpaceModel:
        kind = spec["construct"]
        if kind == "sphere":
            model = sp.sphere(_integer(spec["n"], f"{path}.n"), self._spec_coeff(path, spec))
        elif kind == "point":
            model = sp.point(self._spec_coeff(path, spec))
        elif kind == "real_projective":
            model = sp.real_projective(_integer(spec["n"], f"{path}.n"))
        elif kind == "complex_projective":
            model = sp.complex_projective(_integer(spec["n"], f"{path}.n"))
        elif kind == "moore":
            model = sp.moore(_integer(spec["rank"], f"{path}.rank"),
                             _integer(spec["n"], f"{path}.n"), self._spec_coeff(path, spec))
        elif kind == "orientable_surface":
            model = sp.orientable_surface(_integer(spec["genus"], f"{path}.genus"))
        elif kind == "nonorientable_surface":
            model = sp.nonorientable_surface(_integer(spec["genus"], f"{path}.genus"))
        elif kind == "product":
            factors = [self.space(f, path) for f in spec["factors"]]
            model = sp.product(factors)
        else:
            raise ModelFileError(path, f"unknown constructor {kind!r}")
        return self._apply_overrides(path, model, spec)

    def _apply_overrides(self, path: str, model: sp.SpaceModel, spec) -> sp.SpaceModel:
        fields = {}
        for key in ("conn", "hdim", "pi_vanish_from", "known_cat", "known_tc"):
            if key in spec:
                fields[key] = _optional_integer(spec, key, path)
        if "h_space_with_division" in spec:
            fields["h_space_with_division"] = bool(spec["h_space_with_division"])
        if "square" in spec:
            fields["square"] = self.space(spec["square"], path)
        if fields:
            model = replace(model, **fields)
        return model

    def _explicit_space(self, path: str, spec) -> sp.SpaceModel:
        algebra = self._parse_algebra(f"{path}.algebra", spec["algebra"])
        factors = None
        if "factors" in spec:
            factors = [self.space(f, path) for f in spec["factors"]]
        square = self.space(spec["square"], path) if "square" in spec else None
        return sp.SpaceModel(
            algebra,
            conn=_integer(spec.get("conn", 0), f"{path}.conn"),
            hdim=_optional_integer(spec, "hdim", path),
            pi_vanish_from=_optional_integer(spec, "pi_vanish_from", path),
            h_space_with_division=bool(spec.get("h_space_with_division", False)),
            known_cat=_optional_integer(spec, "known_cat", path),
            known_tc=_optional_integer(spec, "known_tc", path),
            factors=factors,
            square=square,
        )

    def _parse_algebra(self, path: str, spec) -> GradedAlgebra:
        if not isinstance(spec, dict) or "basis" not in spec:
            raise ModelFileError(path, "algebra spec needs a 'basis' block")
        coeff = self._spec_coeff(path, spec)
        if not isinstance(spec["basis"], dict):
            raise ModelFileError(f"{path}.basis", "expected an object of degree: [names]")
        basis = {}
        for d, names in spec["basis"].items():
            where = f"{path}.basis.{d}"
            try:
                degree = int(d)
            except ValueError:
                raise ModelFileError(where, "degrees must be integers")
            if degree < 0 or degree in basis:
                raise ModelFileError(where, "degrees must be distinct and >= 0")
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise ModelFileError(where, f"expected a list of names, got {names!r}")
            basis[degree] = names
        products = []
        for i, entry in enumerate(spec.get("products", [])):
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
                raise ModelFileError(
                    f"{path}.products[{i}]", "expected [left, right, {name: coeff}]"
                )
            products.append(tuple(entry))
        try:
            return make_algebra(coeff, basis, products)
        except (AlgebraError, TypeError, ValueError) as e:
            raise ModelFileError(path, str(e))

    # -- fibrations -------------------------------------------------------------
    def fibration(self, name: str, where: str = "fibrations") -> sp.FibrationModel:
        if _name(name, where) in self._fibs:
            return self._fibs[name]
        if name not in self.fib_specs:
            raise ModelFileError(where, f"unknown fibration {name!r}")
        if name in self._building:
            raise ModelFileError(f"fibrations.{name}", "circular reference")
        self._building.add(name)
        try:
            model = self._build_fibration(name, self.fib_specs[name])
        finally:
            self._building.discard(name)
        self._fibs[name] = model
        self.bundle.add_fibration(name, model)
        return model

    def _build_fibration(self, name: str, spec) -> sp.FibrationModel:
        path = f"fibrations.{name}"
        if not isinstance(spec, dict):
            raise ModelFileError(path, "fibration spec must be an object")
        try:
            if spec.get("construct") == "product_fibration":
                factors = [self.fibration(f, path) for f in spec["factors"]]
                if len(factors) != 2:
                    raise ModelFileError(path, "product_fibration takes two factors")
                return sp.product_fibration(factors[0], factors[1])
            base = self.space(spec["base"], path)
            total = spec["total"]
            if isinstance(total, str):
                total_alg = self.space(total, path).algebra
            else:
                total_alg = self._parse_algebra(f"{path}.total", total["algebra"])
            pstar = self._parse_morphism(
                f"{path}.pstar", spec["pstar"], base.algebra, total_alg
            )
            return sp.FibrationModel(
                base=base,
                total_algebra=total_alg,
                pstar=pstar,
                total_contractible=bool(spec.get("total_contractible", False)),
                fiber_pi_vanish_from=_optional_integer(spec, "fiber_pi_vanish_from", path),
                known_secat=_optional_integer(spec, "known_secat", path),
            )
        except AlgebraError as e:
            raise ModelFileError(path, str(e))
        except KeyError as e:
            raise ModelFileError(path, f"missing field {e.args[0]!r}")
        except (TypeError, ValueError) as e:
            if isinstance(e, ModelFileError):
                raise
            raise ModelFileError(path, str(e))

    # -- map pairs ----------------------------------------------------------------
    def pair(self, name: str, where: str = "map_pairs") -> sp.MapPairModel:
        if _name(name, where) in self._pairs:
            return self._pairs[name]
        if name not in self.pair_specs:
            raise ModelFileError(where, f"unknown map pair {name!r}")
        if name in self._building:
            raise ModelFileError(f"map_pairs.{name}", "circular reference")
        self._building.add(name)
        try:
            model = self._build_pair(name, self.pair_specs[name])
        finally:
            self._building.discard(name)
        self._pairs[name] = model
        self.bundle.add_map_pair(name, model)
        return model

    def _build_pair(self, name: str, spec) -> sp.MapPairModel:
        path = f"map_pairs.{name}"
        if not isinstance(spec, dict):
            raise ModelFileError(path, "map pair spec must be an object")
        try:
            domain = self.space(spec["domain"], path)
            codomain = self.space(spec["codomain"], path)
            fstar = self._parse_morphism(
                f"{path}.fstar", spec["fstar"], codomain.algebra, domain.algebra
            )
            gstar = self._parse_morphism(
                f"{path}.gstar", spec["gstar"], codomain.algebra, domain.algebra
            )
            triangle = None
            if "triangle" in spec:
                tri = spec["triangle"]
                triangle = (
                    self.pair(tri["left"], path),
                    self.pair(tri["right"], path),
                )
            return sp.MapPairModel(
                domain=domain,
                codomain=codomain,
                fstar=fstar,
                gstar=gstar,
                homotopic=bool(spec.get("homotopic", False)),
                known_d=_optional_integer(spec, "known_d", path),
                triangle=triangle,
            )
        except AlgebraError as e:
            raise ModelFileError(path, str(e))
        except KeyError as e:
            raise ModelFileError(path, f"missing field {e.args[0]!r}")
        except (TypeError, ValueError) as e:
            if isinstance(e, ModelFileError):
                raise
            raise ModelFileError(path, str(e))

    def _parse_morphism(self, path, spec, source, target) -> RingMorphism:
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ModelFileError(path, "morphism spec needs a 'kind'")
        kind = spec["kind"]
        if kind == "identity" and source is not target:
            raise ModelFileError(path, "identity morphism needs equal source and target")
        try:
            if kind == "identity":
                return RingMorphism.identity(source)
            if kind in ("augmentation", "constant"):
                return RingMorphism.augmentation(source, target)
            if kind == "images":
                return RingMorphism.from_images(
                    source, target, dict(spec.get("images", {}))
                )
        except (AlgebraError, TypeError, ValueError) as e:
            raise ModelFileError(path, str(e))
        raise ModelFileError(path, f"unknown morphism kind {kind!r}")

    # -- queries -----------------------------------------------------------------
    def _parse_queries(self) -> list[Query]:
        out = []
        for i, q in enumerate(self.query_specs):
            path = f"queries[{i}]"
            if not isinstance(q, dict) or "target" not in q or "invariant" not in q:
                raise ModelFileError(path, "query needs 'target' and 'invariant'")
            inv = q["invariant"]
            if not isinstance(inv, str) or inv not in INVARIANT_KINDS:
                raise ModelFileError(f"{path}.invariant", f"unknown invariant {inv!r}")
            target = _name(q["target"], f"{path}.target")
            kind = INVARIANT_KINDS[inv]
            registry = {
                "space": self._spaces,
                "fibration": self._fibs,
                "map_pair": self._pairs,
            }[kind]
            if target not in registry:
                raise ModelFileError(path, f"no {kind} named {target!r}")
            ms = parse_mrange(q["m"], f"{path}.m") if "m" in q else None
            out.append(Query(target, inv, ms))
        return out
