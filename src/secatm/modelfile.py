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
or an explicit algebra (``{"algebra": {"basis": ..., "products": ...}}``).
Both take the same metadata fields (``conn``, ``hdim``, ``pi_vanish_from``,
``known_cat``, ``known_tc``, ``h_space_with_division``, ``factors``,
``square``), which override what a constructor sets.  Products in an
explicit algebra are sparse: omitted products are zero and an omitted
mirror is filled in with the graded sign.  Every algebra a file declares has
top degree and rank at most ``MAX_ALGEBRA_SIZE``; an explicit basis or a
product is checked before it is built, a constructor's integer fields
before and its algebra after.

A model is built on its first reference, once, by one resolver that also
catches circular references and turns every error into a
:class:`ModelFileError` naming the JSON path of the offending value.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace

from .domains import CoefficientDomain
from .algebra import AlgebraError, GradedAlgebra, RingMorphism, make_algebra
from .engine import KIND_OF, Bundle
from . import spaces as sp

__all__ = ["MAX_M", "ModelFileError", "Query", "LoadedModel", "check_query",
           "load_model_file", "parse_decimal", "parse_model", "parse_mrange"]

SCHEMA = "secatm-model/1"
# bound on the top degree and the number of basis classes of every algebra
# a model file declares, and on a declared hdim and number of factors,
# checked before the algebra is built.  A file validates every algebra it
# builds: the sign law on every pair, associativity on the triples led by
# a generator (RP^200 over F2 declared by its products took 0.24-0.28 s and
# 44 MB, against 13.0 s and 367 MB checking every triple; a degree of 2^40
# never finishes).  The bounds themselves build no product's table: cat of
# a product of 12 circles took 0.62 s and 74 MB, and tc of RP^31 0.008 s
# and 19 MB (in-process, Python 3.11, 2 vCPUs).
MAX_ALGEBRA_SIZE = 32
# bound on m, in an m range and for ``--max-m``: the largest m a test asks
# for.  A table with no dimension parameter (hdm) stores a row per m, and
# an m range is listed m by m, so an m of 2^40 ran out of memory.
MAX_M = 10**6


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


_DECIMAL = re.compile(r"-?[0-9]+")


def parse_decimal(text: str) -> int | None:
    """The integer that ASCII digits after an optional minus sign spell, or
    None for any other text: ``int`` would also take spaces, ``+``, ``_``
    and non-ASCII digits, and fails on more than about 4300 digits."""
    try:
        return int(text) if _DECIMAL.fullmatch(text) else None
    except ValueError:  # more digits than int() converts
        return None


def parse_mrange(text: str, where: str = "m") -> list[int]:
    """Parse ``"3"`` or ``"1..6"`` into an explicit list of m values."""
    if not isinstance(text, str):
        raise ModelFileError(where, f"bad m range {text!r}, expected a string N or N..M")
    lo_s, hi_s = text.split("..", 1) if ".." in text else (text, text)
    lo, hi = parse_decimal(lo_s), parse_decimal(hi_s)
    if lo is None or hi is None:
        raise ModelFileError(where, f"bad m range {text!r}, expected N or N..M")
    if lo < 1 or hi < lo:
        raise ModelFileError(where, f"bad m range {text!r}: need 1 <= lo <= hi")
    if hi > MAX_M:
        raise ModelFileError(where, f"bad m range {text!r}: m is at most {MAX_M}")
    return list(range(lo, hi + 1))


def check_query(bundle: Bundle, query: Query, where: str) -> None:
    """Raise unless ``bundle`` holds a model of the query invariant's kind
    under the query's target name."""
    kind = KIND_OF[query.invariant]
    if query.target not in getattr(bundle, kind):
        # kind names a Bundle registry: "spaces", "fibrations", "map_pairs"
        raise ModelFileError(where, f"no {kind[:-1]} named {query.target!r}")


def _integer(value, where: str) -> int:
    """A JSON integer; booleans, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFileError(where, f"expected an integer, got {value!r}")
    return value


def _flag(value, where: str) -> bool:
    """A JSON boolean; strings, numbers and null are rejected."""
    if not isinstance(value, bool):
        raise ModelFileError(where, f"expected true or false, got {value!r}")
    return value


def _name(value, where: str) -> str:
    """A model name; lists, numbers and objects are rejected."""
    if not isinstance(value, str):
        raise ModelFileError(where, f"expected a name, got {value!r}")
    return value


def _collection(value, kind: type, where: str) -> dict | list:
    """``value`` if it is a JSON object (``kind`` dict) or list (``kind``
    list); anything else is rejected, since iteration or ``dict(...)`` would
    read a string as its characters, an object as its keys and a list of
    pairs as an object."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "a list"
        raise ModelFileError(where, f"expected {expected}, got {value!r}")
    return value


def _block(data: dict, key: str, kind: type) -> dict | list:
    """A top-level block, which must be a JSON object (or list) when present."""
    return _collection(data.get(key, kind()), kind, key)


def _optional_integer(spec: dict, key: str, path: str) -> int | None:
    value = spec.get(key)
    return None if value is None else _integer(value, f"{path}.{key}")


def _bounded(value: int, where: str, what: str) -> int:
    """``value``, unless it is above MAX_ALGEBRA_SIZE."""
    if value > MAX_ALGEBRA_SIZE:
        raise ModelFileError(
            where, f"{what} is {value}, above the size bound {MAX_ALGEBRA_SIZE}")
    return value


def _check_size(path: str, algebras: list[GradedAlgebra]) -> None:
    """Reject the Kunneth product of ``algebras`` before it is built unless
    its top degree and number of basis classes are within the bound."""
    _bounded(sum(a.top_degree for a in algebras), path, "the top degree")
    _bounded(math.prod(a.total_dim for a in algebras), path, "the number of basis classes")


# constructor -> (function, integer fields in argument order, takes "coeff")
_CONSTRUCTORS = {
    "sphere": (sp.sphere, ("n",), True),
    "point": (sp.point, (), True),
    "real_projective": (sp.real_projective, ("n",), False),
    "complex_projective": (sp.complex_projective, ("n",), False),
    "moore": (sp.moore, ("rank", "n"), True),
    "orientable_surface": (sp.orientable_surface, ("genus",), False),
    "nonorientable_surface": (sp.nonorientable_surface, ("genus",), False),
}


def load_model_file(path: str, coeff_override: str | None = None) -> LoadedModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ModelFileError(path, f"cannot read file: {e}")
    except (ValueError, RecursionError) as e:
        # ValueError: bad syntax, bytes that are not UTF-8, or an integer of
        # more digits than int() converts; RecursionError: deep nesting
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
        raise ModelFileError("coeff" if coeff_override is None else "--coeff", str(e))
    loader = _Loader(data, coeff)
    return loader.load()


class _Loader:
    def __init__(self, data: dict, coeff: CoefficientDomain):
        self.coeff = coeff
        self.bundle = Bundle()
        # kind (a Bundle registry) -> name -> spec, in resolution order
        self.specs = {kind: _block(data, kind, dict) for kind in _BUILDERS}
        self.query_specs = _block(data, "queries", list)
        names = [name for specs in self.specs.values() for name in specs]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ModelFileError("$", f"duplicate model names: {sorted(dupes)}")
        self._building: set[str] = set()

    def load(self) -> LoadedModel:
        for kind, specs in self.specs.items():
            for name in specs:
                self.model(kind, name, kind)
        queries = self._parse_queries()
        return LoadedModel(self.bundle, queries, self.coeff)

    def model(self, kind: str, name, where: str):
        """The model of ``kind`` (a Bundle registry) named ``name``, built on
        first reference and then served from the bundle; ``where`` is the
        path of the reference."""
        registry = getattr(self.bundle, kind)
        if _name(name, where) in registry:
            return registry[name]
        noun = kind[:-1].replace("_", " ")
        if name not in self.specs[kind]:
            raise ModelFileError(where, f"unknown {noun} {name!r}")
        path = f"{kind}.{name}"
        if name in self._building:
            raise ModelFileError(path, "circular reference")
        spec = self.specs[kind][name]
        if not isinstance(spec, dict):
            raise ModelFileError(path, f"{noun} spec must be an object")
        self._building.add(name)
        try:
            model = _BUILDERS[kind](self, path, spec)
        except ModelFileError:
            raise
        except sp.ModelFieldError as e:
            raise ModelFileError(f"{path}.{e.field}", str(e))
        except KeyError as e:
            raise ModelFileError(path, f"missing field {e.args[0]!r}")
        except (TypeError, ValueError) as e:  # AlgebraError is a ValueError
            raise ModelFileError(path, str(e))
        finally:
            self._building.discard(name)
        registry[name] = model
        return model

    def _spec_coeff(self, path: str, spec) -> CoefficientDomain:
        if "coeff" in spec:
            try:
                return CoefficientDomain.from_label(spec["coeff"])
            except ValueError as e:
                raise ModelFileError(f"{path}.coeff", str(e))
        return self.coeff

    # -- spaces ---------------------------------------------------------------
    def _space(self, path: str, spec) -> sp.SpaceModel:
        if "construct" not in spec:
            if "algebra" not in spec:
                raise ModelFileError(path, "need either 'construct' or 'algebra'")
            algebra = self._parse_algebra(f"{path}.algebra", spec["algebra"])
            return sp.SpaceModel(algebra, **self._space_fields(path, spec))
        kind = spec["construct"]
        fields = self._space_fields(path, spec)
        if kind == "product":
            factors = fields.pop("factors")
            _check_size(path, [f.algebra for f in factors])
            model = sp.product(factors)
        elif isinstance(kind, str) and kind in _CONSTRUCTORS:
            build, keys, takes_coeff = _CONSTRUCTORS[kind]
            # a field above the bound puts the top degree or the rank above it
            args = [_bounded(_integer(spec[key], f"{path}.{key}"), f"{path}.{key}", key)
                    for key in keys]
            if takes_coeff:
                args.append(self._spec_coeff(path, spec))
            model = build(*args)
            _check_size(path, [model.algebra])
            model.algebra.validate()  # the constructors skip it; a file checks all
        else:
            raise ModelFileError(path, f"unknown constructor {kind!r}")
        return replace(model, **fields) if fields else model

    def _space_fields(self, path: str, spec) -> dict:
        """The metadata fields ``spec`` sets, the same for a constructed and
        an explicit space; factors are resolved before the square."""
        fields = {}
        if "conn" in spec:
            fields["conn"] = _integer(spec["conn"], f"{path}.conn")
        for key in ("hdim", "pi_vanish_from", "known_cat", "known_tc"):
            if key in spec:
                fields[key] = _optional_integer(spec, key, path)
        if fields.get("hdim") is not None:
            # tables keep a row for each m below twice hdim
            _bounded(fields["hdim"], f"{path}.hdim", "hdim")
        if "h_space_with_division" in spec:
            fields["h_space_with_division"] = _flag(
                spec["h_space_with_division"], f"{path}.h_space_with_division")
        if "factors" in spec:
            fields["factors"] = [self.model("spaces", f, path) for f in
                                 _collection(spec["factors"], list, f"{path}.factors")]
            # each factor costs one Kunneth product, also a point
            _bounded(len(fields["factors"]), f"{path}.factors", "the number of factors")
        if "square" in spec:
            fields["square"] = self.model("spaces", spec["square"], path)
        return fields

    def _parse_algebra(self, path: str, spec) -> GradedAlgebra:
        if not isinstance(spec, dict) or "basis" not in spec:
            raise ModelFileError(path, "algebra spec needs a 'basis' block")
        coeff = self._spec_coeff(path, spec)
        if not isinstance(spec["basis"], dict):
            raise ModelFileError(f"{path}.basis", "expected an object of degree: [names]")
        basis = {}
        for d, names in spec["basis"].items():
            where = f"{path}.basis.{d}"
            degree = parse_decimal(d)
            if degree is None:
                raise ModelFileError(where, "degrees must be integers")
            if degree < 0 or degree in basis:
                raise ModelFileError(where, "degrees must be distinct and >= 0")
            _bounded(degree, where, "the degree")
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise ModelFileError(where, f"expected a list of names, got {names!r}")
            basis[degree] = names
        _bounded(sum(map(len, basis.values())), f"{path}.basis", "the number of basis classes")
        products = []
        for i, entry in enumerate(_collection(spec.get("products", []), list,
                                              f"{path}.products")):
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3
                    and isinstance(entry[2], dict)):
                raise ModelFileError(
                    f"{path}.products[{i}]", "expected [left, right, {name: coeff}]"
                )
            products.append(tuple(entry))
        try:
            return make_algebra(coeff, basis, products)
        except (AlgebraError, TypeError, ValueError) as e:
            raise ModelFileError(path, str(e))

    # -- fibrations and map pairs ----------------------------------------------
    def _fibration(self, path: str, spec) -> sp.FibrationModel:
        if spec.get("construct") == "product_fibration":
            factors = [self.model("fibrations", f, path) for f in
                       _collection(spec["factors"], list, f"{path}.factors")]
            if len(factors) != 2:
                raise ModelFileError(path, "product_fibration takes two factors")
            _check_size(path, [f.base.algebra for f in factors])
            _check_size(path, [f.total_algebra for f in factors])
            return sp.product_fibration(factors[0], factors[1])
        if "construct" in spec:
            raise ModelFileError(path, f"unknown constructor {spec['construct']!r}")
        base = self.model("spaces", spec["base"], path)
        total = spec["total"]
        if isinstance(total, str):
            total_alg = self.model("spaces", total, path).algebra
        else:
            total_alg = self._parse_algebra(f"{path}.total", total["algebra"])
        pstar = self._parse_morphism(
            f"{path}.pstar", spec["pstar"], base.algebra, total_alg
        )
        return sp.FibrationModel(
            base=base,
            total_algebra=total_alg,
            pstar=pstar,
            total_contractible=_flag(spec.get("total_contractible", False),
                                     f"{path}.total_contractible"),
            fiber_pi_vanish_from=_optional_integer(spec, "fiber_pi_vanish_from", path),
            known_secat=_optional_integer(spec, "known_secat", path),
        )

    def _map_pair(self, path: str, spec) -> sp.MapPairModel:
        domain = self.model("spaces", spec["domain"], path)
        codomain = self.model("spaces", spec["codomain"], path)
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
                self.model("map_pairs", tri["left"], path),
                self.model("map_pairs", tri["right"], path),
            )
        return sp.MapPairModel(
            domain=domain,
            codomain=codomain,
            fstar=fstar,
            gstar=gstar,
            homotopic=_flag(spec.get("homotopic", False), f"{path}.homotopic"),
            known_d=_optional_integer(spec, "known_d", path),
            triangle=triangle,
        )

    def _parse_morphism(self, path, spec, source, target) -> RingMorphism:
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ModelFileError(path, "morphism spec needs a 'kind'")
        kind = spec["kind"]
        if kind == "identity" and source is not target:
            raise ModelFileError(path, "identity morphism needs equal source and target")
        if kind == "images":
            images = _collection(spec.get("images", {}), dict, f"{path}.images")
            for name, combo in images.items():
                _collection(combo, dict, f"{path}.images.{name}")
        try:
            if kind == "identity":
                return RingMorphism.identity(source)
            if kind in ("augmentation", "constant"):
                return RingMorphism.augmentation(source, target)
            if kind == "images":
                return RingMorphism.from_images(source, target, images)
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
            if not isinstance(inv, str) or inv not in KIND_OF:
                raise ModelFileError(f"{path}.invariant", f"unknown invariant {inv!r}")
            query = Query(_name(q["target"], f"{path}.target"), inv)
            check_query(self.bundle, query, path)
            if "m" in q:
                query.ms = parse_mrange(q["m"], f"{path}.m")
            out.append(query)
        return out


# Bundle registry -> builder of its models, in the order a file is loaded
_BUILDERS = {"spaces": _Loader._space, "fibrations": _Loader._fibration,
             "map_pairs": _Loader._map_pair}
