"""The value-class contract: equality, hash, repr, immutability, the
constructor signatures and the constructor checks of the seven frozen value
classes (``cli.Config`` is a ``CriterionRequest`` compared by its
``normalized`` document alone)."""

import inspect
import math
from fractions import Fraction

import pytest

from fpsop.cli import Config, parse_config
from fpsop.criteria import CriterionRequest
from fpsop.operators import BoundCertificate, OperatorMatrix
from fpsop.series import PolynomialSymbol, TruncatedSeries
from fpsop.weights import SpaceConfig, ValidationError, make_beta, make_delta

BETA = make_beta("dirichlet")
DELTA = make_delta("ones")
SPACE = SpaceConfig(p=2, truncation_degree=64, tail_window=4, tolerance=1e-6)

# (class, field names, keyword arguments of one value, a change of one field)
FROZEN = [
    (SpaceConfig, ("p", "truncation_degree", "tail_window", "tolerance"),
     dict(p=2, truncation_degree=64, tail_window=4, tolerance=1e-6),
     dict(tolerance=1e-5)),
    (TruncatedSeries, ("coeffs", "mode"),
     dict(coeffs=(1, Fraction(1, 2))), dict(coeffs=(1, 0.5))),
    (PolynomialSymbol, ("alphas", "mode"),
     dict(alphas=(0, Fraction(1, 2), Fraction(1, 2))), dict(alphas=(0, 1))),
    (BoundCertificate,
     ("value", "kind", "attained_at", "truncation_degree", "tail_delta", "converged",
      "notes"),
     dict(value=1.5, kind="upper", attained_at=3, truncation_degree=10, tail_delta=0.0,
          converged=True, notes=("a note",)),
     dict(kind="lower")),
    (OperatorMatrix, ("kind", "n_rows", "n_cols", "columns", "mode", "warnings"),
     dict(kind="substitution", n_rows=2, n_cols=1, columns=(((0, 1),), ((2, 1),)),
          mode="exact"),
     dict(warnings=("w",))),
    (CriterionRequest, ("beta", "delta", "space", "u", "phi"),
     dict(beta=BETA, delta=DELTA, space=SPACE, phi=PolynomialSymbol.monomial(2)),
     dict(space=SpaceConfig(p=2, truncation_degree=64, tail_window=4, tolerance=1e-5))),
]

CONFIG_FIELDS = ("normalized", "beta", "delta", "u", "phi", "space")

MINIMAL = '{"p": 2, "beta": "dirichlet", "phi": {"monomial": 2}}'

_NO_DEFAULT = inspect.Parameter.empty

# The constructor parameters, in order, with their defaults.
SIGNATURES = {
    SpaceConfig: [("p", 2), ("truncation_degree", 512), ("tail_window", 10),
                  ("tolerance", 1e-7)],
    TruncatedSeries: [("coeffs", (0,))],
    PolynomialSymbol: [("alphas", (0,))],
    BoundCertificate: [("value", _NO_DEFAULT), ("kind", _NO_DEFAULT),
                       ("attained_at", _NO_DEFAULT), ("truncation_degree", _NO_DEFAULT),
                       ("tail_delta", _NO_DEFAULT), ("converged", _NO_DEFAULT),
                       ("notes", ())],
    OperatorMatrix: [("kind", _NO_DEFAULT), ("n_rows", _NO_DEFAULT), ("n_cols", _NO_DEFAULT),
                     ("columns", _NO_DEFAULT), ("mode", _NO_DEFAULT), ("warnings", ())],
    CriterionRequest: [("beta", _NO_DEFAULT), ("delta", _NO_DEFAULT), ("space", _NO_DEFAULT),
                       ("u", None), ("phi", None)],
    Config: [(name, _NO_DEFAULT) for name in CONFIG_FIELDS],
}


def _ids(cases):
    return [case[0].__name__ for case in cases]


@pytest.mark.parametrize("cls, fields, kwargs, change", FROZEN, ids=_ids(FROZEN))
class TestFrozen:
    def test_equality_and_hash_follow_the_fields(self, cls, fields, kwargs, change):
        a, b = cls(**kwargs), cls(**kwargs)
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))
        other = cls(**dict(kwargs, **change))
        assert a != other and not a == other
        assert {a, b, other} == {a, other}

    def test_other_classes_are_not_compared(self, cls, fields, kwargs, change):
        a = cls(**kwargs)
        assert a.__eq__(object()) is NotImplemented
        assert a.__eq__(tuple(getattr(a, f) for f in fields)) is NotImplemented
        for other_cls, _, other_kwargs, _ in FROZEN:
            if other_cls is not cls:
                assert a.__eq__(other_cls(**other_kwargs)) is NotImplemented
                assert a != other_cls(**other_kwargs)

    def test_repr_lists_the_fields(self, cls, fields, kwargs, change):
        a = cls(**kwargs)
        body = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
        assert repr(a) == f"{cls.__name__}({body})"

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, kwargs, change):
        a = cls(**kwargs)
        before = repr(a)
        for f in fields + ("unknown_field",):
            with pytest.raises(AttributeError):
                setattr(a, f, 0)
            if f in fields:
                with pytest.raises(AttributeError):
                    delattr(a, f)
        assert repr(a) == before


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_constructor_signature(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def test_positional_arguments_follow_the_field_order():
    assert SpaceConfig(3, 20, 2, 0.5) == SpaceConfig(
        p=3, truncation_degree=20, tail_window=2, tolerance=0.5)
    cert = BoundCertificate(2, "exact", None, 5, 1, 0, [1])
    assert (cert.value, cert.tail_delta, cert.converged, cert.notes) == (2.0, 1.0, False, ("1",))
    assert OperatorMatrix("k", 1, 0, ((),), "float").warnings == ()
    req = CriterionRequest(BETA, DELTA, SPACE, None, PolynomialSymbol.monomial(2))
    assert (req.u, req.phi) == (None, PolynomialSymbol.monomial(2))


@pytest.mark.parametrize("cls", [TruncatedSeries, PolynomialSymbol])
def test_mode_is_derived_not_passed(cls):
    assert cls().mode == "exact" and cls((1.0,)).mode == "float"
    with pytest.raises(TypeError):
        cls((1,), mode="float")


class TestConfig:
    def test_compares_by_normalized_only(self):
        a = parse_config(MINIMAL)
        b = Config(dict(a.normalized), make_beta("hardy"), DELTA, None, None, SPACE)
        assert a.beta is not b.beta
        assert a == b  # no field but normalized is compared
        c = Config(dict(a.normalized, seed=99), a.beta, a.delta, a.u, a.phi, a.space)
        assert a != c

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(parse_config(MINIMAL))

    def test_other_classes_are_not_compared(self):
        cfg = parse_config(MINIMAL)
        assert cfg.__eq__(cfg.normalized) is NotImplemented
        assert cfg.__eq__(SPACE) is NotImplemented

    def test_repr_lists_every_field(self):
        cfg = parse_config(MINIMAL)
        body = ", ".join(f"{f}={getattr(cfg, f)!r}" for f in CONFIG_FIELDS)
        assert repr(cfg) == f"Config({body})"

    def test_fields_cannot_be_assigned_or_deleted(self):
        cfg = parse_config(MINIMAL)
        before = repr(cfg)
        for f in CONFIG_FIELDS + ("unknown_field",):
            with pytest.raises(AttributeError):
                setattr(cfg, f, SPACE)
            if f in CONFIG_FIELDS:
                with pytest.raises(AttributeError):
                    delattr(cfg, f)
        assert repr(cfg) == before


@pytest.mark.parametrize("build, message", [
    (lambda: SpaceConfig(p=math.inf), "p = inf is not supported"),
    (lambda: SpaceConfig(p=0.5), "exponent must satisfy p >= 1, got 0.5"),
    (lambda: SpaceConfig(tail_window=0), "tail_window must be at least 1"),
    (lambda: SpaceConfig(truncation_degree=5), "truncation_degree must be >= tail_window"),
    (lambda: SpaceConfig(tolerance=0), "tolerance must be a finite positive real"),
    (lambda: SpaceConfig(tolerance=True), "tolerance must be a finite positive real"),
    (lambda: SpaceConfig(truncation_degree=12.5, tail_window=2),
     "truncation_degree must be a nonnegative integer, got 12.5"),
    (lambda: SpaceConfig(truncation_degree=True, tail_window=1),
     "truncation_degree must be a nonnegative integer, got True"),
    (lambda: SpaceConfig(truncation_degree=-1, tail_window=1),
     "truncation_degree must be a nonnegative integer, got -1"),
    (lambda: SpaceConfig(truncation_degree="8"),
     "truncation_degree must be a nonnegative integer, got '8'"),
    (lambda: SpaceConfig(tail_window=2.5), "tail_window must be a nonnegative integer, got 2.5"),
    (lambda: SpaceConfig(tail_window=False), "tail_window must be a nonnegative integer, got False"),
    (lambda: SpaceConfig(p=Fraction(10) ** 400),
     "p = inf is not supported; norms require finite p >= 1"),
    (lambda: PolynomialSymbol((1, 0)), "top polynomial coefficient is zero"),
    (lambda: BoundCertificate(math.nan, "upper", None, 3, 0.0, True),
     "certificate value must be nonnegative, got nan"),
    (lambda: BoundCertificate(-1, "upper", None, 3, 0.0, True),
     r"certificate value must be nonnegative, got -1\.0"),
    (lambda: BoundCertificate(1, "sideways", None, 3, 0.0, True), "certificate kind must be"),
    (lambda: BoundCertificate(1, "upper", -1, 3, 0.0, True),
     "attained_at must be None or a nonnegative index"),
    (lambda: BoundCertificate(1, "upper", None, 3.0, 0.0, True),
     "truncation_degree must be a nonnegative integer"),
])
def test_constructor_rejections_keep_their_text(build, message):
    with pytest.raises(ValidationError, match=message):
        build()
