"""The library's 15 records: construction, immutability, repr, copying and
equality. Each case lists the record's fields in the order of the frozen
dataclasses the records once were, so the repr text and the positional
signature stay as they were."""

import copy
import pickle

import numpy as np
import pytest

from loweig import (
    BenchConfig,
    BenchRecord,
    EigenFactor,
    LabeledBatch,
    LowRankFactor,
    MetricModel,
    Spectrum,
    SpectrumBlock,
    SymEig,
    ThinSvd,
    TruncationResult,
    UpdateConfig,
    UpdateStats,
    WeightedData,
)
from loweig.fast_eigh import _Core
from loweig.kernels import _Record, _unchecked

E3 = np.eye(3)
EIGEN = EigenFactor(1.0, E3[:, :2], np.array([2.0, 1.0]))
SYM = SymEig(np.eye(2), np.array([2.0, 1.0]))
BLOCK = SpectrumBlock(3.0, 1, (0,))

# (class, field names, positional arguments, defaults of the trailing fields)
CASES = [
    (ThinSvd, ("U", "S", "V"), (E3[:, :2], np.array([2.0, 1.0]), np.eye(2)), {}),
    (SymEig, ("E", "D"), (np.eye(2), np.array([2.0, 1.0])), {}),
    (LowRankFactor, ("alpha", "Q", "B"), (2.0, E3[:, :1], np.ones((1, 1))), {}),
    (WeightedData, ("X", "Y"), (np.ones((3, 1)), np.zeros((3, 0))), {}),
    (EigenFactor, ("alpha", "E", "D"), (1.0, E3[:, :2], np.array([2.0, 1.0])), {}),
    (
        _Core,
        ("route", "eig", "parts", "p", "rinv", "novelty_ratio", "dropped"),
        ("gram", SYM, (np.ones((3, 1)),), np.ones((1, 1)), np.ones((1, 1)), 0.5, 1),
        {"p": None, "rinv": None, "novelty_ratio": None, "dropped": 0},
    ),
    (UpdateConfig, ("decay", "gain", "rank_cap", "floor"), (0.9, 0.25, 4, 1e-3), {"floor": None}),
    (LabeledBatch, ("vectors", "weights"), (np.ones((2, 3)), np.array([1.0, -1.0])), {}),
    (
        UpdateStats,
        ("path", "floored", "truncated", "tau", "route", "novelty_ratio", "dropped",
         "orthogonality", "alpha", "condition", "window_log_variance"),
        ("fast", 2, True, 3, "gram", 0.5, 1, 1e-15, 0.5, 10.0, 0.25),
        {"tau": None, "route": None, "novelty_ratio": None, "dropped": 0,
         "orthogonality": None, "alpha": None, "condition": None,
         "window_log_variance": None},
    ),
    (MetricModel, ("eigen", "stats"), (EIGEN, UpdateStats("decay", 0, False)), {"stats": None}),
    (SpectrumBlock, ("value", "multiplicity", "indices"), (2.0, 3, (0, 1)), {"indices": ()}),
    (Spectrum, ("blocks", "total"), ((BLOCK, SpectrumBlock(1.0, 2)), 3), {}),
    (
        TruncationResult,
        ("new_alpha", "kept_top", "kept_bottom", "tau"),
        (1.5, [(3.0, 0)], [(0.5, 2)], 1),
        {},
    ),
    (
        BenchConfig,
        ("m_grid", "n", "nx", "ny", "repeats", "seed", "algorithms"),
        ((8, 16), 2, 1, 0, 3, 5, ("svd",)),
        {"n": 1, "nx": 1, "ny": 1, "repeats": 11, "seed": 0, "algorithms": ("feigh", "svd")},
    ),
    (
        BenchRecord,
        ("algorithm", "m", "n", "nx", "ny", "repeat", "seconds"),
        ("feigh", 8, 1, 1, 1, 0, 1e-3),
        {},
    ),
]
IDS = [case[0].__name__ for case in CASES]
ARRAY_RECORDS = (ThinSvd, SymEig, LowRankFactor, WeightedData, EigenFactor, _Core,
                 LabeledBatch, MetricModel)


def same(a, b):
    """Field-wise equality that looks into arrays, records and containers."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, _Record):
        return type(a) is type(b) and all(
            same(getattr(a, name), getattr(b, name)) for name in a._fields
        )
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


def test_cases_cover_every_record():
    assert len(CASES) == 15
    assert set(ARRAY_RECORDS) < {case[0] for case in CASES}


@pytest.mark.parametrize("cls, names, args, defaults", CASES, ids=IDS)
class TestRecord:
    def test_fields(self, cls, names, args, defaults):
        assert cls._fields == names
        obj = cls(*args)
        assert all(same(getattr(obj, n), a) for n, a in zip(names, args))

    def test_keyword_construction(self, cls, names, args, defaults):
        assert same(cls(**dict(zip(names, args))), cls(*args))

    def test_default_construction(self, cls, names, args, defaults):
        required = len(names) - len(defaults)
        assert names[required:] == tuple(defaults)
        obj = cls(*args[:required])
        assert all(same(getattr(obj, n), v) for n, v in defaults.items())

    def test_missing_or_unknown_argument(self, cls, names, args, defaults):
        required = len(names) - len(defaults)
        with pytest.raises(TypeError):
            cls(*args[:required - 1])
        with pytest.raises(TypeError):
            cls(*args, no_such_field=1)
        with pytest.raises(TypeError):
            cls(*args, **{names[0]: args[0]})  # given twice

    def test_assignment_and_deletion_raise(self, cls, names, args, defaults):
        obj = cls(*args)
        before = {n: getattr(obj, n) for n in names}
        for name in (*names, "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert all(getattr(obj, n) is v for n, v in before.items())
        assert set(vars(obj)) >= set(names)

    def test_repr_is_the_dataclass_text(self, cls, names, args, defaults):
        obj = cls(*args)
        body = ", ".join(f"{n}={getattr(obj, n)!r}" for n in names)
        text = repr(obj)
        assert text == f"{cls.__name__}({body})"
        assert "_weights" not in text

    def test_pickle_and_copy_round_trip(self, cls, names, args, defaults):
        obj = cls(*args)
        loaded = pickle.loads(pickle.dumps(obj))
        assert type(loaded) is cls and same(loaded, obj)
        assert vars(loaded).keys() == vars(obj).keys()
        shallow = copy.copy(obj)
        assert type(shallow) is cls and shallow is not obj
        assert all(vars(shallow)[k] is v for k, v in vars(obj).items())

    def test_unchecked_fills_exactly_the_fields(self, cls, names, args, defaults):
        values = [object() for _ in names]
        obj = _unchecked(cls, *values)
        assert list(vars(obj)) == list(names)
        assert all(getattr(obj, n) is v for n, v in zip(names, values))
        with pytest.raises(ValueError):
            _unchecked(cls, *values[:-1])

    def test_equality_and_hash(self, cls, names, args, defaults):
        a, b = cls(*args), cls(*args)
        assert a == a and not a != a
        if cls in ARRAY_RECORDS:
            # identity: no element-wise comparison of the arrays inside
            assert a != b and not a == b
            assert hash(a) == hash(a) and len({a, b}) == 2
        else:
            assert a == b and not a != b
            assert a != _unchecked(cls, *[None] * len(names))
            if cls is TruncationResult:
                with pytest.raises(TypeError, match="unhashable"):
                    hash(a)
            else:
                assert hash(a) == hash(b)


def test_eigen_factor_keeps_its_measured_orthogonality():
    ef = EigenFactor(1.0, E3[:, :2], np.array([2.0, 1.0]))
    assert ef.orthogonality == 0.0
    assert "orthogonality" not in repr(ef)
    assert pickle.loads(pickle.dumps(ef)).orthogonality == 0.0
    assert _unchecked(EigenFactor, 1.0, E3[:, :2], np.array([2.0, 1.0])).orthogonality is None


def test_model_keeps_its_weights_and_one_factor_view():
    model = MetricModel(EIGEN)
    np.testing.assert_array_equal(model._weights, 1.0 / (1.0 + EIGEN.D) - 1.0)
    assert model.factor is model.factor
    assert model.factor.Q is EIGEN.E
    loaded = pickle.loads(pickle.dumps(model))
    np.testing.assert_array_equal(loaded._weights, model._weights)
    assert loaded.factor is loaded.factor and same(loaded.factor, model.factor)


def test_snapshots_of_one_matrix_compare_by_identity():
    a, b = MetricModel.identity(6, 1.0), MetricModel.identity(6, 1.0)
    assert a != b and a == a
    assert len({a, b, a}) == 2
    r2 = MetricModel(EIGEN)
    assert r2 != MetricModel(EIGEN)


def test_value_records_compare_field_wise():
    assert UpdateConfig(0.9, 0.25, 4) == UpdateConfig(decay=0.9, gain=0.25, rank_cap=4)
    assert UpdateConfig(0.9, 0.25, 4) != UpdateConfig(0.9, 0.25, 5)
    assert len({UpdateConfig(0.9, 0.25, 4), UpdateConfig(0.9, 0.25, 4, None)}) == 1
    assert BenchConfig([8, 16]) == BenchConfig((8, 16))
    # equal only within a class, as the dataclasses were
    assert SpectrumBlock(1.0, 1) != Spectrum((SpectrumBlock(1.0, 1),), 1)
    assert UpdateConfig(0.9, 0.25, 4) != (0.9, 0.25, 4, None)
