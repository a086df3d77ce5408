"""Every public number passes the core checks.

One table names each public callable that takes numbers, with valid
arguments and the kind of each number parameter. Each such parameter
is fed a string, a bool, NaN and +-inf (and 2.5 for counts), and every
call must raise ParameterError: nothing is parsed, truncated or run on
a non-finite value. A second table does the same for array parameters
with string, bool and object arrays, and a third feeds NaN, +inf, empty
and wrong-shaped arrays to every value array that check_values admits.
A companion test walks the public names of the package and of gridio
and fails when a callable has a parameter that may hold a number and is
in neither of the first two tables: one whose annotation names
``float`` or ``int`` (``Optional[Tuple[int, int]]`` included), or one
with no annotation whose name is not listed in NOT_NUMBERS.
"""

import inspect
import math
import re

import numpy as np
import pytest

import sparseland
from sparseland import gridio
from sparseland.core import check_array, check_count, check_exponent, check_real
from sparseland.errors import AlignmentError, ParameterError

REAL = ("1", True, math.nan, math.inf, -math.inf)
COUNT = REAL + (2.5,)
# a count inside a pair, the other entry valid
SHAPE = tuple((bad, 64) for bad in COUNT)
KINDS = {"real": REAL, "count": COUNT, "shape": SHAPE}


def _weights():
    return sparseland.WeightSequence.uniform(3)


def _diagonal():
    return sparseland.DiagonalOperator(np.array([0.5, 0.25, 0.8]))


def _noise():
    return sparseland.NoisePrior(0.1, 1.0)


# public callable -> (valid keyword arguments, {number parameter: kind}); a
# row with no number parameter still has its valid call checked
TABLE = {
    "CoefficientVector": (lambda: dict(values=np.ones(128)), {"dims": "shape"}),
    "WeightSequence": (lambda: dict(w=np.ones(3)), {}),
    "WeightSequence.uniform": (lambda: dict(n=3), {"n": "count"}),
    "PenaltySpec": (lambda: dict(p=1.5, weights=_weights(), mu=0.1),
                    {"p": "real", "mu": "real"}),
    "PenaltySpec.uniform": (lambda: dict(p=1.5, mu=0.1, n=3),
                            {"p": "real", "mu": "real", "n": "count"}),
    "soft_threshold": (lambda: dict(x=np.ones(3), w=0.5), {"w": "real"}),
    "shrink_p": (lambda: dict(x=np.ones(3), w=0.5, p=1.3), {"w": "real", "p": "real"}),
    "shrink_complex": (lambda: dict(z=np.ones(3) + 1j, w=0.5, p=1.3),
                       {"w": "real", "p": "real"}),
    "shrink_asymmetric": (lambda: dict(x=np.ones(3), w_plus=0.5, w_minus=0.5, p=1.3),
                          {"w_plus": "real", "w_minus": "real", "p": "real"}),
    "LinearOperatorHandle": (lambda: dict(domain_len=3, image_len=3, norm_bound=0.5),
                             {"domain_len": "count", "image_len": "count",
                              "norm_bound": "real", "domain_dims": "shape"}),
    "Convolution2DOperator": (lambda: dict(grid=(64, 64), pad=(128, 128),
                                           radius_fraction=0.1),
                              {"grid": "shape", "pad": "shape", "radius_fraction": "real"}),
    "ScaledOperator": (lambda: dict(base=_diagonal(), factor=0.5, norm_bound=0.4),
                       {"factor": "real", "norm_bound": "real"}),
    "renormalize": (lambda: dict(K=_diagonal(), g=np.ones(3)), {}),
    "validate_operator": (lambda: dict(K=_diagonal(), n_probes=2, seed=0, tol=1e-10),
                          {"n_probes": "count", "seed": "count", "tol": "real"}),
    "thresholded_svd_solve": (lambda: dict(model=sparseland.SvdModel(np.array([0.5, 0.2])),
                                           g=np.ones(2), mu=0.1),
                              {"mu": "real"}),
    "SolverConfig": (lambda: dict(max_iterations=10, step_tolerance=1e-8),
                     {"max_iterations": "count", "step_tolerance": "real"}),
    "WaveletSpec": (lambda: dict(family="db2", levels=2), {"levels": "count"}),
    "BesovWeightSpec": (lambda: dict(s=1.0, p=1.5, d=2),
                        {"s": "real", "p": "real", "d": "count"}),
    "NoisePrior": (lambda: dict(epsilon=0.1, rho=1.0), {"epsilon": "real", "rho": "real"}),
    "mu_schedule": (lambda: dict(noise=_noise(), p=1.5), {"p": "real"}),
    "primed_radii": (lambda: dict(noise=_noise(), mu=0.01, p=1.5),
                     {"mu": "real", "p": "real"}),
    "modulus_bounds": (lambda: dict(env=sparseland.SpectralEnvelope(np.ones(3), np.ones(3)),
                                    weights=_weights(), p=1.5, noise=_noise()),
                       {"p": "real"}),
    "besov_modulus_rate": (lambda: dict(alpha=1.0, sigma=0.5, A_lower=0.5, A_upper=1.0,
                                        noise=_noise()),
                           {"alpha": "real", "sigma": "real", "A_lower": "real",
                            "A_upper": "real"}),
    "CaseSpec": (lambda: dict(name="l1", p=1.0, mu=1e-3, project=False),
                 {"p": "real", "mu": "real"}),
    "ExperimentConfig": (lambda: dict(grid=(64, 64), pad=(128, 128)),
                         {"grid": "shape", "pad": "shape", "radius_fraction": "real",
                          "total_photons": "real", "iterations": "count", "seed": "count",
                          "smoothing_sigma": "real"}),
    "add_poisson_noise": (lambda: dict(image=np.ones((4, 4)), total_photons=100.0, seed=0),
                          {"total_photons": "real", "seed": "count"}),
    "count_profile_peaks": (lambda: dict(profile=np.ones(5), rel_height=0.5),
                            {"rel_height": "real", "window": "shape"}),
}

# public callable -> (valid keyword arguments, its array parameters); each
# array is probed as strings, bools and Python objects of the same values
ARRAY_TABLE = {
    "CoefficientVector": (lambda: dict(values=np.ones(3)), ("values",)),
    "WeightSequence": (lambda: dict(w=np.ones(3)), ("w",)),
    "DiagonalOperator": (lambda: dict(entries=np.ones(3)), ("entries",)),
    "DenseOperator": (lambda: dict(matrix=np.eye(3)), ("matrix",)),
    "SvdModel": (lambda: dict(singular_values=np.array([0.5, 0.2])), ("singular_values",)),
    "thresholded_svd_solve": (lambda: dict(model=sparseland.SvdModel(np.array([0.5, 0.2])),
                                           g=np.ones(2), mu=0.1), ("g",)),
    "renormalize": (lambda: dict(K=_diagonal(), g=np.ones(3)), ("g",)),
    "as_coefficients": (lambda: dict(f=np.ones(3)), ("f",)),
    "soft_threshold": (lambda: dict(x=np.ones(3), w=0.5), ("x",)),
    "shrink_p": (lambda: dict(x=np.ones(3), w=np.ones(3), p=1.3), ("x", "w")),
    "shrink_complex": (lambda: dict(z=np.ones(3) + 1j, w=0.5, p=1.3), ("z",)),
    "shrink_asymmetric": (lambda: dict(x=np.ones(3), w_plus=0.5, w_minus=0.5, p=1.3),
                          ("x",)),
    "dwt": (lambda: dict(signal=np.ones(8), spec=sparseland.WaveletSpec("haar", 1)),
            ("signal",)),
    "besov_weights": (lambda: dict(spec=sparseland.BesovWeightSpec(1.0, 1.5),
                                   scale_labels=np.array([0, 1, 1])), ("scale_labels",)),
    "SpectralEnvelope": (lambda: dict(b=np.ones(3), B=np.ones(3)), ("b", "B")),
    "check_mu_requirements": (lambda: dict(schedule=np.array([0.5, 0.4, 0.3]),
                                           eps_grid=np.array([0.3, 0.2, 0.1])),
                              ("schedule", "eps_grid")),
    "add_poisson_noise": (lambda: dict(image=np.ones((4, 4)), total_photons=100.0, seed=0),
                          ("image",)),
    "count_profile_peaks": (lambda: dict(profile=np.ones(5)), ("profile",)),
    "iterate_step": (lambda: dict(f=np.ones(3), g=np.ones(3), K=_diagonal(),
                                  spec=sparseland.PenaltySpec.uniform(1.5, 0.1, 3)),
                     ("f", "g")),
    "solve": (lambda: dict(g=np.ones(3), K=_diagonal(),
                           spec=sparseland.PenaltySpec.uniform(1.5, 0.1, 3),
                           config=sparseland.SolverConfig(max_iterations=2), f0=np.ones(3)),
              ("g", "f0")),
}

# records the library fills with its own results; callers read them and
# have no reason to build one, so their fields are not inputs
RESULT_RECORDS = {"ObjectiveBreakdown", "RenormalizedProblem", "SolveResult", "NoisyData",
                  "WaveletCoefficients"}

# names of unannotated parameters that hold an array, an operator, a dtype
# or a path in every public callable, never a single number
NOT_NUMBERS = {"self", "f", "g", "f0", "a", "K", "grid", "domain_dtype",
               "path", "image", "array", "trace"}


def _resolve(qualname):
    obj = sparseland
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


PROBES = [(name, param, bad)
          for name, (_, params) in TABLE.items()
          for param, kind in params.items()
          for bad in KINDS[kind]]


@pytest.mark.parametrize("name, param, bad", PROBES,
                         ids=[f"{n}-{p}-{b!r}" for n, p, b in PROBES])
def test_bad_number_raises(name, param, bad):
    valid, _ = TABLE[name]
    with pytest.raises(ParameterError):
        _resolve(name)(**{**valid(), param: bad})


ARRAY_PROBES = [(name, param, dtype)
                for name, (_, params) in ARRAY_TABLE.items()
                for param in params
                for dtype in (str, bool, object)]


@pytest.mark.parametrize("name, param, dtype", ARRAY_PROBES,
                         ids=[f"{n}-{p}-{d.__name__}" for n, p, d in ARRAY_PROBES])
def test_non_numeric_array_raises(name, param, dtype):
    valid = ARRAY_TABLE[name][0]()
    with pytest.raises(ParameterError):
        _resolve(name)(**{**valid, param: np.asarray(valid[param]).astype(dtype)})


RAGGED_PROBES = [(name, param) for name, (_, params) in ARRAY_TABLE.items() for param in params]


@pytest.mark.parametrize("name, param", RAGGED_PROBES,
                         ids=[f"{n}-{p}" for n, p in RAGGED_PROBES])
def test_ragged_array_raises(name, param):
    # numpy refuses to build an array from it; the library says so
    valid = ARRAY_TABLE[name][0]()
    with pytest.raises(ParameterError, match="must form an array"):
        _resolve(name)(**{**valid, param: [[1.0, 2.0], [3.0]]})


@pytest.mark.parametrize("table, name", [(t, n) for t in (TABLE, ARRAY_TABLE) for n in t])
def test_valid_arguments_accepted(table, name):
    # the probes would pass vacuously if the base call itself raised
    _resolve(name)(**table[name][0]())


def test_numpy_numbers_accepted():
    assert check_real(np.float32(0.5), "x") == 0.5
    assert type(check_real(np.int64(3), "x", lower="positive")) is float
    assert check_exponent(np.float16(1.5)) == 1.5
    assert check_count(np.uint8(2), "n") == 2
    assert check_real(0.0, "x", lower="nonnegative") == 0.0
    for dtype in (np.int8, np.uint16, np.float32, np.complex64):
        assert check_array(np.ones(2, dtype), "a", complex_ok=True).dtype == dtype


@pytest.mark.parametrize("x, bound", [
    (0.0, "positive"), (-0.0, "positive"), (-1e-300, "nonnegative"),
    (10**400, None), (-(10**400), "nonnegative"), (np.float64(np.nan), "positive"),
])
def test_check_real_bounds(x, bound):
    # a Python int beyond the float range is not finite either
    with pytest.raises(ParameterError):
        check_real(x, "x", lower=bound)


def test_check_real_unknown_bound():
    with pytest.raises(ValueError):
        check_real(1.0, "x", lower="negative")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_wavelet_transforms_reject_non_finite(bad):
    # the array kernels dwt_array/idwt_array run every solve iteration and
    # stay unchecked; the public transforms check once
    spec = sparseland.WaveletSpec("db2", 1)
    signal = np.array([1.0, 2.0, bad, 4.0])
    with pytest.raises(ParameterError, match="finite"):
        sparseland.dwt(signal, spec)
    coefficients = sparseland.dwt(np.ones(4), spec)
    coefficients.values[2] = bad
    with pytest.raises(ParameterError, match="finite"):
        sparseland.idwt(coefficients)


def _coefficients(values):
    coefficients = sparseland.dwt(np.ones(8), sparseland.WaveletSpec("haar", 1))
    coefficients.values = values
    return sparseland.idwt(coefficients)


def _model():
    return sparseland.SvdModel(np.array([0.5, 0.2]))


# every value array that check_values admits: (the call on that array, a
# valid array, the number of axes it must have or None for any)
GATED = {
    "CoefficientVector-values": (sparseland.CoefficientVector, np.ones(3), None),
    "WeightSequence-w": (sparseland.WeightSequence, np.ones(3), 1),
    "DiagonalOperator-entries": (sparseland.DiagonalOperator, np.ones(3), 1),
    "DenseOperator-matrix": (sparseland.DenseOperator, np.eye(3), 2),
    "SvdModel-singular_values": (sparseland.SvdModel, np.array([0.5, 0.2]), 1),
    "thresholded_svd_solve-g": (lambda g: sparseland.thresholded_svd_solve(_model(), g, 0.1),
                                np.ones(2), 1),
    "renormalize-g": (lambda g: sparseland.renormalize(_diagonal(), g), np.ones(3), None),
    "dwt-signal": (lambda x: sparseland.dwt(x, sparseland.WaveletSpec("haar", 1)),
                   np.ones(8), None),
    "idwt-values": (_coefficients, np.ones(8), None),
    "besov_weights-scale_labels": (
        lambda labels: sparseland.besov_weights(sparseland.BesovWeightSpec(1.0, 1.5), labels),
        np.array([0.0, 1.0, 1.0]), 1),
    "SpectralEnvelope-b": (lambda b: sparseland.SpectralEnvelope(b, np.ones(3)), np.ones(3), 1),
    "SpectralEnvelope-B": (lambda B: sparseland.SpectralEnvelope(np.ones(3), B), np.ones(3), 1),
    "check_mu_requirements-eps_grid": (
        lambda eps: sparseland.check_mu_requirements(np.array([0.5, 0.4, 0.3]), eps),
        np.array([0.3, 0.2, 0.1]), 1),
    "check_mu_requirements-schedule": (
        lambda mu: sparseland.check_mu_requirements(mu, np.array([0.3, 0.2, 0.1])),
        np.array([0.5, 0.4, 0.3]), 1),
    "count_profile_peaks-profile": (sparseland.count_profile_peaks, np.ones(5), 1),
    "add_poisson_noise-image": (lambda image: sparseland.add_poisson_noise(image, 100.0, 0),
                                np.ones((4, 4)), None),
}


def _defective(valid, ndim):
    """(defect, array) pairs: a NaN, a +inf, an empty array and, where the
    number of axes is fixed, the valid entries with one axis too many or too few."""
    nan, inf = valid.astype(np.float64), valid.astype(np.float64)
    nan.flat[0], inf.flat[-1] = np.nan, np.inf
    yield "nan", nan
    yield "inf", inf
    yield "empty", np.empty((0,) * (ndim or 1))
    if ndim == 1:
        yield "ndim", valid[None]
    elif ndim == 2:
        yield "ndim", valid.ravel()


GATE_PROBES = [(row, defect, bad) for row, (_, valid, ndim) in GATED.items()
               for defect, bad in _defective(valid, ndim)]


@pytest.mark.parametrize("row, defect, bad", GATE_PROBES,
                         ids=[f"{row}-{defect}" for row, defect, _ in GATE_PROBES])
def test_defective_value_array_raises(row, defect, bad):
    call = GATED[row][0]
    with pytest.raises((ParameterError, AlignmentError)):
        call(bad)


def test_every_gated_array_is_accepted():
    # the probes would pass vacuously if the valid call itself raised
    for call, valid, _ in GATED.values():
        call(valid.copy())


def _products(K):
    return K.apply(np.ones(3)), K.adjoint(np.ones(3)), K.normal(np.ones(3)), K.norm_bound


# constructor -> (what it derives from its array: products, bounds and
# the like, the attributes that store the array)
KEPT = {
    "DiagonalOperator": (_products, ("entries",)),
    "DenseOperator": (_products, ("matrix",)),
    "WeightSequence": (lambda ws: (ws.c,), ("w",)),
    "SvdModel": (lambda m: _products(m.operator()), ("singular_values",)),
    "SpectralEnvelope": (lambda env: (), ("b", "B")),
    "CoefficientVector": (lambda cv: (), ("values",)),
}


@pytest.mark.parametrize("name", sorted(KEPT))
def test_constructed_object_ignores_its_callers_array(name):
    values = (np.array([[0.5, 0.1, 0.0], [0.2, 0.4, 0.1], [0.0, 0.3, 0.6]])
              if name == "DenseOperator" else np.array([0.8, 0.5, 0.25]))
    args = (values, values.copy()) if name == "SpectralEnvelope" else (values,)
    built = getattr(sparseland, name)(*args)
    derived, stored = KEPT[name]

    def kept():
        return [np.array(v).tobytes() for v in (*derived(built),
                                                *(getattr(built, a) for a in stored))]

    before = kept()
    values *= 0.5
    assert kept() == before
    for attr in stored:
        assert not getattr(built, attr).flags.writeable


def test_gate_copy_is_not_copied_again():
    # renormalize's gated data reaches the solver without a second copy
    K = sparseland.DiagonalOperator([0.5, 0.25, 0.75])
    r = sparseland.renormalize(K, np.array([1.0, -2.0, 3.0]))
    cv = sparseland.CoefficientVector(r.data)
    assert cv.values is r.data
    # the rules other than the copy still apply to it
    with pytest.raises(ParameterError):
        sparseland.WeightSequence(r.data)
    with pytest.raises(ParameterError):
        sparseland.DenseOperator(r.data)
    # a caller's read-only array is copied: its owner can make it writeable
    mine = np.array([1.0, -2.0, 3.0])
    mine.flags.writeable = False
    kept = sparseland.CoefficientVector(mine).values
    assert kept is not mine and not kept.flags.writeable
    mine.flags.writeable = True
    mine[0] = 7.0
    assert kept[0] == 1.0
    # as is a gated array made writeable again
    r.data.flags.writeable = True
    assert sparseland.CoefficientVector(r.data).values is not r.data


def _public_callables():
    names = [(name, getattr(sparseland, name)) for name in sparseland.__all__]
    names += [(name, getattr(gridio, name)) for name in gridio.__all__]
    for name, obj in names:
        if not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)) or inspect.isfunction(member):
                    yield f"{name}.{attr}", getattr(obj, attr)


def _may_hold_a_number(param):
    if param.annotation is param.empty:
        return param.name not in NOT_NUMBERS
    return re.search(r"\b(int|float)\b", str(param.annotation)) is not None


def test_every_number_parameter_is_in_the_table():
    missing = []
    for name, obj in _public_callables():
        if name in RESULT_RECORDS:
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # builtins without a signature
            continue
        covered = {*TABLE.get(name, (None, {}))[1], *ARRAY_TABLE.get(name, (None, ()))[1]}
        missing += [f"{name}({param.name})" for param in params
                    if param.name not in covered and _may_hold_a_number(param)]
    assert missing == []


def test_table_names_are_public():
    names = [*TABLE, *ARRAY_TABLE]
    assert [n for n in names if n.split(".")[0] not in sparseland.__all__] == []
    assert RESULT_RECORDS <= set(sparseland.__all__)
