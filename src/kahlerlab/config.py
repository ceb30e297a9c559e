"""Declarative experiment configuration.

A study is described by a plain JSON document; this module validates it,
builds the metric objects it names, and produces a canonical normalized
form whose hash identifies the run in every report file name.

Metric descriptors::

    {"kind": "fs"}
    {"kind": "log_pole", "t": 0.5, "Q": {"coord": 0}}
    {"kind": "log_pole", "terms": [{"coord": 0, "t": 0.5},
                                   {"coord": 1, "t": 0.25}]}
    {"kind": "max_log", "t": 0.5}
    {"kind": "smoothed_max", "t": 0.5, "c": 0.1,
     "Q1": {"coord": 0}, "Q2": {"coord": 1}}

Polynomial descriptors are either ``{"coord": i}`` or an explicit term
list ``{"degree": d, "terms": [[[exponents], re, im], ...]}``.
"""

import hashlib
import json
from dataclasses import dataclass, field

from .bundles import LineBundle, LogPoleAtom, Metric
from .errors import ConfigurationError
from .geometry import Manifold
from .polynomials import SectionPoly, as_integer, as_real, coordinate_section
from .zeros import MIN_EXPECTED_ZERO_SAMPLES

STUDIES = ("bergman", "dimension", "equidistribution", "fs-convergence",
           "approximation", "expected-zero")

LAMBDA_KINDS = ("log2", "log", "one")

_ALLOWED_KEYS = frozenset({
    "study", "manifold", "degree", "metrics", "p_grid", "samples", "seed",
    "resolution", "exclusion", "adjoint", "eps_list", "thresholds",
    "lambda_kind", "dict_count", "out", "cache",
})


def parse_poly(manifold, desc):
    if not isinstance(desc, dict):
        raise ConfigurationError(f"polynomial descriptor must be a dict, "
                                 f"got {desc!r}")
    if "coord" in desc:
        return coordinate_section(manifold,
                                  as_integer(desc["coord"], "coord"))
    try:
        degree = desc["degree"]
        terms = desc["terms"]
    except KeyError as exc:
        raise ConfigurationError(
            f"polynomial descriptor needs 'coord' or 'degree'+'terms', "
            f"got keys {sorted(desc)}") from exc
    coeff_map = {}
    for entry in terms:
        exps, re, im = entry
        coeff_map[tuple(as_integer(e, "exponent") for e in exps)] = \
            complex(re, im)
    return SectionPoly.from_coeff_map(manifold, degree, coeff_map)


def parse_metric(bundle, desc):
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigurationError(f"metric descriptor needs a 'kind', "
                                 f"got {desc!r}")
    manifold = bundle.manifold
    kind = desc["kind"]
    if kind == "fs":
        return Metric.fubini_study(bundle)
    if kind == "log_pole":
        if "terms" in desc:
            atoms = []
            for term in desc["terms"]:
                Q = parse_poly(manifold,
                               term["Q"] if "Q" in term
                               else {"coord": term["coord"]})
                atoms.append((1.0, LogPoleAtom(Q, as_real(term["t"], "t"))))
            return Metric(bundle, atoms)
        return Metric.log_pole(bundle, parse_poly(manifold, desc["Q"]),
                               as_real(desc["t"], "t"))
    if kind == "max_log":
        return Metric.max_log(bundle, as_real(desc["t"], "t"))
    if kind == "smoothed_max":
        return Metric.smoothed_max(bundle, parse_poly(manifold, desc["Q1"]),
                                   parse_poly(manifold, desc["Q2"]),
                                   c=as_real(desc["c"], "c"),
                                   t=as_real(desc["t"], "t"))
    raise ConfigurationError(f"unknown metric kind {kind!r}")


@dataclass
class ExperimentConfig:
    study: str
    manifold: Manifold
    metrics: list                  # [{"h": Metric, "g": Metric | None}]
    p_grid: list
    samples: int
    seed: tuple
    resolution: int
    exclusion: float
    adjoint: bool
    eps_list: list
    thresholds: list
    lambda_kind: str
    dict_count: int
    cache: str
    raw: dict = field(repr=False)


def _int_list(value, name):
    if not isinstance(value, list):
        raise ConfigurationError(f"{name} must be a list of integers")
    out = [as_integer(v, f"{name} entry") for v in value]
    if not out:
        raise ConfigurationError(f"{name} must not be empty")
    if any(v <= 0 for v in out):
        raise ConfigurationError(f"{name} entries must be positive")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigurationError(f"{name} must be strictly increasing")
    return out


def parse_config(data):
    """Validate a config document and build its metric objects; every
    malformed document raises ``ConfigurationError``, also one whose values
    do not convert (a text sample count, a pole without its ``t``)."""
    try:
        return _parse_config(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed config: {exc!r}") from exc


def _parse_config(data):
    if not isinstance(data, dict):
        raise ConfigurationError("config must be a JSON object")
    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")

    study = data.get("study")
    if study not in STUDIES:
        raise ConfigurationError(
            f"study must be one of {list(STUDIES)}, got {study!r}")

    manifold = Manifold(data.get("manifold", "P1"))
    degree = data.get("degree", 1)
    bundle = LineBundle(manifold, degree)

    metric_descs = data.get("metrics", [{"h": {"kind": "fs"}}])
    if not isinstance(metric_descs, list) or not metric_descs:
        raise ConfigurationError("metrics must be a non-empty list")
    metrics = []
    for entry in metric_descs:
        if not isinstance(entry, dict) or "h" not in entry:
            raise ConfigurationError(
                f"each metrics entry needs an 'h' descriptor, got {entry!r}")
        pair = {"h": parse_metric(bundle, entry["h"]), "g": None}
        g_desc = entry.get("g")
        if g_desc is None and study == "approximation":
            g_desc = {"kind": "fs"}
        if g_desc is not None:
            pair["g"] = parse_metric(bundle, g_desc)
        metrics.append(pair)

    p_grid = _int_list(data.get("p_grid", [8, 16, 32]), "p_grid")

    samples = as_integer(data.get("samples", 100), "samples")
    if samples < 1:
        raise ConfigurationError("samples must be >= 1")
    if study == "expected-zero" and samples < MIN_EXPECTED_ZERO_SAMPLES:
        raise ConfigurationError(
            "the expected-zero study needs at least "
            f"{MIN_EXPECTED_ZERO_SAMPLES} samples for a stable standard "
            "error")

    seed = data.get("seed", [0])
    if isinstance(seed, int):
        seed = [seed]
    if (not isinstance(seed, list) or not seed
            or not all(isinstance(s, int) and not isinstance(s, bool)
                       for s in seed)):
        raise ConfigurationError(
            f"seed must be an integer or a list of integers, got {seed!r}")

    resolution = data.get("resolution")
    if resolution is not None:
        resolution = as_integer(resolution, "resolution")
        if resolution < 8:
            raise ConfigurationError("resolution must be at least 8")

    exclusion = as_real(data.get("exclusion", 0.05), "exclusion")
    if exclusion < 0:
        raise ConfigurationError("exclusion radius must be >= 0")

    adjoint = data.get("adjoint", True)
    if not isinstance(adjoint, bool):
        raise ConfigurationError(
            f"adjoint must be true or false, got {adjoint!r}")

    eps_list = data.get("eps_list")
    if eps_list is not None:
        eps_list = [as_real(e, "eps_list entry") for e in eps_list]
        if any(e <= 0 for e in eps_list):
            raise ConfigurationError("eps_list entries must be positive")
        if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            raise ConfigurationError("eps_list must be strictly decreasing")

    thresholds = data.get("thresholds")
    if thresholds is not None:
        thresholds = [as_real(t, "thresholds entry") for t in thresholds]

    lambda_kind = data.get("lambda_kind", "log2")
    if lambda_kind not in LAMBDA_KINDS:
        raise ConfigurationError(
            f"lambda_kind must be one of {list(LAMBDA_KINDS)}")

    dict_count = as_integer(data.get("dict_count", 12), "dict_count")
    if dict_count < 1:
        raise ConfigurationError("dict_count must be >= 1")

    out = str(data.get("out", "out"))
    cache = data.get("cache")
    if cache is not None:
        cache = str(cache)

    normalized = {
        "study": study,
        "manifold": manifold.kind,
        "degree": list(bundle.degree),
        "metrics": metric_descs,
        "p_grid": p_grid,
        "samples": samples,
        "seed": seed,
        "resolution": resolution,
        "exclusion": exclusion,
        "adjoint": adjoint,
        "eps_list": eps_list,
        "thresholds": thresholds,
        "lambda_kind": lambda_kind,
        "dict_count": dict_count,
        "out": out,
        "cache": cache,
    }
    return ExperimentConfig(
        study=study, manifold=manifold, metrics=metrics, p_grid=p_grid,
        samples=samples, seed=tuple(seed), resolution=resolution,
        exclusion=exclusion, adjoint=adjoint, eps_list=eps_list,
        thresholds=thresholds, lambda_kind=lambda_kind,
        dict_count=dict_count, cache=cache, raw=normalized)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {path} is not valid JSON: "
                                     f"{exc}") from exc
    return parse_config(data)


def config_fragment(cfg):
    """The hash-relevant part of the normalized config.

    Output locations do not change what is computed, so ``out`` and
    ``cache`` stay outside the fragment: re-running into a different
    directory keeps the same identity.
    """
    return {k: v for k, v in cfg.raw.items() if k not in ("out", "cache")}


def config_hash(cfg):
    blob = json.dumps(config_fragment(cfg), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
