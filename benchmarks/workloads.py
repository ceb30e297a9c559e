"""The benchmark's study configs.

Each workload isolates one of the two expensive mechanisms of the
numerics: Bergman kernels from torus-invariant bases on toric quadrature,
or zeros of Gaussian random sections.  The program only ever sees the
config that :func:`study_config` generates; the benchmark's seed fills its
``"seed"`` field.
"""

import copy

_LOG_POLE_OFF_AXES = {
    "kind": "log_pole", "t": 0.5,
    "Q": {"degree": 1, "terms": [[[1, 0], 1.0, 0.0], [[0, 1], 0.6, 0.3]]},
}

# name -> (why, config without seed and cache).  Sizes are cut so that a
# run of the benchmark holds many short cold+warm pairs (a second or two
# each; p2-divisor, whose 100 samples are the study's minimum, about five),
# with each workload's layer mix kept.
WORKLOADS = {
    "p2-wedge": (
        "derivative route on P2 (reduced Hessian, eval_monomials); "
        "diagonal Gram and no zeros, so it bypasses Gram, cache and zeros",
        {"study": "fs-convergence", "manifold": "P2",
         "metrics": [{"h": {"kind": "log_pole", "t": 0.5,
                            "Q": {"coord": 0}}}],
         "p_grid": [6, 10], "dict_count": 4},
    ),
    # cold_s - warm_s isolates Gram assembly, eigh and the cache
    "p1-zeros": (
        "nodes Gram path on P1 (pole off the axes) replayed by the cache, "
        "then curve zeros of random sections",
        {"study": "equidistribution", "manifold": "P1", "degree": 2,
         "metrics": [{"h": _LOG_POLE_OFF_AXES}],
         "p_grid": [4, 8], "samples": 40},
    ),
    # 100 samples is the study's minimum; two forms, because the first
    # (constant) one pairs to the mass whatever the log-norm values are
    "p2-divisor": (
        "divisor-mode zero pairing on P2 via log-norm potentials; "
        "100 samples repeat sample-independent pairing work",
        {"study": "expected-zero", "manifold": "P2",
         "metrics": [{"h": {"kind": "fs"}}],
         "p_grid": [4], "samples": 100, "dict_count": 2},
    ),
    # at seed [0] cell (eps=0.25, p=10) fails on its first sample, so any
    # sample count keeps that failed cell in the report
    "p2-approx": (
        "approximation study on P2: common zeros of section pairs and "
        "dictionary distances, with one RootFindingError cell at seed 0",
        {"study": "approximation", "manifold": "P2",
         "metrics": [{"h": {"kind": "log_pole", "t": 0.25,
                            "Q": {"coord": 0}}},
                     {"h": {"kind": "log_pole", "t": 0.25,
                            "Q": {"coord": 1}}}],
         "eps_list": [0.5, 0.25], "p_grid": [6, 8, 10], "samples": 2,
         "dict_count": 6},
    ),
}

# Same studies and layer mix at sizes that run in about a second, for the
# benchmark's own tests.
SMOKE = {
    "p2-wedge": {"p_grid": [5, 6], "dict_count": 2},
    "p1-zeros": {"p_grid": [4, 6], "samples": 3},
    "p2-divisor": {"p_grid": [4], "dict_count": 1},
    "p2-approx": {"eps_list": [0.5], "p_grid": [4], "samples": 1,
                  "dict_count": 2},
}


def study_config(name, seed, cache_dir, smoke=False):
    """The config document the program receives for one workload."""
    cfg = copy.deepcopy(WORKLOADS[name][1])
    if smoke:
        cfg.update(SMOKE[name])
    cfg["seed"] = [int(seed)]
    cfg["cache"] = str(cache_dir)
    return cfg
