"""Headline numbers of the bundled scenario that the `reference-session`
and `cli-cold` output checks compare against. The values are the ones
pinned by the package's acceptance tests, copied here so the benchmark
does not import the test suite.
"""

ABS_TOL = 1e-3
MATRIX_TOL = 1e-2
UNIQUENESS_EPS = 1e-6

OBJECTIVE = 19.1217
EXPECTED_BREACH = 0.638
STRATEGY = (0.0, 0.0, 0.2, 0.2, 0.0, 0.0, 0.2, 0.4)
BREACH_COLUMN = (0.970, 0.990, 0.950, 0.990, 0.940, 0.835, 0.450, 0.400)
USAGE = {
    "op": 1.2600,
    "cpu": 500941.256,
    "mem": 1045.6,
    "latency": 207.06,
    "resilience": 0.4000,
}

UTILITY_ROWS = {
    11.0: (11.5275, 93.5418, 4.2352, 105.938, 81.605, -1456.808, 16.373, 46.406),
    15.0: (11.5275, -0.5082, 4.2352, 105.938, -30.395, -1456.808, 16.373, 46.406),
    20.0: (1.3275, -0.5082, 4.2352, 105.938, -30.395, -1479.308, 16.373, 46.406),
    25.0: (1.3275, -0.5082, 4.2352, -17.812, -49.995, -1479.308, 16.373, 46.406),
    30.0: (1.3275, -0.5082, 4.2352, -17.812, -49.995, -1490.308, 16.373, 46.406),
}
OPTIMA = (70.154, 54.054, 53.997, 19.122, 19.122)
MIN_BREACH = (0.2077, 0.3454, 0.3454, 0.6331, 0.6331)

MAX_REGRET = 3.2750
MMR_STRATEGY = (0.0, 0.171190, 0.0, 0.282278, 0.0, 0.0, 0.146531, 0.400000)
REGRETS = (3.2750, 3.2750, 3.2188, 3.2750, 3.2750)
MMR_BREACH_ROW = (0.0182, 0.0500, 0.0500, 0.0418, 0.0418)
MMR_BREACH_MAX = 0.0500
# (row label, column index, value) cells of the utility regret matrix
REGRET_MATRIX_CELLS = (("Opt(k=25)", 0, 26.2824), ("Opt(k=11)", -1, 4.1628))

VALIDATE = {
    "ok": True,
    "algorithms": 8,
    "attack_methods": 38,
    "scenario_budgets": [11.0, 15.0, 20.0, 25.0, 30.0],
}
