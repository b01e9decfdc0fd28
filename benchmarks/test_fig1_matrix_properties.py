"""Fig. 1 reproduction: the structural properties of the fingerprint matrix.

The paper's Fig. 1 is a schematic of the fingerprint matrix and the three
observations TafLoc builds on. This benchmark verifies each observation
*quantitatively* on a surveyed matrix from the simulated testbed:

  (i)   the matrix is approximately low rank;
  (ii)  it is well represented as a linear combination of a few of its own
        columns (small LRR residual at n = 10 of 96);
  (iii) the largely-distorted entries are continuous along a link and
        similar across adjacent links (smoothness ratios << 1 vs. a
        column-shuffled control).
"""

import numpy as np

from benchmarks.conftest import emit
from repro.core.distortion import build_distortion_profile
from repro.core.lrr import LrrConfig, fit_lrr
from repro.core.operators import continuity_operator, similarity_operator
from repro.core.reference import select_references
from repro.eval.reporting import format_summary, format_table
from repro.util.linalg import effective_rank


def analyze_matrix_properties(system, deployment):
    fingerprint = system.database.initial()
    matrix = fingerprint.values
    centered = matrix - matrix.mean(axis=1, keepdims=True)

    # Property (i): low rank.
    sigma = np.linalg.svd(centered, compute_uv=False)
    energy_top4 = float(np.sum(sigma[:4] ** 2) / np.sum(sigma**2))

    # Property (ii): LRR with few reference columns.
    lrr_residuals = {}
    for n in (5, 10, 20):
        refs = select_references(matrix, n)
        model = fit_lrr(matrix, refs.cells, LrrConfig())
        lrr_residuals[n] = model.training_residual

    # Property (iii): smoothness of the largely-distorted entries. Compare
    # |difference| across *adjacent* cell pairs (same link, both distorted)
    # against *random* same-link distorted pairs; continuity predicts the
    # adjacent differences are smaller. Similarity does the same across
    # adjacent links at one cell.
    profile = build_distortion_profile(fingerprint)
    dips = profile.dips
    mask = profile.largely_distorted
    rng = np.random.default_rng(0)

    adjacent_diffs, random_diffs = [], []
    g = continuity_operator(deployment.grid).toarray()
    for p in range(g.shape[1]):
        a, b = np.flatnonzero(g[:, p])
        for i in range(dips.shape[0]):
            if mask[i, a] and mask[i, b]:
                adjacent_diffs.append(abs(dips[i, a] - dips[i, b]))
    for i in range(dips.shape[0]):
        cells = np.flatnonzero(mask[i])
        for _ in range(len(cells)):
            if len(cells) >= 2:
                a, b = rng.choice(cells, size=2, replace=False)
                random_diffs.append(abs(dips[i, a] - dips[i, b]))

    link_diffs, link_random = [], []
    h = similarity_operator(deployment).toarray()
    for p in range(h.shape[0]):
        a, b = np.flatnonzero(h[p])
        for j in range(dips.shape[1]):
            if mask[a, j] and mask[b, j]:
                link_diffs.append(abs(dips[a, j] - dips[b, j]))
                other = rng.integers(0, dips.shape[0])
                link_random.append(abs(dips[a, j] - dips[other, j]))

    def safe_mean(values):
        return float(np.mean(values)) if values else float("nan")

    return {
        "effective_rank_99": effective_rank(centered, 0.99),
        "top4_energy": energy_top4,
        "lrr_residuals": lrr_residuals,
        "continuity_ratio": safe_mean(adjacent_diffs)
        / max(safe_mean(random_diffs), 1e-12),
        "similarity_ratio": safe_mean(link_diffs)
        / max(safe_mean(link_random), 1e-12),
    }


def test_fig1_matrix_properties(benchmark, capsys, bench_system, bench_scenario):
    deployment = bench_scenario.deployment
    stats = benchmark.pedantic(
        analyze_matrix_properties,
        args=(bench_system, deployment),
        rounds=1,
        iterations=1,
    )

    emit(
        capsys,
        format_summary(
            "[Fig. 1] Fingerprint-matrix structural properties "
            "(10 links x 96 cells survey)",
            {
                "(i) effective rank @99% energy": stats["effective_rank_99"],
                "(i) energy in top-4 components": stats["top4_energy"],
                "(ii) LRR rms residual, n=5 [dB]": stats["lrr_residuals"][5],
                "(ii) LRR rms residual, n=10 [dB]": stats["lrr_residuals"][10],
                "(ii) LRR rms residual, n=20 [dB]": stats["lrr_residuals"][20],
                "(iii) continuity roughness vs shuffled": stats[
                    "continuity_ratio"
                ],
                "(iii) similarity roughness vs shuffled": stats[
                    "similarity_ratio"
                ],
            },
        ),
    )

    # Property (i): far fewer than min(M, N) = 10 directions carry the mass.
    assert stats["top4_energy"] > 0.6
    # Property (ii): 10 reference columns explain the matrix to ~noise level,
    # and more references help.
    assert stats["lrr_residuals"][10] < 2.5
    assert stats["lrr_residuals"][20] <= stats["lrr_residuals"][5]
    # Property (iii): real distorted entries are smoother than shuffled ones.
    assert stats["continuity_ratio"] < 1.0


def test_fig1_table(benchmark, capsys, bench_system):
    """Render the Fig. 1 concept as an actual matrix excerpt."""
    fingerprint = bench_system.database.initial()

    def build_table():
        rows = []
        for link in range(min(4, fingerprint.link_count)):
            rows.append(
                [f"link {link}"]
                + [fingerprint.values[link, cell] for cell in range(6)]
            )
        return format_table(
            ["", *[f"cell {j}" for j in range(6)]], rows, precision=1
        )

    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    emit(capsys, f"[Fig. 1] Fingerprint matrix excerpt (dBm):\n{table}")
    assert fingerprint.values.shape == (10, 96)
