"""The benchmark's hooks still find every program name they patch.

``perfbench/spans.py`` wraps geminal functions and methods by attribute
name, and each workload in ``perfbench/workloads.py`` times its items at
one attribute.  A refactor that deletes or renames one of those names
fails here, with the fast tests, instead of only when the benchmark runs.
So does a faster evaluation path that stops calling a traced layer, which
would hide its work from the per-layer metrics.
"""

from pathlib import Path

import numpy as np
import pytest

from geminal import chem, cli, hybrid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_and_item_clocks_patch_and_restore_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    tracer = spans.Tracer()
    try:
        tracer.install()  # inside the try: a missing name leaves no wrapper behind
        patched = list(tracer._saved)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr).__wrapped__ is original, attr
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr

    assert set(workloads.WORKLOADS) == {"curve-sampled", "point-noisy", "scan-noisy"}
    for name, workload in workloads.WORKLOADS.items():
        owner, attr = workload.item_boundary
        original = getattr(owner, attr)
        with spans.ItemClock(owner, attr):
            assert getattr(owner, attr) is not original, name
        assert getattr(owner, attr) is original, name


# every layer one evaluation must pass through, with its calls per evaluation
LAYER_CALLS = {
    # measured phases: the Z-basis preparation and the two rotated ones
    ("h2", 1.4): {
        "qsim.sample": 3,
        "mitigation.symmetry_verify": 1,
        "mitigation.project_polytope": 1,
        "hybrid.assemble_2dm_energy": 1,
        "preparations": 3,
    },
    # classical phases: the Z-basis preparation alone
    ("h3plus", 1.65): {
        "qsim.sample": 1,
        "mitigation.symmetry_verify": 1,
        "mitigation.project_polytope": 1,
        "hybrid.assemble_2dm_energy": 1,
        "preparations": 1,
    },
}


@pytest.mark.parametrize("system, bond", sorted(LAYER_CALLS))
def test_one_evaluation_reaches_every_traced_layer(system, bond, monkeypatch):
    """A lean evaluation path still calls each layer the tracer times, as often as before."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    ints, rhf, _ = chem.scf_reference(cli.SYSTEM_BUILDERS[system](bond))
    h, eri = chem.transform_integrals(ints, rhf.mo_coeff)
    objective = hybrid.QuantumObjective(h, eri, ints.enuc, hybrid.HybridConfig(seed=1))
    tracer = spans.Tracer()
    try:
        tracer.install()
        objective(np.full(ints.n_basis - 1, -0.3))
    finally:
        tracer.restore()
    calls = {name: count for name, (count, _) in tracer.self_times().items()}
    counted = {name: calls.get(name, 0) for name in LAYER_CALLS[system, bond]}
    counted["preparations"] = tracer.counts["preparations"]
    assert counted == LAYER_CALLS[system, bond]
