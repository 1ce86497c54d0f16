"""Property test: persisted experiment records load back unchanged."""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from neurotraj.analysis import ValidityReport
from neurotraj.experiment import (
    ExperimentConfig,
    FrontEntry,
    RunRecord,
    load_records,
    persist_experiment,
)
from neurotraj.genome import default_allele_table
from neurotraj.objectives import ObjectiveId

# Bounded so the summary's variance cannot overflow.
FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
GENES = st.tuples(*(st.integers(0, count - 1) for count in default_allele_table().counts))


def members(m: int, with_rank: bool, max_size: int):
    fields = {
        "genome": GENES.map(list),
        "objectives": st.lists(FINITE, min_size=m, max_size=m),
        "skills": st.none() | st.lists(FINITE, min_size=3, max_size=3),
    }
    if with_rank:
        fields.update(rank=st.integers(0, 5), crowding=st.none() | FINITE)
    return st.lists(st.fixed_dictionaries(fields), max_size=max_size)


def front_entries(m: int):
    # `valid` is the conjunction of the three tests; load_records rejects any other row.
    validity = st.builds(lambda tests, measured: ValidityReport(all(tests), *tests, measured),
                         st.tuples(st.booleans(), st.booleans(), st.booleans()),
                         st.tuples(FINITE, FINITE, FINITE))
    entry = st.builds(FrontEntry, genome=GENES, objectives=st.tuples(*[FINITE] * m),
                      rmse_validation=FINITE, rmse_test=FINITE, validity=validity,
                      skills=st.tuples(FINITE, FINITE, FINITE))
    return st.lists(entry, min_size=1, max_size=4)


@st.composite
def experiments(draw):
    algorithm = draw(st.sampled_from(("nsga2", "moead")))
    ids = tuple(draw(st.permutations(list(ObjectiveId)))[:draw(st.integers(2, 3))])
    m = len(ids)
    cfg = ExperimentConfig(algorithm=algorithm, objective_ids=ids, population=2,
                           generations=draw(st.integers(1, 2)), runs=draw(st.integers(1, 2)))
    if algorithm == "nsga2":
        snapshot = st.fixed_dictionaries({"population": members(m, True, 4)})
    else:
        snapshot = st.fixed_dictionaries({
            "ideal": st.lists(FINITE, min_size=m, max_size=m),
            "subproblems": members(m, False, 3),
            "archive": members(m, False, 3),
        })
    records = []
    for k in range(cfg.runs):
        snapshots = [{"generation": g + 1, **draw(snapshot)} for g in range(cfg.generations)]
        records.append(RunRecord(run_index=k, run_seed=cfg.base_seed + k, snapshots=snapshots,
                                 final_front=draw(front_entries(m)),
                                 initial_front_objectives=[]))
    return cfg, records


@settings(deadline=None)
@given(experiments())
def test_load_records_inverts_persist_experiment(experiment):
    cfg, records = experiment
    with tempfile.TemporaryDirectory() as tmp:
        persist_experiment(Path(tmp), cfg, records)
        loaded_cfg, loaded = load_records(Path(tmp))
    assert loaded_cfg == cfg
    assert [rec.final_front for rec in loaded] == [rec.final_front for rec in records]
    assert [rec.snapshots for rec in loaded] == [rec.snapshots for rec in records]
