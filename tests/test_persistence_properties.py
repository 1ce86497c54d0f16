"""Property test: persisted experiment records load back unchanged."""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import orjson
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
        if draw(st.booleans()):  # a failed run: its message, no snapshots, no final front
            # orjson rejects the lone surrogates that json.dumps escapes.
            error = draw(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1))
            records.append(RunRecord(run_index=k, run_seed=cfg.base_seed + k, error=error))
            continue
        snapshots = [{"generation": g + 1, **draw(snapshot)} for g in range(cfg.generations)]
        records.append(RunRecord(run_index=k, run_seed=cfg.base_seed + k, snapshots=snapshots,
                                 final_front=draw(front_entries(m))))
    return cfg, records


def read_snapshots(path: Path) -> list[dict]:
    """run_<k>.jsonl decoded as load_records decodes it, with orjson, one
    JSON object per line and no blank lines."""
    with open(path, "rb") as fh:
        snapshots = [orjson.loads(line) for line in fh]
    assert all(type(snap) is dict for snap in snapshots)
    return snapshots


def reference_fronts(cfg: ExperimentConfig, rec: RunRecord) -> list[np.ndarray]:
    """Per-generation front values picked member by member from the snapshots:
    the NSGA-II rank-0 members or the MOEA/D archive."""
    m = len(cfg.objective_ids)
    fronts = []
    for snap in rec.snapshots:
        if cfg.algorithm == "nsga2":
            values = [ind["objectives"] for ind in snap["population"] if ind["rank"] == 0]
        else:
            values = [ind["objectives"] for ind in snap["archive"]]
        fronts.append(np.array(values, dtype=float).reshape(len(values), m))
    return fronts


@settings(deadline=None)
@given(experiments())
def test_load_records_inverts_persist_experiment(experiment):
    cfg, records = experiment
    with tempfile.TemporaryDirectory() as tmp:
        persist_experiment(Path(tmp), cfg, records)
        loaded_cfg, loaded = load_records(Path(tmp))
        decoded = [read_snapshots(Path(tmp) / f"run_{rec.run_index}.jsonl") for rec in records]
    assert loaded_cfg == cfg
    assert [rec.final_front for rec in loaded] == [rec.final_front for rec in records]
    assert [rec.error for rec in loaded] == [rec.error for rec in records]
    assert decoded == [[{"error": rec.error}] if rec.error else rec.snapshots for rec in records]
    assert all(rec.snapshots == [] for rec in loaded)  # the loader keeps fronts, not trees
    for rec, persisted in zip(loaded, records):
        expected = reference_fronts(cfg, persisted)
        assert len(rec.fronts) == len(expected)
        for front, reference in zip(rec.fronts, expected):
            assert front.dtype == reference.dtype and front.shape == reference.shape
            assert front.tobytes() == reference.tobytes()


# Full-range finite doubles (subnormals, +-1e308, -0.0) and 64-bit ints,
# as `persist_experiment` writes them with json.dumps.
EDGE_FLOATS = st.sampled_from((5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                               1e308, -1e308, 1.7976931348623157e308, -0.0, 0.0, 0.1))
SCALARS = (st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS
           | st.integers(-(2 ** 63), 2 ** 63 - 1))


def _bits(value):
    """`value` with every float replaced by its IEEE-754 bytes."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return (type(value).__name__, value)


@settings(deadline=None)
@given(st.lists(SCALARS, max_size=40) | st.dictionaries(st.text(max_size=8), SCALARS, max_size=20))
def test_orjson_decodes_json_dumps_bit_for_bit(doc):
    line = json.dumps(doc).encode() + b"\n"
    assert _bits(orjson.loads(line)) == _bits(json.loads(line))
    assert _bits(orjson.loads(line)) == _bits(doc)
