"""The benchmark's tracing layer binds program functions by name and reads
work counts off their return values; each of those names must still exist,
and each reader must still read a real return value, or every benchmark
run would crash."""

import importlib.util
from pathlib import Path

import numpy as np

from ncshilov import blockdecomp, conesolver, envelope, stargen, unitize
from ncshilov.matcore import herm_to_rvec

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_and_counted_layer_resolves_to_a_function():
    tracing = _tracing()
    for module, name in tracing.LAYERS + tracing.COUNTED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    layers = {tracing.layer_name(module, name) for module, name in tracing.LAYERS}
    assert set(tracing.COUNT_READERS) <= layers


def _layer_outputs():
    """A real return value of every layer whose counts the tracing reads,
    on tiny instances: a 1 x 1 feasibility program, a map of cb-norm 1/2,
    and span{diag(1, 0, 3/4), diag(0, 1, 3/4)}, whose third point is a
    loose block."""
    feasible = conesolver.solve_feasibility(
        conesolver.ConicProgram([1], herm_to_rvec(np.eye(1))[None], [1.0]))
    half = conesolver.cc_test(conesolver.LinearMapSpec([np.eye(1)], [0.5 * np.eye(1)]))
    x = stargen.validate_space([np.diag([1, 0, 0.75]), np.diag([0, 1, 0.75])])
    alg = stargen.generate_star_algebra(x)
    dec = blockdecomp.decompose(alg, seed=0)
    env = envelope.compute_envelope(x, seed=0)
    unit_element = unitize.UnitizedElement(level=1, v_coords=np.zeros((1, 1, x.dim)),
                                           scalar_part=np.eye(1))
    return {
        "conesolver.solve_feasibility": feasible,
        "conesolver.cc_test": half,
        "envelope.is_block_loose": envelope.is_block_loose(x, alg.unit, dec.blocks[0]),
        "unitize.xplus_cone_member": unitize.xplus_cone_member(env, unit_element),
        "blockdecomp.decompose": dec,
    }


def test_every_count_reader_reads_a_real_return_value_into_its_keys():
    tracing = _tracing()
    outputs = _layer_outputs()
    assert set(outputs) == set(tracing.COUNT_READERS)
    for label, (reader, keys) in tracing.COUNT_READERS.items():
        counts = reader(outputs[label])
        assert counts and set(counts) <= set(keys), (label, counts)
        assert all(isinstance(v, int) and v >= 0 for v in counts.values()), (label, counts)
    read_blocks = tracing.COUNT_READERS["blockdecomp.decompose"][0]
    assert read_blocks(outputs["blockdecomp.decompose"]) == {"blocks": 3}
