"""Tests for the 14 SPEC-analog workloads: structure, generators, and the
Table 1 properties (method applicability, context counts)."""

import numpy as np
import pytest

from repro.compiler import OptConfig, compile_version
from repro.ir import validate_program
from repro.machine import Executor, SPARC2, profile_tuning_section
from repro.core.rating import consult
from repro.workloads import TUNED_BENCHMARKS, WORKLOAD_NAMES, get_workload


@pytest.fixture(scope="module")
def all_workloads():
    return {name: get_workload(name) for name in WORKLOAD_NAMES}


class TestRegistry:
    def test_fourteen_benchmarks(self, all_workloads):
        assert len(all_workloads) == 14

    def test_table1_paper_rows_present(self, all_workloads):
        expected = {
            "bzip2": ("BZIP2", "fullGtU", "RBR"),
            "crafty": ("CRAFTY", "Attacked", "RBR"),
            "gzip": ("GZIP", "longest_match", "RBR"),
            "mcf": ("MCF", "primal_bea_mpp", "RBR"),
            "twolf": ("TWOLF", "new_dbox_a", "RBR"),
            "vortex": ("VORTEX", "ChkGetChunk", "RBR"),
            "applu": ("APPLU", "blts", "CBR"),
            "apsi": ("APSI", "radb4", "CBR"),
            "art": ("ART", "match", "RBR"),
            "mgrid": ("MGRID", "resid", "MBR"),
            "equake": ("EQUAKE", "smvp", "CBR"),
            "mesa": ("MESA", "sample_1d_linear", "RBR"),
            "swim": ("SWIM", "calc3", "CBR"),
            "wupwise": ("WUPWISE", "zgemm", "CBR"),
        }
        for name, (bench, ts, method) in expected.items():
            paper = all_workloads[name].paper
            assert paper.benchmark == bench
            assert paper.tuning_section == ts
            assert paper.rating_approach == method

    def test_integer_benchmarks_flagged(self, all_workloads):
        ints = {n for n, w in all_workloads.items() if w.paper.is_integer}
        assert ints == {"bzip2", "crafty", "gzip", "mcf", "twolf", "vortex"}

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            get_workload("nonexistent")

    def test_tuned_benchmarks_subset(self):
        assert set(TUNED_BENCHMARKS) <= set(WORKLOAD_NAMES)

    def test_fresh_instances(self):
        a = get_workload("swim")
        b = get_workload("swim")
        assert a is not b
        assert a.program is not b.program


class TestPrograms:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_program_validates(self, name, all_workloads):
        validate_program(all_workloads[name].program)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_ts_exists(self, name, all_workloads):
        w = all_workloads[name]
        assert w.ts.name == w.ts_name

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_executes_under_o0_and_o3(self, name, all_workloads):
        """Every workload must run under both extremes of optimization and
        produce identical results (semantics preserved end-to-end)."""
        w = all_workloads[name]
        envs = list(w.profile_invocations("train", limit=3))
        results = {}
        for config in (OptConfig.o0(), OptConfig.o3()):
            version = compile_version(w.ts, config, SPARC2)
            ex = Executor(SPARC2)
            out = []
            rng = np.random.default_rng(0)
            ds = w.dataset("train")
            for i in range(3):
                env = ds.env(rng, i)
                res = ex.run(version.exe, env, factors=version.factors)
                out.append(res.return_value)
                # float arrays arrive as lists, int arrays as ndarrays
                out.extend(
                    float(np.sum(np.asarray(v))) for k, v in sorted(env.items())
                    if isinstance(v, (list, np.ndarray))
                )
            results[config.key()] = out
        vals = list(results.values())
        for a, b in zip(vals[0], vals[1]):
            if a is None:
                assert b is None
            else:
                assert a == pytest.approx(b, rel=1e-9)


class TestDatasets:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_train_and_ref_exist(self, name, all_workloads):
        w = all_workloads[name]
        assert set(w.datasets) == {"train", "ref"}
        assert w.dataset("ref").n_invocations > w.dataset("train").n_invocations

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_generator_deterministic_per_seed(self, name, all_workloads):
        w = all_workloads[name]
        ds = w.dataset("train")
        a = ds.env(np.random.default_rng(7), 0)
        b = ds.env(np.random.default_rng(7), 0)
        for k in a:
            if isinstance(a[k], np.ndarray):
                np.testing.assert_array_equal(a[k], b[k])
            else:
                assert a[k] == b[k]

    def test_unknown_dataset_raises(self, all_workloads):
        with pytest.raises(KeyError, match="unknown dataset"):
            all_workloads["swim"].dataset("production")

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_non_ts_cycles_positive(self, name, all_workloads):
        for ds in all_workloads[name].datasets.values():
            assert ds.non_ts_cycles > 0


class TestTable1Properties:
    """The consultant must reproduce Table 1's 'Rating Approach' column."""

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_consultant_matches_paper_method(self, name, all_workloads):
        w = all_workloads[name]
        prof = profile_tuning_section(
            w.ts, w.profile_invocations("train", limit=60), SPARC2
        )
        plan = consult(w.ts, prof, SPARC2, pointer_seeds=w.pointer_seeds)
        assert plan.chosen == w.paper.rating_approach, plan.notes

    @pytest.mark.parametrize(
        "name,contexts", [("apsi", 3), ("wupwise", 2), ("swim", 1), ("equake", 1), ("applu", 1)]
    )
    def test_context_counts(self, name, contexts, all_workloads):
        w = all_workloads[name]
        prof = profile_tuning_section(
            w.ts, w.profile_invocations("train", limit=60), SPARC2
        )
        plan = consult(w.ts, prof, SPARC2, pointer_seeds=w.pointer_seeds)
        assert plan.n_contexts == contexts
        assert w.paper.n_contexts == contexts

    def test_mgrid_many_contexts(self, all_workloads):
        w = all_workloads["mgrid"]
        prof = profile_tuning_section(
            w.ts, w.profile_invocations("train", limit=60), SPARC2
        )
        plan = consult(w.ts, prof, SPARC2)
        assert plan.n_contexts == 12


class TestWorkloadBehaviours:
    def test_bzip2_exit_position_varies(self):
        """fullGtU's loop must exit at data-dependent positions."""
        w = get_workload("bzip2")
        v = compile_version(w.ts, OptConfig.o0(), SPARC2)
        ex = Executor(SPARC2)
        rng = np.random.default_rng(0)
        ds = w.dataset("train")
        counts = set()
        for i in range(20):
            env = ds.env(rng, i)
            res = ex.run(v.exe, env, count_blocks=True)
            body = sum(
                c for l, c in res.block_counts.items() if l.startswith("while_body")
            )
            counts.add(body)
        assert len(counts) > 5  # genuinely irregular

    def test_equake_misses_in_cache(self):
        w = get_workload("equake")
        v = compile_version(w.ts, OptConfig.o3(), SPARC2)
        ex = Executor(SPARC2)
        rng = np.random.default_rng(0)
        ds = w.dataset("train")
        for i in range(5):
            ex.run(v.exe, ds.env(rng, i), factors=v.factors)
        assert ex.cache.miss_rate() > 0.05  # sparse gathers keep missing

    def test_swim_cache_friendly(self):
        w = get_workload("swim")
        v = compile_version(w.ts, OptConfig.o3(), SPARC2)
        ex = Executor(SPARC2)
        rng = np.random.default_rng(0)
        ds = w.dataset("train")
        for i in range(5):
            ex.run(v.exe, ds.env(rng, i), factors=v.factors)
        ex.cache.reset_stats()
        for i in range(5):
            ex.run(v.exe, ds.env(rng, i), factors=v.factors)
        assert ex.cache.miss_rate() < 0.10  # warm stencil stays in cache

    def test_art_returns_winner_index(self):
        w = get_workload("art")
        v = compile_version(w.ts, OptConfig.o3(), SPARC2)
        ex = Executor(SPARC2)
        rng = np.random.default_rng(0)
        env = w.dataset("train").env(rng, 0)
        f1, wt, bus, tds = (np.asarray(env[k][: env["m"]]) for k in ("f1", "w", "bus", "tds"))
        f1w = f1 * wt + bus * tds
        expected = int(np.argmax(f1w))
        res = ex.run(v.exe, env, factors=v.factors)
        assert res.return_value == expected

    def test_mesa_clamps_out_of_range(self):
        w = get_workload("mesa")
        v = compile_version(w.ts, OptConfig.o3(), SPARC2)
        ex = Executor(SPARC2)
        env = {
            "u": 1.5,  # beyond the texture: must clamp, not crash
            "size": 8,
            "texture": np.ones(10),
            "out": np.zeros(1),
        }
        ex.run(v.exe, env, factors=v.factors)
        assert env["out"][0] == pytest.approx(1.0)
