"""Tests for flags, OptConfig, and Version metadata."""

import pytest

from repro.compiler import (
    ALL_FLAGS,
    FLAGS_BY_NAME,
    N_FLAGS,
    OptConfig,
    compile_version,
)
from repro.compiler.pipeline import PASS_ORDER
from repro.ir import FunctionBuilder, Type
from repro.machine import PENTIUM4, SPARC2
from repro.machine.jit import code_key
from repro.workloads import WORKLOAD_NAMES, get_workload


class TestFlags:
    def test_exactly_38_flags(self):
        # the paper: "all n = 38 optimization options implied by -O3"
        assert N_FLAGS == 38
        assert len(ALL_FLAGS) == 38

    def test_names_unique(self):
        names = [f.name for f in ALL_FLAGS]
        assert len(names) == len(set(names))

    def test_every_pass_flag_in_pipeline(self):
        pass_flags = {flag for _, flag in PASS_ORDER}
        for f in ALL_FLAGS:
            if f.pass_id is not None:
                assert f.name in pass_flags, f.name

    def test_pipeline_flags_exist(self):
        for _, flag in PASS_ORDER:
            assert flag in FLAGS_BY_NAME

    def test_descriptions_present(self):
        assert all(f.description for f in ALL_FLAGS)

    def test_effect_only_flags_leave_the_ir_alone(self):
        """Dropping every flag without a pass (``inline-functions`` among
        them: no tuning section makes a call) changes costs, never the
        IR: the generated code is shared with -O3 on every workload."""
        effect_only = [f.name for f in ALL_FLAGS if f.pass_id is None]
        assert len(effect_only) == 26 and "inline-functions" in effect_only
        o3, bare = OptConfig.o3(), OptConfig.o3().without(*effect_only)
        for name in WORKLOAD_NAMES:
            ts = get_workload(name).ts
            for machine in (SPARC2, PENTIUM4):
                assert code_key(compile_version(ts, o3, machine).exe, machine) == (
                    code_key(compile_version(ts, bare, machine).exe, machine)
                ), (name, machine.name)


class TestOptConfig:
    def test_o3_has_everything(self):
        assert len(OptConfig.o3()) == 38
        assert "gcse" in OptConfig.o3()

    def test_o0_empty(self):
        cfg = OptConfig.o0()
        assert len(cfg) == 0
        assert "gcse" not in cfg

    def test_without_and_with(self):
        cfg = OptConfig.o3().without("gcse", "peephole2")
        assert "gcse" not in cfg and "peephole2" not in cfg
        back = cfg.with_("gcse")
        assert "gcse" in back
        # originals untouched (immutability)
        assert "gcse" in OptConfig.o3()

    def test_unknown_flag_rejected_everywhere(self):
        with pytest.raises(ValueError):
            OptConfig(frozenset({"turbo-mode"}))
        with pytest.raises(ValueError):
            OptConfig.o3().without("turbo-mode")
        with pytest.raises(ValueError):
            OptConfig.o3().is_enabled("turbo-mode")

    def test_describe(self):
        assert OptConfig.o3().describe() == "-O3"
        assert OptConfig.o3().without("gcse").describe() == "-O3 -fno-gcse"
        many_off = OptConfig.o3().without(*[f.name for f in ALL_FLAGS[:10]])
        assert "minus 10 flags" in many_off.describe()

    def test_any_iterable_of_names_constructs(self):
        names = ["gcse", "peephole2", "defer-pop"]
        configs = [
            OptConfig(frozenset(names)), OptConfig(set(names)), OptConfig(tuple(names)),
            OptConfig(n for n in reversed(names)), OptConfig.of(*names),
        ]
        assert all(c == configs[0] and hash(c) == hash(configs[0]) for c in configs)
        assert configs[0].enabled == frozenset(names)
        assert configs[0].is_enabled("gcse") and not configs[0].is_enabled("regmove")
        with pytest.raises(ValueError, match="turbo-mode"):
            OptConfig(n for n in ["gcse", "turbo-mode"])
        with pytest.raises(ValueError):
            OptConfig.o0().with_("turbo-mode")

    def test_pickle_round_trip(self):
        import pickle

        for cfg in (OptConfig.o0(), OptConfig.o3(), OptConfig.o3().without("gcse")):
            back = pickle.loads(pickle.dumps(cfg))
            assert back == cfg and hash(back) == hash(cfg)
            assert back.key() == cfg.key() and back.describe() == cfg.describe()

    def test_immutable(self):
        with pytest.raises(AttributeError):
            OptConfig.o3().enabled = frozenset()

    def test_key_is_canonical(self):
        a = OptConfig.of("gcse", "peephole2")
        b = OptConfig.of("peephole2", "gcse")
        assert a.key() == b.key()
        assert a == b
        assert hash(a) == hash(b)

    def test_iteration_sorted(self):
        cfg = OptConfig.of("peephole2", "gcse")
        assert list(cfg) == ["gcse", "peephole2"]

    def test_falsiness_of_o0(self):
        # documented footgun: empty configs are falsy; compare with `is None`
        assert not OptConfig.o0()
        assert OptConfig.o3()


class TestVersion:
    def _fn(self):
        b = FunctionBuilder("f", [("x", Type.FLOAT)], return_type=Type.FLOAT)
        b.ret(b.var("x") * 2.0)
        return b.build()

    def test_label_defaults_to_config(self):
        v = compile_version(self._fn(), OptConfig.o3(), SPARC2)
        assert v.label == "-O3"
        assert v.machine_name == "sparc2"
        assert v.ts_name == "f"

    def test_spills_flag(self):
        v = compile_version(self._fn(), OptConfig.o3(), SPARC2)
        assert v.spills is False  # trivial function, 32 registers

    def test_code_size_positive(self):
        v = compile_version(self._fn(), OptConfig.o3(), SPARC2)
        assert v.code_size > 0
