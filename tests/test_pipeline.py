"""Directed tests of the SMT pipeline core."""


from dataclasses import asdict

import pytest

from repro.config import scaled_config
from repro.isa import Instr, Op
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline import SMTCore
from repro.policies import make_policy
from repro.policies.base import FetchPolicy
from tests.conftest import StubTrace, alu, branch, load, store


def run_stub(instrs, max_commits=2000, cfg=None, policy="icount",
             num_threads=1, max_cycles=500_000, warmup=300):
    cfg = cfg or scaled_config(num_threads=num_threads, scale=16)
    traces = [StubTrace(instrs, base=(t + 1) << 48)
              for t in range(cfg.num_threads)]
    core = SMTCore(cfg, traces, make_policy(policy))
    stats = core.run(max_commits, max_cycles=max_cycles, warmup=warmup)
    return stats, core


class TestThroughput:
    def test_independent_alus_reach_full_width(self):
        """Four independent ALU ops per cycle: IPC should approach 4."""
        instrs = [alu(pc, dest=4 + pc % 4, srcs=(2,)) for pc in range(8)]
        stats, _ = run_stub(instrs, max_commits=4000)
        assert stats.ipc(0) > 3.0

    def test_serial_chain_is_ipc_one(self):
        """A self-dependent chain of 1-cycle ALUs commits ~1 per cycle."""
        instrs = [alu(pc, dest=4, srcs=(4,)) for pc in range(8)]
        stats, _ = run_stub(instrs, max_commits=2000)
        assert 0.8 < stats.ipc(0) <= 1.1

    def test_fp_ops_use_fp_units(self):
        """Two FP units cap independent FP throughput at 2/cycle."""
        instrs = [Instr(pc, Op.FALU, 36 + pc % 4, (34,)) for pc in range(8)]
        stats, _ = run_stub(instrs, max_commits=2000)
        assert 1.5 < stats.ipc(0) <= 2.1

    def test_ldst_units_cap_load_throughput(self):
        """Two load/store units cap cache-hit loads at 2/cycle."""
        instrs = [load(pc, addr=4096 + 64 * (pc % 4), dest=8 + pc % 4,
                       srcs=(2,)) for pc in range(8)]
        stats, _ = run_stub(instrs, max_commits=2000)
        assert 1.4 < stats.ipc(0) <= 2.1


class TestDependences:
    def test_consumer_waits_for_long_load(self):
        """An ALU op reading a missing load's register can't commit until
        the miss returns, so IPC collapses toward mem-latency pacing."""
        far = 1 << 30
        instrs = [
            load(0, addr=far, dest=8, srcs=(2,)),
            alu(1, dest=9, srcs=(8,)),
            alu(2, dest=4, srcs=(2,)),
        ]
        # Every iteration loads a *new* line: always a miss.
        class FreshLoadTrace(StubTrace):
            def get(self, index):
                instr = super().get(index)
                if instr.op is Op.LOAD:
                    iteration = index // self.body_len
                    return Instr(instr.pc, Op.LOAD, instr.dest, instr.srcs,
                                 addr=far + 4096 * iteration)
                return instr

        cfg = scaled_config(num_threads=1, scale=16)
        trace = FreshLoadTrace(instrs, base=1 << 48)
        core = SMTCore(cfg, [trace], make_policy("icount"))
        stats = core.run(300, max_cycles=2_000_000)
        # 3 instructions per ~350-cycle miss => IPC far below 1.
        assert stats.ipc(0) < 0.5


class TestBranches:
    def test_predictable_branch_costs_nothing(self):
        instrs = [alu(pc) for pc in range(7)] + [branch(7, taken=True)]
        stats, core = run_stub(instrs, max_commits=4000)
        assert core.gshare.accuracy > 0.95
        assert stats.ipc(0) > 2.0

    def test_random_branches_hurt(self):
        import random
        rng = random.Random(1)

        class RandomBranchTrace(StubTrace):
            def get(self, index):
                instr = super().get(index)
                if instr.op is Op.BRANCH and instr.pc == 3:
                    from repro.util import uniform_double
                    taken = uniform_double(99, index) < 0.5
                    return Instr(3, Op.BRANCH, None, instr.srcs, taken=taken)
                return instr

        instrs = [alu(0), alu(1), alu(2), branch(3, taken=False),
                  alu(4), alu(5), alu(6), branch(7, taken=True)]
        cfg = scaled_config(num_threads=1, scale=16)
        base_stats, _ = run_stub(instrs, max_commits=3000, cfg=cfg)
        core = SMTCore(cfg, [RandomBranchTrace(instrs, base=1 << 48)],
                       make_policy("icount"))
        rand_stats = core.run(3000)
        assert rand_stats.ipc(0) < base_stats.ipc(0)

    def test_branch_stall_cycles_counted(self):
        class NoisyBranchTrace(StubTrace):
            def get(self, index):
                instr = super().get(index)
                if instr.op is Op.BRANCH:
                    from repro.util import uniform_double
                    return Instr(instr.pc, Op.BRANCH, None, instr.srcs,
                                 taken=uniform_double(5, index) < 0.5)
                return instr

        instrs = [alu(0), alu(1), branch(2, taken=False)]
        cfg = scaled_config(num_threads=1, scale=16)
        core = SMTCore(cfg, [NoisyBranchTrace(instrs, base=1 << 48)],
                       make_policy("icount"))
        stats = core.run(2000)
        assert stats.threads[0].branch_stall_cycles > 0


class TestStoresAndWriteBuffer:
    def test_store_hits_commit_freely(self):
        instrs = [store(0, addr=4096, srcs=(2, 3)), alu(1), alu(2), alu(3)]
        stats, _ = run_stub(instrs, max_commits=2000)
        assert stats.ipc(0) > 1.5

    def test_write_buffer_backpressure_on_store_misses(self):
        """Streams of store misses fill the 8-entry write buffer and block
        commit, capping throughput."""
        far = 1 << 30

        class MissingStoreTrace(StubTrace):
            def get(self, index):
                instr = super().get(index)
                if instr.op is Op.STORE:
                    iteration = index // self.body_len
                    return Instr(instr.pc, Op.STORE, None, instr.srcs,
                                 addr=far + 8192 * iteration + instr.pc * 64)
                return instr

        instrs = [store(pc, addr=0, srcs=(2, 3)) for pc in range(4)]
        cfg = scaled_config(num_threads=1, scale=16)
        core = SMTCore(cfg, [MissingStoreTrace(instrs, base=1 << 48)],
                       make_policy("icount"))
        stats = core.run(500, max_cycles=2_000_000)
        assert stats.ipc(0) < 1.0


class TestSharedResources:
    def test_rob_blocks_on_unresolved_head(self):
        """With a missing load at the window head, the thread's in-flight
        count is bounded by the ROB size."""
        far = 1 << 30

        class OneMissTrace(StubTrace):
            def get(self, index):
                instr = super().get(index)
                if instr.pc == 0:
                    iteration = index // self.body_len
                    return Instr(0, Op.LOAD, 8, (2,),
                                 addr=far + 8192 * iteration)
                return instr

        instrs = [load(0, addr=0, dest=8, srcs=(2,))] + \
                 [alu(pc, dest=4 + pc % 3, srcs=(2,)) for pc in range(1, 16)]
        cfg = scaled_config(num_threads=1, scale=16)
        core = SMTCore(cfg, [OneMissTrace(instrs, base=1 << 48)],
                       make_policy("icount"))
        for _ in range(3000):
            core.step()
            assert core.rob_used <= cfg.rob_size
            assert core.int_regs_used <= cfg.int_rename_regs
            assert core.lsq_used <= cfg.lsq_size

    def test_smt_threads_share_capacity(self, smt2_config):
        instrs = [alu(pc, dest=4 + pc % 4, srcs=(2,)) for pc in range(8)]
        stats, core = run_stub(instrs, max_commits=3000, cfg=smt2_config,
                               num_threads=2)
        # Two compute-bound threads share the 4-wide machine.
        assert stats.ipc(0) + stats.ipc(1) > 3.0
        assert abs(stats.ipc(0) - stats.ipc(1)) < 0.8


class TestDeterminism:
    def test_same_run_is_bit_identical(self):
        from repro.experiments.runner import run_workload
        cfg = scaled_config(num_threads=2, scale=16)
        s1, _ = run_workload(("mcf", "galgel"), cfg, "mlp_flush", 3000,
                             warmup=500)
        s2, _ = run_workload(("mcf", "galgel"), cfg, "mlp_flush", 3000,
                             warmup=500)
        assert s1.cycles == s2.cycles
        assert [t.committed for t in s1.threads] == \
               [t.committed for t in s2.threads]
        assert [t.flushes for t in s1.threads] == \
               [t.flushes for t in s2.threads]


class TestFastForward:
    @pytest.mark.parametrize("workload,policy", [
        (("mcf", "galgel"), "icount"),
        (("mcf", "galgel"), "flush"),
        (("swim", "twolf"), "mlp_flush"),
        (("lucas", "fma3d"), "stall"),
    ])
    def test_fast_forward_is_cycle_exact(self, workload, policy):
        from repro.experiments.runner import run_workload
        results = {}
        for ff in (True, False):
            cfg = scaled_config(num_threads=2, scale=16, fast_forward=ff)
            stats, _ = run_workload(workload, cfg, policy, 2500, warmup=500)
            results[ff] = (stats.cycles,
                           tuple(t.committed for t in stats.threads))
        assert results[True] == results[False]


class _CountingCore(SMTCore):
    """Overrides only the per-instruction stage bodies, recording each call.

    Each override delegates to the base body and logs the ``gseq`` of the
    instruction it retired, dispatched, issued or completed.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = {"commit": [], "dispatch": [], "execute": [],
                     "complete": []}

    def _commit_one(self, ts, cycle):
        head = ts.window[0].gseq if ts.window else None
        if super()._commit_one(ts, cycle):
            self.seen["commit"].append(head)
            return True
        return False

    def _try_dispatch(self, ts, di):
        outcome = super()._try_dispatch(ts, di)
        if outcome is None:
            self.seen["dispatch"].append(di.gseq)
        return outcome

    def _execute(self, di, cycle):
        self.seen["execute"].append(di.gseq)
        super()._execute(di, cycle)

    def _complete(self, di, cycle):
        if not di.squashed:
            self.seen["complete"].append(di.gseq)
        super()._complete(di, cycle)


class TestStageOverrides:
    @pytest.mark.parametrize("policy", ["icount", "mlp_flush", "dcra"])
    def test_per_instruction_overrides_are_honoured(self, policy):
        """A subclass overriding a stage's per-instruction body sees every
        instruction through it, and the run is the stock core's."""
        from repro.experiments.runner import trace_for
        cfg = scaled_config(num_threads=2, scale=16)
        traces = [trace_for(name, cfg, slot=i)
                  for i, name in enumerate(("mcf", "swim"))]
        runs = {}
        for cls in (SMTCore, _CountingCore):
            core = cls(cfg, traces, make_policy(policy))
            # No warmup: the statistics cover every retire of the run.
            stats = core.run(1500)
            runs[cls] = (asdict(stats), core.cycle)
        assert runs[_CountingCore] == runs[SMTCore]
        seen = {stage: set(log) for stage, log in core.seen.items()}
        for stage, log in core.seen.items():
            assert len(log) == len(seen[stage]), stage  # once per instr
        assert len(core.seen["commit"]) == sum(
            t.committed for t in stats.threads)
        window = {di.gseq for ts in core.threads for di in ts.window}
        issued = {di.gseq for ts in core.threads for di in ts.window
                  if di.issued}
        # Everything retired or still in flight went through each body.
        assert seen["commit"] | window <= seen["dispatch"]
        assert seen["commit"] | issued <= seen["execute"]
        assert seen["commit"] <= seen["complete"] <= seen["execute"]


class _FreshHierarchy(FetchPolicy):
    """The base policy, putting a fresh memory hierarchy on the core
    when it attaches."""

    def attach(self, core):
        super().attach(core)
        core.hierarchy = MemoryHierarchy(core.cfg.memory)


class TestSwappedParts:
    def test_a_hierarchy_swapped_at_attach_is_followed(self):
        """The core keeps no copy of its hierarchy's methods: one that a
        policy installs at attach serves every fetch, load and store,
        and the run's ``ll_intervals`` are its own."""
        from repro.experiments.runner import trace_for
        cfg = scaled_config(num_threads=2, scale=16)
        runs = []
        for policy in (FetchPolicy(), _FreshHierarchy()):
            traces = [trace_for(name, cfg, slot=i)
                      for i, name in enumerate(("mcf", "swim"))]
            core = SMTCore(cfg, traces, policy)
            runs.append((asdict(core.run(1500, warmup=300)), core.cycle))
        assert runs[1] == runs[0]
        assert runs[0][0]["ll_intervals"]
