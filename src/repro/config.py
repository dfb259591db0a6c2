"""Processor and memory-hierarchy configuration.

The default values reproduce Table IV of the paper (the baseline 4-wide SMT
processor).  Two factory functions are provided:

* :func:`paper_baseline` — the exact Table IV machine.
* :func:`scaled_config` — a structurally identical machine with smaller
  caches/TLBs so that short synthetic traces reach steady state quickly.
  Workload footprints are expressed relative to the L3 capacity and scale
  along with it, so miss *rates* (and therefore all policy behaviour) are
  preserved.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
import hashlib
import json

KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one set-associative cache level."""

    size: int
    assoc: int
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.size <= 0 or self.assoc <= 0 or self.line_size <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.size % (self.assoc * self.line_size) != 0:
            raise ValueError(
                f"cache size {self.size} not divisible by assoc*line "
                f"({self.assoc}*{self.line_size})"
            )

    @property
    def num_sets(self) -> int:
        return self.size // (self.assoc * self.line_size)

    @property
    def num_lines(self) -> int:
        return self.size // self.line_size


@dataclass(frozen=True)
class TLBConfig:
    """A fully-associative TLB."""

    entries: int
    page_size: int = 8 * KB

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.page_size <= 0:
            raise ValueError("TLB geometry values must be positive")


@dataclass(frozen=True)
class PrefetcherConfig:
    """Predictor-directed stream buffers (Sherwood et al., MICRO 2000)."""

    enabled: bool = True
    num_buffers: int = 8
    buffer_entries: int = 8
    stride_table_entries: int = 2048
    # two-bit confidence counter; allocate a stream on a confident stride
    confidence_threshold: int = 2


@dataclass(frozen=True)
class MemoryConfig:
    """The memory hierarchy of Table IV."""

    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(64 * KB, 2))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(64 * KB, 2))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(512 * KB, 8))
    l3: CacheConfig = field(default_factory=lambda: CacheConfig(4 * MB, 16))
    itlb: TLBConfig = field(default_factory=lambda: TLBConfig(128))
    dtlb: TLBConfig = field(default_factory=lambda: TLBConfig(512))
    l1_latency: int = 1
    l2_latency: int = 11
    l3_latency: int = 35
    mem_latency: int = 350
    # D-TLB miss handled by a hardware walker that typically misses on-chip
    # caches; modelled as a fixed penalty added to the access.
    tlb_miss_penalty: int = 350
    mshr_entries: int = 32
    # Squash semantics: when a pipeline flush kills a load whose fill is
    # still in flight, the fill is cancelled and the line is not installed
    # (SMTSIM-era squash rolls the MSHRs back).  The refetched load then
    # misses again — this is what makes the flush policy *serialize*
    # independent long-latency loads, the core premise of the paper.  A
    # fill that already completed stays cached, preserving the
    # "prefetching effect" of late flushes (Section 6.5(d)).  Set False to
    # model modern fill-continues hardware (ablation).
    cancel_squashed_fills: bool = True
    prefetcher: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    # When True, independent long-latency loads are artificially serialized
    # (at most one outstanding memory-level demand miss).  Used only by the
    # Table I "MLP impact" characterization experiment.
    serialize_long_latency: bool = False

    @property
    def line_size(self) -> int:
        return self.l1d.line_size


@dataclass(frozen=True)
class PredictorConfig:
    """Sizes of the paper's predictors (Section 4, per-thread tables)."""

    lll_entries: int = 2048       # miss pattern predictor (12 Kbits total)
    lll_counter_bits: int = 6
    mlp_entries: int = 2048       # MLP distance predictor (14 Kbits total)
    lll_kind: str = "miss_pattern"  # miss_pattern | last_value | two_bit
    # Section 4.2 future-work extension: exclude long-latency loads that
    # depend on an earlier long-latency load from the LLSR, so measured MLP
    # distances cover only *exploitable* (independent) MLP.  Requires the
    # core to track load dependences through the rename map.
    dependence_aware: bool = False


@dataclass(frozen=True)
class SMTConfig:
    """The baseline SMT processor (Table IV) plus simulator knobs."""

    num_threads: int = 2
    fetch_width: int = 4            # ICOUNT 2.4: 4 instructions ...
    fetch_max_threads: int = 2      # ... from up to 2 threads per cycle
    decode_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    rob_size: int = 256             # shared
    lsq_size: int = 128             # shared
    int_iq_size: int = 64
    fp_iq_size: int = 64
    int_rename_regs: int = 100
    fp_rename_regs: int = 100
    num_int_alu: int = 4
    num_ldst: int = 2
    num_fp: int = 2
    # Fetch -> dispatch latency.  With dispatch->issue and execute this
    # yields the paper's 14-stage pipeline feel: a load issues ~10 cycles
    # after fetch and a branch redirect costs ~11 cycles.
    frontend_depth: int = 8
    branch_mispredict_penalty: int = 11
    gshare_entries: int = 2048
    btb_entries: int = 256
    btb_assoc: int = 4
    write_buffer_entries: int = 8
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    predictors: PredictorConfig = field(default_factory=PredictorConfig)
    # The paper sizes the LLSR as ROB/num_threads; Figure 4 also measures a
    # 128-entry LLSR on a single-threaded 256-entry-ROB machine, which this
    # override enables.
    llsr_length_override: int | None = None
    # Simulator engine knobs (not architectural).
    fast_forward: bool = True
    max_cycles: int = 200_000_000

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ValueError("need at least one thread")
        if self.rob_size % self.num_threads != 0:
            raise ValueError("ROB size must be divisible by thread count")
        for name in ("fetch_width", "issue_width", "commit_width",
                     "rob_size", "lsq_size", "int_iq_size", "fp_iq_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def llsr_length(self) -> int:
        """LLSR entries per thread: ROB size / number of threads (paper 4.2)."""
        if self.llsr_length_override is not None:
            return self.llsr_length_override
        return self.rob_size // self.num_threads

    def cache_key(self) -> str:
        """Stable content fingerprint of this configuration.

        Hashes the dataclass field tree (via canonical JSON) rather than
        ``repr``, so the key survives repr-format changes and is identical
        across processes.  :mod:`repro.jobs` uses it to key the persistent
        result store.

        The digest is computed on the first call and kept on this
        instance, outside the dataclass fields (so it takes no part in
        equality, hashing, ``repr`` or :func:`config_to_dict`).  It is
        memoized per instance, never by equality: ``mem_latency=350``
        and ``350.0`` compare equal but hash to different keys.
        ``dataclasses.replace`` builds a new instance, so a memo never
        outlives a field change.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            blob = json.dumps(asdict(self), sort_keys=True,
                              separators=(",", ":"))
            key = hashlib.sha256(blob.encode("ascii")).hexdigest()
            object.__setattr__(self, "_cache_key", key)
        return key


def config_to_dict(cfg: SMTConfig) -> dict:
    """``cfg`` as a plain JSON-serializable tree (the ``asdict`` layout).

    The same tree :meth:`SMTConfig.cache_key` hashes, so a config rebuilt
    with :func:`config_from_dict` has an identical content fingerprint.
    """
    return asdict(cfg)


#: Resolved annotations per config dataclass (annotations are strings
#: under ``from __future__ import annotations``); filled lazily so the
#: codec discovers nested dataclass fields from the classes themselves —
#: a field added to any config dataclass deserializes correctly with no
#: parallel table to update.
_FIELD_TYPES: dict[type, dict[str, type]] = {}


def _field_types(cls: type) -> dict[str, type]:
    cached = _FIELD_TYPES.get(cls)
    if cached is None:
        from typing import get_type_hints
        hints = get_type_hints(cls)
        cached = _FIELD_TYPES[cls] = {f.name: hints[f.name]
                                      for f in fields(cls)}
    return cached


def _build_from_dict(cls: type, data: dict):
    types = _field_types(cls)
    missing = set(types) - set(data)
    if missing:
        raise TypeError(
            f"config tree for {cls.__name__} is missing field(s): "
            f"{', '.join(sorted(missing))}")
    kwargs = {}
    for key, value in data.items():
        sub = types.get(key)
        kwargs[key] = (_build_from_dict(sub, value)
                       if isinstance(sub, type) and is_dataclass(sub)
                       and isinstance(value, dict)
                       else value)
    return cls(**kwargs)


def config_from_dict(data: dict) -> SMTConfig:
    """Rebuild an :class:`SMTConfig` from a :func:`config_to_dict` tree.

    The tree must be complete: unknown keys raise ``TypeError`` (the
    dataclass constructors reject them) and missing keys raise too — a
    truncated or mis-spelled config must never silently alias onto the
    defaults.
    """
    if not isinstance(data, dict):
        raise TypeError(f"config tree must be a dict, got "
                        f"{type(data).__name__}")
    return _build_from_dict(SMTConfig, data)


def paper_baseline(num_threads: int = 2, **overrides) -> SMTConfig:
    """The exact Table IV configuration."""
    return replace(SMTConfig(num_threads=num_threads), **overrides)


def single_thread_variant(cfg: SMTConfig) -> SMTConfig:
    """``cfg`` reduced to one hardware thread (identity if already 1).

    Single-threaded CPI baselines and multithreaded runs must share every
    other parameter, so this is the only sanctioned way to derive the
    baseline machine from a workload machine.

    The variant is built once per ``cfg`` instance and kept on it (like
    :meth:`SMTConfig.cache_key`), so every baseline of one machine
    shares one config and hashes it once.
    """
    if cfg.num_threads == 1:
        return cfg
    variant = cfg.__dict__.get("_single_thread")
    if variant is None:
        variant = replace(cfg, num_threads=1)
        object.__setattr__(cfg, "_single_thread", variant)
    return variant


def scaled_memory(scale: int = 16) -> MemoryConfig:
    """A memory hierarchy shrunk by ``scale`` with identical structure.

    Latencies, associativities, and line size are unchanged; only capacities
    shrink so that short traces exercise realistic miss behaviour.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    base = MemoryConfig()

    def shrink(c: CacheConfig) -> CacheConfig:
        size = max(c.size // scale, c.assoc * c.line_size)
        return CacheConfig(size, c.assoc, c.line_size)

    return replace(
        base,
        l1i=shrink(base.l1i),
        l1d=shrink(base.l1d),
        l2=shrink(base.l2),
        l3=shrink(base.l3),
        itlb=TLBConfig(max(base.itlb.entries // scale, 8), base.itlb.page_size),
        dtlb=TLBConfig(max(base.dtlb.entries // scale, 16), base.dtlb.page_size),
    )


def scaled_config(num_threads: int = 2, scale: int = 16, **overrides) -> SMTConfig:
    """Table IV core with a ``scale``-times smaller memory hierarchy."""
    return replace(
        SMTConfig(num_threads=num_threads, memory=scaled_memory(scale)),
        **overrides,
    )


def with_window_size(cfg: SMTConfig, rob_size: int) -> SMTConfig:
    """Scale the out-of-order window as in Figures 17/18.

    The load/store queue, issue queues, and rename register files scale
    proportionally with the ROB, exactly as in Section 6.4.2.
    """
    factor = rob_size / cfg.rob_size
    return replace(
        cfg,
        rob_size=rob_size,
        lsq_size=max(int(cfg.lsq_size * factor), cfg.num_threads),
        int_iq_size=max(int(cfg.int_iq_size * factor), 4),
        fp_iq_size=max(int(cfg.fp_iq_size * factor), 4),
        int_rename_regs=max(int(cfg.int_rename_regs * factor), 8),
        fp_rename_regs=max(int(cfg.fp_rename_regs * factor), 8),
    )


def with_memory_latency(cfg: SMTConfig, mem_latency: int) -> SMTConfig:
    """Vary main-memory latency as in Figures 15/16."""
    mem = replace(cfg.memory, mem_latency=mem_latency,
                  tlb_miss_penalty=mem_latency)
    return replace(cfg, memory=mem)
