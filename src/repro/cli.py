"""``python -m repro`` — run the paper's experiments from the terminal.

Subcommands:

* ``list``          — registered benchmarks, policies, perf scenarios,
  and engine backends (``repro list <kind>`` narrows to one registry)
* ``run``           — execute a declarative run spec from a JSON file
  (see ``repro spec``) through the jobs engine
* ``spec``          — author and inspect run specs: ``spec make`` writes
  one, ``spec show`` prints the canonical form and content hash
* ``characterize``  — Table I / Figure 1 rows for chosen benchmarks
* ``compare``       — STP/ANTT policy comparison on one or more workloads
* ``mlp-cdf``       — Figure 4: measured MLP distance CDFs
* ``figure``        — regenerate a whole paper figure by id (see
  ``python -m repro figure`` for targets)
* ``sweep``         — memory-latency or window-size sweeps (Figures 15–18)
* ``jobs``          — the parallel experiment engine: ``jobs run`` submits
  a workload×policy batch across ``REPRO_JOBS`` workers, ``jobs status``
  inspects the persistent result store, ``jobs cache-clear`` empties it
* ``perf``          — per-scenario engine timing: ``perf duel`` races one
  canonical scenario on two backends (order-fair, median of N), and
  ``perf profile <scenario>`` wraps the cProfile recipe (prime run,
  top-N frames) the profile tables in ``perf/PROFILE.md`` are built
  from; end-to-end timings are perfbench's (``perfbench/run.py``)

Every simulating command accepts ``--commits`` to trade accuracy for
runtime; the defaults match the benchmark harness (see
``repro.experiments.defaults``).  Budgets (``--commits``, ``figure``'s
budget) and worker counts (``--jobs``) are positive integers; any other
value is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence
from pathlib import Path

from repro import registry
from repro.experiments import (
    compare_policies,
    default_commits,
    default_config,
    memory_latency_sweep,
    summarize_policies,
    window_size_sweep,
)
from repro.experiments.characterize import characterize
from repro.experiments.profile import profile_benchmark
from repro.jobs import JobSpec, default_store, default_workers, run_jobs
from repro.policies import MAIN_COMPARISON
from repro.report import cdf_chart, format_table, hbar_chart
from repro.workloads import TABLE_I
from repro.workloads.mixes import workload_category


def package_version() -> str:
    """The distribution version, identical however the CLI is launched.

    Installed checkouts answer from package metadata.  A plain
    ``PYTHONPATH=src`` checkout has no installed distribution, so the
    fallback reads the same version from the checkout's
    ``pyproject.toml`` (``repro.__version__`` is the result-store
    content-key stamp, *not* the release version — reporting it here
    would cite a different version for identical code).
    """
    from importlib import metadata
    try:
        return metadata.version("repro-mlp-fetch")
    except metadata.PackageNotFoundError:
        pass
    import tomllib
    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    try:
        return tomllib.loads(pyproject.read_text())["project"]["version"]
    except (OSError, KeyError, tomllib.TOMLDecodeError):
        return "unknown (source tree without pyproject.toml)"


def _split(arg: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in arg.split(",") if x.strip())


def _positive_int(arg: str) -> int:
    """argparse type of every budget and worker count: an int of 1 or more."""
    try:
        value = int(arg)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {arg!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_workloads(args: Sequence[str]) -> list[tuple[str, ...]]:
    workloads = [_split(a) for a in args]
    sizes = {len(w) for w in workloads}
    if len(sizes) != 1:
        raise SystemExit("all workloads must have the same thread count")
    for w in workloads:
        for name in w:
            if name not in registry.benchmarks:
                raise SystemExit(f"unknown benchmark {name!r}; "
                                 f"see `python -m repro list`")
    return workloads


# --------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------- #

def _list_benchmarks() -> None:
    rows = [(name, t.lll_per_kilo, t.mlp, f"{t.mlp_impact:.1%}", t.category)
            for name, t in sorted(TABLE_I.items())]
    print(format_table(
        ("benchmark", "LLL/1K", "MLP", "impact", "class"), rows))
    extra = sorted(set(registry.benchmarks.names()) - set(TABLE_I))
    if extra:
        print(f"  (registered without Table I targets: {', '.join(extra)})")


def _list_policies() -> None:
    print("policies:")
    for name, cls in registry.policies.items():
        doc = (cls.__doc__ or "").strip()
        summary = doc.splitlines()[0] if doc else cls.__name__
        print(f"  {name:<20} {summary}")


def _list_scenarios() -> None:
    print("perf scenarios:")
    for name, sc in registry.scenarios.items():
        print(f"  {name:<24} {sc.num_threads}t {sc.policy:<12} "
              f"{sc.commits} commits (quick {sc.quick_commits})")


def _list_backends() -> None:
    from repro.experiments.runner import default_backend

    print("engine backends (RunSpec.backend / --backend):")
    chosen = default_backend()
    for name, cls in registry.backends.items():
        doc = (cls.__doc__ or "").strip()
        summary = doc.splitlines()[0] if doc else cls.__name__
        default = "  [default]" if name == chosen else ""
        print(f"  {name:<10} {summary}{default}")


def _list_checkers() -> None:
    import importlib

    print("static-analysis checkers (repro lint):")
    for name, fn in registry.checkers.items():
        mod = importlib.import_module(fn.__module__)
        summary = (mod.__doc__ or name).strip().splitlines()[0]
        print(f"  {name:<20} {summary}")


_LIST_KINDS = {
    "benchmarks": _list_benchmarks,
    "policies": _list_policies,
    "scenarios": _list_scenarios,
    "backends": _list_backends,
    "checkers": _list_checkers,
}


def cmd_list(args) -> int:
    import sys

    kind = getattr(args, "kind", None)
    if kind is not None:
        try:
            canonical = registry.canonical_kind(kind)
        except registry.RegistryError:
            print(f"repro list: unknown kind {kind!r}; choose one of: "
                  f"{', '.join(sorted(_LIST_KINDS))} (or no argument "
                  f"for everything)", file=sys.stderr)
            return 2
        # Every canonical kind has a bespoke table; a future registry
        # kind gets added to both dicts.
        _LIST_KINDS[canonical]()
        return 0
    _list_benchmarks()
    print()
    _list_policies()
    print()
    _list_scenarios()
    print()
    _list_backends()
    print()
    _list_checkers()
    return 0


def cmd_lint(args) -> int:
    import json as _json
    import sys

    from repro.analysis import run_checkers

    try:
        findings = run_checkers(args.checker or None)
    except registry.RegistryError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for f in findings:
            print(f)
        names = args.checker or registry.checkers.names()
        status = "clean" if not findings else \
            f"{len(findings)} finding{'s' if len(findings) != 1 else ''}"
        n = len(tuple(names))
        print(f"repro lint: {status} ({n} checker{'s' if n != 1 else ''})",
              file=sys.stderr)
    return 1 if findings else 0


def cmd_run(args) -> int:
    from repro.api import RunSpec, Session, SpecError

    path = Path(args.spec)
    try:
        spec = RunSpec.from_json(path.read_text())
    except OSError as exc:
        raise SystemExit(f"repro run: cannot read {path}: {exc}") from exc
    except SpecError as exc:
        raise SystemExit(f"repro run: {path}: {exc}") from exc
    session = Session(workers=args.jobs,
                      progress=print if args.verbose else None)
    result = session.run(spec)
    print(result)
    print(f"\nspec:   {spec}")
    print(f"hash:   {spec.content_hash()}")
    print(f"[jobs] {session.last_report}")
    return 0


def _spec_from_args(args):
    from repro.api import RunSpec, SpecError

    names = _split(args.workload)
    try:
        return RunSpec(
            workload=names,
            config=default_config(num_threads=len(names)),
            policy=args.policy,
            max_commits=args.commits,
            warmup=args.warmup,
            seed=args.seed,
            backend=args.backend)
    except SpecError as exc:
        raise SystemExit(f"repro spec: {exc}") from exc


def cmd_spec_make(args) -> int:
    spec = _spec_from_args(args)
    text = spec.to_json()
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {spec} -> {args.output}")
        print(f"hash: {spec.content_hash()}")
    else:
        print(text)
    return 0


def cmd_spec_show(args) -> int:
    from repro.api import RunSpec, SpecError

    path = Path(args.spec)
    try:
        spec = RunSpec.from_json(path.read_text())
    except OSError as exc:
        raise SystemExit(f"repro spec show: cannot read {path}: {exc}") from exc
    except SpecError as exc:
        raise SystemExit(f"repro spec show: {path}: {exc}") from exc
    print(spec.to_json())
    print(f"\nspec:    {spec}")
    print(f"threads: {spec.num_threads}")
    print(f"hash:    {spec.content_hash()}")
    return 0


def cmd_characterize(args) -> int:
    names = list(_split(args.benchmarks)) if args.benchmarks else None
    rows = characterize(names=names, max_commits=args.commits)
    table_rows = [
        (r.name, r.lll_per_kilo, r.mlp, f"{r.mlp_impact:.1%}", r.category,
         f"{r.paper_lll_per_kilo:.2f}", f"{r.paper_mlp:.2f}",
         f"{r.paper_mlp_impact:.1%}", r.paper_category)
        for r in rows
    ]
    print(format_table(
        ("benchmark", "LLL/1K", "MLP", "impact", "class",
         "LLL(paper)", "MLP(paper)", "impact(paper)", "class(paper)"),
        table_rows))
    matches = sum(r.category_matches_paper for r in rows)
    print(f"\nclass agreement with the paper: {matches}/{len(rows)}")
    return 0


def cmd_compare(args) -> int:
    workloads = _parse_workloads(args.workload)
    policies = _parse_policies(args.policies)
    cfg = default_config(num_threads=len(workloads[0]))
    cells = compare_policies(workloads, policies, cfg, args.commits,
                             progress=print if args.verbose else None)
    summary = summarize_policies(cells, workloads, policies)
    categories = {w: workload_category(w) for w in workloads}
    print(f"\nworkloads: " + ", ".join(
        f"{'-'.join(w)} [{categories[w]}]" for w in workloads))
    print()
    print(hbar_chart([(p, s) for p, (s, _) in summary.items()],
                     title="STP (higher is better)"))
    print()
    print(hbar_chart([(p, a) for p, (_, a) in summary.items()],
                     title="ANTT (lower is better)"))
    return 0


def cmd_mlp_cdf(args) -> int:
    names = (_split(args.benchmarks) if args.benchmarks
             else ("mcf", "fma3d", "equake", "lucas"))
    samples = {}
    for name in names:
        profile = profile_benchmark(name, max_commits=args.commits)
        samples[name] = [float(d) for d in profile.mlp_distances]
    print(cdf_chart(samples, title="Figure 4 — measured MLP distance CDF",
                    x_label="MLP distance (instructions)"))
    return 0


def cmd_figure(args) -> int:
    from repro.experiments.figures import main as figure_main
    argv = [args.target] if args.target else []
    if args.budget is not None:
        argv.append(str(args.budget))
    return figure_main(argv)


def cmd_sweep(args) -> int:
    workloads = (_parse_workloads(args.workload) if args.workload
                 else [("swim", "twolf"), ("vpr", "mcf")])
    policies = (_split(args.policies) if args.policies
                else ("icount", "flush", "mlp_flush"))
    sweep = (memory_latency_sweep if args.kind == "memlat"
             else window_size_sweep)
    results = sweep(workloads, policies, max_commits=args.commits)
    x_name = "latency" if args.kind == "memlat" else "ROB"
    header = (x_name, *[f"{p} STP" for p in results[next(iter(results))]],
              *[f"{p} ANTT" for p in results[next(iter(results))]])
    rows = []
    for point, summary in results.items():
        rows.append((str(point),
                     *[f"{s:.3f}" for s, _ in summary.values()],
                     *[f"{a:.3f}" for _, a in summary.values()]))
    print(format_table(header, rows))
    print("\n(all values relative to ICOUNT at the same design point)")
    return 0


def _parse_policies(arg: str | None) -> tuple[str, ...]:
    policies = _split(arg) if arg else MAIN_COMPARISON
    for p in policies:
        if p not in registry.policies:
            raise SystemExit(f"unknown policy {p!r}")
    return policies


def cmd_jobs_run(args) -> int:
    workloads = _parse_workloads(args.workload)
    policies = _parse_policies(args.policies)
    cfg = default_config(num_threads=len(workloads[0]))
    specs = [JobSpec.workload(tuple(w), cfg, p, args.commits)
             for w in workloads for p in policies]
    batch = run_jobs(specs, workers=args.jobs,
                     progress=print if args.verbose else None)
    for spec in specs:
        print(batch[spec])
    print(f"\n[jobs] {batch.report}")
    return 0


def cmd_jobs_status(_args) -> int:
    store = default_store()
    if store is None:
        print("result store: disabled (REPRO_CACHE=0)")
        return 0
    entries = len(store)
    print(f"result store: {store.root}")
    print(f"entries:      {entries} ({store.size_bytes() / 1024:.1f} KiB)")
    print(f"workers:      {default_workers()} (REPRO_JOBS)")
    return 0


def cmd_jobs_cache_clear(_args) -> int:
    store = default_store()
    removed = store.clear() if store is not None else 0
    where = store.root if store is not None else "disabled"
    print(f"result store: {where} — removed {removed} entries")
    return 0


def cmd_perf_profile(args) -> int:
    from repro import perf

    if args.backend != "object" and args.backend not in registry.backends:
        raise SystemExit(
            f"perf profile: unknown backend {args.backend!r}; "
            f"see `python -m repro list backends`")
    try:
        report = perf.profile_scenario(args.scenario, top=args.top,
                                       sort=args.sort, quick=args.quick,
                                       backend=args.backend)
    except KeyError:
        raise SystemExit(
            f"perf profile: unknown scenario {args.scenario!r}; "
            f"see `python -m repro list scenarios`") from None
    except ValueError as exc:
        raise SystemExit(f"perf profile: {exc}") from exc
    print(perf.format_report(report), end="")
    return 0


def cmd_perf_duel(args) -> int:
    from repro import perf

    names = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    if len(names) != 2:
        raise SystemExit(
            f"perf duel: --backends takes exactly two comma-separated "
            f"names, got {args.backends!r}")
    for backend in names:
        if backend not in registry.backends:
            raise SystemExit(
                f"perf duel: unknown backend {backend!r}; "
                f"see `python -m repro list backends`")
    try:
        sc = perf.scenario_by_name(args.scenario)
    except KeyError:
        raise SystemExit(
            f"perf duel: unknown scenario {args.scenario!r}; "
            f"see `python -m repro list scenarios`") from None
    try:
        result = perf.duel(sc, (names[0], names[1]), rounds=args.rounds,
                           quick=args.quick)
    except ValueError as exc:
        raise SystemExit(f"perf duel: {exc}") from exc
    a, b = result.backends
    if args.json:
        import json as _json
        doc = {
            "scenario": result.name,
            "backends": list(result.backends),
            "rounds": result.rounds,
            "quick": result.quick,
            "samples_s": {k: [round(t, 6) for t in v]
                          for k, v in result.samples.items()},
            "median_s": {k: round(result.median(k), 6)
                         for k in result.backends},
            "ratio": round(result.ratio, 3),
        }
        print(_json.dumps(doc, indent=2, sort_keys=True))
    else:
        mode = "quick" if result.quick else "full"
        print(f"duel: {result.name} ({mode}, median of {result.rounds}, "
              f"interleaved order-fair, gc.collect() between samples)")
        for backend in result.backends:
            runs = " ".join(f"{t:.3f}" for t in result.samples[backend])
            print(f"  {backend:>8}: median {result.median(backend):.3f}s  "
                  f"[{runs}]")
        print(f"  {b} is {result.ratio:.2f}x vs {a} "
              f"(median-of-{result.rounds} wall ratio)")
    return 0


# --------------------------------------------------------------------- #
# argument parsing
# --------------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="MLP-aware SMT fetch policy experiments "
                    "(Eyerman & Eeckhout, HPCA 2007)")
    parser.add_argument("--version", action="version",
                        version=f"repro {package_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list",
                       help="registered benchmarks/policies/scenarios")
    p.add_argument("kind", nargs="?", default=None,
                   help="benchmarks | policies | scenarios | backends "
                        "| checkers (default: everything)")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser(
        "lint", help="run the project-invariant static checkers")
    p.add_argument("--checker", action="append", metavar="NAME",
                   help="run only this checker (repeatable; "
                        "see `repro list checkers`)")
    p.add_argument("--json", action="store_true",
                   help="emit findings as a JSON array")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser("run", help="execute a run spec JSON file")
    p.add_argument("spec", help="path to a repro.runspec/2 JSON file "
                   "(v1 files still load)")
    p.add_argument("-j", "--jobs", type=_positive_int, default=None,
                   help="worker processes (default: REPRO_JOBS or 1)")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("spec", help="author / inspect declarative run specs")
    ssub = p.add_subparsers(dest="spec_command", required=True)
    s = ssub.add_parser("make", help="build a run spec and print/write it")
    s.add_argument("-w", "--workload", required=True, metavar="A,B[,C,D]",
                   help="comma-separated benchmark names")
    s.add_argument("-p", "--policy", default="icount")
    s.add_argument("-c", "--commits", type=_positive_int, default=None)
    s.add_argument("--warmup", type=int, default=None,
                   help="default: REPRO_WARMUP or 4000")
    s.add_argument("--seed", type=int, default=0,
                   help="trace-seed salt (0 = canonical streams)")
    s.add_argument("--backend", default=None,
                   help="pin the engine core (see `repro list backends`; "
                        "default: unpinned, the fastest registered)")
    s.add_argument("-o", "--output", help="write the JSON here")
    s.set_defaults(fn=cmd_spec_make)
    s = ssub.add_parser("show",
                        help="validate a spec file, print it + content hash")
    s.add_argument("spec", help="path to a repro.runspec/2 JSON file")
    s.set_defaults(fn=cmd_spec_show)

    p = sub.add_parser("characterize", help="Table I / Figure 1")
    p.add_argument("-b", "--benchmarks", help="comma-separated names")
    p.add_argument("-c", "--commits", type=_positive_int, default=None)
    p.set_defaults(fn=cmd_characterize)

    p = sub.add_parser("compare", help="policy STP/ANTT comparison")
    p.add_argument("-w", "--workload", action="append", required=True,
                   metavar="A,B[,C,D]", help="repeatable workload mix")
    p.add_argument("-p", "--policies", help="comma-separated policy names")
    p.add_argument("-c", "--commits", type=_positive_int, default=None)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("mlp-cdf", help="Figure 4 MLP distance CDFs")
    p.add_argument("-b", "--benchmarks", help="comma-separated names")
    p.add_argument("-c", "--commits", type=_positive_int, default=8_000)
    p.set_defaults(fn=cmd_mlp_cdf)

    p = sub.add_parser("figure", help="regenerate a paper figure by id")
    p.add_argument("target", nargs="?", help="e.g. table1, fig9, fig15")
    p.add_argument("budget", nargs="?", type=_positive_int)
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("sweep", help="microarchitecture sweeps")
    p.add_argument("kind", choices=("memlat", "window"))
    p.add_argument("-w", "--workload", action="append",
                   metavar="A,B", help="repeatable workload mix")
    p.add_argument("-p", "--policies", help="comma-separated policy names")
    p.add_argument("-c", "--commits", type=_positive_int, default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "jobs", help="parallel experiment engine / persistent result store")
    jsub = p.add_subparsers(dest="jobs_command", required=True)
    j = jsub.add_parser("run", help="run a workload×policy batch")
    j.add_argument("-w", "--workload", action="append", required=True,
                   metavar="A,B[,C,D]", help="repeatable workload mix")
    j.add_argument("-p", "--policies", help="comma-separated policy names")
    j.add_argument("-c", "--commits", type=_positive_int, default=None)
    j.add_argument("-j", "--jobs", type=_positive_int, default=None,
                   help="worker processes (default: REPRO_JOBS or 1)")
    j.add_argument("-v", "--verbose", action="store_true")
    j.set_defaults(fn=cmd_jobs_run)
    j = jsub.add_parser("status", help="inspect the result store")
    j.set_defaults(fn=cmd_jobs_status)
    j = jsub.add_parser("cache-clear", help="empty the result store")
    j.set_defaults(fn=cmd_jobs_cache_clear)

    p = sub.add_parser("perf", help="backend duel and cProfile of a scenario")
    psub = p.add_subparsers(dest="perf_command", required=True)

    q = psub.add_parser(
        "duel",
        help="order-fair A/B wall-clock duel of one scenario on two "
             "backends")
    q.add_argument("scenario",
                   help="scenario name; see `repro list scenarios`")
    q.add_argument("--backends", default="object,cext",
                   metavar="A,B",
                   help="the two engines to race (default: object,cext)")
    q.add_argument("-n", "--rounds", type=int, default=5,
                   help="timed samples per backend (default 5)")
    q.add_argument("--quick", action="store_true",
                   help="reduced budgets (CI smoke mode)")
    q.add_argument("--json", action="store_true",
                   help="emit the samples/ratio as JSON")
    q.set_defaults(fn=cmd_perf_duel)
    q = psub.add_parser(
        "profile",
        help="cProfile one scenario (prime run, then top-N frames)")
    q.add_argument("scenario",
                   help="scenario name; see `repro list scenarios`")
    q.add_argument("--top", type=int, default=15,
                   help="number of frames to print (default 15)")
    q.add_argument("--sort", default="tottime",
                   choices=("tottime", "cumtime"),
                   help="pstats sort key (default tottime)")
    q.add_argument("--quick", action="store_true",
                   help="reduced budgets (CI smoke mode)")
    q.add_argument("--backend", default="object",
                   help="engine core to profile (see `repro list "
                        "backends`; default: object)")
    q.set_defaults(fn=cmd_perf_profile)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.__dict__.get("commits") is None and hasattr(args, "commits"):
        args.commits = default_commits(8_000)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - module CLI entry
    raise SystemExit(main())
