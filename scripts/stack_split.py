"""Sample where the compiled engine's time goes: a four-way stack split.

Usage::

    PYTHONPATH=src python scripts/stack_split.py [--workload fig9_cold]
        [--seed 3] [--passes 8] [--py-names]

Runs ``--passes`` in-process passes of a perfbench workload
(``fig9_cold``: the fig9 grid into an empty store each pass;
``golden_cext``: the 34 golden cells on the compiled engine), built by
``perfbench/workloads.py``, under a ``SIGPROF`` sampler
(``setitimer(ITIMER_PROF)`` at 997 Hz of process CPU time).  A small C
helper, built with the host compiler, records each sample's C stack
with ``backtrace()``.  Each sample is classed by its frames inside the
compiled loop's ``run_until``:

* **loop's own code** -- the sample is in the engine module's code;
* **C-API call made by the loop** -- in libpython or libc, called from
  the engine module (unboxing, dict operations, allocation);
* **Python callout** -- the interpreter runs beneath ``run_until`` (a
  policy hook, a predictor, a hierarchy method);
* **outside the loop** -- no ``run_until`` on the stack (jobs, store
  writes, trace builds, core construction, the object engine).

It prints the split, then the engine functions the samples land in,
the ones that make the C-API calls and the ones that call into Python.
Engine functions are named from the module's symbol table (``nm``), so
an inlined helper counts as its caller.  Last it names, for each C-API
sample, the C-API function the engine called and, in brackets, the
function the sample landed in when that is another one (e.g.
``fetch_thread_c -> PyLong_AsLongLong [_PyLong_AsByteArray]``: the
multi-digit unbox path).  Those are named by ``dladdr``, so a static
helper inside libpython counts as the nearest exported symbol before it.

``--py-names`` also names each callout's outermost Python function.
That reads the interpreter's frame chain inside the signal handler
(CPython 3.11 layout only), which is not async-signal-safe.  The
handler runs on its own stack and follows only frames inside the
thread's frame-stack chunks, but a run can still crash; the sampling
then runs in a child process, and when it dies the tool says so and
samples again without the names.  The split does not depend on them.

The tool is a measurement aid, not a test: nothing in CI runs it.
"""

from __future__ import annotations

import argparse
import bisect
from collections import Counter
import ctypes
import gc
import os
from pathlib import Path
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import types

ROOT = Path(__file__).resolve().parent.parent

#: Frames kept per sample (run_until sits well within them).
MAX_DEPTH = 96
#: Samples per second of CPU time, and engine functions listed per table.
HZ = 997
TOP = 15

_HELPER = r"""
#define _GNU_SOURCE
#include <Python.h>
#ifdef PY_NAMES
#define Py_BUILD_CORE 1
#include <internal/pycore_frame.h>
#endif
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

#define MAX_DEPTH %(depth)d

static void **frames;
static int *depths;
static void **codes;
static long cap, n, dropped;
static PyThreadState *tstate;
static void *stop_code;
static struct sigaction old_action;
static char alt_stack[1 << 16];

#ifdef PY_NAMES
/* Whether a frame at p lies inside one of the thread's frame-stack
 * chunks (a frame being pushed or popped may not). */
static int in_chunks(const void *p)
{
    for (_PyStackChunk *c = tstate->datastack_chunk; c != NULL;
         c = c->previous)
        if ((const char *)p >= (const char *)c->data
            && (const char *)p + sizeof(_PyInterpreterFrame)
                   <= (const char *)c + c->size)
            return 1;
    return 0;
}
#endif

/* The code object of the outermost Python frame above the one running
 * stop_code (the engine's Python entry), or NULL. */
static void *outermost_callout(void)
{
#ifdef PY_NAMES
    _PyInterpreterFrame *f = tstate->cframe->current_frame, *last = NULL;
    for (int i = 0; f != NULL && i < 256 && in_chunks(f);
         i++, f = f->previous) {
        if ((void *)f->f_code == stop_code)
            return last == NULL ? NULL : (void *)last->f_code;
        last = f;
    }
#endif
    return NULL;
}

static void on_prof(int sig)
{
    (void)sig;
    if (n >= cap) {
        dropped++;
        return;
    }
    depths[n] = backtrace(frames + n * MAX_DEPTH, MAX_DEPTH);
    codes[n] = stop_code != NULL ? outermost_callout() : NULL;
    n++;
}

int ss_start(long samples, long usec, void *code)
{
    void *warm[4];
    backtrace(warm, 4);     /* loads the unwinder outside the handler */
    frames = calloc((size_t)samples * MAX_DEPTH, sizeof(void *));
    depths = calloc((size_t)samples, sizeof(int));
    codes = calloc((size_t)samples, sizeof(void *));
    if (frames == NULL || depths == NULL || codes == NULL)
        return -1;
    cap = samples;
    n = dropped = 0;
    tstate = PyThreadState_Get();
    stop_code = code;
    stack_t ss = {.ss_sp = alt_stack, .ss_size = sizeof(alt_stack)};
    if (sigaltstack(&ss, NULL) < 0)
        return -1;
    struct sigaction sa;
    memset(&sa, 0, sizeof(sa));
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART | SA_ONSTACK;
    if (sigaction(SIGPROF, &sa, &old_action) < 0)
        return -1;
    struct itimerval it = {{0, usec}, {0, usec}};
    return setitimer(ITIMER_PROF, &it, NULL);
}

long ss_stop(void)
{
    struct itimerval off;
    memset(&off, 0, sizeof(off));
    setitimer(ITIMER_PROF, &off, NULL);
    sigaction(SIGPROF, &old_action, NULL);
    return n;
}

long ss_dropped(void) { return dropped; }
int ss_depth(long i) { return depths[i]; }
void *ss_frame(long i, int j) { return frames[i * MAX_DEPTH + j]; }
void *ss_code(long i) { return codes[i]; }

/* dladdr: the object's base and the nearest exported symbol. */
int ss_where(void *p, void **base, const char **file, const char **sym)
{
    Dl_info info;
    if (!dladdr(p, &info))
        return 0;
    *base = info.dli_fbase;
    *file = info.dli_fname;
    *sym = info.dli_sname;
    return 1;
}
"""


def build_helper(workdir: Path, py_names: bool) -> ctypes.PyDLL:
    """Compile the sampler with the host compiler and load it."""
    cc = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise SystemExit("stack_split: no C compiler on PATH")
    src = workdir / "stack_split_helper.c"
    out = workdir / "stack_split_helper.so"
    src.write_text(_HELPER % {"depth": MAX_DEPTH})
    cmd = [cc, "-O1", "-fPIC", "-shared", "-I",
           sysconfig.get_paths()["include"], str(src), "-o", str(out)]
    if py_names:
        cmd.insert(1, "-DPY_NAMES")
    subprocess.run(cmd, check=True)
    lib = ctypes.PyDLL(str(out))    # calls keep the GIL held
    lib.ss_start.argtypes = (ctypes.c_long, ctypes.c_long, ctypes.c_void_p)
    lib.ss_stop.restype = ctypes.c_long
    lib.ss_dropped.restype = ctypes.c_long
    lib.ss_depth.argtypes = (ctypes.c_long,)
    lib.ss_frame.argtypes = (ctypes.c_long, ctypes.c_int)
    lib.ss_frame.restype = ctypes.c_void_p
    lib.ss_code.argtypes = (ctypes.c_long,)
    lib.ss_code.restype = ctypes.c_void_p
    lib.ss_where.argtypes = (ctypes.c_void_p, ctypes.POINTER(ctypes.c_void_p),
                             ctypes.POINTER(ctypes.c_char_p),
                             ctypes.POINTER(ctypes.c_char_p))
    return lib


class Symbols:
    """Names a return address: the engine module's functions by its
    symbol table (static ones too), anything else by ``dladdr``."""

    def __init__(self, lib: ctypes.PyDLL, engine_path: str):
        self.lib = lib
        self.engine = os.path.realpath(engine_path)
        nm = subprocess.run(["nm", "--defined-only", self.engine],
                            capture_output=True, text=True, check=True)
        table = sorted((int(addr, 16), name) for addr, kind, name in
                       (line.split()[:3] for line in nm.stdout.splitlines()
                        if len(line.split()) >= 3)
                       if kind in "tTwW")
        self.addrs = [a for a, _ in table]
        self.names = [n for _, n in table]
        self.memo: dict[int, tuple[bool, str]] = {}

    def __call__(self, pc: int) -> tuple[bool, str]:
        """(in the engine module, function name) of address ``pc``."""
        hit = self.memo.get(pc)
        if hit is not None:
            return hit
        base = ctypes.c_void_p()
        file = ctypes.c_char_p()
        sym = ctypes.c_char_p()
        found = self.lib.ss_where(pc, ctypes.byref(base), ctypes.byref(file),
                                  ctypes.byref(sym))
        if not found:
            hit = (False, "?")
        elif os.path.realpath(file.value.decode()) == self.engine:
            # return addresses point one past the call: look up pc - 1
            i = bisect.bisect_right(self.addrs, pc - 1 - base.value) - 1
            name = self.names[i] if i >= 0 else "?"
            # the PLT follows _init: a stub on the way to a C-API call
            hit = (False, "PLT") if name == "_init" else (True, name)
        else:
            hit = (False, sym.value.decode() if sym.value else
                   Path(file.value.decode()).name)
        self.memo[pc] = hit
        return hit


def classify(frames: list[tuple[bool, str]]) -> tuple[str, str, str]:
    """(class, engine function, C-API call) of one sample's frames,
    innermost first; the C-API call is empty outside its class."""
    names = [name for _, name in frames]
    start = names.index("__restore_rt") + 1 if "__restore_rt" in names \
        else 2
    inner = frames[start:]
    loop = next((i for i, (mine, name) in enumerate(inner)
                 if mine and name == "run_until"), None)
    if loop is None:
        return "outside the loop", "", ""
    evals = [i for i, (_, name) in enumerate(inner[:loop])
             if name == "_PyEval_EvalFrameDefault"]
    if evals:
        caller = next(name for mine, name in inner[evals[-1] + 1:loop + 1]
                      if mine)
        return "Python callout", caller, ""
    mine, name = inner[0]
    if mine:
        return "loop's own code", name, ""
    at = next(i for i in range(1, loop + 1) if inner[i][0])
    entry, leaf = inner[at - 1][1], inner[0][1]
    call = entry if leaf == entry else f"{entry} [{leaf}]"
    return "C-API call made by the loop", inner[at][1], call


def code_names() -> dict[int, str]:
    """id(code object) -> qualified name, for every live function."""
    names = {}
    for obj in gc.get_objects():
        if isinstance(obj, types.FunctionType):
            code = obj.__code__
            names[id(code)] = f"{obj.__module__}.{code.co_qualname}"
    return names


def run_passes(workload: str, seed: int, passes: int) -> None:
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as wl   # perfbench's builders, imported read-only

    from repro.api import Session
    for _ in range(passes):
        with tempfile.TemporaryDirectory(prefix="stack-split-") as store:
            os.environ["REPRO_CACHE_DIR"] = store
            if workload == "fig9_cold":
                Session().run_many(wl.fig9_specs(wl.spec_seed(seed)))
            else:
                wl.run_golden(wl.golden_cells(wl.spec_seed(seed)),
                              wl.GOLDEN_BACKEND)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="fig9_cold",
                        choices=("fig9_cold", "golden_cext"))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--passes", type=int, default=8)
    parser.add_argument("--py-names", action="store_true")
    parser.add_argument("--in-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.py_names and sys.version_info[:2] != (3, 11):
        raise SystemExit("stack_split: --py-names reads CPython 3.11 frames")
    if args.py_names and not args.in_child:
        argv = sys.argv[1:] if argv is None else argv
        rc = subprocess.run([sys.executable, __file__, *argv,
                             "--in-child"]).returncode
        if rc >= 0:
            return rc
        print(f"stack_split: the sampler died reading Python frames "
              f"(signal {-rc}); sampling again without --py-names",
              file=sys.stderr)
        args.py_names = False
    os.environ.update(REPRO_CACHE="1", REPRO_JOBS="1")
    for knob in ("REPRO_CEXT", "REPRO_SANITIZE"):
        os.environ.pop(knob, None)

    from repro.pipeline import cext
    engine = cext._engine()
    if engine is None:
        raise SystemExit(f"stack_split: {cext.cext_status()}")
    with tempfile.TemporaryDirectory(prefix="stack-split-build-") as work:
        lib = build_helper(Path(work), args.py_names)
        run_passes(args.workload, args.seed, 1)      # builds, caches warm
        entry = cext.CextCore._run_until.__code__ if args.py_names else None
        seconds_guess = 3.0 * args.passes     # a pass takes about 1 s
        if lib.ss_start(int(seconds_guess * HZ) + 1000, 1_000_000 // HZ,
                        id(entry) if entry is not None else None) < 0:
            raise SystemExit("stack_split: could not arm the sampler")
        try:
            run_passes(args.workload, args.seed, args.passes)
        finally:
            n = lib.ss_stop()
        symbols = Symbols(lib, engine.__file__)
        split: Counter[str] = Counter()
        by_fn: dict[str, Counter[str]] = {}
        py: Counter[str] = Counter()
        capi: Counter[str] = Counter()
        names = code_names() if args.py_names else {}
        for i in range(n):
            frames = [symbols(lib.ss_frame(i, j) or 0)
                      for j in range(lib.ss_depth(i))]
            cls, fn, call = classify(frames)
            split[cls] += 1
            by_fn.setdefault(cls, Counter())[fn] += 1
            if call:
                capi[f"{fn} -> {call}"] += 1
            if cls == "Python callout" and args.py_names:
                py[names.get(lib.ss_code(i) or 0, "?")] += 1
    total = sum(split.values()) or 1
    print(f"{args.workload} seed {args.seed}, {args.passes} passes: "
          f"{n} samples at {HZ} Hz ({lib.ss_dropped()} dropped)")
    print("\n| share of samples | samples | % |\n|---|---:|---:|")
    for cls in ("loop's own code", "C-API call made by the loop",
                "Python callout", "outside the loop"):
        print(f"| {cls} | {split[cls]} | {100.0 * split[cls] / total:.1f} |")
    for cls, title in (("loop's own code", "engine functions sampled"),
                       ("C-API call made by the loop",
                        "engine functions making C-API calls"),
                       ("Python callout", "engine functions calling Python")):
        print(f"\n{title}:")
        for fn, k in by_fn.get(cls, Counter()).most_common(TOP):
            print(f"  {100.0 * k / total:5.1f}%  {k:6d}  {fn}")
    if capi:
        print("\nC-API function under each C-API call (engine caller -> "
              "called [landed in]):")
        for name, k in capi.most_common(TOP):
            print(f"  {100.0 * k / total:5.1f}%  {k:6d}  {name}")
    if args.py_names:
        print("\noutermost Python function of each callout:")
        for name, k in py.most_common(TOP):
            print(f"  {100.0 * k / total:5.1f}%  {k:6d}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
