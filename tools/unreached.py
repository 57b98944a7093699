#!/usr/bin/env python3
"""Lists the src/ functions that no program links, and checks the list.

A function is unreached when the libraries under src/ define it but none of
the programs does: the `mfpa` CLI, the bench/ programs, the examples and
perfbench's `serving_bench`. The linker finds them when every tree is built
with each function in its own section and unreferenced sections dropped:

    flags=(-DCMAKE_BUILD_TYPE=Debug
           "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
           -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
    cmake -S . -B build-survey -DMFPA_BUILD_TESTS=OFF "${flags[@]}"
    cmake --build build-survey -j
    cmake -S perfbench -B build-survey-perfbench "${flags[@]}"
    cmake --build build-survey-perfbench --target serving_bench -j
    python3 tools/unreached.py build-survey build-survey-perfbench

Debug matters: at -O2 a function that only its own file calls is inlined
there and its out-of-line copy is dropped, so it would be listed too.
Header-inline functions and templates are weak symbols and are not seen.

The survey compares the global `mfpa::` text symbols (nm type T) of the main
build's src/*/*.a with every symbol the programs define, then with
tools/unreached.txt: one kept symbol per line, as `nm -C` prints it, then
` # ` and the reason it stays. A function missing from the file, and an
entry the survey no longer lists, both fail, so the file cannot rot.

Exit codes: 0 the survey matches the file, 1 it does not, 2 usage or
build error.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ALLOWLIST = os.path.join(HERE, "unreached.txt")


def fail(message: str) -> None:
    print(f"unreached: {message}", file=sys.stderr)
    raise SystemExit(2)


def cache_value(build: str, key: str) -> str:
    path = os.path.join(build, "CMakeCache.txt")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                name, _, value = line.rstrip("\n").partition("=")
                if name.split(":")[0] == key:
                    return value
    except OSError as err:
        fail(f"cannot read {path}: {err}")
    return ""


def check_configured(build: str) -> None:
    """Refuses a tree built without the survey's flags: its list would be
    wrong, not merely different."""
    if cache_value(build, "CMAKE_BUILD_TYPE") != "Debug":
        fail(f"{build} is not a Debug build")
    if "-ffunction-sections" not in cache_value(build, "CMAKE_CXX_FLAGS"):
        fail(f"{build} is not built with -ffunction-sections")
    if "--gc-sections" not in cache_value(build, "CMAKE_EXE_LINKER_FLAGS"):
        fail(f"{build} is not linked with --gc-sections")


def defined(path: str) -> list[tuple[str, str]]:
    """(nm type, demangled name) of every symbol `path` defines."""
    result = subprocess.run(["nm", "-C", "--defined-only", path],
                            capture_output=True, text=True)
    if result.returncode != 0:
        fail(f"nm {path}: {result.stderr.strip()}")
    symbols = []
    for line in result.stdout.splitlines():
        fields = line.split(" ", 2)
        if len(fields) == 3:
            symbols.append((fields[1], fields[2]))
    return symbols


def is_program(path: str) -> bool:
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as fh:
        return fh.read(4) == b"\x7fELF"


def programs(build: str, perfbench: str) -> list[str]:
    found = [os.path.join(build, "mfpa"),
             os.path.join(perfbench, "serving_bench")]
    for sub in ("bench", "examples"):
        found += sorted(glob.glob(os.path.join(build, sub, "*")))
    found = [p for p in found if is_program(p)]
    for required in ("mfpa", "serving_bench"):
        if not any(os.path.basename(p) == required for p in found):
            fail(f"program {required} is not built")
    return found


def load_allowlist() -> dict[str, str]:
    kept: dict[str, str] = {}
    try:
        with open(ALLOWLIST, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as err:
        fail(f"cannot read {ALLOWLIST}: {err}")
    for number, line in enumerate(lines, 1):
        if not line.strip() or line.startswith("#"):
            continue
        symbol, _, reason = line.partition(" # ")
        if not reason.strip():
            fail(f"{ALLOWLIST}:{number}: no ` # reason` after the symbol")
        kept[symbol.strip()] = reason.strip()
    return kept


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    build, perfbench = argv[1], argv[2]
    check_configured(build)
    check_configured(perfbench)

    libraries = sorted(glob.glob(os.path.join(build, "src", "*", "*.a")))
    if not libraries:
        fail(f"no libraries under {build}/src")
    functions = {name for lib in libraries for kind, name in defined(lib)
                 if kind == "T" and name.startswith("mfpa::")}
    linked: set[str] = set()
    runs = programs(build, perfbench)
    for program in runs:
        linked.update(name for _, name in defined(program))
    unreached = functions - linked

    kept = load_allowlist()
    missing = sorted(unreached - kept.keys())
    stale = sorted(kept.keys() - unreached)
    print(f"{len(runs)} programs, {len(libraries)} libraries, "
          f"{len(functions)} functions, {len(unreached)} unreached")
    for symbol in sorted(unreached & kept.keys()):
        print(f"  kept: {symbol}")
    for symbol in missing:
        print(f"  UNREACHED, not in tools/unreached.txt: {symbol}")
    for symbol in stale:
        print(f"  STALE entry in tools/unreached.txt (linked or gone): "
              f"{symbol}")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
