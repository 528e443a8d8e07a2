#!/usr/bin/env python3
"""Lists the library functions that no shipped binary links.

Usage: tools/unreached_functions.py [build_dir]   (default: build-gc)

Configures `build_dir` at -O0 with one section per function and
--gc-sections at link time, builds every library and every binary the
CMakeLists of bench/, examples/ and tools/ add (27 today), then compares
the `ppat::` functions each object of src/*/lib*.a defines (nm types T and
t: inline and template functions are weak and belong to no one object)
against the functions left in those binaries. Prints one line per object
with unreached functions ("<object> <unreached>/<defined>"), then the
unreached names. The C ABI (server/abi.cpp) is left out: callers outside
this repository use it. Needs cmake, a C++ toolchain and binutils' nm;
takes a few minutes.
"""
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BINARY_DIRS = ("bench", "examples", "tools")
SKIPPED_OBJECTS = {"abi.cpp.o"}


def targets(cmake_text, command):
    """Names of the targets a CMakeLists adds with `command`, directly or
    through a foreach loop over `${var}`."""
    names = [m.group(1) for m in
             re.finditer(rf"{command}\((\w+)", cmake_text)]
    for m in re.finditer(r"foreach\((\w+)([^)]*)\)(.*?)endforeach",
                         cmake_text, re.S):
        if f"{command}(${{{m.group(1)}}}" in m.group(3):
            names += m.group(2).split()
    return names


def run(*cmd):
    return subprocess.run(cmd, check=True, capture_output=True,
                          text=True).stdout


def functions(nm_output):
    """(file, name) for each non-inline function in `nm -A -C` output, whose lines
    read "<archive>:<object>:<address> <type> <name>" (no archive part for
    a binary)."""
    for line in nm_output.splitlines():
        location, _, rest = line.partition(" ")
        kind, _, name = rest.partition(" ")
        if kind in ("T", "t"):
            yield location.rsplit(":", 2)[-2], name


def main():
    build = Path(sys.argv[1] if len(sys.argv) > 1 else "build-gc").resolve()
    subprocess.run(["cmake", "-S", str(ROOT), "-B", str(build),
                    "-DCMAKE_BUILD_TYPE=None",
                    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections",
                    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"],
                   check=True, stdout=subprocess.DEVNULL)
    libraries = [name
                 for f in sorted((ROOT / "src").glob("*/CMakeLists.txt"))
                 for name in targets(f.read_text(), "add_library")]
    binaries = [(subdir, name) for subdir in BINARY_DIRS
                for name in targets(
                    (ROOT / subdir / "CMakeLists.txt").read_text(),
                    "add_executable")]
    subprocess.run(["cmake", "--build", str(build), "-j4", "--target",
                    *libraries, *(name for _, name in binaries)],
                   check=True, stdout=subprocess.DEVNULL)

    linked = set()
    for subdir, name in binaries:
        linked.update(fn for _, fn in functions(
            run("nm", "-A", "-C", "--defined-only",
                str(build / subdir / name))))

    defined = defaultdict(set)
    for lib in sorted((build / "src").glob("*/lib*.a")):
        for obj, name in functions(run("nm", "-A", "-C", "--defined-only",
                                       str(lib))):
            # A lambda or a template instantiation (its demangled name
            # starts with a return type) is reached with its caller.
            own = name.startswith("ppat::") and "{lambda" not in name and \
                " " not in name.partition("(")[0]
            if obj not in SKIPPED_OBJECTS and own:
                defined[f"{lib.parent.name}/{obj}"].add(name)

    for obj, names in sorted(defined.items()):
        unreached = sorted(names - linked)
        if unreached:
            print(f"{obj} {len(unreached)}/{len(names)}")
            for name in unreached:
                print(f"    {name}")


if __name__ == "__main__":
    main()
