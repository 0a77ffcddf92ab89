#!/usr/bin/env python3
"""Per-function CPU shares from a tools/prof/sampler.cpp profile.

  MARP_PROF_OUT=prof.out LD_PRELOAD=$PWD/build/tools/libmarp_prof.so build/tools/marp_sim
  python3 tools/prof/report.py prof.out [--top 40] [--full-names]

Prints, per demangled function, its inclusive share (samples with the
function anywhere on the stack) and its self share (samples with it as the
innermost frame), largest inclusive share first. Frames in glibc (libc, libm,
the dynamic loader) are lumped into one "[glibc]" entry: malloc, free, memcpy
and the system-call wrappers all show up there. Addresses are resolved with
binutils' readelf and nm against the objects named in the profile's copy of
/proc/self/maps; frames in objects without symbols show as "[object name]".
"""

import argparse
import bisect
import os
import re
import subprocess
import sys
from collections import Counter

GLIBC = re.compile(r"/(libc|libm|libpthread|libdl|librt|ld-linux[^/]*)[.-][^/]*$")
SAMPLER = re.compile(r"/libmarp_prof\.so$")


def parse_profile(path):
    """(samples, mappings): samples are lists of return addresses, innermost
    first; mappings are executable (start, end, offset, object path)."""
    samples, maps = [], []
    in_maps = False
    with open(path, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            if line.startswith("# maps"):
                in_maps = True
            elif line.startswith("#"):
                continue
            elif in_maps:
                fields = line.split(maxsplit=5)
                if len(fields) < 6 or "x" not in fields[1] or not fields[5].startswith("/"):
                    continue
                start, end = (int(part, 16) for part in fields[0].split("-"))
                maps.append((start, end, int(fields[2], 16), fields[5].strip()))
            elif line.startswith("S"):
                frames = [int(word, 16) for word in line.split()[1:]]
                if frames:
                    samples.append(frames)
    maps.sort()
    return samples, maps


def load_segments(path):
    """(file offset, file size, virtual address) of each LOAD segment."""
    out = subprocess.run(["readelf", "-lW", path], capture_output=True, text=True).stdout
    segments = []
    for line in out.splitlines():
        fields = line.split()
        if fields and fields[0] == "LOAD":
            segments.append((int(fields[1], 16), int(fields[4], 16), int(fields[2], 16)))
    return segments


def function_symbols(path):
    """Sorted (address, size, demangled name) of the object's functions; the
    size is 0 where nm does not know it. A stripped object (libstdc++) only
    has its dynamic symbols."""
    symbols = {}
    for extra in ([], ["-D"]):
        out = subprocess.run(["nm", "-n", "-C", "-S", "--defined-only", *extra, path],
                             capture_output=True, text=True).stdout
        for line in out.splitlines():
            match = re.match(r"([0-9a-f]+) (?:([0-9a-f]+) )?([TtWwi]) (.*)", line)
            if match:
                size = int(match.group(2), 16) if match.group(2) else 0
                symbols.setdefault(int(match.group(1), 16), (size, match.group(4)))
        if symbols:
            break
    return sorted((address, size, name) for address, (size, name) in symbols.items())


def short_name(name):
    """The name without parameter lists and trailing qualifiers, so that
    "A::f(int) const" reads "A::f" and a lambda "{lambda(int)#1}" reads
    "{lambda#1}"; an operator keeps its own symbol ("operator()")."""
    name = name.replace("(anonymous namespace)", "{anonymous}")
    out = []
    depth = 0  # template angle brackets
    i = 0
    while i < len(name):
        char = name[i]
        tail = "".join(out[-12:])
        if char in "<>" and not re.search(r"operator[<>=-]*$", tail):
            depth += 1 if char == "<" else -1
        elif char == "(" and depth == 0 and not tail.endswith("operator"):
            level = 0
            while i < len(name):
                level += {"(": 1, ")": -1}.get(name[i], 0)
                if level == 0:
                    break
                i += 1
            i += 1
            continue
        out.append(char)
        i += 1
    short = re.sub(r" \[clone [^]]*\]|@@?[A-Z_]+[0-9.]*", "", "".join(out))
    return re.sub(r"( const| volatile| &| &&)+$", "", short).strip()


class Symbolizer:
    def __init__(self, maps, full_names):
        self.maps = maps
        self.starts = [m[0] for m in maps]
        self.full_names = full_names
        self.objects = {}
        self.cache = {}

    def object_info(self, path):
        if path not in self.objects:
            symbols = function_symbols(path) if os.path.exists(path) else []
            segments = load_segments(path) if symbols else []
            self.objects[path] = (segments, [a for a, _, _ in symbols],
                                  [(size, name) for _, size, name in symbols])
        return self.objects[path]

    def name(self, address):
        if address in self.cache:
            return self.cache[address]
        result = "[unknown]"
        i = bisect.bisect_right(self.starts, address) - 1
        if i >= 0 and address < self.maps[i][1]:
            start, _, offset, path = self.maps[i]
            if GLIBC.search(path):
                result = "[glibc]"
            elif SAMPLER.search(path):
                result = "[sampler]"
            else:
                result = "[" + os.path.basename(path) + "]"
                segments, addrs, names = self.object_info(path)
                file_offset = address - start + offset
                for seg_offset, seg_size, seg_vaddr in segments:
                    if seg_offset <= file_offset < seg_offset + seg_size:
                        vaddr = file_offset - seg_offset + seg_vaddr
                        k = bisect.bisect_right(addrs, vaddr) - 1
                        if k >= 0 and (names[k][0] == 0 or vaddr < addrs[k] + names[k][0]):
                            name = names[k][1]
                            result = name if self.full_names else short_name(name)
                        break
        self.cache[address] = result
        return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile")
    parser.add_argument("--top", type=int, default=40, help="rows to print (default 40)")
    parser.add_argument("--full-names", action="store_true",
                        help="keep parameter lists in function names")
    args = parser.parse_args()

    samples, maps = parse_profile(args.profile)
    if not samples:
        print("no samples in " + args.profile, file=sys.stderr)
        return 1
    symbolizer = Symbolizer(maps, args.full_names)
    inclusive, self_counts = Counter(), Counter()
    for frames in samples:
        # The innermost frames are the sampler's handler and glibc's signal
        # trampoline; the interrupted instruction comes next, then return
        # addresses, which point past their call: step back into it.
        i = 0
        while i < len(frames) and symbolizer.name(frames[i]) == "[sampler]":
            i += 1
        i += 1
        if i >= len(frames):
            continue
        names = [symbolizer.name(frames[i])] + [symbolizer.name(a - 1) for a in frames[i + 1:]]
        self_counts[names[0]] += 1
        # glibc counts inclusively only while it runs its own code, not as
        # the __libc_start_main under every stack.
        inclusive.update(set(name for k, name in enumerate(names)
                             if name != "[glibc]" or all(n == "[glibc]" for n in names[:k])))

    total = sum(self_counts.values())
    print(f"{total} samples")
    print(f"{'inclusive':>9} {'self':>7}  function")
    for name, count in inclusive.most_common(args.top):
        print(f"{100.0 * count / total:8.1f}% {100.0 * self_counts[name] / total:6.1f}%  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
