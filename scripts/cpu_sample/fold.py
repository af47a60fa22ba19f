#!/usr/bin/env python3
"""Symbolizes and folds a sampler.c profile.

    python3 fold.py prof.txt [--top 40] [--inclusive REGEX ...] [--folded]

Addresses are symbolized with addr2line (binutils), one batch per module.
Each sample is attributed to its *owner*: the leaf frame when it is in the
main executable, otherwise the first executable frame above it, so time
spent in libc/libstdc++/libpthread (mutexes, malloc, futexes) is charged to
the engine function that called in. Prints owner self time, the library
leaf behind each owner, and — for each --inclusive regex — the share of
samples with a matching function anywhere on the stack. --folded prints
flamegraph-style folded stacks instead.
"""
import argparse
import bisect
import collections
import os
import re
import struct
import subprocess
import sys

HANDLER_MODULE = "libcpusample"


def load_segments(path, cache={}):
    """PT_LOAD (offset, vaddr, filesz) triples of an ELF64 file."""
    if path not in cache:
        segs = []
        try:
            with open(path, "rb") as f:
                ident = f.read(64)
                if ident[:4] == b"\x7fELF" and ident[4] == 2:
                    phoff, = struct.unpack_from("<Q", ident, 32)
                    phentsize, phnum = struct.unpack_from("<HH", ident, 54)
                    f.seek(phoff)
                    table = f.read(phentsize * phnum)
                    for i in range(phnum):
                        p_type, _, p_offset, p_vaddr, _, p_filesz = \
                            struct.unpack_from("<IIQQQQ", table, i * phentsize)
                        if p_type == 1:
                            segs.append((p_offset, p_vaddr, p_filesz))
        except OSError:
            pass
        cache[path] = segs
    return cache[path]


def parse(path):
    samples, maps = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("s"):
                samples.append([int(a, 16) for a in line.split()[1:]])
            elif line.startswith("m "):
                parts = line[2:].split(None, 5)
                if len(parts) == 6 and "x" in parts[1] and parts[5].startswith("/"):
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), parts[5].strip()))
    maps.sort()
    return samples, maps


def locate(maps, starts, addr):
    i = bisect.bisect_right(starts, addr) - 1
    if i < 0 or addr >= maps[i][1]:
        return None, 0
    lo, _, off, path = maps[i]
    file_off = addr - lo + off
    for p_offset, p_vaddr, p_filesz in load_segments(path):
        if p_offset <= file_off < p_offset + p_filesz:
            return path, file_off - p_offset + p_vaddr
    return path, file_off


def symbolize(wanted):
    names = {}
    for path, vaddrs in wanted.items():
        vaddrs = sorted(vaddrs)
        out = subprocess.run(
            ["addr2line", "-f", "-C", "-e", path],
            input="\n".join(hex(v) for v in vaddrs), capture_output=True,
            text=True).stdout.splitlines()
        for k, v in enumerate(vaddrs):
            fn = out[2 * k] if 2 * k < len(out) else "??"
            names[(path, v)] = fn if fn != "??" else \
                "%s+%#x" % (os.path.basename(path), v)
    return names


def short(fn):
    fn = re.sub(r"\(.*", "", fn)          # drop the argument list
    return re.sub(r"^bullfrog::", "", fn)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--inclusive", action="append", default=[])
    ap.add_argument("--folded", action="store_true")
    args = ap.parse_args()

    samples, maps = parse(args.profile)
    starts = [m[0] for m in maps]
    stacks, wanted = [], collections.defaultdict(set)
    for pcs in samples:
        frames = [locate(maps, starts, pc) for pc in pcs]
        # Drop the handler's own frames and the signal trampoline.
        k = 0
        while k < len(frames) and HANDLER_MODULE in (frames[k][0] or ""):
            k += 1
        frames = frames[k + 1:]
        fixed = []
        for depth, (path, v) in enumerate(frames):
            if path is None:
                continue
            v = v if depth == 0 else v - 1  # return address -> call site
            fixed.append((path, v))
            wanted[path].add(v)
        stacks.append(fixed)
    names = symbolize(wanted)
    libs = {p for p in wanted if ".so" in os.path.basename(p)}

    total = len(stacks)
    print("# %d samples" % total)
    if total == 0:
        return 1
    if args.folded:
        folded = collections.Counter(
            ";".join(short(names[f]) for f in reversed(st)) for st in stacks)
        for stack, n in folded.most_common():
            print(stack, n)
        return
    owner, behind = collections.Counter(), collections.Counter()
    inclusive = collections.Counter()
    for st in stacks:
        if not st:
            continue
        leaf = short(names[st[0]])
        own = next((short(names[f]) for f in st if f[0] not in libs), leaf)
        owner[own] += 1
        if st[0][0] in libs:
            behind[(own, leaf)] += 1
        seen = {short(names[f]) for f in st}
        for rx in args.inclusive:
            if any(re.search(rx, fn) for fn in seen):
                inclusive[rx] += 1
    print("\n## owner self time (library time charged to the caller)")
    for fn, n in owner.most_common(args.top):
        print("%6.2f%%  %6d  %s" % (100.0 * n / total, n, fn))
    print("\n## library leaves behind their owners")
    for (own, leaf), n in behind.most_common(args.top):
        print("%6.2f%%  %6d  %s <- %s" % (100.0 * n / total, n, own, leaf))
    if args.inclusive:
        print("\n## inclusive (anywhere on the stack)")
        for rx in args.inclusive:
            print("%6.2f%%  %6d  %s" % (100.0 * inclusive[rx] / total,
                                         inclusive[rx], rx))


if __name__ == "__main__":
    sys.exit(main())
