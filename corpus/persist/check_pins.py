"""Checks persisted files against the FNV-1a 64 pins in this directory.

usage: python3 corpus/persist/check_pins.py KIND FILE [KIND FILE ...]

KIND names a line of fingerprints-seed7.txt (`trace`, `journal`, `breaker`). Exits
nonzero, naming each mismatch, when a file's fingerprint or size differs
from its pin.
"""

import pathlib
import sys

PINS = pathlib.Path(__file__).with_name("fingerprints-seed7.txt")


def fnv64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def main(args):
    pins = {}
    for line in PINS.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            kind, fp, size = line.split()
            pins[kind] = (fp, int(size))
    if not args or len(args) % 2:
        sys.exit(__doc__)
    bad = 0
    for kind, path in zip(args[::2], args[1::2]):
        data = pathlib.Path(path).read_bytes()
        got = (f"{fnv64(data):016x}", len(data))
        if got != pins[kind]:
            print(f"persist pins: {kind} {path}: pinned {pins[kind]}, got {got}", file=sys.stderr)
            bad += 1
        else:
            print(f"persist pins: {kind} matches {got[0]} ({got[1]} bytes)")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
