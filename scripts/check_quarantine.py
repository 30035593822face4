#!/usr/bin/env python3
"""Audit a roofd disk-cache directory's checksum integrity.

Usage: check_quarantine.py <cache-root> [--verbose]

Independently re-implements the service's `.sums` manifest verification
(flat undotted names, FNV-1a 64 over raw bytes, exact length match,
UTF-8 text, no unlisted artifacts; unlisted dot-files are ignored, as
the server never serves them) so
CI can prove two things with code that shares nothing with the Rust
implementation:

  * every live entry under <cache-root> verifies clean — the server
    would serve it, and it is what was written;
  * every entry under <cache-root>/.quarantine still FAILS verification
    — nothing quarantined could ever have been served, and the
    quarantine holds only genuine corruption.

A live entry that fails, or a quarantined entry that verifies clean,
is a bug in the crash-safety layer and fails the job.

Exit status: 0 ok, 1 integrity violation, 2 usage/missing directory.
"""

import os
import sys

SUMS_FILE = ".sums"
SUMS_HEADER = "roofd-sums v1"
QUARANTINE_DIR = ".quarantine"
MASK = 0xFFFFFFFFFFFFFFFF


def fnv64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & MASK
    return h


def verify_entry(entry: str) -> str | None:
    """Returns None when the entry verifies clean, else the first reason."""
    sums_path = os.path.join(entry, SUMS_FILE)
    try:
        with open(sums_path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return f"unreadable {SUMS_FILE}: {e}"
    if not lines or lines[0] != SUMS_HEADER:
        return f"bad {SUMS_FILE} header"
    listed = set()
    for line in lines[1:]:
        parts = line.split(" ", 2)
        if len(parts) != 3 or not parts[2]:
            return f"malformed {SUMS_FILE} line `{line}`"
        want_hash, want_len, name = parts
        try:
            want_len = int(want_len)
        except ValueError:
            return f"malformed length in {SUMS_FILE} line `{line}`"
        if name.startswith(".") or "/" in name:
            return f"listed name `{name}` is not an artifact file name"
        try:
            with open(os.path.join(entry, name), "rb") as f:
                data = f.read()
        except OSError as e:
            return f"listed file `{name}` unreadable: {e}"
        if len(data) != want_len:
            return f"`{name}` is {len(data)} bytes, manifest says {want_len}"
        got = f"{fnv64(data):016x}"
        if got != want_hash:
            return f"`{name}` checksum {got} does not match manifest {want_hash}"
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return f"`{name}` is not UTF-8 text"
        listed.add(name)
    for name in os.listdir(entry):
        if name == SUMS_FILE or name.startswith("."):
            continue
        if os.path.isdir(os.path.join(entry, name)):
            continue
        if name not in listed:
            return f"unlisted file `{name}` present in entry"
    return None


def entry_dirs(root: str) -> list[str]:
    if not os.path.isdir(root):
        return []
    return sorted(
        os.path.join(root, name)
        for name in os.listdir(root)
        if not name.startswith(".") and os.path.isdir(os.path.join(root, name))
    )


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--verbose"]
    verbose = "--verbose" in sys.argv[1:]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = args[0]
    if not os.path.isdir(root):
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2

    violations = 0
    live = entry_dirs(root)
    for entry in live:
        reason = verify_entry(entry)
        if reason is not None:
            print(f"FAIL live entry {entry}: {reason}")
            violations += 1
        elif verbose:
            print(f"ok   live entry {entry}")

    quarantined = entry_dirs(os.path.join(root, QUARANTINE_DIR))
    for entry in quarantined:
        reason = verify_entry(entry)
        if reason is None:
            print(f"FAIL quarantined entry {entry}: verifies clean — wrongly quarantined")
            violations += 1
        elif verbose:
            print(f"ok   quarantined entry {entry}: stays unservable ({reason})")

    print(
        f"checked {len(live)} live, {len(quarantined)} quarantined entries: "
        f"{violations} violation(s)"
    )
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
