#!/usr/bin/env python3
"""Unit tests for check_quarantine.py (run: python3 scripts/test_check_quarantine.py)."""

import pathlib
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from check_quarantine import SUMS_FILE, SUMS_HEADER, fnv64  # noqa: E402

SCRIPT = pathlib.Path(__file__).resolve().parent / "check_quarantine.py"


def write_entry(root: pathlib.Path, name: str, files: dict[str, bytes]) -> pathlib.Path:
    """Writes a cache entry with a correct manifest, mirroring the store."""
    entry = root / name
    entry.mkdir(parents=True)
    lines = [SUMS_HEADER]
    for fname in sorted(files):
        data = files[fname]
        (entry / fname).write_bytes(data)
        lines.append(f"{fnv64(data):016x} {len(data)} {fname}")
    (entry / SUMS_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return entry


def run_on(root: pathlib.Path, *extra):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(root), *extra],
        capture_output=True,
        text=True,
        check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


class Fnv64Test(unittest.TestCase):
    def test_matches_the_rust_reference_vectors(self):
        # Offset basis for empty input, and the classic FNV test vector.
        self.assertEqual(fnv64(b""), 0xCBF29CE484222325)
        self.assertEqual(fnv64(b"a"), 0xAF63DC4C8601EC8C)
        self.assertEqual(fnv64(b"foobar"), 0x85944171F73967E8)


class CheckQuarantineTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def entry(self, name="0123456789abcdef", files=None, quarantined=False):
        files = files if files is not None else {"manifest.json": b'{"id":"E1"}\n'}
        base = self.root / ".quarantine" if quarantined else self.root
        return write_entry(base, name, files)

    def test_empty_cache_passes(self):
        code, out, _ = run_on(self.root)
        self.assertEqual(code, 0)
        self.assertIn("0 live, 0 quarantined", out)

    def test_clean_live_entries_pass(self):
        self.entry("aaaa", {"manifest.json": b"{}\n", "roofline.tsv": b"x\t1\n"})
        self.entry("bbbb", {"manifest.json": b"{}\n"})
        code, out, _ = run_on(self.root, "--verbose")
        self.assertEqual(code, 0)
        self.assertIn("2 live, 0 quarantined", out)
        self.assertIn("0 violation(s)", out)

    def test_torn_live_entry_fails(self):
        entry = self.entry(files={"manifest.json": b'{"id":"E1","rows":[1,2,3]}\n'})
        data = (entry / "manifest.json").read_bytes()
        (entry / "manifest.json").write_bytes(data[: len(data) // 2])
        code, out, _ = run_on(self.root)
        self.assertEqual(code, 1)
        self.assertIn("FAIL live entry", out)
        self.assertIn("manifest says", out)

    def test_flipped_bit_in_live_entry_fails(self):
        entry = self.entry()
        data = bytearray((entry / "manifest.json").read_bytes())
        data[0] ^= 0x40
        (entry / "manifest.json").write_bytes(bytes(data))
        code, out, _ = run_on(self.root)
        self.assertEqual(code, 1)
        self.assertIn("does not match manifest", out)

    def test_unlisted_file_in_live_entry_fails(self):
        entry = self.entry()
        (entry / "smuggled.txt").write_bytes(b"boo")
        code, out, _ = run_on(self.root)
        self.assertEqual(code, 1)
        self.assertIn("unlisted file", out)

    def test_stray_dot_file_is_ignored_but_a_listed_one_fails(self):
        # Mirrors the server: an unlisted dot-file is never served, so it
        # does not fail the entry; a listed one is not an artifact name.
        entry = self.entry()
        (entry / ".stray").write_bytes(b"boo")
        code, out, _ = run_on(self.root)
        self.assertEqual(code, 0)
        self.entry("eeee", {"manifest.json": b"{}\n", ".stray": b"boo"})
        code, out, _ = run_on(self.root)
        self.assertEqual(code, 1)
        self.assertIn("not an artifact file name", out)

    def test_non_utf8_listed_file_fails(self):
        self.entry(files={"manifest.json": b"\xff\xfe"})
        code, out, _ = run_on(self.root)
        self.assertEqual(code, 1)
        self.assertIn("not UTF-8", out)

    def test_missing_sums_in_live_entry_fails(self):
        entry = self.entry()
        (entry / SUMS_FILE).unlink()
        code, out, _ = run_on(self.root)
        self.assertEqual(code, 1)
        self.assertIn(f"unreadable {SUMS_FILE}", out)

    def test_quarantined_corruption_is_expected(self):
        # A quarantined entry carries its corruption plus reason.txt, so
        # verification must still fail — that is the point of the audit.
        entry = self.entry("cccc", quarantined=True)
        data = bytearray((entry / "manifest.json").read_bytes())
        data[0] ^= 0x40
        (entry / "manifest.json").write_bytes(bytes(data))
        (entry / "reason.txt").write_text("checksum mismatch", encoding="utf-8")
        code, out, _ = run_on(self.root)
        self.assertEqual(code, 0)
        self.assertIn("1 quarantined", out)

    def test_clean_quarantined_entry_fails_the_audit(self):
        # If a quarantined entry verifies clean, the server threw away a
        # good result — the audit must flag it.
        self.entry("dddd", quarantined=True)
        code, out, _ = run_on(self.root)
        self.assertEqual(code, 1)
        self.assertIn("wrongly quarantined", out)

    def test_scratch_and_dot_dirs_are_ignored(self):
        self.entry()
        (self.root / ".staging").mkdir()
        (self.root / ".tmp-1234").mkdir()
        (self.root / ".tmp-1234" / "partial").write_bytes(b"half")
        code, out, _ = run_on(self.root)
        self.assertEqual(code, 0)
        self.assertIn("1 live", out)

    def test_missing_root_is_usage_error(self):
        code, _, err = run_on(self.root / "nope")
        self.assertEqual(code, 2)
        self.assertIn("not a directory", err)


if __name__ == "__main__":
    unittest.main()
