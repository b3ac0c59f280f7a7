"""Check `lash index info` output read from stdin: every store file it
lists is format version 3, and its printed section sizes add up to the
file's bytes less the header and the checksum block.

    python -m repro.cli index info --store S | python check_store_info.py
"""

import sys

from repro.serve.format import CHECKSUMS_STRUCT, HEADER_SIZE, VERSION


def cells(line: str) -> dict[str, str]:
    return dict(cell.split("=", 1) for cell in line.split() if "=" in cell)


def main() -> int:
    lines = sys.stdin.read().splitlines()
    sys.stdout.write("\n".join(lines) + "\n")
    files = 0
    for row, following in zip(lines, lines[1:]):
        info = cells(row)
        if "version" not in info:
            continue  # the sharded aggregate row
        files += 1
        if info["version"] != str(VERSION):
            print(f"error: {info['path']} is version {info['version']}")
            return 1
        if not following.lstrip().startswith("sections"):
            print(f"error: no sections line after {info['path']}")
            return 1
        sections = sum(int(size) for size in cells(following).values())
        expected = (
            int(info["file_bytes"]) - HEADER_SIZE - CHECKSUMS_STRUCT.size
        )
        if sections != expected:
            print(
                f"error: {info['path']}: sections sum to {sections}, "
                f"expected {expected}"
            )
            return 1
    if not files:
        print("error: no store file listed")
        return 1
    print(f"ok: {files} store files, version {VERSION}, sections add up")
    return 0


if __name__ == "__main__":
    sys.exit(main())
