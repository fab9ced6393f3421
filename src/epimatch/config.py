"""Flat `key = value` config files with [section] headers, plus run manifests."""

from __future__ import annotations

import json
from pathlib import Path


def parse_config_file(path):
    """Parse into {'section.key': 'value'}; keys before any section header
    live in the '' section as plain 'key'."""
    values = {}
    section = ""
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            full = f"{section}.{key}" if section else key
            values[full] = val
    return values


def write_manifest(out_dir, command, resolved, version):
    """Persist everything needed to replay a run bit-identically."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": resolved,
        "version": version,
    }
    path = out_dir / "run_manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def read_manifest(path):
    with open(path) as fh:
        return json.load(fh)
