"""Brute-force CVE oracle, written independently of ``icsrecon.vulnmatch``.

It reads the shipped alias table as a plain file and implements the
documented match rules itself: vendor equality after case/space
folding and alias lookup, product as an alphanumeric-only substring of
the model, firmware inside ``[version_min, version_max)``. Versions are
plain dotted numbers (the generator guarantees it), compared with
missing segments as zero. Absent device fields leave their clause open.
"""

from __future__ import annotations

import json
import os
import re

ALIASES = os.path.join("src", "icsrecon", "data", "vendor_aliases.json")


def _fold(text: str) -> str:
    return " ".join(text.lower().split())


def _alnum(text: str) -> str:
    return re.sub(r"[^a-z0-9]", "", text.lower())


def _version(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split("."))


def _below(a: str, b: str) -> bool:
    ka, kb = _version(a), _version(b)
    width = max(len(ka), len(kb))
    return ka + (0,) * (width - len(ka)) < kb + (0,) * (width - len(kb))


def expected_matches(assets: dict[str, dict], records: list[dict]) -> dict[str, set[str]]:
    """ip -> CVE ids that apply, for every asset with a vendor or a model."""
    with open(ALIASES, "r", encoding="utf-8") as fh:
        aliases = {_fold(k): _fold(v) for k, v in json.load(fh).items()}

    def canonical(name: str) -> str:
        return aliases.get(_fold(name), _fold(name))

    by_vendor: dict[str, list[dict]] = {}
    products = {}
    for record in records:
        by_vendor.setdefault(canonical(record["vendor"]), []).append(record)
        products[record["cve_id"]] = _alnum(record["product"])
    out: dict[str, set[str]] = {}
    for ip, info in assets.items():
        if not (info["manufacturer"] or info["model"]):
            continue
        candidates = by_vendor.get(canonical(info["manufacturer"]), []) if info["manufacturer"] else records
        model = _alnum(info["model"]) if info["model"] is not None else None
        hits = set()
        for record in candidates:
            if model is not None:
                product = products[record["cve_id"]]
                if not product or product not in model:
                    continue
            firmware = info["firmware_version"]
            if firmware is not None:
                if record["version_min"] and _below(firmware, record["version_min"]):
                    continue
                if record["version_max"] and not _below(firmware, record["version_max"]):
                    continue
            hits.add(record["cve_id"])
        out[ip] = hits
    return out
