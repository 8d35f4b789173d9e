"""Hardware-address vendor lookup from a trimmed OUI snapshot.

The shipped table covers the vendors the simulator fixtures use plus a
few common ICS/IT makers; it is a static snapshot, not a live registry
mirror, which keeps the package self-contained and air-gap friendly.
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources


@lru_cache(maxsize=1)
def load_oui_table() -> dict[str, str]:
    with resources.files("icsrecon.data").joinpath("oui.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


def vendor_for_mac(mac: str | None) -> str | None:
    if not mac:
        return None
    prefix = mac.lower().replace("-", ":")[:8]
    return load_oui_table().get(prefix)


@lru_cache(maxsize=1)
def load_enip_vendors() -> dict[int, str]:
    with resources.files("icsrecon.data").joinpath("enip_vendors.json").open("r", encoding="utf-8") as fh:
        return {int(k): v for k, v in json.load(fh).items()}
