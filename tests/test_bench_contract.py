"""The benchmark's span tracer (bench/spans.py) finds its targets by name.

`traced()` skips a name that tilediff no longer defines, and the metrics
that read its spans then report 0 without failing anything. This test
makes such a rename fail here instead.
"""

import os
import sys

# bench/ is a package at the repository root
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from bench import spans

# deleted from tilediff; their spans leave the table with the next change
# to the benchmark. Until then linops.pinv_scaled.us reads 0, and so does
# imagecore.save_s, which read 0 already: run_job writes its output
# through pnm_writer, not save_image. sampler.project.us still reads the
# ddnm_plus_project span, which now makes the clean projection itself
_GONE = {("tilediff.linops", "LinearOperator.pinv_scaled"),
         ("tilediff.cli", "save_image"),
         ("tilediff.sampler", "ddnm_project")}


def test_every_traced_name_resolves():
    table = spans._patch_table(spans.Tracer())
    entries = {(module, path, name) for module, path, name, _ in table}
    missing = set()
    for module, path, name, _ in table:
        *outer, attr = path.split(".")
        owner = module
        for part in outer:
            owner = getattr(owner, part, None)
        # looked up as traced() does: through __dict__, not inheritance
        if getattr(owner, "__dict__", {}).get(attr) is not None:
            continue
        # a subclass slot for an override tilediff does not define: the
        # inherited method is traced under the same span name in its class
        base = next((cls for cls in getattr(owner, "__mro__", ())[1:]
                     if attr in cls.__dict__), None)
        if base is not None and \
                (module, f"{base.__name__}.{attr}", name) in entries:
            continue
        missing.add((module.__name__, path))
    assert missing <= _GONE, sorted(missing - _GONE)
