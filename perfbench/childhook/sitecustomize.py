"""Layer spans inside the shard subprocesses of a traced pass.

``run.py`` puts this directory on ``PYTHONPATH`` only while a traced
pass runs, with ``PERFBENCH_LAYER_DIR`` naming where each shard child
writes its span totals when it exits.  Without that variable the
module does nothing.
"""

import os

_OUT = os.environ.get("PERFBENCH_LAYER_DIR")
if _OUT:
    import atexit
    import json
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from layers import LayerTracer, install

    _TRACER = LayerTracer()
    install(_TRACER)

    def _dump() -> None:
        path = Path(_OUT) / f"shard-{os.getpid()}.json"
        path.write_text(json.dumps(_TRACER.snapshot()), encoding="utf-8")

    atexit.register(_dump)
