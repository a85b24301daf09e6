"""What crosses the wire when an engine batch runs off-process.

The analysis service (:mod:`repro.service`, engine ``mode="service"``)
is the engine's one distributed backend.  This package holds the two
pieces of it that belong to the engine layer:

* :mod:`~repro.engine.remote.wire` — the versioned JSON envelopes
  (base64 pickles inside) that carry jobs, results and service control
  documents, with cache-key passthrough so workers dedupe against a
  shared disk :class:`~repro.engine.cache.ResultCache`;
* :mod:`~repro.engine.remote.worker` — the per-job execution path every
  pull worker runs (:func:`execute_wire_job`).

Running a batch on other machines takes three commands (swap loopback
for real addresses to span hosts — on trusted networks only, the
protocol is unauthenticated pickle)::

    repro serve --port 8751
    repro worker --coordinator http://127.0.0.1:8751   # one per host/core
    repro matrix --coordinator http://127.0.0.1:8751
"""

from repro.engine.remote.wire import PROTOCOL_VERSION, WireJob, WireResult
from repro.engine.remote.worker import execute_wire_job

__all__ = [
    "PROTOCOL_VERSION",
    "WireJob",
    "WireResult",
    "execute_wire_job",
]
