"""repro.serve — concurrent random-access archive service.

The served counterpart of the block-indexed container: an asyncio HTTP
front end over one or more :class:`~repro.api.SAGeDataset` sessions,
with an LRU cache of the rendered block bodies it sends and request
coalescing so many concurrent readers share each decode (paper
Fig. 15's many-readers scenario, in software).  It answers through the
engine: a block is decoded and rendered by the executor's per-block
decode (so its FASTQ is ``sage decompress``'s), ``/inspect`` is
:func:`~repro.api.describe` (``sage inspect --json``) plus the served
``archive`` and ``path``, and ``/analyze`` reports its pass with
:func:`~repro.api.stream_info`, as ``sage analyze --json`` does.

    from repro.serve import ArchiveServer

    with ArchiveServer(["reads.sage"], port=0) as server:
        port = server.start()
        ...  # GET /archives /inspect /block/{i} /reads/{a}-{b} /stats
             # POST /analyze /cache/clear

See the README "Serving: sage serve" section for the endpoint table.
"""

from .client import ServeClient
from .http import HTTPError, Request, Response
from .server import DEFAULT_CACHE_BYTES, ArchiveServer
from .stats import LatencyWindow, ServerStats

__all__ = ["ArchiveServer", "DEFAULT_CACHE_BYTES", "HTTPError",
           "LatencyWindow", "Request", "Response", "ServeClient",
           "ServerStats"]
