"""repro.serve — concurrent random-access archive service.

The served counterpart of the block-indexed container: an asyncio HTTP
front end over one or more :class:`~repro.api.SAGeDataset` sessions,
with a decoded-block LRU cache and single-flight request coalescing so
many concurrent readers share each numpy decode (paper Fig. 15's
many-readers scenario, in software).

    from repro.serve import ArchiveServer

    with ArchiveServer(["reads.sage"], port=0) as server:
        port = server.start()
        ...  # GET /archives /inspect /block/{i} /reads/{a}-{b} /stats

See the README "Serving: sage serve" section for the endpoint table.
"""

from .client import ServeClient
from .http import HTTPError, Request, Response
from .server import DEFAULT_CACHE_BYTES, ArchiveServer
from .stats import LatencyWindow, ServerStats

__all__ = ["ArchiveServer", "DEFAULT_CACHE_BYTES", "HTTPError",
           "LatencyWindow", "Request", "Response", "ServeClient",
           "ServerStats"]
