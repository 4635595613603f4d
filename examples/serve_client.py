"""Random-access archive serving over HTTP (`sage serve`).

Starts an in-process :class:`ArchiveServer` on a loopback port, then
walks the whole API surface from the client side: listing, per-block
inspection with decoded-size estimates, random block and read-range
fetches, a streaming analysis POST, and — the point of the server — a
burst of clients hammering one block to show the response cache and
request coalescing collapsing the work to a single decode.

Run:  python examples/serve_client.py
"""

import tempfile
import threading
from pathlib import Path

from repro import EngineOptions, SAGeDataset
from repro.genomics import datasets
from repro.serve import ArchiveServer, ServeClient


def build_archive(directory: Path) -> Path:
    sim = datasets.generate("RS2", base_genome=8_000)
    path = directory / "rs2.sage"
    SAGeDataset.from_fastq(
        sim.read_set, reference=sim.reference,
        options=EngineOptions(block_reads=64)).save(path)
    return path


def burst(server: ArchiveServer, n_clients: int, block: int) -> None:
    """Hit one block from many clients at the same instant."""
    barrier = threading.Barrier(n_clients)

    def worker() -> None:
        with ServeClient(server.host, server.port) as client:
            barrier.wait(timeout=10)
            client.get_text(f"/block/{block}")

    threads = [threading.Thread(target=worker) for _ in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        archive_path = build_archive(Path(tmp))
        with ArchiveServer([str(archive_path)], port=0) as server:
            port = server.start()
            print(f"serving on http://{server.host}:{port}")
            with ServeClient(server.host, port) as client:
                info = client.get_json("/archives")["archives"][0]
                print(f"archive {info['name']!r}: {info['n_reads']} reads "
                      f"in {info['n_blocks']} blocks "
                      f"(v{info['format_version']})")

                inspect = client.get_json("/inspect")
                total_mb = inspect["decoded_nbytes_estimate_total"] / 2**20
                print(f"decoded working set estimate: {total_mb:.2f} MiB")

                block = client.get_json("/block/1?format=json")
                first = block["reads"][0]
                print(f"block 1 starts at read {block['first_read']}: "
                      f"{first['sequence'][:40]}...")

                # A global read range, independent of block boundaries.
                reads = client.get_text("/reads/100-105")
                print(f"/reads/100-105 -> {reads.count(chr(10)) // 4} "
                      f"FASTQ records")

                status, analysis = client.post_json(
                    "/analyze", {"sinks": ["mapping-rate"],
                                 "options": {"workers": 2}})
                rate = analysis["results"]["mapping-rate"]
                print(f"mapping rate {rate['mapping_rate']:.1%} over "
                      f"{analysis['stream']['blocks']} blocks "
                      f"(HTTP {status})")

                # The headline behavior: 16 simultaneous clients ask for
                # the same cold block; the server performs one decode.
                client.post_json("/cache/clear", {})
                before = client.get_json("/stats")
                burst(server, n_clients=16, block=2)
                after = client.get_json("/stats")
            print(f"16-client burst on one cold block: "
                  f"{after['decodes'] - before['decodes']} decode(s), "
                  f"{after['coalesced'] - before['coalesced']} requests "
                  f"coalesced")

        final = server.final_stats
        print(f"served {final['requests']} requests, "
              f"{final['errors']} errors")


if __name__ == "__main__":
    main()
