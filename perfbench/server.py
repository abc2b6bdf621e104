"""Server launcher of the TCP benchmark: one quantum-database server process.

Runs the library defaults (``QuantumConfig()``) behind the network server,
with the segmented durability engine, ``fsync=True`` and no fsync window,
and a record-count checkpoint policy.  A fresh start loads the flight store
and writes it to the segment directory; ``--recover`` rebuilds the store
from that directory (``repro.storage.recover``) and re-admits the pending
transactions (``QuantumDatabase.recover``), timing both.

Once listening it prints one JSON line on stdout with its port and those
timings.  With ``--trace PATH``, SIGUSR2 patches the span recorders of
``spans.py`` onto the layers and SIGUSR1 writes the spans to PATH.

Run from the repository root::

    python3 perfbench/server.py --dir .perfbench_run/segments --flights 4 --rows 40
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from repro import QuantumConfig, QuantumDatabase  # noqa: E402
from repro.core.recovery import PendingTransactionStore  # noqa: E402
from repro.relational.database import Database  # noqa: E402
from repro.server import (  # noqa: E402
    CheckpointPolicy,
    NetConfig,
    NetworkServer,
    ServerConfig,
)
from repro.storage import DurabilityConfig, recover  # noqa: E402
from repro.workloads.flights import (  # noqa: E402
    FlightDatabaseSpec,
    build_flight_database,
    create_flight_tables,
)

import spans  # noqa: E402

#: ``CheckpointPolicy.max_wal_records``: delta checkpoints and compaction run
#: several times per run.
CHECKPOINT_RECORDS = 400


def schema() -> Database:
    """Empty flight schema plus the pending-transactions table."""
    database = Database()
    create_flight_tables(database)
    PendingTransactionStore(database)
    return database


async def serve(args: argparse.Namespace) -> None:
    durability = DurabilityConfig(mode="segmented", directory=args.dir, fsync=True)
    timings = {}
    if args.recover:
        started = time.perf_counter()
        database = recover(args.dir, schema, durability)
        timings["recovery_storage_s"] = time.perf_counter() - started
        started = time.perf_counter()
        qdb = QuantumDatabase.recover(database, QuantumConfig())
        timings["recovery_readmit_s"] = time.perf_counter() - started
    else:
        spec = FlightDatabaseSpec(num_flights=args.flights, rows_per_flight=args.rows)
        qdb = QuantumDatabase(build_flight_database(spec), QuantumConfig())
    config = ServerConfig(
        durability=durability,
        checkpoint_policy=CheckpointPolicy(max_wal_records=CHECKPOINT_RECORDS),
    )
    net = await NetworkServer(qdb, NetConfig(), server_config=config).start()

    loop = asyncio.get_running_loop()
    if args.trace:
        recorder = spans.Recorder()
        loop.add_signal_handler(signal.SIGUSR2, spans.install, recorder)
        loop.add_signal_handler(signal.SIGUSR1, recorder.dump, args.trace)
        sampler = loop.create_task(sample_partitions(qdb, recorder))  # noqa: F841
    print(json.dumps({"port": net.port, **timings}), flush=True)
    await asyncio.Event().wait()  # serve until killed


async def sample_partitions(qdb: QuantumDatabase, recorder: spans.Recorder) -> None:
    """Record the pending-transaction count of every live partition, 4x a second."""
    while True:
        sizes = [len(partition) for partition in qdb.state.partitions]
        recorder.samples.append((time.perf_counter_ns(), sizes))
        await asyncio.sleep(0.25)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True, help="segment directory")
    parser.add_argument("--flights", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True, help="seat rows per flight")
    parser.add_argument("--recover", action="store_true")
    parser.add_argument("--trace", default=None, help="span dump path")
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
