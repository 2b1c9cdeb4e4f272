"""Workload configuration: the one table the benchmark is driven from.

Each row names the workload class in :mod:`workloads`, its parameters
and the ``REPRO_*`` variables the program's constructors read. Options
are set through those variables, not constructor arguments, so a change
that removes an option by making one value the only behaviour leaves the
benchmark running. ``backend="compiled"`` is the exception: it is passed
explicitly, because ``REPRO_BACKEND=compiled`` silently resolves to
``numpy64`` when numba is missing.
"""

#: Pinned in every run: one thread for BLAS/OpenMP pools and for the
#: protocol's shard executors, a fixed hash seed.
COMMON_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "REPRO_SHARD_PROCS": "1",
    "REPRO_SHARD_THREADS": "1",
    "REPRO_CACHE": "1",
}

WORKLOADS = {
    "fd_tree_1m": {
        "class": "FdTree1M",
        "params": {"num_workers": 1_000_000, "cost_pool": 4},
        "env": {"REPRO_PEER_STORE": "1", "REPRO_PAIR_METRICS": "0"},
    },
    "fd_churn_epochs": {
        "class": "FdChurnEpochs",
        "params": {"num_workers": 128, "cost_pool": 16, "rounds_between": 3},
        "env": {"REPRO_PEER_STORE": "1", "REPRO_PAIR_METRICS": "0"},
    },
    "serving_fd_bursty": {
        "class": "ServingFdBursty",
        "params": {"num_workers": 32, "load": 0.85, "policy": "dolbie-fd"},
        "env": {"REPRO_PEER_STORE": "0", "REPRO_PAIR_METRICS": "1"},
    },
    "paper_fig4_sweep": {
        "class": "PaperFig4Sweep",
        "params": {"model": "ResNet18", "realizations": 100, "rounds": 100},
        "env": {"REPRO_PEER_STORE": "0", "REPRO_PAIR_METRICS": "1"},
    },
}
