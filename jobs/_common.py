"""Shared plumbing for the experiment jobs.

Every job reproduces one table/figure of the paper's §6 (DESIGN.md §4
maps them) and runs as plain ``python jobs/<name>.py``. Jobs print the
result table to stdout and write a CSV under ``results/`` so
EXPERIMENTS.md can quote them. Only ``t01`` starts Spark, to check
|V|/|E| on the distributed graph; ``get_spark`` builds its session with
the Arrow and broadcast-join settings of conftest.py.
"""
from __future__ import annotations

import os
import pathlib

import pandas as pd

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def get_spark():
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("repro-job")
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .getOrCreate()
    )


def emit(name: str, df: pd.DataFrame) -> pd.DataFrame:
    """Print a job's result table and persist it to results/<name>.csv."""
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{name}.csv"
    df.to_csv(out, index=False)
    print(f"\n== {name} ==")
    print(df.to_string(index=False))
    print(f"[saved {out}]")
    return df
