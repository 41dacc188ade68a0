"""Build a LIDER index with ``build_lider_spark`` (Spark k-means, then the
in-cluster retrievers on the driver) and persist it as the "lider"
DataSource layout: a versioned meta.json beside the centroids and LIDER's
stacked arrays, the corpus included, as .npy.

    spark-submit jobs/build_index.py --dataset MSL-10k --out /tmp/lider_msl10k
"""
import argparse

from pyspark.sql import SparkSession

from repro.core.lider import LIDERConfig
from repro.core.spark_build import build_lider_spark
from repro.datasource import save_lider_index
from repro.embeddings.datasets import load_dataset


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="MSL-10k")
    ap.add_argument("--out", required=True)
    ap.add_argument("--clusters", type=int, default=None)
    args = ap.parse_args()

    spark = SparkSession.builder.appName("lider-build").getOrCreate()
    corpus = load_dataset(args.dataset)
    cfg = LIDERConfig(c=args.clusters)
    lider = build_lider_spark(spark, corpus.emb, config=cfg)
    save_lider_index(lider, args.out)
    print(f"built LIDER over {corpus.n} embeddings -> {args.out}")
    print(f"clusters={lider.centroids.shape[0]} "
          f"index_bytes={lider.memory_footprint()}")
    spark.stop()


if __name__ == "__main__":
    main()
