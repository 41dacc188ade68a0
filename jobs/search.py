"""ANN search through the "lider" DataSource: an exact centroid scan
picks the clusters at plan time; their in-cluster retrievers run inside
the query's one partition;
Catalyst's sort-limit merges the per-cluster top-k.

    spark-submit jobs/search.py --index /tmp/lider_msl10k --dataset MSL-10k --query 7
"""
import argparse

from pyspark.sql import SparkSession

from repro.datasource import register_lider_source
from repro.datasource.lider_source import ann_search_df
from repro.embeddings.datasets import dev_queries, load_dataset


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--index", required=True)
    ap.add_argument("--dataset", default="MSL-10k")
    ap.add_argument("--query", type=int, default=0, help="dev query number")
    ap.add_argument("--k", type=int, default=10)
    args = ap.parse_args()

    spark = SparkSession.builder.appName("lider-search").getOrCreate()
    register_lider_source(spark)
    corpus = load_dataset(args.dataset)
    qs = dev_queries(corpus, args.query + 1)
    df = ann_search_df(spark, args.index, qs.emb[args.query], k=args.k)
    df.show(args.k, truncate=False)
    print(f"relevant passage id: {sorted(qs.relevant[args.query])}")
    spark.stop()


if __name__ == "__main__":
    main()
