package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.functions._
import repro.core.PassBuilder._

/** The full-data passes that `PassBuilder.leafPasses` replaced, kept as the
  * reference it is checked against: a boxed `Seq[Double]` UDF over
  * `array(predCols)` adds the leaf id, the result is persisted, and the
  * `groupBy` aggregate and the `sampleBy` sample both read the cached copy.
  */
object LegacyPasses {

  def run(p: Prepared, predCols: Seq[String], aggCol: String, sk: Skeleton,
          alloc: Allocation, seed: Long): (Map[Int, LeafStat], Array[Row]) = {
    val assign    = sk.assign
    val assignUdf = udf((xs: Seq[Double]) => assign(xs.toArray))
    val withLeaf = p.projected
      .withColumn("__leaf", assignUdf(array(predCols.map(col): _*)))
      .persist()
    try {
      val stats = withLeaf
        .groupBy("__leaf")
        .agg(
          count(col(aggCol)).as("cnt"),
          sum(col(aggCol)).as("sm"),
          min(col(aggCol)).as("mn"),
          max(col(aggCol)).as("mx"),
        )
        .collect()
        .map(r => r.getAs[Int]("__leaf") ->
          (r.getAs[Long]("cnt"), r.getAs[Double]("sm"), r.getAs[Double]("mn"), r.getAs[Double]("mx")))
        .toMap
      val leaves = sk.leaves
      val counts = leaves.map(l => stats.get(l.leafId).fold(0L)(_._1))
      val targets: Map[Int, Long] = alloc match {
        case PerLeaf(n)     => leaves.map(l => l.leafId -> n.toLong).toMap
        case TotalBudget(t) => leaves.map(l => l.leafId -> math.max(1L, t / leaves.length)).toMap
        case Rate(r)        => leaves.map(l => l.leafId -> math.max(1L, math.round(r * counts(l.leafId)))).toMap
      }
      val fractions: Map[Int, Double] = leaves.map { l =>
        val ni = counts(l.leafId)
        l.leafId -> (if (ni == 0) 0.0 else math.min(1.0, targets(l.leafId).toDouble / ni))
      }.toMap
      (stats, withLeaf.stat.sampleBy("__leaf", fractions, seed + 1).collect())
    } finally withLeaf.unpersist()
  }
}
