package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType

/** Builds a [[PassSynopsis]] from a DataFrame with Spark doing all full-data
  * passes, per the construction pipeline of Sec 3.2/4:
  *
  *  1. one pass for cardinality and per-column extrema,
  *  2. a small uniform *optimization sample* collected to the driver, over
  *     which the partitioning optimizer (ADP / equal-depth / kd) runs,
  *  3. one `groupBy(leafId).agg(sum,count,min,max)` shuffle for the exact
  *     partition aggregates,
  *  4. one `stat.sampleBy(leafId, fractions)` pass for the per-leaf stratified
  *     samples.
  *
  * The leaf-id assignment is a deterministic UDF over the predicate columns
  * (broadcast cut table / kd skeleton).
  */
object PassBuilder {

  /** Which partitioning optimizer shapes the leaves. */
  sealed trait Partitioner extends Product with Serializable
  /** The paper's ADP (sampling + discretization DP) in one dimension. */
  final case class Adp1D(k: Int, agg: Agg = Agg.Sum, deltaM: Int = 0) extends Partitioner
  /** Equal-depth strata (the EQ baseline; optimal for COUNT). */
  final case class EqualDepth1D(k: Int) extends Partitioner
  /** Externally supplied interior cut points (e.g. AQP++ hill climbing). */
  final case class Cuts1D(cuts: Array[Double]) extends Partitioner
  /** KD-PASS greedy max-variance expansion for d > 1. */
  final case class KdGreedy(k: Int, agg: Agg = Agg.Sum, maxDepthSkew: Int = 2) extends Partitioner
  /** Balanced kd expansion (the KD-US baseline's partitioning). */
  final case class KdBalanced(k: Int) extends Partitioner

  /** How many stratified samples each leaf receives. */
  sealed trait Allocation extends Product with Serializable
  /** ESS-style: a fixed count per leaf (the per-query processed-tuple control). */
  final case class PerLeaf(n: Int) extends Allocation
  /** BSS-style: a total budget split equally across leaves. */
  final case class TotalBudget(total: Long) extends Allocation
  /** Proportional: uniform within-stratum sampling rate. */
  final case class Rate(rate: Double) extends Allocation

  /** Construction output plus cost accounting for the paper's tables. */
  final case class BuildResult(
      synopsis: PassSynopsis,
      buildMillis: Long,
      optSampleSize: Int,
      partitioningValue: Double,
  )

  private[repro] final case class Prepared(
      projected: DataFrame,
      totalRows: Long,
      dataRect: Rect,
  )

  /** Casts the relevant columns to double and computes N and the per-dimension
    * data bounding box (hi edges nudged up so the box is half-open-inclusive).
    */
  private[repro] def prepare(df: DataFrame, predCols: Seq[String], aggCol: String): Prepared = {
    val cols      = (predCols :+ aggCol).map(c => col(c).cast(DoubleType).as(c))
    val projected = df.select(cols: _*)
    val aggs = predCols.flatMap(c => Seq(min(col(c)).as(s"min_$c"), max(col(c)).as(s"max_$c"))) :+
      count(lit(1)).as("n")
    val row = projected.agg(aggs.head, aggs.tail: _*).collect()(0)
    val n   = row.getAs[Long]("n")
    val lo  = predCols.map(c => row.getAs[Double](s"min_$c")).toArray
    val hi  = predCols.map(c => Math.nextUp(row.getAs[Double](s"max_$c"))).toArray
    Prepared(projected, n, Rect(lo, hi))
  }

  /** Collects a uniform optimization sample of ~`target` rows to the driver.
    * Oversampled collections are thinned by stride, not prefix — collect order
    * follows the data order, so `take(target)` would drop the range's tail and
    * bias every downstream cut.
    */
  private[repro] def optSample(p: Prepared, target: Int, seed: Long): Array[Row] = {
    val frac = if (p.totalRows == 0) 1.0 else math.min(1.0, target * 1.2 / p.totalRows)
    val rows = p.projected.sample(withReplacement = false, frac, seed).collect()
    if (rows.length <= target) rows
    else {
      val step = rows.length.toDouble / target
      Array.tabulate(target)(i => rows((i * step).toInt))
    }
  }

  /** Interior cuts -> leaf rectangles clamped to the data bounding box. */
  private[repro] def leafRects1D(cuts: Array[Double], dataRect: Rect): Array[Rect] = {
    val edges = dataRect.lo(0) +: cuts :+ dataRect.hi(0)
    Array.tabulate(cuts.length + 1)(j => Rect.range(edges(j), edges(j + 1)))
  }

  /** leaf id = number of cuts <= x (binary search over the broadcast cut table). */
  private[repro] def cutAssigner(cuts: Array[Double]): Array[Double] => Int = { x =>
    var lo = 0; var hi = cuts.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (cuts(mid) <= x(0)) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Groups collected sample rows (the `d` predicate columns, the aggregate
    * column, then the leaf id) into one [[LeafSample]] per leaf id in
    * `[0, leafCount)`: a counting pass sizes each leaf's column buffers, a
    * second pass fills them, and `LeafSample` sorts each leaf on column 0.
    */
  private[core] def leafSamples(rows: Array[Row], d: Int, leafCount: Int): Array[LeafSample] = {
    val sizes = new Array[Int](leafCount)
    for (r <- rows) sizes(r.getInt(d + 1)) += 1
    val cols   = Array.tabulate(leafCount)(id => Array.ofDim[Double](d, sizes(id)))
    val values = Array.tabulate(leafCount)(id => new Array[Double](sizes(id)))
    val next   = new Array[Int](leafCount)
    for (r <- rows) {
      val id = r.getInt(d + 1)
      val i  = next(id)
      var j  = 0
      while (j < d) { cols(id)(j)(i) = r.getDouble(j); j += 1 }
      values(id)(i) = r.getDouble(d)
      next(id) = i + 1
    }
    Array.tabulate(leafCount)(id => LeafSample(cols(id), values(id)))
  }

  /** A partitioner's output before any data pass: the unpopulated tree and
    * its leaves by leaf id, the leaf-assignment function the Spark passes
    * broadcast, and the optimizer's objective (NaN where none is computed).
    */
  private final case class Skeleton(
      root: TreeNode, leaves: Array[TreeNode], assign: Array[Double] => Int, value: Double)

  /** Runs the partitioning optimizer over the collected optimization sample. */
  private def skeleton(partitioner: Partitioner, sampleRows: Array[Row], d: Int, dataRect: Rect): Skeleton = {
    def points = sampleRows.map(r => Array.tabulate(d)(r.getDouble))
    def values = sampleRows.map(_.getDouble(d))
    def kd(built: KdTree.Built): Skeleton = {
      val (root, leaves) = built.toTreeNodes
      Skeleton(root, leaves, built.assign _, Double.NaN)
    }
    lazy val sorted = SortedSample1D(sampleRows.map(_.getDouble(0)), values)
    def oneD(part: Dp1D.Partitioning1D): Skeleton = {
      val leaves = leafRects1D(part.cuts, dataRect).zipWithIndex.map { case (r, i) => PartitionTree.leaf(r, i) }
      Skeleton(PartitionTree.build1D(leaves), leaves, cutAssigner(part.cuts), part.value)
    }
    partitioner match {
      case KdGreedy(k, agg, skew) => kd(KdTree.buildGreedy(points, values, k, agg, dataRect, skew))
      case KdBalanced(k)          => kd(KdTree.buildBalanced(points, values, k, dataRect))
      case other if d != 1        =>
        throw new IllegalArgumentException(s"partitioner $other incompatible with d=$d")
      case Adp1D(k, agg, dm)      => oneD(Dp1D.adp(sorted, k, agg, dm))
      case EqualDepth1D(k)        => oneD(Dp1D.equalDepth(sorted, k))
      case Cuts1D(cuts)           => oneD(Dp1D.Partitioning1D(Array.empty, cuts, Double.NaN))
    }
  }

  def build(
      df: DataFrame,
      predCols: Seq[String],
      aggCol: String,
      partitioner: Partitioner,
      alloc: Allocation,
      optSampleSize: Int = 4096,
      lambda: Double = 2.576,
      seed: Long = 42,
      zeroVarRule: Boolean = true,
  ): BuildResult = {
    val t0 = System.nanoTime()
    val p  = prepare(df, predCols, aggCol)
    require(p.totalRows > 0, "cannot build a synopsis over an empty table")
    val sampleRows = optSample(p, optSampleSize, seed)
    val d          = predCols.length
    val sk         = skeleton(partitioner, sampleRows, d, p.dataRect)
    val leaves     = sk.leaves

    // ---- full-data passes: aggregates + stratified samples --------------------
    val assign    = sk.assign
    val assignUdf = udf((xs: Seq[Double]) => assign(xs.toArray))
    val withLeaf = p.projected
      .withColumn("__leaf", assignUdf(array(predCols.map(col): _*)))
      .persist()
    try {
      val statRows = withLeaf
        .groupBy("__leaf")
        .agg(
          count(col(aggCol)).as("cnt"),
          sum(col(aggCol)).as("sm"),
          min(col(aggCol)).as("mn"),
          max(col(aggCol)).as("mx"),
        )
        .collect()
      val statMap = statRows.map(r =>
        r.getAs[Int]("__leaf") ->
          (r.getAs[Long]("cnt"), r.getAs[Double]("sm"), r.getAs[Double]("mn"), r.getAs[Double]("mx"))
      ).toMap

      for (l <- leaves) statMap.get(l.leafId).foreach { case (c, s, mn, mx) =>
        l.count = c; l.sum = s; l.min = mn; l.max = mx
      }
      PartitionTree.rollUpTree(sk.root)

      val targets: Map[Int, Long] = alloc match {
        case PerLeaf(n)        => leaves.map(l => l.leafId -> n.toLong).toMap
        case TotalBudget(t)    => leaves.map(l => l.leafId -> math.max(1L, t / leaves.length)).toMap
        case Rate(r)           => leaves.map(l => l.leafId -> math.max(1L, math.round(r * l.count))).toMap
      }
      val fractions: Map[Int, Double] = leaves.map { l =>
        val ni = l.count
        l.leafId -> (if (ni == 0) 0.0 else math.min(1.0, targets(l.leafId).toDouble / ni))
      }.toMap

      val sampledRows = withLeaf.stat.sampleBy("__leaf", fractions, seed + 1).collect()
      val samples     = leafSamples(sampledRows, d, leaves.length)

      val synopsis = new PassSynopsis(sk.root, leaves, samples, p.totalRows, lambda, zeroVarRule)
      BuildResult(synopsis, (System.nanoTime() - t0) / 1000000L, sampleRows.length, sk.value)
    } finally withLeaf.unpersist()
  }
}
